// ShmTransport — the paper's zero-copy data path: one shared-memory
// segment per node plus one bounded event queue per dedicated core.
//
// Clients allocate blocks straight out of the shared segment (so write()
// costs one memcpy and alloc/commit costs zero) and push only the
// fixed-size Event through the queue; servers read the same segment and
// free blocks after the plugin pipeline ran.  Backpressure is the
// segment's bounded capacity and the queue's bounded length, exactly as in
// §V.C.1.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/fault.hpp"
#include "common/sync.hpp"
#include "common/thread_annotations.hpp"
#include "shm/bounded_queue.hpp"
#include "transport/transport.hpp"
#include "transport/worker_demux.hpp"

namespace dedicore::transport {

/// The node-local shared state both shm endpoints attach to: the segment
/// and one event queue per local server.  Cores mode shares one instance
/// across all ranks of a node; an MPI I/O node builds a queue-less one
/// (queue_count = 0) purely as residency for received blocks.
///
/// The fabric also carries the node's *liveness ledger*.  A real deployment
/// cannot trust a SIGKILL'd client to clean up after itself, so the shared
/// state — not the client — records what each client holds: every block a
/// client acquired but has not yet published (ownership of published blocks
/// passes to the server, which frees them through release()), plus a
/// per-client liveness epoch bumped on every queue push.  A node monitor
/// that sees a client's epoch frozen while the process is gone injects
/// kClientAborted into the server's queue on the corpse's behalf; in this
/// in-process reproduction, ClientTransport::die() plays the monitor —
/// freezing the epoch and enqueueing the abort — and the server's
/// reclaim_client() frees the ledger's outstanding blocks.
struct ShmFabric {
  ShmFabric(std::uint64_t segment_capacity, int queue_count,
            std::size_t queue_capacity)
      : segment(segment_capacity) {
    queues.reserve(static_cast<std::size_t>(queue_count));
    for (int q = 0; q < queue_count; ++q)
      queues.push_back(
          std::make_unique<shm::BoundedQueue<Event>>(queue_capacity));
  }

  shm::Segment segment;
  std::vector<std::unique_ptr<shm::BoundedQueue<Event>>> queues;

  /// Liveness ledger (see above).  Guarded by `ledger_mutex`.
  struct Ledger {
    std::vector<shm::BlockRef> outstanding;  ///< acquired, not yet published
    std::uint64_t epoch = 0;                 ///< bumped per queue push
    bool dead = false;                       ///< epoch frozen by the monitor
    bool reclaimed = false;                  ///< the server took `outstanding`
  };
  /// Leaf lock: every ledger_* method is a self-contained critical
  /// section — nothing is acquired while it is held.
  Mutex ledger_mutex{"shm.ledger"};
  std::unordered_map<int, Ledger> ledgers DEDICORE_GUARDED_BY(ledger_mutex);

  void ledger_acquired(int client, const shm::BlockRef& block) {
    if (client < 0) return;
    MutexLock lock(ledger_mutex);
    ledgers[client].outstanding.push_back(block);
  }
  void ledger_released(int client, const shm::BlockRef& block) {
    if (client < 0) return;
    MutexLock lock(ledger_mutex);
    auto& outstanding = ledgers[client].outstanding;
    for (auto it = outstanding.begin(); it != outstanding.end(); ++it) {
      if (it->offset == block.offset) {
        outstanding.erase(it);
        return;
      }
    }
  }
  void ledger_heartbeat(int client) {
    if (client < 0) return;
    MutexLock lock(ledger_mutex);
    ++ledgers[client].epoch;
  }
  /// Freezes the epoch; returns false if already dead (idempotence).
  bool ledger_mark_dead(int client) {
    MutexLock lock(ledger_mutex);
    Ledger& ledger = ledgers[client];
    if (ledger.dead) return false;
    ledger.dead = true;
    return true;
  }
  /// Takes (and clears) the dead client's outstanding blocks for reclaim;
  /// nullopt when the client was already reclaimed (idempotence).
  std::optional<std::vector<shm::BlockRef>> ledger_take_outstanding(int client) {
    MutexLock lock(ledger_mutex);
    Ledger& ledger = ledgers[client];
    if (ledger.reclaimed) return std::nullopt;
    ledger.reclaimed = true;
    return std::exchange(ledger.outstanding, {});
  }

  /// Closes every queue and unblocks segment waiters (shutdown path and
  /// the conformance suite's close/drain scenario).
  void close() {
    for (auto& queue : queues) queue->close();
    segment.close();
  }
};

class ShmClientTransport final : public ClientTransport {
 public:
  /// Attaches to `fabric` as a producer for the server owning
  /// `fabric->queues[server_index]`.  When `client_index` >= 0 the
  /// transport participates in the fabric's liveness ledger (acquired
  /// blocks are recorded for post-mortem reclaim, queue pushes advance the
  /// epoch) and probes the optional fault injector's "client.die" point on
  /// every publish/post — the deterministic "client dies after event K"
  /// scenario.  The two-argument form (anonymous, no ledger, no faults)
  /// preserves every pre-fault-layer call site.
  ShmClientTransport(std::shared_ptr<ShmFabric> fabric, int server_index,
                     int client_index = -1,
                     std::shared_ptr<fault::FaultInjector> faults = nullptr);

  std::optional<shm::BlockRef> try_acquire(std::uint64_t size) override;
  std::optional<shm::BlockRef> acquire_blocking(std::uint64_t size) override;
  std::span<std::byte> view(const shm::BlockRef& block) override;
  void abandon(const shm::BlockRef& block) override;
  bool publish(const Event& event) override;
  Status try_publish(const Event& event) override;
  bool post(const Event& event) override;
  void die() override;
  [[nodiscard]] bool dead() const override { return dead_; }
  [[nodiscard]] TransportStats stats() const override { return stats_; }

 private:
  /// True when an armed "client.die" fault kills this client at this call.
  bool fault_kills_now();

  std::shared_ptr<ShmFabric> fabric_;
  shm::BoundedQueue<Event>& queue_;
  int client_index_ = -1;
  std::shared_ptr<fault::FaultInjector> faults_;
  bool dead_ = false;
  TransportStats stats_;
};

class ShmServerTransport final : public ServerTransport {
 public:
  ShmServerTransport(std::shared_ptr<ShmFabric> fabric, int server_index);

  /// Multi-worker mode: N concurrent next_event() consumers share this
  /// server's one queue through the leader-follower demux (WorkerDemux);
  /// the leader's blocking drain is the queue's batch pop_all.  Options
  /// select the client→worker assignment (pinned or work-stealing).
  void set_worker_count(int workers, WorkerPoolOptions options = {}) override;
  void set_idle_hook(std::function<bool()> hook) override;
  std::optional<Event> next_event(int worker) override;
  using ServerTransport::next_event;
  void end_of_stream() override { close_intake(); }
  std::span<const std::byte> view(const shm::BlockRef& block) override;
  void release(const shm::BlockRef& block) override;
  /// Frees the dead client's acquired-but-unpublished blocks straight from
  /// the fabric's liveness ledger (a killed process cannot deallocate its
  /// own shared-memory blocks).  Idempotent; callable from any worker.
  void reclaim_client(int source) override;
  [[nodiscard]] TransportStats stats() const override;

  /// Closes this server's intake queue; next_event() drains what is left
  /// (including anything already batched locally) and then returns nullopt.
  void close_intake();

 private:
  std::optional<Event> next_event_single();

  std::shared_ptr<ShmFabric> fabric_;
  shm::BoundedQueue<Event>& queue_;
  /// Local intake batch (single-consumer mode): next_event() drains the
  /// queue with one pop_all critical section and hands events out from
  /// here, so the consumer touches the shared lock once per burst instead
  /// of once per event.
  std::vector<Event> batch_;
  std::size_t batch_cursor_ = 0;
  WorkerDemux demux_;  ///< pooled mode (set_worker_count > 1)
  std::atomic<std::uint64_t> events_received_{0};
  std::atomic<std::uint64_t> clients_aborted_{0};
  std::atomic<std::uint64_t> blocks_reclaimed_{0};
  std::atomic<std::uint64_t> bytes_reclaimed_{0};
  TransportStats stats_;
};

}  // namespace dedicore::transport
