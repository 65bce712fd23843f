// The dedicated-core event loop.
//
// A Server runs on a core that "does not run the simulation's code, but
// handles asynchronous I/O operations on behalf of the other cores".  It
// pops events from its shared queue, indexes incoming blocks, and when all
// of its clients have closed an iteration it fires the configured plugin
// pipeline (storage, compression, analysis, visualization), then releases
// the iteration's blocks from the segment.
//
// The loop keeps an idle/busy ledger: the paper measures dedicated cores
// idle 92–99 % of the time (§IV.D), which is what makes piggybacking
// compression and in-situ analysis free.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/sync.hpp"
#include "common/thread_annotations.hpp"
#include "core/node_runtime.hpp"
#include "core/plugin.hpp"
#include "transport/transport.hpp"

namespace dedicore::core {

/// The event loop's own ledger.  Facts another layer owns are read from
/// that layer: the transport's (remote payloads, steals, idle drains,
/// aborts, its own reclaim) through Server::transport_stats(), the
/// codecs' through NodeRuntime::emit->stats(), durable files and bytes
/// through the store plugin's totals.
struct ServerStats {
  /// Worker threads that drained this server's transport (1 = the classic
  /// single-threaded event loop).  idle/busy below are summed across the
  /// pool, so idle_fraction() keeps meaning "share of worker-time spent
  /// blocked on an empty intake".
  int workers = 1;
  double idle_seconds = 0.0;   ///< blocked on an empty queue
  double busy_seconds = 0.0;   ///< indexing, plugins, frees
  std::uint64_t events_processed = 0;
  std::uint64_t blocks_received = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t iterations_completed = 0;
  std::uint64_t client_skips = 0;      ///< kIterationSkipped events seen
  /// Blocks / bytes this server released for dead clients: zombies
  /// (published after the abort was consumed) and, under
  /// on_client_failure="drop_iteration", the corpse's indexed blocks.
  std::uint64_t blocks_reclaimed = 0;
  std::uint64_t bytes_reclaimed = 0;
  Summary pipeline_time;               ///< seconds per completed iteration

  [[nodiscard]] double idle_fraction() const noexcept {
    const double total = idle_seconds + busy_seconds;
    return total > 0.0 ? idle_seconds / total : 0.0;
  }
};

class Server {
 public:
  /// `server_index` selects this server's index within the node (always 0
  /// on a dedicated I/O rank); `transport` is the event intake + block
  /// residency, `client_count` the number of clients whose stop events end
  /// the run.  Plugins are instantiated from the configuration's actions.
  /// `worker_count` > 1 runs the event loop on a pool of that many worker
  /// threads draining the one transport concurrently (dedicated-nodes
  /// mode: the runtime's answer to a full-width I/O node) — clients stay
  /// pinned to one worker each, and the plugin pipeline is serialized per
  /// server (plugins need not be thread-safe).
  Server(std::shared_ptr<NodeRuntime> node, int server_index,
         std::unique_ptr<transport::ServerTransport> transport,
         int client_count, int worker_count = 1);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Processes events until every client of this server has sent
  /// kClientStop (and all their iterations have been completed).  With a
  /// worker pool, shutdown is ordered: the worker that consumes the final
  /// stop signals end_of_stream(), the pool drains and joins, and only
  /// then are the worker ledgers folded — no credit/queue teardown races
  /// a live worker.
  void run();

  /// A copy taken under the state lock, so a read while the run is live
  /// is race-free; idle/busy/events join it once run() returns.
  [[nodiscard]] ServerStats stats() const;

  /// Data-path counters of the underlying transport (remote payloads,
  /// steals, idle drains, dead clients and what its reclaim freed).
  [[nodiscard]] transport::TransportStats transport_stats() const {
    return transport_->stats();
  }

  /// The plugin instance bound to (event, plugin-name), for post-run
  /// inspection by tests and examples; nullptr when not bound.
  [[nodiscard]] Plugin* find_plugin(const std::string& event,
                                    const std::string& plugin_name);

 private:
  struct BoundAction {
    ActionSpec spec;
    std::unique_ptr<Plugin> plugin;
  };

  /// Per-worker time/event ledger, folded into stats_ (under the then
  /// uncontended state lock) after the pool joins, so the hot loop never
  /// contends on shared counters.
  struct WorkerLedger {
    double idle_seconds = 0.0;
    double busy_seconds = 0.0;
    std::uint64_t events = 0;
  };

  void worker_loop(int worker, WorkerLedger& ledger);
  void handle(const Event& event);
  void handle_client_abort(int source);
  void complete_iteration(Iteration iteration);
  void fire(const std::string& event_name, Iteration iteration,
            const Event* trigger);

  /// With state_mutex_ held: true when every client still alive has closed
  /// the iteration — dead clients are treated as having closed everything
  /// (their partial contribution was already dropped or kept per policy).
  [[nodiscard]] bool iteration_satisfied_locked(
      const std::set<int>& closed_sources) const
      DEDICORE_REQUIRES(state_mutex_);
  /// With state_mutex_ held: true once every client has either stopped or
  /// died — the run's termination condition.
  [[nodiscard]] bool all_clients_finished_locked() const
      DEDICORE_REQUIRES(state_mutex_) {
    return stopped_clients_ + static_cast<int>(dead_clients_.size()) >=
           client_count_;
  }

  std::shared_ptr<NodeRuntime> node_;
  int server_index_;
  std::unique_ptr<transport::ServerTransport> transport_;
  int client_count_;
  int worker_count_;
  std::vector<BoundAction> actions_;
  ServerStats stats_ DEDICORE_GUARDED_BY(state_mutex_);
  Histogram pipeline_times_ DEDICORE_GUARDED_BY(state_mutex_);

  /// Guards the cross-worker bookkeeping (iteration_closes_,
  /// stopped_clients_, dead_clients_, stats_, pipeline_times_).  Never
  /// held across a plugin run, a transport call, or pipeline_mutex_ — it
  /// is a leaf in the lock hierarchy.
  mutable Mutex state_mutex_{"server.state"};
  /// Serializes the plugin pipeline per server: workers parallelize event
  /// intake and indexing, but plugins are not required to be thread-safe,
  /// so at most one pipeline (or signal action) runs at a time.  Plugins
  /// call into the transport, the emit stage, and the write-behind queue
  /// while it is held, so server.pipeline sits ABOVE those classes in the
  /// lock hierarchy; it never nests with server.state in either order.
  Mutex pipeline_mutex_{"server.pipeline"};
  /// Set by the worker that consumes the final kClientStop; workers check
  /// it between events so the pool winds down without another blocking
  /// next_event() on an already-finished stream.
  std::atomic<bool> done_{false};
  /// True when the pooled transport's idle hook drains write-behind jobs
  /// (then complete_iteration skips its inline drain — idle workers own
  /// the disk, the completing worker returns to the event stream).
  /// Written once in run() before the pool spawns, immutable after — no
  /// lock needed.
  bool idle_drain_active_ = false;

  // Iteration bookkeeping: iteration -> the client sources that closed it
  // (end or skip).  Sets rather than counts so a client's death can be
  // reconciled against the iterations it never got to close.
  std::map<Iteration, std::set<int>> iteration_closes_
      DEDICORE_GUARDED_BY(state_mutex_);
  int stopped_clients_ DEDICORE_GUARDED_BY(state_mutex_) = 0;
  /// Sources whose kClientAborted was consumed.
  std::set<int> dead_clients_ DEDICORE_GUARDED_BY(state_mutex_);
};

}  // namespace dedicore::core
