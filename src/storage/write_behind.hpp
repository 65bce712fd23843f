// Async write-behind queue in front of a StorageBackend.
//
// The dedicated core's storage plugin must never couple the *iteration
// completion path* (which releases segment space / flow credit back to
// clients) to disk latency.  With write-behind, the plugin enqueues the
// finalized h5lite image and returns; server workers drain the queue and
// do the real create/write/close.  The queue is bounded by a byte
// budget: when a slow disk lets pending images accumulate past the budget,
// enqueue() blocks — the pipeline stalls, iterations stop completing,
// blocks stay resident, and the existing credit/segment backpressure
// reaches the clients.  A slow disk therefore backs up into the same
// flow-control machinery as a slow plugin, instead of silently growing an
// unbounded buffer or stalling clients on every write.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/fault.hpp"
#include "common/sync.hpp"
#include "common/thread_annotations.hpp"
#include "storage/backend.hpp"

namespace dedicore::storage {

/// A "job" is one queue entry: a plain image counts once, a sharded image
/// once per chunk.
struct WriteBehindStats {
  std::uint64_t jobs_enqueued = 0;
  std::uint64_t jobs_written = 0;
  /// Jobs whose final verdict was failure (logged + counted + dropped).
  std::uint64_t jobs_failed = 0;
  /// Poison jobs: transient (kIoError) failures that survived the whole
  /// retry budget and were dropped so they cannot wedge the drain.  Every
  /// quarantined job is also counted in jobs_failed.
  std::uint64_t jobs_quarantined = 0;
  /// Individual retry attempts across all jobs (first attempts excluded).
  std::uint64_t retries = 0;
  std::uint64_t bytes_enqueued = 0;
  std::uint64_t bytes_written = 0;
  double enqueue_block_seconds = 0.0;  ///< producer stalls on a full budget
  /// Worker time inside backend calls (including retry backoff sleeps).
  double drain_seconds = 0.0;
  std::uint64_t max_pending_bytes = 0; ///< high-water mark of the queue
};

class ShardedBackend;  // sharded_backend.hpp; enables chunk-granular entries

class WriteBehind {
 public:
  /// What a producer hands over: an image to persist, optionally with a
  /// completion hook.
  struct Job {
    Job() = default;
    Job(std::string path_in, int stripes, std::vector<std::byte> image_in,
        std::function<void(const Status&)> on_complete_in = nullptr)
        : path(std::move(path_in)),
          stripe_count(stripes),
          image(std::move(image_in)),
          on_complete(std::move(on_complete_in)) {}

    std::string path;
    int stripe_count = 0;
    std::vector<std::byte> image;
    /// Invoked once with the image's verdict after its last entry drained
    /// (any drainer thread; callbacks across the queue are serialized, so
    /// shared accounting inside needs no extra locking against other
    /// callbacks).  Producers use it to count durability at *drain* time
    /// — an enqueue is a promise, not a persisted file.
    std::function<void(const Status&)> on_complete;
  };

  /// `budget_bytes` bounds the pending (not yet drained) image bytes; a
  /// single job larger than the budget is still admitted alone, so the
  /// queue can never deadlock on an oversized image.  `retries` is the
  /// total attempt budget per job for *transient* (kIoError) backend
  /// failures: between attempts the drainer backs off exponentially (1 ms
  /// doubling, capped at 50 ms), and a job that exhausts the budget is
  /// quarantined as poison — dropped with its callback run, counted in
  /// WriteBehindStats::jobs_quarantined — instead of wedging the drain or
  /// the shutdown path.  `faults` (optional) enables the
  /// write_behind.* injection points.
  WriteBehind(StorageBackend& backend, std::uint64_t budget_bytes,
              int retries = 3,
              std::shared_ptr<fault::FaultInjector> faults = nullptr);
  ~WriteBehind();

  WriteBehind(const WriteBehind&) = delete;
  WriteBehind& operator=(const WriteBehind&) = delete;

  /// Queues the image as one ticket of chunk entries.  A plain backend's
  /// image is a one-chunk ticket: a single entry that takes the image
  /// over without a copy.  A sharded backend's image is planned here
  /// (plan_image, so placement is deterministic in enqueue order no
  /// matter how drains interleave) and becomes one entry per stripe, each
  /// owning its own copy of the stripe so memory is freed chunk-by-chunk
  /// as the queue drains (residency tracks the byte budget) and
  /// concurrent drainers write one image's chunks to different roots in
  /// parallel.  Every entry is budgeted, retried and quarantined on its
  /// own; the drainer that finishes an image's last entry publishes it (a
  /// sharded image's manifest, withheld if any chunk failed, so a
  /// partially-failed image is never visible) and fires on_complete once
  /// with the image's verdict.
  ///
  /// While the byte budget is exhausted the caller is held up
  /// (backpressure) — but never parked helplessly: if queued work exists,
  /// the producer drains it itself (it may be the only thread able to
  /// reach a drain site, e.g. a plugin firing repeatedly under the
  /// server's pipeline mutex), and it only sleeps when every pending byte
  /// is in flight on another drainer.  Deadlock-free by construction.
  /// Fatal after close().
  void enqueue(Job job);

  /// Drains up to `max_jobs` pending jobs (queue entries: one chunk of
  /// an image each) on the calling thread (server workers call this
  /// opportunistically after completing an iteration's pipeline).
  /// Returns the number of jobs written.  Concurrent callers drain
  /// disjoint jobs.
  std::size_t drain_some(std::size_t max_jobs);

  /// Non-blocking single-job drain: pops and writes one pending job, or
  /// returns false immediately when the queue is empty.  This is the
  /// idle-worker hook — a pooled server worker parked in next_event()
  /// with nothing to consume or steal calls it instead of sleeping, so
  /// disk drain overlaps event waits.  Never waits for in-flight jobs.
  bool try_drain_one();

  /// Drains until the queue is empty *and no job is in flight on another
  /// drainer* — when it returns, every enqueued image has been durably
  /// attempted and its on_complete has run (shutdown path; also wakes
  /// producers).
  ///
  /// Audit notes (same discipline as the BoundedQueue condvar audits):
  ///  * No lost wakeup: idle_ is waited on under mutex_, and both state
  ///    transitions its predicate watches are made AND notified while
  ///    mutex_ is held — enqueue() pushes onto queue_ then notifies, and
  ///    write_out() decrements in_flight_ then notifies.  A waiter
  ///    therefore either observes the new state at the predicate check or
  ///    is woken by the notification; there is no window where the state
  ///    changes between the check and the wait registration.
  ///  * No double count / double drain: an entry moves queue_ ->
  ///    in_flight_ exactly once, atomically under mutex_ (pop()), and its
  ///    budget share, stats and ticket countdown are settled exactly
  ///    once, in write_out()'s accounting block — so exactly one drainer
  ///    sees an image's countdown reach zero and completes it.  in_flight_
  ///    drops only after that completion, and drain_all never touches an
  ///    entry another drainer popped — it waits for in_flight_ == 0
  ///    instead, so no on_complete can run twice or after drain_all.
  ///  * Termination: retries are bounded (poison entries are quarantined
  ///    after the retry budget, never re-enqueued), so every in-flight
  ///    entry finishes in bounded time and in_flight_ is monotonically
  ///    drained once producers stop; a producer that slips a new job in
  ///    meanwhile re-arms the pop loop instead of being waited on forever.
  void drain_all();

  /// Rejects further enqueues and drains what is left.  Idempotent;
  /// called by the destructor.
  void close();

  [[nodiscard]] std::uint64_t pending_bytes() const;
  [[nodiscard]] std::size_t pending_jobs() const;
  [[nodiscard]] WriteBehindStats stats() const;
  [[nodiscard]] StorageBackend& backend() noexcept { return backend_; }

 private:
  /// One enqueued image, shared by its entries (write_behind.cpp).
  struct Ticket;
  /// The one queue entry: chunk `chunk` of the ticket's image, owning
  /// exactly its bytes (the whole image for a one-chunk ticket).
  struct Entry {
    std::shared_ptr<Ticket> ticket;
    std::size_t chunk = 0;
    std::vector<std::byte> bytes;
  };

  /// Budget admission of one entry (the producer drains while full).
  void admit(Entry entry);
  /// Pops one entry; false when the queue is empty.
  bool pop(Entry* out);
  /// Writes one entry with retry/backoff/quarantine, settles its
  /// accounting, and completes the image when it was the last entry.
  void write_out(Entry entry);

  StorageBackend& backend_;
  ShardedBackend* sharded_ = nullptr;  ///< non-null when backend_ is sharded
  const std::uint64_t budget_bytes_;
  const int retries_;  ///< total attempts per entry on transient failures
  std::shared_ptr<fault::FaultInjector> faults_;

  /// Queue + budget + counters + every ticket's countdown.  Never held
  /// across a backend call, a manifest publish or an on_complete callback.
  mutable Mutex mutex_{"write_behind.state"};
  CondVar space_;   ///< producers waiting for budget
  CondVar idle_;    ///< drain_all waiting for in-flight jobs
  /// Serializes on_complete invocations (not the backend writes), so
  /// producer-side accounting never races another drainer's callback.
  /// Held only around the producer's hook: no write-behind or storage
  /// lock is taken under it, and it never nests with write_behind.state.
  Mutex callback_mutex_{"write_behind.callback"};
  std::deque<Entry> queue_ DEDICORE_GUARDED_BY(mutex_);
  /// Queued + in-flight drain bytes.
  std::uint64_t pending_bytes_ DEDICORE_GUARDED_BY(mutex_) = 0;
  /// Entries popped whose write_out has not finished (including the
  /// completion of the image they were last of).
  int in_flight_ DEDICORE_GUARDED_BY(mutex_) = 0;
  bool closed_ DEDICORE_GUARDED_BY(mutex_) = false;
  WriteBehindStats stats_ DEDICORE_GUARDED_BY(mutex_);
};

}  // namespace dedicore::storage
