#include "storage/write_behind.hpp"

#include <chrono>
#include <thread>

#include "common/clock.hpp"
#include "common/log.hpp"
#include "storage/sharded_backend.hpp"

namespace dedicore::storage {

/// What every entry of one image shares.  `remaining` and `first_error`
/// are guarded by write_behind.state: the entry that drops `remaining` to
/// zero completes the image.
struct WriteBehind::Ticket {
  std::string path;
  int stripe_count = 0;
  std::shared_ptr<const ChunkPlan> plan;  ///< sharded images only
  std::function<void(const Status&)> on_complete;
  std::size_t remaining = 0;
  Status first_error;
};

WriteBehind::WriteBehind(StorageBackend& backend, std::uint64_t budget_bytes,
                         int retries,
                         std::shared_ptr<fault::FaultInjector> faults)
    : backend_(backend),
      budget_bytes_(budget_bytes),
      retries_(retries),
      faults_(std::move(faults)) {
  DEDICORE_CHECK(budget_bytes_ > 0, "WriteBehind: budget must be positive");
  DEDICORE_CHECK(retries_ >= 1, "WriteBehind: retry budget must be >= 1");
  // A sharded backend turns an image into one entry per chunk (see
  // enqueue), so concurrent drainers spread one image's chunks across
  // roots in parallel instead of serializing the whole image on one thread.
  sharded_ = dynamic_cast<ShardedBackend*>(&backend_);
}

WriteBehind::~WriteBehind() { close(); }

void WriteBehind::enqueue(Job job) {
  // Injected producer stall (fault plans only): models a plugin that is
  // slow to reach the enqueue, so drain/stall interleavings can be forced
  // deterministically in tests.
  if (faults_ != nullptr) {
    if (auto fired = faults_->fire("write_behind.enqueue_stall"))
      std::this_thread::sleep_for(std::chrono::microseconds(fired->magnitude));
  }
  auto ticket = std::make_shared<Ticket>();
  ticket->path = std::move(job.path);
  ticket->stripe_count = job.stripe_count;
  ticket->on_complete = std::move(job.on_complete);
  std::vector<Entry> entries;
  if (sharded_ == nullptr) {
    entries.push_back(Entry{ticket, 0, std::move(job.image)});
  } else {
    // Freeze the layout now — placement advances in enqueue order, which
    // is the producers' program order, so twin runs plan identical
    // layouts no matter how the chunks later drain.
    auto plan = sharded_->plan_image(ticket->path, job.image);
    // Each entry owns exactly its stripe, so its memory is returned the
    // moment it drains and resident bytes track pending_bytes_.  (Sharing
    // one full-image buffer would pin the whole image until its LAST
    // chunk drains while the budget shares release per chunk.)
    for (std::size_t i = 0; i < plan->chunk_count(); ++i) {
      const std::byte* base = job.image.data() + plan->offset_of(i);
      entries.push_back(Entry{
          ticket, i, std::vector<std::byte>(base, base + plan->sizes[i])});
    }
    // An empty image has no stripe but still one entry: its completion
    // publishes the manifest that makes the image visible.
    if (entries.empty()) entries.push_back(Entry{ticket, 0, {}});
    ticket->plan = std::move(plan);
    // Free the full image before admission — admit() can block on the
    // budget (or drain entries inline), and the stripes have been copied.
    job.image = std::vector<std::byte>();
  }
  ticket->remaining = entries.size();
  for (Entry& entry : entries) admit(std::move(entry));
}

void WriteBehind::admit(Entry entry) {
  const std::uint64_t bytes = entry.bytes.size();
  Stopwatch blocked;
  for (;;) {
    UniqueLock lock(mutex_);
    DEDICORE_CHECK(!closed_, "WriteBehind: enqueue after close");
    // Admit when the budget has room — or when nothing is pending at all,
    // so an oversized entry is let in alone and can never wait on itself.
    if (pending_bytes_ + bytes <= budget_bytes_ || pending_bytes_ == 0) {
      stats_.enqueue_block_seconds += blocked.elapsed_seconds();
      pending_bytes_ += bytes;
      stats_.max_pending_bytes =
          std::max(stats_.max_pending_bytes, pending_bytes_);
      ++stats_.jobs_enqueued;
      stats_.bytes_enqueued += bytes;
      queue_.push_back(std::move(entry));
      idle_.notify_all();  // a parked drain_all re-arms its pop loop
      return;
    }
    if (!queue_.empty()) {
      // Budget full with queued work: the producer becomes a drainer
      // instead of parking.  This is what makes the queue deadlock-free
      // by construction — the blocked producer may be the only thread
      // that can reach a drain site (e.g. a plugin firing twice under
      // the server's pipeline mutex), so it frees the budget itself.
      // The stall is still real backpressure: the producer is doing disk
      // time instead of completing its iteration.
      Entry head = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
      lock.unlock();
      write_out(std::move(head));
      continue;
    }
    // Every pending byte is in flight on another drainer; those writes
    // finish without any help from us — park until one returns budget.
    while (!closed_ && pending_bytes_ + bytes > budget_bytes_ &&
           pending_bytes_ != 0 && queue_.empty())
      space_.wait(lock);
    // Loop re-checks closed_ (fatal: enqueue-after-close) and re-evaluates
    // admission/drain with the lock held.
  }
}

bool WriteBehind::pop(Entry* out) {
  MutexLock lock(mutex_);
  if (queue_.empty()) return false;
  *out = std::move(queue_.front());
  queue_.pop_front();
  ++in_flight_;
  return true;
}

void WriteBehind::write_out(Entry entry) {
  Ticket& ticket = *entry.ticket;
  const ChunkPlan* plan = ticket.plan.get();
  const std::string name =
      plan == nullptr ? ticket.path
                      : ticket.path + "#chunk-" + std::to_string(entry.chunk);
  Stopwatch timer;
  // Transient (kIoError) failures are retried with bounded exponential
  // backoff: 1 ms doubling to a 50 ms cap, at most `retries_` total
  // attempts.  Anything else — bad path, stale handle — is deterministic
  // and fails immediately.  An entry that exhausts the budget is poison:
  // dropped (its image still completes, with the failure) so it can
  // never wedge drain_all, the idle hook, or shutdown.
  Status st;
  int attempts = 0;
  std::uint64_t retries_used = 0;
  for (;;) {
    ++attempts;
    if (faults_ != nullptr && faults_->should_fire("write_behind.write"))
      st = Status::io_error("write-behind '" + name + "': injected EIO");
    else if (plan == nullptr)
      st = write_image(backend_, ticket.path, entry.bytes, ticket.stripe_count);
    else if (plan->chunk_count() == 0)
      st = Status::ok();  // empty image: nothing to write but the manifest
    else
      st = sharded_->write_chunk(*plan, entry.chunk, entry.bytes);
    if (st.is_ok() || st.code() != StatusCode::kIoError ||
        attempts >= retries_)
      break;
    ++retries_used;
    const std::int64_t backoff_ms =
        attempts >= 7 ? 50 : (std::int64_t{1} << (attempts - 1));
    DEDICORE_LOG(kWarn) << "write-behind: transient failure on '" << name
                        << "' (attempt " << attempts << "/" << retries_
                        << "): " << st.to_string() << "; retrying in "
                        << backoff_ms << "ms";
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
  }
  const bool quarantined = !st.is_ok() && st.code() == StatusCode::kIoError;
  const double drained_in = timer.elapsed_seconds();

  if (quarantined)
    DEDICORE_LOG(kError) << "write-behind: quarantining poison job '" << name
                         << "' after " << attempts
                         << " attempt(s): " << st.to_string();
  else if (!st.is_ok())
    DEDICORE_LOG(kError) << "write-behind: dropping '" << name
                         << "': " << st.to_string();

  // The entry's budget share is released only now, after the backend
  // call and together with its memory: in-flight bytes still occupy
  // memory, so they must still count against the producers.
  const std::uint64_t bytes = entry.bytes.size();
  entry.bytes = std::vector<std::byte>();
  bool last = false;
  Status verdict;
  {
    MutexLock lock(mutex_);
    DEDICORE_CHECK(pending_bytes_ >= bytes,
                   "WriteBehind: pending-byte accounting underflow");
    pending_bytes_ -= bytes;
    stats_.drain_seconds += drained_in;
    stats_.retries += retries_used;
    if (st.is_ok()) {
      ++stats_.jobs_written;
      stats_.bytes_written += bytes;
    } else {
      ++stats_.jobs_failed;
      if (quarantined) ++stats_.jobs_quarantined;
      if (ticket.first_error.is_ok()) ticket.first_error = st;
    }
    last = --ticket.remaining == 0;
    verdict = ticket.first_error;
    space_.notify_all();
  }

  if (last) {
    // This drainer finished the image.  A sharded image becomes visible
    // only now, through its manifest — and never after a chunk failure
    // (a quarantined poison chunk included), so readers cannot see a
    // partially-written image.
    if (plan != nullptr && verdict.is_ok())
      verdict = sharded_->publish_manifest(*plan);
    else if (plan != nullptr)
      DEDICORE_LOG(kError)
          << "write-behind: withholding manifest for '" << ticket.path
          << "' after a chunk failure: " << verdict.to_string();
    if (ticket.on_complete) {
      // Serialized against other callbacks, so producers can account
      // without guarding against concurrent drainers themselves.
      MutexLock serialize(callback_mutex_);
      ticket.on_complete(verdict);
    }
  }

  MutexLock lock(mutex_);
  --in_flight_;
  idle_.notify_all();
}

std::size_t WriteBehind::drain_some(std::size_t max_jobs) {
  std::size_t written = 0;
  Entry entry;
  while (written < max_jobs && pop(&entry)) {
    write_out(std::move(entry));
    ++written;
  }
  return written;
}

bool WriteBehind::try_drain_one() {
  Entry entry;
  if (!pop(&entry)) return false;
  write_out(std::move(entry));
  return true;
}

void WriteBehind::drain_all() {
  for (;;) {
    Entry entry;
    while (pop(&entry)) write_out(std::move(entry));
    // Jobs another drainer popped may still be mid-write: wait them out,
    // so a caller returning from drain_all knows every enqueued image has
    // been attempted and its completion callback has run — a server's
    // shutdown drain must not let a sibling's in-flight write outlive the
    // run.  A producer that slips a new job in meanwhile (another server
    // of the node still finishing) re-arms the pop loop instead of being
    // waited on forever.
    UniqueLock lock(mutex_);
    while (queue_.empty() && in_flight_ != 0) idle_.wait(lock);
    if (queue_.empty() && in_flight_ == 0) return;
  }
}

void WriteBehind::close() {
  {
    // Idempotent: a repeated close still owes the final drain below.
    MutexLock lock(mutex_);
    closed_ = true;
    space_.notify_all();
  }
  drain_all();
}

std::uint64_t WriteBehind::pending_bytes() const {
  MutexLock lock(mutex_);
  return pending_bytes_;
}

std::size_t WriteBehind::pending_jobs() const {
  MutexLock lock(mutex_);
  return queue_.size();
}

WriteBehindStats WriteBehind::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

}  // namespace dedicore::storage
