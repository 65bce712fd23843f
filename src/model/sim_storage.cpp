#include "model/sim_storage.hpp"

#include <algorithm>

namespace dedicore::model {

namespace {
// Flows below this many bytes are complete.  Must be large enough that a
// remaining amount too small to advance virtual time (bytes / rate below
// the double ulp of `now`) still counts as finished — otherwise a
// completion event can reschedule itself at the same timestamp forever.
constexpr double kRemainingEpsilon = 1e-3;
}  // namespace

SimStorage::SimStorage(des::Engine& engine, fsim::StorageConfig config,
                       double congestion_alpha)
    : engine_(engine), config_(config), alpha_(congestion_alpha),
      mds_(engine),
      jitter_(config, Rng(config.seed ^ 0x243f6a8885a308d3ull)),
      rng_(config.seed) {
  config_.validate();
  DEDICORE_CHECK(congestion_alpha >= 0.0, "congestion alpha must be >= 0");
  Rng root(config_.seed ^ 0x13198a2e03707344ull);
  links_.reserve(static_cast<std::size_t>(config_.ost_count));
  for (int i = 0; i < config_.ost_count; ++i)
    links_.emplace_back(fsim::InterferenceProcess(config_, root.split()));
}

void SimStorage::mds_op(std::function<void()> done) {
  ++mds_ops_;
  mds_.request(config_.mds_op_cost, std::move(done));
}

double SimStorage::mds_busy_time() const noexcept { return mds_.busy_time(); }

double SimStorage::rate_per_flow(const Link& link) const noexcept {
  const auto n = static_cast<double>(link.flows.size());
  if (n <= 0.0) return 0.0;
  return config_.ost_bandwidth / (n * (1.0 + alpha_ * (n - 1.0)));
}

void SimStorage::advance(Link& link) {
  const double now = engine_.now();
  const double dt = now - link.last_update;
  if (dt > 0.0 && !link.flows.empty()) link.served += rate_per_flow(link) * dt;
  link.last_update = now;
}

void SimStorage::reschedule(int ost) {
  Link& link = links_[static_cast<std::size_t>(ost)];
  if (link.pending_completion != des::kInvalidEvent) {
    engine_.cancel(link.pending_completion);
    link.pending_completion = des::kInvalidEvent;
  }
  if (link.flows.empty()) return;
  const double least = link.flows.begin()->first - link.served;
  // Flows at/below the epsilon complete immediately; on_link_completion
  // erases them, so progress is guaranteed.
  const double delay =
      least <= kRemainingEpsilon ? 0.0 : least / rate_per_flow(link);
  link.pending_completion = engine_.schedule_at(
      engine_.now() + delay, [this, ost] { on_link_completion(ost); });
}

void SimStorage::on_link_completion(int ost) {
  Link& link = links_[static_cast<std::size_t>(ost)];
  link.pending_completion = des::kInvalidEvent;
  advance(link);

  std::vector<Flow> finished;
  while (!link.flows.empty() &&
         link.flows.begin()->first - link.served <= kRemainingEpsilon) {
    finished.push_back(link.flows.begin()->second);
    link.flows.erase(link.flows.begin());
  }
  if (link.flows.empty()) link.served = 0.0;
  // Completion callbacks fire in flow-id (submission) order.
  std::sort(finished.begin(), finished.end(),
            [](const Flow& a, const Flow& b) { return a.id < b.id; });
  DEDICORE_CHECK(active_chunks_ >= finished.size(),
                 "SimStorage: chunk accounting underflow");
  active_chunks_ -= finished.size();
  if (active_chunks_ == 0 && !finished.empty())
    busy_span_ += engine_.now() - busy_since_;
  for (const Flow& flow : finished) {
    auto it = requests_.find(flow.request);
    DEDICORE_CHECK(it != requests_.end(), "SimStorage: orphan flow");
    if (--it->second.chunks_left == 0) {
      const double duration = engine_.now() - it->second.start;
      last_activity_ = std::max(last_activity_, engine_.now());
      burst_bytes_ += it->second.bytes;
      auto done = std::move(it->second.done);
      requests_.erase(it);
      if (done) done(duration);
    }
  }
  if (active_chunks_ == 0 && !finished.empty()) {  // burst closed
    bursts_.push_back(
        Burst{busy_since_, engine_.now() - busy_since_, burst_bytes_});
  }
  reschedule(ost);
}

void SimStorage::write(std::vector<std::pair<int, double>> chunks,
                       std::function<void(double)> done) {
  DEDICORE_CHECK(!chunks.empty(), "SimStorage::write: no chunks");
  const double now = engine_.now();
  if (first_activity_ < 0.0) first_activity_ = now;
  if (active_chunks_ == 0) {
    busy_since_ = now;
    burst_bytes_ = 0.0;
  }
  active_chunks_ += chunks.size();
  ++writes_;

  const std::uint64_t rid = next_request_id_++;
  Request request;
  request.start = now;
  request.chunks_left = static_cast<int>(chunks.size());
  for (const auto& [ost, b] : chunks) request.bytes += b;
  request.done = std::move(done);
  requests_.emplace(rid, std::move(request));

  const double factor = jitter_.factor();
  for (auto& [ost, bytes] : chunks) {
    DEDICORE_CHECK(ost >= 0 && ost < config_.ost_count,
                   "SimStorage::write: OST index out of range");
    DEDICORE_CHECK(bytes > 0.0, "SimStorage::write: empty chunk");
    bytes_written_ += bytes;
    Link& link = links_[static_cast<std::size_t>(ost)];
    advance(link);
    // Interference steals a share of the OST for the whole transfer; model
    // it as byte inflation sampled from the process state at submit time.
    const double avail = link.interference.available_fraction(now);
    link.flows.emplace(link.served + bytes * factor / std::max(avail, 0.05),
                       Flow{next_flow_id_++, rid});
    reschedule(ost);
  }
}

std::vector<std::pair<int, double>> SimStorage::stripe_chunks(
    std::uint64_t file_index, double bytes, int stripe_count) const {
  DEDICORE_CHECK(stripe_count > 0 && stripe_count <= config_.ost_count,
                 "stripe_chunks: bad stripe count");
  // Hash the file index so stripe origins spread uniformly over the OSTs
  // (Lustre assigns starting OSTs round-robin per creation order, which is
  // effectively uncorrelated with our dense file-index numbering; a
  // multiplicative hash reproduces that decorrelation).
  std::uint64_t h = file_index;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  h ^= h >> 31;
  const int origin =
      static_cast<int>(h % static_cast<std::uint64_t>(config_.ost_count));
  std::vector<std::pair<int, double>> out;
  const double per = bytes / stripe_count;
  for (int s = 0; s < stripe_count; ++s)
    out.emplace_back((origin + s) % config_.ost_count, per);
  return out;
}

double SimStorage::aggregate_throughput() const noexcept {
  if (first_activity_ < 0.0) return 0.0;
  double span = busy_span_;
  if (active_chunks_ > 0)  // still mid-burst: count the open interval
    span += last_activity_ - busy_since_;
  if (span <= 0.0) span = last_activity_ - first_activity_;
  return span > 0.0 ? bytes_written_ / span : 0.0;
}

double SimStorage::peak_burst_throughput(double min_bytes) const noexcept {
  double peak = 0.0;
  for (const Burst& burst : bursts_)
    if (burst.bytes >= min_bytes) peak = std::max(peak, burst.throughput());
  return std::max(peak, aggregate_throughput());
}

}  // namespace dedicore::model
