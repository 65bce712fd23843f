// Event-driven storage model on the DES engine: the virtual-time
// counterpart of fsim::FileSystem, used to replay the paper's experiments
// at Kraken scale (hundreds of nodes, thousands of cores).
//
// Per OST, concurrent flows share bandwidth *with congestion degradation*:
//
//   per-flow rate = B * avail / ( n * (1 + alpha * (n - 1)) )
//
// The (1 + alpha(n-1)) factor models Lustre extent-lock churn and disk
// seek amplification when many clients hit one OST — the mechanism behind
// the paper's collapse of collective I/O to 0.5 GB/s on hardware whose
// raw aggregate is tens of GB/s.  alpha is calibrated in EXPERIMENTS.md.
#pragma once

#include <functional>
#include <map>
#include <vector>

#include "common/rng.hpp"
#include "des/engine.hpp"
#include "fsim/storage_model.hpp"

namespace dedicore::model {

class SimStorage {
 public:
  SimStorage(des::Engine& engine, fsim::StorageConfig config,
             double congestion_alpha);

  /// Serialized metadata operation (file create/open); `done` fires at its
  /// completion time.
  void mds_op(std::function<void()> done);

  /// Starts a write of `chunks` = {(ost, bytes), ...} now; all chunks
  /// proceed concurrently; `done(duration)` fires when the last finishes.
  /// Jitter and interference are applied internally.
  void write(std::vector<std::pair<int, double>> chunks,
             std::function<void(double)> done);

  /// Round-robin striping: chunks of a `bytes`-long file whose stripes
  /// start at OST (file_index * stripe_count) % ost_count.
  [[nodiscard]] std::vector<std::pair<int, double>> stripe_chunks(
      std::uint64_t file_index, double bytes, int stripe_count) const;

  // -- observability ------------------------------------------------------
  [[nodiscard]] double bytes_written() const noexcept { return bytes_written_; }
  [[nodiscard]] std::uint64_t writes() const noexcept { return writes_; }
  [[nodiscard]] std::uint64_t mds_operations() const noexcept { return mds_ops_; }
  [[nodiscard]] double mds_busy_time() const noexcept;
  /// Window of storage activity [first write start, last completion].
  [[nodiscard]] double first_activity() const noexcept { return first_activity_; }
  [[nodiscard]] double last_activity() const noexcept { return last_activity_; }
  /// Total time with at least one active transfer anywhere (union of
  /// write intervals).  With asynchronous Damaris writes the storage sits
  /// idle between iteration bursts; the paper's "aggregate throughput" is
  /// measured while writing, i.e. over this busy span.
  [[nodiscard]] double busy_span() const noexcept { return busy_span_; }
  /// bytes_written / busy_span — sustained throughput while writing.
  [[nodiscard]] double aggregate_throughput() const noexcept;
  /// One contiguous busy interval of the storage system.
  struct Burst {
    double start = 0.0;
    double duration = 0.0;
    double bytes = 0.0;
    [[nodiscard]] double throughput() const noexcept {
      return duration > 0.0 ? bytes / duration : 0.0;
    }
  };
  /// All closed bursts, in time order.
  [[nodiscard]] const std::vector<Burst>& bursts() const noexcept { return bursts_; }
  /// Best burst throughput among bursts carrying at least `min_bytes` —
  /// the paper's "up to X GB/s" figure (min_bytes filters out trivial
  /// lone-writer bursts).
  [[nodiscard]] double peak_burst_throughput(double min_bytes = 0.0) const noexcept;

 private:
  struct Flow {
    std::uint64_t id = 0;
    std::uint64_t request = 0;
  };

  struct Link {
    /// Every flow on a link drains at the same rate, so one cumulative
    /// count of bytes served per flow advances them all: a flow finishes
    /// when `served` reaches its mark (`served` at submit + its bytes).
    std::multimap<double, Flow> flows;  // finish mark -> flow
    double served = 0.0;  ///< reset whenever the link empties
    double last_update = 0.0;
    des::EventId pending_completion = des::kInvalidEvent;
    fsim::InterferenceProcess interference;
    explicit Link(fsim::InterferenceProcess ip) : interference(std::move(ip)) {}
  };

  struct Request {
    int chunks_left = 0;
    double start = 0.0;
    double bytes = 0.0;
    std::function<void(double)> done;
  };

  [[nodiscard]] double rate_per_flow(const Link& link) const noexcept;
  void advance(Link& link);
  void reschedule(int ost);
  void on_link_completion(int ost);

  des::Engine& engine_;
  fsim::StorageConfig config_;
  double alpha_;
  des::SimFifoServer mds_;
  std::vector<Link> links_;
  std::map<std::uint64_t, Request> requests_;
  std::uint64_t next_flow_id_ = 1;
  std::uint64_t next_request_id_ = 1;
  fsim::JitterModel jitter_;
  Rng rng_;

  double bytes_written_ = 0.0;
  std::uint64_t writes_ = 0;
  std::uint64_t mds_ops_ = 0;
  double first_activity_ = -1.0;
  double last_activity_ = 0.0;
  std::uint64_t active_chunks_ = 0;  ///< flows in flight across all OSTs
  double busy_since_ = 0.0;
  double busy_span_ = 0.0;
  double burst_bytes_ = 0.0;  ///< bytes completed in the current burst
  std::vector<Burst> bursts_;
};

}  // namespace dedicore::model
