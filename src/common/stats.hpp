// Statistics collectors: streaming mean/variance (Welford), min/max,
// exact percentile summaries of retained samples, and a fixed-memory
// log-bucketed histogram.  The variability experiment (E2) reports min /
// median / p99 / max write times per strategy, which is what
// `SampleSet::summary()` produces; long-lived objects (clients, servers,
// the filesystem simulator) summarize their latencies with `Histogram`,
// whose memory does not grow with the number of samples.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dedicore {

/// Streaming moments without retaining samples.  O(1) space.
class OnlineStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return count_ ? mean_ : 0.0; }
  /// Unbiased sample variance (0 when fewer than two samples).
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return count_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return sum_; }

  /// Merge another collector (parallel reduction of per-rank stats).
  void merge(const OnlineStats& other) noexcept;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Five-number-plus summary of a sample set.
struct Summary {
  std::size_t count = 0;
  double min = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double stddev = 0.0;

  /// max/min ratio — the paper's "orders of magnitude between the slowest
  /// and the fastest process" metric.  Returns 0 when min == 0.
  [[nodiscard]] double spread() const noexcept;

  [[nodiscard]] std::string to_string() const;
};

/// Retains samples and computes exact percentiles on demand.
class SampleSet {
 public:
  void add(double x) { samples_.push_back(x); }
  void add_all(const std::vector<double>& xs);
  void merge(const SampleSet& other);
  void reserve(std::size_t n) { samples_.reserve(n); }

  [[nodiscard]] std::size_t size() const noexcept { return samples_.size(); }
  [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }
  [[nodiscard]] const std::vector<double>& samples() const noexcept { return samples_; }

  /// Linear-interpolated percentile, q in [0,1].  Sorts a copy; call
  /// summary() instead when several quantiles are needed.
  [[nodiscard]] double percentile(double q) const;

  [[nodiscard]] Summary summary() const;

 private:
  std::vector<double> samples_;
};

/// Fixed-memory latency histogram, HdrHistogram-style: every power of
/// two in [2^kMinExponent, 2^kMaxExponent) is split into kSubBuckets
/// equal-width buckets (with seconds, about 1 ns to 36 h).  Count, min,
/// max, mean and stddev are exact; percentiles are bucket midpoints
/// clamped to [min, max], within 1 / (2 * kSubBuckets) ~ 3.1 % relative
/// error inside the range.  Values below the range (zero and negatives
/// included) land in the first bucket, values at or above it in the last.
/// No heap: trivially copyable, a few KiB inline.
class Histogram {
 public:
  static constexpr int kMinExponent = -30;
  static constexpr int kMaxExponent = 17;
  static constexpr int kSubBuckets = 16;
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kMaxExponent - kMinExponent) * kSubBuckets + 2;

  void add(double x) noexcept;
  void merge(const Histogram& other) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return moments_.count(); }
  /// Samples in bucket `i` (0 = below the range, kBuckets - 1 = above).
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const { return counts_.at(i); }
  [[nodiscard]] static std::size_t bucket_of(double x) noexcept;

  /// Zero Summary when empty.
  [[nodiscard]] Summary summary() const;

 private:
  /// Midpoint of the bucket holding the sample nearest the rank that
  /// SampleSet::percentile interpolates at, q in [0,1].
  [[nodiscard]] double percentile(double q) const;

  std::array<std::uint64_t, kBuckets> counts_{};
  OnlineStats moments_;
};

}  // namespace dedicore
