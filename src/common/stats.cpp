#include "common/stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "common/status.hpp"

namespace dedicore {

void OnlineStats::add(double x) noexcept {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::variance() const noexcept {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double OnlineStats::stddev() const noexcept { return std::sqrt(variance()); }

void OnlineStats::merge(const OnlineStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  // Chan et al. parallel combination of moments.
  const double delta = other.mean_ - mean_;
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double n = n1 + n2;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  mean_ += delta * n2 / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Summary::spread() const noexcept {
  if (min <= 0.0) return 0.0;
  return max / min;
}

std::string Summary::to_string() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "n=%zu min=%.6g p50=%.6g p99=%.6g max=%.6g mean=%.6g sd=%.6g",
                count, min, median, p99, max, mean, stddev);
  return buf;
}

void SampleSet::add_all(const std::vector<double>& xs) {
  samples_.insert(samples_.end(), xs.begin(), xs.end());
}

void SampleSet::merge(const SampleSet& other) { add_all(other.samples_); }

namespace {
double percentile_sorted(const std::vector<double>& sorted, double q) {
  DEDICORE_CHECK(!sorted.empty(), "percentile of empty sample set");
  DEDICORE_CHECK(q >= 0.0 && q <= 1.0, "percentile q must be in [0,1]");
  if (sorted.size() == 1) return sorted.front();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}
}  // namespace

double SampleSet::percentile(double q) const {
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  return percentile_sorted(sorted, q);
}

Summary SampleSet::summary() const {
  Summary s;
  if (samples_.empty()) return s;
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  OnlineStats moments;
  for (double x : sorted) moments.add(x);
  s.count = sorted.size();
  s.min = sorted.front();
  s.p25 = percentile_sorted(sorted, 0.25);
  s.median = percentile_sorted(sorted, 0.50);
  s.p75 = percentile_sorted(sorted, 0.75);
  s.p90 = percentile_sorted(sorted, 0.90);
  s.p99 = percentile_sorted(sorted, 0.99);
  s.max = sorted.back();
  s.mean = moments.mean();
  s.stddev = moments.stddev();
  return s;
}

namespace {

// For a positive double, the IEEE-754 bits shifted right so that only the
// exponent and the top log2(kSubBuckets) mantissa bits remain grow with
// the value, one step per sub-bucket: the key's distance from the range
// floor's key is the bucket index.
constexpr int kSubBucketBits = 4;
static_assert(1 << kSubBucketBits == Histogram::kSubBuckets);
constexpr int kKeyShift = 52 - kSubBucketBits;

constexpr std::uint64_t key_of_power_of_two(int exponent) {
  return static_cast<std::uint64_t>(1023 + exponent) << kSubBucketBits;
}
constexpr std::uint64_t kLowKey = key_of_power_of_two(Histogram::kMinExponent);
constexpr std::uint64_t kHighKey = key_of_power_of_two(Histogram::kMaxExponent);

double value_of_key(std::uint64_t key) {
  return std::bit_cast<double>(key << kKeyShift);
}

}  // namespace

std::size_t Histogram::bucket_of(double x) noexcept {
  if (!(x > 0.0)) return 0;  // zero, negatives, NaN
  const std::uint64_t key = std::bit_cast<std::uint64_t>(x) >> kKeyShift;
  if (key < kLowKey) return 0;
  if (key >= kHighKey) return kBuckets - 1;
  return static_cast<std::size_t>(key - kLowKey) + 1;
}

void Histogram::add(double x) noexcept {
  ++counts_[bucket_of(x)];
  moments_.add(x);
}

void Histogram::merge(const Histogram& other) noexcept {
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  moments_.merge(other.moments_);
}

double Histogram::percentile(double q) const {
  DEDICORE_CHECK(count() > 0, "percentile of an empty histogram");
  DEDICORE_CHECK(q >= 0.0 && q <= 1.0, "percentile q must be in [0,1]");
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(count() - 1) + 0.5);
  std::size_t i = 0;
  std::uint64_t seen = counts_[0];
  while (seen <= rank) seen += counts_[++i];
  double estimate = moments_.min();
  if (i == kBuckets - 1) {
    estimate = moments_.max();
  } else if (i > 0) {
    estimate = 0.5 * (value_of_key(kLowKey + i - 1) + value_of_key(kLowKey + i));
  }
  return std::clamp(estimate, moments_.min(), moments_.max());
}

Summary Histogram::summary() const {
  Summary s;
  if (count() == 0) return s;
  s.count = count();
  s.min = moments_.min();
  s.p25 = percentile(0.25);
  s.median = percentile(0.50);
  s.p75 = percentile(0.75);
  s.p90 = percentile(0.90);
  s.p99 = percentile(0.99);
  s.max = moments_.max();
  s.mean = moments_.mean();
  s.stddev = moments_.stddev();
  return s;
}

}  // namespace dedicore
