// Small helpers shared by the end-to-end benchmark: clocks, sample sets,
// content digests and a flat JSON writer.  Nothing here reads the
// library's own *Stats structs — the benchmark times its own calls.
#pragma once

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace bench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double cpu_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
inline double thread_cpu_s() { return cpu_seconds(CLOCK_THREAD_CPUTIME_ID); }
inline double process_cpu_s() { return cpu_seconds(CLOCK_PROCESS_CPUTIME_ID); }

/// A timing distribution.  Percentiles are nearest-rank on the sorted
/// samples, so p99 of n samples has floor(n / 100) samples beyond it.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  void append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  [[nodiscard]] std::size_t count() const { return values_.size(); }
  [[nodiscard]] double percentile(double q) const {
    if (values_.empty()) return 0.0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    const double rank = std::ceil(q * static_cast<double>(sorted.size()));
    const auto index = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
    return sorted[std::min(index, sorted.size() - 1)];
  }
  [[nodiscard]] double median() const { return percentile(0.5); }
  [[nodiscard]] double sum() const {
    double total = 0.0;
    for (double v : values_) total += v;
    return total;
  }

 private:
  std::vector<double> values_;
};

/// 64-bit content digest (word-wise multiply/xorshift mix).  Used to
/// compare read-back datasets with the bytes the simulation wrote.
inline std::uint64_t digest(std::span<const std::byte> bytes) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull ^ bytes.size();
  const auto mix = [&h](std::uint64_t w) {
    h ^= w;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 31;
  };
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, bytes.data() + i, 8);
    mix(w);
  }
  std::uint64_t tail = 0;
  std::memcpy(&tail, bytes.data() + i, bytes.size() - i);
  mix(tail);
  h ^= h >> 29;
  h *= 0x94d049bb133111ebull;
  return h ^ (h >> 32);
}

/// Flat `{"name": {"value": v, "unit": "u"}, ...}` metric map.
class MetricWriter {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    char number[64];
    std::snprintf(number, sizeof(number), "%.9g", std::isfinite(value) ? value : 0.0);
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + name + "\": {\"value\": " + number + ", \"unit\": \"" + unit + "\"}";
  }
  /// `<name>.p50`, `<name>.p99` (in `unit`) and `<name>.count`.
  void add_timing(const std::string& name, const Samples& s, const std::string& unit) {
    add(name + ".p50", s.median(), unit);
    add(name + ".p99", s.percentile(0.99), unit);
    add(name + ".count", static_cast<double>(s.count()), "count");
  }
  [[nodiscard]] std::string json() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

}  // namespace bench
