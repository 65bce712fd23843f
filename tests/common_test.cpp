// Tests for src/common: status, rng/distributions, statistics, tables,
// byte parsing.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <type_traits>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "common/table.hpp"
#include "framework/test_infra.hpp"

namespace dedicore {
namespace {

// ---------------------------------------------------------------------------
// Status
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_TRUE(static_cast<bool>(s));
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::out_of_memory("segment full");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kOutOfMemory);
  EXPECT_EQ(s.message(), "segment full");
  EXPECT_EQ(s.to_string(), "OUT_OF_MEMORY: segment full");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_NE(status_code_name(static_cast<StatusCode>(c)), "UNKNOWN");
  }
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  Rng a2(123);
  EXPECT_NE(a2.next_u64(), c.next_u64());
}

TEST(RngTest, DoublesInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(5.0, 6.5);
    EXPECT_GE(x, 5.0);
    EXPECT_LT(x, 6.5);
  }
}

TEST(RngTest, NextBelowIsUnbiasedAcrossRange) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.next_below(10));
  EXPECT_EQ(seen.size(), 10u);  // every residue appears
  for (auto v : seen) EXPECT_LT(v, 10u);
}

TEST(RngTest, NormalMomentsConverge) {
  Rng rng(13);
  OnlineStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(RngTest, LognormalIsPositiveWithHeavyTail) {
  Rng rng(17);
  double max_seen = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.lognormal(0.0, 1.0);
    EXPECT_GT(x, 0.0);
    max_seen = std::max(max_seen, x);
  }
  EXPECT_GT(max_seen, 10.0);  // tail reaches well past the median of 1
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(19);
  OnlineStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.exponential(4.0));
  EXPECT_NEAR(stats.mean(), 0.25, 0.01);
}

TEST(RngTest, BoundedParetoStaysInBounds) {
  Rng rng(23);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.bounded_pareto(1.0, 64.0, 1.1);
    EXPECT_GE(x, 1.0 - 1e-9);
    EXPECT_LE(x, 64.0 + 1e-9);
  }
}

TEST(RngTest, ChanceFrequencyMatchesProbability) {
  Rng rng(29);
  int hits = 0;
  for (int i = 0; i < 50000; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 50000.0, 0.3, 0.01);
}

TEST(RngTest, SplitStreamsAreIndependent) {
  Rng parent(31);
  Rng child = parent.split();
  // Child and parent should diverge immediately.
  EXPECT_NE(parent.next_u64(), child.next_u64());
}

// ---------------------------------------------------------------------------
// OnlineStats / SampleSet / Histogram
// ---------------------------------------------------------------------------

TEST(OnlineStatsTest, BasicMoments) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(OnlineStatsTest, MergeEqualsSequential) {
  OnlineStats a, b, all;
  Rng rng(37);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal();
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(OnlineStatsTest, MergeWithEmptyIsIdentity) {
  OnlineStats a, empty;
  a.add(1.0);
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  OnlineStats b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(SampleSetTest, ExactPercentiles) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);
  EXPECT_NEAR(s.percentile(0.5), 50.5, 1e-9);
  const Summary sum = s.summary();
  EXPECT_EQ(sum.count, 100u);
  EXPECT_NEAR(sum.median, 50.5, 1e-9);
  EXPECT_NEAR(sum.p99, 99.01, 0.1);
}

TEST(SampleSetTest, SpreadIsMaxOverMin) {
  SampleSet s;
  s.add(0.1);
  s.add(100.0);
  EXPECT_NEAR(s.summary().spread(), 1000.0, 1e-6);
}

TEST(SampleSetTest, SingleSampleSummary) {
  SampleSet s;
  s.add(42.0);
  const Summary sum = s.summary();
  EXPECT_EQ(sum.count, 1u);
  EXPECT_DOUBLE_EQ(sum.min, 42.0);
  EXPECT_DOUBLE_EQ(sum.max, 42.0);
  EXPECT_DOUBLE_EQ(sum.median, 42.0);
  EXPECT_DOUBLE_EQ(sum.stddev, 0.0);
}

TEST(SampleSetTest, MergeConcatenates) {
  SampleSet a, b;
  a.add(1.0);
  b.add(2.0);
  b.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.size(), 3u);
}

// A heap buffer here would make every long-lived latency summary grow
// with the run again.
static_assert(std::is_trivially_copyable_v<Histogram>);

/// Seeded latencies spanning about 1 us to 1 s (median 1 ms).
std::vector<double> lognormal_latencies(std::uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(rng.lognormal(std::log(1e-3), 2.3));
  return out;
}

void expect_within_relative(double got, double want, double tolerance,
                            const char* what) {
  EXPECT_LE(std::abs(got - want), tolerance * std::abs(want))
      << what << ": histogram " << got << " vs exact " << want;
}

TEST(HistogramTest, SummaryMatchesExactSampleSet) {
  Histogram h;
  SampleSet exact;
  for (double x : lognormal_latencies(41, 100000)) {
    h.add(x);
    exact.add(x);
  }
  const Summary got = h.summary();
  const Summary want = exact.summary();
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(got.min, want.min);
  EXPECT_EQ(got.max, want.max);
  expect_within_relative(got.mean, want.mean, 1e-9, "mean");
  expect_within_relative(got.stddev, want.stddev, 1e-9, "stddev");
  expect_within_relative(got.p25, want.p25, 0.05, "p25");
  expect_within_relative(got.median, want.median, 0.05, "median");
  expect_within_relative(got.p75, want.p75, 0.05, "p75");
  expect_within_relative(got.p90, want.p90, 0.05, "p90");
  expect_within_relative(got.p99, want.p99, 0.05, "p99");
}

TEST(HistogramTest, MergeEqualsAddingBothSampleSets) {
  Histogram a, b, all;
  for (double x : lognormal_latencies(5, 5000)) {
    a.add(x);
    all.add(x);
  }
  for (double x : lognormal_latencies(6, 3000)) {
    b.add(x);
    all.add(x);
  }
  a.merge(b);
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i)
    ASSERT_EQ(a.bucket(i), all.bucket(i)) << "bucket " << i;
  const Summary merged = a.summary();
  const Summary direct = all.summary();
  EXPECT_EQ(merged.count, direct.count);
  EXPECT_EQ(merged.min, direct.min);
  EXPECT_EQ(merged.max, direct.max);
  EXPECT_EQ(merged.median, direct.median);
  EXPECT_EQ(merged.p99, direct.p99);
  EXPECT_NEAR(merged.mean, direct.mean, 1e-12 * direct.mean);
}

TEST(HistogramTest, EmptyGivesZeroSummary) {
  const Summary s = Histogram{}.summary();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.min, 0.0);
  EXPECT_EQ(s.median, 0.0);
  EXPECT_EQ(s.p99, 0.0);
  EXPECT_EQ(s.max, 0.0);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.stddev, 0.0);
}

TEST(HistogramTest, OutOfRangeValuesLandInEdgeBuckets) {
  constexpr std::size_t kLast = Histogram::kBuckets - 1;
  const double floor = std::ldexp(1.0, Histogram::kMinExponent);
  const double ceiling = std::ldexp(1.0, Histogram::kMaxExponent);
  EXPECT_EQ(Histogram::bucket_of(0.0), 0u);
  EXPECT_EQ(Histogram::bucket_of(-1.0), 0u);
  EXPECT_EQ(Histogram::bucket_of(floor / 2), 0u);
  EXPECT_EQ(Histogram::bucket_of(floor), 1u);
  EXPECT_EQ(Histogram::bucket_of(std::nextafter(ceiling, 0.0)), kLast - 1);
  EXPECT_EQ(Histogram::bucket_of(ceiling), kLast);
  EXPECT_EQ(Histogram::bucket_of(1e300), kLast);

  Histogram h;
  for (double x : {0.0, -3.0, 1e-12, 1e9, 1e-3}) h.add(x);
  EXPECT_EQ(h.bucket(0), 3u);
  EXPECT_EQ(h.bucket(kLast), 1u);
  const Summary s = h.summary();
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.min, -3.0);  // exact, though its bucket has no bounds
  EXPECT_EQ(s.max, 1e9);
  EXPECT_EQ(s.p99, 1e9);   // the overflow bucket reports the exact max
  EXPECT_EQ(s.median, -3.0);  // the underflow bucket reports the exact min
}

// ---------------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------------

TEST(TableTest, AlignedRendering) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.columns(), 2u);
  EXPECT_TRUE(testing::table_rows_equal(t, {{"alpha", "1"}, {"b", "22"}}));
  EXPECT_TRUE(testing::table_matches_golden(t,
                                            "name   value\n"
                                            "------------\n"
                                            "alpha  1\n"
                                            "b      22\n"));
}

TEST(TableTest, CsvEscapesSpecials) {
  Table t({"a", "b"});
  t.add_row({"x,y", "say \"hi\""});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(TableTest, FormatHelpers) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_count(9216), "9,216");
  EXPECT_EQ(fmt_count(1234567), "1,234,567");
  EXPECT_EQ(fmt_count(7), "7");
  EXPECT_EQ(fmt_speedup(3.5), "3.50x");
  EXPECT_EQ(fmt_percent(0.923), "92.3%");
}

// ---------------------------------------------------------------------------
// bytes
// ---------------------------------------------------------------------------

TEST(BytesTest, ParseDecimalAndBinaryUnits) {
  EXPECT_EQ(parse_bytes("4096"), 4096u);
  EXPECT_EQ(parse_bytes("2k"), 2000u);
  EXPECT_EQ(parse_bytes("64MB"), 64000000u);
  EXPECT_EQ(parse_bytes("1GiB"), kGiB);
  EXPECT_EQ(parse_bytes("1.5 MiB"), kMiB + kMiB / 2);
  EXPECT_EQ(parse_bytes(" 10 gb "), 10000000000u);
}

TEST(BytesTest, ParseRejectsGarbage) {
  EXPECT_THROW(parse_bytes(""), ConfigError);
  EXPECT_THROW(parse_bytes("abc"), ConfigError);
  EXPECT_THROW(parse_bytes("12XB"), ConfigError);
  EXPECT_THROW(parse_bytes("12 MB extra"), ConfigError);
}

TEST(BytesTest, FormatRoundTripsMagnitude) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(kMiB + kMiB / 2), "1.50 MiB");
  EXPECT_EQ(format_bytes(2 * kGiB), "2.00 GiB");
  EXPECT_EQ(format_throughput_gbps(10e9), "10.00 GB/s");
}

}  // namespace
}  // namespace dedicore
