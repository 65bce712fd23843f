// Tests for the parallel-filesystem model: virtual-time primitives
// (QueueServer, InterferenceProcess, JitterModel) and the
// real-thread FileSystem adapter (contention, MDS serialization, content
// round-trips).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <thread>

#include "common/clock.hpp"
#include "framework/test_infra.hpp"
#include "fsim/filesystem.hpp"
#include "fsim/storage_model.hpp"

namespace dedicore::fsim {
namespace {

StorageConfig small_config() {
  StorageConfig cfg;
  cfg.ost_count = 4;
  cfg.ost_bandwidth = 100e6;
  cfg.mds_op_cost = 2e-3;
  cfg.stripe_size = 64 * 1024;
  cfg.default_stripe_count = 1;
  cfg.request_latency = 1e-4;
  cfg.jitter_sigma = 0.0;  // deterministic unless a test enables it
  cfg.spike_probability = 0.0;
  cfg.interference_on_rate = 0.0;  // disabled
  return cfg;
}

TimeScale fast_scale() {
  TimeScale ts;
  ts.real_per_sim = 2e-3;  // 1 sim second = 2 ms wall
  ts.quantum_sim = 0.01;
  return ts;
}

// ---------------------------------------------------------------------------
// StorageConfig validation
// ---------------------------------------------------------------------------

TEST(StorageConfigTest, ValidatesRanges) {
  StorageConfig cfg = small_config();
  EXPECT_NO_THROW(cfg.validate());
  cfg.ost_count = 0;
  EXPECT_THROW(cfg.validate(), ConfigError);
  cfg = small_config();
  cfg.default_stripe_count = 99;
  EXPECT_THROW(cfg.validate(), ConfigError);
  cfg = small_config();
  cfg.interference_share = 1.0;
  EXPECT_THROW(cfg.validate(), ConfigError);
  cfg = small_config();
  cfg.spike_probability = 1.5;
  EXPECT_THROW(cfg.validate(), ConfigError);
}

// ---------------------------------------------------------------------------
// QueueServer
// ---------------------------------------------------------------------------

TEST(QueueServerTest, SerializesArrivals) {
  QueueServer mds;
  // Three ops arriving together: completions must stack up.
  EXPECT_DOUBLE_EQ(mds.submit(0.0, 0.01), 0.01);
  EXPECT_DOUBLE_EQ(mds.submit(0.0, 0.01), 0.02);
  EXPECT_DOUBLE_EQ(mds.submit(0.0, 0.01), 0.03);
  EXPECT_EQ(mds.operations(), 3u);
  EXPECT_NEAR(mds.total_queue_wait(), 0.01 + 0.02, 1e-12);
}

TEST(QueueServerTest, IdleServerStartsImmediately) {
  QueueServer mds;
  mds.submit(0.0, 0.01);
  // Arrival after the server went idle: no queueing.
  EXPECT_DOUBLE_EQ(mds.submit(5.0, 0.02), 5.02);
  EXPECT_NEAR(mds.total_queue_wait(), 0.0, 1e-12);
}

// ---------------------------------------------------------------------------
// InterferenceProcess / JitterModel
// ---------------------------------------------------------------------------

TEST(InterferenceTest, DisabledProcessIsAlwaysFullBandwidth) {
  StorageConfig cfg = small_config();
  InterferenceProcess p(cfg, Rng(1));
  for (double t : {0.0, 10.0, 1000.0})
    EXPECT_DOUBLE_EQ(p.available_fraction(t), 1.0);
}

TEST(InterferenceTest, TogglesBetweenOnAndOff) {
  StorageConfig cfg = small_config();
  cfg.interference_on_rate = 1.0;
  cfg.interference_off_rate = 1.0;
  cfg.interference_share = 0.5;
  InterferenceProcess p(cfg, Rng(5));
  bool saw_full = false, saw_degraded = false;
  for (double t = 0; t < 200.0; t += 0.5) {
    const double f = p.available_fraction(t);
    if (f == 1.0) saw_full = true;
    if (f == 0.5) saw_degraded = true;
  }
  EXPECT_TRUE(saw_full);
  EXPECT_TRUE(saw_degraded);
}

TEST(InterferenceTest, AverageAvailableMatchesDuty) {
  StorageConfig cfg = small_config();
  cfg.interference_on_rate = 0.5;   // mean off period 2
  cfg.interference_off_rate = 0.5;  // mean on period 2 -> 50% duty
  cfg.interference_share = 0.6;
  InterferenceProcess p(cfg, Rng(7));
  const double avg = p.average_available(0.0, 5000.0);
  // Expected availability: 0.5*1.0 + 0.5*0.4 = 0.7.
  EXPECT_NEAR(avg, 0.7, 0.05);
}

TEST(JitterTest, UnitMedianHeavyTail) {
  StorageConfig cfg = small_config();
  cfg.jitter_sigma = 0.3;
  cfg.spike_probability = 0.05;
  cfg.spike_max = 64.0;
  cfg.spike_alpha = 1.1;
  JitterModel jitter(cfg, Rng(11));
  SampleSet samples;
  for (int i = 0; i < 20000; ++i) samples.add(jitter.factor());
  const Summary s = samples.summary();
  EXPECT_NEAR(s.median, 1.0, 0.1);
  EXPECT_GT(s.max / s.min, 50.0);  // orders of magnitude, as in §IV.B
}

// ---------------------------------------------------------------------------
// FileSystem (real threads)
// ---------------------------------------------------------------------------

TEST(FileSystemTest, CreateWriteReadBack) {
  FileSystem fs(small_config(), fast_scale());
  FileHandle f = fs.create("dir/data.bin");
  const std::vector<std::byte> payload{std::byte{9}, std::byte{8}, std::byte{7}};
  const double duration = fs.write(f, payload);
  EXPECT_GT(duration, 0.0);
  fs.close(f);
  EXPECT_TRUE(fs.exists("dir/data.bin"));
  EXPECT_EQ(fs.file_size("dir/data.bin"), 3u);
  auto content = fs.read_file("dir/data.bin");
  ASSERT_TRUE(content.has_value());
  EXPECT_EQ(*content, payload);
}

TEST(FileSystemTest, PwriteFillsSparseRegions) {
  FileSystem fs(small_config(), fast_scale());
  FileHandle f = fs.create("sparse.bin");
  const std::vector<std::byte> chunk{std::byte{0xFF}};
  fs.pwrite(f, 10, chunk);
  EXPECT_EQ(fs.file_size("sparse.bin"), 11u);
  auto content = *fs.read_file("sparse.bin");
  EXPECT_EQ(std::to_integer<int>(content[9]), 0);     // hole zero-filled
  EXPECT_EQ(std::to_integer<int>(content[10]), 0xFF);
}

TEST(FileSystemTest, AppendGrowsFile) {
  FileSystem fs(small_config(), fast_scale());
  FileHandle f = fs.create("log.bin");
  const std::vector<std::byte> chunk(100, std::byte{1});
  fs.write(f, chunk);
  fs.write(f, chunk);
  EXPECT_EQ(fs.file_size("log.bin"), 200u);
}

TEST(FileSystemTest, OpenMissingReturnsNullopt) {
  FileSystem fs(small_config(), fast_scale());
  EXPECT_FALSE(fs.open("nope").has_value());
  EXPECT_FALSE(fs.exists("nope"));
  EXPECT_FALSE(fs.read_file("nope").has_value());
}

TEST(FileSystemTest, CreateTruncatesExisting) {
  FileSystem fs(small_config(), fast_scale());
  FileHandle a = fs.create("f");
  fs.write(a, std::vector<std::byte>(64, std::byte{1}));
  FileHandle b = fs.create("f");
  (void)b;
  EXPECT_EQ(fs.file_size("f"), 0u);
  EXPECT_EQ(fs.file_count(), 1u);
}

TEST(FileSystemTest, ListFilesIsSorted) {
  FileSystem fs(small_config(), fast_scale());
  fs.create("b");
  fs.create("a");
  fs.create("c");
  const auto files = fs.list_files();
  ASSERT_EQ(files.size(), 3u);
  EXPECT_EQ(files[0], "a");
  EXPECT_EQ(files[2], "c");
}

TEST(FileSystemTest, WriteDurationScalesWithSize) {
  // Under virtual time the modelled durations are exact quantum sums, so
  // the size comparison cannot be perturbed by scheduler noise (the real
  // sleeps here are tens of microseconds — any descheduling hiccup used
  // to be able to inflate the small write past the big one).
  testing::VirtualTimeScope virtual_time;
  StorageConfig cfg = small_config();
  const TimeScale ts = fast_scale();
  FileSystem fs(cfg, ts);
  FileHandle f = fs.create("grow.bin");
  const double small_write =
      fs.write(f, std::vector<std::byte>(100 * 1024, std::byte{0}));
  const double big_write =
      fs.write(f, std::vector<std::byte>(1600 * 1024, std::byte{0}));
  EXPECT_GT(big_write, small_write);
  // Exact model: request latency plus full bandwidth-sharing quanta until
  // the volume drains (100 KiB fits one 1 MB quantum; 1600 KiB needs two).
  EXPECT_NEAR(small_write, cfg.request_latency + 1 * ts.quantum_sim, 1e-9);
  EXPECT_NEAR(big_write, cfg.request_latency + 2 * ts.quantum_sim, 1e-9);
}

TEST(FileSystemTest, MdsSerializesConcurrentCreates) {
  StorageConfig cfg = small_config();
  cfg.mds_op_cost = 20e-3;  // 20 ms sim = 40 us real each... scaled below
  TimeScale ts;
  ts.real_per_sim = 1e-3;
  ts.quantum_sim = 0.01;
  FileSystem fs(cfg, ts);

  constexpr int kThreads = 8;
  Stopwatch wall;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&fs, t] { fs.create("file" + std::to_string(t)); });
  for (auto& t : threads) t.join();
  // Eight serialized 20ms-sim ops = 160ms sim = 160us... with real sleep
  // granularity the wall time must be at least the serialized sim total.
  EXPECT_GE(ts.to_sim(wall.elapsed_seconds()), 8 * cfg.mds_op_cost * 0.9);
  EXPECT_EQ(fs.stats().mds_operations, 8u);
  EXPECT_EQ(fs.stats().files_created, 8u);
}

namespace {

/// Modelled full-bandwidth duration of one write: request latency plus the
/// whole quanta needed to drain the volume alone.  A lower bound for any
/// measured duration — contention, scheduling delays and machine load can
/// only inflate the measurement, never deflate it below the model.
double modelled_solo_write(const StorageConfig& cfg, const TimeScale& ts,
                           std::size_t bytes) {
  const double bytes_per_quantum = cfg.ost_bandwidth * ts.quantum_sim;
  const double quanta = std::ceil(static_cast<double>(bytes) / bytes_per_quantum);
  return cfg.request_latency + quanta * ts.quantum_sim;
}

/// Body of the OST-contention scenario, shared with the load-stress case
/// below.  All assertions are *lower bounds against modelled constants*:
/// the pre-PR-5 version compared the concurrent mean against a measured
/// solo write, and under `ctest -j` on a 1-core machine the tiny (~40 us)
/// solo measurement was inflated by load until the ratio flaked.  Writers
/// now start behind a barrier (overlap by construction, not by thread-
/// spawn timing) and each write spans many 5 ms quanta, so scheduling
/// skew is small against the measured interval.
void run_ost_contention_scenario() {
  StorageConfig cfg = small_config();
  cfg.ost_count = 1;  // force full contention
  cfg.ost_bandwidth = 50e6;
  TimeScale ts;
  ts.real_per_sim = 0.25;  // 0.02 sim-s quantum -> 5 ms wall
  ts.quantum_sim = 0.02;
  FileSystem fs(cfg, ts);

  constexpr int kWriters = 4;
  const std::vector<std::byte> payload(4 * 1024 * 1024, std::byte{0});
  const double solo = modelled_solo_write(cfg, ts, payload.size());

  std::barrier start(kWriters);
  std::vector<std::thread> threads;
  std::vector<double> durations(kWriters, 0.0);
  std::vector<double> started(kWriters, 0.0), finished(kWriters, 0.0);
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      FileHandle f = fs.create("c" + std::to_string(t));
      start.arrive_and_wait();
      started[static_cast<std::size_t>(t)] = fs.sim_now();
      durations[static_cast<std::size_t>(t)] = fs.write(f, payload);
      finished[static_cast<std::size_t>(t)] = fs.sim_now();
    });
  }
  for (auto& t : threads) t.join();

  for (double d : durations) {
    // No writer can beat the full-bandwidth model (tolerance for float
    // accumulation only).
    EXPECT_GE(d, solo * 0.99);
  }
  // Conservation law of the single OST: it serves at most `ost_bandwidth`
  // bytes per sim-second no matter how the four transfers interleave, so
  // the whole batch must span at least total-volume / bandwidth.  This
  // bound holds both when the writers overlap (each sees ~4x solo) AND
  // when extreme 1-core CPU load serializes them (each sees ~1x solo but
  // the batch stretches end to end) — the residual `ctest -j` flake was a
  // mean-duration assertion that only the overlapped schedule satisfied.
  // A broken contention model still fails it: four writers at full
  // bandwidth in parallel would finish the batch in a quarter of the
  // required span.
  const double span = *std::max_element(finished.begin(), finished.end()) -
                      *std::min_element(started.begin(), started.end());
  const double total_bytes = static_cast<double>(kWriters) *
                             static_cast<double>(payload.size());
  EXPECT_GE(span, 0.99 * total_bytes / cfg.ost_bandwidth);
}

}  // namespace

TEST(FileSystemTest, ConcurrentWritersContendOnOsts) {
  run_ost_contention_scenario();
}

/// Stress case for the `ctest -j` 1-core flake: the same contention
/// invariants must hold while the machine is saturated with CPU burners —
/// the situation that broke the old measured-solo formulation.
TEST(FileSystemStressTest, ContentionInvariantsHoldUnderCpuLoad) {
  std::atomic<bool> stop{false};
  const unsigned hw = std::max(2u, std::thread::hardware_concurrency());
  std::vector<std::thread> burners;
  for (unsigned i = 0; i < 2 * hw; ++i) {
    burners.emplace_back([&stop] {
      volatile std::uint64_t sink = 0;
      while (!stop.load(std::memory_order_relaxed)) sink = sink * 1664525u + 1;
    });
  }
  run_ost_contention_scenario();
  stop.store(true, std::memory_order_relaxed);
  for (auto& b : burners) b.join();
}

TEST(FileSystemTest, StatsAccumulate) {
  FileSystem fs(small_config(), fast_scale());
  FileHandle f = fs.create("x");
  fs.write(f, std::vector<std::byte>(1024, std::byte{0}));
  fs.write(f, std::vector<std::byte>(1024, std::byte{0}));
  const FileSystemStats stats = fs.stats();
  EXPECT_EQ(stats.writes, 2u);
  EXPECT_EQ(stats.bytes_written, 2048u);
  EXPECT_EQ(stats.write_time_summary.count, 2u);
  EXPECT_GT(stats.total_write_time_sim, 0.0);
}

TEST(FileSystemTest, ZeroByteWriteIsCheap) {
  FileSystem fs(small_config(), fast_scale());
  FileHandle f = fs.create("empty");
  const double duration = fs.pwrite(f, 0, {});
  EXPECT_DOUBLE_EQ(duration, 0.0);
  EXPECT_EQ(fs.file_size("empty"), 0u);
}

TEST(FileSystemDeathTest, StaleHandleAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  FileSystem fs(small_config(), fast_scale());
  FileHandle bogus{999};
  EXPECT_DEATH(fs.close(bogus), "stale file handle");
}

/// Striping property: a file of any size lands only on its stripe OSTs and
/// all bytes are persisted.
class StripingTest : public ::testing::TestWithParam<int> {};

TEST_P(StripingTest, ContentSurvivesAnyStripeCount) {
  const int stripes = GetParam();
  StorageConfig cfg = small_config();
  FileSystem fs(cfg, fast_scale());
  FileHandle f = fs.create("striped", stripes);
  std::vector<std::byte> payload(300 * 1024);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::byte>(i % 251);
  fs.write(f, payload);
  EXPECT_EQ(*fs.read_file("striped"), payload);
}

INSTANTIATE_TEST_SUITE_P(StripeCounts, StripingTest, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace dedicore::fsim
