// Storage-backend conformance + round-trip suite (mirrors the
// transport_test.cpp approach: one contract, every backend).
//
//   * Conformance: the StorageBackend contract of storage/backend.hpp run
//     against both SimBackend (filesystem simulator) and PosixBackend
//     (real files in a TempDir) — same content semantics, same
//     FileSystemStats-equivalent counters, write-after-close rejected
//     with a Status error, double close crashes.
//   * Round-trips: h5lite images written through PosixBackend into a real
//     TempDir re-read byte-identical to the fsim-produced image, in both
//     the file-per-process and the collective shared-file layouts.
//   * WriteBehind: async draining, byte-budget backpressure, shutdown
//     flush, empty images — on posix and on sharded roots.
//   * End to end: a dedicated-cores Runtime with <storage backend="posix">
//     and server_workers=2 produces the same h5lite files on disk as the
//     sim-backed twin run, with the write-behind queue drained by the
//     worker pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <span>
#include <thread>
#include <tuple>
#include <vector>

#include "core/baseline_io.hpp"
#include "core/emit_stage.hpp"
#include "core/runtime.hpp"
#include "framework/test_infra.hpp"
#include "h5lite/h5lite.hpp"
#include "minimpi/minimpi.hpp"
#include "storage/crc32c.hpp"
#include "storage/placement.hpp"
#include "storage/posix_backend.hpp"
#include "storage/sharded_backend.hpp"
#include "storage/sim_backend.hpp"
#include "storage/write_behind.hpp"

namespace dedicore {
namespace {

using storage::FileHandle;
using storage::PosixBackend;
using storage::ShardedBackend;
using storage::ShardedOptions;
using storage::SimBackend;
using storage::StorageBackend;
using storage::WriteBehind;

fsim::StorageConfig quiet_storage() {
  fsim::StorageConfig cfg;
  cfg.ost_count = 4;
  cfg.ost_bandwidth = 400e6;
  cfg.mds_op_cost = 1e-4;
  cfg.jitter_sigma = 0.0;
  cfg.spike_probability = 0.0;
  cfg.interference_on_rate = 0.0;
  return cfg;
}

fsim::TimeScale fast_scale() { return fsim::TimeScale{1e-4, 0.01}; }

std::vector<std::byte> pattern_bytes(std::size_t n, int salt = 0) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = static_cast<std::byte>((i * 131 + static_cast<std::size_t>(salt) * 7) % 251);
  return out;
}

// ---------------------------------------------------------------------------
// Conformance harness: both backends behind one factory
// ---------------------------------------------------------------------------

enum class Kind { kSim, kPosix, kSharded };

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kSim: return "sim";
    case Kind::kPosix: return "posix";
    case Kind::kSharded: return "sharded";
  }
  return "?";
}

/// Default root width for the sharded fixtures.  CI overrides it with
/// DEDICORE_SHARDED_ROOTS=4 to rerun the whole suite against a wider
/// layout; tests whose assertions depend on an exact width pass one
/// explicitly.
std::size_t default_sharded_root_count() {
  if (const char* env = std::getenv("DEDICORE_SHARDED_ROOTS")) {
    const int n = std::atoi(env);
    if (n >= 2 && n <= 8) return static_cast<std::size_t>(n);
  }
  return 3;
}

/// Sibling root directories under one scratch dir — the sharded fixture
/// layout (also used by the dedicated sharded tests below).  `count` 0
/// means the suite default (3, or DEDICORE_SHARDED_ROOTS).
std::vector<std::filesystem::path> sharded_roots(const testing::TempDir& dir,
                                                 std::size_t count = 0) {
  if (count == 0) count = default_sharded_root_count();
  std::vector<std::filesystem::path> roots;
  for (std::size_t i = 0; i < count; ++i)
    roots.push_back(dir.path() / ("r" + std::to_string(i)));
  return roots;
}

/// Owns whichever substrate the backend under test needs (simulator or
/// scratch directory) so each test gets a fresh, isolated instance.
struct BackendFixture {
  explicit BackendFixture(Kind kind) {
    if (kind == Kind::kSim) {
      fs = std::make_unique<fsim::FileSystem>(quiet_storage(), fast_scale());
      backend = std::make_unique<SimBackend>(*fs);
    } else if (kind == Kind::kPosix) {
      dir = std::make_unique<testing::TempDir>("storage_posix");
      backend = std::make_unique<PosixBackend>(dir->path());
    } else {
      // Deliberately awkward numbers: a 1000-byte stripe makes every
      // conformance payload multi-chunk with a short tail, and
      // replication 2 over 3 roots exercises the replica paths on the
      // whole contract, not just the dedicated integrity tests.
      dir = std::make_unique<testing::TempDir>("storage_sharded");
      ShardedOptions opts;
      opts.chunk_size = 1000;
      opts.replication = 2;
      backend = std::make_unique<ShardedBackend>(sharded_roots(*dir), opts);
    }
  }

  std::unique_ptr<fsim::FileSystem> fs;
  std::unique_ptr<testing::TempDir> dir;
  std::unique_ptr<StorageBackend> backend;
};

class StorageConformanceTest : public ::testing::TestWithParam<Kind> {};

TEST_P(StorageConformanceTest, CreateWriteCloseReadBack) {
  BackendFixture fx(GetParam());
  StorageBackend& b = *fx.backend;

  const auto payload = pattern_bytes(4096);
  FileHandle f;
  ASSERT_OK(b.create("run/data.bin", &f));
  double seconds = -1.0;
  ASSERT_OK(b.write(f, payload, &seconds));
  EXPECT_GE(seconds, 0.0);
  ASSERT_OK(b.close(f));

  EXPECT_TRUE(b.exists("run/data.bin"));
  EXPECT_EQ(b.file_size("run/data.bin"), payload.size());
  const auto content = b.read_file("run/data.bin");
  ASSERT_TRUE(content.has_value());
  EXPECT_EQ(*content, payload);
}

TEST_P(StorageConformanceTest, AppendsGrowAndPwriteFillsSparseHoles) {
  BackendFixture fx(GetParam());
  StorageBackend& b = *fx.backend;

  FileHandle f;
  ASSERT_OK(b.create("sparse.bin", &f));
  const auto chunk = pattern_bytes(64, 1);
  ASSERT_OK(b.write(f, chunk));
  ASSERT_OK(b.write(f, chunk));          // append semantics
  ASSERT_OK(b.pwrite(f, 200, chunk));    // hole between 128 and 200
  ASSERT_OK(b.close(f));

  EXPECT_EQ(b.file_size("sparse.bin"), 264u);
  const auto content = *b.read_file("sparse.bin");
  EXPECT_EQ(std::to_integer<int>(content[199]), 0);  // hole zero-filled
  EXPECT_TRUE(std::equal(chunk.begin(), chunk.end(), content.begin() + 200));
  // An append after a positional write past EOF continues from the new end.
  FileHandle g;
  ASSERT_OK(b.open("sparse.bin", &g));
  ASSERT_OK(b.write(g, chunk));
  ASSERT_OK(b.close(g));
  EXPECT_EQ(b.file_size("sparse.bin"), 264u + 64u);
}

TEST_P(StorageConformanceTest, CreateTruncatesExisting) {
  BackendFixture fx(GetParam());
  StorageBackend& b = *fx.backend;
  FileHandle f;
  ASSERT_OK(b.create("f", &f));
  ASSERT_OK(b.write(f, pattern_bytes(128)));
  ASSERT_OK(b.close(f));
  FileHandle g;
  ASSERT_OK(b.create("f", &g));
  ASSERT_OK(b.close(g));
  EXPECT_EQ(b.file_size("f"), 0u);
  EXPECT_EQ(b.file_count(), 1u);
}

TEST_P(StorageConformanceTest, OpenMissingIsNotFound) {
  BackendFixture fx(GetParam());
  FileHandle f;
  EXPECT_STATUS(fx.backend->open("nope", &f), StatusCode::kNotFound);
  EXPECT_FALSE(fx.backend->exists("nope"));
  EXPECT_FALSE(fx.backend->read_file("nope").has_value());
  EXPECT_EQ(fx.backend->file_size("nope"), 0u);
}

TEST_P(StorageConformanceTest, ListFilesIsSortedWithSlashedPaths) {
  BackendFixture fx(GetParam());
  StorageBackend& b = *fx.backend;
  for (const char* path : {"b/two.bin", "a/one.bin", "c.bin"}) {
    FileHandle f;
    ASSERT_OK(b.create(path, &f));
    ASSERT_OK(b.close(f));
  }
  const auto files = b.list_files();
  ASSERT_EQ(files.size(), 3u);
  EXPECT_EQ(files[0], "a/one.bin");
  EXPECT_EQ(files[1], "b/two.bin");
  EXPECT_EQ(files[2], "c.bin");
  EXPECT_EQ(b.file_count(), 3u);
}

TEST_P(StorageConformanceTest, WriteAfterCloseIsAStatusErrorNotUb) {
  BackendFixture fx(GetParam());
  StorageBackend& b = *fx.backend;
  FileHandle f;
  ASSERT_OK(b.create("closed.bin", &f));
  ASSERT_OK(b.close(f));
  EXPECT_STATUS(b.write(f, pattern_bytes(16)), StatusCode::kFailedPrecondition);
  EXPECT_STATUS(b.pwrite(f, 0, pattern_bytes(16)),
                StatusCode::kFailedPrecondition);
  // The failed writes left no trace.
  EXPECT_EQ(b.file_size("closed.bin"), 0u);
  EXPECT_EQ(b.stats().writes, 0u);
}

TEST_P(StorageConformanceTest, BadPathsAreRejected) {
  // Every backend enforces the same path rule: a configuration that runs
  // green on the simulator must not start failing when flipped to posix.
  BackendFixture fx(GetParam());
  StorageBackend& b = *fx.backend;
  FileHandle f;
  EXPECT_STATUS(b.create("", &f), StatusCode::kInvalidArgument);
  EXPECT_STATUS(b.create("/absolute/path", &f), StatusCode::kInvalidArgument);
  EXPECT_STATUS(b.create("../outside.bin", &f), StatusCode::kInvalidArgument);
  EXPECT_STATUS(b.create("a/../../outside.bin", &f),
                StatusCode::kInvalidArgument);
  EXPECT_STATUS(b.open("../outside.bin", &f), StatusCode::kInvalidArgument);
  EXPECT_EQ(b.stats().files_created, 0u);
}

TEST_P(StorageConformanceTest, CountersMatchTheWorkload) {
  // The FileSystemStats-equivalent counters must be identical for both
  // backends given the same call sequence.
  BackendFixture fx(GetParam());
  StorageBackend& b = *fx.backend;
  for (int i = 0; i < 3; ++i) {
    FileHandle f;
    ASSERT_OK(b.create("out/f" + std::to_string(i), &f));
    ASSERT_OK(b.write(f, pattern_bytes(1000, i)));
    ASSERT_OK(b.write(f, pattern_bytes(24, i)));
    ASSERT_OK(b.close(f));
  }
  const storage::StorageStats stats = b.stats();
  EXPECT_EQ(stats.files_created, 3u);
  EXPECT_EQ(stats.writes, 6u);
  EXPECT_EQ(stats.bytes_written, 3u * 1024u);
  EXPECT_GE(stats.write_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Backends, StorageConformanceTest,
                         ::testing::Values(Kind::kSim, Kind::kPosix,
                                           Kind::kSharded),
                         [](const ::testing::TestParamInfo<Kind>& info) {
                           return kind_name(info.param);
                         });

class StorageConformanceDeathTest : public ::testing::TestWithParam<Kind> {};

TEST_P(StorageConformanceDeathTest, DoubleCloseAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  BackendFixture fx(GetParam());
  StorageBackend& b = *fx.backend;
  FileHandle f;
  ASSERT_OK(b.create("once.bin", &f));
  ASSERT_OK(b.close(f));
  EXPECT_DEATH(static_cast<void>(b.close(f)), "double close");
}

INSTANTIATE_TEST_SUITE_P(Backends, StorageConformanceDeathTest,
                         ::testing::Values(Kind::kSim, Kind::kPosix,
                                           Kind::kSharded),
                         [](const ::testing::TestParamInfo<Kind>& info) {
                           return kind_name(info.param);
                         });

// PosixBackend specifics: real directory layout.
TEST(PosixBackendTest, FilesLandUnderTheRootOnTheRealFilesystem) {
  testing::TempDir dir("storage_root");
  PosixBackend backend(dir.path());
  FileHandle f;
  ASSERT_OK(backend.create("node0/it3.h5l", &f));
  ASSERT_OK(backend.write(f, pattern_bytes(100)));
  ASSERT_OK(backend.close(f));
  EXPECT_TRUE(std::filesystem::is_regular_file(dir.path() / "node0/it3.h5l"));
  EXPECT_EQ(std::filesystem::file_size(dir.path() / "node0/it3.h5l"), 100u);
  EXPECT_EQ(backend.open_handles(), 0u);
}

// ---------------------------------------------------------------------------
// h5lite round-trips: PosixBackend vs the fsim-produced image
// ---------------------------------------------------------------------------

core::Configuration writer_config() {
  core::Configuration cfg;
  cfg.set_architecture(4, 0);
  cfg.set_buffer(1 << 20, 64, core::BackpressurePolicy::kBlock);
  core::LayoutSpec grid;
  grid.name = "grid";
  grid.dtype = h5lite::DType::kFloat32;
  grid.extents = {16, 16};
  cfg.add_layout(grid);
  core::VariableSpec v;
  v.name = "alpha";
  v.layout = "grid";
  cfg.add_variable(v);
  cfg.validate();
  return cfg;
}

std::vector<float> rank_field(int rank) {
  std::vector<float> values(16 * 16);
  for (std::size_t i = 0; i < values.size(); ++i)
    values[i] = static_cast<float>(rank * 100) + 0.5f * static_cast<float>(i);
  return values;
}

core::IterationData data_of(const std::vector<float>& alpha) {
  core::IterationData data;
  data.emplace("alpha", std::as_bytes(std::span<const float>(alpha)));
  return data;
}

/// File-per-process layout: the same writer drives both backends; every
/// posix file must be byte-identical to its fsim twin and re-parse from
/// the real disk bytes.
TEST(StorageRoundTripTest, FilePerProcessImagesAreByteIdenticalAcrossBackends) {
  const core::Configuration cfg = writer_config();
  fsim::FileSystem fs(quiet_storage(), fast_scale());
  SimBackend sim(fs);
  testing::TempDir dir("storage_fpp");
  PosixBackend posix(dir.path());

  core::FilePerProcessWriter sim_writer(sim, cfg, "fpp");
  core::FilePerProcessWriter posix_writer(posix, cfg, "fpp");
  for (int rank = 0; rank < 4; ++rank) {
    const auto alpha = rank_field(rank);
    sim_writer.write_iteration(rank, 2, data_of(alpha));
    posix_writer.write_iteration(rank, 2, data_of(alpha));
  }

  ASSERT_EQ(posix.list_files(), sim.list_files());
  for (const std::string& path : posix.list_files()) {
    const auto sim_bytes = sim.read_file(path);
    const auto posix_bytes = posix.read_file(path);
    ASSERT_TRUE(sim_bytes.has_value());
    ASSERT_TRUE(posix_bytes.has_value());
    EXPECT_EQ(*posix_bytes, *sim_bytes) << path;

    const h5lite::File file = h5lite::File::parse(*posix_bytes);
    const auto* ds = file.find_dataset("alpha");
    ASSERT_NE(ds, nullptr);
    const std::int64_t rank =
        std::get<std::int64_t>(file.root().attributes.at("rank"));
    EXPECT_EQ(ds->read_as<float>(), rank_field(static_cast<int>(rank)));
  }
}

/// Collective shared-file layout: positional writes assemble one shared
/// file; the posix copy must match the fsim copy byte for byte.
TEST(StorageRoundTripTest, SharedFileImagesAreByteIdenticalAcrossBackends) {
  const core::Configuration cfg = writer_config();
  fsim::FileSystem fs(quiet_storage(), fast_scale());
  SimBackend sim(fs);
  testing::TempDir dir("storage_shared");
  PosixBackend posix(dir.path());

  for (StorageBackend* backend : {static_cast<StorageBackend*>(&sim),
                                  static_cast<StorageBackend*>(&posix)}) {
    core::CollectiveWriter writer(*backend, cfg, /*aggregator_group=*/2,
                                  "collective");
    minimpi::run_world(4, [&](minimpi::Comm& comm) {
      const auto alpha = rank_field(comm.rank());
      writer.write_iteration(comm, 0, data_of(alpha));
    });
  }

  const auto sim_bytes = sim.read_file("collective/shared_it0.h5l");
  const auto posix_bytes = posix.read_file("collective/shared_it0.h5l");
  ASSERT_TRUE(sim_bytes.has_value());
  ASSERT_TRUE(posix_bytes.has_value());
  EXPECT_EQ(*posix_bytes, *sim_bytes);

  const h5lite::File file = h5lite::File::parse(*posix_bytes);
  for (int r = 0; r < 4; ++r) {
    const auto* ds = file.find_dataset("alpha/r" + std::to_string(r));
    ASSERT_NE(ds, nullptr);
    EXPECT_EQ(ds->read_as<float>(), rank_field(r));
  }
}

// ---------------------------------------------------------------------------
// WriteBehind
// ---------------------------------------------------------------------------

/// One write-behind path, two backends: a posix image is a one-chunk
/// ticket, a sharded image one entry per stripe.  Every image in this
/// suite fits in one default 1 MiB stripe, so both backends count one job
/// per image.
class WriteBehindTest : public ::testing::TestWithParam<Kind> {
 protected:
  WriteBehindTest()
      : dir_(std::string("wb_") + kind_name(GetParam())),
        backend_(make_backend()) {}

  std::unique_ptr<StorageBackend> make_backend() const {
    if (GetParam() == Kind::kPosix)
      return std::make_unique<PosixBackend>(dir_.path());
    return std::make_unique<ShardedBackend>(sharded_roots(dir_),
                                            ShardedOptions{});
  }
  StorageBackend& backend() { return *backend_; }

  testing::TempDir dir_;
  std::unique_ptr<StorageBackend> backend_;  // dies before the TempDir
};

TEST_P(WriteBehindTest, DrainWritesEveryEnqueuedImage) {
  WriteBehind queue(backend(), 1 << 20);

  for (int i = 0; i < 5; ++i)
    queue.enqueue({"out/f" + std::to_string(i) + ".h5l", 0,
                   pattern_bytes(2048, i)});
  EXPECT_EQ(queue.pending_jobs(), 5u);
  queue.drain_all();
  EXPECT_EQ(queue.pending_jobs(), 0u);
  EXPECT_EQ(queue.pending_bytes(), 0u);

  const auto stats = queue.stats();
  EXPECT_EQ(stats.jobs_enqueued, 5u);
  EXPECT_EQ(stats.jobs_written, 5u);
  EXPECT_EQ(stats.jobs_failed, 0u);
  EXPECT_EQ(stats.bytes_written, 5u * 2048u);
  EXPECT_EQ(backend().file_count(), 5u);
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(*backend().read_file("out/f" + std::to_string(i) + ".h5l"),
              pattern_bytes(2048, i));
}

TEST_P(WriteBehindTest, FullBudgetMakesTheProducerDrainBeforeEnqueueing) {
  // Budget fits exactly one job: the second enqueue finds it exhausted.
  WriteBehind queue(backend(), 1024);

  queue.enqueue({"a.bin", 0, pattern_bytes(1024)});
  EXPECT_EQ(queue.pending_jobs(), 1u);
  // Backpressure without deadlock: instead of parking (the producer may
  // be the only thread able to reach a drain site), the second enqueue
  // drains a.bin itself, then queues b.bin.  The producer's stall is
  // real — it spent the time on disk work — which is exactly the
  // pipeline-slowdown the budget exists to cause.
  queue.enqueue({"b.bin", 0, pattern_bytes(1024, 1)});
  EXPECT_EQ(backend().file_size("a.bin"), 1024u);
  EXPECT_EQ(queue.stats().jobs_written, 1u);
  EXPECT_EQ(queue.pending_jobs(), 1u);

  queue.drain_all();
  EXPECT_EQ(backend().file_count(), 2u);
  EXPECT_EQ(queue.stats().jobs_written, 2u);
  EXPECT_EQ(queue.pending_bytes(), 0u);
}

TEST_P(WriteBehindTest, OversizedJobIsAdmittedAlone) {
  WriteBehind queue(backend(), 64);  // budget smaller than the image
  queue.enqueue({"big.bin", 0, pattern_bytes(4096)});
  queue.drain_all();
  EXPECT_EQ(backend().file_size("big.bin"), 4096u);
  EXPECT_EQ(queue.stats().jobs_written, 1u);
}

TEST_P(WriteBehindTest, CompletionHookReportsDrainTimeVerdicts) {
  // Durability is counted when the backend answers, not at enqueue: a
  // job the backend rejects must surface through on_complete (and
  // jobs_failed), never as a phantom success.
  WriteBehind queue(backend(), 1 << 20);

  std::vector<Status> verdicts;
  auto record = [&](const Status& st) { verdicts.push_back(st); };
  queue.enqueue({"ok.bin", 0, pattern_bytes(128), record});
  queue.enqueue({"../escape.bin", 0, pattern_bytes(128), record});
  queue.drain_all();

  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_OK(verdicts[0]);
  EXPECT_EQ(verdicts[1].code(), StatusCode::kInvalidArgument);
  const auto stats = queue.stats();
  EXPECT_EQ(stats.jobs_written, 1u);
  EXPECT_EQ(stats.jobs_failed, 1u);
  EXPECT_EQ(backend().file_count(), 1u);
}

TEST_P(WriteBehindTest, ProducerDrainsItselfWhenNoDrainerCanRun) {
  // A producer that is the only live thread must never park on a full
  // budget (the old formulation deadlocked here: nobody else could ever
  // reach a drain site).  With a budget below one image it drains the
  // queued job itself and proceeds.
  WriteBehind queue(backend(), 256);
  for (int i = 0; i < 3; ++i)
    queue.enqueue({"f" + std::to_string(i) + ".bin", 0, pattern_bytes(1024, i)});
  queue.drain_all();
  EXPECT_EQ(backend().file_count(), 3u);
  EXPECT_EQ(queue.stats().jobs_written, 3u);
}

TEST_P(WriteBehindTest, CloseFlushesRemainingJobs) {
  {
    WriteBehind queue(backend(), 1 << 20);
    queue.enqueue({"late.bin", 0, pattern_bytes(512)});
    // Destructor closes and drains.
  }
  EXPECT_EQ(backend().file_size("late.bin"), 512u);
}

TEST_P(WriteBehindTest, EmptyImageIsPublishedAndCompletesOnce) {
  // A 0-byte image has no stripe to write, yet it is still one entry:
  // its completion makes the (empty) file visible and fires the hook.
  WriteBehind queue(backend(), 1 << 20);
  int completions = 0;
  Status verdict = Status::internal("never ran");
  queue.enqueue({"empty.bin", 0, {}, [&](const Status& st) {
                   verdict = st;
                   ++completions;
                 }});
  queue.drain_all();

  EXPECT_TRUE(backend().exists("empty.bin"));
  EXPECT_EQ(backend().file_size("empty.bin"), 0u);
  EXPECT_EQ(completions, 1);
  EXPECT_OK(verdict);
  EXPECT_EQ(queue.stats().jobs_written, 1u);
}

INSTANTIATE_TEST_SUITE_P(Backends, WriteBehindTest,
                         ::testing::Values(Kind::kPosix, Kind::kSharded),
                         [](const ::testing::TestParamInfo<Kind>& info) {
                           return kind_name(info.param);
                         });

// ---------------------------------------------------------------------------
// Integrity layer: CRC32C
// ---------------------------------------------------------------------------

TEST(Crc32cTest, KnownAnswerVector) {
  // The canonical CRC32C check value (RFC 3720 appendix / every storage
  // system's self-test): crc32c("123456789") == 0xE3069283.
  const std::string nine = "123456789";
  EXPECT_EQ(storage::crc32c(std::as_bytes(std::span<const char>(nine.data(),
                                                                nine.size()))),
            0xE3069283u);
  EXPECT_EQ(storage::crc32c({}), 0u);
}

TEST(Crc32cTest, IncrementalExtendMatchesOneShot) {
  const auto data = pattern_bytes(4096, 3);
  const std::uint32_t whole = storage::crc32c(data);
  std::uint32_t crc = 0;
  std::span<const std::byte> view(data);
  for (std::size_t off = 0; off < view.size(); off += 997)
    crc = storage::crc32c_extend(
        crc, view.subspan(off, std::min<std::size_t>(997, view.size() - off)));
  EXPECT_EQ(crc, whole);
  // Sensitivity: one flipped bit anywhere changes the checksum.
  auto copy = data;
  copy[1234] ^= std::byte{0x10};
  EXPECT_NE(storage::crc32c(copy), whole);
}

TEST(Crc32cTest, Rfc3720KnownAnswers) {
  // RFC 3720 appendix B.4, checked against both the dispatched path and
  // the portable table.
  std::vector<std::byte> ascending(32);
  std::vector<std::byte> descending(32);
  for (std::size_t i = 0; i < 32; ++i) {
    ascending[i] = static_cast<std::byte>(i);
    descending[i] = static_cast<std::byte>(31 - i);
  }
  const std::pair<std::vector<std::byte>, std::uint32_t> cases[] = {
      {std::vector<std::byte>(32, std::byte{0x00}), 0x8A9136AAu},
      {std::vector<std::byte>(32, std::byte{0xFF}), 0x62A8AB43u},
      {ascending, 0x46DD794Eu},
      {descending, 0x113FDB5Cu}};
  for (const auto& [bytes, want] : cases) {
    EXPECT_EQ(storage::crc32c(bytes), want);
    EXPECT_EQ(storage::crc32c_extend_portable(0, bytes), want);
  }
}

TEST(Crc32cTest, DispatchedPathMatchesPortableTableOnUnalignedSpans) {
  // Windows into one buffer: start offsets 0..7 put the 8-byte loads on
  // every alignment, and lengths 0..64 KiB+63 give every tail length.
  // Every short window is covered exhaustively, long ones by seeded draws;
  // each case also starts from a random running CRC.
  constexpr std::size_t kMaxLength = (64u << 10) + 63;
  std::mt19937_64 rng(20261017);
  std::vector<std::byte> buffer(kMaxLength + 8);
  for (auto& b : buffer) b = static_cast<std::byte>(rng());
  const std::span<const std::byte> all(buffer);
  std::uniform_int_distribution<std::size_t> length(0, kMaxLength);
  std::size_t cases = 0;
  auto check = [&](std::size_t offset, std::size_t n) {
    const auto view = all.subspan(offset, n);
    const auto seed = static_cast<std::uint32_t>(rng());
    ASSERT_EQ(storage::crc32c(view), storage::crc32c_extend_portable(0, view))
        << "offset " << offset << " length " << n;
    ASSERT_EQ(storage::crc32c_extend(seed, view),
              storage::crc32c_extend_portable(seed, view))
        << "offset " << offset << " length " << n << " seed " << seed;
    ++cases;
  };
  for (std::size_t offset = 0; offset < 8; ++offset)
    for (std::size_t n = 0; n < 128; ++n) check(offset, n);
  for (int i = 0; i < 1024; ++i) check(rng() % 8, length(rng));
  check(7, kMaxLength);
  EXPECT_GE(cases, 2000u);
}

TEST(Crc32cTest, ExtendAcrossRandomSplitsMatchesOneShot) {
  std::mt19937_64 rng(3720);
  std::vector<std::byte> buffer((64u << 10) + 63);
  for (auto& b : buffer) b = static_cast<std::byte>(rng());
  for (int trial = 0; trial < 200; ++trial) {
    const auto view = std::span<const std::byte>(buffer).subspan(
        rng() % 8, rng() % (buffer.size() - 7));
    std::uint32_t crc = 0;
    std::size_t pieces = 0;
    for (std::size_t pos = 0; pos < view.size(); ++pieces) {
      // Pieces of 0..4096 bytes: empty extends and odd cut points too.
      const std::size_t n =
          rng() % (std::min<std::size_t>(view.size() - pos, 4096) + 1);
      crc = storage::crc32c_extend(crc, view.subspan(pos, n));
      pos += n;
    }
    ASSERT_EQ(crc, storage::crc32c(view))
        << "trial " << trial << ": " << view.size() << " bytes in " << pieces
        << " pieces";
  }
}

// ---------------------------------------------------------------------------
// Placement layer
// ---------------------------------------------------------------------------

TEST(PlacementTest, RoundRobinIsDeterministicWithDistinctReplicas) {
  const std::vector<std::uint64_t> sizes = {512, 512, 512, 100};
  storage::Placement a(storage::PlacementPolicy::kRoundRobin, 4, 2, 42);
  storage::Placement b(storage::PlacementPolicy::kRoundRobin, 4, 2, 42);
  const auto pa = a.place("out/img.h5l", sizes);
  const auto pb = b.place("out/img.h5l", sizes);
  ASSERT_EQ(pa.size(), sizes.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].roots, pb[i].roots) << "chunk " << i;
    ASSERT_EQ(pa[i].roots.size(), 2u);
    EXPECT_NE(pa[i].roots[0], pa[i].roots[1]) << "replicas share a root";
  }
  // Consecutive chunks walk the roots cyclically.
  EXPECT_EQ(pa[1].roots[0], (pa[0].roots[0] + 1) % 4);
  EXPECT_EQ(pa[2].roots[0], (pa[1].roots[0] + 1) % 4);
}

TEST(PlacementTest, BalancedEvensOutBytesOutstanding) {
  storage::Placement p(storage::PlacementPolicy::kBalanced, 4, 1, 0);
  // A huge image first: root 0 (lowest index wins the tie) takes it.
  (void)p.place("huge", {1 << 20});
  // Subsequent chunks must avoid the loaded root until the others catch
  // up: place 3 MiB more in 64 KiB chunks, then check the spread.
  const std::vector<std::uint64_t> chunk(16, 64 << 10);
  for (int i = 0; i < 3; ++i)
    (void)p.place("img" + std::to_string(i), chunk);
  const auto assigned = p.assigned_bytes();
  const auto [lo, hi] = std::minmax_element(assigned.begin(), assigned.end());
  // Every root converges to within one chunk of the mean.
  EXPECT_LE(*hi - *lo, (64u << 10) + (1u << 20) / 4);
  // All roots participated.
  for (const auto bytes : assigned) EXPECT_GT(bytes, 0u);
}

// ---------------------------------------------------------------------------
// Sharded backend: layout, manifests, per-root stats, fault targeting
// ---------------------------------------------------------------------------

/// All on-disk copies of a root-relative name across the fixture's roots.
std::vector<std::filesystem::path> copies_of(
    const std::vector<std::filesystem::path>& roots, const std::string& rel) {
  std::vector<std::filesystem::path> out;
  for (const auto& root : roots)
    if (std::filesystem::exists(root / rel)) out.push_back(root / rel);
  return out;
}

void flip_byte(const std::filesystem::path& file, std::uint64_t offset) {
  std::fstream io(file, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(io.is_open()) << file;
  io.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  io.read(&c, 1);
  c = static_cast<char>(c ^ 0x20);
  io.seekp(static_cast<std::streamoff>(offset));
  io.write(&c, 1);
}

TEST(ShardedBackendTest, ChunksStripeAcrossRootsBehindOneManifest) {
  testing::TempDir dir("sharded_layout");
  const auto roots = sharded_roots(dir, 3);  // exactly 3: spread asserted
  ShardedOptions opts;
  opts.chunk_size = 512;
  ShardedBackend b(roots, opts);

  const auto payload = pattern_bytes(1800, 9);  // 4 chunks, short tail
  ASSERT_OK(storage::write_image(b, "out/img.bin", payload));

  // Physical layout: 4 chunk files spread over the roots, plus the
  // manifest; the logical namespace shows exactly one file.
  EXPECT_EQ(copies_of(roots, "out/img.bin.chunk-0").size(), 1u);
  EXPECT_EQ(copies_of(roots, "out/img.bin.chunk-3").size(), 1u);
  EXPECT_EQ(copies_of(roots, "out/img.bin.manifest").size(), 1u);
  EXPECT_EQ(b.list_files(), std::vector<std::string>{"out/img.bin"});
  EXPECT_EQ(b.file_size("out/img.bin"), payload.size());
  // Round-robin walks the roots cyclically: with 4 chunks on 3 roots
  // every root holds at least one chunk.
  for (const auto& root : roots) {
    std::size_t chunks = 0;
    for (int c = 0; c < 4; ++c)
      chunks += std::filesystem::exists(
          root / ("out/img.bin.chunk-" + std::to_string(c)));
    EXPECT_GE(chunks, 1u) << root;
  }
  // Verified read returns the exact bytes, not degraded.
  std::vector<std::byte> back;
  bool degraded = true;
  ASSERT_OK(b.read_image("out/img.bin", &back, &degraded));
  EXPECT_EQ(back, payload);
  EXPECT_FALSE(degraded);
}

TEST(ShardedBackendTest, TwinBackendsProduceIdenticalLayouts) {
  // Determinism under a seed: two independent stacks given the same
  // write sequence place every chunk file on the same root — the
  // property that makes twin-run comparisons (and layout debugging)
  // possible at all.
  for (const auto policy : {storage::PlacementPolicy::kRoundRobin,
                            storage::PlacementPolicy::kBalanced}) {
    testing::TempDir da("sharded_twin_a");
    testing::TempDir db("sharded_twin_b");
    ShardedOptions opts;
    opts.chunk_size = 512;
    opts.placement = policy;
    opts.placement_seed = 2026;
    ShardedBackend a(sharded_roots(da), opts);
    ShardedBackend b(sharded_roots(db), opts);
    for (int i = 0; i < 5; ++i) {
      const auto img = pattern_bytes(700 + 400 * static_cast<std::size_t>(i), i);
      ASSERT_OK(storage::write_image(a, "img" + std::to_string(i), img));
      ASSERT_OK(storage::write_image(b, "img" + std::to_string(i), img));
    }
    for (std::size_t r = 0; r < a.root_count(); ++r)
      EXPECT_EQ(a.root_backend(r).list_files(), b.root_backend(r).list_files())
          << placement_policy_name(policy) << " root " << r;
  }
}

TEST(ShardedBackendTest, PerRootStatsAccountPhysicalBytes) {
  testing::TempDir dir("sharded_stats");
  ShardedOptions opts;
  opts.chunk_size = 512;
  opts.replication = 2;
  ShardedBackend b(sharded_roots(dir), opts);

  const auto payload = pattern_bytes(1280, 4);  // chunks 512+512+256
  ASSERT_OK(storage::write_image(b, "img.bin", payload));

  // Logical stats stay image-granular (conformance parity with sim/posix).
  EXPECT_EQ(b.stats().files_created, 1u);
  EXPECT_EQ(b.stats().bytes_written, payload.size());
  // Physical per-root stats carry the replicated chunk bytes plus the two
  // manifest copies.
  std::uint64_t physical = 0, files = 0;
  for (const auto& rs : b.root_stats()) {
    physical += rs.bytes_written;
    files += rs.files_created;
  }
  EXPECT_GE(physical, 2 * payload.size());  // replication doubles the bytes
  EXPECT_EQ(files, 3u * 2u + 2u);           // 3 chunks x2 + 2 manifest copies
  const auto counters = b.counters();
  EXPECT_EQ(counters.chunks_written, 6u);
  EXPECT_EQ(counters.manifests_published, 1u);
  EXPECT_EQ(counters.degraded_chunk_writes, 0u);
  // The JSON snapshot exposes the whole stack.
  const std::string json = b.stats_json();
  EXPECT_NE(json.find("\"per_root\""), std::string::npos);
  EXPECT_NE(json.find("\"chunks_written\":6"), std::string::npos);
  EXPECT_NE(json.find("\"replication\":2"), std::string::npos);
}

TEST(PosixBackendTest, ErrorStatusesCarryRootAndOperation) {
  // Satellite: with N roots a bare "pwrite failed" is useless; every
  // PosixBackend error must name the operation and the root.
  testing::TempDir dir("posix_errmsg");
  auto faults = std::make_shared<fault::FaultInjector>(7);
  faults->arm({.point = "posix.pwrite", .count = 1});
  PosixBackend backend(dir.path(), faults);
  FileHandle f;
  ASSERT_OK(backend.create("a/img.bin", &f));
  const Status st = backend.write(f, pattern_bytes(64));
  ASSERT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_NE(st.message().find("pwrite"), std::string::npos) << st.message();
  EXPECT_NE(st.message().find("[root " + dir.path().string() + "]"),
            std::string::npos)
      << st.message();
  EXPECT_NE(st.message().find("a/img.bin"), std::string::npos) << st.message();
  ASSERT_OK(backend.close(f));
}

TEST(ShardedBackendTest, FaultTargetingFailsOneRootOfMany) {
  // posix.* probes carry the root index as the fault target: a plan can
  // take down exactly one root.  With replication=2 every chunk still
  // lands (degraded) and reads recover the full image.
  testing::TempDir dir("sharded_fault_target");
  auto faults = std::make_shared<fault::FaultInjector>(11);
  faults->arm({.point = "posix.pwrite", .target = 1, .count = 100000});
  ShardedOptions opts;
  opts.chunk_size = 256;
  opts.replication = 2;
  ShardedBackend b(sharded_roots(dir, 2), opts, faults);

  const auto payload = pattern_bytes(1024, 5);  // 4 chunks, both roots planned
  ASSERT_OK(storage::write_image(b, "img.bin", payload));

  // Root 1 rejected every pwrite, so only root 0 holds data; each chunk
  // lost one planned replica.
  EXPECT_EQ(b.root_backend(1).stats().bytes_written, 0u);
  EXPECT_GT(b.root_backend(0).stats().bytes_written, 0u);
  EXPECT_EQ(b.counters().degraded_chunk_writes, 4u);
  EXPECT_GT(faults->fired("posix.pwrite"), 0u);

  // Degraded read: chunks whose primary was root 1 are served by the
  // surviving copy, byte-identical.
  std::vector<std::byte> back;
  bool degraded = false;
  ASSERT_OK(b.read_image("img.bin", &back, &degraded));
  EXPECT_EQ(back, payload);
  EXPECT_TRUE(degraded);
  EXPECT_GT(b.counters().degraded_reads, 0u);
}

// ---------------------------------------------------------------------------
// Integrity: corruption table over striped chunks (satellite)
// ---------------------------------------------------------------------------

struct CorruptionCase {
  const char* name;
  /// Applied to the single on-disk copy of chunk 1 (replication=1).
  void (*corrupt)(const std::filesystem::path& chunk);
};

void PrintTo(const CorruptionCase& c, std::ostream* os) { *os << c.name; }

/// (corruption, chunk size): 512 B, and 96 KiB + 1 B so the verify path
/// also checksums long, odd-length chunks.
class ShardedCorruptionTest
    : public ::testing::TestWithParam<
          std::tuple<CorruptionCase, std::uint64_t>> {};

TEST_P(ShardedCorruptionTest, UnreplicatedCorruptionIsDataLoss) {
  const auto& [corruption, chunk_size] = GetParam();
  testing::TempDir dir("sharded_corrupt");
  const auto roots = sharded_roots(dir);
  ShardedOptions opts;
  opts.chunk_size = chunk_size;
  ShardedBackend b(roots, opts);
  // 3.5 chunks: three full ones and a short tail.
  const auto payload = pattern_bytes(chunk_size * 7 / 2, 7);
  ASSERT_OK(storage::write_image(b, "img.bin", payload));

  const auto copies = copies_of(roots, "img.bin.chunk-1");
  ASSERT_EQ(copies.size(), 1u);
  corruption.corrupt(copies.front());
  const bool deleted = !std::filesystem::exists(copies.front());

  std::vector<std::byte> back;
  const Status st = b.read_image("img.bin", &back);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.to_string();
  // A damaged copy counts as corrupt; a missing one does not.
  EXPECT_EQ(b.counters().corrupt_chunks_detected, deleted ? 0u : 1u);
  EXPECT_NE(st.message().find("chunk 1"), std::string::npos) << st.message();
  EXPECT_FALSE(b.read_file("img.bin").has_value());
  // The other chunks were untouched, so the error names chunk 1 and
  // nothing else: detection is precise, not a whole-image writeoff.
  EXPECT_EQ(st.message().find("chunk 0"), std::string::npos) << st.message();
}

INSTANTIATE_TEST_SUITE_P(
    Corruptions, ShardedCorruptionTest,
    ::testing::Combine(::testing::Values(
        CorruptionCase{"bitflip_first_byte",
                       [](const std::filesystem::path& p) { flip_byte(p, 0); }},
        CorruptionCase{"bitflip_mid",
                       [](const std::filesystem::path& p) {
                         flip_byte(p, 200);
                       }},
        CorruptionCase{"bitflip_last_byte",
                       [](const std::filesystem::path& p) {
                         flip_byte(p, std::filesystem::file_size(p) - 1);
                       }},
        CorruptionCase{"truncated_half",
                       [](const std::filesystem::path& p) {
                         std::filesystem::resize_file(
                             p, std::filesystem::file_size(p) / 2);
                       }},
        CorruptionCase{"truncated_empty",
                       [](const std::filesystem::path& p) {
                         std::filesystem::resize_file(p, 0);
                       }},
        CorruptionCase{"grown_tail",
                       [](const std::filesystem::path& p) {
                         std::filesystem::resize_file(
                             p, std::filesystem::file_size(p) + 16);
                       }},
        CorruptionCase{"deleted",
                       [](const std::filesystem::path& p) {
                         std::filesystem::remove(p);
                       }}),
                       ::testing::Values<std::uint64_t>(512, (96u << 10) + 1)),
    [](const ::testing::TestParamInfo<ShardedCorruptionTest::ParamType>& info) {
      return std::string(std::get<0>(info.param).name) + "_chunk" +
             std::to_string(std::get<1>(info.param));
    });

TEST(ShardedBackendTest, CorruptManifestIsDataLossNotGarbage) {
  testing::TempDir dir("sharded_badmanifest");
  const auto roots = sharded_roots(dir);
  ShardedOptions opts;
  opts.chunk_size = 512;
  ShardedBackend b(roots, opts);
  ASSERT_OK(storage::write_image(b, "img.bin", pattern_bytes(1000, 2)));
  const auto manifests = copies_of(roots, "img.bin.manifest");
  ASSERT_EQ(manifests.size(), 1u);
  flip_byte(manifests.front(), 0);  // break the header line
  std::vector<std::byte> back;
  EXPECT_EQ(b.read_image("img.bin", &back).code(), StatusCode::kDataLoss);
}

TEST(ShardedBackendTest, ReplicationRecoversFromCorruptionByteIdentical) {
  testing::TempDir dir("sharded_recover");
  const auto roots = sharded_roots(dir);
  ShardedOptions opts;
  opts.chunk_size = 512;
  opts.replication = 2;
  ShardedBackend b(roots, opts);
  const auto payload = pattern_bytes(1800, 8);
  ASSERT_OK(storage::write_image(b, "img.bin", payload));

  // Corrupt every first copy of every chunk: reads must fall through to
  // the replicas and still return the exact original bytes.
  for (int c = 0; c < 4; ++c) {
    const auto copies =
        copies_of(roots, "img.bin.chunk-" + std::to_string(c));
    ASSERT_EQ(copies.size(), 2u) << "chunk " << c;
    flip_byte(copies.front(), 100);
  }
  std::vector<std::byte> back;
  bool degraded = false;
  ASSERT_OK(b.read_image("img.bin", &back, &degraded));
  EXPECT_EQ(back, payload);
  EXPECT_GE(b.counters().corrupt_chunks_detected, 1u);

  // Corrupt the surviving copies too: now it is data loss.
  for (int c = 0; c < 4; ++c)
    for (const auto& copy :
         copies_of(roots, "img.bin.chunk-" + std::to_string(c)))
      flip_byte(copy, 101);
  EXPECT_EQ(b.read_image("img.bin", &back).code(), StatusCode::kDataLoss);
}

TEST(ShardedBackendTest, LosingAWholeRootDegradesButServesReads) {
  testing::TempDir dir("sharded_rootloss");
  const auto roots = sharded_roots(dir);
  ShardedOptions opts;
  opts.chunk_size = 512;
  opts.replication = 2;
  const auto payload = pattern_bytes(2000, 6);
  {
    ShardedBackend writer(roots, opts);
    ASSERT_OK(storage::write_image(writer, "img.bin", payload));
  }
  // The disk holding root 1 dies.
  std::filesystem::remove_all(roots[1]);

  // A fresh stack over the same roots (restart) still serves the image
  // from the surviving replicas — including the replicated manifest.
  ShardedBackend reader(roots, opts);
  std::vector<std::byte> back;
  bool degraded = false;
  ASSERT_OK(reader.read_image("img.bin", &back, &degraded));
  EXPECT_EQ(back, payload);
  EXPECT_TRUE(reader.exists("img.bin"));
  EXPECT_EQ(reader.list_files(), std::vector<std::string>{"img.bin"});
}

// ---------------------------------------------------------------------------
// Manifest generations: overwrite correctness, hostile-manifest hardening
// ---------------------------------------------------------------------------

void write_text(const std::filesystem::path& file, const std::string& text) {
  std::ofstream out(file, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << file;
  out << text;
}

std::string read_text(const std::filesystem::path& file) {
  std::ifstream in(file, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST(ShardedBackendTest, OverwriteServesNewestGenerationAndCleansStaleCopies) {
  // Balanced placement re-decides the manifest roots on every overwrite,
  // so the new manifest can land somewhere else entirely; the old copy
  // must neither survive (publish deletes strays) nor win (readers pick
  // the highest generation).
  testing::TempDir dir("sharded_overwrite");
  const auto roots = sharded_roots(dir, 2);
  ShardedOptions opts;
  opts.chunk_size = 512;
  opts.placement = storage::PlacementPolicy::kBalanced;
  ShardedBackend b(roots, opts);
  const auto v1 = pattern_bytes(1500, 1);
  const auto v2 = pattern_bytes(700, 2);
  ASSERT_OK(storage::write_image(b, "img.bin", v1));
  ASSERT_OK(storage::write_image(b, "filler.bin", pattern_bytes(4096, 3)));
  ASSERT_OK(storage::write_image(b, "img.bin", v2));

  // Exactly `replication` copies remain across ALL roots — wherever the
  // overwrite moved the manifest, no stale copy shadows the namespace —
  // and the surviving copy is the overwrite's generation.
  const auto manifests = copies_of(roots, "img.bin.manifest");
  ASSERT_EQ(manifests.size(), 1u);
  EXPECT_NE(read_text(manifests.front()).find("generation 2"),
            std::string::npos);
  const auto back = b.read_file("img.bin");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, v2);
  EXPECT_EQ(b.file_size("img.bin"), v2.size());
  EXPECT_EQ(b.list_files(),
            (std::vector<std::string>{"filler.bin", "img.bin"}));
}

TEST(ShardedBackendTest, DegradedManifestPublishIsCountedAndNotShadowed) {
  // A publish that loses some (not all) manifest copies leaves an OLD
  // generation behind on the failed root.  With root 0 the failed one,
  // root-index-order loading would serve the stale generation-1 image;
  // the generation scan must serve generation 2 — and the degradation
  // must be visible in the counters.
  testing::TempDir dir("sharded_stale_manifest");
  const auto roots = sharded_roots(dir, 2);
  auto faults = std::make_shared<fault::FaultInjector>(13);
  ShardedOptions opts;
  opts.chunk_size = 512;
  opts.replication = 2;
  ShardedBackend b(roots, opts, faults);
  const auto v1 = pattern_bytes(900, 4);
  const auto v2 = pattern_bytes(1300, 5);
  ASSERT_OK(storage::write_image(b, "img.bin", v1));
  ASSERT_EQ(copies_of(roots, "img.bin.manifest").size(), 2u);

  // Root 0 stops accepting writes; the overwrite lands on root 1 only.
  faults->arm({.point = "posix.pwrite", .target = 0, .count = 100000});
  ASSERT_OK(storage::write_image(b, "img.bin", v2));
  EXPECT_EQ(b.counters().degraded_manifest_writes, 1u);
  EXPECT_NE(b.stats_json().find("\"degraded_manifest_writes\":1"),
            std::string::npos);

  // Root 0 still physically holds its generation-1 manifest…
  ASSERT_EQ(copies_of(roots, "img.bin.manifest").size(), 2u);
  // …but reads serve the newest generation, byte-identical.
  std::vector<std::byte> back;
  ASSERT_OK(b.read_image("img.bin", &back));
  EXPECT_EQ(back, v2);
  EXPECT_EQ(b.file_size("img.bin"), v2.size());
}

TEST(ShardedBackendTest, InconsistentManifestChunkSizesAreRejectedSafely) {
  testing::TempDir dir("sharded_forged_manifest");
  const auto roots = sharded_roots(dir);
  ShardedOptions opts;
  opts.chunk_size = 100;
  ShardedBackend b(roots, opts);
  ASSERT_OK(storage::write_image(b, "img.bin", pattern_bytes(100, 6)));
  const auto manifests = copies_of(roots, "img.bin.manifest");
  ASSERT_EQ(manifests.size(), 1u);

  // Sizes sum to `size` but disagree with chunk_size: reads copy
  // sizes[i] bytes at offset chunk_size*i, so accepting this manifest
  // would write 90 bytes at offset 100 into a 100-byte buffer.  It must
  // be rejected at parse time -> every copy corrupt -> kDataLoss.
  write_text(manifests.front(),
             "dedicore-sharded-manifest v2\n"
             "generation 7\n"
             "size 100\n"
             "chunk_size 100\n"
             "replication 1\n"
             "chunks 2\n"
             "chunk 0 10 00000000 0\n"
             "chunk 1 90 00000000 0\n");
  std::vector<std::byte> back;
  EXPECT_EQ(b.read_image("img.bin", &back).code(), StatusCode::kDataLoss);

  // An absurd chunk count whose allocation cannot succeed must fail the
  // parse like any other malformation — not terminate on bad_alloc.
  write_text(manifests.front(),
             "dedicore-sharded-manifest v2\n"
             "generation 7\n"
             "size 18446744073709551615\n"
             "chunk_size 1\n"
             "replication 1\n"
             "chunks 18446744073709551615\n");
  EXPECT_EQ(b.read_image("img.bin", &back).code(), StatusCode::kDataLoss);

  // Consistent in itself, but it names a 2^50-byte chunk no root holds: the
  // output must not be sized from `size` before the chunks are found on
  // disk, or the read ends the process on bad_alloc.  open() stages the
  // image through the same read.
  write_text(manifests.front(),
             "dedicore-sharded-manifest v2\n"
             "generation 7\n"
             "size 1125899906842624\n"
             "chunk_size 1125899906842624\n"
             "replication 1\n"
             "chunks 1\n"
             "chunk 0 1125899906842624 00000000 0\n");
  EXPECT_EQ(b.read_image("img.bin", &back).code(), StatusCode::kDataLoss);
  EXPECT_TRUE(back.empty());
  FileHandle f;
  EXPECT_EQ(b.open("img.bin", &f).code(), StatusCode::kDataLoss);
  EXPECT_EQ(b.open_handles(), 0u);
}

TEST(ShardedBackendTest, NonHexManifestCrcFallsThroughToTheIntactCopy) {
  // A manifest copy whose CRC field has a non-hex digit is malformed.  If
  // it parsed up to the bad digit instead, the damaged copy on the lower
  // root would win the equal-generation tie, and every healthy copy of
  // chunk 0 would then fail that wrong checksum.
  testing::TempDir dir("sharded_nonhex_crc");
  const auto roots = sharded_roots(dir, 3);
  ShardedOptions opts;
  opts.chunk_size = 512;
  opts.replication = 2;
  ShardedBackend b(roots, opts);
  const auto payload = pattern_bytes(1800, 11);
  ASSERT_OK(storage::write_image(b, "img.bin", payload));
  const auto manifests = copies_of(roots, "img.bin.manifest");
  ASSERT_EQ(manifests.size(), 2u);

  std::string text = read_text(manifests.front());
  const std::string chunk0 = "\nchunk 0 512 ";
  const std::size_t at = text.find(chunk0);
  ASSERT_NE(at, std::string::npos) << text;
  text[at + chunk0.size() + 7] = 'g';  // last digit of chunk 0's CRC
  write_text(manifests.front(), text);

  std::vector<std::byte> back;
  ASSERT_OK(b.read_image("img.bin", &back));
  EXPECT_EQ(back, payload);
  EXPECT_EQ(b.counters().corrupt_chunks_detected, 1u);
}

TEST(ShardedBackendTest, PwriteOverflowingOffsetIsRejected) {
  testing::TempDir dir("sharded_pwrite_overflow");
  ShardedOptions opts;
  opts.chunk_size = 512;
  ShardedBackend b(sharded_roots(dir), opts);
  FileHandle f;
  ASSERT_OK(b.create("img.bin", &f));
  const auto payload = pattern_bytes(64, 7);
  // offset + size wrapping past UINT64_MAX must be rejected, not wrapped
  // into a small resize followed by an out-of-bounds copy.  UINT64_MAX is
  // a legitimate (if absurd) offset, no longer an append sentinel.
  EXPECT_EQ(b.pwrite(f, UINT64_MAX, payload).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(b.pwrite(f, UINT64_MAX - 10, payload).code(),
            StatusCode::kInvalidArgument);
  // Append and positional writes still work after the rejections.
  ASSERT_OK(b.write(f, payload));
  ASSERT_OK(b.pwrite(f, 0, payload));
  ASSERT_OK(b.close(f));
  EXPECT_EQ(b.file_size("img.bin"), payload.size());
  const auto back = b.read_file("img.bin");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, payload);
}

// ---------------------------------------------------------------------------
// Write-behind over the sharded stack: chunk-granular jobs
// ---------------------------------------------------------------------------

TEST(WriteBehindShardedTest, ImageJobsSplitIntoChunkJobs) {
  testing::TempDir dir("wb_sharded");
  ShardedOptions opts;
  opts.chunk_size = 256;
  ShardedBackend backend(sharded_roots(dir), opts);
  WriteBehind queue(backend, 1 << 20);

  std::atomic<int> completions{0};
  Status verdict = Status::internal("never ran");
  WriteBehind::Job job;
  job.path = "img.bin";
  job.image = pattern_bytes(1124, 3);  // 5 chunks (4 x 256 + 100)
  job.on_complete = [&](const Status& st) {
    verdict = st;
    ++completions;
  };
  queue.enqueue(std::move(job));

  // The queue holds one entry per chunk; nothing is visible yet — the
  // manifest is published by the drainer that finishes the last chunk.
  EXPECT_EQ(queue.pending_jobs(), 5u);
  EXPECT_EQ(queue.stats().jobs_enqueued, 5u);
  EXPECT_FALSE(backend.exists("img.bin"));

  // Drain from two threads: chunks of the same image write in parallel.
  std::thread other([&] { queue.drain_some(3); });
  queue.drain_all();
  other.join();

  EXPECT_EQ(completions.load(), 1);
  ASSERT_OK(verdict);
  EXPECT_EQ(queue.stats().jobs_written, 5u);
  EXPECT_EQ(queue.stats().bytes_written, 1124u);
  std::vector<std::byte> back;
  ASSERT_OK(backend.read_image("img.bin", &back));
  EXPECT_EQ(back, pattern_bytes(1124, 3));
}

TEST(WriteBehindShardedTest, ChunkFailureWithholdsTheManifest) {
  // A quarantined poison chunk must leave the image invisible — readers
  // can never see a partially-written sharded image — and the producer's
  // completion hook gets the failure exactly once.
  testing::TempDir dir("wb_sharded_poison");
  auto faults = std::make_shared<fault::FaultInjector>(3);
  // Root 1 rejects every pwrite; with replication=1 the chunks placed on
  // it fail all retries and are quarantined.
  faults->arm({.point = "posix.pwrite", .target = 1, .count = 100000});
  ShardedOptions opts;
  opts.chunk_size = 256;
  ShardedBackend backend(sharded_roots(dir, 2), opts, faults);
  WriteBehind queue(backend, 1 << 20, /*retries=*/2, faults);

  std::atomic<int> completions{0};
  Status verdict;
  WriteBehind::Job job;
  job.path = "img.bin";
  job.image = pattern_bytes(1024, 1);  // 4 chunks, ~half on root 1
  job.on_complete = [&](const Status& st) {
    verdict = st;
    ++completions;
  };
  queue.enqueue(std::move(job));
  queue.drain_all();

  EXPECT_EQ(completions.load(), 1);
  EXPECT_EQ(verdict.code(), StatusCode::kIoError) << verdict.to_string();
  EXPECT_FALSE(backend.exists("img.bin"));
  EXPECT_FALSE(backend.read_file("img.bin").has_value());
  const storage::WriteBehindStats wb = queue.stats();
  EXPECT_GT(wb.jobs_quarantined, 0u);
  EXPECT_GT(wb.retries, 0u);
  EXPECT_EQ(wb.jobs_written + wb.jobs_failed, wb.jobs_enqueued);
}

// ---------------------------------------------------------------------------
// End to end: Runtime with <storage backend="posix">, worker-pool drain
// ---------------------------------------------------------------------------

core::Configuration runtime_config(const std::string& backend,
                                   const std::string& path,
                                   int server_workers) {
  core::Configuration cfg;
  cfg.set_simulation_name("persist");
  cfg.set_architecture(/*cores_per_node=*/4, /*dedicated_cores=*/1);
  cfg.set_server_workers(server_workers);
  cfg.set_buffer(8ull << 20, 256, core::BackpressurePolicy::kBlock);
  core::LayoutSpec layout;
  layout.name = "grid";
  layout.dtype = h5lite::DType::kFloat64;
  layout.extents = {8, 8};
  cfg.add_layout(layout);
  core::VariableSpec v;
  v.name = "field";
  v.layout = "grid";
  cfg.add_variable(v);
  core::ActionSpec store;
  store.event = "end_iteration";
  store.plugin = "store";
  cfg.add_action(store);
  core::StorageSpec storage;
  storage.basename = "persist";
  storage.backend = backend;
  storage.path = path;
  cfg.set_storage(storage);
  cfg.validate();
  return cfg;
}

/// Runs a 3-client dedicated-cores world for `iterations`, returns the
/// write-behind stats captured on the server rank (zero-initialized for
/// the sim backend, which has no queue).
storage::WriteBehindStats run_world_with(const core::Configuration& cfg,
                                         fsim::FileSystem& fs,
                                         int iterations) {
  storage::WriteBehindStats wb_stats;
  minimpi::run_world(4, [&](minimpi::Comm& comm) {
    core::Runtime rt = core::Runtime::initialize(cfg, comm, fs);
    if (rt.is_server()) {
      rt.run_server();
      if (rt.node().write_behind != nullptr)
        wb_stats = rt.node().write_behind->stats();
      return;
    }
    std::vector<double> field(8 * 8);
    for (int it = 0; it < iterations; ++it) {
      for (std::size_t i = 0; i < field.size(); ++i)
        field[i] = comm.rank() * 1000 + it * 10 + static_cast<double>(i);
      ASSERT_OK(rt.client().write("field", std::span<const double>(field)));
      ASSERT_OK(rt.client().end_iteration());
    }
    rt.finalize();
  });
  return wb_stats;
}

/// When CI exports DEDICORE_STORAGE_ARTIFACT_DIR, copy the produced
/// h5lite files there so the workflow can upload them.
void export_artifacts(const std::filesystem::path& from) {
  const char* target = std::getenv("DEDICORE_STORAGE_ARTIFACT_DIR");
  if (target == nullptr || *target == '\0') return;
  std::error_code ec;
  std::filesystem::create_directories(target, ec);
  ASSERT_FALSE(ec) << "artifact dir: " << ec.message();
  std::filesystem::copy(from, target,
                        std::filesystem::copy_options::recursive |
                            std::filesystem::copy_options::overwrite_existing,
                        ec);
  EXPECT_FALSE(ec) << "artifact copy: " << ec.message();
}

TEST(StorageEndToEndTest, PosixRunMatchesSimRunWithWorkerPoolDrain) {
  constexpr int kIterations = 4;
  testing::TempDir dir("storage_e2e");

  // Twin runs: identical clients and data, sim vs posix persistence.  The
  // posix run uses a 2-worker server pool, so the write-behind queue is
  // drained by the pool (acceptance: >= 2 server workers).
  fsim::FileSystem sim_fs(quiet_storage(), fast_scale());
  run_world_with(runtime_config("sim", "", /*server_workers=*/1), sim_fs,
                 kIterations);

  fsim::FileSystem posix_fs(quiet_storage(), fast_scale());  // unused sink
  const storage::WriteBehindStats wb = run_world_with(
      runtime_config("posix", dir.path().string(), /*server_workers=*/2),
      posix_fs, kIterations);

  // Every enqueued image was drained before run_server returned.
  EXPECT_EQ(wb.jobs_enqueued, static_cast<std::uint64_t>(kIterations));
  EXPECT_EQ(wb.jobs_written, wb.jobs_enqueued);
  EXPECT_EQ(wb.jobs_failed, 0u);

  // The posix run produced the same files with the same bytes on the real
  // filesystem.
  PosixBackend disk(dir.path());
  SimBackend sim(sim_fs);
  ASSERT_EQ(disk.list_files(), sim.list_files());
  ASSERT_EQ(disk.file_count(), static_cast<std::size_t>(kIterations));
  for (const std::string& path : disk.list_files()) {
    const auto disk_bytes = disk.read_file(path);
    const auto sim_bytes = sim.read_file(path);
    ASSERT_TRUE(disk_bytes.has_value());
    ASSERT_TRUE(sim_bytes.has_value());
    EXPECT_EQ(*disk_bytes, *sim_bytes) << path;
    // And the real-disk bytes are a valid h5lite image with every
    // client's block present.
    const h5lite::File file = h5lite::File::parse(*disk_bytes);
    EXPECT_EQ(file.dataset_paths().size(), 3u) << path;
  }

  export_artifacts(dir.path());
}

TEST(StorageEndToEndTest, XmlSelectsThePosixBackend) {
  testing::TempDir dir("storage_xml");
  const std::string xml = R"(
    <simulation name="xmlrun" cores_per_node="2" dedicated_cores="1">
      <buffer size="4MiB" queue="64" policy="block"/>
      <data>
        <layout name="grid" type="float64" dimensions="8,8"/>
        <variable name="field" layout="grid"/>
      </data>
      <storage basename="xmlrun" backend="posix" path=")" +
                          dir.path().string() + R"(" write_behind="1MiB"/>
      <actions>
        <event name="end_iteration" plugin="store"/>
      </actions>
    </simulation>)";
  const core::Configuration cfg = core::Configuration::from_string(xml);
  EXPECT_EQ(cfg.storage().backend, "posix");
  EXPECT_EQ(cfg.storage().write_behind_bytes, 1ull << 20);

  fsim::FileSystem fs(quiet_storage(), fast_scale());
  minimpi::run_world(2, [&](minimpi::Comm& comm) {
    core::Runtime rt = core::Runtime::initialize(cfg, comm, fs);
    if (rt.is_server()) {
      rt.run_server();
      return;
    }
    std::vector<double> field(8 * 8, 1.5);
    ASSERT_OK(rt.client().write("field", std::span<const double>(field)));
    ASSERT_OK(rt.client().end_iteration());
    rt.finalize();
  });

  PosixBackend disk(dir.path());
  ASSERT_EQ(disk.file_count(), 1u);
  const auto bytes = disk.read_file(disk.list_files().front());
  ASSERT_TRUE(bytes.has_value());
  const h5lite::File file = h5lite::File::parse(*bytes);
  const auto* group = file.root().find_group("field");
  ASSERT_NE(group, nullptr);
  ASSERT_EQ(group->datasets.size(), 1u);
  EXPECT_EQ(group->datasets.front().read_as<double>(),
            std::vector<double>(8 * 8, 1.5));
}

TEST(StorageEndToEndTest, TinyBudgetWithTwoStoreActionsDoesNotDeadlock) {
  // Two store actions fire back-to-back under the server's pipeline
  // mutex with a budget smaller than a single image: the second enqueue
  // finds the budget exhausted while holding the only path to a drain
  // site.  The producer-drains rule must turn that into forward progress
  // (the pre-fix queue parked the worker forever; CTest's timeout was
  // the only way out).
  testing::TempDir dir("storage_tiny_budget");
  core::Configuration cfg =
      runtime_config("posix", dir.path().string(), /*server_workers=*/1);
  core::ActionSpec second;
  second.event = "end_iteration";
  second.plugin = "store";
  second.params["basename"] = "persist2";
  cfg.add_action(second);
  core::StorageSpec storage = cfg.storage();
  storage.write_behind_bytes = 1024;  // < one image
  cfg.set_storage(storage);
  cfg.validate();

  fsim::FileSystem fs(quiet_storage(), fast_scale());
  const storage::WriteBehindStats wb = run_world_with(cfg, fs, 3);
  EXPECT_EQ(wb.jobs_written, 6u);
  EXPECT_EQ(wb.jobs_failed, 0u);
  PosixBackend disk(dir.path());
  EXPECT_EQ(disk.file_count(), 6u);  // both actions, every iteration
}

TEST(StorageEndToEndTest, PosixRequiresAPath) {
  core::Configuration cfg = runtime_config("posix", "x", 1);
  core::StorageSpec storage = cfg.storage();
  storage.path.clear();
  cfg.set_storage(storage);
  EXPECT_THROW(cfg.validate(), ConfigError);
}

// ---------------------------------------------------------------------------
// End to end: Runtime over the sharded stack
// ---------------------------------------------------------------------------

/// runtime_config with `<storage roots=...>` swapped in for the path.
core::Configuration sharded_runtime_config(
    const std::vector<std::filesystem::path>& roots, int server_workers,
    std::uint64_t chunk_size = 512) {
  core::Configuration cfg = runtime_config("posix", "unused", server_workers);
  core::StorageSpec storage = cfg.storage();
  storage.path.clear();
  for (const auto& root : roots) storage.roots.push_back(root.string());
  storage.chunk_size = chunk_size;
  cfg.set_storage(storage);
  cfg.validate();
  return cfg;
}

TEST(StorageEndToEndTest, ShardedRunMatchesSingleRootRunByteForByte) {
  // Twin runs, identical clients and data: one single-root posix backend,
  // one 3-root sharded stack with multi-chunk images.  Readers must not
  // be able to tell them apart — same namespace, same bytes, same
  // decoded datasets.
  constexpr int kIterations = 3;
  testing::TempDir single_dir("storage_e2e_single");
  testing::TempDir sharded_dir("storage_e2e_sharded");
  const auto roots = sharded_roots(sharded_dir);

  fsim::FileSystem fs_a(quiet_storage(), fast_scale());
  run_world_with(
      runtime_config("posix", single_dir.path().string(), /*workers=*/1),
      fs_a, kIterations);

  fsim::FileSystem fs_b(quiet_storage(), fast_scale());
  const storage::WriteBehindStats wb = run_world_with(
      sharded_runtime_config(roots, /*server_workers=*/2), fs_b, kIterations);

  PosixBackend single(single_dir.path());
  ShardedBackend sharded(roots, [] {
    ShardedOptions opts;
    opts.chunk_size = 512;
    return opts;
  }());
  ASSERT_EQ(sharded.list_files(), single.list_files());
  ASSERT_EQ(sharded.file_count(), static_cast<std::size_t>(kIterations));
  for (const std::string& path : single.list_files()) {
    const auto single_bytes = single.read_file(path);
    const auto sharded_bytes = sharded.read_file(path);
    ASSERT_TRUE(single_bytes.has_value());
    ASSERT_TRUE(sharded_bytes.has_value());
    EXPECT_EQ(*sharded_bytes, *single_bytes) << path;
    // The reassembled image decodes: every client block, exact values.
    const h5lite::File file = h5lite::File::parse(*sharded_bytes);
    EXPECT_EQ(file.dataset_paths().size(), 3u) << path;
  }
  // Images larger than a chunk really were striped (chunk jobs > images).
  EXPECT_GT(wb.jobs_enqueued, static_cast<std::uint64_t>(kIterations));
  EXPECT_EQ(wb.jobs_written, wb.jobs_enqueued);
  EXPECT_EQ(wb.jobs_failed, 0u);
}

TEST(StorageEndToEndTest, XmlSelectsTheShardedBackend) {
  testing::TempDir dir("storage_xml_sharded");
  const auto roots = sharded_roots(dir, 3);  // the XML names 3 roots
  const std::string xml = R"(
    <simulation name="xmlshard" cores_per_node="2" dedicated_cores="1">
      <buffer size="4MiB" queue="64" policy="block"/>
      <data>
        <layout name="grid" type="float64" dimensions="8,8"/>
        <variable name="field" layout="grid"/>
      </data>
      <storage basename="xmlshard" backend="posix" roots=")" +
                          roots[0].string() + ";" + roots[1].string() + ";" +
                          roots[2].string() +
                          R"(" chunk_size="1KiB" placement="balanced"
               placement_seed="7" replication="2"/>
      <actions>
        <event name="end_iteration" plugin="store"/>
      </actions>
    </simulation>)";
  const core::Configuration cfg = core::Configuration::from_string(xml);
  ASSERT_EQ(cfg.storage().roots.size(), 3u);
  EXPECT_EQ(cfg.storage().chunk_size, 1024u);
  EXPECT_EQ(cfg.storage().placement, "balanced");
  EXPECT_EQ(cfg.storage().placement_seed, 7u);
  EXPECT_EQ(cfg.storage().replication, 2);

  fsim::FileSystem fs(quiet_storage(), fast_scale());
  minimpi::run_world(2, [&](minimpi::Comm& comm) {
    core::Runtime rt = core::Runtime::initialize(cfg, comm, fs);
    if (rt.is_server()) {
      rt.run_server();
      return;
    }
    std::vector<double> field(8 * 8, 2.25);
    ASSERT_OK(rt.client().write("field", std::span<const double>(field)));
    ASSERT_OK(rt.client().end_iteration());
    rt.finalize();
  });

  ShardedOptions opts;
  opts.chunk_size = 1024;
  opts.placement = storage::PlacementPolicy::kBalanced;
  opts.placement_seed = 7;
  opts.replication = 2;
  ShardedBackend disk(roots, opts);
  ASSERT_EQ(disk.file_count(), 1u);
  const auto bytes = disk.read_file(disk.list_files().front());
  ASSERT_TRUE(bytes.has_value());
  const h5lite::File file = h5lite::File::parse(*bytes);
  const auto* group = file.root().find_group("field");
  ASSERT_NE(group, nullptr);
  ASSERT_EQ(group->datasets.size(), 1u);
  EXPECT_EQ(group->datasets.front().read_as<double>(),
            std::vector<double>(8 * 8, 2.25));
}

TEST(StorageEndToEndTest, ShardedConfigRulesRejectTypos) {
  const auto with_storage = [](auto mutate) {
    core::Configuration cfg = runtime_config("posix", "x", 1);
    core::StorageSpec storage = cfg.storage();
    mutate(storage);
    cfg.set_storage(storage);
    return cfg;
  };
  // roots + path is ambiguous.
  EXPECT_THROW(with_storage([](core::StorageSpec& s) {
                 s.roots = {"a", "b"};
               }).validate(),
               ConfigError);
  // roots on a non-posix backend.
  EXPECT_THROW(with_storage([](core::StorageSpec& s) {
                 s.backend = "sim";
                 s.path.clear();
                 s.roots = {"a", "b"};
               }).validate(),
               ConfigError);
  // replication cannot exceed the root count.
  EXPECT_THROW(with_storage([](core::StorageSpec& s) {
                 s.path.clear();
                 s.roots = {"a", "b"};
                 s.replication = 3;
               }).validate(),
               ConfigError);
  // chunk_size below 512 bytes is read as a forgotten unit suffix.
  EXPECT_THROW(with_storage([](core::StorageSpec& s) {
                 s.path.clear();
                 s.roots = {"a", "b"};
                 s.chunk_size = 100;
               }).validate(),
               ConfigError);
  // Unknown placement policy.
  EXPECT_THROW(with_storage([](core::StorageSpec& s) {
                 s.path.clear();
                 s.roots = {"a", "b"};
                 s.placement = "striped";
               }).validate(),
               ConfigError);
  // Sharded attributes without roots are loud typos, not silent no-ops.
  EXPECT_THROW(with_storage([](core::StorageSpec& s) {
                 s.replication = 2;
               }).validate(),
               ConfigError);
  EXPECT_THROW(with_storage([](core::StorageSpec& s) {
                 s.chunk_size = 4096;
               }).validate(),
               ConfigError);
  // And the happy path still validates.
  EXPECT_NO_THROW(with_storage([](core::StorageSpec& s) {
                    s.path.clear();
                    s.roots = {"a", "b", "c"};
                    s.chunk_size = 4096;
                    s.placement = "balanced";
                    s.replication = 2;
                  }).validate());
}

// ---------------------------------------------------------------------------
// End to end: emit-path compression (spare-core codecs, §IV.D)
// ---------------------------------------------------------------------------

/// Like runtime_config, but with a 64x64 float64 layout so one block is
/// 32 KiB — big enough for the codecs to show a meaningful ratio — and the
/// given codec on <storage>.
core::Configuration compression_config(const std::string& path,
                                       const std::string& codec) {
  core::Configuration cfg;
  cfg.set_simulation_name("squeeze");
  cfg.set_architecture(/*cores_per_node=*/4, /*dedicated_cores=*/1);
  cfg.set_server_workers(1);
  cfg.set_buffer(8ull << 20, 256, core::BackpressurePolicy::kBlock);
  core::LayoutSpec layout;
  layout.name = "grid";
  layout.dtype = h5lite::DType::kFloat64;
  layout.extents = {64, 64};
  cfg.add_layout(layout);
  core::VariableSpec v;
  v.name = "field";
  v.layout = "grid";
  cfg.add_variable(v);
  core::ActionSpec store;
  store.event = "end_iteration";
  store.plugin = "store";
  cfg.add_action(store);
  core::StorageSpec storage;
  storage.basename = "squeeze";
  storage.backend = "posix";
  storage.path = path;
  storage.codec = codec;
  cfg.set_storage(storage);
  cfg.validate();
  return cfg;
}

struct CompressionRunResult {
  core::EmitStats emit;
  storage::WriteBehindStats wb;
};

/// Runs a 3-client world where every client fills `field` through
/// `fill(rank, it, i)`; captures the server-side compression counters.
template <typename Fill>
CompressionRunResult run_compression_world(const core::Configuration& cfg,
                                           int iterations, Fill fill) {
  CompressionRunResult result;
  fsim::FileSystem fs(quiet_storage(), fast_scale());
  minimpi::run_world(4, [&](minimpi::Comm& comm) {
    core::Runtime rt = core::Runtime::initialize(cfg, comm, fs);
    if (rt.is_server()) {
      rt.run_server();
      ASSERT_NE(rt.node().emit, nullptr);
      result.emit = rt.node().emit->stats();
      if (rt.node().write_behind != nullptr)
        result.wb = rt.node().write_behind->stats();
      return;
    }
    std::vector<double> field(64 * 64);
    for (int it = 0; it < iterations; ++it) {
      for (std::size_t i = 0; i < field.size(); ++i)
        field[i] = fill(comm.rank(), it, i);
      ASSERT_OK(rt.client().write("field", std::span<const double>(field)));
      ASSERT_OK(rt.client().end_iteration());
    }
    rt.finalize();
  });
  return result;
}

/// CM1-like smooth field: row-structured with slow drift per iteration
/// and rank — the shape the paper compresses at 600%.
double smooth_value(int rank, int it, std::size_t i) {
  return 300.0 + static_cast<double>(i / 64) * 0.25 + it * 0.5 + rank;
}

/// Full-mantissa hash noise: no codec in the registry reaches a useful
/// ratio on this, so the adaptive probe must park the variable on raw.
double noisy_value(int rank, int it, std::size_t i) {
  double whole;
  return std::modf(std::sin(static_cast<double>(i) * 12.9898 + it * 78.233 +
                            rank * 37.719) *
                       43758.5453,
                   &whole);
}

TEST(CompressionEndToEndTest, TwinRunsShrinkBytesAndReadBackIdentical) {
  constexpr int kIterations = 3;
  testing::TempDir raw_dir("compress_e2e_raw");
  testing::TempDir comp_dir("compress_e2e_comp");

  // Twin runs: identical clients and data, uncompressed vs xor+lzs.
  run_compression_world(compression_config(raw_dir.path().string(), "none"),
                        kIterations, smooth_value);
  const CompressionRunResult comp = run_compression_world(
      compression_config(comp_dir.path().string(), "xor+lzs"), kIterations,
      smooth_value);

  PosixBackend raw(raw_dir.path());
  PosixBackend squeezed(comp_dir.path());
  ASSERT_EQ(raw.list_files(), squeezed.list_files());
  ASSERT_EQ(raw.file_count(), static_cast<std::size_t>(kIterations));

  std::uint64_t raw_total = 0;
  std::uint64_t squeezed_total = 0;
  for (const std::string& path : raw.list_files()) {
    const auto raw_bytes = raw.read_file(path);
    const auto comp_bytes = squeezed.read_file(path);
    ASSERT_TRUE(raw_bytes.has_value());
    ASSERT_TRUE(comp_bytes.has_value());
    raw_total += raw_bytes->size();
    squeezed_total += comp_bytes->size();

    // Decompress-on-read parity: the compressed file's datasets decode to
    // exactly the bytes the uncompressed twin stored.
    const h5lite::File plain = h5lite::File::parse(*raw_bytes);
    const h5lite::File packed = h5lite::File::parse(*comp_bytes);
    const auto* plain_group = plain.root().find_group("field");
    const auto* packed_group = packed.root().find_group("field");
    ASSERT_NE(plain_group, nullptr);
    ASSERT_NE(packed_group, nullptr);
    ASSERT_EQ(plain_group->datasets.size(), packed_group->datasets.size());
    for (std::size_t d = 0; d < plain_group->datasets.size(); ++d) {
      EXPECT_EQ(plain_group->datasets[d].read_as<double>(),
                packed_group->datasets[d].read_as<double>())
          << path << " dataset " << d;
    }
    // The planned codec is recorded on the group for readers.
    const auto attr = packed_group->attributes.find("codec");
    ASSERT_NE(attr, packed_group->attributes.end()) << path;
    EXPECT_EQ(std::get<std::string>(attr->second), "xor+lzs");
  }

  // The satellite floor: smooth CM1-like fields must clear 2x on disk.
  ASSERT_GT(raw_total, 0u);
  EXPECT_LT(squeezed_total, raw_total);
  EXPECT_GE(static_cast<double>(raw_total) / static_cast<double>(squeezed_total),
            2.0);

  // The emit stage's counters tell the same story: every dataset went
  // through the codec, and the achieved ratio clears the same floor.
  EXPECT_GT(comp.emit.datasets_compressed, 0u);
  EXPECT_EQ(comp.emit.adaptive_skips, 0u);
  EXPECT_GT(comp.emit.raw_bytes, comp.emit.stored_bytes);
  EXPECT_GE(comp.emit.achieved_ratio(), 2.0);

  export_artifacts(comp_dir.path());
}

TEST(CompressionEndToEndTest, AdaptiveProbeStoresNoiseRaw) {
  // Hash-noise payloads with a 1.5 floor: the probe must measure a ratio
  // below min_ratio, park the variable on raw storage, and never spend a
  // full-dataset codec pass on it.
  testing::TempDir dir("compress_adaptive");
  core::Configuration cfg =
      compression_config(dir.path().string(), "xor+lzs");
  core::StorageSpec storage = cfg.storage();
  storage.min_ratio = 1.5;
  cfg.set_storage(storage);
  cfg.validate();

  const CompressionRunResult result =
      run_compression_world(cfg, /*iterations=*/2, noisy_value);

  EXPECT_GE(result.emit.probes, 1u);
  EXPECT_GE(result.emit.adaptive_skips, 1u);
  EXPECT_EQ(result.emit.datasets_compressed, 0u);
  EXPECT_GT(result.emit.datasets_stored_raw, 0u);
  // Raw storage claims no compression win: stored tracks raw (plus image
  // framing), so the achieved ratio sits at ~1.
  EXPECT_LE(result.emit.achieved_ratio(), 1.1);
  PosixBackend disk(dir.path());
  EXPECT_EQ(disk.file_count(), 2u);
}

TEST(CompressionEndToEndTest, WriteBehindBudgetCountsPostCodecBytes) {
  // A 16 KiB budget is far below the ~96 KiB raw image but comfortably
  // above its compressed form.  If the queue accounted pre-codec bytes,
  // the high-water mark would blow past the budget on every iteration;
  // counting post-codec bytes keeps the whole run inside it.
  constexpr std::uint64_t kBudget = 16 * 1024;
  constexpr int kIterations = 3;
  testing::TempDir dir("compress_budget");
  core::Configuration cfg =
      compression_config(dir.path().string(), "xor+lzs");
  core::StorageSpec storage = cfg.storage();
  storage.write_behind_bytes = kBudget;
  cfg.set_storage(storage);
  cfg.validate();

  const CompressionRunResult result =
      run_compression_world(cfg, kIterations, smooth_value);

  EXPECT_EQ(result.wb.jobs_enqueued, static_cast<std::uint64_t>(kIterations));
  EXPECT_EQ(result.wb.jobs_written, result.wb.jobs_enqueued);
  EXPECT_EQ(result.wb.jobs_failed, 0u);
  // The budget ledger saw only post-codec bytes...
  EXPECT_LT(result.wb.bytes_enqueued, result.emit.raw_bytes);
  // ...and never overflowed a budget several times smaller than one raw
  // image.
  EXPECT_LE(result.wb.max_pending_bytes, kBudget);
  PosixBackend disk(dir.path());
  EXPECT_EQ(disk.file_count(), static_cast<std::size_t>(kIterations));
}

TEST(CompressionEndToEndTest, PerVariableCodecOverridesStorageDefault) {
  // Storage default says raw; one variable opts into xor+lzs.  The mixed
  // run must compress exactly that variable's datasets.
  testing::TempDir dir("compress_per_var");
  core::Configuration cfg;
  cfg.set_simulation_name("mixed");
  cfg.set_architecture(/*cores_per_node=*/4, /*dedicated_cores=*/1);
  cfg.set_buffer(8ull << 20, 256, core::BackpressurePolicy::kBlock);
  core::LayoutSpec layout;
  layout.name = "grid";
  layout.dtype = h5lite::DType::kFloat64;
  layout.extents = {64, 64};
  cfg.add_layout(layout);
  core::VariableSpec plain;
  plain.name = "plain";
  plain.layout = "grid";
  cfg.add_variable(plain);
  core::VariableSpec packed;
  packed.name = "packed";
  packed.layout = "grid";
  packed.codec = "xor+lzs";
  cfg.add_variable(packed);
  core::ActionSpec store;
  store.event = "end_iteration";
  store.plugin = "store";
  cfg.add_action(store);
  core::StorageSpec storage;
  storage.basename = "mixed";
  storage.backend = "posix";
  storage.path = dir.path().string();
  cfg.set_storage(storage);
  cfg.validate();

  core::EmitStats emit;
  fsim::FileSystem fs(quiet_storage(), fast_scale());
  minimpi::run_world(4, [&](minimpi::Comm& comm) {
    core::Runtime rt = core::Runtime::initialize(cfg, comm, fs);
    if (rt.is_server()) {
      rt.run_server();
      ASSERT_NE(rt.node().emit, nullptr);
      emit = rt.node().emit->stats();
      return;
    }
    std::vector<double> field(64 * 64);
    for (std::size_t i = 0; i < field.size(); ++i)
      field[i] = smooth_value(comm.rank(), 0, i);
    ASSERT_OK(rt.client().write("plain", std::span<const double>(field)));
    ASSERT_OK(rt.client().write("packed", std::span<const double>(field)));
    ASSERT_OK(rt.client().end_iteration());
    rt.finalize();
  });

  // 3 clients, 1 iteration: 3 datasets per variable.
  EXPECT_EQ(emit.datasets_compressed, 3u);
  EXPECT_EQ(emit.datasets_stored_raw, 3u);

  PosixBackend disk(dir.path());
  ASSERT_EQ(disk.file_count(), 1u);
  const auto bytes = disk.read_file(disk.list_files().front());
  ASSERT_TRUE(bytes.has_value());
  const h5lite::File file = h5lite::File::parse(*bytes);
  const auto* plain_group = file.root().find_group("plain");
  const auto* packed_group = file.root().find_group("packed");
  ASSERT_NE(plain_group, nullptr);
  ASSERT_NE(packed_group, nullptr);
  EXPECT_EQ(std::get<std::string>(plain_group->attributes.at("codec")),
            "none");
  EXPECT_EQ(std::get<std::string>(packed_group->attributes.at("codec")),
            "xor+lzs");
  // Same payload, different footprint — and identical decoded values.
  ASSERT_EQ(plain_group->datasets.size(), 3u);
  ASSERT_EQ(packed_group->datasets.size(), 3u);
  std::uint64_t plain_stored = 0;
  std::uint64_t packed_stored = 0;
  for (std::size_t d = 0; d < 3; ++d) {
    plain_stored += plain_group->datasets[d].stored_size();
    packed_stored += packed_group->datasets[d].stored_size();
    EXPECT_EQ(plain_group->datasets[d].read_as<double>(),
              packed_group->datasets[d].read_as<double>());
  }
  EXPECT_LT(packed_stored, plain_stored);
}

}  // namespace
}  // namespace dedicore
