// Fault-tolerance suite: deterministic fault injection, client-death
// reclamation, and crash-consistent storage with retry/backoff.
//
//   * FaultInjector: seeded determinism (same seed + same probe order =>
//     same firing pattern), after/count/target gating, registry
//     validation.
//   * Configuration: the <faults> plan, on_client_failure, and the
//     storage retry budget parse and validate.
//   * WriteBehind: transient (kIoError) failures retried with bounded
//     backoff; poison jobs quarantined after the budget instead of
//     wedging the drain.
//   * PosixBackend: temp+fsync+rename publication — a crash mid-close
//     (SIGKILL-equivalent) leaves a torn *temp*, never a torn final; the
//     startup recovery scan quarantines leftovers; leaked handles are
//     reclaimed and counted.
//   * End to end through Runtime: a seeded "client dies mid-iteration"
//     plan on both deployment modes (drop_iteration vs keep_partial), and
//     a server crash during an image close whose restart shows zero torn
//     images.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/fault.hpp"
#include "core/runtime.hpp"
#include "framework/test_infra.hpp"
#include "h5lite/h5lite.hpp"
#include "minimpi/minimpi.hpp"
#include "storage/posix_backend.hpp"
#include "storage/write_behind.hpp"

namespace dedicore {
namespace {

using fault::FaultInjector;
using fault::FaultSpec;
using storage::FileHandle;
using storage::PosixBackend;
using storage::WriteBehind;

std::vector<std::byte> pattern_bytes(std::size_t n, int salt = 0) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = static_cast<std::byte>((i * 7 + salt * 131) & 0xff);
  return out;
}

// ---------------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, FiresAfterSkipCountWithTargetGating) {
  FaultInjector injector(1);
  FaultSpec spec;
  spec.point = "posix.pwrite";
  spec.target = 5;
  spec.after = 2;
  spec.count = 2;
  injector.arm(spec);

  // Wrong target: never a match, never a hit.
  for (int i = 0; i < 4; ++i)
    EXPECT_FALSE(injector.should_fire("posix.pwrite", 4));
  EXPECT_EQ(injector.hits("posix.pwrite"), 0u);

  // Matching target: the first `after` probes pass, the next `count`
  // fire, then the spec is spent.
  EXPECT_FALSE(injector.should_fire("posix.pwrite", 5));
  EXPECT_FALSE(injector.should_fire("posix.pwrite", 5));
  EXPECT_TRUE(injector.should_fire("posix.pwrite", 5));
  EXPECT_TRUE(injector.should_fire("posix.pwrite", 5));
  EXPECT_FALSE(injector.should_fire("posix.pwrite", 5));
  EXPECT_EQ(injector.hits("posix.pwrite"), 5u);
  EXPECT_EQ(injector.fired("posix.pwrite"), 2u);
}

TEST(FaultInjectorTest, MagnitudeReachesTheFiringSite) {
  FaultInjector injector(1);
  FaultSpec spec;
  spec.point = "write_behind.enqueue_stall";
  spec.magnitude = 250;
  injector.arm(spec);
  const auto fired = injector.fire("write_behind.enqueue_stall");
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(fired->magnitude, 250u);
}

TEST(FaultInjectorTest, SameSeedReplaysProbabilisticPattern) {
  const auto pattern = [](std::uint64_t seed) {
    FaultInjector injector(seed);
    FaultSpec spec;
    spec.point = "posix.fsync";
    spec.probability = 0.5;
    spec.count = 1u << 20;  // never spent
    injector.arm(spec);
    std::vector<bool> fired;
    fired.reserve(256);
    for (int i = 0; i < 256; ++i)
      fired.push_back(injector.should_fire("posix.fsync"));
    return fired;
  };
  const auto a = pattern(42), b = pattern(42), c = pattern(43);
  EXPECT_EQ(a, b) << "same seed must replay bit-for-bit";
  EXPECT_NE(a, c) << "a different seed should explore a different schedule";
  // The Bernoulli gate is a gate, not a constant.
  EXPECT_GT(std::count(a.begin(), a.end(), true), 0);
  EXPECT_GT(std::count(a.begin(), a.end(), false), 0);
}

TEST(FaultInjectorTest, ArmValidatesPointAndParameters) {
  FaultInjector injector(1);
  FaultSpec typo;
  typo.point = "posix.pwright";
  EXPECT_THROW(injector.arm(typo), ConfigError);
  FaultSpec bad_probability;
  bad_probability.point = "posix.pwrite";
  bad_probability.probability = 1.5;
  EXPECT_THROW(injector.arm(bad_probability), ConfigError);
  FaultSpec zero_count;
  zero_count.point = "posix.pwrite";
  zero_count.count = 0;
  EXPECT_THROW(injector.arm(zero_count), ConfigError);
  EXPECT_FALSE(injector.armed());
}

// ---------------------------------------------------------------------------
// Configuration: the <faults> plan
// ---------------------------------------------------------------------------

TEST(FaultConfigTest, ParsesFaultPlanPolicyAndRetryBudget) {
  const std::string xml = R"(
    <simulation name="faulty" cores_per_node="4" dedicated_cores="1"
                on_client_failure="keep_partial">
      <buffer size="4MiB" queue="64" policy="block"/>
      <data>
        <layout name="grid" type="float64" dimensions="8,8"/>
        <variable name="field" layout="grid"/>
      </data>
      <storage basename="faulty" backend="posix" path="/tmp/x" retries="5"/>
      <faults seed="1234">
        <fault point="client.die" target="2" after="7"/>
        <fault point="posix.fsync" count="3" probability="0.25" magnitude="9"/>
      </faults>
    </simulation>)";
  const core::Configuration cfg = core::Configuration::from_string(xml);
  EXPECT_EQ(cfg.on_client_failure(), core::ClientFailurePolicy::kKeepPartial);
  EXPECT_EQ(cfg.storage().retries, 5);
  ASSERT_EQ(cfg.faults().faults.size(), 2u);
  EXPECT_EQ(cfg.faults().seed, 1234u);
  EXPECT_EQ(cfg.faults().faults[0].point, "client.die");
  EXPECT_EQ(cfg.faults().faults[0].target, 2);
  EXPECT_EQ(cfg.faults().faults[0].after, 7u);
  EXPECT_EQ(cfg.faults().faults[1].count, 3u);
  EXPECT_EQ(cfg.faults().faults[1].probability, 0.25);
  EXPECT_EQ(cfg.faults().faults[1].magnitude, 9u);
}

TEST(FaultConfigTest, RejectsTyposLoudly) {
  const auto config_with = [](const std::string& inject) {
    return "<simulation name=\"s\" cores_per_node=\"2\" dedicated_cores=\"1\" " +
           inject.substr(0, inject.find('|')) + R"(>
      <buffer size="1MiB" queue="64"/>
      <data><layout name="g" type="float64" dimensions="4"/>
            <variable name="v" layout="g"/></data>)" +
           inject.substr(inject.find('|') + 1) + "</simulation>";
  };
  EXPECT_THROW(core::Configuration::from_string(config_with(
                   "on_client_failure=\"explode\"|")),
               ConfigError);
  EXPECT_THROW(core::Configuration::from_string(config_with(
                   "|<faults><fault point=\"client.dye\"/></faults>")),
               ConfigError);
  EXPECT_THROW(core::Configuration::from_string(config_with(
                   "|<faults><fault point=\"client.die\" "
                   "probability=\"2.0\"/></faults>")),
               ConfigError);
  EXPECT_THROW(core::Configuration::from_string(config_with(
                   "|<storage retries=\"0\"/>")),
               ConfigError);
}

/// Sets an environment variable for one scope and restores whatever the
/// process had before (the CI fault matrix sets DEDICORE_FAULT_SEED for
/// this whole suite).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (old_.has_value())
      ::setenv(name_, old_->c_str(), 1);
    else
      ::unsetenv(name_);
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> old_;
};

TEST(FaultSeedTest, OverrideMustBeAWholeDecimalU64) {
  for (const char* bad : {"12x", "abc", "-1", "+1", " 12", "0x10",
                          "18446744073709551616"}) {
    ScopedEnv env("DEDICORE_FAULT_SEED", bad);
    EXPECT_THROW((void)fault::effective_seed(42), ConfigError) << bad;
  }
  {
    ScopedEnv env("DEDICORE_FAULT_SEED", "");
    EXPECT_EQ(fault::effective_seed(42), 42u);
  }
  ScopedEnv env("DEDICORE_FAULT_SEED", "18446744073709551615");
  EXPECT_EQ(fault::effective_seed(42), UINT64_MAX);
}

/// 1 client + 1 dedicated core with an armed plan that never fires.
core::Configuration seeded_plan_config() {
  return core::Configuration::from_string(R"(
    <simulation name="seeded" cores_per_node="2" dedicated_cores="1">
      <buffer size="1MiB" queue="64"/>
      <data><layout name="g" type="float64" dimensions="4"/>
            <variable name="v" layout="g"/></data>
      <faults seed="42">
        <fault point="client.die" target="7" after="1000"/>
      </faults>
    </simulation>)");
}

TEST(FaultSeedTest, MalformedOverrideFailsEveryRankBeforeWiring) {
  // If only the rank building the node's shared state threw, its peer
  // would wait forever in the handoff; every rank must refuse, and the
  // world must return.
  ScopedEnv env("DEDICORE_FAULT_SEED", "12x");
  const core::Configuration cfg = seeded_plan_config();
  fsim::FileSystem fs(fsim::StorageConfig{}, fsim::TimeScale{1e-4, 0.01});
  std::atomic<int> refused{0};
  minimpi::run_world(2, [&](minimpi::Comm& comm) {
    try {
      core::Runtime rt = core::Runtime::initialize(cfg, comm, fs);
      if (rt.is_server())
        rt.run_server();
      else
        rt.finalize();
    } catch (const ConfigError&) {
      refused.fetch_add(1);
    }
  });
  EXPECT_EQ(refused.load(), 2);
}

TEST(FaultSeedTest, EmptyOverrideRunsThePlansOwnSeed) {
  ScopedEnv env("DEDICORE_FAULT_SEED", "");
  const core::Configuration cfg = seeded_plan_config();
  fsim::FileSystem fs(fsim::StorageConfig{}, fsim::TimeScale{1e-4, 0.01});
  std::atomic<int> planned{0};
  minimpi::run_world(2, [&](minimpi::Comm& comm) {
    core::Runtime rt = core::Runtime::initialize(cfg, comm, fs);
    if (rt.node().faults != nullptr && rt.node().faults->seed() == 42)
      planned.fetch_add(1);
    if (rt.is_server())
      rt.run_server();
    else
      rt.finalize();
  });
  EXPECT_EQ(planned.load(), 2);
}

// ---------------------------------------------------------------------------
// WriteBehind: retry with bounded backoff, poison quarantine
// ---------------------------------------------------------------------------

TEST(WriteBehindFaultTest, TransientFailuresAreRetriedThenSucceed) {
  testing::TempDir dir("wb_retry");
  auto faults = std::make_shared<FaultInjector>(7);
  FaultSpec flaky;
  flaky.point = "write_behind.write";
  flaky.count = 2;  // first two attempts fail, the third lands
  faults->arm(flaky);

  PosixBackend backend(dir.path());
  WriteBehind queue(backend, 1 << 20, /*retries=*/3, faults);
  Status verdict = Status::internal("never ran");
  queue.enqueue({"retry.bin", 0, pattern_bytes(512),
                 [&](const Status& st) { verdict = st; }});
  queue.drain_all();

  EXPECT_OK(verdict);
  const auto stats = queue.stats();
  EXPECT_EQ(stats.jobs_written, 1u);
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.jobs_failed, 0u);
  EXPECT_EQ(stats.jobs_quarantined, 0u);
  EXPECT_EQ(backend.read_file("retry.bin"), pattern_bytes(512));
}

TEST(WriteBehindFaultTest, PoisonJobIsQuarantinedAndDrainNeverWedges) {
  testing::TempDir dir("wb_poison");
  auto faults = std::make_shared<FaultInjector>(7);
  FaultSpec poison;
  poison.point = "write_behind.write";
  poison.count = 3;  // exactly the retry budget: job 1 dies, job 2 is clean
  faults->arm(poison);

  PosixBackend backend(dir.path());
  WriteBehind queue(backend, 1 << 20, /*retries=*/3, faults);
  Status verdict = Status::ok();
  queue.enqueue({"poison.bin", 0, pattern_bytes(256),
                 [&](const Status& st) { verdict = st; }});
  queue.enqueue({"healthy.bin", 0, pattern_bytes(256)});
  queue.drain_all();  // a wedged poison job would hang right here

  EXPECT_EQ(verdict.code(), StatusCode::kIoError);
  const auto stats = queue.stats();
  EXPECT_EQ(stats.jobs_quarantined, 1u);
  EXPECT_EQ(stats.jobs_failed, 1u);
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.jobs_written, 1u);
  EXPECT_FALSE(backend.exists("poison.bin"));
  EXPECT_TRUE(backend.exists("healthy.bin"));
  EXPECT_EQ(queue.pending_jobs(), 0u);
}

TEST(WriteBehindFaultTest, PosixFsyncFaultIsTransparentlyRetried) {
  // The injected failure lives in the *backend* this time: close()'s
  // fsync fails once, write_image reports kIoError, and the queue's
  // retry re-creates the image from the job's bytes.  The first
  // attempt's torn temp must stay invisible and be quarantined by the
  // next startup.
  testing::TempDir dir("wb_fsync_retry");
  auto faults = std::make_shared<FaultInjector>(11);
  FaultSpec fsync_once;
  fsync_once.point = "posix.fsync";
  fsync_once.count = 1;
  faults->arm(fsync_once);

  {
    PosixBackend backend(dir.path(), faults);
    WriteBehind queue(backend, 1 << 20, /*retries=*/3, faults);
    queue.enqueue({"image.h5l", 0, pattern_bytes(1024)});
    queue.drain_all();
    EXPECT_EQ(queue.stats().retries, 1u);
    EXPECT_EQ(queue.stats().jobs_written, 1u);
    EXPECT_EQ(backend.read_file("image.h5l"), pattern_bytes(1024));
    ASSERT_EQ(backend.list_files(), std::vector<std::string>{"image.h5l"});
  }
  PosixBackend restarted(dir.path());
  EXPECT_EQ(restarted.stats().files_quarantined, 1u);
  EXPECT_EQ(restarted.read_file("image.h5l"), pattern_bytes(1024));
}

// ---------------------------------------------------------------------------
// PosixBackend: crash consistency
// ---------------------------------------------------------------------------

TEST(PosixCrashConsistencyTest, CrashOnCloseLeavesNoTornFinal) {
  testing::TempDir dir("posix_crash");
  auto faults = std::make_shared<FaultInjector>(3);
  FaultSpec crash;
  crash.point = "posix.crash_on_close";
  crash.count = 1;
  faults->arm(crash);

  std::uint64_t quarantined = 0;
  {
    PosixBackend backend(dir.path(), faults);
    FileHandle f;
    ASSERT_OK(backend.create("run/torn.bin", &f));
    ASSERT_OK(backend.write(f, pattern_bytes(4096)));
    // The simulated SIGKILL: close "succeeds" from the dead process's
    // point of view, but nothing was published.
    ASSERT_OK(backend.close(f));
    EXPECT_FALSE(backend.exists("run/torn.bin"));
    EXPECT_TRUE(backend.list_files().empty());
    EXPECT_EQ(backend.open_handles(), 0u);
  }
  // "Reboot": the recovery scan sweeps the torn temp aside.
  PosixBackend restarted(dir.path());
  quarantined = restarted.stats().files_quarantined;
  EXPECT_EQ(quarantined, 1u);
  EXPECT_FALSE(restarted.exists("run/torn.bin"));
  EXPECT_TRUE(restarted.list_files().empty());
  std::error_code ec;
  std::size_t quarantine_entries = 0;
  for (auto it = std::filesystem::directory_iterator(
           restarted.quarantine_dir(), ec);
       !ec && it != std::filesystem::directory_iterator(); ++it)
    ++quarantine_entries;
  EXPECT_EQ(quarantine_entries, 1u);

  // A third startup must not re-quarantine already-quarantined evidence.
  PosixBackend third(dir.path());
  EXPECT_EQ(third.stats().files_quarantined, 0u);
}

TEST(PosixCrashConsistencyTest, CrashWhileRewritingPreservesThePreviousImage) {
  // create() over an existing file is a truncation — but the truncation
  // must be atomic with the publication.  Dying mid-rewrite leaves the
  // OLD image intact, not an empty or half-written final.
  testing::TempDir dir("posix_rewrite");
  auto faults = std::make_shared<FaultInjector>(3);
  PosixBackend backend(dir.path(), faults);

  FileHandle f;
  ASSERT_OK(backend.create("state.bin", &f));
  ASSERT_OK(backend.write(f, pattern_bytes(512, 1)));
  ASSERT_OK(backend.close(f));
  ASSERT_EQ(backend.read_file("state.bin"), pattern_bytes(512, 1));

  FaultSpec crash;
  crash.point = "posix.crash_on_close";
  crash.count = 1;
  faults->arm(crash);
  FileHandle g;
  ASSERT_OK(backend.create("state.bin", &g));
  ASSERT_OK(backend.write(g, pattern_bytes(512, 2)));
  ASSERT_OK(backend.close(g));  // dies before publishing v2

  EXPECT_EQ(backend.read_file("state.bin"), pattern_bytes(512, 1))
      << "a crashed rewrite corrupted the previously durable image";
  EXPECT_EQ(backend.file_size("state.bin"), 512u);
}

TEST(PosixCrashConsistencyTest, InjectedPwriteFailureIsAStatusError) {
  testing::TempDir dir("posix_pwrite");
  auto faults = std::make_shared<FaultInjector>(3);
  FaultSpec eio;
  eio.point = "posix.pwrite";
  eio.count = 1;
  faults->arm(eio);
  PosixBackend backend(dir.path(), faults);

  FileHandle f;
  ASSERT_OK(backend.create("a.bin", &f));
  EXPECT_STATUS(backend.write(f, pattern_bytes(64)), StatusCode::kIoError);
  // The failure was transient: the same handle works on the next call.
  ASSERT_OK(backend.write(f, pattern_bytes(64)));
  ASSERT_OK(backend.close(f));
  EXPECT_EQ(backend.file_size("a.bin"), 64u);
  EXPECT_EQ(backend.stats().writes, 1u);  // the failed call counted nothing
}

TEST(PosixCrashConsistencyTest, LeakedHandlesAreReclaimedAndCounted) {
  testing::TempDir dir("posix_leak");
  PosixBackend backend(dir.path());
  FileHandle a, b;
  ASSERT_OK(backend.create("leak/a.bin", &a));
  ASSERT_OK(backend.create("leak/b.bin", &b));
  ASSERT_OK(backend.write(a, pattern_bytes(128)));
  ASSERT_EQ(backend.open_handles(), 2u);

  EXPECT_EQ(backend.reclaim_leaked_handles(), 2u);
  EXPECT_EQ(backend.open_handles(), 0u);
  EXPECT_EQ(backend.stats().handles_reclaimed, 2u);
  // Unpublished means invisible: the leaked creates never became files.
  EXPECT_FALSE(backend.exists("leak/a.bin"));
  EXPECT_FALSE(backend.exists("leak/b.bin"));
  // Their torn temps surface — quarantined — on the next startup.
  PosixBackend restarted(dir.path());
  EXPECT_EQ(restarted.stats().files_quarantined, 2u);
}

// ---------------------------------------------------------------------------
// End to end: seeded client death through Runtime (dedicated-cores mode)
// ---------------------------------------------------------------------------

/// 4 clients + 1 dedicated core running a 4-worker stealing pool, posix
/// storage, two stored variables per iteration.  The fault plan kills
/// client 2 on its 5th transport event = publishing its SECOND block of
/// iteration 1, so at death the index holds exactly one unclosed block of
/// the corpse.
std::string cores_death_xml(const std::string& path,
                            const std::string& policy) {
  return R"(
    <simulation name="reclaim" cores_per_node="5" dedicated_cores="1"
                server_workers="4" steal="on" on_client_failure=")" +
         policy + R"(">
      <buffer size="8MiB" queue="256" policy="block"/>
      <data>
        <layout name="grid" type="float64" dimensions="8,8"/>
        <variable name="field" layout="grid"/>
        <variable name="field2" layout="grid"/>
      </data>
      <storage basename="reclaim" backend="posix" path=")" +
         path + R"("/>
      <actions>
        <event name="end_iteration" plugin="store"/>
      </actions>
      <faults seed="42">
        <fault point="client.die" target="2" after="4"/>
      </faults>
    </simulation>)";
}

struct DeathRunResult {
  core::ServerStats server;
  transport::TransportStats transport;
  std::size_t files = 0;
  std::size_t iteration1_datasets = 0;
};

DeathRunResult run_cores_death_world(const std::string& policy) {
  constexpr int kIterations = 4;
  testing::TempDir dir("fault_e2e_" + policy);
  const core::Configuration cfg =
      core::Configuration::from_string(cores_death_xml(dir.path().string(),
                                                       policy));
  fsim::FileSystem fs(fsim::StorageConfig{}, fsim::TimeScale{1e-4, 0.01});

  DeathRunResult result;
  minimpi::run_world(5, [&](minimpi::Comm& comm) {
    core::Runtime rt = core::Runtime::initialize(cfg, comm, fs);
    if (rt.is_server()) {
      rt.run_server();
      result.server = rt.server_stats();
      result.transport = rt.server().transport_stats();
      return;
    }
    std::vector<double> field(8 * 8, 1.0 + comm.rank());
    for (int it = 0; it < kIterations; ++it) {
      // Client 2 dies inside its second write of iteration 1; from then
      // on every call degrades to a refused no-op — exactly what a
      // zombie thread would see.  Survivors must stay green.
      const Status w1 = rt.client().write("field", std::span<const double>(field));
      const Status w2 = rt.client().write("field2", std::span<const double>(field));
      const Status end = rt.client().end_iteration();
      if (comm.rank() != 2) {
        ASSERT_OK(w1);
        ASSERT_OK(w2);
        ASSERT_OK(end);
      }
    }
    rt.finalize();
  });

  PosixBackend disk(dir.path());
  const auto files = disk.list_files();
  result.files = files.size();
  for (const std::string& path : files) {
    if (path.find("it1") == std::string::npos) continue;
    const auto bytes = disk.read_file(path);
    if (!bytes.has_value()) continue;
    result.iteration1_datasets =
        h5lite::File::parse(*bytes).dataset_paths().size();
  }
  return result;
}

TEST(FaultEndToEndTest, ClientDeathReclaimIsDeterministicAcrossPolicies) {
  constexpr int kIterations = 4;
  const DeathRunResult drop = run_cores_death_world("drop_iteration");
  const DeathRunResult keep = run_cores_death_world("keep_partial");

  for (const DeathRunResult* r : {&drop, &keep}) {
    // The run terminated normally: the survivors closed every iteration
    // (the dead client is exempted from the close quorum), every image
    // drained to disk, nothing deadlocked.
    EXPECT_EQ(r->transport.clients_aborted, 1u);
    EXPECT_EQ(r->server.iterations_completed,
              static_cast<std::uint64_t>(kIterations));
    EXPECT_EQ(r->files, static_cast<std::size_t>(kIterations));
  }

  // The policies diverge on exactly one block: the corpse's unclosed
  // iteration-1 contribution.  drop_iteration releases it (6 datasets =
  // 3 survivors x 2 variables); keep_partial persists it alongside the
  // survivors' blocks.
  EXPECT_EQ(drop.iteration1_datasets, 6u);
  EXPECT_EQ(keep.iteration1_datasets, 7u);

  // Reclaim accounting.  The fatal write's own block never reaches the
  // reclaim path — the dying client abandons it cleanly when publish
  // refuses, so the liveness ledger is already empty at abort time.
  // What remains is the corpse's *indexed* iteration-1 block: dropped
  // (>=1: the abort may also catch earlier-iteration blocks whose close
  // quorum is still in flight) under drop_iteration, kept under
  // keep_partial.
  EXPECT_GE(drop.server.blocks_reclaimed, 1u);
  EXPECT_EQ(keep.server.blocks_reclaimed, 0u);
  EXPECT_GT(drop.server.bytes_reclaimed, keep.server.bytes_reclaimed);
}

// ---------------------------------------------------------------------------
// End to end: client death in dedicated-nodes mode (MPI transport)
// ---------------------------------------------------------------------------

TEST(FaultEndToEndTest, MpiClientDeathLosesStagedFrameAndRunCompletes) {
  // SIGKILL semantics on the wire: whatever the dying client had staged
  // but not flushed is LOST — iteration 1's first write never reaches
  // the server, so even before any drop policy its image carries only
  // the survivors' blocks.  The abort frame still arrives (behind every
  // real frame), the server exempts the corpse from every close quorum,
  // and the run terminates.  keep_partial here so the pre-death
  // iteration-0 image deterministically keeps all four clients even when
  // the abort beats a slow survivor's close.
  constexpr int kIterations = 3;
  testing::TempDir dir("fault_e2e_mpi");
  const std::string xml = R"(
    <simulation name="mpideath" cores_per_node="4" dedicated_cores="1"
                dedicated_mode="nodes" dedicated_nodes="1"
                on_client_failure="keep_partial">
      <buffer size="8MiB" queue="256" policy="block"/>
      <data>
        <layout name="grid" type="float64" dimensions="8,8"/>
        <variable name="field" layout="grid"/>
        <variable name="field2" layout="grid"/>
      </data>
      <storage basename="mpideath" backend="posix" path=")" +
                          dir.path().string() + R"("/>
      <actions>
        <event name="end_iteration" plugin="store"/>
      </actions>
      <faults seed="99">
        <fault point="client.die" target="2" after="4"/>
      </faults>
    </simulation>)";
  const core::Configuration cfg = core::Configuration::from_string(xml);
  fsim::FileSystem fs(fsim::StorageConfig{}, fsim::TimeScale{1e-4, 0.01});

  core::ServerStats server_stats;
  transport::TransportStats transport_stats;
  minimpi::run_world(5, [&](minimpi::Comm& comm) {
    core::Runtime rt = core::Runtime::initialize(cfg, comm, fs);
    if (rt.is_server()) {
      rt.run_server();
      server_stats = rt.server_stats();
      transport_stats = rt.server().transport_stats();
      return;
    }
    std::vector<double> field(8 * 8, 1.0 + comm.rank());
    for (int it = 0; it < kIterations; ++it) {
      const Status w1 = rt.client().write("field", std::span<const double>(field));
      const Status w2 = rt.client().write("field2", std::span<const double>(field));
      const Status end = rt.client().end_iteration();
      if (comm.rank() != 2) {
        ASSERT_OK(w1);
        ASSERT_OK(w2);
        ASSERT_OK(end);
      }
    }
    rt.finalize();
  });

  EXPECT_EQ(transport_stats.clients_aborted, 1u);
  EXPECT_EQ(server_stats.iterations_completed,
            static_cast<std::uint64_t>(kIterations));

  PosixBackend disk(dir.path());
  const auto files = disk.list_files();
  ASSERT_EQ(files.size(), static_cast<std::size_t>(kIterations));
  for (const std::string& path : files) {
    const auto bytes = disk.read_file(path);
    ASSERT_TRUE(bytes.has_value()) << path;
    const std::size_t datasets =
        h5lite::File::parse(*bytes).dataset_paths().size();
    if (path.find("it0") != std::string::npos)
      EXPECT_EQ(datasets, 8u) << path;  // all 4 clients, pre-death
    else
      EXPECT_EQ(datasets, 6u) << path;  // survivors only; staged frame lost
  }
}

// ---------------------------------------------------------------------------
// End to end: kill the server mid-image-close; restart shows zero torn
// images
// ---------------------------------------------------------------------------

TEST(FaultEndToEndTest, ServerCrashDuringImageCloseSurvivesRecoveryIntact) {
  constexpr int kIterations = 4;
  testing::TempDir dir("fault_e2e_crash");
  const std::string xml = R"(
    <simulation name="crashy" cores_per_node="4" dedicated_cores="1">
      <buffer size="8MiB" queue="256" policy="block"/>
      <data>
        <layout name="grid" type="float64" dimensions="8,8"/>
        <variable name="field" layout="grid"/>
      </data>
      <storage basename="crashy" backend="posix" path=")" +
                          dir.path().string() + R"("/>
      <actions>
        <event name="end_iteration" plugin="store"/>
      </actions>
      <faults seed="5">
        <fault point="posix.crash_on_close" after="1" count="1"/>
      </faults>
    </simulation>)";
  const core::Configuration cfg = core::Configuration::from_string(xml);
  fsim::FileSystem fs(fsim::StorageConfig{}, fsim::TimeScale{1e-4, 0.01});

  minimpi::run_world(4, [&](minimpi::Comm& comm) {
    core::Runtime rt = core::Runtime::initialize(cfg, comm, fs);
    if (rt.is_server()) {
      rt.run_server();
      return;
    }
    std::vector<double> field(8 * 8, 0.5 * comm.rank());
    for (int it = 0; it < kIterations; ++it) {
      ASSERT_OK(rt.client().write("field", std::span<const double>(field)));
      ASSERT_OK(rt.client().end_iteration());
    }
    rt.finalize();
  });

  // "Reboot" the storage node: the recovery scan must leave a root where
  // every visible file is a complete, parseable image — the crashed
  // iteration's file simply does not exist, torn bytes live only in
  // quarantine.
  PosixBackend restarted(dir.path());
  EXPECT_EQ(restarted.stats().files_quarantined, 1u);
  const auto files = restarted.list_files();
  EXPECT_EQ(files.size(), static_cast<std::size_t>(kIterations) - 1);
  for (const std::string& path : files) {
    EXPECT_EQ(path.find(".part-"), std::string::npos) << path;
    const auto bytes = restarted.read_file(path);
    ASSERT_TRUE(bytes.has_value()) << path;
    const h5lite::File image = h5lite::File::parse(*bytes);  // throws if torn
    EXPECT_EQ(image.dataset_paths().size(), 3u) << path;
  }
}

}  // namespace
}  // namespace dedicore
