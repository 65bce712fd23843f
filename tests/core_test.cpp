// Tests for the middleware core: block index, schedulers, plugins, and
// full client/server runs over minimpi at small scale.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "common/clock.hpp"
#include "core/baseline_io.hpp"
#include "core/block_index.hpp"
#include "core/builtin_plugins.hpp"
#include "core/runtime.hpp"
#include "core/scheduler.hpp"
#include "framework/test_infra.hpp"
#include "sim/workload.hpp"

namespace dedicore::core {
namespace {

fsim::StorageConfig test_storage() {
  fsim::StorageConfig cfg;
  cfg.ost_count = 4;
  cfg.ost_bandwidth = 200e6;
  cfg.mds_op_cost = 1e-3;
  cfg.jitter_sigma = 0.0;
  cfg.spike_probability = 0.0;
  cfg.interference_on_rate = 0.0;
  return cfg;
}

fsim::TimeScale test_scale() {
  fsim::TimeScale ts;
  ts.real_per_sim = 1e-3;
  ts.quantum_sim = 0.01;
  return ts;
}

/// Small-node configuration: 3 cores per node, 1 dedicated.
Configuration small_config(BackpressurePolicy policy = BackpressurePolicy::kBlock,
                           std::uint64_t buffer = 8ull << 20) {
  Configuration cfg;
  cfg.set_simulation_name("test");
  cfg.set_architecture(3, 1);
  cfg.set_buffer(buffer, 64, policy);
  LayoutSpec layout;
  layout.name = "grid";
  layout.dtype = h5lite::DType::kFloat64;
  layout.extents = {8, 8, 8};
  cfg.add_layout(layout);
  VariableSpec v;
  v.name = "field";
  v.layout = "grid";
  cfg.add_variable(v);
  StorageSpec storage;
  storage.basename = "out";
  cfg.set_storage(storage);
  ActionSpec store;
  store.event = "end_iteration";
  store.plugin = "store";
  cfg.add_action(store);
  cfg.validate();
  return cfg;
}

std::vector<double> make_field(double seed_value) {
  // CM1-like: a mostly-constant background with an active region.  The
  // constant majority is what makes simulation output compressible.
  std::vector<double> values(8 * 8 * 8, seed_value);
  for (std::size_t i = 0; i < values.size() / 4; ++i)
    values[i] = seed_value + std::sin(0.1 * static_cast<double>(i));
  return values;
}

// ---------------------------------------------------------------------------
// BlockIndex
// ---------------------------------------------------------------------------

TEST(BlockIndexTest, InsertAndQueryByVariableIteration) {
  BlockIndex index;
  for (int src = 2; src >= 0; --src) {
    BlockInfo info;
    info.variable = 1;
    info.source = src;
    info.iteration = 5;
    info.block = {static_cast<std::uint64_t>(src) * 100, 100};
    index.insert(info);
  }
  const auto blocks = index.blocks_of(1, 5);
  ASSERT_EQ(blocks.size(), 3u);
  // Ordered by source despite reversed insertion.
  EXPECT_EQ(blocks[0].source, 0);
  EXPECT_EQ(blocks[2].source, 2);
  EXPECT_TRUE(index.blocks_of(2, 5).empty());
  EXPECT_TRUE(index.blocks_of(1, 6).empty());
  EXPECT_EQ(index.total_bytes(), 300u);
}

TEST(BlockIndexTest, FindSpecificBlock) {
  BlockIndex index;
  BlockInfo info;
  info.variable = 3;
  info.source = 1;
  info.iteration = 2;
  info.block_id = 7;
  index.insert(info);
  EXPECT_TRUE(index.find(3, 2, 1, 7).has_value());
  EXPECT_FALSE(index.find(3, 2, 1, 8).has_value());
}

TEST(BlockIndexTest, ExtractRemovesOnlyThatIteration) {
  BlockIndex index;
  for (Iteration it : {1, 1, 2, 3}) {
    BlockInfo info;
    info.iteration = it;
    index.insert(info);
  }
  const auto extracted = index.extract_iteration(1);
  EXPECT_EQ(extracted.size(), 2u);
  EXPECT_EQ(index.size(), 2u);
  EXPECT_EQ(index.blocks_of_iteration(1).size(), 0u);
  EXPECT_EQ(index.blocks_of_iteration(2).size(), 1u);
}

// ---------------------------------------------------------------------------
// Schedulers
// ---------------------------------------------------------------------------

TEST(SchedulerTest, GreedyNeverBlocks) {
  GreedyScheduler greedy;
  greedy.acquire(0);
  greedy.acquire(1);  // no release needed first
  greedy.release(0);
  greedy.release(1);
  EXPECT_DOUBLE_EQ(greedy.total_wait_seconds(), 0.0);
}

TEST(SchedulerTest, ThrottledLimitsConcurrency) {
  ThrottledScheduler sched(2);
  std::atomic<int> active{0};
  std::atomic<int> peak{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      ScheduleGuard guard(sched, t);
      const int now = ++active;
      int prev = peak.load();
      while (now > prev && !peak.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      --active;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_LE(peak.load(), 2);
  EXPECT_GT(sched.total_wait_seconds(), 0.0);
}

TEST(SchedulerTest, FactoryDispatches) {
  EXPECT_EQ(make_scheduler("greedy", 0)->name(), "greedy");
  EXPECT_EQ(make_scheduler("throttled", 2)->name(), "throttled");
  EXPECT_THROW(make_scheduler("fifo", 1), ConfigError);
}

// ---------------------------------------------------------------------------
// Plugin registry
// ---------------------------------------------------------------------------

TEST(PluginRegistryTest, BuiltinsAreRegistered) {
  register_builtin_plugins();
  for (const char* name : {"store", "stats", "script", "vislite"})
    EXPECT_TRUE(plugin_registered(name)) << name;
  EXPECT_FALSE(plugin_registered("nope"));
  EXPECT_THROW(make_plugin("nope", {}), ConfigError);
}

TEST(PluginRegistryTest, CustomPluginsCanRegister) {
  struct Probe final : Plugin {
    [[nodiscard]] std::string_view name() const noexcept override { return "probe"; }
    void run(PluginContext&) override {}
  };
  static bool registered = false;
  if (!registered) {
    register_plugin("test-probe", [](const auto&) { return std::make_unique<Probe>(); });
    registered = true;
  }
  EXPECT_TRUE(plugin_registered("test-probe"));
  EXPECT_EQ(make_plugin("test-probe", {})->name(), "probe");
  EXPECT_THROW(
      register_plugin("test-probe", [](const auto&) { return nullptr; }),
      ConfigError);
}

TEST(PluginTest, ScriptPluginRequiresExpr) {
  EXPECT_THROW(make_plugin("script", {}), ConfigError);
  EXPECT_NO_THROW(make_plugin("script", {{"expr", "1+1"}}));
}

TEST(PluginTest, VislitePluginRequiresVariable) {
  EXPECT_THROW(make_plugin("vislite", {}), ConfigError);
}

// ---------------------------------------------------------------------------
// Full runtime: clients + dedicated-core server over minimpi
// ---------------------------------------------------------------------------

struct RunOutcome {
  std::uint64_t files = 0;
  std::uint64_t server_bytes_written = 0;
  std::uint64_t server_iterations = 0;
  std::uint64_t client_skips = 0;
  double idle_fraction = 0.0;
  Summary client_write_time;
  std::vector<std::string> file_list;
};

/// Runs `iterations` of a tiny simulation through the middleware and
/// returns the combined outcome.  `world` = nodes * cores_per_node ranks.
/// `lockstep` inserts a client-comm barrier per iteration, like a real
/// bulk-synchronous simulation; required when the buffer is sized below
/// two full iterations, otherwise a free-running client can fill the
/// segment with its own future iterations and starve its node peers.
RunOutcome run_middleware(const Configuration& cfg, int nodes, int iterations,
                          fsim::FileSystem& fs,
                          double post_compute_sleep = 0.0,
                          bool lockstep = false) {
  const int world = nodes * cfg.cores_per_node();
  std::mutex mutex;
  RunOutcome outcome;
  SampleSet client_writes;

  minimpi::run_world(world, [&](minimpi::Comm& comm) {
    Runtime rt = Runtime::initialize(cfg, comm, fs);
    if (rt.is_server()) {
      rt.run_server();
      std::lock_guard<std::mutex> lock(mutex);
      const ServerStats stats = rt.server_stats();
      const auto* store = dynamic_cast<const StorePlugin*>(
          rt.server().find_plugin("end_iteration", "store"));
      ASSERT_NE(store, nullptr);
      outcome.server_bytes_written += store->totals().stored_bytes;
      outcome.server_iterations += stats.iterations_completed;
      outcome.client_skips += stats.client_skips;
      outcome.idle_fraction = stats.idle_fraction();
      return;
    }
    Client& client = rt.client();
    const auto field = make_field(static_cast<double>(comm.rank()));
    for (int it = 0; it < iterations; ++it) {
      if (post_compute_sleep > 0.0) sleep_seconds(post_compute_sleep);
      if (lockstep) rt.client_comm().barrier();
      (void)client.write("field", std::span<const double>(field));
      ASSERT_OK(client.end_iteration());
    }
    rt.finalize();
    std::lock_guard<std::mutex> lock(mutex);
    const ClientStats stats = client.stats();
    if (stats.write_time.count > 0) client_writes.add(stats.write_time.median);
  });

  outcome.files = fs.file_count();
  outcome.file_list = fs.list_files();
  outcome.client_write_time = client_writes.summary();
  return outcome;
}

TEST(RuntimeTest, SingleNodeEndToEnd) {
  fsim::FileSystem fs(test_storage(), test_scale());
  const Configuration cfg = small_config();
  const RunOutcome outcome = run_middleware(cfg, /*nodes=*/1, /*iterations=*/3, fs);
  // One aggregated file per node per iteration.
  EXPECT_EQ(outcome.files, 3u);
  EXPECT_EQ(outcome.server_iterations, 3u);
  EXPECT_GT(outcome.server_bytes_written, 0u);
  EXPECT_EQ(outcome.client_skips, 0u);
}

TEST(RuntimeTest, MultiNodeProducesPerNodeFiles) {
  fsim::FileSystem fs(test_storage(), test_scale());
  const Configuration cfg = small_config();
  const RunOutcome outcome = run_middleware(cfg, /*nodes=*/2, /*iterations=*/2, fs);
  EXPECT_EQ(outcome.files, 4u);  // 2 nodes x 2 iterations
  for (const auto& path : outcome.file_list)
    EXPECT_EQ(path.find("out/node"), 0u) << path;
}

TEST(RuntimeTest, StoredFilesParseAndContainAllClients) {
  fsim::FileSystem fs(test_storage(), test_scale());
  const Configuration cfg = small_config();
  run_middleware(cfg, /*nodes=*/1, /*iterations=*/1, fs);
  const auto content = fs.read_file("out/node0_s0_it0.h5l");
  ASSERT_TRUE(content.has_value());
  const h5lite::File file = h5lite::File::parse(*content);
  const h5lite::Group* group = file.find_group("field");
  ASSERT_NE(group, nullptr);
  // 2 clients on the node -> 2 blocks.
  EXPECT_EQ(group->datasets.size(), 2u);
  // Data round-trips: client rank 0's field has seed value 0 at element 0.
  const h5lite::Dataset* r0 = group->find_dataset("r0_b0");
  ASSERT_NE(r0, nullptr);
  const auto values = r0->read_as<double>();
  EXPECT_NEAR(values[0], make_field(0.0)[0], 1e-12);
}

TEST(RuntimeTest, WritesAreFastComparedToStorage) {
  // The client-visible write cost is a memcpy into shared memory; it must
  // be far below the modelled storage write time of the same data.
  fsim::StorageConfig storage = test_storage();
  storage.ost_bandwidth = 20e6;  // slow storage: 4KB/20MBps... per block
  fsim::FileSystem fs(storage, test_scale());
  const Configuration cfg = small_config();
  const RunOutcome outcome = run_middleware(cfg, 1, 3, fs, /*sleep=*/0.02);
  // Block writes (shm copies of 4 KiB) take microseconds.
  EXPECT_LT(outcome.client_write_time.max, 0.01);
}

TEST(RuntimeTest, DedicatedCoreIsMostlyIdleWhenComputeDominates) {
  fsim::FileSystem fs(test_storage(), test_scale());
  const Configuration cfg = small_config();
  // 50 ms compute per iteration dwarfs the ~1 ms of I/O handling.
  const RunOutcome outcome = run_middleware(cfg, 1, 3, fs, /*sleep=*/0.05);
  EXPECT_GT(outcome.idle_fraction, 0.5);
}

TEST(RuntimeTest, TwoDedicatedCoresPartitionClients) {
  fsim::FileSystem fs(test_storage(), test_scale());
  Configuration cfg = small_config();
  cfg.set_architecture(4, 2);  // 2 clients, 2 servers
  cfg.validate();
  const RunOutcome outcome = run_middleware(cfg, 1, 2, fs);
  // Each server aggregates its own client's blocks into its own file.
  EXPECT_EQ(outcome.files, 4u);  // 2 servers x 2 iterations
  EXPECT_EQ(outcome.server_iterations, 4u);  // summed across both servers
}

TEST(RuntimeTest, SkipPolicyDropsIterationsUnderPressure) {
  fsim::StorageConfig storage = test_storage();
  storage.ost_bandwidth = 1e6;  // glacial storage
  storage.mds_op_cost = 50e-3;
  fsim::FileSystem fs(storage, test_scale());
  // Buffer fits ~2 blocks only: clients outrun the server immediately.
  Configuration cfg = small_config(BackpressurePolicy::kSkipIteration,
                                   2 * 8 * 8 * 8 * sizeof(double) + 1024);
  const RunOutcome outcome = run_middleware(cfg, 1, 8, fs);
  EXPECT_GT(outcome.client_skips, 0u);
  // Skipped iterations produce no files, so fewer than 8 appear.
  EXPECT_LT(outcome.files, 8u);
  EXPECT_GE(outcome.files, 1u);
}

TEST(RuntimeTest, AdaptivePolicyShedsOnlyLowPriorityBlocks) {
  // Two variables: "precious" (priority 1) and "bulk" (priority 0).  The
  // adaptive policy (the paper's future-work data selection) must deliver
  // every precious block and shed only bulk ones.  A SegmentPressure
  // fixture pins 1.5 blocks of the 3-block buffer, so every iteration has
  // room for exactly the precious block: bulk is shed deterministically
  // on every run — no reliance on racing a slow server.
  Configuration cfg;
  cfg.set_simulation_name("adaptive");
  cfg.set_architecture(2, 1);
  const std::uint64_t block_bytes = 8 * 8 * 8 * sizeof(double);
  cfg.set_buffer(3 * block_bytes, 64, BackpressurePolicy::kAdaptive);
  LayoutSpec layout;
  layout.name = "grid";
  layout.extents = {8, 8, 8};
  cfg.add_layout(layout);
  VariableSpec precious;
  precious.name = "precious";
  precious.layout = "grid";
  precious.priority = 1;
  cfg.add_variable(precious);
  VariableSpec bulk;
  bulk.name = "bulk";
  bulk.layout = "grid";
  cfg.add_variable(bulk);
  ActionSpec store;
  store.event = "end_iteration";
  store.plugin = "store";
  cfg.add_action(store);
  StorageSpec sspec;
  sspec.basename = "adaptive";
  cfg.set_storage(sspec);
  cfg.validate();

  constexpr int kIterations = 10;
  fsim::FileSystem fs(test_storage(), test_scale());
  std::uint64_t precious_failures = 0;
  std::uint64_t dropped = 0;
  minimpi::run_world(2, [&](minimpi::Comm& comm) {
    Runtime rt = Runtime::initialize(cfg, comm, fs);
    if (rt.is_server()) {
      rt.run_server();
      return;
    }
    // Pin 1.5 blocks: free space admits one precious block per iteration
    // (it is only released after the iteration completes server-side) and
    // never the bulk block on top of it.
    testing::SegmentPressure pressure(rt.node().segment(),
                                      block_bytes + block_bytes / 2);
    Client& client = rt.client();
    const auto field = make_field(1.0);
    for (int it = 0; it < kIterations; ++it) {
      if (!client.write("precious", std::span<const double>(field)).is_ok())
        ++precious_failures;
      (void)client.write("bulk", std::span<const double>(field));
      ASSERT_OK(client.end_iteration());
    }
    rt.finalize();
    dropped = client.stats().dropped_blocks;
  });

  EXPECT_EQ(precious_failures, 0u);           // priority > 0 never dropped
  EXPECT_EQ(dropped, static_cast<std::uint64_t>(kIterations));  // every bulk shed

  // Every stored file contains exactly the precious variable.
  std::uint64_t precious_blocks = 0, bulk_blocks = 0;
  for (const auto& path : fs.list_files()) {
    const h5lite::File file = h5lite::File::parse(*fs.read_file(path));
    if (const auto* g = file.find_group("precious"))
      precious_blocks += g->datasets.size();
    if (const auto* g = file.find_group("bulk")) bulk_blocks += g->datasets.size();
  }
  EXPECT_EQ(precious_blocks, static_cast<std::uint64_t>(kIterations));
  EXPECT_EQ(bulk_blocks, 0u);
}

TEST(ClientTest, AdaptiveCommitShedsLowPriorityBlockOnFullChannel) {
  // The zero-copy path must honour the adaptive policy exactly like
  // write(): a priority-0 block refused by a full event channel is shed
  // and counted, and the iteration is not skipped.
  Configuration cfg = small_config();
  cfg.set_buffer(8ull << 20, /*queue_capacity=*/1, BackpressurePolicy::kAdaptive);
  cfg.validate();
  auto node = std::make_shared<NodeRuntime>(cfg, 0, nullptr,
                                            std::make_shared<GreedyScheduler>());
  Client client(node, 0,
                std::make_unique<transport::ShmClientTransport>(node->fabric, 0));
  const auto field = make_field(1.0);
  // No consumer: this write fills the one-slot channel.
  ASSERT_OK(client.write("field", std::span<const double>(field)));
  const AllocatedBlock block = client.alloc("field");
  ASSERT_TRUE(block.valid());
  EXPECT_FALSE(client.commit(block).is_ok());
  EXPECT_EQ(client.stats().dropped_blocks, 1u);
  EXPECT_FALSE(client.iteration_skipped());
  // The client's destructor posts its stop; a closed queue refuses it
  // instead of blocking on the full channel.
  node->fabric->queues[0]->close();
}

TEST(ConfigTest, AdaptivePolicyParsesFromXml) {
  const Configuration cfg = Configuration::from_string(R"(
    <simulation cores_per_node="2" dedicated_cores="1">
      <buffer size="1MiB" policy="adaptive"/>
      <data>
        <layout name="l" dimensions="8"/>
        <variable name="hot" layout="l" priority="2"/>
        <variable name="cold" layout="l"/>
      </data>
    </simulation>)");
  EXPECT_EQ(cfg.policy(), BackpressurePolicy::kAdaptive);
  EXPECT_EQ(cfg.variable("hot").priority, 2);
  EXPECT_EQ(cfg.variable("cold").priority, 0);
  EXPECT_EQ(to_string(BackpressurePolicy::kAdaptive), "adaptive");
}

TEST(RuntimeTest, BlockPolicyNeverDropsData) {
  fsim::StorageConfig storage = test_storage();
  storage.ost_bandwidth = 5e6;
  fsim::FileSystem fs(storage, test_scale());
  Configuration cfg = small_config(BackpressurePolicy::kBlock,
                                   2 * 8 * 8 * 8 * sizeof(double) + 1024);
  const RunOutcome outcome =
      run_middleware(cfg, 1, 5, fs, /*post_compute_sleep=*/0.0,
                     /*lockstep=*/true);
  EXPECT_EQ(outcome.client_skips, 0u);
  EXPECT_EQ(outcome.files, 5u);  // everything eventually written
}

TEST(RuntimeTest, InvalidWorldSizeRejected) {
  fsim::FileSystem fs(test_storage(), test_scale());
  const Configuration cfg = small_config();  // 3 cores per node
  minimpi::run_world(4, [&](minimpi::Comm& comm) {
    EXPECT_THROW(Runtime::initialize(cfg, comm, fs), ConfigError);
  });
}

TEST(RuntimeTest, WriteValidatesSizeAndName) {
  fsim::FileSystem fs(test_storage(), test_scale());
  const Configuration cfg = small_config();
  minimpi::run_world(3, [&](minimpi::Comm& comm) {
    Runtime rt = Runtime::initialize(cfg, comm, fs);
    if (rt.is_server()) {
      rt.run_server();
      return;
    }
    Client& client = rt.client();
    const std::vector<double> wrong_size(10, 1.0);
    EXPECT_EQ(client.write("field", std::span<const double>(wrong_size)).code(),
              StatusCode::kInvalidArgument);
    EXPECT_THROW(
        (void)client.write("ghost", std::span<const double>(wrong_size)),
        ConfigError);
    rt.finalize();
  });
}

TEST(RuntimeTest, ZeroCopyAllocCommitRoundTrips) {
  fsim::FileSystem fs(test_storage(), test_scale());
  const Configuration cfg = small_config();
  minimpi::run_world(3, [&](minimpi::Comm& comm) {
    Runtime rt = Runtime::initialize(cfg, comm, fs);
    if (rt.is_server()) {
      rt.run_server();
      return;
    }
    Client& client = rt.client();
    AllocatedBlock block = client.alloc("field");
    ASSERT_TRUE(block.valid());
    // Compute directly into the shared segment.
    auto* out = reinterpret_cast<double*>(block.view.data());
    for (std::size_t i = 0; i < 8 * 8 * 8; ++i)
      out[i] = static_cast<double>(i);
    EXPECT_OK(client.commit(block));
    EXPECT_OK(client.end_iteration());
    rt.finalize();
  });
  const auto content = fs.read_file("out/node0_s0_it0.h5l");
  ASSERT_TRUE(content.has_value());
  const h5lite::File file = h5lite::File::parse(*content);
  bool found = false;
  for (const auto& path : file.dataset_paths()) {
    const auto values = file.find_dataset(path)->read_as<double>();
    if (values[5] == 5.0) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(RuntimeTest, SignalFiresBoundPlugin) {
  fsim::FileSystem fs(test_storage(), test_scale());
  Configuration cfg = small_config();
  ActionSpec script;
  script.event = "checkpoint";
  script.plugin = "script";
  script.params["expr"] = "mean(field)";
  cfg.add_action(script);
  cfg.validate();

  std::atomic<double> script_value{-1.0};
  minimpi::run_world(3, [&](minimpi::Comm& comm) {
    Runtime rt = Runtime::initialize(cfg, comm, fs);
    if (rt.is_server()) {
      rt.run_server();
      auto* plugin = dynamic_cast<ScriptPlugin*>(
          rt.server().find_plugin("checkpoint", "script"));
      ASSERT_NE(plugin, nullptr);
      script_value = plugin->last_value();
      return;
    }
    Client& client = rt.client();
    const auto field = make_field(1.0);
    (void)client.write("field", std::span<const double>(field));
    // Fire the user event; the blocks of the current iteration are live.
    EXPECT_OK(client.signal("checkpoint"));
    EXPECT_EQ(client.signal("unbound").code(), StatusCode::kNotFound);
    EXPECT_OK(client.end_iteration());
    rt.finalize();
  });
  // mean of make_field(1.0) over both clients' blocks: sin-mean ~ 1.0x.
  EXPECT_GT(script_value.load(), 0.5);
  EXPECT_LT(script_value.load(), 1.5);
}

TEST(RuntimeTest, CompressionPluginShrinksFiles) {
  fsim::FileSystem plain_fs(test_storage(), test_scale());
  fsim::FileSystem packed_fs(test_storage(), test_scale());
  const Configuration plain = small_config();
  Configuration packed = small_config();
  StorageSpec storage = packed.storage();
  storage.codec = "xor+lzs";
  packed.set_storage(storage);
  packed.validate();

  run_middleware(plain, 1, 1, plain_fs);
  run_middleware(packed, 1, 1, packed_fs);
  const auto plain_size = plain_fs.file_size("out/node0_s0_it0.h5l");
  const auto packed_size = packed_fs.file_size("out/node0_s0_it0.h5l");
  ASSERT_GT(plain_size, 0u);
  ASSERT_GT(packed_size, 0u);
  EXPECT_LT(packed_size, plain_size / 2);  // smooth data compresses well

  // And the compressed file still parses and round-trips.
  const h5lite::File file = h5lite::File::parse(*packed_fs.read_file("out/node0_s0_it0.h5l"));
  const h5lite::Group* group = file.find_group("field");
  ASSERT_NE(group, nullptr);
  const auto values = group->find_dataset("r0_b0")->read_as<double>();
  EXPECT_NEAR(values[3], make_field(0.0)[3], 1e-12);
}

}  // namespace
}  // namespace dedicore::core
