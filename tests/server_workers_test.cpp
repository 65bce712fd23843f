// The dedicated-I/O-rank worker pool, end to end through Runtime.
//
// The model layer simulates *full-width* I/O nodes (every core of a
// dedicated node serves); since this PR the runtime matches it: a
// dedicated I/O rank runs `server_workers` threads (default =
// cores_per_node) draining one MpiServerTransport concurrently, with each
// client pinned to one worker.  These tests drive the whole stack —
// Configuration -> Runtime -> Client/Server -> plugins -> fsim — and the
// wiring-time validation that guards the partition.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/runtime.hpp"
#include "framework/test_infra.hpp"
#include "minimpi/minimpi.hpp"

namespace dedicore {
namespace {

core::Configuration nodes_config(int io_nodes, int server_workers,
                                 std::uint64_t buffer = 8ull << 20) {
  core::Configuration cfg;
  cfg.set_simulation_name("pool");
  cfg.set_architecture(/*cores_per_node=*/4, /*dedicated_cores=*/1);
  cfg.set_dedicated_mode(core::DedicatedMode::kNodes, io_nodes);
  cfg.set_server_workers(server_workers);
  cfg.set_buffer(buffer, 256, core::BackpressurePolicy::kBlock);
  core::LayoutSpec layout;
  layout.name = "grid";
  layout.extents = {16, 16};
  cfg.add_layout(layout);
  core::VariableSpec v;
  v.name = "field";
  v.layout = "grid";
  cfg.add_variable(v);
  core::ActionSpec store;
  store.event = "end_iteration";
  store.plugin = "store";
  cfg.add_action(store);
  cfg.validate();
  return cfg;
}

fsim::FileSystem make_fs() {
  fsim::StorageConfig storage;
  storage.ost_count = 4;
  storage.ost_bandwidth = 400e6;
  storage.jitter_sigma = 0.0;
  storage.spike_probability = 0.0;
  storage.interference_on_rate = 0.0;
  return fsim::FileSystem(storage, fsim::TimeScale{1e-4, 0.01});
}

TEST(ServerWorkersTest, EffectiveWorkerDefaultsFollowTheModel) {
  core::Configuration cfg;
  cfg.set_architecture(12, 1);
  // Dedicated cores: one worker per dedicated core.
  EXPECT_EQ(cfg.effective_server_workers(), 1);
  // Dedicated nodes, auto: the full node width the model layer assumes.
  cfg.set_dedicated_mode(core::DedicatedMode::kNodes, 2);
  EXPECT_EQ(cfg.effective_server_workers(), 12);
  // An explicit setting wins in either mode.
  cfg.set_server_workers(5);
  EXPECT_EQ(cfg.effective_server_workers(), 5);
  cfg.set_dedicated_mode(core::DedicatedMode::kCores);
  EXPECT_EQ(cfg.effective_server_workers(), 5);
}

TEST(ServerWorkersTest, DedicatedNodesPoolCompletesEveryIteration) {
  // 6 clients -> 1 I/O rank running 4 workers; all iterations must
  // complete, all blocks must travel over MPI, and the per-server stats
  // must aggregate the whole pool's work.
  constexpr int kClients = 6;
  constexpr int kIterations = 5;
  core::Configuration cfg = nodes_config(/*io_nodes=*/1, /*server_workers=*/4);
  fsim::FileSystem fs = make_fs();

  core::ServerStats server_stats;
  transport::TransportStats transport_stats;
  std::vector<double> field(16 * 16, 0.25);
  minimpi::run_world(kClients + 1, [&](minimpi::Comm& comm) {
    core::Runtime rt = core::Runtime::initialize(cfg, comm, fs);
    if (rt.is_server()) {
      rt.run_server();
      server_stats = rt.server_stats();
      transport_stats = rt.server().transport_stats();
      return;
    }
    for (int it = 0; it < kIterations; ++it) {
      ASSERT_OK(rt.client().write("field", std::span<const double>(field)));
      ASSERT_OK(rt.client().end_iteration());
    }
    rt.finalize();
  });

  EXPECT_EQ(server_stats.workers, 4);
  EXPECT_EQ(server_stats.iterations_completed,
            static_cast<std::uint64_t>(kIterations));
  EXPECT_EQ(server_stats.blocks_received,
            static_cast<std::uint64_t>(kClients) * kIterations);
  EXPECT_EQ(transport_stats.blocks_received_remote,
            static_cast<std::uint64_t>(kClients) * kIterations);
  // Every event was consumed by some worker: blocks + per-client closes +
  // per-client stops.
  EXPECT_EQ(server_stats.events_processed,
            static_cast<std::uint64_t>(kClients) * (kIterations + 1) +
                static_cast<std::uint64_t>(kClients) * kIterations);
  EXPECT_EQ(fs.file_count(), static_cast<std::uint64_t>(kIterations));
}

TEST(ServerWorkersTest, ParkedWorkersDrainTheWriteBehindBacklog) {
  // With a pool the idle hook, not the iteration-completing worker, owns
  // the write-behind drain: images queued before the run must be written
  // by workers parked in next_event.  The clients' compute gap is what
  // parks them; without it a worker can find the stream busy every time.
  // (Draining only from the completing worker made the many_vars_nodes
  // benchmark workload about 30 % slower.)
  constexpr int kClients = 2;
  constexpr int kIterations = 5;
  constexpr int kBacklog = 8;
  testing::TempDir dir("server_workers_idle_drain");
  core::Configuration cfg = nodes_config(/*io_nodes=*/1, /*server_workers=*/2);
  core::StorageSpec storage = cfg.storage();
  storage.backend = "posix";
  storage.path = dir.path().string();
  cfg.set_storage(storage);
  cfg.validate();
  fsim::FileSystem fs = make_fs();

  transport::TransportStats transport_stats;
  storage::WriteBehindStats write_behind;
  std::vector<double> field(16 * 16, 0.5);
  minimpi::run_world(kClients + 1, [&](minimpi::Comm& comm) {
    core::Runtime rt = core::Runtime::initialize(cfg, comm, fs);
    if (rt.is_server()) {
      const std::vector<std::byte> image(64 * 1024, std::byte{0x5a});
      for (int i = 0; i < kBacklog; ++i)
        rt.node().write_behind->enqueue(
            {"backlog/" + std::to_string(i) + ".bin", 0, image});
      rt.run_server();
      transport_stats = rt.server().transport_stats();
      write_behind = rt.node().write_behind->stats();
      return;
    }
    for (int it = 0; it < kIterations; ++it) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      ASSERT_OK(rt.client().write("field", std::span<const double>(field)));
      ASSERT_OK(rt.client().end_iteration());
    }
    rt.finalize();
  });

  EXPECT_GT(transport_stats.idle_drains, 0u);
  EXPECT_EQ(write_behind.jobs_written,
            static_cast<std::uint64_t>(kBacklog + kIterations));
}

TEST(ServerWorkersTest, AutoWidthMatchesCoresPerNode) {
  // server_workers=0 (auto) on an I/O rank deploys cores_per_node workers.
  constexpr int kClients = 3;
  core::Configuration cfg = nodes_config(/*io_nodes=*/1, /*server_workers=*/0);
  fsim::FileSystem fs = make_fs();

  core::ServerStats server_stats;
  std::vector<double> field(16 * 16, 1.0);
  minimpi::run_world(kClients + 1, [&](minimpi::Comm& comm) {
    core::Runtime rt = core::Runtime::initialize(cfg, comm, fs);
    if (rt.is_server()) {
      rt.run_server();
      server_stats = rt.server_stats();
      return;
    }
    ASSERT_OK(rt.client().write("field", std::span<const double>(field)));
    ASSERT_OK(rt.client().end_iteration());
    rt.finalize();
  });
  EXPECT_EQ(server_stats.workers, cfg.cores_per_node());
  EXPECT_EQ(server_stats.iterations_completed, 1u);
}

TEST(ServerWorkersTest, CoresModePoolDrainsTheSharedQueue) {
  // An explicit server_workers in cores mode pools the dedicated core's
  // event loop over the shm backend — same contract, zero-copy path.
  constexpr int kIterations = 4;
  core::Configuration cfg;
  cfg.set_simulation_name("pool-cores");
  cfg.set_architecture(/*cores_per_node=*/4, /*dedicated_cores=*/1);
  cfg.set_server_workers(2);
  cfg.set_buffer(4ull << 20, 128, core::BackpressurePolicy::kBlock);
  core::LayoutSpec layout;
  layout.name = "grid";
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
  cfg.validate();
  fsim::FileSystem fs = make_fs();

  core::ServerStats server_stats;
  transport::TransportStats transport_stats;
  std::vector<double> field(8 * 8, 3.5);
  minimpi::run_world(4, [&](minimpi::Comm& comm) {
    core::Runtime rt = core::Runtime::initialize(cfg, comm, fs);
    if (rt.is_server()) {
      rt.run_server();
      server_stats = rt.server_stats();
      transport_stats = rt.server().transport_stats();
      return;
    }
    for (int it = 0; it < kIterations; ++it) {
      ASSERT_OK(rt.client().write("field", std::span<const double>(field)));
      ASSERT_OK(rt.client().end_iteration());
    }
    rt.finalize();
  });
  EXPECT_EQ(server_stats.workers, 2);
  EXPECT_EQ(server_stats.iterations_completed,
            static_cast<std::uint64_t>(kIterations));
  EXPECT_EQ(server_stats.blocks_received, 3u * kIterations);
  EXPECT_EQ(transport_stats.blocks_received_remote, 0u);  // zero-copy path
}

// ---------------------------------------------------------------------------
// Wiring-time validation (satellite: Configuration::validate can only see
// dedicated_nodes > 0; the world partition is checked in runtime.cpp).
// ---------------------------------------------------------------------------

TEST(ServerWorkersTest, DedicatedNodesConsumingWholeWorldIsRejected) {
  fsim::FileSystem fs = make_fs();
  for (int io_nodes : {2, 3}) {  // == world size and > world size
    core::Configuration cfg = nodes_config(io_nodes, 1);
    std::atomic<int> rejected{0};
    minimpi::run_world(2, [&](minimpi::Comm& comm) {
      try {
        core::Runtime rt = core::Runtime::initialize(cfg, comm, fs);
        FAIL() << "partition with no compute ranks was accepted";
      } catch (const ConfigError& e) {
        EXPECT_NE(std::string(e.what()).find("no compute ranks"),
                  std::string::npos)
            << e.what();
        ++rejected;
      }
    });
    // Every rank throws the same error — no survivor is left blocked in a
    // collective against ranks that bailed out.
    EXPECT_EQ(rejected.load(), 2);
  }
}

TEST(ServerWorkersTest, ZeroByteCreditShareIsRejected) {
  // A buffer smaller than the client count would hand out zero credit;
  // the wiring must surface the configuration error, not abort deep in
  // the transport.
  core::Configuration cfg = nodes_config(/*io_nodes=*/1, /*server_workers=*/1,
                                         /*buffer=*/2);
  fsim::FileSystem fs = make_fs();
  std::atomic<int> rejected{0};
  minimpi::run_world(4, [&](minimpi::Comm& comm) {
    try {
      core::Runtime rt = core::Runtime::initialize(cfg, comm, fs);
      if (rt.is_server()) rt.run_server();  // unreachable: all ranks throw
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("credit share"), std::string::npos)
          << e.what();
      ++rejected;
    }
  });
  EXPECT_EQ(rejected.load(), 4);
}

}  // namespace
}  // namespace dedicore
