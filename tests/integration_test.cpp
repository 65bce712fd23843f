// Cross-module integration tests: the CM1 proxy running through the full
// middleware against the filesystem simulator, baselines vs Damaris on the
// same workload, XML-configured end-to-end runs, and in-situ pipelines on
// the Nek proxy.
#include <gtest/gtest.h>

#include <atomic>

#include "common/clock.hpp"
#include "core/baseline_io.hpp"
#include "core/builtin_plugins.hpp"
#include "core/runtime.hpp"
#include "framework/test_infra.hpp"
#include "h5lite/h5lite.hpp"
#include "sim/cm1_proxy.hpp"
#include "sim/nek_proxy.hpp"
#include "sim/workload.hpp"

namespace dedicore {
namespace {

using core::BackpressurePolicy;
using core::Configuration;
using core::Runtime;

fsim::StorageConfig small_storage() {
  fsim::StorageConfig cfg;
  cfg.ost_count = 4;
  cfg.ost_bandwidth = 400e6;
  cfg.mds_op_cost = 1e-3;
  cfg.jitter_sigma = 0.1;
  cfg.spike_probability = 0.0;
  cfg.interference_on_rate = 0.0;
  return cfg;
}

fsim::TimeScale fast_scale() {
  fsim::TimeScale ts;
  ts.real_per_sim = 1e-3;
  ts.quantum_sim = 0.01;
  return ts;
}

TEST(IntegrationTest, Cm1ThroughDamarisEndToEnd) {
  // 2 nodes x 3 cores (2 clients + 1 dedicated): the CM1 proxy computes
  // real physics, Damaris stores every field, files parse afterwards.
  sim::Cm1WorkloadOptions options;
  options.nx = options.ny = options.nz = 10;
  options.cores_per_node = 3;
  options.dedicated_cores = 1;
  options.buffer_size = 32ull << 20;
  const Configuration cfg = sim::make_cm1_configuration(options);
  fsim::FileSystem fs(small_storage(), fast_scale());

  constexpr int kIterations = 3;
  minimpi::run_world(6, [&](minimpi::Comm& world) {
    Runtime rt = Runtime::initialize(cfg, world, fs);
    if (rt.is_server()) {
      rt.run_server();
      return;
    }
    minimpi::Comm& clients = rt.client_comm();
    sim::Cm1Proxy proxy(
        sim::make_cm1_proxy_config(options, clients.rank(), clients.size()));
    for (int it = 0; it < kIterations; ++it) {
      proxy.step();
      const auto offset = proxy.global_offset();
      for (const auto& [name, bytes] : proxy.field_bytes())
        ASSERT_OK(rt.client().write(name, bytes, offset));
      ASSERT_OK(rt.client().end_iteration());
      // The simulation also runs its own collectives on the client comm.
      const double sum = clients.allreduce_value(proxy.theta_total(),
                                                 std::plus<double>());
      EXPECT_GT(sum, 0.0);
    }
    rt.finalize();
  });

  // 2 nodes x 3 iterations of aggregated files.
  EXPECT_EQ(fs.file_count(), 6u);
  // Every file parses and contains all 5 CM1 fields x 2 clients.
  for (const auto& path : fs.list_files()) {
    const h5lite::File file = h5lite::File::parse(*fs.read_file(path));
    for (const char* var : {"theta", "qv", "u", "v", "w"}) {
      const h5lite::Group* group = file.find_group(var);
      ASSERT_NE(group, nullptr) << path << " missing " << var;
      EXPECT_EQ(group->datasets.size(), 2u);
    }
  }
}

TEST(IntegrationTest, Cm1ThroughDedicatedNodesEndToEnd) {
  // The same CM1 workload, deployed in dedicated-*nodes* mode: 4 client
  // ranks ship their blocks over MPI to 2 dedicated I/O ranks at the end
  // of the world (client c -> server c % 2).  Output must be equivalent to
  // the dedicated-cores run, and the server stats must show the blocks
  // actually traveled over the MPI transport.
  sim::Cm1WorkloadOptions options;
  options.nx = options.ny = options.nz = 10;
  options.dedicated_mode = core::DedicatedMode::kNodes;
  options.dedicated_nodes = 2;
  options.buffer_size = 32ull << 20;
  const Configuration cfg = sim::make_cm1_configuration(options);
  fsim::FileSystem fs(small_storage(), fast_scale());

  constexpr int kIterations = 3;
  constexpr int kClients = 4;
  std::atomic<std::uint64_t> remote_blocks{0};
  std::atomic<std::uint64_t> remote_bytes{0};
  minimpi::run_world(kClients + 2, [&](minimpi::Comm& world) {
    Runtime rt = Runtime::initialize(cfg, world, fs);
    if (rt.is_server()) {
      rt.run_server();
      const transport::TransportStats t = rt.server().transport_stats();
      remote_blocks += t.blocks_received_remote;
      remote_bytes += t.bytes_received_remote;
      return;
    }
    minimpi::Comm& clients = rt.client_comm();
    sim::Cm1Proxy proxy(
        sim::make_cm1_proxy_config(options, clients.rank(), clients.size()));
    for (int it = 0; it < kIterations; ++it) {
      proxy.step();
      for (const auto& [name, bytes] : proxy.field_bytes())
        ASSERT_OK(rt.client().write(name, bytes));
      ASSERT_OK(rt.client().end_iteration());
    }
    rt.finalize();
  });

  // Every block crossed the interconnect: 4 clients x 5 fields x 3 its.
  EXPECT_EQ(remote_blocks.load(), 4u * 5u * 3u);
  const std::uint64_t block_bytes = 10 * 10 * 10 * sizeof(float);
  EXPECT_EQ(remote_bytes.load(), 4u * 5u * 3u * block_bytes);
  // 2 I/O nodes x 3 iterations of aggregated files.
  EXPECT_EQ(fs.file_count(), 6u);
  // Each file parses and contains all 5 CM1 fields x 2 clients per server.
  for (const auto& path : fs.list_files()) {
    const h5lite::File file = h5lite::File::parse(*fs.read_file(path));
    for (const char* var : {"theta", "qv", "u", "v", "w"}) {
      const h5lite::Group* group = file.find_group(var);
      ASSERT_NE(group, nullptr) << path << " missing " << var;
      EXPECT_EQ(group->datasets.size(), 2u);
    }
  }
}

TEST(IntegrationTest, XmlConfiguredRunMatchesProgrammatic) {
  const std::string xml = R"(
    <simulation name="xmlrun" cores_per_node="3" dedicated_cores="1">
      <buffer size="16MiB" queue="128" policy="block"/>
      <data>
        <layout name="g" type="float64" dimensions="6,6,6"/>
        <variable name="rho" layout="g"/>
      </data>
      <storage basename="xmlout"/>
      <actions><event name="end_iteration" plugin="store"/></actions>
    </simulation>)";
  const Configuration cfg = Configuration::from_string(xml);
  fsim::FileSystem fs(small_storage(), fast_scale());

  minimpi::run_world(3, [&](minimpi::Comm& world) {
    Runtime rt = Runtime::initialize(cfg, world, fs);
    if (rt.is_server()) {
      rt.run_server();
      return;
    }
    std::vector<double> rho(6 * 6 * 6, 1.25);
    ASSERT_OK(rt.client().write("rho", std::span<const double>(rho)));
    ASSERT_OK(rt.client().end_iteration());
    rt.finalize();
  });
  EXPECT_TRUE(fs.exists("xmlout/node0_s0_it0.h5l"));
  const h5lite::File file =
      h5lite::File::parse(*fs.read_file("xmlout/node0_s0_it0.h5l"));
  EXPECT_EQ(std::get<std::string>(file.root().attributes.at("simulation")),
            "xmlrun");
}

TEST(IntegrationTest, DamarisHidesIoThatStallsBaselines) {
  // Same workload, same storage; measure what the simulation experiences.
  // The baselines stall for the full storage time; Damaris clients only
  // pay the shared-memory copy.  Under virtual time (see VirtualTimeScope)
  // each thread's Stopwatch measures exactly its own modelled waits, so
  // the comparison is exact on every run: the baseline stall is the
  // modelled storage time (> 0) and the Damaris client stall — a path
  // with no modelled waits — is exactly 0.
  testing::VirtualTimeScope virtual_time;
  sim::Cm1WorkloadOptions options;
  options.nx = options.ny = options.nz = 12;
  options.cores_per_node = 3;
  const Configuration cfg = sim::make_cm1_configuration(options);

  Configuration baseline_cfg = cfg;  // same data model, no dedicated core
  baseline_cfg.set_architecture(3, 0);
  baseline_cfg.validate();

  // -- file-per-process stall
  auto measure_fpp = [&] {
    fsim::FileSystem fs(small_storage(), fast_scale());
    core::FilePerProcessWriter writer(fs, baseline_cfg);
    std::atomic<double> total{0.0};
    minimpi::run_world(3, [&](minimpi::Comm& world) {
      sim::Cm1Proxy proxy(sim::make_cm1_proxy_config(options, world.rank(), 3));
      core::IterationData data;
      for (const auto& [name, bytes] : proxy.field_bytes()) data.emplace(name, bytes);
      const double stall = writer.write_iteration(world.rank(), 0, data);
      double expected = total.load();
      while (!total.compare_exchange_weak(expected, expected + stall)) {
      }
    });
    return total.load() / 3.0;
  };

  // -- Damaris stall (client-visible)
  auto measure_damaris = [&] {
    fsim::FileSystem fs(small_storage(), fast_scale());
    std::atomic<double> total{0.0};
    minimpi::run_world(3, [&](minimpi::Comm& world) {
      Runtime rt = Runtime::initialize(cfg, world, fs);
      if (rt.is_server()) {
        rt.run_server();
        return;
      }
      sim::Cm1Proxy proxy(sim::make_cm1_proxy_config(options, world.rank(), 2));
      Stopwatch stall;
      for (const auto& [name, bytes] : proxy.field_bytes())
        ASSERT_OK(rt.client().write(name, bytes));
      ASSERT_OK(rt.client().end_iteration());
      const double mine = stall.elapsed_seconds();
      double expected = total.load();
      while (!total.compare_exchange_weak(expected, expected + mine)) {
      }
      rt.finalize();
    });
    return total.load() / 2.0;
  };

  const double fpp_stall = measure_fpp();
  const double damaris_stall = measure_damaris();
  // The baseline pays the modelled create + transfer time ...
  EXPECT_GT(fpp_stall, 0.0);
  // ... while the Damaris client never waits on modelled storage at all.
  EXPECT_EQ(damaris_stall, 0.0);
  EXPECT_LT(damaris_stall, fpp_stall * 0.5);
}

TEST(IntegrationTest, NekInSituPipelineOnDedicatedCore) {
  sim::NekWorkloadOptions options;
  options.nx = options.ny = options.nz = 12;
  options.cores_per_node = 3;
  options.render_size = 48;
  options.write_images = true;
  const Configuration cfg = sim::make_nek_configuration(options);
  fsim::FileSystem fs(small_storage(), fast_scale());

  std::atomic<std::uint64_t> triangles{0};
  std::atomic<std::uint64_t> images{0};
  minimpi::run_world(3, [&](minimpi::Comm& world) {
    Runtime rt = Runtime::initialize(cfg, world, fs);
    if (rt.is_server()) {
      rt.run_server();
      auto* plugin = dynamic_cast<core::VisLitePlugin*>(
          rt.server().find_plugin("end_iteration", "vislite"));
      ASSERT_NE(plugin, nullptr);
      triangles = plugin->totals().triangles;
      images = plugin->totals().images_written;
      return;
    }
    sim::NekConfig nek_cfg;
    nek_cfg.nx = nek_cfg.ny = nek_cfg.nz = 12;
    nek_cfg.rank = rt.client_comm().rank();
    nek_cfg.world_size = rt.client_comm().size();
    sim::NekProxy proxy(nek_cfg);
    for (int it = 0; it < 2; ++it) {
      proxy.step();
      ASSERT_OK(rt.client().write("vel_mag", proxy.field_bytes()));
      ASSERT_OK(rt.client().end_iteration());
    }
    rt.finalize();
  });

  EXPECT_GT(triangles.load(), 0u);
  // 2 clients x 2 iterations = 4 rendered images stored as PPM files.
  EXPECT_EQ(images.load(), 4u);
  int ppm_files = 0;
  for (const auto& path : fs.list_files())
    if (path.ends_with(".ppm")) ++ppm_files;
  EXPECT_EQ(ppm_files, 4);
}

TEST(IntegrationTest, StatsPluginSeesPhysics) {
  // The stats plugin's per-variable mean must track the CM1 base state.
  sim::Cm1WorkloadOptions options;
  options.nx = options.ny = options.nz = 10;
  options.cores_per_node = 3;
  Configuration cfg = sim::make_cm1_configuration(options);
  core::ActionSpec stats_action;
  stats_action.event = "end_iteration";
  stats_action.plugin = "stats";
  cfg.add_action(stats_action);
  cfg.validate();

  fsim::FileSystem fs(small_storage(), fast_scale());
  std::atomic<double> theta_mean{0.0};
  minimpi::run_world(3, [&](minimpi::Comm& world) {
    Runtime rt = Runtime::initialize(cfg, world, fs);
    if (rt.is_server()) {
      rt.run_server();
      auto* plugin = dynamic_cast<core::StatsPlugin*>(
          rt.server().find_plugin("end_iteration", "stats"));
      ASSERT_NE(plugin, nullptr);
      theta_mean = plugin->latest().per_variable.at("theta").mean;
      return;
    }
    sim::Cm1Proxy proxy(sim::make_cm1_proxy_config(options, world.rank(), 2));
    proxy.step();
    for (const auto& [name, bytes] : proxy.field_bytes())
      ASSERT_OK(rt.client().write(name, bytes));
    ASSERT_OK(rt.client().end_iteration());
    rt.finalize();
  });
  // Potential temperature hovers near the 300 K base state.
  EXPECT_NEAR(theta_mean.load(), 300.0, 2.0);
}

TEST(IntegrationTest, ManyIterationsStressSegmentReuse) {
  // Long run at tight buffer: every block is allocated and freed dozens of
  // times; the segment must end empty and no file may be lost.
  sim::Cm1WorkloadOptions options;
  options.nx = options.ny = options.nz = 8;
  options.cores_per_node = 3;
  options.buffer_size = 3 * 5 * 8 * 8 * 8 * sizeof(float) + 4096;
  const Configuration cfg = sim::make_cm1_configuration(options);
  fsim::FileSystem fs(small_storage(), fast_scale());

  constexpr int kIterations = 25;
  std::atomic<std::uint64_t> final_used{1};
  minimpi::run_world(3, [&](minimpi::Comm& world) {
    Runtime rt = Runtime::initialize(cfg, world, fs);
    if (rt.is_server()) {
      rt.run_server();
      final_used = rt.node().segment().used();
      return;
    }
    sim::Cm1Proxy proxy(sim::make_cm1_proxy_config(options, world.rank(), 2));
    for (int it = 0; it < kIterations; ++it) {
      // Lockstep like a real bulk-synchronous solver: with a buffer this
      // tight, a free-running client could otherwise fill the segment with
      // its own future iterations and starve its node peer.
      rt.client_comm().barrier();
      for (const auto& [name, bytes] : proxy.field_bytes())
        ASSERT_OK(rt.client().write(name, bytes));
      ASSERT_OK(rt.client().end_iteration());
    }
    rt.finalize();
  });
  EXPECT_EQ(final_used.load(), 0u);
  EXPECT_EQ(fs.file_count(), static_cast<std::size_t>(kIterations));
}

}  // namespace
}  // namespace dedicore
