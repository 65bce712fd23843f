// Dedicated I/O *nodes*: the same one-line-per-variable API, deployed over
// the MPI transport instead of shared memory.
//
// A world of 8 ranks: 6 run the simulation, the last 2 act as dedicated
// I/O nodes (dedicated_mode="nodes").  Client rank c ships its blocks over
// minimpi point-to-point to I/O rank 6 + (c % 2); each I/O rank re-homes
// the payloads in its own segment, aggregates them into one h5lite file
// per iteration, and returns flow credit as it releases blocks — the
// credit budget is the distributed analogue of the bounded shared segment.
//
// Each I/O rank models a whole I/O *node*: it drains its intake with a
// pool of server workers (server_workers="3" here; default is the full
// cores_per_node width).  Client ownership is a transferable token: an
// idle worker steals the most-backlogged client from the busiest peer
// (steal="on", the default; steal_threshold sets the minimum backlog
// worth migrating), so per-client ordering survives the concurrency but
// one hot client cannot serialize the pool.  Workers with nothing to
// consume or steal drain the storage write-behind queue instead of
// sleeping — the steals/idle-drain counters below show both mechanisms.
//
// Build & run:   ./examples/dedicated_nodes
#include <cstdio>
#include <vector>

#include "core/builtin_plugins.hpp"
#include "core/runtime.hpp"
#include "fsim/filesystem.hpp"
#include "minimpi/minimpi.hpp"

using namespace dedicore;

int main() {
  // Identical data model to quickstart; only the deployment line differs.
  const core::Configuration config = core::Configuration::from_string(R"(
    <simulation name="dedicated_nodes" dedicated_mode="nodes" dedicated_nodes="2"
                server_workers="3" steal="on" steal_threshold="2">
      <buffer size="16MiB" queue="256" policy="block"/>
      <data>
        <layout name="block" type="float64" dimensions="32,32"/>
        <variable name="temperature" layout="block"/>
      </data>
      <storage basename="ion"/>
      <actions>
        <event name="end_iteration" plugin="store"/>
      </actions>
    </simulation>)");

  fsim::StorageConfig storage;
  storage.ost_count = 4;
  fsim::TimeScale scale;
  scale.real_per_sim = 1e-3;
  fsim::FileSystem fs(storage, scale);

  constexpr int kWorld = 8;
  constexpr int kIterations = 3;
  minimpi::run_world(kWorld, [&](minimpi::Comm& world) {
    core::Runtime rt = core::Runtime::initialize(config, world, fs);

    if (rt.is_server()) {
      rt.run_server();  // the dedicated I/O node's event loop
      // Each counter is read from its owner: the event loop, the MPI
      // transport, and the store plugin.
      const core::ServerStats stats = rt.server_stats();
      const transport::TransportStats wire = rt.server().transport_stats();
      const auto* store = dynamic_cast<const core::StorePlugin*>(
          rt.server().find_plugin("end_iteration", "store"));
      std::printf(
          "[io-node %d] iterations=%llu blocks_over_mpi=%llu "
          "bytes_over_mpi=%llu files=%llu idle=%.1f%% steals=%llu "
          "idle_drains=%llu\n",
          rt.node_id(),
          static_cast<unsigned long long>(stats.iterations_completed),
          static_cast<unsigned long long>(wire.blocks_received_remote),
          static_cast<unsigned long long>(wire.bytes_received_remote),
          static_cast<unsigned long long>(
              store != nullptr ? store->totals().files : 0),
          stats.idle_fraction() * 100.0,
          static_cast<unsigned long long>(wire.steals),
          static_cast<unsigned long long>(wire.idle_drains));
      return;
    }

    // --- the "simulation": every core of the compute ranks computes ---
    std::vector<double> temperature(32 * 32);
    for (int it = 0; it < kIterations; ++it) {
      for (std::size_t i = 0; i < temperature.size(); ++i)
        temperature[i] = 300.0 + it + 0.01 * static_cast<double>(i);
      (void)rt.client().write("temperature",
                              std::span<const double>(temperature));
      (void)rt.client().end_iteration();
    }
    rt.finalize();
  });

  std::printf("files written by the dedicated I/O nodes:\n");
  for (const auto& path : fs.list_files()) {
    std::printf("  %s (%llu bytes)\n", path.c_str(),
                static_cast<unsigned long long>(fs.file_size(path)));
  }
  return 0;
}
