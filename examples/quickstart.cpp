// Quickstart: the smallest complete Damaris-style run.
//
// One SMP node with 4 cores: 3 run the "simulation" (they just fill a
// field), 1 is dedicated to I/O.  The dedicated core aggregates all three
// clients' blocks into one h5lite file per iteration, asynchronously.
//
// By default the files land in the filesystem *simulator* (modelled
// durations, in-memory content).  Pass a directory to persist them for
// real through the posix storage backend — the h5lite files then appear
// on your actual disk, emitted by the dedicated core's write-behind queue:
//
// Build & run:   ./examples/quickstart [output-dir]
#include <cstdio>
#include <string>
#include <vector>

#include "core/builtin_plugins.hpp"
#include "core/runtime.hpp"
#include "fsim/filesystem.hpp"
#include "minimpi/minimpi.hpp"
#include "storage/posix_backend.hpp"

using namespace dedicore;

int main(int argc, char** argv) {
  const std::string output_dir = argc > 1 ? argv[1] : "";

  // The data model comes from an XML description, as in Damaris/ADIOS.
  // storage backend="posix" path="..." switches every persisted byte from
  // the simulator to real files, with no change to the simulation code.
  const std::string storage_element =
      output_dir.empty()
          ? R"(<storage basename="quickstart"/>)"
          : R"(<storage basename="quickstart" backend="posix" path=")" +
                output_dir + R"(" write_behind="8MiB"/>)";
  const core::Configuration config = core::Configuration::from_string(R"(
    <simulation name="quickstart" cores_per_node="4" dedicated_cores="1">
      <buffer size="16MiB" queue="256" policy="block"/>
      <data>
        <layout name="block" type="float64" dimensions="32,32"/>
        <variable name="temperature" layout="block"/>
      </data>
      )" + storage_element + R"(
      <actions>
        <event name="end_iteration" plugin="store"/>
      </actions>
    </simulation>)");

  // A simulated parallel filesystem (4 OSTs + 1 metadata server); unused
  // for persistence when the posix backend is selected.
  fsim::StorageConfig storage;
  storage.ost_count = 4;
  fsim::TimeScale scale;
  scale.real_per_sim = 1e-3;  // 1 simulated second = 1 ms of wall time
  fsim::FileSystem fs(storage, scale);

  constexpr int kIterations = 3;
  minimpi::run_world(4, [&](minimpi::Comm& world) {
    core::Runtime rt = core::Runtime::initialize(config, world, fs);  // damaris-api

    if (rt.is_server()) {   // damaris-api
      rt.run_server();      // damaris-api — the dedicated core's event loop
      const core::ServerStats stats = rt.server_stats();
      // Durable bytes are the store plugin's to count.
      const auto* store = dynamic_cast<const core::StorePlugin*>(
          rt.server().find_plugin("end_iteration", "store"));
      std::printf("[server] iterations=%llu bytes_written=%llu idle=%.1f%%\n",
                  static_cast<unsigned long long>(stats.iterations_completed),
                  static_cast<unsigned long long>(
                      store != nullptr ? store->totals().stored_bytes : 0),
                  stats.idle_fraction() * 100.0);
      return;
    }

    // --- the "simulation" ---
    std::vector<double> temperature(32 * 32);
    for (int it = 0; it < kIterations; ++it) {
      for (std::size_t i = 0; i < temperature.size(); ++i)
        temperature[i] = 300.0 + it + 0.01 * static_cast<double>(i);

      // One line per variable, one line per time step: that is the whole
      // integration cost of the middleware (§V.C.2 of the paper).
      (void)rt.client().write(
          "temperature", std::span<const double>(temperature));  // damaris-api
      (void)rt.client().end_iteration();  // damaris-api
    }
    rt.finalize();  // damaris-api
  });

  if (output_dir.empty()) {
    std::printf("files written through the dedicated core (simulated fs):\n");
    for (const auto& path : fs.list_files()) {
      std::printf("  %s (%llu bytes)\n", path.c_str(),
                  static_cast<unsigned long long>(fs.file_size(path)));
    }
    std::printf("pass an output directory to write them to real disk\n");
  } else {
    storage::PosixBackend disk(output_dir);
    std::printf("files written through the dedicated core to %s:\n",
                output_dir.c_str());
    for (const auto& path : disk.list_files()) {
      std::printf("  %s (%llu bytes)\n", path.c_str(),
                  static_cast<unsigned long long>(disk.file_size(path)));
    }
  }
  return 0;
}
