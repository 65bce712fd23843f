// E4 — "Saving time" (§IV.D): dedicated-core idleness, compression on the
// spare time, and the I/O-scheduling ablation.
//
// Paper anchors:
//   * dedicated cores are idle 92–99 % of the time on Kraken;
//   * compression reached a 600 % ratio with no overhead on the simulation;
//   * a better I/O scheduling schema raised throughput to 12.7 GB/s.
#include <cstdio>
#include <iostream>
#include <mutex>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "common/table.hpp"
#include "compress/codec.hpp"
#include "core/builtin_plugins.hpp"
#include "core/runtime.hpp"
#include "fsim/filesystem.hpp"
#include "minimpi/minimpi.hpp"
#include "model/replay.hpp"
#include "sim/cm1_proxy.hpp"
#include "sim/workload.hpp"

using namespace dedicore;
using namespace dedicore::model;

namespace {

// --- part 1: idle fraction across scales (model) ---------------------------

void report_idle() {
  const fsim::StorageConfig storage = kraken_storage_config();
  WorkloadSpec workload;
  workload.iterations = 4;
  workload.compute_seconds = 350.0;
  workload.bytes_per_core = 43ull << 20;

  Table table({"cores", "dedicated idle", "hidden write p50 (s)",
               "paper range"});
  for (int cores : {576, 2304, 9216}) {
    ClusterSpec cluster;
    cluster.total_cores = cores;
    cluster.cores_per_node = 12;
    const ReplayResult r = replay(Strategy::kDamaris, cluster, workload,
                                  storage, kraken_congestion_alpha(), 13);
    table.add_row({fmt_count(static_cast<std::uint64_t>(cores)),
                   fmt_percent(r.dedicated_idle_fraction),
                   fmt_double(r.hidden_io_seconds.summary().median, 1),
                   "92-99%"});
  }
  table.print(std::cout, "E4a: dedicated-core idle time");
}

// --- part 2: compression ratio + zero overhead (real threads) --------------

struct CompressionOutcome {
  double ratio = 0.0;
  double stall_raw = 0.0;
  double stall_packed = 0.0;
};

CompressionOutcome measure_compression() {
  CompressionOutcome outcome;
  for (const std::string codec : {"none", "xor+lzs"}) {
    sim::Cm1WorkloadOptions options;
    options.nx = options.ny = options.nz = 20;
    options.cores_per_node = 4;
    options.codec = codec;
    const core::Configuration cfg = sim::make_cm1_configuration(options);
    fsim::StorageConfig storage;
    storage.ost_count = 8;
    fsim::TimeScale ts;
    ts.real_per_sim = 1e-3;
    fsim::FileSystem fs(storage, ts);

    std::mutex mutex;
    SampleSet stalls;
    double ratio = 1.0;
    minimpi::run_world(4, [&](minimpi::Comm& world) {
      core::Runtime rt = core::Runtime::initialize(cfg, world, fs);
      if (rt.is_server()) {
        rt.run_server();
        if (auto* store = dynamic_cast<core::StorePlugin*>(
                rt.server().find_plugin("end_iteration", "store"))) {
          // Payload in (the emit stage's count) over image bytes out.
          const std::uint64_t raw = rt.node().emit->stats().raw_bytes;
          std::lock_guard<std::mutex> lock(mutex);
          ratio = compress::compression_ratio(raw, store->totals().stored_bytes);
        }
        return;
      }
      sim::Cm1Proxy proxy(sim::make_cm1_proxy_config(
          options, rt.client_comm().rank(), rt.client_comm().size()));
      for (int it = 0; it < 4; ++it) {
        proxy.step();
        Stopwatch stall;
        for (const auto& [name, bytes] : proxy.field_bytes())
          (void)rt.client().write(name, bytes);
        (void)rt.client().end_iteration();
        std::lock_guard<std::mutex> lock(mutex);
        stalls.add(stall.elapsed_seconds());
      }
      rt.finalize();
    });
    if (codec == "none") {
      outcome.stall_raw = stalls.summary().median;
    } else {
      outcome.stall_packed = stalls.summary().median;
      outcome.ratio = ratio;
    }
  }
  return outcome;
}

// --- part 3: scheduler ablation (model) ------------------------------------

void report_scheduler() {
  const fsim::StorageConfig storage = kraken_storage_config();
  ClusterSpec cluster;
  cluster.total_cores = 9216;
  cluster.cores_per_node = 12;
  WorkloadSpec workload;
  workload.iterations = 4;
  workload.compute_seconds = 350.0;
  workload.bytes_per_core = 43ull << 20;

  Table table({"scheduler", "max concurrent nodes", "throughput",
               "run time (s)"});
  const ReplayResult greedy = replay(Strategy::kDamaris, cluster, workload,
                                     storage, kraken_congestion_alpha(), 17);
  table.add_row({"greedy", "unlimited",
                 format_throughput_gbps(greedy.aggregate_throughput),
                 fmt_double(greedy.app_seconds, 1)});
  for (int width : {96, 192, 384}) {
    WorkloadSpec w = workload;
    w.throttle_max_nodes = width;
    const ReplayResult r = replay(Strategy::kDamarisThrottled, cluster, w,
                                  storage, kraken_congestion_alpha(), 17);
    table.add_row({"throttled", std::to_string(width),
                   format_throughput_gbps(r.aggregate_throughput),
                   fmt_double(r.app_seconds, 1)});
  }
  table.print(std::cout, "E4c: I/O scheduling ablation (paper: 10 -> 12.7 GB/s)");
}

}  // namespace

int main() {
  std::printf("E4: using the dedicated cores' spare time\n\n");
  report_idle();

  std::printf("\n");
  const CompressionOutcome c = measure_compression();
  Table table({"metric", "measured", "paper"});
  table.add_row({"compression ratio", fmt_double(c.ratio, 2) + "x", "6.0x (600%)"});
  table.add_row({"client stall, raw", fmt_double(c.stall_raw * 1e6, 1) + " us", "-"});
  table.add_row({"client stall, compressed",
                 fmt_double(c.stall_packed * 1e6, 1) + " us",
                 "no overhead on the simulation"});
  table.print(std::cout, "E4b: compression on the dedicated core (real threads)");

  std::printf("\n");
  report_scheduler();
  return 0;
}
