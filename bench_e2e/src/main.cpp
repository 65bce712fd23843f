// bench_e2e — one workload of the end-to-end benchmark per process, so the
// peak RSS it reports belongs to that workload.
//
//   bench_e2e --workload NAME --seed S --seconds T --scratch DIR
//             [--trace-out FILE] [--smoke]
//   bench_e2e --list
//
// The run drives the public API (core::Runtime / core::Client, or
// core::FilePerProcessWriter) on real posix storage under DIR, reads every
// output back through the storage backend, checks each dataset against
// the bytes the simulation wrote, removes its files and prints one JSON
// line: {"correct", "attempted", "failed", "metrics", ...}.  With
// --trace-out it records spans around its own calls (and around the store
// plugin, through a wrapping plugin), replays a window of the run's
// iterations layer by layer, adds the per-layer metrics as "layers" and
// writes the spans as JSON lines to FILE.  The exit code is 1 when any
// check failed.
#include <fcntl.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <climits>
#include <cstdio>
#include <iostream>
#include <mutex>
#include <string>
#include <vector>

#include "core/baseline_io.hpp"
#include "core/builtin_plugins.hpp"
#include "core/runtime.hpp"
#include "fsim/filesystem.hpp"
#include "h5lite/h5lite.hpp"
#include "minimpi/minimpi.hpp"
#include "replay.hpp"
#include "storage/posix_backend.hpp"
#include "storage/sharded_backend.hpp"
#include "trace.hpp"
#include "util.hpp"
#include "workloads.hpp"

namespace {

using namespace dedicore;
using namespace bench;

constexpr const char* kTracedStore = "bench_traced_store";
constexpr std::size_t kSetupTrials = 24;
constexpr int kWarmupOutputs = 8;
constexpr int kReplayIterations = 64;
constexpr std::size_t kMaxReadbackPasses = 5;
constexpr double kReadbackBudgetS = 1.0;
// Keeps a traced many_vars_nodes run (1024 write spans per output) to a
// few MB of JSONL; the spans past the cap are counted in trace.dropped.
constexpr std::size_t kSpansPerThread = 1 << 15;

std::atomic<Tracer*> g_tracer{nullptr};

/// The store plugin inside a span, bound to end_iteration in the traced
/// run only.
class TracedStorePlugin final : public core::Plugin {
 public:
  explicit TracedStorePlugin(const std::map<std::string, std::string>& params)
      : inner_(params) {}
  [[nodiscard]] std::string_view name() const noexcept override { return kTracedStore; }
  void run(core::PluginContext& context) override {
    TraceScope span(g_tracer.load(), "core.store.run", context.iteration);
    inner_.run(context);
  }

 private:
  core::StorePlugin inner_;
};

void register_traced_store() {
  static std::once_flag once;
  std::call_once(once, [] {
    core::register_plugin(kTracedStore, [](const std::map<std::string, std::string>& params) {
      return std::make_unique<TracedStorePlugin>(params);
    });
  });
}

/// The cores this process may run on.
const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0)
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
        if (CPU_ISSET(cpu, &allowed)) out.push_back(cpu);
    return out;
  }();
  return cpus;
}

/// Pins the calling thread to allowed_cpus()[(i + shift) % n] for i in
/// [first, last).
void pin_thread(std::size_t first, std::size_t last, std::size_t shift = 0) {
  const std::vector<int>& cpus = allowed_cpus();
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (std::size_t i = first; i < last; ++i) CPU_SET(cpus[(i + shift) % cpus.size()], &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

/// Pins the calling rank thread the way an HPC launcher places ranks: one
/// core per rank, and the remaining cores for a dedicated I/O rank, whose
/// worker threads inherit them; `shift` rotates the placement.  Skipped
/// when the process has fewer cores than ranks.
void pin_rank(const Workload& w, int rank, std::size_t shift = 0) {
  const std::size_t cores = allowed_cpus().size();
  if (cores < static_cast<std::size_t>(w.ranks())) return;
  const auto first = static_cast<std::size_t>(rank);
  pin_thread(first, rank == w.ranks() - 1 ? cores : first + 1, shift);
}

/// Flushes the file system holding `dir`, so write-back and journal work
/// left by an earlier run does not land inside this run's timings.
void sync_file_system(const fs::path& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  (void)::syncfs(fd);
  ::close(fd);
}

fsim::FileSystem make_unused_fs() {
  // Runtime::initialize takes a simulated filesystem; with the posix
  // backend configured nothing is persisted through it.
  return fsim::FileSystem(fsim::StorageConfig{}, fsim::TimeScale{});
}

struct RunResult {
  Samples stall_ms;         ///< per rank per output, warm-up excluded
  double run_s = 0.0;       ///< first compute phase -> every byte durable
  double io_cpu_s = 0.0;    ///< CPU spent on I/O during the run
  int io_cores = 1;         ///< cores that do the I/O
  Samples compute_s;        ///< per compute rank: total compute-phase seconds
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

double seconds_between(std::int64_t begin_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) * 1e-9;
}

/// Set-up of `trials` deployments, each under its own directory in `dir`:
/// per deployment, the CPU time of the slowest rank's Runtime::initialize,
/// or of constructing the file-per-process writer and its backend.
///
/// CPU time, not wall time: inside initialize the ranks wait on each
/// other's collectives, and on a virtual machine that wait is how soon
/// the host runs an idle virtual CPU again (0.2 ms in one hour, 2 ms in
/// the next on the same host), not work the runtime does.  The
/// deployments reuse one set of rank threads, so a new thread's first
/// stack and heap pages are not counted either, and each deployment
/// shifts the ranks to the next cores, so the median does not depend on
/// which cores the host happens to slow down.
Samples setup_trials(const Workload& w, const fs::path& dir, std::size_t trials) {
  std::vector<core::Configuration> configs;
  for (std::size_t k = 0; k < trials; ++k)
    configs.push_back(make_config(w, w.mode, w.clients, dir / std::to_string(k), "store"));
  std::vector<std::vector<double>> cpu(trials, std::vector<double>(w.ranks()));
  if (w.mode == Mode::kFilePerProcess) {
    for (std::size_t k = 0; k < trials; ++k) {
      pin_thread(0, 1, k);
      const fs::path root = storage_roots(w, dir / std::to_string(k))[0];
      const double t = thread_cpu_s();
      storage::PosixBackend backend(root);
      core::FilePerProcessWriter writer(backend, configs[k], "fpp");
      cpu[k][0] = thread_cpu_s() - t;
    }
    pin_thread(0, allowed_cpus().size());
  } else {
    fsim::FileSystem fs = make_unused_fs();
    minimpi::run_world(w.ranks(), [&](minimpi::Comm& world) {
      const auto r = static_cast<std::size_t>(world.rank());
      for (std::size_t k = 0; k < trials; ++k) {
        pin_rank(w, world.rank(), k);
        const double t = thread_cpu_s();
        core::Runtime rt = core::Runtime::initialize(configs[k], world, fs);
        cpu[k][r] = thread_cpu_s() - t;
        if (rt.is_server()) {
          rt.run_server();
        } else {
          rt.finalize();
        }
      }
    });
  }
  Samples out;
  for (const auto& ranks : cpu) out.add(*std::max_element(ranks.begin(), ranks.end()));
  return out;
}

/// Closed loop on the dedicated-core (or dedicated-node) runtime: each
/// client computes, writes every variable, ends the iteration, and only
/// then starts the next output.
RunResult run_damaris(const Workload& w, Inputs& inputs, int outputs, int warmup,
                      const fs::path& dir, Tracer* tracer) {
  const core::Configuration config =
      make_config(w, w.mode, w.clients, dir, tracer != nullptr ? kTracedStore : "store");
  fsim::FileSystem fs = make_unused_fs();
  const auto ranks = static_cast<std::size_t>(w.ranks());
  std::vector<double> client_cpu(ranks), compute(ranks);
  std::vector<std::int64_t> start(ranks, LLONG_MAX), end(ranks, 0);
  std::vector<Samples> stalls(ranks);
  std::atomic<std::uint64_t> attempted{0}, failed{0};
  double cpu_begin = 0.0, cpu_end = 0.0;
  const auto count = [&](bool ok) {
    attempted.fetch_add(1, std::memory_order_relaxed);
    if (!ok) failed.fetch_add(1, std::memory_order_relaxed);
  };

  minimpi::run_world(w.ranks(), [&](minimpi::Comm& world) {
    pin_rank(w, world.rank());
    const auto r = static_cast<std::size_t>(world.rank());
    core::Runtime rt = core::Runtime::initialize(config, world, fs);
    world.barrier();
    if (r == 0) cpu_begin = process_cpu_s();
    world.barrier();
    if (rt.is_server()) {
      rt.run_server();  // returns once every client stopped and all bytes are durable
      end[r] = now_ns();
    } else {
      // Client ranks come first in both deployments, so the world rank is
      // the client index the output datasets are named after.
      const int c = world.rank();
      const double cpu0 = thread_cpu_s();
      core::Client& client = rt.client();
      const auto offset = inputs.global_offset(c);
      for (int it = 0; it < outputs; ++it) {
        {
          TraceScope span(tracer, "sim.compute", it);
          const std::int64_t t = now_ns();
          if (it == 0) start[r] = t;
          inputs.compute(c, it, /*spin=*/true);
          // The halo exchange that ends a stencil step keeps the ranks in
          // lockstep.  It also keeps any rank from running iterations
          // ahead: the shared segment has no per-client share, so ranks
          // that fill it with later iterations can starve a lagging rank
          // of the block its current iteration needs, and no iteration
          // then completes to free space.
          rt.client_comm().barrier();
          compute[r] += seconds_between(t, now_ns());
        }
        TraceScope output(tracer, "core.client.output", it);
        const std::int64_t t = now_ns();
        for (int v = 0; v < w.var_count(); ++v) {
          TraceScope span(tracer, "core.client.write", it, output.id());
          count(client.write(w.var_name(v), inputs.field(c, v), offset).is_ok());
        }
        {
          TraceScope span(tracer, "core.client.end_iteration", it, output.id());
          count(client.end_iteration().is_ok());
        }
        if (it >= warmup) stalls[r].add(static_cast<double>(now_ns() - t) * 1e-6);
      }
      {
        TraceScope span(tracer, "core.client.finalize", outputs);
        rt.finalize();
      }
      end[r] = now_ns();
      client_cpu[r] = thread_cpu_s() - cpu0;
    }
    world.barrier();
    if (r == 0) cpu_end = process_cpu_s();
  });

  RunResult result;
  for (std::size_t r = 0; r < ranks; ++r) {
    result.stall_ms.append(stalls[r]);
    result.io_cpu_s -= client_cpu[r];
    if (static_cast<int>(r) < w.clients) result.compute_s.add(compute[r]);
  }
  result.io_cpu_s += cpu_end - cpu_begin;
  result.io_cores = w.io_ranks;
  result.run_s = seconds_between(*std::min_element(start.begin(), start.end()),
                                 *std::max_element(end.begin(), end.end()));
  result.attempted = attempted.load();
  result.failed = failed.load();
  return result;
}

/// The paper's baseline: every rank builds and writes its own file,
/// synchronously, between compute phases.
RunResult run_fpp(const Workload& w, Inputs& inputs, int outputs, int warmup,
                  const fs::path& dir, Tracer* tracer) {
  const core::Configuration config = make_config(w, w.mode, w.clients, dir, "store");
  storage::PosixBackend backend(storage_roots(w, dir)[0]);
  core::FilePerProcessWriter writer(backend, config, "fpp");
  RunResult result;

  const auto ranks = static_cast<std::size_t>(w.clients);
  std::vector<double> io_cpu(ranks), compute(ranks);
  std::vector<std::int64_t> start(ranks, LLONG_MAX), end(ranks, 0);
  std::vector<Samples> stalls(ranks);
  std::atomic<std::uint64_t> failed{0};
  minimpi::run_world(w.clients, [&](minimpi::Comm& world) {
    const int rank = world.rank();
    const auto r = static_cast<std::size_t>(rank);
    pin_rank(w, rank);
    world.barrier();
    for (int it = 0; it < outputs; ++it) {
      {
        TraceScope span(tracer, "sim.compute", it);
        const std::int64_t t = now_ns();
        if (it == 0) start[r] = t;
        inputs.compute(rank, it, /*spin=*/true);
        world.barrier();  // the same halo exchange as run_damaris
        compute[r] += seconds_between(t, now_ns());
      }
      core::IterationData data;
      for (int v = 0; v < w.var_count(); ++v) data.emplace(w.var_name(v), inputs.field(rank, v));
      TraceScope span(tracer, "core.fpp.write_iteration", it);
      const double cpu = thread_cpu_s();
      const std::int64_t t = now_ns();
      try {
        (void)writer.write_iteration(rank, it, data);
      } catch (const std::exception& e) {
        std::cerr << "bench_e2e: rank " << rank << " iteration " << it << ": " << e.what() << "\n";
        failed.fetch_add(1);
      }
      if (it >= warmup) stalls[r].add(static_cast<double>(now_ns() - t) * 1e-6);
      io_cpu[r] += thread_cpu_s() - cpu;
    }
    end[r] = now_ns();
  });

  for (std::size_t r = 0; r < ranks; ++r) {
    result.stall_ms.append(stalls[r]);
    result.io_cpu_s += io_cpu[r];
    result.compute_s.add(compute[r]);
  }
  result.io_cores = w.clients;
  result.run_s = seconds_between(*std::min_element(start.begin(), start.end()),
                                 *std::max_element(end.begin(), end.end()));
  result.attempted = static_cast<std::uint64_t>(outputs) * ranks;
  result.failed = failed.load();
  return result;
}

struct Readback {
  double seconds = 0.0;  ///< read + parse + decode, comparisons excluded
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Reads every expected output back through a fresh backend (CRC-verified
/// on the sharded layout), decodes every dataset and compares it with the
/// digest of what the simulation wrote.
Readback read_back(const Workload& w, const Inputs& inputs, int outputs, const fs::path& dir) {
  const auto roots = storage_roots(w, dir);
  std::unique_ptr<storage::PosixBackend> posix;
  std::unique_ptr<storage::ShardedBackend> sharded;
  if (w.roots > 0) {
    storage::ShardedOptions options;
    options.chunk_size = w.chunk_size;
    sharded = std::make_unique<storage::ShardedBackend>(roots, options);
  } else {
    posix = std::make_unique<storage::PosixBackend>(roots[0]);
  }
  const bool fpp = w.mode == Mode::kFilePerProcess;
  const int files_per_output = fpp ? w.clients : 1;
  const std::uint64_t datasets_per_file =
      static_cast<std::uint64_t>(w.var_count()) * (fpp ? 1u : static_cast<unsigned>(w.clients));

  Readback out;
  std::int64_t timed_ns = 0;
  for (int it = 0; it < outputs; ++it) {
    for (int f = 0; f < files_per_output; ++f) {
      const std::string path = fpp ? fpp_output_path(f, it) : damaris_output_path(it);
      out.attempted += datasets_per_file;
      std::vector<std::byte> bytes;
      std::int64_t t = now_ns();
      bool ok = false;
      if (sharded) {
        ok = sharded->read_image(path, &bytes).is_ok();
      } else if (auto file = posix->read_file(path)) {
        bytes = std::move(*file);
        ok = true;
      }
      timed_ns += now_ns() - t;
      if (!ok) {
        out.failed += datasets_per_file;
        continue;
      }
      try {
        t = now_ns();
        const h5lite::File file = h5lite::File::parse(std::move(bytes));
        timed_ns += now_ns() - t;
        for (int v = 0; v < w.var_count(); ++v) {
          for (int c = 0; c < (fpp ? 1 : w.clients); ++c) {
            const int source = fpp ? f : c;
            const std::string dataset =
                fpp ? w.var_name(v) : w.var_name(v) + "/r" + std::to_string(c) + "_b0";
            t = now_ns();
            const h5lite::Dataset* d = file.find_dataset(dataset);
            std::vector<std::byte> data;
            if (d != nullptr) data = d->read();
            timed_ns += now_ns() - t;
            if (d == nullptr || digest(data) != inputs.expected_digest(source, it, v))
              ++out.failed;
          }
        }
      } catch (const std::exception& e) {
        std::cerr << "bench_e2e: " << path << ": " << e.what() << "\n";
        out.failed += datasets_per_file;
      }
    }
  }
  out.seconds = static_cast<double>(timed_ns) * 1e-9;
  return out;
}

struct DiskUsage {
  std::uint64_t files = 0;
  std::uint64_t bytes = 0;
};

DiskUsage disk_usage(const fs::path& dir) {
  DiskUsage usage;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    ++usage.files;
    usage.bytes += entry.file_size();
  }
  return usage;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Per-call stage timings of the replay, in report order.
const char* const kReplayStages[] = {
    "core.client.write_us",          "core.client.end_iteration_us",
    "transport.acquire_us",          "transport.publish_us",
    "transport.flush_us",            "transport.next_event_us",
    "transport.release_us",          "core.block_index.insert_us",
    "core.block_index.query_us",     "core.block_index.extract_us",
    "core.emit_stage.emit_us",       "h5lite.finalize_us",
    "h5lite.build_us",               "storage.write_behind.enqueue_us",
    "storage.write_behind.drain_us", "storage.sharded.plan_us",
    "storage.sharded.write_chunk_us", "storage.sharded.publish_manifest_us",
    "storage.posix.write_image_us",  "storage.read_us",
    "h5lite.parse_us",
};

int usage() {
  std::cerr << "usage: bench_e2e --workload NAME --seed S --seconds T --scratch DIR "
               "[--trace-out FILE] [--smoke]\n       bench_e2e --list\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, trace_out;
  fs::path scratch;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--list") {
      for (const Workload& w : workloads()) std::cout << w.name << "\n";
      return 0;
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--workload" && has_value) {
      workload_name = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--scratch" && has_value) {
      scratch = argv[++i];
    } else if (arg == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else {
      return usage();
    }
  }
  const Workload* found = find_workload(workload_name);
  if (found == nullptr || scratch.empty() || seconds <= 0.0) return usage();
  const Workload& w = *found;

  const int outputs =
      smoke ? 5 : std::max(2 * kWarmupOutputs, static_cast<int>(seconds * w.outputs_per_second));
  const int warmup = smoke ? 0 : kWarmupOutputs;
  const fs::path dir = scratch / (w.name + "-" + std::to_string(getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);

  const bool traced = !trace_out.empty();
  if (traced) register_traced_store();

  sync_file_system(dir);
  const Samples setup = setup_trials(w, dir / "setup", smoke ? 1 : kSetupTrials);
  fs::remove_all(dir / "setup");

  sync_file_system(dir);
  const fs::path run_dir = dir / "run";
  Inputs inputs(w, seed, outputs);
  std::unique_ptr<Tracer> tracer;
  if (traced) {
    tracer = std::make_unique<Tracer>(kSpansPerThread);
    g_tracer = tracer.get();
  }
  const RunResult run = w.mode == Mode::kFilePerProcess
                            ? run_fpp(w, inputs, outputs, warmup, run_dir, tracer.get())
                            : run_damaris(w, inputs, outputs, warmup, run_dir, tracer.get());
  g_tracer = nullptr;
  const DiskUsage disk = disk_usage(run_dir);
  // Short read-backs are repeated and their median reported, so a pass
  // that lasts a fraction of a second is not at the mercy of one hiccup.
  Samples readback_s;
  std::uint64_t attempted = run.attempted;
  std::uint64_t failed = run.failed;
  do {
    const Readback pass = read_back(w, inputs, outputs, run_dir);
    readback_s.add(pass.seconds);
    attempted += pass.attempted;
    failed += pass.failed;
  } while (readback_s.count() < kMaxReadbackPasses && readback_s.sum() < kReadbackBudgetS);
  const double rss_mb = peak_rss_mb();

  const std::uint64_t payload = static_cast<std::uint64_t>(outputs) *
                                static_cast<std::uint64_t>(w.clients) *
                                static_cast<std::uint64_t>(w.var_count()) * w.var_bytes();

  MetricWriter metrics;
  metrics.add("setup_s", setup.median(), "s");
  metrics.add("write_stall_p50_ms", run.stall_ms.median(), "ms");
  metrics.add("write_stall_p99_ms", run.stall_ms.percentile(0.99), "ms");
  metrics.add("run_s", run.run_s, "s");
  metrics.add("readback_s", readback_s.median(), "s");
  metrics.add("io_core_busy_pct",
              100.0 * run.io_cpu_s / (run.run_s * static_cast<double>(run.io_cores)), "%");
  metrics.add("disk_bytes_per_user_byte",
              static_cast<double>(disk.bytes) / static_cast<double>(payload), "ratio");
  metrics.add("peak_rss_mb", rss_mb, "MB");

  std::string layers_json;
  if (traced) {
    // The window sits in the middle of the run: its steady state.
    const int replayed = smoke ? 3 : kReplayIterations;
    const ReplayResult replay =
        run_replay(w, seed, std::max(0, (outputs - replayed) / 2), replayed, dir / "replay");
    attempted += replay.attempted;
    failed += replay.failed;
    MetricWriter layers;
    for (const char* stage : kReplayStages) {
      auto it = replay.stages.find(stage);
      layers.add_timing(stage, it != replay.stages.end() ? it->second : Samples{}, "us");
    }
    layers.add("shm.copy_mb_s.p50", replay.copy_mb_s.median(), "MB/s");
    layers.add("storage.sharded.plan_mb_s.p50", replay.plan_mb_s.median(), "MB/s");
    layers.add("compress.ratio", replay.compress_ratio, "ratio");
    layers.add("core.emit_stage.compressed_share", replay.compressed_share, "ratio");
    // The store step of each design: the store plugin on the dedicated
    // core, the writer call on the file-per-process ranks.
    const bool fpp = w.mode == Mode::kFilePerProcess;
    const Samples store_ms =
        tracer->durations_ms(fpp ? "core.fpp.write_iteration" : "core.store.run");
    layers.add_timing("core.store.run_ms", store_ms, "ms");
    const double replayed_step_ms =
        fpp ? replay.fpp_step_ms.median() : replay.store_step_ms.median();
    layers.add("replay.coverage",
               store_ms.count() > 0 ? replayed_step_ms / store_ms.median() : 0.0, "ratio");
    layers.add("core.server.cpu_s", run.io_cpu_s, "s");
    layers.add("sim.compute_s", run.compute_s.median(), "s");
    layers.add("storage.files_per_iteration",
               static_cast<double>(disk.files) / static_cast<double>(outputs), "count");
    layers.add("storage.failed_ops", static_cast<double>(failed), "count");
    layers.add("trace.spans", static_cast<double>(tracer->span_count()), "count");
    layers.add("trace.dropped", static_cast<double>(tracer->dropped()), "count");
    layers_json = layers.json();
    if (!tracer->write_jsonl(trace_out)) {
      std::cerr << "bench_e2e: cannot write " << trace_out << "\n";
      ++failed;
    }
  }
  fs::remove_all(dir);

  const bool correct = failed == 0;
  std::cout << "{\"workload\": \"" << w.name << "\", \"seed\": " << seed
            << ", \"outputs\": " << outputs << ", \"stall_samples\": " << run.stall_ms.count()
            << ", \"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
            << ", \"failed\": " << failed << ", \"metrics\": " << metrics.json();
  if (traced) std::cout << ", \"layers\": " << layers_json;
  std::cout << "}" << std::endl;
  return correct ? 0 : 1;
}
