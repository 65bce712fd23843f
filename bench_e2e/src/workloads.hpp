// The benchmark's workloads, the runtime configuration each one deploys,
// and the simulation inputs it writes (regenerable from the seed, so the
// read-back check compares against what was really written).
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/configuration.hpp"
#include "sim/cm1_proxy.hpp"

namespace bench {

namespace fs = std::filesystem;
namespace core = dedicore::core;
namespace sim = dedicore::sim;

/// How output leaves the compute ranks.
enum class Mode {
  kCores,           ///< dedicated core per node, shared-memory transport
  kNodes,           ///< dedicated I/O rank, MPI transport
  kFilePerProcess,  ///< every rank writes its own file synchronously
};

struct Workload {
  std::string name;
  Mode mode = Mode::kCores;
  int clients = 3;   ///< ranks that compute and write
  int io_ranks = 1;  ///< dedicated cores / I/O ranks (0 for file-per-process)
  /// CM1 proxy fields (theta, qv, u, v, w on grid^3 cells) when true;
  /// otherwise `synthetic_vars` variables of synthetic_edge^3 floats.
  bool cm1 = true;
  std::uint64_t grid = 24;
  int synthetic_vars = 0;
  std::uint64_t synthetic_edge = 4;
  double spin_s = 0.0;  ///< calibrated compute added to every output
  std::string codec = "none";
  int roots = 0;  ///< 0 = one posix root; N = ShardedBackend over N roots
  std::uint64_t chunk_size = 0;
  int server_workers = 1;
  /// Outputs per rank per second of --seconds: the run's fixed amount of
  /// work.  At the benchmark's 20 s every workload yields well over 1200
  /// stall samples past warm-up, and a run with its read-back ends within
  /// about --seconds on a 4-core host.
  double outputs_per_second = 30.0;

  [[nodiscard]] int ranks() const { return clients + io_ranks; }
  [[nodiscard]] int var_count() const { return cm1 ? 5 : synthetic_vars; }
  [[nodiscard]] std::vector<std::uint64_t> extents() const;
  [[nodiscard]] std::uint64_t var_bytes() const;
  [[nodiscard]] std::string var_name(int v) const;
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// Storage roots of a run rooted at `dir` (one, or one per shard), created
/// if missing: a deployment's storage exists before it starts, so the
/// file system's directory creation stays out of the set-up timings.
std::vector<fs::path> storage_roots(const Workload& w, const fs::path& dir);

/// The runtime configuration of `w` deployed as `mode` with `clients`
/// compute ranks, storing under `dir`; `plugin` is bound to
/// end_iteration ("store", or the traced wrapper).
core::Configuration make_config(const Workload& w, Mode mode, int clients,
                                const fs::path& dir, const std::string& plugin);

/// Output paths written by each design.
std::string damaris_output_path(int iteration);
std::string fpp_output_path(int rank, int iteration);

/// The simulation state of every rank.  compute() produces one output's
/// fields; each rank is driven by one thread at a time, and iterations
/// must be computed in order.
class Inputs {
 public:
  Inputs(const Workload& w, std::uint64_t seed, int outputs);

  /// Advances `rank` to the fields of `iteration` (one CM1 step, or the
  /// synthetic generator), then spins the workload's calibrated compute
  /// when `spin` is set.
  void compute(int rank, int iteration, bool spin);

  [[nodiscard]] std::span<const std::byte> field(int rank, int var) const;
  [[nodiscard]] std::vector<std::uint64_t> global_offset(int rank) const;

  /// Digest of the bytes `rank` wrote for `var` at `iteration`.
  [[nodiscard]] std::uint64_t expected_digest(int rank, int iteration, int var) const;

 private:
  void fill_synthetic(int rank, int iteration, int var, std::span<float> out) const;

  const Workload& w_;
  std::uint64_t seed_;
  int outputs_;
  std::vector<std::unique_ptr<sim::Cm1Proxy>> proxies_;  ///< CM1 workloads
  std::vector<std::vector<std::uint64_t>> digests_;      ///< CM1: [rank][it*vars+v]
  std::vector<std::vector<float>> synthetic_;            ///< [rank][var*cells]
};

}  // namespace bench
