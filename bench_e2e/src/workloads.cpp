#include "workloads.hpp"

#include <cstdio>

#include "common/rng.hpp"
#include "util.hpp"

namespace bench {

namespace {

std::vector<Workload> build_workloads() {
  std::vector<Workload> out;

  // The paper's regime: three CM1 ranks and one dedicated core that
  // compresses (xor+lzs) and writes each output to one posix root.  The
  // calibrated spin keeps the dedicated core mostly idle, so the stall the
  // simulation sees is the copy into shared memory.
  Workload paper;
  paper.name = "cm1_paper";
  paper.spin_s = 0.030;
  paper.codec = "xor+lzs";
  paper.outputs_per_second = 30.0;
  out.push_back(paper);

  // The same ranks with no spare time: a real step per output, bigger
  // fields, no codec, sharded over four roots.  The dedicated core is
  // saturated and write-behind backpressure reaches the clients.
  Workload saturated;
  saturated.name = "cm1_saturated";
  saturated.grid = 32;
  saturated.roots = 4;
  saturated.chunk_size = 256 * 1024;
  saturated.outputs_per_second = 45.0;
  out.push_back(saturated);

  // The paper's baseline on the same four cores: every rank computes and
  // writes its own file synchronously, with the same spin and the same
  // number of outputs as cm1_paper, so run_s compares directly.
  Workload fpp;
  fpp.name = "cm1_fpp";
  fpp.mode = Mode::kFilePerProcess;
  fpp.clients = 4;
  fpp.io_ranks = 0;
  fpp.spin_s = paper.spin_s;
  fpp.outputs_per_second = paper.outputs_per_second;
  out.push_back(fpp);

  // Many small blocks over MPI to a dedicated I/O rank with two workers:
  // the per-block path (framing, credit, demux, BlockIndex, per-dataset
  // metadata) rather than the bytes.
  Workload many;
  many.name = "many_vars_nodes";
  many.mode = Mode::kNodes;
  many.clients = 2;
  many.cm1 = false;
  many.synthetic_vars = 1024;
  many.synthetic_edge = 4;
  many.server_workers = 2;
  many.outputs_per_second = 62.0;
  out.push_back(many);
  return out;
}

}  // namespace

std::vector<std::uint64_t> Workload::extents() const {
  const std::uint64_t e = cm1 ? grid : synthetic_edge;
  return {e, e, e};
}

std::uint64_t Workload::var_bytes() const {
  const std::uint64_t e = cm1 ? grid : synthetic_edge;
  return e * e * e * sizeof(float);
}

std::string Workload::var_name(int v) const {
  static const char* const kCm1[] = {"theta", "qv", "u", "v", "w"};
  if (cm1) return kCm1[v];
  char name[16];
  std::snprintf(name, sizeof(name), "v%04d", v);
  return name;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = build_workloads();
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

std::vector<fs::path> storage_roots(const Workload& w, const fs::path& dir) {
  std::vector<fs::path> roots;
  for (int i = 0; i < std::max(1, w.roots); ++i) {
    roots.push_back(dir / ("root" + std::to_string(i)));
    fs::create_directories(roots.back());
  }
  return roots;
}

core::Configuration make_config(const Workload& w, Mode mode, int clients,
                                const fs::path& dir, const std::string& plugin) {
  std::string xml = "<simulation name=\"" + w.name + "\" cores_per_node=\"" +
                    std::to_string(clients + 1) + "\" dedicated_cores=\"1\"";
  if (mode == Mode::kNodes)
    xml += " dedicated_mode=\"nodes\" dedicated_nodes=\"1\" server_workers=\"" +
           std::to_string(w.server_workers) + "\" steal=\"on\"";
  // 16 MiB of segment (and write-behind budget) holds several outputs of
  // every workload, so backpressure engages only when storage falls behind.
  xml += ">\n<buffer size=\"16MiB\" queue=\"1024\" policy=\"block\"/>\n<data>\n";
  const auto e = w.extents();
  xml += "<layout name=\"block\" type=\"float32\" dimensions=\"" + std::to_string(e[0]) +
         "," + std::to_string(e[1]) + "," + std::to_string(e[2]) + "\"/>\n";
  for (int v = 0; v < w.var_count(); ++v)
    xml += "<variable name=\"" + w.var_name(v) + "\" layout=\"block\"/>\n";
  xml += "</data>\n<storage basename=\"out\" codec=\"" + w.codec + "\"";
  if (mode != Mode::kFilePerProcess) {
    const auto roots = storage_roots(w, dir);
    if (w.roots == 0) {
      xml += " backend=\"posix\" path=\"" + roots[0].string() + "\"";
    } else {
      std::string list;
      for (const auto& r : roots) {
        if (!list.empty()) list += ';';
        list += r.string();
      }
      xml += " backend=\"posix\" roots=\"" + list + "\" chunk_size=\"" +
             std::to_string(w.chunk_size) + "\" replication=\"1\"";
    }
  }
  xml += "/>\n<actions><event name=\"end_iteration\" plugin=\"" + plugin +
         "\"/></actions>\n</simulation>\n";
  return core::Configuration::from_string(xml);
}

std::string damaris_output_path(int iteration) {
  return "out/node0_s0_it" + std::to_string(iteration) + ".h5l";
}

std::string fpp_output_path(int rank, int iteration) {
  return "fpp/rank" + std::to_string(rank) + "_it" + std::to_string(iteration) + ".h5l";
}

Inputs::Inputs(const Workload& w, std::uint64_t seed, int outputs)
    : w_(w), seed_(seed), outputs_(outputs) {
  for (int r = 0; r < w.clients; ++r) {
    if (w.cm1) {
      sim::Cm1Config config;
      config.nx = config.ny = config.nz = w.grid;
      config.rank = r;
      config.world_size = w.clients;
      config.seed = seed;
      proxies_.push_back(std::make_unique<sim::Cm1Proxy>(config));
      digests_.emplace_back(static_cast<std::size_t>(outputs) *
                            static_cast<std::size_t>(w.var_count()));
    } else {
      synthetic_.emplace_back(static_cast<std::size_t>(w.var_count()) *
                              (w.var_bytes() / sizeof(float)));
    }
  }
}

void Inputs::fill_synthetic(int rank, int iteration, int var,
                            std::span<float> out) const {
  dedicore::Rng rng(seed_ * 0x9e3779b97f4a7c15ull ^ (static_cast<std::uint64_t>(rank) << 56) ^
                    (static_cast<std::uint64_t>(iteration) << 20) ^
                    static_cast<std::uint64_t>(var));
  for (float& x : out) x = static_cast<float>(250.0 + 100.0 * rng.next_double());
}

void Inputs::compute(int rank, int iteration, bool spin) {
  const auto r = static_cast<std::size_t>(rank);
  if (w_.cm1) {
    proxies_[r]->step();
    for (int v = 0; v < w_.var_count(); ++v)
      digests_[r][static_cast<std::size_t>(iteration) * static_cast<std::size_t>(w_.var_count()) +
                  static_cast<std::size_t>(v)] = digest(field(rank, v));
  } else {
    const std::size_t cells = w_.var_bytes() / sizeof(float);
    for (int v = 0; v < w_.var_count(); ++v)
      fill_synthetic(rank, iteration, v,
                     std::span<float>(synthetic_[r]).subspan(static_cast<std::size_t>(v) * cells, cells));
  }
  if (spin && w_.spin_s > 0.0) sim::Cm1Proxy::step_calibrated(w_.spin_s);
}

std::span<const std::byte> Inputs::field(int rank, int var) const {
  const auto r = static_cast<std::size_t>(rank);
  if (!w_.cm1) {
    const std::size_t cells = w_.var_bytes() / sizeof(float);
    return std::as_bytes(std::span<const float>(synthetic_[r])
                             .subspan(static_cast<std::size_t>(var) * cells, cells));
  }
  const sim::Cm1Proxy& p = *proxies_[r];
  switch (var) {
    case 0: return std::as_bytes(p.theta());
    case 1: return std::as_bytes(p.qv());
    case 2: return std::as_bytes(p.u());
    case 3: return std::as_bytes(p.v());
    default: return std::as_bytes(p.w());
  }
}

std::vector<std::uint64_t> Inputs::global_offset(int rank) const {
  if (w_.cm1) return proxies_[static_cast<std::size_t>(rank)]->global_offset();
  return {static_cast<std::uint64_t>(rank) * w_.synthetic_edge, 0, 0};
}

std::uint64_t Inputs::expected_digest(int rank, int iteration, int var) const {
  if (w_.cm1) {
    if (iteration >= outputs_) return 0;
    return digests_[static_cast<std::size_t>(rank)]
                   [static_cast<std::size_t>(iteration) * static_cast<std::size_t>(w_.var_count()) +
                    static_cast<std::size_t>(var)];
  }
  std::vector<float> values(w_.var_bytes() / sizeof(float));
  fill_synthetic(rank, iteration, var, values);
  return digest(std::as_bytes(std::span<const float>(values)));
}

}  // namespace bench
