// Layer replay: a window of the workload's iterations driven through each
// layer's public functions, in the order the dedicated core performs them
// (one call at a time on one thread) and the order the file-per-process
// ranks perform theirs (one thread per rank), with every call timed.
// This is where the per-layer metrics come from; spans inside the library
// are not needed for it.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>

#include "util.hpp"
#include "workloads.hpp"

namespace bench {

struct ReplayResult {
  /// Per-call timings in microseconds, keyed by metric name (without the
  /// .p50/.p99/.count suffix).
  std::map<std::string, Samples> stages;
  Samples copy_mb_s;  ///< payload bytes per second of the client-side copy
  Samples plan_mb_s;  ///< image bytes per second through plan_image
  /// Per iteration: the replayed steps StorePlugin::run performs (index
  /// query, emit, finalize, and the write-behind enqueue, which drains
  /// queued jobs itself while the byte budget is full), in milliseconds.
  Samples store_step_ms;
  /// Per (rank, iteration): the file-per-process writer's steps (h5lite
  /// build + posix write_image), in milliseconds.
  Samples fpp_step_ms;
  double compress_ratio = 1.0;    ///< payload bytes / bytes the emit stage stored
  double compressed_share = 0.0;  ///< datasets emitted through a codec / datasets
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Replays outputs [first, first + iterations) of `w`'s inputs for `seed`;
/// the earlier outputs are computed and skipped, so a window in the middle
/// of a run replays the run's steady state rather than its start.
ReplayResult run_replay(const Workload& w, std::uint64_t seed, int first, int iterations,
                        const fs::path& dir);

}  // namespace bench
