// Real-thread parallel-filesystem front end.
//
// Threads calling write() genuinely block for the modelled duration (at a
// configurable real-time scale), so asynchronous I/O from dedicated cores
// *actually overlaps* with computation in the calling application — the
// overlap the paper measures is real concurrency here, not bookkeeping.
//
// File contents are retained in an in-memory store so that h5lite files
// written through the simulator can be read back and verified by tests and
// analysis examples (the paper's "output can be post-processed" claim).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "common/sync.hpp"
#include "common/thread_annotations.hpp"
#include "fsim/storage_model.hpp"

namespace dedicore::fsim {

/// Mapping between simulated seconds and real (wall-clock) seconds.
struct TimeScale {
  /// Real seconds per simulated second.  1e-3 => a 100 s simulated I/O
  /// phase costs 100 ms of wall time in tests.
  double real_per_sim = 1e-3;
  /// Bandwidth-sharing quantum, in simulated seconds.
  double quantum_sim = 0.02;

  [[nodiscard]] double to_real(double sim_seconds) const noexcept {
    return sim_seconds * real_per_sim;
  }
  [[nodiscard]] double to_sim(double real_seconds) const noexcept {
    return real_seconds / real_per_sim;
  }
};

/// Opaque file handle.
struct FileHandle {
  std::uint64_t id = 0;
  [[nodiscard]] bool valid() const noexcept { return id != 0; }
};

/// Aggregate observability counters.
struct FileSystemStats {
  std::uint64_t files_created = 0;
  std::uint64_t mds_operations = 0;
  std::uint64_t writes = 0;
  std::uint64_t bytes_written = 0;
  double total_write_time_sim = 0.0;   ///< sum over writes (overlap counted per write)
  double mds_busy_time_sim = 0.0;      ///< serialized metadata service time
  Summary write_time_summary;          ///< distribution of per-write sim durations
};

class FileSystem {
 public:
  FileSystem(StorageConfig config, TimeScale scale);
  ~FileSystem();

  FileSystem(const FileSystem&) = delete;
  FileSystem& operator=(const FileSystem&) = delete;

  /// Creates (or truncates) a file.  Costs one serialized MDS operation.
  /// stripe_count == 0 uses the configured default.  Returns the handle
  /// and, optionally, the simulated time the MDS op took (queue + service).
  FileHandle create(const std::string& path, int stripe_count = 0,
                    double* mds_time_sim = nullptr);

  /// Opens an existing file (MDS op).  NOT_FOUND if absent.
  std::optional<FileHandle> open(const std::string& path,
                                 double* mds_time_sim = nullptr);

  /// Appends `bytes`; blocks the calling thread for the modelled duration.
  /// Returns the simulated duration of the write.
  double write(FileHandle file, std::span<const std::byte> bytes);

  /// Positional write (used by collective/two-phase I/O and h5lite).
  double pwrite(FileHandle file, std::uint64_t offset,
                std::span<const std::byte> bytes);

  /// Closing is free (Lustre closes are cheap relative to creates).
  void close(FileHandle file);

  // -- content inspection (no modelled cost; test/analysis use) -----------
  [[nodiscard]] bool exists(const std::string& path) const;
  [[nodiscard]] std::optional<std::vector<std::byte>> read_file(
      const std::string& path) const;
  [[nodiscard]] std::uint64_t file_size(const std::string& path) const;
  [[nodiscard]] std::vector<std::string> list_files() const;
  [[nodiscard]] std::size_t file_count() const;

  /// Simulated time since construction (wall time rescaled).
  [[nodiscard]] double sim_now() const;

  [[nodiscard]] FileSystemStats stats() const;
  [[nodiscard]] const StorageConfig& config() const noexcept { return config_; }
  [[nodiscard]] const TimeScale& time_scale() const noexcept { return scale_; }

 private:
  struct OstState;
  struct FileState;

  FileState* find_file(FileHandle handle) const;
  double run_transfer(std::vector<std::pair<int, double>> ost_bytes);

  StorageConfig config_;
  TimeScale scale_;
  double epoch_real_;  // steady-clock origin for sim_now()

  /// The single metadata server.  The ONE lock in the repo deliberately
  /// held across a sleep: serializing creators for the scaled service
  /// time IS the modelled metadata storm.  Nothing else is ever acquired
  /// under it (meta_mutex_ is taken only after it is released).
  mutable Mutex mds_mutex_{"fsim.mds"};
  QueueServer mds_accounting_ DEDICORE_GUARDED_BY(meta_mutex_);
  /// Leaf lock over the maps & counters below; never held across a sleep
  /// or another lock.
  mutable Mutex meta_mutex_{"fsim.meta"};
  std::unordered_map<std::uint64_t, std::unique_ptr<FileState>> files_
      DEDICORE_GUARDED_BY(meta_mutex_);
  std::unordered_map<std::string, std::uint64_t> by_path_
      DEDICORE_GUARDED_BY(meta_mutex_);
  std::uint64_t next_handle_ DEDICORE_GUARDED_BY(meta_mutex_) = 1;
  int next_stripe_origin_ DEDICORE_GUARDED_BY(meta_mutex_) = 0;

  /// Per-OST states each own an "fsim.ost" lock; run_transfer takes them
  /// strictly one at a time (never two OST locks together).
  std::vector<std::unique_ptr<OstState>> osts_;

  // Stats (guarded by meta_mutex_).
  std::uint64_t files_created_ DEDICORE_GUARDED_BY(meta_mutex_) = 0;
  std::uint64_t mds_operations_ DEDICORE_GUARDED_BY(meta_mutex_) = 0;
  std::uint64_t writes_ DEDICORE_GUARDED_BY(meta_mutex_) = 0;
  std::uint64_t bytes_written_ DEDICORE_GUARDED_BY(meta_mutex_) = 0;
  double total_write_time_sim_ DEDICORE_GUARDED_BY(meta_mutex_) = 0.0;
  double mds_busy_time_sim_ DEDICORE_GUARDED_BY(meta_mutex_) = 0.0;
  Histogram write_times_sim_ DEDICORE_GUARDED_BY(meta_mutex_);

  /// Leaf lock around the shared heavy-tail RNG.
  mutable Mutex jitter_mutex_{"fsim.jitter"};
  JitterModel jitter_ DEDICORE_GUARDED_BY(jitter_mutex_);
};

}  // namespace dedicore::fsim
