// The emit-path transform stage: compression on the dedicated core.
//
// §IV.D's signature claim is that dedicated cores have spare cycles left
// after absorbing I/O — enough to compress the simulation's output
// "achieving a 600% compression ratio without any overhead on the
// simulation".  The EmitStage is where that happens: it sits between the
// plugin pipeline and the WriteBehind/StorageBackend, turning each
// dataset payload into (possibly compressed) h5lite image bytes before
// they are queued for disk.  Because it runs inside the plugin pipeline
// on the dedicated core, the cycles it burns are exactly the idle cycles
// the paper measured (92–99 %), and the bytes it removes shrink what the
// write-behind byte budget has to account for — backpressure couples in
// *after* compression, on the bytes actually queued.
//
// Codec selection, per dataset:
//   1. the store action's `codec` param (strongest override),
//   2. the variable's `codec` attribute,
//   3. the storage-level `codec` attribute (the default).
//
// Adaptive skip: not every field pays for compression (checkpoint noise,
// already-packed data).  Before committing a variable to a codec the
// stage compresses a bounded sample of its first block; if the sampled
// ratio lands below <storage min_ratio> the variable is stored raw and
// the decision is cached, re-probed every kReprobePeriod emits so a
// variable whose content becomes compressible gets another chance.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/sync.hpp"
#include "common/thread_annotations.hpp"
#include "compress/codec.hpp"
#include "core/configuration.hpp"
#include "h5lite/h5lite.hpp"

namespace dedicore::core {

/// Node-wide transform-stage counters (all servers of the node feed the
/// same instance; reads get a consistent snapshot).
struct EmitStats {
  std::uint64_t datasets_compressed = 0;  ///< emitted through a codec
  std::uint64_t datasets_stored_raw = 0;  ///< emitted uncompressed
  std::uint64_t adaptive_skips = 0;   ///< probe decisions that parked a
                                      ///< variable on raw storage
  std::uint64_t probes = 0;           ///< sampling runs performed
  std::uint64_t raw_bytes = 0;        ///< dataset payload bytes in
  std::uint64_t stored_bytes = 0;     ///< image bytes out (post-codec)
  double compress_seconds = 0.0;      ///< dedicated-core cycles spent
                                      ///< inside codec emits
  double probe_seconds = 0.0;         ///< cycles spent sampling

  /// Achieved ratio as the paper quotes it (600% == 6.0).
  [[nodiscard]] double achieved_ratio() const noexcept {
    return compress::compression_ratio(raw_bytes, stored_bytes);
  }
};

class EmitStage {
 public:
  /// Probe sample size: enough to see a field's structure, small enough
  /// that a probe never dominates an emit.
  static constexpr std::size_t kSampleBytes = 64 * 1024;
  /// Cached skip/compress decisions are re-probed after this many emits
  /// of the variable.
  static constexpr std::uint64_t kReprobePeriod = 16;

  explicit EmitStage(const Configuration& config);

  /// The codec requested for `var` before the adaptive decision:
  /// plugin-param override > variable codec > storage codec.  Throws
  /// ConfigError on an unknown override name (variable/storage names were
  /// already validated with the configuration).
  [[nodiscard]] compress::CodecId resolve_codec(
      const VariableSpec& var, const std::string& override_name) const;

  /// The adaptive decision: the codec to actually emit `var` with, given
  /// a representative payload (callers pass the iteration's first block).
  /// Compresses a bounded prefix sample on the first call and every
  /// kReprobePeriod emits; returns kNone (store raw) when the sampled
  /// ratio is below the configured min_ratio.  Thread-safe.
  [[nodiscard]] compress::CodecId plan(const VariableSpec& var,
                                       compress::CodecId requested,
                                       std::span<const std::byte> sample);

  /// Per-dataset outcome of an emit, for callers that account per
  /// dataset (the node-wide totals are already in stats()).
  struct Emitted {
    std::uint64_t raw_bytes = 0;     ///< payload bytes in
    std::uint64_t stored_bytes = 0;  ///< image bytes this dataset added
    double seconds = 0.0;            ///< emit wall time (codec emits only)
    bool compressed = false;         ///< emitted through a codec
  };

  /// Emits one dataset into `builder` with the planned codec and accounts
  /// it.  The builder is the caller's (one per plugin run); only the
  /// shared counters are synchronized.
  Emitted emit_dataset(h5lite::FileBuilder& builder,
                       h5lite::FileBuilder::GroupId group,
                       const std::string& name, const LayoutSpec& layout,
                       std::span<const std::byte> payload,
                       compress::CodecId codec);

  [[nodiscard]] EmitStats stats() const;
  [[nodiscard]] double min_ratio() const noexcept { return min_ratio_; }

 private:
  /// Sticky per-variable decision, indexed by VariableId.
  struct Decision {
    bool decided = false;
    compress::CodecId codec = compress::CodecId::kNone;
    std::uint64_t emits_since_probe = 0;
  };

  std::string default_codec_;
  double min_ratio_;
  /// Leaf lock: released before any codec emit runs (compression happens
  /// outside the critical section; only counters/decisions live under it).
  mutable Mutex mutex_{"core.emit_stage"};
  EmitStats stats_ DEDICORE_GUARDED_BY(mutex_);
  std::vector<Decision> decisions_ DEDICORE_GUARDED_BY(mutex_);
};

}  // namespace dedicore::core
