// Built-in plugins of the dedicated-core service.  Exposed as concrete
// classes (not just registry names) so tests and examples can inspect
// their results after a run through Server::find_plugin.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/sync.hpp"
#include "common/thread_annotations.hpp"
#include "core/plugin.hpp"
#include "viz/vislite.hpp"

namespace dedicore::core {

/// "store": aggregates the iteration's blocks into one h5lite file per
/// dedicated core — "Damaris is able to group the output of multiple
/// processes into bigger files without the communication overhead of a
/// collective I/O approach".
///
/// Each dataset flows through the node's EmitStage (emit-path transform
/// stage): codec precedence is the `codec` param here, then the
/// variable's `codec` attribute, then <storage codec>; an adaptive probe
/// stores a variable raw when its sample compresses below
/// <storage min_ratio>.
///
/// Params: `codec` (overrides every configured codec), `basename`
/// (overrides <storage basename>).
class StorePlugin final : public Plugin {
 public:
  explicit StorePlugin(const std::map<std::string, std::string>& params);

  [[nodiscard]] std::string_view name() const noexcept override { return "store"; }
  void run(PluginContext& context) override;

  /// Durability of this instance's images.  Payload and codec counters
  /// live in the node's EmitStats (NodeRuntime::emit->stats()).
  struct Totals {
    std::uint64_t files = 0;         ///< images durably written (counted at
                                     ///< drain time on the write-behind path)
    std::uint64_t failed_writes = 0; ///< images the backend rejected (async
                                     ///< path; logged by the queue)
    std::uint64_t stored_bytes = 0;  ///< image bytes persisted (post-codec)
    /// Wall time the pipeline spent emitting: inside backend write calls
    /// on the synchronous (sim) path, inside enqueue() on the write-behind
    /// (posix) path — where it only grows when backpressure engages.
    double write_seconds = 0.0;
    double schedule_wait_seconds = 0.0;
  };
  [[nodiscard]] Totals totals() const;

 private:
  std::string codec_override_;
  std::string basename_override_;
  /// Leaf lock over the aggregate counters (one per plugin instance).
  mutable Mutex mutex_{"plugin.store"};
  Totals totals_ DEDICORE_GUARDED_BY(mutex_);
};

/// "stats": per-variable min/max/mean/stddev per iteration, kept for the
/// most recent iterations (ring of 16).
class StatsPlugin final : public Plugin {
 public:
  explicit StatsPlugin(const std::map<std::string, std::string>&) {}

  [[nodiscard]] std::string_view name() const noexcept override { return "stats"; }
  void run(PluginContext& context) override;

  struct Entry {
    Iteration iteration = -1;
    std::map<std::string, viz::FieldStatistics> per_variable;
  };
  /// Latest computed entry (empty variable map before the first run).
  [[nodiscard]] Entry latest() const;
  [[nodiscard]] std::vector<Entry> history() const;

 private:
  mutable Mutex mutex_{"plugin.stats"};
  std::vector<Entry> history_ DEDICORE_GUARDED_BY(mutex_);
};

/// "script": evaluates a tiny arithmetic expression over the iteration's
/// data — the stand-in for Damaris's Python plugin support.  Grammar:
///
///   expr   := term (('+'|'-') term)*
///   term   := factor (('*'|'/') factor)*
///   factor := NUMBER | FUNC '(' IDENT ')' | '(' expr ')' | '-' factor
///   FUNC   := min | max | mean | sum
///
/// Params: `expr` (required), e.g. "mean(theta) - 0.5*max(qv)".
class ScriptPlugin final : public Plugin {
 public:
  explicit ScriptPlugin(const std::map<std::string, std::string>& params);

  [[nodiscard]] std::string_view name() const noexcept override { return "script"; }
  void run(PluginContext& context) override;

  /// Result of the most recent evaluation (NaN before the first run).
  [[nodiscard]] double last_value() const;
  [[nodiscard]] Iteration last_iteration() const;

 private:
  std::string expression_;
  mutable Mutex mutex_{"plugin.script"};
  double last_value_ DEDICORE_GUARDED_BY(mutex_);
  Iteration last_iteration_ DEDICORE_GUARDED_BY(mutex_) = -1;
};

/// "vislite": the in-situ pipeline (isosurface + statistics + rendering)
/// on the dedicated core.  Params: `variable` (required, must be 3-D),
/// `isovalue` ("mean" or a number, default mean), `width`, `height`,
/// `write_image` ("true" stores PPMs through the filesystem).
class VisLitePlugin final : public Plugin {
 public:
  explicit VisLitePlugin(const std::map<std::string, std::string>& params);

  [[nodiscard]] std::string_view name() const noexcept override { return "vislite"; }
  void run(PluginContext& context) override;

  struct Totals {
    std::uint64_t invocations = 0;
    std::uint64_t blocks_rendered = 0;
    std::uint64_t triangles = 0;
    std::uint64_t images_written = 0;
    double pipeline_seconds = 0.0;
  };
  [[nodiscard]] Totals totals() const;

 private:
  std::string variable_;
  std::string isovalue_spec_;
  int width_, height_;
  bool write_image_;
  mutable Mutex mutex_{"plugin.vislite"};
  Totals totals_ DEDICORE_GUARDED_BY(mutex_);
};

/// Decodes a block's payload to doubles according to the variable layout
/// (float32/float64 only); shared by stats/script/vislite.  The payload is
/// resolved through the context's server transport, so it works for both
/// locally-resident and MPI-received blocks.
std::vector<double> block_as_doubles(const PluginContext& context,
                                     const BlockInfo& block);

}  // namespace dedicore::core
