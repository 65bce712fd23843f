// Deterministic fault injection.
//
// Every failure scenario in the fault-tolerance test suite — "client 3 dies
// after its 5th event", "pwrite returns EIO twice", "the write-behind
// producer stalls" — is expressed as a `FaultSpec` armed on a shared
// `FaultInjector`.  Components that can fail consult the injector at *named
// injection points*; the injector decides, deterministically from its seed
// and per-spec hit counters, whether the fault fires at this particular
// call.  Nothing in the production path behaves differently when no spec is
// armed: `fire()` on an empty injector is a single relaxed load.
//
// Determinism argument: each spec keeps its own hit counter, incremented
// under the injector mutex on every matching probe, and fires exactly when
//   hits > after  &&  fired < count  &&  rng < probability
// With probability == 1.0 (the default) the RNG is never consulted, so the
// firing pattern depends only on the order of matching probes — which the
// tests make deterministic (single client thread per target, seeded
// schedules).  With probability < 1.0 the xoshiro stream is seeded
// explicitly, so a given (seed, probe-order) pair replays bit-for-bit.
//
// Point names are validated against a registry at arm() time so a typo in a
// test or an XML `<faults>` block is a loud ConfigError, not a scenario
// that silently never fires.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "common/sync.hpp"
#include "common/thread_annotations.hpp"

namespace dedicore::fault {

/// One armed fault.  `point` must be a registered injection-point name.
struct FaultSpec {
  std::string point;            ///< Injection point, e.g. "posix.pwrite".
  int target = -1;              ///< Match only this target id (-1 = any).
  std::uint64_t after = 0;      ///< Skip the first `after` matching probes.
  std::uint64_t count = 1;      ///< Fire at most `count` times.
  double probability = 1.0;     ///< Bernoulli gate once eligible.
  std::uint64_t magnitude = 0;  ///< Point-specific knob (e.g. stall usec).
};

/// Result of a fired probe; carries the spec's magnitude to the caller.
struct Fired {
  std::uint64_t magnitude = 0;
};

/// Registry of injection points wired into the codebase.  Kept in one place
/// so `known_points()` doubles as documentation of where faults can land.
///
///   client.die               ClientTransport publish/post — the client
///                            "process" dies after its K-th event; target is
///                            the client index.
///   posix.pwrite             PosixBackend::pwrite fails with EIO.
///   posix.fsync              PosixBackend close-time fsync fails with EIO.
///   posix.rename             PosixBackend temp→final rename fails with EIO.
///   posix.crash_on_close     PosixBackend::close drops the handle without
///                            fsync/rename — SIGKILL mid-write; leaves a
///                            torn temp file for the recovery scan.
///   write_behind.enqueue_stall  WriteBehind::enqueue sleeps `magnitude`
///                            microseconds before taking the budget lock.
///   write_behind.write       WriteBehind's drain fails the job's backend
///                            write with EIO (transient-retry exercise for
///                            backends without their own points).
class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed = 0) noexcept;

  /// The seed the probabilistic gates were seeded with.
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Arms a fault.  Throws ConfigError on an unknown point name or an
  /// out-of-range probability.  Thread-safe, but typically called once at
  /// configuration time.
  void arm(FaultSpec spec);

  /// Probes the named point.  Returns the fired spec's magnitude when a
  /// matching armed fault fires at this call, nullopt otherwise.  Cheap
  /// when nothing is armed (single atomic load, no lock).
  std::optional<Fired> fire(std::string_view point, int target = -1) noexcept;

  /// Convenience wrapper for call sites that only need the boolean.
  bool should_fire(std::string_view point, int target = -1) noexcept {
    return fire(point, target).has_value();
  }

  /// Total matching probes seen at `point` (across all armed specs for it).
  std::uint64_t hits(std::string_view point) const noexcept;

  /// Total times any spec at `point` actually fired.
  std::uint64_t fired(std::string_view point) const noexcept;

  /// True if at least one spec is armed.
  bool armed() const noexcept { return armed_count_.load(std::memory_order_acquire) > 0; }

  /// Validation hook for config parsing.
  static bool known_point(std::string_view point) noexcept;
  static const std::vector<std::string_view>& known_points() noexcept;

 private:
  struct Armed {
    FaultSpec spec;
    std::uint64_t hits = 0;
    std::uint64_t fired = 0;
  };

  mutable Mutex mutex_{"fault.state"};
  std::vector<Armed> specs_ DEDICORE_GUARDED_BY(mutex_);
  Rng rng_ DEDICORE_GUARDED_BY(mutex_);
  std::atomic<int> armed_count_{0};
  std::uint64_t seed_;
};

/// The seed a configured fault plan runs with: DEDICORE_FAULT_SEED when it
/// is set and non-empty (the CI fault matrix sweeps seeds without editing
/// the XML plan), `plan_seed` otherwise.  Throws ConfigError unless a set
/// value is a whole decimal u64, so a typo cannot silently sweep the wrong
/// seed.
std::uint64_t effective_seed(std::uint64_t plan_seed);

}  // namespace dedicore::fault
