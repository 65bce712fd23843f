// Parameters and virtual-time primitives of the parallel-file-system model.
//
// The paper's experiments ran against Lustre on Kraken (336 OSTs, one
// metadata server) and PVFS on Grid'5000.  Every effect the paper reports
// is a consequence of three storage properties, which this model captures:
//
//  1. a single metadata server that serializes file creates/opens — the
//     file-per-process approach pays O(#processes) serialized MDS ops;
//  2. object storage targets (OSTs) with finite bandwidth, fair-shared
//     among concurrent streams — collective I/O from thousands of clients
//     hits every OST at once and each stream crawls;
//  3. heavy-tailed per-operation jitter plus background interference from
//     other jobs — the "orders of magnitude" variability of section IV.B.
//
// This header holds the pure virtual-time pieces (usable from the DES
// replay); filesystem.hpp wraps them for real blocking threads.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "common/status.hpp"

namespace dedicore::fsim {

/// Model parameters.  Times are in *simulated seconds*, sizes in bytes,
/// bandwidths in bytes per simulated second.  Defaults approximate one
/// Kraken-class I/O subsystem scaled to a small test rig; the experiment
/// drivers in src/model override them with the calibrated constants listed
/// in EXPERIMENTS.md.
struct StorageConfig {
  int ost_count = 8;                  ///< number of object storage targets
  double ost_bandwidth = 400e6;       ///< per-OST streaming bandwidth (B/s)
  double mds_op_cost = 1.5e-3;        ///< serialized metadata op cost (s)
  std::uint64_t stripe_size = 1u << 20;  ///< bytes per stripe chunk
  int default_stripe_count = 1;       ///< OSTs per file unless overridden
  double request_latency = 5e-4;      ///< fixed per-write RPC latency (s)

  // Jitter: multiplicative lognormal factor applied per write, unit mean;
  // with probability `spike_probability` an additional bounded-Pareto
  // straggler factor in [1, spike_max] with tail index `spike_alpha`.
  double jitter_sigma = 0.25;
  double spike_probability = 0.02;
  double spike_max = 64.0;
  double spike_alpha = 1.1;

  // Background interference from other jobs sharing the machine: an on/off
  // process per OST; while "on" it consumes `interference_share` of the
  // OST's bandwidth.
  double interference_on_rate = 0.05;   ///< transitions to on (per sim s)
  double interference_off_rate = 0.25;  ///< transitions to off (per sim s)
  double interference_share = 0.5;      ///< bandwidth fraction stolen while on

  std::uint64_t seed = 42;

  void validate() const;
};

/// Heavy-tailed per-operation slowdown factor, >= ~lognormal with unit
/// median and occasional Pareto stragglers.
class JitterModel {
 public:
  JitterModel(const StorageConfig& config, Rng rng)
      : sigma_(config.jitter_sigma),
        spike_probability_(config.spike_probability),
        spike_max_(config.spike_max),
        spike_alpha_(config.spike_alpha),
        rng_(rng) {}

  double factor() noexcept {
    double f = rng_.lognormal(0.0, sigma_);
    if (spike_probability_ > 0.0 && rng_.chance(spike_probability_))
      f *= rng_.bounded_pareto(1.0, spike_max_, spike_alpha_);
    return f;
  }

 private:
  double sigma_, spike_probability_, spike_max_, spike_alpha_;
  Rng rng_;
};

/// On/off background-interference process for one OST, evaluated lazily in
/// virtual time.  available_fraction(t) is deterministic per seed.
class InterferenceProcess {
 public:
  InterferenceProcess(const StorageConfig& config, Rng rng);

  /// Fraction of the OST bandwidth available to the application at time t.
  /// Monotone non-decreasing calls in t (lazy evaluation advances state).
  double available_fraction(double t);

  /// Average available fraction over [t0, t1] (integrates the process).
  double average_available(double t0, double t1);

 private:
  void advance_to(double t);

  double on_rate_, off_rate_, share_;
  Rng rng_;
  bool on_ = false;
  double state_until_ = 0.0;  ///< current on/off phase ends at this time
};

/// FIFO queue server in virtual time — the metadata server.  submit()
/// returns the completion time of an op arriving at `now` with the given
/// service demand; ops are served one at a time in arrival order.
class QueueServer {
 public:
  /// Arrival at `now`, service time `service`; returns completion time.
  double submit(double now, double service);

  [[nodiscard]] double busy_until() const noexcept { return busy_until_; }
  [[nodiscard]] std::uint64_t operations() const noexcept { return operations_; }
  /// Total time ops spent queued (not being served).
  [[nodiscard]] double total_queue_wait() const noexcept { return total_wait_; }

 private:
  double busy_until_ = 0.0;
  std::uint64_t operations_ = 0;
  double total_wait_ = 0.0;
};

}  // namespace dedicore::fsim
