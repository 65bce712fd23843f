#include "fsim/storage_model.hpp"

#include <algorithm>
#include <cmath>

namespace dedicore::fsim {

void StorageConfig::validate() const {
  if (ost_count <= 0) throw ConfigError("StorageConfig: ost_count must be > 0");
  if (ost_bandwidth <= 0) throw ConfigError("StorageConfig: ost_bandwidth must be > 0");
  if (mds_op_cost < 0) throw ConfigError("StorageConfig: mds_op_cost must be >= 0");
  if (stripe_size == 0) throw ConfigError("StorageConfig: stripe_size must be > 0");
  if (default_stripe_count <= 0 || default_stripe_count > ost_count)
    throw ConfigError("StorageConfig: default_stripe_count out of range");
  if (jitter_sigma < 0) throw ConfigError("StorageConfig: jitter_sigma must be >= 0");
  if (spike_probability < 0 || spike_probability > 1)
    throw ConfigError("StorageConfig: spike_probability must be in [0,1]");
  if (interference_share < 0 || interference_share >= 1)
    throw ConfigError("StorageConfig: interference_share must be in [0,1)");
}

// ---------------------------------------------------------------------------
// InterferenceProcess
// ---------------------------------------------------------------------------

InterferenceProcess::InterferenceProcess(const StorageConfig& config, Rng rng)
    : on_rate_(config.interference_on_rate),
      off_rate_(config.interference_off_rate),
      share_(config.interference_share),
      rng_(rng) {
  if (on_rate_ > 0.0) state_until_ = rng_.exponential(on_rate_);
}

void InterferenceProcess::advance_to(double t) {
  if (on_rate_ <= 0.0 || share_ <= 0.0) return;  // interference disabled
  while (state_until_ < t) {
    on_ = !on_;
    const double rate = on_ ? off_rate_ : on_rate_;
    state_until_ += rng_.exponential(rate);
  }
}

double InterferenceProcess::available_fraction(double t) {
  advance_to(t);
  return on_ ? 1.0 - share_ : 1.0;
}

double InterferenceProcess::average_available(double t0, double t1) {
  DEDICORE_CHECK(t1 >= t0, "average_available: t1 < t0");
  if (t1 == t0) return available_fraction(t0);
  advance_to(t0);
  double integral = 0.0;
  double cursor = t0;
  while (state_until_ < t1) {
    integral += (state_until_ - cursor) * (on_ ? 1.0 - share_ : 1.0);
    cursor = state_until_;
    advance_to(std::nextafter(state_until_, t1 + 1.0));
  }
  integral += (t1 - cursor) * (on_ ? 1.0 - share_ : 1.0);
  return integral / (t1 - t0);
}

// ---------------------------------------------------------------------------
// QueueServer
// ---------------------------------------------------------------------------

double QueueServer::submit(double now, double service) {
  DEDICORE_CHECK(service >= 0.0, "QueueServer: negative service time");
  const double start = std::max(now, busy_until_);
  total_wait_ += start - now;
  busy_until_ = start + service;
  ++operations_;
  return busy_until_;
}

}  // namespace dedicore::fsim
