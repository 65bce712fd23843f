#include "common/fault.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstring>

#include "common/status.hpp"

namespace dedicore::fault {

namespace {

const std::vector<std::string_view> kKnownPoints = {
    "client.die",
    "posix.pwrite",
    "posix.fsync",
    "posix.rename",
    "posix.crash_on_close",
    "write_behind.enqueue_stall",
    "write_behind.write",
};

}  // namespace

FaultInjector::FaultInjector(std::uint64_t seed) noexcept
    : rng_(seed), seed_(seed) {}

std::uint64_t effective_seed(std::uint64_t plan_seed) {
  const char* env = std::getenv("DEDICORE_FAULT_SEED");
  if (env == nullptr || *env == '\0') return plan_seed;
  const char* end = env + std::strlen(env);
  std::uint64_t seed = 0;
  const auto [ptr, ec] = std::from_chars(env, end, seed);
  if (ec != std::errc() || ptr != end)
    throw ConfigError(std::string("DEDICORE_FAULT_SEED='") + env +
                      "' is not a whole decimal 64-bit unsigned integer");
  return seed;
}

bool FaultInjector::known_point(std::string_view point) noexcept {
  return std::find(kKnownPoints.begin(), kKnownPoints.end(), point) !=
         kKnownPoints.end();
}

const std::vector<std::string_view>& FaultInjector::known_points() noexcept {
  return kKnownPoints;
}

void FaultInjector::arm(FaultSpec spec) {
  if (!known_point(spec.point)) {
    std::string known;
    for (auto p : kKnownPoints) {
      if (!known.empty()) known += ", ";
      known += p;
    }
    throw ConfigError("fault: unknown injection point '" + spec.point +
                      "' (known: " + known + ")");
  }
  if (spec.probability < 0.0 || spec.probability > 1.0)
    throw ConfigError("fault '" + spec.point + "': probability " +
                      std::to_string(spec.probability) + " outside [0, 1]");
  if (spec.count == 0)
    throw ConfigError("fault '" + spec.point + "': count must be >= 1");
  MutexLock lock(mutex_);
  specs_.push_back(Armed{std::move(spec), 0, 0});
  armed_count_.store(static_cast<int>(specs_.size()),
                     std::memory_order_release);
}

std::optional<Fired> FaultInjector::fire(std::string_view point,
                                         int target) noexcept {
  if (armed_count_.load(std::memory_order_acquire) == 0) return std::nullopt;
  MutexLock lock(mutex_);
  for (Armed& armed : specs_) {
    if (armed.spec.point != point) continue;
    if (armed.spec.target >= 0 && armed.spec.target != target) continue;
    ++armed.hits;
    if (armed.hits <= armed.spec.after) continue;
    if (armed.fired >= armed.spec.count) continue;
    if (armed.spec.probability < 1.0 && !rng_.chance(armed.spec.probability))
      continue;
    ++armed.fired;
    return Fired{armed.spec.magnitude};
  }
  return std::nullopt;
}

std::uint64_t FaultInjector::hits(std::string_view point) const noexcept {
  MutexLock lock(mutex_);
  std::uint64_t total = 0;
  for (const Armed& armed : specs_)
    if (armed.spec.point == point) total += armed.hits;
  return total;
}

std::uint64_t FaultInjector::fired(std::string_view point) const noexcept {
  MutexLock lock(mutex_);
  std::uint64_t total = 0;
  for (const Armed& armed : specs_)
    if (armed.spec.point == point) total += armed.fired;
  return total;
}

}  // namespace dedicore::fault
