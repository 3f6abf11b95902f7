#include "shard/health.h"

namespace dgnn::shard {
namespace {

// Consecutive probe failures that take a shard down.
constexpr int kDownAfterProbeFailures = 3;
// EWMA smoothing factor for per-request outcomes.
constexpr double kEwmaAlpha = 0.2;
// Failure-rate EWMA above this -> degraded.
constexpr double kDegradeThreshold = 0.5;
// ... and back below this -> healthy (hysteresis band).
constexpr double kRecoverThreshold = 0.1;

}  // namespace

const char* HealthStateName(HealthState s) {
  switch (s) {
    case HealthState::kHealthy: return "healthy";
    case HealthState::kDegraded: return "degraded";
    case HealthState::kDown: return "down";
  }
  return "?";
}

void ShardHealth::RecordProbe(bool ok) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ok) {
    consecutive_probe_failures_ = 0;
    if (state_ == HealthState::kDown) {
      // Back from the dead: re-enter as degraded with the EWMA parked at
      // the degrade threshold, so a run of clean outcomes (not just one
      // lucky probe) is what restores full health.
      state_ = HealthState::kDegraded;
      ewma_ = kDegradeThreshold;
    }
    return;
  }
  ++consecutive_probe_failures_;
  if (consecutive_probe_failures_ >= kDownAfterProbeFailures) {
    state_ = HealthState::kDown;
  }
}

void ShardHealth::RecordOutcome(bool ok) {
  std::lock_guard<std::mutex> lock(mu_);
  ewma_ = (1.0 - kEwmaAlpha) * ewma_ + kEwmaAlpha * (ok ? 0.0 : 1.0);
  if (state_ == HealthState::kDown) {
    // Only probes resurrect a down shard; a stray late success must not.
    return;
  }
  if (state_ == HealthState::kHealthy && ewma_ >= kDegradeThreshold) {
    state_ = HealthState::kDegraded;
  } else if (state_ == HealthState::kDegraded &&
             ewma_ <= kRecoverThreshold) {
    state_ = HealthState::kHealthy;
  }
}

}  // namespace dgnn::shard
