// Per-shard health state machine: healthy / degraded / down, driven by
// two independent signals —
//
//  * heartbeat probes (RecordProbe): kDownAfterProbeFailures (3) missed
//    probes in a row take the shard DOWN; the first successful probe
//    after that brings it back as DEGRADED (trust is re-earned, not
//    restored wholesale) from where the outcome EWMA can recover it.
//  * per-request outcomes (RecordOutcome): an exponentially-weighted
//    moving average of the failure rate. Crossing kDegradeThreshold
//    marks the shard DEGRADED; decaying back under kRecoverThreshold
//    (hysteresis — the two thresholds differ so the state cannot
//    flap on a single request) restores HEALTHY. Outcomes never take a
//    shard down by themselves: only missed heartbeats prove a worker is
//    unreachable, while failures may just mean overload.
//
// The router short-circuits dispatches to DOWN shards (fail fast, keep
// probing), and serves DEGRADED (servable-but-suspect, shown in stats)
// and HEALTHY shards alike.

#ifndef DGNN_SHARD_HEALTH_H_
#define DGNN_SHARD_HEALTH_H_

#include <mutex>

namespace dgnn::shard {

enum class HealthState { kHealthy, kDegraded, kDown };

const char* HealthStateName(HealthState s);

class ShardHealth {
 public:
  HealthState state() const {
    std::lock_guard<std::mutex> lock(mu_);
    return state_;
  }
  double failure_ewma() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ewma_;
  }

  void RecordProbe(bool ok);
  void RecordOutcome(bool ok);

 private:
  mutable std::mutex mu_;
  HealthState state_ = HealthState::kHealthy;
  int consecutive_probe_failures_ = 0;
  double ewma_ = 0.0;
};

}  // namespace dgnn::shard

#endif  // DGNN_SHARD_HEALTH_H_
