// Rolling time-windowed serving statistics: a fixed-capacity ring of
// per-tick (nominally 1 s) samples, each holding the DELTA of the
// serving counters over that tick plus a latency Histogram::Counts
// delta, so "the last 1 s / 10 s / 60 s" can be answered at any moment
// of a long-running process without restarting metrics or waiting for
// an atexit flush.
//
// The producer (the engine's sampler thread, or a test calling
// SampleOnceForTest) pushes one Sample per tick; readers aggregate the
// newest N samples into a WindowAggregate. Everything is guarded by one
// mutex — pushes and reads happen a few times per second, never on the
// request hot path.
//
// SLO accounting: when Config sets slo_p99_ms / slo_availability, each
// pushed sample is stamped with per-tick violation flags and cumulative
// burn counters advance, so a "bad minutes since start" burn rate
// survives ring wraparound.

#ifndef DGNN_UTIL_WINDOWED_STATS_H_
#define DGNN_UTIL_WINDOWED_STATS_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "util/telemetry.h"

namespace dgnn::telemetry {

class WindowedStats {
 public:
  struct Config {
    // Ring capacity in ticks; 120 one-second ticks comfortably covers
    // the largest (60 s) reporting window plus slack for late readers.
    int capacity = 120;
    // SLO thresholds; <= 0 disables the corresponding accounting.
    double slo_p99_ms = 0.0;       // per-tick p99 must stay below this
    double slo_availability = 0.0; // per-tick ok/requests must stay above
  };

  // One tick's worth of serving activity (counter DELTAS over the tick,
  // except queue_depth which is an instantaneous gauge read).
  struct Sample {
    double seconds = 1.0;  // tick duration
    int64_t requests = 0;
    int64_t ok = 0;
    int64_t shed = 0;
    int64_t expired = 0;
    int64_t failed = 0;
    int64_t degraded = 0;
    int64_t swaps = 0;
    int64_t queue_depth = 0;
    Histogram::Counts latency;
    // Stamped by Push() from Config; callers leave these false.
    bool p99_violation = false;
    bool availability_violation = false;
  };

  // Aggregate over the newest N ticks.
  struct WindowAggregate {
    int ticks = 0;          // samples actually aggregated (<= requested)
    double seconds = 0.0;   // wall time the window covers
    int64_t requests = 0;
    int64_t ok = 0;
    int64_t shed = 0;
    int64_t expired = 0;
    int64_t failed = 0;
    int64_t degraded = 0;
    int64_t swaps = 0;
    int64_t queue_depth = 0;  // newest sample's gauge
    double qps = 0.0;
    double availability = 1.0;  // ok / requests; 1 when idle
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double p99_ms = 0.0;
    double mean_ms = 0.0;
    int p99_violations = 0;           // ticks in window over the SLO
    int availability_violations = 0;  // ticks in window under the SLO
  };

  explicit WindowedStats(const Config& config);

  // Appends one tick, stamping SLO violation flags and advancing the
  // cumulative burn counters. Oldest sample is evicted at capacity.
  void Push(Sample sample);

  // Aggregates the newest `ticks` samples (fewer if the ring holds
  // fewer). ticks <= 0 aggregates everything retained.
  WindowAggregate Aggregate(int ticks) const;

  // Total ticks ever pushed (not capped by ring capacity).
  int64_t total_ticks() const;
  // Cumulative SLO burn counters since construction.
  int64_t total_p99_violations() const;
  int64_t total_availability_violations() const;

  const Config& config() const { return config_; }

 private:
  const Config config_;
  mutable std::mutex mu_;
  std::vector<Sample> ring_;  // ring_[(head_ + i) % capacity], oldest first
  int head_ = 0;
  int size_ = 0;
  int64_t total_ticks_ = 0;
  int64_t total_p99_violations_ = 0;
  int64_t total_availability_violations_ = 0;
};

}  // namespace dgnn::telemetry

#endif  // DGNN_UTIL_WINDOWED_STATS_H_
