#include "util/windowed_stats.h"

#include <algorithm>

#include "util/check.h"

namespace dgnn::telemetry {

WindowedStats::WindowedStats(const Config& config) : config_(config) {
  DGNN_CHECK_GT(config_.capacity, 0);
  ring_.resize(static_cast<size_t>(config_.capacity));
}

void WindowedStats::Push(Sample sample) {
  sample.p99_violation = false;
  sample.availability_violation = false;
  if (sample.requests > 0) {
    if (config_.slo_p99_ms > 0.0) {
      const double p99_ms =
          Histogram::QuantileFromCounts(sample.latency, 0.99) * 1e3;
      sample.p99_violation = p99_ms > config_.slo_p99_ms;
    }
    if (config_.slo_availability > 0.0) {
      const double availability = static_cast<double>(sample.ok) /
                                  static_cast<double>(sample.requests);
      sample.availability_violation = availability < config_.slo_availability;
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (size_ < config_.capacity) {
    ring_[static_cast<size_t>((head_ + size_) % config_.capacity)] = sample;
    ++size_;
  } else {
    ring_[static_cast<size_t>(head_)] = sample;
    head_ = (head_ + 1) % config_.capacity;
  }
  ++total_ticks_;
  if (sample.p99_violation) ++total_p99_violations_;
  if (sample.availability_violation) ++total_availability_violations_;
}

WindowedStats::WindowAggregate WindowedStats::Aggregate(int ticks) const {
  std::lock_guard<std::mutex> lock(mu_);
  const int n = ticks <= 0 ? size_ : std::min(ticks, size_);
  WindowAggregate agg;
  if (n == 0) return agg;
  agg.ticks = n;
  Histogram::Counts latency;
  for (int i = size_ - n; i < size_; ++i) {
    const Sample& s = ring_[static_cast<size_t>((head_ + i) % config_.capacity)];
    agg.seconds += s.seconds;
    agg.requests += s.requests;
    agg.ok += s.ok;
    agg.shed += s.shed;
    agg.expired += s.expired;
    agg.failed += s.failed;
    agg.degraded += s.degraded;
    agg.swaps += s.swaps;
    for (int b = 0; b < Histogram::kNumBuckets; ++b) {
      latency.buckets[b] += s.latency.buckets[b];
    }
    latency.count += s.latency.count;
    latency.sum_nanos += s.latency.sum_nanos;
    if (s.p99_violation) ++agg.p99_violations;
    if (s.availability_violation) ++agg.availability_violations;
  }
  const Sample& newest =
      ring_[static_cast<size_t>((head_ + size_ - 1) % config_.capacity)];
  agg.queue_depth = newest.queue_depth;
  if (agg.seconds > 0.0) {
    agg.qps = static_cast<double>(agg.requests) / agg.seconds;
  }
  if (agg.requests > 0) {
    agg.availability =
        static_cast<double>(agg.ok) / static_cast<double>(agg.requests);
  }
  if (latency.count > 0) {
    agg.p50_ms = Histogram::QuantileFromCounts(latency, 0.50) * 1e3;
    agg.p95_ms = Histogram::QuantileFromCounts(latency, 0.95) * 1e3;
    agg.p99_ms = Histogram::QuantileFromCounts(latency, 0.99) * 1e3;
    agg.mean_ms = static_cast<double>(latency.sum_nanos) /
                  static_cast<double>(latency.count) * 1e-6;
  }
  return agg;
}

int64_t WindowedStats::total_ticks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_ticks_;
}

int64_t WindowedStats::total_p99_violations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_p99_violations_;
}

int64_t WindowedStats::total_availability_violations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_availability_violations_;
}

}  // namespace dgnn::telemetry
