// Process-wide telemetry: named counters, gauges, latency histograms and
// wall-clock timers, plus trace spans exportable to Chrome's
// chrome://tracing JSON format.
//
// Telemetry is DISABLED by default and every recording path early-outs on
// a single relaxed atomic load, so instrumented hot paths (the tape's
// dense kernels, the thread pool) pay no measurable cost when it is off —
// tier-1 timings are unaffected. Call telemetry::SetEnabled(true) (the
// CLI/bench flags --metrics-out / --trace-out do this) to start
// recording.
//
// Usage:
//
//   static telemetry::Timer* t = telemetry::GetTimer("ag.gemm");
//   telemetry::ScopedTimer timer(t);          // records on destruction
//
//   telemetry::ScopedSpan span("epoch", "train");  // chrome trace slice
//
//   telemetry::GetCounter("train.batches")->Add(1);
//
// All metric objects are created on first use, live for the process
// lifetime (pointers remain valid forever), and are safe to record into
// from any number of threads concurrently. Reset() zeroes every metric
// value (including the "telemetry.dropped_spans" overflow counter),
// clears the buffered trace-span vector, and restarts the trace epoch —
// registrations survive, so back-to-back bench iterations can Reset()
// between runs without leaking spans or counts across them.
//
// Export:
//   WriteMetricsJson(path)  — {"counters":{...},"gauges":{...},
//                              "timers":{...},"histograms":{...}}
//   WriteTraceJson(path)    — {"traceEvents":[...]} ; open in
//                             chrome://tracing or Perfetto.

#ifndef DGNN_UTIL_TELEMETRY_H_
#define DGNN_UTIL_TELEMETRY_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace dgnn::telemetry {

// Global on/off switch. Reads are a single relaxed atomic load.
bool Enabled();
void SetEnabled(bool on);

// Zeroes every metric (counters — "telemetry.dropped_spans" included —
// gauges, timers, histograms), drops all buffered trace events, and
// restarts the trace epoch. Registered metric pointers stay valid.
void Reset();

// Monotonically increasing integer (events, calls, items processed).
class Counter {
 public:
  void Add(int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Zero() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Last-write-wins double (loss, learning rate, pool width).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Call count plus accumulated wall-clock nanoseconds; the cheap shape for
// "how many times did this kernel run and how long did it take in total".
class Timer {
 public:
  void RecordNanos(int64_t ns) {
    count_.fetch_add(1, std::memory_order_relaxed);
    nanos_.fetch_add(ns, std::memory_order_relaxed);
  }
  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double total_seconds() const {
    return static_cast<double>(nanos_.load(std::memory_order_relaxed)) * 1e-9;
  }
  void Zero() {
    count_.store(0, std::memory_order_relaxed);
    nanos_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> nanos_{0};
};

// Latency histogram over a FIXED exponential bucket layout shared by
// every histogram in the process: bucket i counts values (in seconds)
// with v <= 1e-6 * 2^i, for i in [0, kNumBuckets); the last bucket also
// absorbs anything larger (~4295 s). The layout never depends on the data,
// so histograms from different runs are directly mergeable / comparable.
class Histogram {
 public:
  static constexpr int kNumBuckets = 32;

  // A plain copy of the bucket counts (shared fixed layout), mergeable by
  // element-wise addition. `count` always equals the bucket sum, so the
  // accounting identity survives delta arithmetic; `sum_nanos` is read
  // separately and may drift by the few records that land between the
  // bucket reads and the sum read — harmless for rate/mean reporting,
  // never for the count identity.
  struct Counts {
    int64_t buckets[kNumBuckets] = {};
    int64_t count = 0;
    int64_t sum_nanos = 0;
  };

  // Upper bound of bucket i in seconds: 1e-6 * 2^i.
  static double BucketUpperBound(int i);
  // Index of the bucket that counts `seconds` (clamped to the last).
  static int BucketIndex(double seconds);

  void Record(double seconds);

  // QuantileFromCounts over a snapshot of this histogram, clamped into
  // [min_seconds, max_seconds] so q=0/q=1 stay faithful. 0 when nothing
  // was recorded.
  double ApproxQuantileSeconds(double q) const;

  // Copies the current bucket counts without blocking writers (32 relaxed
  // loads; `count` is recomputed as the bucket sum so the identity holds).
  Counts SnapshotCounts() const;

  // Returns counts recorded since `*cursor` was last updated and advances
  // the cursor to the current snapshot. Writers are never locked out; a
  // record racing the snapshot lands in this delta or the next, never in
  // both and never in neither. A default-constructed Counts cursor yields
  // everything recorded so far.
  Counts SnapshotDelta(Counts* cursor) const;

  // Nearest-rank quantile read off the cumulative bucket counts: the
  // upper bound of the bucket holding the q-th recorded value (q in
  // [0, 1], clamped). Resolution is one power-of-two bucket, so above
  // 1 us the answer is >= the exact sample quantile and < twice it. 0
  // when the counts are empty.
  static double QuantileFromCounts(const Counts& c, double q);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum_seconds() const;
  // Min/max of recorded values; 0 when count() == 0.
  double min_seconds() const;
  double max_seconds() const;
  int64_t bucket_count(int i) const {
    return buckets_[static_cast<size_t>(i)].load(std::memory_order_relaxed);
  }

  void Zero();

 private:
  std::atomic<int64_t> buckets_[kNumBuckets] = {};
  std::atomic<int64_t> count_{0};
  // Stored as nanosecond integers so concurrent accumulation stays a
  // plain fetch_add (no CAS loop, no float non-determinism).
  std::atomic<int64_t> sum_nanos_{0};
  std::atomic<int64_t> min_nanos_{INT64_MAX};
  std::atomic<int64_t> max_nanos_{INT64_MIN};
};

// Registry lookups: create-on-first-use, stable pointers, thread-safe.
// A name is bound to one metric kind forever; reusing it with a different
// kind CHECK-fails.
Counter* GetCounter(std::string_view name);
Gauge* GetGauge(std::string_view name);
Timer* GetTimer(std::string_view name);
Histogram* GetHistogram(std::string_view name);

// RAII wall-clock timer; no-op (not even a clock read) when telemetry is
// disabled at construction.
class ScopedTimer {
 public:
  explicit ScopedTimer(Timer* timer)
      : timer_(Enabled() ? timer : nullptr) {
    if (timer_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (timer_ != nullptr) {
      timer_->RecordNanos(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - start_)
                              .count());
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Timer* timer_;
  std::chrono::steady_clock::time_point start_;
};

// RAII latency recorder: feeds the elapsed wall-clock seconds into a
// Histogram on destruction. No-op when telemetry is disabled at
// construction.
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram* hist)
      : hist_(Enabled() ? hist : nullptr) {
    if (hist_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedLatency() {
    if (hist_ != nullptr) {
      hist_->Record(std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start_)
                        .count());
    }
  }
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  Histogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

// RAII trace span ("X" complete event in the Chrome trace format). `name`
// and `category` must be string literals or otherwise outlive the
// process's last trace export. No-op when telemetry is disabled at
// construction. Optionally records the same duration into `timer`.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, const char* category,
                      Timer* timer = nullptr);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  const char* category_;
  Timer* timer_;
  bool active_;
  std::chrono::steady_clock::time_point start_;
};

// Number of buffered trace events (capped; see kMaxTraceEvents in the
// .cc — once full, further spans bump the "telemetry.dropped_spans"
// counter instead).
int64_t NumTraceEvents();

// Microseconds since the current trace epoch (restarted by Reset()).
// Matches the ts field of exported chrome://tracing span events, so
// per-request NDJSON trace records stamped with this clock line up with
// spans when both files are loaded side by side.
int64_t TraceNowMicros();

// JSON snapshots. Metrics with zero recorded activity are included (a
// registered counter at 0 is information too); histograms serialize only
// their non-empty buckets.
std::string MetricsJson();
std::string TraceJson();
util::Status WriteMetricsJson(const std::string& path);
util::Status WriteTraceJson(const std::string& path);

}  // namespace dgnn::telemetry

#endif  // DGNN_UTIL_TELEMETRY_H_
