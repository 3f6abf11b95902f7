#include "util/telemetry.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/check.h"
#include "util/json.h"
#include "util/strings.h"

namespace dgnn::telemetry {
namespace {

std::atomic<bool> g_enabled{false};

// One buffered chrome-trace event ("ph":"X" complete slice).
struct SpanEvent {
  const char* name;
  const char* category;
  int64_t ts_us;   // start, relative to the process trace epoch
  int64_t dur_us;  // duration
  int tid;
};

// Hard cap on buffered spans so a long run cannot grow without bound;
// overflow is counted in "telemetry.dropped_spans".
constexpr size_t kMaxTraceEvents = 1 << 20;

enum class MetricKind { kCounter, kGauge, kTimer, kHistogram };

const char* KindName(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kTimer: return "timer";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

struct Metric {
  MetricKind kind;
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<Timer> timer;
  std::unique_ptr<Histogram> histogram;
};

// Registry + span buffer. Metric objects themselves are lock-free to
// record into; the mutex only guards name lookup/registration and the
// span vector.
struct State {
  std::mutex mu;
  std::map<std::string, Metric, std::less<>> metrics;
  std::vector<SpanEvent> spans;
  std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  int next_tid = 0;
};

State& GetState() {
  static State* state = new State();  // never destroyed: see header
  return *state;
}

// Small dense thread id for trace output (std::thread::id is opaque).
int CurrentTid() {
  thread_local int tid = [] {
    State& s = GetState();
    std::lock_guard<std::mutex> lock(s.mu);
    return s.next_tid++;
  }();
  return tid;
}

Metric& GetMetric(std::string_view name, MetricKind kind) {
  State& s = GetState();
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.metrics.find(name);
  if (it == s.metrics.end()) {
    Metric m;
    m.kind = kind;
    switch (kind) {
      case MetricKind::kCounter: m.counter = std::make_unique<Counter>(); break;
      case MetricKind::kGauge: m.gauge = std::make_unique<Gauge>(); break;
      case MetricKind::kTimer: m.timer = std::make_unique<Timer>(); break;
      case MetricKind::kHistogram:
        m.histogram = std::make_unique<Histogram>();
        break;
    }
    it = s.metrics.emplace(std::string(name), std::move(m)).first;
  }
  DGNN_CHECK(it->second.kind == kind)
      << "telemetry metric '" << std::string(name) << "' registered as "
      << KindName(it->second.kind) << ", requested as " << KindName(kind);
  return it->second;
}

// Escaping and double formatting come from util/json.h (shared with the
// run log); metric/span names are plain identifiers but a hostile name
// must not produce invalid JSON.
using util::JsonDouble;
using util::JsonEscape;

util::Status WriteStringToFile(const std::string& path,
                               const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    return util::Status::NotFound("cannot open for writing: " + path);
  }
  out << content;
  if (!out.good()) return util::Status::Internal("write failed: " + path);
  return util::Status::Ok();
}

}  // namespace

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void SetEnabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

void Reset() {
  State& s = GetState();
  std::lock_guard<std::mutex> lock(s.mu);
  for (auto& [name, m] : s.metrics) {
    switch (m.kind) {
      case MetricKind::kCounter: m.counter->Zero(); break;
      case MetricKind::kGauge: m.gauge->Set(0.0); break;
      case MetricKind::kTimer: m.timer->Zero(); break;
      case MetricKind::kHistogram: m.histogram->Zero(); break;
    }
  }
  s.spans.clear();
  s.epoch = std::chrono::steady_clock::now();
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

double Histogram::BucketUpperBound(int i) {
  DGNN_CHECK_GE(i, 0);
  DGNN_CHECK_LT(i, kNumBuckets);
  return 1e-6 * static_cast<double>(int64_t{1} << i);
}

int Histogram::BucketIndex(double seconds) {
  for (int i = 0; i < kNumBuckets - 1; ++i) {
    if (seconds <= BucketUpperBound(i)) return i;
  }
  return kNumBuckets - 1;
}

void Histogram::Record(double seconds) {
  if (!(seconds >= 0.0)) seconds = 0.0;  // negatives and NaN clamp to 0
  const int b = BucketIndex(seconds);
  buckets_[static_cast<size_t>(b)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  const int64_t nanos = static_cast<int64_t>(
      std::min(seconds * 1e9, 9.2e18));  // clamp below INT64_MAX
  sum_nanos_.fetch_add(nanos, std::memory_order_relaxed);
  // Lock-free running min/max.
  int64_t cur = min_nanos_.load(std::memory_order_relaxed);
  while (nanos < cur && !min_nanos_.compare_exchange_weak(
                            cur, nanos, std::memory_order_relaxed)) {
  }
  cur = max_nanos_.load(std::memory_order_relaxed);
  while (nanos > cur && !max_nanos_.compare_exchange_weak(
                            cur, nanos, std::memory_order_relaxed)) {
  }
}

double Histogram::sum_seconds() const {
  return static_cast<double>(sum_nanos_.load(std::memory_order_relaxed)) *
         1e-9;
}

double Histogram::min_seconds() const {
  const int64_t v = min_nanos_.load(std::memory_order_relaxed);
  return v == INT64_MAX ? 0.0 : static_cast<double>(v) * 1e-9;
}

double Histogram::max_seconds() const {
  const int64_t v = max_nanos_.load(std::memory_order_relaxed);
  return v == INT64_MIN ? 0.0 : static_cast<double>(v) * 1e-9;
}

double Histogram::ApproxQuantileSeconds(double q) const {
  const Counts c = SnapshotCounts();
  if (c.count <= 0) return 0.0;
  return std::min(std::max(QuantileFromCounts(c, q), min_seconds()),
                  max_seconds());
}

Histogram::Counts Histogram::SnapshotCounts() const {
  Counts c;
  for (int i = 0; i < kNumBuckets; ++i) {
    c.buckets[i] = bucket_count(i);
    c.count += c.buckets[i];
  }
  c.sum_nanos = sum_nanos_.load(std::memory_order_relaxed);
  return c;
}

Histogram::Counts Histogram::SnapshotDelta(Counts* cursor) const {
  DGNN_CHECK(cursor != nullptr);
  const Counts now = SnapshotCounts();
  Counts delta;
  for (int i = 0; i < kNumBuckets; ++i) {
    delta.buckets[i] = now.buckets[i] - cursor->buckets[i];
    delta.count += delta.buckets[i];
  }
  delta.sum_nanos = now.sum_nanos - cursor->sum_nanos;
  *cursor = now;
  return delta;
}

double Histogram::QuantileFromCounts(const Counts& c, double q) {
  if (c.count <= 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const int64_t rank = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(q * static_cast<double>(c.count))));
  int64_t cumulative = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    cumulative += c.buckets[i];
    if (cumulative >= rank) return BucketUpperBound(i);
  }
  return BucketUpperBound(kNumBuckets - 1);
}

void Histogram::Zero() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_nanos_.store(0, std::memory_order_relaxed);
  min_nanos_.store(INT64_MAX, std::memory_order_relaxed);
  max_nanos_.store(INT64_MIN, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

Counter* GetCounter(std::string_view name) {
  return GetMetric(name, MetricKind::kCounter).counter.get();
}

Gauge* GetGauge(std::string_view name) {
  return GetMetric(name, MetricKind::kGauge).gauge.get();
}

Timer* GetTimer(std::string_view name) {
  return GetMetric(name, MetricKind::kTimer).timer.get();
}

Histogram* GetHistogram(std::string_view name) {
  return GetMetric(name, MetricKind::kHistogram).histogram.get();
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

ScopedSpan::ScopedSpan(const char* name, const char* category, Timer* timer)
    : name_(name),
      category_(category),
      timer_(timer),
      active_(Enabled()) {
  if (active_) start_ = std::chrono::steady_clock::now();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  const auto end = std::chrono::steady_clock::now();
  const int64_t dur_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_)
          .count();
  if (timer_ != nullptr) timer_->RecordNanos(dur_ns);
  const int tid = CurrentTid();
  State& s = GetState();
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.spans.size() >= kMaxTraceEvents) {
    // Registry lock is held; bump the drop counter without re-locking.
    auto it = s.metrics.find(std::string_view("telemetry.dropped_spans"));
    if (it == s.metrics.end()) {
      Metric m;
      m.kind = MetricKind::kCounter;
      m.counter = std::make_unique<Counter>();
      it = s.metrics.emplace("telemetry.dropped_spans", std::move(m)).first;
    }
    it->second.counter->Add(1);
    return;
  }
  SpanEvent ev;
  ev.name = name_;
  ev.category = category_;
  ev.ts_us = std::chrono::duration_cast<std::chrono::microseconds>(start_ -
                                                                   s.epoch)
                 .count();
  ev.dur_us = dur_ns / 1000;
  ev.tid = tid;
  s.spans.push_back(ev);
}

int64_t NumTraceEvents() {
  State& s = GetState();
  std::lock_guard<std::mutex> lock(s.mu);
  return static_cast<int64_t>(s.spans.size());
}

int64_t TraceNowMicros() {
  const auto now = std::chrono::steady_clock::now();
  State& s = GetState();
  std::lock_guard<std::mutex> lock(s.mu);
  return std::chrono::duration_cast<std::chrono::microseconds>(now - s.epoch)
      .count();
}

// ---------------------------------------------------------------------------
// JSON export
// ---------------------------------------------------------------------------

std::string MetricsJson() {
  State& s = GetState();
  std::lock_guard<std::mutex> lock(s.mu);
  std::string counters, gauges, timers, histograms;
  for (const auto& [name, m] : s.metrics) {
    const std::string key = "\"" + JsonEscape(name) + "\":";
    switch (m.kind) {
      case MetricKind::kCounter:
        if (!counters.empty()) counters += ',';
        counters += key + std::to_string(m.counter->value());
        break;
      case MetricKind::kGauge:
        if (!gauges.empty()) gauges += ',';
        gauges += key + JsonDouble(m.gauge->value());
        break;
      case MetricKind::kTimer:
        if (!timers.empty()) timers += ',';
        timers += key + "{\"count\":" + std::to_string(m.timer->count()) +
                  ",\"total_seconds\":" +
                  JsonDouble(m.timer->total_seconds()) + "}";
        break;
      case MetricKind::kHistogram: {
        if (!histograms.empty()) histograms += ',';
        const Histogram& h = *m.histogram;
        std::string buckets;
        for (int i = 0; i < Histogram::kNumBuckets; ++i) {
          const int64_t c = h.bucket_count(i);
          if (c == 0) continue;
          if (!buckets.empty()) buckets += ',';
          buckets += "{\"le\":" + JsonDouble(Histogram::BucketUpperBound(i)) +
                     ",\"count\":" + std::to_string(c) + "}";
        }
        histograms += key + "{\"count\":" + std::to_string(h.count()) +
                      ",\"sum_seconds\":" + JsonDouble(h.sum_seconds()) +
                      ",\"min_seconds\":" + JsonDouble(h.min_seconds()) +
                      ",\"max_seconds\":" + JsonDouble(h.max_seconds()) +
                      ",\"buckets\":[" + buckets + "]}";
        break;
      }
    }
  }
  return "{\"counters\":{" + counters + "},\"gauges\":{" + gauges +
         "},\"timers\":{" + timers + "},\"histograms\":{" + histograms +
         "}}";
}

std::string TraceJson() {
  State& s = GetState();
  std::lock_guard<std::mutex> lock(s.mu);
  std::string events;
  events.reserve(s.spans.size() * 96);
  for (const SpanEvent& ev : s.spans) {
    if (!events.empty()) events += ",\n";
    events += "{\"name\":\"" + JsonEscape(ev.name) + "\",\"cat\":\"" +
              JsonEscape(ev.category) +
              "\",\"ph\":\"X\",\"ts\":" + std::to_string(ev.ts_us) +
              ",\"dur\":" + std::to_string(ev.dur_us) +
              ",\"pid\":1,\"tid\":" + std::to_string(ev.tid) + "}";
  }
  return "{\"traceEvents\":[\n" + events +
         "\n],\"displayTimeUnit\":\"ms\"}\n";
}

util::Status WriteMetricsJson(const std::string& path) {
  return WriteStringToFile(path, MetricsJson());
}

util::Status WriteTraceJson(const std::string& path) {
  return WriteStringToFile(path, TraceJson());
}

}  // namespace dgnn::telemetry
