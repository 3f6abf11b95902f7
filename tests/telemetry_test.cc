// Telemetry registry semantics: counter/gauge/timer/histogram recording,
// the disabled-path no-op guarantee, JSON export validity (checked with a
// real JSON parser below, not substring matching), and thread-safety of
// concurrent recording (run under TSan by ci/run_tsan.sh).

#include "util/telemetry.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace dgnn::telemetry {
namespace {

// ----- minimal JSON syntax checker -----------------------------------------
// Recursive-descent validator for the JSON grammar (objects, arrays,
// strings, numbers, true/false/null). Returns true iff the whole input is
// one valid JSON value. Enough to certify that the exported metrics and
// trace payloads parse.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') { ++pos_; return true; }
    for (;;) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') { ++pos_; return true; }
    for (;;) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const char* lit) {
    const size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  const std::string& s_;
  size_t pos_ = 0;
};

// Telemetry state is process-global; each test starts from a clean,
// enabled slate and leaves telemetry disabled for the suites that follow.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Reset();
    SetEnabled(true);
  }
  void TearDown() override {
    SetEnabled(false);
    Reset();
  }
};

TEST_F(TelemetryTest, CounterAccumulates) {
  Counter* c = GetCounter("test.counter");
  EXPECT_EQ(c->value(), 0);
  c->Add(1);
  c->Add(41);
  EXPECT_EQ(c->value(), 42);
}

TEST_F(TelemetryTest, RegistryReturnsStablePointers) {
  EXPECT_EQ(GetCounter("test.stable"), GetCounter("test.stable"));
  EXPECT_EQ(GetHistogram("test.stable_h"), GetHistogram("test.stable_h"));
  EXPECT_NE(static_cast<void*>(GetCounter("test.a")),
            static_cast<void*>(GetCounter("test.b")));
}

TEST_F(TelemetryTest, RegistryRejectsKindMismatch) {
  GetCounter("test.kind");
  EXPECT_DEATH(GetGauge("test.kind"), "registered as counter");
}

TEST_F(TelemetryTest, GaugeLastWriteWins) {
  Gauge* g = GetGauge("test.gauge");
  g->Set(1.5);
  g->Set(-2.25);
  EXPECT_DOUBLE_EQ(g->value(), -2.25);
}

TEST_F(TelemetryTest, TimerRecordsCountAndTotal) {
  Timer* t = GetTimer("test.timer");
  t->RecordNanos(500'000'000);
  t->RecordNanos(250'000'000);
  EXPECT_EQ(t->count(), 2);
  EXPECT_NEAR(t->total_seconds(), 0.75, 1e-9);
}

TEST_F(TelemetryTest, ScopedTimerRecordsOnce) {
  Timer* t = GetTimer("test.scoped_timer");
  { ScopedTimer st(t); }
  EXPECT_EQ(t->count(), 1);
  EXPECT_GE(t->total_seconds(), 0.0);
}

// ----- histogram semantics --------------------------------------------------

TEST_F(TelemetryTest, HistogramBucketLayoutIsFixedExponential) {
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperBound(0), 1e-6);
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperBound(1), 2e-6);
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperBound(10), 1024e-6);
  // Values at a bound land in that bucket; just above go one up.
  EXPECT_EQ(Histogram::BucketIndex(1e-6), 0);
  EXPECT_EQ(Histogram::BucketIndex(1.5e-6), 1);
  EXPECT_EQ(Histogram::BucketIndex(0.0), 0);
  // Overflow clamps to the last bucket.
  EXPECT_EQ(Histogram::BucketIndex(1e12), Histogram::kNumBuckets - 1);
}

TEST_F(TelemetryTest, HistogramRecordsCountSumMinMax) {
  Histogram* h = GetHistogram("test.hist");
  h->Record(0.001);
  h->Record(0.004);
  h->Record(0.016);
  EXPECT_EQ(h->count(), 3);
  EXPECT_NEAR(h->sum_seconds(), 0.021, 1e-6);
  EXPECT_NEAR(h->min_seconds(), 0.001, 1e-6);
  EXPECT_NEAR(h->max_seconds(), 0.016, 1e-6);
  // Each value lands in exactly one bucket; totals match the count.
  int64_t bucket_total = 0;
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    bucket_total += h->bucket_count(i);
  }
  EXPECT_EQ(bucket_total, 3);
  EXPECT_EQ(h->bucket_count(Histogram::BucketIndex(0.001)), 1);
}

TEST_F(TelemetryTest, HistogramEmptyReportsZeros) {
  Histogram* h = GetHistogram("test.hist_empty");
  EXPECT_EQ(h->count(), 0);
  EXPECT_DOUBLE_EQ(h->min_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(h->max_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(h->ApproxQuantileSeconds(0.5), 0.0);
}

TEST_F(TelemetryTest, HistogramApproxQuantiles) {
  Histogram* h = GetHistogram("test.hist_quantiles");
  // 100 values in the 0.001-second bucket, 1 outlier at ~0.1 s: p50/p95
  // read the common bucket's upper bound, p99+ reaches the outlier's.
  for (int i = 0; i < 100; ++i) h->Record(0.0009);
  h->Record(0.09);
  const double common = Histogram::BucketUpperBound(Histogram::BucketIndex(0.0009));
  const double tail = Histogram::BucketUpperBound(Histogram::BucketIndex(0.09));
  EXPECT_DOUBLE_EQ(h->ApproxQuantileSeconds(0.50), common);
  EXPECT_DOUBLE_EQ(h->ApproxQuantileSeconds(0.95), common);
  EXPECT_DOUBLE_EQ(h->ApproxQuantileSeconds(1.0), h->max_seconds());
  EXPECT_GE(h->ApproxQuantileSeconds(0.999), common);
  EXPECT_LE(h->ApproxQuantileSeconds(0.999), tail);
  // Quantiles are monotone in q and clamped into [min, max].
  EXPECT_LE(h->ApproxQuantileSeconds(0.5), h->ApproxQuantileSeconds(0.999));
  EXPECT_GE(h->ApproxQuantileSeconds(0.0), h->min_seconds());
  // A single-value histogram reports that value's bucket, clamped to max.
  Histogram* one = GetHistogram("test.hist_one");
  one->Record(0.003);
  EXPECT_DOUBLE_EQ(one->ApproxQuantileSeconds(0.5), one->max_seconds());
}

// Exact nearest-rank quantile of a sorted sample: sorted[ceil(q*n)-1]
// with the same rank-1 floor the histogram uses.
double ExactQuantile(const std::vector<double>& sorted, double q) {
  const auto n = static_cast<double>(sorted.size());
  const auto rank = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(q * n)));
  return sorted[static_cast<size_t>(rank - 1)];
}

TEST_F(TelemetryTest, HistogramQuantileWithinBucketOfExact) {
  // Against the exact sorted-sample quantile, the bucket quantile is
  // sandwiched by its own resolution guarantee: buckets double, so the
  // reported upper bound is >= the exact value and < 2x it. Clamping
  // into [min, max] (ApproxQuantileSeconds) only ever moves it closer.
  Histogram* h = GetHistogram("test.hist_vs_exact");
  std::vector<double> samples;
  uint64_t lcg = 12345;
  for (int i = 0; i < 2000; ++i) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    // Spread across ~4 decades: 1e-5 .. 1e-1 seconds.
    const double u = static_cast<double>(lcg >> 11) /
                     static_cast<double>(1ULL << 53);
    samples.push_back(1e-5 * std::pow(10.0, 4.0 * u));
  }
  for (double s : samples) h->Record(s);
  std::sort(samples.begin(), samples.end());

  const Histogram::Counts counts = h->SnapshotCounts();
  for (double q : {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0}) {
    const double exact = ExactQuantile(samples, q);
    const double bucket = Histogram::QuantileFromCounts(counts, q);
    EXPECT_GE(bucket, exact) << "q=" << q;
    EXPECT_LT(bucket, 2.0 * exact) << "q=" << q;
    const double approx = h->ApproxQuantileSeconds(q);
    // min/max are kept as integer nanoseconds, so the clamp can sit one
    // nanosecond below the exact double value.
    EXPECT_GE(approx, exact * (1.0 - 1e-9) - 1e-9) << "q=" << q;
    EXPECT_LE(approx, bucket) << "q=" << q;
  }
}

TEST_F(TelemetryTest, HistogramQuantileEmptyAndSingleSample) {
  Histogram* empty = GetHistogram("test.hist_q_empty");
  for (double q : {0.0, 0.5, 1.0}) {
    EXPECT_DOUBLE_EQ(empty->ApproxQuantileSeconds(q), 0.0);
  }

  // One sample: min == max == the value, so every quantile clamps to it
  // exactly — no bucket rounding visible.
  Histogram* single = GetHistogram("test.hist_q_single");
  single->Record(0.0042);
  for (double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(single->ApproxQuantileSeconds(q), 0.0042) << "q=" << q;
  }
}

TEST_F(TelemetryTest, HistogramQuantileAllSamplesInOneBucket) {
  // Values 1.5ms..1.9ms all land in the (1.024ms, 2.048ms] bucket; the
  // bucket upper bound exceeds the observed max, so every quantile
  // clamps to max_seconds() — the tightest answer the data supports.
  Histogram* h = GetHistogram("test.hist_q_onebucket");
  ASSERT_EQ(Histogram::BucketIndex(0.0015), Histogram::BucketIndex(0.0019));
  for (int i = 0; i < 50; ++i) {
    h->Record(0.0015 + 1e-5 * static_cast<double>(i % 5));
  }
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h->ApproxQuantileSeconds(q), h->max_seconds())
        << "q=" << q;
  }
}

TEST_F(TelemetryTest, HistogramSnapshotDeltaPartitionsRecords) {
  Histogram* h = GetHistogram("test.hist_delta");
  Histogram::Counts cursor;
  // A fresh cursor yields everything recorded so far.
  h->Record(1e-5);
  h->Record(3e-5);
  Histogram::Counts first = h->SnapshotDelta(&cursor);
  EXPECT_EQ(first.count, 2);
  // Nothing new: the delta is empty.
  EXPECT_EQ(h->SnapshotDelta(&cursor).count, 0);
  // Later records land in the next delta exactly once.
  h->Record(2e-4);
  Histogram::Counts second = h->SnapshotDelta(&cursor);
  EXPECT_EQ(second.count, 1);
  EXPECT_EQ(second.sum_nanos, 200000);
  // Deltas partition the stream: merged, they equal the full snapshot.
  const Histogram::Counts all = h->SnapshotCounts();
  int64_t merged = 0;
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    merged += first.buckets[i] + second.buckets[i];
  }
  EXPECT_EQ(merged, all.count);
  EXPECT_EQ(first.count + second.count, all.count);
}

TEST_F(TelemetryTest, QuantileFromCountsMatchesBucketContract) {
  Histogram* h = GetHistogram("test.hist_counts_q");
  std::vector<double> samples;
  for (int i = 1; i <= 400; ++i) {
    const double v = 1e-5 * static_cast<double>(i * i % 971 + 1);
    samples.push_back(v);
    h->Record(v);
  }
  std::sort(samples.begin(), samples.end());
  const Histogram::Counts counts = h->SnapshotCounts();
  EXPECT_EQ(counts.count, 400);
  for (double q : {0.5, 0.9, 0.99}) {
    const double exact = ExactQuantile(samples, q);
    const double approx = Histogram::QuantileFromCounts(counts, q);
    EXPECT_GE(approx, exact * (1.0 - 1e-9) - 1e-9) << "q=" << q;
    EXPECT_LT(approx, 2.0 * exact) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(
      Histogram::QuantileFromCounts(Histogram::Counts{}, 0.99), 0.0);
}

// ----- disabled path is a no-op ---------------------------------------------

TEST_F(TelemetryTest, DisabledScopedHelpersRecordNothing) {
  Timer* t = GetTimer("test.disabled_timer");
  Histogram* h = GetHistogram("test.disabled_hist");
  const int64_t spans_before = NumTraceEvents();
  SetEnabled(false);
  {
    ScopedTimer st(t);
    ScopedLatency sl(h);
    ScopedSpan span("noop", "test");
  }
  SetEnabled(true);
  EXPECT_EQ(t->count(), 0);
  EXPECT_EQ(h->count(), 0);
  EXPECT_EQ(NumTraceEvents(), spans_before);
}

TEST_F(TelemetryTest, EnabledScopedSpanBuffersOneEvent) {
  const int64_t before = NumTraceEvents();
  { ScopedSpan span("work", "test"); }
  EXPECT_EQ(NumTraceEvents(), before + 1);
}

// ----- JSON export ----------------------------------------------------------

TEST_F(TelemetryTest, MetricsJsonIsValidAndComplete) {
  GetCounter("test.json_counter")->Add(7);
  GetGauge("test.json_gauge")->Set(0.5);
  GetTimer("test.json_timer")->RecordNanos(1000);
  GetHistogram("test.json_hist")->Record(0.002);
  const std::string json = MetricsJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"test.json_counter\":7"), std::string::npos);
  EXPECT_NE(json.find("\"test.json_gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json_timer\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json_hist\""), std::string::npos);
}

TEST_F(TelemetryTest, TraceJsonIsValidChromeFormat) {
  { ScopedSpan a("alpha", "cat_a"); }
  { ScopedSpan b("beta", "cat_b"); }
  const std::string json = TraceJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST_F(TelemetryTest, MetricNamesAreEscapedInJson) {
  GetCounter("test.\"quoted\"\nname")->Add(1);
  const std::string json = MetricsJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
}

TEST_F(TelemetryTest, ResetZeroesValuesButKeepsRegistrations) {
  Counter* c = GetCounter("test.reset");
  c->Add(5);
  { ScopedSpan span("gone", "test"); }
  // The span-overflow counter is registry-managed like any other metric;
  // Reset must zero it too (documented in telemetry.h), or a long-lived
  // process would report drops from runs before the Reset.
  Counter* dropped = GetCounter("telemetry.dropped_spans");
  dropped->Add(7);
  Reset();
  EXPECT_EQ(c->value(), 0);
  EXPECT_EQ(GetCounter("test.reset"), c);
  EXPECT_EQ(NumTraceEvents(), 0);
  EXPECT_EQ(dropped->value(), 0);
  EXPECT_EQ(GetCounter("telemetry.dropped_spans"), dropped);
}

// ----- concurrency (TSan-covered via ci/run_tsan.sh) ------------------------

TEST_F(TelemetryTest, ConcurrentRecordingIsExactAndRaceFree) {
  constexpr int kThreads = 8;
  constexpr int kIters = 10'000;
  Counter* c = GetCounter("test.concurrent_counter");
  Histogram* h = GetHistogram("test.concurrent_hist");
  Timer* t = GetTimer("test.concurrent_timer");
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      for (int j = 0; j < kIters; ++j) {
        c->Add(1);
        h->Record(1e-6 * (i + 1));
        t->RecordNanos(10);
      }
      ScopedSpan span("thread_done", "test");
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c->value(), kThreads * kIters);
  EXPECT_EQ(h->count(), kThreads * kIters);
  EXPECT_EQ(t->count(), kThreads * kIters);
  int64_t bucket_total = 0;
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    bucket_total += h->bucket_count(i);
  }
  EXPECT_EQ(bucket_total, kThreads * kIters);
  const std::string json = MetricsJson();
  EXPECT_TRUE(JsonChecker(json).Valid());
}

}  // namespace
}  // namespace dgnn::telemetry
