// Tests for the serving observability plane: windowed statistics
// (quantiles vs exact sorted-sample answers, ring eviction, SLO burn
// accounting), per-request stage tracing (trace-id uniqueness and stage
// monotonicity under concurrent clients — the TSan job runs this suite
// too), stage attribution under an injected serve.execute delay, and the
// stats exposition payloads (JSON validity through the real parser,
// Prometheus round-trip, corrupted-payload rejection).

#include <algorithm>
#include <cmath>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "graph/hetero_graph.h"
#include "models/bpr_mf.h"
#include "serve/engine.h"
#include "serve/observe.h"
#include "serve/snapshot.h"
#include "train/recommender.h"
#include "util/failpoint.h"
#include "util/json.h"
#include "util/telemetry.h"
#include "util/windowed_stats.h"

namespace dgnn {
namespace {

using serve::Request;
using serve::RequestTrace;
using serve::Response;
using serve::ServingEngine;
using serve::Snapshot;
using telemetry::Histogram;
using telemetry::WindowedStats;

// Nearest-rank quantile over a sorted sample — the ground truth the
// bucketed window quantiles are checked against (same contract as
// telemetry_test.cc).
double ExactQuantile(const std::vector<double>& sorted, double q) {
  const auto n = static_cast<double>(sorted.size());
  const auto rank =
      std::max<int64_t>(1, static_cast<int64_t>(std::ceil(q * n)));
  return sorted[static_cast<size_t>(rank - 1)];
}

// ----- WindowedStats --------------------------------------------------------

TEST(WindowedStatsTest, WindowQuantilesWithinBucketOfExact) {
  Histogram hist;
  std::vector<double> samples;
  double v = 3e-6;
  for (int i = 0; i < 500; ++i) {
    samples.push_back(v);
    hist.Record(v);
    v *= 1.018;  // spans several powers-of-two buckets
  }
  std::sort(samples.begin(), samples.end());

  WindowedStats windows{WindowedStats::Config{}};
  WindowedStats::Sample tick;
  tick.requests = tick.ok = static_cast<int64_t>(samples.size());
  tick.latency = hist.SnapshotCounts();
  windows.Push(tick);

  const WindowedStats::WindowAggregate agg = windows.Aggregate(1);
  const struct { double q; double got_ms; } checks[] = {
      {0.50, agg.p50_ms}, {0.95, agg.p95_ms}, {0.99, agg.p99_ms}};
  for (const auto& c : checks) {
    const double exact_ms = ExactQuantile(samples, c.q) * 1e3;
    // The window answer is a bucket upper bound: >= the exact value and
    // < 2x it (power-of-two buckets).
    EXPECT_GE(c.got_ms, exact_ms * (1.0 - 1e-9) - 1e-9) << "q=" << c.q;
    EXPECT_LT(c.got_ms, 2.0 * exact_ms) << "q=" << c.q;
  }
  // Mean is exact up to the nanosecond storage granularity.
  double sum = 0;
  for (double s : samples) sum += s;
  EXPECT_NEAR(agg.mean_ms, sum / samples.size() * 1e3, 1e-3);
}

TEST(WindowedStatsTest, AggregateMergesNewestTicksAndRingEvicts) {
  WindowedStats::Config config;
  config.capacity = 4;
  WindowedStats windows{config};
  for (int i = 1; i <= 10; ++i) {
    WindowedStats::Sample tick;
    tick.requests = tick.ok = i;
    tick.queue_depth = i;
    windows.Push(tick);
  }
  EXPECT_EQ(windows.total_ticks(), 10);
  // Newest 2 ticks: requests 9 + 10.
  const auto two = windows.Aggregate(2);
  EXPECT_EQ(two.ticks, 2);
  EXPECT_EQ(two.requests, 19);
  EXPECT_EQ(two.queue_depth, 10);  // instantaneous gauge, newest wins
  // Everything retained is capacity-bounded: ticks 7..10.
  const auto all = windows.Aggregate(0);
  EXPECT_EQ(all.ticks, 4);
  EXPECT_EQ(all.requests, 7 + 8 + 9 + 10);
  // Asking for more than retained degrades to what the ring holds.
  EXPECT_EQ(windows.Aggregate(60).ticks, 4);
}

TEST(WindowedStatsTest, SloBurnCountersSurviveWraparound) {
  WindowedStats::Config config;
  config.capacity = 3;
  config.slo_p99_ms = 1.0;        // any tick with p99 >= 1 ms violates
  config.slo_availability = 0.9;  // any tick under 90% ok violates
  WindowedStats windows{config};
  Histogram slow;
  slow.Record(0.010);  // 10 ms — over the 1 ms SLO
  for (int i = 0; i < 8; ++i) {
    WindowedStats::Sample tick;
    tick.requests = 10;
    tick.ok = (i % 2 == 0) ? 10 : 5;  // odd ticks: 50% availability
    tick.latency = slow.SnapshotCounts();
    windows.Push(tick);
  }
  // Every tick violates p99; every odd tick violates availability. The
  // cumulative counters cover all 8 ticks even though only 3 are
  // retained in the ring.
  EXPECT_EQ(windows.total_ticks(), 8);
  EXPECT_EQ(windows.total_p99_violations(), 8);
  EXPECT_EQ(windows.total_availability_violations(), 4);
  const auto all = windows.Aggregate(0);
  EXPECT_EQ(all.ticks, 3);
  EXPECT_EQ(all.p99_violations, 3);
}

TEST(WindowedStatsTest, IdleWindowReportsFullAvailability) {
  WindowedStats windows{WindowedStats::Config{}};
  WindowedStats::Sample idle;
  idle.requests = 0;
  windows.Push(idle);
  const auto agg = windows.Aggregate(1);
  EXPECT_EQ(agg.requests, 0);
  EXPECT_DOUBLE_EQ(agg.availability, 1.0);
  EXPECT_DOUBLE_EQ(agg.qps, 0.0);
  EXPECT_DOUBLE_EQ(agg.p99_ms, 0.0);
}

// ----- engine tracing -------------------------------------------------------

class ObservabilityEngineTest : public ::testing::Test {
 protected:
  ObservabilityEngineTest()
      : dataset_(data::GenerateSynthetic(data::SyntheticConfig::Tiny())),
        graph_(dataset_),
        model_(graph_, 8, 5),
        recommender_(model_, dataset_),
        snapshot_(std::make_shared<const Snapshot>(serve::BuildSnapshot(
            recommender_, dataset_, "BPR-MF", "observability-test"))) {}

  static Request TopKRequest(int32_t user, int k) {
    Request r;
    r.type = Request::Type::kTopK;
    r.user = user;
    r.k = k;
    return r;
  }

  data::Dataset dataset_;
  graph::HeteroGraph graph_;
  models::BprMf model_;
  train::Recommender recommender_;
  std::shared_ptr<const Snapshot> snapshot_;
};

TEST_F(ObservabilityEngineTest,
       TraceIdsUniqueAndStagesMonotoneAcrossThreads) {
  for (int clients : {1, 2, 7}) {
    ServingEngine engine;
    engine.Swap(snapshot_);
    std::mutex mu;
    std::vector<RequestTrace> traces;
    engine.SetTraceSink([&](const RequestTrace& t) {
      std::lock_guard<std::mutex> lock(mu);
      traces.push_back(t);
    });
    constexpr int kPerClient = 40;
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (int i = 0; i < kPerClient; ++i) {
          const auto user = static_cast<int32_t>(
              (c * kPerClient + i) % dataset_.num_users);
          const Response resp = engine.Handle(TopKRequest(user, 5));
          ASSERT_TRUE(resp.ok);
          EXPECT_GT(resp.trace_id, 0);
        }
      });
    }
    for (auto& t : threads) t.join();

    ASSERT_EQ(traces.size(), static_cast<size_t>(clients * kPerClient))
        << "clients " << clients;
    std::vector<int64_t> ids;
    for (const RequestTrace& t : traces) {
      ids.push_back(t.trace_id);
      // Stages are non-negative and their sum never exceeds the
      // end-to-end latency (all stamped off one monotonic clock).
      EXPECT_GE(t.queue_seconds, 0.0);
      EXPECT_GE(t.recal_seconds, 0.0);
      EXPECT_GE(t.compute_seconds, 0.0);
      EXPECT_GE(t.rank_seconds, 0.0);
      EXPECT_GE(t.reply_seconds, 0.0);
      const double stage_sum = t.queue_seconds + t.recal_seconds +
                               t.compute_seconds + t.rank_seconds +
                               t.reply_seconds;
      EXPECT_LE(stage_sum, t.total_seconds * (1.0 + 1e-9) + 1e-9);
      EXPECT_GE(t.total_seconds, 0.0);
      EXPECT_GE(t.ts_us, 0);
      EXPECT_STREQ(t.outcome, "ok");
    }
    std::sort(ids.begin(), ids.end());
    EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end())
        << "duplicate trace id with " << clients << " clients";
  }
}

TEST_F(ObservabilityEngineTest, InjectedExecuteDelayLandsInQueueStage) {
  ASSERT_TRUE(failpoint::Configure("serve.execute=delay:60").ok());
  ServingEngine engine;
  engine.Swap(snapshot_);
  std::mutex mu;
  std::vector<RequestTrace> traces;
  engine.SetTraceSink([&](const RequestTrace& t) {
    std::lock_guard<std::mutex> lock(mu);
    traces.push_back(t);
  });
  const Response resp = engine.Handle(TopKRequest(0, 5));
  failpoint::Clear();
  ASSERT_TRUE(resp.ok);
  ASSERT_EQ(traces.size(), 1u);
  const RequestTrace& t = traces[0];
  // The injected 60 ms sleep happens before execution starts, so it is
  // attributed to the queue stage — and the stage sum still reconciles
  // with the end-to-end latency.
  EXPECT_GE(t.queue_seconds, 0.050);
  EXPECT_GE(t.total_seconds, t.queue_seconds);
  const double stage_sum = t.queue_seconds + t.recal_seconds +
                           t.compute_seconds + t.rank_seconds +
                           t.reply_seconds;
  EXPECT_LE(stage_sum, t.total_seconds * (1.0 + 1e-9));
  EXPECT_GE(stage_sum, 0.8 * t.total_seconds);  // nothing unattributed
}

// Routed serving fetches every known user's scoring vector through
// kUserVector, so that op's time must land in the recal stage as topk's
// does, not in a remainder no stage names.
TEST_F(ObservabilityEngineTest, UserVectorTimeLandsInRecalStage) {
  ServingEngine engine;
  engine.Swap(snapshot_);
  std::vector<RequestTrace> traces;
  engine.SetTraceSink([&](const RequestTrace& t) { traces.push_back(t); });
  Request r;
  r.type = Request::Type::kUserVector;
  r.user = 0;
  const Response resp = engine.Handle(r);
  ASSERT_TRUE(resp.ok);
  ASSERT_FALSE(resp.vector.empty());
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_GT(traces[0].recal_seconds, 0.0);
}

TEST_F(ObservabilityEngineTest, SampleOnceAccountsOutcomes) {
  ServingEngine engine;
  engine.Swap(snapshot_);
  engine.SetTraceSink([](const RequestTrace&) {});
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(engine.Handle(TopKRequest(i, 5)).ok);
  }
  ASSERT_TRUE(failpoint::Configure("serve.execute=error").ok());
  for (int i = 0; i < 2; ++i) {
    EXPECT_FALSE(engine.Handle(TopKRequest(i, 5)).ok);
  }
  failpoint::Clear();
  engine.SampleOnceForTest(1.0);
  const auto agg = engine.windows().Aggregate(1);
  EXPECT_EQ(agg.requests, 6);
  EXPECT_EQ(agg.ok, 4);
  EXPECT_EQ(agg.failed, 2);
  EXPECT_NEAR(agg.availability, 4.0 / 6.0, 1e-12);
  EXPECT_GT(agg.p99_ms, 0.0);  // ok requests recorded latency
  EXPECT_EQ(engine.stats().failed_requests, 2);
}

// ----- exposition -----------------------------------------------------------

TEST_F(ObservabilityEngineTest, StatsJsonValidatesAndPromRoundTrips) {
  ServingEngine engine;
  engine.Swap(snapshot_);
  engine.SetTraceSink([](const RequestTrace&) {});
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(engine.Handle(TopKRequest(i, 5)).ok);
  }
  engine.SampleOnceForTest(1.0);

  const std::string stats = serve::observe::StatsJson(engine);
  ASSERT_TRUE(serve::observe::ValidateStatsJson(stats).ok())
      << serve::observe::ValidateStatsJson(stats).ToString();
  // Through the real parser: the flat counters and windows must agree
  // with the engine.
  auto parsed = util::ParseJson(stats);
  ASSERT_TRUE(parsed.ok());
  const util::JsonValue& v = parsed.value();
  EXPECT_EQ(v.NumberOr("requests", -1), 5.0);
  const util::JsonValue* windows = v.Find("windows");
  ASSERT_NE(windows, nullptr);
  const util::JsonValue* w1s = windows->Find("1s");
  ASSERT_NE(w1s, nullptr);
  EXPECT_EQ(w1s->NumberOr("requests", -1), 5.0);
  EXPECT_EQ(w1s->NumberOr("availability", -1), 1.0);

  auto prom = serve::observe::PromTextFromStatsJson(stats);
  ASSERT_TRUE(prom.ok());
  const std::string& text = prom.value();
  EXPECT_NE(text.find("# TYPE dgnn_serve_requests_total counter\n"
                      "dgnn_serve_requests_total 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("dgnn_serve_window_qps{window=\"1s\"}"),
            std::string::npos);
  EXPECT_NE(text.find("dgnn_serve_slo_ticks_total 1"), std::string::npos);
}

TEST(ObservabilityExpositionTest, CorruptedStatsPayloadsAreRejected) {
  const char* bad[] = {
      "",                        // empty
      "not json",                // unparseable
      "[1,2,3]",                 // not an object
      "{\"requests\": \"x\"}",   // wrong type
      "{\"requests\": 1}",       // missing the other counters
  };
  for (const char* payload : bad) {
    EXPECT_FALSE(serve::observe::ValidateStatsJson(payload).ok())
        << "payload: " << payload;
    EXPECT_FALSE(serve::observe::PromTextFromStatsJson(payload).ok())
        << "payload: " << payload;
  }
  // A valid payload with windows but a truncated window set also fails.
  EXPECT_FALSE(
      serve::observe::ValidateStatsJson(
          "{\"requests\":0,\"snapshot_swaps\":0,"
          "\"degraded_requests\":0,\"shed_requests\":0,"
          "\"expired_requests\":0,\"failed_requests\":0,"
          "\"windows\":{},\"slo\":{}}")
          .ok());
}

}  // namespace
}  // namespace dgnn
