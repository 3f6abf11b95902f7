// Tests for the replayable request-trace format (serve/trace.h) and the
// open-loop replay harness (serve/replay.h): deterministic generation,
// bit-identical record -> replay -> re-record round trips at any worker
// count, shared-cursor dispatch around a slow answer, a corruption
// matrix in the serve_snapshot_test style (every tampered file must be
// rejected by the fully-validating reader), and failpoint-driven I/O
// failures.

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "graph/hetero_graph.h"
#include "models/bpr_mf.h"
#include "serve/engine.h"
#include "serve/replay.h"
#include "serve/snapshot.h"
#include "serve/trace.h"
#include "train/recommender.h"
#include "util/failpoint.h"
#include "util/fs.h"

namespace dgnn {
namespace {

using serve::ReplayConfig;
using serve::ReplayResult;
using serve::ScheduleConfig;
using serve::Trace;
using serve::TraceRecord;

std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

ScheduleConfig FastSchedule(int64_t n) {
  ScheduleConfig s;
  s.arrival = serve::ArrivalProcess::kPoisson;
  // High rate so replay-based tests spend microseconds, not seconds, on
  // the schedule.
  s.target_qps = 200000.0;
  s.num_requests = n;
  s.seed = 99;
  return s;
}

// Re-checksums a tampered serialization so corruption tests can reach
// the structural validators behind the checksum gate.
void FixChecksum(std::string* bytes) {
  const uint64_t sum =
      serve::internal::Fnv1a64(bytes->data(), bytes->size() - 8);
  std::memcpy(bytes->data() + bytes->size() - 8, &sum, 8);
}

// ----- generation ----------------------------------------------------------

TEST(TraceGenerate, DeterministicAcrossCalls) {
  const ScheduleConfig s = FastSchedule(500);
  const Trace a = serve::GenerateTrace(s, 60, 150, 10, 0.8);
  const Trace b = serve::GenerateTrace(s, 60, 150, 10, 0.8);
  EXPECT_EQ(serve::SerializeTrace(a), serve::SerializeTrace(b));

  ScheduleConfig other = s;
  other.seed = 100;
  const Trace c = serve::GenerateTrace(other, 60, 150, 10, 0.8);
  EXPECT_NE(serve::SerializeTrace(a), serve::SerializeTrace(c));
}

TEST(TraceGenerate, ArrivalsMonotoneForEveryProcess) {
  for (auto arrival :
       {serve::ArrivalProcess::kPoisson, serve::ArrivalProcess::kBurst,
        serve::ArrivalProcess::kDiurnal}) {
    ScheduleConfig s = FastSchedule(400);
    s.arrival = arrival;
    const Trace t = serve::GenerateTrace(s, 60, 150, 10, 0.8);
    ASSERT_EQ(t.records.size(), 400u);
    int64_t prev = 0;
    for (const TraceRecord& r : t.records) {
      EXPECT_GE(r.arrival_ns, prev);
      prev = r.arrival_ns;
    }
  }
}

TEST(TraceGenerate, ScheduleAveragesTargetRate) {
  // The burst and diurnal schedules are normalized so their
  // time-average matches target_qps; with 4000 requests the realized
  // rate should be within ~15%. The average only holds over whole
  // periods, so shrink the periods to fit several cycles inside the
  // trace's ~20ms span (4000 requests at 200k qps).
  for (auto arrival :
       {serve::ArrivalProcess::kPoisson, serve::ArrivalProcess::kBurst,
        serve::ArrivalProcess::kDiurnal}) {
    ScheduleConfig s = FastSchedule(4000);
    s.arrival = arrival;
    s.burst_period_s = 0.004;
    s.diurnal_period_s = 0.004;
    const Trace t = serve::GenerateTrace(s, 60, 150, 10, 0.8);
    const double span_s =
        static_cast<double>(t.records.back().arrival_ns) / 1e9;
    ASSERT_GT(span_s, 0.0);
    const double realized = static_cast<double>(t.records.size()) / span_s;
    EXPECT_NEAR(realized / s.target_qps, 1.0, 0.15)
        << "arrival process " << serve::ArrivalProcessName(arrival);
  }
}

TEST(TraceGenerate, ParseArrivalProcessRejectsUnknown) {
  EXPECT_TRUE(serve::ParseArrivalProcess("poisson").ok());
  EXPECT_TRUE(serve::ParseArrivalProcess("burst").ok());
  EXPECT_TRUE(serve::ParseArrivalProcess("diurnal").ok());
  EXPECT_FALSE(serve::ParseArrivalProcess("uniform").ok());
  EXPECT_FALSE(serve::ParseArrivalProcess("").ok());
}

// ----- file round trip ------------------------------------------------------

TEST(TraceIo, RoundTripIsBitIdentical) {
  const Trace trace = serve::GenerateTrace(FastSchedule(300), 60, 150, 10,
                                           0.8);
  const std::string path = TestPath("trace_roundtrip.trc");
  ASSERT_TRUE(serve::WriteTrace(trace, path).ok());

  auto read = serve::ReadTrace(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().seed, trace.seed);
  ASSERT_EQ(read.value().records.size(), trace.records.size());
  EXPECT_TRUE(read.value().records == trace.records);
  // Re-serializing the read trace reproduces the file byte for byte.
  EXPECT_EQ(serve::SerializeTrace(read.value()),
            serve::SerializeTrace(trace));
}

TEST(TraceIo, EmptyTraceRoundTrips) {
  Trace trace;
  trace.seed = 7;
  const std::string path = TestPath("trace_empty.trc");
  ASSERT_TRUE(serve::WriteTrace(trace, path).ok());
  auto read = serve::ReadTrace(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().seed, 7u);
  EXPECT_TRUE(read.value().records.empty());
}

// ----- corruption matrix ----------------------------------------------------

class TraceCorruptionTest : public ::testing::Test {
 protected:
  TraceCorruptionTest()
      : trace_(serve::GenerateTrace(FastSchedule(50), 60, 150, 10, 0.8)),
        bytes_(serve::SerializeTrace(trace_)) {}

  // Writes raw bytes and expects ReadTrace to reject them.
  void ExpectRejected(const std::string& bytes, const char* what) {
    const std::string path = TestPath("trace_corrupt.trc");
    ASSERT_TRUE(fs::AtomicWriteFile(path, bytes).ok());
    EXPECT_FALSE(serve::ReadTrace(path).ok()) << what;
  }

  Trace trace_;
  std::string bytes_;
};

TEST_F(TraceCorruptionTest, ValidBaselinePasses) {
  const std::string path = TestPath("trace_corrupt.trc");
  ASSERT_TRUE(fs::AtomicWriteFile(path, bytes_).ok());
  EXPECT_TRUE(serve::ReadTrace(path).ok());
}

TEST_F(TraceCorruptionTest, WrongMagicRejected) {
  std::string bad = bytes_;
  bad[0] = 'X';
  ExpectRejected(bad, "wrong magic");
}

TEST_F(TraceCorruptionTest, TruncationRejectedAtEveryBoundary) {
  // Header cut, mid-record cut, checksum cut.
  for (size_t cut : {size_t{4}, size_t{16}, size_t{24 + 10},
                     bytes_.size() - 8, bytes_.size() - 1}) {
    ExpectRejected(bytes_.substr(0, cut), "truncated file");
  }
}

TEST_F(TraceCorruptionTest, BitFlipAnywhereRejected) {
  // Flip one bit in the header, one in a record payload, one in the
  // checksum itself.
  for (size_t pos : {size_t{9}, bytes_.size() / 2, bytes_.size() - 3}) {
    std::string bad = bytes_;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x10);
    ExpectRejected(bad, "bit flip");
  }
}

TEST_F(TraceCorruptionTest, TrailingGarbageRejected) {
  ExpectRejected(bytes_ + std::string(7, '\0'), "trailing garbage");
}

TEST_F(TraceCorruptionTest, CountMismatchRejected) {
  // Claim one more record than the file holds; checksum fixed so the
  // length validator (not the checksum) must catch it.
  std::string bad = bytes_;
  uint64_t count = 0;
  std::memcpy(&count, bad.data() + 16, 8);
  ++count;
  std::memcpy(bad.data() + 16, &count, 8);
  FixChecksum(&bad);
  ExpectRejected(bad, "count mismatch");
}

TEST_F(TraceCorruptionTest, NonMonotoneArrivalRejected) {
  // Swap the arrival times of records 0 and 1 (record 1's arrival goes
  // backwards); checksum fixed so the monotonicity validator must fire.
  ASSERT_GE(trace_.records.size(), 2u);
  ASSERT_NE(trace_.records[0].arrival_ns, trace_.records[1].arrival_ns);
  std::string bad = bytes_;
  char tmp[8];
  std::memcpy(tmp, bad.data() + 24, 8);
  std::memmove(bad.data() + 24, bad.data() + 24 + 21, 8);
  std::memcpy(bad.data() + 24 + 21, tmp, 8);
  FixChecksum(&bad);
  ExpectRejected(bad, "non-monotone arrivals");
}

TEST_F(TraceCorruptionTest, InvalidTypeRejected) {
  std::string bad = bytes_;
  bad[24 + 8] = 7;  // record 0's type byte
  FixChecksum(&bad);
  ExpectRejected(bad, "invalid request type");
}

TEST_F(TraceCorruptionTest, NegativeFieldRejected) {
  std::string bad = bytes_;
  const int32_t neg = -5;
  std::memcpy(bad.data() + 24 + 9, &neg, 4);  // record 0's user
  FixChecksum(&bad);
  ExpectRejected(bad, "negative user id");
}

// ----- failpoint-driven I/O failures ---------------------------------------

TEST(TraceIoFailpoints, WriteAndReadFailuresSurface) {
  const Trace trace =
      serve::GenerateTrace(FastSchedule(20), 60, 150, 10, 0.8);
  const std::string path = TestPath("trace_failpoint.trc");

  ASSERT_TRUE(failpoint::Configure("fs.open=error").ok());
  EXPECT_FALSE(serve::WriteTrace(trace, path).ok());
  failpoint::Clear();

  ASSERT_TRUE(serve::WriteTrace(trace, path).ok());
  ASSERT_TRUE(failpoint::Configure("fs.read=error").ok());
  EXPECT_FALSE(serve::ReadTrace(path).ok());
  failpoint::Clear();

  // A failed rewrite must leave the previous file intact (atomic
  // temp+rename contract).
  Trace other = trace;
  other.seed ^= 1;
  ASSERT_TRUE(failpoint::Configure("fs.rename=error").ok());
  EXPECT_FALSE(serve::WriteTrace(other, path).ok());
  failpoint::Clear();
  auto read = serve::ReadTrace(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().seed, trace.seed);
}

// ----- replay ---------------------------------------------------------------

class TraceReplayTest : public ::testing::Test {
 protected:
  TraceReplayTest()
      : dataset_(data::GenerateSynthetic(data::SyntheticConfig::Tiny())),
        graph_(dataset_),
        model_(graph_, 8, 5),
        recommender_(model_, dataset_) {}

  std::unique_ptr<serve::ServingEngine> MakeEngine(
      serve::EngineConfig config = {}) {
    auto engine = std::make_unique<serve::ServingEngine>(config);
    engine->Swap(std::make_shared<const serve::Snapshot>(
        serve::BuildSnapshot(recommender_, dataset_, "BPR-MF", "trace")));
    return engine;
  }

  data::Dataset dataset_;
  graph::HeteroGraph graph_;
  models::BprMf model_;
  train::Recommender recommender_;
};

TEST_F(TraceReplayTest, RecordReplayReRecordBitIdenticalAtAnyWorkerCount) {
  // The acceptance property: replaying a recorded trace — at ANY worker
  // count — consumes exactly the recorded request stream and never
  // perturbs the trace itself. Record, replay with 1/2/4 workers,
  // re-read and re-serialize after each replay: bytes never change, and
  // the engine saw exactly the traced requests each time.
  const Trace trace = serve::GenerateTrace(FastSchedule(200),
                                           dataset_.num_users,
                                           dataset_.num_items, 10, 0.8);
  const std::string path = TestPath("trace_replay.trc");
  ASSERT_TRUE(serve::WriteTrace(trace, path).ok());
  const std::string original_bytes = serve::SerializeTrace(trace);

  for (int workers : {1, 2, 4}) {
    auto read = serve::ReadTrace(path);
    ASSERT_TRUE(read.ok()) << read.status().ToString();

    auto engine = MakeEngine();
    ReplayConfig rc;
    rc.workers = workers;
    const ReplayResult result =
        serve::ReplayTrace(*engine, read.value().records, rc);

    EXPECT_EQ(result.requests, static_cast<int64_t>(trace.records.size()));
    EXPECT_EQ(result.ok + result.shed + result.expired + result.failed,
              result.requests);
    EXPECT_EQ(engine->stats().requests,
              static_cast<int64_t>(trace.records.size()));
    // Re-record: the trace that went through replay serializes to the
    // exact original bytes.
    EXPECT_EQ(serve::SerializeTrace(read.value()), original_bytes)
        << "workers=" << workers;
    auto reread = serve::ReadTrace(path);
    ASSERT_TRUE(reread.ok());
    EXPECT_EQ(serve::SerializeTrace(reread.value()), original_bytes);
  }
}

TEST_F(TraceReplayTest, LatencyMeasuredFromScheduledArrival) {
  // Two requests scheduled at t=0 dispatched by ONE worker: the second
  // cannot be sent before the first completes, and its latency must
  // include that wait (coordinated-omission safety). With an injected
  // 30 ms serve delay, the second request's latency is >= 60 ms from
  // its scheduled arrival; a send-time measurement would report ~30 ms.
  Trace trace;
  for (int i = 0; i < 2; ++i) {
    TraceRecord r;
    r.arrival_ns = 0;
    r.type = 0;
    r.user = 1;
    r.k = 5;
    trace.records.push_back(r);
  }
  auto engine = MakeEngine();
  ASSERT_TRUE(failpoint::Configure("serve.execute=delay:30").ok());
  ReplayConfig rc;
  rc.workers = 1;
  const ReplayResult result =
      serve::ReplayTrace(*engine, trace.records, rc);
  failpoint::Clear();
  EXPECT_EQ(result.requests, 2);
  // max latency covers both serialized delays; p50 (the faster request)
  // covers at least one.
  EXPECT_GE(result.max_ms, 55.0);
  EXPECT_GE(result.p50_ms, 25.0);
  EXPECT_GE(result.late_dispatches, 1);
}

TEST(TraceReplay, SlowAnswerDoesNotMakeLaterRecordsLate) {
  // Two workers, 20 records 5 ms apart, and a handler that takes 100 ms
  // on record 0 only. While one worker waits for that answer the other
  // keeps taking records on time. Pinning record i to worker i % 2 would
  // make records 2, 4, ..., 18 late, record 2 by about 90 ms. Sleeps on
  // a busy host overshoot the 1 ms lateness threshold now and then, so
  // the bound is on the worst lag rather than on the late count.
  Trace trace;
  for (int i = 0; i < 20; ++i) {
    TraceRecord r;
    r.arrival_ns = int64_t{5000000} * i;
    r.type = 0;
    r.user = i;
    r.k = 5;
    trace.records.push_back(r);
  }
  ReplayConfig rc;
  rc.workers = 2;
  const ReplayResult result = serve::ReplayTrace(
      [](const serve::Request& req) {
        if (req.user == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
        serve::Response resp;
        resp.ok = true;
        return resp;
      },
      trace.records, rc);
  EXPECT_EQ(result.ok, 20);
  EXPECT_LT(result.max_lateness_ms, 50.0);
}

TEST_F(TraceReplayTest, OutcomeClassificationFollowsEngineContract) {
  // A deadline too short to survive an injected delay expires requests;
  // the replay classifies them by the engine's exact error strings.
  serve::EngineConfig config;
  config.default_deadline_ms = 1;
  auto engine = MakeEngine(config);
  Trace trace;
  for (int i = 0; i < 4; ++i) {
    TraceRecord r;
    r.arrival_ns = 0;
    r.type = 0;
    r.user = 1;
    r.k = 5;
    trace.records.push_back(r);
  }
  ASSERT_TRUE(failpoint::Configure("serve.execute=delay:10").ok());
  ReplayConfig rc;
  rc.workers = 1;
  const ReplayResult result =
      serve::ReplayTrace(*engine, trace.records, rc);
  failpoint::Clear();
  EXPECT_EQ(result.requests, 4);
  EXPECT_EQ(result.ok + result.shed + result.expired + result.failed, 4);
  // With a 1 ms deadline and 10 ms serialized delays, at least the tail
  // requests expire at admission.
  EXPECT_GT(result.expired, 0);
}

TEST_F(TraceReplayTest, EmptyTraceYieldsZeroResult) {
  auto engine = MakeEngine();
  const ReplayResult result =
      serve::ReplayTrace(*engine, {}, ReplayConfig{});
  EXPECT_EQ(result.requests, 0);
  EXPECT_EQ(result.p99_ms, 0.0);
}

}  // namespace
}  // namespace dgnn
