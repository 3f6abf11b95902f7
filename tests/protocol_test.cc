// The client NDJSON protocol (serve/protocol.h) against a scripted
// backend: every response line is compared byte for byte with a golden
// line, so dgnn_serve, dgnn_router and the shard socket — which all
// answer through this module — cannot drift apart unnoticed.

#include "serve/protocol.h"

#include <atomic>
#include <csignal>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/json.h"

namespace dgnn {
namespace {

using serve::Request;
using serve::Response;

// Answers from a scripted response and records every request it saw.
// Thread-safe, so burst can drive it from many threads.
class FakeBackend : public serve::Backend {
 public:
  Response Handle(const Request& request) override {
    const int call = calls.fetch_add(1);
    std::lock_guard<std::mutex> lock(mu);
    requests.push_back(request);
    if (!burst_outcomes) return next;
    // Burst mode: cycle through the four outcomes burst reports.
    Response r;
    r.trace_id = call + 1;
    switch (call % 4) {
      case 0: r.ok = true; break;
      case 1: r.error = "overloaded"; break;
      case 2: r.error = "deadline exceeded"; break;
      default: r.error = "no snapshot loaded"; break;
    }
    return r;
  }
  util::StatusOr<int64_t> Swap(const std::string& path) override {
    if (path == "bad.snap") {
      return util::Status::InvalidArgument("bad.snap: checksum mismatch");
    }
    return ++version;
  }
  std::string Stats() override {
    return "{\"ok\":true,\"op\":\"stats\",\"requests\":4}";
  }
  bool HandleOp(const util::JsonValue& req, const std::string& op,
                std::string* out) override {
    if (op == "burst") {
      *out = serve::RunBurst(*this, req);
      return true;
    }
    if (op == "term") {  // a SIGTERM that lands while a request is served
      std::raise(SIGTERM);
      *out = "{\"ok\":true,\"op\":\"term\"}";
      return true;
    }
    return false;
  }

  Response next;
  bool burst_outcomes = false;
  int64_t version = 1;
  std::atomic<int> calls{0};
  std::mutex mu;
  std::vector<Request> requests;
};

Response TopKAnswer() {
  Response r;
  r.ok = true;
  r.trace_id = 1;
  r.snapshot_version = 1;
  r.items = {{57, 2.5f}, {40, 1.25f}, {3, 0.1f}};
  return r;
}

class ProtocolTest : public ::testing::Test {
 protected:
  std::string Ask(const std::string& line) {
    return serve::HandleLine(backend_, line);
  }
  FakeBackend backend_;
};

TEST_F(ProtocolTest, TopKLineIsGolden) {
  backend_.next = TopKAnswer();
  EXPECT_EQ(Ask(R"({"op":"topk","user":3,"k":3})"),
            R"({"ok":true,"op":"topk","user":3,"trace_id":1,)"
            R"("degraded":false,"snapshot_version":1,"k":3,"items":[)"
            R"({"item":57,"score":2.5},{"item":40,"score":1.25},)"
            R"({"item":3,"score":0.10000000149011612}]})");
  ASSERT_EQ(backend_.requests.size(), 1u);
  const Request& got = backend_.requests[0];
  EXPECT_EQ(got.type, Request::Type::kTopK);
  EXPECT_EQ(got.user, 3);
  EXPECT_EQ(got.k, 3);
  EXPECT_EQ(got.item, -1);
  EXPECT_EQ(got.timeout_ms, 0);
}

TEST_F(ProtocolTest, ScoreAndSimilarUsersLinesAreGolden) {
  Response score;
  score.ok = true;
  score.trace_id = 2;
  score.snapshot_version = 1;
  score.score = 0.75f;
  backend_.next = score;
  EXPECT_EQ(Ask(R"({"op":"score","user":3,"item":7,"deadline_ms":-1})"),
            R"({"ok":true,"op":"score","user":3,"trace_id":2,)"
            R"("degraded":false,"snapshot_version":1,"item":7,"score":0.75})");
  EXPECT_EQ(backend_.requests.back().type, Request::Type::kScore);
  EXPECT_EQ(backend_.requests.back().timeout_ms, -1);

  Response similar;
  similar.ok = true;
  similar.trace_id = 3;
  similar.snapshot_version = 2;
  similar.degraded = true;
  similar.items = {{11, 0.5f}};
  backend_.next = similar;
  EXPECT_EQ(Ask(R"({"op":"similar_users","user":999,"k":1})"),
            R"({"ok":true,"op":"similar_users","user":999,"trace_id":3,)"
            R"("degraded":true,"snapshot_version":2,"k":1,)"
            R"("items":[{"item":11,"score":0.5}]})");
  EXPECT_EQ(backend_.requests.back().type, Request::Type::kSimilarUsers);
  // Absent fields keep the client defaults.
  Ask(R"({"op":"similar_users"})");
  EXPECT_EQ(backend_.requests.back().user, -1);
  EXPECT_EQ(backend_.requests.back().k, 10);
}

TEST_F(ProtocolTest, MissingShardsFollowItemsOnlyWhenNonEmpty) {
  Response partial = TopKAnswer();
  partial.degraded = true;
  partial.items.resize(1);
  partial.missing_shards = {0, 2};
  backend_.next = partial;
  EXPECT_EQ(Ask(R"({"op":"topk","user":3,"k":1})"),
            R"({"ok":true,"op":"topk","user":3,"trace_id":1,)"
            R"("degraded":true,"snapshot_version":1,"k":1,)"
            R"("items":[{"item":57,"score":2.5}],"missing_shards":[0,2]})");
  backend_.next = TopKAnswer();
  EXPECT_EQ(Ask(R"({"op":"topk","user":3,"k":3})").find("missing_shards"),
            std::string::npos);
}

TEST_F(ProtocolTest, BackendRefusalCarriesTraceId) {
  Response shed;
  shed.error = "overloaded";
  shed.trace_id = 9;
  backend_.next = shed;
  EXPECT_EQ(Ask(R"({"op":"topk","user":3,"k":5})"),
            R"({"ok":false,"error":"overloaded","trace_id":9})");
}

TEST_F(ProtocolTest, RefusedLines) {
  const std::string bad = Ask(R"({"op":)");
  EXPECT_EQ(bad.rfind(R"({"ok":false,"error":"request is not valid JSON: )",
                      0),
            0u)
      << bad;
  EXPECT_EQ(Ask(R"({"op":"frobnicate"})"),
            R"({"ok":false,"error":"unknown op 'frobnicate'"})");
  EXPECT_EQ(Ask("[1,2]"), R"({"ok":false,"error":"unknown op ''"})");
  // A socket connection cannot end the process.
  EXPECT_EQ(Ask(R"({"op":"quit"})"),
            R"({"ok":false,"error":"unknown op 'quit'"})");
  EXPECT_EQ(backend_.calls.load(), 0);
}

TEST_F(ProtocolTest, SwapAndStatsGoThroughTheBackend) {
  EXPECT_EQ(Ask(R"({"op":"swap","snapshot":"next.snap"})"),
            R"({"ok":true,"op":"swap","snapshot_version":2})");
  EXPECT_EQ(Ask(R"({"op":"swap","snapshot":"bad.snap"})"),
            R"({"ok":false,"error":"InvalidArgument: bad.snap: )"
            R"(checksum mismatch"})");
  EXPECT_EQ(Ask(R"({"op":"swap"})"),
            R"({"ok":false,"error":"swap requires a \"snapshot\" path"})");
  EXPECT_EQ(Ask(R"({"op":"stats"})"),
            R"({"ok":true,"op":"stats","requests":4})");
}

TEST_F(ProtocolTest, OutOfRangeFieldsAreRefusedBeforeTheBackend) {
  EXPECT_EQ(Ask(R"({"op":"topk","user":1e10,"k":3})"),
            R"({"ok":false,"error":"\"user\" must be in )"
            R"([-2147483648, 2147483647]"})");
  EXPECT_EQ(Ask(R"({"op":"topk","user":3,"k":1e10})"),
            R"({"ok":false,"error":"\"k\" must be in )"
            R"([-2147483648, 2147483647]"})");
  EXPECT_EQ(Ask(R"({"op":"score","user":3,"item":-3e9})"),
            R"({"ok":false,"error":"\"item\" must be in )"
            R"([-2147483648, 2147483647]"})");
  EXPECT_EQ(Ask(R"({"op":"topk","user":3,"deadline_ms":1e13})"),
            R"({"ok":false,"error":"\"deadline_ms\" must be in )"
            R"([-86400000, 86400000]"})");
  EXPECT_EQ(Ask(R"({"op":"topk","user":3,"deadline_ms":-1e300})"),
            R"({"ok":false,"error":"\"deadline_ms\" must be in )"
            R"([-86400000, 86400000]"})");
  EXPECT_EQ(backend_.calls.load(), 0);

  // The bounds themselves are served; k <= 0 is the backend's call.
  backend_.next = TopKAnswer();
  Ask(R"({"op":"topk","user":-2147483648,"k":0,"deadline_ms":86400000})");
  ASSERT_EQ(backend_.calls.load(), 1);
  EXPECT_EQ(backend_.requests[0].user, -2147483648);
  EXPECT_EQ(backend_.requests[0].k, 0);
  EXPECT_EQ(backend_.requests[0].timeout_ms, serve::kMaxDeadlineMs);
}

TEST_F(ProtocolTest, BurstIsCappedBeforeAnyThreadStarts) {
  backend_.burst_outcomes = true;
  EXPECT_EQ(Ask(R"({"op":"burst","n":257,"user":3,"k":5})"),
            R"({"ok":false,"error":"burst requires \"n\" in [1, 256]"})");
  EXPECT_EQ(Ask(R"({"op":"burst","n":0})"),
            R"({"ok":false,"error":"burst requires \"n\" in [1, 256]"})");
  EXPECT_EQ(Ask(R"({"op":"burst","n":1e300})"),
            R"({"ok":false,"error":"burst requires \"n\" in [1, 256]"})");
  EXPECT_EQ(Ask(R"({"op":"burst","n":4,"user":1e10})"),
            R"({"ok":false,"error":"\"user\" must be in )"
            R"([-2147483648, 2147483647]"})");
  EXPECT_EQ(backend_.calls.load(), 0);

  EXPECT_EQ(Ask(R"({"op":"burst","n":8,"user":3,"k":5,"deadline_ms":5})"),
            R"({"ok":true,"op":"burst","n":8,"completed":2,"shed":2,)"
            R"("expired":2,"failed":2})");
  ASSERT_EQ(backend_.requests.size(), 8u);
  for (const Request& r : backend_.requests) {
    EXPECT_EQ(r.type, Request::Type::kTopK);
    EXPECT_EQ(r.user, 3);
    EXPECT_EQ(r.k, 5);
    EXPECT_EQ(r.timeout_ms, 5);
  }
}

TEST_F(ProtocolTest, ServeLinesSkipsBlanksAndStopsAtQuit) {
  backend_.next = TopKAnswer();
  std::istringstream in(
      "\n"
      "{\"op\":\"topk\",\"user\":3,\"k\":3}\n"
      "not json\n"
      "{\"op\":\"quit\"}\n"
      "{\"op\":\"topk\",\"user\":4,\"k\":3}\n");
  std::ostringstream out;
  EXPECT_STREQ(serve::ServeLines(backend_, in, out), "quit");
  std::vector<std::string> lines;
  std::istringstream written(out.str());
  for (std::string l; std::getline(written, l);) lines.push_back(l);
  ASSERT_EQ(lines.size(), 3u) << out.str();
  EXPECT_EQ(lines[0].rfind(R"({"ok":true,"op":"topk","user":3,)", 0), 0u);
  EXPECT_EQ(lines[1].rfind(R"({"ok":false,"error":"request is not valid )",
                           0),
            0u);
  EXPECT_EQ(lines[2], R"({"ok":true,"op":"quit"})");
  EXPECT_EQ(backend_.calls.load(), 1);
}

TEST_F(ProtocolTest, ServeLinesEndsAtEofAndOnSignal) {
  std::istringstream eof_in("{\"op\":\"stats\"}\n");
  std::ostringstream eof_out;
  EXPECT_STREQ(serve::ServeLines(backend_, eof_in, eof_out), "eof");
  EXPECT_EQ(eof_out.str(), "{\"ok\":true,\"op\":\"stats\",\"requests\":4}\n");

  // The request being served when SIGTERM lands is answered; nothing
  // after it is read.
  std::istringstream sig_in(
      "{\"op\":\"term\"}\n"
      "{\"op\":\"stats\"}\n");
  std::ostringstream sig_out;
  EXPECT_STREQ(serve::ServeLines(backend_, sig_in, sig_out), "signal");
  EXPECT_EQ(sig_out.str(), "{\"ok\":true,\"op\":\"term\"}\n");
  // A later loop starts from a clean flag.
  std::istringstream again("{\"op\":\"stats\"}\n");
  std::ostringstream again_out;
  EXPECT_STREQ(serve::ServeLines(backend_, again, again_out), "eof");
}

TEST(ProtocolLines, ReplaySummaryIsGolden) {
  serve::ReplayResult r;
  r.requests = 10;
  r.seconds = 0.5;
  r.offered_qps = 20;
  r.achieved_qps = 18;
  r.p50_ms = 1.5;
  r.p95_ms = 2.5;
  r.p99_ms = 3;
  r.ok = 9;
  r.degraded = 1;
  r.shed = 1;
  r.late_dispatches = 2;
  r.distinct_trace_ids = 10;
  r.peak_rss_bytes = 4096;
  EXPECT_EQ(serve::ReplaySummary(r).Build(),
            R"({"ok":true,"op":"replay","requests":10,"seconds":0.5,)"
            R"("offered_qps":20,"achieved_qps":18,"p50_ms":1.5,)"
            R"("p95_ms":2.5,"p99_ms":3,"completed":9,"degraded":1,)"
            R"("shed":1,"expired":0,"failed":0,"late_dispatches":2,)"
            R"("distinct_trace_ids":10,"peak_rss_bytes":4096})");
}

TEST(ProtocolLines, ItemsJsonRoundTripsFloatsExactly) {
  EXPECT_EQ(serve::ItemsJson({}), "[]");
  EXPECT_EQ(serve::ItemsJson({{1, 1.0f / 3.0f}}),
            R"([{"item":1,"score":0.3333333432674408}])");
}

}  // namespace
}  // namespace dgnn
