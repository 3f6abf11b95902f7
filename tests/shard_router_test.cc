// End-to-end tests for the fault-tolerant router: real ShardService
// workers behind real Unix-socket SocketServers, a real Router
// scatter/gathering across them. Covers full-fleet bit-parity with the
// single-process engine, the kill-one-shard matrix (degraded:true with
// correct missing-shard attribution, popularity failover for a down
// user shard, hard failure only when every shard is gone, probe-driven
// recovery after restart), retry/hedging behavior under failpoints and
// a straggling worker, the two-phase coordinated swap (commit everywhere
// / abort everywhere), out-of-range numbers in shard answers, and the
// drain barrier.

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "graph/hetero_graph.h"
#include "models/bpr_mf.h"
#include "serve/engine.h"
#include "serve/snapshot.h"
#include "shard/partition.h"
#include "shard/router.h"
#include "shard/shard_service.h"
#include "shard/transport.h"
#include "train/recommender.h"
#include "util/failpoint.h"

namespace dgnn {
namespace {

using serve::Request;
using serve::Response;
using serve::ServingEngine;
using serve::Snapshot;

std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

constexpr int kNumShards = 3;

// One in-process shard worker: engine + service + socket server, the
// exact wiring dgnn_serve --listen uses.
struct Worker {
  std::unique_ptr<ServingEngine> engine;
  std::unique_ptr<shard::ShardService> service;
  std::unique_ptr<shard::SocketServer> server;
  std::string snapshot_path;
  std::string socket_path;

  void Serve() {
    server = std::make_unique<shard::SocketServer>();
    ASSERT_TRUE(server
                    ->Start(socket_path,
                            [this](const std::string& line) {
                              return service->HandleLine(line);
                            })
                    .ok());
  }
  void Kill() { server->Stop(); }
};

class ShardRouterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoint::Clear();
    dataset_ = std::make_unique<data::Dataset>(
        data::GenerateSynthetic(data::SyntheticConfig::Tiny()));
    graph_ = std::make_unique<graph::HeteroGraph>(*dataset_);
    model_ = std::make_unique<models::BprMf>(*graph_, 8, 5);
    recommender_ =
        std::make_unique<train::Recommender>(*model_, *dataset_);
    full_ = serve::BuildSnapshot(*recommender_, *dataset_, "BPR-MF",
                                 "router-test");
    single_ = std::make_unique<ServingEngine>();
    single_->Swap(std::make_shared<const Snapshot>(full_));

    base_path_ = TestPath("router_fleet.snap");
    ASSERT_TRUE(serve::WriteSnapshot(full_, base_path_).ok());
    ASSERT_TRUE(
        shard::WriteShardSnapshots(full_, base_path_, kNumShards, 42)
            .ok());
    for (int s = 0; s < kNumShards; ++s) {
      auto w = std::make_unique<Worker>();
      w->snapshot_path =
          serve::ShardSnapshotPath(base_path_, s, kNumShards);
      w->socket_path =
          TestPath("router_s" + std::to_string(s) + ".sock");
      w->engine = std::make_unique<ServingEngine>();
      ASSERT_TRUE(w->engine->Load(w->snapshot_path).ok());
      w->service = std::make_unique<shard::ShardService>(
          *w->engine, w->snapshot_path);
      w->Serve();
      workers_.push_back(std::move(w));
    }
  }

  void TearDown() override {
    failpoint::Clear();
    router_.reset();
    for (auto& w : workers_) w->Kill();
  }

  shard::RouterConfig FastConfig() {
    shard::RouterConfig c;
    for (const auto& w : workers_) {
      c.shard_paths.push_back(w->socket_path);
    }
    c.connect_timeout_ms = 250;
    c.shard_timeout_ms = 2000;
    c.probe_timeout_ms = 250;
    c.probe_interval_ms = 20;
    c.default_deadline_ms = 5000;
    c.retries = 2;
    return c;
  }

  void StartRouter(shard::RouterConfig config) {
    router_ = std::make_unique<shard::Router>(std::move(config));
    util::Status s = router_->Start();
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  // First user the ring assigns to `shard` — every kill test needs a
  // victim whose owner is (or is not) the dead worker.
  int32_t UserOwnedBy(int shard) {
    for (int32_t u = 0; u < full_.meta.num_users; ++u) {
      if (router_->OwnerShard(u) == shard) return u;
    }
    ADD_FAILURE() << "no user owned by shard " << shard;
    return 0;
  }

  void WaitForState(int shard, shard::HealthState want) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      if (router_->ShardStatuses()[static_cast<size_t>(shard)].state ==
          want) {
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    FAIL() << "shard " << shard << " never reached state "
           << shard::HealthStateName(want);
  }

  static void ExpectBitIdentical(const Response& want,
                                 const Response& got) {
    ASSERT_TRUE(want.ok);
    ASSERT_TRUE(got.ok);
    ASSERT_EQ(want.items.size(), got.items.size());
    for (size_t i = 0; i < want.items.size(); ++i) {
      EXPECT_EQ(want.items[i].item, got.items[i].item) << "rank " << i;
      EXPECT_EQ(std::memcmp(&want.items[i].score, &got.items[i].score,
                            sizeof(float)),
                0)
          << "rank " << i;
    }
  }

  Response SingleTopK(int32_t user, int k) {
    Request r;
    r.type = Request::Type::kTopK;
    r.user = user;
    r.k = k;
    return single_->Handle(r);
  }

  std::unique_ptr<data::Dataset> dataset_;
  std::unique_ptr<graph::HeteroGraph> graph_;
  std::unique_ptr<models::BprMf> model_;
  std::unique_ptr<train::Recommender> recommender_;
  Snapshot full_;
  std::unique_ptr<ServingEngine> single_;
  std::string base_path_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::unique_ptr<shard::Router> router_;
};

// ----- fleet admission ------------------------------------------------------

TEST_F(ShardRouterTest, StartRefusesSocketsOutOfShardOrder) {
  shard::RouterConfig c = FastConfig();
  std::swap(c.shard_paths[0], c.shard_paths[2]);
  shard::Router router(std::move(c));
  util::Status s = router.Start();
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("shard-index order"), std::string::npos)
      << s.ToString();
}

TEST_F(ShardRouterTest, StartRefusesMissingWorker) {
  shard::RouterConfig c = FastConfig();
  c.shard_paths[1] = TestPath("router_nobody_home.sock");
  c.connect_timeout_ms = 100;
  shard::Router router(std::move(c));
  EXPECT_FALSE(router.Start().ok());
}

// ----- full-fleet parity ----------------------------------------------------

TEST_F(ShardRouterTest, TopKBitIdenticalToSingleProcess) {
  StartRouter(FastConfig());
  for (int32_t user = 0; user < full_.meta.num_users; ++user) {
    const Response got = router_->TopK(user, 10);
    EXPECT_TRUE(got.missing_shards.empty());
    EXPECT_FALSE(got.degraded);
    ExpectBitIdentical(SingleTopK(user, 10), got);
  }
}

TEST_F(ShardRouterTest, ScoreAndSimilarUsersMatchSingleProcess) {
  StartRouter(FastConfig());
  for (int32_t user = 0; user < 8; ++user) {
    Request sr;
    sr.type = Request::Type::kScore;
    sr.user = user;
    sr.item = 42;
    const Response want = single_->Handle(sr);
    const Response got = router_->Score(user, 42);
    ASSERT_TRUE(want.ok);
    ASSERT_TRUE(got.ok);
    EXPECT_EQ(std::memcmp(&want.score, &got.score, sizeof(float)), 0);

    Request su;
    su.type = Request::Type::kSimilarUsers;
    su.user = user;
    su.k = 5;
    ExpectBitIdentical(single_->Handle(su),
                       router_->SimilarUsers(user, 5));
  }
}

TEST_F(ShardRouterTest, UnknownUserDegradesToPopularityEverywhere) {
  StartRouter(FastConfig());
  const auto unknown = static_cast<int32_t>(full_.meta.num_users + 3);
  const Response want = SingleTopK(unknown, 10);
  ASSERT_TRUE(want.degraded);
  const Response got = router_->TopK(unknown, 10);
  EXPECT_TRUE(got.degraded);
  // A cold user is a degradation but NOT a shard failure: full fleet,
  // nothing missing, and the exact popularity order of the single
  // process.
  EXPECT_TRUE(got.missing_shards.empty());
  ExpectBitIdentical(want, got);
}

// ----- kill-one-shard matrix ------------------------------------------------

TEST_F(ShardRouterTest, DeadItemShardYieldsDegradedWithAttribution) {
  StartRouter(FastConfig());
  // Victim shard 2 is an item shard for this user but not their owner.
  const int32_t user = UserOwnedBy(0);
  workers_[2]->Kill();

  const auto t0 = std::chrono::steady_clock::now();
  const Response got = router_->TopK(user, 10);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(elapsed, 8.0) << "kill must degrade, not hang";

  ASSERT_TRUE(got.ok) << got.error;
  EXPECT_TRUE(got.degraded);
  ASSERT_EQ(got.missing_shards.size(), 1u);
  EXPECT_EQ(got.missing_shards[0], 2);
  // Every returned item lives OUTSIDE the dead shard's range, and the
  // surviving slices still rank bit-identically to the single process
  // with shard 2's items deleted.
  Response want = SingleTopK(user, 10);
  const auto dead = workers_[2]->engine->snapshot()->shard;
  std::vector<serve::ScoredItem> filtered;
  Request full_req;
  full_req.type = Request::Type::kTopK;
  full_req.user = user;
  full_req.k = 10 + static_cast<int>(dead.item_end - dead.item_begin);
  const Response wide = single_->Handle(full_req);
  for (const auto& it : wide.items) {
    if (it.item < dead.item_begin || it.item >= dead.item_end) {
      filtered.push_back(it);
    }
    if (filtered.size() == 10u) break;
  }
  ASSERT_EQ(got.items.size(), filtered.size());
  for (size_t i = 0; i < filtered.size(); ++i) {
    EXPECT_EQ(got.items[i].item, filtered[i].item);
    EXPECT_EQ(std::memcmp(&got.items[i].score, &filtered[i].score,
                          sizeof(float)),
              0);
  }
  EXPECT_GE(router_->counters().degraded_responses, 1);
}

TEST_F(ShardRouterTest, DeadUserShardFailsOverToPopularity) {
  StartRouter(FastConfig());
  const int32_t user = UserOwnedBy(1);
  workers_[1]->Kill();

  const Response got = router_->TopK(user, 10);
  ASSERT_TRUE(got.ok) << got.error;
  EXPECT_TRUE(got.degraded);
  // The owner is named missing even though the answer substitutes
  // popularity rather than dropping items.
  ASSERT_FALSE(got.missing_shards.empty());
  EXPECT_EQ(got.missing_shards[0], 1);
  EXPECT_FALSE(got.items.empty());
  EXPECT_GE(router_->counters().failovers, 1);
}

TEST_F(ShardRouterTest, DeadShardScoreDegradesToNeutral) {
  StartRouter(FastConfig());
  const int32_t user = UserOwnedBy(2);
  workers_[2]->Kill();
  const Response got = router_->Score(user, 3);
  ASSERT_TRUE(got.ok);
  EXPECT_TRUE(got.degraded);
  EXPECT_EQ(got.score, 0.0f);
  ASSERT_FALSE(got.missing_shards.empty());
  EXPECT_EQ(got.missing_shards[0], 2);
}

TEST_F(ShardRouterTest, AllShardsDownFailsInsteadOfDegrading) {
  shard::RouterConfig c = FastConfig();
  c.default_deadline_ms = 1500;
  StartRouter(std::move(c));
  for (auto& w : workers_) w->Kill();
  const Response got = router_->TopK(3, 10);
  EXPECT_FALSE(got.ok);
  EXPECT_FALSE(got.error.empty());
}

TEST_F(ShardRouterTest, ProbesTakeDeadShardDownAndRecoverAfterRestart) {
  StartRouter(FastConfig());
  workers_[2]->Kill();
  WaitForState(2, shard::HealthState::kDown);

  // While down, dispatches short-circuit: still degraded, still fast.
  const Response during = router_->TopK(UserOwnedBy(0), 10);
  ASSERT_TRUE(during.ok);
  EXPECT_TRUE(during.degraded);

  // Restart the worker on the same socket; the probe loop must re-admit
  // it (down -> degraded on first good probe, never straight healthy)
  // and full-fleet answers must be bit-identical again.
  workers_[2]->Serve();
  WaitForState(2, shard::HealthState::kDegraded);
  const int32_t user = UserOwnedBy(0);
  const Response after = router_->TopK(user, 10);
  ASSERT_TRUE(after.ok);
  EXPECT_TRUE(after.missing_shards.empty());
  ExpectBitIdentical(SingleTopK(user, 10), after);
}

// ----- retries / hedging ----------------------------------------------------

TEST_F(ShardRouterTest, TransientDispatchErrorIsRetried) {
  StartRouter(FastConfig());
  ASSERT_TRUE(failpoint::Configure("shard.dispatch=once").ok());
  const int32_t user = UserOwnedBy(0);
  const Response got = router_->TopK(user, 10);
  ASSERT_TRUE(got.ok) << got.error;
  EXPECT_TRUE(got.missing_shards.empty());
  ExpectBitIdentical(SingleTopK(user, 10), got);
  EXPECT_GE(router_->counters().retries, 1);
}

TEST_F(ShardRouterTest, HedgedFleetStillBitIdentical) {
  shard::RouterConfig c = FastConfig();
  c.hedge_ms = 1;  // hedge aggressively; results must not change
  StartRouter(std::move(c));
  for (int32_t user = 0; user < 10; ++user) {
    ExpectBitIdentical(SingleTopK(user, 10), router_->TopK(user, 10));
  }
}

TEST_F(ShardRouterTest, MaxInflightShedsInsteadOfQueueing) {
  shard::RouterConfig c = FastConfig();
  c.max_inflight = 1;
  StartRouter(std::move(c));
  // Saturate the single slot from many threads; at least one op must be
  // shed with the PR-5 "overloaded" contract (and none may hang).
  std::vector<Response> responses(16);
  std::vector<std::thread> threads;
  for (int i = 0; i < 16; ++i) {
    threads.emplace_back([this, &responses, i] {
      responses[static_cast<size_t>(i)] = router_->TopK(i % 8, 10);
    });
  }
  for (auto& t : threads) t.join();
  int64_t shed = 0;
  for (const auto& r : responses) {
    if (!r.ok && r.error == "overloaded") ++shed;
  }
  EXPECT_EQ(shed, router_->counters().shed);
}

TEST_F(ShardRouterTest, HedgedOpLeavesNothingRunningBehindIt) {
  // Worker 0 sleeps 300 ms on its first topk_partial line; the 20 ms
  // hedge answers on a second connection and the slow one is closed, so
  // a drain right after the op has nothing to wait for.
  std::atomic<bool> slept{false};
  Worker& w = *workers_[0];
  w.Kill();
  w.server = std::make_unique<shard::SocketServer>();
  ASSERT_TRUE(w.server
                  ->Start(w.socket_path,
                          [&](const std::string& line) {
                            if (line.find("topk_partial") !=
                                    std::string::npos &&
                                !slept.exchange(true)) {
                              std::this_thread::sleep_for(
                                  std::chrono::milliseconds(300));
                            }
                            return w.service->HandleLine(line);
                          })
                  .ok());
  shard::RouterConfig c = FastConfig();
  c.hedge_ms = 20;
  StartRouter(std::move(c));
  const int32_t user = UserOwnedBy(1);
  ExpectBitIdentical(SingleTopK(user, 10), router_->TopK(user, 10));
  EXPECT_TRUE(slept.load());
  EXPECT_GE(router_->counters().hedges, 1);
  const auto t0 = std::chrono::steady_clock::now();
  router_->BeginDrain();
  const std::chrono::duration<double, std::milli> drain =
      std::chrono::steady_clock::now() - t0;
  EXPECT_LT(drain.count(), 100.0);
  router_.reset();
  w.Kill();  // waits out the sleeping handler before `slept` goes
}

// ----- two-phase coordinated swap -------------------------------------------

TEST_F(ShardRouterTest, CoordinatedSwapCommitsOnEveryShard) {
  StartRouter(FastConfig());
  // Second export under a different prefix (same content is fine — the
  // point is the fleet-wide version bump).
  const std::string next = TestPath("router_fleet_v2.snap");
  ASSERT_TRUE(
      shard::WriteShardSnapshots(full_, next, kNumShards, 42).ok());
  auto version = router_->CoordinatedSwap(next);
  ASSERT_TRUE(version.ok()) << version.status().ToString();
  for (const auto& w : workers_) {
    EXPECT_EQ(w->engine->swap_count(), 2);  // initial load + commit
    EXPECT_FALSE(w->service->has_staged());
  }
  // The fleet still answers bit-identically on the new snapshot.
  const int32_t user = UserOwnedBy(0);
  ExpectBitIdentical(SingleTopK(user, 10), router_->TopK(user, 10));
}

TEST_F(ShardRouterTest, PrepareFailureAbortsOnEveryShard) {
  StartRouter(FastConfig());
  const std::string next = TestPath("router_fleet_v3.snap");
  ASSERT_TRUE(
      shard::WriteShardSnapshots(full_, next, kNumShards, 42).ok());
  // One prepare RPC fails -> the whole swap must abort everywhere: no
  // staged snapshots anywhere, no engine swaps anywhere.
  ASSERT_TRUE(failpoint::Configure("shard.swap=once").ok());
  auto version = router_->CoordinatedSwap(next);
  EXPECT_FALSE(version.ok());
  EXPECT_NE(version.status().ToString().find("aborted"),
            std::string::npos)
      << version.status().ToString();
  for (const auto& w : workers_) {
    EXPECT_FALSE(w->service->has_staged());
    EXPECT_EQ(w->engine->swap_count(), 1);
  }
}

TEST_F(ShardRouterTest, PrepareRejectsCorruptSliceAndAbortsFleet) {
  StartRouter(FastConfig());
  const std::string next = TestPath("router_fleet_v4.snap");
  ASSERT_TRUE(
      shard::WriteShardSnapshots(full_, next, kNumShards, 42).ok());
  // Truncate shard 1's slice: its prepare must fail validation, and the
  // router must abort the stage on shards 0 and 2.
  const std::string victim =
      serve::ShardSnapshotPath(next, 1, kNumShards);
  {
    std::ofstream f(victim, std::ios::trunc | std::ios::binary);
    f << "DGNNSNP1 but not really";
  }
  auto version = router_->CoordinatedSwap(next);
  EXPECT_FALSE(version.ok());
  for (const auto& w : workers_) {
    EXPECT_FALSE(w->service->has_staged());
    EXPECT_EQ(w->engine->swap_count(), 1);
  }
}

// ----- drain ----------------------------------------------------------------

TEST_F(ShardRouterTest, DrainWaitsOutInflightOpsThenStops) {
  StartRouter(FastConfig());
  std::atomic<int> done{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([this, &done, i] {
      const Response r = router_->TopK(i, 10);
      if (r.ok) done.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  router_->BeginDrain();
  EXPECT_EQ(done.load(), 8);
  router_->Stop();  // idempotent after drain
}

TEST_F(ShardRouterTest, WorkerDrainAbortsStagedSwap) {
  StartRouter(FastConfig());
  // Stage (prepare) directly on worker 0 without committing, then run
  // the worker's drain path: the staged snapshot must be dropped — a
  // SIGTERM mid-two-phase-swap leaves the fleet on the old version.
  const std::string next = TestPath("router_fleet_v5.snap");
  ASSERT_TRUE(
      shard::WriteShardSnapshots(full_, next, kNumShards, 42).ok());
  const std::string line =
      "{\"op\":\"swap_prepare\",\"prefix\":\"" + next +
      "\",\"token\":\"t1\"}";
  const std::string resp = workers_[0]->service->HandleLine(line);
  EXPECT_NE(resp.find("\"ok\":true"), std::string::npos) << resp;
  ASSERT_TRUE(workers_[0]->service->has_staged());
  EXPECT_TRUE(workers_[0]->service->AbortStagedSwap());
  EXPECT_FALSE(workers_[0]->service->has_staged());
  EXPECT_EQ(workers_[0]->engine->swap_count(), 1);
}

TEST_F(ShardRouterTest, HugeDefaultDeadlineIsCappedNotOverflowed) {
  // 1e13 ms past now() does not fit steady_clock; uncapped, the sum
  // wraps into the past and every op is refused on arrival.
  shard::RouterConfig c = FastConfig();
  c.default_deadline_ms = 10000000000000;
  StartRouter(std::move(c));
  const Response got = router_->TopK(0, 5);
  ASSERT_TRUE(got.ok) << got.error;
  ExpectBitIdentical(SingleTopK(0, 5), got);
}

// `line` with the value after the first "key": replaced by `value`.
std::string WithValue(std::string line, const std::string& key,
                      const std::string& value) {
  const size_t at = line.find("\"" + key + "\":");
  if (at == std::string::npos) return line;
  const size_t begin = at + key.size() + 3;
  const size_t end = line.find_first_of(",}", begin);
  return line.replace(begin, end - begin, value);
}

TEST_F(ShardRouterTest, OutOfRangeNumbersFromAShardAreMalformed) {
  // Worker 2 answers with numbers its fields' types cannot hold; the
  // router must count that shard missing, not narrow them.
  struct Mangle {
    const char* op;
    const char* key;
    const char* value;
  };
  const Mangle kCases[] = {
      {"topk_partial", "snapshot_version", "1e300"},
      {"topk_partial", "item", "1e10"},
      {"topk_partial", "score", "1e300"},
      {"user_vector", "norm", "1e300"},
  };
  std::atomic<const Mangle*> mangle{nullptr};
  Worker& w = *workers_[2];
  w.Kill();
  w.server = std::make_unique<shard::SocketServer>();
  ASSERT_TRUE(w.server
                  ->Start(w.socket_path,
                          [&](const std::string& line) {
                            std::string resp = w.service->HandleLine(line);
                            const Mangle* m = mangle.load();
                            if (m != nullptr &&
                                line.find(m->op) != std::string::npos) {
                              resp = WithValue(resp, m->key, m->value);
                            }
                            return resp;
                          })
                  .ok());
  StartRouter(FastConfig());
  const int32_t item_user = UserOwnedBy(0);
  ExpectBitIdentical(SingleTopK(item_user, 10), router_->TopK(item_user, 10));
  for (const Mangle& m : kCases) {
    mangle.store(&m);
    // A corrupt partial loses shard 2's slice; a corrupt vector loses
    // the user's owner, shard 2, and fails over to popularity.
    const bool vector = std::string(m.op) == "user_vector";
    const Response got = router_->TopK(vector ? UserOwnedBy(2) : item_user, 10);
    ASSERT_TRUE(got.ok) << m.key << ": " << got.error;
    EXPECT_TRUE(got.degraded) << m.key;
    EXPECT_EQ(got.missing_shards, std::vector<int32_t>({2})) << m.key;
  }
  // A commit answer carrying one is a failed commit.
  const Mangle kCommit = {"swap_commit", "snapshot_version", "1e300"};
  mangle.store(&kCommit);
  const std::string next = TestPath("router_fleet_mangled.snap");
  ASSERT_TRUE(shard::WriteShardSnapshots(full_, next, kNumShards, 42).ok());
  const auto version = router_->CoordinatedSwap(next);
  ASSERT_FALSE(version.ok());
  EXPECT_NE(version.status().ToString().find("commit failed"),
            std::string::npos)
      << version.status().ToString();
  // A probe answer carrying one is a failed probe: Start refuses.
  router_.reset();
  const Mangle kProbes[] = {{"\"probe\"", "snapshot_version", "1e300"},
                            {"\"probe\"", "num_users", "1e300"}};
  for (const Mangle& m : kProbes) {
    mangle.store(&m);
    shard::Router router(FastConfig());
    const util::Status st = router.Start();
    EXPECT_FALSE(st.ok()) << m.key;
    EXPECT_NE(st.ToString().find("initial probe of shard 2"),
              std::string::npos)
        << st.ToString();
  }
  // Nothing may call the handler once `mangle` is gone.
  w.Kill();
}

TEST_F(ShardRouterTest, WorkerSocketRefusesPlainSwapAndOutOfRangeFields) {
  shard::ShardService& service = *workers_[0]->service;
  // A worker changes snapshots only through the two-phase ops.
  EXPECT_EQ(service.HandleLine("{\"op\":\"swap\",\"snapshot\":\"" +
                               workers_[1]->snapshot_path + "\"}"),
            R"({"ok":false,"error":"FailedPrecondition: a shard worker )"
            R"(swaps snapshots through swap_prepare/swap_commit"})");
  EXPECT_EQ(workers_[0]->engine->swap_count(), 1);
  // Shard ops refuse an out-of-range field in their own error shape,
  // before the engine sees the request.
  EXPECT_EQ(
      service.HandleLine(R"({"op":"topk_partial","k":1e10,"popularity":true})"),
      R"({"ok":false,"op":"topk_partial","error":"\"k\" must be in )"
      R"([-2147483648, 2147483647]"})");
  EXPECT_EQ(workers_[0]->engine->stats().requests, 0);
  // So are numbers a float cannot hold: narrowed, they would become inf
  // and print as a score of 0.
  std::string query = "[1e300";
  std::string ok_query = "[0.5";
  for (int64_t c = 1; c < full_.users.cols(); ++c) {
    query += ",0.5";
    ok_query += ",0.5";
  }
  query += "]";
  ok_query += "]";
  EXPECT_EQ(service.HandleLine(R"({"op":"score_item","item":1,"query":)" +
                               query + "}"),
            R"({"ok":false,"op":"score_item","error":"\"query\" must be an )"
            R"(array of numbers within float range"})");
  EXPECT_EQ(service.HandleLine(
                R"({"op":"similar_partial","k":3,"norm":1e300,"query":)" +
                ok_query + "}"),
            R"({"ok":false,"op":"similar_partial","error":"\"norm\" must )"
            R"(be a number within float range"})");
  EXPECT_EQ(workers_[0]->engine->stats().requests, 0);
  // The client ops answer through the shared protocol module.
  const std::string topk =
      service.HandleLine(R"({"op":"topk","user":-1,"k":2})");
  EXPECT_EQ(topk.rfind(R"({"ok":true,"op":"topk","user":-1,)", 0), 0u)
      << topk;
}

// ----- transport ------------------------------------------------------------

size_t OpenFds() {
  size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST(SocketServerTest, EndedConnectionsGiveBackTheirFds) {
  const std::string path = TestPath("fd_reclaim.sock");
  shard::SocketServer server;
  ASSERT_TRUE(
      server.Start(path, [](const std::string& line) { return line; }).ok());
  const size_t baseline = OpenFds();
  const auto call_deadline = [] {
    return std::chrono::steady_clock::now() + std::chrono::seconds(5);
  };
  for (int i = 0; i < 64; ++i) {
    auto conn = shard::ShardConn::Connect(path, 1000);
    ASSERT_TRUE(conn.ok()) << conn.status().ToString();
    auto reply = conn.value()->Call(R"({"op":"probe"})", call_deadline());
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply.value(), R"({"op":"probe"})");
  }  // the client side closes each connection here
  // The worker side closes once its thread reads EOF.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  size_t open = OpenFds();
  while (open > baseline && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    open = OpenFds();
  }
  EXPECT_EQ(open, baseline);
  // Stop() still wakes a live connection and waits for it.
  auto live = shard::ShardConn::Connect(path, 1000);
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(live.value()->Call(R"({"op":"probe"})", call_deadline()).ok());
  server.Stop();
  EXPECT_FALSE(live.value()->Call(R"({"op":"probe"})", call_deadline()).ok());
}

// ----- stats ----------------------------------------------------------------

TEST_F(ShardRouterTest, StatsJsonCarriesPerShardHealth) {
  StartRouter(FastConfig());
  (void)router_->TopK(0, 5);
  const std::string stats = router_->StatsJson();
  EXPECT_NE(stats.find("\"op\":\"stats\""), std::string::npos);
  EXPECT_NE(stats.find("\"bench\":\"dgnn_router\""), std::string::npos);
  EXPECT_NE(stats.find("serve.shard.retries"), std::string::npos);
  EXPECT_NE(stats.find("serve.shard.failovers"), std::string::npos);
  EXPECT_NE(stats.find("serve.shard.degraded_responses"),
            std::string::npos);
  for (int s = 0; s < kNumShards; ++s) {
    EXPECT_NE(stats.find(workers_[static_cast<size_t>(s)]->socket_path),
              std::string::npos);
  }
}

}  // namespace
}  // namespace dgnn
