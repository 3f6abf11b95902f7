// Tests for the online ServingEngine: the rankers against a literal
// reference (ties, k bounds, seen filters, NaN scores), bit-identical
// parity with the direct train::Recommender across thread counts and
// concurrent callers, graceful degradation for unknown users, social
// recalibration across a swap, telemetry counters, the in-flight bound
// and the one-request-per-caller rule, and zero-downtime hot swap under
// concurrent readers (the TSan job runs this suite too).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "graph/hetero_graph.h"
#include "kernels/kernels.h"
#include "models/bpr_mf.h"
#include "quant/quant.h"
#include "serve/engine.h"
#include "serve/ranking.h"
#include "serve/snapshot.h"
#include "train/recommender.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

namespace dgnn {
namespace {

using serve::Request;
using serve::Response;
using serve::ScoredItem;
using serve::ServingEngine;
using serve::Snapshot;

// ----- ranking --------------------------------------------------------------

TEST(RankingTest, TieBreaksByLowerItemId) {
  // Equal scores must order by ascending id — the determinism contract
  // both the Recommender and the engine inherit from serve/ranking.h.
  std::vector<ScoredItem> scored = {
      {7, 1.0f}, {2, 1.0f}, {9, 2.0f}, {4, 1.0f}, {1, 0.5f}};
  serve::SelectTopK(scored, 4);
  ASSERT_EQ(scored.size(), 4u);
  EXPECT_EQ(scored[0].item, 9);
  EXPECT_EQ(scored[1].item, 2);  // ties at 1.0: 2 < 4 < 7
  EXPECT_EQ(scored[2].item, 4);
  EXPECT_EQ(scored[3].item, 7);
}

TEST(RankingTest, ScoreGreaterIsStrictWeakOrder) {
  const ScoredItem a{1, 1.0f};
  const ScoredItem b{2, 1.0f};
  EXPECT_TRUE(serve::ScoreGreater(a, b));
  EXPECT_FALSE(serve::ScoreGreater(b, a));
  EXPECT_FALSE(serve::ScoreGreater(a, a));
  // NaN orders after every number, and two NaNs by id.
  const float nan = std::nanf("");
  const float inf = std::numeric_limits<float>::infinity();
  const ScoredItem n1{1, nan};
  const ScoredItem n2{2, nan};
  const ScoredItem low{9, -inf};
  EXPECT_TRUE(serve::ScoreGreater(low, n1));
  EXPECT_FALSE(serve::ScoreGreater(n1, low));
  EXPECT_TRUE(serve::ScoreGreater(n1, n2));
  EXPECT_FALSE(serve::ScoreGreater(n2, n1));
  EXPECT_FALSE(serve::ScoreGreater(n1, n1));
  // Irreflexive, asymmetric and transitive over every triple, with
  // transitive incomparability — what std::partial_sort and the heap
  // selector need.
  const std::vector<ScoredItem> all = {
      {3, nan}, {1, nan}, {4, inf}, {2, -inf}, {5, 0.0f}, {6, -0.0f},
      {7, 1.0f}, {0, 1.0f}, {8, -2.5f}};
  auto gt = [](const ScoredItem& x, const ScoredItem& y) {
    return serve::ScoreGreater(x, y);
  };
  auto eq = [&](const ScoredItem& x, const ScoredItem& y) {
    return !gt(x, y) && !gt(y, x);
  };
  for (const ScoredItem& x : all) {
    EXPECT_FALSE(gt(x, x));
    for (const ScoredItem& y : all) {
      EXPECT_FALSE(gt(x, y) && gt(y, x));
      for (const ScoredItem& z : all) {
        EXPECT_TRUE(!(gt(x, y) && gt(y, z)) || gt(x, z));
        EXPECT_TRUE(!(eq(x, y) && eq(y, z)) || eq(x, z));
      }
    }
  }
}

// ----- rankers against a literal reference ----------------------------------
//
// The engine-vs-Recommender tests below call the same shared ranker on
// both sides, so they cannot catch a wrong one. These compare TopKUnseen
// and TopKSimilar with a reference written here: per-row Dot, the
// seen/exclude filter, a full std::sort under ScoreGreater, keep k.

std::vector<ScoredItem> SortAndKeep(std::vector<ScoredItem> all, int k) {
  std::sort(all.begin(), all.end(), serve::ScoreGreater);
  all.resize(std::min(all.size(), static_cast<size_t>(std::max(k, 0))));
  return all;
}

std::vector<ScoredItem> ReferenceTopKUnseen(
    const float* u, const ag::Tensor* dense, const quant::QuantizedMatrix* q,
    const std::vector<int32_t>* candidates, const std::vector<int32_t>& seen,
    int k, int rerank) {
  const int64_t d = dense != nullptr ? dense->cols() : q->cols;
  std::vector<int32_t> ids;
  if (candidates != nullptr) {
    ids = *candidates;
  } else {
    const int64_t rows = dense != nullptr ? dense->rows() : q->rows;
    for (int32_t r = 0; r < rows; ++r) ids.push_back(r);
  }
  std::vector<ScoredItem> all;
  for (int32_t id : ids) {
    if (std::find(seen.begin(), seen.end(), id) != seen.end()) continue;
    all.push_back({id, dense != nullptr ? kernels::Dot(u, dense->row(id), d)
                                        : q->Dot(u, id)});
  }
  if (dense != nullptr) return SortAndKeep(all, k);
  all = SortAndKeep(all, std::max(rerank, k));
  std::vector<float> row(static_cast<size_t>(d));
  for (ScoredItem& s : all) {
    q->DequantizeRow(s.item, row.data());
    s.score = kernels::Dot(u, row.data(), d);
  }
  return SortAndKeep(all, k);
}

std::vector<ScoredItem> ReferenceTopKSimilar(const float* u, float u_norm,
                                             const serve::EmbeddingView& users,
                                             const std::vector<float>& norms,
                                             int64_t exclude_row, int k) {
  std::vector<ScoredItem> all;
  for (int32_t v = 0; v < users.rows(); ++v) {
    if (v == exclude_row) continue;
    const float denom = u_norm * norms[static_cast<size_t>(v)];
    all.push_back({v, denom > 1e-12f ? users.Score(u, v) / denom : 0.0f});
  }
  return SortAndKeep(all, k);
}

testing::AssertionResult SameRanking(const std::vector<ScoredItem>& want,
                                     const std::vector<ScoredItem>& got) {
  if (want.size() != got.size()) {
    return testing::AssertionFailure()
           << "size " << got.size() << ", want " << want.size();
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (want[i].item != got[i].item ||
        std::memcmp(&want[i].score, &got[i].score, sizeof(float)) != 0) {
      return testing::AssertionFailure()
             << "rank " << i << ": got (" << got[i].item << ", "
             << got[i].score << "), want (" << want[i].item << ", "
             << want[i].score << ")";
    }
  }
  return testing::AssertionSuccess();
}

// Two catalogs of 1000 rows: random rows with one high-scoring row
// copied to four more ids (an exact tie near the top), and d = 13 rows
// over {-1, 0, 1} (ties everywhere). Both hold two all-zero rows.
struct RankingCase {
  ag::Tensor rows;
  std::vector<float> u;
  int tie_k = 0;  // a k whose k-th place falls inside a tie
};

std::vector<RankingCase> RankingCases() {
  const int64_t n = 1000;
  std::vector<RankingCase> cases(2);
  util::Rng rng(31);
  for (int c = 0; c < 2; ++c) {
    RankingCase& rc = cases[static_cast<size_t>(c)];
    const int64_t d = c == 0 ? 16 : 13;
    rc.rows = ag::Tensor(n, d);
    rc.u.resize(static_cast<size_t>(d));
    auto draw = [&] {
      return c == 0 ? rng.UniformFloat(-1.0f, 1.0f)
                    : static_cast<float>(rng.UniformInt(3) - 1);
    };
    for (int64_t i = 0; i < n * d; ++i) rc.rows.data()[i] = draw();
    for (float& x : rc.u) x = draw();
    std::fill(rc.rows.row(40), rc.rows.row(41), 0.0f);
    std::fill(rc.rows.row(700), rc.rows.row(701), 0.0f);
    if (c == 0) {
      const int32_t src = ReferenceTopKUnseen(rc.u.data(), &rc.rows, nullptr,
                                              nullptr, {}, 4, 0)[3]
                              .item;
      for (int32_t dst : {17, 300, 511, 999}) {
        if (dst == src) continue;
        std::copy(rc.rows.row(src), rc.rows.row(src) + d, rc.rows.row(dst));
      }
    }
    // k = i takes the first of a tied pair (i - 1, i) but not the second.
    const auto tied = ReferenceTopKUnseen(rc.u.data(), &rc.rows, nullptr,
                                          nullptr, {}, static_cast<int>(n), 0);
    for (size_t i = 1; i < tied.size(); ++i) {
      if (tied[i].score == tied[i - 1].score) {
        rc.tie_k = static_cast<int>(i);
        break;
      }
    }
    EXPECT_GT(rc.tie_k, 0);
  }
  return cases;
}

class RankerReferenceTest : public ::testing::Test {
 protected:
  RankerReferenceTest() : saved_threads_(util::NumThreads()) {}
  ~RankerReferenceTest() override { util::SetNumThreads(saved_threads_); }
  const int saved_threads_;
};

TEST_F(RankerReferenceTest, TopKUnseenMatchesReference) {
  for (const RankingCase& rc : RankingCases()) {
    const int64_t n = rc.rows.rows();
    const quant::QuantizedMatrix q8 = quant::Quantize(
        rc.rows.data(), n, rc.rows.cols(), quant::Codec::kInt8);
    const float* u = rc.u.data();
    // A shuffled candidate list of 600 distinct ids, and an empty one.
    std::vector<int32_t> shuffled(static_cast<size_t>(n));
    for (int32_t i = 0; i < n; ++i) shuffled[static_cast<size_t>(i)] = i;
    util::Rng rng(32);
    rng.Shuffle(shuffled);
    shuffled.resize(600);
    const std::vector<int32_t> empty;
    // A seen list that covers the ten best rows, plus a few others.
    using Ids = std::vector<int32_t>;
    std::vector<int32_t> seen_best;
    for (const ScoredItem& s :
         ReferenceTopKUnseen(u, &rc.rows, nullptr, nullptr, {}, 10, 0)) {
      seen_best.push_back(s.item);
    }
    for (int32_t extra : {0, 5, 333, 998}) seen_best.push_back(extra);
    std::sort(seen_best.begin(), seen_best.end());
    seen_best.erase(std::unique(seen_best.begin(), seen_best.end()),
                    seen_best.end());
    const std::vector<int32_t> no_seen;
    const int ks[] = {0, 1, rc.tie_k, static_cast<int>(n),
                      static_cast<int>(n) + 5};
    for (const Ids* cand : {static_cast<const Ids*>(nullptr),
                            static_cast<const Ids*>(&shuffled), &empty}) {
      for (const Ids* seen : {&no_seen, static_cast<const Ids*>(&seen_best)}) {
        for (int k : ks) {
          const auto want_dense =
              ReferenceTopKUnseen(u, &rc.rows, nullptr, cand, *seen, k, k);
          for (int rerank : {0, 25}) {
            const auto want_q8 =
                ReferenceTopKUnseen(u, nullptr, &q8, cand, *seen, k, rerank);
            for (int threads : {1, 2, 7}) {
              util::SetNumThreads(threads);
              const std::string where =
                  "d=" + std::to_string(rc.rows.cols()) +
                  " cand=" + std::to_string(cand ? cand->size() : n) +
                  " seen=" + std::to_string(seen->size()) +
                  " k=" + std::to_string(k) +
                  " rerank=" + std::to_string(rerank) +
                  " threads=" + std::to_string(threads);
              EXPECT_TRUE(SameRanking(
                  want_dense,
                  serve::TopKUnseen(u, serve::EmbeddingView(&rc.rows), cand,
                                    *seen, k, rerank)))
                  << "dense " << where;
              EXPECT_TRUE(SameRanking(
                  want_q8, serve::TopKUnseen(u, serve::EmbeddingView(&q8),
                                             cand, *seen, k, rerank)))
                  << "int8 " << where;
            }
          }
        }
      }
    }
  }
}

TEST_F(RankerReferenceTest, TopKSimilarMatchesReference) {
  for (const RankingCase& rc : RankingCases()) {
    const int64_t n = rc.rows.rows();
    const quant::QuantizedMatrix q8 = quant::Quantize(
        rc.rows.data(), n, rc.rows.cols(), quant::Codec::kInt8);
    const float* u = rc.u.data();
    const float u_norm =
        std::sqrt(kernels::Dot(u, u, static_cast<int64_t>(rc.u.size())));
    for (const serve::EmbeddingView& view :
         {serve::EmbeddingView(&rc.rows), serve::EmbeddingView(&q8)}) {
      const std::vector<float> norms = serve::RowNorms(view);
      for (int64_t exclude : {int64_t{-1}, int64_t{17}}) {
        for (int k : {0, 1, rc.tie_k, static_cast<int>(n),
                      static_cast<int>(n) + 5}) {
          const auto want =
              ReferenceTopKSimilar(u, u_norm, view, norms, exclude, k);
          for (int threads : {1, 2, 7}) {
            util::SetNumThreads(threads);
            EXPECT_TRUE(SameRanking(
                want, serve::TopKSimilar(u, u_norm, view, norms, exclude, k)))
                << (view.dense() ? "dense" : "int8")
                << " d=" << rc.rows.cols() << " exclude=" << exclude
                << " k=" << k << " threads=" << threads;
          }
        }
      }
    }
  }
}

// Rows that score NaN (a non-finite embedding from a diverged run) rank
// after every finite score, by id, and never displace a finite winner.
TEST_F(RankerReferenceTest, TopKUnseenRanksNanScoresLast) {
  const int64_t n = 600;
  const int64_t d = 16;
  ag::Tensor rows(n, d);
  util::Rng rng(33);
  for (int64_t i = 0; i < n * d; ++i) {
    rows.data()[i] = rng.UniformFloat(-1.0f, 1.0f);
  }
  std::vector<float> u(static_cast<size_t>(d));
  for (float& x : u) x = rng.UniformFloat(-1.0f, 1.0f);
  const std::vector<int32_t> nan_rows = {0, 3, 257, 258, 511, 599};
  for (int32_t r : nan_rows) rows.row(r)[r % d] = std::nanf("");
  std::vector<ScoredItem> finite;
  for (int32_t r = 0; r < n; ++r) {
    const float s = kernels::Dot(u.data(), rows.row(r), d);
    if (!std::isnan(s)) finite.push_back({r, s});
  }
  ASSERT_EQ(finite.size(), static_cast<size_t>(n) - nan_rows.size());
  std::sort(finite.begin(), finite.end(),
            [](const ScoredItem& a, const ScoredItem& b) {
              return a.score != b.score ? a.score > b.score
                                        : a.item < b.item;
            });
  for (int threads : {1, 2, 7}) {
    util::SetNumThreads(threads);
    for (int k : {1, 10, static_cast<int>(n)}) {
      const auto got = serve::TopKUnseen(u.data(), serve::EmbeddingView(&rows),
                                         nullptr, {}, k, k);
      ASSERT_EQ(got.size(), static_cast<size_t>(k)) << "k=" << k;
      for (int i = 0; i < k; ++i) {
        const size_t at = static_cast<size_t>(i);
        if (at < finite.size()) {
          EXPECT_EQ(got[at].item, finite[at].item)
              << "k=" << k << " rank " << i << " threads=" << threads;
          EXPECT_EQ(got[at].score, finite[at].score);
        } else {
          EXPECT_EQ(got[at].item, nan_rows[at - finite.size()])
              << "k=" << k << " rank " << i << " threads=" << threads;
          EXPECT_TRUE(std::isnan(got[at].score));
        }
      }
    }
  }
}

// ----- engine fixtures ------------------------------------------------------

class ServeEngineTest : public ::testing::Test {
 protected:
  ServeEngineTest()
      : dataset_(data::GenerateSynthetic(data::SyntheticConfig::Tiny())),
        graph_(dataset_),
        model_(graph_, 8, 5),
        recommender_(model_, dataset_),
        snapshot_(std::make_shared<const Snapshot>(serve::BuildSnapshot(
            recommender_, dataset_, "BPR-MF", "engine-test"))) {}

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

TEST_F(ServeEngineTest, NoSnapshotYieldsErrorNotCrash) {
  ServingEngine engine;
  const Response resp = engine.Handle(TopKRequest(0, 5));
  EXPECT_FALSE(resp.ok);
  EXPECT_NE(resp.error.find("no snapshot"), std::string::npos);
}

TEST_F(ServeEngineTest, MatchesRecommenderBitIdenticallyAcrossThreads) {
  const int saved_threads = util::NumThreads();
  const int k = 10;
  const int32_t probe_users = std::min<int32_t>(dataset_.num_users, 12);
  for (int threads : {1, 2, 7}) {
    util::SetNumThreads(threads);
    ServingEngine engine;
    engine.Swap(snapshot_);
    for (int32_t u = 0; u < probe_users; ++u) {
      const auto want = recommender_.TopK(u, k);
      const Response got = engine.Handle(TopKRequest(u, k));
      ASSERT_TRUE(got.ok);
      EXPECT_FALSE(got.degraded);
      ASSERT_EQ(got.items.size(), want.size()) << "threads " << threads;
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got.items[i].item, want[i].item);
        EXPECT_EQ(got.items[i].score, want[i].score);  // exact float
      }
      Request score_req;
      score_req.type = Request::Type::kScore;
      score_req.user = u;
      score_req.item = u % dataset_.num_items;
      const Response score = engine.Handle(score_req);
      ASSERT_TRUE(score.ok);
      EXPECT_EQ(score.score, recommender_.Score(u, score_req.item));
      Request sim_req;
      sim_req.type = Request::Type::kSimilarUsers;
      sim_req.user = u;
      sim_req.k = 5;
      const auto want_sim = recommender_.SimilarUsers(u, 5);
      const Response sim = engine.Handle(sim_req);
      ASSERT_TRUE(sim.ok);
      ASSERT_EQ(sim.items.size(), want_sim.size());
      for (size_t i = 0; i < want_sim.size(); ++i) {
        EXPECT_EQ(sim.items[i].item, want_sim[i].item);
        EXPECT_EQ(sim.items[i].score, want_sim[i].score);
      }
    }
  }
  util::SetNumThreads(saved_threads);
}

TEST_F(ServeEngineTest, UnknownUserDegradesToPopularityRanking) {
  telemetry::SetEnabled(true);
  telemetry::Reset();
  ServingEngine engine;
  engine.Swap(snapshot_);

  const Response resp =
      engine.Handle(TopKRequest(dataset_.num_users + 100, 5));
  ASSERT_TRUE(resp.ok);
  EXPECT_TRUE(resp.degraded);
  ASSERT_EQ(resp.items.size(), 5u);
  // Popularity order: counts descending, ties by lower id; scores are the
  // raw train counts.
  for (size_t i = 1; i < resp.items.size(); ++i) {
    EXPECT_TRUE(serve::ScoreGreater(resp.items[i - 1], resp.items[i]) ||
                !serve::ScoreGreater(resp.items[i], resp.items[i - 1]));
  }
  for (const auto& s : resp.items) {
    EXPECT_EQ(s.score,
              static_cast<float>(
                  snapshot_->item_counts[static_cast<size_t>(s.item)]));
  }

  // Negative user ids degrade too; Score and SimilarUsers fall back.
  EXPECT_TRUE(engine.Handle(TopKRequest(-3, 5)).degraded);
  Request score_req;
  score_req.type = Request::Type::kScore;
  score_req.user = 0;
  score_req.item = dataset_.num_items + 7;
  const Response score = engine.Handle(score_req);
  ASSERT_TRUE(score.ok);
  EXPECT_TRUE(score.degraded);
  EXPECT_EQ(score.score, 0.0f);
  Request sim_req;
  sim_req.type = Request::Type::kSimilarUsers;
  sim_req.user = dataset_.num_users;
  sim_req.k = 3;
  const Response sim = engine.Handle(sim_req);
  ASSERT_TRUE(sim.ok);
  EXPECT_TRUE(sim.degraded);
  EXPECT_TRUE(sim.items.empty());

  EXPECT_EQ(engine.stats().degraded_requests, 4);
  EXPECT_EQ(telemetry::GetCounter("serve.degraded_requests")->value(), 4);
  telemetry::SetEnabled(false);
}

TEST_F(ServeEngineTest, InvalidKIsAnErrorResponse) {
  ServingEngine engine;
  engine.Swap(snapshot_);
  const Response resp = engine.Handle(TopKRequest(0, 0));
  EXPECT_FALSE(resp.ok);
  EXPECT_NE(resp.error.find("k must be positive"), std::string::npos);
}

TEST_F(ServeEngineTest, HugeDefaultDeadlineIsCappedNotOverflowed) {
  // 1e13 ms past now() does not fit steady_clock; uncapped, the sum
  // wraps into the past and every request expires on arrival.
  serve::EngineConfig config;
  config.default_deadline_ms = 10000000000000;
  ServingEngine engine(config);
  engine.Swap(snapshot_);
  const Response resp = engine.Handle(TopKRequest(0, 5));
  EXPECT_TRUE(resp.ok) << resp.error;
  EXPECT_EQ(resp.items.size(), 5u);
  EXPECT_EQ(engine.stats().expired_requests, 0);
}

TEST_F(ServeEngineTest, RequestLatencyHistogramRecorded) {
  telemetry::SetEnabled(true);
  telemetry::Reset();
  ServingEngine engine;
  engine.Swap(snapshot_);
  constexpr int kRequests = 12;
  for (int i = 0; i < kRequests; ++i) {
    engine.Handle(TopKRequest(i % dataset_.num_users, 5));
  }
  telemetry::Histogram* latency =
      telemetry::GetHistogram("serve.e2e_seconds");
  EXPECT_EQ(latency->count(), kRequests);
  EXPECT_GE(latency->ApproxQuantileSeconds(0.99),
            latency->ApproxQuantileSeconds(0.50));
  EXPECT_EQ(telemetry::GetCounter("serve.requests")->value(), kRequests);
  engine.Swap(snapshot_);
  EXPECT_EQ(engine.stats().snapshot_swaps, 2);
  EXPECT_EQ(telemetry::GetCounter("serve.snapshot_swaps")->value(), 2);
  telemetry::SetEnabled(false);
}

TEST_F(ServeEngineTest, SocialRecalibrationChangesScoresOnlyWhenEnabled) {
  // alpha = 0 is the bit-identical parity path (covered above); a
  // non-zero alpha must blend neighbors in for users that have any.
  serve::EngineConfig config;
  config.social_alpha = 0.5f;
  ServingEngine engine(config);
  engine.Swap(snapshot_);
  int32_t social_user = -1;
  for (int32_t u = 0; u < dataset_.num_users; ++u) {
    if (!snapshot_->social[static_cast<size_t>(u)].empty()) {
      social_user = u;
      break;
    }
  }
  ASSERT_GE(social_user, 0) << "tiny dataset has no social ties";
  Request score_req;
  score_req.type = Request::Type::kScore;
  score_req.user = social_user;
  score_req.item = 0;
  const Response blended = engine.Handle(score_req);
  ASSERT_TRUE(blended.ok);
  EXPECT_NE(blended.score, recommender_.Score(social_user, 0));
}

TEST_F(ServeEngineTest, SocialRecalibrationFollowsASwap) {
  // The recalibrated vector blends the neighbours' rows of the snapshot
  // that serves the request: after a swap to different user rows, topk
  // and score must match a fresh engine over the new snapshot bit for
  // bit, never an answer computed from the old rows.
  auto scaled = std::make_shared<Snapshot>(*snapshot_);
  ag::Tensor users = scaled->users;
  users.Scale(2.0f);
  scaled->users = users;
  std::shared_ptr<const Snapshot> snap_v2 = scaled;
  int32_t social_user = -1;
  for (int32_t u = 0; u < dataset_.num_users; ++u) {
    if (!snapshot_->social[static_cast<size_t>(u)].empty()) {
      social_user = u;
      break;
    }
  }
  ASSERT_GE(social_user, 0) << "tiny dataset has no social ties";
  serve::EngineConfig config;
  config.social_alpha = 0.5f;
  Request score_req;
  score_req.type = Request::Type::kScore;
  score_req.user = social_user;
  score_req.item = 0;

  ServingEngine engine(config);
  engine.Swap(snapshot_);
  const Response old_score = engine.Handle(score_req);
  engine.Swap(snap_v2);
  const Response topk = engine.Handle(TopKRequest(social_user, 10));
  const Response score = engine.Handle(score_req);

  ServingEngine fresh(config);
  fresh.Swap(snap_v2);
  const Response want_topk = fresh.Handle(TopKRequest(social_user, 10));
  const Response want_score = fresh.Handle(score_req);
  ASSERT_TRUE(topk.ok && score.ok && want_topk.ok && want_score.ok);
  ASSERT_EQ(topk.items.size(), want_topk.items.size());
  for (size_t i = 0; i < want_topk.items.size(); ++i) {
    EXPECT_EQ(topk.items[i].item, want_topk.items[i].item);
    EXPECT_EQ(topk.items[i].score, want_topk.items[i].score);
  }
  EXPECT_EQ(score.score, want_score.score);
  EXPECT_NE(score.score, old_score.score);
}

TEST_F(ServeEngineTest, ConcurrentHandleCallsEachRunOnTheirCaller) {
  ServingEngine engine;
  engine.Swap(snapshot_);
  const int32_t probe_users = std::min<int32_t>(dataset_.num_users, 16);
  std::vector<std::vector<ScoredItem>> expected;
  for (int32_t u = 0; u < probe_users; ++u) {
    expected.push_back(recommender_.TopK(u, 10));
  }
  constexpr int kClients = 8;
  constexpr int kIters = 25;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kIters; ++i) {
        const int32_t u = (c + i) % probe_users;
        const Response resp = engine.Handle(TopKRequest(u, 10));
        const auto& want = expected[static_cast<size_t>(u)];
        bool ok = resp.ok && resp.items.size() == want.size();
        for (size_t j = 0; ok && j < want.size(); ++j) {
          ok = resp.items[j].item == want[j].item &&
               resp.items[j].score == want[j].score;
        }
        if (!ok) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  const serve::EngineStats s = engine.stats();
  EXPECT_EQ(s.requests, kClients * kIters);
  // Every request executes on its own.
  EXPECT_EQ(s.batches, s.requests);
}

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

TEST_F(ServeEngineTest, AdmittedRequestDoesNotWaitForLaterArrivals) {
  // Each call runs under a 100 ms injected delay. The first caller must
  // get its answer after its own delay while four more requests arrive
  // behind it; a caller that also served the later arrivals would answer
  // after about 300 ms.
  ServingEngine engine;
  engine.Swap(snapshot_);
  ASSERT_TRUE(failpoint::Configure("serve.execute=delay:100").ok());
  const auto t0 = std::chrono::steady_clock::now();
  std::atomic<int> later_ok{0};
  std::vector<std::thread> later;
  for (int at_ms : {20, 60, 120, 160}) {
    later.emplace_back([&, at_ms] {
      std::this_thread::sleep_until(t0 + std::chrono::milliseconds(at_ms));
      if (engine.Handle(TopKRequest(1, 5)).ok) later_ok.fetch_add(1);
    });
  }
  const Response first = engine.Handle(TopKRequest(0, 5));
  const double first_ms = MsSince(t0);
  for (auto& t : later) t.join();
  failpoint::Clear();
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_LT(first_ms, 200.0);
  EXPECT_EQ(later_ok.load(), 4);
}

TEST_F(ServeEngineTest, MaxInflightShedsCallsBeyondTheBound) {
  serve::EngineConfig config;
  config.max_inflight = 2;
  ServingEngine engine(config);
  engine.Swap(snapshot_);
  ASSERT_TRUE(failpoint::Configure("serve.execute=delay:100").ok());
  constexpr int kCalls = 8;
  std::vector<Response> responses(kCalls);
  std::vector<double> took_ms(kCalls);
  std::atomic<bool> go{false};
  std::vector<std::thread> callers;
  for (int i = 0; i < kCalls; ++i) {
    callers.emplace_back([&, i] {
      while (!go.load()) std::this_thread::yield();
      const auto t0 = std::chrono::steady_clock::now();
      responses[static_cast<size_t>(i)] = engine.Handle(TopKRequest(i, 5));
      took_ms[static_cast<size_t>(i)] = MsSince(t0);
    });
  }
  go.store(true);
  for (auto& t : callers) t.join();
  failpoint::Clear();
  int64_t shed = 0;
  for (int i = 0; i < kCalls; ++i) {
    const Response& r = responses[static_cast<size_t>(i)];
    if (!r.ok) {
      EXPECT_EQ(r.error, "overloaded");
      ++shed;
    }
    // An admitted call waits for nobody; a shed one answers at once.
    EXPECT_LT(took_ms[static_cast<size_t>(i)], 200.0) << "call " << i;
  }
  EXPECT_GE(shed, 1);
  EXPECT_EQ(engine.stats().shed_requests, shed);
  EXPECT_EQ(engine.stats().requests, kCalls - shed);
}

TEST_F(ServeEngineTest, HotSwapUnderConcurrentReadersDropsNothing) {
  // 8 reader threads hammer TopK while the main thread flips between two
  // snapshots. Every response must be complete, non-degraded, and match
  // the expected result OF THE SNAPSHOT VERSION THAT SERVED IT — readers
  // in flight during a swap finish on the old snapshot.
  auto scaled = std::make_shared<Snapshot>(*snapshot_);
  {
    // Second snapshot with visibly different scores (scaled embeddings
    // keep the same ordering but different score values).
    ag::Tensor users = scaled->users;
    users.Scale(2.0f);
    scaled->users = users;
    scaled->meta.tag = "v2";
  }
  std::shared_ptr<const Snapshot> snap_v2 = scaled;

  const int32_t probe_users = std::min<int32_t>(dataset_.num_users, 8);
  std::vector<std::vector<ScoredItem>> expect_v1;
  std::vector<std::vector<ScoredItem>> expect_v2;
  {
    ServingEngine probe1;
    probe1.Swap(snapshot_);
    ServingEngine probe2;
    probe2.Swap(snap_v2);
    for (int32_t u = 0; u < probe_users; ++u) {
      expect_v1.push_back(probe1.Handle(TopKRequest(u, 10)).items);
      expect_v2.push_back(probe2.Handle(TopKRequest(u, 10)).items);
    }
  }

  ServingEngine engine;
  engine.Swap(snapshot_);
  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::atomic<int64_t> responses{0};
  constexpr int kReaders = 8;
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      int iter = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const int32_t u = (r + iter++) % probe_users;
        const Response resp = engine.Handle(TopKRequest(u, 10));
        if (!resp.ok || resp.degraded) {
          mismatches.fetch_add(1);
          continue;
        }
        // Odd versions served snapshot_ (v1, v3, ...), even versions the
        // scaled one — Swap below alternates.
        const auto& want = (resp.snapshot_version % 2 == 1)
                               ? expect_v1[static_cast<size_t>(u)]
                               : expect_v2[static_cast<size_t>(u)];
        bool ok = resp.items.size() == want.size();
        for (size_t j = 0; ok && j < want.size(); ++j) {
          ok = resp.items[j].item == want[j].item &&
               resp.items[j].score == want[j].score;
        }
        if (!ok) mismatches.fetch_add(1);
        responses.fetch_add(1);
      }
    });
  }
  constexpr int kSwaps = 20;
  for (int s = 0; s < kSwaps; ++s) {
    engine.Swap(s % 2 == 0 ? snap_v2 : snapshot_);
    std::this_thread::yield();
  }
  // Let readers observe the final snapshot before stopping.
  while (responses.load() < kReaders * 4) std::this_thread::yield();
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(responses.load(), 0);
  EXPECT_EQ(engine.swap_count(), kSwaps + 1);
  EXPECT_EQ(engine.stats().snapshot_swaps, kSwaps + 1);
}

// ----- quantized snapshots and the IVF retrieval path -----------------------

class QuantServeTest : public ServeEngineTest {
 protected:
  // Copies the fixture snapshot, optionally builds an IVF index (from the
  // fp32 rows) and quantizes, and returns it ready to Swap in.
  std::shared_ptr<const Snapshot> MakeSnapshot(bool with_index,
                                               const char* codec) {
    auto snap = std::make_shared<Snapshot>(*snapshot_);
    if (with_index) {
      index::IvfConfig cfg;
      cfg.nlist = 8;
      EXPECT_TRUE(serve::BuildSnapshotIndex(snap.get(), cfg).ok());
    }
    if (codec != nullptr) {
      EXPECT_TRUE(serve::QuantizeSnapshot(
                      snap.get(), quant::ParseCodec(codec).value())
                      .ok());
    }
    return snap;
  }
};

TEST_F(QuantServeTest, QuantizedSnapshotServesAllRequestTypes) {
  ServingEngine dense;
  dense.Swap(snapshot_);
  ServingEngine quantized;
  quantized.Swap(MakeSnapshot(/*with_index=*/false, "fp16"));
  const int32_t probe_users = std::min<int32_t>(dataset_.num_users, 12);
  for (int32_t u = 0; u < probe_users; ++u) {
    const Response want = dense.Handle(TopKRequest(u, 10));
    const Response got = quantized.Handle(TopKRequest(u, 10));
    ASSERT_TRUE(got.ok) << got.error;
    EXPECT_FALSE(got.degraded);
    ASSERT_EQ(got.items.size(), want.items.size());
    // fp16 decode error (~5e-4 relative) is far below the score gaps of
    // this model, and the rerank is exact over decoded rows, so the ids
    // must agree; scores only approximately (the user vector itself went
    // through fp16).
    for (size_t i = 0; i < want.items.size(); ++i) {
      EXPECT_EQ(got.items[i].item, want.items[i].item) << "user " << u;
      EXPECT_NEAR(got.items[i].score, want.items[i].score, 5e-2f);
    }

    Request score_req;
    score_req.type = Request::Type::kScore;
    score_req.user = u;
    score_req.item = u % dataset_.num_items;
    const Response score = quantized.Handle(score_req);
    ASSERT_TRUE(score.ok);
    EXPECT_NEAR(score.score, dense.Handle(score_req).score, 5e-2f);

    Request sim_req;
    sim_req.type = Request::Type::kSimilarUsers;
    sim_req.user = u;
    sim_req.k = 5;
    const Response sim = quantized.Handle(sim_req);
    ASSERT_TRUE(sim.ok);
    EXPECT_EQ(sim.items.size(), 5u);
  }
}

TEST_F(QuantServeTest, FullProbeIvfMatchesBruteForceBitForBit) {
  // nprobe >= nlist probes every list, and every row is in exactly one
  // list, so the candidate set is the whole catalog; on a dense snapshot
  // the scores come from the same kernel — results must be identical to
  // the brute-force engine, not merely close.
  ServingEngine brute;
  brute.Swap(snapshot_);
  serve::EngineConfig config;
  config.nprobe = 1 << 20;  // clamped to nlist
  config.rerank = static_cast<int>(dataset_.num_items);
  ServingEngine ivf(config);
  ivf.Swap(MakeSnapshot(/*with_index=*/true, nullptr));
  const int32_t probe_users = std::min<int32_t>(dataset_.num_users, 16);
  for (int32_t u = 0; u < probe_users; ++u) {
    const Response want = brute.Handle(TopKRequest(u, 10));
    const Response got = ivf.Handle(TopKRequest(u, 10));
    ASSERT_TRUE(got.ok) << got.error;
    ASSERT_EQ(got.items.size(), want.items.size());
    for (size_t i = 0; i < want.items.size(); ++i) {
      EXPECT_EQ(got.items[i].item, want.items[i].item) << "user " << u;
      EXPECT_EQ(got.items[i].score, want.items[i].score) << "user " << u;
    }
  }
}

TEST_F(QuantServeTest, NprobeZeroFallsBackToBruteForce) {
  // An index in the snapshot is inert until --nprobe opts in: the default
  // config must take the seed brute-force path and stay bit-identical.
  ServingEngine plain;
  plain.Swap(snapshot_);
  ServingEngine with_index;  // default config: nprobe = 0
  with_index.Swap(MakeSnapshot(/*with_index=*/true, nullptr));
  for (int32_t u = 0; u < std::min<int32_t>(dataset_.num_users, 8); ++u) {
    const Response want = plain.Handle(TopKRequest(u, 10));
    const Response got = with_index.Handle(TopKRequest(u, 10));
    ASSERT_TRUE(got.ok);
    ASSERT_EQ(got.items.size(), want.items.size());
    for (size_t i = 0; i < want.items.size(); ++i) {
      EXPECT_EQ(got.items[i].item, want.items[i].item);
      EXPECT_EQ(got.items[i].score, want.items[i].score);
    }
  }
}

TEST_F(QuantServeTest, PartialProbeServesValidResultsWithHighRecall) {
  serve::EngineConfig config;
  config.nprobe = 3;  // of 8 lists
  ServingEngine engine(config);
  engine.Swap(MakeSnapshot(/*with_index=*/true, "int8"));
  ServingEngine brute;
  brute.Swap(snapshot_);
  const int k = 10;
  int hits = 0, total = 0;
  for (int32_t u = 0; u < std::min<int32_t>(dataset_.num_users, 32); ++u) {
    const Response got = engine.Handle(TopKRequest(u, k));
    ASSERT_TRUE(got.ok) << got.error;
    EXPECT_FALSE(got.degraded);
    EXPECT_LE(got.items.size(), static_cast<size_t>(k));
    const auto& seen = snapshot_->seen[static_cast<size_t>(u)];
    for (const auto& it : got.items) {
      EXPECT_GE(it.item, 0);
      EXPECT_LT(it.item, dataset_.num_items);
      EXPECT_FALSE(std::binary_search(seen.begin(), seen.end(), it.item))
          << "served a seen item";
    }
    std::vector<int32_t> want_ids;
    for (const auto& it : brute.Handle(TopKRequest(u, k)).items) {
      want_ids.push_back(it.item);
    }
    std::sort(want_ids.begin(), want_ids.end());
    for (const auto& it : got.items) {
      hits += std::binary_search(want_ids.begin(), want_ids.end(), it.item);
    }
    total += static_cast<int>(want_ids.size());
  }
  // 3/8 lists on a tiny random-ish catalog still recovers well over half
  // of the exact top-k; this is a sanity floor, not a quality claim (the
  // quality claim lives in ivf_test's clustered-data recall test and the
  // measured bench sweep).
  EXPECT_GT(total, 0);
  EXPECT_GE(static_cast<double>(hits) / total, 0.5);
}

TEST_F(QuantServeTest, LoadServesQuantizedIndexedFileEndToEnd) {
  // Through the file path (Load, not Swap): export-shaped snapshot with
  // int8 + ivf, served with a partial probe.
  auto snap = MakeSnapshot(/*with_index=*/true, "int8");
  const std::string path =
      ::testing::TempDir() + "/engine_quant_ivf_snap.bin";
  ASSERT_TRUE(serve::WriteSnapshot(*snap, path).ok());
  serve::EngineConfig config;
  config.nprobe = 4;
  ServingEngine engine(config);
  ASSERT_TRUE(engine.Load(path).ok());
  ASSERT_NE(engine.snapshot(), nullptr);
  EXPECT_TRUE(engine.snapshot()->has_quant_items());
  EXPECT_FALSE(engine.snapshot()->ivf.empty());
  const Response resp = engine.Handle(TopKRequest(1, 10));
  ASSERT_TRUE(resp.ok) << resp.error;
  EXPECT_EQ(resp.items.size(), 10u);
}

}  // namespace
}  // namespace dgnn
