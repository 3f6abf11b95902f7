// Library-level tests for the sharded serving layer (src/shard/ minus
// sockets): partitioning invariants (ring determinism, covering item
// ranges, manifest round-trip and validation), the JSON wire's exact
// float round-trip, the per-shard health state machine, and — the
// contract everything else leans on — BIT-IDENTICAL scatter/gather:
// merging per-shard partial top-ks (with every query and score pushed
// through the JSON wire encoding) must reproduce the single-process
// engine's answer byte for byte, for 2, 3 and 5 shards, ties included.

#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "graph/hetero_graph.h"
#include "models/bpr_mf.h"
#include "serve/engine.h"
#include "serve/protocol.h"
#include "serve/ranking.h"
#include "serve/snapshot.h"
#include "shard/health.h"
#include "shard/partition.h"
#include "shard/wire.h"
#include "train/recommender.h"
#include "util/json.h"

namespace dgnn {
namespace {

using serve::Request;
using serve::Response;
using serve::ScoredItem;
using serve::ServingEngine;
using serve::Snapshot;

std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// ----- consistent-hash ring -------------------------------------------------

TEST(ShardRingTest, DeterministicCoveringAndRoughlyBalanced) {
  const serve::ShardRing a(4, 42);
  const serve::ShardRing b(4, 42);
  std::vector<int64_t> per_shard(4, 0);
  for (int32_t u = 0; u < 20000; ++u) {
    const int32_t owner = a.Owner(u);
    ASSERT_GE(owner, 0);
    ASSERT_LT(owner, 4);
    EXPECT_EQ(owner, b.Owner(u));  // same (n, seed) -> same ring
    ++per_shard[static_cast<size_t>(owner)];
  }
  // 64 vnodes/shard keep the split within a few percent of even; assert
  // a loose 2x bound so the test pins sanity, not the exact constant.
  for (int64_t n : per_shard) {
    EXPECT_GT(n, 20000 / 8);
    EXPECT_LT(n, 20000 / 2);
  }
}

TEST(ShardRingTest, SeedChangesAssignment) {
  const serve::ShardRing a(4, 1);
  const serve::ShardRing b(4, 2);
  int differs = 0;
  for (int32_t u = 0; u < 1000; ++u) {
    if (a.Owner(u) != b.Owner(u)) ++differs;
  }
  EXPECT_GT(differs, 0);
}

TEST(ShardRingTest, SingleShardOwnsEverything) {
  const serve::ShardRing ring(1, 7);
  for (int32_t u = 0; u < 100; ++u) EXPECT_EQ(ring.Owner(u), 0);
}

// ----- item ranges ----------------------------------------------------------

TEST(ShardItemRangeTest, BalancedBlocksCoverExactly) {
  for (int32_t n : {1, 2, 3, 5, 7}) {
    int64_t expect_begin = 0;
    for (int32_t s = 0; s < n; ++s) {
      int64_t begin = -1, end = -1;
      serve::ShardItemRange(150, n, s, &begin, &end);
      EXPECT_EQ(begin, expect_begin);  // contiguous, in order
      EXPECT_GE(end - begin, 150 / n);
      EXPECT_LE(end - begin, 150 / n + 1);
      expect_begin = end;
    }
    EXPECT_EQ(expect_begin, 150);  // covers [0, num_items) exactly
  }
}

TEST(ShardSnapshotPathTest, NamingConvention) {
  EXPECT_EQ(serve::ShardSnapshotPath("/tmp/model.snap", 1, 3),
            "/tmp/model.snap.shard1of3");
}

// ----- wire encoding --------------------------------------------------------

TEST(ShardWireTest, FloatsRoundTripBitExactly) {
  // Values picked to stress the printer: subnormal, non-representable
  // decimals, big magnitudes, negative zero.
  const std::vector<float> v = {0.1f,      1.0f / 3.0f,    -0.0f,
                                1e-42f,    3.4028e38f,     -7.25f,
                                1.0e-8f,   2097151.875f,   0.0f};
  auto parsed = util::ParseJson(shard::FloatsJson(v));
  ASSERT_TRUE(parsed.ok());
  std::vector<float> back;
  ASSERT_TRUE(shard::ParseFloatArray(&parsed.value(), &back));
  ASSERT_EQ(back.size(), v.size());
  EXPECT_EQ(std::memcmp(back.data(), v.data(), v.size() * sizeof(float)),
            0);
}

TEST(ShardWireTest, ItemsRoundTripBitExactly) {
  const std::vector<ScoredItem> items = {
      {0, 0.1f}, {7, -1.0f / 3.0f}, {149, 1e-40f}};
  auto parsed = util::ParseJson(serve::ItemsJson(items));
  ASSERT_TRUE(parsed.ok());
  std::vector<ScoredItem> back;
  ASSERT_TRUE(shard::ParseItems(&parsed.value(), &back));
  ASSERT_EQ(back.size(), items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(back[i].item, items[i].item);
    EXPECT_EQ(std::memcmp(&back[i].score, &items[i].score, sizeof(float)),
              0);
  }
}

// ----- health state machine -------------------------------------------------

TEST(ShardHealthTest, ProbeFailuresTakeShardDownAndProbeRecovers) {
  shard::ShardHealth h;
  EXPECT_EQ(h.state(), shard::HealthState::kHealthy);
  h.RecordProbe(false);
  h.RecordProbe(false);
  EXPECT_NE(h.state(), shard::HealthState::kDown);  // 2 < down_after (3)
  h.RecordProbe(false);
  EXPECT_EQ(h.state(), shard::HealthState::kDown);
  // Recovery is re-admission as DEGRADED, never straight to healthy.
  h.RecordProbe(true);
  EXPECT_EQ(h.state(), shard::HealthState::kDegraded);
}

TEST(ShardHealthTest, OutcomeEwmaDegradesAndRecoversWithHysteresis) {
  shard::ShardHealth h;
  for (int i = 0; i < 10; ++i) h.RecordOutcome(false);
  EXPECT_EQ(h.state(), shard::HealthState::kDegraded);
  EXPECT_GT(h.failure_ewma(), 0.5);
  // Outcomes alone never take a shard down — only missed heartbeats.
  EXPECT_NE(h.state(), shard::HealthState::kDown);
  for (int i = 0; i < 30; ++i) h.RecordOutcome(true);
  EXPECT_EQ(h.state(), shard::HealthState::kHealthy);
  EXPECT_LT(h.failure_ewma(), 0.1);
}

TEST(ShardHealthTest, OutcomesCannotResurrectADownShard) {
  shard::ShardHealth h;
  for (int i = 0; i < 3; ++i) h.RecordProbe(false);
  ASSERT_EQ(h.state(), shard::HealthState::kDown);
  for (int i = 0; i < 50; ++i) h.RecordOutcome(true);
  EXPECT_EQ(h.state(), shard::HealthState::kDown);
}

// ----- partition + scatter/gather fixtures ----------------------------------

class ShardPartitionTest : public ::testing::Test {
 protected:
  ShardPartitionTest()
      : dataset_(data::GenerateSynthetic(data::SyntheticConfig::Tiny())),
        graph_(dataset_),
        model_(graph_, 8, 5),
        recommender_(model_, dataset_),
        full_(serve::BuildSnapshot(recommender_, dataset_, "BPR-MF",
                                   "shard-test")) {}

  // Builds the N slices in-memory and loads each into its own engine.
  std::vector<std::unique_ptr<ServingEngine>> MakeShardEngines(
      int32_t num_shards, uint64_t seed = 42) {
    std::vector<std::unique_ptr<ServingEngine>> engines;
    for (int32_t s = 0; s < num_shards; ++s) {
      auto slice = shard::BuildShardSnapshot(full_, s, num_shards, seed);
      EXPECT_TRUE(slice.ok()) << slice.status().ToString();
      auto engine = std::make_unique<ServingEngine>();
      engine->Swap(std::make_shared<const Snapshot>(
          std::move(slice).value()));
      engines.push_back(std::move(engine));
    }
    return engines;
  }

  // The router's data path, in miniature and WITH the JSON wire in the
  // loop: fetch the user vector from the owning shard, round-trip it
  // through FloatsJson, topk_partial every shard with the re-parsed
  // query, round-trip each partial through ItemsJson, merge.
  Response ShardedTopK(std::vector<std::unique_ptr<ServingEngine>>& engines,
                       const serve::ShardRing& ring, int32_t user, int k) {
    Request uv;
    uv.type = Request::Type::kUserVector;
    uv.user = user;
    const Response owner_resp =
        engines[static_cast<size_t>(ring.Owner(user))]->Handle(uv);
    EXPECT_TRUE(owner_resp.ok);
    const bool popularity = owner_resp.degraded;  // unknown user

    std::vector<float> query;
    if (!popularity) {
      auto parsed = util::ParseJson(shard::FloatsJson(owner_resp.vector));
      EXPECT_TRUE(parsed.ok());
      EXPECT_TRUE(shard::ParseFloatArray(&parsed.value(), &query));
    }

    std::vector<ScoredItem> merged;
    bool degraded = popularity;
    for (auto& engine : engines) {
      Request part;
      part.type = Request::Type::kTopKPartial;
      part.user = user;
      part.k = k;
      part.popularity = popularity;
      part.query = query;
      const Response r = engine->Handle(part);
      EXPECT_TRUE(r.ok);
      degraded = degraded || r.degraded;
      auto parsed = util::ParseJson(serve::ItemsJson(r.items));
      EXPECT_TRUE(parsed.ok());
      std::vector<ScoredItem> items;
      EXPECT_TRUE(shard::ParseItems(&parsed.value(), &items));
      merged.insert(merged.end(), items.begin(), items.end());
    }
    serve::SelectTopK(merged, k);
    Response out;
    out.ok = true;
    out.degraded = degraded;
    out.items = std::move(merged);
    return out;
  }

  static void ExpectBitIdentical(const std::vector<ScoredItem>& a,
                                 const std::vector<ScoredItem>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].item, b[i].item) << "rank " << i;
      EXPECT_EQ(
          std::memcmp(&a[i].score, &b[i].score, sizeof(float)), 0)
          << "rank " << i << " score bits differ";
    }
  }

  data::Dataset dataset_;
  graph::HeteroGraph graph_;
  models::BprMf model_;
  train::Recommender recommender_;
  Snapshot full_;
};

TEST_F(ShardPartitionTest, SlicesCarryValidManifests) {
  const int32_t n = 3;
  for (int32_t s = 0; s < n; ++s) {
    auto slice = shard::BuildShardSnapshot(full_, s, n, 42);
    ASSERT_TRUE(slice.ok()) << slice.status().ToString();
    const Snapshot& snap = slice.value();
    EXPECT_EQ(snap.shard.num_shards, n);
    EXPECT_EQ(snap.shard.shard_index, s);
    EXPECT_EQ(snap.shard.hash_seed, 42u);
    // Meta keeps the GLOBAL catalog shape.
    EXPECT_EQ(snap.meta.num_users, full_.meta.num_users);
    EXPECT_EQ(snap.meta.num_items, full_.meta.num_items);
    // Tensors hold only the slice.
    EXPECT_EQ(snap.users.rows(), snap.shard.num_owned_users);
    EXPECT_EQ(snap.items.rows(),
              snap.shard.item_end - snap.shard.item_begin);
    // Social lists present (one per global user) but empty.
    EXPECT_EQ(snap.social.size(),
              static_cast<size_t>(full_.meta.num_users));
    for (const auto& nbrs : snap.social) EXPECT_TRUE(nbrs.empty());
  }
}

TEST_F(ShardPartitionTest, ShardsPartitionUsersAndItemsExactly) {
  const int32_t n = 3;
  int64_t total_users = 0, total_items = 0;
  for (int32_t s = 0; s < n; ++s) {
    auto slice = shard::BuildShardSnapshot(full_, s, n, 42);
    ASSERT_TRUE(slice.ok());
    total_users += slice.value().shard.num_owned_users;
    total_items +=
        slice.value().shard.item_end - slice.value().shard.item_begin;
  }
  EXPECT_EQ(total_users, full_.meta.num_users);
  EXPECT_EQ(total_items, full_.meta.num_items);
}

TEST_F(ShardPartitionTest, WriteShardSnapshotsRoundTripsThroughDisk) {
  const std::string base = TestPath("shard_rt.snap");
  ASSERT_TRUE(shard::WriteShardSnapshots(full_, base, 3, 42).ok());
  for (int32_t s = 0; s < 3; ++s) {
    auto read = serve::ReadSnapshot(serve::ShardSnapshotPath(base, s, 3));
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(read.value().shard.shard_index, s);
    EXPECT_EQ(read.value().shard.num_shards, 3);
  }
}

TEST_F(ShardPartitionTest, CorruptShardSliceIsRejected) {
  const std::string base = TestPath("shard_corrupt.snap");
  ASSERT_TRUE(shard::WriteShardSnapshots(full_, base, 3, 42).ok());
  const std::string victim = serve::ShardSnapshotPath(base, 1, 3);
  // Flip one byte in the middle of the file; the full-file checksum
  // must catch it (the check_shard.sh gate leans on exactly this).
  std::fstream f(victim,
                 std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekg(0, std::ios::end);
  const auto size = static_cast<int64_t>(f.tellg());
  ASSERT_GT(size, 200);
  f.seekg(size / 2);
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x40);
  f.seekp(size / 2);
  f.write(&c, 1);
  f.close();
  EXPECT_FALSE(serve::ReadSnapshot(victim).ok());
}

TEST_F(ShardPartitionTest, RejectsQuantizedAndAlreadyShardedInputs) {
  Snapshot quantized = full_;
  ASSERT_TRUE(
      serve::QuantizeSnapshot(&quantized, quant::Codec::kInt8).ok());
  EXPECT_FALSE(shard::BuildShardSnapshot(quantized, 0, 2, 42).ok());

  auto slice = shard::BuildShardSnapshot(full_, 0, 2, 42);
  ASSERT_TRUE(slice.ok());
  EXPECT_FALSE(shard::BuildShardSnapshot(slice.value(), 0, 2, 42).ok());

  EXPECT_FALSE(shard::BuildShardSnapshot(full_, 2, 2, 42).ok());  // index
  EXPECT_FALSE(shard::BuildShardSnapshot(full_, 0, 0, 42).ok());  // count
}

// ----- bit-identical scatter/gather merge -----------------------------------

TEST_F(ShardPartitionTest, MergedTopKBitIdenticalAcrossShardCounts) {
  ServingEngine single;
  single.Swap(std::make_shared<const Snapshot>(full_));
  for (int32_t n : {2, 3, 5}) {
    auto engines = MakeShardEngines(n);
    const serve::ShardRing ring(n, 42);
    for (int32_t user = 0; user < full_.meta.num_users; ++user) {
      Request req;
      req.type = Request::Type::kTopK;
      req.user = user;
      req.k = 10;
      const Response want = single.Handle(req);
      ASSERT_TRUE(want.ok);
      const Response got = ShardedTopK(engines, ring, user, 10);
      ExpectBitIdentical(want.items, got.items);
    }
  }
}

TEST_F(ShardPartitionTest, MergeBreaksScoreTiesByItemIdAcrossShards) {
  // Synthetic partials with deliberate cross-shard score ties: the
  // merged order must be (score desc, id asc) regardless of which shard
  // contributed which item — the exact SelectTopK contract.
  std::vector<ScoredItem> merged = {
      {140, 1.0f}, {3, 1.0f}, {77, 2.0f},  // shard A
      {4, 1.0f}, {90, 2.0f}, {55, 0.5f},   // shard B
  };
  serve::SelectTopK(merged, 5);
  ASSERT_EQ(merged.size(), 5u);
  EXPECT_EQ(merged[0].item, 77);
  EXPECT_EQ(merged[1].item, 90);
  EXPECT_EQ(merged[2].item, 3);
  EXPECT_EQ(merged[3].item, 4);
  EXPECT_EQ(merged[4].item, 140);
}

TEST_F(ShardPartitionTest, UnknownUserPopularityFallbackMatchesSingle) {
  ServingEngine single;
  single.Swap(std::make_shared<const Snapshot>(full_));
  auto engines = MakeShardEngines(3);
  const serve::ShardRing ring(3, 42);
  const auto unknown = static_cast<int32_t>(full_.meta.num_users + 5);

  Request req;
  req.type = Request::Type::kTopK;
  req.user = unknown;
  req.k = 10;
  const Response want = single.Handle(req);
  ASSERT_TRUE(want.ok);
  ASSERT_TRUE(want.degraded);

  const Response got = ShardedTopK(engines, ring, unknown, 10);
  EXPECT_TRUE(got.degraded);
  ExpectBitIdentical(want.items, got.items);
}

TEST_F(ShardPartitionTest, ScoreItemMatchesSingleProcessScore) {
  ServingEngine single;
  single.Swap(std::make_shared<const Snapshot>(full_));
  auto engines = MakeShardEngines(3);
  const serve::ShardRing ring(3, 42);
  for (int32_t user = 0; user < 10; ++user) {
    for (int32_t item : {0, 74, 149}) {
      Request req;
      req.type = Request::Type::kScore;
      req.user = user;
      req.item = item;
      const Response want = single.Handle(req);
      ASSERT_TRUE(want.ok);

      Request uv;
      uv.type = Request::Type::kUserVector;
      uv.user = user;
      const Response owner =
          engines[static_cast<size_t>(ring.Owner(user))]->Handle(uv);
      ASSERT_TRUE(owner.ok);
      auto parsed = util::ParseJson(shard::FloatsJson(owner.vector));
      ASSERT_TRUE(parsed.ok());
      Request si;
      si.type = Request::Type::kScoreItem;
      si.user = user;
      si.item = item;
      ASSERT_TRUE(shard::ParseFloatArray(&parsed.value(), &si.query));
      // Route to the shard whose range holds the item.
      Response got;
      got.ok = false;
      for (auto& engine : engines) {
        const auto snap = engine->snapshot();
        if (item >= snap->shard.item_begin &&
            item < snap->shard.item_end) {
          got = engine->Handle(si);
        }
      }
      ASSERT_TRUE(got.ok);
      EXPECT_EQ(std::memcmp(&want.score, &got.score, sizeof(float)), 0)
          << "user " << user << " item " << item;
    }
  }
}

TEST_F(ShardPartitionTest, SimilarUsersMergeMatchesSingleProcess) {
  ServingEngine single;
  single.Swap(std::make_shared<const Snapshot>(full_));
  auto engines = MakeShardEngines(3);
  const serve::ShardRing ring(3, 42);
  for (int32_t user = 0; user < 10; ++user) {
    Request req;
    req.type = Request::Type::kSimilarUsers;
    req.user = user;
    req.k = 5;
    const Response want = single.Handle(req);
    ASSERT_TRUE(want.ok);

    Request uv;
    uv.type = Request::Type::kUserVector;
    uv.user = user;
    const Response owner =
        engines[static_cast<size_t>(ring.Owner(user))]->Handle(uv);
    ASSERT_TRUE(owner.ok);
    auto parsed = util::ParseJson(shard::FloatsJson(owner.vector));
    ASSERT_TRUE(parsed.ok());
    std::vector<float> query;
    ASSERT_TRUE(shard::ParseFloatArray(&parsed.value(), &query));

    std::vector<ScoredItem> merged;
    for (auto& engine : engines) {
      Request part;
      part.type = Request::Type::kSimilarPartial;
      part.user = user;
      part.k = 5;
      part.query = query;
      part.query_norm = owner.vector_norm;
      const Response r = engine->Handle(part);
      ASSERT_TRUE(r.ok);
      merged.insert(merged.end(), r.items.begin(), r.items.end());
    }
    serve::SelectTopK(merged, 5);
    ExpectBitIdentical(want.items, merged);
  }
}

}  // namespace
}  // namespace dgnn
