// IVF retrieval index tests: deterministic builds, exactly-once list
// coverage, serialize/parse round trips with corruption rejection, and
// the end-to-end exactness guarantee — probing every list with a
// catalog-sized rerank must reproduce brute-force top-k bit-for-bit.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ag/tensor.h"
#include "index/ivf.h"
#include "kernels/kernels.h"
#include "quant/quant.h"
#include "serve/ranking.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dgnn {
namespace {

class IvfTest : public ::testing::Test {
 protected:
  IvfTest() : saved_threads_(util::NumThreads()) {}
  ~IvfTest() override {
    util::SetNumThreads(saved_threads_);
    kernels::ResetIsaFromEnv();
  }

  const int saved_threads_;
};

std::vector<float> RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> m(static_cast<size_t>(rows * cols));
  for (float& x : m) x = rng.UniformFloat(-1.0f, 1.0f);
  return m;
}

// Exact reference top-k: score every row with a plain loop, sort fully
// by ScoreGreater, drop seen ids.
std::vector<serve::ScoredItem> NaiveTopK(const float* u,
                                         const ag::Tensor& items,
                                         const std::vector<int32_t>& seen,
                                         int k) {
  std::vector<serve::ScoredItem> all;
  for (int32_t i = 0; i < items.rows(); ++i) {
    all.push_back({i, kernels::Dot(u, items.row(i), items.cols())});
  }
  std::sort(all.begin(), all.end(), serve::ScoreGreater);
  std::vector<serve::ScoredItem> out;
  for (const serve::ScoredItem& s : all) {
    if (static_cast<int>(out.size()) == k) break;
    if (std::find(seen.begin(), seen.end(), s.item) != seen.end()) continue;
    out.push_back(s);
  }
  return out;
}

index::IvfConfig SmallConfig(int32_t nlist) {
  index::IvfConfig cfg;
  cfg.nlist = nlist;
  cfg.iterations = 4;
  cfg.seed = 42;
  return cfg;
}

TEST_F(IvfTest, CoversEveryRowExactlyOnce) {
  const int64_t rows = 500, cols = 12;
  const std::vector<float> data = RandomMatrix(rows, cols, 1);
  index::IvfIndex idx =
      index::BuildIvfIndex(data.data(), rows, cols, SmallConfig(8));
  ASSERT_EQ(idx.nlist, 8);
  ASSERT_EQ(idx.dim, cols);
  ASSERT_EQ(idx.list_offsets.size(), static_cast<size_t>(idx.nlist + 1));
  EXPECT_EQ(idx.list_offsets.front(), 0);
  EXPECT_EQ(idx.list_offsets.back(), rows);
  EXPECT_TRUE(std::is_sorted(idx.list_offsets.begin(),
                             idx.list_offsets.end()));
  std::set<int32_t> seen_ids(idx.list_items.begin(), idx.list_items.end());
  EXPECT_EQ(seen_ids.size(), static_cast<size_t>(rows));
  EXPECT_EQ(*seen_ids.begin(), 0);
  EXPECT_EQ(*seen_ids.rbegin(), static_cast<int32_t>(rows - 1));
  EXPECT_TRUE(index::ValidateIvfIndex(idx, rows, cols).ok());
}

TEST_F(IvfTest, BuildIsDeterministicAcrossThreadCounts) {
  const int64_t rows = 400, cols = 8;
  const std::vector<float> data = RandomMatrix(rows, cols, 2);
  util::SetNumThreads(1);
  index::IvfIndex a =
      index::BuildIvfIndex(data.data(), rows, cols, SmallConfig(7));
  util::SetNumThreads(7);
  index::IvfIndex b =
      index::BuildIvfIndex(data.data(), rows, cols, SmallConfig(7));
  std::string sa, sb;
  a.Serialize(&sa);
  b.Serialize(&sb);
  EXPECT_EQ(sa, sb);
}

TEST_F(IvfTest, DefaultNlistIsSqrtRows) {
  const int64_t rows = 256, cols = 4;
  const std::vector<float> data = RandomMatrix(rows, cols, 3);
  index::IvfConfig cfg;  // nlist <= 0 -> round(sqrt(rows))
  cfg.iterations = 2;
  index::IvfIndex idx = index::BuildIvfIndex(data.data(), rows, cols, cfg);
  EXPECT_EQ(idx.nlist, 16);
  // And never more clusters than rows.
  index::IvfConfig big = SmallConfig(64);
  index::IvfIndex tiny = index::BuildIvfIndex(data.data(), 10, cols, big);
  EXPECT_LE(tiny.nlist, 10);
  EXPECT_TRUE(index::ValidateIvfIndex(tiny, 10, cols).ok());
}

TEST_F(IvfTest, SerializeParseRoundTrip) {
  const int64_t rows = 300, cols = 16;
  const std::vector<float> data = RandomMatrix(rows, cols, 4);
  index::IvfIndex idx =
      index::BuildIvfIndex(data.data(), rows, cols, SmallConfig(6));
  std::string bytes;
  idx.Serialize(&bytes);
  auto parsed = index::ParseIvfIndex(bytes.data(), bytes.size());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const index::IvfIndex& p = parsed.value();
  EXPECT_EQ(p.nlist, idx.nlist);
  EXPECT_EQ(p.dim, idx.dim);
  EXPECT_EQ(p.centroids, idx.centroids);
  EXPECT_EQ(p.half_sq_norms, idx.half_sq_norms);
  EXPECT_EQ(p.list_offsets, idx.list_offsets);
  EXPECT_EQ(p.list_items, idx.list_items);
  EXPECT_TRUE(index::ValidateIvfIndex(p, rows, cols).ok());
  // Re-serializing the parsed index reproduces the same bytes.
  std::string again;
  p.Serialize(&again);
  EXPECT_EQ(again, bytes);
}

TEST_F(IvfTest, ParseRejectsCorruption) {
  const int64_t rows = 200, cols = 8;
  const std::vector<float> data = RandomMatrix(rows, cols, 5);
  index::IvfIndex idx =
      index::BuildIvfIndex(data.data(), rows, cols, SmallConfig(5));
  std::string bytes;
  idx.Serialize(&bytes);

  // Truncation at several depths.
  for (size_t cut : {size_t{0}, size_t{3}, bytes.size() / 2,
                     bytes.size() - 1}) {
    EXPECT_FALSE(index::ParseIvfIndex(bytes.data(), cut).ok())
        << "cut=" << cut;
  }
  // Trailing garbage.
  {
    std::string longer = bytes + "xx";
    EXPECT_FALSE(index::ParseIvfIndex(longer.data(), longer.size()).ok());
  }
  // Negative nlist.
  {
    std::string bad = bytes;
    int32_t neg = -1;
    std::memcpy(bad.data(), &neg, sizeof(neg));
    EXPECT_FALSE(index::ParseIvfIndex(bad.data(), bad.size()).ok());
  }
  // Non-ascending offsets.
  {
    index::IvfIndex broken = idx;
    std::swap(broken.list_offsets[1], broken.list_offsets[2]);
    std::string bad;
    broken.Serialize(&bad);
    EXPECT_FALSE(index::ParseIvfIndex(bad.data(), bad.size()).ok());
  }
  // Validate catches out-of-range and duplicated item ids even when the
  // serialized structure is internally consistent.
  {
    index::IvfIndex broken = idx;
    broken.list_items[0] = static_cast<int32_t>(rows);  // out of range
    EXPECT_FALSE(index::ValidateIvfIndex(broken, rows, cols).ok());
    broken.list_items[0] = broken.list_items[1];  // duplicate
    EXPECT_FALSE(index::ValidateIvfIndex(broken, rows, cols).ok());
    EXPECT_FALSE(index::ValidateIvfIndex(idx, rows + 1, cols).ok());
    EXPECT_FALSE(index::ValidateIvfIndex(idx, rows, cols + 1).ok());
  }
}

TEST_F(IvfTest, RankListsClampsAndOrdersDeterministically) {
  const int64_t rows = 300, cols = 8;
  const std::vector<float> data = RandomMatrix(rows, cols, 6);
  index::IvfIndex idx =
      index::BuildIvfIndex(data.data(), rows, cols, SmallConfig(6));
  const std::vector<float> u = RandomMatrix(1, cols, 7);

  std::vector<int32_t> all;
  idx.RankLists(u.data(), 1000, &all);  // clamped to nlist
  ASSERT_EQ(all.size(), static_cast<size_t>(idx.nlist));
  std::set<int32_t> uniq(all.begin(), all.end());
  EXPECT_EQ(uniq.size(), all.size());

  std::vector<int32_t> one;
  idx.RankLists(u.data(), 0, &one);  // clamped up to 1
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], all[0]);

  // Prefix property: top-2 is a prefix of the full ranking.
  std::vector<int32_t> two;
  idx.RankLists(u.data(), 2, &two);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0], all[0]);
  EXPECT_EQ(two[1], all[1]);

  // Best-first by the MIPS score dot(u, c) - |c_hat|^2/2.
  auto list_score = [&](int32_t l) {
    return kernels::Dot(u.data(), idx.centroids.data() + l * cols, cols) -
           idx.half_sq_norms[static_cast<size_t>(l)];
  };
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_GE(list_score(all[i - 1]), list_score(all[i]));
  }
}

TEST_F(IvfTest, FullProbeWithFullRerankMatchesBruteForce) {
  // nprobe = nlist covers the whole catalog; with rerank >= catalog size
  // the quantized path rescores everything exactly, so the result must
  // equal brute-force fp32 top-k (ids and order; scores equal for the
  // dense view, near-equal after int8 rerank since rerank is exact over
  // the decoded rows).
  const int64_t rows = 400, cols = 16;
  const std::vector<float> data = RandomMatrix(rows, cols, 8);
  ag::Tensor items(static_cast<int32_t>(rows), static_cast<int32_t>(cols));
  std::copy(data.begin(), data.end(), items.data());
  index::IvfIndex idx =
      index::BuildIvfIndex(data.data(), rows, cols, SmallConfig(10));

  const std::vector<float> u = RandomMatrix(1, cols, 9);
  const std::vector<int32_t> seen = {3, 77, 200, 399};
  const int k = 10;

  const std::vector<serve::ScoredItem> brute =
      NaiveTopK(u.data(), items, seen, k);
  ASSERT_EQ(brute.size(), static_cast<size_t>(k));

  // The full-catalog scan: same ids, same scores.
  const std::vector<serve::ScoredItem> full =
      serve::TopKUnseenItems(u.data(), items, seen, k);
  ASSERT_EQ(full.size(), brute.size());
  for (size_t i = 0; i < brute.size(); ++i) {
    EXPECT_EQ(full[i].item, brute[i].item) << i;
    EXPECT_EQ(full[i].score, brute[i].score) << i;
  }

  // Gather candidates through the index, as the engine does.
  std::vector<int32_t> candidates;
  idx.Probe(u.data(), idx.nlist, &candidates);
  ASSERT_EQ(candidates.size(), static_cast<size_t>(rows));

  // Dense view over the candidate set: same ids, same scores.
  serve::EmbeddingView dense_view(&items);
  const std::vector<serve::ScoredItem> via_dense =
      serve::TopKUnseen(u.data(), dense_view, &candidates, seen, k,
                        static_cast<int>(rows));
  ASSERT_EQ(via_dense.size(), brute.size());
  for (size_t i = 0; i < brute.size(); ++i) {
    EXPECT_EQ(via_dense[i].item, brute[i].item) << i;
    EXPECT_EQ(via_dense[i].score, brute[i].score) << i;
  }

  // Quantized view with catalog-wide rerank: rerank rescores every
  // candidate against exact decoded rows, so ids match brute force up to
  // ties introduced by decode error (fp16 decode error is ~5e-4
  // relative; distinct random scores don't collide at that scale).
  quant::QuantizedMatrix q =
      quant::Quantize(data.data(), rows, cols, quant::Codec::kFp16);
  serve::EmbeddingView quant_view(&q);
  const std::vector<serve::ScoredItem> via_quant =
      serve::TopKUnseen(u.data(), quant_view, &candidates, seen, k,
                        static_cast<int>(rows));
  ASSERT_EQ(via_quant.size(), brute.size());
  for (size_t i = 0; i < brute.size(); ++i) {
    EXPECT_EQ(via_quant[i].item, brute[i].item) << i;
    EXPECT_NEAR(via_quant[i].score, brute[i].score, 5e-3f) << i;
  }
}

TEST_F(IvfTest, PartialProbeRecallIsHighOnClusteredData) {
  // Clustered data (what IVF is for): planted centers, small noise. A
  // modest nprobe must recover most of the exact top-k.
  const int64_t rows = 2000, cols = 16;
  const int32_t planted = 20;
  util::Rng rng(10);
  std::vector<float> centers(static_cast<size_t>(planted * cols));
  for (float& x : centers) x = rng.UniformFloat(-2.0f, 2.0f);
  std::vector<float> data(static_cast<size_t>(rows * cols));
  for (int64_t r = 0; r < rows; ++r) {
    const int64_t c = r % planted;
    for (int64_t j = 0; j < cols; ++j) {
      data[static_cast<size_t>(r * cols + j)] =
          centers[static_cast<size_t>(c * cols + j)] +
          rng.UniformFloat(-0.05f, 0.05f);
    }
  }
  ag::Tensor items(static_cast<int32_t>(rows), static_cast<int32_t>(cols));
  std::copy(data.begin(), data.end(), items.data());
  index::IvfConfig cfg = SmallConfig(32);
  cfg.iterations = 8;
  index::IvfIndex idx = index::BuildIvfIndex(data.data(), rows, cols, cfg);

  const std::vector<int32_t> seen;
  const int k = 20;
  int hits = 0, total = 0;
  for (uint64_t qseed = 100; qseed < 110; ++qseed) {
    const std::vector<float> u = RandomMatrix(1, cols, qseed);
    const std::vector<serve::ScoredItem> brute =
        NaiveTopK(u.data(), items, seen, k);
    std::vector<int32_t> candidates;
    idx.Probe(u.data(), 8, &candidates);
    serve::EmbeddingView view(&items);
    const std::vector<serve::ScoredItem> approx =
        serve::TopKUnseen(u.data(), view, &candidates, seen, k, k);
    std::vector<int32_t> brute_ids, approx_ids;
    for (const auto& s : brute) brute_ids.push_back(s.item);
    for (const auto& s : approx) approx_ids.push_back(s.item);
    std::sort(brute_ids.begin(), brute_ids.end());
    std::sort(approx_ids.begin(), approx_ids.end());
    for (int32_t id : approx_ids) {
      hits += std::binary_search(brute_ids.begin(), brute_ids.end(), id);
    }
    total += k;
  }
  const double recall = static_cast<double>(hits) / total;
  EXPECT_GE(recall, 0.9) << "recall@" << k << " = " << recall;
}

TEST_F(IvfTest, ResidentBytesMatchesVectors) {
  const int64_t rows = 128, cols = 8;
  const std::vector<float> data = RandomMatrix(rows, cols, 11);
  index::IvfIndex idx =
      index::BuildIvfIndex(data.data(), rows, cols, SmallConfig(4));
  const int64_t want =
      static_cast<int64_t>(idx.centroids.size() * sizeof(float)) +
      static_cast<int64_t>(idx.half_sq_norms.size() * sizeof(float)) +
      static_cast<int64_t>(idx.list_offsets.size() * sizeof(int64_t)) +
      static_cast<int64_t>(idx.list_items.size() * sizeof(int32_t));
  EXPECT_EQ(idx.ResidentBytes(), want);
}

}  // namespace
}  // namespace dgnn
