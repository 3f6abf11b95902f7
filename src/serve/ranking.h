// The one ranking path of both scoring surfaces — the in-process
// train::Recommender and the online serve::ServingEngine (client ops and
// their shard-worker twins alike). Each answer kind has exactly one
// ranker here, over EmbeddingView (dense fp32 or quantized storage):
//   - TopKUnseen: top-k items by inner product, over the full catalog or
//     a candidate list (the IVF shortlist), with the quantized exact
//     rerank;
//   - TopKSimilar: top-k rows by cosine against a query vector and its
//     norm, skipping one row (the query user's own);
//   - RowNorms: the per-row L2 norms TopKSimilar divides by.
// So every surface's top-K output is bit-identical by construction (the
// serving acceptance bar), not by coincidence of copies staying in sync.
//
// Determinism: every ranker scores candidates with a sequential
// per-candidate dot product inside a fixed-grain ParallelFor (disjoint
// output slots), then filters and selects serially — results are
// bit-identical for any thread count (see src/util/thread_pool.h).

#ifndef DGNN_SERVE_RANKING_H_
#define DGNN_SERVE_RANKING_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

#include "ag/tensor.h"
#include "kernels/kernels.h"
#include "quant/quant.h"
#include "util/thread_pool.h"

namespace dgnn::serve {

struct ScoredItem {
  int32_t item = 0;
  float score = 0.0f;
};

// Candidate rows scored per ParallelFor chunk in the catalog scans; fixed
// so scores are computed identically for any thread count.
inline constexpr int64_t kScanGrain = 256;

// Deterministic ordering: score descending, ties broken by lower id.
inline bool ScoreGreater(const ScoredItem& a, const ScoredItem& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.item < b.item;
}

// Keeps the k best entries of `scored` under ScoreGreater (k clamped to
// the candidate count), sorted descending.
inline void SelectTopK(std::vector<ScoredItem>& scored, int k) {
  const size_t keep =
      std::min<size_t>(static_cast<size_t>(std::max(k, 0)), scored.size());
  std::partial_sort(scored.begin(),
                    scored.begin() + static_cast<int64_t>(keep),
                    scored.end(), ScoreGreater);
  scored.resize(keep);
}

// Read-only view over an embedding matrix that is EITHER a dense fp32
// tensor or a quantized section — the one type every ranker scores
// against. Non-owning; the snapshot outlives the view.
class EmbeddingView {
 public:
  EmbeddingView() = default;
  explicit EmbeddingView(const ag::Tensor* dense) : dense_(dense) {}
  explicit EmbeddingView(const quant::QuantizedMatrix* q) : quant_(q) {}

  int64_t rows() const {
    return dense_ != nullptr ? dense_->rows()
           : quant_ != nullptr ? quant_->rows
                               : 0;
  }
  int64_t cols() const {
    return dense_ != nullptr ? dense_->cols()
           : quant_ != nullptr ? quant_->cols
                               : 0;
  }
  bool dense() const { return dense_ != nullptr; }

  // dot(u, row r) — exact for dense, approximate (codec precision) for
  // quantized storage. Every surface calls the same dispatched kernel,
  // so train-time and serve-time scores stay bit-identical in either
  // numeric mode (deterministic: serial index order on every ISA; fast:
  // the same multi-lane FMA sum everywhere).
  float Score(const float* u, int64_t r) const {
    return dense_ != nullptr
               ? kernels::Dot(u, dense_->row(r), dense_->cols())
               : quant_->Dot(u, r);
  }

  // out[i] = Score(u, row) for i in [b, e), where row is ids[i], or i
  // itself when ids is null (the full catalog). The storage test runs
  // once per call, so the per-row loop is a bare kernel call.
  void ScoreRows(const float* u, const int32_t* ids, int64_t b, int64_t e,
                 float* out) const {
    if (dense_ == nullptr) {
      for (int64_t i = b; i < e; ++i) {
        out[i] = quant_->Dot(u, ids != nullptr ? ids[i] : i);
      }
      return;
    }
    const float* base = dense_->data();
    const int64_t d = dense_->cols();
    if (ids == nullptr) {
      for (int64_t i = b; i < e; ++i) out[i] = kernels::Dot(u, base + i * d, d);
    } else {
      for (int64_t i = b; i < e; ++i) {
        out[i] = kernels::Dot(u, base + ids[i] * d, d);
      }
    }
  }

  // Materializes row r as fp32 into `out` (cols() floats) — the exact
  // rerank path decodes shortlist rows through this.
  void DecodeRow(int64_t r, float* out) const {
    if (dense_ != nullptr) {
      const float* row = dense_->row(r);
      std::copy(row, row + dense_->cols(), out);
    } else {
      quant_->DequantizeRow(r, out);
    }
  }

 private:
  const ag::Tensor* dense_ = nullptr;
  const quant::QuantizedMatrix* quant_ = nullptr;
};

// Top-k rows of `items` by dot product with `u` (length items.cols()),
// excluding ids present in the sorted `seen` list. `candidates` null
// scans the full catalog; non-null scans only those ids (the IVF
// shortlist path). For quantized views a two-phase rank runs: the
// (approximate) quantized scores select a shortlist of
// max(rerank, k) survivors, whose rows are then decoded to fp32 and
// re-scored exactly — so codec noise can demote items INTO the shortlist
// boundary but never reorders the final top-k within it. Dense views skip
// the rerank (their scores are already exact).
//
// `compute_seconds` and `rank_seconds` (either may be null; when both are
// no clock is read) receive how the call split between the parallel scan
// and the serial filter + select (+ rerank), for per-stage serving
// attribution. Timing never changes scores or order.
inline std::vector<ScoredItem> TopKUnseen(
    const float* u, const EmbeddingView& items,
    const std::vector<int32_t>* candidates,
    const std::vector<int32_t>& seen, int k, int rerank,
    double* compute_seconds = nullptr, double* rank_seconds = nullptr) {
  using Clock = std::chrono::steady_clock;
  const bool timed = compute_seconds != nullptr || rank_seconds != nullptr;
  Clock::time_point t0;
  if (timed) t0 = Clock::now();
  const int32_t* ids = candidates != nullptr ? candidates->data() : nullptr;
  const int64_t n = candidates != nullptr
                        ? static_cast<int64_t>(candidates->size())
                        : items.rows();
  std::vector<float> scores(static_cast<size_t>(n));
  util::ParallelFor(0, n, kScanGrain, [&](int64_t b, int64_t e) {
    items.ScoreRows(u, ids, b, e, scores.data());
  });
  Clock::time_point t1;
  if (timed) t1 = Clock::now();
  std::vector<ScoredItem> scored;
  scored.reserve(static_cast<size_t>(n));
  if (ids == nullptr) {
    // Catalog ids ascend, so one merge walk over `seen` drops them.
    auto next_seen = seen.begin();
    for (int32_t i = 0; i < n; ++i) {
      while (next_seen != seen.end() && *next_seen < i) ++next_seen;
      if (next_seen != seen.end() && *next_seen == i) continue;
      scored.push_back({i, scores[static_cast<size_t>(i)]});
    }
  } else {
    for (int64_t i = 0; i < n; ++i) {
      if (std::binary_search(seen.begin(), seen.end(), ids[i])) continue;
      scored.push_back({ids[i], scores[static_cast<size_t>(i)]});
    }
  }
  if (items.dense()) {
    SelectTopK(scored, k);
  } else {
    SelectTopK(scored, std::max(rerank, k));
    // Exact rerank: decode each surviving row to fp32 and re-score with
    // the same dispatched Dot every surface uses. Serial loop —
    // deterministic for any thread count.
    std::vector<float> row(static_cast<size_t>(items.cols()));
    for (ScoredItem& s : scored) {
      items.DecodeRow(s.item, row.data());
      s.score = kernels::Dot(u, row.data(), items.cols());
    }
    SelectTopK(scored, k);
  }
  if (timed) {
    const Clock::time_point t2 = Clock::now();
    if (compute_seconds != nullptr) {
      *compute_seconds = std::chrono::duration<double>(t1 - t0).count();
    }
    if (rank_seconds != nullptr) {
      *rank_seconds = std::chrono::duration<double>(t2 - t1).count();
    }
  }
  return scored;
}

// Full-catalog, dense, exact TopKUnseen over a tensor — the offline
// callers' spelling.
inline std::vector<ScoredItem> TopKUnseenItems(
    const float* u, const ag::Tensor& items,
    const std::vector<int32_t>& seen, int k) {
  return TopKUnseen(u, EmbeddingView(&items), nullptr, seen, k, k);
}

// Per-row L2 norms of `m`, taken over the (decoded) fp32 rows the exact
// paths score against — computed once per snapshot (or Recommender) so
// TopKSimilar never re-derives norms inside the scan.
inline std::vector<float> RowNorms(const EmbeddingView& m) {
  std::vector<float> norms(static_cast<size_t>(m.rows()));
  util::ParallelFor(0, m.rows(), kScanGrain, [&](int64_t b, int64_t e) {
    std::vector<float> row(static_cast<size_t>(m.cols()));
    for (int64_t r = b; r < e; ++r) {
      m.DecodeRow(r, row.data());
      norms[static_cast<size_t>(r)] =
          std::sqrt(kernels::Dot(row.data(), row.data(), m.cols()));
    }
  });
  return norms;
}

// Top-k rows of `users` by cosine with the query `u`, whose norm `u_norm`
// the caller supplies: a shard worker receives both from the user's
// owner via the router, so every shard divides by the exact same float
// and the scatter/gathered result merges bit-identically with the
// single-process scan. `norms` are RowNorms(users). `exclude_row`
// (-1 = none) skips the query user's own row when `users` holds it.
// Returned items are ROW indices into `users`; sharded callers map them
// to global ids.
inline std::vector<ScoredItem> TopKSimilar(const float* u, float u_norm,
                                           const EmbeddingView& users,
                                           const std::vector<float>& norms,
                                           int64_t exclude_row, int k) {
  std::vector<float> scores(static_cast<size_t>(users.rows()));
  util::ParallelFor(0, users.rows(), kScanGrain, [&](int64_t b, int64_t e) {
    // Divides right after each dot: the division then overlaps the next
    // row's kernel call, where a second pass over the chunk would not.
    for (int64_t v = b; v < e; ++v) {
      const float denom = u_norm * norms[static_cast<size_t>(v)];
      scores[static_cast<size_t>(v)] =
          denom > 1e-12f ? users.Score(u, v) / denom : 0.0f;
    }
  });
  std::vector<ScoredItem> scored;
  scored.reserve(static_cast<size_t>(users.rows()));
  for (int32_t v = 0; v < users.rows(); ++v) {
    if (v == exclude_row) continue;
    scored.push_back({v, scores[static_cast<size_t>(v)]});
  }
  SelectTopK(scored, k);
  return scored;
}

}  // namespace dgnn::serve

#endif  // DGNN_SERVE_RANKING_H_
