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
// Determinism: the per-row loops (kernels::Dot, QuantizedMatrix::Dot)
// remain the reference; the scans run kernels::ScoreRows and
// ScoreRowsQ8, whose every lane runs that same serial chain, inside a
// fixed-grain ParallelFor (disjoint output slots). Filtering and the
// bounded top-K selection then run serially, so results are
// bit-identical for any ISA and any thread count (see
// src/util/thread_pool.h).

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

// Deterministic ordering: score descending, ties broken by lower id. A
// NaN score orders after every number, and two NaN scores by id, so the
// order stays strict weak (std::partial_sort and the heap below need
// that) when a snapshot holds non-finite embeddings. The ==, > and <
// tests come first, so a sort of finite scores (the popularity sort in
// ServingEngine::Swap) never reaches the NaN test.
inline bool ScoreGreater(const ScoredItem& a, const ScoredItem& b) {
  if (a.score == b.score) return a.item < b.item;
  if (a.score > b.score) return true;
  if (a.score < b.score) return false;
  // Unordered: at least one score is NaN.
  return !std::isnan(a.score) || (std::isnan(b.score) && a.item < b.item);
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

// The best `k` of the n scored candidates under ScoreGreater, sorted
// best first: candidate i is (ids ? ids[i] : i, scores[i]), and
// keep(item) filters it out when false. A bounded heap holds at most k
// entries with the worst on top, and a candidate is compared with that
// worst entry before `keep` runs, so the filter only sees candidates that
// would enter.
template <typename Keep>
inline std::vector<ScoredItem> SelectTopKScored(const float* scores,
                                                const int32_t* ids,
                                                int64_t n, int64_t k,
                                                Keep&& keep) {
  std::vector<ScoredItem> heap;
  if (k <= 0) return heap;
  heap.reserve(static_cast<size_t>(std::min(k, n)));
  for (int64_t i = 0; i < n; ++i) {
    const ScoredItem c{ids != nullptr ? ids[i] : static_cast<int32_t>(i),
                       scores[i]};
    const bool full = static_cast<int64_t>(heap.size()) == k;
    if (full && !ScoreGreater(c, heap.front())) continue;
    if (!keep(c.item)) continue;
    if (full) {
      std::pop_heap(heap.begin(), heap.end(), ScoreGreater);
      heap.back() = c;
    } else {
      heap.push_back(c);
    }
    std::push_heap(heap.begin(), heap.end(), ScoreGreater);
  }
  std::sort_heap(heap.begin(), heap.end(), ScoreGreater);
  return heap;
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
  // quantized storage: the per-row reference every scan reproduces.
  float Score(const float* u, int64_t r) const {
    return dense_ != nullptr
               ? kernels::Dot(u, dense_->row(r), dense_->cols())
               : quant_->Dot(u, r);
  }

  // out[i] = Score(u, row) for i in [b, e), where row is ids[i], or i
  // itself when ids is null (the full catalog). fp32 and int8 run the
  // dispatched scans, bit-identical to Score on every ISA; fp16 runs its
  // per-row DotF16.
  void ScoreRows(const float* u, const int32_t* ids, int64_t b, int64_t e,
                 float* out) const {
    if (dense_ != nullptr) {
      kernels::ScoreRows(u, dense_->data(), dense_->cols(), ids, b, e, out);
    } else if (quant_->codec == quant::Codec::kInt8) {
      kernels::ScoreRowsQ8(u, quant_->q8.data(), quant_->scales.data(),
                           quant_->cols, ids, b, e, out);
    } else {
      for (int64_t i = b; i < e; ++i) {
        out[i] = quant_->Dot(u, ids != nullptr ? ids[i] : i);
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
  // Dense scores are exact: keep k. Quantized ones keep the rerank
  // shortlist.
  const int64_t keep = items.dense() ? k : std::max(rerank, k);
  std::vector<ScoredItem> scored =
      SelectTopKScored(scores.data(), ids, n, keep, [&](int32_t item) {
        return !std::binary_search(seen.begin(), seen.end(), item);
      });
  if (!items.dense()) {
    // Exact rerank: decode each surviving row to fp32 and re-score with
    // the reference Dot every surface uses. Serial loop — deterministic
    // for any thread count.
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
    users.ScoreRows(u, nullptr, b, e, scores.data());
    for (int64_t v = b; v < e; ++v) {
      const float denom = u_norm * norms[static_cast<size_t>(v)];
      float& s = scores[static_cast<size_t>(v)];
      s = denom > 1e-12f ? s / denom : 0.0f;
    }
  });
  return SelectTopKScored(scores.data(), nullptr, users.rows(), k,
                          [&](int32_t v) { return v != exclude_row; });
}

}  // namespace dgnn::serve

#endif  // DGNN_SERVE_RANKING_H_
