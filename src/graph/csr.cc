#include "graph/csr.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "kernels/kernels.h"
#include "util/check.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

namespace dgnn::graph {

CsrMatrix CsrMatrix::FromCoo(const CooMatrix& coo) {
  CsrMatrix m;
  m.rows_ = coo.rows;
  m.cols_ = coo.cols;
  const int64_t nnz = coo.nnz();
  m.indptr_.assign(static_cast<size_t>(coo.rows) + 1, 0);

  // Count per-row entries.
  for (int64_t i = 0; i < nnz; ++i) {
    int32_t r = coo.row_indices[static_cast<size_t>(i)];
    DGNN_DCHECK_GE(r, 0);
    DGNN_DCHECK_LT(r, coo.rows);
    ++m.indptr_[static_cast<size_t>(r) + 1];
  }
  for (size_t r = 0; r < static_cast<size_t>(coo.rows); ++r) {
    m.indptr_[r + 1] += m.indptr_[r];
  }

  std::vector<int32_t> cols(static_cast<size_t>(nnz));
  std::vector<float> vals(static_cast<size_t>(nnz));
  std::vector<int64_t> cursor(m.indptr_.begin(), m.indptr_.end() - 1);
  for (int64_t i = 0; i < nnz; ++i) {
    int32_t r = coo.row_indices[static_cast<size_t>(i)];
    int32_t c = coo.col_indices[static_cast<size_t>(i)];
    DGNN_DCHECK_GE(c, 0);
    DGNN_DCHECK_LT(c, coo.cols);
    float v = coo.values.empty() ? 1.0f : coo.values[static_cast<size_t>(i)];
    int64_t pos = cursor[static_cast<size_t>(r)]++;
    cols[static_cast<size_t>(pos)] = c;
    vals[static_cast<size_t>(pos)] = v;
  }

  // Sort within rows and merge duplicates.
  m.indices_.reserve(static_cast<size_t>(nnz));
  m.values_.reserve(static_cast<size_t>(nnz));
  std::vector<int64_t> new_indptr(m.indptr_.size(), 0);
  std::vector<std::pair<int32_t, float>> row_buf;
  for (int64_t r = 0; r < coo.rows; ++r) {
    row_buf.clear();
    for (int64_t i = m.indptr_[static_cast<size_t>(r)];
         i < m.indptr_[static_cast<size_t>(r) + 1]; ++i) {
      row_buf.emplace_back(cols[static_cast<size_t>(i)],
                           vals[static_cast<size_t>(i)]);
    }
    std::sort(row_buf.begin(), row_buf.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (size_t i = 0; i < row_buf.size(); ++i) {
      if (!m.indices_.empty() &&
          static_cast<int64_t>(m.indices_.size()) >
              new_indptr[static_cast<size_t>(r)] &&
          m.indices_.back() == row_buf[i].first) {
        m.values_.back() += row_buf[i].second;
      } else {
        m.indices_.push_back(row_buf[i].first);
        m.values_.push_back(row_buf[i].second);
      }
    }
    new_indptr[static_cast<size_t>(r) + 1] =
        static_cast<int64_t>(m.indices_.size());
  }
  m.indptr_ = std::move(new_indptr);
  return m;
}

CsrMatrix CsrMatrix::Identity(int64_t n) {
  CsrMatrix m;
  m.rows_ = n;
  m.cols_ = n;
  m.indptr_.resize(static_cast<size_t>(n) + 1);
  std::iota(m.indptr_.begin(), m.indptr_.end(), int64_t{0});
  m.indices_.resize(static_cast<size_t>(n));
  std::iota(m.indices_.begin(), m.indices_.end(), int32_t{0});
  m.values_.assign(static_cast<size_t>(n), 1.0f);
  return m;
}

CsrMatrix CsrMatrix::Transposed() const {
  CooMatrix coo;
  coo.rows = cols_;
  coo.cols = rows_;
  coo.row_indices.reserve(indices_.size());
  coo.col_indices.reserve(indices_.size());
  coo.values.reserve(indices_.size());
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t i = indptr_[static_cast<size_t>(r)];
         i < indptr_[static_cast<size_t>(r) + 1]; ++i) {
      coo.row_indices.push_back(indices_[static_cast<size_t>(i)]);
      coo.col_indices.push_back(static_cast<int32_t>(r));
      coo.values.push_back(values_[static_cast<size_t>(i)]);
    }
  }
  return FromCoo(coo);
}

void CsrMatrix::RowNormalize() {
  for (int64_t r = 0; r < rows_; ++r) {
    float sum = 0.0f;
    for (int64_t i = indptr_[static_cast<size_t>(r)];
         i < indptr_[static_cast<size_t>(r) + 1]; ++i) {
      sum += values_[static_cast<size_t>(i)];
    }
    if (sum == 0.0f) continue;
    for (int64_t i = indptr_[static_cast<size_t>(r)];
         i < indptr_[static_cast<size_t>(r) + 1]; ++i) {
      values_[static_cast<size_t>(i)] /= sum;
    }
  }
}

void CsrMatrix::SymNormalize() {
  std::vector<float> row_sum(static_cast<size_t>(rows_), 0.0f);
  std::vector<float> col_sum(static_cast<size_t>(cols_), 0.0f);
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t i = indptr_[static_cast<size_t>(r)];
         i < indptr_[static_cast<size_t>(r) + 1]; ++i) {
      float v = std::fabs(values_[static_cast<size_t>(i)]);
      row_sum[static_cast<size_t>(r)] += v;
      col_sum[static_cast<size_t>(indices_[static_cast<size_t>(i)])] += v;
    }
  }
  for (int64_t r = 0; r < rows_; ++r) {
    float rs = row_sum[static_cast<size_t>(r)];
    float rinv = rs > 0.0f ? 1.0f / std::sqrt(rs) : 0.0f;
    for (int64_t i = indptr_[static_cast<size_t>(r)];
         i < indptr_[static_cast<size_t>(r) + 1]; ++i) {
      float cs = col_sum[static_cast<size_t>(indices_[static_cast<size_t>(i)])];
      float cinv = cs > 0.0f ? 1.0f / std::sqrt(cs) : 0.0f;
      values_[static_cast<size_t>(i)] *= rinv * cinv;
    }
  }
}

CsrMatrix CsrMatrix::Multiply(const CsrMatrix& other,
                              int64_t max_nnz_per_row) const {
  DGNN_CHECK_EQ(cols_, other.rows_);
  CooMatrix out;
  out.rows = rows_;
  out.cols = other.cols_;
  // Gustavson's algorithm with a dense accumulator per row.
  std::vector<float> acc(static_cast<size_t>(other.cols_), 0.0f);
  std::vector<int32_t> touched;
  for (int64_t r = 0; r < rows_; ++r) {
    touched.clear();
    for (int64_t i = indptr_[static_cast<size_t>(r)];
         i < indptr_[static_cast<size_t>(r) + 1]; ++i) {
      int32_t k = indices_[static_cast<size_t>(i)];
      float va = values_[static_cast<size_t>(i)];
      for (int64_t j = other.indptr_[static_cast<size_t>(k)];
           j < other.indptr_[static_cast<size_t>(k) + 1]; ++j) {
        int32_t c = other.indices_[static_cast<size_t>(j)];
        if (acc[static_cast<size_t>(c)] == 0.0f) touched.push_back(c);
        acc[static_cast<size_t>(c)] += va * other.values_[static_cast<size_t>(j)];
      }
    }
    if (max_nnz_per_row > 0 &&
        static_cast<int64_t>(touched.size()) > max_nnz_per_row) {
      std::partial_sort(
          touched.begin(), touched.begin() + max_nnz_per_row, touched.end(),
          [&](int32_t a, int32_t b) {
            return acc[static_cast<size_t>(a)] > acc[static_cast<size_t>(b)];
          });
      for (size_t i = static_cast<size_t>(max_nnz_per_row); i < touched.size();
           ++i) {
        acc[static_cast<size_t>(touched[i])] = 0.0f;
      }
      touched.resize(static_cast<size_t>(max_nnz_per_row));
    }
    for (int32_t c : touched) {
      float v = acc[static_cast<size_t>(c)];
      if (v != 0.0f) out.Add(static_cast<int32_t>(r), c, v);
      acc[static_cast<size_t>(c)] = 0.0f;
    }
  }
  return FromCoo(out);
}

void CsrMatrix::RemoveDiagonal() {
  std::vector<int64_t> new_indptr(indptr_.size(), 0);
  std::vector<int32_t> new_indices;
  std::vector<float> new_values;
  new_indices.reserve(indices_.size());
  new_values.reserve(values_.size());
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t i = indptr_[static_cast<size_t>(r)];
         i < indptr_[static_cast<size_t>(r) + 1]; ++i) {
      if (indices_[static_cast<size_t>(i)] == r) continue;
      new_indices.push_back(indices_[static_cast<size_t>(i)]);
      new_values.push_back(values_[static_cast<size_t>(i)]);
    }
    new_indptr[static_cast<size_t>(r) + 1] =
        static_cast<int64_t>(new_indices.size());
  }
  indptr_ = std::move(new_indptr);
  indices_ = std::move(new_indices);
  values_ = std::move(new_values);
}

void CsrMatrix::Multiply(const float* x, int64_t d, float* y) const {
  // Edge-level work counter for the telemetry payloads: ag.spmm times the
  // calls, this counts the multiply-adds actually performed.
  if (telemetry::Enabled()) {
    static telemetry::Counter* edges =
        telemetry::GetCounter("graph.spmm_edges_processed");
    edges->Add(nnz());
  }
  // Dispatched row-blocked kernel (src/kernels/): each fixed-grain chunk
  // owns a contiguous row range of y, and every output row is accumulated
  // by exactly one thread in CSR edge order, so results are bit-identical
  // to the serial scalar kernel on every ISA.
  kernels::Spmm(indptr_.data(), indices_.data(), values_.data(), rows_, x, d,
                y);
}

}  // namespace dgnn::graph
