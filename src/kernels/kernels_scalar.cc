// Scalar reference kernels — the semantics every SIMD variant is tested
// against. The parity suite asserts the SIMD tables reproduce this code
// bit for bit.

#include <cstring>
#include <vector>

#include "kernels/kernels.h"

namespace dgnn::kernels {
namespace {

// out += op(A) @ op(B) over output rows [rb, re).
//
// Accumulation-order contract (what "bit-identical" means everywhere
// else in this library):
//  * nn/tn (B-rows streamed): out[i][j] accumulates one rounded
//    av * b[p][j] product per p, in ascending p order, directly into
//    the existing out value.
//  * nt/tt (inner-product shaped): a fresh acc starts at 0, sums the
//    rounded products in ascending p order, and is added to out[i][j]
//    with a single final add.
//
// No path skips zero multipliers: 0 * NaN and 0 * Inf must produce NaN
// so --check-numerics sees anomalies no matter which GEMM path a
// gradient took.
void GemmRows(const GemmView& g, int64_t rb, int64_t re) {
  if (!g.ta && !g.tb) {
    for (int64_t i = rb; i < re; ++i) {
      const float* arow = g.a + i * g.lda;
      float* orow = g.out + i * g.n;
      for (int64_t p = 0; p < g.k; ++p) {
        const float av = arow[p];
        const float* brow = g.b + p * g.ldb;
        for (int64_t j = 0; j < g.n; ++j) orow[j] += av * brow[j];
      }
    }
    return;
  }
  if (g.ta && !g.tb) {
    for (int64_t i = rb; i < re; ++i) {
      float* orow = g.out + i * g.n;
      for (int64_t j = 0; j < g.n; ++j) {
        float acc = 0.0f;
        for (int64_t p = 0; p < g.k; ++p) {
          acc += g.a[p * g.lda + i] * g.b[p * g.ldb + j];
        }
        orow[j] += acc;
      }
    }
    return;
  }
  if (!g.ta && g.tb) {
    for (int64_t i = rb; i < re; ++i) {
      const float* arow = g.a + i * g.lda;
      float* orow = g.out + i * g.n;
      for (int64_t j = 0; j < g.n; ++j) {
        const float* brow = g.b + j * g.ldb;
        float acc = 0.0f;
        for (int64_t p = 0; p < g.k; ++p) acc += arow[p] * brow[p];
        orow[j] += acc;
      }
    }
    return;
  }
  // ta && tb
  for (int64_t i = rb; i < re; ++i) {
    float* orow = g.out + i * g.n;
    for (int64_t j = 0; j < g.n; ++j) {
      const float* brow = g.b + j * g.ldb;
      float acc = 0.0f;
      for (int64_t p = 0; p < g.k; ++p) acc += g.a[p * g.lda + i] * brow[p];
      orow[j] += acc;
    }
  }
}

void SpmmRows(const SpmmView& s, int64_t rb, int64_t re) {
  std::memset(s.y + rb * s.d, 0,
              sizeof(float) * static_cast<size_t>((re - rb) * s.d));
  for (int64_t r = rb; r < re; ++r) {
    float* yr = s.y + r * s.d;
    for (int64_t i = s.indptr[r]; i < s.indptr[r + 1]; ++i) {
      const float v = s.values[i];
      const float* xr = s.x + static_cast<int64_t>(s.indices[i]) * s.d;
      for (int64_t c = 0; c < s.d; ++c) yr[c] += v * xr[c];
    }
  }
}

void AddIntoImpl(float* y, const float* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] += x[i];
}

void AxpyIntoImpl(float* y, float a, const float* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void ScaleIntoImpl(float* y, float a, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] *= a;
}

void MulIntoImpl(float* y, const float* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] *= x[i];
}

void MulAddIntoImpl(float* y, const float* g, const float* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] += g[i] * x[i];
}

void LeakyReluFwdImpl(float* y, int64_t n, float slope) {
  for (int64_t i = 0; i < n; ++i) {
    if (y[i] < 0.0f) y[i] *= slope;
  }
}

void LeakyReluBwdImpl(float* gx, const float* g, const float* x, int64_t n,
                      float slope) {
  for (int64_t i = 0; i < n; ++i) {
    gx[i] += g[i] * (x[i] >= 0.0f ? 1.0f : slope);
  }
}

void ScoreRowsImpl(const float* u, const float* base, int64_t d,
                   const int32_t* ids, int64_t b, int64_t e, float* out) {
  for (int64_t i = b; i < e; ++i) {
    const int64_t r = ids != nullptr ? ids[i] : i;
    out[i] = Dot(u, base + r * d, d);
  }
}

void ScoreRowsQ8Impl(const float* u, const int8_t* q8, const float* scales,
                     int64_t d, const int32_t* ids, int64_t b, int64_t e,
                     float* out) {
  for (int64_t i = b; i < e; ++i) {
    const int64_t r = ids != nullptr ? ids[i] : i;
    out[i] = scales[r] * DotQ8(u, q8 + r * d, d);
  }
}

}  // namespace

float Dot(const float* a, const float* b, int64_t n) {
  float acc = 0.0f;
  for (int64_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

float DotQ8(const float* a, const int8_t* q, int64_t n) {
  float acc = 0.0f;
  for (int64_t i = 0; i < n; ++i) acc += a[i] * static_cast<float>(q[i]);
  return acc;
}

float DotF16(const float* a, const uint16_t* h, int64_t n) {
  float acc = 0.0f;
  for (int64_t i = 0; i < n; ++i) acc += a[i] * Fp16ToFp32(h[i]);
  return acc;
}

void ScalarGemmRows(const GemmView& g, int64_t rb, int64_t re) {
  GemmRows(g, rb, re);
}

GemmView PackTransposedB(const GemmView& g) {
  thread_local std::vector<float> packed;
  packed.resize(static_cast<size_t>(g.k * g.n));
  for (int64_t j = 0; j < g.n; ++j) {
    const float* brow = g.b + j * g.ldb;
    for (int64_t p = 0; p < g.k; ++p) packed[p * g.n + j] = brow[p];
  }
  GemmView v = g;
  v.b = packed.data();
  v.ldb = g.n;
  v.tb = false;
  return v;
}

const KernelTable* ScalarKernelTable() {
  static const KernelTable table = {
      /*name=*/"scalar",
      /*isa=*/Isa::kScalar,
      /*gemm_rows=*/&GemmRows,
      /*spmm_rows=*/&SpmmRows,
      /*add_into=*/&AddIntoImpl,
      /*axpy_into=*/&AxpyIntoImpl,
      /*scale_into=*/&ScaleIntoImpl,
      /*mul_into=*/&MulIntoImpl,
      /*mul_add_into=*/&MulAddIntoImpl,
      /*leaky_relu_fwd=*/&LeakyReluFwdImpl,
      /*leaky_relu_bwd=*/&LeakyReluBwdImpl,
      /*score_rows=*/&ScoreRowsImpl,
      /*score_rows_q8=*/&ScoreRowsQ8Impl,
  };
  return &table;
}

}  // namespace dgnn::kernels
