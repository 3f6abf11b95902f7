// NEON kernel variant (aarch64). Compiled with -ffp-contract=off so the
// explicit mul-then-add sequences stay two rounded operations.
//
// Mirrors kernels_avx2.cc: vectorizes only across independent output
// elements (nn/tn GEMM over j, SpMM over the feature dim, all
// elementwise ops) so results are bit-identical to the scalar
// reference; the inner-product GEMM paths (nt/tt) pack op(B) into rows
// (PackTransposedB) and run the tn path.

#if defined(__ARM_NEON) || defined(__ARM_NEON__)

#include <arm_neon.h>

#include <cstring>

#include "kernels/kernels.h"

namespace dgnn::kernels {
namespace {

template <bool kDirect>
inline void GemmRowsStreamB(const GemmView& g, int64_t rb, int64_t re) {
  for (int64_t i = rb; i < re; ++i) {
    float* orow = g.out + i * g.n;
    int64_t j = 0;
    for (; j + 4 <= g.n; j += 4) {
      float32x4_t acc = kDirect ? vld1q_f32(orow + j) : vdupq_n_f32(0.0f);
      for (int64_t p = 0; p < g.k; ++p) {
        const float av = g.ta ? g.a[p * g.lda + i] : g.a[i * g.lda + p];
        const float32x4_t bv = vld1q_f32(g.b + p * g.ldb + j);
        acc = vaddq_f32(acc, vmulq_n_f32(bv, av));
      }
      if (kDirect) {
        vst1q_f32(orow + j, acc);
      } else {
        vst1q_f32(orow + j, vaddq_f32(vld1q_f32(orow + j), acc));
      }
    }
    for (; j < g.n; ++j) {
      float acc = kDirect ? orow[j] : 0.0f;
      for (int64_t p = 0; p < g.k; ++p) {
        const float av = g.ta ? g.a[p * g.lda + i] : g.a[i * g.lda + p];
        acc += av * g.b[p * g.ldb + j];
      }
      if (kDirect) {
        orow[j] = acc;
      } else {
        orow[j] += acc;
      }
    }
  }
}

void GemmRows(const GemmView& g, int64_t rb, int64_t re) {
  if (g.tb) {
    GemmRowsStreamB<false>(PackTransposedB(g), rb, re);
  } else if (g.ta) {
    GemmRowsStreamB<false>(g, rb, re);
  } else {
    GemmRowsStreamB<true>(g, rb, re);
  }
}

void SpmmRows(const SpmmView& s, int64_t rb, int64_t re) {
  std::memset(s.y + rb * s.d, 0,
              sizeof(float) * static_cast<size_t>((re - rb) * s.d));
  const int64_t dv = s.d & ~int64_t{3};
  for (int64_t r = rb; r < re; ++r) {
    float* yr = s.y + r * s.d;
    for (int64_t i = s.indptr[r]; i < s.indptr[r + 1]; ++i) {
      const float v = s.values[i];
      const float* xr = s.x + static_cast<int64_t>(s.indices[i]) * s.d;
      int64_t c = 0;
      for (; c < dv; c += 4) {
        const float32x4_t y4 = vld1q_f32(yr + c);
        const float32x4_t x4 = vld1q_f32(xr + c);
        vst1q_f32(yr + c, vaddq_f32(y4, vmulq_n_f32(x4, v)));
      }
      for (; c < s.d; ++c) yr[c] += v * xr[c];
    }
  }
}

void AddIntoImpl(float* y, const float* x, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(y + i, vaddq_f32(vld1q_f32(y + i), vld1q_f32(x + i)));
  }
  for (; i < n; ++i) y[i] += x[i];
}

void AxpyIntoImpl(float* y, float a, const float* x, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(y + i, vaddq_f32(vld1q_f32(y + i),
                               vmulq_n_f32(vld1q_f32(x + i), a)));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void ScaleIntoImpl(float* y, float a, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(y + i, vmulq_n_f32(vld1q_f32(y + i), a));
  }
  for (; i < n; ++i) y[i] *= a;
}

void MulIntoImpl(float* y, const float* x, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(y + i, vmulq_f32(vld1q_f32(y + i), vld1q_f32(x + i)));
  }
  for (; i < n; ++i) y[i] *= x[i];
}

void MulAddIntoImpl(float* y, const float* g, const float* x, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(y + i,
              vaddq_f32(vld1q_f32(y + i),
                        vmulq_f32(vld1q_f32(g + i), vld1q_f32(x + i))));
  }
  for (; i < n; ++i) y[i] += g[i] * x[i];
}

void LeakyReluFwdImpl(float* y, int64_t n, float slope) {
  const float32x4_t zero = vdupq_n_f32(0.0f);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t v = vld1q_f32(y + i);
    // NaN compares false against 0, so NaN lanes keep their value —
    // same as the scalar `if (v < 0)` branch.
    const uint32x4_t neg = vcltq_f32(v, zero);
    vst1q_f32(y + i, vbslq_f32(neg, vmulq_n_f32(v, slope), v));
  }
  for (; i < n; ++i) {
    if (y[i] < 0.0f) y[i] *= slope;
  }
}

void LeakyReluBwdImpl(float* gx, const float* g, const float* x, int64_t n,
                      float slope) {
  const float32x4_t s4 = vdupq_n_f32(slope);
  const float32x4_t one = vdupq_n_f32(1.0f);
  const float32x4_t zero = vdupq_n_f32(0.0f);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint32x4_t ge = vcgeq_f32(vld1q_f32(x + i), zero);
    const float32x4_t factor = vbslq_f32(ge, one, s4);
    vst1q_f32(gx + i, vaddq_f32(vld1q_f32(gx + i),
                                vmulq_f32(vld1q_f32(g + i), factor)));
  }
  for (; i < n; ++i) {
    gx[i] += g[i] * (x[i] >= 0.0f ? 1.0f : slope);
  }
}

}  // namespace

const KernelTable* NeonKernelTable() {
  static const KernelTable table = {
      /*name=*/"neon",
      /*isa=*/Isa::kNeon,
      /*gemm_rows=*/&GemmRows,
      /*spmm_rows=*/&SpmmRows,
      /*add_into=*/&AddIntoImpl,
      /*axpy_into=*/&AxpyIntoImpl,
      /*scale_into=*/&ScaleIntoImpl,
      /*mul_into=*/&MulIntoImpl,
      /*mul_add_into=*/&MulAddIntoImpl,
      /*leaky_relu_fwd=*/&LeakyReluFwdImpl,
      /*leaky_relu_bwd=*/&LeakyReluBwdImpl,
      // The scans run the scalar reference: there is no NEON score tile.
      /*score_rows=*/ScalarKernelTable()->score_rows,
      /*score_rows_q8=*/ScalarKernelTable()->score_rows_q8,
  };
  return &table;
}

}  // namespace dgnn::kernels

#endif  // __ARM_NEON
