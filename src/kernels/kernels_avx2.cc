// AVX2 kernel variant. Compiled with -mavx2 -mfma -ffp-contract=off
// (see src/kernels/CMakeLists.txt): contraction is disabled so the
// explicit mul-then-add sequences below are never silently fused into
// FMAs behind our back.
//
// Determinism: the vector paths below only ever vectorize ACROSS output
// elements, never across a single element's accumulation chain, and use
// separately rounded multiply/add. Each lane therefore performs exactly
// the scalar reference's operation sequence, making results
// bit-identical to kernels_scalar.cc. The inner-product GEMM paths
// (nt/tt) first pack op(B) into rows (PackTransposedB) and then run the
// tn row tile, whose per-element chain is the scalar nt/tt chain.

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include "kernels/kernels.h"

namespace dgnn::kernels {
namespace {

// One output-row tile of the B-rows-streamed GEMM: kVecs accumulator
// vectors (8 floats each) are carried across the entire p reduction, so
// the output row is loaded and stored once per tile instead of once per
// p (the store-to-load chain is what limits the naive form). Per output
// element the operation sequence is exactly the naive/scalar order —
// carrying the accumulators does not reorder anything — so the tile
// stays bit-identical to the scalar reference.
template <bool kDirect, int kVecs>
inline void GemmRowTile(const GemmView& g, int64_t i, int64_t j0,
                        float* orow) {
  __m256 acc[kVecs];
  for (int t = 0; t < kVecs; ++t) {
    acc[t] = kDirect ? _mm256_loadu_ps(orow + j0 + 8 * t)
                     : _mm256_setzero_ps();
  }
  for (int64_t p = 0; p < g.k; ++p) {
    const float av = g.ta ? g.a[p * g.lda + i] : g.a[i * g.lda + p];
    const __m256 av8 = _mm256_set1_ps(av);
    const float* brow = g.b + p * g.ldb + j0;
    for (int t = 0; t < kVecs; ++t) {
      const __m256 bv = _mm256_loadu_ps(brow + 8 * t);
      acc[t] = _mm256_add_ps(acc[t], _mm256_mul_ps(av8, bv));
    }
  }
  for (int t = 0; t < kVecs; ++t) {
    if (kDirect) {
      _mm256_storeu_ps(orow + j0 + 8 * t, acc[t]);
    } else {
      _mm256_storeu_ps(
          orow + j0 + 8 * t,
          _mm256_add_ps(_mm256_loadu_ps(orow + j0 + 8 * t), acc[t]));
    }
  }
}

// B-rows-streamed GEMM. kDirect distinguishes the nn ordering
// (accumulate straight into out) from the tn ordering (fresh acc, one
// final add). Output rows are processed in 32-float register tiles.
template <bool kDirect>
inline void GemmRowsStreamB(const GemmView& g, int64_t rb, int64_t re) {
  for (int64_t i = rb; i < re; ++i) {
    float* orow = g.out + i * g.n;
    int64_t j = 0;
    for (; j + 32 <= g.n; j += 32) {
      GemmRowTile<kDirect, 4>(g, i, j, orow);
    }
    for (; j + 8 <= g.n; j += 8) {
      GemmRowTile<kDirect, 1>(g, i, j, orow);
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
    // nt/tt: the tn tile over packed op(B) is the scalar inner-product
    // chain (acc = 0, ascending p, one final add) in every lane.
    GemmRowsStreamB<false>(PackTransposedB(g), rb, re);
  } else if (g.ta) {
    GemmRowsStreamB<false>(g, rb, re);
  } else {
    GemmRowsStreamB<true>(g, rb, re);
  }
}

// One y-row tile of SpMM: kVecs accumulator vectors are carried across
// the whole edge scan, so per edge the work is one broadcast + kVecs
// load/mul/add triples and y is stored once per tile. The
// per-element accumulation order is still exactly CSR edge order, so
// the tile is bit-identical to the scalar reference (which also starts
// each element at 0 and adds edges in order).
template <int kVecs>
inline void SpmmRowTile(const SpmmView& s, int64_t ib, int64_t ie,
                        int64_t c0, float* yr) {
  __m256 acc[kVecs];
  for (int t = 0; t < kVecs; ++t) acc[t] = _mm256_setzero_ps();
  for (int64_t i = ib; i < ie; ++i) {
    const __m256 v8 = _mm256_set1_ps(s.values[i]);
    const float* xr =
        s.x + static_cast<int64_t>(s.indices[i]) * s.d + c0;
    for (int t = 0; t < kVecs; ++t) {
      const __m256 x8 = _mm256_loadu_ps(xr + 8 * t);
      acc[t] = _mm256_add_ps(acc[t], _mm256_mul_ps(v8, x8));
    }
  }
  for (int t = 0; t < kVecs; ++t) _mm256_storeu_ps(yr + c0 + 8 * t, acc[t]);
}

void SpmmRows(const SpmmView& s, int64_t rb, int64_t re) {
  for (int64_t r = rb; r < re; ++r) {
    float* yr = s.y + r * s.d;
    const int64_t ib = s.indptr[r];
    const int64_t ie = s.indptr[r + 1];
    // 32-float register tiles over the feature dimension; wide rows
    // re-scan the (L1-resident) edge slice once per tile.
    int64_t c = 0;
    while (c + 8 <= s.d) {
      const int64_t rem = (s.d - c) / 8;
      const int vecs = rem < 4 ? static_cast<int>(rem) : 4;
      switch (vecs) {
        case 4:
          SpmmRowTile<4>(s, ib, ie, c, yr);
          break;
        case 3:
          SpmmRowTile<3>(s, ib, ie, c, yr);
          break;
        case 2:
          SpmmRowTile<2>(s, ib, ie, c, yr);
          break;
        default:
          SpmmRowTile<1>(s, ib, ie, c, yr);
          break;
      }
      c += vecs * 8;
    }
    // Scalar tail lanes, still per-element edge order.
    for (; c < s.d; ++c) {
      float acc = 0.0f;
      for (int64_t i = ib; i < ie; ++i) {
        acc += s.values[i] * s.x[static_cast<int64_t>(s.indices[i]) * s.d + c];
      }
      yr[c] = acc;
    }
  }
}

void AddIntoImpl(float* y, const float* x, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i),
                                          _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] += x[i];
}

void AxpyIntoImpl(float* y, float a, const float* x, int64_t n) {
  const __m256 a8 = _mm256_set1_ps(a);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_add_ps(_mm256_loadu_ps(y + i),
                             _mm256_mul_ps(a8, _mm256_loadu_ps(x + i))));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void ScaleIntoImpl(float* y, float a, int64_t n) {
  const __m256 a8 = _mm256_set1_ps(a);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_mul_ps(_mm256_loadu_ps(y + i), a8));
  }
  for (; i < n; ++i) y[i] *= a;
}

void MulIntoImpl(float* y, const float* x, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_mul_ps(_mm256_loadu_ps(y + i),
                                          _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] *= x[i];
}

void MulAddIntoImpl(float* y, const float* g, const float* x, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i,
        _mm256_add_ps(_mm256_loadu_ps(y + i),
                      _mm256_mul_ps(_mm256_loadu_ps(g + i),
                                    _mm256_loadu_ps(x + i))));
  }
  for (; i < n; ++i) y[i] += g[i] * x[i];
}

void LeakyReluFwdImpl(float* y, int64_t n, float slope) {
  const __m256 s8 = _mm256_set1_ps(slope);
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(y + i);
    // NaN compares false against 0, so NaN lanes keep their value —
    // same as the scalar `if (v < 0)` branch.
    const __m256 neg = _mm256_cmp_ps(v, zero, _CMP_LT_OQ);
    _mm256_storeu_ps(y + i,
                     _mm256_blendv_ps(v, _mm256_mul_ps(v, s8), neg));
  }
  for (; i < n; ++i) {
    if (y[i] < 0.0f) y[i] *= slope;
  }
}

void LeakyReluBwdImpl(float* gx, const float* g, const float* x, int64_t n,
                      float slope) {
  const __m256 s8 = _mm256_set1_ps(slope);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 xv = _mm256_loadu_ps(x + i);
    const __m256 ge = _mm256_cmp_ps(xv, zero, _CMP_GE_OQ);
    const __m256 factor = _mm256_blendv_ps(s8, one, ge);
    _mm256_storeu_ps(
        gx + i,
        _mm256_add_ps(_mm256_loadu_ps(gx + i),
                      _mm256_mul_ps(_mm256_loadu_ps(g + i), factor)));
  }
  for (; i < n; ++i) {
    gx[i] += g[i] * (x[i] >= 0.0f ? 1.0f : slope);
  }
}

}  // namespace

const KernelTable* Avx2KernelTable() {
  static const KernelTable table = {
      /*name=*/"avx2",
      /*isa=*/Isa::kAvx2,
      /*gemm_rows=*/&GemmRows,
      /*spmm_rows=*/&SpmmRows,
      /*add_into=*/&AddIntoImpl,
      /*axpy_into=*/&AxpyIntoImpl,
      /*scale_into=*/&ScaleIntoImpl,
      /*mul_into=*/&MulIntoImpl,
      /*mul_add_into=*/&MulAddIntoImpl,
      /*leaky_relu_fwd=*/&LeakyReluFwdImpl,
      /*leaky_relu_bwd=*/&LeakyReluBwdImpl,
  };
  return &table;
}

}  // namespace dgnn::kernels

#endif  // __AVX2__ && __FMA__
