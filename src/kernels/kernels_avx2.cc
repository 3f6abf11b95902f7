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
// tn row tile, whose per-element chain is the scalar nt/tt chain. The
// candidate scans (ScoreRows, ScoreRowsQ8) transpose 8 rows in
// registers so that each lane runs one row's serial Dot chain.

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <type_traits>

#include "kernels/kernels.h"

namespace dgnn::kernels {
namespace {

// One output-row tile of the B-rows-streamed GEMM: kVecs accumulator
// vectors (8 floats each) are carried across the entire p reduction, so
// the output row is loaded and stored once per tile instead of once per
// p (the store-to-load chain is what limits the naive form). Per output
// element the operation sequence is exactly the naive/scalar order —
// carrying the accumulators does not reorder anything — so the tile
// stays bit-identical to the scalar reference. The kVecs loops are
// unrolled because at -O2 GCC keeps a rolled loop's acc[] in a stack
// array, which costs a store and a reload per vector per p.
template <bool kDirect, int kVecs>
inline void GemmRowTile(const GemmView& g, int64_t i, int64_t j0,
                        float* orow) {
  __m256 acc[kVecs];
#pragma GCC unroll 4
  for (int t = 0; t < kVecs; ++t) {
    acc[t] = kDirect ? _mm256_loadu_ps(orow + j0 + 8 * t)
                     : _mm256_setzero_ps();
  }
  for (int64_t p = 0; p < g.k; ++p) {
    const float av = g.ta ? g.a[p * g.lda + i] : g.a[i * g.lda + p];
    const __m256 av8 = _mm256_set1_ps(av);
    const float* brow = g.b + p * g.ldb + j0;
#pragma GCC unroll 4
    for (int t = 0; t < kVecs; ++t) {
      const __m256 bv = _mm256_loadu_ps(brow + 8 * t);
      acc[t] = _mm256_add_ps(acc[t], _mm256_mul_ps(av8, bv));
    }
  }
#pragma GCC unroll 4
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
// each element at 0 and adds edges in order). The kVecs loops are
// unrolled to keep acc[] in registers, as in GemmRowTile.
template <int kVecs>
inline void SpmmRowTile(const SpmmView& s, int64_t ib, int64_t ie,
                        int64_t c0, float* yr) {
  __m256 acc[kVecs];
#pragma GCC unroll 4
  for (int t = 0; t < kVecs; ++t) acc[t] = _mm256_setzero_ps();
  for (int64_t i = ib; i < ie; ++i) {
    const __m256 v8 = _mm256_set1_ps(s.values[i]);
    const float* xr =
        s.x + static_cast<int64_t>(s.indices[i]) * s.d + c0;
#pragma GCC unroll 4
    for (int t = 0; t < kVecs; ++t) {
      const __m256 x8 = _mm256_loadu_ps(xr + 8 * t);
      acc[t] = _mm256_add_ps(acc[t], _mm256_mul_ps(v8, x8));
    }
  }
#pragma GCC unroll 4
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

// Columns [c, c + 4) of rows a and b side by side as fp32: lanes 0-3
// from a, lanes 4-7 from b. The int8 widening (vpmovsxbd + vcvtdq2ps) is
// exact, as is the scalar float(q).
inline __m256 LoadPair4(const float* a, const float* b, int64_t c) {
  return _mm256_insertf128_ps(_mm256_castps128_ps256(_mm_loadu_ps(a + c)),
                              _mm_loadu_ps(b + c), 1);
}
inline __m256 LoadPair4(const int8_t* a, const int8_t* b, int64_t c) {
  const __m128i q =
      _mm_unpacklo_epi32(_mm_loadu_si32(a + c), _mm_loadu_si32(b + c));
  return _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(q));
}

// Column c of rows r0..r7 as fp32, one element per lane.
inline __m256 LoadCol8(const float* r0, const float* r1, const float* r2,
                       const float* r3, const float* r4, const float* r5,
                       const float* r6, const float* r7, int64_t c) {
  return _mm256_setr_ps(r0[c], r1[c], r2[c], r3[c], r4[c], r5[c], r6[c],
                        r7[c]);
}
inline __m256 LoadCol8(const int8_t* r0, const int8_t* r1, const int8_t* r2,
                       const int8_t* r3, const int8_t* r4, const int8_t* r5,
                       const int8_t* r6, const int8_t* r7, int64_t c) {
  return _mm256_cvtepi32_ps(_mm256_setr_epi32(r0[c], r1[c], r2[c], r3[c],
                                              r4[c], r5[c], r6[c], r7[c]));
}

// One step of a lane's serial chain: acc += u[c] * col, with the
// product and the sum rounded separately, as in Dot and DotQ8.
inline __m256 ChainStep(__m256 acc, const float* u, int64_t c, __m256 col) {
  return _mm256_add_ps(acc, _mm256_mul_ps(_mm256_broadcast_ss(u + c), col));
}

// Scores 8 rows at once: lane j returns the serial chain of dot(u, rj)
// over d columns (acc = 0, ascending column, separate mul and add), so
// every lane is bit-identical to the per-row kernel. Each 4-column step
// loads rows j and j + 4 into one register and transposes in registers;
// the last d mod 4 columns are gathered one column at a time, so no load
// passes a row's end. Always inlined, so the 8 row pointers stay in
// registers instead of going through the stack as call arguments.
template <typename T>
__attribute__((always_inline)) inline __m256 ScoreTile8(
    const float* u, const T* r0, const T* r1, const T* r2, const T* r3,
    const T* r4, const T* r5, const T* r6, const T* r7, int64_t d) {
  __m256 acc = _mm256_setzero_ps();
  int64_t c = 0;
  for (; c + 4 <= d; c += 4) {
    const __m256 x0 = LoadPair4(r0, r4, c);
    const __m256 x1 = LoadPair4(r1, r5, c);
    const __m256 x2 = LoadPair4(r2, r6, c);
    const __m256 x3 = LoadPair4(r3, r7, c);
    // t0 = (r0[c], r1[c], r0[c+1], r1[c+1] | the same of r4, r5), ...
    const __m256 t0 = _mm256_unpacklo_ps(x0, x1);
    const __m256 t1 = _mm256_unpackhi_ps(x0, x1);
    const __m256 t2 = _mm256_unpacklo_ps(x2, x3);
    const __m256 t3 = _mm256_unpackhi_ps(x2, x3);
    // ... and column c + p = (r0[c+p], r1[c+p], ..., r7[c+p]).
    acc = ChainStep(acc, u, c + 0, _mm256_shuffle_ps(t0, t2, 0x44));
    acc = ChainStep(acc, u, c + 1, _mm256_shuffle_ps(t0, t2, 0xee));
    acc = ChainStep(acc, u, c + 2, _mm256_shuffle_ps(t1, t3, 0x44));
    acc = ChainStep(acc, u, c + 3, _mm256_shuffle_ps(t1, t3, 0xee));
  }
  for (; c < d; ++c) {
    acc = ChainStep(acc, u, c, LoadCol8(r0, r1, r2, r3, r4, r5, r6, r7, c));
  }
  return acc;
}

// out[i] = (scales ? scales[r] : 1) * dot(u, row r) over [b, e), with
// r = ids ? ids[i] : i: 8 rows per tile, and the last (e - b) mod 8
// rows through the scalar reference. The int8 scale multiplies the
// finished chain once, as QuantizedMatrix::Dot does.
template <typename T, bool kGathered>
inline void ScoreRowsTiled(const float* u, const T* base,
                           const float* scales, int64_t d,
                           const int32_t* ids, int64_t b, int64_t e,
                           float* out) {
  auto row = [&](int64_t i) {
    return base + (kGathered ? ids[i] : i) * d;
  };
  int64_t i = b;
  for (; i + 8 <= e; i += 8) {
    __m256 acc = ScoreTile8(u, row(i), row(i + 1), row(i + 2), row(i + 3),
                            row(i + 4), row(i + 5), row(i + 6), row(i + 7),
                            d);
    if (scales != nullptr) {
      const __m256 s8 =
          kGathered
              ? _mm256_i32gather_ps(
                    scales,
                    _mm256_loadu_si256(
                        reinterpret_cast<const __m256i*>(ids + i)),
                    4)
              : _mm256_loadu_ps(scales + i);
      acc = _mm256_mul_ps(s8, acc);
    }
    _mm256_storeu_ps(out + i, acc);
  }
  for (; i < e; ++i) {
    if constexpr (std::is_same_v<T, float>) {
      out[i] = Dot(u, row(i), d);
    } else {
      out[i] = scales[kGathered ? ids[i] : i] * DotQ8(u, row(i), d);
    }
  }
}

void ScoreRowsImpl(const float* u, const float* base, int64_t d,
                   const int32_t* ids, int64_t b, int64_t e, float* out) {
  if (ids != nullptr) {
    ScoreRowsTiled<float, true>(u, base, nullptr, d, ids, b, e, out);
  } else {
    ScoreRowsTiled<float, false>(u, base, nullptr, d, ids, b, e, out);
  }
}

void ScoreRowsQ8Impl(const float* u, const int8_t* q8, const float* scales,
                     int64_t d, const int32_t* ids, int64_t b, int64_t e,
                     float* out) {
  if (ids != nullptr) {
    ScoreRowsTiled<int8_t, true>(u, q8, scales, d, ids, b, e, out);
  } else {
    ScoreRowsTiled<int8_t, false>(u, q8, scales, d, ids, b, e, out);
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
      /*score_rows=*/&ScoreRowsImpl,
      /*score_rows_q8=*/&ScoreRowsQ8Impl,
  };
  return &table;
}

}  // namespace dgnn::kernels

#endif  // __AVX2__ && __FMA__
