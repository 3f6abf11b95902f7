// AVX2 kernel variant. Compiled with -mavx2 -mfma -ffp-contract=off
// (see src/kernels/CMakeLists.txt): contraction is disabled so the
// explicit mul-then-add sequences below are never silently fused into
// FMAs behind our back.
//
// Determinism: the vector paths below only ever vectorize ACROSS output
// elements, never across a single element's accumulation chain, and use
// separately rounded multiply/add. Each lane therefore performs exactly
// the scalar reference's operation sequence, making results
// bit-identical to kernels_scalar.cc. The GEMM runs register tiles of
// several output rows, so that eight accumulator chains advance per
// step; each chain is still one output element's serial sequence. The
// inner-product GEMM paths (nt/tt) first pack op(B) into rows
// (PackTransposedB) and then run the tn tile, whose per-element chain
// is the scalar nt/tt chain. The candidate scans (ScoreRows,
// ScoreRowsQ8) transpose 8 rows in registers so that each lane runs one
// row's serial Dot chain.

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <type_traits>

#include "kernels/kernels.h"

namespace dgnn::kernels {
namespace {

// One register block of the B-rows-streamed GEMM: output rows
// [i, i + kRows) by columns [j, j + 8 * kVecs), kRows * kVecs <= 8
// accumulator vectors carried across the whole p reduction. `a` points
// at A(i, 0), `b` at B(0, j) and `o` at out(i, j). Each p step loads
// B's kVecs vectors once and broadcasts kRows values of A, so the step's
// kRows * kVecs adds are independent chains; a one-row tile at n = 8 or
// 16 has one or two chains and waits the add latency on every p. Per
// output element the operation sequence is exactly the scalar
// reference's: kDirect (nn) starts from out, otherwise (tn, packed
// nt/tt) from 0 with one final add to out; ascending p; separately
// rounded mul and add. Always inlined, with every loop over rows and
// vectors unrolled, so acc[][] stays in ymm registers (GCC keeps a
// rolled loop's array on the stack; ci/check_kernels.sh fails on any
// ymm operand that addresses the stack).
template <bool kDirect, bool kTransA, int kRows, int kVecs>
__attribute__((always_inline)) inline void GemmTile(const float* a,
                                                    int64_t lda,
                                                    const float* b,
                                                    int64_t ldb, int64_t k,
                                                    float* o, int64_t ldo) {
  __m256 acc[kRows][kVecs];
#pragma GCC unroll 8
  for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 4
    for (int t = 0; t < kVecs; ++t) {
      acc[r][t] = kDirect ? _mm256_loadu_ps(o + r * ldo + 8 * t)
                          : _mm256_setzero_ps();
    }
  }
  // A(i + r, p) is a[r * lda + p] (nn) or a[p * lda + r] (ta).
  const int64_t a_step = kTransA ? lda : 1;
  for (int64_t p = 0; p < k; ++p, a += a_step, b += ldb) {
    __m256 bv[kVecs];
#pragma GCC unroll 4
    for (int t = 0; t < kVecs; ++t) bv[t] = _mm256_loadu_ps(b + 8 * t);
#pragma GCC unroll 8
    for (int r = 0; r < kRows; ++r) {
      const __m256 av = _mm256_broadcast_ss(kTransA ? a + r : a + r * lda);
#pragma GCC unroll 4
      for (int t = 0; t < kVecs; ++t) {
        acc[r][t] = _mm256_add_ps(acc[r][t], _mm256_mul_ps(av, bv[t]));
      }
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 4
    for (int t = 0; t < kVecs; ++t) {
      float* dst = o + r * ldo + 8 * t;
      _mm256_storeu_ps(dst, kDirect ? acc[r][t]
                                    : _mm256_add_ps(_mm256_loadu_ps(dst),
                                                    acc[r][t]));
    }
  }
}

// Output rows [rb, re) by columns [j, j + 8 * kVecs): 8 / kVecs rows per
// tile, and the last (re - rb) mod (8 / kVecs) rows one at a time. Not
// inlined: with every strip's outer loops in one function, GCC runs out
// of general registers for the eight nn row offsets and reloads them
// from the stack on every p.
template <bool kDirect, bool kTransA, int kVecs>
__attribute__((noinline)) void GemmStrip(const GemmView& g, int64_t rb,
                                         int64_t re, int64_t j) {
  constexpr int kRows = 8 / kVecs;
  const float* a = g.a;
  const float* b = g.b + j;
  const int64_t lda = g.lda;
  const int64_t ldb = g.ldb;
  const int64_t k = g.k;
  const int64_t n = g.n;
  auto a_row = [&](int64_t i) { return kTransA ? a + i : a + i * lda; };
  int64_t i = rb;
  for (; i + kRows <= re; i += kRows) {
    GemmTile<kDirect, kTransA, kRows, kVecs>(a_row(i), lda, b, ldb, k,
                                             g.out + i * n + j, n);
  }
  for (; i < re; ++i) {
    GemmTile<kDirect, kTransA, 1, kVecs>(a_row(i), lda, b, ldb, k,
                                         g.out + i * n + j, n);
  }
}

// B-rows-streamed GEMM over output rows [rb, re). kDirect distinguishes
// the nn ordering (accumulate straight into out) from the tn ordering
// (fresh acc, one final add). Columns go in 32-, 16- and 8-float strips
// (2x4, 4x2 and 8x1 tiles), then a scalar tail with the same chains.
template <bool kDirect, bool kTransA>
void GemmRowsBlocked(const GemmView& g, int64_t rb, int64_t re) {
  int64_t j = 0;
  for (; j + 32 <= g.n; j += 32) {
    GemmStrip<kDirect, kTransA, 4>(g, rb, re, j);
  }
  if (j + 16 <= g.n) {
    GemmStrip<kDirect, kTransA, 2>(g, rb, re, j);
    j += 16;
  }
  if (j + 8 <= g.n) {
    GemmStrip<kDirect, kTransA, 1>(g, rb, re, j);
    j += 8;
  }
  for (int64_t i = rb; i < re; ++i) {
    float* orow = g.out + i * g.n;
    for (int64_t c = j; c < g.n; ++c) {
      float acc = kDirect ? orow[c] : 0.0f;
      for (int64_t p = 0; p < g.k; ++p) {
        const float av = kTransA ? g.a[p * g.lda + i] : g.a[i * g.lda + p];
        acc += av * g.b[p * g.ldb + c];
      }
      if (kDirect) {
        orow[c] = acc;
      } else {
        orow[c] += acc;
      }
    }
  }
}

void GemmRows(const GemmView& g, int64_t rb, int64_t re) {
  if (g.tb) {
    // nt/tt: the tn tile over packed op(B) is the scalar inner-product
    // chain (acc = 0, ascending p, one final add) in every lane.
    const GemmView packed = PackTransposedB(g);
    if (g.ta) {
      GemmRowsBlocked<false, true>(packed, rb, re);
    } else {
      GemmRowsBlocked<false, false>(packed, rb, re);
    }
  } else if (g.ta) {
    GemmRowsBlocked<false, true>(g, rb, re);
  } else {
    GemmRowsBlocked<true, false>(g, rb, re);
  }
}

// One y-row tile of SpMM: kVecs accumulator vectors are carried across
// the whole edge scan, so per edge the work is one broadcast + kVecs
// load/mul/add triples and y is stored once per tile. The
// per-element accumulation order is still exactly CSR edge order, so
// the tile is bit-identical to the scalar reference (which also starts
// each element at 0 and adds edges in order). The kVecs loops are
// unrolled to keep acc[] in registers, as in GemmTile.
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
