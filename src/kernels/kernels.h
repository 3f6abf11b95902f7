// Kernel-dispatch layer: every dense/sparse hot loop in the library —
// the tape GEMM behind the disentangled transforms, CSR SpMM message
// passing, the memory-encoder gate elementwise math, and the serving
// candidate scans — funnels through the entry points declared here.
// At first use the dispatcher picks the best instruction-set variant the
// CPU supports (AVX2 on x86-64, NEON on aarch64, scalar reference
// everywhere); the DGNN_SIMD environment variable overrides the choice.
//
// One numeric mode: every output element is accumulated in exactly the
// serial reference order with separately rounded multiply and add (no
// FMA contraction). SIMD variants vectorize only across independent
// output elements, so results are bit-identical to the scalar kernels —
// and, combined with the thread pool's fixed-grain chunking
// (src/util/thread_pool.h), to any thread count. The row-parallel
// GEMM/SpMM entry points below split work on the same fixed grain as the
// serial kernels.
//
// Non-finite contract: no path skips zero operands, so 0 * NaN /
// 0 * Inf propagate NaN through every path exactly as IEEE arithmetic
// demands (this is what --check-numerics relies on).

#ifndef DGNN_KERNELS_KERNELS_H_
#define DGNN_KERNELS_KERNELS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace dgnn::kernels {

// Instruction-set variants a build can carry. kScalar is always
// compiled; the SIMD variants exist only on their architectures (and
// only when the compiler supports the flags), and are picked at runtime
// only when the CPU reports the feature.
enum class Isa {
  kScalar = 0,
  kAvx2 = 1,  // AVX2 + FMA, x86-64
  kNeon = 2,  // NEON, aarch64
};

const char* IsaName(Isa isa);

// The variant requests currently dispatch to.
Isa ActiveIsa();

// Variants this binary can run on this machine (always includes
// kScalar; sorted ascending).
std::vector<Isa> AvailableIsas();

// Forces dispatch to `isa` (parity tests, CI). Aborts with a CHECK
// failure if the variant is not available in this build / on this CPU.
void ForceIsa(Isa isa);

// Re-evaluates DGNN_SIMD and CPU detection, discarding any ForceIsa.
// DGNN_SIMD accepts: "auto"/"" (best available), "off"/"scalar",
// "avx2", "neon". Naming an unavailable level aborts — a CI job that
// asks for AVX2 on a machine without it should fail loudly, not
// silently measure scalar code.
void ResetIsaFromEnv();

// Always true: there is one numeric mode (see file comment). Kept
// because perfbench's host block (perfbench/host.cc) still reports it.
inline bool Deterministic() { return true; }

// ---------------------------------------------------------------------------
// Kernel entry points
// ---------------------------------------------------------------------------

// out(m x n) += op(A) @ op(B), all row-major contiguous. A is stored
// a_rows x a_cols (op(A) = A^T when ta), B likewise. Parallelized over
// output rows on a fixed grain; each output row is produced by exactly
// one chunk, preserving the thread pool's determinism contract.
void GemmAcc(const float* a, int64_t a_rows, int64_t a_cols, bool ta,
             const float* b, int64_t b_rows, int64_t b_cols, bool tb,
             float* out);

// y = A * x for CSR A (rows x anything) and dense row-major x
// (A.cols x d); y (rows x d) is overwritten. Row-blocked and
// parallelized on a fixed grain; per output row, edges accumulate in
// CSR order so results match the serial kernel bit for bit.
void Spmm(const int64_t* indptr, const int32_t* indices,
          const float* values, int64_t rows, const float* x, int64_t d,
          float* y);

// Elementwise kernels (serial over [0, n); callers parallelize by
// chunking). All variants use separately rounded multiply and add, so
// every ISA produces bit-identical results.
void AddInto(float* y, const float* x, int64_t n);            // y += x
void AxpyInto(float* y, float a, const float* x, int64_t n);  // y += a*x
void ScaleInto(float* y, float a, int64_t n);                 // y *= a
void MulInto(float* y, const float* x, int64_t n);            // y *= x
void MulAddInto(float* y, const float* g, const float* x,
                int64_t n);                                   // y += g.*x
void LeakyReluForward(float* y, int64_t n, float slope);
// gx += g .* (x >= 0 ? 1 : slope)
void LeakyReluBackward(float* gx, const float* g, const float* x,
                       int64_t n, float slope);

// sum_i a[i]*b[i], accumulated serially in index order (acc = 0, then
// one rounded multiply and one rounded add per i). Not dispatched: this
// per-row loop is the reference chain. Candidate scans run ScoreRows,
// whose every lane runs this same chain.
float Dot(const float* a, const float* b, int64_t n);

// Quantized dots for the serving snapshot's int8 / fp16 embedding
// sections (ggml-style storage: per-row scale outside the kernel), with
// the same serial contract as Dot.
//
//  * DotQ8 returns sum_i a[i] * float(q[i]) — the caller multiplies by
//    the row's scale, so the kernel itself is codec-agnostic integer
//    widening + the usual float accumulation. ScoreRowsQ8 is its scan.
//  * DotF16 returns sum_i a[i] * Fp16ToFp32(h[i]).
float DotQ8(const float* a, const int8_t* q, int64_t n);
float DotF16(const float* a, const uint16_t* h, int64_t n);

// Candidate scans: out[i] = Dot(u, base + r * d, d) for i in [b, e),
// where r is ids[i], or i itself when ids is null. Every output is
// bit-identical to the per-row Dot on every ISA: a SIMD table scores
// several rows at once, one row's serial chain per lane.
void ScoreRows(const float* u, const float* base, int64_t d,
               const int32_t* ids, int64_t b, int64_t e, float* out);
// The int8 scan: out[i] = scales[r] * DotQ8(u, q8 + r * d, d), with r as
// in ScoreRows.
void ScoreRowsQ8(const float* u, const int8_t* q8, const float* scales,
                 int64_t d, const int32_t* ids, int64_t b, int64_t e,
                 float* out);

// ---------------------------------------------------------------------------
// IEEE binary16 conversion (software reference)
// ---------------------------------------------------------------------------

// Round-to-nearest-even float32 -> float16, handling subnormals,
// overflow-to-inf and NaN payload truncation. Pure bit manipulation:
// bit-identical on every ISA and compiler, which is what makes fp16
// snapshot sections deterministic artifacts.
inline uint16_t Fp32ToFp16(float v) {
  uint32_t bits;
  __builtin_memcpy(&bits, &v, sizeof(bits));
  const uint32_t sign = (bits >> 16) & 0x8000u;
  const uint32_t exp = (bits >> 23) & 0xffu;
  uint32_t mant = bits & 0x7fffffu;
  if (exp == 0xffu) {  // inf / NaN (keep the top mantissa bits, force
                       // quiet so a payload of all-truncated-zeros
                       // cannot turn a NaN into an inf)
    return static_cast<uint16_t>(
        sign | 0x7c00u | (mant != 0 ? (0x200u | (mant >> 13)) : 0u));
  }
  const int32_t e = static_cast<int32_t>(exp) - 127 + 15;
  if (e >= 0x1f) return static_cast<uint16_t>(sign | 0x7c00u);  // -> inf
  if (e <= 0) {
    if (e < -10) return static_cast<uint16_t>(sign);  // underflow -> 0
    mant |= 0x800000u;  // implicit bit
    const uint32_t shift = static_cast<uint32_t>(14 - e);  // 14..24
    uint32_t half = mant >> shift;
    const uint32_t rem = mant & ((1u << shift) - 1u);
    const uint32_t halfway = 1u << (shift - 1u);
    if (rem > halfway || (rem == halfway && (half & 1u))) ++half;
    return static_cast<uint16_t>(sign | half);
  }
  uint32_t half = (static_cast<uint32_t>(e) << 10) | (mant >> 13);
  const uint32_t rem = mant & 0x1fffu;
  // Rounding may carry into the exponent; that correctly lands on the
  // next binade (and on inf when the max normal rounds up).
  if (rem > 0x1000u || (rem == 0x1000u && (half & 1u))) ++half;
  return static_cast<uint16_t>(sign | half);
}

inline float Fp16ToFp32(uint16_t h) {
  const uint32_t sign = static_cast<uint32_t>(h & 0x8000u) << 16;
  const uint32_t exp = (h >> 10) & 0x1fu;
  uint32_t mant = h & 0x3ffu;
  uint32_t bits;
  if (exp == 0x1fu) {  // inf / NaN
    bits = sign | 0x7f800000u | (mant << 13);
  } else if (exp == 0) {
    if (mant == 0) {
      bits = sign;  // signed zero
    } else {
      // Normalize the subnormal: shift until the implicit bit appears.
      // value = mant * 2^-24 = 1.frac * 2^(-14 - shift), so the fp32
      // biased exponent is 127 - 14 - shift (NOT -15: the subnormal
      // scale is 2^-14, one binade above the half exponent bias).
      int shift = 0;
      while ((mant & 0x400u) == 0) {
        mant <<= 1;
        ++shift;
      }
      mant &= 0x3ffu;
      bits = sign |
             (static_cast<uint32_t>(127 - 14 - shift) << 23) | (mant << 13);
    }
  } else {
    bits = sign | ((exp + 112u) << 23) | (mant << 13);
  }
  float f;
  __builtin_memcpy(&f, &bits, sizeof(f));
  return f;
}

// ---------------------------------------------------------------------------
// Internals shared by the per-ISA translation units
// ---------------------------------------------------------------------------

// Row-major GEMM operand view. Stored a: (ta ? k x m : m x k) with row
// stride lda; stored b: (tb ? n x k : k x n) with row stride ldb; out:
// m x n contiguous.
struct GemmView {
  const float* a = nullptr;
  const float* b = nullptr;
  float* out = nullptr;
  int64_t m = 0, n = 0, k = 0;
  int64_t lda = 0, ldb = 0;
  bool ta = false, tb = false;
};

struct SpmmView {
  const int64_t* indptr = nullptr;
  const int32_t* indices = nullptr;
  const float* values = nullptr;
  const float* x = nullptr;
  float* y = nullptr;
  int64_t d = 0;
};

// One dispatchable variant: row-range workers for the parallel kernels
// plus the full elementwise set.
struct KernelTable {
  const char* name = "";
  Isa isa = Isa::kScalar;
  void (*gemm_rows)(const GemmView&, int64_t rb, int64_t re) = nullptr;
  void (*spmm_rows)(const SpmmView&, int64_t rb, int64_t re) = nullptr;
  void (*add_into)(float*, const float*, int64_t) = nullptr;
  void (*axpy_into)(float*, float, const float*, int64_t) = nullptr;
  void (*scale_into)(float*, float, int64_t) = nullptr;
  void (*mul_into)(float*, const float*, int64_t) = nullptr;
  void (*mul_add_into)(float*, const float*, const float*, int64_t) =
      nullptr;
  void (*leaky_relu_fwd)(float*, int64_t, float) = nullptr;
  void (*leaky_relu_bwd)(float*, const float*, const float*, int64_t,
                         float) = nullptr;
  void (*score_rows)(const float*, const float*, int64_t, const int32_t*,
                     int64_t, int64_t, float*) = nullptr;
  void (*score_rows_q8)(const float*, const int8_t*, const float*, int64_t,
                        const int32_t*, int64_t, int64_t, float*) = nullptr;
};

// Per-ISA tables. The scalar table is the reference implementation and
// always exists; SIMD tables are defined only in builds that compile
// their translation unit (see src/kernels/CMakeLists.txt).
const KernelTable* ScalarKernelTable();
const KernelTable* Avx2KernelTable();  // defined iff DGNN_KERNELS_HAVE_AVX2
const KernelTable* NeonKernelTable();  // defined iff DGNN_KERNELS_HAVE_NEON

// The scalar reference GEMM row worker (the parity suite's ground
// truth).
void ScalarGemmRows(const GemmView& g, int64_t rb, int64_t re);

// Packs op(B) of an nt/tt view into k x n rows in a per-thread buffer
// and returns the equivalent tb = false view (valid until the calling
// thread's next call). A SIMD table runs it through its tn row tile:
// each element keeps the scalar nt/tt chain (acc = 0, ascending p, one
// final add), so the vectorized inner-product GEMM stays bit-identical.
GemmView PackTransposedB(const GemmView& g);

}  // namespace dgnn::kernels

#endif  // DGNN_KERNELS_KERNELS_H_
