// Runtime kernel dispatch: CPU detection, the DGNN_SIMD override, and
// the parallel entry points that split GEMM/SpMM row ranges on the
// thread pool's fixed grain (same grain as the pre-dispatch serial
// kernels, so chunk boundaries — and therefore the bits — are
// unchanged).

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <string>
#include <vector>

#include "kernels/kernels.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace dgnn::kernels {
namespace {

// Same fixed grain the tape GEMM and CSR SpMM used before dispatch
// existed: one chunk covers 64 output rows, each row written by exactly
// one chunk.
constexpr int64_t kRowGrain = 64;

const KernelTable* TableFor(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return ScalarKernelTable();
    case Isa::kAvx2:
#if defined(DGNN_KERNELS_HAVE_AVX2)
      return Avx2KernelTable();
#else
      break;
#endif
    case Isa::kNeon:
#if defined(DGNN_KERNELS_HAVE_NEON)
      return NeonKernelTable();
#else
      break;
#endif
  }
  DGNN_CHECK(false) << "kernel variant " << IsaName(isa)
                    << " not compiled into this build";
  return nullptr;
}

bool IsaIsAvailable(Isa isa) {
  for (Isa have : AvailableIsas()) {
    if (have == isa) return true;
  }
  return false;
}

const KernelTable* ResolveFromEnv() {
  const char* env = std::getenv("DGNN_SIMD");
  std::string want = env ? env : "";
  for (char& c : want) c = static_cast<char>(std::tolower(c));
  if (want.empty() || want == "auto") {
    const std::vector<Isa> have = AvailableIsas();
    return TableFor(have.back());  // sorted ascending; best is last
  }
  if (want == "off" || want == "scalar") return ScalarKernelTable();
  Isa isa = Isa::kScalar;
  if (want == "avx2") {
    isa = Isa::kAvx2;
  } else if (want == "neon") {
    isa = Isa::kNeon;
  } else {
    DGNN_CHECK(false) << "DGNN_SIMD=" << want
                      << " (expected auto|off|scalar|avx2|neon)";
  }
  // Asking for an unavailable level aborts: a CI job that requests AVX2
  // on a machine without it must fail loudly, not measure scalar code.
  DGNN_CHECK(IsaIsAvailable(isa))
      << "DGNN_SIMD=" << want << " but this build/CPU cannot run it";
  return TableFor(isa);
}

std::atomic<const KernelTable*>& ActiveTableSlot() {
  static std::atomic<const KernelTable*> slot{ResolveFromEnv()};
  return slot;
}

const KernelTable* ActiveTable() {
  return ActiveTableSlot().load(std::memory_order_relaxed);
}

}  // namespace

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kNeon:
      return "neon";
  }
  return "unknown";
}

Isa ActiveIsa() { return ActiveTable()->isa; }

std::vector<Isa> AvailableIsas() {
  std::vector<Isa> have{Isa::kScalar};
#if defined(DGNN_KERNELS_HAVE_AVX2)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    have.push_back(Isa::kAvx2);
  }
#endif
#if defined(DGNN_KERNELS_HAVE_NEON)
  // NEON is architecturally guaranteed on aarch64.
  have.push_back(Isa::kNeon);
#endif
  return have;
}

void ForceIsa(Isa isa) {
  DGNN_CHECK(IsaIsAvailable(isa))
      << "ForceIsa(" << IsaName(isa)
      << "): variant not available in this build / on this CPU";
  ActiveTableSlot().store(TableFor(isa), std::memory_order_relaxed);
}

void ResetIsaFromEnv() {
  ActiveTableSlot().store(ResolveFromEnv(), std::memory_order_relaxed);
}

void GemmAcc(const float* a, int64_t a_rows, int64_t a_cols, bool ta,
             const float* b, int64_t b_rows, int64_t b_cols, bool tb,
             float* out) {
  const int64_t m = ta ? a_cols : a_rows;
  const int64_t k = ta ? a_rows : a_cols;
  const int64_t k_b = tb ? b_cols : b_rows;
  const int64_t n = tb ? b_rows : b_cols;
  DGNN_CHECK_EQ(k, k_b) << "GemmAcc inner dimensions";
  GemmView g;
  g.a = a;
  g.b = b;
  g.out = out;
  g.m = m;
  g.n = n;
  g.k = k;
  g.lda = a_cols;
  g.ldb = b_cols;
  g.ta = ta;
  g.tb = tb;
  const KernelTable* table = ActiveTable();
  util::ParallelFor(0, m, kRowGrain, [&](int64_t rb, int64_t re) {
    table->gemm_rows(g, rb, re);
  });
}

void Spmm(const int64_t* indptr, const int32_t* indices,
          const float* values, int64_t rows, const float* x, int64_t d,
          float* y) {
  SpmmView s;
  s.indptr = indptr;
  s.indices = indices;
  s.values = values;
  s.x = x;
  s.y = y;
  s.d = d;
  const KernelTable* table = ActiveTable();
  util::ParallelFor(0, rows, kRowGrain, [&](int64_t rb, int64_t re) {
    table->spmm_rows(s, rb, re);
  });
}

void AddInto(float* y, const float* x, int64_t n) {
  ActiveTable()->add_into(y, x, n);
}

void AxpyInto(float* y, float a, const float* x, int64_t n) {
  ActiveTable()->axpy_into(y, a, x, n);
}

void ScaleInto(float* y, float a, int64_t n) {
  ActiveTable()->scale_into(y, a, n);
}

void MulInto(float* y, const float* x, int64_t n) {
  ActiveTable()->mul_into(y, x, n);
}

void MulAddInto(float* y, const float* g, const float* x, int64_t n) {
  ActiveTable()->mul_add_into(y, g, x, n);
}

void LeakyReluForward(float* y, int64_t n, float slope) {
  ActiveTable()->leaky_relu_fwd(y, n, slope);
}

void LeakyReluBackward(float* gx, const float* g, const float* x,
                       int64_t n, float slope) {
  ActiveTable()->leaky_relu_bwd(gx, g, x, n, slope);
}

void ScoreRows(const float* u, const float* base, int64_t d,
               const int32_t* ids, int64_t b, int64_t e, float* out) {
  ActiveTable()->score_rows(u, base, d, ids, b, e, out);
}

void ScoreRowsQ8(const float* u, const int8_t* q8, const float* scales,
                 int64_t d, const int32_t* ids, int64_t b, int64_t e,
                 float* out) {
  ActiveTable()->score_rows_q8(u, q8, scales, d, ids, b, e, out);
}

}  // namespace dgnn::kernels
