// Kernel parity suite: every dispatched ISA variant must reproduce the
// scalar reference BIT FOR BIT (memcmp on the raw float buffers —
// tolerance checks would hide accumulation-order drift). Exercised for
// every GEMM transpose combination, ragged shapes that do not divide the
// vector width or the ParallelFor grain, the skinny shapes training
// runs, and thread counts 1/2/7.
//
// Also holds the NaN-injection regression for the old GemmAcc sparse
// skip (`if (av == 0.0f) continue;`): 0 * NaN must stay NaN on every
// path, so --check-numerics sees anomalies no matter which GEMM path a
// gradient took.

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "kernels/kernels.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dgnn {
namespace {

const int kThreadCounts[] = {1, 2, 7};

// (m, n, k) shapes: minimal, ragged vs the 8-lane vector width, ragged
// vs the 64-row ParallelFor grain, one multi-chunk shape, and the memory
// gate and transform GEMMs training runs (d = 16, |M| = 8) over more
// than three chunks.
struct Shape {
  int64_t m, n, k;
};
const Shape kShapes[] = {
    {1, 1, 1},    {3, 5, 7},     {17, 33, 9},  {64, 8, 32},
    {65, 66, 67}, {130, 31, 48}, {200, 8, 16}, {200, 16, 8},
};

class KernelParityTest : public ::testing::Test {
 protected:
  KernelParityTest() : saved_threads_(util::NumThreads()) {}
  ~KernelParityTest() override {
    util::SetNumThreads(saved_threads_);
    kernels::ResetIsaFromEnv();
  }

  const int saved_threads_;
};

std::vector<float> RandomVec(int64_t n, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = rng.UniformFloat(-1.0f, 1.0f);
  return v;
}

testing::AssertionResult BitIdentical(const std::vector<float>& a,
                                      const std::vector<float>& b) {
  if (a.size() != b.size()) {
    return testing::AssertionFailure() << "size mismatch";
  }
  if (std::memcmp(a.data(), b.data(), sizeof(float) * a.size()) != 0) {
    float max_diff = 0.0f;
    size_t where = 0;
    for (size_t i = 0; i < a.size(); ++i) {
      const float d = std::fabs(a[i] - b[i]);
      if (d > max_diff) {
        max_diff = d;
        where = i;
      }
    }
    return testing::AssertionFailure()
           << "buffers differ bitwise (max abs diff " << max_diff
           << " at element " << where << ")";
  }
  return testing::AssertionSuccess();
}

// Scalar-reference GEMM over the full row range in one chunk — the
// ground truth every dispatched configuration is compared against.
std::vector<float> ReferenceGemm(const Shape& s, bool ta, bool tb,
                                 const std::vector<float>& a,
                                 const std::vector<float>& b,
                                 const std::vector<float>& init) {
  std::vector<float> out = init;
  kernels::GemmView g;
  g.a = a.data();
  g.b = b.data();
  g.out = out.data();
  g.m = s.m;
  g.n = s.n;
  g.k = s.k;
  g.lda = ta ? s.m : s.k;
  g.ldb = tb ? s.k : s.n;
  g.ta = ta;
  g.tb = tb;
  kernels::ScalarGemmRows(g, 0, s.m);
  return out;
}

std::vector<float> DispatchedGemm(const Shape& s, bool ta, bool tb,
                                  const std::vector<float>& a,
                                  const std::vector<float>& b,
                                  const std::vector<float>& init) {
  std::vector<float> out = init;
  const int64_t a_rows = ta ? s.k : s.m;
  const int64_t a_cols = ta ? s.m : s.k;
  const int64_t b_rows = tb ? s.n : s.k;
  const int64_t b_cols = tb ? s.k : s.n;
  kernels::GemmAcc(a.data(), a_rows, a_cols, ta, b.data(), b_rows, b_cols,
                   tb, out.data());
  return out;
}

TEST_F(KernelParityTest, GemmDeterministicBitIdentical) {
  for (kernels::Isa isa : kernels::AvailableIsas()) {
    kernels::ForceIsa(isa);
    for (const Shape& s : kShapes) {
      const auto a = RandomVec(s.m * s.k, 1);
      const auto b = RandomVec(s.k * s.n, 2);
      const auto init = RandomVec(s.m * s.n, 3);
      for (bool ta : {false, true}) {
        for (bool tb : {false, true}) {
          const auto ref = ReferenceGemm(s, ta, tb, a, b, init);
          for (int threads : kThreadCounts) {
            util::SetNumThreads(threads);
            const auto got = DispatchedGemm(s, ta, tb, a, b, init);
            EXPECT_TRUE(BitIdentical(ref, got))
                << kernels::IsaName(isa) << " ta=" << ta << " tb=" << tb
                << " m=" << s.m << " n=" << s.n << " k=" << s.k
                << " threads=" << threads;
          }
        }
      }
    }
  }
}

// Regression for the old sparse skip: a zero in A multiplying a NaN (or
// Inf) in B must poison the output on EVERY path and every ISA —
// 0 * NaN is NaN, and --check-numerics depends on it.
TEST_F(KernelParityTest, GemmDeterministicPropagatesNanThroughZero) {
  const Shape s{5, 6, 4};
  for (kernels::Isa isa : kernels::AvailableIsas()) {
    kernels::ForceIsa(isa);
    for (bool ta : {false, true}) {
      for (bool tb : {false, true}) {
        // A is all zeros; B carries one NaN and one Inf. Every output
        // element in the NaN/Inf columns must be NaN.
        std::vector<float> a(static_cast<size_t>(s.m * s.k), 0.0f);
        std::vector<float> b(static_cast<size_t>(s.k * s.n), 1.0f);
        const int64_t ldb = tb ? s.k : s.n;
        // Element (p=1, j=2) of op(B).
        b[static_cast<size_t>(tb ? 2 * ldb + 1 : 1 * ldb + 2)] =
            std::nanf("");
        // Element (p=3, j=0) of op(B).
        b[static_cast<size_t>(tb ? 0 * ldb + 3 : 3 * ldb + 0)] =
            std::numeric_limits<float>::infinity();
        std::vector<float> out(static_cast<size_t>(s.m * s.n), 0.0f);
        const auto got = DispatchedGemm(s, ta, tb, a, b, out);
        for (int64_t i = 0; i < s.m; ++i) {
          EXPECT_TRUE(std::isnan(got[static_cast<size_t>(i * s.n + 2)]))
              << kernels::IsaName(isa) << " ta=" << ta << " tb=" << tb
              << " row " << i << ": 0*NaN was dropped";
          EXPECT_TRUE(std::isnan(got[static_cast<size_t>(i * s.n + 0)]))
              << kernels::IsaName(isa) << " ta=" << ta << " tb=" << tb
              << " row " << i << ": 0*Inf was dropped";
        }
      }
    }
  }
}

struct Csr {
  std::vector<int64_t> indptr;
  std::vector<int32_t> indices;
  std::vector<float> values;
  int64_t rows = 0;
  int64_t cols = 0;
};

Csr RandomCsr(int64_t rows, int64_t cols, double density, uint64_t seed) {
  util::Rng rng(seed);
  Csr m;
  m.rows = rows;
  m.cols = cols;
  m.indptr.push_back(0);
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      if (rng.UniformDouble() < density) {
        m.indices.push_back(static_cast<int32_t>(c));
        m.values.push_back(rng.UniformFloat(-1.0f, 1.0f));
      }
    }
    m.indptr.push_back(static_cast<int64_t>(m.indices.size()));
  }
  return m;
}

TEST_F(KernelParityTest, SpmmParityAcrossIsasAndThreads) {
  // Feature widths: scalar-only, ragged vs the vector width, exact
  // multiples, > one cache line.
  const int64_t kDims[] = {1, 3, 8, 19, 32, 64};
  const Csr m = RandomCsr(/*rows=*/150, /*cols=*/90, /*density=*/0.15, 7);
  for (int64_t d : kDims) {
    const auto x = RandomVec(m.cols * d, 8);
    // Ground truth: scalar reference, full range.
    std::vector<float> ref(static_cast<size_t>(m.rows * d), -1.0f);
    kernels::SpmmView sv;
    sv.indptr = m.indptr.data();
    sv.indices = m.indices.data();
    sv.values = m.values.data();
    sv.x = x.data();
    sv.y = ref.data();
    sv.d = d;
    kernels::ScalarKernelTable()->spmm_rows(sv, 0, m.rows);
    for (kernels::Isa isa : kernels::AvailableIsas()) {
      kernels::ForceIsa(isa);
      for (int threads : kThreadCounts) {
        util::SetNumThreads(threads);
        std::vector<float> got(static_cast<size_t>(m.rows * d), -1.0f);
        kernels::Spmm(m.indptr.data(), m.indices.data(), m.values.data(),
                      m.rows, x.data(), d, got.data());
        EXPECT_TRUE(BitIdentical(ref, got))
            << kernels::IsaName(isa) << " d=" << d
            << " threads=" << threads;
      }
    }
  }
}

// Elementwise kernels are bit-identical across ISAs (they never use FMA
// or reassociate).
TEST_F(KernelParityTest, ElementwiseBitIdenticalAcrossIsas) {
  const int64_t kSizes[] = {1, 7, 8, 33, 4096, 5000};
  for (int64_t n : kSizes) {
    const auto x = RandomVec(n, 9);
    const auto g = RandomVec(n, 10);
    const auto y0 = RandomVec(n, 11);
    // References from the scalar table.
    kernels::ForceIsa(kernels::Isa::kScalar);
    auto ref_add = y0;
    kernels::AddInto(ref_add.data(), x.data(), n);
    auto ref_axpy = y0;
    kernels::AxpyInto(ref_axpy.data(), 0.37f, x.data(), n);
    auto ref_scale = y0;
    kernels::ScaleInto(ref_scale.data(), -1.21f, n);
    auto ref_mul = y0;
    kernels::MulInto(ref_mul.data(), x.data(), n);
    auto ref_muladd = y0;
    kernels::MulAddInto(ref_muladd.data(), g.data(), x.data(), n);
    auto ref_lrelu = y0;
    kernels::LeakyReluForward(ref_lrelu.data(), n, 0.2f);
    auto ref_lrelu_bwd = y0;
    kernels::LeakyReluBackward(ref_lrelu_bwd.data(), g.data(), x.data(),
                               n, 0.2f);
    for (kernels::Isa isa : kernels::AvailableIsas()) {
      kernels::ForceIsa(isa);
      auto got = y0;
      kernels::AddInto(got.data(), x.data(), n);
      EXPECT_TRUE(BitIdentical(ref_add, got))
          << "AddInto " << kernels::IsaName(isa) << " n=" << n;
      got = y0;
      kernels::AxpyInto(got.data(), 0.37f, x.data(), n);
      EXPECT_TRUE(BitIdentical(ref_axpy, got))
          << "AxpyInto " << kernels::IsaName(isa) << " n=" << n;
      got = y0;
      kernels::ScaleInto(got.data(), -1.21f, n);
      EXPECT_TRUE(BitIdentical(ref_scale, got))
          << "ScaleInto " << kernels::IsaName(isa) << " n=" << n;
      got = y0;
      kernels::MulInto(got.data(), x.data(), n);
      EXPECT_TRUE(BitIdentical(ref_mul, got))
          << "MulInto " << kernels::IsaName(isa) << " n=" << n;
      got = y0;
      kernels::MulAddInto(got.data(), g.data(), x.data(), n);
      EXPECT_TRUE(BitIdentical(ref_muladd, got))
          << "MulAddInto " << kernels::IsaName(isa) << " n=" << n;
      got = y0;
      kernels::LeakyReluForward(got.data(), n, 0.2f);
      EXPECT_TRUE(BitIdentical(ref_lrelu, got))
          << "LeakyReluForward " << kernels::IsaName(isa) << " n=" << n;
      got = y0;
      kernels::LeakyReluBackward(got.data(), g.data(), x.data(), n, 0.2f);
      EXPECT_TRUE(BitIdentical(ref_lrelu_bwd, got))
          << "LeakyReluBackward " << kernels::IsaName(isa) << " n=" << n;
    }
  }
}

// LeakyRelu lane-select must treat NaN like the scalar branch: NaN < 0
// is false, so NaN passes through unscaled on every ISA.
TEST_F(KernelParityTest, LeakyReluNanAndSignedZeroLanes) {
  std::vector<float> v = {std::nanf(""), -0.0f, 0.0f, -1.5f, 2.0f,
                          -std::numeric_limits<float>::infinity(),
                          std::numeric_limits<float>::infinity(), -3.0f};
  for (kernels::Isa isa : kernels::AvailableIsas()) {
    kernels::ForceIsa(isa);
    auto y = v;
    kernels::LeakyReluForward(y.data(), static_cast<int64_t>(y.size()),
                              0.25f);
    EXPECT_TRUE(std::isnan(y[0])) << kernels::IsaName(isa);
    EXPECT_EQ(0, std::memcmp(&y[1], &v[1], sizeof(float)))  // -0 kept
        << kernels::IsaName(isa);
    EXPECT_EQ(0.0f, y[2]) << kernels::IsaName(isa);
    EXPECT_EQ(-1.5f * 0.25f, y[3]) << kernels::IsaName(isa);
    EXPECT_EQ(2.0f, y[4]) << kernels::IsaName(isa);
    EXPECT_EQ(-std::numeric_limits<float>::infinity() * 0.25f, y[5])
        << kernels::IsaName(isa);
    EXPECT_EQ(std::numeric_limits<float>::infinity(), y[6])
        << kernels::IsaName(isa);
    EXPECT_EQ(-3.0f * 0.25f, y[7]) << kernels::IsaName(isa);
  }
}

// The per-row chains that Dot and the candidate scans must reproduce,
// written out here rather than taken from the library: acc = 0,
// ascending column, one rounded multiply and one rounded add per column.
float SerialDot(const float* u, const float* row, int64_t d) {
  float acc = 0.0f;
  for (int64_t p = 0; p < d; ++p) acc += u[p] * row[p];
  return acc;
}

float SerialDotQ8(const float* u, const int8_t* row, int64_t d) {
  float acc = 0.0f;
  for (int64_t p = 0; p < d; ++p) acc += u[p] * static_cast<float>(row[p]);
  return acc;
}

// Dot is the serial index-order sum whatever ISA is forced.
TEST_F(KernelParityTest, DotBitIdenticalToSerialSum) {
  const int64_t kSizes[] = {1, 7, 8, 31, 64, 333};
  for (int64_t n : kSizes) {
    const auto a = RandomVec(n, 12);
    const auto b = RandomVec(n, 13);
    const float ref = SerialDot(a.data(), b.data(), n);
    for (kernels::Isa isa : kernels::AvailableIsas()) {
      kernels::ForceIsa(isa);
      const float got = kernels::Dot(a.data(), b.data(), n);
      EXPECT_EQ(0, std::memcmp(&ref, &got, sizeof(float)))
          << kernels::IsaName(isa) << " n=" << n;
    }
  }
}

// ScoreRows / ScoreRowsQ8 at every ISA against the per-row chains above,
// memcmp on the output buffer: widths below, at and above the 8-lane
// tile, contiguous rows and a shuffled id list with repeats, ranges
// whose start and length are not multiples of 8, and rows holding NaN or
// +-Inf (each chain meets one NaN source at most, so the payload is
// fixed) plus int8 rows scaled by 0, NaN and Inf. Every matrix is
// allocated at its exact size, so ASan flags a read past the last row.
TEST_F(KernelParityTest, ScoreRowsBitIdenticalToSerialDot) {
  const int64_t kDims[] = {1, 7, 8, 15, 16, 17, 24, 64};
  const int64_t kRows = 45;
  struct Range {
    int64_t b, e;
  };
  const float kInf = std::numeric_limits<float>::infinity();
  util::Rng rng(21);
  std::vector<int32_t> ids(53);
  for (int32_t& id : ids) {
    id = static_cast<int32_t>(rng.UniformInt(kRows));
  }
  ids[5] = ids[6] = static_cast<int32_t>(kRows - 1);  // repeat the last row
  ids[20] = 0;
  for (int64_t d : kDims) {
    const auto u = RandomVec(d, 22);
    auto rows = RandomVec(kRows * d, 23);
    rows[static_cast<size_t>(2 * d)] = std::nanf("");
    rows[static_cast<size_t>(9 * d + d - 1)] = kInf;
    rows[static_cast<size_t>(17 * d + d / 2)] = -kInf;
    rows[static_cast<size_t>(30 * d)] = kInf;  // +Inf then -Inf: NaN
    rows[static_cast<size_t>(30 * d + d - 1)] = -kInf;
    std::vector<int8_t> q8(static_cast<size_t>(kRows * d));
    for (int8_t& q : q8) q = static_cast<int8_t>(rng.UniformInt(255) - 127);
    std::vector<float> scales(static_cast<size_t>(kRows));
    for (float& sc : scales) sc = rng.UniformFloat(0.001f, 0.02f);
    scales[4] = 0.0f;
    scales[11] = std::nanf("");
    scales[kRows - 1] = kInf;
    for (bool gathered : {false, true}) {
      const int32_t* id_ptr = gathered ? ids.data() : nullptr;
      const int64_t n = gathered ? static_cast<int64_t>(ids.size()) : kRows;
      const Range kRanges[] = {{0, n}, {3, 32}, {13, n - 1}, {7, 7}};
      for (const Range& rg : kRanges) {
        std::vector<float> want(static_cast<size_t>(n), -7.0f);
        std::vector<float> want_q8 = want;
        for (int64_t i = rg.b; i < rg.e; ++i) {
          const int64_t r = gathered ? ids[static_cast<size_t>(i)] : i;
          want[static_cast<size_t>(i)] =
              SerialDot(u.data(), rows.data() + r * d, d);
          want_q8[static_cast<size_t>(i)] =
              scales[static_cast<size_t>(r)] *
              SerialDotQ8(u.data(), q8.data() + r * d, d);
        }
        for (kernels::Isa isa : kernels::AvailableIsas()) {
          kernels::ForceIsa(isa);
          std::vector<float> got(static_cast<size_t>(n), -7.0f);
          kernels::ScoreRows(u.data(), rows.data(), d, id_ptr, rg.b, rg.e,
                             got.data());
          EXPECT_TRUE(BitIdentical(want, got))
              << "fp32 " << kernels::IsaName(isa) << " d=" << d
              << " gathered=" << gathered << " [" << rg.b << ", " << rg.e
              << ")";
          std::vector<float> got_q8(static_cast<size_t>(n), -7.0f);
          kernels::ScoreRowsQ8(u.data(), q8.data(), scales.data(), d, id_ptr,
                               rg.b, rg.e, got_q8.data());
          EXPECT_TRUE(BitIdentical(want_q8, got_q8))
              << "int8 " << kernels::IsaName(isa) << " d=" << d
              << " gathered=" << gathered << " [" << rg.b << ", " << rg.e
              << ")";
        }
      }
    }
  }
}

TEST_F(KernelParityTest, ForceIsaAndAvailabilityReporting) {
  const auto have = kernels::AvailableIsas();
  ASSERT_FALSE(have.empty());
  EXPECT_EQ(kernels::Isa::kScalar, have.front());
  for (kernels::Isa isa : have) {
    kernels::ForceIsa(isa);
    EXPECT_EQ(isa, kernels::ActiveIsa());
    EXPECT_STRNE("unknown", kernels::IsaName(isa));
  }
}

}  // namespace
}  // namespace dgnn
