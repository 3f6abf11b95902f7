// Quantization subsystem tests: the fp16 software converters (RNE,
// subnormals, infinities, NaN), the int8 per-row codec's error bound,
// and the DotQ8 / DotF16 dispatch contract — bit-identical to the serial
// index-order sum on every available ISA.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "kernels/kernels.h"
#include "quant/quant.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dgnn {
namespace {

class QuantTest : public ::testing::Test {
 protected:
  QuantTest() : saved_threads_(util::NumThreads()) {}
  ~QuantTest() override {
    util::SetNumThreads(saved_threads_);
    kernels::ResetIsaFromEnv();
  }

  const int saved_threads_;
};

std::vector<float> RandomVec(int64_t n, uint64_t seed, float lo = -1.0f,
                             float hi = 1.0f) {
  util::Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = rng.UniformFloat(lo, hi);
  return v;
}

// ---- fp16 converters ----------------------------------------------------

TEST_F(QuantTest, Fp16ExactValuesRoundTrip) {
  // Values exactly representable in binary16 must survive unchanged.
  const float exact[] = {0.0f,   1.0f,    -1.0f,   0.5f,  -0.25f, 2.0f,
                         1024.0f, 65504.0f, -65504.0f, 0.125f, 6.0f, -3.5f};
  for (float v : exact) {
    EXPECT_EQ(v, kernels::Fp16ToFp32(kernels::Fp32ToFp16(v))) << v;
  }
}

TEST_F(QuantTest, Fp16SignedZero) {
  EXPECT_EQ(kernels::Fp32ToFp16(0.0f), 0x0000);
  EXPECT_EQ(kernels::Fp32ToFp16(-0.0f), 0x8000);
}

TEST_F(QuantTest, Fp16RoundToNearestEven) {
  // 1 + 2^-11 is exactly halfway between 1.0 and the next half (1 +
  // 2^-10); RNE keeps the even significand, i.e. 1.0 (0x3C00).
  EXPECT_EQ(kernels::Fp32ToFp16(1.0f + std::ldexp(1.0f, -11)), 0x3C00);
  // 1 + 3 * 2^-11 is halfway between 1 + 2^-10 and 1 + 2^-9; RNE rounds
  // up to the even significand 1 + 2^-9 (0x3C02).
  EXPECT_EQ(kernels::Fp32ToFp16(1.0f + 3.0f * std::ldexp(1.0f, -11)),
            0x3C02);
  // Just above halfway rounds up.
  EXPECT_EQ(kernels::Fp32ToFp16(1.0f + std::ldexp(1.0f, -11) * 1.5f),
            0x3C01);
}

TEST_F(QuantTest, Fp16OverflowAndSpecials) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(kernels::Fp32ToFp16(inf), 0x7C00);
  EXPECT_EQ(kernels::Fp32ToFp16(-inf), 0xFC00);
  // Anything beyond the max finite half overflows to infinity.
  EXPECT_EQ(kernels::Fp32ToFp16(70000.0f), 0x7C00);
  EXPECT_EQ(kernels::Fp16ToFp32(0x7C00), inf);
  EXPECT_EQ(kernels::Fp16ToFp32(0xFC00), -inf);
  // NaN stays NaN in both directions.
  EXPECT_TRUE(std::isnan(kernels::Fp16ToFp32(
      kernels::Fp32ToFp16(std::numeric_limits<float>::quiet_NaN()))));
}

TEST_F(QuantTest, Fp16Subnormals) {
  // Smallest positive subnormal half is 2^-24; it must round-trip.
  const float tiny = std::ldexp(1.0f, -24);
  EXPECT_EQ(kernels::Fp32ToFp16(tiny), 0x0001);
  EXPECT_EQ(kernels::Fp16ToFp32(0x0001), tiny);
  // Largest subnormal (2^-14 - 2^-24) and smallest normal (2^-14).
  EXPECT_EQ(kernels::Fp16ToFp32(0x03FF),
            std::ldexp(1.0f, -14) - std::ldexp(1.0f, -24));
  EXPECT_EQ(kernels::Fp16ToFp32(0x0400), std::ldexp(1.0f, -14));
  // Below half the smallest subnormal flushes to zero under RNE.
  EXPECT_EQ(kernels::Fp32ToFp16(std::ldexp(1.0f, -26)), 0x0000);
}

TEST_F(QuantTest, Fp16RoundTripErrorBound) {
  // Relative error of one fp16 rounding is at most 2^-11 for normals.
  const std::vector<float> v = RandomVec(4096, 99, -100.0f, 100.0f);
  for (float x : v) {
    const float back = kernels::Fp16ToFp32(kernels::Fp32ToFp16(x));
    EXPECT_NEAR(back, x, std::fabs(x) * 4.9e-4f + 1e-7f);
  }
}

// ---- int8 codec ---------------------------------------------------------

TEST_F(QuantTest, Int8RoundTripWithinHalfScale) {
  const int64_t rows = 37, cols = 29;
  const std::vector<float> data =
      RandomVec(rows * cols, 7, -3.0f, 3.0f);
  quant::QuantizedMatrix q =
      quant::Quantize(data.data(), rows, cols, quant::Codec::kInt8);
  ASSERT_EQ(q.rows, rows);
  ASSERT_EQ(q.cols, cols);
  ASSERT_EQ(q.scales.size(), static_cast<size_t>(rows));
  std::vector<float> back(static_cast<size_t>(rows * cols));
  quant::Dequantize(q, back.data());
  for (int64_t r = 0; r < rows; ++r) {
    const float scale = q.scales[static_cast<size_t>(r)];
    EXPECT_GT(scale, 0.0f);
    for (int64_t c = 0; c < cols; ++c) {
      const size_t i = static_cast<size_t>(r * cols + c);
      // Worst-case rounding error of the codec is half a quantization
      // step per element.
      EXPECT_NEAR(back[i], data[i], scale * 0.5f + 1e-7f);
    }
  }
}

TEST_F(QuantTest, Int8PerRowScalesAreIndependent) {
  // A huge row must not degrade a small row's precision: per-row scales,
  // not a global one.
  const int64_t cols = 16;
  std::vector<float> data(2 * cols);
  for (int64_t c = 0; c < cols; ++c) {
    data[static_cast<size_t>(c)] = 1000.0f;  // row 0: large magnitude
    data[static_cast<size_t>(cols + c)] = 0.001f;  // row 1: tiny
  }
  quant::QuantizedMatrix q =
      quant::Quantize(data.data(), 2, cols, quant::Codec::kInt8);
  std::vector<float> back(2 * static_cast<size_t>(cols));
  quant::Dequantize(q, back.data());
  EXPECT_NEAR(back[0], 1000.0f, 1000.0f / 127.0f);
  EXPECT_NEAR(back[static_cast<size_t>(cols)], 0.001f, 0.001f / 127.0f);
}

TEST_F(QuantTest, Int8ZeroRowHasZeroScale) {
  const int64_t cols = 8;
  std::vector<float> data(cols, 0.0f);
  quant::QuantizedMatrix q =
      quant::Quantize(data.data(), 1, cols, quant::Codec::kInt8);
  EXPECT_EQ(q.scales[0], 0.0f);
  std::vector<float> back(static_cast<size_t>(cols), 1.0f);
  quant::Dequantize(q, back.data());
  for (float v : back) EXPECT_EQ(v, 0.0f);
  const std::vector<float> x = RandomVec(cols, 3);
  EXPECT_EQ(q.Dot(x.data(), 0), 0.0f);
}

TEST_F(QuantTest, QuantizeDeterministicAcrossThreadCounts) {
  const int64_t rows = 300, cols = 24;
  const std::vector<float> data = RandomVec(rows * cols, 21);
  util::SetNumThreads(1);
  quant::QuantizedMatrix a =
      quant::Quantize(data.data(), rows, cols, quant::Codec::kInt8);
  util::SetNumThreads(7);
  quant::QuantizedMatrix b =
      quant::Quantize(data.data(), rows, cols, quant::Codec::kInt8);
  EXPECT_EQ(a.q8, b.q8);
  EXPECT_EQ(a.scales, b.scales);
  quant::QuantizedMatrix fa =
      quant::Quantize(data.data(), rows, cols, quant::Codec::kFp16);
  util::SetNumThreads(1);
  quant::QuantizedMatrix fb =
      quant::Quantize(data.data(), rows, cols, quant::Codec::kFp16);
  EXPECT_EQ(fa.f16, fb.f16);
}

// ---- quantized dot kernels across ISAs ----------------------------------

// Ragged lengths: below one vector, non-multiples of the 8/32-wide
// strides, and a multi-chunk size.
const int64_t kDotLengths[] = {1, 7, 8, 9, 31, 32, 33, 100, 257};

TEST_F(QuantTest, DotQ8DeterministicBitIdenticalAcrossIsas) {
  for (int64_t n : kDotLengths) {
    const std::vector<float> a = RandomVec(n, 1000 + n);
    std::vector<int8_t> q(static_cast<size_t>(n));
    util::Rng rng(n);
    for (int8_t& v : q) {
      v = static_cast<int8_t>(rng.UniformInt(255) - 127);
    }
    float ref = 0.0f;
    for (int64_t i = 0; i < n; ++i) {
      ref += a[static_cast<size_t>(i)] *
             static_cast<float>(q[static_cast<size_t>(i)]);
    }
    for (kernels::Isa isa : kernels::AvailableIsas()) {
      kernels::ForceIsa(isa);
      const float got = kernels::DotQ8(a.data(), q.data(), n);
      EXPECT_EQ(ref, got) << "isa " << kernels::IsaName(isa) << " n=" << n;
    }
    kernels::ResetIsaFromEnv();
  }
}

TEST_F(QuantTest, DotF16DeterministicBitIdenticalAcrossIsas) {
  for (int64_t n : kDotLengths) {
    const std::vector<float> a = RandomVec(n, 2000 + n);
    const std::vector<float> bf = RandomVec(n, 3000 + n);
    std::vector<uint16_t> h(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      h[static_cast<size_t>(i)] =
          kernels::Fp32ToFp16(bf[static_cast<size_t>(i)]);
    }
    float ref = 0.0f;
    for (int64_t i = 0; i < n; ++i) {
      ref += a[static_cast<size_t>(i)] *
             kernels::Fp16ToFp32(h[static_cast<size_t>(i)]);
    }
    for (kernels::Isa isa : kernels::AvailableIsas()) {
      kernels::ForceIsa(isa);
      const float got = kernels::DotF16(a.data(), h.data(), n);
      EXPECT_EQ(ref, got) << "isa " << kernels::IsaName(isa) << " n=" << n;
    }
    kernels::ResetIsaFromEnv();
  }
}

TEST_F(QuantTest, QuantizedMatrixDotMatchesDequantizedScan) {
  // QuantizedMatrix::Dot (scale * DotQ8 / DotF16) must equal the dot of
  // the query with the dequantized row, for both codecs.
  const int64_t rows = 23, cols = 33;
  const std::vector<float> data = RandomVec(rows * cols, 11);
  const std::vector<float> x = RandomVec(cols, 12);
  for (quant::Codec codec : {quant::Codec::kInt8, quant::Codec::kFp16}) {
    quant::QuantizedMatrix q =
        quant::Quantize(data.data(), rows, cols, codec);
    std::vector<float> row(static_cast<size_t>(cols));
    for (int64_t r = 0; r < rows; ++r) {
      q.DequantizeRow(r, row.data());
      const float expect = [&] {
        if (codec == quant::Codec::kFp16) {
          return kernels::Dot(x.data(), row.data(), cols);
        }
        // int8 applies the scale once outside the accumulation, so
        // compare against scale * sum(x * q) accumulated the same way.
        float acc = 0.0f;
        for (int64_t c = 0; c < cols; ++c) {
          acc += x[static_cast<size_t>(c)] *
                 static_cast<float>(
                     q.q8[static_cast<size_t>(r * cols + c)]);
        }
        return q.scales[static_cast<size_t>(r)] * acc;
      }();
      EXPECT_EQ(expect, q.Dot(x.data(), r)) << "codec "
                                            << quant::CodecName(codec)
                                            << " row " << r;
    }
  }
}

TEST_F(QuantTest, ParseCodecNames) {
  EXPECT_EQ(quant::ParseCodec("int8").value(), quant::Codec::kInt8);
  EXPECT_EQ(quant::ParseCodec("fp16").value(), quant::Codec::kFp16);
  EXPECT_FALSE(quant::ParseCodec("fp8").ok());
  EXPECT_FALSE(quant::ParseCodec("").ok());
}

TEST_F(QuantTest, ResidentBytesAccounting) {
  const int64_t rows = 10, cols = 16;
  const std::vector<float> data = RandomVec(rows * cols, 1);
  quant::QuantizedMatrix q8 =
      quant::Quantize(data.data(), rows, cols, quant::Codec::kInt8);
  EXPECT_EQ(q8.ResidentBytes(),
            rows * cols + rows * static_cast<int64_t>(sizeof(float)));
  quant::QuantizedMatrix f16 =
      quant::Quantize(data.data(), rows, cols, quant::Codec::kFp16);
  EXPECT_EQ(f16.ResidentBytes(),
            rows * cols * static_cast<int64_t>(sizeof(uint16_t)));
}

}  // namespace
}  // namespace dgnn
