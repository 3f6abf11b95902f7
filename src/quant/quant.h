// Quantized embedding storage for serving snapshots — ggml-style per-row
// scaling so million-row matrices fit in RAM without giving up ranking
// quality:
//
//  * int8: each row stores round(x / scale) clamped to [-127, 127] with
//    scale = max|x| / 127 (scale 0 for an all-zero row). 4x smaller than
//    fp32 plus one float per row; worst-case per-element error is
//    scale / 2.
//  * fp16: IEEE binary16 with round-to-nearest-even, converted by the
//    software reference in kernels/kernels.h (bit-identical
//    everywhere). 2x smaller, ~3 decimal digits.
//
// Quantization and dequantization are pure per-element maps — no
// cross-element accumulation — so outputs are bit-identical for any
// thread count and any ISA. Scoring goes through the kernels' serial
// DotQ8 / DotF16, the same loop on every ISA; int8 scans run
// ScoreRowsQ8, whose every lane runs the DotQ8 chain.

#ifndef DGNN_QUANT_QUANT_H_
#define DGNN_QUANT_QUANT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace dgnn::quant {

// On-disk codec ids (stable: serialized inside snapshot sections).
enum class Codec : uint8_t {
  kInt8 = 1,
  kFp16 = 2,
};

const char* CodecName(Codec codec);
// Accepts "int8" or "fp16".
util::StatusOr<Codec> ParseCodec(const std::string& name);

// A quantized row-major matrix. Exactly one of (q8 + scales) or f16 is
// populated, per `codec`.
struct QuantizedMatrix {
  Codec codec = Codec::kInt8;
  int64_t rows = 0;
  int64_t cols = 0;
  std::vector<int8_t> q8;      // int8: rows * cols
  std::vector<float> scales;   // int8: rows (per-row dequant scale)
  std::vector<uint16_t> f16;   // fp16: rows * cols

  bool empty() const { return rows == 0 && cols == 0; }
  int64_t ResidentBytes() const;

  // dot(x, dequantized row r) via the dispatched quantized kernels;
  // x has length cols.
  float Dot(const float* x, int64_t r) const;
  // Writes the dequantized row r into out[0..cols).
  void DequantizeRow(int64_t r, float* out) const;
};

// Quantizes a row-major rows x cols matrix. Parallel over rows on the
// shared pool; bit-identical for any thread count.
QuantizedMatrix Quantize(const float* data, int64_t rows, int64_t cols,
                         Codec codec);

// Dequantizes the whole matrix into out[0..rows*cols) (row-major).
void Dequantize(const QuantizedMatrix& q, float* out);

}  // namespace dgnn::quant

#endif  // DGNN_QUANT_QUANT_H_
