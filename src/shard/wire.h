// JSON wire helpers shared by every process on the shard protocol —
// dgnn_serve (shard worker side), dgnn_router, and the tests.
//
// Bit-identity across the wire is the whole point: floats are widened to
// double and printed with util::JsonDouble (%.17g), which round-trips
// every float value exactly, and parsed numbers are narrowed back with a
// plain static_cast — so a score or query vector that crosses a process
// boundary is the SAME float on both sides, and the router's merged
// top-k can be memcmp-identical to a single-process scan. A number is
// narrowed only after its range test passes: casting a double the target
// type cannot hold is undefined, and a float that overflowed to inf would
// print as 0 (JsonDouble's spelling of a non-finite value) — a wrong
// answer that looks like a right one.

#ifndef DGNN_SHARD_WIRE_H_
#define DGNN_SHARD_WIRE_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "serve/ranking.h"
#include "util/json.h"

namespace dgnn::shard {

inline bool FitsFloat(double x) {
  return std::fabs(x) <= std::numeric_limits<float>::max();
}
inline bool FitsInt32(double x) {
  return x >= std::numeric_limits<int32_t>::min() &&
         x <= std::numeric_limits<int32_t>::max();
}
inline bool FitsInt64(double x) {
  return x >= -0x1p63 && x < 0x1p63;
}

// "[v0,v1,...]" with exact float round-trip.
inline std::string FloatsJson(const std::vector<float>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += util::JsonDouble(static_cast<double>(v[i]));
  }
  out += "]";
  return out;
}

// Parses a JSON number array into floats; false on missing/non-array/
// non-number/out-of-float-range input (empty arrays parse fine).
inline bool ParseFloatArray(const util::JsonValue* v,
                            std::vector<float>* out) {
  if (v == nullptr || !v->is_array()) return false;
  out->clear();
  out->reserve(v->array.size());
  for (const util::JsonValue& e : v->array) {
    if (!e.is_number() || !FitsFloat(e.number)) return false;
    out->push_back(static_cast<float>(e.number));
  }
  return true;
}

// Inverse of serve::ItemsJson (serve/protocol.h), which prints partial
// responses in the client protocol's item shape; false on an id outside
// int32 or a score outside float range.
inline bool ParseItems(const util::JsonValue* v,
                       std::vector<serve::ScoredItem>* out) {
  if (v == nullptr || !v->is_array()) return false;
  out->clear();
  out->reserve(v->array.size());
  for (const util::JsonValue& e : v->array) {
    if (!e.is_object()) return false;
    const util::JsonValue* item = e.Find("item");
    const util::JsonValue* score = e.Find("score");
    if (item == nullptr || !item->is_number() || !FitsInt32(item->number) ||
        score == nullptr || !score->is_number() ||
        !FitsFloat(score->number)) {
      return false;
    }
    out->push_back({static_cast<int32_t>(item->number),
                    static_cast<float>(score->number)});
  }
  return true;
}

}  // namespace dgnn::shard

#endif  // DGNN_SHARD_WIRE_H_
