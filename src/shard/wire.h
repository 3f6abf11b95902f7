// JSON wire helpers shared by every process on the shard protocol —
// dgnn_serve (shard worker side), dgnn_router, and the tests.
//
// Bit-identity across the wire is the whole point: floats are widened to
// double and printed with util::JsonDouble (%.17g), which round-trips
// every float value exactly, and parsed numbers are narrowed back with a
// plain static_cast — so a score or query vector that crosses a process
// boundary is the SAME float on both sides, and the router's merged
// top-k can be memcmp-identical to a single-process scan.

#ifndef DGNN_SHARD_WIRE_H_
#define DGNN_SHARD_WIRE_H_

#include <string>
#include <vector>

#include "serve/ranking.h"
#include "util/json.h"

namespace dgnn::shard {

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
// non-number input (empty arrays parse fine).
inline bool ParseFloatArray(const util::JsonValue* v,
                            std::vector<float>* out) {
  if (v == nullptr || !v->is_array()) return false;
  out->clear();
  out->reserve(v->array.size());
  for (const util::JsonValue& e : v->array) {
    if (!e.is_number()) return false;
    out->push_back(static_cast<float>(e.number));
  }
  return true;
}

// Inverse of serve::ItemsJson (serve/protocol.h), which prints partial
// responses in the client protocol's item shape.
inline bool ParseItems(const util::JsonValue* v,
                       std::vector<serve::ScoredItem>* out) {
  if (v == nullptr || !v->is_array()) return false;
  out->clear();
  out->reserve(v->array.size());
  for (const util::JsonValue& e : v->array) {
    if (!e.is_object()) return false;
    const util::JsonValue* item = e.Find("item");
    const util::JsonValue* score = e.Find("score");
    if (item == nullptr || !item->is_number() || score == nullptr ||
        !score->is_number()) {
      return false;
    }
    out->push_back({static_cast<int32_t>(item->number),
                    static_cast<float>(score->number)});
  }
  return true;
}

}  // namespace dgnn::shard

#endif  // DGNN_SHARD_WIRE_H_
