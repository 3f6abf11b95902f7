#include "serve/snapshot.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <utility>

#include "data/dataset.h"
#include "train/recommender.h"
#include "util/bytes.h"
#include "util/failpoint.h"
#include "util/fs.h"
#include "util/json.h"

namespace dgnn::serve {
namespace {

using util::AppendPod;
using util::Cursor;
using util::Status;
using util::StatusOr;

constexpr char kMagic[8] = {'D', 'G', 'N', 'N', 'S', 'N', 'P', '1'};

// SplitMix64 finalizer — the ring's hash. Fixed for all time: ownership
// is part of the on-disk contract (the validator recomputes it).
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr int kVnodesPerShard = 64;

// ----- serialization helpers (append to an in-memory buffer) -------------

void AppendTensor(std::string& out, const ag::Tensor& t) {
  AppendPod<int64_t>(out, t.rows());
  AppendPod<int64_t>(out, t.cols());
  out.append(reinterpret_cast<const char*>(t.data()),
             static_cast<size_t>(t.size()) * sizeof(float));
}

void AppendIdLists(std::string& out,
                   const std::vector<std::vector<int32_t>>& lists) {
  AppendPod<uint64_t>(out, lists.size());
  for (const auto& list : lists) {
    AppendPod<uint32_t>(out, static_cast<uint32_t>(list.size()));
    out.append(reinterpret_cast<const char*>(list.data()),
               list.size() * sizeof(int32_t));
  }
}

void AppendQuant(std::string& out, const quant::QuantizedMatrix& m) {
  AppendPod<uint8_t>(out, static_cast<uint8_t>(m.codec));
  AppendPod<int64_t>(out, m.rows);
  AppendPod<int64_t>(out, m.cols);
  if (m.codec == quant::Codec::kInt8) {
    out.append(reinterpret_cast<const char*>(m.scales.data()),
               m.scales.size() * sizeof(float));
    out.append(reinterpret_cast<const char*>(m.q8.data()), m.q8.size());
  } else {
    out.append(reinterpret_cast<const char*>(m.f16.data()),
               m.f16.size() * sizeof(uint16_t));
  }
}

void AppendSection(std::string& out, uint32_t id,
                   const std::string& payload) {
  AppendPod<uint32_t>(out, id);
  AppendPod<uint64_t>(out, payload.size());
  out.append(payload);
}

// ----- parsing helpers (cursor over the file image) ----------------------

Status Truncated(const std::string& where) {
  return Status::InvalidArgument("truncated snapshot: short read in " +
                                 where);
}

Status ParseTensor(Cursor& c, const std::string& what, ag::Tensor* out) {
  int64_t rows = 0;
  int64_t cols = 0;
  if (!c.ReadPod(&rows) || !c.ReadPod(&cols)) return Truncated(what);
  if (rows < 0 || cols <= 0 || rows > (1LL << 32) || cols > (1LL << 20)) {
    return Status::InvalidArgument("implausible " + what + " shape " +
                                   std::to_string(rows) + "x" +
                                   std::to_string(cols));
  }
  ag::Tensor t(rows, cols);
  if (!c.Read(t.data(), static_cast<size_t>(t.size()) * sizeof(float))) {
    return Truncated(what + " values");
  }
  *out = std::move(t);
  return Status::Ok();
}

Status ParseQuant(Cursor& c, const std::string& what,
                  quant::QuantizedMatrix* out) {
  uint8_t codec = 0;
  int64_t rows = 0;
  int64_t cols = 0;
  if (!c.ReadPod(&codec) || !c.ReadPod(&rows) || !c.ReadPod(&cols)) {
    return Truncated(what);
  }
  if (codec != static_cast<uint8_t>(quant::Codec::kInt8) &&
      codec != static_cast<uint8_t>(quant::Codec::kFp16)) {
    return Status::InvalidArgument("unknown quantization codec " +
                                   std::to_string(codec) + " in " + what);
  }
  if (rows < 0 || cols <= 0 || rows > (1LL << 32) || cols > (1LL << 20)) {
    return Status::InvalidArgument("implausible " + what + " shape " +
                                   std::to_string(rows) + "x" +
                                   std::to_string(cols));
  }
  quant::QuantizedMatrix m;
  m.codec = static_cast<quant::Codec>(codec);
  m.rows = rows;
  m.cols = cols;
  const size_t n = static_cast<size_t>(rows) * static_cast<size_t>(cols);
  if (m.codec == quant::Codec::kInt8) {
    m.scales.resize(static_cast<size_t>(rows));
    if (!c.Read(m.scales.data(), m.scales.size() * sizeof(float))) {
      return Truncated(what + " scales");
    }
    for (float s : m.scales) {
      if (!std::isfinite(s) || s < 0.0f) {
        return Status::InvalidArgument(what +
                                       " has a non-finite or negative scale");
      }
    }
    m.q8.resize(n);
    if (!c.Read(m.q8.data(), n)) return Truncated(what + " values");
  } else {
    m.f16.resize(n);
    if (!c.Read(m.f16.data(), n * sizeof(uint16_t))) {
      return Truncated(what + " values");
    }
  }
  *out = std::move(m);
  return Status::Ok();
}

Status ParseIdLists(Cursor& c, const std::string& what, int64_t max_id,
                    bool require_sorted,
                    std::vector<std::vector<int32_t>>* out) {
  uint64_t count = 0;
  if (!c.ReadPod(&count)) return Truncated(what);
  if (count > (1ULL << 32)) {
    return Status::InvalidArgument("implausible " + what + " list count");
  }
  std::vector<std::vector<int32_t>> lists;
  lists.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t len = 0;
    if (!c.ReadPod(&len)) return Truncated(what);
    std::vector<int32_t> list(len);
    if (!c.Read(list.data(), static_cast<size_t>(len) * sizeof(int32_t))) {
      return Truncated(what + " entries");
    }
    for (size_t j = 0; j < list.size(); ++j) {
      if (list[j] < 0 || list[j] >= max_id) {
        return Status::InvalidArgument(
            what + " list " + std::to_string(i) + " has out-of-range id " +
            std::to_string(list[j]));
      }
      if (require_sorted && j > 0 && list[j] <= list[j - 1]) {
        return Status::InvalidArgument(what + " list " + std::to_string(i) +
                                       " is not strictly sorted");
      }
    }
    lists.push_back(std::move(list));
  }
  *out = std::move(lists);
  return Status::Ok();
}

// Shard manifest payload: fixed-width little-endian record, versioned so
// later PRs can extend it without breaking old readers.
constexpr uint32_t kShardSectionVersion = 1;

void AppendShard(std::string& out, const ShardInfo& shard) {
  AppendPod<uint32_t>(out, kShardSectionVersion);
  AppendPod<int32_t>(out, shard.num_shards);
  AppendPod<int32_t>(out, shard.shard_index);
  AppendPod<int64_t>(out, shard.item_begin);
  AppendPod<int64_t>(out, shard.item_end);
  AppendPod<int64_t>(out, shard.num_owned_users);
  AppendPod<uint64_t>(out, shard.hash_seed);
}

Status ParseShard(Cursor& c, ShardInfo* out) {
  uint32_t version = 0;
  if (!c.ReadPod(&version)) return Truncated("shard manifest");
  if (version != kShardSectionVersion) {
    return Status::InvalidArgument("unsupported shard manifest version " +
                                   std::to_string(version));
  }
  ShardInfo s;
  if (!c.ReadPod(&s.num_shards) || !c.ReadPod(&s.shard_index) ||
      !c.ReadPod(&s.item_begin) || !c.ReadPod(&s.item_end) ||
      !c.ReadPod(&s.num_owned_users) || !c.ReadPod(&s.hash_seed)) {
    return Truncated("shard manifest");
  }
  if (s.num_shards <= 0 || s.num_shards > (1 << 16)) {
    return Status::InvalidArgument("implausible shard count " +
                                   std::to_string(s.num_shards));
  }
  if (s.shard_index < 0 || s.shard_index >= s.num_shards) {
    return Status::InvalidArgument("shard index " +
                                   std::to_string(s.shard_index) +
                                   " out of range for " +
                                   std::to_string(s.num_shards) + " shards");
  }
  if (s.item_begin < 0 || s.item_end < s.item_begin ||
      s.num_owned_users < 0) {
    return Status::InvalidArgument("shard manifest has invalid ranges");
  }
  *out = s;
  return Status::Ok();
}

std::string MetaJson(const SnapshotMeta& meta) {
  util::JsonObject o;
  o.Set("format", "dgnn.snapshot")
      .Set("format_version", 1)
      .Set("model", meta.model_name)
      .Set("dataset", meta.dataset_name)
      .Set("tag", meta.tag)
      .Set("num_users", meta.num_users)
      .Set("num_items", meta.num_items)
      .Set("dim", meta.embedding_dim);
  return o.Build();
}

Status ParseMeta(const std::string& payload, SnapshotMeta* out) {
  auto parsed = util::ParseJson(payload);
  if (!parsed.ok()) {
    return Status::InvalidArgument("snapshot meta is not valid JSON: " +
                                   parsed.status().message());
  }
  const util::JsonValue& v = parsed.value();
  if (!v.is_object() || v.StringOr("format", "") != "dgnn.snapshot") {
    return Status::InvalidArgument("snapshot meta missing format marker");
  }
  if (v.NumberOr("format_version", 0) != 1) {
    return Status::InvalidArgument("unsupported snapshot format_version");
  }
  out->model_name = v.StringOr("model", "");
  out->dataset_name = v.StringOr("dataset", "");
  out->tag = v.StringOr("tag", "");
  out->num_users = static_cast<int64_t>(v.NumberOr("num_users", -1));
  out->num_items = static_cast<int64_t>(v.NumberOr("num_items", -1));
  out->embedding_dim = static_cast<int64_t>(v.NumberOr("dim", -1));
  if (out->num_users < 0 || out->num_items < 0 || out->embedding_dim <= 0) {
    return Status::InvalidArgument("snapshot meta has invalid dimensions");
  }
  return Status::Ok();
}

// Cross-section consistency: every count in the meta record must match
// the payloads it describes. For sharded snapshots the meta keeps GLOBAL
// counts while the tensors hold only the shard's slice, so the expected
// shapes are re-derived from the manifest (including recomputing the
// consistent-hash ownership — a manifest whose owned-user count does not
// match the ring is rejected, not trusted).
Status ValidateAssembled(const Snapshot& s) {
  const SnapshotMeta& m = s.meta;
  const int64_t user_rows =
      s.has_quant_users() ? s.quant_users.rows : s.users.rows();
  const int64_t user_cols =
      s.has_quant_users() ? s.quant_users.cols : s.users.cols();
  const int64_t item_rows =
      s.has_quant_items() ? s.quant_items.rows : s.items.rows();
  const int64_t item_cols =
      s.has_quant_items() ? s.quant_items.cols : s.items.cols();
  if (user_cols != m.embedding_dim || item_cols != m.embedding_dim) {
    return Status::InvalidArgument("embedding width disagrees with meta");
  }

  if (!s.shard.empty()) {
    const ShardInfo& sh = s.shard;
    // Bit-identical scatter/gather depends on exact fp32 scans; the
    // exporter never shards quantized or indexed snapshots.
    if (s.has_quant_users() || s.has_quant_items()) {
      return Status::InvalidArgument(
          "sharded snapshots must carry fp32 embeddings");
    }
    if (!s.ivf.empty()) {
      return Status::InvalidArgument(
          "sharded snapshots do not carry an IVF index");
    }
    int64_t want_begin = 0;
    int64_t want_end = 0;
    ShardItemRange(m.num_items, sh.num_shards, sh.shard_index, &want_begin,
                   &want_end);
    if (sh.item_begin != want_begin || sh.item_end != want_end) {
      return Status::InvalidArgument(
          "shard manifest item range disagrees with the canonical "
          "assignment policy");
    }
    if (item_rows != sh.item_end - sh.item_begin) {
      return Status::InvalidArgument(
          "item embedding rows disagree with shard item range");
    }
    if (user_rows != sh.num_owned_users) {
      return Status::InvalidArgument(
          "user embedding rows disagree with shard owned-user count");
    }
    ShardRing ring(sh.num_shards, sh.hash_seed);
    int64_t owned = 0;
    for (int64_t u = 0; u < m.num_users; ++u) {
      if (ring.Owner(static_cast<int32_t>(u)) == sh.shard_index) ++owned;
    }
    if (owned != sh.num_owned_users) {
      return Status::InvalidArgument(
          "shard manifest owned-user count disagrees with the "
          "consistent-hash ring");
    }
    if (static_cast<int64_t>(s.item_counts.size()) !=
        sh.item_end - sh.item_begin) {
      return Status::InvalidArgument(
          "item-count length disagrees with shard item range");
    }
    for (const auto& list : s.social) {
      if (!list.empty()) {
        return Status::InvalidArgument(
            "sharded snapshots must carry empty social lists");
      }
    }
  } else {
    if (user_rows != m.num_users) {
      return Status::InvalidArgument(
          "user embedding shape disagrees with meta");
    }
    if (item_rows != m.num_items) {
      return Status::InvalidArgument(
          "item embedding shape disagrees with meta");
    }
    if (!s.ivf.empty()) {
      DGNN_RETURN_IF_ERROR(
          index::ValidateIvfIndex(s.ivf, m.num_items, m.embedding_dim));
    }
    if (static_cast<int64_t>(s.item_counts.size()) != m.num_items) {
      return Status::InvalidArgument("item-count length disagrees with meta");
    }
  }

  if (static_cast<int64_t>(s.seen.size()) != m.num_users) {
    return Status::InvalidArgument("seen-list count disagrees with meta");
  }
  if (static_cast<int64_t>(s.social.size()) != m.num_users) {
    return Status::InvalidArgument("social-list count disagrees with meta");
  }
  for (int64_t c : s.item_counts) {
    if (c < 0) return Status::InvalidArgument("negative item count");
  }
  return Status::Ok();
}

}  // namespace

namespace internal {

uint64_t Fnv1a64(const void* data, size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 14695981039346656037ULL;
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace internal

ShardRing::ShardRing(int32_t num_shards, uint64_t seed)
    : num_shards_(num_shards), seed_(seed) {
  if (num_shards_ <= 0) return;
  points_.reserve(static_cast<size_t>(num_shards_) * kVnodesPerShard);
  for (int32_t shard = 0; shard < num_shards_; ++shard) {
    for (int vnode = 0; vnode < kVnodesPerShard; ++vnode) {
      const uint64_t key = seed_ ^ (static_cast<uint64_t>(shard) *
                                        0x100000001b3ULL +
                                    static_cast<uint64_t>(vnode) + 1);
      points_.emplace_back(SplitMix64(key), shard);
    }
  }
  // Sort by (hash, shard) so hash collisions between vnodes resolve
  // deterministically everywhere.
  std::sort(points_.begin(), points_.end());
}

int32_t ShardRing::Owner(int32_t user) const {
  if (num_shards_ <= 1) return 0;
  const uint64_t h =
      SplitMix64(seed_ ^ 0x9e3779b97f4a7c15ULL ^
                 static_cast<uint64_t>(static_cast<uint32_t>(user)));
  auto it = std::upper_bound(
      points_.begin(), points_.end(), h,
      [](uint64_t hash, const std::pair<uint64_t, int32_t>& p) {
        return hash < p.first;
      });
  if (it == points_.end()) it = points_.begin();  // wrap around the ring
  return it->second;
}

std::vector<int32_t> OwnedUsers(const ShardInfo& shard, int64_t num_users) {
  std::vector<int32_t> owned;
  if (shard.empty()) return owned;
  ShardRing ring(shard.num_shards, shard.hash_seed);
  for (int64_t u = 0; u < num_users; ++u) {
    if (ring.Owner(static_cast<int32_t>(u)) == shard.shard_index) {
      owned.push_back(static_cast<int32_t>(u));
    }
  }
  return owned;
}

void ShardItemRange(int64_t num_items, int32_t num_shards,
                    int32_t shard_index, int64_t* begin, int64_t* end) {
  *begin = num_items * shard_index / num_shards;
  *end = num_items * (shard_index + 1) / num_shards;
}

std::string ShardSnapshotPath(const std::string& base, int32_t shard_index,
                              int32_t num_shards) {
  return base + ".shard" + std::to_string(shard_index) + "of" +
         std::to_string(num_shards);
}

Snapshot BuildSnapshot(const train::Recommender& recommender,
                       const data::Dataset& dataset,
                       const std::string& model_name,
                       const std::string& tag) {
  Snapshot s;
  s.users = recommender.user_embeddings();
  s.items = recommender.item_embeddings();
  s.seen = dataset.TrainItemsByUser();
  for (auto& list : s.seen) {
    // A user can interact with the same item repeatedly; the snapshot
    // stores the strictly-sorted distinct set (exclusion semantics and
    // popularity counts are per distinct pair).
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  s.social = dataset.SocialNeighbors();
  s.item_counts.assign(static_cast<size_t>(dataset.num_items), 0);
  for (const auto& inter : s.seen) {
    for (int32_t item : inter) {
      // seen lists are deduplicated per user; popularity counts distinct
      // (user, item) train pairs.
      s.item_counts[static_cast<size_t>(item)] += 1;
    }
  }
  s.meta.model_name = model_name;
  s.meta.dataset_name = dataset.name;
  s.meta.tag = tag;
  s.meta.num_users = s.users.rows();
  s.meta.num_items = s.items.rows();
  s.meta.embedding_dim = s.users.cols();
  return s;
}

Status WriteSnapshot(const Snapshot& snapshot, const std::string& path) {
  DGNN_FAILPOINT("snapshot.write");
  // Serialize everything into memory first so the checksum covers the
  // exact bytes written and the file hits disk in one pass.
  // Quantized sections replace their fp32 tensors in the same table slot,
  // and the IVF index (if any) rides at the end — so a snapshot with
  // neither produces the exact byte stream the seed-era writer produced.
  const bool has_ivf = !snapshot.ivf.empty();
  const bool has_shard = !snapshot.shard.empty();
  std::string buf;
  buf.append(kMagic, sizeof(kMagic));
  AppendPod<uint32_t>(buf, 6 + (has_ivf ? 1u : 0u) +
                               (has_shard ? 1u : 0u));  // section count

  std::string payload = MetaJson(snapshot.meta);
  AppendSection(buf, internal::kSectionMeta, payload);

  payload.clear();
  if (snapshot.has_quant_users()) {
    AppendQuant(payload, snapshot.quant_users);
    AppendSection(buf, internal::kSectionQuantUsers, payload);
  } else {
    AppendTensor(payload, snapshot.users);
    AppendSection(buf, internal::kSectionUsers, payload);
  }

  payload.clear();
  if (snapshot.has_quant_items()) {
    AppendQuant(payload, snapshot.quant_items);
    AppendSection(buf, internal::kSectionQuantItems, payload);
  } else {
    AppendTensor(payload, snapshot.items);
    AppendSection(buf, internal::kSectionItems, payload);
  }

  payload.clear();
  AppendIdLists(payload, snapshot.seen);
  AppendSection(buf, internal::kSectionSeen, payload);

  payload.clear();
  AppendIdLists(payload, snapshot.social);
  AppendSection(buf, internal::kSectionSocial, payload);

  payload.clear();
  AppendPod<uint64_t>(payload, snapshot.item_counts.size());
  payload.append(reinterpret_cast<const char*>(snapshot.item_counts.data()),
                 snapshot.item_counts.size() * sizeof(int64_t));
  AppendSection(buf, internal::kSectionItemCounts, payload);

  if (has_ivf) {
    payload.clear();
    snapshot.ivf.Serialize(&payload);
    AppendSection(buf, internal::kSectionIvf, payload);
  }

  if (has_shard) {
    payload.clear();
    AppendShard(payload, snapshot.shard);
    AppendSection(buf, internal::kSectionShard, payload);
  }

  AppendPod<uint64_t>(buf, internal::Fnv1a64(buf.data(), buf.size()));

  // Temp + fsync + atomic rename + parent-dir fsync (fs helpers), same
  // durability story as SaveParameters: a crash mid-export leaves the
  // previous snapshot at `path` intact, and a completed export survives
  // power loss.
  return fs::AtomicWriteFile(path, buf);
}

StatusOr<Snapshot> ReadSnapshot(const std::string& path) {
  DGNN_FAILPOINT("snapshot.read");
  auto contents = fs::ReadFileToString(path);
  if (!contents.ok()) return contents.status();
  const std::string& buf = contents.value();

  // Envelope: magic up front, checksum over everything before the trailing
  // 8 checksum bytes. Both checks run before any payload parsing so a
  // torn or bit-flipped file is rejected wholesale.
  if (buf.size() < sizeof(kMagic) + sizeof(uint32_t) + sizeof(uint64_t)) {
    return Status::InvalidArgument("truncated snapshot (too small): " + path);
  }
  if (std::memcmp(buf.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("bad magic in " + path);
  }
  const size_t body_size = buf.size() - sizeof(uint64_t);
  uint64_t stored_checksum = 0;
  std::memcpy(&stored_checksum, buf.data() + body_size, sizeof(uint64_t));
  const uint64_t actual_checksum = internal::Fnv1a64(buf.data(), body_size);
  if (stored_checksum != actual_checksum) {
    return Status::InvalidArgument("checksum mismatch in " + path +
                                   " (file corrupt or truncated)");
  }

  Cursor c{buf.data(), body_size, sizeof(kMagic)};
  uint32_t section_count = 0;
  if (!c.ReadPod(&section_count)) return Truncated("section table");

  Snapshot out;
  std::set<uint32_t> seen_sections;
  for (uint32_t i = 0; i < section_count; ++i) {
    uint32_t id = 0;
    uint64_t payload_bytes = 0;
    if (!c.ReadPod(&id) || !c.ReadPod(&payload_bytes)) {
      return Truncated("section header");
    }
    if (payload_bytes > c.size - c.pos) {
      return Truncated("section " + std::to_string(id) + " payload");
    }
    if (!seen_sections.insert(id).second) {
      return Status::InvalidArgument("duplicate section " +
                                     std::to_string(id) + " in " + path);
    }
    // Sub-cursor pinned to the declared payload span; a section whose
    // parser consumes fewer/more bytes than declared is a format error.
    Cursor sc{c.data + c.pos, static_cast<size_t>(payload_bytes), 0};
    c.pos += payload_bytes;
    Status st = Status::Ok();
    switch (id) {
      case internal::kSectionMeta: {
        std::string payload(sc.data, sc.size);
        sc.pos = sc.size;
        st = ParseMeta(payload, &out.meta);
        break;
      }
      case internal::kSectionUsers:
        st = ParseTensor(sc, "user embeddings", &out.users);
        break;
      case internal::kSectionItems:
        st = ParseTensor(sc, "item embeddings", &out.items);
        break;
      case internal::kSectionSeen:
        st = ParseIdLists(sc, "seen", INT32_MAX, /*require_sorted=*/true,
                          &out.seen);
        break;
      case internal::kSectionSocial:
        st = ParseIdLists(sc, "social", INT32_MAX, /*require_sorted=*/true,
                          &out.social);
        break;
      case internal::kSectionItemCounts: {
        uint64_t n = 0;
        if (!sc.ReadPod(&n) || n > (1ULL << 32)) {
          st = Truncated("item counts");
          break;
        }
        out.item_counts.resize(n);
        if (!sc.Read(out.item_counts.data(), n * sizeof(int64_t))) {
          st = Truncated("item counts");
        }
        break;
      }
      case internal::kSectionQuantUsers:
        st = ParseQuant(sc, "quantized user embeddings", &out.quant_users);
        break;
      case internal::kSectionQuantItems:
        st = ParseQuant(sc, "quantized item embeddings", &out.quant_items);
        break;
      case internal::kSectionIvf: {
        // ParseIvfIndex validates its own span end-to-end (including a
        // trailing-bytes check), so consume the full payload here.
        auto parsed = index::ParseIvfIndex(sc.data, sc.size);
        if (!parsed.ok()) {
          st = parsed.status();
          break;
        }
        out.ivf = std::move(parsed.value());
        sc.pos = sc.size;
        break;
      }
      case internal::kSectionShard:
        st = ParseShard(sc, &out.shard);
        break;
      default:
        return Status::InvalidArgument("unknown section " +
                                       std::to_string(id) + " in " + path);
    }
    if (!st.ok()) return st;
    if (!sc.exhausted()) {
      return Status::InvalidArgument("section " + std::to_string(id) +
                                     " has trailing bytes in " + path);
    }
  }
  if (!c.exhausted()) {
    return Status::InvalidArgument("trailing garbage after " +
                                   std::to_string(section_count) +
                                   " sections in " + path);
  }
  for (uint32_t required :
       {internal::kSectionMeta, internal::kSectionSeen,
        internal::kSectionSocial, internal::kSectionItemCounts}) {
    if (seen_sections.count(required) == 0) {
      return Status::InvalidArgument("missing section " +
                                     std::to_string(required) + " in " +
                                     path);
    }
  }
  // Embeddings arrive as fp32 XOR quantized — never both, never neither.
  const bool has_users = seen_sections.count(internal::kSectionUsers) != 0;
  const bool has_qusers =
      seen_sections.count(internal::kSectionQuantUsers) != 0;
  if (has_users == has_qusers) {
    return Status::InvalidArgument(
        has_users ? "snapshot has both fp32 and quantized user embeddings"
                  : "missing user embeddings section in " + path);
  }
  const bool has_items = seen_sections.count(internal::kSectionItems) != 0;
  const bool has_qitems =
      seen_sections.count(internal::kSectionQuantItems) != 0;
  if (has_items == has_qitems) {
    return Status::InvalidArgument(
        has_items ? "snapshot has both fp32 and quantized item embeddings"
                  : "missing item embeddings section in " + path);
  }

  // Payloads are individually well-formed; now check they agree with each
  // other (meta counts vs tensor shapes vs list lengths, id ranges).
  DGNN_RETURN_IF_ERROR(ValidateAssembled(out));
  // Sharded snapshots keep GLOBAL item ids in their seen lists but only
  // ids inside the shard's item range (partitioning filtered the rest).
  const int64_t seen_lo = out.shard.empty() ? 0 : out.shard.item_begin;
  const int64_t seen_hi =
      out.shard.empty() ? out.meta.num_items : out.shard.item_end;
  for (const auto& list : out.seen) {
    for (int32_t item : list) {
      if (item < seen_lo || item >= seen_hi) {
        return Status::InvalidArgument("seen list references item " +
                                       std::to_string(item) +
                                       " beyond catalog slice");
      }
    }
  }
  for (const auto& list : out.social) {
    for (int32_t user : list) {
      if (user >= out.meta.num_users) {
        return Status::InvalidArgument("social list references user " +
                                       std::to_string(user) +
                                       " beyond user count");
      }
    }
  }
  return out;
}

Status QuantizeSnapshot(Snapshot* snapshot, quant::Codec codec) {
  if (snapshot->has_quant_users() || snapshot->has_quant_items()) {
    return Status::InvalidArgument("snapshot is already quantized");
  }
  snapshot->quant_users = quant::Quantize(
      snapshot->users.data(), snapshot->users.rows(), snapshot->users.cols(),
      codec);
  snapshot->quant_items = quant::Quantize(
      snapshot->items.data(), snapshot->items.rows(), snapshot->items.cols(),
      codec);
  // Drop the fp32 tensors — the quantized sections replace them both in
  // memory and on disk.
  snapshot->users = ag::Tensor();
  snapshot->items = ag::Tensor();
  return Status::Ok();
}

Status BuildSnapshotIndex(Snapshot* snapshot,
                          const index::IvfConfig& config) {
  if (snapshot->has_quant_items()) {
    return Status::InvalidArgument(
        "cannot build index over quantized items: build the index before "
        "quantizing the snapshot");
  }
  if (snapshot->items.rows() <= 0) {
    return Status::InvalidArgument(
        "cannot build index over an empty item catalog");
  }
  snapshot->ivf = index::BuildIvfIndex(
      snapshot->items.data(), snapshot->items.rows(), snapshot->items.cols(),
      config);
  return Status::Ok();
}

int64_t SnapshotResidentBytes(const Snapshot& s) {
  int64_t bytes = 0;
  bytes += s.users.size() * static_cast<int64_t>(sizeof(float));
  bytes += s.items.size() * static_cast<int64_t>(sizeof(float));
  bytes += s.quant_users.ResidentBytes();
  bytes += s.quant_items.ResidentBytes();
  bytes += s.ivf.ResidentBytes();
  const int64_t vec_overhead =
      static_cast<int64_t>(sizeof(std::vector<int32_t>));
  for (const auto& list : s.seen) {
    bytes += vec_overhead +
             static_cast<int64_t>(list.size()) * sizeof(int32_t);
  }
  for (const auto& list : s.social) {
    bytes += vec_overhead +
             static_cast<int64_t>(list.size()) * sizeof(int32_t);
  }
  bytes += static_cast<int64_t>(s.item_counts.size()) * sizeof(int64_t);
  return bytes;
}

namespace {

std::string SectionName(uint32_t id) {
  switch (id) {
    case internal::kSectionMeta: return "meta";
    case internal::kSectionUsers: return "users";
    case internal::kSectionItems: return "items";
    case internal::kSectionSeen: return "seen";
    case internal::kSectionSocial: return "social";
    case internal::kSectionItemCounts: return "item_counts";
    case internal::kSectionQuantUsers: return "quant_users";
    case internal::kSectionQuantItems: return "quant_items";
    case internal::kSectionIvf: return "ivf";
    case internal::kSectionShard: return "shard";
    default: return "unknown";
  }
}

// Best-effort one-line description of a section payload prefix; returns
// "" when the payload is too short to describe.
std::string SectionDetail(uint32_t id, const char* data, size_t size) {
  Cursor c{data, size, 0};
  switch (id) {
    case internal::kSectionUsers:
    case internal::kSectionItems: {
      int64_t rows = 0, cols = 0;
      if (!c.ReadPod(&rows) || !c.ReadPod(&cols)) return "";
      return "fp32 " + std::to_string(rows) + "x" + std::to_string(cols);
    }
    case internal::kSectionQuantUsers:
    case internal::kSectionQuantItems: {
      uint8_t codec = 0;
      int64_t rows = 0, cols = 0;
      if (!c.ReadPod(&codec) || !c.ReadPod(&rows) || !c.ReadPod(&cols)) {
        return "";
      }
      std::string name =
          codec == static_cast<uint8_t>(quant::Codec::kInt8)   ? "int8"
          : codec == static_cast<uint8_t>(quant::Codec::kFp16) ? "fp16"
                                                               : "codec?";
      std::string detail =
          name + " " + std::to_string(rows) + "x" + std::to_string(cols);
      if (codec == static_cast<uint8_t>(quant::Codec::kInt8)) {
        detail += " (per-row scales)";
      }
      return detail;
    }
    case internal::kSectionSeen:
    case internal::kSectionSocial: {
      uint64_t count = 0;
      if (!c.ReadPod(&count)) return "";
      return std::to_string(count) + " lists";
    }
    case internal::kSectionItemCounts: {
      uint64_t count = 0;
      if (!c.ReadPod(&count)) return "";
      return std::to_string(count) + " items";
    }
    case internal::kSectionIvf: {
      int32_t nlist = 0;
      int64_t dim = 0, items = 0;
      if (!c.ReadPod(&nlist) || !c.ReadPod(&dim) || !c.ReadPod(&items)) {
        return "";
      }
      return "nlist=" + std::to_string(nlist) +
             " dim=" + std::to_string(dim) +
             " items=" + std::to_string(items);
    }
    case internal::kSectionShard: {
      ShardInfo sh;
      if (!ParseShard(c, &sh).ok()) return "";
      return "shard " + std::to_string(sh.shard_index) + "/" +
             std::to_string(sh.num_shards) + " items [" +
             std::to_string(sh.item_begin) + "," +
             std::to_string(sh.item_end) + ") owned_users=" +
             std::to_string(sh.num_owned_users);
    }
    default:
      return "";
  }
}

}  // namespace

StatusOr<SnapshotFileInfo> InspectSnapshotFile(const std::string& path) {
  auto contents = fs::ReadFileToString(path);
  if (!contents.ok()) return contents.status();
  const std::string& buf = contents.value();

  SnapshotFileInfo info;
  info.file_bytes = buf.size();
  if (buf.size() < sizeof(kMagic) + sizeof(uint32_t) + sizeof(uint64_t)) {
    return Status::InvalidArgument("truncated snapshot (too small): " + path);
  }
  if (std::memcmp(buf.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("bad magic in " + path);
  }
  const size_t body_size = buf.size() - sizeof(uint64_t);
  std::memcpy(&info.stored_checksum, buf.data() + body_size,
              sizeof(uint64_t));
  info.computed_checksum = internal::Fnv1a64(buf.data(), body_size);
  info.checksum_ok = info.stored_checksum == info.computed_checksum;

  // Walk the section table best-effort — a checksum mismatch does not stop
  // the walk (the caller wants to see WHICH section looks damaged), but a
  // header that runs off the end of the file does.
  Cursor c{buf.data(), body_size, sizeof(kMagic)};
  uint32_t section_count = 0;
  if (!c.ReadPod(&section_count)) return info;
  for (uint32_t i = 0; i < section_count; ++i) {
    uint32_t id = 0;
    uint64_t payload_bytes = 0;
    if (!c.ReadPod(&id) || !c.ReadPod(&payload_bytes)) break;
    SnapshotSectionInfo sec;
    sec.id = id;
    sec.name = SectionName(id);
    sec.bytes = payload_bytes;
    const uint64_t avail = c.size - c.pos;
    const size_t span = static_cast<size_t>(std::min(payload_bytes, avail));
    sec.detail = SectionDetail(id, c.data + c.pos, span);
    if (payload_bytes > avail) {
      sec.detail += (sec.detail.empty() ? "" : ", ");
      sec.detail += "TRUNCATED (declares " + std::to_string(payload_bytes) +
                    " bytes, " + std::to_string(avail) + " remain)";
      info.sections.push_back(std::move(sec));
      break;
    }
    if (id == internal::kSectionMeta) {
      info.meta_json.assign(c.data + c.pos,
                            static_cast<size_t>(payload_bytes));
    }
    info.sections.push_back(std::move(sec));
    c.pos += payload_bytes;
  }
  return info;
}

}  // namespace dgnn::serve
