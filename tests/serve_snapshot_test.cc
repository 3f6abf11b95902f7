// Tests for the embedding snapshot format: build/write/read round-trips
// bit-identically, and every corruption mode — truncation at any point,
// bit flips (checksum), trailing garbage, duplicate sections — is
// rejected with an error instead of a half-built snapshot.

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "graph/hetero_graph.h"
#include "models/bpr_mf.h"
#include "serve/snapshot.h"
#include "train/recommender.h"
#include "util/failpoint.h"

namespace dgnn {
namespace {

using serve::ReadSnapshot;
using serve::Snapshot;
using serve::WriteSnapshot;

std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Re-stamps the trailing checksum so tampered files stay
// structurally-consistent and the deeper validation layer (not the
// checksum) must catch them.
std::string WithFixedChecksum(std::string bytes) {
  const size_t body = bytes.size() - sizeof(uint64_t);
  const uint64_t checksum =
      serve::internal::Fnv1a64(bytes.data(), body);
  std::memcpy(bytes.data() + body, &checksum, sizeof(uint64_t));
  return bytes;
}

// Offset of section `id`'s payload in a snapshot file image: 8B magic,
// u32 section count, then (u32 id, u64 payload bytes, payload) each.
size_t SectionPayloadOffset(const std::string& bytes, uint32_t id) {
  size_t pos = 8;
  uint32_t count = 0;
  std::memcpy(&count, bytes.data() + pos, sizeof(count));
  pos += sizeof(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t section = 0;
    uint64_t payload = 0;
    std::memcpy(&section, bytes.data() + pos, sizeof(section));
    std::memcpy(&payload, bytes.data() + pos + sizeof(section),
                sizeof(payload));
    pos += sizeof(section) + sizeof(payload);
    if (section == id) return pos;
    pos += payload;
  }
  ADD_FAILURE() << "snapshot has no section " << id;
  return 0;
}

class SnapshotTest : public ::testing::Test {
 protected:
  SnapshotTest()
      : dataset_(data::GenerateSynthetic(data::SyntheticConfig::Tiny())),
        graph_(dataset_),
        model_(graph_, 8, 5),
        recommender_(model_, dataset_),
        snapshot_(serve::BuildSnapshot(recommender_, dataset_, "BPR-MF",
                                       "unit-test")) {}

  data::Dataset dataset_;
  graph::HeteroGraph graph_;
  models::BprMf model_;
  train::Recommender recommender_;
  Snapshot snapshot_;
};

TEST_F(SnapshotTest, BuildCapturesRecommenderAndDataset) {
  EXPECT_EQ(snapshot_.meta.num_users, dataset_.num_users);
  EXPECT_EQ(snapshot_.meta.num_items, dataset_.num_items);
  EXPECT_EQ(snapshot_.meta.model_name, "BPR-MF");
  EXPECT_EQ(snapshot_.meta.dataset_name, dataset_.name);
  EXPECT_EQ(snapshot_.meta.tag, "unit-test");
  EXPECT_EQ(snapshot_.users.MaxAbsDiff(recommender_.user_embeddings()),
            0.0f);
  EXPECT_EQ(snapshot_.items.MaxAbsDiff(recommender_.item_embeddings()),
            0.0f);
  // Popularity counts sum to the number of distinct train pairs.
  int64_t total = 0;
  for (int64_t c : snapshot_.item_counts) total += c;
  int64_t expected = 0;
  for (const auto& list : snapshot_.seen) {
    expected += static_cast<int64_t>(list.size());
  }
  EXPECT_EQ(total, expected);
  EXPECT_GT(total, 0);
}

TEST_F(SnapshotTest, RoundTripsBitIdentically) {
  const std::string path = TestPath("snap_roundtrip.bin");
  ASSERT_TRUE(WriteSnapshot(snapshot_, path).ok());
  auto loaded = ReadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Snapshot& s = loaded.value();

  EXPECT_EQ(s.meta.model_name, snapshot_.meta.model_name);
  EXPECT_EQ(s.meta.dataset_name, snapshot_.meta.dataset_name);
  EXPECT_EQ(s.meta.tag, snapshot_.meta.tag);
  EXPECT_EQ(s.meta.num_users, snapshot_.meta.num_users);
  EXPECT_EQ(s.meta.num_items, snapshot_.meta.num_items);
  EXPECT_EQ(s.meta.embedding_dim, snapshot_.meta.embedding_dim);

  ASSERT_TRUE(s.users.SameShape(snapshot_.users));
  ASSERT_TRUE(s.items.SameShape(snapshot_.items));
  // Bit-identical embeddings, not merely close.
  EXPECT_EQ(std::memcmp(s.users.data(), snapshot_.users.data(),
                        static_cast<size_t>(s.users.size()) *
                            sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(s.items.data(), snapshot_.items.data(),
                        static_cast<size_t>(s.items.size()) *
                            sizeof(float)),
            0);
  EXPECT_EQ(s.seen, snapshot_.seen);
  EXPECT_EQ(s.social, snapshot_.social);
  EXPECT_EQ(s.item_counts, snapshot_.item_counts);
}

TEST_F(SnapshotTest, WriteLeavesNoTempFile) {
  const std::string path = TestPath("snap_notmp.bin");
  ASSERT_TRUE(WriteSnapshot(snapshot_, path).ok());
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.is_open());
}

TEST_F(SnapshotTest, MissingFileIsNotFound) {
  auto loaded = ReadSnapshot(TestPath("does_not_exist.bin"));
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kNotFound);
}

TEST_F(SnapshotTest, RejectsBadMagic) {
  const std::string path = TestPath("snap_badmagic.bin");
  ASSERT_TRUE(WriteSnapshot(snapshot_, path).ok());
  std::string bytes = ReadFileBytes(path);
  bytes[0] = 'X';
  WriteFileBytes(path, bytes);
  auto loaded = ReadSnapshot(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
}

TEST_F(SnapshotTest, RejectsTruncationAtEveryRegion) {
  const std::string path = TestPath("snap_full.bin");
  ASSERT_TRUE(WriteSnapshot(snapshot_, path).ok());
  const std::string bytes = ReadFileBytes(path);
  // Representative cut points: inside the magic, the section table, the
  // middle of the payload, and just shy of the checksum.
  const std::vector<size_t> cuts = {
      0, 4, sizeof(uint64_t) + 2, bytes.size() / 3, bytes.size() / 2,
      bytes.size() - sizeof(uint64_t), bytes.size() - 1};
  const std::string trunc_path = TestPath("snap_trunc.bin");
  for (size_t cut : cuts) {
    WriteFileBytes(trunc_path, bytes.substr(0, cut));
    auto loaded = ReadSnapshot(trunc_path);
    EXPECT_FALSE(loaded.ok()) << "accepted truncation to " << cut
                              << " bytes";
  }
}

TEST_F(SnapshotTest, RejectsBitFlipViaChecksum) {
  const std::string path = TestPath("snap_bitflip.bin");
  ASSERT_TRUE(WriteSnapshot(snapshot_, path).ok());
  std::string bytes = ReadFileBytes(path);
  // Flip one bit in the middle of the payload (embedding bytes).
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 1);
  WriteFileBytes(path, bytes);
  auto loaded = ReadSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("checksum"), std::string::npos)
      << loaded.status().ToString();
}

TEST_F(SnapshotTest, RejectsTrailingGarbage) {
  const std::string path = TestPath("snap_trailing.bin");
  ASSERT_TRUE(WriteSnapshot(snapshot_, path).ok());
  std::string bytes = ReadFileBytes(path);
  // Plain appended garbage breaks the checksum...
  WriteFileBytes(path, bytes + "extra garbage");
  EXPECT_FALSE(ReadSnapshot(path).ok());
  // ...and garbage spliced in before a re-stamped checksum must still be
  // rejected by the structural trailing-bytes check.
  std::string spliced = bytes.substr(0, bytes.size() - sizeof(uint64_t)) +
                        std::string("XXXXXXXX") +
                        bytes.substr(bytes.size() - sizeof(uint64_t));
  WriteFileBytes(path, WithFixedChecksum(spliced));
  auto loaded = ReadSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("trailing"), std::string::npos)
      << loaded.status().ToString();
}

TEST_F(SnapshotTest, RejectsDuplicateSection) {
  const std::string path = TestPath("snap_dup.bin");
  ASSERT_TRUE(WriteSnapshot(snapshot_, path).ok());
  std::string bytes = ReadFileBytes(path);

  // Locate the first section (the meta record, directly after magic +
  // section count) and append a byte-for-byte copy of it, bumping the
  // section count and re-stamping the checksum — a structurally valid
  // file whose only defect is the duplicate record.
  const size_t table_pos = 8;  // section count, after 8-byte magic
  uint32_t section_count = 0;
  std::memcpy(&section_count, bytes.data() + table_pos, sizeof(uint32_t));
  ASSERT_EQ(section_count, 6u);
  const size_t first_header = table_pos + sizeof(uint32_t);
  uint64_t payload_bytes = 0;
  std::memcpy(&payload_bytes,
              bytes.data() + first_header + sizeof(uint32_t),
              sizeof(uint64_t));
  const size_t first_section_size =
      sizeof(uint32_t) + sizeof(uint64_t) + payload_bytes;
  const std::string first_section =
      bytes.substr(first_header, first_section_size);

  std::string dup = bytes.substr(0, bytes.size() - sizeof(uint64_t)) +
                    first_section +
                    bytes.substr(bytes.size() - sizeof(uint64_t));
  const uint32_t new_count = section_count + 1;
  std::memcpy(dup.data() + table_pos, &new_count, sizeof(uint32_t));
  WriteFileBytes(path, WithFixedChecksum(dup));

  auto loaded = ReadSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("duplicate"), std::string::npos)
      << loaded.status().ToString();
}

TEST_F(SnapshotTest, RejectsMetaPayloadDisagreement) {
  // Shrink the user count in the meta record: every payload stays
  // well-formed but the cross-section consistency check must fire.
  Snapshot tampered = snapshot_;
  tampered.meta.num_users -= 1;
  const std::string path = TestPath("snap_meta_mismatch.bin");
  ASSERT_TRUE(WriteSnapshot(tampered, path).ok());
  auto loaded = ReadSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
}

TEST_F(SnapshotTest, RejectsOutOfRangeIds) {
  Snapshot tampered = snapshot_;
  tampered.seen[0] = {0, dataset_.num_items + 5};  // beyond the catalog
  const std::string path = TestPath("snap_bad_ids.bin");
  ASSERT_TRUE(WriteSnapshot(tampered, path).ok());
  auto loaded = ReadSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("beyond catalog"),
            std::string::npos)
      << loaded.status().ToString();
}

// Writes `snap`, overwrites the bytes at `offset` into section `id`'s
// payload with `value`, re-stamps the checksum and reads the file back.
template <typename T>
util::Status ReadWithPatchedSection(const Snapshot& snap,
                                    const std::string& name, uint32_t id,
                                    size_t offset, T value) {
  const std::string path = TestPath(name);
  EXPECT_TRUE(WriteSnapshot(snap, path).ok());
  std::string bytes = ReadFileBytes(path);
  std::memcpy(bytes.data() + SectionPayloadOffset(bytes, id) + offset,
              &value, sizeof(value));
  WriteFileBytes(path, WithFixedChecksum(bytes));
  return ReadSnapshot(path).status();
}

// A count, length or shape is checked against the bytes its section
// holds before anything is sized from it: each file below used to abort
// the reader with std::bad_alloc instead of returning a Status.
TEST_F(SnapshotTest, RejectsListCountBeyondSectionBytes) {
  const util::Status s = ReadWithPatchedSection(
      snapshot_, "snap_bad_list_count.bin", serve::internal::kSectionSeen,
      0, uint64_t{1} << 32);
  EXPECT_EQ(s.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("implausible seen list count"),
            std::string::npos)
      << s.ToString();
}

TEST_F(SnapshotTest, RejectsListLengthBeyondSectionBytes) {
  // The first list's u32 length follows the section's u64 list count.
  const util::Status s = ReadWithPatchedSection(
      snapshot_, "snap_bad_list_len.bin", serve::internal::kSectionSeen,
      sizeof(uint64_t), uint32_t{0xFFFFFFFFu});
  EXPECT_EQ(s.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("seen entries"), std::string::npos)
      << s.ToString();
}

TEST_F(SnapshotTest, RejectsShapesBeyondSectionBytes) {
  const int64_t rows = int64_t{1} << 32;
  util::Status s = ReadWithPatchedSection(
      snapshot_, "snap_bad_rows.bin", serve::internal::kSectionUsers, 0,
      rows);
  EXPECT_NE(s.message().find("user embeddings values"), std::string::npos)
      << s.ToString();
  s = ReadWithPatchedSection(snapshot_, "snap_bad_counts.bin",
                             serve::internal::kSectionItemCounts, 0,
                             uint64_t{1} << 32);
  EXPECT_NE(s.message().find("item counts"), std::string::npos)
      << s.ToString();
  Snapshot quantized = snapshot_;
  ASSERT_TRUE(serve::QuantizeSnapshot(&quantized, quant::Codec::kInt8).ok());
  // Quantized sections start with a u8 codec, then the i64 row count.
  s = ReadWithPatchedSection(quantized, "snap_bad_quant_rows.bin",
                             serve::internal::kSectionQuantItems,
                             sizeof(uint8_t), rows);
  EXPECT_NE(s.message().find("quantized item embeddings values"),
            std::string::npos)
      << s.ToString();
}

TEST_F(SnapshotTest, AtomicWriteKeepsPreviousSnapshotOnOverwrite) {
  const std::string path = TestPath("snap_overwrite.bin");
  ASSERT_TRUE(WriteSnapshot(snapshot_, path).ok());
  Snapshot second = snapshot_;
  second.meta.tag = "v2";
  ASSERT_TRUE(WriteSnapshot(second, path).ok());
  auto loaded = ReadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().meta.tag, "v2");
}

// ----- failpoint-driven I/O faults -----------------------------------------
// The corruption tests above hand-craft bytes; these inject faults at the
// real I/O boundaries (util/failpoint.h) and check the atomic-write /
// retry machinery holds the same guarantees.

class SnapshotFailpointTest : public SnapshotTest {
 protected:
  void SetUp() override { failpoint::Clear(); }
  void TearDown() override { failpoint::Clear(); }
};

TEST_F(SnapshotFailpointTest, InjectedWriteFailureKeepsPreviousSnapshot) {
  const std::string path = TestPath("snap_fp_write.bin");
  ASSERT_TRUE(WriteSnapshot(snapshot_, path).ok());
  Snapshot second = snapshot_;
  second.meta.tag = "v2";
  ASSERT_TRUE(failpoint::Configure("snapshot.write=error").ok());
  util::Status s = WriteSnapshot(second, path);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), util::StatusCode::kInternal);
  failpoint::Clear();
  auto loaded = ReadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().meta.tag, "unit-test") << "old snapshot lost";
}

TEST_F(SnapshotFailpointTest, TransientFsWriteFaultIsRetriedToSuccess) {
  const std::string path = TestPath("snap_fp_once.bin");
  ASSERT_TRUE(failpoint::Configure("fs.write=once").ok());
  ASSERT_TRUE(WriteSnapshot(snapshot_, path).ok())
      << "one transient write fault must be absorbed by the retry";
  EXPECT_EQ(failpoint::TriggerCount("fs.write"), 1);
  failpoint::Clear();
  EXPECT_TRUE(ReadSnapshot(path).ok());
}

TEST_F(SnapshotFailpointTest, PersistentFsWriteFaultLeavesNoTempFile) {
  const std::string path = TestPath("snap_fp_persistent.bin");
  ASSERT_TRUE(WriteSnapshot(snapshot_, path).ok());
  ASSERT_TRUE(failpoint::Configure("fs.write=error").ok());
  Snapshot second = snapshot_;
  second.meta.tag = "v2";
  util::Status s = WriteSnapshot(second, path);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), util::StatusCode::kInternal);
  failpoint::Clear();
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.is_open()) << "failed write left its temp file behind";
  auto loaded = ReadSnapshot(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().meta.tag, "unit-test");
}

TEST_F(SnapshotFailpointTest, InjectedRenameFaultKeepsPreviousSnapshot) {
  const std::string path = TestPath("snap_fp_rename.bin");
  ASSERT_TRUE(WriteSnapshot(snapshot_, path).ok());
  ASSERT_TRUE(failpoint::Configure("fs.rename=error").ok());
  Snapshot second = snapshot_;
  second.meta.tag = "v2";
  EXPECT_FALSE(WriteSnapshot(second, path).ok());
  failpoint::Clear();
  auto loaded = ReadSnapshot(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().meta.tag, "unit-test");
}

TEST_F(SnapshotFailpointTest, InjectedReadFailureSurfacesAsInternal) {
  const std::string path = TestPath("snap_fp_read.bin");
  ASSERT_TRUE(WriteSnapshot(snapshot_, path).ok());
  ASSERT_TRUE(failpoint::Configure("snapshot.read=error").ok());
  auto loaded = ReadSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInternal);
  failpoint::Clear();
  EXPECT_TRUE(ReadSnapshot(path).ok()) << "fault did not clear";
}

TEST_F(SnapshotFailpointTest, TransientFsReadFaultIsRetriedToSuccess) {
  const std::string path = TestPath("snap_fp_read_once.bin");
  ASSERT_TRUE(WriteSnapshot(snapshot_, path).ok());
  ASSERT_TRUE(failpoint::Configure("fs.read=once").ok());
  auto loaded = ReadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(failpoint::TriggerCount("fs.read"), 1);
}

// ----- quantized sections and the IVF index --------------------------------
// The fp32 writer must stay byte-compatible with seed-era snapshots;
// quantized / indexed snapshots round-trip, and every new section id is
// covered by the same corruption matrix as the originals.

struct SectionSpan {
  uint32_t id = 0;
  size_t payload_pos = 0;  // offset of the payload within the file
  uint64_t payload_bytes = 0;
};

// Walks the section table of a well-formed snapshot file.
std::vector<SectionSpan> SectionTable(const std::string& bytes) {
  std::vector<SectionSpan> table;
  uint32_t count = 0;
  std::memcpy(&count, bytes.data() + 8, sizeof(uint32_t));
  size_t pos = 8 + sizeof(uint32_t);
  for (uint32_t i = 0; i < count; ++i) {
    SectionSpan s;
    std::memcpy(&s.id, bytes.data() + pos, sizeof(uint32_t));
    std::memcpy(&s.payload_bytes, bytes.data() + pos + sizeof(uint32_t),
                sizeof(uint64_t));
    s.payload_pos = pos + sizeof(uint32_t) + sizeof(uint64_t);
    table.push_back(s);
    pos = s.payload_pos + s.payload_bytes;
  }
  return table;
}

class QuantSnapshotTest : public SnapshotTest {};

TEST_F(QuantSnapshotTest, Fp32WriterKeepsSeedSectionLayout) {
  // Seed-era compatibility: a purely-fp32 snapshot still writes exactly
  // six sections in the original order — no quant or ivf ids leak in, so
  // old readers (and old files against this reader) keep working.
  const std::string path = TestPath("snap_seed_layout.bin");
  ASSERT_TRUE(WriteSnapshot(snapshot_, path).ok());
  const std::string bytes = ReadFileBytes(path);
  const std::vector<SectionSpan> table = SectionTable(bytes);
  ASSERT_EQ(table.size(), 6u);
  for (uint32_t i = 0; i < 6; ++i) EXPECT_EQ(table[i].id, i + 1);
  // And the writer is deterministic: same snapshot, same bytes.
  const std::string path2 = TestPath("snap_seed_layout2.bin");
  ASSERT_TRUE(WriteSnapshot(snapshot_, path2).ok());
  EXPECT_EQ(ReadFileBytes(path2), bytes);
}

TEST_F(QuantSnapshotTest, QuantizedRoundTrip) {
  for (quant::Codec codec : {quant::Codec::kInt8, quant::Codec::kFp16}) {
    Snapshot snap = snapshot_;
    ASSERT_TRUE(serve::QuantizeSnapshot(&snap, codec).ok());
    EXPECT_TRUE(snap.users.empty());
    EXPECT_TRUE(snap.items.empty());
    ASSERT_TRUE(snap.has_quant_users());
    ASSERT_TRUE(snap.has_quant_items());
    const std::string path =
        TestPath(std::string("snap_q_") + quant::CodecName(codec) + ".bin");
    ASSERT_TRUE(WriteSnapshot(snap, path).ok());
    auto loaded = ReadSnapshot(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const Snapshot& s = loaded.value();
    EXPECT_EQ(s.quant_users.codec, codec);
    EXPECT_EQ(s.quant_users.rows, snap.quant_users.rows);
    EXPECT_EQ(s.quant_users.q8, snap.quant_users.q8);
    EXPECT_EQ(s.quant_users.scales, snap.quant_users.scales);
    EXPECT_EQ(s.quant_users.f16, snap.quant_users.f16);
    EXPECT_EQ(s.quant_items.q8, snap.quant_items.q8);
    EXPECT_EQ(s.quant_items.f16, snap.quant_items.f16);
    EXPECT_EQ(s.seen, snapshot_.seen);
    EXPECT_EQ(s.item_counts, snapshot_.item_counts);
    // Quant sections replace the dense slots — still six sections.
    EXPECT_EQ(SectionTable(ReadFileBytes(path)).size(), 6u);
  }
}

TEST_F(QuantSnapshotTest, QuantizeTwiceFails) {
  Snapshot snap = snapshot_;
  ASSERT_TRUE(serve::QuantizeSnapshot(&snap, quant::Codec::kInt8).ok());
  EXPECT_FALSE(serve::QuantizeSnapshot(&snap, quant::Codec::kInt8).ok());
  // And the index must be built from fp32 rows, i.e. before quantizing.
  EXPECT_FALSE(serve::BuildSnapshotIndex(&snap, index::IvfConfig()).ok());
}

TEST_F(QuantSnapshotTest, IndexedQuantizedRoundTrip) {
  Snapshot snap = snapshot_;
  index::IvfConfig cfg;
  cfg.nlist = 8;
  ASSERT_TRUE(serve::BuildSnapshotIndex(&snap, cfg).ok());
  ASSERT_TRUE(serve::QuantizeSnapshot(&snap, quant::Codec::kInt8).ok());
  ASSERT_FALSE(snap.ivf.empty());
  const std::string path = TestPath("snap_q_ivf.bin");
  ASSERT_TRUE(WriteSnapshot(snap, path).ok());
  auto loaded = ReadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Snapshot& s = loaded.value();
  EXPECT_EQ(s.ivf.nlist, snap.ivf.nlist);
  EXPECT_EQ(s.ivf.centroids, snap.ivf.centroids);
  EXPECT_EQ(s.ivf.list_offsets, snap.ivf.list_offsets);
  EXPECT_EQ(s.ivf.list_items, snap.ivf.list_items);
  EXPECT_EQ(s.quant_items.q8, snap.quant_items.q8);
  // Seven sections: the six slots plus the appended ivf record.
  const std::vector<SectionSpan> table =
      SectionTable(ReadFileBytes(path));
  ASSERT_EQ(table.size(), 7u);
  EXPECT_EQ(table.back().id, 9u);  // kSectionIvf
}

TEST_F(QuantSnapshotTest, ResidentBytesShrinkUnderQuantization) {
  const int64_t fp32 = serve::SnapshotResidentBytes(snapshot_);
  Snapshot snap = snapshot_;
  ASSERT_TRUE(serve::QuantizeSnapshot(&snap, quant::Codec::kInt8).ok());
  const int64_t q8 = serve::SnapshotResidentBytes(snap);
  EXPECT_LT(q8, fp32);
  // Embedding payload shrinks ~4x; the rest of the snapshot (seen lists,
  // social, counts) is shared, so just require a strict drop plus the
  // exact embedding arithmetic.
  const int64_t dense_bytes =
      (snapshot_.users.size() + snapshot_.items.size()) *
      static_cast<int64_t>(sizeof(float));
  const int64_t quant_bytes =
      snap.quant_users.ResidentBytes() + snap.quant_items.ResidentBytes();
  EXPECT_EQ(fp32 - q8, dense_bytes - quant_bytes);
}

TEST_F(QuantSnapshotTest, RejectsBothDenseAndQuantUsers) {
  // Splice a quant_users section into an fp32 snapshot: structurally
  // valid (checksum re-stamped), semantically contradictory.
  Snapshot qsnap = snapshot_;
  ASSERT_TRUE(serve::QuantizeSnapshot(&qsnap, quant::Codec::kInt8).ok());
  const std::string qpath = TestPath("snap_conflict_src.bin");
  ASSERT_TRUE(WriteSnapshot(qsnap, qpath).ok());
  const std::string qbytes = ReadFileBytes(qpath);
  const std::vector<SectionSpan> qtable = SectionTable(qbytes);
  const SectionSpan* quant_users = nullptr;
  for (const SectionSpan& s : qtable) {
    if (s.id == 7) quant_users = &s;  // kSectionQuantUsers
  }
  ASSERT_NE(quant_users, nullptr);
  const std::string record = qbytes.substr(
      quant_users->payload_pos - sizeof(uint32_t) - sizeof(uint64_t),
      sizeof(uint32_t) + sizeof(uint64_t) + quant_users->payload_bytes);

  const std::string path = TestPath("snap_conflict.bin");
  ASSERT_TRUE(WriteSnapshot(snapshot_, path).ok());
  std::string bytes = ReadFileBytes(path);
  std::string merged = bytes.substr(0, bytes.size() - sizeof(uint64_t)) +
                       record +
                       bytes.substr(bytes.size() - sizeof(uint64_t));
  uint32_t count = 0;
  std::memcpy(&count, merged.data() + 8, sizeof(uint32_t));
  ++count;
  std::memcpy(merged.data() + 8, &count, sizeof(uint32_t));
  WriteFileBytes(path, WithFixedChecksum(merged));

  auto loaded = ReadSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("both"), std::string::npos)
      << loaded.status().ToString();
}

TEST_F(QuantSnapshotTest, QuantizedFileCorruptionMatrix) {
  Snapshot snap = snapshot_;
  index::IvfConfig cfg;
  cfg.nlist = 6;
  ASSERT_TRUE(serve::BuildSnapshotIndex(&snap, cfg).ok());
  ASSERT_TRUE(serve::QuantizeSnapshot(&snap, quant::Codec::kInt8).ok());
  const std::string path = TestPath("snap_q_corrupt_src.bin");
  ASSERT_TRUE(WriteSnapshot(snap, path).ok());
  const std::string bytes = ReadFileBytes(path);
  const std::vector<SectionSpan> table = SectionTable(bytes);
  const SectionSpan* quant_items = nullptr;
  const SectionSpan* ivf = nullptr;
  for (const SectionSpan& s : table) {
    if (s.id == 8) quant_items = &s;
    if (s.id == 9) ivf = &s;
  }
  ASSERT_NE(quant_items, nullptr);
  ASSERT_NE(ivf, nullptr);
  const std::string target = TestPath("snap_q_corrupt.bin");

  // Truncation inside the quant payload and inside the ivf payload.
  for (size_t cut : {quant_items->payload_pos + 3,
                     ivf->payload_pos + ivf->payload_bytes / 2}) {
    WriteFileBytes(target, bytes.substr(0, cut));
    EXPECT_FALSE(ReadSnapshot(target).ok()) << "cut=" << cut;
  }

  // Bit flip inside the quant payload -> checksum mismatch.
  {
    std::string bad = bytes;
    bad[quant_items->payload_pos + quant_items->payload_bytes / 2] ^= 1;
    WriteFileBytes(target, bad);
    auto loaded = ReadSnapshot(target);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("checksum"),
              std::string::npos);
  }

  // Invalid codec byte with a re-stamped checksum -> the structural
  // ParseQuant validation must fire, not the checksum.
  {
    std::string bad = bytes;
    bad[quant_items->payload_pos] = 0x7f;
    WriteFileBytes(target, WithFixedChecksum(bad));
    auto loaded = ReadSnapshot(target);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("codec"), std::string::npos)
        << loaded.status().ToString();
  }

  // Negative nlist in the ivf payload with a re-stamped checksum -> the
  // index's own parser rejects it.
  {
    std::string bad = bytes;
    const int32_t neg = -1;
    std::memcpy(bad.data() + ivf->payload_pos, &neg, sizeof(neg));
    WriteFileBytes(target, WithFixedChecksum(bad));
    EXPECT_FALSE(ReadSnapshot(target).ok());
  }

  // Duplicate ivf section with a bumped count and re-stamped checksum.
  {
    const std::string record = bytes.substr(
        ivf->payload_pos - sizeof(uint32_t) - sizeof(uint64_t),
        sizeof(uint32_t) + sizeof(uint64_t) + ivf->payload_bytes);
    std::string dup = bytes.substr(0, bytes.size() - sizeof(uint64_t)) +
                      record +
                      bytes.substr(bytes.size() - sizeof(uint64_t));
    uint32_t count = 0;
    std::memcpy(&count, dup.data() + 8, sizeof(uint32_t));
    ++count;
    std::memcpy(dup.data() + 8, &count, sizeof(uint32_t));
    WriteFileBytes(target, WithFixedChecksum(dup));
    auto loaded = ReadSnapshot(target);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("duplicate"),
              std::string::npos);
  }
}

TEST_F(QuantSnapshotTest, InspectReportsSectionsAndChecksum) {
  Snapshot snap = snapshot_;
  index::IvfConfig cfg;
  cfg.nlist = 5;
  ASSERT_TRUE(serve::BuildSnapshotIndex(&snap, cfg).ok());
  ASSERT_TRUE(serve::QuantizeSnapshot(&snap, quant::Codec::kFp16).ok());
  const std::string path = TestPath("snap_inspect.bin");
  ASSERT_TRUE(WriteSnapshot(snap, path).ok());

  auto info = serve::InspectSnapshotFile(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_TRUE(info.value().checksum_ok);
  EXPECT_EQ(info.value().stored_checksum, info.value().computed_checksum);
  ASSERT_EQ(info.value().sections.size(), 7u);
  std::vector<std::string> names;
  for (const auto& s : info.value().sections) names.push_back(s.name);
  EXPECT_EQ(names, (std::vector<std::string>{
                       "meta", "quant_users", "quant_items", "seen",
                       "social", "item_counts", "ivf"}));
  EXPECT_NE(info.value().meta_json.find("num_users"), std::string::npos);

  // A bit flip keeps the table readable but flags the checksum.
  std::string bytes = ReadFileBytes(path);
  bytes[bytes.size() / 2] ^= 1;
  WriteFileBytes(path, bytes);
  auto flipped = serve::InspectSnapshotFile(path);
  ASSERT_TRUE(flipped.ok()) << flipped.status().ToString();
  EXPECT_FALSE(flipped.value().checksum_ok);
  EXPECT_EQ(flipped.value().sections.size(), 7u);

  // Structurally-not-a-snapshot files are an error, not a report.
  const std::string garbage = TestPath("snap_inspect_garbage.bin");
  WriteFileBytes(garbage, "not a snapshot at all");
  EXPECT_FALSE(serve::InspectSnapshotFile(garbage).ok());
}

}  // namespace
}  // namespace dgnn
