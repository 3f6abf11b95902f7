// Failure-injection tests: malformed inputs and contract violations must
// fail loudly (Status for runtime data, CHECK death for API misuse) —
// never silently corrupt.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "ag/serialize.h"
#include "ag/tape.h"
#include "data/io.h"
#include "data/sampler.h"
#include "data/synthetic.h"
#include "train/metrics.h"
#include "util/failpoint.h"

namespace dgnn {
namespace {

// ----- data loading: malformed files produce Status errors ----------------

class IoFailureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/dgnn_io_failure";
    data::Dataset ds = data::GenerateSynthetic(data::SyntheticConfig::Tiny());
    ASSERT_TRUE(data::SaveDataset(ds, dir_).ok());
  }

  void Corrupt(const std::string& file, const std::string& content) {
    std::ofstream out(dir_ + "/" + file, std::ios::trunc);
    out << content;
  }

  std::string dir_;
};

TEST_F(IoFailureTest, BadMetaHeader) {
  Corrupt("meta.tsv", "only_two_fields\t3\n");
  auto loaded = data::LoadDataset(dir_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
}

TEST_F(IoFailureTest, NonNumericInteraction) {
  Corrupt("train.tsv", "1\tnotanumber\t0\n");
  auto loaded = data::LoadDataset(dir_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
}

TEST_F(IoFailureTest, ShortRow) {
  Corrupt("social.tsv", "5\n");
  auto loaded = data::LoadDataset(dir_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("short row"), std::string::npos);
}

TEST_F(IoFailureTest, NegativesCountMismatch) {
  Corrupt("eval_negatives.tsv", "1\t2\t3\n");  // one row, many test users
  auto loaded = data::LoadDataset(dir_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("does not match"),
            std::string::npos);
}

TEST_F(IoFailureTest, MissingFile) {
  ASSERT_EQ(::remove((dir_ + "/item_relations.tsv").c_str()), 0);
  auto loaded = data::LoadDataset(dir_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kNotFound);
}

// ----- id range validation: every id is checked against meta.tsv bounds ----
// Out-of-range ids in a hand-edited TSV used to flow straight into vector
// indexing / CSR construction; now they are rejected with an error naming
// the file and row.

TEST_F(IoFailureTest, OutOfRangeUserInTrain) {
  Corrupt("train.tsv", "0\t0\t0\n999999\t0\t1\n");
  auto loaded = data::LoadDataset(dir_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("train.tsv"), std::string::npos);
  EXPECT_NE(loaded.status().message().find("row 2"), std::string::npos);
  EXPECT_NE(loaded.status().message().find("user"), std::string::npos);
}

TEST_F(IoFailureTest, NegativeItemInTrain) {
  Corrupt("train.tsv", "0\t-3\t0\n");
  auto loaded = data::LoadDataset(dir_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("train.tsv row 1"),
            std::string::npos);
  EXPECT_NE(loaded.status().message().find("out of range"),
            std::string::npos);
}

TEST_F(IoFailureTest, OutOfRangeItemInTest) {
  Corrupt("test.tsv", "0\t999999\t0\n");
  auto loaded = data::LoadDataset(dir_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("test.tsv row 1"),
            std::string::npos);
}

TEST_F(IoFailureTest, OutOfRangeSocialUser) {
  Corrupt("social.tsv", "0\t999999\n");
  auto loaded = data::LoadDataset(dir_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("social.tsv row 1"),
            std::string::npos);
}

TEST_F(IoFailureTest, OutOfRangeRelationId) {
  Corrupt("item_relations.tsv", "0\t999999\n");
  auto loaded = data::LoadDataset(dir_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("item_relations.tsv row 1"),
            std::string::npos);
  EXPECT_NE(loaded.status().message().find("relation"), std::string::npos);
}

TEST_F(IoFailureTest, OutOfRangeEvalNegative) {
  // Keep the row count in sync with test.tsv but poison the first id.
  std::ifstream in(dir_ + "/eval_negatives.tsv");
  std::stringstream buf;
  buf << in.rdbuf();
  std::string content = buf.str();
  const size_t tab = content.find('\t');
  ASSERT_NE(tab, std::string::npos);
  Corrupt("eval_negatives.tsv", "999999" + content.substr(tab));
  auto loaded = data::LoadDataset(dir_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("eval_negatives.tsv row 1"),
            std::string::npos);
}

TEST_F(IoFailureTest, NegativeMetaCountRejected) {
  Corrupt("meta.tsv", "bad\t-1\t10\t3\n");
  auto loaded = data::LoadDataset(dir_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("negative entity count"),
            std::string::npos);
}

// ----- BprSampler: saturated users must not hang ---------------------------

// Reproduces the release-mode infinite loop: a user who interacted with
// every item has no negative to sample. The guard is a hard CHECK now, so
// this dies loudly in every build type instead of spinning.
TEST(SamplerDeathTest, UserWithEveryItemDies) {
  data::Dataset ds;
  ds.name = "saturated";
  ds.num_users = 2;
  ds.num_items = 3;
  ds.num_relations = 1;
  for (int32_t i = 0; i < ds.num_items; ++i) {
    ds.train.push_back({0, i, i});
  }
  ds.train.push_back({1, 0, 0});
  data::BprSampler sampler(ds, /*seed=*/7);
  EXPECT_DEATH(sampler.SampleEpoch(2), "interacted with every item");
}

// A user with all items but one is fine — the bounded fallback must find
// that single unseen item instead of rejection-sampling forever.
TEST(SamplerTest, NearSaturatedUserGetsTheOnlyNegative) {
  data::Dataset ds;
  ds.name = "near_saturated";
  ds.num_users = 1;
  ds.num_items = 64;
  ds.num_relations = 1;
  const int32_t unseen = 37;
  for (int32_t i = 0; i < ds.num_items; ++i) {
    if (i != unseen) ds.train.push_back({0, i, i});
  }
  data::BprSampler sampler(ds, /*seed=*/11);
  for (const auto& batch : sampler.SampleEpoch(16)) {
    for (int32_t neg : batch.neg_items) {
      EXPECT_EQ(neg, unseen);
    }
  }
}

// ----- checkpoint durability ------------------------------------------------

class SerializeFailureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/dgnn_ckpt.bin";
    ::remove(path_.c_str());
    ::remove((path_ + ".tmp").c_str());
    a_ = store_.Create("a", ag::Tensor::Full(2, 3, 1.0f));
    b_ = store_.Create("b", ag::Tensor::Full(4, 1, 2.0f));
  }

  void TearDown() override {
    ::remove(path_.c_str());
    ::remove((path_ + ".tmp").c_str());
  }

  // Byte length of the file at `path_`.
  long FileSize() {
    std::ifstream in(path_, std::ios::binary | std::ios::ate);
    return static_cast<long>(in.tellg());
  }

  void TruncateTo(long bytes) {
    std::ifstream in(path_, std::ios::binary);
    std::string content(static_cast<size_t>(bytes), '\0');
    in.read(content.data(), bytes);
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << content;
  }

  ag::ParamStore store_;
  ag::Parameter* a_ = nullptr;
  ag::Parameter* b_ = nullptr;
  std::string path_;
};

TEST_F(SerializeFailureTest, SaveLeavesNoTempFileBehind) {
  ASSERT_TRUE(ag::SaveParameters(store_, path_).ok());
  std::ifstream tmp(path_ + ".tmp");
  EXPECT_FALSE(tmp.is_open());
  std::ifstream final_file(path_);
  EXPECT_TRUE(final_file.is_open());
}

TEST_F(SerializeFailureTest, FailedSavePreservesExistingCheckpoint) {
  ASSERT_TRUE(ag::SaveParameters(store_, path_).ok());
  const long good_size = FileSize();
  // Saving into a directory that does not exist fails before touching
  // `path_` — the temp file lives next to the target, never at it.
  util::Status s =
      ag::SaveParameters(store_, "/nonexistent_dir_zz/ckpt.bin");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(FileSize(), good_size);
  ASSERT_TRUE(ag::LoadParameters(store_, path_).ok());
}

TEST_F(SerializeFailureTest, TruncatedFileFailsAndStoreIsUntouched) {
  ASSERT_TRUE(ag::SaveParameters(store_, path_).ok());
  const long full = FileSize();
  // Cut the file mid-way through the second parameter's values.
  TruncateTo(full - 2);
  // Scribble over the live store; a failed load must leave these values.
  a_->value.Fill(-7.0f);
  b_->value.Fill(-9.0f);
  util::Status s = ag::LoadParameters(store_, path_);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), util::StatusCode::kInvalidArgument);
  for (int64_t i = 0; i < a_->value.size(); ++i) {
    EXPECT_EQ(a_->value.data()[i], -7.0f) << "store mutated by failed load";
  }
  for (int64_t i = 0; i < b_->value.size(); ++i) {
    EXPECT_EQ(b_->value.data()[i], -9.0f) << "store mutated by failed load";
  }
}

TEST_F(SerializeFailureTest, TruncatedHeaderFails) {
  ASSERT_TRUE(ag::SaveParameters(store_, path_).ok());
  TruncateTo(10);  // inside the count field
  util::Status s = ag::LoadParameters(store_, path_);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("truncated"), std::string::npos);
}

TEST_F(SerializeFailureTest, DuplicateParameterRecordRejected) {
  // Hand-build a file whose records list parameter "a" twice.
  ag::ParamStore dup_store;
  dup_store.Create("a", ag::Tensor::Full(2, 3, 1.0f));
  ASSERT_TRUE(ag::SaveParameters(dup_store, path_).ok());
  std::ifstream in(path_, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  std::string bytes = buf.str();
  // Layout: 8B magic, 8B count, then one record. Duplicate the record and
  // bump the count to 2.
  const std::string record = bytes.substr(16);
  bytes[8] = 2;
  bytes += record;
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  util::Status s = ag::LoadParameters(store_, path_);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("duplicate parameter record"),
            std::string::npos);
}

TEST_F(SerializeFailureTest, RecordCountBeyondFileSizeRejected) {
  ASSERT_TRUE(ag::SaveParameters(store_, path_).ok());
  std::ifstream in(path_, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  std::string bytes = buf.str();
  // Layout: 8B magic, 8B count. No file this size holds 2^62 records;
  // the reader must say so before it sizes anything from the count.
  const uint64_t count = 1ULL << 62;
  std::memcpy(bytes.data() + 8, &count, sizeof(count));
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  util::Status s = ag::LoadParameters(store_, path_);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(s.ToString().find("implausible parameter count"),
            std::string::npos)
      << s.ToString();
}

TEST_F(SerializeFailureTest, TrailingGarbageRejected) {
  ASSERT_TRUE(ag::SaveParameters(store_, path_).ok());
  {
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    out << "extra bytes";
  }
  a_->value.Fill(-1.0f);
  util::Status s = ag::LoadParameters(store_, path_);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("trailing garbage"), std::string::npos);
  // And the failed load left the store untouched.
  EXPECT_EQ(a_->value.data()[0], -1.0f);
}

TEST_F(SerializeFailureTest, RoundTripStillWorks) {
  a_->value.Fill(3.5f);
  b_->value.Fill(-0.25f);
  ASSERT_TRUE(ag::SaveParameters(store_, path_).ok());
  a_->value.Fill(0.0f);
  b_->value.Fill(0.0f);
  ASSERT_TRUE(ag::LoadParameters(store_, path_).ok());
  EXPECT_EQ(a_->value.data()[0], 3.5f);
  EXPECT_EQ(b_->value.data()[0], -0.25f);
}

// ----- failpoint-driven I/O faults -----------------------------------------
// The tests above corrupt bytes on disk; these inject faults at the I/O
// sites themselves (util/failpoint.h) and check that atomic writes and
// retries keep the same no-partial-state guarantees under env failures.

class FailpointIoTest : public SerializeFailureTest {
 protected:
  void SetUp() override {
    failpoint::Clear();
    SerializeFailureTest::SetUp();
  }
  void TearDown() override {
    failpoint::Clear();
    SerializeFailureTest::TearDown();
  }
};

TEST_F(FailpointIoTest, TransientWriteFaultAbsorbedByRetry) {
  ASSERT_TRUE(failpoint::Configure("fs.write=once").ok());
  ASSERT_TRUE(ag::SaveParameters(store_, path_).ok());
  EXPECT_EQ(failpoint::TriggerCount("fs.write"), 1);
  failpoint::Clear();
  EXPECT_TRUE(ag::LoadParameters(store_, path_).ok());
}

TEST_F(FailpointIoTest, PersistentWriteFaultPreservesOldCheckpoint) {
  a_->value.Fill(1.5f);
  ASSERT_TRUE(ag::SaveParameters(store_, path_).ok());
  ASSERT_TRUE(failpoint::Configure("fs.write=error").ok());
  a_->value.Fill(9.0f);
  util::Status s = ag::SaveParameters(store_, path_);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), util::StatusCode::kInternal);
  failpoint::Clear();
  std::ifstream tmp(path_ + ".tmp");
  EXPECT_FALSE(tmp.is_open()) << "failed save left its temp file behind";
  ASSERT_TRUE(ag::LoadParameters(store_, path_).ok());
  EXPECT_EQ(a_->value.data()[0], 1.5f) << "old checkpoint clobbered";
}

TEST_F(FailpointIoTest, RenameFaultPreservesOldCheckpoint) {
  a_->value.Fill(2.5f);
  ASSERT_TRUE(ag::SaveParameters(store_, path_).ok());
  ASSERT_TRUE(failpoint::Configure("fs.rename=error").ok());
  a_->value.Fill(-4.0f);
  EXPECT_FALSE(ag::SaveParameters(store_, path_).ok());
  failpoint::Clear();
  ASSERT_TRUE(ag::LoadParameters(store_, path_).ok());
  EXPECT_EQ(a_->value.data()[0], 2.5f);
}

TEST_F(FailpointIoTest, TransientReadFaultAbsorbedByRetry) {
  ASSERT_TRUE(ag::SaveParameters(store_, path_).ok());
  ASSERT_TRUE(failpoint::Configure("fs.read=once").ok());
  EXPECT_TRUE(ag::LoadParameters(store_, path_).ok());
  EXPECT_EQ(failpoint::TriggerCount("fs.read"), 1);
}

TEST_F(FailpointIoTest, SaveSiteInjectionFailsWholeSave) {
  ASSERT_TRUE(failpoint::Configure("params.save=error").ok());
  util::Status s = ag::SaveParameters(store_, path_);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), util::StatusCode::kInternal);
  failpoint::Clear();
  std::ifstream final_file(path_);
  EXPECT_FALSE(final_file.is_open()) << "save wrote despite injection";
}

TEST_F(FailpointIoTest, LoadSiteInjectionLeavesStoreUntouched) {
  ASSERT_TRUE(ag::SaveParameters(store_, path_).ok());
  a_->value.Fill(-7.0f);
  ASSERT_TRUE(failpoint::Configure("params.load=error").ok());
  util::Status s = ag::LoadParameters(store_, path_);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), util::StatusCode::kInternal);
  EXPECT_EQ(a_->value.data()[0], -7.0f) << "store mutated by failed load";
}

TEST_F(FailpointIoTest, DatasetLoadInjectionSurfacesAsInternal) {
  const std::string dir = ::testing::TempDir() + "/dgnn_fp_dataset";
  data::Dataset ds = data::GenerateSynthetic(data::SyntheticConfig::Tiny());
  ASSERT_TRUE(data::SaveDataset(ds, dir).ok());
  ASSERT_TRUE(failpoint::Configure("data.load_dataset=error").ok());
  auto loaded = data::LoadDataset(dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInternal);
  failpoint::Clear();
  EXPECT_TRUE(data::LoadDataset(dir).ok());
}

TEST_F(FailpointIoTest, DatasetSaveInjectionSurfacesAsInternal) {
  const std::string dir = ::testing::TempDir() + "/dgnn_fp_dataset_save";
  data::Dataset ds = data::GenerateSynthetic(data::SyntheticConfig::Tiny());
  ASSERT_TRUE(failpoint::Configure("data.save_dataset=error").ok());
  util::Status s = data::SaveDataset(ds, dir);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), util::StatusCode::kInternal);
}

// ----- Validate() catches corrupted in-memory datasets --------------------

using DataValidateDeathTest = ::testing::Test;

TEST(DataValidateDeathTest, OutOfRangeUser) {
  data::Dataset ds = data::GenerateSynthetic(data::SyntheticConfig::Tiny());
  ds.train.push_back({ds.num_users + 5, 0, 0});
  EXPECT_DEATH(ds.Validate(), "CHECK FAILED");
}

TEST(DataValidateDeathTest, UnsortedSocialPair) {
  data::Dataset ds = data::GenerateSynthetic(data::SyntheticConfig::Tiny());
  ds.social.push_back({5, 2});  // violates u < v
  EXPECT_DEATH(ds.Validate(), "u < v");
}

TEST(DataValidateDeathTest, NegativeThatWasInteracted) {
  data::Dataset ds = data::GenerateSynthetic(data::SyntheticConfig::Tiny());
  ASSERT_FALSE(ds.test.empty());
  // Replace a negative with an item the user interacted with in training.
  const int32_t user = ds.test[0].user;
  int32_t seen_item = -1;
  for (const auto& it : ds.train) {
    if (it.user == user) {
      seen_item = it.item;
      break;
    }
  }
  ASSERT_GE(seen_item, 0);
  ds.eval_negatives[0][0] = seen_item;
  EXPECT_DEATH(ds.Validate(), "interacted");
}

// ----- Tape API misuse dies with CHECK -------------------------------------

using TapeDeathTest = ::testing::Test;

TEST(TapeDeathTest, BackwardRequiresScalarRoot) {
  ag::ParamStore store;
  auto* p = store.Create("p", ag::Tensor(2, 2));
  ag::Tape t;
  ag::VarId v = t.Param(p);
  EXPECT_DEATH(t.Backward(v), "scalar");
}

TEST(TapeDeathTest, BackwardRequiresGradPath) {
  ag::Tape t;
  ag::VarId c = t.Constant(ag::Tensor::Scalar(1.0f));
  EXPECT_DEATH(t.Backward(c), "depend");
}

TEST(TapeDeathTest, ShapeMismatchInAdd) {
  ag::Tape t;
  ag::VarId a = t.Constant(ag::Tensor(2, 3));
  ag::VarId b = t.Constant(ag::Tensor(3, 2));
  EXPECT_DEATH(t.Add(a, b), "CHECK FAILED");
}

TEST(TapeDeathTest, SpMMWithoutTransposeForGradient) {
  graph::CooMatrix coo;
  coo.rows = 2;
  coo.cols = 2;
  coo.Add(0, 1);
  graph::CsrMatrix adj = graph::CsrMatrix::FromCoo(coo);
  ag::ParamStore store;
  auto* p = store.Create("p", ag::Tensor(2, 3));
  ag::Tape t;
  EXPECT_DEATH(t.SpMM(&adj, nullptr, t.Param(p)), "transposed");
}

TEST(TapeDeathTest, ColOutOfRange) {
  ag::Tape t;
  ag::VarId a = t.Constant(ag::Tensor(2, 3));
  EXPECT_DEATH(t.Col(a, 3), "CHECK FAILED");
}

// ----- metrics misuse -------------------------------------------------------

TEST(MetricsDeathTest, RanksMustBePositive) {
  EXPECT_DEATH(train::MetricsFromRanks({0}, {10}), "CHECK FAILED");
}

}  // namespace
}  // namespace dgnn
