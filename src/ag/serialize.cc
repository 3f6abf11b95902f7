#include "ag/serialize.h"

#include <cstring>
#include <set>
#include <utility>
#include <vector>

#include "util/bytes.h"
#include "util/failpoint.h"
#include "util/fs.h"
#include "util/json.h"
#include "util/run_log.h"

namespace dgnn::ag {
namespace {

constexpr char kMagicV1[8] = {'D', 'G', 'N', 'N', 'P', 'A', 'R', '1'};
constexpr char kMagicV2[8] = {'D', 'G', 'N', 'N', 'P', 'A', 'R', '2'};
constexpr uint32_t kFlagHasOptimizer = 1u;

using util::AppendPod;
using util::Cursor;
using util::Status;

// `checkpoint` run-log event: one per save/load attempt, success or not,
// so a run's log records exactly which parameter files it produced and
// consumed (and how a restore failed, if it did).
void LogCheckpointEvent(const char* action, const std::string& path,
                        const ParamStore& store, const Status& status) {
  if (!runlog::Active()) return;
  util::JsonObject o;
  o.Set("action", action)
      .Set("path", path)
      .Set("num_params", static_cast<int64_t>(store.params().size()))
      .Set("total_values", store.TotalParameterCount())
      .Set("ok", status.ok());
  if (!status.ok()) o.Set("error", status.ToString());
  runlog::Emit("checkpoint", o);
}

uint64_t Fnv1a(const char* data, size_t n) {
  uint64_t h = 14695981039346656037ULL;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ULL;
  }
  return h;
}

void AppendFloats(std::string& out, const float* data, int64_t n) {
  out.append(reinterpret_cast<const char*>(data),
             static_cast<size_t>(n) * sizeof(float));
}

void AppendParamRecords(std::string& out, const ParamStore& store,
                        bool with_moments) {
  AppendPod<uint64_t>(out, store.params().size());
  for (const auto& p : store.params()) {
    AppendPod<uint32_t>(out, static_cast<uint32_t>(p->name.size()));
    out.append(p->name);
    AppendPod<int64_t>(out, p->value.rows());
    AppendPod<int64_t>(out, p->value.cols());
    AppendFloats(out, p->value.data(), p->value.size());
    if (with_moments) {
      AppendFloats(out, p->adam_m.data(), p->adam_m.size());
      AppendFloats(out, p->adam_v.data(), p->adam_v.size());
    }
  }
}

// One fully-validated parameter record waiting for commit.
struct StagedRecord {
  Parameter* param;
  std::vector<float> values;
  std::vector<float> adam_m;  // only when the file carries moments
  std::vector<float> adam_v;
};

// Parses `count` records from the cursor, validating names and shapes
// against `store`. Nothing in `store` is touched; the caller commits the
// staged records only after the whole file checks out.
Status ParseRecords(Cursor& cur, ParamStore& store, bool with_moments,
                    const std::string& path,
                    std::vector<StagedRecord>* staged) {
  uint64_t count = 0;
  if (!cur.ReadPod(&count)) {
    return Status::InvalidArgument("truncated header in " + path);
  }
  staged->reserve(count);
  std::set<std::string> seen_names;
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t name_len = 0;
    if (!cur.ReadPod(&name_len) || name_len > 4096) {
      return Status::InvalidArgument("bad parameter name length");
    }
    std::string name(name_len, '\0');
    if (!cur.Read(name.data(), name_len)) {
      return Status::InvalidArgument("truncated parameter record");
    }
    int64_t rows = 0;
    int64_t cols = 0;
    if (!cur.ReadPod(&rows) || !cur.ReadPod(&cols) || rows < 0 || cols < 0) {
      return Status::InvalidArgument("truncated parameter record for '" +
                                     name + "'");
    }
    if (!seen_names.insert(name).second) {
      return Status::InvalidArgument("duplicate parameter record for '" +
                                     name + "' in " + path);
    }
    Parameter* p = store.Find(name);
    if (p == nullptr) {
      return Status::InvalidArgument("unknown parameter in file: '" + name +
                                     "'");
    }
    if (p->value.rows() != rows || p->value.cols() != cols) {
      return Status::FailedPrecondition(
          "shape mismatch for '" + name + "': file has " +
          std::to_string(rows) + "x" + std::to_string(cols) +
          ", model has " + p->value.ShapeString());
    }
    StagedRecord rec;
    rec.param = p;
    const size_t n = static_cast<size_t>(p->value.size());
    rec.values.resize(n);
    if (!cur.Read(rec.values.data(), n * sizeof(float))) {
      return Status::InvalidArgument("truncated values for '" + name + "'");
    }
    if (with_moments) {
      rec.adam_m.resize(n);
      rec.adam_v.resize(n);
      if (!cur.Read(rec.adam_m.data(), n * sizeof(float)) ||
          !cur.Read(rec.adam_v.data(), n * sizeof(float))) {
        return Status::InvalidArgument("truncated optimizer moments for '" +
                                       name + "'");
      }
    }
    staged->push_back(std::move(rec));
  }
  return Status::Ok();
}

void CommitRecords(std::vector<StagedRecord>& staged, bool restore_moments) {
  for (StagedRecord& rec : staged) {
    std::memcpy(rec.param->value.data(), rec.values.data(),
                rec.values.size() * sizeof(float));
    if (restore_moments && !rec.adam_m.empty()) {
      Parameter* p = rec.param;
      if (p->adam_m.empty()) {
        p->adam_m = Tensor(p->value.rows(), p->value.cols());
        p->adam_v = Tensor(p->value.rows(), p->value.cols());
      }
      std::memcpy(p->adam_m.data(), rec.adam_m.data(),
                  rec.adam_m.size() * sizeof(float));
      std::memcpy(p->adam_v.data(), rec.adam_v.data(),
                  rec.adam_v.size() * sizeof(float));
    }
  }
}

Status SaveParametersImpl(const ParamStore& store, const std::string& path) {
  DGNN_FAILPOINT("params.save");
  std::string buf;
  buf.append(kMagicV1, sizeof(kMagicV1));
  AppendParamRecords(buf, store, /*with_moments=*/false);
  return fs::AtomicWriteFile(path, buf);
}

Status LoadParametersImpl(ParamStore& store, const std::string& path) {
  DGNN_FAILPOINT("params.load");
  auto contents = fs::ReadFileToString(path);
  if (!contents.ok()) return contents.status();
  const std::string& buf = contents.value();
  Cursor cur{buf.data(), buf.size()};
  char magic[8];
  if (!cur.Read(magic, sizeof(magic))) {
    return Status::InvalidArgument("bad magic in " + path);
  }
  bool with_moments = false;
  if (std::memcmp(magic, kMagicV2, sizeof(kMagicV2)) == 0) {
    // v2: verify the trailing checksum, then skip the optimizer/trainer
    // header — evaluate/serve only need the values.
    if (buf.size() < sizeof(magic) + sizeof(uint64_t)) {
      return Status::InvalidArgument("truncated header in " + path);
    }
    uint64_t stored = 0;
    std::memcpy(&stored, buf.data() + buf.size() - sizeof(uint64_t),
                sizeof(uint64_t));
    if (Fnv1a(buf.data(), buf.size() - sizeof(uint64_t)) != stored) {
      return Status::InvalidArgument("checksum mismatch in " + path);
    }
    cur.size = buf.size() - sizeof(uint64_t);
    uint32_t flags = 0;
    int64_t adam_step = 0;
    uint64_t blob_len = 0;
    if (!cur.ReadPod(&flags) || !cur.ReadPod(&adam_step) ||
        !cur.ReadPod(&blob_len) || blob_len > cur.size - cur.pos) {
      return Status::InvalidArgument("truncated header in " + path);
    }
    cur.pos += blob_len;
    with_moments = (flags & kFlagHasOptimizer) != 0;
  } else if (std::memcmp(magic, kMagicV1, sizeof(kMagicV1)) != 0) {
    return Status::InvalidArgument("bad magic in " + path);
  }
  std::vector<StagedRecord> staged;
  DGNN_RETURN_IF_ERROR(
      ParseRecords(cur, store, with_moments, path, &staged));
  if (cur.pos != cur.size) {
    return Status::InvalidArgument(
        "trailing garbage after " + std::to_string(staged.size()) +
        " parameter records in " + path);
  }
  CommitRecords(staged, /*restore_moments=*/false);
  return Status::Ok();
}

Status SaveCheckpointImpl(const ParamStore& store,
                          const CheckpointState& state,
                          const std::string& path) {
  DGNN_FAILPOINT("checkpoint.save");
  // The moments flag requires every parameter to actually HAVE moments
  // (they are lazily created by the first optimizer step); a checkpoint
  // taken before any step saves values only.
  bool moments_ready = state.has_optimizer;
  for (const auto& p : store.params()) {
    if (p->adam_m.empty()) moments_ready = false;
  }
  std::string buf;
  buf.append(kMagicV2, sizeof(kMagicV2));
  AppendPod<uint32_t>(buf, moments_ready ? kFlagHasOptimizer : 0u);
  AppendPod<int64_t>(buf, state.adam_step);
  AppendPod<uint64_t>(buf, state.trainer_state.size());
  buf.append(state.trainer_state);
  AppendParamRecords(buf, store, moments_ready);
  AppendPod<uint64_t>(buf, Fnv1a(buf.data(), buf.size()));
  return fs::AtomicWriteFile(path, buf);
}

Status LoadCheckpointImpl(ParamStore& store, CheckpointState* state,
                          const std::string& path) {
  DGNN_FAILPOINT("checkpoint.load");
  auto contents = fs::ReadFileToString(path);
  if (!contents.ok()) return contents.status();
  const std::string& buf = contents.value();
  Cursor cur{buf.data(), buf.size()};
  char magic[8];
  if (!cur.Read(magic, sizeof(magic))) {
    return Status::InvalidArgument("bad magic in " + path);
  }
  if (std::memcmp(magic, kMagicV1, sizeof(kMagicV1)) == 0) {
    return Status::FailedPrecondition(
        path + " is a v1 parameter file (no optimizer/trainer state); "
               "cannot resume from it");
  }
  if (std::memcmp(magic, kMagicV2, sizeof(kMagicV2)) != 0) {
    return Status::InvalidArgument("bad magic in " + path);
  }
  if (buf.size() < sizeof(magic) + sizeof(uint64_t)) {
    return Status::InvalidArgument("truncated header in " + path);
  }
  uint64_t stored = 0;
  std::memcpy(&stored, buf.data() + buf.size() - sizeof(uint64_t),
              sizeof(uint64_t));
  if (Fnv1a(buf.data(), buf.size() - sizeof(uint64_t)) != stored) {
    return Status::InvalidArgument("checksum mismatch in " + path);
  }
  cur.size = buf.size() - sizeof(uint64_t);
  uint32_t flags = 0;
  int64_t adam_step = 0;
  uint64_t blob_len = 0;
  if (!cur.ReadPod(&flags) || !cur.ReadPod(&adam_step) ||
      !cur.ReadPod(&blob_len) || blob_len > cur.size - cur.pos) {
    return Status::InvalidArgument("truncated header in " + path);
  }
  std::string trainer_state(buf.data() + cur.pos, blob_len);
  cur.pos += blob_len;
  const bool with_moments = (flags & kFlagHasOptimizer) != 0;
  std::vector<StagedRecord> staged;
  DGNN_RETURN_IF_ERROR(
      ParseRecords(cur, store, with_moments, path, &staged));
  if (cur.pos != cur.size) {
    return Status::InvalidArgument(
        "trailing garbage after " + std::to_string(staged.size()) +
        " parameter records in " + path);
  }
  // Commit: file fully validated.
  CommitRecords(staged, /*restore_moments=*/with_moments);
  state->has_optimizer = with_moments;
  state->adam_step = adam_step;
  state->trainer_state = std::move(trainer_state);
  return Status::Ok();
}

}  // namespace

Status SaveParameters(const ParamStore& store, const std::string& path) {
  Status status = SaveParametersImpl(store, path);
  LogCheckpointEvent("save", path, store, status);
  return status;
}

Status LoadParameters(ParamStore& store, const std::string& path) {
  Status status = LoadParametersImpl(store, path);
  LogCheckpointEvent("load", path, store, status);
  return status;
}

Status SaveCheckpoint(const ParamStore& store, const CheckpointState& state,
                      const std::string& path) {
  Status status = SaveCheckpointImpl(store, state, path);
  LogCheckpointEvent("save_checkpoint", path, store, status);
  return status;
}

Status LoadCheckpoint(ParamStore& store, CheckpointState* state,
                      const std::string& path) {
  Status status = LoadCheckpointImpl(store, state, path);
  LogCheckpointEvent("load_checkpoint", path, store, status);
  return status;
}

}  // namespace dgnn::ag
