#include "shard/shard_service.h"

#include <utility>

#include "serve/observe.h"
#include "serve/snapshot.h"
#include "shard/wire.h"
#include "util/json.h"
#include "util/status.h"

namespace dgnn::shard {
namespace {

using util::JsonObject;
using util::JsonValue;

std::string ErrorLine(const std::string& op, const std::string& message) {
  JsonObject o;
  o.Set("ok", false).Set("op", op).Set("error", message);
  return o.Build();
}

}  // namespace

std::string ShardService::Probe() {
  const auto snap = engine_.snapshot();
  if (snap == nullptr) {
    return ErrorLine("probe", "no snapshot loaded");
  }
  const serve::EngineStats stats = engine_.stats();
  JsonObject o;
  o.Set("ok", true)
      .Set("op", "probe")
      .Set("shard_index", static_cast<int64_t>(snap->shard.shard_index))
      .Set("num_shards", static_cast<int64_t>(snap->shard.num_shards))
      .Set("item_begin", snap->shard.item_begin)
      .Set("item_end", snap->shard.item_end)
      // Decimal string, not a JSON number: a 64-bit seed must survive
      // the wire exactly and doubles only carry 53 bits.
      .Set("hash_seed", std::to_string(snap->shard.hash_seed))
      .Set("num_users", snap->meta.num_users)
      .Set("num_items", snap->meta.num_items)
      .Set("dim", snap->meta.embedding_dim)
      .Set("snapshot_version", engine_.swap_count())
      .Set("queue_depth", engine_.queue_depth())
      .Set("shed_requests", stats.shed_requests)
      .Set("resident_bytes", serve::SnapshotResidentBytes(*snap))
      .Set("staged", has_staged());
  return o.Build();
}

std::string ShardService::SwapPrepare(const JsonValue& req) {
  const std::string prefix = req.StringOr("prefix", "");
  const std::string token = req.StringOr("token", "");
  if (prefix.empty() || token.empty()) {
    return ErrorLine("swap_prepare",
                     "swap_prepare requires \"prefix\" and \"token\"");
  }
  const auto current = engine_.snapshot();
  if (current == nullptr) {
    return ErrorLine("swap_prepare", "no snapshot loaded");
  }
  // Sharded workers resolve their own slice of the export; an unsharded
  // worker (single-process deployment speaking the same protocol) takes
  // the prefix as the literal path.
  const std::string path =
      current->shard.empty()
          ? prefix
          : serve::ShardSnapshotPath(prefix, current->shard.shard_index,
                                     current->shard.num_shards);
  auto loaded = serve::ReadSnapshot(path);
  if (!loaded.ok()) {
    return ErrorLine("swap_prepare", loaded.status().ToString());
  }
  serve::Snapshot snap = std::move(loaded).value();
  // The staged snapshot must be a slice for THIS shard identity: same
  // ring (num_shards + seed) and same index, or committing would splice
  // a foreign ownership map into a live fleet.
  if (!current->shard.empty()) {
    if (snap.shard.num_shards != current->shard.num_shards ||
        snap.shard.shard_index != current->shard.shard_index ||
        snap.shard.hash_seed != current->shard.hash_seed) {
      return ErrorLine(
          "swap_prepare",
          "staged snapshot '" + path + "' is for shard " +
              std::to_string(snap.shard.shard_index) + "/" +
              std::to_string(snap.shard.num_shards) +
              ", this worker serves shard " +
              std::to_string(current->shard.shard_index) + "/" +
              std::to_string(current->shard.num_shards));
    }
  } else if (!snap.shard.empty()) {
    return ErrorLine("swap_prepare",
                     "staged snapshot '" + path +
                         "' is a shard slice but this worker serves an "
                         "unsharded snapshot");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    staged_ = std::make_shared<const serve::Snapshot>(std::move(snap));
    staged_token_ = token;
  }
  JsonObject o;
  o.Set("ok", true)
      .Set("op", "swap_prepare")
      .Set("token", token)
      .Set("path", path);
  return o.Build();
}

std::string ShardService::SwapCommit(const JsonValue& req) {
  const std::string token = req.StringOr("token", "");
  std::shared_ptr<const serve::Snapshot> snap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (staged_ == nullptr || staged_token_ != token) {
      return ErrorLine("swap_commit",
                       staged_ == nullptr
                           ? "no staged swap"
                           : "staged token mismatch (staged '" +
                                 staged_token_ + "', commit '" + token +
                                 "')");
    }
    snap = std::move(staged_);
    staged_.reset();
    staged_token_.clear();
  }
  engine_.Swap(std::move(snap));
  JsonObject o;
  o.Set("ok", true)
      .Set("op", "swap_commit")
      .Set("token", token)
      .Set("snapshot_version", engine_.swap_count());
  return o.Build();
}

std::string ShardService::SwapAbort(const JsonValue& req) {
  const std::string token = req.StringOr("token", "");
  bool aborted = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Abort is idempotent and forgiving: an empty token (or the staged
    // one) drops the stage; a mismatched token is a no-op "nothing to
    // abort", never an error — the caller is cleaning up.
    if (staged_ != nullptr && (token.empty() || token == staged_token_)) {
      staged_.reset();
      staged_token_.clear();
      aborted = true;
    }
  }
  JsonObject o;
  o.Set("ok", true)
      .Set("op", "swap_abort")
      .Set("token", token)
      .Set("aborted", aborted);
  return o.Build();
}

bool ShardService::AbortStagedSwap() {
  std::lock_guard<std::mutex> lock(mu_);
  const bool had = staged_ != nullptr;
  staged_.reset();
  staged_token_.clear();
  return had;
}

bool ShardService::HandleShardOp(const JsonValue& req, const std::string& op,
                                 std::string* out) {
  if (op == "probe") {
    *out = Probe();
    return true;
  }
  if (op == "swap_prepare") {
    *out = SwapPrepare(req);
    return true;
  }
  if (op == "swap_commit") {
    *out = SwapCommit(req);
    return true;
  }
  if (op == "swap_abort") {
    *out = SwapAbort(req);
    return true;
  }

  serve::Request request;
  if (op == "user_vector") {
    request.type = serve::Request::Type::kUserVector;
  } else if (op == "topk_partial") {
    request.type = serve::Request::Type::kTopKPartial;
  } else if (op == "similar_partial") {
    request.type = serve::Request::Type::kSimilarPartial;
  } else if (op == "score_item") {
    request.type = serve::Request::Type::kScoreItem;
  } else {
    return false;
  }
  request.user = -1;
  request.item = -1;
  const util::Status fields = serve::ReadRequestFields(req, &request);
  if (!fields.ok()) {
    *out = ErrorLine(op, fields.message());
    return true;
  }
  request.popularity = req.BoolOr("popularity", false);
  const double norm = req.NumberOr("norm", 0.0);
  if (!FitsFloat(norm)) {
    *out = ErrorLine(op, "\"norm\" must be a number within float range");
    return true;
  }
  request.query_norm = static_cast<float>(norm);
  const JsonValue* query = req.Find("query");
  if (query != nullptr && !ParseFloatArray(query, &request.query)) {
    *out = ErrorLine(
        op, "\"query\" must be an array of numbers within float range");
    return true;
  }

  const serve::Response resp = engine_.Handle(request);
  if (!resp.ok) {
    *out = serve::ResponseLine(op, request, resp);
    return true;
  }
  JsonObject o;
  o.Set("ok", true)
      .Set("op", op)
      .Set("trace_id", resp.trace_id)
      .Set("degraded", resp.degraded)
      .Set("snapshot_version", resp.snapshot_version);
  switch (request.type) {
    case serve::Request::Type::kUserVector:
      o.Set("user", static_cast<int64_t>(request.user))
          .Set("norm", static_cast<double>(resp.vector_norm))
          .SetRaw("vector", FloatsJson(resp.vector));
      break;
    case serve::Request::Type::kScoreItem:
      o.Set("item", static_cast<int64_t>(request.item))
          .Set("score", static_cast<double>(resp.score));
      break;
    default:  // the partial rankers
      o.Set("k", static_cast<int64_t>(request.k))
          .SetRaw("items", serve::ItemsJson(resp.items));
      break;
  }
  *out = o.Build();
  return true;
}

util::StatusOr<int64_t> ShardService::Swap(const std::string& /*path*/) {
  return util::Status::FailedPrecondition(
      "a shard worker swaps snapshots through swap_prepare/swap_commit");
}

std::string ShardService::Stats() {
  JsonObject o;
  o.Set("ok", true).Set("op", "stats");
  serve::observe::AppendStatsFields(engine_, &o);
  return o.Build();
}

}  // namespace dgnn::shard
