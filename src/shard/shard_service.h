// Worker-side shard protocol: the ops a dgnn_serve shard worker answers
// beyond the client protocol, plus the staged two-phase snapshot swap.
// One ShardService wraps one ServingEngine and is its serve::Backend;
// HandleLine() is the complete NDJSON request->response function the
// socket transport plugs in.
//
// Ops (one JSON object per line):
//   {"op":"probe"}                          liveness + identity + load
//   {"op":"user_vector","user":u}           owning shard's scoring vector
//   {"op":"topk_partial","k":K,"query":[..],"user":u}
//   {"op":"topk_partial","k":K,"popularity":true}
//   {"op":"similar_partial","k":K,"query":[..],"norm":x,"user":u}
//   {"op":"score_item","item":i,"query":[..]}
//   {"op":"swap_prepare","prefix":P,"token":T}   stage (read+validate)
//   {"op":"swap_commit","token":T}               publish staged snapshot
//   {"op":"swap_abort","token":T}                drop staged snapshot
//   plus the client ops of serve/protocol.h (topk / score /
//   similar_users / stats). A plain "swap" is refused: a worker changes
//   snapshots only through the two-phase ops.
//
// Two-phase swap contract: prepare reads and FULLY validates the new
// snapshot (sharded workers resolve "<prefix>.shard<i>of<N>" themselves
// and reject slices for the wrong shard identity) but publishes nothing;
// commit atomically swaps the staged snapshot in; abort (or a drain —
// dgnn_serve calls AbortStagedSwap on SIGTERM) drops it. A prepare
// failure on any shard lets the router abort everywhere, so the fleet
// never serves mixed versions because one worker's disk was bad.

#ifndef DGNN_SHARD_SHARD_SERVICE_H_
#define DGNN_SHARD_SHARD_SERVICE_H_

#include <memory>
#include <mutex>
#include <string>

#include "serve/engine.h"
#include "serve/protocol.h"
#include "util/json.h"

namespace dgnn::shard {

class ShardService : public serve::Backend {
 public:
  ShardService(serve::ServingEngine& engine, std::string snapshot_path)
      : engine_(engine), snapshot_path_(std::move(snapshot_path)) {}

  // Full line handler: the shard ops first, then the client protocol.
  // Thread-safe; scoring ops run through the engine on the calling
  // thread.
  std::string HandleLine(const std::string& line) {
    return serve::HandleLine(*this, line);
  }

  // Dispatches one parsed request. Returns false when `op` is not a
  // shard-protocol op (caller falls through to its own ops), true with
  // *out filled otherwise.
  bool HandleShardOp(const util::JsonValue& req, const std::string& op,
                     std::string* out);

  // serve::Backend over the engine.
  serve::Response Handle(const serve::Request& request) override {
    return engine_.Handle(request);
  }
  util::StatusOr<int64_t> Swap(const std::string& path) override;
  // {"ok":true,"op":"stats",...}: the engine's counters and windows.
  std::string Stats() override;
  bool HandleOp(const util::JsonValue& req, const std::string& op,
                std::string* out) override {
    return HandleShardOp(req, op, out);
  }

  // Drops a staged (prepared-but-uncommitted) swap, if any; returns
  // whether one was staged. The drain path calls this so a SIGTERM
  // mid-two-phase-swap aborts instead of orphaning the staged snapshot.
  bool AbortStagedSwap();

  bool has_staged() const {
    std::lock_guard<std::mutex> lock(mu_);
    return staged_ != nullptr;
  }

 private:
  std::string Probe();
  std::string SwapPrepare(const util::JsonValue& req);
  std::string SwapCommit(const util::JsonValue& req);
  std::string SwapAbort(const util::JsonValue& req);

  serve::ServingEngine& engine_;
  const std::string snapshot_path_;
  mutable std::mutex mu_;
  std::shared_ptr<const serve::Snapshot> staged_;
  std::string staged_token_;
};

}  // namespace dgnn::shard

#endif  // DGNN_SHARD_SHARD_SERVICE_H_
