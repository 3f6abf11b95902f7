// Health-checked scatter/gather router over a fleet of dgnn_serve shard
// workers (the tentpole of the fault-tolerant sharded serving layer).
//
// The router answers the client ops upward (topk / score /
// similar_users; dgnn_router serves them through serve/protocol.h, the
// same module dgnn_serve answers with) and speaks the shard vocabulary
// downward (user_vector / topk_partial / similar_partial / score_item
// over shard/transport.h sockets):
//
//   topk(user):  1. fetch the user's scoring vector from the shard the
//                   consistent-hash ring says owns the user;
//                2. scatter topk_partial(query) to every item shard;
//                3. merge the per-shard top-ks with serve::SelectTopK —
//                   the same (score desc, id asc) total order every
//                   scoring path ranks through, so a full-fleet answer
//                   is BIT-IDENTICAL to a single-process scan.
//
// Robustness model:
//  - Health: per shard a ShardHealth state machine fed by a background
//    probe thread (liveness + identity + load signals) and by
//    per-request outcomes. DOWN shards are short-circuited (fail fast,
//    keep probing); a recovered probe re-admits the shard as DEGRADED.
//  - Deadlines: every op gets one admission deadline; each dispatch gets
//    min(remaining, shard_timeout_ms) and the REMAINING budget rides the
//    request line as deadline_ms, so a shard's engine sheds work the
//    client already gave up on. No op can hang: every wait is bounded.
//  - One dispatch routine, on the caller's thread: a single shard call
//    and a scatter alike send the line on one pooled connection per
//    shard and wait for every answer in one poll(); the router starts
//    no thread per request.
//  - Retries: transient transport failures (kInternal: refused / reset /
//    EOF) retry in rounds with capped backoff while deadline budget
//    remains; kDeadlineExceeded never retries. Counter
//    serve.shard.retries.
//  - Hedging: with hedge_ms > 0, a shard that has neither answered nor
//    failed after hedge_ms gets a second connection in the same poll
//    set; the first answer wins and the loser's connection is closed,
//    never pooled. Counter serve.shard.hedges.
//  - Partial degradation: item shards that stay unreachable are dropped
//    from the gather — the response carries degraded:true and
//    missing_shards naming them. An unreachable USER shard falls back
//    to the popularity ranking (counter serve.shard.failovers). Only
//    when every shard fails does an op return ok=false.
//  - Shedding: with max_inflight > 0, ops beyond the in-flight bound get
//    an immediate ok=false "overloaded" (the PR-5 admission-control
//    signal, applied fleet-wide); per-shard probe responses surface each
//    worker's own shed counter as an `overloaded` flag in stats.
//  - Coordinated swap: two-phase across the fleet — swap_prepare on
//    every shard (stage + validate, publish nothing), then swap_commit
//    everywhere; any prepare failure aborts the stage on every shard and
//    no worker changes snapshots.
//
// Failpoints (all router-side): shard.dispatch (per dispatch attempt),
// shard.probe (per probe), shard.merge (before the gather merge),
// shard.swap (per prepare RPC).

#ifndef DGNN_SHARD_ROUTER_H_
#define DGNN_SHARD_ROUTER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/engine.h"
#include "serve/snapshot.h"
#include "shard/health.h"
#include "shard/transport.h"
#include "util/status.h"
#include "util/telemetry.h"
#include "util/windowed_stats.h"

namespace dgnn::shard {

struct RouterConfig {
  // Unix socket paths, one per shard; position i must be the worker
  // serving shard index i (Start() verifies against each probe).
  std::vector<std::string> shard_paths;
  int connect_timeout_ms = 500;
  // Per-attempt dispatch budget (each retry/hedge gets at most this).
  int shard_timeout_ms = 1000;
  int probe_timeout_ms = 250;
  int swap_timeout_ms = 10000;
  // Admission deadline for ops that don't carry their own deadline_ms;
  // <= 0 means "none" (internally clamped to an hour so nothing hangs).
  // Capped at serve::kMaxDeadlineMs.
  int64_t default_deadline_ms = 0;
  // Extra attempts after the first on transient transport errors.
  int retries = 2;
  // Send a hedged second attempt to a shard that has neither answered
  // nor failed after this many ms; 0 disables hedging.
  int hedge_ms = 0;
  int probe_interval_ms = 100;
  // Fleet-wide in-flight op bound; ops beyond it are shed. 0 = unbounded.
  int max_inflight = 0;
  HealthConfig health;
};

// What a worker's probe reports about itself (Start() cross-checks the
// fleet: one ring, one catalog, disjoint covering item ranges).
struct ShardIdentity {
  int32_t shard_index = 0;
  int32_t num_shards = 0;  // 0 = worker serves an unsharded snapshot
  int64_t item_begin = 0;
  int64_t item_end = 0;
  int64_t num_users = 0;
  int64_t num_items = 0;
  int64_t dim = 0;
  uint64_t hash_seed = 0;
};

struct RouterShardStatus {
  int shard = 0;
  std::string path;
  HealthState state = HealthState::kHealthy;
  double failure_ewma = 0.0;
  bool overloaded = false;
  int64_t snapshot_version = 0;
  int64_t queue_depth = 0;
  int64_t requests = 0;
  int64_t failures = 0;
};

struct RouterCounters {
  int64_t requests = 0;
  int64_t retries = 0;
  int64_t hedges = 0;
  int64_t failovers = 0;
  int64_t degraded_responses = 0;
  int64_t shed = 0;
};

class Router {
 public:
  explicit Router(RouterConfig config);
  ~Router();
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  // Probes every shard (with retries inside connect_timeout budgets),
  // verifies the fleet agrees on one manifest (ring seed, catalog
  // shape, shard count, canonical item ranges), builds the ring, and
  // starts the background probe thread. The router refuses to start
  // over an inconsistent fleet.
  util::Status Start();

  // BeginDrain + join probes + drop pooled connections. Idempotent.
  void Stop();

  // Client ops; deadline_ms: >0 explicit, 0 = config default, <0 = none.
  // Responses reuse serve::Response (ok/error/items/score/degraded/
  // snapshot_version/trace_id) plus missing_shards on partial answers.
  serve::Response TopK(int32_t user, int k, int64_t deadline_ms = 0);
  serve::Response Score(int32_t user, int32_t item,
                        int64_t deadline_ms = 0);
  serve::Response SimilarUsers(int32_t user, int k,
                               int64_t deadline_ms = 0);
  // The client op `request` names (kTopK / kScore / kSimilarUsers), with
  // request.timeout_ms as its deadline_ms; any other type is refused.
  serve::Response Handle(const serve::Request& request);

  // Two-phase coordinated snapshot swap: prepare everywhere, then commit
  // everywhere. Any prepare failure aborts the stage on every shard and
  // returns the failing shard in the error. Returns the fleet's new
  // snapshot version on success.
  util::StatusOr<int64_t> CoordinatedSwap(const std::string& prefix);

  // Stops probing and blocks until every in-flight op has finished — the
  // SIGTERM drain barrier before serve_end. An op leaves nothing running
  // behind it, so nothing else needs waiting for.
  void BeginDrain();

  // {"ok":true,"op":"stats",...}: serve.shard.* counters plus per-shard
  // health, load and rolling 1s/10s/60s windows of router-observed
  // qps/latency.
  std::string StatsJson();

  RouterCounters counters() const;
  std::vector<RouterShardStatus> ShardStatuses();

  int32_t num_shards() const {
    return static_cast<int32_t>(shards_.size());
  }
  int64_t num_users() const { return num_users_; }
  int64_t num_items() const { return num_items_; }
  int64_t dim() const { return dim_; }
  // Owning shard of `user` under the fleet's ring.
  int32_t OwnerShard(int32_t user) const { return ring_.Owner(user); }

 private:
  struct ShardEntry {
    std::string path;
    ShardIdentity id;
    ShardHealth health;
    std::mutex pool_mu;
    std::vector<std::unique_ptr<ShardConn>> pool;
    std::atomic<int64_t> requests{0};
    std::atomic<int64_t> ok{0};
    std::atomic<int64_t> failures{0};
    std::atomic<int64_t> snapshot_version{0};
    std::atomic<int64_t> queue_depth{0};
    std::atomic<bool> overloaded{false};
    int64_t last_shed = 0;  // probe-thread only
    telemetry::Histogram latency;
    std::unique_ptr<telemetry::WindowedStats> windows;
    // Probe-thread window cursors.
    int64_t win_requests = 0;
    int64_t win_ok = 0;
    telemetry::Histogram::Counts win_latency;

    explicit ShardEntry(HealthConfig hc) : health(hc) {}
  };

  // RAII in-flight op accounting (drain barrier + max_inflight).
  class OpGuard;

  TimePoint DeadlineFor(int64_t deadline_ms) const;
  util::StatusOr<std::unique_ptr<ShardConn>> GetConn(ShardEntry& e);
  void PutConn(ShardEntry& e, std::unique_ptr<ShardConn> conn);
  // The one dispatch routine, run on the calling thread: sends `line`
  // byte-identically to each shard in `shards` and waits for all of them
  // in one poll set. A DOWN shard fails fast; each round gives every
  // attempt min(remaining, shard_timeout_ms), hedges a shard still
  // pending after hedge_ms, and shards that failed with kInternal go
  // again next round after a capped backoff. Result i is shard
  // shards[i]'s response line or its error.
  std::vector<util::StatusOr<std::string>> Dispatch(
      const std::vector<int>& shards, const std::string& line,
      TimePoint deadline);
  // One round of Dispatch over out's entries `round`.
  void DispatchRound(const std::vector<int>& shards, const std::string& line,
                     TimePoint deadline, const std::vector<size_t>& round,
                     std::vector<util::StatusOr<std::string>>* out);
  // Dispatch to one shard.
  util::StatusOr<std::string> CallShard(int shard, const std::string& line,
                                        TimePoint deadline);
  util::Status ProbeShardOnce(ShardEntry& e, ShardIdentity* id_out);
  void ProbeLoop();
  void TickWindows();
  // Fetches the user's scoring vector from the owning shard. Returns
  // true + vector/norm on success; false when the answer must degrade:
  // the engine reported the user unknown, or the owner was unreachable
  // (then the owner joins *missing and counts as a failover).
  bool FetchUserVector(int32_t user, TimePoint deadline,
                       std::vector<float>* vec, float* norm,
                       std::vector<int32_t>* missing);
  // Highest snapshot version the probes have seen across the fleet.
  int64_t MaxShardVersion() const;
  // The admission prelude of every client op: trace id, the in-flight
  // guard (shed), the started check and the deadline. Then runs
  // body(deadline, &resp) and counts the answer if it came back
  // degraded.
  template <typename Body>
  serve::Response RunOp(int64_t deadline_ms, Body&& body);
  // Scatters a partial-ranking `line` to every shard and merges the
  // per-shard top-ks into *resp; shards that fail join `missing`.
  void Gather(const std::string& line, int k, TimePoint deadline,
              std::vector<int32_t> missing, serve::Response* resp);

  const RouterConfig config_;
  serve::ShardRing ring_;
  int64_t num_users_ = 0;
  int64_t num_items_ = 0;
  int64_t dim_ = 0;
  std::vector<std::unique_ptr<ShardEntry>> shards_;

  std::atomic<bool> started_{false};
  std::atomic<bool> probe_stop_{false};
  std::thread probe_thread_;
  std::mutex probe_mu_;
  std::condition_variable probe_cv_;
  std::chrono::steady_clock::time_point last_tick_{};

  std::atomic<int64_t> swap_seq_{0};
  std::atomic<int64_t> n_requests_{0};
  std::atomic<int64_t> n_retries_{0};
  std::atomic<int64_t> n_hedges_{0};
  std::atomic<int64_t> n_failovers_{0};
  std::atomic<int64_t> n_degraded_{0};
  std::atomic<int64_t> n_shed_{0};

  // Drain barrier: ops still running.
  mutable std::mutex drain_mu_;
  std::condition_variable drain_cv_;
  int64_t inflight_ops_ = 0;
};

}  // namespace dgnn::shard

#endif  // DGNN_SHARD_ROUTER_H_
