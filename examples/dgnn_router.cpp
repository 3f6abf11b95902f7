// dgnn_router — fault-tolerant scatter/gather frontend over a fleet of
// dgnn_serve shard workers (shard/router.h). Clients speak the exact
// dgnn_serve NDJSON protocol to the router; the router speaks the shard
// worker protocol (user_vector / topk_partial / similar_partial /
// score_item over Unix sockets) downward and merges per-shard answers
// through the shared ranking tie-break, so a full-fleet topk is
// bit-identical to a single-process scan of the unsharded snapshot.
//
// Start each worker on its slice, then the router over their sockets
// (socket order MUST be shard-index order; the router verifies):
//
//   dgnn_serve --snapshot=snap.shard0of3 --listen=/tmp/s0.sock &
//   dgnn_serve --snapshot=snap.shard1of3 --listen=/tmp/s1.sock &
//   dgnn_serve --snapshot=snap.shard2of3 --listen=/tmp/s2.sock &
//   dgnn_router --shards=/tmp/s0.sock,/tmp/s1.sock,/tmp/s2.sock
//
// Requests on stdin follow the client protocol of serve/protocol.h, the
// one dgnn_serve speaks; here "swap" is the two-phase fleet-wide swap and
// "stats" reports router counters plus per-shard health.
//
// Responses add "missing_shards":[i,...] when a partial answer had to
// drop (or substitute for) a shard's slice; such responses also carry
// degraded:true. A down user shard degrades topk to the popularity
// ranking rather than failing (counter serve.shard.failovers); only
// when EVERY shard is unreachable does an op return ok=false.
//
// Robustness knobs: --retries=N (transient transport errors, capped
// backoff), --hedge-ms=T (a second connection to a shard that has
// neither answered nor failed after T ms; first answer wins),
// --deadline-ms=T (admission deadline, propagated minus elapsed time to
// each shard), --shard-timeout-ms=T (per-attempt budget),
// --max-inflight=N (fleet-wide shedding, "overloaded" like dgnn_serve).
// Health probing: --probe-interval-ms / --probe-timeout-ms drive the
// per-shard healthy/degraded/down state machine shown by "stats".
//
// SIGTERM/SIGINT drain: the blocking stdin read is interrupted; the
// router waits for every in-flight op (an op leaves nothing running
// behind it) before emitting serve_end to --run-log and exiting 0.
//
// --replay-trace=F [--workers=N] [--bench-json=OUT] replays a recorded
// request trace (serve/trace.h) open-loop through the router instead of
// serving stdin — the sharded counterpart of `dgnn_serve
// --replay-trace`, and the harness ci/check_shard.sh and the
// BENCH_serve_shard.json trajectory point drive. Prints one JSON
// summary line; --bench-json additionally writes a schema_version-2
// bench file (bench:"dgnn_router") that `dgnn_inspect bench` validates.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "serve/protocol.h"
#include "shard/router.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/run_log.h"
#include "util/telemetry.h"

namespace {

using namespace dgnn;

// The fleet behind the client protocol; swaps are coordinated and
// logged to the run log.
class RouterBackend : public serve::Backend {
 public:
  explicit RouterBackend(shard::Router& router) : router_(router) {}

  serve::Response Handle(const serve::Request& request) override {
    return router_.Handle(request);
  }
  std::string Stats() override { return router_.StatsJson(); }
  util::StatusOr<int64_t> Swap(const std::string& prefix) override {
    auto version = router_.CoordinatedSwap(prefix);
    if (runlog::Active()) {
      util::JsonObject o;
      o.Set("trigger", "swap").Set("path", prefix).Set("ok", version.ok());
      if (version.ok()) {
        o.Set("snapshot_version", version.value());
      } else {
        o.Set("error", version.status().ToString());
      }
      runlog::Emit("coordinated_swap", o);
    }
    return version;
  }

 private:
  shard::Router& router_;
};

// --bench-json: one open-mode schema_version-2 point in the exact shape
// `dgnn_inspect bench` validates (ValidateBenchPoint), so router runs
// slot into the same trajectory tooling as bench_serve_load results.
int WriteBenchJson(const std::string& path, const std::string& preset,
                   const std::string& arrival, int workers, int64_t dim,
                   int64_t snapshot_bytes, int num_shards,
                   int killed_shards, const serve::ReplayResult& r,
                   const shard::RouterCounters& c) {
  util::JsonObject point;
  point.Set("target_qps", r.offered_qps)
      .Set("offered_qps", r.offered_qps)
      .Set("achieved_qps", r.achieved_qps)
      .Set("requests", r.requests)
      .Set("seconds", r.seconds)
      .Set("p50_ms", r.p50_ms)
      .Set("p95_ms", r.p95_ms)
      .Set("p99_ms", r.p99_ms)
      .Set("max_ms", r.max_ms)
      .Set("mean_ms", r.mean_ms)
      .Set("ok", r.ok)
      .Set("degraded", r.degraded)
      .Set("shed", r.shed)
      .Set("expired", r.expired)
      .Set("failed", r.failed)
      .Set("late_dispatches", r.late_dispatches)
      .Set("max_lateness_ms", r.max_lateness_ms)
      .Set("distinct_trace_ids", r.distinct_trace_ids)
      .Set("peak_rss_bytes", r.peak_rss_bytes)
      .Set("snapshot_bytes", snapshot_bytes)
      .Set("num_shards", static_cast<int64_t>(num_shards))
      .Set("killed_shards", static_cast<int64_t>(killed_shards))
      .Set("shard_retries", c.retries)
      .Set("shard_hedges", c.hedges)
      .Set("shard_failovers", c.failovers)
      .Set("shard_degraded_responses", c.degraded_responses);
  util::JsonObject root;
  root.Set("schema_version", static_cast<int64_t>(2))
      .Set("bench", "dgnn_router")
      .Set("mode", "open")
      .Set("preset", preset)
      .Set("arrival", arrival)
      .Set("workers", static_cast<int64_t>(workers))
      .Set("dim", dim)
      .Set("k", static_cast<int64_t>(10))
      .Set("quant", "none")
      .Set("index", "none")
      .Set("nprobe", static_cast<int64_t>(0))
      .Set("rerank", static_cast<int64_t>(0))
      .SetRaw("points", "[" + point.Build() + "]");
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return 1;
  }
  out << root.Build() << "\n";
  out.close();
  return out.good() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const std::string shards_flag = flags.GetString("shards", "");
  if (shards_flag.empty()) {
    std::fprintf(
        stderr,
        "usage: dgnn_router --shards=SOCK0,SOCK1,... (shard-index order)\n"
        "  [--deadline-ms=T] [--shard-timeout-ms=T] [--connect-timeout-ms=T]\n"
        "  [--retries=N] [--hedge-ms=T] [--max-inflight=N]\n"
        "  [--probe-interval-ms=T] [--probe-timeout-ms=T]\n"
        "  [--swap-timeout-ms=T] [--run-log=F]\n"
        "  [--replay-trace=F [--workers=N] [--bench-json=OUT]\n"
        "   [--preset=NAME] [--arrival=poisson|burst|diurnal]]\n"
        "reads NDJSON requests on stdin (dgnn_serve protocol); "
        "SIGTERM/SIGINT drain in-flight scatter/gathers and exit 0\n");
    return 2;
  }
  shard::RouterConfig config;
  std::string token;
  for (char ch : shards_flag) {
    if (ch == ',') {
      if (!token.empty()) config.shard_paths.push_back(token);
      token.clear();
    } else {
      token += ch;
    }
  }
  if (!token.empty()) config.shard_paths.push_back(token);
  if (config.shard_paths.empty()) {
    std::fprintf(stderr, "--shards lists no socket paths\n");
    return 2;
  }
  config.connect_timeout_ms =
      static_cast<int>(flags.GetInt("connect-timeout-ms", 500));
  config.shard_timeout_ms =
      static_cast<int>(flags.GetInt("shard-timeout-ms", 1000));
  config.probe_timeout_ms =
      static_cast<int>(flags.GetInt("probe-timeout-ms", 250));
  config.swap_timeout_ms =
      static_cast<int>(flags.GetInt("swap-timeout-ms", 10000));
  config.default_deadline_ms = flags.GetInt("deadline-ms", 0);
  config.retries = static_cast<int>(flags.GetInt("retries", 2));
  config.hedge_ms = static_cast<int>(flags.GetInt("hedge-ms", 0));
  config.probe_interval_ms =
      static_cast<int>(flags.GetInt("probe-interval-ms", 100));
  config.max_inflight = static_cast<int>(flags.GetInt("max-inflight", 0));

  const std::string run_log = flags.GetString("run-log", "");
  if (!run_log.empty()) {
    util::Status s = runlog::Open(run_log);
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  shard::Router router(config);
  util::Status started = router.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "error: %s\n", started.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "dgnn_router: fleet of %d shard(s) — %lld users, %lld "
               "items, dim %lld (retries=%d hedge_ms=%d deadline_ms=%lld)\n",
               router.num_shards(), (long long)router.num_users(),
               (long long)router.num_items(), (long long)router.dim(),
               config.retries, config.hedge_ms,
               (long long)config.default_deadline_ms);
  if (runlog::Active()) {
    util::JsonObject o;
    o.Set("num_shards", static_cast<int64_t>(router.num_shards()))
        .Set("num_users", router.num_users())
        .Set("num_items", router.num_items())
        .Set("dim", router.dim())
        .Set("retries", static_cast<int64_t>(config.retries))
        .Set("hedge_ms", static_cast<int64_t>(config.hedge_ms))
        .Set("deadline_ms", config.default_deadline_ms)
        .Set("max_inflight", static_cast<int64_t>(config.max_inflight));
    runlog::Emit("router_start", o);
  }

  RouterBackend backend(router);
  int exit_code = 0;
  const char* exit_reason = "replay";
  if (flags.Has("replay-trace")) {
    const int workers = static_cast<int>(flags.GetInt("workers", 4));
    // Route each trace record through the fleet. Outcomes classify by
    // the identical error contract, so "shed" / "expired" / "degraded"
    // mean the same thing they mean for the single-process replay —
    // except here "degraded" includes answers that lost a shard's slice
    // mid-replay.
    auto replayed = serve::ReplayTraceFile(
        backend, flags.GetString("replay-trace", ""), workers);
    if (!replayed.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   replayed.status().ToString().c_str());
      router.Stop();
      return 1;
    }
    const serve::ReplayResult& r = replayed.value();
    const shard::RouterCounters c = router.counters();
    // Count shards the probe loop currently sees as down (a shard
    // SIGKILLed mid-replay shows up here — the bench point records how
    // many slices the fleet was missing).
    int down = 0;
    for (const auto& st : router.ShardStatuses()) {
      if (st.state == shard::HealthState::kDown) ++down;
    }
    util::JsonObject o = serve::ReplaySummary(r);
    o.Set("num_shards", static_cast<int64_t>(router.num_shards()))
        .Set("down_shards", static_cast<int64_t>(down))
        .Set("shard_retries", c.retries)
        .Set("shard_hedges", c.hedges)
        .Set("shard_failovers", c.failovers)
        .Set("shard_degraded_responses", c.degraded_responses);
    std::cout << o.Build() << std::endl;
    const std::string bench_json = flags.GetString("bench-json", "");
    if (!bench_json.empty()) {
      // Fleet embedding footprint: dim fp32 floats per user and item row
      // plus norms — the same accounting SnapshotResidentBytes uses for
      // the dense sections, summed across the (disjoint) slices.
      const int64_t resident = (router.num_users() + router.num_items()) *
                               (router.dim() + 1) *
                               static_cast<int64_t>(sizeof(float));
      exit_code = WriteBenchJson(
          bench_json, flags.GetString("preset", "custom"),
          flags.GetString("arrival", "poisson"), workers, router.dim(),
          resident, router.num_shards(), down, r, c);
    }
  } else {
    exit_reason = serve::ServeLines(backend, std::cin, std::cout);
  }

  // Drain: wait out every in-flight op before reporting totals —
  // serve_end must describe a finished fleet.
  router.BeginDrain();
  const shard::RouterCounters c = router.counters();
  if (runlog::Active()) {
    util::JsonObject o;
    o.Set("reason", exit_reason)
        .Set("requests", c.requests)
        .Set("retries", c.retries)
        .Set("hedges", c.hedges)
        .Set("failovers", c.failovers)
        .Set("degraded_responses", c.degraded_responses)
        .Set("shed", c.shed);
    runlog::Emit("serve_end", o);
    runlog::Close();
  }
  std::fprintf(stderr,
               "dgnn_router: %lld requests, %lld retries, %lld hedges, "
               "%lld failovers, %lld degraded, %lld shed (%s)\n",
               (long long)c.requests, (long long)c.retries,
               (long long)c.hedges, (long long)c.failovers,
               (long long)c.degraded_responses, (long long)c.shed,
               exit_reason);
  router.Stop();
  return exit_code;
}
