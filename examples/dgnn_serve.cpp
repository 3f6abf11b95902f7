// dgnn_serve — online serving frontend over serve::ServingEngine: loads an
// embedding snapshot (exported with `dgnn_cli --mode=export`) and answers
// newline-delimited JSON requests on stdin with one JSON response line on
// stdout each (NDJSON in, NDJSON out).
//
// The client protocol — topk / score / similar_users / swap / stats /
// quit, response and error shapes — is serve/protocol.h, shared with
// dgnn_router and the shard socket. This binary adds:
//   {"op":"reload"}                        re-read --snapshot from disk
//   {"op":"stats","format":"prom"}         Prometheus text (in "text")
//   {"op":"burst","n":64,"user":3,"k":10}  fire n (<= 256) concurrent topk
//                                          calls
// "burst" is the way to exercise --max-inflight load shedding from a
// scripted client; it reports {"completed":..,"shed":..,"expired":..,
// "failed":..}. Successful scoring responses carry "degraded" (true when
// an unknown/cold user fell back to the popularity ranking) and
// "snapshot_version" (bumps on every hot swap — in-flight requests finish
// on the snapshot they started with).
//
// SIGHUP requests a reload of --snapshot before the next request is
// served (the conventional "re-read your config" signal); the scripted
// equivalent is the "reload" op. A failed reload/swap keeps the engine on
// its current snapshot and reports the error in-band.
//
// SIGTERM/SIGINT drain gracefully: the blocking stdin read is
// interrupted, in-flight requests finish (each Handle call runs its
// request to completion on the calling thread), serve_end is emitted
// with reason=signal, metrics/trace/run-log flush, and the process
// exits 0.
//
// Flags: --snapshot=F (required), --threads=N, --social-alpha=A,
// --max-inflight=N, --deadline-ms=T, --metrics-out=F, --trace-out=F,
// --run-log=F.
//
// Quantized snapshots (int8/fp16 embedding sections) load transparently.
// When the snapshot carries an IVF index, --nprobe=N probes the top-N
// coarse lists per topk request (sublinear candidate generation) with an
// fp32 exact rerank of the top --rerank survivors (0 = max(4k, 64));
// --nprobe=0 (default) keeps the exact brute-force scan. See README
// "Quantization & retrieval index".
//
// Live observability (README "Live observability"): --stats-out=F
// appends a timestamped stats snapshot (counters + rolling 1s/10s/60s
// windows + SLO burn) as crash-safe JSONL every --stats-every-s seconds
// (default 10); SIGUSR1 forces a dump immediately.
// --metrics-flush-every-s=S periodically rewrites --metrics-out so a
// SIGKILL'd server still leaves recent metrics. --request-log=F streams
// sampled per-request stage traces (NDJSON; sampling controlled by
// --trace-sample-rate, default 0.01, deterministic by trace id).
// --slo-p99-ms / --slo-availability set the SLO thresholds behind the
// burn counters in the stats snapshot. Render any of these offline with
// `dgnn_inspect stats|watch`.
//
// --replay-trace=F [--workers=N] switches to batch mode: instead of
// serving stdin, replay a recorded request trace (serve/trace.h)
// open-loop against the loaded snapshot, print one JSON summary line
// (coordinated-omission-safe latency; see serve/replay.h), and exit.
//
// Sharded serving (README "Sharded serving"): --listen=SOCK additionally
// serves the shard worker protocol (shard/shard_service.h: probe,
// user_vector, topk_partial, similar_partial, score_item, two-phase
// swap_prepare/commit/abort) on a Unix socket for dgnn_router; the same
// ops also work on stdin. A sharded snapshot slice
// ("snap.shard<i>of<N>", from `dgnn_cli --mode=export --shards=N`) loads
// like any other snapshot. The SIGTERM drain aborts any
// prepared-but-uncommitted two-phase swap before serve_end.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "serve/engine.h"
#include "serve/observe.h"
#include "serve/protocol.h"
#include "serve/snapshot.h"
#include "shard/shard_service.h"
#include "shard/transport.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/run_log.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

namespace {

using namespace dgnn;

volatile std::sig_atomic_t g_reload_requested = 0;
volatile std::sig_atomic_t g_dump_requested = 0;

void OnSighup(int) { g_reload_requested = 1; }
void OnSigusr1(int) { g_dump_requested = 1; }

// Background exposition: appends a timestamped stats snapshot to
// --stats-out every stats_every_s seconds (SIGUSR1 forces one now) and
// rewrites --metrics-out every metrics_flush_every_s seconds, so a
// SIGKILL'd server still leaves recent state on disk. The thread wakes
// every 200 ms to notice signals promptly without busy-waiting.
class ExpositionLoop {
 public:
  ExpositionLoop(serve::ServingEngine& engine,
                 serve::observe::JsonlAppender* stats_out,
                 double stats_every_s, const std::string& metrics_out,
                 double metrics_flush_every_s)
      : engine_(engine),
        stats_out_(stats_out),
        stats_every_s_(stats_every_s),
        metrics_out_(metrics_out),
        metrics_flush_every_s_(metrics_flush_every_s) {}

  void Start() {
    const bool want_stats = stats_out_ != nullptr && stats_out_->active();
    const bool want_metrics =
        !metrics_out_.empty() && metrics_flush_every_s_ > 0;
    if (!want_stats && !want_metrics) return;
    thread_ = std::thread([this] { Run(); });
  }

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  void AppendStatsNow() {
    if (stats_out_ == nullptr || !stats_out_->active()) return;
    util::JsonObject o;
    o.Set("ts_us", telemetry::TraceNowMicros());
    serve::observe::AppendStatsFields(engine_, &o);
    stats_out_->Append(o.Build());
  }

 private:
  void Run() {
    using Clock = std::chrono::steady_clock;
    auto last_stats = Clock::now();
    auto last_metrics = last_stats;
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      cv_.wait_for(lock, std::chrono::milliseconds(200),
                   [this] { return stop_; });
      if (stop_) break;
      lock.unlock();
      const auto now = Clock::now();
      const bool dump = g_dump_requested != 0;
      if (dump) g_dump_requested = 0;
      if (dump || (stats_every_s_ > 0 &&
                   std::chrono::duration<double>(now - last_stats).count() >=
                       stats_every_s_)) {
        AppendStatsNow();
        last_stats = now;
      }
      if (!metrics_out_.empty() && metrics_flush_every_s_ > 0 &&
          (dump ||
           std::chrono::duration<double>(now - last_metrics).count() >=
               metrics_flush_every_s_)) {
        util::Status st = telemetry::WriteMetricsJson(metrics_out_);
        if (!st.ok()) {
          std::fprintf(stderr, "metrics flush failed: %s\n",
                       st.ToString().c_str());
        }
        last_metrics = now;
      }
      lock.lock();
    }
  }

  serve::ServingEngine& engine_;
  serve::observe::JsonlAppender* stats_out_;
  const double stats_every_s_;
  const std::string metrics_out_;
  const double metrics_flush_every_s_;
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

void LogSwapEvent(const char* trigger, const std::string& path,
                  int64_t version, const util::Status& status) {
  if (!runlog::Active()) return;
  util::JsonObject o;
  o.Set("trigger", trigger)
      .Set("path", path)
      .Set("snapshot_version", version)
      .Set("ok", status.ok());
  if (!status.ok()) o.Set("error", status.ToString());
  runlog::Emit("snapshot_swap", o);
}

// The engine behind the client protocol, plus this binary's own ops:
// the shard ops (through the ShardService the socket also uses),
// reload, burst and Prometheus stats.
class ServeBackend : public serve::Backend {
 public:
  ServeBackend(serve::ServingEngine& engine, shard::ShardService& service,
               std::string snapshot_path)
      : engine_(engine),
        service_(service),
        snapshot_path_(std::move(snapshot_path)) {}

  serve::Response Handle(const serve::Request& request) override {
    return engine_.Handle(request);
  }
  util::StatusOr<int64_t> Swap(const std::string& path) override {
    return Load("swap", path);
  }
  std::string Stats() override { return service_.Stats(); }

  bool HandleOp(const util::JsonValue& req, const std::string& op,
                std::string* out) override {
    // Every request line passes here first, so a SIGHUP reload lands
    // before the next request is served.
    if (g_reload_requested) {
      g_reload_requested = 0;
      auto reloaded = Load("SIGHUP", snapshot_path_);
      if (!reloaded.ok()) {
        std::fprintf(stderr, "reload failed (still serving previous "
                             "snapshot): %s\n",
                     reloaded.status().ToString().c_str());
      }
    }
    if (service_.HandleShardOp(req, op, out)) return true;
    if (op == "reload") {
      *out = serve::SwapLine(op, Load("reload", snapshot_path_));
      return true;
    }
    if (op == "burst") {
      *out = serve::RunBurst(*this, req);
      return true;
    }
    const std::string format = req.StringOr("format", "json");
    if (op != "stats" || format == "json") return false;
    // The NDJSON protocol cannot carry raw multi-line text, so the
    // Prometheus exposition rides in a single-line response.
    if (format != "prom") {
      *out = serve::ErrorLine("unknown stats format '" + format + "'");
      return true;
    }
    auto prom = serve::observe::PromTextFromStatsJson(
        serve::observe::StatsJson(engine_));
    if (!prom.ok()) {
      *out = serve::ErrorLine(prom.status().ToString());
      return true;
    }
    util::JsonObject o;
    o.Set("ok", true).Set("op", op).Set("format", format).Set("text",
                                                              prom.value());
    *out = o.Build();
    return true;
  }

 private:
  util::StatusOr<int64_t> Load(const char* trigger, const std::string& path) {
    util::Status loaded = engine_.Load(path);
    LogSwapEvent(trigger, path, engine_.swap_count(), loaded);
    if (!loaded.ok()) return loaded;
    return engine_.swap_count();
  }

  serve::ServingEngine& engine_;
  shard::ShardService& service_;
  const std::string snapshot_path_;
};

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const std::string snapshot_path = flags.GetString("snapshot", "");
  if (snapshot_path.empty()) {
    std::fprintf(stderr,
                 "usage: dgnn_serve --snapshot=FILE [--threads=N] "
                 "[--social-alpha=A] [--max-inflight=N] "
                 "[--deadline-ms=T] [--metrics-out=F] "
                 "[--metrics-flush-every-s=S] [--trace-out=F] "
                 "[--run-log=F] [--stats-out=F] [--stats-every-s=S] "
                 "[--request-log=F] [--trace-sample-rate=R] "
                 "[--slo-p99-ms=T] [--slo-availability=A] [--listen=SOCK]\n"
                 "reads NDJSON requests on stdin; SIGHUP re-reads the "
                 "snapshot file; SIGUSR1 dumps stats/metrics now; "
                 "SIGTERM/SIGINT drain and exit 0\n");
    return 2;
  }
  if (flags.Has("threads")) {
    const int threads = static_cast<int>(flags.GetInt("threads", 0));
    if (threads < 1) {
      std::fprintf(stderr, "--threads must be >= 1\n");
      return 2;
    }
    util::SetNumThreads(threads);
  }
  const std::string metrics_out = flags.GetString("metrics-out", "");
  const std::string trace_out = flags.GetString("trace-out", "");
  if (!metrics_out.empty() || !trace_out.empty()) {
    telemetry::SetEnabled(true);
  }
  const std::string run_log = flags.GetString("run-log", "");
  if (!run_log.empty()) {
    util::Status s = runlog::Open(run_log);
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  serve::EngineConfig config;
  config.social_alpha =
      static_cast<float>(flags.GetDouble("social-alpha", 0.0));
  config.max_inflight = static_cast<int>(flags.GetInt("max-inflight", 0));
  config.default_deadline_ms = flags.GetInt("deadline-ms", 0);
  // The windowed sampler always runs in server mode: a long-lived server
  // is exactly what rolling windows are for, and a 1 Hz tick is
  // negligible next to any request.
  config.sampler_period_ms = 1000;
  config.trace_sample_rate = flags.GetDouble("trace-sample-rate", 0.01);
  config.slo_p99_ms = flags.GetDouble("slo-p99-ms", 0.0);
  config.slo_availability = flags.GetDouble("slo-availability", 0.0);
  // --nprobe=N probes the top-N IVF lists per TopK request when the
  // snapshot carries an index (0 = brute-force scan, the exact default);
  // --rerank=R sizes the fp32 exact-rerank shortlist (0 = max(4k, 64)).
  config.nprobe = static_cast<int>(flags.GetInt("nprobe", 0));
  config.rerank = static_cast<int>(flags.GetInt("rerank", 0));
  serve::ServingEngine engine(config);

  serve::observe::JsonlAppender request_log;
  const std::string request_log_path = flags.GetString("request-log", "");
  if (!request_log_path.empty()) {
    util::Status s = request_log.Open(request_log_path);
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
    engine.SetTraceSink([&request_log](const serve::RequestTrace& t) {
      request_log.Append(serve::observe::RequestTraceJson(t));
    });
  }
  serve::observe::JsonlAppender stats_out;
  const std::string stats_out_path = flags.GetString("stats-out", "");
  if (!stats_out_path.empty()) {
    util::Status s = stats_out.Open(stats_out_path);
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  util::Status loaded = engine.Load(snapshot_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.ToString().c_str());
    return 1;
  }
  shard::ShardService service(engine, snapshot_path);
  const auto snap = engine.snapshot();
  if (!snap->shard.empty()) {
    std::fprintf(stderr,
                 "dgnn_serve: shard %d/%d — items [%lld, %lld), %lld owned "
                 "users\n",
                 snap->shard.shard_index, snap->shard.num_shards,
                 (long long)snap->shard.item_begin,
                 (long long)snap->shard.item_end,
                 (long long)snap->shard.num_owned_users);
  }
  const char* storage = snap->has_quant_items()
                            ? quant::CodecName(snap->quant_items.codec)
                            : "fp32";
  std::string retrieval =
      snap->ivf.empty()
          ? "brute-force"
          : (config.nprobe > 0
                 ? "ivf nlist=" + std::to_string(snap->ivf.nlist) +
                       " nprobe=" + std::to_string(config.nprobe)
                 : "brute-force (ivf present, --nprobe=0)");
  std::fprintf(stderr,
               "dgnn_serve: serving '%s' (%s) — %lld users, %lld items, "
               "dim %lld, %s embeddings, %s top-k, ~%.1f MB resident\n",
               snap->meta.model_name.c_str(), snapshot_path.c_str(),
               (long long)snap->meta.num_users,
               (long long)snap->meta.num_items,
               (long long)snap->meta.embedding_dim, storage,
               retrieval.c_str(),
               static_cast<double>(serve::SnapshotResidentBytes(*snap)) /
                   (1024.0 * 1024.0));
  if (runlog::Active()) {
    util::JsonObject o;
    o.Set("snapshot", snapshot_path)
        .Set("model", snap->meta.model_name)
        .Set("dataset", snap->meta.dataset_name)
        .Set("num_users", snap->meta.num_users)
        .Set("num_items", snap->meta.num_items)
        .Set("dim", snap->meta.embedding_dim)
        .Set("social_alpha", static_cast<double>(config.social_alpha))
        .Set("max_inflight", static_cast<int64_t>(config.max_inflight))
        .Set("deadline_ms", config.default_deadline_ms)
        .Set("storage", storage)
        .Set("nprobe", static_cast<int64_t>(config.nprobe))
        .Set("rerank", static_cast<int64_t>(config.rerank));
    runlog::Emit("serve_start", o);
  }
  ServeBackend backend(engine, service, snapshot_path);
  // --replay-trace: instead of serving stdin, replay a recorded request
  // trace (serve/trace.h) open-loop against the loaded snapshot and
  // print one JSON result line — the production-binary counterpart of
  // `bench_serve_load --replay-trace`, for replaying a captured schedule
  // against a real exported snapshot.
  if (flags.Has("replay-trace")) {
    auto replayed = serve::ReplayTraceFile(
        backend, flags.GetString("replay-trace", ""),
        static_cast<int>(flags.GetInt("workers", 4)));
    if (!replayed.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   replayed.status().ToString().c_str());
      return 1;
    }
    std::cout << serve::ReplaySummary(replayed.value()).Build() << std::endl;
    return 0;
  }

  std::signal(SIGHUP, OnSighup);
  // SIGUSR1 asks the exposition loop for an immediate stats/metrics dump
  // (SA_RESTART so it does NOT interrupt the blocking stdin read — the
  // dump happens on the background thread, not the request loop).
  struct sigaction dump_action;
  std::memset(&dump_action, 0, sizeof(dump_action));
  dump_action.sa_handler = OnSigusr1;
  sigemptyset(&dump_action.sa_mask);
  dump_action.sa_flags = SA_RESTART;
  sigaction(SIGUSR1, &dump_action, nullptr);

  ExpositionLoop exposition(
      engine, &stats_out, flags.GetDouble("stats-every-s", 10.0),
      metrics_out, flags.GetDouble("metrics-flush-every-s", 0.0));
  exposition.Start();

  // --listen=PATH: additionally serve the shard protocol on a Unix
  // socket (the dgnn_router transport). stdin stays live — the socket is
  // a second front door over the same engine and ShardService.
  shard::SocketServer socket_server;
  const std::string listen_path = flags.GetString("listen", "");
  if (!listen_path.empty()) {
    util::Status s = socket_server.Start(
        listen_path,
        [&service](const std::string& l) { return service.HandleLine(l); });
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "dgnn_serve: listening on %s\n",
                 listen_path.c_str());
  }

  const char* exit_reason = serve::ServeLines(backend, std::cin, std::cout);

  // Drain path: Handle calls are synchronous, so reaching this point means
  // every admitted request has completed. Flush every observability
  // output FIRST — metrics, chrome trace, the final stats snapshot and
  // the request log — and only then emit serve_end: if any flush here
  // crashes or is cut short, the run log's missing serve_end says so,
  // instead of a clean-looking serve_end followed by silently lost
  // metrics (the old atexit-ordering hazard).
  // Stop the socket front door first (in-flight socket requests finish
  // and get their responses), then abort any prepared-but-uncommitted
  // two-phase swap: a drain mid-swap must leave the fleet on the old
  // snapshot, not orphan a staged one.
  socket_server.Stop();
  if (service.AbortStagedSwap() && runlog::Active()) {
    util::JsonObject o;
    o.Set("trigger", "drain").Set("aborted", true);
    runlog::Emit("swap_abort", o);
  }
  exposition.Stop();
  exposition.AppendStatsNow();  // final snapshot with the closing totals
  stats_out.Close();
  request_log.Close();
  int exit_code = 0;
  if (!metrics_out.empty()) {
    util::Status st = telemetry::WriteMetricsJson(metrics_out);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      exit_code = 1;
    }
  }
  if (!trace_out.empty()) {
    util::Status st = telemetry::WriteTraceJson(trace_out);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      exit_code = 1;
    }
  }
  const serve::EngineStats s = engine.stats();
  if (runlog::Active()) {
    util::JsonObject o;
    o.Set("reason", exit_reason)
        .Set("requests", s.requests)
        .Set("snapshot_swaps", s.snapshot_swaps)
        .Set("degraded_requests", s.degraded_requests)
        .Set("shed_requests", s.shed_requests)
        .Set("expired_requests", s.expired_requests)
        .Set("failed_requests", s.failed_requests);
    runlog::Emit("serve_end", o);
    runlog::Close();
  }
  std::fprintf(stderr,
               "dgnn_serve: %lld requests, %lld swaps, %lld degraded, "
               "%lld shed, %lld expired (%s)\n",
               (long long)s.requests, (long long)s.snapshot_swaps,
               (long long)s.degraded_requests, (long long)s.shed_requests,
               (long long)s.expired_requests, exit_reason);
  return exit_code;
}
