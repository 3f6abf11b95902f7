// bench_serve_load — open-loop load generator for the online serving
// engine (src/serve/engine.h).
//
// Requests arrive on a schedule that does not care how fast the engine
// answers (--arrival=poisson|burst|diurnal, poisson by default). A trace
// of (scheduled arrival, request) records is generated (or replayed from
// a file), dispatched by a fixed worker pool, and every latency is
// measured from the SCHEDULED arrival — queueing delay counts, so a
// stalled server cannot hide its stall the way a closed loop's paused
// clients would (coordinated omission). See serve/trace.h and
// serve/replay.h. These are the numbers published to
// bench/trajectory/BENCH_serve.json and gated by ci/check_bench.sh. Each
// point also reports engine-side stage attribution (mean queue/recal/
// compute/rank/reply from the serve.stage.* histograms) and the distinct
// trace-id count, which must equal requests when per-request tracing is
// sound.
//
// Setup: a synthetic dataset + model is built in-process,
// exported through the real snapshot writer, and loaded back through the
// real reader — so the measured path is exactly what dgnn_serve runs.
// The mix is mostly TopK with some Score / SimilarUsers, plus a slice of
// unknown-user (degraded) traffic.
//
// Flags:
//   --preset=tiny|ciao|epinions|yelp   dataset scale (default tiny)
//   --dim=16 --k=10                    embedding dim / top-k size
//   --social-alpha=0                   serve-time social recalibration
//   --hot-fraction=0.8                 share of traffic on 1/8 of users
//   --max-inflight=0 --deadline-ms=0   engine overload / deadline config
//   quantization & retrieval (README "Quantization & retrieval index"):
//     --quant=none|int8|fp16           embedding storage in the snapshot
//     --index[=1] --clusters=N         attach an IVF index at export
//     --nprobe=N --rerank=R            engine probe/rerank config
//     --mix=default|topk               topk pins the trace to known-user
//                                      TopK only (retrieval-path p99)
//     --recall-users=256               sample size for recall@k vs the
//                                      fp32 exact ranking (0 disables)
//     --recall-floor=X                 exit nonzero if recall@k < X
//     --max-rss-mb=N                   fail fast if the loaded snapshot's
//                                      resident footprint exceeds N MB
//   --arrival=poisson|burst|diurnal    arrival process (default poisson)
//   --qps=500,1000                     target-rate sweep (default 500)
//   --requests=200                     requests per sweep point
//   --workers=4                        dispatch threads
//   --trace-seed=1                     schedule seed
//   --record-trace=F                   write the trace (single-rate only)
//   --replay-trace=F                   replay a recorded trace instead
//   --bench-json=F                     machine-readable results
//                                      (schema_version 2, validated by
//                                      `dgnn_inspect bench`)
//   --metrics-out / --trace-out / --run-log   (see bench_common.h)

#include <cstdio>
#include <cstdlib>
#include <fcntl.h>
#include <string>
#include <sys/stat.h>
#include <unistd.h>
#include <vector>

#include "bench_common.h"
#include "core/model_zoo.h"
#include "data/synthetic.h"
#include "graph/hetero_graph.h"
#include "serve/engine.h"
#include "serve/replay.h"
#include "serve/snapshot.h"
#include "serve/trace.h"
#include "train/recommender.h"
#include "util/json.h"
#include "util/table.h"

namespace {

using namespace dgnn;

// Unique per-process temp path: concurrent bench invocations (or a
// previous crashed run's leftover file) must not collide on a fixed
// name. mkstemp creates the file exclusively; we keep the name and let
// the snapshot writer atomically replace it. The path is unlinked at
// process exit (atexit) so early-error returns don't strand the file —
// main() still removes it eagerly once the engine has loaded.
std::string& TempSnapshotSlot() {
  static std::string path;
  return path;
}

void RemoveTempSnapshot() {
  const std::string& path = TempSnapshotSlot();
  if (!path.empty()) std::remove(path.c_str());
}

std::string TempSnapshotPath() {
  const char* tmpdir = std::getenv("TMPDIR");
  std::string dir = (tmpdir != nullptr && *tmpdir != '\0') ? tmpdir : "/tmp";
  std::string tmpl = dir + "/dgnn_bench_serve_snapshot.XXXXXX";
  int fd = ::mkstemp(tmpl.data());
  if (fd < 0) {
    // mkstemp failing (exotic TMPDIR) falls back to pid+counter names,
    // still created exclusively so a concurrent process can never be
    // handed the same file.
    for (int attempt = 0; attempt < 64 && fd < 0; ++attempt) {
      tmpl = dir + "/dgnn_bench_serve_snapshot." +
             std::to_string(static_cast<long long>(::getpid())) + "." +
             std::to_string(attempt) + ".bin";
      fd = ::open(tmpl.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0600);
    }
    if (fd < 0) {
      std::fprintf(stderr, "cannot create temp snapshot under %s\n",
                   dir.c_str());
      std::exit(2);
    }
  }
  ::close(fd);
  TempSnapshotSlot() = tmpl;
  std::atexit(RemoveTempSnapshot);
  return tmpl;
}

// Per-stage mean latencies for one open-loop point, read from the
// serve.stage.* registry histograms (telemetry::Reset() runs before each
// point, so the totals are that point's alone).
struct StageMeans {
  double queue_ms = 0, recal_ms = 0, compute_ms = 0, rank_ms = 0,
         reply_ms = 0, e2e_ms = 0;
};

double HistMeanMs(const char* name) {
  const telemetry::Histogram::Counts c =
      telemetry::GetHistogram(name)->SnapshotCounts();
  return c.count > 0 ? static_cast<double>(c.sum_nanos) / 1e6 /
                           static_cast<double>(c.count)
                     : 0.0;
}

StageMeans ReadStageMeans() {
  StageMeans m;
  m.queue_ms = HistMeanMs("serve.stage.queue_seconds");
  m.recal_ms = HistMeanMs("serve.stage.recal_seconds");
  m.compute_ms = HistMeanMs("serve.stage.compute_seconds");
  m.rank_ms = HistMeanMs("serve.stage.rank_seconds");
  m.reply_ms = HistMeanMs("serve.stage.reply_seconds");
  m.e2e_ms = HistMeanMs("serve.e2e_seconds");
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  bench::SetupTelemetryFromFlags(flags);
  // The serve.stage.* histograms drive the stage attribution, so
  // telemetry is always on here (unlike the training benches, where it
  // is opt-in).
  telemetry::SetEnabled(true);
  if (flags.Has("threads")) {
    util::SetNumThreads(
        static_cast<int>(flags.GetInt("threads", util::NumThreads())));
  }

  auto config =
      data::SyntheticConfig::Preset(flags.GetString("preset", "tiny"));
  data::Dataset dataset = data::GenerateSynthetic(config);
  graph::HeteroGraph graph(dataset);
  core::ZooConfig zoo;
  zoo.embedding_dim = flags.GetInt("dim", 16);
  auto model = core::CreateModelByName("BPR-MF", dataset, graph, zoo);
  train::Recommender recommender(*model, dataset);

  const int k = static_cast<int>(flags.GetInt("k", 10));
  const double hot_fraction = flags.GetDouble("hot-fraction", 0.8);
  const std::string bench_json = flags.GetString("bench-json", "");

  serve::EngineConfig engine_config;
  engine_config.social_alpha =
      static_cast<float>(flags.GetDouble("social-alpha", 0.0));
  engine_config.max_inflight =
      static_cast<int>(flags.GetInt("max-inflight", 0));
  engine_config.default_deadline_ms = flags.GetInt("deadline-ms", 0);
  engine_config.nprobe = static_cast<int>(flags.GetInt("nprobe", 0));
  engine_config.rerank = static_cast<int>(flags.GetInt("rerank", 0));

  // Export through the real writer and load through the real reader so
  // the benched engine serves exactly what dgnn_serve would.
  const std::string snapshot_path = TempSnapshotPath();
  serve::Snapshot snapshot = serve::BuildSnapshot(
      recommender, dataset, "BPR-MF", "bench_serve_load");

  // recall@k ground truth: exact fp32 top-k for a stratified user sample,
  // computed from the snapshot BEFORE any quantization/indexing so it is
  // the full-precision exact ranking the approximate path is judged
  // against. Only meaningful when the serving path is approximate
  // (quantized storage or IVF probing) and social_alpha is 0 (the engine
  // then scores with exactly the raw user row used here).
  const std::string quant_name = flags.GetString("quant", "none");
  const bool build_index = flags.GetBool("index", false);
  const bool approx_path =
      quant_name != "none" || (build_index && engine_config.nprobe > 0);
  // Stamped into the --bench-json header so committed trajectory points
  // are self-describing (an IVF point and its brute-force baseline differ
  // only there).
  serve::BenchHeader header;
  header.bench = "bench_serve_load";
  header.quant = quant_name;
  header.index = build_index;
  header.nprobe = engine_config.nprobe;
  header.rerank = engine_config.rerank;
  const int recall_users =
      static_cast<int>(flags.GetInt("recall-users", 256));
  std::vector<int32_t> recall_user_ids;
  std::vector<std::vector<int32_t>> recall_baseline;
  if (approx_path && recall_users > 0 &&
      engine_config.social_alpha == 0.0f) {
    const int n = std::min<int>(recall_users, dataset.num_users);
    for (int i = 0; i < n; ++i) {
      const int32_t u = static_cast<int32_t>(
          static_cast<int64_t>(i) * dataset.num_users / n);
      if (!recall_user_ids.empty() && recall_user_ids.back() == u) continue;
      recall_user_ids.push_back(u);
    }
    recall_baseline.reserve(recall_user_ids.size());
    for (int32_t u : recall_user_ids) {
      std::vector<int32_t> ids;
      for (const serve::ScoredItem& s : serve::TopKUnseenItems(
               snapshot.users.row(u), snapshot.items,
               snapshot.seen[static_cast<size_t>(u)], k)) {
        ids.push_back(s.item);
      }
      std::sort(ids.begin(), ids.end());
      recall_baseline.push_back(std::move(ids));
    }
  }

  if (build_index) {
    index::IvfConfig ivf;
    ivf.nlist = static_cast<int32_t>(flags.GetInt("clusters", 0));
    util::Status built = serve::BuildSnapshotIndex(&snapshot, ivf);
    if (!built.ok()) {
      std::fprintf(stderr, "index build failed: %s\n",
                   built.ToString().c_str());
      return 1;
    }
  }
  if (quant_name != "none") {
    auto codec = quant::ParseCodec(quant_name);
    if (!codec.ok()) {
      std::fprintf(stderr, "%s\n", codec.status().ToString().c_str());
      return 2;
    }
    util::Status quantized =
        serve::QuantizeSnapshot(&snapshot, codec.value());
    if (!quantized.ok()) {
      std::fprintf(stderr, "quantize failed: %s\n",
                   quantized.ToString().c_str());
      return 1;
    }
  }

  util::Status written = serve::WriteSnapshot(snapshot, snapshot_path);
  if (!written.ok()) {
    std::fprintf(stderr, "snapshot write failed: %s\n",
                 written.ToString().c_str());
    std::remove(snapshot_path.c_str());
    return 1;
  }
  int64_t snapshot_bytes = 0;
  {
    struct stat st;
    if (::stat(snapshot_path.c_str(), &st) == 0) snapshot_bytes = st.st_size;
  }
  // Release the in-memory export copy before loading: the engine should
  // be measured against its own resident footprint, not the exporter's.
  snapshot = serve::Snapshot();

  serve::ServingEngine engine(engine_config);
  util::Status loaded = engine.Load(snapshot_path);
  std::remove(snapshot_path.c_str());
  if (!loaded.ok()) {
    std::fprintf(stderr, "snapshot load failed: %s\n",
                 loaded.ToString().c_str());
    return 1;
  }

  // --max-rss-mb: fail fast, BEFORE any load is offered, when the loaded
  // snapshot's resident footprint blows the stated memory budget — a
  // serving fleet admission check, not a soft warning.
  const int64_t resident_bytes =
      serve::SnapshotResidentBytes(*engine.snapshot());
  const double max_rss_mb = flags.GetDouble("max-rss-mb", 0.0);
  if (max_rss_mb > 0 &&
      static_cast<double>(resident_bytes) > max_rss_mb * 1024.0 * 1024.0) {
    std::fprintf(stderr,
                 "error: snapshot resident footprint %.1f MB exceeds "
                 "--max-rss-mb=%.1f MB budget (quantize the snapshot, "
                 "shrink the preset, or raise the budget)\n",
                 static_cast<double>(resident_bytes) / (1024.0 * 1024.0),
                 max_rss_mb);
    return 3;
  }
  std::fprintf(stderr,
               "[bench] snapshot: %.1f MB on disk, ~%.1f MB resident\n",
               static_cast<double>(snapshot_bytes) / (1024.0 * 1024.0),
               static_cast<double>(resident_bytes) / (1024.0 * 1024.0));

  // Measured recall@k of the engine's (possibly approximate) TopK against
  // the fp32 exact baseline.
  double recall_at_k = -1.0;
  if (!recall_user_ids.empty()) {
    double total = 0.0;
    for (size_t i = 0; i < recall_user_ids.size(); ++i) {
      serve::Request req;
      req.type = serve::Request::Type::kTopK;
      req.user = recall_user_ids[i];
      req.k = k;
      const serve::Response resp = engine.Handle(req);
      if (!resp.ok) {
        std::fprintf(stderr, "recall probe failed: %s\n",
                     resp.error.c_str());
        return 1;
      }
      const std::vector<int32_t>& truth = recall_baseline[i];
      int hits = 0;
      for (const serve::ScoredItem& s : resp.items) {
        if (std::binary_search(truth.begin(), truth.end(), s.item)) ++hits;
      }
      total += truth.empty()
                   ? 1.0
                   : static_cast<double>(hits) /
                         static_cast<double>(truth.size());
    }
    recall_at_k = total / static_cast<double>(recall_user_ids.size());
    std::fprintf(stderr, "[bench] recall@%d vs fp32 exact: %.4f (%zu "
                 "users)\n",
                 k, recall_at_k, recall_user_ids.size());
    const double floor = flags.GetDouble("recall-floor", -1.0);
    if (floor >= 0.0 && recall_at_k < floor) {
      std::fprintf(stderr,
                   "error: recall@%d %.4f below --recall-floor=%.4f\n", k,
                   recall_at_k, floor);
      return 4;
    }
  }

  serve::ReplayConfig replay_config;
  replay_config.workers = static_cast<int>(flags.GetInt("workers", 4));
  const std::string replay_path = flags.GetString("replay-trace", "");
  const std::string record_path = flags.GetString("record-trace", "");

  serve::ScheduleConfig schedule;
  auto arrival =
      serve::ParseArrivalProcess(flags.GetString("arrival", "poisson"));
  if (!arrival.ok()) {
    std::fprintf(stderr, "%s\n", arrival.status().ToString().c_str());
    return 2;
  }
  schedule.arrival = arrival.value();
  schedule.num_requests = flags.GetInt("requests", 200);
  schedule.seed = static_cast<uint64_t>(flags.GetInt("trace-seed", 1));
  const std::string mix = flags.GetString("mix", "default");
  if (mix == "topk") {
    schedule.topk_only = true;
  } else if (mix != "default") {
    std::fprintf(stderr, "--mix must be default or topk\n");
    return 2;
  }
  header.mix = mix;

  std::vector<double> qps_sweep;
  for (const std::string& tok :
       util::Split(flags.GetString("qps", "500"), ',')) {
    auto parsed = util::ParseInt(util::Trim(tok));
    if (!parsed.ok() || parsed.value() < 1) {
      std::fprintf(stderr, "bad --qps entry '%s'\n", tok.c_str());
      return 2;
    }
    qps_sweep.push_back(static_cast<double>(parsed.value()));
  }
  if (!record_path.empty() && qps_sweep.size() != 1) {
    std::fprintf(stderr,
                 "--record-trace requires a single --qps value\n");
    return 2;
  }

  std::printf(
      "serving load test (open loop): %s (%d users, %d items, dim "
      "%lld), k=%d, arrival=%s, %lld requests/point, workers=%d, "
      "max_inflight=%d, deadline_ms=%lld\n\n",
      dataset.name.c_str(), dataset.num_users, dataset.num_items,
      (long long)zoo.embedding_dim, k,
      serve::ArrivalProcessName(schedule.arrival),
      (long long)schedule.num_requests, replay_config.workers,
      engine_config.max_inflight,
      (long long)engine_config.default_deadline_ms);

  util::Table table({"target_qps", "requests", "achieved_qps", "p50_ms",
                     "p95_ms", "p99_ms", "shed", "expired", "late",
                     "late_p50_ms", "late_p99_ms", "rss_mb", "snap_mb",
                     "recall"});
  std::vector<util::JsonObject> points;
  std::vector<std::string> stage_lines;
  for (double target : qps_sweep) {
    serve::Trace trace;
    if (!replay_path.empty()) {
      auto read = serve::ReadTrace(replay_path);
      if (!read.ok()) {
        std::fprintf(stderr, "replay-trace: %s\n",
                     read.status().ToString().c_str());
        return 2;
      }
      trace = std::move(read).value();
      // The trace fixes the schedule; report its own offered rate.
      target = 0.0;
    } else {
      schedule.target_qps = target;
      trace = serve::GenerateTrace(schedule, dataset.num_users,
                                   dataset.num_items, k, hot_fraction);
      if (!record_path.empty()) {
        util::Status rec = serve::WriteTrace(trace, record_path);
        if (!rec.ok()) {
          std::fprintf(stderr, "record-trace: %s\n",
                       rec.ToString().c_str());
          return 2;
        }
        std::fprintf(stderr, "[bench] trace recorded to %s\n",
                     record_path.c_str());
      }
    }
    // Fresh telemetry per point so the stage histograms attribute to
    // this point alone.
    telemetry::Reset();
    serve::ReplayResult r =
        serve::ReplayTrace(engine, trace.records, replay_config);
    const StageMeans stages = ReadStageMeans();
    if (target == 0.0) target = r.offered_qps;
    table.AddRow({util::StrFormat("%.0f", target),
                  std::to_string(r.requests),
                  util::StrFormat("%.0f", r.achieved_qps),
                  bench::Fmt4(r.p50_ms), bench::Fmt4(r.p95_ms),
                  bench::Fmt4(r.p99_ms), std::to_string(r.shed),
                  std::to_string(r.expired),
                  std::to_string(r.late_dispatches),
                  bench::Fmt4(r.lateness_ms_p50),
                  bench::Fmt4(r.lateness_ms_p99),
                  util::StrFormat("%.1f", r.peak_rss_bytes / 1e6),
                  util::StrFormat("%.1f", snapshot_bytes / 1e6),
                  recall_at_k >= 0.0
                      ? util::StrFormat("%.4f", recall_at_k)
                      : std::string("-")});
    stage_lines.push_back(util::StrFormat(
        "  qps %-6.0f stage means (ms): queue=%.4f recal=%.4f "
        "compute=%.4f rank=%.4f reply=%.4f | e2e=%.4f "
        "(distinct trace ids: %lld/%lld)",
        target, stages.queue_ms, stages.recal_ms, stages.compute_ms,
        stages.rank_ms, stages.reply_ms, stages.e2e_ms,
        (long long)r.distinct_trace_ids, (long long)r.requests));
    util::JsonObject point = serve::BenchPoint(target, r, snapshot_bytes);
    point.Set("stage_queue_ms_mean", stages.queue_ms)
        .Set("stage_recal_ms_mean", stages.recal_ms)
        .Set("stage_compute_ms_mean", stages.compute_ms)
        .Set("stage_rank_ms_mean", stages.rank_ms)
        .Set("stage_reply_ms_mean", stages.reply_ms)
        .Set("e2e_ms_mean", stages.e2e_ms);
    if (recall_at_k >= 0.0) point.Set("recall_at_k", recall_at_k);
    points.push_back(std::move(point));
    if (!replay_path.empty()) break;  // a file trace is one point
  }
  table.Print();
  std::printf("\nstage attribution (engine-side; queue starts at "
              "admission, so worker dispatch lateness is excluded):\n");
  for (const std::string& line : stage_lines) {
    std::printf("%s\n", line.c_str());
  }
  if (!bench_json.empty()) {
    header.preset = dataset.name;
    header.dim = zoo.embedding_dim;
    header.k = k;
    header.arrival = serve::ArrivalProcessName(schedule.arrival);
    header.workers = replay_config.workers;
    util::Status s = serve::WriteBenchJson(bench_json, header, points);
    if (!s.ok()) {
      std::fprintf(stderr, "bench-json: %s\n", s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "[bench] results written to %s\n",
                 bench_json.c_str());
  }
  return 0;
}
