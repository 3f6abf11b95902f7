// serve_ivf: open-loop Poisson traffic against one in-process
// ServingEngine over an int8 + IVF snapshot of a ciao-shaped world.
//
// The engine runs on a worker pool of one thread: each request's probe,
// scan and rerank run on the thread that executes its batch, and
// concurrency comes from micro-batching alone. With a pool as wide as
// the host, every request waited for the slowest of four lanes to wake,
// and the p50 doubled under contention for the CPU (see README.md,
// Bounds). serve_routed keeps the full pool.
//
// Untraced: telemetry off, no sampler, no trace sink, so the engine
// reads no stage clocks. Traced: the same schedule runs once untraced
// (the overhead baseline) and once with telemetry on; per-layer numbers
// come from the engine's existing serve.stage.* histograms and counters.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "result.h"
#include "serve_common.h"
#include "spans.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"
#include "world.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
namespace telemetry = dgnn::telemetry;

// setup_s is the median of kSetupSamples samples, each the mean of
// kSetupsPerSample back-to-back loads (one load takes ~0.1 s).
constexpr int kSetupSamples = 5;
constexpr int kSetupsPerSample = 5;
constexpr int kSoloCalls = 200;
// Stated tolerance of the traced reconciliation: lateness plus the five
// stage means must come within this share of the mean latency (the rest
// is per-slot bookkeeping outside the stages).
constexpr double kReconcileTolerance = 0.2;

serve::EngineConfig Config() {
  serve::EngineConfig c;
  c.nprobe = kIvfNprobe;
  return c;
}

// Shape checks on one answer; failed (injected) answers are not judged.
bool Valid(const Op& op, const serve::Response& r) {
  if (!r.ok) return true;
  const bool unknown = op.kind == OpKind::kUnknown;
  if (r.degraded != unknown) return false;
  if (op.kind == OpKind::kScore) return std::isfinite(r.score);
  if (static_cast<int>(r.items.size()) != kTopK) return false;
  for (size_t i = 1; i < r.items.size(); ++i) {
    if (r.items[i].score > r.items[i - 1].score) return false;
  }
  return true;
}

// Answers one op, retrying injected failures (checks are not timed).
serve::Response HandleForCheck(serve::ServingEngine& engine, const Op& op) {
  serve::Response r;
  for (int attempt = 0; attempt < 8; ++attempt) {
    r = engine.Handle(ToRequest(op));
    if (r.ok) break;
  }
  return r;
}

double Recall(serve::ServingEngine& engine,
              const std::vector<Reference>& truth, Result* result) {
  double hits = 0.0, total = 0.0;
  for (const Reference& t : truth) {
    Op op;
    op.user = static_cast<int32_t>(t.index);
    const serve::Response r = HandleForCheck(engine, op);
    result->Check(r.ok && !r.degraded, "recall sample answered");
    for (const serve::ScoredItem& s : r.items) {
      hits += std::count(t.ids.begin(), t.ids.end(), s.item) > 0 ? 1 : 0;
    }
    total += static_cast<double>(t.ids.size());
  }
  return total > 0 ? hits / total : 0.0;
}

struct Served {
  Phase phase;
  Tally tally;
  LatencySummary lat;
};

Served Serve(serve::ServingEngine& engine, const std::vector<Op>& schedule,
             double seconds, Result* result) {
  std::vector<uint8_t> valid(schedule.size(), 1);
  Served s;
  s.phase = RunPhase(schedule, [&](const Op& op, size_t i) {
    spans::Span span("serve.request", static_cast<int64_t>(i));
    const serve::Response r = engine.Handle(ToRequest(op));
    valid[i] = Valid(op, r) ? 1 : 0;
    return Classify(r);
  });
  s.tally = TallyPhase(s.phase, result);
  result->Check(std::count(valid.begin(), valid.end(), 0) == 0,
                "every answer is well-formed; unknown users degrade");
  s.lat = Summarize(s.phase, schedule, seconds, s.tally);
  return s;
}

double SoloMs(serve::ServingEngine& engine, const std::vector<Op>& schedule,
              OpKind kind) {
  std::vector<double> ms;
  for (const Op& op : schedule) {
    if (op.kind != kind) continue;
    const Clock::time_point t = Clock::now();
    engine.Handle(ToRequest(op));
    ms.push_back(SecondsSince(t) * 1e3);
    if (static_cast<int>(ms.size()) == kSoloCalls) break;
  }
  return Median(ms);
}

}  // namespace

Result RunServeIvf(const RunArgs& args) {
  Result result;
  util::SetNumThreads(1);
  std::vector<Reference> truth;
  result.Check(ReadReferences(args.world + "/recall.txt", &truth) &&
                   static_cast<int>(truth.size()) == kRecallUsers,
               "recall ground truth reads");

  // setup_s: ServingEngine::Load of the snapshot on disk, repeated.
  std::vector<double> setups;
  std::unique_ptr<serve::ServingEngine> engine;
  auto load = [&] {
    engine.reset();
    const Clock::time_point t = Clock::now();
    engine = std::make_unique<serve::ServingEngine>(Config());
    const util::Status st = engine->Load(args.world + "/snapshot.bin");
    setups.push_back(SecondsSince(t));
    result.Check(st.ok(), "snapshot loads");
    return st.ok();
  };
  if (!load()) return result;
  const auto snap = engine->snapshot();
  result.Check(snap->has_quant_items() && !snap->ivf.empty(),
               "snapshot is int8 + IVF");
  const int32_t users = static_cast<int32_t>(snap->meta.num_users);
  const int32_t items = static_cast<int32_t>(snap->meta.num_items);
  const std::vector<Op> schedule = MakeSchedule(
      ServeSchedule(args.seed, kIvfRateQps, args.seconds, users, items));
  const std::vector<Op> warmup =
      WarmupSchedule(args.seed, kIvfRateQps, users, items);
  auto warm = [&] {
    RunPhase(warmup, [&](const Op& op, size_t) {
      return Classify(engine->Handle(ToRequest(op)));
    });
  };
  warm();

  const Served plain = Serve(*engine, schedule, args.seconds, &result);
  const double recall = Recall(*engine, truth, &result);
  result.Check(recall >= 0.9, "IVF recall@10 against exact fp32 >= 0.9");
  result.tally = plain.tally;
  // setup_s: loads repeated after the peak RSS is read. The first load,
  // made before the timed work, is not one of the samples.
  const double rss_mb = PeakRssMb();
  setups.clear();
  while (static_cast<int>(setups.size()) < kSetupSamples * kSetupsPerSample) {
    if (!load()) return result;
  }
  const double setup_s = MedianOfBlockMeans(setups, kSetupsPerSample);

  if (!args.trace) {
    result.Add("setup_s", setup_s, "s");
    result.Add("rss_mb", rss_mb, "MB");
    result.Add("p50_ms", plain.lat.p50_ms, "ms");
    result.Add("cpu_ms_per_op", plain.lat.cpu_ms_per_op, "ms");
    result.Add("quality", recall, "ratio");
    std::printf("serve_ivf: %s, p99 %.3f ms, late mean %.3f ms max %.3f ms\n"
                "%s\n",
                plain.tally.Json().c_str(), plain.lat.p99_ms,
                plain.lat.late_mean_ms, plain.lat.late_max_ms,
                plain.lat.WindowsText().c_str());
    return result;
  }

  // ---- traced pass: same schedule, fresh engine, same warm-up ----------
  if (!load()) return result;
  warm();
  telemetry::SetEnabled(true);
  spans::SetEnabled(true);
  telemetry::Reset();
  const EngineTotals before = Totals({engine.get()});
  const Served traced = Serve(*engine, schedule, args.seconds, &result);
  spans::SetEnabled(false);
  result.Add("gen.late_ms_mean", traced.lat.late_mean_ms, "ms");
  result.Add("gen.late_ms_max", traced.lat.late_max_ms, "ms");
  result.Add("gen.p99_ms", traced.lat.p99_ms, "ms");
  const auto stages =
      AddEngineLayers(before, Totals({engine.get()}), &result);
  double stage_sum = 0.0;
  for (const auto& [name, mean_ms] : stages) stage_sum += mean_ms;
  result.Add("serve.topk_ms", SoloMs(*engine, schedule, OpKind::kTopK), "ms");
  result.Add("serve.score_ms", SoloMs(*engine, schedule, OpKind::kScore),
             "ms");
  result.Add("serve.similar_ms", SoloMs(*engine, schedule, OpKind::kSimilar),
             "ms");
  result.Add("serve.cold_ms", SoloMs(*engine, schedule, OpKind::kUnknown),
             "ms");
  result.Add("serve.load_s", Median(setups), "s");
  const double unaccounted =
      traced.lat.mean_ms - traced.lat.late_mean_ms - stage_sum;
  result.Add("serve.unaccounted_ms", unaccounted, "ms");
  result.Add("trace.overhead_ratio", traced.lat.mean_ms / plain.lat.mean_ms,
             "ratio");

  std::printf("serve_ivf stage means against mean scheduled-arrival "
              "latency %.4f ms (traced):\n",
              traced.lat.mean_ms);
  std::printf("  %-16s %9.4f ms\n", "gen.late", traced.lat.late_mean_ms);
  for (const auto& [name, mean_ms] : stages) {
    std::printf("  %-16s %9.4f ms\n", name.c_str(), mean_ms);
  }
  const double share = unaccounted / traced.lat.mean_ms;
  std::printf("  %-16s %9.4f ms  %5.2f%% (tolerance %.0f%%)\n",
              "unaccounted", unaccounted, 100.0 * share,
              100.0 * kReconcileTolerance);
  result.Check(std::fabs(share) <= kReconcileTolerance,
               "lateness + stage means add up to the mean latency");
  std::printf("tracing overhead: mean %.4f ms traced vs %.4f ms untraced "
              "(%+.2f%%); cpu/op %.4f vs %.4f ms\n",
              traced.lat.mean_ms, plain.lat.mean_ms,
              100.0 * (traced.lat.mean_ms / plain.lat.mean_ms - 1.0),
              traced.lat.cpu_ms_per_op, plain.lat.cpu_ms_per_op);
  result.traced_e2e = {{"p50_ms", traced.lat.p50_ms, "ms"},
                       {"p99_ms", traced.lat.p99_ms, "ms"},
                       {"cpu_ms_per_op", traced.lat.cpu_ms_per_op, "ms"}};
  result.untraced_e2e = {{"p50_ms", plain.lat.p50_ms, "ms"},
                         {"p99_ms", plain.lat.p99_ms, "ms"},
                         {"cpu_ms_per_op", plain.lat.cpu_ms_per_op, "ms"}};
  return result;
}

}  // namespace perfbench
