// Shared plumbing for the table/figure reproduction harnesses: flag
// parsing, dataset construction, and the train-and-evaluate loop every
// bench runs per model.

#ifndef DGNN_BENCH_BENCH_COMMON_H_
#define DGNN_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/model_zoo.h"
#include "data/synthetic.h"
#include "graph/hetero_graph.h"
#include "train/trainer.h"
#include "util/flags.h"
#include "util/run_log.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/telemetry.h"

namespace dgnn::bench {

// Shared --metrics-out=F / --trace-out=F / --run-log=F support: every
// bench that builds its options through BenchOptions::FromFlags gets
// telemetry-enabled runs whose metrics/trace JSON is flushed at process
// exit, plus a structured JSONL run log covering every Fit the bench
// performs — so any bench run can emit machine-readable payloads next to
// its printed table (inspect the run log with dgnn_inspect).
namespace internal {
inline std::string& MetricsOutPath() {
  static std::string path;
  return path;
}
inline std::string& TraceOutPath() {
  static std::string path;
  return path;
}
inline void FlushTelemetryOutputs() {
  const std::string& metrics = MetricsOutPath();
  if (!metrics.empty()) {
    util::Status s = telemetry::WriteMetricsJson(metrics);
    if (!s.ok()) {
      std::fprintf(stderr, "metrics-out: %s\n", s.ToString().c_str());
    } else {
      std::fprintf(stderr, "[bench] metrics written to %s\n",
                   metrics.c_str());
    }
  }
  const std::string& trace = TraceOutPath();
  if (!trace.empty()) {
    util::Status s = telemetry::WriteTraceJson(trace);
    if (!s.ok()) {
      std::fprintf(stderr, "trace-out: %s\n", s.ToString().c_str());
    } else {
      std::fprintf(stderr, "[bench] trace written to %s\n", trace.c_str());
    }
  }
  if (runlog::Active()) {
    std::fprintf(stderr, "[bench] run log written to %s (%lld events)\n",
                 runlog::CurrentPath().c_str(),
                 (long long)runlog::NumEvents());
    runlog::Close();
  }
}
}  // namespace internal

inline void SetupTelemetryFromFlags(const util::Flags& flags) {
  internal::MetricsOutPath() = flags.GetString("metrics-out", "");
  internal::TraceOutPath() = flags.GetString("trace-out", "");
  const std::string run_log = flags.GetString("run-log", "");
  if (!run_log.empty()) {
    util::Status s = runlog::Open(run_log);
    if (!s.ok()) {
      std::fprintf(stderr, "run-log: %s\n", s.ToString().c_str());
      std::exit(2);
    }
  }
  if (internal::MetricsOutPath().empty() &&
      internal::TraceOutPath().empty() && run_log.empty()) {
    return;
  }
  if (!internal::MetricsOutPath().empty() ||
      !internal::TraceOutPath().empty()) {
    telemetry::SetEnabled(true);
  }
  static bool registered = false;
  if (!registered) {
    registered = true;
    std::atexit(internal::FlushTelemetryOutputs);
  }
}

struct BenchOptions {
  int epochs = 25;
  int batch_size = 1024;
  float learning_rate = 0.01f;
  float l2_reg = 1e-4f;
  float weight_decay = 0.01f;
  core::ZooConfig zoo;  // d=16, L=2, |M|=8, paper defaults
  std::vector<int> cutoffs = {5, 10, 20};
  // Final metrics are averaged over this many training runs with
  // different seeds; on the small presets, single-seed differences of
  // +-0.04 HR@10 are common, so comparison tables default to 3.
  int num_seeds = 1;
  // When > 0, evaluate every `eval_every` epochs and stop a run once the
  // metric plateaus for `early_stop_patience` evaluations (per-model
  // stopping, applied uniformly — the harness equivalent of the paper's
  // per-model tuning).
  int eval_every = 0;
  int early_stop_patience = 0;
  bool verbose = false;
  // Run-log diagnostics, forwarded into every TrainConfig the bench
  // builds (see train::TrainConfig).
  int grad_stats_every = 0;
  bool check_numerics = false;

  // Common flags: --epochs, --batch, --dim, --layers, --memory, --seed,
  // --verbose, plus --metrics-out / --trace-out / --run-log (telemetry
  // JSON and run log flushed at exit; see SetupTelemetryFromFlags) and
  // --grad-stats-every / --check-numerics (run-log diagnostics).
  static BenchOptions FromFlags(const util::Flags& flags) {
    SetupTelemetryFromFlags(flags);
    BenchOptions o;
    o.epochs = static_cast<int>(flags.GetInt("epochs", o.epochs));
    o.batch_size = static_cast<int>(flags.GetInt("batch", o.batch_size));
    o.zoo.embedding_dim = flags.GetInt("dim", o.zoo.embedding_dim);
    o.zoo.num_layers =
        static_cast<int>(flags.GetInt("layers", o.zoo.num_layers));
    o.zoo.num_memory_units =
        static_cast<int>(flags.GetInt("memory", o.zoo.num_memory_units));
    o.zoo.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
    o.weight_decay =
        static_cast<float>(flags.GetDouble("wd", o.weight_decay));
    o.num_seeds = static_cast<int>(flags.GetInt("seeds", o.num_seeds));
    o.eval_every = static_cast<int>(flags.GetInt("eval_every", o.eval_every));
    o.early_stop_patience =
        static_cast<int>(flags.GetInt("patience", o.early_stop_patience));
    o.verbose = flags.GetBool("verbose", false);
    o.grad_stats_every =
        static_cast<int>(flags.GetInt("grad-stats-every", 0));
    o.check_numerics = flags.GetBool("check-numerics", false);
    return o;
  }

  train::TrainConfig ToTrainConfig() const {
    train::TrainConfig tc;
    tc.epochs = epochs;
    tc.batch_size = batch_size;
    tc.learning_rate = learning_rate;
    tc.l2_reg = l2_reg;
    tc.weight_decay = weight_decay;
    tc.eval_cutoffs = cutoffs;
    tc.eval_every = eval_every;
    tc.early_stop_patience = early_stop_patience;
    tc.verbose = verbose;
    tc.seed = zoo.seed;
    tc.grad_stats_every = grad_stats_every;
    tc.check_numerics = check_numerics;
    return tc;
  }
};

// Trains `model_name` from scratch on the dataset and returns the full
// training result (final metrics under `options.cutoffs`). When
// options.num_seeds > 1, the model is trained once per seed and the final
// metrics are averaged; epoch traces and timings come from the first run.
inline train::TrainResult RunModel(const std::string& model_name,
                                   const data::Dataset& dataset,
                                   const graph::HeteroGraph& graph,
                                   const BenchOptions& options,
                                   int eval_every = 0) {
  train::TrainResult first;
  train::Metrics sum;
  const int runs = std::max(options.num_seeds, 1);
  for (int run = 0; run < runs; ++run) {
    BenchOptions o = options;
    o.zoo.seed = options.zoo.seed + static_cast<uint64_t>(run) * 1000003;
    auto model = core::CreateModelByName(model_name, dataset, graph, o.zoo);
    train::TrainConfig tc = o.ToTrainConfig();
    tc.seed = o.zoo.seed;
    if (eval_every > 0) tc.eval_every = eval_every;
    train::Trainer trainer(model.get(), dataset, tc);
    train::TrainResult result = trainer.Fit();
    if (run == 0) {
      first = std::move(result);
      sum = first.final_metrics;
    } else {
      for (auto& [n, v] : sum.hr) v += result.final_metrics.hr[n];
      for (auto& [n, v] : sum.ndcg) v += result.final_metrics.ndcg[n];
    }
  }
  for (auto& [n, v] : sum.hr) v /= runs;
  for (auto& [n, v] : sum.ndcg) v /= runs;
  first.final_metrics = sum;
  return first;
}

inline std::string Fmt4(double v) { return util::StrFormat("%.4f", v); }

// "+12.34%" improvement of `best` over `other`.
inline std::string ImprovementPct(double best, double other) {
  if (other <= 0.0) return "n/a";
  return util::StrFormat("%.2f%%", (best - other) / other * 100.0);
}

}  // namespace dgnn::bench

#endif  // DGNN_BENCH_BENCH_COMMON_H_
