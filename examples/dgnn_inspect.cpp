// dgnn_inspect — offline reader for the structured JSONL run logs that
// dgnn_cli / the bench harnesses write via --run-log (schema: see
// src/util/run_log.h, version 1).
//
// Subcommands:
//   dgnn_inspect summarize LOG [LOG...]
//       Render every run in each log: config header, per-epoch loss and
//       metric curves, the latest gradient-statistics table, anomalies,
//       checkpoints, and the run_end summary (status completed vs
//       interrupted). A log whose final run has no run_end is reported as
//       "run died" — a crashed run leaves a valid prefix, not corruption.
//       With several logs (e.g. a killed run's log plus its resumed
//       continuation's), a "resume lineage" section chains runs through
//       the checkpoint files they saved and resumed from.
//   dgnn_inspect diff BASELINE CANDIDATE [--hr-tol=X] [--ndcg-tol=X]
//                     [--loss-tol=X]
//       Compare runs pairwise (run i vs run i). Directional check:
//       metrics regress when candidate < baseline - tol; loss regresses
//       when candidate > baseline + tol. Improvements never fail.
//       Tolerances default to 0 (bit-exact runs diff clean).
//   dgnn_inspect bench BENCH_serve.json
//       Validate a bench_serve_load --bench-json result file (schema
//       version 1 or 2, open loop): required fields, quantile ordering,
//       outcome-count consistency. ci/check_bench.sh gates on this.
//   dgnn_inspect stats STATS.jsonl [--prom]
//       Validate a dgnn_serve --stats-out JSONL file (every line must be
//       a complete stats snapshot; corruption is exit 2) and render the
//       newest snapshot — counters, rolling windows, SLO burn — or, with
//       --prom, emit it as Prometheus text exposition (identical to the
//       live server's {"op":"stats","format":"prom"}).
//   dgnn_inspect watch STATS.jsonl [--max-seconds=S]
//       Tail the stats JSONL, one rendered line per snapshot; with S > 0
//       keeps polling for new lines that long before exiting.
//   dgnn_inspect kernels
//       Report the kernel dispatch state of this build/host: the active
//       SIMD level (after the DGNN_SIMD env override, if set), every
//       level compiled in and supported by the CPU, and the numeric
//       mode default. One "key: value" line each — ci/check_kernels.sh
//       parses the "available:" line to decide which DGNN_SIMD values
//       to sweep.
//
// Exit codes: 0 = ok, 1 = diff found a regression, 2 = usage error,
// unreadable file, unparseable line, invalid bench result, or
// structurally incomparable logs. ci/check_runlog.sh and
// ci/check_bench.sh gate on exactly these.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "kernels/kernels.h"
#include "serve/observe.h"
#include "serve/snapshot.h"
#include "util/json.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

using dgnn::util::JsonValue;
using dgnn::util::ParseJson;
using dgnn::util::StrFormat;

// One training/evaluation run reconstructed from the event stream: the
// slice from a run_start up to (and including) its run_end. Events seen
// before any run_start (e.g. `eval`/`checkpoint` from dgnn_cli
// --mode=evaluate, which never calls Trainer::Fit) form an implicit
// headerless run.
struct Run {
  JsonValue run_start;  // kNull when the run is headerless
  JsonValue run_end;    // kNull when the run died before run_end
  bool has_start = false;
  bool has_end = false;
  std::vector<JsonValue> epochs;
  std::vector<JsonValue> evals;
  std::vector<JsonValue> grad_stats;
  std::vector<JsonValue> anomalies;
  std::vector<JsonValue> checkpoints;
};

struct RunLogFile {
  std::string path;
  int64_t num_lines = 0;
  std::vector<Run> runs;
};

// Parses the JSONL file into runs. Returns false (with a message on
// stderr) when the file is unreadable or any line fails to parse — a
// complete line that does not parse is corruption, unlike a missing
// run_end.
bool LoadRunLog(const std::string& path, RunLogFile* out) {
  std::ifstream in(path);
  if (!in.is_open()) {
    std::fprintf(stderr, "dgnn_inspect: cannot open %s\n", path.c_str());
    return false;
  }
  out->path = path;
  std::string line;
  int64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    auto parsed = ParseJson(line);
    if (!parsed.ok()) {
      std::fprintf(stderr, "dgnn_inspect: %s:%lld: %s\n", path.c_str(),
                   (long long)line_no,
                   parsed.status().ToString().c_str());
      return false;
    }
    JsonValue v = std::move(parsed).value();
    const std::string event = v.StringOr("event", "");
    if (event.empty()) {
      std::fprintf(stderr, "dgnn_inspect: %s:%lld: missing \"event\"\n",
                   path.c_str(), (long long)line_no);
      return false;
    }
    ++out->num_lines;
    // A run begins at each run_start; events before the first run_start
    // form an implicit headerless run. Events after a run_end (e.g. the
    // checkpoint dgnn_cli saves after Fit) attach to the closed run.
    if (event == "run_start" || out->runs.empty()) {
      out->runs.push_back(Run{});
    }
    Run& run = out->runs.back();
    if (event == "run_start") {
      run.run_start = std::move(v);
      run.has_start = true;
    } else if (event == "run_end") {
      run.run_end = std::move(v);
      run.has_end = true;
    } else if (event == "epoch") {
      run.epochs.push_back(std::move(v));
    } else if (event == "eval") {
      run.evals.push_back(std::move(v));
    } else if (event == "grad_stats") {
      run.grad_stats.push_back(std::move(v));
    } else if (event == "anomaly") {
      run.anomalies.push_back(std::move(v));
    } else if (event == "checkpoint") {
      run.checkpoints.push_back(std::move(v));
    }
    // Unknown events are skipped by design (forward compatibility).
  }
  return true;
}

// Cutoffs present in a metrics object's "hr" member, as sorted ints.
std::vector<int> MetricCutoffs(const JsonValue* metrics) {
  std::vector<int> out;
  if (metrics == nullptr) return out;
  const JsonValue* hr = metrics->Find("hr");
  if (hr == nullptr || !hr->is_object()) return out;
  for (const auto& [key, unused] : hr->object) {
    out.push_back(std::atoi(key.c_str()));
  }
  return out;
}

double MetricAt(const JsonValue* metrics, const char* family, int cutoff,
                double def) {
  if (metrics == nullptr) return def;
  const JsonValue* fam = metrics->Find(family);
  if (fam == nullptr) return def;
  return fam->NumberOr(std::to_string(cutoff), def);
}

void PrintRunHeader(const Run& run, size_t index) {
  if (!run.has_start) {
    std::printf("== run %zu (headerless: evaluation-only or pre-run "
                "events) ==\n",
                index + 1);
    return;
  }
  const JsonValue& s = run.run_start;
  std::printf("== run %zu: %s on %s (seed %lld, %lld threads) ==\n",
              index + 1, s.StringOr("model", "?").c_str(),
              s.StringOr("dataset", "?").c_str(),
              (long long)s.NumberOr("seed", 0),
              (long long)s.NumberOr("num_threads", 0));
  const std::string resumed_from = s.StringOr("resumed_from", "");
  if (!resumed_from.empty()) {
    std::printf("   resumed from %s (continuing at epoch %lld)\n",
                resumed_from.c_str(),
                (long long)s.NumberOr("start_epoch", 0));
  }
  const JsonValue* ds = s.Find("dataset_stats");
  if (ds != nullptr) {
    std::printf("   dataset: %lld users, %lld items, %lld interactions, "
                "%lld social ties\n",
                (long long)ds->NumberOr("num_users", 0),
                (long long)ds->NumberOr("num_items", 0),
                (long long)ds->NumberOr("num_interactions", 0),
                (long long)ds->NumberOr("num_social_ties", 0));
  }
}

void PrintEpochTable(const Run& run) {
  if (run.epochs.empty()) return;
  // Metric columns come from the first evaluated epoch's cutoffs.
  std::vector<int> cutoffs;
  for (const auto& e : run.epochs) {
    if (e.BoolOr("evaluated", false)) {
      cutoffs = MetricCutoffs(e.Find("metrics"));
      break;
    }
  }
  std::vector<std::string> header = {"Epoch", "Loss", "Train s"};
  for (int n : cutoffs) header.push_back(StrFormat("HR@%d", n));
  for (int n : cutoffs) header.push_back(StrFormat("NDCG@%d", n));
  header.push_back("Eval s");
  dgnn::util::Table table(header);
  for (const auto& e : run.epochs) {
    std::vector<std::string> row = {
        StrFormat("%lld", (long long)e.NumberOr("epoch", 0)),
        StrFormat("%.4f", e.NumberOr("loss", 0.0)),
        StrFormat("%.2f", e.NumberOr("train_seconds", 0.0))};
    const bool evaluated = e.BoolOr("evaluated", false);
    const JsonValue* m = evaluated ? e.Find("metrics") : nullptr;
    for (int n : cutoffs) {
      row.push_back(m != nullptr
                        ? StrFormat("%.4f", MetricAt(m, "hr", n, 0.0))
                        : "-");
    }
    for (int n : cutoffs) {
      row.push_back(m != nullptr
                        ? StrFormat("%.4f", MetricAt(m, "ndcg", n, 0.0))
                        : "-");
    }
    row.push_back(evaluated
                      ? StrFormat("%.2f", e.NumberOr("eval_seconds", 0.0))
                      : "-");
    table.AddRow(std::move(row));
  }
  table.Print();
}

void PrintGradStats(const Run& run) {
  if (run.grad_stats.empty()) return;
  const JsonValue& last = run.grad_stats.back();
  std::printf("gradient stats (batch %lld, %zu samples in log):\n",
              (long long)last.NumberOr("batch", 0),
              run.grad_stats.size());
  const JsonValue* params = last.Find("params");
  if (params == nullptr || !params->is_array()) return;
  dgnn::util::Table table({"Parameter", "Size", "||g||", "max|g|",
                           "zero frac", "upd/param", "Finite"});
  for (const auto& p : params->array) {
    table.AddRow({p.StringOr("name", "?"),
                  StrFormat("%lld", (long long)p.NumberOr("size", 0)),
                  StrFormat("%.3e", p.NumberOr("grad_l2", 0.0)),
                  StrFormat("%.3e", p.NumberOr("grad_max_abs", 0.0)),
                  StrFormat("%.3f", p.NumberOr("grad_zero_frac", 0.0)),
                  StrFormat("%.3e", p.NumberOr("update_ratio", 0.0)),
                  p.BoolOr("finite", true) ? "yes" : "NO"});
  }
  table.Print();
}

void PrintRunFooter(const Run& run) {
  for (const auto& a : run.anomalies) {
    std::printf("ANOMALY: %s in op %s%s\n",
                a.StringOr("kind", "?").c_str(),
                a.StringOr("op", "?").c_str(),
                a.Find("param") != nullptr
                    ? StrFormat(" (parameter '%s')",
                                a.StringOr("param", "").c_str())
                        .c_str()
                    : "");
  }
  for (const auto& c : run.checkpoints) {
    std::printf("checkpoint: %s %s (%s)\n",
                c.StringOr("action", "?").c_str(),
                c.StringOr("path", "?").c_str(),
                c.BoolOr("ok", false)
                    ? "ok"
                    : ("FAILED: " + c.StringOr("error", "?")).c_str());
  }
  for (const auto& e : run.evals) {
    if (!run.epochs.empty()) break;  // epoch table already shows these
    const JsonValue* m = e.Find("metrics");
    std::string metrics_str;
    for (int n : MetricCutoffs(m)) {
      metrics_str += StrFormat("HR@%d=%.4f NDCG@%d=%.4f ", n,
                               MetricAt(m, "hr", n, 0.0), n,
                               MetricAt(m, "ndcg", n, 0.0));
    }
    std::printf("eval: %s(%.2fs)\n", metrics_str.c_str(),
                e.NumberOr("seconds", 0.0));
  }
  if (run.has_end) {
    const JsonValue& r = run.run_end;
    // Logs written before the status field read as completed runs.
    const std::string status = r.StringOr("status", "completed");
    const std::string resumed_from = r.StringOr("resumed_from", "");
    std::printf("run_end: %s, %lld epochs%s%s, best epoch %lld "
                "(metric %.4f), total train %.2fs\n",
                status.c_str(), (long long)r.NumberOr("epochs_run", 0),
                r.BoolOr("stopped_early", false) ? " (stopped early)" : "",
                resumed_from.empty()
                    ? ""
                    : (" (resumed from " + resumed_from + ")").c_str(),
                (long long)r.NumberOr("best_epoch", 0),
                r.NumberOr("best_metric", 0.0),
                r.NumberOr("total_train_seconds", 0.0));
  } else if (run.has_start) {
    std::printf("run died before run_end (crashed or still running)\n");
  }
}

// Short status tag for lineage lines: completed / interrupted / died.
std::string RunStatus(const Run& run) {
  if (run.has_end) return run.run_end.StringOr("status", "completed");
  return "died";
}

// Chains runs (possibly across log files) through the checkpoint files
// they saved and later resumed from: a run whose run_start carries
// resumed_from=P links back to the most recent earlier run that logged a
// successful save/save_checkpoint to P. Printed only when at least one
// run resumed — single-shot logs stay unchanged.
void PrintResumeLineage(const std::vector<RunLogFile>& logs) {
  struct Labeled {
    std::string label;
    const Run* run;
  };
  std::vector<Labeled> all;
  const bool multi = logs.size() > 1;
  for (const auto& log : logs) {
    for (size_t i = 0; i < log.runs.size(); ++i) {
      std::string label = multi ? log.path + " run " : "run ";
      label += StrFormat("%zu", i + 1);
      all.push_back({std::move(label), &log.runs[i]});
    }
  }
  // Checkpoint path -> label of the latest earlier run that saved it.
  std::map<std::string, std::string> saver;
  std::vector<std::string> lines;
  for (const auto& entry : all) {
    const Run& run = *entry.run;
    if (run.has_start) {
      const std::string from = run.run_start.StringOr("resumed_from", "");
      if (!from.empty()) {
        auto it = saver.find(from);
        lines.push_back(StrFormat(
            "  %s --(%s)--> %s [%s]",
            it != saver.end() ? it->second.c_str() : "<unknown run>",
            from.c_str(), entry.label.c_str(), RunStatus(run).c_str()));
      }
    }
    for (const auto& c : run.checkpoints) {
      const std::string action = c.StringOr("action", "");
      if ((action == "save_checkpoint" || action == "save") &&
          c.BoolOr("ok", false)) {
        saver[c.StringOr("path", "")] =
            entry.label + " [" + RunStatus(run) + "]";
      }
    }
  }
  if (lines.empty()) return;
  std::printf("resume lineage:\n");
  for (const auto& line : lines) std::printf("%s\n", line.c_str());
}

int Summarize(const std::vector<std::string>& paths) {
  std::vector<RunLogFile> logs(paths.size());
  for (size_t i = 0; i < paths.size(); ++i) {
    if (!LoadRunLog(paths[i], &logs[i])) return 2;
  }
  for (const auto& log : logs) {
    std::printf("run log %s: %lld events, %zu run(s)\n", log.path.c_str(),
                (long long)log.num_lines, log.runs.size());
    for (size_t i = 0; i < log.runs.size(); ++i) {
      const Run& run = log.runs[i];
      PrintRunHeader(run, i);
      PrintEpochTable(run);
      PrintGradStats(run);
      PrintRunFooter(run);
    }
  }
  PrintResumeLineage(logs);
  return 0;
}

struct DiffTolerances {
  double hr = 0.0;
  double ndcg = 0.0;
  double loss = 0.0;
};

// Final metrics of a run: run_end.final_metrics.
const JsonValue* FinalMetrics(const Run& run) {
  return run.has_end ? run.run_end.Find("final_metrics") : nullptr;
}

int Diff(const std::string& base_path, const std::string& cand_path,
         const DiffTolerances& tol) {
  RunLogFile base, cand;
  if (!LoadRunLog(base_path, &base) || !LoadRunLog(cand_path, &cand)) {
    return 2;
  }
  if (base.runs.size() != cand.runs.size()) {
    std::fprintf(stderr,
                 "dgnn_inspect: run count mismatch: %zu vs %zu — logs are "
                 "not comparable\n",
                 base.runs.size(), cand.runs.size());
    return 2;
  }
  dgnn::util::Table table(
      {"Run", "Quantity", "Baseline", "Candidate", "Delta", "Status"});
  int regressions = 0;
  for (size_t i = 0; i < base.runs.size(); ++i) {
    const Run& b = base.runs[i];
    const Run& c = cand.runs[i];
    if (b.has_start && c.has_start) {
      const std::string bm = b.run_start.StringOr("model", "?");
      const std::string cm = c.run_start.StringOr("model", "?");
      if (bm != cm) {
        std::fprintf(stderr,
                     "dgnn_inspect: run %zu trains different models "
                     "(%s vs %s) — logs are not comparable\n",
                     i + 1, bm.c_str(), cm.c_str());
        return 2;
      }
    }
    if (!b.has_end || !c.has_end) {
      std::fprintf(stderr,
                   "dgnn_inspect: run %zu has no run_end in %s — cannot "
                   "diff a dead run\n",
                   i + 1, b.has_end ? cand_path.c_str() : base_path.c_str());
      return 2;
    }
    const std::string run_label = StrFormat("%zu", i + 1);
    const JsonValue* bmet = FinalMetrics(b);
    const JsonValue* cmet = FinalMetrics(c);
    // Metrics: higher is better; regression when candidate drops by more
    // than the tolerance.
    for (const char* family : {"hr", "ndcg"}) {
      const double family_tol =
          std::strcmp(family, "hr") == 0 ? tol.hr : tol.ndcg;
      for (int n : MetricCutoffs(bmet)) {
        const double bv = MetricAt(bmet, family, n, 0.0);
        const double cv = MetricAt(cmet, family, n, bv);
        const bool regressed = cv < bv - family_tol;
        regressions += regressed ? 1 : 0;
        table.AddRow({run_label,
                      StrFormat("%s@%d", family[0] == 'h' ? "HR" : "NDCG",
                                n),
                      StrFormat("%.4f", bv), StrFormat("%.4f", cv),
                      StrFormat("%+.4f", cv - bv),
                      regressed ? "REGRESSION" : "ok"});
      }
    }
    // Loss: lower is better; compare the last epoch's loss.
    if (!b.epochs.empty() && !c.epochs.empty()) {
      const double bl = b.epochs.back().NumberOr("loss", 0.0);
      const double cl = c.epochs.back().NumberOr("loss", 0.0);
      const bool regressed = cl > bl + tol.loss;
      regressions += regressed ? 1 : 0;
      table.AddRow({run_label, "final loss", StrFormat("%.4f", bl),
                    StrFormat("%.4f", cl), StrFormat("%+.4f", cl - bl),
                    regressed ? "REGRESSION" : "ok"});
    }
  }
  table.Print();
  if (regressions > 0) {
    std::printf("%d regression(s) beyond tolerance (hr %.4g, ndcg %.4g, "
                "loss %.4g)\n",
                regressions, tol.hr, tol.ndcg, tol.loss);
    return 1;
  }
  std::printf("no regressions\n");
  return 0;
}

// ---------------------------------------------------------------------
// bench: validate a BENCH_serve.json emitted by bench_serve_load
// --bench-json (schema_version 1 or 2). Parsed with the real JSON
// parser — no substring checks — and verified structurally: required
// fields, quantile ordering p50 <= p95 <= p99, and outcome-count
// consistency (ok + shed + expired + failed == requests, degraded a
// subset of ok). ci/check_bench.sh gates on exit code 0 vs 2.
// ---------------------------------------------------------------------

bool BenchFail(const std::string& path, const std::string& what) {
  std::fprintf(stderr, "dgnn_inspect: %s: %s\n", path.c_str(),
               what.c_str());
  return false;
}

// Fetches a required finite, nonnegative numeric member.
bool BenchNumber(const std::string& path, const JsonValue& point,
                 const char* key, double* out) {
  const JsonValue* v = point.Find(key);
  if (v == nullptr || !v->is_number()) {
    return BenchFail(path, StrFormat("point missing numeric \"%s\"", key));
  }
  if (!(v->number >= 0.0)) {
    return BenchFail(path, StrFormat("\"%s\" is negative or NaN", key));
  }
  *out = v->number;
  return true;
}

bool ValidateBenchPoint(const std::string& path, const JsonValue& point,
                        int schema_version) {
  if (!point.is_object()) return BenchFail(path, "point is not an object");
  double p50 = 0, p95 = 0, p99 = 0, requests = 0;
  for (const char* key : {"requests", "seconds", "p50_ms", "p95_ms",
                          "p99_ms"}) {
    double v = 0;
    if (!BenchNumber(path, point, key, &v)) return false;
  }
  BenchNumber(path, point, "requests", &requests);
  BenchNumber(path, point, "p50_ms", &p50);
  BenchNumber(path, point, "p95_ms", &p95);
  BenchNumber(path, point, "p99_ms", &p99);
  if (p50 > p95 || p95 > p99) {
    return BenchFail(path,
                     StrFormat("quantiles out of order: p50 %.4f p95 %.4f "
                               "p99 %.4f",
                               p50, p95, p99));
  }
  double ok = 0, shed = 0, expired = 0, failed = 0, degraded = 0;
  for (auto [key, out] : {std::pair<const char*, double*>{"ok", &ok},
                          {"shed", &shed},
                          {"expired", &expired},
                          {"failed", &failed},
                          {"degraded", &degraded}}) {
    if (!BenchNumber(path, point, key, out)) return false;
  }
  double target = 0, rss = 0, late = 0;
  if (!BenchNumber(path, point, "target_qps", &target)) return false;
  if (!BenchNumber(path, point, "peak_rss_bytes", &rss)) return false;
  if (!BenchNumber(path, point, "late_dispatches", &late)) return false;
  if (ok + shed + expired + failed != requests) {
    return BenchFail(
        path, StrFormat("outcome counts do not sum to requests: "
                        "%g + %g + %g + %g != %g",
                        ok, shed, expired, failed, requests));
  }
  if (degraded > ok) {
    return BenchFail(path, "degraded exceeds ok");
  }
  if (schema_version >= 2) {
    // v2 open points carry the snapshot footprint; recall_at_k is
    // present when the run measured it and must then be a fraction.
    double snapshot_bytes = 0;
    if (!BenchNumber(path, point, "snapshot_bytes", &snapshot_bytes)) {
      return false;
    }
    const JsonValue* recall = point.Find("recall_at_k");
    if (recall != nullptr) {
      if (!recall->is_number() || !(recall->number >= 0.0) ||
          recall->number > 1.0) {
        return BenchFail(path, "recall_at_k must be in [0, 1]");
      }
    }
  }
  return true;
}

int BenchValidate(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    std::fprintf(stderr, "dgnn_inspect: cannot open %s\n", path.c_str());
    return 2;
  }
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  auto parsed = ParseJson(content);
  if (!parsed.ok()) {
    std::fprintf(stderr, "dgnn_inspect: %s: %s\n", path.c_str(),
                 parsed.status().ToString().c_str());
    return 2;
  }
  const JsonValue root = std::move(parsed).value();
  if (!root.is_object()) return BenchFail(path, "root is not an object"), 2;
  // v1 = seed schema; v2 adds snapshot_bytes / recall_at_k to open-loop
  // points. Both remain valid so committed v1 trajectory files keep
  // validating.
  const int schema_version =
      static_cast<int>(root.NumberOr("schema_version", 0));
  if (schema_version != 1 && schema_version != 2) {
    return BenchFail(path, "schema_version must be 1 or 2"), 2;
  }
  // "bench_serve_load" = single-process engine bench; "dgnn_router" =
  // the sharded router replaying the same trace format through a fleet
  // (bench/trajectory/BENCH_serve_shard.json). Identical point schema.
  const std::string bench = root.StringOr("bench", "");
  if (bench != "bench_serve_load" && bench != "dgnn_router") {
    return BenchFail(
               path,
               "\"bench\" must be \"bench_serve_load\" or \"dgnn_router\""),
           2;
  }
  if (root.StringOr("mode", "") != "open") {
    return BenchFail(path, "\"mode\" must be \"open\""), 2;
  }
  const JsonValue* arrival = root.Find("arrival");
  if (arrival == nullptr || !arrival->is_string() ||
      (arrival->string_value != "poisson" &&
       arrival->string_value != "burst" &&
       arrival->string_value != "diurnal")) {
    return BenchFail(path, "open mode requires a valid \"arrival\""), 2;
  }
  const JsonValue* points = root.Find("points");
  if (points == nullptr || !points->is_array() || points->array.empty()) {
    return BenchFail(path, "\"points\" must be a non-empty array"), 2;
  }
  for (const JsonValue& point : points->array) {
    if (!ValidateBenchPoint(path, point, schema_version)) return 2;
  }
  std::printf("%s: valid open-loop bench result (%zu point(s), preset %s)\n",
              path.c_str(), points->array.size(),
              root.StringOr("preset", "?").c_str());
  return 0;
}

// `dgnn_inspect stats FILE [--prom]`: validate every line of a
// dgnn_serve --stats-out JSONL file (each line must be a full stats
// snapshot — corruption anywhere is exit 2, the crash-valid-prefix
// contract only tolerates a missing tail, not a mangled one) and render
// the newest snapshot, as a human summary or (--prom) as Prometheus
// text exposition — byte-identical to what the live server's
// {"op":"stats","format":"prom"} returns for the same snapshot.

void PrintStatsWindow(const char* name, const JsonValue& w) {
  std::printf(
      "  %-4s qps=%-9.1f p50=%-8.3fms p95=%-8.3fms p99=%-8.3fms "
      "avail=%-7.4f cache=%-6.3f queue=%lld viol(p99=%lld avail=%lld)\n",
      name, w.NumberOr("qps", 0), w.NumberOr("p50_ms", 0),
      w.NumberOr("p95_ms", 0), w.NumberOr("p99_ms", 0),
      w.NumberOr("availability", 0), w.NumberOr("cache_hit_rate", 0),
      (long long)w.NumberOr("queue_depth", 0),
      (long long)w.NumberOr("p99_violations", 0),
      (long long)w.NumberOr("availability_violations", 0));
}

int StatsRender(const std::string& path, bool prom) {
  std::ifstream in(path);
  if (!in.is_open()) {
    std::fprintf(stderr, "dgnn_inspect: cannot open %s\n", path.c_str());
    return 2;
  }
  std::string line, last;
  int64_t line_no = 0, lines = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    dgnn::util::Status valid =
        dgnn::serve::observe::ValidateStatsJson(line);
    if (!valid.ok()) {
      std::fprintf(stderr, "dgnn_inspect: %s:%lld: %s\n", path.c_str(),
                   (long long)line_no, valid.ToString().c_str());
      return 2;
    }
    last = line;
    ++lines;
  }
  if (last.empty()) {
    std::fprintf(stderr, "dgnn_inspect: %s: no stats snapshots\n",
                 path.c_str());
    return 2;
  }
  if (prom) {
    auto text = dgnn::serve::observe::PromTextFromStatsJson(last);
    if (!text.ok()) {
      std::fprintf(stderr, "dgnn_inspect: %s: %s\n", path.c_str(),
                   text.status().ToString().c_str());
      return 2;
    }
    std::fputs(text.value().c_str(), stdout);
    return 0;
  }
  auto parsed = ParseJson(last);  // validated above; cannot fail
  const JsonValue& v = parsed.value();
  std::printf("%s: %lld snapshot(s); newest:\n", path.c_str(),
              (long long)lines);
  std::printf(
      "  totals: requests=%lld batches=%lld shed=%lld expired=%lld "
      "failed=%lld degraded=%lld swaps=%lld cache(hit=%lld miss=%lld)\n",
      (long long)v.NumberOr("requests", 0),
      (long long)v.NumberOr("batches", 0),
      (long long)v.NumberOr("shed_requests", 0),
      (long long)v.NumberOr("expired_requests", 0),
      (long long)v.NumberOr("failed_requests", 0),
      (long long)v.NumberOr("degraded_requests", 0),
      (long long)v.NumberOr("snapshot_swaps", 0),
      (long long)v.NumberOr("cache_hits", 0),
      (long long)v.NumberOr("cache_misses", 0));
  const JsonValue* windows = v.Find("windows");
  for (const char* name : {"1s", "10s", "60s"}) {
    const JsonValue* w = windows->Find(name);
    if (w != nullptr) PrintStatsWindow(name, *w);
  }
  const JsonValue* slo = v.Find("slo");
  if (slo != nullptr) {
    std::printf(
        "  slo: p99<%gms avail>%g — ticks=%lld p99_viol=%lld "
        "avail_viol=%lld\n",
        slo->NumberOr("p99_ms", 0), slo->NumberOr("availability", 0),
        (long long)slo->NumberOr("ticks", 0),
        (long long)slo->NumberOr("p99_violation_ticks", 0),
        (long long)slo->NumberOr("availability_violation_ticks", 0));
  }
  return 0;
}

// `dgnn_inspect watch FILE [--max-seconds=S]`: tail a --stats-out JSONL
// file, rendering one line per snapshot as it lands. S <= 0 (default)
// renders what is there and exits; S > 0 keeps polling for growth that
// long — the CI-friendly substitute for an interactive `watch`.
int WatchStats(const std::string& path, double max_seconds) {
  using Clock = std::chrono::steady_clock;
  std::ifstream in(path);
  if (!in.is_open()) {
    std::fprintf(stderr, "dgnn_inspect: cannot open %s\n", path.c_str());
    return 2;
  }
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             max_seconds > 0 ? max_seconds : 0));
  std::string line;
  int64_t line_no = 0, shown = 0;
  for (;;) {
    while (std::getline(in, line)) {
      ++line_no;
      if (line.empty()) continue;
      dgnn::util::Status valid =
          dgnn::serve::observe::ValidateStatsJson(line);
      if (!valid.ok()) {
        std::fprintf(stderr, "dgnn_inspect: %s:%lld: %s\n", path.c_str(),
                     (long long)line_no, valid.ToString().c_str());
        return 2;
      }
      auto parsed = ParseJson(line);
      const JsonValue& v = parsed.value();
      const JsonValue* windows = v.Find("windows");
      const JsonValue* w1 = windows->Find("1s");
      const JsonValue* w10 = windows->Find("10s");
      std::printf(
          "ts=%-12lld req=%-8lld 1s[qps=%-8.1f p99=%-8.3fms] "
          "10s[qps=%-8.1f p99=%-8.3fms avail=%-7.4f] shed=%lld "
          "swaps=%lld\n",
          (long long)v.NumberOr("ts_us", 0),
          (long long)v.NumberOr("requests", 0), w1->NumberOr("qps", 0),
          w1->NumberOr("p99_ms", 0), w10->NumberOr("qps", 0),
          w10->NumberOr("p99_ms", 0), w10->NumberOr("availability", 0),
          (long long)v.NumberOr("shed_requests", 0),
          (long long)v.NumberOr("snapshot_swaps", 0));
      std::fflush(stdout);
      ++shown;
    }
    // getline hit EOF; clear the state so appended lines are seen on the
    // next pass.
    in.clear();
    if (max_seconds <= 0 || Clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  std::fprintf(stderr, "dgnn_inspect: watched %lld snapshot(s)\n",
               (long long)shown);
  return 0;
}

// `dgnn_inspect snapshot FILE`: dump the snapshot's section table
// (ids, names, payload sizes, per-section shape/codec/index metadata)
// and verify the trailing checksum. Exit codes: 0 = checksum OK,
// 1 = checksum mismatch (the section table still prints — it shows
// WHICH section looks damaged), 2 = not a snapshot at all (unreadable,
// too small, bad magic). ci/check_index.sh gates corrupt-snapshot
// must-fail on the nonzero exits.
int SnapshotReport(const std::string& path) {
  auto inspected = dgnn::serve::InspectSnapshotFile(path);
  if (!inspected.ok()) {
    std::fprintf(stderr, "dgnn_inspect: %s\n",
                 inspected.status().ToString().c_str());
    return 2;
  }
  const dgnn::serve::SnapshotFileInfo& info = inspected.value();
  std::printf("file: %s (%llu bytes)\n", path.c_str(),
              (unsigned long long)info.file_bytes);
  std::printf("checksum: stored=%016llx computed=%016llx %s\n",
              (unsigned long long)info.stored_checksum,
              (unsigned long long)info.computed_checksum,
              info.checksum_ok ? "OK" : "MISMATCH");
  std::printf("sections: %zu\n", info.sections.size());
  for (const dgnn::serve::SnapshotSectionInfo& sec : info.sections) {
    std::printf("  [%u] %-12s %14llu bytes%s%s\n", sec.id,
                sec.name.c_str(), (unsigned long long)sec.bytes,
                sec.detail.empty() ? "" : "  ", sec.detail.c_str());
  }
  if (!info.meta_json.empty()) {
    std::printf("meta: %s\n", info.meta_json.c_str());
  }
  return info.checksum_ok ? 0 : 1;
}

// `dgnn_inspect kernels`: one "key: value" line per fact so shell gates
// can grep without a JSON parser.
int KernelsReport() {
  std::printf("active: %s\n",
              dgnn::kernels::IsaName(dgnn::kernels::ActiveIsa()));
  std::printf("mode-default: %s\n",
              dgnn::kernels::Deterministic() ? "deterministic" : "fast");
  std::string available;
  for (dgnn::kernels::Isa isa : dgnn::kernels::AvailableIsas()) {
    if (!available.empty()) available += ' ';
    available += dgnn::kernels::IsaName(isa);
  }
  std::printf("available: %s\n", available.c_str());
  return 0;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  dgnn_inspect summarize LOG [LOG...]\n"
      "  dgnn_inspect diff BASELINE CANDIDATE [--hr-tol=X] [--ndcg-tol=X]"
      " [--loss-tol=X]\n"
      "  dgnn_inspect bench BENCH_serve.json\n"
      "  dgnn_inspect snapshot SNAPSHOT\n"
      "  dgnn_inspect stats STATS.jsonl [--prom]\n"
      "  dgnn_inspect watch STATS.jsonl [--max-seconds=S]\n"
      "  dgnn_inspect kernels\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Hand-rolled argv handling: this tool takes positional paths, which
  // util::Flags rejects by design.
  std::vector<std::string> positional;
  DiffTolerances tol;
  bool prom = false;
  double max_seconds = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--hr-tol=", 0) == 0) {
      tol.hr = std::atof(arg.c_str() + 9);
    } else if (arg.rfind("--ndcg-tol=", 0) == 0) {
      tol.ndcg = std::atof(arg.c_str() + 11);
    } else if (arg.rfind("--loss-tol=", 0) == 0) {
      tol.loss = std::atof(arg.c_str() + 11);
    } else if (arg == "--prom") {
      prom = true;
    } else if (arg.rfind("--max-seconds=", 0) == 0) {
      max_seconds = std::atof(arg.c_str() + 14);
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "dgnn_inspect: unknown flag %s\n", arg.c_str());
      return Usage();
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() >= 2 && positional[0] == "summarize") {
    return Summarize(std::vector<std::string>(positional.begin() + 1,
                                              positional.end()));
  }
  if (positional.size() == 3 && positional[0] == "diff") {
    return Diff(positional[1], positional[2], tol);
  }
  if (positional.size() == 2 && positional[0] == "bench") {
    return BenchValidate(positional[1]);
  }
  if (positional.size() == 2 && positional[0] == "snapshot") {
    return SnapshotReport(positional[1]);
  }
  if (positional.size() == 2 && positional[0] == "stats") {
    return StatsRender(positional[1], prom);
  }
  if (positional.size() == 2 && positional[0] == "watch") {
    return WatchStats(positional[1], max_seconds);
  }
  if (positional.size() == 1 && positional[0] == "kernels") {
    return KernelsReport();
  }
  return Usage();
}
