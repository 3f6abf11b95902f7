// Pieces both serving workloads share: outcome classification, the timed
// open-loop phase with its CPU accounting, and latency metrics.

#ifndef PERFBENCH_SERVE_COMMON_H_
#define PERFBENCH_SERVE_COMMON_H_

#include <chrono>
#include <string>
#include <vector>

#include "loadgen.h"
#include "names.h"
#include "result.h"
#include "serve/engine.h"

namespace perfbench {

Outcome Classify(const serve::Response& r);

// Process CPU seconds (user + system) so far.
double CpuSeconds();

struct Phase {
  std::vector<Sample> samples;
  double cpu_s = 0.0;  // process CPU over the phase
};

// Runs `schedule` open-loop with one caller per hardware thread, with
// process CPU time read around it.
Phase RunPhase(const std::vector<Op>& schedule, const Caller& call,
               std::chrono::steady_clock::time_point t0 =
                   std::chrono::steady_clock::now());

struct LatencySummary {
  double p50_ms = 0.0, p99_ms = 0.0, mean_ms = 0.0;
  double late_mean_ms = 0.0, late_max_ms = 0.0;
  double cpu_ms_per_op = 0.0;
  std::vector<double> window_p50_ms, window_p99_ms;
  std::string WindowsText() const;
};

// Windows the timed phase is cut into for p99_ms.
inline constexpr int kLatencyWindows = 5;

// p50 and mean over every request of the phase; p99 is the median of
// the per-window p99s over kLatencyWindows equal windows of scheduled
// arrival time, so one burst of host stalls moves one window, not the
// value. CPU is per answered request.
LatencySummary Summarize(const Phase& phase, const std::vector<Op>& schedule,
                         double seconds, const Tally& tally);

// Tallies the phase and checks the accounting identity.
Tally TallyPhase(const Phase& phase, Result* result);

// EngineStats summed over a set of engines.
struct EngineTotals {
  int64_t requests = 0, batches = 0, cache_hits = 0, cache_misses = 0;
};
EngineTotals Totals(const std::vector<const serve::ServingEngine*>& engines);

// Engine-side layers, read from the existing serve.stage.* histograms
// (telemetry must be on) and the EngineStats deltas: per stage mean and
// p99, batch size, cache hit ratio and pool regions per request. Returns
// the (stage name, mean ms) pairs in pipeline order.
std::vector<std::pair<std::string, double>> AddEngineLayers(
    const EngineTotals& before, const EngineTotals& after, Result* result);

// A warm-up schedule (own seed, not timed) of `seconds` at `rate_qps`.
std::vector<Op> WarmupSchedule(uint64_t seed, double rate_qps,
                               int32_t num_users, int32_t num_items);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_COMMON_H_
