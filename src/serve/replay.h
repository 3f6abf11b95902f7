// Open-loop trace replay against a ServingEngine, measured the
// coordinated-omission-safe way.
//
// A closed-loop client waits for each response before sending the next
// request, so when the server stalls the client *stops offering load* —
// the stall keeps requests that would have arrived out of the latency
// sample entirely, and the reported percentiles can be off by orders of
// magnitude (Tene's "coordinated omission"). Real traffic does not
// coordinate: requests keep arriving on their own schedule whether or
// not the server is keeping up.
//
// ReplayTrace therefore:
//   * takes the arrival schedule from the trace, not from the engine's
//     responsiveness — each worker of a fixed pool takes the next record
//     from one shared cursor and sleeps until its scheduled arrival, so
//     a slow answer holds up only its own worker while the others keep
//     taking records;
//   * measures every latency from the SCHEDULED arrival time to
//     completion, so time a request spent waiting for a free worker
//     counts against the engine, exactly as a queueing client would
//     experience it;
//   * reports backlog honestly: late_dispatches counts requests a worker
//     could not send on time (dispatch > 1 ms after schedule) and
//     max_lateness_ms the worst such lag. High lateness with low
//     engine-side latency means the replay harness itself saturated —
//     add workers or lower target_qps; the quantiles remain honest
//     (lateness is inside them) either way.
//
// Quantiles are EXACT (sorted per-request samples, nearest-rank), not
// histogram-bucket approximations — trajectory points published to
// BENCH_serve.json should not move when telemetry bucket boundaries do.
// Outcomes are split by the engine's error contract: ok / degraded /
// shed ("overloaded") / expired ("deadline exceeded") / failed (other).

#ifndef DGNN_SERVE_REPLAY_H_
#define DGNN_SERVE_REPLAY_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "serve/engine.h"
#include "serve/trace.h"

namespace dgnn::serve {

struct ReplayConfig {
  // Dispatch threads. The schedule does not change with the worker
  // count — only the harness's ability to keep up with it does.
  int workers = 4;
};

struct ReplayResult {
  int64_t requests = 0;
  // First scheduled arrival to last completion.
  double seconds = 0.0;
  // Rate the trace asked for (requests / trace span) vs the rate of
  // successful responses actually delivered.
  double offered_qps = 0.0;
  double achieved_qps = 0.0;
  // Scheduled-arrival-to-completion latency, exact nearest-rank.
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  double mean_ms = 0.0;
  // Outcome split (requests = ok + shed + expired + failed; degraded is
  // a subset of ok).
  int64_t ok = 0;
  int64_t degraded = 0;
  int64_t shed = 0;      // engine error "overloaded"
  int64_t expired = 0;   // engine error "deadline exceeded"
  int64_t failed = 0;    // any other ok=false response
  // Harness backlog accounting (see header comment).
  int64_t late_dispatches = 0;
  double max_lateness_ms = 0.0;
  // Distinct Response::trace_id values observed across all responses
  // (shed included — ids are assigned at admission). Equals `requests`
  // when per-request tracing is sound; a smaller value means ids were
  // reused or lost, e.g. across a hot swap.
  int64_t distinct_trace_ids = 0;
  // ru_maxrss at the end of the replay, in bytes (process-wide peak).
  int64_t peak_rss_bytes = 0;
};

// Replays `records` (arrival-sorted, as ReadTrace guarantees) against
// the engine. Blocking: returns when every record has completed.
ReplayResult ReplayTrace(ServingEngine& engine,
                         const std::vector<TraceRecord>& records,
                         const ReplayConfig& config);

// Handler-generic overload: any Request -> Response function (must be
// thread-safe — up to `workers` concurrent calls) can sit behind the
// same coordinated-omission-safe schedule. The sharded router replays
// traces through this, classifying outcomes by the identical error
// contract ("overloaded" / "deadline exceeded" / other).
using ReplayHandler = std::function<Response(const Request&)>;
ReplayResult ReplayTrace(const ReplayHandler& handler,
                         const std::vector<TraceRecord>& records,
                         const ReplayConfig& config);

// Process-wide peak resident set size in bytes (getrusage ru_maxrss);
// exposed for benches that report memory alongside latency.
int64_t PeakRssBytes();

}  // namespace dgnn::serve

#endif  // DGNN_SERVE_REPLAY_H_
