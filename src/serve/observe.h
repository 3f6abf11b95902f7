// Exposition surface over the serving observability plane: renders a
// ServingEngine's counters + rolling windows + SLO burn accounting as a
// JSON snapshot, the same snapshot as Prometheus text-format
// exposition, and sampled RequestTrace records as NDJSON lines — shared
// by dgnn_serve (the `stats` op, `--stats-out`, `--request-log`) and
// dgnn_inspect (`stats` / `watch` render the same payloads offline).
//
// The Prometheus renderer takes the JSON snapshot as INPUT rather than
// the engine, so `{"op":"stats","format":"prom"}` on a live server and
// `dgnn_inspect stats --prom` over a stats JSONL file are one code path
// and round-trip by construction.

#ifndef DGNN_SERVE_OBSERVE_H_
#define DGNN_SERVE_OBSERVE_H_

#include <fstream>
#include <mutex>
#include <string>

#include "serve/engine.h"
#include "util/json.h"
#include "util/status.h"

namespace dgnn::serve::observe {

// Appends the stats payload fields to `o`: the flat EngineStats
// counters (requests, snapshot_swaps and the outcome counts), then
// "windows" ({"1s":{...},"10s":{...},"60s":{...}}) and "slo". Callers
// add protocol fields (ok/op) or a timestamp themselves.
void AppendStatsFields(const ServingEngine& engine, util::JsonObject* o);

// The standalone snapshot object ("{...}") — the --stats-out JSONL
// line body and the dgnn_inspect input format.
std::string StatsJson(const ServingEngine& engine);

// One window aggregate as a JSON object.
std::string WindowJson(
    const telemetry::WindowedStats::WindowAggregate& w);

// One sampled per-request trace record as a JSON object (the
// --request-log NDJSON line body). Stage fields are seconds, matching
// the serve.stage.* histogram units; ts_us is the admission timestamp
// on the chrome-trace epoch clock.
std::string RequestTraceJson(const RequestTrace& t);

// Prometheus text-format exposition rendered from a StatsJson payload.
// Fails (rather than emitting partial text) when `stats_json` is not a
// JSON object or lacks the flat counter fields.
util::StatusOr<std::string> PromTextFromStatsJson(
    const std::string& stats_json);

// Validates one stats JSONL line: must parse as a JSON object and carry
// the flat counters plus a well-formed "windows" object. Returns the
// first problem found; used by `dgnn_inspect stats` and the CI gate's
// corrupted-file must-fail check.
util::Status ValidateStatsJson(const std::string& stats_json);

// Crash-safe JSONL appender (run-log idiom: plain append + flush per
// line, so a SIGKILL leaves a valid prefix — unlike fs::AppendWriter,
// which only publishes on Close). Thread-safe; Append before Open or
// after Close is a silent no-op.
class JsonlAppender {
 public:
  util::Status Open(const std::string& path);
  void Append(const std::string& line);
  bool active() const;
  void Close();

 private:
  mutable std::mutex mu_;
  std::ofstream out_;
  bool active_ = false;
};

}  // namespace dgnn::serve::observe

#endif  // DGNN_SERVE_OBSERVE_H_
