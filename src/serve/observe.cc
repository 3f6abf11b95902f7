#include "serve/observe.h"

#include <string>
#include <vector>

namespace dgnn::serve::observe {
namespace {

// The flat counter fields every stats payload must carry; order is the
// exposition order. Older payloads also carry batches, cache_hits and
// cache_misses, which validation ignores.
constexpr const char* kCounterFields[] = {
    "requests",      "snapshot_swaps",   "degraded_requests",
    "shed_requests", "expired_requests", "failed_requests",
};

constexpr const char* kWindowNames[] = {"1s", "10s", "60s"};

// Window gauges exposed to Prometheus (a subset of WindowJson — rates
// and quantiles; the raw per-window counts are derivable from the
// *_total counters by the scraper).
constexpr const char* kWindowGauges[] = {
    "qps",         "availability",   "p50_ms",
    "p95_ms",      "p99_ms",         "mean_ms",
    "queue_depth", "p99_violations", "availability_violations",
};

std::string FormatNumber(double v) {
  // Integers print without a fraction so counter samples look like
  // counters; everything else uses the round-trip double format.
  const auto as_int = static_cast<int64_t>(v);
  if (static_cast<double>(as_int) == v) return std::to_string(as_int);
  return util::JsonDouble(v);
}

}  // namespace

std::string WindowJson(
    const telemetry::WindowedStats::WindowAggregate& w) {
  util::JsonObject o;
  o.Set("ticks", static_cast<int64_t>(w.ticks))
      .Set("seconds", w.seconds)
      .Set("requests", w.requests)
      .Set("ok", w.ok)
      .Set("shed", w.shed)
      .Set("expired", w.expired)
      .Set("failed", w.failed)
      .Set("degraded", w.degraded)
      .Set("swaps", w.swaps)
      .Set("queue_depth", w.queue_depth)
      .Set("qps", w.qps)
      .Set("availability", w.availability)
      .Set("p50_ms", w.p50_ms)
      .Set("p95_ms", w.p95_ms)
      .Set("p99_ms", w.p99_ms)
      .Set("mean_ms", w.mean_ms)
      .Set("p99_violations", static_cast<int64_t>(w.p99_violations))
      .Set("availability_violations",
           static_cast<int64_t>(w.availability_violations));
  return o.Build();
}

void AppendStatsFields(const ServingEngine& engine, util::JsonObject* o) {
  const EngineStats s = engine.stats();
  o->Set("requests", s.requests)
      .Set("snapshot_swaps", s.snapshot_swaps)
      .Set("degraded_requests", s.degraded_requests)
      .Set("shed_requests", s.shed_requests)
      .Set("expired_requests", s.expired_requests)
      .Set("failed_requests", s.failed_requests);
  const telemetry::WindowedStats& w = engine.windows();
  util::JsonObject windows;
  windows.SetRaw("1s", WindowJson(w.Aggregate(1)))
      .SetRaw("10s", WindowJson(w.Aggregate(10)))
      .SetRaw("60s", WindowJson(w.Aggregate(60)));
  o->SetRaw("windows", windows.Build());
  util::JsonObject slo;
  slo.Set("p99_ms", w.config().slo_p99_ms)
      .Set("availability", w.config().slo_availability)
      .Set("ticks", w.total_ticks())
      .Set("p99_violation_ticks", w.total_p99_violations())
      .Set("availability_violation_ticks",
           w.total_availability_violations());
  o->SetRaw("slo", slo.Build());
}

std::string StatsJson(const ServingEngine& engine) {
  util::JsonObject o;
  AppendStatsFields(engine, &o);
  return o.Build();
}

std::string RequestTraceJson(const RequestTrace& t) {
  util::JsonObject o;
  o.Set("trace_id", t.trace_id)
      .Set("ts_us", t.ts_us)
      .Set("type", t.type)
      .Set("outcome", t.outcome)
      .Set("user", static_cast<int64_t>(t.user))
      .Set("k", static_cast<int64_t>(t.k))
      .Set("snapshot_version", t.snapshot_version)
      .Set("degraded", t.degraded)
      .Set("queue_s", t.queue_seconds)
      .Set("recal_s", t.recal_seconds)
      .Set("compute_s", t.compute_seconds)
      .Set("rank_s", t.rank_seconds)
      .Set("reply_s", t.reply_seconds)
      .Set("total_s", t.total_seconds);
  return o.Build();
}

util::Status ValidateStatsJson(const std::string& stats_json) {
  auto parsed = util::ParseJson(stats_json);
  if (!parsed.ok()) return parsed.status();
  const util::JsonValue& v = parsed.value();
  if (!v.is_object()) {
    return util::Status::InvalidArgument("stats payload is not an object");
  }
  for (const char* field : kCounterFields) {
    const util::JsonValue* f = v.Find(field);
    if (f == nullptr || !f->is_number()) {
      return util::Status::InvalidArgument(
          std::string("stats payload missing numeric field '") + field +
          "'");
    }
  }
  const util::JsonValue* windows = v.Find("windows");
  if (windows == nullptr || !windows->is_object()) {
    return util::Status::InvalidArgument(
        "stats payload missing \"windows\" object");
  }
  for (const char* name : kWindowNames) {
    const util::JsonValue* w = windows->Find(name);
    if (w == nullptr || !w->is_object()) {
      return util::Status::InvalidArgument(
          std::string("\"windows\" missing window '") + name + "'");
    }
    for (const char* g : kWindowGauges) {
      const util::JsonValue* f = w->Find(g);
      if (f == nullptr || !f->is_number()) {
        return util::Status::InvalidArgument(
            std::string("window '") + name +
            "' missing numeric field '" + g + "'");
      }
    }
  }
  const util::JsonValue* slo = v.Find("slo");
  if (slo == nullptr || !slo->is_object()) {
    return util::Status::InvalidArgument(
        "stats payload missing \"slo\" object");
  }
  return util::Status::Ok();
}

util::StatusOr<std::string> PromTextFromStatsJson(
    const std::string& stats_json) {
  util::Status valid = ValidateStatsJson(stats_json);
  if (!valid.ok()) return valid;
  auto parsed = util::ParseJson(stats_json);
  if (!parsed.ok()) return parsed.status();
  const util::JsonValue& v = parsed.value();
  std::string out;
  out.reserve(2048);
  for (const char* field : kCounterFields) {
    const std::string metric = std::string("dgnn_serve_") + field + "_total";
    out += "# TYPE " + metric + " counter\n";
    out += metric + " " + FormatNumber(v.NumberOr(field, 0.0)) + "\n";
  }
  const util::JsonValue* windows = v.Find("windows");
  for (const char* g : kWindowGauges) {
    const std::string metric = std::string("dgnn_serve_window_") + g;
    out += "# TYPE " + metric + " gauge\n";
    for (const char* name : kWindowNames) {
      const util::JsonValue* w = windows->Find(name);
      out += metric + "{window=\"" + name + "\"} " +
             FormatNumber(w->NumberOr(g, 0.0)) + "\n";
    }
  }
  const util::JsonValue* slo = v.Find("slo");
  const struct { const char* field; const char* metric; } slo_counters[] = {
      {"ticks", "dgnn_serve_slo_ticks_total"},
      {"p99_violation_ticks", "dgnn_serve_slo_p99_violation_ticks_total"},
      {"availability_violation_ticks",
       "dgnn_serve_slo_availability_violation_ticks_total"},
  };
  for (const auto& c : slo_counters) {
    out += std::string("# TYPE ") + c.metric + " counter\n";
    out += std::string(c.metric) + " " +
           FormatNumber(slo->NumberOr(c.field, 0.0)) + "\n";
  }
  return out;
}

util::Status JsonlAppender::Open(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  out_.open(path, std::ios::app);
  if (!out_.is_open()) {
    return util::Status::NotFound("cannot open for append: " + path);
  }
  active_ = true;
  return util::Status::Ok();
}

void JsonlAppender::Append(const std::string& line) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!active_) return;
  out_ << line << '\n';
  // Flush per line: a crash mid-run leaves a valid JSONL prefix.
  out_.flush();
}

bool JsonlAppender::active() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_;
}

void JsonlAppender::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!active_) return;
  out_.flush();
  out_.close();
  active_ = false;
}

}  // namespace dgnn::serve::observe
