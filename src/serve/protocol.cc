#include "serve/protocol.h"

#include <csignal>
#include <cstring>
#include <limits>
#include <thread>

#include "serve/trace.h"

namespace dgnn::serve {
namespace {

using util::JsonObject;
using util::JsonValue;
using util::Status;

volatile std::sig_atomic_t g_shutdown_requested = 0;
void OnShutdown(int) { g_shutdown_requested = 1; }

// Reads number field `key` into *out when present. The range test comes
// before the cast: casting a double that does not fit is undefined.
Status ReadInt(const JsonValue& req, const char* key, int64_t lo, int64_t hi,
               int64_t* out) {
  const JsonValue* v = req.Find(key);
  if (v == nullptr || !v->is_number()) return Status::Ok();
  if (!(v->number >= static_cast<double>(lo) &&
        v->number <= static_cast<double>(hi))) {
    return Status::OutOfRange("\"" + std::string(key) + "\" must be in [" +
                              std::to_string(lo) + ", " + std::to_string(hi) +
                              "]");
  }
  *out = static_cast<int64_t>(v->number);
  return Status::Ok();
}

// Answers one parsed request through the backend's own ops, then the
// shared ones.
std::string Dispatch(Backend& backend, const JsonValue& req,
                     const std::string& op) {
  std::string out;
  if (backend.HandleOp(req, op, &out)) return out;
  if (op == "swap") {
    const std::string path = req.StringOr("snapshot", "");
    if (path.empty()) return ErrorLine("swap requires a \"snapshot\" path");
    return SwapLine(op, backend.Swap(path));
  }
  if (op == "stats") return backend.Stats();

  Request request;
  if (op == "topk") {
    request.type = Request::Type::kTopK;
  } else if (op == "score") {
    request.type = Request::Type::kScore;
  } else if (op == "similar_users") {
    request.type = Request::Type::kSimilarUsers;
  } else {
    return ErrorLine("unknown op '" + op + "'");
  }
  request.user = -1;
  request.item = -1;
  const Status fields = ReadRequestFields(req, &request);
  if (!fields.ok()) return ErrorLine(fields.message());
  return ResponseLine(op, request, backend.Handle(request));
}

util::StatusOr<JsonValue> ParseLine(const std::string& line) {
  auto parsed = util::ParseJson(line);
  if (!parsed.ok()) {
    return Status::InvalidArgument("request is not valid JSON: " +
                                   parsed.status().message());
  }
  return parsed;
}

}  // namespace

std::string ItemsJson(const std::vector<ScoredItem>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ",";
    out += "{\"item\":" + std::to_string(items[i].item) + ",\"score\":" +
           util::JsonDouble(static_cast<double>(items[i].score)) + "}";
  }
  out += "]";
  return out;
}

std::string ErrorLine(const std::string& message) {
  JsonObject o;
  o.Set("ok", false).Set("error", message);
  return o.Build();
}

std::string ResponseLine(const std::string& op, const Request& request,
                         const Response& resp) {
  JsonObject o;
  if (!resp.ok) {
    o.Set("ok", false).Set("error", resp.error).Set("trace_id",
                                                    resp.trace_id);
    return o.Build();
  }
  o.Set("ok", true)
      .Set("op", op)
      .Set("user", static_cast<int64_t>(request.user))
      .Set("trace_id", resp.trace_id)
      .Set("degraded", resp.degraded)
      .Set("snapshot_version", resp.snapshot_version);
  if (request.type == Request::Type::kScore) {
    o.Set("item", static_cast<int64_t>(request.item))
        .Set("score", static_cast<double>(resp.score));
  } else {
    o.Set("k", static_cast<int64_t>(request.k))
        .SetRaw("items", ItemsJson(resp.items));
  }
  if (!resp.missing_shards.empty()) {
    std::string missing = "[";
    for (size_t i = 0; i < resp.missing_shards.size(); ++i) {
      if (i > 0) missing += ",";
      missing += std::to_string(resp.missing_shards[i]);
    }
    o.SetRaw("missing_shards", missing + "]");
  }
  return o.Build();
}

std::string SwapLine(const std::string& op,
                     const util::StatusOr<int64_t>& version) {
  if (!version.ok()) return ErrorLine(version.status().ToString());
  JsonObject o;
  o.Set("ok", true).Set("op", op).Set("snapshot_version", version.value());
  return o.Build();
}

Status ReadRequestFields(const JsonValue& req, Request* request) {
  constexpr int64_t kMin32 = std::numeric_limits<int32_t>::min();
  constexpr int64_t kMax32 = std::numeric_limits<int32_t>::max();
  int64_t user = request->user;
  int64_t item = request->item;
  int64_t k = request->k;
  int64_t deadline_ms = request->timeout_ms;
  Status st = ReadInt(req, "user", kMin32, kMax32, &user);
  if (st.ok()) st = ReadInt(req, "item", kMin32, kMax32, &item);
  if (st.ok()) st = ReadInt(req, "k", kMin32, kMax32, &k);
  if (st.ok()) {
    st = ReadInt(req, "deadline_ms", -kMaxDeadlineMs, kMaxDeadlineMs,
                 &deadline_ms);
  }
  if (!st.ok()) return st;
  request->user = static_cast<int32_t>(user);
  request->item = static_cast<int32_t>(item);
  request->k = static_cast<int>(k);
  request->timeout_ms = deadline_ms;
  return Status::Ok();
}

std::string HandleLine(Backend& backend, const std::string& line) {
  auto parsed = ParseLine(line);
  if (!parsed.ok()) return ErrorLine(parsed.status().message());
  return Dispatch(backend, parsed.value(),
                  parsed.value().StringOr("op", ""));
}

const char* ServeLines(Backend& backend, std::istream& in,
                       std::ostream& out) {
  g_shutdown_requested = 0;
  struct sigaction shutdown_action;
  std::memset(&shutdown_action, 0, sizeof(shutdown_action));
  shutdown_action.sa_handler = OnShutdown;
  sigemptyset(&shutdown_action.sa_mask);
  shutdown_action.sa_flags = 0;
  sigaction(SIGTERM, &shutdown_action, nullptr);
  sigaction(SIGINT, &shutdown_action, nullptr);

  std::string line;
  while (!g_shutdown_requested && std::getline(in, line)) {
    if (g_shutdown_requested) break;
    if (line.empty()) continue;
    auto parsed = ParseLine(line);
    if (!parsed.ok()) {
      out << ErrorLine(parsed.status().message()) << '\n' << std::flush;
      continue;
    }
    const std::string op = parsed.value().StringOr("op", "");
    if (op == "quit") {
      JsonObject o;
      o.Set("ok", true).Set("op", op);
      out << o.Build() << '\n' << std::flush;
      return "quit";
    }
    out << Dispatch(backend, parsed.value(), op) << '\n' << std::flush;
  }
  return g_shutdown_requested ? "signal" : "eof";
}

std::string RunBurst(Backend& backend, const JsonValue& req) {
  int64_t n = 0;
  if (!ReadInt(req, "n", 1, kMaxBurst, &n).ok() || n < 1) {
    return ErrorLine("burst requires \"n\" in [1, " +
                     std::to_string(kMaxBurst) + "]");
  }
  Request base;
  base.type = Request::Type::kTopK;
  const Status fields = ReadRequestFields(req, &base);
  if (!fields.ok()) return ErrorLine(fields.message());
  std::vector<Response> responses(static_cast<size_t>(n));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(n));
  for (size_t i = 0; i < responses.size(); ++i) {
    threads.emplace_back([&backend, &responses, &base, i] {
      responses[i] = backend.Handle(base);
    });
  }
  for (auto& t : threads) t.join();
  int64_t completed = 0, shed = 0, expired = 0, failed = 0;
  for (const auto& r : responses) {
    if (r.ok) {
      ++completed;
    } else if (r.error == "overloaded") {
      ++shed;
    } else if (r.error == "deadline exceeded") {
      ++expired;
    } else {
      ++failed;
    }
  }
  JsonObject o;
  o.Set("ok", true)
      .Set("op", "burst")
      .Set("n", n)
      .Set("completed", completed)
      .Set("shed", shed)
      .Set("expired", expired)
      .Set("failed", failed);
  return o.Build();
}

util::StatusOr<ReplayResult> ReplayTraceFile(Backend& backend,
                                             const std::string& path,
                                             int workers) {
  auto trace = ReadTrace(path);
  if (!trace.ok()) return trace.status();
  ReplayConfig config;
  config.workers = workers;
  return ReplayTrace(
      [&backend](const Request& request) { return backend.Handle(request); },
      trace.value().records, config);
}

JsonObject ReplaySummary(const ReplayResult& r) {
  JsonObject o;
  o.Set("ok", true)
      .Set("op", "replay")
      .Set("requests", r.requests)
      .Set("seconds", r.seconds)
      .Set("offered_qps", r.offered_qps)
      .Set("achieved_qps", r.achieved_qps)
      .Set("p50_ms", r.p50_ms)
      .Set("p95_ms", r.p95_ms)
      .Set("p99_ms", r.p99_ms)
      .Set("completed", r.ok)
      .Set("degraded", r.degraded)
      .Set("shed", r.shed)
      .Set("expired", r.expired)
      .Set("failed", r.failed)
      .Set("late_dispatches", r.late_dispatches)
      .Set("distinct_trace_ids", r.distinct_trace_ids)
      .Set("peak_rss_bytes", r.peak_rss_bytes);
  return o;
}

}  // namespace dgnn::serve
