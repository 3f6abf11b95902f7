// The client NDJSON protocol, written once for every front door:
// dgnn_serve's stdin, dgnn_router's stdin and a shard worker's socket
// (shard::ShardService::HandleLine) parse requests, shape responses and
// run their stdin loop here. What differs between them sits behind
// serve::Backend: who answers a scoring request, what a swap does, what
// stats report, and which extra ops the front door serves.
//
// Requests (one JSON object per line):
//   {"op":"topk","user":3,"k":10}
//   {"op":"score","user":3,"item":7}
//   {"op":"similar_users","user":3,"k":5}
//   {"op":"swap","snapshot":"other.snap"}
//   {"op":"stats"}
//   {"op":"quit"}          stdin only: acknowledge and end the loop
//
// Scoring requests accept "deadline_ms" (0 = the backend's default,
// -1 = explicitly none). user, item and k must fit in int32 and
// deadline_ms in [-kMaxDeadlineMs, kMaxDeadlineMs]; a value outside its
// range is refused with an ok:false line that names the field (casting
// it would be undefined, and a huge deadline overflows the clock sum).
//
// Responses, one line per request, in order:
//   {"ok":true,"op":"topk","user":3,"trace_id":1,"degraded":false,
//    "snapshot_version":1,"k":3,"items":[{"item":57,"score":2.5},...]}
//   {"ok":true,"op":"score","user":3,"trace_id":2,"degraded":false,
//    "snapshot_version":1,"item":7,"score":1.25}
//   ... "missing_shards":[i,...] follows "items" only when a routed
//   answer lost (or substituted) a shard's slice;
//   {"ok":true,"op":"swap","snapshot_version":2}
//   {"ok":false,"error":"...","trace_id":7}   the backend refused it
//   {"ok":false,"error":"..."}                the line itself was refused
//
// Scores print as %.17g, which round-trips every float exactly, so two
// front doors that compute the same floats print the same bytes.

#ifndef DGNN_SERVE_PROTOCOL_H_
#define DGNN_SERVE_PROTOCOL_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "serve/engine.h"
#include "serve/replay.h"
#include "util/json.h"
#include "util/status.h"

namespace dgnn::serve {

// {"op":"burst","n":N} starts one thread per request; N is capped here.
inline constexpr int kMaxBurst = 256;

// What a front door serves the protocol over.
class Backend {
 public:
  virtual ~Backend() = default;
  // Answers one scoring request. Thread-safe: burst and replay call it
  // from many threads at once.
  virtual Response Handle(const Request& request) = 0;
  // {"op":"swap","snapshot":P}: moves to the snapshot at P and returns
  // the version now served.
  virtual util::StatusOr<int64_t> Swap(const std::string& path) = 0;
  // The complete {"op":"stats"} response line.
  virtual std::string Stats() = 0;
  // Ops beyond the shared set, tried before it on every request line;
  // returns false when `op` is not one of them.
  virtual bool HandleOp(const util::JsonValue& /*req*/,
                        const std::string& /*op*/, std::string* /*out*/) {
    return false;
  }
};

// '[{"item":N,"score":S},...]' with exact float round-trip.
std::string ItemsJson(const std::vector<ScoredItem>& items);

// {"ok":false,"error":message}.
std::string ErrorLine(const std::string& message);

// The response line for a scoring request `op` that `request` asked and
// `resp` answers (ok or not).
std::string ResponseLine(const std::string& op, const Request& request,
                         const Response& resp);

// The response line of a swap-shaped op ("swap", dgnn_serve's "reload").
std::string SwapLine(const std::string& op,
                     const util::StatusOr<int64_t>& version);

// Reads user, item, k and deadline_ms from `req` into *request; absent
// or non-number fields keep *request's values. Fails, naming the field,
// when a value is out of range (see the header comment).
util::Status ReadRequestFields(const util::JsonValue& req, Request* request);

// Answers one request line. "quit" is not served here: a socket
// connection cannot end the process.
std::string HandleLine(Backend& backend, const std::string& line);

// Serves `in` line by line, one response line to `out` per request,
// until EOF, {"op":"quit"} or SIGTERM/SIGINT. Blank lines are skipped.
// The signal handlers go in without SA_RESTART, so a blocking read is
// interrupted and the caller can drain. Returns "eof", "quit" or
// "signal".
const char* ServeLines(Backend& backend, std::istream& in, std::ostream& out);

// {"op":"burst","n":N,"user":U,"k":K,"deadline_ms":T}: N concurrent topk
// calls through `backend` (N in [1, kMaxBurst], refused before any
// thread starts), reported as completed / shed / expired / failed.
std::string RunBurst(Backend& backend, const util::JsonValue& req);

// Replays the trace file at `path` open-loop through `backend` (see
// serve/replay.h).
util::StatusOr<ReplayResult> ReplayTraceFile(Backend& backend,
                                             const std::string& path,
                                             int workers);

// The --replay-trace summary line's fields; callers may append more
// before Build().
util::JsonObject ReplaySummary(const ReplayResult& r);

}  // namespace dgnn::serve

#endif  // DGNN_SERVE_PROTOCOL_H_
