// Line-oriented Unix-domain-socket transport for router <-> shard RPCs.
//
// The protocol is exactly the NDJSON dgnn_serve already speaks on stdin:
// one JSON request per line in, one JSON response per line out. Keeping
// the framing identical means the shard worker reuses the single-process
// dispatch code verbatim, and every message is inspectable with a shell.
//
// Error taxonomy (what the router's retry policy keys on):
//  - kInternal      — connection-level failures: refused/failed connect,
//                     peer reset, unexpected EOF. Transient by contract;
//                     the router retries these.
//  - kDeadlineExceeded — the caller's deadline passed first. NEVER
//                     retried (the budget is gone); the router maps it
//                     to a missing-shard degradation instead.

#ifndef DGNN_SHARD_TRANSPORT_H_
#define DGNN_SHARD_TRANSPORT_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/status.h"

namespace dgnn::shard {

using TimePoint = std::chrono::steady_clock::time_point;

// Milliseconds until `deadline` as a poll() timeout: rounded up, clamped
// to an int, 0 once it has passed.
int PollTimeoutMs(TimePoint deadline);

// Client side: one connection, one outstanding request at a time. Not
// thread-safe; the router keeps a pool and hands a connection to a
// single call at a time.
class ShardConn {
 public:
  ~ShardConn();
  ShardConn(const ShardConn&) = delete;
  ShardConn& operator=(const ShardConn&) = delete;

  // Connects to a listening SocketServer; kInternal on refusal/timeout
  // (a worker that is down or still starting).
  static util::StatusOr<std::unique_ptr<ShardConn>> Connect(
      const std::string& path, int timeout_ms);

  // Writes `line` (newline appended). kInternal on reset — the
  // connection is dead and must be discarded; kDeadlineExceeded when the
  // socket stays full past `deadline`.
  util::Status Send(const std::string& line, TimePoint deadline);

  // Reads what has arrived without blocking: true with *line set
  // (newline stripped) once a whole response line is in, false while
  // more bytes are due (poll fd() for POLLIN), kInternal on reset/EOF.
  util::StatusOr<bool> ReadLine(std::string* line);

  // Send, then block for the response line. A failed call leaves the
  // connection dead or desynced (a late reply may still arrive), so the
  // caller must discard it.
  util::StatusOr<std::string> Call(const std::string& line,
                                   TimePoint deadline);

  int fd() const { return fd_; }

 private:
  explicit ShardConn(int fd) : fd_(fd) {}
  int fd_ = -1;
  std::string rdbuf_;
  size_t scanned_ = 0;  // bytes of rdbuf_ already searched for '\n'
};

// Worker side: accepts connections and runs `handler` per request line
// on a per-connection thread. Responses must be single-line JSON (the
// handler's result has any trailing newline stripped before framing).
// A connection whose peer goes away closes its fd at once, and the
// accept loop joins its thread, so a long-lived worker holds only its
// live connections however many come and go.
class SocketServer {
 public:
  using Handler = std::function<std::string(const std::string& line)>;

  SocketServer() = default;
  ~SocketServer();
  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  // Binds `path` (unlinking any stale socket first) and starts the
  // accept loop. `handler` may be called from many threads at once.
  util::Status Start(const std::string& path, Handler handler);

  // Stops accepting, wakes every connection (in-progress requests finish
  // and their responses are written), joins all threads, unlinks the
  // socket path. Idempotent.
  void Stop();

  bool running() const {
    return running_.load(std::memory_order_acquire);
  }

 private:
  struct Conn {
    int fd = -1;
    std::thread thread;
  };

  void AcceptLoop();
  // Serves request lines on `fd` until the peer goes away or Stop().
  void ConnLoop(int fd);
  // The end of connection `id`'s thread: closes its fd and parks the
  // thread in finished_ for the accept loop (or Stop) to join.
  void EndConn(uint64_t id);

  std::string path_;
  Handler handler_;
  int listen_fd_ = -1;
  std::atomic<bool> running_{false};
  std::thread accept_thread_;
  std::mutex conns_mu_;
  std::condition_variable conns_cv_;  // signalled when a connection ends
  uint64_t next_conn_id_ = 0;
  std::map<uint64_t, Conn> conns_;    // live connections
  std::vector<std::thread> finished_;  // ended, not yet joined
};

}  // namespace dgnn::shard

#endif  // DGNN_SHARD_TRANSPORT_H_
