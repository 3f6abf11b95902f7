#include "shard/transport.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>

namespace dgnn::shard {
namespace {

using util::Status;
using util::StatusOr;

Status FillAddr(const std::string& path, sockaddr_un* addr) {
  if (path.size() >= sizeof(addr->sun_path)) {
    return Status::InvalidArgument("socket path too long: " + path);
  }
  memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return Status::Ok();
}

}  // namespace

int PollTimeoutMs(TimePoint deadline) {
  const auto now = std::chrono::steady_clock::now();
  if (now >= deadline) return 0;
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      deadline - now)
                      .count();
  // poll() takes an int; clamp instead of overflowing on "no deadline"
  // sentinels far in the future.
  return static_cast<int>(std::min<int64_t>(ms + 1, 1 << 30));
}

ShardConn::~ShardConn() {
  if (fd_ >= 0) close(fd_);
}

StatusOr<std::unique_ptr<ShardConn>> ShardConn::Connect(
    const std::string& path, int timeout_ms) {
  sockaddr_un addr;
  DGNN_RETURN_IF_ERROR(FillAddr(path, &addr));
  const int fd = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + strerror(errno));
  }
  // Non-blocking from the start so connect and every later read/write
  // can be bounded by poll().
  const int flags = fcntl(fd, F_GETFL, 0);
  fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EINPROGRESS && errno != EAGAIN) {
      const std::string err = strerror(errno);
      close(fd);
      return Status::Internal("connect " + path + ": " + err);
    }
    pollfd p{fd, POLLOUT, 0};
    const int rc = poll(&p, 1, std::max(timeout_ms, 0));
    if (rc <= 0) {
      close(fd);
      return Status::Internal("connect " + path + ": timed out");
    }
    int err = 0;
    socklen_t len = sizeof(err);
    getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      close(fd);
      return Status::Internal("connect " + path + ": " + strerror(err));
    }
  }
  return std::unique_ptr<ShardConn>(new ShardConn(fd));
}

Status ShardConn::Send(const std::string& line, TimePoint deadline) {
  std::string msg = line;
  msg.push_back('\n');
  size_t written = 0;
  while (written < msg.size()) {
    // MSG_NOSIGNAL: a peer killed mid-conversation must surface as EPIPE
    // (-> kInternal -> retry/degrade), never as a process-wide SIGPIPE.
    const ssize_t n = send(fd_, msg.data() + written,
                           msg.size() - written, MSG_NOSIGNAL);
    if (n > 0) {
      written += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const int wait = PollTimeoutMs(deadline);
      if (wait == 0) return Status::DeadlineExceeded("shard call write");
      pollfd p{fd_, POLLOUT, 0};
      if (poll(&p, 1, wait) <= 0) {
        return Status::DeadlineExceeded("shard call write");
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Status::Internal(std::string("shard write: ") +
                            (n < 0 ? strerror(errno) : "short write"));
  }
  return Status::Ok();
}

StatusOr<bool> ShardConn::ReadLine(std::string* line) {
  // rdbuf_ survives across calls; with one outstanding request per
  // connection it only ever holds a prefix of the next response.
  for (;;) {
    const size_t nl = rdbuf_.find('\n');
    if (nl != std::string::npos) {
      line->assign(rdbuf_, 0, nl);
      rdbuf_.erase(0, nl + 1);
      return true;
    }
    char buf[4096];
    const ssize_t n = read(fd_, buf, sizeof(buf));
    if (n > 0) {
      rdbuf_.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) return Status::Internal("shard connection closed");
    if (errno == EAGAIN || errno == EWOULDBLOCK) return false;
    if (errno == EINTR) continue;
    return Status::Internal(std::string("shard read: ") + strerror(errno));
  }
}

StatusOr<std::string> ShardConn::Call(const std::string& line,
                                      TimePoint deadline) {
  DGNN_RETURN_IF_ERROR(Send(line, deadline));
  std::string reply;
  for (;;) {
    auto got = ReadLine(&reply);
    if (!got.ok()) return got.status();
    if (got.value()) return reply;
    const int wait = PollTimeoutMs(deadline);
    pollfd p{fd_, POLLIN, 0};
    if (wait == 0 || poll(&p, 1, wait) <= 0) {
      return Status::DeadlineExceeded("shard call read");
    }
  }
}

SocketServer::~SocketServer() { Stop(); }

util::Status SocketServer::Start(const std::string& path, Handler handler) {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("socket server already running");
  }
  sockaddr_un addr;
  DGNN_RETURN_IF_ERROR(FillAddr(path, &addr));
  const int fd = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + strerror(errno));
  }
  unlink(path.c_str());  // a stale socket from a killed worker
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = strerror(errno);
    close(fd);
    return Status::Internal("bind " + path + ": " + err);
  }
  if (listen(fd, 64) != 0) {
    const std::string err = strerror(errno);
    close(fd);
    return Status::Internal("listen " + path + ": " + err);
  }
  path_ = path;
  handler_ = std::move(handler);
  listen_fd_ = fd;
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void SocketServer::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    const int fd = accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Out of descriptors or memory: the pending connection stays
        // queued; retry once live connections have had time to end.
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      // Stop() shut the listener down (EBADF/EINVAL) — or something is
      // wrong enough that looping would spin; either way, exit.
      return;
    }
    std::vector<std::thread> ended;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      if (!running_.load(std::memory_order_acquire)) {
        close(fd);
        return;
      }
      ended.swap(finished_);
      const uint64_t id = next_conn_id_++;
      Conn& conn = conns_[id];
      conn.fd = fd;
      conn.thread = std::thread([this, id, fd] {
        ConnLoop(fd);
        EndConn(id);
      });
    }
    for (std::thread& t : ended) t.join();
  }
}

void SocketServer::EndConn(uint64_t id) {
  std::lock_guard<std::mutex> lock(conns_mu_);
  auto it = conns_.find(id);
  // Closed under the lock, so Stop() never shuts down a reused fd number.
  close(it->second.fd);
  finished_.push_back(std::move(it->second.thread));
  conns_.erase(it);
  conns_cv_.notify_all();
}

void SocketServer::ConnLoop(int fd) {
  std::string buf;
  char chunk[4096];
  for (;;) {
    const size_t nl = buf.find('\n');
    if (nl != std::string::npos) {
      std::string line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      if (line.empty()) continue;
      std::string resp = handler_(line);
      while (!resp.empty() && resp.back() == '\n') resp.pop_back();
      resp.push_back('\n');
      size_t written = 0;
      while (written < resp.size()) {
        const ssize_t n = send(fd, resp.data() + written,
                               resp.size() - written, MSG_NOSIGNAL);
        if (n > 0) {
          written += static_cast<size_t>(n);
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else {
          return;  // peer went away mid-response
        }
      }
      continue;
    }
    const ssize_t n = read(fd, chunk, sizeof(chunk));
    if (n > 0) {
      buf.append(chunk, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return;  // EOF (client closed / Stop() shutdown) or hard error
  }
}

void SocketServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    return;
  }
  // Shut the listener down; the accept thread unblocks with an error.
  shutdown(listen_fd_, SHUT_RDWR);
  close(listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> ended;
  {
    std::unique_lock<std::mutex> lock(conns_mu_);
    // SHUT_RD: each live connection's next read sees EOF and it ends
    // after writing any in-progress response (graceful to in-flight
    // requests).
    for (const auto& entry : conns_) shutdown(entry.second.fd, SHUT_RD);
    conns_cv_.wait(lock, [this] { return conns_.empty(); });
    ended.swap(finished_);
  }
  for (std::thread& t : ended) t.join();
  listen_fd_ = -1;
  if (!path_.empty()) unlink(path_.c_str());
}

}  // namespace dgnn::shard
