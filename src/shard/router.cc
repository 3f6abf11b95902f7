#include "shard/router.h"

#include <poll.h>

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <utility>

#include "serve/observe.h"
#include "serve/ranking.h"
#include "shard/wire.h"
#include "util/failpoint.h"
#include "util/json.h"

namespace dgnn::shard {
namespace {

using util::JsonObject;
using util::JsonValue;
using util::Status;
using util::StatusOr;

using Clock = std::chrono::steady_clock;

int64_t RemainMs(TimePoint deadline) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             deadline - Clock::now())
      .count();
}

void BumpTelemetry(const char* name, int64_t n = 1) {
  if (telemetry::Enabled()) telemetry::GetCounter(name)->Add(n);
}

// One shard's parsed response to a scatter/gather partial.
struct PartialResult {
  bool ok = false;
  bool degraded = false;
  int64_t version = 0;
  float score = 0.0f;
  std::string error;
  std::vector<serve::ScoredItem> items;
};

// False on a line that is not JSON or carries a number its field's type
// cannot hold — a malformed answer, like a missing one.
bool ParsePartial(const std::string& line, PartialResult* p) {
  auto parsed = util::ParseJson(line);
  if (!parsed.ok()) return false;
  const JsonValue& v = parsed.value();
  p->ok = v.BoolOr("ok", false);
  p->error = v.StringOr("error", "");
  p->degraded = v.BoolOr("degraded", false);
  const double version = v.NumberOr("snapshot_version", 0);
  const double score = v.NumberOr("score", 0.0);
  if (!FitsInt64(version) || !FitsFloat(score)) return false;
  p->version = static_cast<int64_t>(version);
  p->score = static_cast<float>(score);
  const JsonValue* items = v.Find("items");
  if (items != nullptr && !ParseItems(items, &p->items)) return false;
  return true;
}

void SortUniqueShards(std::vector<int32_t>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

// One shard's call within a Dispatch round.
struct RoundCall {
  TimePoint deadline;  // this round's budget for the shard
  TimePoint hedge_at;  // TimePoint::max() once hedged or with hedging off
  int live = 0;        // attempts still waiting for their reply
  Status error = Status::Ok();  // first attempt failure
};

// One connection of a Dispatch round waiting for its reply line.
struct Attempt {
  size_t call = 0;  // index into the round's calls
  std::unique_ptr<ShardConn> conn;
  Clock::time_point t0;
};

}  // namespace

// RAII in-flight op accounting: admission check against max_inflight and
// the drain barrier's op count, in one critical section.
class Router::OpGuard {
 public:
  explicit OpGuard(Router* r) : r_(r) {
    std::lock_guard<std::mutex> lock(r_->drain_mu_);
    if (r_->config_.max_inflight > 0 &&
        r_->inflight_ops_ >= r_->config_.max_inflight) {
      shed_ = true;
      return;
    }
    ++r_->inflight_ops_;
    admitted_ = true;
  }
  ~OpGuard() {
    if (!admitted_) return;
    // Notify under the lock: once BeginDrain sees zero the router may be
    // destroyed, so nothing may touch drain_cv_ after the unlock.
    std::lock_guard<std::mutex> lock(r_->drain_mu_);
    --r_->inflight_ops_;
    r_->drain_cv_.notify_all();
  }
  OpGuard(const OpGuard&) = delete;
  OpGuard& operator=(const OpGuard&) = delete;
  bool shed() const { return shed_; }

 private:
  Router* r_;
  bool admitted_ = false;
  bool shed_ = false;
};

Router::Router(RouterConfig config) : config_(std::move(config)) {}

Router::~Router() { Stop(); }

TimePoint Router::DeadlineFor(int64_t deadline_ms) const {
  int64_t ms = deadline_ms > 0   ? deadline_ms
               : deadline_ms < 0 ? 0
                                 : config_.default_deadline_ms;
  // "No deadline" is still bounded (an hour): the no-hang guarantee
  // holds even for clients that opt out of deadlines.
  if (ms <= 0) ms = 3600 * 1000;
  // A larger value would overflow the clock sum into the past.
  ms = std::min(ms, serve::kMaxDeadlineMs);
  return Clock::now() + std::chrono::milliseconds(ms);
}

StatusOr<std::unique_ptr<ShardConn>> Router::GetConn(ShardEntry& e) {
  {
    std::lock_guard<std::mutex> lock(e.pool_mu);
    if (!e.pool.empty()) {
      auto conn = std::move(e.pool.back());
      e.pool.pop_back();
      return conn;
    }
  }
  return ShardConn::Connect(e.path, config_.connect_timeout_ms);
}

void Router::PutConn(ShardEntry& e, std::unique_ptr<ShardConn> conn) {
  std::lock_guard<std::mutex> lock(e.pool_mu);
  if (e.pool.size() < 8) e.pool.push_back(std::move(conn));
}

std::vector<StatusOr<std::string>> Router::Dispatch(
    const std::vector<int>& shards, const std::string& line,
    TimePoint deadline) {
  std::vector<StatusOr<std::string>> out;
  out.reserve(shards.size());
  std::vector<size_t> round;
  for (size_t i = 0; i < shards.size(); ++i) {
    if (shards_[static_cast<size_t>(shards[i])]->health.state() ==
        HealthState::kDown) {
      // Fail fast; the probe thread keeps watching for recovery.
      out.emplace_back(Status::FailedPrecondition(
          "shard " + std::to_string(shards[i]) + " is down"));
    } else {
      out.emplace_back(Status::Internal("no attempt made"));
      round.push_back(i);
    }
  }
  const int attempts = 1 + std::max(0, config_.retries);
  int backoff_ms = 1;
  for (int a = 0; !round.empty(); ++a) {
    DispatchRound(shards, line, deadline, round, &out);
    // Only transient transport errors retry; a passed deadline means the
    // budget is spent no matter what the shard would have said.
    std::vector<size_t> retry;
    for (size_t i : round) {
      if (!out[i].ok() &&
          out[i].status().code() == util::StatusCode::kInternal) {
        retry.push_back(i);
      }
    }
    if (retry.empty() || a + 1 >= attempts ||
        Clock::now() + std::chrono::milliseconds(backoff_ms) >= deadline) {
      break;
    }
    const auto n = static_cast<int64_t>(retry.size());
    n_retries_.fetch_add(n, std::memory_order_relaxed);
    BumpTelemetry("serve.shard.retries", n);
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    backoff_ms = std::min(backoff_ms * 2, 16);
    round = std::move(retry);
  }
  return out;
}

void Router::DispatchRound(const std::vector<int>& shards,
                           const std::string& line, TimePoint deadline,
                           const std::vector<size_t>& round,
                           std::vector<StatusOr<std::string>>* out) {
  std::vector<RoundCall> calls(round.size());
  std::vector<Attempt> live;
  const auto entry = [&](size_t c) -> ShardEntry& {
    return *shards_[static_cast<size_t>(shards[round[c]])];
  };
  // An attempt counts in e.requests once it has an outcome; a hedge's
  // closed loser has none.
  const auto fail = [&](Attempt& a, Status st) {
    ShardEntry& e = entry(a.call);
    e.requests.fetch_add(1, std::memory_order_relaxed);
    e.failures.fetch_add(1, std::memory_order_relaxed);
    e.health.RecordOutcome(false);
    a.conn.reset();
    RoundCall& call = calls[a.call];
    if (call.error.ok()) call.error = std::move(st);
    if (--call.live == 0) (*out)[round[a.call]] = call.error;
  };
  // One attempt: the shard.dispatch failpoint, a pooled or fresh
  // connection, and the send.
  const auto launch = [&](size_t c) {
    ShardEntry& e = entry(c);
    live.push_back({c, nullptr, Clock::now()});
    ++calls[c].live;
    Status st = failpoint::Enabled() ? failpoint::Check("shard.dispatch")
                                     : Status::Ok();
    if (st.ok()) {
      auto conn = GetConn(e);
      st = conn.ok() ? conn.value()->Send(line, calls[c].deadline)
                     : conn.status();
      if (st.ok()) live.back().conn = std::move(conn).value();
    }
    if (!st.ok()) fail(live.back(), std::move(st));
  };

  const auto start = Clock::now();
  for (size_t c = 0; c < calls.size(); ++c) {
    calls[c].deadline = std::min(
        deadline, start + std::chrono::milliseconds(config_.shard_timeout_ms));
    calls[c].hedge_at =
        config_.hedge_ms > 0
            ? start + std::chrono::milliseconds(config_.hedge_ms)
            : TimePoint::max();
    launch(c);
  }
  std::vector<pollfd> fds;
  while (!live.empty()) {
    // Expire calls past their budget and hedge the stragglers.
    const auto now = Clock::now();
    TimePoint wake = TimePoint::max();
    for (size_t c = 0; c < calls.size(); ++c) {
      if (calls[c].live == 0) continue;
      if (now >= calls[c].deadline) {
        for (Attempt& a : live) {
          if (a.conn != nullptr && a.call == c) {
            fail(a, Status::DeadlineExceeded("shard call read"));
          }
        }
        continue;
      }
      if (now >= calls[c].hedge_at) {
        // The primary has neither answered nor failed: race a second
        // connection, first answer wins.
        calls[c].hedge_at = TimePoint::max();
        n_hedges_.fetch_add(1, std::memory_order_relaxed);
        BumpTelemetry("serve.shard.hedges");
        launch(c);
      }
      wake = std::min({wake, calls[c].deadline, calls[c].hedge_at});
    }
    live.erase(std::remove_if(
                   live.begin(), live.end(),
                   [](const Attempt& a) { return a.conn == nullptr; }),
               live.end());
    if (live.empty()) break;
    fds.clear();
    for (const Attempt& a : live) fds.push_back({a.conn->fd(), POLLIN, 0});
    if (poll(fds.data(), fds.size(), PollTimeoutMs(wake)) <= 0) continue;
    for (size_t i = 0; i < live.size(); ++i) {
      Attempt& a = live[i];
      if (a.conn == nullptr || fds[i].revents == 0) continue;
      std::string reply;
      auto got = a.conn->ReadLine(&reply);
      if (!got.ok()) {
        fail(a, got.status());
      } else if (got.value()) {
        ShardEntry& e = entry(a.call);
        e.requests.fetch_add(1, std::memory_order_relaxed);
        e.ok.fetch_add(1, std::memory_order_relaxed);
        e.health.RecordOutcome(true);
        e.latency.Record(
            std::chrono::duration<double>(Clock::now() - a.t0).count());
        PutConn(e, std::move(a.conn));
        (*out)[round[a.call]] = std::move(reply);
        calls[a.call].live = 0;
        // The loser's reply is still due and would desync a pooled
        // connection: close it instead.
        for (Attempt& other : live) {
          if (other.call == a.call) other.conn.reset();
        }
      }
    }
  }
}

StatusOr<std::string> Router::CallShard(int shard, const std::string& line,
                                        TimePoint deadline) {
  return std::move(Dispatch({shard}, line, deadline)[0]);
}

util::Status Router::ProbeShardOnce(ShardEntry& e, ShardIdentity* id_out) {
  if (failpoint::Enabled()) {
    Status st = failpoint::Check("shard.probe");
    if (!st.ok()) return st;
  }
  const TimePoint deadline =
      Clock::now() + std::chrono::milliseconds(config_.probe_timeout_ms);
  auto conn = GetConn(e);
  if (!conn.ok()) return conn.status();
  auto r = conn.value()->Call("{\"op\":\"probe\"}", deadline);
  if (!r.ok()) return r.status();
  PutConn(e, std::move(conn).value());
  auto parsed = util::ParseJson(r.value());
  if (!parsed.ok()) {
    return Status::Internal("probe response is not JSON: " +
                            parsed.status().message());
  }
  const JsonValue& v = parsed.value();
  if (!v.BoolOr("ok", false)) {
    return Status::Internal("probe failed: " + v.StringOr("error", "?"));
  }
  // Each number is narrowed only after its range test passes; an answer
  // carrying one its field cannot hold is a failed probe.
  const char* bad = nullptr;
  const auto num = [&](const char* key, bool int32) -> int64_t {
    const double x = v.NumberOr(key, 0);
    if (int32 ? FitsInt32(x) : FitsInt64(x)) return static_cast<int64_t>(x);
    if (bad == nullptr) bad = key;
    return 0;
  };
  ShardIdentity id;
  id.shard_index = static_cast<int32_t>(num("shard_index", true));
  id.num_shards = static_cast<int32_t>(num("num_shards", true));
  id.item_begin = num("item_begin", false);
  id.item_end = num("item_end", false);
  id.num_users = num("num_users", false);
  id.num_items = num("num_items", false);
  id.dim = num("dim", false);
  id.hash_seed =
      std::strtoull(v.StringOr("hash_seed", "0").c_str(), nullptr, 10);
  const int64_t version = num("snapshot_version", false);
  const int64_t queue_depth = num("queue_depth", false);
  const int64_t shed = num("shed_requests", false);
  if (bad != nullptr) {
    return Status::Internal(std::string("probe answer's \"") + bad +
                            "\" is out of range");
  }
  e.snapshot_version.store(version, std::memory_order_relaxed);
  e.queue_depth.store(queue_depth, std::memory_order_relaxed);
  // The worker's own admission-control counter (PR-5 overload signal):
  // sheds since the last probe mark the shard overloaded for this
  // interval.
  e.overloaded.store(e.last_shed >= 0 && shed > e.last_shed,
                     std::memory_order_relaxed);
  e.last_shed = shed;
  if (id_out != nullptr) *id_out = id;
  return Status::Ok();
}

void Router::TickWindows() {
  const auto now = Clock::now();
  if (last_tick_ == Clock::time_point{}) {
    last_tick_ = now;
    return;
  }
  const double secs = std::chrono::duration<double>(now - last_tick_).count();
  if (secs < 1.0) return;
  last_tick_ = now;
  for (auto& ep : shards_) {
    ShardEntry& e = *ep;
    telemetry::WindowedStats::Sample s;
    s.seconds = secs;
    const int64_t req = e.requests.load(std::memory_order_relaxed);
    const int64_t ok = e.ok.load(std::memory_order_relaxed);
    s.requests = req - e.win_requests;
    s.ok = ok - e.win_ok;
    s.failed = s.requests - s.ok;
    e.win_requests = req;
    e.win_ok = ok;
    s.latency = e.latency.SnapshotDelta(&e.win_latency);
    s.queue_depth = e.queue_depth.load(std::memory_order_relaxed);
    e.windows->Push(s);
  }
}

void Router::ProbeLoop() {
  std::unique_lock<std::mutex> lock(probe_mu_);
  while (!probe_stop_.load(std::memory_order_acquire)) {
    probe_cv_.wait_for(
        lock, std::chrono::milliseconds(std::max(config_.probe_interval_ms, 1)),
        [this] { return probe_stop_.load(std::memory_order_acquire); });
    if (probe_stop_.load(std::memory_order_acquire)) return;
    lock.unlock();
    for (auto& e : shards_) {
      const Status st = ProbeShardOnce(*e, nullptr);
      e->health.RecordProbe(st.ok());
    }
    TickWindows();
    lock.lock();
  }
}

util::Status Router::Start() {
  if (started_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("router already started");
  }
  if (config_.shard_paths.empty()) {
    return Status::InvalidArgument("router needs at least one shard socket");
  }
  shards_.clear();
  for (const std::string& path : config_.shard_paths) {
    auto e = std::make_unique<ShardEntry>(config_.health);
    e->path = path;
    e->last_shed = -1;
    e->windows = std::make_unique<telemetry::WindowedStats>(
        telemetry::WindowedStats::Config{});
    shards_.push_back(std::move(e));
  }
  const size_t n = shards_.size();
  std::vector<ShardIdentity> ids(n);
  for (size_t i = 0; i < n; ++i) {
    Status st = Status::Ok();
    const int attempts = 2 + std::max(0, config_.retries);
    for (int a = 0; a < attempts; ++a) {
      st = ProbeShardOnce(*shards_[i], &ids[i]);
      if (st.ok()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    if (!st.ok()) {
      return Status::Internal("initial probe of shard " + std::to_string(i) +
                              " (" + shards_[i]->path +
                              ") failed: " + st.ToString());
    }
    shards_[i]->health.RecordProbe(true);
  }

  // Fleet agreement: one manifest, or refuse to start.
  const ShardIdentity& first = ids[0];
  if (n == 1 && first.num_shards == 0) {
    // A single unsharded worker behind the router (degenerate fleet).
    ids[0].item_begin = 0;
    ids[0].item_end = first.num_items;
    shards_[0]->id = ids[0];
    ring_ = serve::ShardRing(1, first.hash_seed);
  } else {
    if (first.num_shards != static_cast<int32_t>(n)) {
      return Status::FailedPrecondition(
          "router has " + std::to_string(n) +
          " shard sockets but shard 0 reports num_shards=" +
          std::to_string(first.num_shards));
    }
    for (size_t i = 0; i < n; ++i) {
      const ShardIdentity& id = ids[i];
      if (id.num_shards != first.num_shards ||
          id.hash_seed != first.hash_seed ||
          id.num_users != first.num_users ||
          id.num_items != first.num_items || id.dim != first.dim) {
        return Status::FailedPrecondition(
            "shard " + std::to_string(i) +
            " disagrees with shard 0 on the manifest (num_shards/seed/"
            "catalog shape)");
      }
      if (id.shard_index != static_cast<int32_t>(i)) {
        return Status::FailedPrecondition(
            "socket position " + std::to_string(i) + " is shard " +
            std::to_string(id.shard_index) +
            " — shard sockets must be listed in shard-index order");
      }
      int64_t begin = 0, end = 0;
      serve::ShardItemRange(first.num_items, first.num_shards,
                            static_cast<int32_t>(i), &begin, &end);
      if (id.item_begin != begin || id.item_end != end) {
        return Status::FailedPrecondition(
            "shard " + std::to_string(i) + " serves items [" +
            std::to_string(id.item_begin) + ", " +
            std::to_string(id.item_end) + "), expected the canonical [" +
            std::to_string(begin) + ", " + std::to_string(end) + ")");
      }
      shards_[i]->id = id;
    }
    ring_ = serve::ShardRing(first.num_shards, first.hash_seed);
  }
  num_users_ = first.num_users;
  num_items_ = first.num_items;
  dim_ = first.dim;

  probe_stop_.store(false, std::memory_order_release);
  started_.store(true, std::memory_order_release);
  probe_thread_ = std::thread(&Router::ProbeLoop, this);
  return Status::Ok();
}

void Router::BeginDrain() {
  probe_stop_.store(true, std::memory_order_release);
  probe_cv_.notify_all();
  if (probe_thread_.joinable()) probe_thread_.join();
  std::unique_lock<std::mutex> lock(drain_mu_);
  drain_cv_.wait(lock, [this] { return inflight_ops_ == 0; });
}

void Router::Stop() {
  if (!started_.load(std::memory_order_acquire)) {
    // Never started (or already stopped) — still join a probe thread if
    // Start() failed halfway (it never starts one, but stay defensive).
    probe_stop_.store(true, std::memory_order_release);
    if (probe_thread_.joinable()) probe_thread_.join();
    return;
  }
  BeginDrain();
  started_.store(false, std::memory_order_release);
  for (auto& e : shards_) {
    std::lock_guard<std::mutex> lock(e->pool_mu);
    e->pool.clear();
  }
}

bool Router::FetchUserVector(int32_t user, TimePoint deadline,
                             std::vector<float>* vec, float* norm,
                             std::vector<int32_t>* missing) {
  if (user < 0 || user >= num_users_) return false;  // unknown fleet-wide
  const int32_t owner = ring_.Owner(user);
  JsonObject line;
  line.Set("op", "user_vector")
      .Set("user", static_cast<int64_t>(user))
      .Set("deadline_ms", std::max<int64_t>(RemainMs(deadline), 1));
  auto r = CallShard(owner, line.Build(), deadline);
  const auto fail = [&] {
    missing->push_back(owner);
    n_failovers_.fetch_add(1, std::memory_order_relaxed);
    BumpTelemetry("serve.shard.failovers");
    return false;
  };
  if (!r.ok()) return fail();
  auto parsed = util::ParseJson(r.value());
  if (!parsed.ok()) return fail();
  const JsonValue& v = parsed.value();
  if (!v.BoolOr("ok", false)) return fail();
  // The owner answered and says the user is unknown — that is the same
  // popularity fallback a single process takes, not a failover.
  if (v.BoolOr("degraded", false)) return false;
  if (!ParseFloatArray(v.Find("vector"), vec) || vec->empty()) return fail();
  const double n = v.NumberOr("norm", 0.0);
  if (!FitsFloat(n)) return fail();
  *norm = static_cast<float>(n);
  return true;
}

int64_t Router::MaxShardVersion() const {
  int64_t max_version = 0;
  for (const auto& e : shards_) {
    max_version = std::max(
        max_version, e->snapshot_version.load(std::memory_order_relaxed));
  }
  return max_version;
}

template <typename Body>
serve::Response Router::RunOp(int64_t deadline_ms, Body&& body) {
  serve::Response resp;
  resp.trace_id = n_requests_.fetch_add(1, std::memory_order_relaxed) + 1;
  OpGuard guard(this);
  if (guard.shed()) {
    n_shed_.fetch_add(1, std::memory_order_relaxed);
    resp.error = "overloaded";
    return resp;
  }
  if (!started_.load(std::memory_order_acquire)) {
    resp.error = "router not started";
    return resp;
  }
  body(DeadlineFor(deadline_ms), &resp);
  if (resp.ok && resp.degraded) {
    n_degraded_.fetch_add(1, std::memory_order_relaxed);
    BumpTelemetry("serve.shard.degraded_responses");
  }
  return resp;
}

void Router::Gather(const std::string& line, int k, TimePoint deadline,
                    std::vector<int32_t> missing, serve::Response* resp) {
  std::vector<int> every(shards_.size());
  std::iota(every.begin(), every.end(), 0);
  auto raw = Dispatch(every, line, deadline);
  std::vector<serve::ScoredItem> all;
  int64_t version = 0;
  int successes = 0;
  std::string last_err;
  for (size_t i = 0; i < raw.size(); ++i) {
    PartialResult p;
    if (!raw[i].ok()) {
      last_err = raw[i].status().ToString();
      missing.push_back(static_cast<int32_t>(i));
      continue;
    }
    if (!ParsePartial(raw[i].value(), &p) || !p.ok) {
      last_err = p.error.empty() ? "malformed shard response" : p.error;
      missing.push_back(static_cast<int32_t>(i));
      continue;
    }
    ++successes;
    version = std::max(version, p.version);
    all.insert(all.end(), p.items.begin(), p.items.end());
  }
  if (successes == 0) {
    resp->error = "all shards unavailable: " + last_err;
    return;
  }
  if (failpoint::Enabled()) {
    Status st = failpoint::Check("shard.merge");
    if (!st.ok()) {
      resp->error = st.ToString();
      return;
    }
  }
  // Per-shard top-ks each cover their slice, so the union contains every
  // global top-k candidate; SelectTopK applies the same (score desc, id
  // asc) total order every scoring path uses — bit-identical merge.
  serve::SelectTopK(all, k);
  resp->items = std::move(all);
  SortUniqueShards(&missing);
  resp->missing_shards = std::move(missing);
  if (!resp->missing_shards.empty()) resp->degraded = true;
  resp->snapshot_version = version;
  resp->ok = true;
}

serve::Response Router::Handle(const serve::Request& request) {
  switch (request.type) {
    case serve::Request::Type::kTopK:
      return TopK(request.user, request.k, request.timeout_ms);
    case serve::Request::Type::kScore:
      return Score(request.user, request.item, request.timeout_ms);
    case serve::Request::Type::kSimilarUsers:
      return SimilarUsers(request.user, request.k, request.timeout_ms);
    default:
      break;
  }
  serve::Response resp;
  resp.error = "the router serves only topk, score and similar_users";
  return resp;
}

serve::Response Router::TopK(int32_t user, int k, int64_t deadline_ms) {
  return RunOp(deadline_ms, [&](TimePoint deadline, serve::Response* resp) {
    if (k <= 0) {
      resp->error = "k must be positive";
      return;
    }
    std::vector<float> query;
    float norm = 0.0f;
    std::vector<int32_t> missing;
    const bool have_vec =
        FetchUserVector(user, deadline, &query, &norm, &missing);
    const int64_t rem = RemainMs(deadline);
    if (rem <= 0) {
      resp->error = "deadline exceeded";
      return;
    }
    JsonObject line;
    line.Set("op", "topk_partial")
        .Set("k", static_cast<int64_t>(k))
        .Set("deadline_ms", rem);
    if (have_vec) {
      line.Set("user", static_cast<int64_t>(user))
          .SetRaw("query", FloatsJson(query));
    } else {
      line.Set("popularity", true);
      resp->degraded = true;
    }
    Gather(line.Build(), k, deadline, std::move(missing), resp);
  });
}

serve::Response Router::Score(int32_t user, int32_t item,
                              int64_t deadline_ms) {
  return RunOp(deadline_ms, [&](TimePoint deadline, serve::Response* resp) {
    // Unknown user or item, or a shard that cannot answer: the same
    // neutral degraded score the single-process engine returns.
    const auto degrade = [&](std::vector<int32_t> missing) {
      resp->ok = true;
      resp->degraded = true;
      resp->score = 0.0f;
      resp->snapshot_version = MaxShardVersion();
      resp->missing_shards = std::move(missing);
    };
    if (user < 0 || user >= num_users_ || item < 0 || item >= num_items_) {
      return degrade({});
    }
    std::vector<float> query;
    float norm = 0.0f;
    std::vector<int32_t> missing;
    if (!FetchUserVector(user, deadline, &query, &norm, &missing)) {
      return degrade(std::move(missing));
    }
    int item_shard = -1;
    for (size_t i = 0; i < shards_.size(); ++i) {
      if (item >= shards_[i]->id.item_begin &&
          item < shards_[i]->id.item_end) {
        item_shard = static_cast<int>(i);
        break;
      }
    }
    if (item_shard < 0) return degrade({});
    JsonObject line;
    line.Set("op", "score_item")
        .Set("item", static_cast<int64_t>(item))
        .Set("deadline_ms", std::max<int64_t>(RemainMs(deadline), 1))
        .SetRaw("query", FloatsJson(query));
    auto r = CallShard(item_shard, line.Build(), deadline);
    PartialResult p;
    if (!r.ok() || !ParsePartial(r.value(), &p) || !p.ok) {
      return degrade({static_cast<int32_t>(item_shard)});
    }
    resp->ok = true;
    resp->score = p.score;
    resp->degraded = p.degraded;
    resp->snapshot_version = p.version;
  });
}

serve::Response Router::SimilarUsers(int32_t user, int k,
                                     int64_t deadline_ms) {
  return RunOp(deadline_ms, [&](TimePoint deadline, serve::Response* resp) {
    if (k <= 0) {
      resp->error = "k must be positive";
      return;
    }
    std::vector<float> query;
    float norm = 0.0f;
    std::vector<int32_t> missing;
    if (!FetchUserVector(user, deadline, &query, &norm, &missing)) {
      // Without the query vector there is nothing to rank against —
      // degraded empty answer (single-process parity for unknown users;
      // attributed to the owner when it was a failover).
      resp->ok = true;
      resp->degraded = true;
      resp->snapshot_version = MaxShardVersion();
      resp->missing_shards = std::move(missing);
      return;
    }
    const int64_t rem = RemainMs(deadline);
    if (rem <= 0) {
      resp->error = "deadline exceeded";
      return;
    }
    JsonObject line;
    line.Set("op", "similar_partial")
        .Set("user", static_cast<int64_t>(user))
        .Set("k", static_cast<int64_t>(k))
        .Set("norm", static_cast<double>(norm))
        .Set("deadline_ms", rem)
        .SetRaw("query", FloatsJson(query));
    Gather(line.Build(), k, deadline, std::move(missing), resp);
  });
}

util::StatusOr<int64_t> Router::CoordinatedSwap(const std::string& prefix) {
  if (!started_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("router not started");
  }
  OpGuard guard(this);
  if (guard.shed()) return Status::FailedPrecondition("overloaded");
  const std::string token =
      "swap-" + std::to_string(swap_seq_.fetch_add(1) + 1);
  JsonObject prep;
  prep.Set("op", "swap_prepare").Set("prefix", prefix).Set("token", token);
  const std::string prep_line = prep.Build();
  JsonObject abort;
  abort.Set("op", "swap_abort").Set("token", token);
  const std::string abort_line = abort.Build();

  const auto swap_deadline = [this] {
    return Clock::now() +
           std::chrono::milliseconds(std::max(config_.swap_timeout_ms, 1));
  };
  const auto abort_all = [&] {
    // Best effort: a shard that cannot be reached has nothing staged to
    // worry about (its prepare failed or it is down).
    for (size_t i = 0; i < shards_.size(); ++i) {
      (void)CallShard(static_cast<int>(i), abort_line, swap_deadline());
    }
  };

  // Phase 1: prepare everywhere; any failure aborts everywhere and no
  // worker changes snapshots.
  for (size_t i = 0; i < shards_.size(); ++i) {
    std::string err;
    Status fp = Status::Ok();
    if (failpoint::Enabled()) fp = failpoint::Check("shard.swap");
    if (!fp.ok()) {
      err = fp.ToString();
    } else {
      auto r = CallShard(static_cast<int>(i), prep_line, swap_deadline());
      if (!r.ok()) {
        err = r.status().ToString();
      } else {
        auto parsed = util::ParseJson(r.value());
        if (!parsed.ok()) {
          err = "malformed prepare response";
        } else if (!parsed.value().BoolOr("ok", false)) {
          err = parsed.value().StringOr("error", "prepare refused");
        }
      }
    }
    if (!err.empty()) {
      abort_all();
      return Status::FailedPrecondition(
          "swap prepare failed on shard " + std::to_string(i) + " (" +
          shards_[i]->path + "): " + err + " — aborted on all shards");
    }
  }

  // Phase 2: commit everywhere. A commit failure is reported (the fleet
  // may serve mixed versions until the next successful swap), never
  // silently swallowed.
  JsonObject commit;
  commit.Set("op", "swap_commit").Set("token", token);
  const std::string commit_line = commit.Build();
  int64_t version = 0;
  std::string commit_errs;
  for (size_t i = 0; i < shards_.size(); ++i) {
    auto r = CallShard(static_cast<int>(i), commit_line, swap_deadline());
    std::string err;
    if (!r.ok()) {
      err = r.status().ToString();
    } else {
      auto parsed = util::ParseJson(r.value());
      const double v =
          parsed.ok() ? parsed.value().NumberOr("snapshot_version", 0) : 0;
      if (!parsed.ok() || !parsed.value().BoolOr("ok", false)) {
        err = parsed.ok() ? parsed.value().StringOr("error", "commit refused")
                          : "malformed commit response";
      } else if (!FitsInt64(v)) {
        err = "commit answer's \"snapshot_version\" is out of range";
      } else {
        version = std::max(version, static_cast<int64_t>(v));
      }
    }
    if (!err.empty()) {
      if (!commit_errs.empty()) commit_errs += "; ";
      commit_errs += "shard " + std::to_string(i) + ": " + err;
    }
  }
  if (!commit_errs.empty()) {
    return Status::Internal(
        "swap commit failed (fleet may serve mixed snapshot versions): " +
        commit_errs);
  }
  return version;
}

RouterCounters Router::counters() const {
  RouterCounters c;
  c.requests = n_requests_.load(std::memory_order_relaxed);
  c.retries = n_retries_.load(std::memory_order_relaxed);
  c.hedges = n_hedges_.load(std::memory_order_relaxed);
  c.failovers = n_failovers_.load(std::memory_order_relaxed);
  c.degraded_responses = n_degraded_.load(std::memory_order_relaxed);
  c.shed = n_shed_.load(std::memory_order_relaxed);
  return c;
}

std::vector<RouterShardStatus> Router::ShardStatuses() {
  std::vector<RouterShardStatus> out;
  out.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    ShardEntry& e = *shards_[i];
    RouterShardStatus s;
    s.shard = static_cast<int>(i);
    s.path = e.path;
    s.state = e.health.state();
    s.failure_ewma = e.health.failure_ewma();
    s.overloaded = e.overloaded.load(std::memory_order_relaxed);
    s.snapshot_version = e.snapshot_version.load(std::memory_order_relaxed);
    s.queue_depth = e.queue_depth.load(std::memory_order_relaxed);
    s.requests = e.requests.load(std::memory_order_relaxed);
    s.failures = e.failures.load(std::memory_order_relaxed);
    out.push_back(std::move(s));
  }
  return out;
}

std::string Router::StatsJson() {
  const RouterCounters c = counters();
  JsonObject o;
  o.Set("ok", true)
      .Set("op", "stats")
      .Set("bench", "dgnn_router")
      .Set("requests", c.requests)
      .Set("serve.shard.retries", c.retries)
      .Set("serve.shard.hedges", c.hedges)
      .Set("serve.shard.failovers", c.failovers)
      .Set("serve.shard.degraded_responses", c.degraded_responses)
      .Set("shed", c.shed)
      .Set("num_shards", static_cast<int64_t>(shards_.size()))
      .Set("num_users", num_users_)
      .Set("num_items", num_items_);
  std::string shards = "[";
  for (size_t i = 0; i < shards_.size(); ++i) {
    ShardEntry& e = *shards_[i];
    if (i > 0) shards += ",";
    JsonObject s;
    s.Set("shard", static_cast<int64_t>(i))
        .Set("path", e.path)
        .Set("state", HealthStateName(e.health.state()))
        .Set("failure_ewma", e.health.failure_ewma())
        .Set("overloaded", e.overloaded.load(std::memory_order_relaxed))
        .Set("snapshot_version",
             e.snapshot_version.load(std::memory_order_relaxed))
        .Set("queue_depth", e.queue_depth.load(std::memory_order_relaxed))
        .Set("requests", e.requests.load(std::memory_order_relaxed))
        .Set("failures", e.failures.load(std::memory_order_relaxed))
        .SetRaw("windows",
                "{\"1s\":" +
                    serve::observe::WindowJson(e.windows->Aggregate(1)) +
                    ",\"10s\":" +
                    serve::observe::WindowJson(e.windows->Aggregate(10)) +
                    ",\"60s\":" +
                    serve::observe::WindowJson(e.windows->Aggregate(60)) +
                    "}");
    shards += s.Build();
  }
  shards += "]";
  o.SetRaw("shards", shards);
  return o.Build();
}

}  // namespace dgnn::shard
