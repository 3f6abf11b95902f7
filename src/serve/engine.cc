#include "serve/engine.h"

#include <algorithm>
#include <cstring>

#include "util/failpoint.h"
#include "util/telemetry.h"

namespace dgnn::serve {
namespace {

// Registered once; Add() calls are guarded by telemetry::Enabled() per
// the repo convention (engine-internal atomics track totals regardless).
struct ServeMetrics {
  telemetry::Counter* requests = telemetry::GetCounter("serve.requests");
  telemetry::Counter* swaps =
      telemetry::GetCounter("serve.snapshot_swaps");
  telemetry::Counter* degraded =
      telemetry::GetCounter("serve.degraded_requests");
  telemetry::Counter* shed = telemetry::GetCounter("serve.shed_requests");
  telemetry::Counter* expired =
      telemetry::GetCounter("serve.expired_requests");
  telemetry::Counter* failed =
      telemetry::GetCounter("serve.failed_requests");
  telemetry::Gauge* queue_depth = telemetry::GetGauge("serve.queue_depth");
  telemetry::Histogram* e2e = telemetry::GetHistogram("serve.e2e_seconds");
  telemetry::Histogram* stage_queue =
      telemetry::GetHistogram("serve.stage.queue_seconds");
  telemetry::Histogram* stage_recal =
      telemetry::GetHistogram("serve.stage.recal_seconds");
  telemetry::Histogram* stage_compute =
      telemetry::GetHistogram("serve.stage.compute_seconds");
  telemetry::Histogram* stage_rank =
      telemetry::GetHistogram("serve.stage.rank_seconds");
  telemetry::Histogram* stage_reply =
      telemetry::GetHistogram("serve.stage.reply_seconds");
};

ServeMetrics& Metrics() {
  static ServeMetrics* m = new ServeMetrics();
  return *m;
}

double Seconds(std::chrono::steady_clock::time_point from,
               std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// Deterministic finalizing hash: the trace-sampling decision depends only
// on the trace id, so a replayed workload samples the same requests.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

bool TraceSampled(int64_t trace_id, double rate) {
  if (rate >= 1.0) return true;
  if (rate <= 0.0) return false;
  const double threshold = rate * 18446744073709551616.0;  // rate * 2^64
  return static_cast<double>(
             SplitMix64(static_cast<uint64_t>(trace_id))) < threshold;
}

const char* RequestTypeName(Request::Type t) {
  switch (t) {
    case Request::Type::kTopK: return "topk";
    case Request::Type::kScore: return "score";
    case Request::Type::kSimilarUsers: return "similar_users";
    case Request::Type::kUserVector: return "user_vector";
    case Request::Type::kTopKPartial: return "topk_partial";
    case Request::Type::kSimilarPartial: return "similar_partial";
    case Request::Type::kScoreItem: return "score_item";
  }
  return "?";
}

}  // namespace

ServingEngine::ServingEngine(EngineConfig config) : config_(config) {
  // Registering the metrics also fixes the telemetry trace epoch, so
  // every admission stamps after it and RequestTrace::ts_us is never
  // negative.
  Metrics();
  telemetry::WindowedStats::Config wcfg;
  wcfg.slo_p99_ms = config_.slo_p99_ms;
  wcfg.slo_availability = config_.slo_availability;
  windows_ = std::make_unique<telemetry::WindowedStats>(wcfg);
  if (config_.sampler_period_ms > 0) StartSampler();
}

ServingEngine::~ServingEngine() { StopSampler(); }

util::Status ServingEngine::Load(const std::string& path) {
  auto snapshot = ReadSnapshot(path);
  if (!snapshot.ok()) return snapshot.status();
  Swap(std::make_shared<const Snapshot>(std::move(snapshot).value()));
  return util::Status::Ok();
}

void ServingEngine::Swap(std::shared_ptr<const Snapshot> snapshot) {
  DGNN_CHECK(snapshot != nullptr);
  auto state = std::make_shared<State>();
  // Views point into *snapshot; state->snap keeps it alive for the
  // state's lifetime.
  state->users_view = snapshot->has_quant_users()
                          ? EmbeddingView(&snapshot->quant_users)
                          : EmbeddingView(&snapshot->users);
  state->items_view = snapshot->has_quant_items()
                          ? EmbeddingView(&snapshot->quant_items)
                          : EmbeddingView(&snapshot->items);
  state->user_norms = RowNorms(state->users_view);
  if (snapshot->shard.empty()) {
    // Unsharded: global addressing is the identity over the tensors (the
    // seed-era behavior, kept independent of whatever the meta says so
    // hand-built test snapshots keep working).
    state->num_users_global = state->users_view.rows();
    state->num_items_global = state->items_view.rows();
  } else {
    state->num_users_global = snapshot->meta.num_users;
    state->num_items_global = snapshot->meta.num_items;
    state->item_offset = snapshot->shard.item_begin;
    state->owned = OwnedUsers(snapshot->shard, snapshot->meta.num_users);
  }
  // Popularity carries GLOBAL item ids; for a shard this ranks only its
  // own slice (the router merges slices into the global ranking).
  state->popularity = PopularityOrder(
      snapshot->item_counts, static_cast<int32_t>(state->item_offset));
  state->snap = std::move(snapshot);
  state->version = swap_count_.fetch_add(1, std::memory_order_relaxed) + 1;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    // Concurrent swaps publish in version order; a racing older build
    // never clobbers a newer snapshot.
    if (state_ == nullptr || state->version > state_->version) {
      state_ = std::move(state);
    }
  }
  if (telemetry::Enabled()) Metrics().swaps->Add(1);
}

std::shared_ptr<const Snapshot> ServingEngine::snapshot() const {
  auto state = AcquireState();
  return state == nullptr ? nullptr : state->snap;
}

int64_t ServingEngine::swap_count() const {
  return swap_count_.load(std::memory_order_relaxed);
}

std::shared_ptr<const ServingEngine::State> ServingEngine::AcquireState()
    const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return state_;
}

void ServingEngine::StampDeadline(Slot* slot) const {
  // Capped: a larger value would overflow the clock sum into the past.
  const int64_t timeout_ms =
      std::min(slot->request->timeout_ms != 0 ? slot->request->timeout_ms
                                              : config_.default_deadline_ms,
               kMaxDeadlineMs);
  if (timeout_ms <= 0) return;
  slot->has_deadline = true;
  slot->deadline = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(timeout_ms);
}

bool ServingEngine::Observing() const {
  return telemetry::Enabled() ||
         sampler_running_.load(std::memory_order_relaxed) ||
         has_sink_.load(std::memory_order_relaxed);
}

bool ServingEngine::Enter() {
  int64_t n = inflight_.load(std::memory_order_relaxed);
  do {
    if (config_.max_inflight > 0 && n >= config_.max_inflight) return false;
  } while (!inflight_.compare_exchange_weak(n, n + 1,
                                            std::memory_order_relaxed));
  if (telemetry::Enabled()) {
    Metrics().queue_depth->Set(static_cast<double>(n + 1));
  }
  return true;
}

void ServingEngine::FinishSlot(Slot* slot) {
  slot->response.trace_id = slot->trace_id;
  if (!slot->stages.active) return;
  const auto t_done = std::chrono::steady_clock::now();
  const double total = Seconds(slot->stages.admit, t_done);
  double queue_s = total;
  double reply_s = 0.0;
  if (slot->outcome != Outcome::kShed) {
    queue_s = Seconds(slot->stages.admit, slot->stages.exec_start);
    reply_s = Seconds(slot->stages.exec_end, t_done);
  }
  e2e_hist_.Record(total);
  if (telemetry::Enabled()) {
    ServeMetrics& m = Metrics();
    m.e2e->Record(total);
    m.stage_queue->Record(queue_s);
    m.stage_recal->Record(slot->stages.recal_seconds);
    m.stage_compute->Record(slot->stages.compute_seconds);
    m.stage_rank->Record(slot->stages.rank_seconds);
    m.stage_reply->Record(reply_s);
  }
  if (has_sink_.load(std::memory_order_relaxed) &&
      TraceSampled(slot->trace_id, config_.trace_sample_rate)) {
    RequestTrace t;
    t.trace_id = slot->trace_id;
    // Admission timestamp on the trace-epoch clock, reconstructed from
    // the measured total so only sampled requests pay the epoch lookup.
    t.ts_us = telemetry::TraceNowMicros() -
              static_cast<int64_t>(total * 1e6);
    t.type = RequestTypeName(slot->request->type);
    switch (slot->outcome) {
      case Outcome::kOk: t.outcome = "ok"; break;
      case Outcome::kShed: t.outcome = "shed"; break;
      case Outcome::kExpired: t.outcome = "expired"; break;
      case Outcome::kFailed: t.outcome = "failed"; break;
    }
    t.user = slot->request->user;
    t.k = slot->request->k;
    t.snapshot_version = slot->response.snapshot_version;
    t.degraded = slot->response.degraded;
    t.queue_seconds = queue_s;
    t.recal_seconds = slot->stages.recal_seconds;
    t.compute_seconds = slot->stages.compute_seconds;
    t.rank_seconds = slot->stages.rank_seconds;
    t.reply_seconds = reply_s;
    t.total_seconds = total;
    std::lock_guard<std::mutex> lock(sink_mu_);
    if (sink_) sink_(t);
  }
}

Response ServingEngine::Handle(const Request& request) {
  Slot slot;
  slot.request = &request;
  slot.trace_id = next_trace_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  slot.stages.active = Observing();
  if (slot.stages.active) slot.stages.admit = std::chrono::steady_clock::now();
  StampDeadline(&slot);
  if (!Enter()) {
    // Load shedding: max_inflight requests already hold the engine;
    // refusing NOW costs the client one fast round-trip.
    n_shed_.fetch_add(1, std::memory_order_relaxed);
    if (telemetry::Enabled()) Metrics().shed->Add(1);
    slot.outcome = Outcome::kShed;
    slot.response.error = "overloaded";
    FinishSlot(&slot);
    return std::move(slot.response);
  }
  n_requests_.fetch_add(1, std::memory_order_relaxed);
  if (telemetry::Enabled()) Metrics().requests->Add(1);
  ExecuteSlot(AcquireState().get(), &slot);
  const int64_t left = inflight_.fetch_sub(1, std::memory_order_relaxed) - 1;
  if (telemetry::Enabled()) {
    Metrics().queue_depth->Set(static_cast<double>(left));
  }
  FinishSlot(&slot);
  return std::move(slot.response);
}

void ServingEngine::ExecuteSlot(const State* state, Slot* slot) {
  // Failpoint "serve.execute": `delay:<ms>` simulates a slow execution
  // (the overload tests use it to hold in-flight places); `error` fails
  // the request the way a poisoned snapshot would. The delay runs BEFORE
  // the exec_start stamp below, so injected stalls are attributed to the
  // queue stage — exactly where a real pre-execution stall would land.
  if (failpoint::Enabled()) {
    util::Status fp = failpoint::Check("serve.execute");
    if (!fp.ok()) {
      slot->response.error = fp.ToString();
      slot->outcome = Outcome::kFailed;
      if (slot->stages.active) {
        slot->stages.exec_start = std::chrono::steady_clock::now();
        slot->stages.exec_end = slot->stages.exec_start;
      }
      n_failed_.fetch_add(1, std::memory_order_relaxed);
      if (telemetry::Enabled()) Metrics().failed->Add(1);
      return;
    }
  }
  const auto now = std::chrono::steady_clock::now();
  if (slot->stages.active) slot->stages.exec_start = now;
  if (slot->has_deadline && now > slot->deadline) {
    // The client has typically already given up; fail fast.
    slot->response.error = "deadline exceeded";
    slot->outcome = Outcome::kExpired;
    n_expired_.fetch_add(1, std::memory_order_relaxed);
    if (telemetry::Enabled()) Metrics().expired->Add(1);
  } else {
    slot->response = Execute(state, *slot->request,
                             slot->stages.active ? &slot->stages : nullptr);
    slot->outcome = slot->response.ok ? Outcome::kOk : Outcome::kFailed;
    if (!slot->response.ok) {
      n_failed_.fetch_add(1, std::memory_order_relaxed);
      if (telemetry::Enabled()) Metrics().failed->Add(1);
    }
  }
  if (slot->stages.active) {
    slot->stages.exec_end = std::chrono::steady_clock::now();
  }
}

std::vector<float> ServingEngine::ComputeUserVector(const State& state,
                                                    int32_t user) const {
  const EmbeddingView& users = state.users_view;
  const int64_t d = users.cols();
  std::vector<float> vec(static_cast<size_t>(d));
  // Identity for unsharded snapshots; callers guarantee the user is held
  // locally (LocalUserRow >= 0) before reaching here.
  users.DecodeRow(state.LocalUserRow(user), vec.data());
  const float alpha = config_.social_alpha;
  const auto& neighbors =
      state.snap->social[static_cast<size_t>(user)];
  // alpha == 0 keeps the (decoded) row bit-for-bit — no arithmetic
  // applied — the Recommender-parity path for dense snapshots.
  if (alpha == 0.0f || neighbors.empty()) return vec;
  std::vector<float> mean(static_cast<size_t>(d), 0.0f);
  std::vector<float> w(static_cast<size_t>(d));
  for (int32_t v : neighbors) {
    users.DecodeRow(v, w.data());
    for (int64_t c = 0; c < d; ++c) {
      mean[static_cast<size_t>(c)] += w[static_cast<size_t>(c)];
    }
  }
  const float inv = 1.0f / static_cast<float>(neighbors.size());
  for (int64_t c = 0; c < d; ++c) {
    vec[static_cast<size_t>(c)] =
        (1.0f - alpha) * vec[static_cast<size_t>(c)] +
        alpha * mean[static_cast<size_t>(c)] * inv;
  }
  return vec;
}

void ServingEngine::CountDegraded() {
  n_degraded_.fetch_add(1, std::memory_order_relaxed);
  if (telemetry::Enabled()) Metrics().degraded->Add(1);
}

void ServingEngine::AnswerPopularity(const State& state, int k,
                                     Response* resp) {
  // Scores are raw train counts; a shard's list covers its own slice.
  const size_t keep =
      std::min<size_t>(static_cast<size_t>(k), state.popularity.size());
  resp->items.assign(state.popularity.begin(),
                     state.popularity.begin() + static_cast<int64_t>(keep));
  resp->degraded = true;
  CountDegraded();
}

std::vector<ScoredItem> ServingEngine::RankItems(const State& state,
                                                 const float* query,
                                                 int32_t seen_user, int k,
                                                 int rerank, bool probe_ivf,
                                                 StageTimes* stages) const {
  const Snapshot& snap = *state.snap;
  const int32_t item_offset = static_cast<int32_t>(state.item_offset);
  // Seen lists hold GLOBAL ids and the scan filters by LOCAL row, so a
  // slice that does not start at 0 shifts them.
  static const std::vector<int32_t> kNoSeen;
  const std::vector<int32_t>* seen = &kNoSeen;
  std::vector<int32_t> seen_local;
  if (seen_user >= 0) {
    seen = &snap.seen[static_cast<size_t>(seen_user)];
    if (item_offset != 0) {
      seen_local.reserve(seen->size());
      for (int32_t it : *seen) seen_local.push_back(it - item_offset);
      seen = &seen_local;
    }
  }
  std::vector<int32_t> candidates;
  const bool use_ivf = probe_ivf && !snap.ivf.empty() && config_.nprobe > 0;
  if (use_ivf) snap.ivf.Probe(query, config_.nprobe, &candidates);
  std::vector<ScoredItem> items = TopKUnseen(
      query, state.items_view, use_ivf ? &candidates : nullptr, *seen, k,
      rerank, stages != nullptr ? &stages->compute_seconds : nullptr,
      stages != nullptr ? &stages->rank_seconds : nullptr);
  for (ScoredItem& s : items) s.item += item_offset;
  return items;
}

std::vector<ScoredItem> ServingEngine::RankUsers(const State& state,
                                                 const float* query,
                                                 float norm,
                                                 int64_t exclude_row, int k,
                                                 StageTimes* stages) const {
  // No recalibration path here; the whole cosine scan is "compute".
  using Clock = std::chrono::steady_clock;
  Clock::time_point t0;
  if (stages != nullptr) t0 = Clock::now();
  std::vector<ScoredItem> users = TopKSimilar(
      query, norm, state.users_view, state.user_norms, exclude_row, k);
  if (!state.owned.empty()) {
    for (ScoredItem& s : users) {
      s.item = state.owned[static_cast<size_t>(s.item)];
    }
  }
  if (stages != nullptr) {
    stages->compute_seconds = Seconds(t0, Clock::now());
  }
  return users;
}

Response ServingEngine::Execute(const State* state, const Request& request,
                                StageTimes* stages) {
  using Clock = std::chrono::steady_clock;
  Response resp;
  if (state == nullptr) {
    resp.error = "no snapshot loaded";
    return resp;
  }
  resp.snapshot_version = state->version;
  // A user is "known" when it is in the global id space AND held by this
  // process (always, when unsharded; when sharded, only if owned). A
  // globally-valid-but-unowned user degrades like an unknown one on the
  // direct ops — the router never sends those here.
  const bool user_in_range =
      request.user >= 0 && request.user < state->num_users_global;
  const int64_t local_user =
      user_in_range ? state->LocalUserRow(request.user) : -1;
  const bool known_user = local_user >= 0;
  const bool ranks_k = request.type == Request::Type::kTopK ||
                       request.type == Request::Type::kSimilarUsers ||
                       request.type == Request::Type::kTopKPartial ||
                       request.type == Request::Type::kSimilarPartial;
  if (ranks_k && request.k <= 0) {
    resp.error = "k must be positive";
    return resp;
  }
  switch (request.type) {
    case Request::Type::kTopK: {
      if (!known_user) {
        AnswerPopularity(*state, request.k, &resp);
        break;
      }
      Clock::time_point t0;
      if (stages != nullptr) t0 = Clock::now();
      const std::vector<float> vec = ComputeUserVector(*state, request.user);
      if (stages != nullptr) {
        stages->recal_seconds = Seconds(t0, Clock::now());
      }
      const int rerank = config_.rerank > 0
                             ? config_.rerank
                             : std::max(4 * request.k, 64);
      resp.items = RankItems(*state, vec.data(), request.user, request.k,
                             rerank, /*probe_ivf=*/true, stages);
      break;
    }
    case Request::Type::kScore: {
      const int64_t local_item =
          static_cast<int64_t>(request.item) - state->item_offset;
      const bool known_item = request.item >= 0 &&
                              request.item < state->num_items_global &&
                              local_item >= 0 &&
                              local_item < state->items_view.rows();
      if (!known_user || !known_item) {
        resp.score = 0.0f;
        resp.degraded = true;
        CountDegraded();
        break;
      }
      Clock::time_point t0;
      if (stages != nullptr) t0 = Clock::now();
      const std::vector<float> vec = ComputeUserVector(*state, request.user);
      Clock::time_point t1;
      if (stages != nullptr) {
        t1 = Clock::now();
        stages->recal_seconds = Seconds(t0, t1);
      }
      resp.score = state->items_view.Score(vec.data(), local_item);
      if (stages != nullptr) {
        stages->compute_seconds = Seconds(t1, Clock::now());
      }
      break;
    }
    case Request::Type::kSimilarUsers: {
      if (!known_user) {
        resp.degraded = true;
        CountDegraded();
        break;
      }
      std::vector<float> u(static_cast<size_t>(state->users_view.cols()));
      state->users_view.DecodeRow(local_user, u.data());
      resp.items = RankUsers(
          *state, u.data(), state->user_norms[static_cast<size_t>(local_user)],
          local_user, request.k, stages);
      break;
    }
    case Request::Type::kUserVector: {
      if (!known_user) {
        // Unknown (or unowned) user: empty vector, degraded — the router
        // turns this into its popularity fallback.
        resp.degraded = true;
        CountDegraded();
        break;
      }
      Clock::time_point t0;
      if (stages != nullptr) t0 = Clock::now();
      resp.vector = ComputeUserVector(*state, request.user);
      if (stages != nullptr) {
        stages->recal_seconds = Seconds(t0, Clock::now());
      }
      resp.vector_norm =
          state->user_norms[static_cast<size_t>(local_user)];
      break;
    }
    case Request::Type::kTopKPartial: {
      if (request.popularity) {
        AnswerPopularity(*state, request.k, &resp);
        break;
      }
      if (static_cast<int64_t>(request.query.size()) !=
          state->items_view.cols()) {
        resp.error = "query dimension mismatch";
        return resp;
      }
      // Seen exclusion uses the GLOBAL user's list regardless of which
      // shard owns the user — same filter the single-process scan
      // applies, restricted to this slice. The router probes no index,
      // and reranks only the k this slice returns.
      resp.items = RankItems(*state, request.query.data(),
                             user_in_range ? request.user : -1, request.k,
                             /*rerank=*/request.k, /*probe_ivf=*/false,
                             stages);
      break;
    }
    case Request::Type::kSimilarPartial: {
      if (static_cast<int64_t>(request.query.size()) !=
          state->users_view.cols()) {
        resp.error = "query dimension mismatch";
        return resp;
      }
      // Exclude the query user's own row only if this shard holds it.
      resp.items = RankUsers(*state, request.query.data(), request.query_norm,
                             local_user, request.k, stages);
      break;
    }
    case Request::Type::kScoreItem: {
      if (static_cast<int64_t>(request.query.size()) !=
          state->items_view.cols()) {
        resp.error = "query dimension mismatch";
        return resp;
      }
      const int64_t local_item =
          static_cast<int64_t>(request.item) - state->item_offset;
      if (request.item < 0 || request.item >= state->num_items_global) {
        resp.score = 0.0f;
        resp.degraded = true;
        CountDegraded();
        break;
      }
      if (local_item < 0 || local_item >= state->items_view.rows()) {
        resp.error = "item not held by this shard";
        return resp;
      }
      resp.score =
          state->items_view.Score(request.query.data(), local_item);
      break;
    }
  }
  resp.ok = true;
  return resp;
}

EngineStats ServingEngine::stats() const {
  EngineStats s;
  s.requests = n_requests_.load(std::memory_order_relaxed);
  s.batches = s.requests;
  s.snapshot_swaps = swap_count_.load(std::memory_order_relaxed);
  s.degraded_requests = n_degraded_.load(std::memory_order_relaxed);
  s.shed_requests = n_shed_.load(std::memory_order_relaxed);
  s.expired_requests = n_expired_.load(std::memory_order_relaxed);
  s.failed_requests = n_failed_.load(std::memory_order_relaxed);
  return s;
}

void ServingEngine::SetTraceSink(TraceSink sink) {
  std::lock_guard<std::mutex> lock(sink_mu_);
  has_sink_.store(static_cast<bool>(sink), std::memory_order_relaxed);
  sink_ = std::move(sink);
}

void ServingEngine::StartSampler(int period_ms) {
  if (period_ms <= 0) period_ms = config_.sampler_period_ms;
  if (period_ms <= 0) period_ms = 1000;
  bool expected = false;
  if (!sampler_running_.compare_exchange_strong(expected, true)) return;
  {
    std::lock_guard<std::mutex> lock(sampler_mu_);
    sampler_stop_ = false;
  }
  sampler_thread_ = std::thread([this, period_ms] {
    auto last = std::chrono::steady_clock::now();
    std::unique_lock<std::mutex> lock(sampler_mu_);
    while (!sampler_stop_) {
      sampler_cv_.wait_for(lock, std::chrono::milliseconds(period_ms),
                           [this] { return sampler_stop_; });
      if (sampler_stop_) break;
      lock.unlock();
      const auto now = std::chrono::steady_clock::now();
      SampleOnce(Seconds(last, now));
      last = now;
      lock.lock();
    }
  });
}

void ServingEngine::StopSampler() {
  {
    std::lock_guard<std::mutex> lock(sampler_mu_);
    sampler_stop_ = true;
  }
  sampler_cv_.notify_all();
  if (sampler_thread_.joinable()) sampler_thread_.join();
  sampler_running_.store(false, std::memory_order_relaxed);
}

void ServingEngine::SampleOnceForTest(double seconds) {
  SampleOnce(seconds);
}

void ServingEngine::SampleOnce(double seconds) {
  std::lock_guard<std::mutex> lock(sample_mu_);
  const int64_t requests = n_requests_.load(std::memory_order_relaxed);
  const int64_t shed = n_shed_.load(std::memory_order_relaxed);
  const int64_t expired = n_expired_.load(std::memory_order_relaxed);
  const int64_t failed = n_failed_.load(std::memory_order_relaxed);
  const int64_t degraded = n_degraded_.load(std::memory_order_relaxed);
  const int64_t swaps = swap_count_.load(std::memory_order_relaxed);
  telemetry::WindowedStats::Sample smp;
  smp.seconds = seconds > 0.0 ? seconds : 1.0;
  const int64_t d_exec = requests - cursor_.requests;
  smp.shed = shed - cursor_.shed;
  smp.expired = expired - cursor_.expired;
  smp.failed = failed - cursor_.failed;
  // "requests" in a window counts admitted attempts; executed requests
  // that were neither expired nor failed are the ok ones. The counters
  // are read independently, so a request landing mid-sample can skew one
  // tick by a count — clamp rather than report a negative.
  smp.requests = d_exec + smp.shed;
  smp.ok = std::max<int64_t>(0, d_exec - smp.expired - smp.failed);
  smp.degraded = degraded - cursor_.degraded;
  smp.swaps = swaps - cursor_.swaps;
  smp.latency = e2e_hist_.SnapshotDelta(&cursor_.latency);
  smp.queue_depth = inflight_.load(std::memory_order_relaxed);
  cursor_.requests = requests;
  cursor_.shed = shed;
  cursor_.expired = expired;
  cursor_.failed = failed;
  cursor_.degraded = degraded;
  cursor_.swaps = swaps;
  windows_->Push(smp);
}

}  // namespace dgnn::serve
