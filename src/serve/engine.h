// ServingEngine — the online half of the serving split: loads embedding
// snapshots (serve/snapshot.h) and answers TopK / Score / SimilarUsers
// requests from many threads at once.
//
// Properties:
//  - Zero-downtime hot swap. The active snapshot (plus state derived
//    from it: per-user norms, the popularity ranking) lives behind a
//    shared_ptr that Swap()/Load() replace atomically; in-flight
//    requests finish on the snapshot they started with, new requests see
//    the new one. Nothing blocks on a swap.
//  - One concurrency rule. The thread that calls Handle() admits,
//    executes and finishes its own request and leaves nothing of it
//    running; concurrent callers run side by side (each ranking scan
//    goes through the shared util::ThreadPool, or runs serially on the
//    caller while another region holds the pool).
//  - LRU cache of the per-user scoring vector (the social-recalibrated
//    user embedding when social_alpha > 0, the raw row otherwise),
//    invalidated wholesale on snapshot swap.
//  - Graceful degradation. Unknown/cold users get the popularity ranking
//    (train interaction counts from the snapshot) instead of an error;
//    responses carry a `degraded` flag. Malformed requests (k <= 0,
//    unknown op) yield ok=false responses, never a crash.
//  - Overload control. With max_inflight > 0, a request arriving while
//    max_inflight requests are already executing is SHED: it gets an
//    immediate ok=false "overloaded" response instead of adding latency
//    for everyone. Per-request deadlines (or the config default) are
//    stamped at admission; a request whose deadline passed before its
//    execution started fails fast with "deadline exceeded".
//  - Determinism. With social_alpha == 0 (the default) results are
//    bit-identical to a direct train::Recommender over the same
//    parameters for any thread count and any concurrency: every op, client
//    or shard, ranks through serve/ranking.h's one top-k ranker
//    (TopKUnseen) or one cosine ranker (TopKSimilar), whatever the
//    storage format.
//
// Telemetry (when telemetry::Enabled()): counters serve.cache_hits,
// serve.cache_misses, serve.snapshot_swaps, serve.degraded_requests,
// serve.requests, serve.batches, serve.shed_requests,
// serve.expired_requests, serve.failed_requests (serve.batches counts
// one per request); gauge serve.queue_depth (requests in flight);
// histograms serve.e2e_seconds (admission ->
// response handoff, shed included) and the per-stage breakdown
// serve.stage.{queue,recal,compute,rank,reply}_seconds, whose per-stage
// sums reconcile with serve.e2e_seconds. The counters are always
// available programmatically via stats(), and end-to-end latency via
// windows().
//
// Observability plane: every request gets a monotonic trace id at
// admission (survives hot swaps; returned in Response::trace_id), stage
// timestamps are kept per slot when anything is observing, a background
// sampler (StartSampler) folds 1 s deltas into rolling windows
// (telemetry::WindowedStats) with SLO burn accounting, and a TraceSink
// receives sampled per-request RequestTrace records.

#ifndef DGNN_SERVE_ENGINE_H_
#define DGNN_SERVE_ENGINE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "serve/ranking.h"
#include "serve/snapshot.h"
#include "util/status.h"
#include "util/windowed_stats.h"

namespace dgnn::serve {

// Longest deadline anything stamps, one day: keeps now() + deadline far
// inside steady_clock's range. The client protocol refuses a longer
// deadline_ms, and the engine and the router cap their configured
// defaults with it.
inline constexpr int64_t kMaxDeadlineMs = 24LL * 3600 * 1000;

struct EngineConfig {
  // LRU entries for per-user scoring vectors; <= 0 disables the cache.
  int cache_capacity = 4096;
  // Serve-time social recalibration (DiffNet-style influence smoothing
  // without re-running the encoder): the scoring vector becomes
  // (1 - alpha) * e_u + alpha * mean(e_v for social neighbors v). 0 keeps
  // the raw embedding and bit-identical parity with train::Recommender.
  float social_alpha = 0.0f;
  // Admission bound on requests executing at once: a request that
  // arrives while max_inflight are in flight is shed with an ok=false
  // "overloaded" response. <= 0 (default) admits every request.
  int max_inflight = 0;
  // Default per-request deadline in milliseconds, stamped at admission;
  // a request whose deadline passed before execution starts fails fast
  // with "deadline exceeded". Request::timeout_ms overrides per request.
  // <= 0 disables. Capped at kMaxDeadlineMs.
  int64_t default_deadline_ms = 0;

  // --- Quantized snapshots & IVF retrieval ---
  // Coarse lists probed per TopK request when the snapshot carries an
  // IVF index. <= 0 keeps the brute-force full-catalog scan even when an
  // index is present (the safe default — identical results, linear cost).
  int nprobe = 0;
  // Shortlist size exact-reranked in fp32 after the quantized/IVF
  // candidate scan; <= 0 picks max(4 * k, 64) per request. Larger values
  // trade latency for recall.
  int rerank = 0;

  // --- Observability plane (README "Live observability") ---
  // Period of the background windowed-stats sampler thread; <= 0 leaves
  // it stopped until StartSampler() is called explicitly.
  int sampler_period_ms = 0;
  // Fraction of requests emitted to the trace sink, decided
  // deterministically from the trace id (a hash threshold, not a RNG) so
  // replays sample the same requests. 1 = every request, 0 = none.
  double trace_sample_rate = 1.0;
  // SLO thresholds feeding the windowed burn-rate counters; <= 0
  // disables the corresponding accounting. p99 is judged per 1 s-window
  // against slo_p99_ms; availability (ok / admitted) against
  // slo_availability.
  double slo_p99_ms = 0.0;
  double slo_availability = 0.0;
};

struct Request {
  // kTopK/kScore/kSimilarUsers are the client-facing ops. The k*Partial
  // and kUserVector/kScoreItem ops are the shard-worker vocabulary the
  // router speaks (src/shard/): kUserVector fetches the owning shard's
  // scoring vector, the partial ops rank THIS shard's item/user slice
  // against a caller-supplied query vector, and kScoreItem scores one
  // globally-addressed item. Item ids in partial responses are global.
  enum class Type {
    kTopK,
    kScore,
    kSimilarUsers,
    kUserVector,
    kTopKPartial,
    kSimilarPartial,
    kScoreItem,
  };
  Type type = Type::kTopK;
  int32_t user = 0;
  int32_t item = 0;  // kScore / kScoreItem
  int k = 10;        // kTopK / kSimilarUsers / partials
  // Per-request deadline override in milliseconds (0 = use the config
  // default; < 0 = explicitly no deadline).
  int64_t timeout_ms = 0;
  // Query vector for the partial / kScoreItem ops (the user's scoring
  // vector, fetched from the owning shard). Must match the embedding dim.
  std::vector<float> query;
  // Precomputed norm of `query` (kSimilarPartial cosine denominator) —
  // passed through so every shard divides by the exact same float.
  float query_norm = 0.0f;
  // kTopKPartial only: rank this shard's slice of the popularity
  // fallback instead of scoring `query` (down/unknown user-shard path).
  bool popularity = false;
};

struct Response {
  bool ok = false;
  std::string error;  // set when !ok
  std::vector<ScoredItem> items;  // kTopK / kSimilarUsers
  float score = 0.0f;             // kScore
  // True when the engine fell back (unknown user/item -> popularity or
  // neutral score) instead of failing the request.
  bool degraded = false;
  // Swap count of the snapshot that served this request (1 = first
  // loaded snapshot); lets clients observe hot swaps.
  int64_t snapshot_version = 0;
  // Engine-unique id assigned at admission (1-based, monotonic across
  // snapshot swaps); keys the per-request trace record when sampled.
  int64_t trace_id = 0;
  // kUserVector only: the scoring vector and its norm.
  std::vector<float> vector;
  float vector_norm = 0.0f;
  // Router-filled on degraded scatter/gathers: indices of the shards
  // whose slice is missing from (or substituted in) this answer.
  std::vector<int32_t> missing_shards;
};

// One sampled request's stage breakdown, pushed to the trace sink set by
// SetTraceSink(). Stage seconds partition the request's lifetime:
// queue (admission -> execution start, which includes any pre-execution
// stall), recal (user-vector recalibration / cache lookup), compute
// (parallel catalog scan), rank (filter + top-k select), reply
// (execution end -> response handoff). Their sum is <= total_seconds by
// construction (per-request bookkeeping is the remainder).
struct RequestTrace {
  int64_t trace_id = 0;
  // Admission timestamp in microseconds on the telemetry trace-epoch
  // clock (lines up with exported chrome://tracing spans).
  int64_t ts_us = 0;
  const char* type = "topk";     // "topk" | "score" | "similar_users"
  const char* outcome = "ok";    // "ok" | "shed" | "expired" | "failed"
  int32_t user = 0;
  int k = 0;
  int64_t snapshot_version = 0;
  bool degraded = false;
  double queue_seconds = 0.0;
  double recal_seconds = 0.0;
  double compute_seconds = 0.0;
  double rank_seconds = 0.0;
  double reply_seconds = 0.0;
  double total_seconds = 0.0;
};

// Monotonic totals since construction (independent of telemetry being
// enabled); hit/miss only move when the cache is enabled.
struct EngineStats {
  int64_t requests = 0;
  // Equals requests: every request executes on its own.
  int64_t batches = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t snapshot_swaps = 0;
  int64_t degraded_requests = 0;
  // Requests refused at admission because max_inflight were executing.
  int64_t shed_requests = 0;
  // Requests whose deadline passed before execution started.
  int64_t expired_requests = 0;
  // Executed requests that came back ok=false for a reason other than an
  // expired deadline (failpoint errors, no snapshot, malformed k).
  int64_t failed_requests = 0;
};

class ServingEngine {
 public:
  using TraceSink = std::function<void(const RequestTrace&)>;

  explicit ServingEngine(EngineConfig config = {});
  // Stops and joins the sampler thread if it is running.
  ~ServingEngine();

  // Reads and fully validates the snapshot file, then swaps it in. On
  // error the engine keeps serving its current snapshot.
  util::Status Load(const std::string& path);

  // Swaps in an already-built snapshot. In-flight requests complete on
  // the old one; the user-vector cache is invalidated.
  void Swap(std::shared_ptr<const Snapshot> snapshot);

  // Snapshot currently being served (nullptr before the first Load/Swap).
  std::shared_ptr<const Snapshot> snapshot() const;
  // Number of successful Load/Swap calls so far.
  int64_t swap_count() const;

  // Serves one request on the calling thread. Never CHECK-fails on
  // request content: errors come back as ok=false.
  Response Handle(const Request& request);

  EngineStats stats() const;
  const EngineConfig& config() const { return config_; }

  // Requests in flight (admitted, not yet finished) — the shard probe's
  // instantaneous load signal.
  int64_t queue_depth() const {
    return inflight_.load(std::memory_order_relaxed);
  }

  // --- Observability plane ---

  // Installs (or clears, with nullptr-like empty function) the sampled
  // per-request trace sink. The sink is invoked inline on the serving
  // thread for requests selected by trace_sample_rate — keep it cheap
  // (an appending JSONL write is the intended shape). Thread-safe.
  void SetTraceSink(TraceSink sink);

  // Starts the background windowed-stats sampler (idempotent).
  // period_ms <= 0 uses config().sampler_period_ms, or 1000 if that is
  // also unset. StopSampler() joins the thread; the destructor calls it.
  void StartSampler(int period_ms = 0);
  void StopSampler();
  bool sampler_running() const {
    return sampler_running_.load(std::memory_order_relaxed);
  }

  // Takes one synchronous sampler tick of `seconds` nominal duration —
  // the deterministic path tests use instead of racing the thread.
  void SampleOnceForTest(double seconds = 1.0);

  // Rolling 1 s/10 s/60 s windows fed by the sampler. Present from
  // construction; empty until the sampler (or SampleOnceForTest) ticks.
  const telemetry::WindowedStats& windows() const { return *windows_; }

 private:
  // Everything derived from one snapshot, immutable once published.
  struct State {
    std::shared_ptr<const Snapshot> snap;
    // Storage-generic views over the snapshot's embeddings (dense fp32 or
    // quantized section); every scoring path ranks through these.
    EmbeddingView users_view;
    EmbeddingView items_view;
    std::vector<float> user_norms;
    // Item ids sorted by (train count desc, id asc) — the degraded-path
    // ranking for unknown users. Ids are GLOBAL (offset applied for
    // sharded snapshots).
    std::vector<ScoredItem> popularity;
    int64_t version = 0;

    // Sharded-snapshot addressing. For ordinary snapshots these are the
    // identity: global counts equal the tensor shapes, item_offset is 0
    // and `owned` is empty (every user id is its own row).
    int64_t num_users_global = 0;
    int64_t num_items_global = 0;
    int64_t item_offset = 0;
    std::vector<int32_t> owned;  // global ids of locally-held users, asc

    // Row of `user` in users_view, or -1 when this shard does not hold
    // it. Caller must have bounds-checked user against num_users_global.
    int64_t LocalUserRow(int32_t user) const {
      if (owned.empty()) return user;
      auto it = std::lower_bound(owned.begin(), owned.end(), user);
      return (it != owned.end() && *it == user)
                 ? static_cast<int64_t>(it - owned.begin())
                 : -1;
    }
  };

  // Per-slot stage timestamps; `active` is decided once at admission
  // (false when nothing is observing, so the request path reads no
  // clocks beyond what it always did).
  struct StageTimes {
    bool active = false;
    std::chrono::steady_clock::time_point admit;
    std::chrono::steady_clock::time_point exec_start;
    std::chrono::steady_clock::time_point exec_end;
    double recal_seconds = 0.0;
    double compute_seconds = 0.0;
    double rank_seconds = 0.0;
  };

  enum class Outcome { kOk, kShed, kExpired, kFailed };

  struct Slot {
    const Request* request = nullptr;
    Response response;
    // Deadline stamped at admission; checked immediately before Execute.
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline;
    int64_t trace_id = 0;
    StageTimes stages;
    Outcome outcome = Outcome::kOk;
  };

  std::shared_ptr<const State> AcquireState() const;
  // Stamps Slot::deadline from request/config; no-op when both disable it.
  void StampDeadline(Slot* slot) const;
  // Takes an in-flight place; false when max_inflight are taken.
  bool Enter();
  // True when some consumer (telemetry export, the windowed sampler, or
  // a trace sink) will read stage timings.
  bool Observing() const;
  // Completion bookkeeping: records stage + end-to-end histograms and
  // emits the sampled trace record. Sets Response::trace_id.
  void FinishSlot(Slot* slot);
  // Runs the serve.execute failpoint, the deadline check and Execute,
  // filling slot->response, outcome and the exec stamps.
  void ExecuteSlot(const State* state, Slot* slot);
  Response Execute(const State* state, const Request& request,
                   StageTimes* stages);
  // The rank steps a client op shares with its shard twin. kTopK and
  // kTopKPartial: the slice's popularity answer, and RankItems — top-k
  // of the slice for `query` in GLOBAL ids, skipping `seen_user`'s seen
  // items (-1 = none), probing the IVF index when `probe_ivf` and the
  // config and snapshot allow. kSimilarUsers and kSimilarPartial:
  // RankUsers — top-k cosine over the held users in GLOBAL ids.
  void AnswerPopularity(const State& state, int k, Response* resp);
  std::vector<ScoredItem> RankItems(const State& state, const float* query,
                                    int32_t seen_user, int k, int rerank,
                                    bool probe_ivf, StageTimes* stages) const;
  std::vector<ScoredItem> RankUsers(const State& state, const float* query,
                                    float norm, int64_t exclude_row, int k,
                                    StageTimes* stages) const;
  // One sampler tick: pushes the counter/latency deltas since the
  // previous tick into windows_ as a sample of `seconds` duration.
  void SampleOnce(double seconds);
  // The (possibly recalibrated) vector used to score for `user`, served
  // from the LRU cache when enabled.
  std::vector<float> UserVector(const State& state, int32_t user);
  std::vector<float> ComputeUserVector(const State& state,
                                       int32_t user) const;
  void CountDegraded();

  const EngineConfig config_;

  mutable std::mutex state_mu_;
  std::shared_ptr<const State> state_;
  std::atomic<int64_t> swap_count_{0};

  // Requests between Enter() and the end of Handle().
  std::atomic<int64_t> inflight_{0};

  // LRU: most-recently-used at the front. Guarded by cache_mu_; the
  // cached vectors belong to snapshot version cache_version_ and are
  // dropped wholesale when it trails the active state.
  mutable std::mutex cache_mu_;
  std::list<std::pair<int32_t, std::vector<float>>> lru_;
  std::unordered_map<int32_t,
                     std::list<std::pair<int32_t, std::vector<float>>>::
                         iterator>
      cache_index_;
  int64_t cache_version_ = 0;

  std::atomic<int64_t> n_requests_{0};
  std::atomic<int64_t> n_cache_hits_{0};
  std::atomic<int64_t> n_cache_misses_{0};
  std::atomic<int64_t> n_degraded_{0};
  std::atomic<int64_t> n_shed_{0};
  std::atomic<int64_t> n_expired_{0};
  std::atomic<int64_t> n_failed_{0};

  // --- Observability plane ---
  std::atomic<int64_t> next_trace_id_{0};

  // Engine-owned end-to-end histogram, the sampler's latency source
  // (instantiated directly, not through the global registry, so
  // windowed stats work even when process-wide telemetry is disabled).
  // The registry's serve.e2e_seconds and serve.stage.* histograms are
  // recorded only when telemetry::Enabled().
  telemetry::Histogram e2e_hist_;

  std::mutex sink_mu_;
  TraceSink sink_;
  std::atomic<bool> has_sink_{false};

  std::unique_ptr<telemetry::WindowedStats> windows_;
  // Cursor of "counts as of the previous tick" for delta samples; only
  // SampleOnce touches it, serialized by sample_mu_.
  struct SampleCursor {
    int64_t requests = 0, shed = 0, expired = 0, failed = 0;
    int64_t degraded = 0, swaps = 0, cache_hits = 0, cache_misses = 0;
    telemetry::Histogram::Counts latency;
  };
  std::mutex sample_mu_;
  SampleCursor cursor_;

  std::thread sampler_thread_;
  std::mutex sampler_mu_;
  std::condition_variable sampler_cv_;
  bool sampler_stop_ = false;
  std::atomic<bool> sampler_running_{false};
};

}  // namespace dgnn::serve

#endif  // DGNN_SERVE_ENGINE_H_
