// serve_routed: the serve_ivf traffic shape through shard::Router to
// three dense fp32 shard engines behind the real Unix-socket transport
// (SocketServer + ShardService, wired as `dgnn_serve --listen` wires
// them), with a two-phase CoordinatedSwap between two snapshot
// generations every few seconds under load.
//
// Every kCheckStride-th op of the schedule has a reference answer from a
// single-process engine over the matching unsharded snapshot (computed
// at preparation). After the timed phase each such answer that does not
// overlap a swap must match the reference of the generation its
// snapshot_version names, in ids and float bits, and every swap's new
// version must be observed.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "result.h"
#include "serve_common.h"
#include "shard/router.h"
#include "shard/shard_service.h"
#include "shard/transport.h"
#include "spans.h"
#include "util/telemetry.h"
#include "world.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
namespace telemetry = dgnn::telemetry;

// setup_s is the median of kSetupSamples samples, each the mean of
// kSetupsPerSample back-to-back fleet starts (one start takes ~0.25 s).
constexpr int kSetupSamples = 5;
constexpr int kSetupsPerSample = 2;
constexpr int kSoloCalls = 150;
// Stated tolerance of the traced reconciliation: lateness, the mean
// shard critical path under load and the router's own time must come
// within this share of the mean latency. The rest is waiting that none
// of them covers: for a socket connection or a CPU under concurrent
// load, and behind swaps.
constexpr double kReconcileTolerance = 0.25;

std::string GenPrefix(const RunArgs& args, int gen) {
  return args.world + "/gen" + std::to_string(gen);
}

std::string OpOf(const std::string& line) {
  static const char kKey[] = "\"op\":\"";
  const size_t at = line.find(kKey);
  if (at == std::string::npos) return "?";
  const size_t begin = at + sizeof(kKey) - 1;
  const size_t end = line.find('"', begin);
  return line.substr(begin, end == std::string::npos ? 0 : end - begin);
}

// Per-op handler timings, filled only in the traced pass.
struct OpTimes {
  std::mutex mu;
  std::map<std::string, std::pair<int64_t, double>> by_op;  // count, s
  // Shard critical path summed over requests: every user_vector and
  // score_item call, plus the slowest of each scatter's partials. The
  // router sends one scatter's line unchanged to every shard, so the
  // line text groups the partials of one request.
  double critical_s = 0.0;
  std::map<std::string, std::pair<int, double>> scatters;  // count, max s

  void Record(const std::string& line, double s) {
    const std::string op = OpOf(line);
    std::lock_guard<std::mutex> lock(mu);
    auto& e = by_op[op];
    ++e.first;
    e.second += s;
    if (op == "user_vector" || op == "score_item") {
      critical_s += s;
    } else if (op == "topk_partial" || op == "similar_partial") {
      auto& g = scatters[line];
      g.second = std::max(g.second, s);
      if (++g.first == kNumShards) {
        critical_s += g.second;
        scatters.erase(line);
      }
    }
  }
  double CriticalSeconds() {
    std::lock_guard<std::mutex> lock(mu);
    return critical_s;
  }
  double MeanMs(const std::string& op) {
    std::lock_guard<std::mutex> lock(mu);
    auto it = by_op.find(op);
    return it == by_op.end() || it->second.first == 0
               ? 0.0
               : it->second.second * 1e3 / it->second.first;
  }
  int64_t Count(const std::string& op) {
    std::lock_guard<std::mutex> lock(mu);
    auto it = by_op.find(op);
    return it == by_op.end() ? 0 : it->second.first;
  }
};

// Three shard engines behind sockets plus the router over them.
struct Fleet {
  std::vector<std::unique_ptr<serve::ServingEngine>> engines;
  std::vector<std::unique_ptr<shard::ShardService>> services;
  std::vector<std::unique_ptr<shard::SocketServer>> servers;
  std::unique_ptr<shard::Router> router;
  double load_s = 0.0, start_s = 0.0;

  ~Fleet() {
    if (router) router->Stop();
    for (auto& s : servers) s->Stop();
  }
};

std::unique_ptr<Fleet> StartFleet(const RunArgs& args, OpTimes* times,
                                  Result* result) {
  auto f = std::make_unique<Fleet>();
  shard::RouterConfig rc;
  Clock::time_point t = Clock::now();
  for (int i = 0; i < kNumShards; ++i) {
    const std::string path =
        serve::ShardSnapshotPath(GenPrefix(args, 0), i, kNumShards);
    auto engine = std::make_unique<serve::ServingEngine>();
    const dgnn::util::Status st = engine->Load(path);
    result->Check(st.ok(), "shard snapshot loads");
    if (!st.ok()) return nullptr;
    f->services.push_back(std::make_unique<shard::ShardService>(*engine, path));
    f->engines.push_back(std::move(engine));
  }
  f->load_s = SecondsSince(t);
  t = Clock::now();
  for (int i = 0; i < kNumShards; ++i) {
    const std::string sock = args.dir + "/s" + std::to_string(i) + ".sock";
    shard::ShardService* service = f->services[static_cast<size_t>(i)].get();
    shard::SocketServer::Handler handler;
    if (times == nullptr) {
      handler = [service](const std::string& l) {
        return service->HandleLine(l);
      };
    } else {
      handler = [service, times](const std::string& l) {
        const Clock::time_point t0 = Clock::now();
        std::string out = service->HandleLine(l);
        times->Record(l, SecondsSince(t0));
        return out;
      };
    }
    f->servers.push_back(std::make_unique<shard::SocketServer>());
    const dgnn::util::Status st = f->servers.back()->Start(sock, handler);
    result->Check(st.ok(), "shard socket server starts");
    if (!st.ok()) return nullptr;
    rc.shard_paths.push_back(sock);
  }
  f->router = std::make_unique<shard::Router>(rc);
  const dgnn::util::Status st = f->router->Start();
  result->Check(st.ok(), "router starts over the fleet");
  if (!st.ok()) return nullptr;
  f->start_s = SecondsSince(t);
  return f;
}

serve::Response Route(shard::Router& router, const Op& op) {
  switch (op.kind) {
    case OpKind::kScore: return router.Score(op.user, op.item);
    case OpKind::kSimilar: return router.SimilarUsers(op.user, kTopK);
    case OpKind::kTopK:
    case OpKind::kUnknown: break;
  }
  return router.TopK(op.user, kTopK);
}

struct SwapRecord {
  double start_s = 0.0, end_s = 0.0;
  int64_t version = 0;
  bool ok = false;
};

struct Served {
  Phase phase;
  Tally tally;
  LatencySummary lat;
  std::vector<SwapRecord> swaps;
  double match_share = 0.0;  // checked answers equal to their reference
};

// One timed pass on a fleet serving generation 0: the schedule through
// the router while a swapper thread alternates generations every
// `period_s`; then the answer checks.
Served Serve(const RunArgs& args, Fleet& fleet, const std::vector<Op>& schedule,
             const std::vector<Reference> refs[2], Result* result) {
  Served s;
  std::vector<serve::Response> sampled(schedule.size() / kCheckStride + 1);
  // Swaps at period_s, 2 period_s, ... while at least half a period of
  // traffic remains to observe each new version.
  const double period_s = std::max(1.0, args.seconds / 5.0);
  const int num_swaps =
      static_cast<int>(std::floor((args.seconds - 0.5 * period_s) / period_s));
  std::atomic<bool> done{false};
  std::mutex mu;
  std::condition_variable cv;
  const Clock::time_point t0 = Clock::now();
  auto rel = [t0] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  int gen = 0;
  std::thread swapper([&] {
    for (int k = 1; k <= num_swaps; ++k) {
      {
        std::unique_lock<std::mutex> lock(mu);
        const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(k * period_s));
        if (cv.wait_until(lock, due, [&] { return done.load(); })) return;
      }
      gen = 1 - gen;
      SwapRecord r;
      r.start_s = rel();
      auto v = fleet.router->CoordinatedSwap(GenPrefix(args, gen));
      r.end_s = rel();
      r.ok = v.ok();
      r.version = v.ok() ? v.value() : 0;
      s.swaps.push_back(r);
    }
  });
  s.phase = RunPhase(
      schedule,
      [&](const Op& op, size_t i) {
        spans::Span span("router.request", static_cast<int64_t>(i));
        serve::Response r = Route(*fleet.router, op);
        const Outcome o = Classify(r);
        if (i % kCheckStride == 0) sampled[i / kCheckStride] = std::move(r);
        return o;
      },
      t0);
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_all();
  swapper.join();
  s.tally = TallyPhase(s.phase, result);
  s.lat = Summarize(s.phase, schedule, args.seconds, s.tally);

  // Answer checks, outside the timed window.
  bool swaps_ok = static_cast<int>(s.swaps.size()) == num_swaps;
  for (const SwapRecord& w : s.swaps) swaps_ok &= w.ok;
  result->Check(swaps_ok, "every CoordinatedSwap succeeds");
  auto overlaps_swap = [&](const Sample& x) {
    for (const SwapRecord& w : s.swaps) {
      if (x.start_s <= w.end_s && x.end_s >= w.start_s) return true;
    }
    return false;
  };
  // Versions count loads and swaps: generation 0 was served at
  // base_version and every swap flipped the generation.
  const int64_t base_version =
      fleet.engines[0]->swap_count() - static_cast<int64_t>(s.swaps.size());
  int checked = 0, matched = 0;
  std::vector<int64_t> versions_seen;
  for (size_t pos = 0; pos < refs[0].size(); ++pos) {
    const size_t i = refs[0][pos].index;
    if (i >= schedule.size() || overlaps_swap(s.phase.samples[i])) continue;
    const serve::Response& r = sampled[i / kCheckStride];
    ++checked;
    const int64_t flips = r.snapshot_version - base_version;
    if (!r.ok || flips < 0) continue;
    const int g = static_cast<int>(flips % 2);
    if (MatchesReference(r, refs[g][pos], schedule[i].kind)) {
      ++matched;
      versions_seen.push_back(r.snapshot_version);
    }
  }
  s.match_share = checked > 0 ? static_cast<double>(matched) / checked : 0.0;
  result->Check(checked > 0 && matched == checked,
                "sampled routed answers match the single-process engine "
                "bit for bit (" + std::to_string(checked - matched) + " of " +
                    std::to_string(checked) + " differ)");
  for (const SwapRecord& w : s.swaps) {
    result->Check(std::count(versions_seen.begin(), versions_seen.end(),
                             w.version) > 0,
                  "swap to version " + std::to_string(w.version) +
                      " is observed by a checked answer");
  }
  return s;
}

double SwapWindowP99(const Served& s) {
  std::vector<double> lat;
  for (const Sample& x : s.phase.samples) {
    for (const SwapRecord& w : s.swaps) {
      if (x.start_s <= w.end_s && x.end_s >= w.start_s) {
        lat.push_back(x.latency_s * 1e3);
        break;
      }
    }
  }
  std::sort(lat.begin(), lat.end());
  return NearestRank(lat, 0.99);
}

}  // namespace

Result RunServeRouted(const RunArgs& args) {
  Result result;
  std::vector<Reference> refs[2];
  for (int g = 0; g < 2; ++g) {
    result.Check(ReadReferences(args.dir + "/gen" + std::to_string(g) +
                                    ".ref.txt",
                                &refs[g]),
                 "reference answers read");
  }
  result.Check(!refs[0].empty() && refs[0].size() == refs[1].size(),
               "both generations have reference answers");
  if (!result.correct()) return result;

  // setup_s: three shard loads, the socket servers and Router::Start.
  std::vector<double> setups, loads, starts;
  std::unique_ptr<Fleet> fleet;
  auto start = [&] {
    fleet.reset();
    const Clock::time_point t = Clock::now();
    fleet = StartFleet(args, nullptr, &result);
    if (fleet == nullptr) return false;
    setups.push_back(SecondsSince(t));
    loads.push_back(fleet->load_s);
    starts.push_back(fleet->start_s);
    return true;
  };
  if (!start()) return result;
  const int32_t users = static_cast<int32_t>(fleet->router->num_users());
  const int32_t items = static_cast<int32_t>(fleet->router->num_items());
  const std::vector<Op> schedule = MakeSchedule(
      ServeSchedule(args.seed, kRoutedRateQps, args.seconds, users, items));
  const std::vector<Op> warmup =
      WarmupSchedule(args.seed, kRoutedRateQps, users, items);
  auto warm = [&warmup](Fleet& f) {
    RunPhase(warmup, [&f](const Op& op, size_t) {
      return Classify(Route(*f.router, op));
    });
  };
  warm(*fleet);

  const Served plain = Serve(args, *fleet, schedule, refs, &result);
  result.tally = plain.tally;
  std::vector<double> swap_s;
  for (const SwapRecord& w : plain.swaps) swap_s.push_back(w.end_s - w.start_s);
  // setup_s: fleet starts repeated after the peak RSS is read. The first
  // start, made before the timed work, is not one of the samples.
  const double rss_mb = PeakRssMb();
  setups.clear();
  loads.clear();
  starts.clear();
  while (static_cast<int>(setups.size()) < kSetupSamples * kSetupsPerSample) {
    if (!start()) return result;
  }
  const double setup_s = MedianOfBlockMeans(setups, kSetupsPerSample);

  if (!args.trace) {
    result.Add("setup_s", setup_s, "s");
    result.Add("rss_mb", rss_mb, "MB");
    result.Add("p50_ms", plain.lat.p50_ms, "ms");
    result.Add("cpu_ms_per_op", plain.lat.cpu_ms_per_op, "ms");
    result.Add("quality", plain.match_share, "ratio");
    std::printf("serve_routed: %s, p99 %.3f ms, %zu swaps, median swap "
                "%.4f s, late mean %.3f ms max %.3f ms\n%s\n",
                plain.tally.Json().c_str(), plain.lat.p99_ms,
                plain.swaps.size(), Median(swap_s), plain.lat.late_mean_ms,
                plain.lat.late_max_ms, plain.lat.WindowsText().c_str());
    return result;
  }

  // ---- traced pass: a fresh fleet with timing handlers -----------------
  fleet.reset();
  OpTimes times;
  telemetry::SetEnabled(true);
  spans::SetEnabled(true);
  const Clock::time_point t = Clock::now();
  fleet = StartFleet(args, &times, &result);
  if (fleet == nullptr) return result;
  const double traced_setup_s = SecondsSince(t);
  warm(*fleet);
  telemetry::Reset();
  {
    std::lock_guard<std::mutex> lock(times.mu);
    times.by_op.clear();
    times.scatters.clear();
    times.critical_s = 0.0;
  }
  std::vector<const serve::ServingEngine*> engines;
  for (const auto& e : fleet->engines) engines.push_back(e.get());
  const EngineTotals before = Totals(engines);
  const shard::RouterCounters c0 = fleet->router->counters();
  const Served traced = Serve(args, *fleet, schedule, refs, &result);
  spans::SetEnabled(false);
  const double critical_ms = times.CriticalSeconds() * 1e3 /
                             std::max<int64_t>(1, traced.tally.sent);
  const shard::RouterCounters c1 = fleet->router->counters();
  const int64_t retries = c1.retries - c0.retries;
  const int64_t hedges = c1.hedges - c0.hedges;
  const int64_t failovers = c1.failovers - c0.failovers;
  const int64_t degraded = c1.degraded_responses - c0.degraded_responses;
  result.Check(retries == 0 && hedges == 0 && failovers == 0,
               "no retries, hedges or failovers on a healthy fleet");
  result.Check(degraded == traced.tally.degraded,
               "the router degrades exactly the unknown-user requests");
  // Shard-engine stages, batching and cache (summed over the fleet).
  AddEngineLayers(before, Totals(engines), &result);
  const double user_vector_ms = times.MeanMs("user_vector");
  const double topk_partial_ms = times.MeanMs("topk_partial");
  const double similar_partial_ms = times.MeanMs("similar_partial");
  const double score_item_ms = times.MeanMs("score_item");
  int64_t shard_ops = 0;
  for (const char* op : {"user_vector", "topk_partial", "similar_partial",
                         "score_item"}) {
    shard_ops += times.Count(op);
  }
  const double prepare_ms = times.MeanMs("swap_prepare");
  const double commit_ms = times.MeanMs("swap_commit");

  // Router self time with one request in flight, over the first ops of
  // the schedule (so over the mix): routed latency minus the shard
  // critical path (user_vector plus the slowest partial).
  std::vector<double> self_ms;
  for (size_t i = 0; i < schedule.size() && i < kSoloCalls; ++i) {
    const double critical0 = times.CriticalSeconds();
    const Clock::time_point t0 = Clock::now();
    Route(*fleet->router, schedule[i]);
    const double total = SecondsSince(t0);
    self_ms.push_back((total - (times.CriticalSeconds() - critical0)) * 1e3);
  }
  double self_mean_ms = 0.0;
  for (double v : self_ms) self_mean_ms += v;
  self_mean_ms /= static_cast<double>(std::max<size_t>(1, self_ms.size()));
  // The handlers point at `times`; stop the fleet before it goes away.
  fleet.reset();
  std::vector<double> traced_swap_s;
  for (const SwapRecord& w : traced.swaps) {
    traced_swap_s.push_back(w.end_s - w.start_s);
  }

  result.Add("gen.late_ms_mean", traced.lat.late_mean_ms, "ms");
  result.Add("gen.late_ms_max", traced.lat.late_max_ms, "ms");
  result.Add("gen.p99_ms", traced.lat.p99_ms, "ms");
  result.Add("shard.user_vector_ms", user_vector_ms, "ms");
  result.Add("shard.topk_partial_ms", topk_partial_ms, "ms");
  result.Add("shard.similar_partial_ms", similar_partial_ms, "ms");
  result.Add("shard.score_item_ms", score_item_ms, "ms");
  result.Add("shard.ops_per_req",
             static_cast<double>(shard_ops) /
                 std::max<int64_t>(1, traced.tally.sent),
             "count");
  result.Add("shard.router_self_ms", Median(self_ms), "ms");
  result.Add("shard.retries", static_cast<double>(retries), "count");
  result.Add("shard.hedges", static_cast<double>(hedges), "count");
  result.Add("shard.failovers", static_cast<double>(failovers), "count");
  result.Add("shard.degraded", static_cast<double>(degraded), "count");
  result.Add("serve.swap_window_p99_ms", SwapWindowP99(traced), "ms");
  result.Add("shard.swap_prepare_ms", prepare_ms, "ms");
  result.Add("shard.swap_commit_ms", commit_ms, "ms");
  result.Add("shard.swap_s", Median(traced_swap_s), "s");
  result.Add("serve.load_s", Median(loads), "s");
  result.Add("shard.router_start_s", Median(starts), "s");
  const double unaccounted = traced.lat.mean_ms - traced.lat.late_mean_ms -
                             critical_ms - self_mean_ms;
  result.Add("serve.unaccounted_ms", unaccounted, "ms");
  result.Add("trace.overhead_ratio", traced.lat.mean_ms / plain.lat.mean_ms,
             "ratio");

  std::printf("serve_routed against mean scheduled-arrival latency %.4f ms "
              "(traced):\n",
              traced.lat.mean_ms);
  std::printf("  %-22s %9.4f ms\n", "gen.late", traced.lat.late_mean_ms);
  std::printf("  %-22s %9.4f ms  (user_vector/score_item + slowest "
              "partial, under load)\n",
              "shard critical path", critical_ms);
  std::printf("  %-22s %9.4f ms  (mean over %zu solo calls; median %.4f)\n",
              "router self", self_mean_ms, self_ms.size(), Median(self_ms));
  const double share = unaccounted / traced.lat.mean_ms;
  std::printf("  %-22s %9.4f ms  %5.2f%% (tolerance %.0f%%)\n",
              "unaccounted", unaccounted, 100.0 * share,
              100.0 * kReconcileTolerance);
  result.Check(std::fabs(share) <= kReconcileTolerance,
               "lateness + shard critical path + router self time add up "
               "to the mean latency");
  std::printf("tracing overhead: mean %.4f ms traced vs %.4f ms untraced "
              "(%+.2f%%); setup %.4f s traced\n",
              traced.lat.mean_ms, plain.lat.mean_ms,
              100.0 * (traced.lat.mean_ms / plain.lat.mean_ms - 1.0),
              traced_setup_s);
  result.traced_e2e = {{"p50_ms", traced.lat.p50_ms, "ms"},
                       {"p99_ms", traced.lat.p99_ms, "ms"},
                       {"cpu_ms_per_op", traced.lat.cpu_ms_per_op, "ms"}};
  result.untraced_e2e = {{"p50_ms", plain.lat.p50_ms, "ms"},
                         {"p99_ms", plain.lat.p99_ms, "ms"},
                         {"cpu_ms_per_op", plain.lat.cpu_ms_per_op, "ms"}};
  return result;
}

}  // namespace perfbench
