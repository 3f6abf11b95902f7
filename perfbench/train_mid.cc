// train_mid: DGNN at the paper defaults on a yelp-shaped mid-size world,
// evaluated after every epoch.
//
// Training runs on a worker pool of two threads (README.md, Bounds). On
// this world one, two and four threads train about equally fast, and
// every parallel region waits for its slowest lane: at four threads on a
// 4-vCPU VM the median epoch of ten runs spread by a third while the CPU
// per epoch did not. One thread follows the host's cache contention
// most. Two keep the parallel path (grain, pool overheads) in the
// measurement and leave half of such a host free.
//
// Untraced: the timed unit is one Trainer::TrainEpoch plus its
// Evaluator::EvaluateModel pass. Traced: a per-layer driver replays
// Trainer::TrainBatch call for call with a span around each layer, then
// an untraced Trainer run from the same seed must end with
// memcmp-identical parameters and identical HR/NDCG.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ag/adam.h"
#include "core/dgnn_model.h"
#include "data/io.h"
#include "data/sampler.h"
#include "graph/hetero_graph.h"
#include "result.h"
#include "spans.h"
#include "train/evaluator.h"
#include "train/trainer.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"
#include "world.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Epochs per run scale with --seconds at this nominal epoch time, so the
// epoch count (and with it HR/NDCG) depends only on the arguments.
constexpr double kNominalEpochS = 2.0;
// setup_s is the median of kSetupSamples samples, each the mean of
// kSetupsPerSample back-to-back set-ups (one set-up takes ~0.1 s).
constexpr int kSetupSamples = 5;
constexpr int kSetupsPerSample = 8;
// Stated tolerance of the traced reconciliation: layer self times must
// come within this share of the mean traced epoch.
constexpr double kReconcileTolerance = 0.02;
constexpr int kTrainThreads = 2;
const std::vector<int> kCutoffs = {kTopK};

struct Usage {
  double wall = 0.0, user = 0.0, sys = 0.0;
  int64_t minflt = 0;
};

Usage SampleUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.wall = spans::Now();
  u.user = ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6;
  u.sys = ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6;
  u.minflt = ru.ru_minflt;
  return u;
}

core::DgnnConfig ModelConfig(uint64_t seed) {
  core::DgnnConfig c;  // paper defaults: d=16, L=2, |M|=8
  c.seed = seed;
  return c;
}

train::TrainConfig TrainerConfig(uint64_t seed) {
  train::TrainConfig c;  // batch 2048, lr 0.01, l2 1e-4
  c.seed = seed;
  return c;
}

// Everything setup_s covers, kept at stable addresses (the model keeps
// a reference to the graph, the trainer to the dataset).
struct Stack {
  data::Dataset ds;
  std::unique_ptr<graph::HeteroGraph> graph;
  std::unique_ptr<core::DgnnModel> model;
  std::unique_ptr<train::Trainer> trainer;
  double load_s = 0.0, graph_s = 0.0, init_s = 0.0;
};

std::unique_ptr<Stack> BuildStack(const RunArgs& args, Result* result) {
  auto s = std::make_unique<Stack>();
  Clock::time_point t = Clock::now();
  {
    spans::Span span("data.load");
    auto loaded = data::LoadDataset(args.world + "/dataset");
    result->Check(loaded.ok(), "dataset loads");
    if (!loaded.ok()) return nullptr;
    s->ds = std::move(loaded.value());
  }
  s->load_s = SecondsSince(t);
  t = Clock::now();
  {
    spans::Span span("graph.build");
    s->graph = std::make_unique<graph::HeteroGraph>(s->ds);
  }
  s->graph_s = SecondsSince(t);
  t = Clock::now();
  {
    spans::Span span("core.init");
    s->model =
        std::make_unique<core::DgnnModel>(*s->graph, ModelConfig(args.seed));
    s->trainer = std::make_unique<train::Trainer>(s->model.get(), s->ds,
                                                  TrainerConfig(args.seed));
  }
  s->init_s = SecondsSince(t);
  return s;
}

// Timings of the set-ups repeated after the timed work (so they cannot
// raise the peak RSS the run reports).
struct SetupTimes {
  std::vector<double> total, load, graph, init;
};

std::unique_ptr<Stack> TimedSetup(const RunArgs& args, Result* result,
                                  SetupTimes* times) {
  const Clock::time_point t = Clock::now();
  std::unique_ptr<Stack> s = BuildStack(args, result);
  if (s == nullptr) return nullptr;
  times->total.push_back(SecondsSince(t));
  times->load.push_back(s->load_s);
  times->graph.push_back(s->graph_s);
  times->init.push_back(s->init_s);
  return s;
}

void RepeatSetups(const RunArgs& args, Result* result, SetupTimes* times) {
  while (static_cast<int>(times->total.size()) <
         kSetupSamples * kSetupsPerSample) {
    if (TimedSetup(args, result, times) == nullptr) return;
  }
}

double SetupSeconds(const SetupTimes& times) {
  return MedianOfBlockMeans(times.total, kSetupsPerSample);
}

int EpochsFor(double seconds) {
  return std::max(2, static_cast<int>(std::lround(seconds / kNominalEpochS)));
}

int64_t BatchesPerEpoch(const Stack& s) {
  const int64_t bs = TrainerConfig(0).batch_size;
  return (static_cast<int64_t>(s.ds.train.size()) + bs - 1) / bs;
}

// Trainer::TrainBatch, call for call, with a span per layer. The two
// RowDot calls stay separate statements: as BprLoss arguments their
// evaluation order is unspecified and the tape (and every gradient
// summed in its order) would change.
double TracedBatch(models::RecModel& model, ag::AdamOptimizer& adam,
                   const data::BprBatch& batch, float l2_reg) {
  spans::Span batch_span("train.batch");
  ag::Tape tape;
  models::ForwardResult fwd;
  {
    spans::Span span("core.forward");
    fwd = model.Forward(tape, /*training=*/true);
  }
  ag::VarId loss;
  {
    spans::Span span("train.loss");
    std::vector<int32_t> users(batch.users.begin(), batch.users.end());
    std::vector<int32_t> pos(batch.pos_items.begin(), batch.pos_items.end());
    std::vector<int32_t> neg(batch.neg_items.begin(), batch.neg_items.end());
    ag::VarId u_rows = tape.GatherRows(fwd.users, std::move(users));
    ag::VarId p_rows = tape.GatherRows(fwd.items, std::move(pos));
    ag::VarId n_rows = tape.GatherRows(fwd.items, std::move(neg));
    ag::VarId pos_scores = tape.RowDot(u_rows, p_rows);
    ag::VarId neg_scores = tape.RowDot(u_rows, n_rows);
    loss = tape.BprLoss(pos_scores, neg_scores);
    if (l2_reg > 0.0f) {
      ag::VarId reg = tape.AddN(
          {tape.L2(u_rows), tape.L2(p_rows), tape.L2(n_rows)});
      loss = tape.Add(
          loss, tape.ScalarMul(reg, l2_reg / static_cast<float>(batch.size())));
    }
    if (fwd.aux_loss >= 0) loss = tape.Add(loss, fwd.aux_loss);
  }
  const double loss_value = tape.val(loss).scalar();
  {
    spans::Span span("ag.backward");
    tape.Backward(loss);
  }
  {
    spans::Span span("ag.adam");
    adam.Step();
  }
  return loss_value;
}

train::Metrics TracedEval(models::RecModel& model,
                          const train::Evaluator& evaluator) {
  ag::Tape tape;
  models::ForwardResult fwd;
  {
    spans::Span span("train.eval_forward");
    fwd = model.Forward(tape, /*training=*/false);
  }
  spans::Span span("train.eval_rank");
  return evaluator.Evaluate(tape.val(fwd.users), tape.val(fwd.items),
                            kCutoffs);
}

bool SameParameters(models::RecModel& a, models::RecModel& b) {
  const auto& pa = a.params().params();
  const auto& pb = b.params().params();
  if (pa.size() != pb.size()) return false;
  for (size_t i = 0; i < pa.size(); ++i) {
    const ag::Tensor& x = pa[i]->value;
    const ag::Tensor& y = pb[i]->value;
    if (x.rows() != y.rows() || x.cols() != y.cols() ||
        std::memcmp(x.data(), y.data(), sizeof(float) * x.size()) != 0) {
      return false;
    }
  }
  return true;
}

// The public training loop: one Trainer::TrainEpoch plus its
// EvaluateModel pass per timed unit, appended to *epoch_s.
void RunEpochs(Stack& s, int epochs, train::Metrics* last,
               std::vector<double>* epoch_s) {
  const train::Evaluator evaluator(s.ds);
  for (int e = 0; e < epochs; ++e) {
    const Clock::time_point t = Clock::now();
    s.trainer->TrainEpoch();
    *last = evaluator.EvaluateModel(*s.model, kCutoffs);
    epoch_s->push_back(SecondsSince(t));
  }
}

void CheckQuality(const train::Metrics& m, Result* result) {
  const double hr = m.hr.count(kTopK) ? m.hr.at(kTopK) : 0.0;
  // 100 sampled negatives: a random ranking scores HR@10 ~ 10/101.
  result->Check(hr > 0.2 && hr <= 1.0, "HR@10 is well above random");
  result->Check(m.num_users > 1000, "evaluation covers the test users");
}

}  // namespace

Result RunTrainMid(const RunArgs& args) {
  Result result;
  util::SetNumThreads(std::min(
      kTrainThreads,
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()))));
  const int epochs = EpochsFor(args.seconds);
  SetupTimes setups;

  if (!args.trace) {
    std::unique_ptr<Stack> s = BuildStack(args, &result);
    if (s == nullptr) return result;
    const Usage u0 = SampleUsage();
    train::Metrics last;
    std::vector<double> epoch_s;
    RunEpochs(*s, epochs, &last, &epoch_s);
    const Usage u1 = SampleUsage();
    std::printf("train_mid: epoch times (s), in order:");
    for (double v : epoch_s) std::printf(" %.3f", v);
    std::printf("\n");
    std::sort(epoch_s.begin(), epoch_s.end());
    CheckQuality(last, &result);
    result.tally.sent = result.tally.ok = epochs * BatchesPerEpoch(*s);
    const double rss_mb = PeakRssMb();
    s.reset();
    RepeatSetups(args, &result, &setups);
    result.Add("setup_s", SetupSeconds(setups), "s");
    result.Add("rss_mb", rss_mb, "MB");
    result.Add("p50_ms", NearestRank(epoch_s, 0.5) * 1e3, "ms");
    result.Add("cpu_ms_per_op",
               (u1.user + u1.sys - u0.user - u0.sys) * 1e3 / epochs, "ms");
    result.Add("quality", last.hr.at(kTopK), "ratio");
    std::printf("train_mid: %d epochs, slowest %.4f s, ndcg@10 %.6f\n",
                epochs, epoch_s.back(), last.ndcg.at(kTopK));
    return result;
  }

  // ---- traced run ------------------------------------------------------
  // The per-layer driver (traced) and an untraced Trainer from the same
  // seed train side by side, one epoch each in turn, so host drift hits
  // both alike and the overhead ratio compares like with like.
  RepeatSetups(args, &result, &setups);
  std::unique_ptr<Stack> ref = BuildStack(args, &result);
  auto set_tracing = [](bool on) {
    dgnn::telemetry::SetEnabled(on);
    spans::SetEnabled(on);
  };
  set_tracing(true);
  const Clock::time_point setup_start = Clock::now();
  std::unique_ptr<Stack> s = BuildStack(args, &result);
  const double traced_setup_s = SecondsSince(setup_start);
  if (s == nullptr || ref == nullptr) return result;
  const train::TrainConfig tc = TrainerConfig(args.seed);
  data::BprSampler sampler(s->ds, tc.seed);
  ag::AdamConfig ac;
  ac.learning_rate = tc.learning_rate;
  ac.weight_decay = tc.weight_decay;
  ag::AdamOptimizer adam(&s->model->params(), ac);
  const train::Evaluator evaluator(s->ds);

  auto counter = [](const char* name) {
    return dgnn::telemetry::GetCounter(name)->value();
  };
  auto timer = [](const char* name) {
    return dgnn::telemetry::GetTimer(name)->total_seconds();
  };
  spans::Clear();  // per-layer sums cover the epochs only
  const double gemm0 = timer("ag.gemm"), spmm0 = timer("ag.spmm");
  const int64_t regions0 = counter("threadpool.regions");
  const int64_t chunks0 = counter("threadpool.chunks_run");
  std::vector<double> epoch_s, ref_epoch_s;
  std::vector<int64_t> edges_per_epoch;
  train::Metrics traced_metrics, ref_metrics;
  Usage used;  // summed over the traced epochs
  for (int e = 0; e < epochs; ++e) {
    set_tracing(true);
    const int64_t edges0 = counter("graph.spmm_edges_processed");
    const Usage u0 = SampleUsage();
    const Clock::time_point t = Clock::now();
    {
      spans::Span epoch_span("train.epoch");
      std::vector<data::BprBatch> batches;
      {
        spans::Span span("data.sample");
        batches = sampler.SampleEpoch(tc.batch_size);
      }
      for (const data::BprBatch& b : batches) {
        TracedBatch(*s->model, adam, b, tc.l2_reg);
      }
      traced_metrics = TracedEval(*s->model, evaluator);
    }
    epoch_s.push_back(SecondsSince(t));
    const Usage u1 = SampleUsage();
    used.wall += u1.wall - u0.wall;
    used.user += u1.user - u0.user;
    used.sys += u1.sys - u0.sys;
    used.minflt += u1.minflt - u0.minflt;
    edges_per_epoch.push_back(counter("graph.spmm_edges_processed") - edges0);
    set_tracing(false);
    RunEpochs(*ref, 1, &ref_metrics, &ref_epoch_s);
  }
  const auto layers = spans::Summarize();
  const double gemm_s = timer("ag.gemm") - gemm0;
  const double spmm_s = timer("ag.spmm") - spmm0;
  const int64_t regions = counter("threadpool.regions") - regions0;
  const int64_t chunks = counter("threadpool.chunks_run") - chunks0;
  const double traced_epoch_s = Median(epoch_s);
  const double untraced_epoch_s = Median(ref_epoch_s);
  CheckQuality(traced_metrics, &result);
  bool edges_repeat = true;
  for (int64_t n : edges_per_epoch) edges_repeat &= n == edges_per_epoch[0];
  result.Check(edges_repeat && edges_per_epoch[0] > 0,
               "graph.spmm_edges repeats exactly every epoch");
  result.Check(SameParameters(*s->model, *ref->model),
               "per-layer driver parameters are memcmp-identical to "
               "Trainer::TrainEpoch");
  result.Check(traced_metrics.hr == ref_metrics.hr &&
                   traced_metrics.ndcg == ref_metrics.ndcg,
               "HR/NDCG repeat exactly across the two training runs");

  const double n = static_cast<double>(epochs);
  auto per_epoch = [&](const char* name) {
    auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.self_s / n;
  };
  result.tally.sent = result.tally.ok = epochs * BatchesPerEpoch(*s);
  result.Add("data.sample_s", per_epoch("data.sample"), "s");
  result.Add("core.forward_s", per_epoch("core.forward"), "s");
  result.Add("train.loss_s", per_epoch("train.loss"), "s");
  result.Add("ag.backward_s", per_epoch("ag.backward"), "s");
  result.Add("ag.adam_s", per_epoch("ag.adam"), "s");
  result.Add("train.eval_forward_s", per_epoch("train.eval_forward"), "s");
  result.Add("train.eval_rank_s", per_epoch("train.eval_rank"), "s");
  result.Add("train.batch_other_s", per_epoch("train.batch"), "s");
  result.Add("ag.gemm_s", gemm_s / n, "s");
  result.Add("ag.spmm_s", spmm_s / n, "s");
  result.Add("graph.spmm_edges", static_cast<double>(edges_per_epoch[0]),
             "count");
  result.Add("util.pool_regions", regions / n, "count");
  result.Add("util.pool_chunks", chunks / n, "count");
  result.Add("os.minor_faults", used.minflt / n, "count");
  result.Add("os.sys_s", used.sys / n, "s");
  result.Add("os.cpu_per_wall", (used.user + used.sys) / used.wall, "ratio");
  result.Add("data.load_s", Median(setups.load), "s");
  result.Add("graph.build_s", Median(setups.graph), "s");
  result.Add("core.init_s", Median(setups.init), "s");

  // Reconciliation: layer self times against the traced epoch time; the
  // remainder is epoch time no layer span covers.
  const char* kLayers[] = {"data.sample",  "core.forward",
                           "train.loss",   "ag.backward",
                           "ag.adam",      "train.batch",
                           "train.eval_forward", "train.eval_rank"};
  double sum = 0.0;
  std::printf("train_mid per-layer self time per epoch (traced, %d epochs):\n",
              epochs);
  for (const char* name : kLayers) {
    const double v = per_epoch(name);
    sum += v;
    std::printf("  %-20s %9.4f s  %5.1f%%\n", name, v,
                100.0 * v / traced_epoch_s);
  }
  const double mean_epoch = [&] {
    double t = 0.0;
    for (double v : epoch_s) t += v;
    return t / n;
  }();
  std::printf("  %-20s %9.4f s  (mean traced epoch %.4f s)\n", "sum", sum,
              mean_epoch);
  const double share = (mean_epoch - sum) / mean_epoch;
  std::printf("  %-20s %9.4f s  %5.2f%% (tolerance %.0f%%)\n", "unaccounted",
              mean_epoch - sum, 100.0 * share, 100.0 * kReconcileTolerance);
  result.Check(std::fabs(share) <= kReconcileTolerance,
               "layer self times add up to the epoch");
  std::printf("  ag.gemm %.4f s + ag.spmm %.4f s per epoch (inside forward/"
              "backward)\n",
              gemm_s / n, spmm_s / n);
  std::printf("tracing overhead: traced epoch %.4f s vs untraced %.4f s "
              "(%+.2f%%)\n",
              traced_epoch_s, untraced_epoch_s,
              100.0 * (traced_epoch_s / untraced_epoch_s - 1.0));
  result.Add("train.unaccounted_s", mean_epoch - sum, "s");
  result.Add("trace.overhead_ratio", traced_epoch_s / untraced_epoch_s,
             "ratio");
  result.traced_e2e = {{"setup_s", traced_setup_s, "s"},
                       {"p50_ms", traced_epoch_s * 1e3, "ms"},
                       {"quality", traced_metrics.hr.at(kTopK), "ratio"}};
  result.untraced_e2e = {{"setup_s", SetupSeconds(setups), "s"},
                         {"p50_ms", untraced_epoch_s * 1e3, "ms"},
                         {"quality", ref_metrics.hr.at(kTopK), "ratio"}};
  return result;
}

}  // namespace perfbench
