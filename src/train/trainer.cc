#include "train/trainer.h"

#include <atomic>
#include <cstring>
#include <utility>
#include <vector>

#include "ag/diagnostics.h"
#include "ag/serialize.h"
#include "train/train_log.h"
#include "util/bytes.h"
#include "util/json.h"
#include "util/run_log.h"
#include "util/stopwatch.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

namespace dgnn::train {
namespace {

// Trainer-state blob layout version (inside the v2 checkpoint's opaque
// trainer_state field). Bump on any layout change.
constexpr uint32_t kTrainerStateVersion = 1;

std::atomic<bool> g_interrupt{false};

ag::AdamConfig MakeAdamConfig(const TrainConfig& c) {
  ag::AdamConfig a;
  a.learning_rate = c.learning_rate;
  a.weight_decay = c.weight_decay;
  return a;
}

using util::AppendPod;

// `run_start` event: everything needed to reproduce or interpret the run
// — config, model, seed, parallelism, and the dataset's shape/density.
// Resumed runs additionally record their lineage (the checkpoint file
// and the epoch they rejoined at) so dgnn_inspect can stitch the split
// run back together.
void LogRunStart(const models::RecModel& model, const data::Dataset& dataset,
                 const TrainConfig& c, int num_threads, bool resumed,
                 const std::string& resumed_from, int start_epoch) {
  if (!runlog::Active()) return;
  util::JsonObject cfg;
  cfg.Set("epochs", c.epochs)
      .Set("batch_size", c.batch_size)
      .Set("learning_rate", static_cast<double>(c.learning_rate))
      .Set("l2_reg", static_cast<double>(c.l2_reg))
      .Set("weight_decay", static_cast<double>(c.weight_decay))
      .Set("eval_every", c.eval_every)
      .Set("early_stop_patience", c.early_stop_patience)
      .Set("grad_stats_every", c.grad_stats_every)
      .Set("check_numerics", c.check_numerics);
  if (c.checkpoint_every > 0) cfg.Set("checkpoint_every", c.checkpoint_every);
  const data::DatasetStats ds = dataset.ComputeStats();
  util::JsonObject stats;
  stats.Set("num_users", ds.num_users)
      .Set("num_items", ds.num_items)
      .Set("num_interactions", ds.num_interactions)
      .Set("num_social_ties", ds.num_social_ties)
      .Set("num_item_relation_links", ds.num_item_relation_links)
      .Set("interaction_density", ds.interaction_density)
      .Set("social_density", ds.social_density);
  util::JsonObject o;
  o.Set("model", model.name())
      .Set("dataset", dataset.name)
      .Set("seed", static_cast<int64_t>(c.seed))
      .Set("num_threads", num_threads)
      .SetRaw("config", cfg.Build())
      .SetRaw("dataset_stats", stats.Build());
  if (resumed) {
    o.Set("resumed_from", resumed_from).Set("start_epoch", start_epoch);
  }
  runlog::Emit("run_start", o);
}

void LogRunEnd(const TrainResult& r) {
  if (!runlog::Active()) return;
  util::JsonObject o;
  o.Set("status", r.interrupted ? "interrupted" : "completed")
      .Set("epochs_run", static_cast<int64_t>(r.epochs.size()))
      .Set("stopped_early", r.stopped_early)
      .Set("best_epoch", r.best_epoch)
      .Set("best_metric", r.best_metric)
      .Set("total_train_seconds", r.total_train_seconds)
      .Set("mean_epoch_train_seconds", r.mean_epoch_train_seconds)
      .Set("final_eval_seconds", r.final_eval_seconds)
      .SetRaw("final_metrics", MetricsJson(r.final_metrics).Build());
  if (r.resumed) o.Set("resumed_from", r.resumed_from);
  runlog::Emit("run_end", o);
}

}  // namespace

void RequestInterrupt() {
  g_interrupt.store(true, std::memory_order_relaxed);
}

bool InterruptRequested() {
  return g_interrupt.load(std::memory_order_relaxed);
}

void ClearInterrupt() { g_interrupt.store(false, std::memory_order_relaxed); }

Trainer::Trainer(models::RecModel* model, const data::Dataset& dataset,
                 TrainConfig config)
    : model_(model),
      dataset_(&dataset),
      config_(config),
      sampler_(dataset, config.seed),
      optimizer_(&model->params(), MakeAdamConfig(config)),
      evaluator_(dataset) {
  DGNN_CHECK(model != nullptr);
}

double Trainer::TrainBatch(const data::BprBatch& batch) {
  ag::Tape tape;
  models::ForwardResult fwd = model_->Forward(tape, /*training=*/true);

  std::vector<int32_t> users(batch.users.begin(), batch.users.end());
  std::vector<int32_t> pos(batch.pos_items.begin(), batch.pos_items.end());
  std::vector<int32_t> neg(batch.neg_items.begin(), batch.neg_items.end());

  ag::VarId u_rows = tape.GatherRows(fwd.users, std::move(users));
  ag::VarId p_rows = tape.GatherRows(fwd.items, std::move(pos));
  ag::VarId n_rows = tape.GatherRows(fwd.items, std::move(neg));

  ag::VarId pos_scores = tape.RowDot(u_rows, p_rows);
  ag::VarId neg_scores = tape.RowDot(u_rows, n_rows);
  ag::VarId loss = tape.BprLoss(pos_scores, neg_scores);

  if (config_.l2_reg > 0.0f) {
    ag::VarId reg = tape.AddN(
        {tape.L2(u_rows), tape.L2(p_rows), tape.L2(n_rows)});
    loss = tape.Add(
        loss, tape.ScalarMul(
                  reg, config_.l2_reg / static_cast<float>(batch.size())));
  }
  if (fwd.aux_loss >= 0) {
    loss = tape.Add(loss, fwd.aux_loss);
  }

  const double loss_value = tape.val(loss).scalar();
  tape.Backward(loss);
  ++batch_counter_;
  const bool sample_stats = config_.grad_stats_every > 0 &&
                            batch_counter_ % config_.grad_stats_every == 0;
  if (sample_stats) {
    // Gradients must be read here: Step zeroes them. Update ratios come
    // from the instrumented (bit-identical) optimizer pass.
    last_grad_stats_ = ag::CollectGradStats(model_->params());
    std::vector<ag::ParamUpdateStats> updates;
    optimizer_.Step(&updates);
    ag::AttachUpdateRatios(&last_grad_stats_, updates);
    if (runlog::Active()) {
      util::JsonObject o;
      o.Set("batch", batch_counter_).Set("loss", loss_value);
      o.SetRaw("params", ag::GradStatsJsonArray(last_grad_stats_));
      runlog::Emit("grad_stats", o);
    }
  } else {
    optimizer_.Step();
  }
  return loss_value;
}

std::string Trainer::SerializeTrainerState(int epoch,
                                           int64_t batch_cursor) const {
  std::string out;
  AppendPod<uint32_t>(out, kTrainerStateVersion);
  // Config fingerprint: resuming under a different schedule, rate, or
  // seed would silently train a different run, so Resume refuses it.
  AppendPod<int32_t>(out, config_.epochs);
  AppendPod<int32_t>(out, config_.batch_size);
  AppendPod<float>(out, config_.learning_rate);
  AppendPod<float>(out, config_.l2_reg);
  AppendPod<float>(out, config_.weight_decay);
  AppendPod<uint64_t>(out, config_.seed);
  // Cursor + lifetime counters.
  AppendPod<int32_t>(out, epoch);
  AppendPod<int64_t>(out, batch_cursor);
  AppendPod<int64_t>(out, batch_counter_);
  // Best-metric bookkeeping (drives run_end and early stopping).
  AppendPod<int32_t>(out, best_epoch_);
  AppendPod<double>(out, best_metric_);
  AppendPod<int32_t>(out, evals_without_improvement_);
  AppendPod<uint8_t>(out, any_eval_ ? 1 : 0);
  // Epoch-start sampler state; replaying SampleEpoch from it regenerates
  // the batch stream the cursor indexes into.
  util::AppendRngState(epoch_start_sampler_.rng, &out);
  AppendPod<uint64_t>(out, epoch_start_sampler_.order.size());
  out.append(
      reinterpret_cast<const char*>(epoch_start_sampler_.order.data()),
      epoch_start_sampler_.order.size() * sizeof(int32_t));
  // Model-owned stochastic state (dropout/shuffle/negative RNGs), as of
  // the checkpointed batch.
  const std::string model_state = model_->SaveStochasticState();
  AppendPod<uint64_t>(out, model_state.size());
  out.append(model_state);
  return out;
}

util::Status Trainer::SaveTrainingCheckpoint(int epoch,
                                             int64_t batch_cursor) {
  ag::CheckpointState cs;
  cs.has_optimizer = true;
  cs.adam_step = optimizer_.step_count();
  cs.trainer_state = SerializeTrainerState(epoch, batch_cursor);
  return ag::SaveCheckpoint(model_->params(), cs, config_.checkpoint_path);
}

util::Status Trainer::Resume(const std::string& path) {
  using util::Status;
  ag::CheckpointState cs;
  DGNN_RETURN_IF_ERROR(ag::LoadCheckpoint(model_->params(), &cs, path));
  if (!cs.has_optimizer) {
    return Status::FailedPrecondition(
        path + " carries no optimizer state; cannot resume training");
  }
  util::Cursor cur{cs.trainer_state.data(), cs.trainer_state.size()};
  uint32_t version = 0;
  if (!cur.ReadPod(&version) || version != kTrainerStateVersion) {
    return Status::InvalidArgument("unsupported trainer state version in " +
                                   path);
  }
  int32_t epochs = 0;
  int32_t batch_size = 0;
  float lr = 0.0f;
  float l2 = 0.0f;
  float wd = 0.0f;
  uint64_t seed = 0;
  int32_t epoch = 0;
  int64_t cursor = 0;
  int64_t batch_counter = 0;
  int32_t best_epoch = 0;
  double best_metric = 0.0;
  int32_t evals_without_improvement = 0;
  uint8_t any_eval = 0;
  if (!cur.ReadPod(&epochs) || !cur.ReadPod(&batch_size) ||
      !cur.ReadPod(&lr) || !cur.ReadPod(&l2) || !cur.ReadPod(&wd) ||
      !cur.ReadPod(&seed) || !cur.ReadPod(&epoch) || !cur.ReadPod(&cursor) ||
      !cur.ReadPod(&batch_counter) || !cur.ReadPod(&best_epoch) ||
      !cur.ReadPod(&best_metric) || !cur.ReadPod(&evals_without_improvement) ||
      !cur.ReadPod(&any_eval)) {
    return Status::InvalidArgument("truncated trainer state in " + path);
  }
  if (epochs != config_.epochs || batch_size != config_.batch_size ||
      lr != config_.learning_rate || l2 != config_.l2_reg ||
      wd != config_.weight_decay || seed != config_.seed) {
    return Status::FailedPrecondition(
        "checkpoint " + path +
        " was written under a different training config (epochs/batch/"
        "rates/seed); resuming it would not reproduce the original run");
  }
  util::RngState rng_state;
  DGNN_RETURN_IF_ERROR(
      util::ParseRngState(cs.trainer_state, &cur.pos, &rng_state));
  uint64_t order_len = 0;
  if (!cur.ReadPod(&order_len) ||
      order_len * sizeof(int32_t) > cs.trainer_state.size() - cur.pos) {
    return Status::InvalidArgument("truncated sampler state in " + path);
  }
  if (order_len != static_cast<uint64_t>(sampler_.num_train())) {
    return Status::FailedPrecondition(
        "checkpoint " + path + " sampler state covers " +
        std::to_string(order_len) + " interactions, dataset has " +
        std::to_string(sampler_.num_train()));
  }
  data::SamplerState sampler_state;
  sampler_state.rng = rng_state;
  sampler_state.order.resize(order_len);
  std::memcpy(sampler_state.order.data(),
              cs.trainer_state.data() + cur.pos,
              order_len * sizeof(int32_t));
  cur.pos += order_len * sizeof(int32_t);
  uint64_t model_state_len = 0;
  if (!cur.ReadPod(&model_state_len) ||
      model_state_len > cs.trainer_state.size() - cur.pos) {
    return Status::InvalidArgument("truncated model state in " + path);
  }
  const std::string model_state(cs.trainer_state.data() + cur.pos,
                                model_state_len);
  cur.pos += model_state_len;
  if (cur.pos != cs.trainer_state.size()) {
    return Status::InvalidArgument("trailing bytes in trainer state in " +
                                   path);
  }
  // Cursor sanity against THIS dataset's epoch geometry.
  const int64_t num_batches =
      (sampler_.num_train() + config_.batch_size - 1) / config_.batch_size;
  if (epoch < 1 || epoch > config_.epochs || cursor < 0 ||
      cursor > num_batches) {
    return Status::InvalidArgument("implausible resume cursor in " + path);
  }
  DGNN_RETURN_IF_ERROR(model_->RestoreStochasticState(model_state));

  // Everything validated — commit.
  optimizer_.set_step_count(cs.adam_step);
  sampler_.set_state(sampler_state);
  epoch_start_sampler_ = sampler_state;
  batch_counter_ = batch_counter;
  best_epoch_ = best_epoch;
  best_metric_ = best_metric;
  evals_without_improvement_ = evals_without_improvement;
  any_eval_ = any_eval != 0;
  start_epoch_ = epoch;
  start_batch_cursor_ = cursor;
  resumed_ = true;
  resumed_from_ = path;
  return Status::Ok();
}

double Trainer::TrainEpochImpl(int epoch, int64_t skip_batches,
                               bool* interrupted) {
  static telemetry::Timer* epoch_timer = telemetry::GetTimer("train.epoch");
  static telemetry::Timer* sampler_timer =
      telemetry::GetTimer("train.sampler");
  static telemetry::Timer* batch_timer = telemetry::GetTimer("train.batch");
  telemetry::ScopedSpan epoch_span("epoch", "train", epoch_timer);
  // Capture BEFORE SampleEpoch: a checkpoint taken anywhere inside this
  // epoch stores this state, and replaying SampleEpoch from it on resume
  // regenerates the identical batch stream.
  epoch_start_sampler_ = sampler_.state();
  double loss_sum = 0.0;
  int batches = 0;
  std::vector<data::BprBatch> epoch_batches;
  {
    telemetry::ScopedSpan span("sample_epoch", "train", sampler_timer);
    epoch_batches = sampler_.SampleEpoch(config_.batch_size);
  }
  const bool can_checkpoint = epoch > 0 && !config_.checkpoint_path.empty();
  const int64_t n = static_cast<int64_t>(epoch_batches.size());
  for (int64_t i = 0; i < n; ++i) {
    // Batches before the resume cursor were already applied by the run
    // that wrote the checkpoint; their randomness was consumed by
    // SampleEpoch above, so skipping them rejoins the stream exactly.
    if (i < skip_batches) continue;
    {
      telemetry::ScopedTimer timer(batch_timer);
      loss_sum += TrainBatch(epoch_batches[static_cast<size_t>(i)]);
    }
    ++batches;
    ++fit_batches_;
    const int64_t cursor = i + 1;
    bool saved_here = false;
    if (can_checkpoint && config_.checkpoint_every > 0 &&
        batch_counter_ % config_.checkpoint_every == 0) {
      // Periodic checkpoint; a failed save is logged (checkpoint event,
      // ok=false) but does not stop training — the previous checkpoint
      // is still intact thanks to the atomic writer.
      saved_here = SaveTrainingCheckpoint(epoch, cursor).ok();
    }
    const bool stop =
        InterruptRequested() ||
        (config_.max_batches > 0 && fit_batches_ >= config_.max_batches);
    if (stop) {
      if (can_checkpoint && !saved_here) {
        (void)SaveTrainingCheckpoint(epoch, cursor);
      }
      *interrupted = true;
      break;
    }
  }
  const double mean_loss = batches > 0 ? loss_sum / batches : 0.0;
  if (telemetry::Enabled()) {
    telemetry::GetCounter("train.epochs")->Add(1);
    telemetry::GetCounter("train.batches")->Add(batches);
    telemetry::GetGauge("train.last_loss")->Set(mean_loss);
  }
  return mean_loss;
}

double Trainer::TrainEpoch() {
  bool interrupted = false;
  return TrainEpochImpl(/*epoch=*/0, /*skip_batches=*/0, &interrupted);
}

TrainResult Trainer::Fit() {
  TrainResult result;
  result.num_threads = util::NumThreads();
  result.resumed = resumed_;
  result.resumed_from = resumed_from_;
  if (config_.check_numerics) ag::SetCheckNumerics(true);
  LogRunStart(*model_, *dataset_, config_, result.num_threads, resumed_,
              resumed_from_, start_epoch_);
  fit_batches_ = 0;
  if (!resumed_) {
    best_epoch_ = 0;
    best_metric_ = 0.0;
    evals_without_improvement_ = 0;
    any_eval_ = false;
  }
  const int primary_cutoff =
      config_.eval_cutoffs.empty() ? 10 : config_.eval_cutoffs.front();
  bool interrupted = false;
  int64_t skip = start_batch_cursor_;
  for (int epoch = start_epoch_; epoch <= config_.epochs; ++epoch) {
    EpochTrace trace;
    trace.epoch = epoch;
    util::Stopwatch sw;
    trace.loss = TrainEpochImpl(epoch, skip, &interrupted);
    skip = 0;
    trace.train_seconds = sw.ElapsedSeconds();
    result.total_train_seconds += trace.train_seconds;
    if (interrupted) {
      result.epochs.push_back(std::move(trace));
      result.interrupted = true;
      break;
    }

    const bool eval_now =
        config_.eval_every > 0 && epoch % config_.eval_every == 0;
    if (eval_now) {
      util::Stopwatch esw;
      telemetry::ScopedSpan span("evaluate", "eval");
      trace.metrics = evaluator_.EvaluateModel(*model_, config_.eval_cutoffs);
      trace.eval_seconds = esw.ElapsedSeconds();
      trace.evaluated = true;
    }
    LogEpochProgress(model_->name(), trace, config_.verbose);
    const bool evaluated = trace.evaluated;
    const double metric =
        evaluated ? trace.metrics.hr[primary_cutoff] : 0.0;
    result.epochs.push_back(std::move(trace));
    if (evaluated) {
      // Track the best evaluated epoch for run_end / TrainResult; the
      // same comparison drives early stopping (strict improvement, same
      // semantics as before: ties count as no improvement).
      if (!any_eval_ || metric > best_metric_) {
        best_metric_ = metric;
        best_epoch_ = epoch;
        evals_without_improvement_ = 0;
      } else {
        ++evals_without_improvement_;
      }
      any_eval_ = true;
      if (config_.early_stop_patience > 0 &&
          evals_without_improvement_ >= config_.early_stop_patience) {
        result.stopped_early = true;
        break;
      }
    }
  }
  // The resume cursor is one-shot: a second Fit on the same trainer
  // starts from scratch positions (its parameters carry on regardless).
  start_epoch_ = 1;
  start_batch_cursor_ = 0;
  if (!result.interrupted) {
    util::Stopwatch esw;
    {
      telemetry::ScopedSpan span("final_evaluate", "eval");
      result.final_metrics =
          evaluator_.EvaluateModel(*model_, config_.eval_cutoffs);
    }
    result.final_eval_seconds = esw.ElapsedSeconds();
    // The final evaluation competes for best too — it reflects the last
    // trained epoch, which periodic evaluation may not have covered.
    const double final_metric = result.final_metrics.hr[primary_cutoff];
    const int final_epoch =
        result.epochs.empty() ? 0 : result.epochs.back().epoch;
    if (!any_eval_ || final_metric > best_metric_) {
      best_metric_ = final_metric;
      best_epoch_ = final_epoch;
    }
  }
  result.best_epoch = best_epoch_;
  result.best_metric = best_metric_;
  if (!result.epochs.empty()) {
    result.mean_epoch_train_seconds =
        result.total_train_seconds /
        static_cast<double>(result.epochs.size());
  }
  LogRunEnd(result);
  return result;
}

}  // namespace dgnn::train
