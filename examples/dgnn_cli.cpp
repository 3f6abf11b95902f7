// dgnn_cli — end-to-end command-line tool over the library: generate or
// load data, train any model from the zoo, persist parameters, evaluate
// (accuracy + beyond-accuracy), and serve top-K recommendations.
//
// Modes:
//   --mode=generate  --data_dir=D [--preset=ciao] [--stream=0|1]
//     (the *-large presets default to --stream=1: interactions are
//     written straight to disk with O(users) peak memory)
//       Write a synthetic dataset to D in the TSV layout.
//   --mode=train     --data_dir=D [--model=DGNN] [--epochs=25]
//                    [--params=P] [--pretrain]
//                    [--checkpoint=C --checkpoint-every=K] [--resume=C]
//       Train on the dataset in D; save parameters to P when given.
//       With --checkpoint + --checkpoint-every=K an atomic training
//       checkpoint (parameters, Adam moments, sampler state, cursor) is
//       written every K batches; SIGTERM/SIGINT checkpoint and exit
//       cleanly. --resume=C continues a killed run from its checkpoint
//       with bit-identical final parameters (same flags required).
//   --mode=evaluate  --data_dir=D [--model=DGNN] --params=P [--topk=10]
//       Load parameters and report HR/NDCG plus coverage/novelty/Gini.
//   --mode=recommend --data_dir=D [--model=DGNN] --params=P --user=U
//                    [--topk=10]
//       Print the top-K items (and most similar users) for one user.
//   --mode=export    --data_dir=D [--model=DGNN] --params=P --snapshot=S
//                    [--tag=T] [--quant=none|int8|fp16]
//                    [--index[=1] [--clusters=N]]
//                    [--shards=N [--shard-seed=S]]
//       Export a serving snapshot (final embeddings, seen lists, social
//       adjacency, popularity counts) for dgnn_serve. --quant stores the
//       embeddings as int8 (per-row scales) or fp16 instead of fp32;
//       --index attaches an IVF retrieval index over the items
//       (--clusters lists, default sqrt(num_items)) for sublinear top-K
//       in dgnn_serve. See README "Quantization & retrieval index".
//       --shards=N also writes N shard slices "<S>.shard<i>of<N>"
//       (consistent-hash user ownership, contiguous item ranges) for
//       the dgnn_router fleet; incompatible with --quant/--index. See
//       README "Sharded serving".
//
// All modes accept --threads=N to size the worker pool (default: the
// DGNN_NUM_THREADS environment variable, else hardware concurrency).
// Outputs are bit-identical for every thread count and every kernel
// SIMD level (DGNN_SIMD=off|avx2|neon overrides CPU detection; see
// README "Kernels & CPU dispatch").
//
// Observability (see README "Run logs & inspection"):
//   --run-log=F           write a structured JSONL run log (run_start /
//                         epoch / eval / grad_stats / checkpoint /
//                         run_end events); inspect with dgnn_inspect.
//   --grad-stats-every=K  sample per-parameter gradient diagnostics
//                         every K training batches (train mode).
//   --check-numerics      fail fast on the first non-finite value or
//                         gradient, naming the producing tape op.
//
// Examples:
//   dgnn_cli --mode=generate --data_dir=/tmp/d
//   dgnn_cli --mode=train --data_dir=/tmp/d --params=/tmp/d/dgnn.bin
//   dgnn_cli --mode=recommend --data_dir=/tmp/d --params=/tmp/d/dgnn.bin
//            --user=3

#include <csignal>
#include <cstdio>

#include "ag/diagnostics.h"
#include "ag/serialize.h"
#include "core/dgnn_model.h"
#include "core/model_zoo.h"
#include "core/pretrain.h"
#include "data/io.h"
#include "data/synthetic.h"
#include "serve/snapshot.h"
#include "shard/partition.h"
#include "train/beyond_accuracy.h"
#include "train/recommender.h"
#include "train/trainer.h"
#include "util/failpoint.h"
#include "util/flags.h"
#include "util/run_log.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

namespace {

using namespace dgnn;

int Fail(const util::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// SIGTERM/SIGINT during training request a cooperative interrupt: the
// trainer finishes the in-flight batch, writes a final checkpoint (when
// configured), emits run_end status=interrupted, and exits 0. The store
// inside RequestInterrupt is a lock-free atomic — async-signal-safe.
extern "C" void OnTrainSignal(int) { train::RequestInterrupt(); }

int Generate(const util::Flags& flags, const std::string& data_dir) {
  auto config = data::SyntheticConfig::Preset(
      flags.GetString("preset", "ciao"));
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", config.seed));
  // The million-user presets (and --stream=1 on any preset) go through
  // the streaming generator: interactions go straight to disk, peak
  // memory stays O(users + items + social ties).
  const bool large_preset = config.num_users >= 100000;
  if (flags.GetInt("stream", large_preset ? 1 : 0) != 0) {
    auto stats = data::GenerateSyntheticStream(config, data_dir);
    if (!stats.ok()) return Fail(stats.status());
    const auto& s = stats.value();
    std::printf(
        "streamed '%s' to %s: %d users, %d items, %lld train, %lld "
        "test, %lld social ties, %lld item links\n"
        "  %.1f MB on disk, %.1f MB peak resident, %.2f s\n",
        config.name.c_str(), data_dir.c_str(), config.num_users,
        config.num_items, (long long)s.num_train, (long long)s.num_test,
        (long long)s.num_social, (long long)s.num_item_relations,
        s.bytes_on_disk / 1e6, s.resident_bytes / 1e6, s.seconds);
    return 0;
  }
  data::Dataset ds = data::GenerateSynthetic(config);
  util::Status saved = data::SaveDataset(ds, data_dir);
  if (!saved.ok()) return Fail(saved);
  auto stats = ds.ComputeStats();
  std::printf("wrote '%s' to %s: %lld users, %lld items, %lld "
              "interactions, %lld social ties\n",
              ds.name.c_str(), data_dir.c_str(),
              (long long)stats.num_users, (long long)stats.num_items,
              (long long)stats.num_interactions,
              (long long)stats.num_social_ties);
  return 0;
}

struct Loaded {
  data::Dataset dataset;
  std::unique_ptr<graph::HeteroGraph> graph;
  std::unique_ptr<models::RecModel> model;
};

util::StatusOr<Loaded> LoadModel(const util::Flags& flags,
                                 const std::string& data_dir,
                                 bool load_params) {
  auto dataset = data::LoadDataset(data_dir);
  if (!dataset.ok()) return dataset.status();
  Loaded out{std::move(dataset).value(), nullptr, nullptr};
  out.dataset.Validate();
  out.graph = std::make_unique<graph::HeteroGraph>(out.dataset);
  core::ZooConfig zoo;
  zoo.embedding_dim = flags.GetInt("dim", 16);
  zoo.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  out.model = core::CreateModelByName(flags.GetString("model", "DGNN"),
                                      out.dataset, *out.graph, zoo);
  if (load_params) {
    const std::string params = flags.GetString("params", "");
    if (params.empty()) {
      return util::Status::InvalidArgument(
          "--params is required for this mode");
    }
    util::Status loaded = ag::LoadParameters(out.model->params(), params);
    if (!loaded.ok()) return loaded;
  }
  return out;
}

int Train(const util::Flags& flags, const std::string& data_dir) {
  auto loaded = LoadModel(flags, data_dir, /*load_params=*/false);
  if (!loaded.ok()) return Fail(loaded.status());
  Loaded l = std::move(loaded).value();

  if (flags.GetBool("pretrain", false)) {
    auto* dgnn = dynamic_cast<core::DgnnModel*>(l.model.get());
    if (dgnn == nullptr) {
      std::fprintf(stderr, "--pretrain currently supports --model=DGNN\n");
      return 1;
    }
    core::PretrainConfig pc;
    auto pre = core::PretrainEmbeddings(
        dgnn->params(), dgnn->user_embedding(), dgnn->item_embedding(),
        dgnn->relation_embedding(), *l.graph, pc);
    std::printf("pretrain: loss %.4f -> %.4f\n", pre.first_epoch_loss,
                pre.last_epoch_loss);
  }

  train::TrainConfig tc;
  tc.epochs = static_cast<int>(flags.GetInt("epochs", 25));
  tc.batch_size = static_cast<int>(flags.GetInt("batch", 1024));
  tc.weight_decay = static_cast<float>(flags.GetDouble("wd", 0.01));
  tc.eval_every = static_cast<int>(flags.GetInt("eval_every", 0));
  tc.eval_cutoffs = {5, 10, 20};
  tc.verbose = true;
  tc.grad_stats_every =
      static_cast<int>(flags.GetInt("grad-stats-every", 0));
  tc.check_numerics = flags.GetBool("check-numerics", false);
  tc.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  tc.checkpoint_path = flags.GetString("checkpoint", "");
  tc.checkpoint_every = flags.GetInt("checkpoint-every", 0);
  tc.max_batches = flags.GetInt("max-batches", 0);
  const std::string resume_from = flags.GetString("resume", "");
  if (!resume_from.empty() && tc.checkpoint_path.empty()) {
    // A resumed run keeps checkpointing to the file it came from unless
    // told otherwise, so a second crash is also recoverable.
    tc.checkpoint_path = resume_from;
  }
  train::Trainer trainer(l.model.get(), l.dataset, tc);
  if (!resume_from.empty()) {
    util::Status resumed = trainer.Resume(resume_from);
    if (!resumed.ok()) return Fail(resumed);
    std::printf("resumed from %s\n", resume_from.c_str());
  }
  train::ClearInterrupt();
  std::signal(SIGTERM, OnTrainSignal);
  std::signal(SIGINT, OnTrainSignal);
  auto result = trainer.Fit();
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
  if (result.interrupted) {
    std::printf("interrupted after %zu epoch(s)%s; resume with "
                "--resume=%s\n",
                result.epochs.size(),
                tc.checkpoint_path.empty() ? " (no checkpoint configured)"
                                           : "",
                tc.checkpoint_path.empty() ? "<checkpoint>"
                                           : tc.checkpoint_path.c_str());
  } else {
    std::printf("final: %s (%.2fs train%s)\n",
                result.final_metrics.ToString().c_str(),
                result.total_train_seconds,
                result.stopped_early ? ", stopped early" : "");
  }

  // Save whatever was trained even on an interrupted run: a --max-batches
  // cap or a cooperative SIGTERM still leaves the parameters in a
  // consistent post-batch state, and losing them forces a full redo when
  // no checkpoint was configured.
  const std::string params = flags.GetString("params", "");
  if (!params.empty()) {
    util::Status saved = ag::SaveParameters(l.model->params(), params);
    if (!saved.ok()) return Fail(saved);
    std::printf("parameters saved to %s\n", params.c_str());
  }
  return 0;
}

int Evaluate(const util::Flags& flags, const std::string& data_dir) {
  auto loaded = LoadModel(flags, data_dir, /*load_params=*/true);
  if (!loaded.ok()) return Fail(loaded.status());
  Loaded l = std::move(loaded).value();
  const int k = static_cast<int>(flags.GetInt("topk", 10));

  train::Evaluator evaluator(l.dataset);
  auto metrics = evaluator.EvaluateModel(*l.model, {5, 10, 20});
  std::printf("accuracy:  %s\n", metrics.ToString().c_str());

  train::Recommender recommender(*l.model, l.dataset);
  auto beyond = train::ComputeBeyondAccuracy(recommender, l.dataset, k);
  std::printf("beyond@%d: catalog coverage %.3f, mean popularity "
              "percentile %.3f, exposure gini %.3f\n",
              beyond.top_k, beyond.catalog_coverage,
              beyond.mean_popularity_percentile, beyond.exposure_gini);
  return 0;
}

int Recommend(const util::Flags& flags, const std::string& data_dir) {
  auto loaded = LoadModel(flags, data_dir, /*load_params=*/true);
  if (!loaded.ok()) return Fail(loaded.status());
  Loaded l = std::move(loaded).value();
  const int32_t user = static_cast<int32_t>(flags.GetInt("user", 0));
  const int k = static_cast<int>(flags.GetInt("topk", 10));
  if (user < 0 || user >= l.dataset.num_users) {
    std::fprintf(stderr, "--user out of range [0, %d)\n",
                 l.dataset.num_users);
    return 1;
  }
  train::Recommender recommender(*l.model, l.dataset);
  std::printf("top-%d items for user %d:\n", k, user);
  for (const auto& s : recommender.TopK(user, k)) {
    std::printf("  item %-6d score %.4f\n", s.item, s.score);
  }
  std::printf("most similar users:\n");
  for (const auto& s : recommender.SimilarUsers(user, 5)) {
    std::printf("  user %-6d cosine %.4f\n", s.item, s.score);
  }
  return 0;
}

int Export(const util::Flags& flags, const std::string& data_dir) {
  auto loaded = LoadModel(flags, data_dir, /*load_params=*/true);
  if (!loaded.ok()) return Fail(loaded.status());
  Loaded l = std::move(loaded).value();
  const std::string snapshot_path = flags.GetString("snapshot", "");
  if (snapshot_path.empty()) {
    std::fprintf(stderr, "--snapshot is required for --mode=export\n");
    return 2;
  }
  train::Recommender recommender(*l.model, l.dataset);
  serve::Snapshot snapshot = serve::BuildSnapshot(
      recommender, l.dataset, flags.GetString("model", "DGNN"),
      flags.GetString("tag", ""));
  // --index builds the IVF retrieval index over the fp32 items BEFORE any
  // quantization (k-means needs full precision); --clusters overrides the
  // sqrt(num_items) default list count.
  std::string extras;
  if (flags.GetBool("index", false)) {
    index::IvfConfig ivf;
    ivf.nlist = static_cast<int32_t>(flags.GetInt("clusters", 0));
    ivf.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
    util::Status built = serve::BuildSnapshotIndex(&snapshot, ivf);
    if (!built.ok()) return Fail(built);
    extras += ", ivf nlist=" + std::to_string(snapshot.ivf.nlist);
  }
  // --quant=int8|fp16 replaces the fp32 embedding sections with quantized
  // ones (int8: per-row scales; fp16: RNE-converted halves). "none"
  // (default) keeps the seed-era byte-identical fp32 snapshot.
  const std::string quant = flags.GetString("quant", "none");
  if (quant != "none") {
    auto codec = quant::ParseCodec(quant);
    if (!codec.ok()) return Fail(codec.status());
    util::Status quantized =
        serve::QuantizeSnapshot(&snapshot, codec.value());
    if (!quantized.ok()) return Fail(quantized);
    extras += ", quant=" + quant;
  }
  // --shards=N additionally writes N shard slices
  // ("<snapshot>.shard<i>of<N>", shard manifest section 10) next to the
  // full snapshot for the dgnn_serve/dgnn_router fleet. Sharding is
  // fp32-dense only — the bit-identical scatter/gather merge depends on
  // exact full scans, so it refuses quantized/indexed exports.
  const int num_shards = static_cast<int>(flags.GetInt("shards", 0));
  util::Status written = serve::WriteSnapshot(snapshot, snapshot_path);
  if (!written.ok()) return Fail(written);
  if (num_shards > 0) {
    if (flags.GetBool("index", false) || quant != "none") {
      std::fprintf(stderr,
                   "--shards cannot combine with --quant/--index "
                   "(shard before quantizing)\n");
      return 2;
    }
    const uint64_t seed =
        static_cast<uint64_t>(flags.GetInt("shard-seed", 42));
    util::Status sharded = shard::WriteShardSnapshots(
        snapshot, snapshot_path, num_shards, seed);
    if (!sharded.ok()) return Fail(sharded);
    extras += ", " + std::to_string(num_shards) + " shard slices";
  }
  std::printf("snapshot written to %s (%lld users x %lld items, dim "
              "%lld%s)\n",
              snapshot_path.c_str(), (long long)snapshot.meta.num_users,
              (long long)snapshot.meta.num_items,
              (long long)snapshot.meta.embedding_dim, extras.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  // Worker-pool width for every mode; results are bit-identical across
  // settings (see README "Threads & determinism"). Falls back to
  // DGNN_NUM_THREADS, then hardware concurrency.
  if (flags.Has("threads")) {
    const int threads = static_cast<int>(flags.GetInt("threads", 0));
    if (threads < 1) {
      std::fprintf(stderr, "--threads must be >= 1\n");
      return 2;
    }
    util::SetNumThreads(threads);
  }
  // --metrics-out=F / --trace-out=F turn telemetry on for the run and
  // write the JSON snapshots (metrics registry / chrome://tracing trace)
  // on exit. See README "Telemetry" for the schemas.
  const std::string metrics_out = flags.GetString("metrics-out", "");
  const std::string trace_out = flags.GetString("trace-out", "");
  if (!metrics_out.empty() || !trace_out.empty()) {
    telemetry::SetEnabled(true);
  }
  // --run-log=F opens the structured JSONL run log for the whole process;
  // trainer / evaluator / checkpoint code emit into it. --check-numerics
  // applies to every mode (evaluate-only runs fail fast too).
  const std::string run_log = flags.GetString("run-log", "");
  if (!run_log.empty()) {
    util::Status s = runlog::Open(run_log);
    if (!s.ok()) return Fail(s);
  }
  if (flags.GetBool("check-numerics", false)) {
    ag::SetCheckNumerics(true);
  }
  // The run seed also seeds deterministic 1in<n> failpoints, so injected
  // failure schedules reproduce run-to-run (see util/failpoint.h).
  failpoint::SetSeed(static_cast<uint64_t>(flags.GetInt("seed", 42)));
  const std::string mode = flags.GetString("mode", "");
  const std::string data_dir = flags.GetString("data_dir", "");
  if (data_dir.empty()) {
    std::fprintf(stderr,
                 "usage: dgnn_cli "
                 "--mode=generate|train|evaluate|recommend|export "
                 "--data_dir=DIR [--threads=N] [--metrics-out=F] "
                 "[--trace-out=F] [--run-log=F] [--grad-stats-every=K] "
                 "[--check-numerics] [options]\n");
    return 2;
  }
  int code;
  if (mode == "generate") {
    code = Generate(flags, data_dir);
  } else if (mode == "train") {
    code = Train(flags, data_dir);
  } else if (mode == "evaluate") {
    code = Evaluate(flags, data_dir);
  } else if (mode == "recommend") {
    code = Recommend(flags, data_dir);
  } else if (mode == "export") {
    code = Export(flags, data_dir);
  } else {
    std::fprintf(stderr, "unknown --mode '%s'\n", mode.c_str());
    return 2;
  }
  if (!metrics_out.empty()) {
    util::Status s = telemetry::WriteMetricsJson(metrics_out);
    if (!s.ok()) return Fail(s);
    std::printf("metrics written to %s\n", metrics_out.c_str());
  }
  if (!trace_out.empty()) {
    util::Status s = telemetry::WriteTraceJson(trace_out);
    if (!s.ok()) return Fail(s);
    std::printf("trace written to %s (%lld spans; open in "
                "chrome://tracing)\n",
                trace_out.c_str(), (long long)telemetry::NumTraceEvents());
  }
  if (!run_log.empty()) {
    std::printf("run log written to %s (%lld events)\n", run_log.c_str(),
                (long long)runlog::NumEvents());
    runlog::Close();
  }
  return code;
}
