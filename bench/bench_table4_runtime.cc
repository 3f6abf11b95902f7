// Table IV: running time (seconds) of one training epoch and one test
// pass for DGCF, HGT and DGNN on the three datasets. Shape to check
// against the paper: HGT is the slowest to train (edge-level multi-head
// attention); DGNN trains faster than both comparisons thanks to the
// factorized memory encoder. EXPERIMENTS.md records where the measured
// shape departs from it.
//
// Each (model, dataset) cell is measured once per worker-pool width so the
// table also reports the parallel speedup over the single-thread run.
// Results are bit-identical across widths, so the speedup column is pure
// wall-clock, not a numerics trade.
//
//   ./bench_table4_runtime [--datasets=ciao,epinions,yelp] [--epochs=3]
//                          [--threads=1,4]
//
// The active SIMD level is printed with the table; force one with
// DGNN_SIMD=off|avx2|neon. Every level gives the same bits.

#include <algorithm>
#include <cstdlib>
#include <map>

#include "bench_common.h"
#include "kernels/kernels.h"
#include "train/evaluator.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

int main(int argc, char** argv) {
  using namespace dgnn;
  util::Flags flags(argc, argv);
  bench::BenchOptions options = bench::BenchOptions::FromFlags(flags);
  // Timing only needs a few epochs.
  if (!flags.Has("epochs")) options.epochs = 3;

  std::vector<std::string> datasets =
      util::Split(flags.GetString("datasets", "ciao,epinions,yelp"), ',');
  std::vector<std::string> model_names =
      util::Split(flags.GetString("models", "DGCF,HGT,DGNN"), ',');

  // Thread widths to sweep; the first entry is the speedup baseline.
  std::vector<int> thread_counts;
  for (const auto& tok :
       util::Split(flags.GetString("threads", ""), ',')) {
    if (tok.empty()) continue;
    char* end = nullptr;
    const long v = std::strtol(tok.c_str(), &end, 10);
    if (end == tok.c_str() || *end != '\0' || v < 1) {
      std::fprintf(stderr, "--threads: bad width '%s' (want integers >= 1)\n",
                   tok.c_str());
      return 2;
    }
    thread_counts.push_back(static_cast<int>(v));
  }
  if (thread_counts.empty()) {
    thread_counts.push_back(1);
    if (util::NumThreads() > 1) thread_counts.push_back(util::NumThreads());
  }
  const int saved_threads = util::NumThreads();

  util::Table table({"Model", "Dataset", "Threads", "Train s/epoch",
                     "Speedup", "Test s"});
  // Baseline train-seconds at thread_counts[0], keyed by model/dataset.
  std::map<std::pair<std::string, std::string>, double> baseline;
  for (const auto& model_name : model_names) {
    for (const auto& dataset_name : datasets) {
      data::Dataset dataset = data::GenerateSynthetic(
          data::SyntheticConfig::Preset(dataset_name));
      graph::HeteroGraph graph(dataset);
      for (int threads : thread_counts) {
        std::fprintf(stderr, "[table4] %s / %s / %d thread(s) ...\n",
                     dataset_name.c_str(), model_name.c_str(), threads);
        util::SetNumThreads(threads);
        auto model = core::CreateModelByName(model_name, dataset, graph,
                                             options.zoo);
        train::TrainConfig tc = options.ToTrainConfig();
        train::Trainer trainer(model.get(), dataset, tc);
        // Warm-up epoch (first-touch allocation), then timed epochs.
        trainer.TrainEpoch();
        util::Stopwatch sw;
        for (int e = 0; e < options.epochs; ++e) trainer.TrainEpoch();
        const double train_per_epoch =
            sw.ElapsedSeconds() / options.epochs;

        train::Evaluator evaluator(dataset);
        util::Stopwatch esw;
        evaluator.EvaluateModel(*model, {10});
        const double test_seconds = esw.ElapsedSeconds();

        const auto key = std::make_pair(model_name, dataset_name);
        if (threads == thread_counts.front()) {
          baseline[key] = train_per_epoch;
        }
        const double speedup =
            train_per_epoch > 0.0 ? baseline[key] / train_per_epoch : 0.0;
        table.AddRow({model_name, dataset_name,
                      util::StrFormat("%d", threads),
                      util::StrFormat("%.3f", train_per_epoch),
                      util::StrFormat("%.2fx", speedup),
                      util::StrFormat("%.3f", test_seconds)});
      }
    }
  }
  util::SetNumThreads(saved_threads);
  std::printf("Table IV (running time per epoch, seconds):\n");
  std::printf("kernels: isa=%s\n", kernels::IsaName(kernels::ActiveIsa()));
  table.Print();
  return 0;
}
