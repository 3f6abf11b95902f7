// Microbenchmarks of the kernels behind Section IV-D's complexity claims:
// SpMM propagation (O(|E| d)), dense transforms (O(|V| d^2)), the memory
// encoder (O(|E| d + |V| |M| d) with diagonal transforms,
// O(|E| d + |V| |M| d^2) with dense ones) and segment softmax (O(|E|)), plus
// direct GEMM/SpMM kernel sweeps over transpose combination and feature
// width, and the serving candidate scans. All kernels dispatch to the
// active ISA variant (shown in the kernel sweeps' label); force a level
// with the DGNN_SIMD env var to compare — e.g. DGNN_SIMD=off vs
// DGNN_SIMD=avx2 is the speedup quoted in EXPERIMENTS.md.

#include <benchmark/benchmark.h>

#include <vector>

#include "ag/tape.h"
#include "core/memory_encoder.h"
#include "data/synthetic.h"
#include "graph/hetero_graph.h"
#include "kernels/kernels.h"

namespace {

using dgnn::ag::ParamStore;
using dgnn::ag::Tape;
using dgnn::ag::Tensor;

struct Fixture {
  Fixture() : dataset(dgnn::data::GenerateSynthetic(MakeConfig())),
              graph(dataset),
              adj(dgnn::graph::HeteroGraph::RowNormalized(graph.user_item())),
              adj_t(adj.Transposed()) {}

  static dgnn::data::SyntheticConfig MakeConfig() {
    auto c = dgnn::data::SyntheticConfig::CiaoSmall();
    return c;
  }

  dgnn::data::Dataset dataset;
  dgnn::graph::HeteroGraph graph;
  dgnn::graph::CsrMatrix adj, adj_t;
};

Fixture& GetFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

void BM_DenseTransform(benchmark::State& state) {
  const int64_t d = state.range(0);
  dgnn::util::Rng rng(2);
  Fixture& f = GetFixture();
  const int64_t n = f.graph.num_items();
  ParamStore store;
  auto* w = store.CreateXavier("w", d, d, rng);
  Tensor h = Tensor::GaussianInit(n, d, 0.1f, rng);
  for (auto _ : state) {
    Tape tape;
    auto out = tape.MatMul(tape.Constant(h), tape.Param(w));
    benchmark::DoNotOptimize(tape.val(out).data());
  }
  state.SetItemsProcessed(state.iterations() * n * d * d);
}
BENCHMARK(BM_DenseTransform)->Arg(8)->Arg(16)->Arg(32);

// Transform kind of the encoder cases' second argument: 0 diagonal (the
// default), 1 dense.
dgnn::core::DgnnConfig::TransformKind KindArg(int64_t arg) {
  return arg != 0 ? dgnn::core::DgnnConfig::TransformKind::kDense
                  : dgnn::core::DgnnConfig::TransformKind::kDiagonal;
}

// Full memory-encoder propagation (forward only), sweeping |M| and the
// transform kind. The one SpMM per call does not grow with |M|; only the
// O(|V| |M| d) gate mix (O(|V| |M| d^2) dense) does.
void BM_MemoryEncoderPropagate(benchmark::State& state) {
  const int num_units = static_cast<int>(state.range(0));
  const int64_t d = 16;
  dgnn::util::Rng rng(3);
  Fixture& f = GetFixture();
  ParamStore store;
  dgnn::core::MemoryEncoder enc("enc", d, num_units,
                                dgnn::core::MemoryGateSide::kTarget, 0.2f,
                                &store, &rng, /*gated=*/true,
                                KindArg(state.range(1)));
  Tensor h_item = Tensor::GaussianInit(f.graph.num_items(), d, 0.1f, rng);
  Tensor h_user = Tensor::GaussianInit(f.graph.num_users(), d, 0.1f, rng);
  for (auto _ : state) {
    Tape tape;
    auto out = enc.Propagate(tape, tape.Constant(h_item),
                             tape.Constant(h_user), &f.adj, &f.adj_t);
    benchmark::DoNotOptimize(tape.val(out).data());
  }
}
BENCHMARK(BM_MemoryEncoderPropagate)
    ->ArgsProduct({{2, 4, 8, 16}, {0, 1}});

// Memory-encoder forward+backward — the per-batch training cost driver.
void BM_MemoryEncoderTrainStep(benchmark::State& state) {
  const int num_units = static_cast<int>(state.range(0));
  const int64_t d = 16;
  dgnn::util::Rng rng(4);
  Fixture& f = GetFixture();
  ParamStore store;
  dgnn::core::MemoryEncoder enc("enc", d, num_units,
                                dgnn::core::MemoryGateSide::kTarget, 0.2f,
                                &store, &rng, /*gated=*/true,
                                KindArg(state.range(1)));
  auto* h_item =
      store.Create("h_item", Tensor::GaussianInit(f.graph.num_items(), d,
                                                  0.1f, rng));
  auto* h_user =
      store.Create("h_user", Tensor::GaussianInit(f.graph.num_users(), d,
                                                  0.1f, rng));
  for (auto _ : state) {
    Tape tape;
    auto out = enc.Propagate(tape, tape.Param(h_item), tape.Param(h_user),
                             &f.adj, &f.adj_t);
    tape.Backward(tape.MeanAll(out));
    store.ZeroGrad();
  }
}
BENCHMARK(BM_MemoryEncoderTrainStep)->ArgsProduct({{2, 8, 16}, {0, 1}});

// Raw dispatched GEMM, out(m x n) += op(A) @ op(B), with args
// {ta, tb, m, n, k}:
//   - 8192 x 32 activations against a square 32 x 32 weight at every
//     transpose combination (the dense d x d transforms);
//   - the memory encoder's gate and mix GEMMs at d = 16, |M| = 8 over
//     10,000 rows, with their backward products: H W2 (n x 16 . 16 x 8)
//     and eta W (n x 8 . 8 x 16) are nn; g W2^T and g W^T are nt; and
//     the weight gradients H^T g and eta^T g are tn with 16 or 8 output
//     rows, one chunk each.
void BM_GemmKernel(benchmark::State& state) {
  const bool ta = state.range(0) != 0;
  const bool tb = state.range(1) != 0;
  const int64_t m = state.range(2);
  const int64_t n = state.range(3);
  const int64_t k = state.range(4);
  dgnn::util::Rng rng(6);
  Tensor a = ta ? Tensor::GaussianInit(k, m, 0.1f, rng)
                : Tensor::GaussianInit(m, k, 0.1f, rng);
  Tensor b = tb ? Tensor::GaussianInit(n, k, 0.1f, rng)
                : Tensor::GaussianInit(k, n, 0.1f, rng);
  Tensor out(m, n);
  for (auto _ : state) {
    dgnn::kernels::GemmAcc(a.data(), a.rows(), a.cols(), ta, b.data(),
                           b.rows(), b.cols(), tb, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(dgnn::kernels::IsaName(dgnn::kernels::ActiveIsa()));
  state.SetItemsProcessed(state.iterations() * m * n * k);
}
BENCHMARK(BM_GemmKernel)
    ->ArgsProduct({{0, 1}, {0, 1}, {8192}, {32}, {32}})
    ->Args({0, 0, 10000, 8, 16})
    ->Args({0, 0, 10000, 16, 8})
    ->Args({0, 1, 10000, 16, 8})
    ->Args({0, 1, 10000, 8, 16})
    ->Args({1, 0, 16, 8, 10000})
    ->Args({1, 0, 8, 16, 10000});

// Raw dispatched SpMM (the O(|E| d) propagation) at serving/training
// feature widths.
void BM_SpmmKernel(benchmark::State& state) {
  Fixture& f = GetFixture();
  const int64_t d = state.range(0);
  dgnn::util::Rng rng(7);
  Tensor x = Tensor::GaussianInit(f.adj.cols(), d, 0.1f, rng);
  Tensor y(f.adj.rows(), d);
  for (auto _ : state) {
    f.adj.Multiply(x.data(), d, y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetLabel(dgnn::kernels::IsaName(dgnn::kernels::ActiveIsa()));
  state.SetItemsProcessed(state.iterations() * f.adj.nnz() * d);
}
BENCHMARK(BM_SpmmKernel)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

// Dispatched candidate scans at the serving workloads' shapes, d = 16:
// codec 0 is fp32, 1 is int8; gathered 1 scores an id list, 0 a
// contiguous row range.
//   BM_ScoreRows/0/0: 66,667 fp32 rows, one routed shard's topk scan;
//   BM_ScoreRows/1/1: 12,600 ids out of 200,000 int8 rows, one IVF probe;
//   BM_ScoreRows/1/0: 100,000 int8 rows, one similar_users scan.
void BM_ScoreRows(benchmark::State& state) {
  const bool int8 = state.range(0) != 0;
  const bool gathered = state.range(1) != 0;
  const int64_t d = 16;
  const int64_t rows = !int8 ? 66667 : gathered ? 200000 : 100000;
  const int64_t n = gathered ? 12600 : rows;
  dgnn::util::Rng rng(8);
  Tensor m = Tensor::GaussianInit(rows, d, 0.1f, rng);
  Tensor u = Tensor::GaussianInit(1, d, 0.1f, rng);
  std::vector<int8_t> q8(static_cast<size_t>(rows * d));
  for (int8_t& q : q8) q = static_cast<int8_t>(rng.UniformInt(255) - 127);
  std::vector<float> scales(static_cast<size_t>(rows));
  for (float& s : scales) s = rng.UniformFloat(0.001f, 0.01f);
  std::vector<int32_t> ids;
  for (int64_t i = 0; gathered && i < n; ++i) {
    ids.push_back(static_cast<int32_t>(rng.UniformInt(rows)));
  }
  const int32_t* id_ptr = gathered ? ids.data() : nullptr;
  std::vector<float> out(static_cast<size_t>(n));
  for (auto _ : state) {
    if (int8) {
      dgnn::kernels::ScoreRowsQ8(u.data(), q8.data(), scales.data(), d,
                                 id_ptr, 0, n, out.data());
    } else {
      dgnn::kernels::ScoreRows(u.data(), m.data(), d, id_ptr, 0, n,
                               out.data());
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(dgnn::kernels::IsaName(dgnn::kernels::ActiveIsa()));
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ScoreRows)->Args({0, 0})->Args({1, 1})->Args({1, 0});

void BM_SegmentSoftmax(benchmark::State& state) {
  Fixture& f = GetFixture();
  auto edges = f.graph.ItemToUserEdges();
  dgnn::util::Rng rng(5);
  Tensor scores = Tensor::GaussianInit(edges.size(), 1, 1.0f, rng);
  for (auto _ : state) {
    Tape tape;
    auto out = tape.SegmentSoftmax(tape.Constant(scores), edges.dst,
                                   f.graph.num_users());
    benchmark::DoNotOptimize(tape.val(out).data());
  }
  state.SetItemsProcessed(state.iterations() * edges.size());
}
BENCHMARK(BM_SegmentSoftmax);

}  // namespace
