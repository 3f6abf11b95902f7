// Tests for the paper's core building block (Eq. 3). The key property:
// the factorized implementation, which runs one SpMM per call whatever
// |M| is, must equal the literal per-edge sum of gated transforms for
// both transform kinds and both gate sides.

#include "core/memory_encoder.h"

#include <cmath>

#include <gtest/gtest.h>

#include "ag/grad_check.h"
#include "graph/coo.h"
#include "util/telemetry.h"

namespace dgnn::core {
namespace {

constexpr float kSlope = 0.2f;

float LeakyReluF(float x) { return x >= 0.0f ? x : kSlope * x; }

using Kind = DgnnConfig::TransformKind;

struct EncoderFixture {
  EncoderFixture(int num_units, MemoryGateSide side, Kind kind,
                 bool gated = true)
      : rng(42),
        kind(kind),
        encoder("enc", kDim, num_units, side, kSlope, &store, &rng, gated,
                kind) {
    graph::CooMatrix coo;
    coo.rows = kTargets;
    coo.cols = kSources;
    coo.Add(0, 1, 0.5f);
    coo.Add(0, 3, 0.5f);
    coo.Add(1, 0, 1.0f);
    coo.Add(2, 2, 0.7f);
    coo.Add(2, 4, 0.3f);
    // Target 3 has no neighbors.
    adj = graph::CsrMatrix::FromCoo(coo);
    adj_t = adj.Transposed();
    h_src = store.Create("h_src",
                         ag::Tensor::GaussianInit(kSources, kDim, 0.5f, rng));
    h_tgt = store.Create("h_tgt",
                         ag::Tensor::GaussianInit(kTargets, kDim, 0.5f, rng));
  }

  static constexpr int64_t kDim = 5;
  static constexpr int64_t kSources = 5;
  static constexpr int64_t kTargets = 4;

  dgnn::util::Rng rng;
  Kind kind;
  ag::ParamStore store;
  MemoryEncoder encoder;
  graph::CsrMatrix adj, adj_t;
  ag::Parameter* h_src;
  ag::Parameter* h_tgt;
};

// Literal Eq. 3: per edge (s -> t) with weight w, message =
// w * sum_m eta(gate_node)_m * (h_s W1_m), summed into t. A diagonal W1_m
// is stored as its 1 x d diagonal.
ag::Tensor NaivePropagate(EncoderFixture& s, MemoryGateSide side, int num_units) {
  ag::Tensor out(EncoderFixture::kTargets, EncoderFixture::kDim);
  const ag::Tensor& src = s.h_src->value;
  const ag::Tensor& tgt = s.h_tgt->value;
  const ag::Tensor& w2 = s.store.Find("enc.w2")->value;
  const ag::Tensor& bias = s.store.Find("enc.b")->value;
  for (int64_t t = 0; t < s.adj.rows(); ++t) {
    for (int64_t i = s.adj.indptr()[t]; i < s.adj.indptr()[t + 1]; ++i) {
      const int32_t src_id = s.adj.indices()[i];
      const float w = s.adj.values()[i];
      const ag::Tensor& gate_node_emb = side == MemoryGateSide::kTarget
                                            ? tgt
                                            : src;
      const int64_t gate_row =
          side == MemoryGateSide::kTarget ? t : src_id;
      for (int m = 0; m < num_units; ++m) {
        // eta = LeakyReLU(h . w2[:, m] + b_m)
        float gate = bias.at(0, m);
        for (int64_t c = 0; c < EncoderFixture::kDim; ++c) {
          gate += gate_node_emb.at(gate_row, c) * w2.at(c, m);
        }
        gate = LeakyReluF(gate);
        const ag::Tensor& w1 =
            s.store.Find("enc.w1_" + std::to_string(m))->value;
        for (int64_t c = 0; c < EncoderFixture::kDim; ++c) {
          float transformed = 0.0f;
          if (s.kind == Kind::kDense) {
            for (int64_t k = 0; k < EncoderFixture::kDim; ++k) {
              transformed += src.at(src_id, k) * w1.at(k, c);
            }
          } else {
            transformed = src.at(src_id, c) * w1.at(0, c);
          }
          out.at(t, c) += w * gate * transformed;
        }
      }
    }
  }
  return out;
}

// The tests that hold for either transform kind.
class MemoryEncoderKindTest : public ::testing::TestWithParam<Kind> {};

TEST_P(MemoryEncoderKindTest, FactorizedMatchesLiteralEq3TargetGate) {
  EncoderFixture s(3, MemoryGateSide::kTarget, GetParam());
  ag::Tape tape;
  ag::VarId out =
      s.encoder.Propagate(tape, tape.Param(s.h_src), tape.Param(s.h_tgt),
                          &s.adj, &s.adj_t);
  ag::Tensor naive = NaivePropagate(s, MemoryGateSide::kTarget, 3);
  EXPECT_LT(tape.val(out).MaxAbsDiff(naive), 1e-4f);
}

TEST_P(MemoryEncoderKindTest, FactorizedMatchesLiteralEq3SourceGate) {
  EncoderFixture s(3, MemoryGateSide::kSource, GetParam());
  ag::Tape tape;
  ag::VarId out =
      s.encoder.Propagate(tape, tape.Param(s.h_src), tape.Param(s.h_tgt),
                          &s.adj, &s.adj_t);
  ag::Tensor naive = NaivePropagate(s, MemoryGateSide::kSource, 3);
  EXPECT_LT(tape.val(out).MaxAbsDiff(naive), 1e-4f);
}

TEST(MemoryEncoderTest, GateSidesDiffer) {
  EncoderFixture target(3, MemoryGateSide::kTarget, Kind::kDense);
  // Same seed -> same params.
  EncoderFixture source(3, MemoryGateSide::kSource, Kind::kDense);
  ag::Tape t1, t2;
  ag::VarId o1 = target.encoder.Propagate(
      t1, t1.Param(target.h_src), t1.Param(target.h_tgt), &target.adj,
      &target.adj_t);
  ag::VarId o2 = source.encoder.Propagate(
      t2, t2.Param(source.h_src), t2.Param(source.h_tgt), &source.adj,
      &source.adj_t);
  EXPECT_GT(t1.val(o1).MaxAbsDiff(t2.val(o2)), 1e-4f);
}

TEST(MemoryEncoderTest, IsolatedTargetsGetZeroMessages) {
  EncoderFixture s(3, MemoryGateSide::kTarget, Kind::kDense);
  ag::Tape tape;
  ag::VarId out =
      s.encoder.Propagate(tape, tape.Param(s.h_src), tape.Param(s.h_tgt),
                          &s.adj, &s.adj_t);
  // Target 3 has no incoming edges.
  for (int64_t c = 0; c < EncoderFixture::kDim; ++c) {
    EXPECT_EQ(tape.val(out).at(3, c), 0.0f);
  }
}

TEST(MemoryEncoderTest, UngatedModeIsSingleLinearTransform) {
  EncoderFixture s(4, MemoryGateSide::kTarget, Kind::kDense,
                   /*gated=*/false);
  EXPECT_EQ(s.encoder.num_units(), 1);
  EXPECT_FALSE(s.encoder.gated());
  ag::Tape tape;
  ag::VarId out =
      s.encoder.Propagate(tape, tape.Param(s.h_src), tape.Param(s.h_tgt),
                          &s.adj, &s.adj_t);
  // out = A (h_src W1_0)
  const ag::Tensor& w1 = s.store.Find("enc.w1_0")->value;
  ag::Tensor transformed(EncoderFixture::kSources, EncoderFixture::kDim);
  for (int64_t r = 0; r < EncoderFixture::kSources; ++r) {
    for (int64_t c = 0; c < EncoderFixture::kDim; ++c) {
      for (int64_t k = 0; k < EncoderFixture::kDim; ++k) {
        transformed.at(r, c) += s.h_src->value.at(r, k) * w1.at(k, c);
      }
    }
  }
  ag::Tensor expected(EncoderFixture::kTargets, EncoderFixture::kDim);
  s.adj.Multiply(transformed.data(), EncoderFixture::kDim, expected.data());
  EXPECT_LT(tape.val(out).MaxAbsDiff(expected), 1e-4f);
}

TEST_P(MemoryEncoderKindTest, SelfPropagateUsesOwnEmbedding) {
  EncoderFixture s(2, MemoryGateSide::kTarget, GetParam());
  ag::Tape tape;
  ag::VarId out = s.encoder.SelfPropagate(tape, tape.Param(s.h_tgt));
  // Equivalent to Propagate over an identity adjacency.
  graph::CsrMatrix id = graph::CsrMatrix::Identity(EncoderFixture::kTargets);
  ag::VarId via_identity = s.encoder.Propagate(
      tape, tape.Param(s.h_tgt), tape.Param(s.h_tgt), &id, &id);
  EXPECT_LT(tape.val(out).MaxAbsDiff(tape.val(via_identity)), 1e-4f);
}

TEST(MemoryEncoderTest, GatesShapeAndActivation) {
  EncoderFixture s(4, MemoryGateSide::kTarget, Kind::kDense);
  ag::Tape tape;
  ag::VarId gates = s.encoder.Gates(tape, tape.Param(s.h_tgt));
  EXPECT_EQ(tape.val(gates).rows(), EncoderFixture::kTargets);
  EXPECT_EQ(tape.val(gates).cols(), 4);
}

TEST_P(MemoryEncoderKindTest, GradientsMatchNumeric) {
  EncoderFixture s(2, MemoryGateSide::kTarget, GetParam());
  std::vector<ag::Parameter*> params;
  for (const auto& p : s.store.params()) params.push_back(p.get());
  auto result = ag::CheckGradients(params, [&](ag::Tape& tape) {
    ag::VarId out =
        s.encoder.Propagate(tape, tape.Param(s.h_src), tape.Param(s.h_tgt),
                            &s.adj, &s.adj_t);
    return tape.MeanAll(tape.Mul(out, out));
  });
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST_P(MemoryEncoderKindTest, SourceGateGradientsMatchNumeric) {
  EncoderFixture s(2, MemoryGateSide::kSource, GetParam());
  std::vector<ag::Parameter*> params;
  for (const auto& p : s.store.params()) params.push_back(p.get());
  auto result = ag::CheckGradients(params, [&](ag::Tape& tape) {
    ag::VarId out =
        s.encoder.Propagate(tape, tape.Param(s.h_src), tape.Param(s.h_tgt),
                            &s.adj, &s.adj_t);
    return tape.MeanAll(tape.Mul(out, out));
  });
  EXPECT_TRUE(result.ok) << result.detail;
}

// The sparse product runs once per Propagate whatever |M| is: the gated sum
// over the memory units is taken before or after the SpMM, never around
// it. Forward and backward each visit every edge of A once.
TEST_P(MemoryEncoderKindTest, OneSpmmPerPropagateWhateverTheUnitCount) {
  telemetry::Counter* edges =
      telemetry::GetCounter("graph.spmm_edges_processed");
  telemetry::SetEnabled(true);
  for (int num_units : {2, 8}) {
    for (MemoryGateSide side :
         {MemoryGateSide::kTarget, MemoryGateSide::kSource}) {
      EncoderFixture s(num_units, side, GetParam());
      const int64_t before = edges->value();
      ag::Tape tape;
      ag::VarId out = s.encoder.Propagate(tape, tape.Param(s.h_src),
                                          tape.Param(s.h_tgt), &s.adj,
                                          &s.adj_t);
      tape.Backward(tape.MeanAll(tape.Mul(out, out)));
      EXPECT_EQ(edges->value() - before, 2 * s.adj.nnz())
          << "|M| = " << num_units << ", "
          << (side == MemoryGateSide::kTarget ? "target" : "source")
          << " gate";
    }
  }
  telemetry::SetEnabled(false);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, MemoryEncoderKindTest,
    ::testing::Values(Kind::kDiagonal, Kind::kDense),
    [](const ::testing::TestParamInfo<Kind>& info) {
      return info.param == Kind::kDense ? std::string("Dense")
                                        : std::string("Diagonal");
    });

}  // namespace
}  // namespace dgnn::core
