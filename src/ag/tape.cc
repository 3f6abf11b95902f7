#include "ag/tape.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "ag/diagnostics.h"
#include "kernels/kernels.h"
#include "util/json.h"
#include "util/run_log.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

namespace dgnn::ag {
namespace {

// ParallelFor grains for the tape kernels. Fixed constants (independent
// of the thread count) keep the chunk decomposition — and therefore the
// float accumulation order of every output element — identical for any
// DGNN_NUM_THREADS, which is what the parallel-vs-serial equivalence
// suite asserts bit-exactly.
constexpr int64_t kRowGrain = 64;     // chunks of matrix rows
constexpr int64_t kEltGrain = 4096;   // chunks of flat elements

// out += op(A) @ op(B) where op optionally transposes. Dispatches to the
// kernel layer (src/kernels/): the active ISA variant parallelizes over
// output rows on the same fixed grain this file used before dispatch
// existed, so results stay bit-identical to the old serial kernels for
// any thread count and any ISA.
void GemmAcc(const Tensor& a, bool ta, const Tensor& b, bool tb,
             Tensor& out) {
  static telemetry::Timer* gemm_timer = telemetry::GetTimer("ag.gemm");
  telemetry::ScopedTimer timer(gemm_timer);
  const int64_t m = ta ? a.cols() : a.rows();
  const int64_t n = tb ? b.rows() : b.cols();
  DGNN_CHECK_EQ(out.rows(), m);
  DGNN_CHECK_EQ(out.cols(), n);
  kernels::GemmAcc(a.data(), a.rows(), a.cols(), ta, b.data(), b.rows(),
                   b.cols(), tb, out.data());
}

float StableSoftplus(float z) {
  // log(1 + exp(z)) without overflow.
  if (z > 0.0f) return z + std::log1p(std::exp(-z));
  return std::log1p(std::exp(z));
}

float SigmoidF(float z) {
  if (z >= 0.0f) {
    const float e = std::exp(-z);
    return 1.0f / (1.0f + e);
  }
  const float e = std::exp(z);
  return e / (1.0f + e);
}

}  // namespace

// ---------------------------------------------------------------------------
// ParamStore
// ---------------------------------------------------------------------------

Parameter* ParamStore::Create(const std::string& name, Tensor init) {
  auto p = std::make_unique<Parameter>();
  p->name = name;
  p->grad = Tensor(init.rows(), init.cols());
  p->value = std::move(init);
  params_.push_back(std::move(p));
  return params_.back().get();
}

Parameter* ParamStore::CreateXavier(const std::string& name, int64_t rows,
                                    int64_t cols, util::Rng& rng) {
  return Create(name, Tensor::XavierUniform(rows, cols, rng));
}

Parameter* ParamStore::CreateZero(const std::string& name, int64_t rows,
                                  int64_t cols) {
  return Create(name, Tensor(rows, cols));
}

Parameter* ParamStore::CreateFull(const std::string& name, int64_t rows,
                                  int64_t cols, float value) {
  return Create(name, Tensor::Full(rows, cols, value));
}

void ParamStore::ZeroGrad() {
  for (auto& p : params_) p->grad.Zero();
}

int64_t ParamStore::TotalParameterCount() const {
  int64_t n = 0;
  for (const auto& p : params_) n += p->value.size();
  return n;
}

Parameter* ParamStore::Find(const std::string& name) {
  for (auto& p : params_) {
    if (p->name == name) return p.get();
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Tape plumbing
// ---------------------------------------------------------------------------

VarId Tape::Emit(Tensor value, bool requires_grad,
                 std::function<void()> backward, const char* op) {
  auto n = std::make_unique<Node>();
  n->value = std::move(value);
  n->requires_grad = requires_grad;
  n->backward = std::move(backward);
  n->op = op;
  nodes_.push_back(std::move(n));
  const VarId id = static_cast<VarId>(nodes_.size() - 1);
  if (CheckNumericsEnabled()) CheckFinite(id, /*gradient=*/false);
  return id;
}

void Tape::CheckFinite(VarId id, bool gradient) const {
  const Node& n = node(id);
  const Tensor& t = gradient ? n.grad : n.value;
  const int64_t bad = FirstNonFinite(t);
  if (bad < 0) return;
  std::string where = n.op;
  if (n.param != nullptr) where += " ('" + n.param->name + "')";
  const char* what = gradient ? "gradient" : "value";
  if (runlog::Active()) {
    util::JsonObject o;
    o.Set("kind", gradient ? "nonfinite_gradient" : "nonfinite_value")
        .Set("op", n.op)
        .Set("param", n.param != nullptr ? n.param->name : std::string())
        .Set("node", static_cast<int64_t>(id))
        .Set("index", bad);
    runlog::Emit("anomaly", o);
  }
  DGNN_CHECK(false) << "check-numerics: non-finite " << what
                    << " produced by tape op " << where << " (node " << id
                    << ", element " << bad << ")";
}

Tape::Node& Tape::node(VarId id) {
  DGNN_DCHECK_GE(id, 0);
  DGNN_DCHECK_LT(id, static_cast<VarId>(nodes_.size()));
  return *nodes_[static_cast<size_t>(id)];
}

const Tape::Node& Tape::node(VarId id) const {
  return const_cast<Tape*>(this)->node(id);
}

Tensor& Tape::grad_buf(VarId id) {
  Node& n = node(id);
  if (n.grad.empty() && n.value.size() > 0) {
    n.grad = Tensor(n.value.rows(), n.value.cols());
  }
  return n.grad;
}

const Tensor& Tape::val(VarId id) const { return node(id).value; }

const Tensor& Tape::grad(VarId id) const {
  // Lazily materialize zeros so callers can read grads of unused vars.
  return const_cast<Tape*>(this)->grad_buf(id);
}

bool Tape::requires_grad(VarId id) const { return node(id).requires_grad; }

const char* Tape::op_name(VarId id) const { return node(id).op; }

VarId Tape::Constant(Tensor value) {
  return Emit(std::move(value), /*requires_grad=*/false, nullptr, "Constant");
}

VarId Tape::Param(Parameter* p) {
  DGNN_CHECK(p != nullptr);
  if (CheckNumericsEnabled()) {
    // Pre-check the live parameter so a value corrupted by a previous
    // optimizer step is attributed to the parameter, not to the first op
    // that consumes it.
    const int64_t bad = FirstNonFinite(p->value);
    if (bad >= 0) {
      if (runlog::Active()) {
        util::JsonObject o;
        o.Set("kind", "nonfinite_param")
            .Set("op", "Param")
            .Set("param", p->name)
            .Set("index", bad);
        runlog::Emit("anomaly", o);
      }
      DGNN_CHECK(false) << "check-numerics: non-finite value in parameter '"
                        << p->name << "' (element " << bad << ")";
    }
  }
  Tensor copy = p->value;
  VarId id = Emit(std::move(copy), /*requires_grad=*/true, nullptr, "Param");
  node(id).param = p;
  node(id).backward = [this, id, p]() {
    DGNN_CHECK(p->grad.SameShape(node(id).grad));
    p->grad.Add(node(id).grad);
  };
  return id;
}

void Tape::Backward(VarId root) {
  Node& r = node(root);
  DGNN_CHECK_EQ(r.value.size(), 1) << "Backward root must be scalar";
  DGNN_CHECK(r.requires_grad) << "Backward root does not depend on params";
  grad_buf(root).Fill(1.0f);
  const bool check = CheckNumericsEnabled();
  for (VarId id = root; id >= 0; --id) {
    Node& n = node(id);
    if (!n.requires_grad || n.grad.empty() || !n.backward) continue;
    // By the time a node's backward runs, its own gradient is fully
    // accumulated — the first non-finite entry names the op whose
    // cotangent corrupted the chain.
    if (check) CheckFinite(id, /*gradient=*/true);
    n.backward();
  }
}

void Tape::Reset() { nodes_.clear(); }

// ---------------------------------------------------------------------------
// Elementwise & linear algebra
// ---------------------------------------------------------------------------

VarId Tape::MatMul(VarId a, VarId b, bool trans_a, bool trans_b) {
  const Tensor& av = val(a);
  const Tensor& bv = val(b);
  const int64_t m = trans_a ? av.cols() : av.rows();
  const int64_t n = trans_b ? bv.rows() : bv.cols();
  Tensor out(m, n);
  GemmAcc(av, trans_a, bv, trans_b, out);
  bool rg = requires_grad(a) || requires_grad(b);
  VarId id = Emit(std::move(out), rg, nullptr, "MatMul");
  if (rg) {
    node(id).backward = [this, id, a, b, trans_a, trans_b]() {
      const Tensor& g = node(id).grad;
      if (requires_grad(a)) {
        if (!trans_a) {
          GemmAcc(g, false, val(b), !trans_b, grad_buf(a));
        } else {
          GemmAcc(val(b), trans_b, g, true, grad_buf(a));
        }
      }
      if (requires_grad(b)) {
        if (!trans_b) {
          GemmAcc(val(a), !trans_a, g, false, grad_buf(b));
        } else {
          GemmAcc(g, true, val(a), trans_a, grad_buf(b));
        }
      }
    };
  }
  return id;
}

VarId Tape::Add(VarId a, VarId b) { return AddN({a, b}); }

VarId Tape::Sub(VarId a, VarId b) {
  const Tensor& av = val(a);
  const Tensor& bv = val(b);
  DGNN_CHECK(av.SameShape(bv));
  Tensor out = av;
  out.Axpy(-1.0f, bv);
  bool rg = requires_grad(a) || requires_grad(b);
  VarId id = Emit(std::move(out), rg, nullptr, "Sub");
  if (rg) {
    node(id).backward = [this, id, a, b]() {
      const Tensor& g = node(id).grad;
      if (requires_grad(a)) grad_buf(a).Add(g);
      if (requires_grad(b)) grad_buf(b).Axpy(-1.0f, g);
    };
  }
  return id;
}

VarId Tape::AddN(const std::vector<VarId>& xs) {
  DGNN_CHECK(!xs.empty());
  Tensor out = val(xs[0]);
  bool rg = requires_grad(xs[0]);
  for (size_t i = 1; i < xs.size(); ++i) {
    DGNN_CHECK(out.SameShape(val(xs[i])));
    rg = rg || requires_grad(xs[i]);
  }
  if (xs.size() > 1) {
    util::ParallelFor(0, out.size(), kEltGrain, [&](int64_t b, int64_t e) {
      float* o = out.data();
      for (size_t i = 1; i < xs.size(); ++i) {
        kernels::AddInto(o + b, val(xs[i]).data() + b, e - b);
      }
    });
  }
  VarId id = Emit(std::move(out), rg, nullptr, "AddN");
  if (rg) {
    std::vector<VarId> inputs = xs;
    node(id).backward = [this, id, inputs]() {
      const Tensor& g = node(id).grad;
      for (VarId x : inputs) {
        if (!requires_grad(x)) continue;
        Tensor& gx = grad_buf(x);
        util::ParallelFor(0, g.size(), kEltGrain, [&](int64_t b, int64_t e) {
          kernels::AddInto(gx.data() + b, g.data() + b, e - b);
        });
      }
    };
  }
  return id;
}

VarId Tape::AddRowBroadcast(VarId a, VarId b) {
  const Tensor& av = val(a);
  const Tensor& bv = val(b);
  DGNN_CHECK_EQ(bv.rows(), 1);
  DGNN_CHECK_EQ(bv.cols(), av.cols());
  Tensor out = av;
  for (int64_t r = 0; r < out.rows(); ++r) {
    kernels::AddInto(out.row(r), bv.row(0), out.cols());
  }
  bool rg = requires_grad(a) || requires_grad(b);
  VarId id = Emit(std::move(out), rg, nullptr, "AddRowBroadcast");
  if (rg) {
    node(id).backward = [this, id, a, b]() {
      const Tensor& g = node(id).grad;
      if (requires_grad(a)) grad_buf(a).Add(g);
      if (requires_grad(b)) {
        Tensor& gb = grad_buf(b);
        for (int64_t r = 0; r < g.rows(); ++r) {
          kernels::AddInto(gb.row(0), g.row(r), g.cols());
        }
      }
    };
  }
  return id;
}

VarId Tape::Mul(VarId a, VarId b) {
  const Tensor& av = val(a);
  const Tensor& bv = val(b);
  DGNN_CHECK(av.SameShape(bv));
  Tensor out = av;
  kernels::MulInto(out.data(), bv.data(), out.size());
  bool rg = requires_grad(a) || requires_grad(b);
  VarId id = Emit(std::move(out), rg, nullptr, "Mul");
  if (rg) {
    node(id).backward = [this, id, a, b]() {
      const Tensor& g = node(id).grad;
      if (requires_grad(a)) {
        kernels::MulAddInto(grad_buf(a).data(), g.data(), val(b).data(),
                            g.size());
      }
      if (requires_grad(b)) {
        kernels::MulAddInto(grad_buf(b).data(), g.data(), val(a).data(),
                            g.size());
      }
    };
  }
  return id;
}

VarId Tape::MulRowBroadcast(VarId a, VarId b) {
  const Tensor& av = val(a);
  const Tensor& bv = val(b);
  DGNN_CHECK_EQ(bv.rows(), 1);
  DGNN_CHECK_EQ(bv.cols(), av.cols());
  Tensor out = av;
  for (int64_t r = 0; r < out.rows(); ++r) {
    kernels::MulInto(out.row(r), bv.row(0), out.cols());
  }
  bool rg = requires_grad(a) || requires_grad(b);
  VarId id = Emit(std::move(out), rg, nullptr, "MulRowBroadcast");
  if (rg) {
    node(id).backward = [this, id, a, b]() {
      const Tensor& g = node(id).grad;
      const Tensor& av2 = val(a);
      const Tensor& bv2 = val(b);
      if (requires_grad(a)) {
        Tensor& ga = grad_buf(a);
        for (int64_t r = 0; r < g.rows(); ++r) {
          kernels::MulAddInto(ga.row(r), g.row(r), bv2.row(0), g.cols());
        }
      }
      if (requires_grad(b)) {
        Tensor& gb = grad_buf(b);
        for (int64_t r = 0; r < g.rows(); ++r) {
          kernels::MulAddInto(gb.row(0), g.row(r), av2.row(r), g.cols());
        }
      }
    };
  }
  return id;
}

VarId Tape::RowScale(VarId a, VarId s) {
  const Tensor& av = val(a);
  const Tensor& sv = val(s);
  DGNN_CHECK_EQ(sv.rows(), av.rows());
  DGNN_CHECK_EQ(sv.cols(), 1);
  Tensor out = av;
  for (int64_t r = 0; r < out.rows(); ++r) {
    kernels::ScaleInto(out.row(r), sv.at(r, 0), out.cols());
  }
  bool rg = requires_grad(a) || requires_grad(s);
  VarId id = Emit(std::move(out), rg, nullptr, "RowScale");
  if (rg) {
    node(id).backward = [this, id, a, s]() {
      const Tensor& g = node(id).grad;
      if (requires_grad(a)) {
        Tensor& ga = grad_buf(a);
        const Tensor& sv2 = val(s);
        for (int64_t r = 0; r < g.rows(); ++r) {
          kernels::AxpyInto(ga.row(r), sv2.at(r, 0), g.row(r), g.cols());
        }
      }
      if (requires_grad(s)) {
        Tensor& gs = grad_buf(s);
        const Tensor& av2 = val(a);
        for (int64_t r = 0; r < g.rows(); ++r) {
          gs.at(r, 0) += kernels::Dot(g.row(r), av2.row(r), g.cols());
        }
      }
    };
  }
  return id;
}

VarId Tape::ScalarMul(VarId a, float c) {
  Tensor out = val(a);
  out.Scale(c);
  bool rg = requires_grad(a);
  VarId id = Emit(std::move(out), rg, nullptr, "ScalarMul");
  if (rg) {
    node(id).backward = [this, id, a, c]() {
      grad_buf(a).Axpy(c, node(id).grad);
    };
  }
  return id;
}

VarId Tape::MulScalarVar(VarId a, VarId s) {
  const Tensor& av = val(a);
  const Tensor& sv = val(s);
  DGNN_CHECK_EQ(sv.size(), 1);
  Tensor out = av;
  out.Scale(sv.scalar());
  bool rg = requires_grad(a) || requires_grad(s);
  VarId id = Emit(std::move(out), rg, nullptr, "MulScalarVar");
  if (rg) {
    node(id).backward = [this, id, a, s]() {
      const Tensor& g = node(id).grad;
      if (requires_grad(a)) grad_buf(a).Axpy(val(s).scalar(), g);
      if (requires_grad(s)) {
        grad_buf(s).at(0, 0) += kernels::Dot(g.data(), val(a).data(),
                                             g.size());
      }
    };
  }
  return id;
}

VarId Tape::LeakyRelu(VarId a, float negative_slope) {
  const Tensor& av = val(a);
  Tensor out = av;
  util::ParallelFor(0, out.size(), kEltGrain, [&](int64_t b, int64_t e) {
    kernels::LeakyReluForward(out.data() + b, e - b, negative_slope);
  });
  bool rg = requires_grad(a);
  VarId id = Emit(std::move(out), rg, nullptr, "LeakyRelu");
  if (rg) {
    node(id).backward = [this, id, a, negative_slope]() {
      const Tensor& g = node(id).grad;
      const Tensor& x = val(a);
      Tensor& ga = grad_buf(a);
      util::ParallelFor(0, g.size(), kEltGrain, [&](int64_t b, int64_t e) {
        kernels::LeakyReluBackward(ga.data() + b, g.data() + b, x.data() + b,
                                   e - b, negative_slope);
      });
    };
  }
  return id;
}

VarId Tape::Relu(VarId a) { return LeakyRelu(a, 0.0f); }

VarId Tape::Sigmoid(VarId a) {
  const Tensor& av = val(a);
  Tensor out(av.rows(), av.cols());
  for (int64_t i = 0; i < out.size(); ++i) {
    out.data()[i] = SigmoidF(av.data()[i]);
  }
  bool rg = requires_grad(a);
  VarId id = Emit(std::move(out), rg, nullptr, "Sigmoid");
  if (rg) {
    node(id).backward = [this, id, a]() {
      const Tensor& g = node(id).grad;
      const Tensor& y = node(id).value;
      Tensor& ga = grad_buf(a);
      for (int64_t i = 0; i < g.size(); ++i) {
        const float yi = y.data()[i];
        ga.data()[i] += g.data()[i] * yi * (1.0f - yi);
      }
    };
  }
  return id;
}

VarId Tape::Tanh(VarId a) {
  const Tensor& av = val(a);
  Tensor out(av.rows(), av.cols());
  for (int64_t i = 0; i < out.size(); ++i) {
    out.data()[i] = std::tanh(av.data()[i]);
  }
  bool rg = requires_grad(a);
  VarId id = Emit(std::move(out), rg, nullptr, "Tanh");
  if (rg) {
    node(id).backward = [this, id, a]() {
      const Tensor& g = node(id).grad;
      const Tensor& y = node(id).value;
      Tensor& ga = grad_buf(a);
      for (int64_t i = 0; i < g.size(); ++i) {
        const float yi = y.data()[i];
        ga.data()[i] += g.data()[i] * (1.0f - yi * yi);
      }
    };
  }
  return id;
}

VarId Tape::Exp(VarId a) {
  const Tensor& av = val(a);
  Tensor out(av.rows(), av.cols());
  for (int64_t i = 0; i < out.size(); ++i) {
    out.data()[i] = std::exp(av.data()[i]);
  }
  bool rg = requires_grad(a);
  VarId id = Emit(std::move(out), rg, nullptr, "Exp");
  if (rg) {
    node(id).backward = [this, id, a]() {
      const Tensor& g = node(id).grad;
      const Tensor& y = node(id).value;
      Tensor& ga = grad_buf(a);
      for (int64_t i = 0; i < g.size(); ++i) {
        ga.data()[i] += g.data()[i] * y.data()[i];
      }
    };
  }
  return id;
}

VarId Tape::Log(VarId a, float eps) {
  const Tensor& av = val(a);
  Tensor out(av.rows(), av.cols());
  for (int64_t i = 0; i < out.size(); ++i) {
    out.data()[i] = std::log(av.data()[i] + eps);
  }
  bool rg = requires_grad(a);
  VarId id = Emit(std::move(out), rg, nullptr, "Log");
  if (rg) {
    node(id).backward = [this, id, a, eps]() {
      const Tensor& g = node(id).grad;
      const Tensor& x = val(a);
      Tensor& ga = grad_buf(a);
      for (int64_t i = 0; i < g.size(); ++i) {
        ga.data()[i] += g.data()[i] / (x.data()[i] + eps);
      }
    };
  }
  return id;
}

VarId Tape::Dropout(VarId a, float rate, util::Rng& rng, bool training) {
  if (!training || rate <= 0.0f) return a;
  DGNN_CHECK_LT(rate, 1.0f);
  const Tensor& av = val(a);
  const float scale = 1.0f / (1.0f - rate);
  auto mask = std::make_shared<std::vector<float>>(
      static_cast<size_t>(av.size()));
  Tensor out = av;
  for (int64_t i = 0; i < out.size(); ++i) {
    const float keep = rng.Bernoulli(rate) ? 0.0f : scale;
    (*mask)[static_cast<size_t>(i)] = keep;
    out.data()[i] *= keep;
  }
  bool rg = requires_grad(a);
  VarId id = Emit(std::move(out), rg, nullptr, "Dropout");
  if (rg) {
    node(id).backward = [this, id, a, mask]() {
      const Tensor& g = node(id).grad;
      Tensor& ga = grad_buf(a);
      for (int64_t i = 0; i < g.size(); ++i) {
        ga.data()[i] += g.data()[i] * (*mask)[static_cast<size_t>(i)];
      }
    };
  }
  return id;
}

// ---------------------------------------------------------------------------
// Graph / sparse ops
// ---------------------------------------------------------------------------

VarId Tape::SpMM(const graph::CsrMatrix* adj, const graph::CsrMatrix* adj_t,
                 VarId b) {
  DGNN_CHECK(adj != nullptr);
  static telemetry::Timer* spmm_timer = telemetry::GetTimer("ag.spmm");
  const Tensor& bv = val(b);
  DGNN_CHECK_EQ(adj->cols(), bv.rows());
  Tensor out(adj->rows(), bv.cols());
  {
    telemetry::ScopedTimer timer(spmm_timer);
    adj->Multiply(bv.data(), bv.cols(), out.data());
  }
  bool rg = requires_grad(b);
  VarId id = Emit(std::move(out), rg, nullptr, "SpMM");
  if (rg) {
    DGNN_CHECK(adj_t != nullptr)
        << "SpMM over a differentiable input needs the transposed CSR";
    DGNN_CHECK_EQ(adj_t->rows(), adj->cols());
    DGNN_CHECK_EQ(adj_t->cols(), adj->rows());
    node(id).backward = [this, id, adj_t, b]() {
      const Tensor& g = node(id).grad;
      Tensor tmp(adj_t->rows(), g.cols());
      {
        telemetry::ScopedTimer timer(spmm_timer);
        adj_t->Multiply(g.data(), g.cols(), tmp.data());
      }
      grad_buf(b).Add(tmp);
    };
  }
  return id;
}

VarId Tape::GatherRows(VarId a, std::vector<int32_t> index) {
  const Tensor& av = val(a);
  Tensor out(static_cast<int64_t>(index.size()), av.cols());
  util::ParallelFor(
      0, static_cast<int64_t>(index.size()), kRowGrain,
      [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i) {
          const int32_t r = index[static_cast<size_t>(i)];
          DGNN_DCHECK_GE(r, 0);
          DGNN_DCHECK_LT(r, av.rows());
          std::copy(av.row(r), av.row(r) + av.cols(), out.row(i));
        }
      });
  bool rg = requires_grad(a);
  VarId id = Emit(std::move(out), rg, nullptr, "GatherRows");
  if (rg) {
    auto idx = std::make_shared<std::vector<int32_t>>(std::move(index));
    node(id).backward = [this, id, a, idx]() {
      const Tensor& g = node(id).grad;
      Tensor& ga = grad_buf(a);
      // Scatter-add with the destination rows partitioned across chunks:
      // gather positions are visited sorted by (destination row, position),
      // so each destination row accumulates its contributions in ascending
      // position order — exactly the serial loop's order — while chunks
      // write disjoint row ranges of ga.
      std::vector<int32_t> order(idx->size());
      std::iota(order.begin(), order.end(), 0);
      std::stable_sort(order.begin(), order.end(),
                       [&](int32_t x, int32_t y) {
                         return (*idx)[static_cast<size_t>(x)] <
                                (*idx)[static_cast<size_t>(y)];
                       });
      util::ParallelFor(0, ga.rows(), kRowGrain, [&](int64_t rb, int64_t re) {
        auto lo = std::lower_bound(
            order.begin(), order.end(), rb, [&](int32_t pos, int64_t row) {
              return (*idx)[static_cast<size_t>(pos)] < row;
            });
        for (auto it = lo; it != order.end() &&
                           (*idx)[static_cast<size_t>(*it)] < re;
             ++it) {
          const int64_t i = static_cast<int64_t>(*it);
          kernels::AddInto(ga.row((*idx)[static_cast<size_t>(i)]), g.row(i),
                           g.cols());
        }
      });
    };
  }
  return id;
}

VarId Tape::SegmentSum(VarId a, std::vector<int32_t> segment_ids,
                       int64_t num_segments) {
  const Tensor& av = val(a);
  DGNN_CHECK_EQ(static_cast<int64_t>(segment_ids.size()), av.rows());
  Tensor out(num_segments, av.cols());
  for (size_t e = 0; e < segment_ids.size(); ++e) {
    const int32_t s = segment_ids[e];
    DGNN_DCHECK_GE(s, 0);
    DGNN_DCHECK_LT(s, num_segments);
    kernels::AddInto(out.row(s), av.row(static_cast<int64_t>(e)), av.cols());
  }
  bool rg = requires_grad(a);
  VarId id = Emit(std::move(out), rg, nullptr, "SegmentSum");
  if (rg) {
    auto seg = std::make_shared<std::vector<int32_t>>(std::move(segment_ids));
    node(id).backward = [this, id, a, seg]() {
      const Tensor& g = node(id).grad;
      Tensor& ga = grad_buf(a);
      for (size_t e = 0; e < seg->size(); ++e) {
        kernels::AddInto(ga.row(static_cast<int64_t>(e)), g.row((*seg)[e]),
                         g.cols());
      }
    };
  }
  return id;
}

VarId Tape::SegmentSoftmax(VarId scores, std::vector<int32_t> segment_ids,
                           int64_t num_segments) {
  const Tensor& sv = val(scores);
  DGNN_CHECK_EQ(sv.cols(), 1);
  DGNN_CHECK_EQ(static_cast<int64_t>(segment_ids.size()), sv.rows());
  // Per-segment max for numerical stability.
  std::vector<float> seg_max(static_cast<size_t>(num_segments),
                             -std::numeric_limits<float>::infinity());
  for (size_t e = 0; e < segment_ids.size(); ++e) {
    const int32_t s = segment_ids[e];
    DGNN_DCHECK_GE(s, 0);
    DGNN_DCHECK_LT(s, num_segments);
    seg_max[static_cast<size_t>(s)] =
        std::max(seg_max[static_cast<size_t>(s)], sv.at(static_cast<int64_t>(e), 0));
  }
  std::vector<float> seg_sum(static_cast<size_t>(num_segments), 0.0f);
  Tensor out(sv.rows(), 1);
  for (size_t e = 0; e < segment_ids.size(); ++e) {
    const int32_t s = segment_ids[e];
    const float ex =
        std::exp(sv.at(static_cast<int64_t>(e), 0) - seg_max[static_cast<size_t>(s)]);
    out.at(static_cast<int64_t>(e), 0) = ex;
    seg_sum[static_cast<size_t>(s)] += ex;
  }
  for (size_t e = 0; e < segment_ids.size(); ++e) {
    const int32_t s = segment_ids[e];
    out.at(static_cast<int64_t>(e), 0) /= seg_sum[static_cast<size_t>(s)];
  }
  bool rg = requires_grad(scores);
  VarId id = Emit(std::move(out), rg, nullptr, "SegmentSoftmax");
  if (rg) {
    auto seg = std::make_shared<std::vector<int32_t>>(std::move(segment_ids));
    node(id).backward = [this, id, scores, seg, num_segments]() {
      const Tensor& g = node(id).grad;
      const Tensor& y = node(id).value;
      Tensor& gs = grad_buf(scores);
      std::vector<float> seg_dot(static_cast<size_t>(num_segments), 0.0f);
      for (size_t e = 0; e < seg->size(); ++e) {
        seg_dot[static_cast<size_t>((*seg)[e])] +=
            g.at(static_cast<int64_t>(e), 0) * y.at(static_cast<int64_t>(e), 0);
      }
      for (size_t e = 0; e < seg->size(); ++e) {
        const float ye = y.at(static_cast<int64_t>(e), 0);
        gs.at(static_cast<int64_t>(e), 0) +=
            ye * (g.at(static_cast<int64_t>(e), 0) -
                  seg_dot[static_cast<size_t>((*seg)[e])]);
      }
    };
  }
  return id;
}

// ---------------------------------------------------------------------------
// Shape ops
// ---------------------------------------------------------------------------

VarId Tape::ConcatCols(const std::vector<VarId>& xs) {
  DGNN_CHECK(!xs.empty());
  const int64_t rows = val(xs[0]).rows();
  int64_t total_cols = 0;
  bool rg = false;
  for (VarId x : xs) {
    DGNN_CHECK_EQ(val(x).rows(), rows);
    total_cols += val(x).cols();
    rg = rg || requires_grad(x);
  }
  Tensor out(rows, total_cols);
  int64_t offset = 0;
  for (VarId x : xs) {
    const Tensor& xv = val(x);
    for (int64_t r = 0; r < rows; ++r) {
      std::copy(xv.row(r), xv.row(r) + xv.cols(), out.row(r) + offset);
    }
    offset += xv.cols();
  }
  VarId id = Emit(std::move(out), rg, nullptr, "ConcatCols");
  if (rg) {
    std::vector<VarId> inputs = xs;
    node(id).backward = [this, id, inputs]() {
      const Tensor& g = node(id).grad;
      int64_t off = 0;
      for (VarId x : inputs) {
        const int64_t c = val(x).cols();
        if (requires_grad(x)) {
          Tensor& gx = grad_buf(x);
          for (int64_t r = 0; r < g.rows(); ++r) {
            kernels::AddInto(gx.row(r), g.row(r) + off, c);
          }
        }
        off += c;
      }
    };
  }
  return id;
}

VarId Tape::ConcatRows(const std::vector<VarId>& xs) {
  DGNN_CHECK(!xs.empty());
  const int64_t cols = val(xs[0]).cols();
  int64_t total_rows = 0;
  bool rg = false;
  for (VarId x : xs) {
    DGNN_CHECK_EQ(val(x).cols(), cols);
    total_rows += val(x).rows();
    rg = rg || requires_grad(x);
  }
  Tensor out(total_rows, cols);
  int64_t offset = 0;
  for (VarId x : xs) {
    const Tensor& xv = val(x);
    std::copy(xv.data(), xv.data() + xv.size(), out.row(offset));
    offset += xv.rows();
  }
  VarId id = Emit(std::move(out), rg, nullptr, "ConcatRows");
  if (rg) {
    std::vector<VarId> inputs = xs;
    node(id).backward = [this, id, inputs]() {
      const Tensor& g = node(id).grad;
      int64_t off = 0;
      for (VarId x : inputs) {
        const int64_t r = val(x).rows();
        if (requires_grad(x)) {
          kernels::AddInto(grad_buf(x).data(), g.row(off), r * g.cols());
        }
        off += r;
      }
    };
  }
  return id;
}

VarId Tape::Col(VarId a, int64_t c) {
  const Tensor& av = val(a);
  DGNN_CHECK_GE(c, 0);
  DGNN_CHECK_LT(c, av.cols());
  Tensor out(av.rows(), 1);
  for (int64_t r = 0; r < av.rows(); ++r) out.at(r, 0) = av.at(r, c);
  bool rg = requires_grad(a);
  VarId id = Emit(std::move(out), rg, nullptr, "Col");
  if (rg) {
    node(id).backward = [this, id, a, c]() {
      const Tensor& g = node(id).grad;
      Tensor& ga = grad_buf(a);
      for (int64_t r = 0; r < g.rows(); ++r) ga.at(r, c) += g.at(r, 0);
    };
  }
  return id;
}

VarId Tape::SliceRows(VarId a, int64_t begin, int64_t count) {
  const Tensor& av = val(a);
  DGNN_CHECK_GE(begin, 0);
  DGNN_CHECK_LE(begin + count, av.rows());
  Tensor out(count, av.cols());
  std::copy(av.row(begin), av.row(begin) + count * av.cols(), out.data());
  bool rg = requires_grad(a);
  VarId id = Emit(std::move(out), rg, nullptr, "SliceRows");
  if (rg) {
    node(id).backward = [this, id, a, begin]() {
      const Tensor& g = node(id).grad;
      kernels::AddInto(grad_buf(a).row(begin), g.data(), g.size());
    };
  }
  return id;
}

// ---------------------------------------------------------------------------
// Reductions, norms, losses
// ---------------------------------------------------------------------------

VarId Tape::LayerNorm(VarId a, VarId gamma, VarId beta, float eps) {
  const Tensor& x = val(a);
  const Tensor& gm = val(gamma);
  const Tensor& bt = val(beta);
  DGNN_CHECK_EQ(gm.rows(), 1);
  DGNN_CHECK_EQ(gm.cols(), x.cols());
  DGNN_CHECK_EQ(bt.rows(), 1);
  DGNN_CHECK_EQ(bt.cols(), x.cols());
  const int64_t n = x.rows();
  const int64_t d = x.cols();

  auto xhat = std::make_shared<Tensor>(n, d);
  auto inv_std = std::make_shared<std::vector<float>>(static_cast<size_t>(n));
  Tensor out(n, d);
  util::ParallelFor(0, n, kRowGrain, [&](int64_t rb, int64_t re) {
    for (int64_t r = rb; r < re; ++r) {
      const float* xr = x.row(r);
      float mean = 0.0f;
      for (int64_t c = 0; c < d; ++c) mean += xr[c];
      mean /= static_cast<float>(d);
      float var = 0.0f;
      for (int64_t c = 0; c < d; ++c) {
        const float dv = xr[c] - mean;
        var += dv * dv;
      }
      var /= static_cast<float>(d);
      const float istd = 1.0f / std::sqrt(var + eps);
      (*inv_std)[static_cast<size_t>(r)] = istd;
      float* hr = xhat->row(r);
      float* orow = out.row(r);
      for (int64_t c = 0; c < d; ++c) {
        hr[c] = (xr[c] - mean) * istd;
        orow[c] = gm.at(0, c) * hr[c] + bt.at(0, c);
      }
    }
  });
  bool rg = requires_grad(a) || requires_grad(gamma) || requires_grad(beta);
  VarId id = Emit(std::move(out), rg, nullptr, "LayerNorm");
  if (rg) {
    node(id).backward = [this, id, a, gamma, beta, xhat, inv_std]() {
      const Tensor& g = node(id).grad;
      const Tensor& gm2 = val(gamma);
      const int64_t n2 = g.rows();
      const int64_t d2 = g.cols();
      if (requires_grad(gamma)) {
        Tensor& gg = grad_buf(gamma);
        for (int64_t r = 0; r < n2; ++r) {
          const float* grow = g.row(r);
          const float* hrow = xhat->row(r);
          for (int64_t c = 0; c < d2; ++c) gg.at(0, c) += grow[c] * hrow[c];
        }
      }
      if (requires_grad(beta)) {
        Tensor& gb = grad_buf(beta);
        for (int64_t r = 0; r < n2; ++r) {
          const float* grow = g.row(r);
          for (int64_t c = 0; c < d2; ++c) gb.at(0, c) += grow[c];
        }
      }
      if (requires_grad(a)) {
        Tensor& ga = grad_buf(a);
        for (int64_t r = 0; r < n2; ++r) {
          const float* grow = g.row(r);
          const float* hrow = xhat->row(r);
          // dxhat = dy * gamma
          float mean_dxhat = 0.0f;
          float mean_dxhat_h = 0.0f;
          for (int64_t c = 0; c < d2; ++c) {
            const float dxh = grow[c] * gm2.at(0, c);
            mean_dxhat += dxh;
            mean_dxhat_h += dxh * hrow[c];
          }
          mean_dxhat /= static_cast<float>(d2);
          mean_dxhat_h /= static_cast<float>(d2);
          const float istd = (*inv_std)[static_cast<size_t>(r)];
          float* garow = ga.row(r);
          for (int64_t c = 0; c < d2; ++c) {
            const float dxh = grow[c] * gm2.at(0, c);
            garow[c] += istd * (dxh - mean_dxhat - hrow[c] * mean_dxhat_h);
          }
        }
      }
    };
  }
  return id;
}

VarId Tape::FeatureNorm(VarId a, VarId gamma, VarId beta, float eps) {
  const Tensor& x = val(a);
  const Tensor& gm = val(gamma);
  const Tensor& bt = val(beta);
  DGNN_CHECK_EQ(gm.rows(), 1);
  DGNN_CHECK_EQ(gm.cols(), x.cols());
  DGNN_CHECK_EQ(bt.rows(), 1);
  DGNN_CHECK_EQ(bt.cols(), x.cols());
  const int64_t n = x.rows();
  const int64_t d = x.cols();
  DGNN_CHECK_GT(n, 0);

  auto xhat = std::make_shared<Tensor>(n, d);
  auto inv_std = std::make_shared<std::vector<float>>(static_cast<size_t>(d));
  Tensor out(n, d);
  for (int64_t c = 0; c < d; ++c) {
    float mean = 0.0f;
    for (int64_t r = 0; r < n; ++r) mean += x.at(r, c);
    mean /= static_cast<float>(n);
    float var = 0.0f;
    for (int64_t r = 0; r < n; ++r) {
      const float dv = x.at(r, c) - mean;
      var += dv * dv;
    }
    var /= static_cast<float>(n);
    const float istd = 1.0f / std::sqrt(var + eps);
    (*inv_std)[static_cast<size_t>(c)] = istd;
    for (int64_t r = 0; r < n; ++r) {
      const float h = (x.at(r, c) - mean) * istd;
      xhat->at(r, c) = h;
      out.at(r, c) = gm.at(0, c) * h + bt.at(0, c);
    }
  }
  bool rg = requires_grad(a) || requires_grad(gamma) || requires_grad(beta);
  VarId id = Emit(std::move(out), rg, nullptr, "FeatureNorm");
  if (rg) {
    node(id).backward = [this, id, a, gamma, beta, xhat, inv_std]() {
      const Tensor& g = node(id).grad;
      const Tensor& gm2 = val(gamma);
      const int64_t n2 = g.rows();
      const int64_t d2 = g.cols();
      for (int64_t c = 0; c < d2; ++c) {
        float sum_g = 0.0f;
        float sum_gh = 0.0f;
        for (int64_t r = 0; r < n2; ++r) {
          sum_g += g.at(r, c);
          sum_gh += g.at(r, c) * xhat->at(r, c);
        }
        if (requires_grad(gamma)) grad_buf(gamma).at(0, c) += sum_gh;
        if (requires_grad(beta)) grad_buf(beta).at(0, c) += sum_g;
        if (requires_grad(a)) {
          Tensor& ga = grad_buf(a);
          const float istd = (*inv_std)[static_cast<size_t>(c)];
          const float gc = gm2.at(0, c);
          const float mean_g = sum_g / static_cast<float>(n2);
          const float mean_gh = sum_gh / static_cast<float>(n2);
          for (int64_t r = 0; r < n2; ++r) {
            ga.at(r, c) += gc * istd *
                           (g.at(r, c) - mean_g -
                            xhat->at(r, c) * mean_gh);
          }
        }
      }
    };
  }
  return id;
}

VarId Tape::RowL2Normalize(VarId a, float eps) {
  const Tensor& x = val(a);
  const int64_t n = x.rows();
  const int64_t d = x.cols();
  auto inv_norm = std::make_shared<std::vector<float>>(static_cast<size_t>(n));
  Tensor out(n, d);
  for (int64_t r = 0; r < n; ++r) {
    const float* xr = x.row(r);
    float sq = 0.0f;
    for (int64_t c = 0; c < d; ++c) sq += xr[c] * xr[c];
    const float inv = 1.0f / std::sqrt(sq + eps);
    (*inv_norm)[static_cast<size_t>(r)] = inv;
    float* orow = out.row(r);
    for (int64_t c = 0; c < d; ++c) orow[c] = xr[c] * inv;
  }
  bool rg = requires_grad(a);
  VarId id = Emit(std::move(out), rg, nullptr, "RowL2Normalize");
  if (rg) {
    node(id).backward = [this, id, a, inv_norm]() {
      const Tensor& g = node(id).grad;
      const Tensor& y = node(id).value;
      Tensor& ga = grad_buf(a);
      for (int64_t r = 0; r < g.rows(); ++r) {
        const float* grow = g.row(r);
        const float* yrow = y.row(r);
        float dot = 0.0f;
        for (int64_t c = 0; c < g.cols(); ++c) dot += grow[c] * yrow[c];
        const float inv = (*inv_norm)[static_cast<size_t>(r)];
        float* garow = ga.row(r);
        for (int64_t c = 0; c < g.cols(); ++c) {
          garow[c] += inv * (grow[c] - yrow[c] * dot);
        }
      }
    };
  }
  return id;
}

VarId Tape::RowDot(VarId a, VarId b) {
  const Tensor& av = val(a);
  const Tensor& bv = val(b);
  DGNN_CHECK(av.SameShape(bv));
  Tensor out(av.rows(), 1);
  util::ParallelFor(0, av.rows(), kRowGrain, [&](int64_t rb, int64_t re) {
    for (int64_t r = rb; r < re; ++r) {
      out.at(r, 0) = kernels::Dot(av.row(r), bv.row(r), av.cols());
    }
  });
  bool rg = requires_grad(a) || requires_grad(b);
  VarId id = Emit(std::move(out), rg, nullptr, "RowDot");
  if (rg) {
    node(id).backward = [this, id, a, b]() {
      const Tensor& g = node(id).grad;
      // grad_buf materializes lazily — resolve outside the parallel region.
      Tensor* ga = requires_grad(a) ? &grad_buf(a) : nullptr;
      Tensor* gb = requires_grad(b) ? &grad_buf(b) : nullptr;
      util::ParallelFor(0, g.rows(), kRowGrain, [&](int64_t rb, int64_t re) {
        if (ga != nullptr) {
          const Tensor& bv2 = val(b);
          for (int64_t r = rb; r < re; ++r) {
            kernels::AxpyInto(ga->row(r), g.at(r, 0), bv2.row(r),
                              ga->cols());
          }
        }
        if (gb != nullptr) {
          const Tensor& av2 = val(a);
          for (int64_t r = rb; r < re; ++r) {
            kernels::AxpyInto(gb->row(r), g.at(r, 0), av2.row(r),
                              gb->cols());
          }
        }
      });
    };
  }
  return id;
}

VarId Tape::RowSoftmax(VarId a) {
  const Tensor& x = val(a);
  Tensor out(x.rows(), x.cols());
  for (int64_t r = 0; r < x.rows(); ++r) {
    const float* xr = x.row(r);
    float mx = xr[0];
    for (int64_t c = 1; c < x.cols(); ++c) mx = std::max(mx, xr[c]);
    float sum = 0.0f;
    float* orow = out.row(r);
    for (int64_t c = 0; c < x.cols(); ++c) {
      orow[c] = std::exp(xr[c] - mx);
      sum += orow[c];
    }
    for (int64_t c = 0; c < x.cols(); ++c) orow[c] /= sum;
  }
  bool rg = requires_grad(a);
  VarId id = Emit(std::move(out), rg, nullptr, "RowSoftmax");
  if (rg) {
    node(id).backward = [this, id, a]() {
      const Tensor& g = node(id).grad;
      const Tensor& y = node(id).value;
      Tensor& ga = grad_buf(a);
      for (int64_t r = 0; r < g.rows(); ++r) {
        const float* grow = g.row(r);
        const float* yrow = y.row(r);
        float dot = 0.0f;
        for (int64_t c = 0; c < g.cols(); ++c) dot += grow[c] * yrow[c];
        float* garow = ga.row(r);
        for (int64_t c = 0; c < g.cols(); ++c) {
          garow[c] += yrow[c] * (grow[c] - dot);
        }
      }
    };
  }
  return id;
}

VarId Tape::SumAll(VarId a) {
  const Tensor& av = val(a);
  float s = 0.0f;
  for (int64_t i = 0; i < av.size(); ++i) s += av.data()[i];
  bool rg = requires_grad(a);
  VarId id = Emit(Tensor::Scalar(s), rg, nullptr, "SumAll");
  if (rg) {
    node(id).backward = [this, id, a]() {
      const float g = node(id).grad.scalar();
      Tensor& ga = grad_buf(a);
      for (int64_t i = 0; i < ga.size(); ++i) ga.data()[i] += g;
    };
  }
  return id;
}

VarId Tape::MeanAll(VarId a) {
  const int64_t n = val(a).size();
  DGNN_CHECK_GT(n, 0);
  return ScalarMul(SumAll(a), 1.0f / static_cast<float>(n));
}

VarId Tape::MeanRows(VarId a) {
  const Tensor& av = val(a);
  DGNN_CHECK_GT(av.rows(), 0);
  Tensor out(1, av.cols());
  for (int64_t r = 0; r < av.rows(); ++r) {
    const float* ar = av.row(r);
    for (int64_t c = 0; c < av.cols(); ++c) out.at(0, c) += ar[c];
  }
  const float inv = 1.0f / static_cast<float>(av.rows());
  out.Scale(inv);
  bool rg = requires_grad(a);
  VarId id = Emit(std::move(out), rg, nullptr, "MeanRows");
  if (rg) {
    node(id).backward = [this, id, a, inv]() {
      const Tensor& g = node(id).grad;
      Tensor& ga = grad_buf(a);
      for (int64_t r = 0; r < ga.rows(); ++r) {
        float* garow = ga.row(r);
        for (int64_t c = 0; c < ga.cols(); ++c) {
          garow[c] += g.at(0, c) * inv;
        }
      }
    };
  }
  return id;
}

VarId Tape::L2(VarId a) {
  const Tensor& av = val(a);
  bool rg = requires_grad(a);
  VarId id = Emit(Tensor::Scalar(av.SquaredL2()), rg, nullptr, "L2");
  if (rg) {
    node(id).backward = [this, id, a]() {
      const float g = node(id).grad.scalar();
      const Tensor& x = val(a);
      Tensor& ga = grad_buf(a);
      for (int64_t i = 0; i < ga.size(); ++i) {
        ga.data()[i] += 2.0f * g * x.data()[i];
      }
    };
  }
  return id;
}

VarId Tape::BprLoss(VarId pos, VarId neg) {
  const Tensor& pv = val(pos);
  const Tensor& nv = val(neg);
  DGNN_CHECK(pv.SameShape(nv));
  DGNN_CHECK_EQ(pv.cols(), 1);
  const int64_t n = pv.rows();
  DGNN_CHECK_GT(n, 0);
  float loss = 0.0f;
  for (int64_t r = 0; r < n; ++r) {
    loss += StableSoftplus(nv.at(r, 0) - pv.at(r, 0));
  }
  loss /= static_cast<float>(n);
  bool rg = requires_grad(pos) || requires_grad(neg);
  VarId id = Emit(Tensor::Scalar(loss), rg, nullptr, "BprLoss");
  if (rg) {
    node(id).backward = [this, id, pos, neg, n]() {
      const float g = node(id).grad.scalar() / static_cast<float>(n);
      const Tensor& pv2 = val(pos);
      const Tensor& nv2 = val(neg);
      Tensor* gp = requires_grad(pos) ? &grad_buf(pos) : nullptr;
      Tensor* gn = requires_grad(neg) ? &grad_buf(neg) : nullptr;
      util::ParallelFor(0, n, kRowGrain, [&](int64_t rb, int64_t re) {
        for (int64_t r = rb; r < re; ++r) {
          const float s = SigmoidF(nv2.at(r, 0) - pv2.at(r, 0));
          if (gp != nullptr) gp->at(r, 0) -= g * s;
          if (gn != nullptr) gn->at(r, 0) += g * s;
        }
      });
    };
  }
  return id;
}

}  // namespace dgnn::ag
