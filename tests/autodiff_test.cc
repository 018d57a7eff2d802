// Unit tests for symbolic graph gradients and the eager tape: every
// registered gradient is checked against central finite differences
// (property-style, parameterized over ops), plus structural tests for
// path pruning and second-order differentiation. One table covers every
// shared VJP rule (autodiff/vjp.h) across the graph, the tape and Lantern.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <optional>

#include "autodiff/graph_grad.h"
#include "eager/eager.h"
#include "exec/session.h"
#include "graph/ops.h"
#include "lantern/builder.h"
#include "lantern/executor.h"
#include "tensor/rng.h"
#include "tensor/tensor_ops.h"

namespace ag {
namespace {

using graph::Const;
using graph::Graph;
using graph::GraphContext;
using graph::Op;
using graph::Output;
using graph::Placeholder;

// Checks d(sum(f(x)))/dx against finite differences at a random point.
void CheckGraphGrad(
    const std::string& op_name,
    const std::function<Output(GraphContext&, Output)>& build,
    const Shape& shape, float low = -1.5f, float high = 1.5f) {
  Graph g;
  GraphContext ctx(&g);
  Output x = Placeholder(ctx, "x", DType::kFloat32);
  Output y = Op(ctx, "ReduceSum", {build(ctx, x)});
  std::vector<Output> grads = autodiff::Gradients(ctx, y, {x});
  exec::Session session(&g);

  Rng rng(static_cast<uint64_t>(op_name.size() * 977));
  Tensor x0 = rng.Uniform(shape, low, high);
  Tensor analytic = session.RunTensor({{"x", x0}}, grads[0]);

  const float eps = 1e-3f;
  for (int64_t k = 0; k < x0.num_elements(); ++k) {
    auto eval = [&](float delta) {
      std::vector<float> data(x0.data(), x0.data() + x0.num_elements());
      data[static_cast<size_t>(k)] += delta;
      return session
          .RunTensor({{"x", Tensor::FromVector(std::move(data), shape)}}, y)
          .scalar();
    };
    const float fd = (eval(eps) - eval(-eps)) / (2 * eps);
    EXPECT_NEAR(analytic.at(k), fd, 0.02f * std::fabs(fd) + 2e-2f)
        << op_name << " entry " << k;
  }
}

struct UnaryCase {
  const char* name;
  float low;
  float high;
};

// Prints the case by value so the listed test names (and the CTest names
// discovered from them) do not carry the address of `name`.
void PrintTo(const UnaryCase& c, std::ostream* os) {
  *os << c.name << " on [" << c.low << ", " << c.high << "]";
}

class GraphUnaryGrad : public ::testing::TestWithParam<UnaryCase> {};

TEST_P(GraphUnaryGrad, MatchesFiniteDifference) {
  const UnaryCase& c = GetParam();
  CheckGraphGrad(
      c.name,
      [&](GraphContext& ctx, Output x) { return Op(ctx, c.name, {x}); },
      Shape({2, 3}), c.low, c.high);
}

INSTANTIATE_TEST_SUITE_P(
    Ops, GraphUnaryGrad,
    ::testing::Values(UnaryCase{"Tanh", -1.5f, 1.5f},
                      UnaryCase{"Sigmoid", -1.5f, 1.5f},
                      UnaryCase{"Exp", -1.0f, 1.0f},
                      UnaryCase{"Log", 0.3f, 2.0f},
                      UnaryCase{"Sqrt", 0.3f, 2.0f},
                      UnaryCase{"Square", -1.5f, 1.5f},
                      UnaryCase{"Neg", -1.5f, 1.5f},
                      UnaryCase{"Sin", -1.5f, 1.5f},
                      UnaryCase{"Cos", -1.5f, 1.5f}),
    [](const ::testing::TestParamInfo<UnaryCase>& info) {
      return info.param.name;
    });

TEST(GraphGrad, BinaryOpsWithBroadcast) {
  for (const char* op : {"Add", "Sub", "Mul", "Div", "Maximum", "Minimum"}) {
    CheckGraphGrad(
        op,
        [&](GraphContext& ctx, Output x) {
          // Second operand broadcasts: shape (3,) against (2, 3).
          Output c = Const(
              ctx, Tensor::FromVector({0.7f, -1.2f, 2.0f}, Shape({3})));
          return Op(ctx, op, {x, c});
        },
        Shape({2, 3}), 0.5f, 1.5f);
  }
}

TEST(GraphGrad, MatMulBothSides) {
  CheckGraphGrad(
      "MatMulLeft",
      [&](GraphContext& ctx, Output x) {
        Output w = Const(ctx, Rng(3).Normal(Shape({3, 4})));
        return Op(ctx, "MatMul", {x, w});
      },
      Shape({2, 3}));
  CheckGraphGrad(
      "MatMulRight",
      [&](GraphContext& ctx, Output x) {
        Output a = Const(ctx, Rng(4).Normal(Shape({4, 2})));
        return Op(ctx, "MatMul", {a, x});
      },
      Shape({2, 3}));
}

TEST(GraphGrad, ReductionsAndShapeOps) {
  CheckGraphGrad(
      "ReduceSumAxis",
      [&](GraphContext& ctx, Output x) {
        return Op(ctx, "ReduceSum", {x}, {{"axis", int64_t{0}}});
      },
      Shape({2, 3}));
  CheckGraphGrad(
      "ReduceMean",
      [&](GraphContext& ctx, Output x) {
        return Op(ctx, "ReduceMean", {x}, {{"axis", int64_t{1}}});
      },
      Shape({2, 3}));
  CheckGraphGrad(
      "TransposeReshape",
      [&](GraphContext& ctx, Output x) {
        std::vector<int> perm{1, 0};
        Output t = Op(ctx, "Transpose", {x}, {{"perm", perm}});
        std::vector<int> dims{6};
        Output r = Op(ctx, "Reshape", {t}, {{"dims", dims}});
        return Op(ctx, "Square", {r});
      },
      Shape({2, 3}));
}

TEST(GraphGrad, SoftmaxCrossEntropy) {
  Graph g;
  GraphContext ctx(&g);
  Output logits = Placeholder(ctx, "l", DType::kFloat32);
  Output labels =
      Const(ctx, Tensor::FromVector({2, 0}, Shape({2}), DType::kInt32));
  Output loss = Op(ctx, "SoftmaxCrossEntropy", {logits, labels});
  std::vector<Output> grads = autodiff::Gradients(ctx, loss, {logits});
  exec::Session session(&g);
  Tensor l0 = Rng(7).Normal(Shape({2, 3}));
  Tensor analytic = session.RunTensor({{"l", l0}}, grads[0]);
  EXPECT_TRUE(
      AllClose(analytic, SoftmaxCrossEntropyGrad(
                             l0, Tensor::FromVector({2, 0}, Shape({2}),
                                                    DType::kInt32)),
               1e-5f));
}

TEST(GraphGrad, UnrelatedInputGetsZeros) {
  Graph g;
  GraphContext ctx(&g);
  Output x = Placeholder(ctx, "x", DType::kFloat32);
  Output z = Placeholder(ctx, "z", DType::kFloat32);
  Output y = Op(ctx, "ReduceSum", {Op(ctx, "Square", {x})});
  std::vector<Output> grads = autodiff::Gradients(ctx, y, {x, z});
  exec::Session session(&g);
  Tensor gz = session.RunTensor(
      {{"x", Tensor::Ones(Shape({2}))}, {"z", Tensor::Ones(Shape({3}))}},
      grads[1]);
  EXPECT_TRUE(AllClose(gz, Tensor::Zeros(Shape({3}))));
}

TEST(GraphGrad, PathPruningSkipsOpsWithoutGradients) {
  // TopK has no registered gradient, but it is not on the y->x path, so
  // Gradients must succeed (tf.gradients prunes the same way).
  Graph g;
  GraphContext ctx(&g);
  Output x = Placeholder(ctx, "x", DType::kFloat32);
  Output y = Op(ctx, "ReduceSum", {Op(ctx, "Square", {x})});
  (void)graph::OpN(ctx, "TopK", {Const(ctx, Rng(1).Normal(Shape({4})))},
                   {{"k", int64_t{2}}}, 2);
  EXPECT_NO_THROW((void)autodiff::Gradients(ctx, y, {x}));
  // But an unregistered op ON the path throws a staging error.
  Output on_path = graph::OpN(ctx, "TopK", {x}, {{"k", int64_t{1}}}, 2)[0];
  Output y2 = Op(ctx, "ReduceSum", {on_path});
  EXPECT_THROW((void)autodiff::Gradients(ctx, y2, {x}), Error);
}

TEST(GraphGrad, SecondOrder) {
  // y = sum(x^3): dy/dx = 3x^2, d2y/dx2 = 6x.
  Graph g;
  GraphContext ctx(&g);
  Output x = Placeholder(ctx, "x", DType::kFloat32);
  Output y = Op(ctx, "ReduceSum",
                {Op(ctx, "Mul", {Op(ctx, "Square", {x}), x})});
  Output dy = autodiff::Gradients(ctx, y, {x})[0];
  Output d2y =
      autodiff::Gradients(ctx, Op(ctx, "ReduceSum", {dy}), {x})[0];
  exec::Session session(&g);
  Tensor x0 = Tensor::FromVector({1.0f, -2.0f}, Shape({2}));
  Tensor h = session.RunTensor({{"x", x0}}, d2y);
  EXPECT_NEAR(h.at(0), 6.0f, 1e-4f);
  EXPECT_NEAR(h.at(1), -12.0f, 1e-4f);
}

// ---- eager tape ----

TEST(EagerTape, BasicGradient) {
  eager::GradientTape tape;
  eager::ETensor x = tape.Watch(Tensor::Scalar(3.0f));
  eager::ETensor y = eager::Mul(x, eager::Mul(x, x));  // x^3
  std::vector<Tensor> grads = tape.Gradient(y, {x});
  EXPECT_NEAR(grads[0].scalar(), 27.0f, 1e-4f);  // 3 * 3^2
}

TEST(EagerTape, GradientAccumulatesAcrossUses) {
  eager::GradientTape tape;
  eager::ETensor x = tape.Watch(Tensor::Scalar(2.0f));
  eager::ETensor y = eager::Add(eager::Square(x), eager::Mul(x, x));
  std::vector<Tensor> grads = tape.Gradient(y, {x});
  EXPECT_NEAR(grads[0].scalar(), 8.0f, 1e-5f);  // 2x + 2x
}

TEST(EagerTape, UnwatchedOperandsGetNoGradient) {
  eager::GradientTape tape;
  eager::ETensor x = tape.Watch(Tensor::Scalar(1.0f));
  eager::ETensor c(Tensor::Scalar(5.0f));  // not watched
  eager::ETensor y = eager::Mul(x, c);
  std::vector<Tensor> grads = tape.Gradient(y, {x, c});
  EXPECT_FLOAT_EQ(grads[0].scalar(), 5.0f);
  EXPECT_FLOAT_EQ(grads[1].scalar(), 0.0f);
}

TEST(EagerTape, MatchesGraphGradientsOnMlp) {
  // The same 2-layer MLP loss, tape vs symbolic.
  Rng rng(11);
  Tensor x0 = rng.Normal(Shape({4, 3}));
  Tensor w0 = rng.Normal(Shape({3, 5}));
  Tensor v0 = rng.Normal(Shape({5, 1}));

  eager::GradientTape tape;
  eager::ETensor w = tape.Watch(w0);
  eager::ETensor v = tape.Watch(v0);
  eager::ETensor h = eager::Tanh(eager::MatMul(eager::ETensor(x0), w));
  eager::ETensor loss = eager::ReduceMean(eager::Square(eager::MatMul(h, v)));
  std::vector<Tensor> tape_grads = tape.Gradient(loss, {w, v});

  Graph g;
  GraphContext ctx(&g);
  Output xg = Const(ctx, x0);
  Output wg = Placeholder(ctx, "w", DType::kFloat32);
  Output vg = Placeholder(ctx, "v", DType::kFloat32);
  Output hg = Op(ctx, "Tanh", {Op(ctx, "MatMul", {xg, wg})});
  Output lg = Op(ctx, "ReduceMean",
                 {Op(ctx, "Square", {Op(ctx, "MatMul", {hg, vg})})});
  std::vector<Output> grads = autodiff::Gradients(ctx, lg, {wg, vg});
  exec::Session session(&g);
  auto out = session.Run({{"w", w0}, {"v", v0}}, grads);
  EXPECT_TRUE(AllClose(tape_grads[0], exec::AsTensor(out[0]), 1e-4f));
  EXPECT_TRUE(AllClose(tape_grads[1], exec::AsTensor(out[1]), 1e-4f));
}

TEST(EagerTape, GatherSliceReshapeConcatGrads) {
  Rng rng(13);
  Tensor table0 = rng.Normal(Shape({5, 2}));
  eager::GradientTape tape;
  eager::ETensor table = tape.Watch(table0);
  Tensor ids = Tensor::FromVector({1, 3, 1}, Shape({3}), DType::kInt32);
  eager::ETensor rows = eager::Gather(table, ids);       // [3, 2]
  eager::ETensor top = eager::SliceRows(rows, 0, 2);     // [2, 2]
  eager::ETensor flat = eager::Reshape(top, Shape({4}));
  eager::ETensor joined = eager::Concat({flat, flat}, 0);
  eager::ETensor loss = eager::ReduceSum(joined);
  std::vector<Tensor> grads = tape.Gradient(loss, {table});
  // Row 1 used once in the sliced window, doubled by concat -> grad 2 per
  // element; row 3 likewise; rows 0,2,4 untouched.
  EXPECT_FLOAT_EQ(grads[0].at(2), 2.0f);   // row 1
  EXPECT_FLOAT_EQ(grads[0].at(6), 2.0f);   // row 3
  EXPECT_FLOAT_EQ(grads[0].at(0), 0.0f);
  EXPECT_FLOAT_EQ(grads[0].at(8), 0.0f);
}

TEST(EagerTape, RuleWithMoreGradientsThanInputsIsAnInternalError) {
  eager::GradientTape tape;
  eager::ETensor x = tape.Watch(Tensor::Scalar(2.0f));
  // Add's rule returns two gradients; this entry has one input.
  const int id = tape.Record({x.id}, autodiff::vjp::kAdd.rule,
                             {.x = {x.value, x.value}});
  try {
    (void)tape.Gradient(eager::ETensor(Tensor::Scalar(4.0f), id), {x});
    FAIL() << "expected an internal error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kInternal);
  }
}

// ---- the shared VJP rules, one table across the three engines ----

using EagerFn =
    std::function<eager::ETensor(const std::vector<eager::ETensor>&)>;
using LanternFn = std::function<lantern::SymPtr(
    lantern::ProgramBuilder&, const std::vector<lantern::SymPtr>&)>;

// One rule of autodiff/vjp.h applied to seeded inputs. The loss is
// sum(op(x) * w) for a seeded w, so the upstream gradient is not all ones.
struct VjpRow {
  std::string name{};
  std::vector<Shape> shapes{};  // the differentiated inputs
  float low = -1.5f;
  float high = 1.5f;
  // Trailing input with no gradient (labels, indices).
  std::optional<Tensor> aux{};
  EagerFn eager{};
  // Graph op and attrs; empty when the graph has no gradient for it.
  std::string graph_op{};
  graph::AttrMap attrs{};
  // Null when Lantern has no LOp for it.
  LanternFn lantern{};
};

void PrintTo(const VjpRow& row, std::ostream* os) { *os << row.name; }

void ExpectBitIdentical(const Tensor& expected, const Tensor& actual,
                        const std::string& what) {
  ASSERT_EQ(expected.shape(), actual.shape()) << what;
  EXPECT_EQ(std::memcmp(expected.data(), actual.data(),
                        static_cast<size_t>(expected.num_elements()) *
                            sizeof(float)),
            0)
      << what << ": " << expected.DebugString() << " vs "
      << actual.DebugString();
}

std::vector<VjpRow> VjpRows() {
  using E = std::vector<eager::ETensor>;
  using S = std::vector<lantern::SymPtr>;
  using lantern::LOp;
  using lantern::ProgramBuilder;
  std::vector<VjpRow> rows;

  const auto lantern_op = [](LOp op) {
    return [op](ProgramBuilder& b, const S& x) { return b.Emit(op, x); };
  };
  struct Binary {
    const char* op;
    eager::ETensor (*eager)(const eager::ETensor&, const eager::ETensor&);
    LOp lop;
    float low;
  };
  for (const Binary& bin : {Binary{"Add", &eager::Add, LOp::kAdd, -1.5f},
                            Binary{"Sub", &eager::Sub, LOp::kSub, -1.5f},
                            Binary{"Mul", &eager::Mul, LOp::kMul, -1.5f},
                            Binary{"Div", &eager::Div, LOp::kDiv, 0.5f}}) {
    // Same shapes, then each operand broadcast in turn.
    const std::vector<std::pair<const char*, std::vector<Shape>>> shapes = {
        {"", {Shape({2, 3}), Shape({2, 3})}},
        {"BroadcastRow", {Shape({2, 3}), Shape({3})}},
        {"BroadcastBoth", {Shape({2, 1}), Shape({1, 3})}}};
    for (const auto& [suffix, s] : shapes) {
      auto* fn = bin.eager;
      rows.push_back({.name = std::string(bin.op) + suffix,
                      .shapes = s,
                      .low = bin.low,
                      .eager = [fn](const E& x) { return fn(x[0], x[1]); },
                      .graph_op = bin.op,
                      .lantern = lantern_op(bin.lop)});
    }
  }

  struct Unary {
    const char* op;
    eager::ETensor (*eager)(const eager::ETensor&);
    std::optional<LOp> lop;
    float low;
    float high;
  };
  for (const Unary& un :
       {Unary{"Neg", &eager::Neg, LOp::kNeg, -1.5f, 1.5f},
        Unary{"Exp", &eager::Exp, LOp::kExp, -1.0f, 1.0f},
        Unary{"Log", &eager::Log, LOp::kLog, 0.3f, 2.0f},
        Unary{"Tanh", &eager::Tanh, LOp::kTanh, -1.5f, 1.5f},
        Unary{"Sigmoid", &eager::Sigmoid, LOp::kSigmoid, -1.5f, 1.5f},
        Unary{"Relu", &eager::Relu, LOp::kRelu, -1.5f, 1.5f},
        Unary{"Sqrt", &eager::Sqrt, std::nullopt, 0.3f, 2.0f},
        Unary{"Square", &eager::Square, LOp::kSquare, -1.5f, 1.5f}}) {
    auto* fn = un.eager;
    rows.push_back(
        {.name = un.op,
         .shapes = {Shape({2, 3})},
         .low = un.low,
         .high = un.high,
         .eager = [fn](const E& x) { return fn(x[0]); },
         .graph_op = un.op,
         .lantern = un.lop ? LanternFn(lantern_op(*un.lop)) : nullptr});
  }

  rows.push_back({.name = "MatMul",
                  .shapes = {Shape({2, 3}), Shape({3, 4})},
                  .eager =
                      [](const E& x) { return eager::MatMul(x[0], x[1]); },
                  .graph_op = "MatMul",
                  .lantern = lantern_op(LOp::kMatMul)});
  rows.push_back(
      {.name = "Reshape",
       .shapes = {Shape({2, 3})},
       .eager = [](const E& x) { return eager::Reshape(x[0], Shape({3, 2})); },
       .graph_op = "Reshape",
       .attrs = {{"dims", std::vector<int>{3, 2}}},
       .lantern = [](ProgramBuilder& b,
                     const S& x) { return b.EmitReshape(x[0], {3, 2}); }});

  // Reductions: to a scalar, over one axis, and over a negative axis
  // keeping dims. Lantern reduces to a scalar only.
  struct Reduction {
    const char* op;
    eager::ETensor (*eager)(const eager::ETensor&, int, bool);
    std::optional<LOp> lop;
  };
  for (const Reduction& red :
       {Reduction{"ReduceSum", &eager::ReduceSum, LOp::kReduceSum},
        Reduction{"ReduceMean", &eager::ReduceMean, std::nullopt}}) {
    auto* fn = red.eager;
    rows.push_back({.name = red.op,
                    .shapes = {Shape({2, 3})},
                    .eager =
                        [fn](const E& x) {
                          return fn(x[0], kAllAxes, false);
                        },
                    .graph_op = red.op,
                    .lantern = red.lop ? LanternFn(lantern_op(*red.lop))
                                       : nullptr});
    rows.push_back({.name = std::string(red.op) + "Axis0",
                    .shapes = {Shape({2, 3})},
                    .eager = [fn](const E& x) { return fn(x[0], 0, false); },
                    .graph_op = red.op,
                    .attrs = {{"axis", int64_t{0}}}});
    rows.push_back({.name = std::string(red.op) + "LastAxisKeepDims",
                    .shapes = {Shape({2, 3})},
                    .eager = [fn](const E& x) { return fn(x[0], -1, true); },
                    .graph_op = red.op,
                    .attrs = {{"axis", int64_t{-1}},
                              {"keepdims", int64_t{1}}}});
  }

  const Tensor labels = Tensor::FromVector({2, 0}, Shape({2}), DType::kInt32);
  rows.push_back({.name = "SoftmaxCrossEntropy",
                  .shapes = {Shape({2, 3})},
                  .aux = labels,
                  .eager =
                      [labels](const E& x) {
                        return eager::SoftmaxCrossEntropy(x[0], labels);
                      },
                  .graph_op = "SoftmaxCrossEntropy"});

  // Rows the graph has no gradient for.
  rows.push_back({.name = "Concat0",
                  .shapes = {Shape({2, 3}), Shape({1, 3})},
                  .eager = [](const E& x) { return eager::Concat(x, 0); },
                  .lantern = lantern_op(LOp::kConcat0)});
  rows.push_back({.name = "ConcatLastAxis",
                  .shapes = {Shape({2, 3}), Shape({2, 1}), Shape({2, 2})},
                  .eager = [](const E& x) { return eager::Concat(x, -1); }});
  rows.push_back(
      {.name = "SliceRows",
       .shapes = {Shape({4, 3})},
       .eager = [](const E& x) { return eager::SliceRows(x[0], 1, 2); },
       .lantern = [](ProgramBuilder& b,
                     const S& x) { return b.EmitSlice0(x[0], 1, 2); }});
  // Repeated indices: row 2 gathers twice, rows 1 and 3 never.
  const Tensor indices =
      Tensor::FromVector({2, 0, 2}, Shape({3}), DType::kInt32);
  rows.push_back({.name = "Gather",
                  .shapes = {Shape({4, 3})},
                  .aux = indices,
                  .eager =
                      [indices](const E& x) {
                        return eager::Gather(x[0], indices);
                      },
                  .lantern = lantern_op(LOp::kGather)});
  return rows;
}

class SharedVjp : public ::testing::TestWithParam<VjpRow> {};

TEST_P(SharedVjp, MatchesFiniteDifferencesAndAgreesAcrossEngines) {
  const VjpRow& row = GetParam();
  Rng rng(static_cast<uint64_t>(row.name.size() * 131 + row.shapes.size()));
  std::vector<Tensor> x0;
  for (const Shape& shape : row.shapes) {
    x0.push_back(rng.Uniform(shape, row.low, row.high));
  }
  const auto eager_inputs = [&](const std::vector<Tensor>& xs) {
    return std::vector<eager::ETensor>(xs.begin(), xs.end());
  };
  const Tensor w = rng.Uniform(row.eager(eager_inputs(x0)).value.shape(),
                               -1.0f, 1.0f);

  // Eager tape: the reference the other engines must equal bit for bit.
  std::vector<Tensor> expected;
  {
    eager::GradientTape tape;
    std::vector<eager::ETensor> xs;
    for (const Tensor& x : x0) xs.push_back(tape.Watch(x));
    eager::ETensor loss =
        eager::ReduceSum(eager::Mul(row.eager(xs), eager::ETensor(w)));
    expected = tape.Gradient(loss, xs);
  }

  // Loss as a function of the inputs, for finite differences: through a
  // Session when the graph has a gradient for the op, else eagerly.
  std::function<float(const std::vector<Tensor>&)> loss_at =
      [&](const std::vector<Tensor>& xs) {
        return ReduceSum(Mul(row.eager(eager_inputs(xs)).value, w)).scalar();
      };

  Graph g;
  GraphContext ctx(&g);
  std::optional<exec::Session> session;
  std::vector<std::string> names;  // the graph's input placeholders
  if (!row.graph_op.empty()) {
    std::vector<Output> xs;
    std::map<std::string, exec::RuntimeValue> feeds;
    for (size_t i = 0; i < x0.size(); ++i) {
      names.push_back("x" + std::to_string(i));
      xs.push_back(Placeholder(ctx, names[i], DType::kFloat32));
      feeds[names[i]] = x0[i];
    }
    std::vector<Output> inputs = xs;
    if (row.aux) inputs.push_back(Const(ctx, *row.aux));
    Output y = Op(ctx, row.graph_op, inputs, row.attrs);
    Output loss = Op(ctx, "ReduceSum", {Op(ctx, "Mul", {y, Const(ctx, w)})});
    std::vector<Output> grads = autodiff::Gradients(ctx, loss, xs);
    session.emplace(&g);
    std::vector<exec::RuntimeValue> got = session->Run(feeds, grads);
    for (size_t i = 0; i < x0.size(); ++i) {
      ExpectBitIdentical(expected[i], exec::AsTensor(got[i]),
                         "graph d/dx" + std::to_string(i));
    }
    loss_at = [&session, &names, loss](const std::vector<Tensor>& xs) {
      std::map<std::string, exec::RuntimeValue> f;
      for (size_t i = 0; i < xs.size(); ++i) f[names[i]] = xs[i];
      return session->RunTensor(f, loss).scalar();
    };
  }

  if (row.lantern) {
    lantern::ProgramBuilder b;
    std::vector<lantern::SymPtr> xs =
        b.BeginFunction("f", std::vector<bool>(x0.size(), false));
    std::vector<lantern::SymPtr> inputs = xs;
    if (row.aux) inputs.push_back(b.EmitConst(*row.aux));
    lantern::SymPtr y = row.lantern(b, inputs);
    b.EndFunction(b.Emit(lantern::LOp::kReduceSum,
                         {b.Emit(lantern::LOp::kMul, {y, b.EmitConst(w)})}));
    lantern::LProgram program = b.Finish("f");
    lantern::Executor executor(program);
    auto [value, grads] = executor.RunWithGradients(
        std::vector<lantern::LValue>(x0.begin(), x0.end()));
    for (size_t i = 0; i < x0.size(); ++i) {
      ExpectBitIdentical(expected[i], grads[i],
                         "lantern d/dx" + std::to_string(i));
    }
  }

  const float eps = 1e-3f;
  for (size_t i = 0; i < x0.size(); ++i) {
    for (int64_t k = 0; k < x0[i].num_elements(); ++k) {
      auto eval = [&](float delta) {
        std::vector<Tensor> xs = x0;
        std::vector<float> data(x0[i].data(),
                                x0[i].data() + x0[i].num_elements());
        data[static_cast<size_t>(k)] += delta;
        xs[i] = Tensor::FromVector(std::move(data), x0[i].shape());
        return loss_at(xs);
      };
      const float fd = (eval(eps) - eval(-eps)) / (2 * eps);
      EXPECT_NEAR(expected[i].at(k), fd, 0.02f * std::fabs(fd) + 2e-2f)
          << "d/dx" << i << " entry " << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Rows, SharedVjp, ::testing::ValuesIn(VjpRows()),
                         [](const ::testing::TestParamInfo<VjpRow>& info) {
                           return info.param.name;
                         });

}  // namespace
}  // namespace ag
