// Unit tests for symbolic graph gradients and the eager tape: every
// registered gradient is checked against central finite differences
// (property-style, parameterized over ops), plus structural tests for
// path pruning and second-order differentiation.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "autodiff/graph_grad.h"
#include "eager/eager.h"
#include "exec/session.h"
#include "graph/ops.h"
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

}  // namespace
}  // namespace ag
