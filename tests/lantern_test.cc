// Tests for the Lantern backend (paper §8): staging recursive PyMini
// functions, executing the IR, CPS-style gradients, and the generated
// artifacts (S-expressions, C++ source).
#include <gtest/gtest.h>

#include <cmath>

#include "core/lantern_api.h"
#include "eager/eager.h"
#include "lantern/builder.h"
#include "tensor/rng.h"

namespace ag::core {
namespace {

using lantern::LOp;
using lantern::LTree;
using lantern::LTreePtr;
using lantern::LValue;

// The paper's §8 running example.
constexpr char kTreeProd[] = R"(
def tree_prod(base, tree):
  if not tree.is_empty:
    l = tree_prod(base, tree.left)
    r = tree_prod(base, tree.right)
    return l * r * tree.value
  else:
    return base
)";

LTreePtr Leaf(float v) { return LTree::Leaf(Tensor::Scalar(v)); }

TEST(Lantern, TreeProdForward) {
  AutoGraph agc;
  agc.LoadSource(kTreeProd);
  LanternStagedFunction lf = StageLantern(
      agc, "tree_prod",
      {LanternArg::TensorParam(), LanternArg::TreeParam()});

  //        (2)
  //       /  .
  //    (3)     (5)
  // with base = 1 at empty children:
  // leaf(3) = 1*1*3; leaf(5) = 1*1*5; root = 3*5*2 = 30.
  LTreePtr tree = LTree::Node(Leaf(3.0f), Leaf(5.0f), Tensor::Scalar(2.0f));
  LValue out = lf.Run({Tensor::Scalar(1.0f), tree});
  EXPECT_FLOAT_EQ(lantern::AsTensorL(out).scalar(), 30.0f);
}

TEST(Lantern, TreeProdIsRecursiveInIR) {
  AutoGraph agc;
  agc.LoadSource(kTreeProd);
  LanternStagedFunction lf = StageLantern(
      agc, "tree_prod",
      {LanternArg::TensorParam(), LanternArg::TreeParam()});
  // The staged program contains a self-referential call, which the
  // TF-style graph IR cannot express.
  std::string sexpr = lf.SExpr();
  EXPECT_NE(sexpr.find("(def tree_prod"), std::string::npos) << sexpr;
  EXPECT_NE(sexpr.find("call tree_prod"), std::string::npos) << sexpr;
  // Tracing visited the recursive function exactly once: exactly one
  // additional specialized definition besides the entry.
  EXPECT_EQ(lf.program->functions.size(), 2u) << sexpr;
}

TEST(Lantern, TreeProdGradients) {
  AutoGraph agc;
  agc.LoadSource(kTreeProd);
  LanternStagedFunction lf = StageLantern(
      agc, "tree_prod",
      {LanternArg::TensorParam(), LanternArg::TreeParam()});

  // f(base) at this tree = (base^2*3) * (base^2*5) * 2 = 30 base^4.
  // df/dbase at 1 = 120.
  LTreePtr tree = LTree::Node(Leaf(3.0f), Leaf(5.0f), Tensor::Scalar(2.0f));
  auto [value, grads] = lf.RunWithGradients({Tensor::Scalar(1.0f), tree});
  EXPECT_FLOAT_EQ(value.scalar(), 30.0f);
  ASSERT_EQ(grads.size(), 2u);
  EXPECT_FLOAT_EQ(grads[0].scalar(), 120.0f);
}

TEST(Lantern, GradientMatchesFiniteDifference) {
  AutoGraph agc;
  agc.LoadSource(kTreeProd);
  LanternStagedFunction lf = StageLantern(
      agc, "tree_prod",
      {LanternArg::TensorParam(), LanternArg::TreeParam()});
  LTreePtr tree = LTree::Node(
      LTree::Node(Leaf(1.5f), Leaf(0.5f), Tensor::Scalar(1.2f)), Leaf(2.0f),
      Tensor::Scalar(0.7f));

  const float x0 = 0.9f;
  auto [value, grads] = lf.RunWithGradients({Tensor::Scalar(x0), tree});
  const float eps = 1e-3f;
  const float fplus =
      lantern::AsTensorL(lf.Run({Tensor::Scalar(x0 + eps), tree})).scalar();
  const float fminus =
      lantern::AsTensorL(lf.Run({Tensor::Scalar(x0 - eps), tree})).scalar();
  const float fd = (fplus - fminus) / (2 * eps);
  EXPECT_NEAR(grads[0].scalar(), fd, 0.05f * std::fabs(fd) + 1e-3f);
}

TEST(Lantern, EmitsCpsCpp) {
  AutoGraph agc;
  agc.LoadSource(kTreeProd);
  LanternStagedFunction lf = StageLantern(
      agc, "tree_prod",
      {LanternArg::TensorParam(), LanternArg::TreeParam()});
  std::string cpp = lf.EmitCpp();
  EXPECT_NE(cpp.find("Cont"), std::string::npos) << cpp;
  EXPECT_NE(cpp.find("Snippet"), std::string::npos) << cpp;
  EXPECT_NE(cpp.find("cont"), std::string::npos) << cpp;
}

TEST(Lantern, NonRecursiveStagedMath) {
  AutoGraph agc;
  agc.LoadSource(R"(
def f(x):
  y = tf.tanh(x)
  return tf.reduce_sum(y * y)
)");
  LanternStagedFunction lf =
      StageLantern(agc, "f", {LanternArg::TensorParam()});
  Tensor x = Tensor::FromVector({0.5f, -0.25f}, Shape({2}));
  LValue out = lf.Run({x});
  const float t0 = std::tanh(0.5f);
  const float t1 = std::tanh(-0.25f);
  EXPECT_NEAR(lantern::AsTensorL(out).scalar(), t0 * t0 + t1 * t1, 1e-5f);

  auto [value, grads] = lf.RunWithGradients({x});
  const float g0 = 2 * t0 * (1 - t0 * t0);
  EXPECT_NEAR(grads[0].at(0), g0, 1e-5f);
}

// The dense Gather path: the table is computed inside the function (a
// tensor argument bound as a global takes the sparse in-place path
// instead), gathered with repeated indices, and a later use gives it a
// gradient first, so the gathered rows add onto an existing gradient.
TEST(Lantern, DenseGatherOfComputedTableMatchesTapeAndFiniteDifference) {
  Rng rng(21);
  const Tensor p0 = rng.Normal(Shape({5, 3}));
  const Tensor w = rng.Normal(Shape({6, 3}));
  const Tensor ids =
      Tensor::FromVector({1, 3, 1, 4, 1, 3}, Shape({6}), DType::kInt32);

  lantern::ProgramBuilder b;
  lantern::SymPtr p = b.BeginFunction("f", {false})[0];
  lantern::SymPtr table = b.Emit(LOp::kTanh, {p});
  lantern::SymPtr rows = b.Emit(LOp::kGather, {table, b.EmitConst(ids)});
  lantern::SymPtr gathered = b.Emit(
      LOp::kReduceSum, {b.Emit(LOp::kMul, {rows, b.EmitConst(w)})});
  lantern::SymPtr squares =
      b.Emit(LOp::kReduceSum, {b.Emit(LOp::kSquare, {table})});
  b.EndFunction(b.Emit(LOp::kAdd, {gathered, squares}));
  const lantern::LProgram program = b.Finish("f");
  lantern::Executor executor(program);
  auto [value, grads] = executor.RunWithGradients({p0});

  eager::GradientTape tape;
  eager::ETensor pe = tape.Watch(p0);
  eager::ETensor te = eager::Tanh(pe);
  eager::ETensor loss = eager::Add(
      eager::ReduceSum(eager::Mul(eager::Gather(te, ids), eager::ETensor(w))),
      eager::ReduceSum(eager::Square(te)));
  const Tensor expected = tape.Gradient(loss, {pe})[0];
  EXPECT_EQ(value.scalar(), loss.value.scalar());
  ASSERT_EQ(grads[0].shape(), expected.shape());
  for (int64_t k = 0; k < expected.num_elements(); ++k) {
    EXPECT_EQ(grads[0].at(k), expected.at(k)) << "entry " << k;
  }

  const float eps = 1e-3f;
  for (int64_t k = 0; k < p0.num_elements(); ++k) {
    auto eval = [&](float delta) {
      std::vector<float> data(p0.data(), p0.data() + p0.num_elements());
      data[static_cast<size_t>(k)] += delta;
      return lantern::AsTensorL(
                 executor.Run({Tensor::FromVector(std::move(data),
                                                  p0.shape())}))
          .scalar();
    };
    const float fd = (eval(eps) - eval(-eps)) / (2 * eps);
    EXPECT_NEAR(grads[0].at(k), fd, 0.02f * std::fabs(fd) + 2e-2f)
        << "entry " << k;
  }
}

}  // namespace
}  // namespace ag::core
