// Unit tests for the tensor substrate: shapes, broadcasting, kernels,
// reductions, indexing, and numeric invariants (property-style sweeps via
// parameterized tests).
#include <gtest/gtest.h>

#include <cmath>

#include "support/error.h"
#include "tensor/rng.h"
#include "tensor/tensor_ops.h"

namespace ag {
namespace {

TEST(Shape, Basics) {
  Shape s({2, 3, 4});
  EXPECT_EQ(s.rank(), 3);
  EXPECT_EQ(s.num_elements(), 24);
  EXPECT_EQ(s.dim(0), 2);
  EXPECT_EQ(s.dim(-1), 4);
  EXPECT_EQ(s.strides(), (std::vector<int64_t>{12, 4, 1}));
  EXPECT_EQ(s.str(), "(2, 3, 4)");
  EXPECT_THROW((void)s.dim(3), Error);
  EXPECT_TRUE(Shape().is_scalar());
  EXPECT_EQ(Shape().num_elements(), 1);
}

TEST(Shape, BroadcastRules) {
  EXPECT_EQ(Shape::Broadcast(Shape({3, 1}), Shape({1, 4})), Shape({3, 4}));
  EXPECT_EQ(Shape::Broadcast(Shape({5}), Shape({2, 5})), Shape({2, 5}));
  EXPECT_EQ(Shape::Broadcast(Shape(), Shape({2, 2})), Shape({2, 2}));
  EXPECT_FALSE(Shape::BroadcastCompatible(Shape({3}), Shape({4})));
  EXPECT_THROW((void)Shape::Broadcast(Shape({3}), Shape({4})), Error);
}

TEST(Tensor, ConstructorsAndAccessors) {
  Tensor t = Tensor::FromVector({1, 2, 3, 4, 5, 6}, Shape({2, 3}));
  EXPECT_EQ(t.shape(), Shape({2, 3}));
  EXPECT_FLOAT_EQ(t.at(4), 5.0f);
  EXPECT_THROW((void)t.scalar(), Error);
  EXPECT_FLOAT_EQ(Tensor::Scalar(7.5f).scalar(), 7.5f);
  EXPECT_EQ(Tensor::ScalarInt(-3).scalar_int(), -3);
  EXPECT_TRUE(Tensor::ScalarBool(true).scalar_bool());
  EXPECT_THROW((void)Tensor::FromVector({1, 2}, Shape({3})), Error);
}

TEST(Tensor, ReshapeSharesBuffer) {
  Tensor t = Tensor::FromVector({1, 2, 3, 4}, Shape({4}));
  Tensor r = t.Reshaped(Shape({2, 2}));
  EXPECT_EQ(r.data(), t.data());
  EXPECT_THROW((void)t.Reshaped(Shape({3})), Error);
}

TEST(Tensor, CastSemantics) {
  Tensor t = Tensor::FromVector({0.0f, 1.7f, -2.4f}, Shape({3}));
  Tensor b = t.Cast(DType::kBool);
  EXPECT_FLOAT_EQ(b.at(0), 0.0f);
  EXPECT_FLOAT_EQ(b.at(1), 1.0f);
  Tensor i = t.Cast(DType::kInt32);
  EXPECT_FLOAT_EQ(i.at(1), 1.0f);
  EXPECT_FLOAT_EQ(i.at(2), -2.0f);  // trunc, not floor
}

TEST(Ops, ElementwiseWithBroadcast) {
  Tensor a = Tensor::FromVector({1, 2, 3, 4, 5, 6}, Shape({2, 3}));
  Tensor row = Tensor::FromVector({10, 20, 30}, Shape({3}));
  Tensor col = Tensor::FromVector({100, 200}, Shape({2, 1}));
  Tensor s1 = Add(a, row);
  EXPECT_FLOAT_EQ(s1.at(0), 11);
  EXPECT_FLOAT_EQ(s1.at(5), 36);
  Tensor s2 = Add(a, col);
  EXPECT_FLOAT_EQ(s2.at(0), 101);
  EXPECT_FLOAT_EQ(s2.at(3), 204);
  Tensor s3 = Mul(row.Reshaped(Shape({1, 3})), col);  // outer product
  EXPECT_EQ(s3.shape(), Shape({2, 3}));
  EXPECT_FLOAT_EQ(s3.at(5), 30 * 200);
}

TEST(Ops, PythonStyleModAndFloorDiv) {
  Tensor a = Tensor::Scalar(-7.0f);
  Tensor b = Tensor::Scalar(3.0f);
  EXPECT_FLOAT_EQ(Mod(a, b).scalar(), 2.0f);        // Python: -7 % 3 == 2
  EXPECT_FLOAT_EQ(FloorDiv(a, b).scalar(), -3.0f);  // Python: -7 // 3 == -3
}

TEST(Ops, ComparisonsProduceBool) {
  Tensor a = Tensor::FromVector({1, 2, 3}, Shape({3}));
  Tensor b = Tensor::FromVector({2, 2, 2}, Shape({3}));
  Tensor lt = Less(a, b);
  EXPECT_EQ(lt.dtype(), DType::kBool);
  EXPECT_FLOAT_EQ(lt.at(0), 1);
  EXPECT_FLOAT_EQ(lt.at(2), 0);
  EXPECT_FLOAT_EQ(LogicalNot(lt).at(0), 0);
  EXPECT_FLOAT_EQ(LogicalAnd(lt, Equal(a, b)).at(1), 0);
  EXPECT_FLOAT_EQ(LogicalOr(lt, Equal(a, b)).at(1), 1);
}

TEST(Ops, MatMul) {
  Tensor a = Tensor::FromVector({1, 2, 3, 4}, Shape({2, 2}));
  Tensor b = Tensor::FromVector({5, 6, 7, 8}, Shape({2, 2}));
  Tensor c = MatMul(a, b);
  EXPECT_FLOAT_EQ(c.at(0), 19);
  EXPECT_FLOAT_EQ(c.at(1), 22);
  EXPECT_FLOAT_EQ(c.at(2), 43);
  EXPECT_FLOAT_EQ(c.at(3), 50);
  EXPECT_THROW((void)MatMul(a, Tensor::FromVector({1, 2, 3}, Shape({3, 1}))),
               Error);
  EXPECT_THROW((void)MatMul(a, Tensor::Scalar(1)), Error);
}

TEST(Ops, Reductions) {
  Tensor a = Tensor::FromVector({1, 2, 3, 4, 5, 6}, Shape({2, 3}));
  EXPECT_FLOAT_EQ(ReduceSum(a).scalar(), 21);
  EXPECT_FLOAT_EQ(ReduceMean(a).scalar(), 3.5);
  EXPECT_FLOAT_EQ(ReduceMax(a).scalar(), 6);
  EXPECT_FLOAT_EQ(ReduceMin(a).scalar(), 1);
  Tensor rows = ReduceSum(a, 1);
  EXPECT_EQ(rows.shape(), Shape({2}));
  EXPECT_FLOAT_EQ(rows.at(0), 6);
  EXPECT_FLOAT_EQ(rows.at(1), 15);
  Tensor cols = ReduceSum(a, 0);
  EXPECT_EQ(cols.shape(), Shape({3}));
  EXPECT_FLOAT_EQ(cols.at(2), 9);
  Tensor keep = ReduceSum(a, -1, /*keepdims=*/true);
  EXPECT_EQ(keep.shape(), Shape({2, 1}));
  Tensor am = ArgMax(a, 1);
  EXPECT_EQ(am.dtype(), DType::kInt32);
  EXPECT_EQ(am.shape(), Shape({2}));
  EXPECT_FLOAT_EQ(am.at(0), 2);
}

TEST(Ops, TransposeAndConcatAndStack) {
  Tensor a = Tensor::FromVector({1, 2, 3, 4, 5, 6}, Shape({2, 3}));
  Tensor t = Transpose(a, {1, 0});
  EXPECT_EQ(t.shape(), Shape({3, 2}));
  EXPECT_FLOAT_EQ(t.at(1), 4);
  // Transpose twice restores.
  EXPECT_TRUE(AllClose(Transpose(t, {1, 0}), a));

  Tensor c0 = Concat({a, a}, 0);
  EXPECT_EQ(c0.shape(), Shape({4, 3}));
  Tensor c1 = Concat({a, a}, 1);
  EXPECT_EQ(c1.shape(), Shape({2, 6}));
  EXPECT_FLOAT_EQ(c1.at(3), 1);

  Tensor s = Stack({a, a, a});
  EXPECT_EQ(s.shape(), Shape({3, 2, 3}));
  std::vector<Tensor> rows = Unstack(a);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].shape(), Shape({3}));
  EXPECT_FLOAT_EQ(rows[1].at(0), 4);
}

TEST(Ops, IndexingAndSetItem) {
  Tensor a = Tensor::FromVector({1, 2, 3, 4, 5, 6}, Shape({3, 2}));
  EXPECT_FLOAT_EQ(IndexAxis0(a, 1).at(1), 4);
  EXPECT_FLOAT_EQ(IndexAxis0(a, -1).at(0), 5);  // negative index
  EXPECT_THROW((void)IndexAxis0(a, 3), Error);
  Tensor b = SetItemAxis0(a, 0, Tensor::FromVector({9, 9}, Shape({2})));
  EXPECT_FLOAT_EQ(b.at(0), 9);
  EXPECT_FLOAT_EQ(a.at(0), 1);  // original untouched (value semantics)
  Tensor g = Gather(a, Tensor::FromVector({2, 0}, Shape({2}),
                                          DType::kInt32));
  EXPECT_EQ(g.shape(), Shape({2, 2}));
  EXPECT_FLOAT_EQ(g.at(0), 5);
  EXPECT_THROW(
      (void)Gather(a, Tensor::FromVector({5}, Shape({1}), DType::kInt32)),
      Error);
}

TEST(Ops, WhereVariants) {
  Tensor x = Tensor::FromVector({1, 2, 3, 4}, Shape({2, 2}));
  Tensor y = Tensor::FromVector({-1, -2, -3, -4}, Shape({2, 2}));
  // Scalar condition.
  EXPECT_TRUE(AllClose(Where(Tensor::ScalarBool(true), x, y), x));
  // Elementwise condition.
  Tensor mask = Tensor::FromVector({1, 0, 0, 1}, Shape({2, 2}),
                                   DType::kBool);
  Tensor w = Where(mask, x, y);
  EXPECT_FLOAT_EQ(w.at(0), 1);
  EXPECT_FLOAT_EQ(w.at(1), -2);
  // Row condition (batch semantics).
  Tensor rows = Tensor::FromVector({0, 1}, Shape({2}), DType::kBool);
  Tensor wr = Where(rows, x, y);
  EXPECT_FLOAT_EQ(wr.at(0), -1);
  EXPECT_FLOAT_EQ(wr.at(2), 3);
}

TEST(Ops, SoftmaxFamily) {
  Tensor logits = Tensor::FromVector({1, 2, 3, 1, 1, 1}, Shape({2, 3}));
  Tensor sm = Softmax(logits);
  EXPECT_NEAR(sm.at(0) + sm.at(1) + sm.at(2), 1.0f, 1e-6f);
  EXPECT_NEAR(sm.at(3), 1.0f / 3, 1e-6f);
  // LogSoftmax == log(Softmax).
  Tensor lsm = LogSoftmax(logits);
  EXPECT_NEAR(lsm.at(1), std::log(sm.at(1)), 1e-5f);
  // Cross entropy for a uniform row is log(3).
  Tensor labels = Tensor::FromVector({0, 1}, Shape({2}), DType::kInt32);
  Tensor xent = SoftmaxCrossEntropy(logits, labels);
  const float expected =
      0.5f * (-std::log(sm.at(0)) - std::log(sm.at(4)));
  EXPECT_NEAR(xent.scalar(), expected, 1e-5f);
  // Gradient rows sum to zero.
  Tensor g = SoftmaxCrossEntropyGrad(logits, labels);
  EXPECT_NEAR(g.at(0) + g.at(1) + g.at(2), 0.0f, 1e-6f);
}

TEST(Ops, TopK) {
  Tensor a = Tensor::FromVector({3, 1, 4, 1, 5, 9, 2, 6}, Shape({2, 4}));
  auto [values, indices] = TopK(a, 2);
  EXPECT_EQ(values.shape(), Shape({2, 2}));
  EXPECT_FLOAT_EQ(values.at(0), 4);
  EXPECT_FLOAT_EQ(indices.at(0), 2);
  EXPECT_FLOAT_EQ(values.at(2), 9);
  EXPECT_FLOAT_EQ(indices.at(2), 1);
  EXPECT_THROW((void)TopK(a, 5), Error);
}

TEST(Ops, OneHotAndRange) {
  Tensor r = Range(4);
  EXPECT_EQ(r.dtype(), DType::kInt32);
  EXPECT_FLOAT_EQ(r.at(3), 3);
  EXPECT_EQ(Range(0).num_elements(), 0);
  Tensor oh = OneHot(Tensor::FromVector({1, 0}, Shape({2}), DType::kInt32),
                     3);
  EXPECT_EQ(oh.shape(), Shape({2, 3}));
  EXPECT_FLOAT_EQ(oh.at(1), 1);
  EXPECT_FLOAT_EQ(oh.at(3), 1);
}

TEST(Ops, SumToShape) {
  Tensor g = Tensor::Ones(Shape({4, 3}));
  Tensor to_row = SumToShape(g, Shape({3}));
  EXPECT_EQ(to_row.shape(), Shape({3}));
  EXPECT_FLOAT_EQ(to_row.at(0), 4);
  Tensor to_col = SumToShape(g, Shape({4, 1}));
  EXPECT_EQ(to_col.shape(), Shape({4, 1}));
  EXPECT_FLOAT_EQ(to_col.at(0), 3);
  Tensor to_scalar = SumToShape(g, Shape());
  EXPECT_FLOAT_EQ(to_scalar.scalar(), 12);
}

// ---- property-style sweeps ----

}  // namespace

// Prints a Shape by its dims; found by argument-dependent lookup, so it must
// live in namespace ag. Without it gtest prints the raw vector bytes, whose
// heap addresses make the discovered test names differ on every build.
void PrintTo(const Shape& s, std::ostream* os) { *os << s.str(); }

namespace {

class BroadcastProperty
    : public ::testing::TestWithParam<std::pair<Shape, Shape>> {};

TEST_P(BroadcastProperty, AddCommutesAndMatchesScalarLoop) {
  auto [sa, sb] = GetParam();
  Rng rng(static_cast<uint64_t>(sa.num_elements() * 31 +
                                sb.num_elements()));
  Tensor a = rng.Uniform(sa, -2.0f, 2.0f);
  Tensor b = rng.Uniform(sb, -2.0f, 2.0f);
  Tensor ab = Add(a, b);
  Tensor ba = Add(b, a);
  EXPECT_TRUE(AllClose(ab, ba));
  EXPECT_EQ(ab.shape(), Shape::Broadcast(sa, sb));
  // a + b - b == broadcast(a).
  Tensor back = Sub(ab, b);
  Tensor a_broadcast = Add(a, Tensor::Zeros(ab.shape()));
  EXPECT_TRUE(AllClose(back, a_broadcast, 1e-5f));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BroadcastProperty,
    ::testing::Values(std::make_pair(Shape({3, 4}), Shape({4})),
                      std::make_pair(Shape({3, 1}), Shape({1, 4})),
                      std::make_pair(Shape(), Shape({2, 2, 2})),
                      std::make_pair(Shape({2, 1, 3}), Shape({1, 5, 3})),
                      std::make_pair(Shape({6}), Shape({6}))));

class ReductionProperty : public ::testing::TestWithParam<int> {};

TEST_P(ReductionProperty, SumOverAxisEqualsTotal) {
  const int axis = GetParam();
  Rng rng(17);
  Tensor a = rng.Normal(Shape({3, 4, 5}));
  Tensor partial = ReduceSum(a, axis);
  EXPECT_NEAR(ReduceSum(partial).scalar(), ReduceSum(a).scalar(), 1e-3f);
  // Mean scales by the reduced extent.
  const float extent = static_cast<float>(a.shape().dim(axis));
  EXPECT_TRUE(AllClose(ReduceMean(a, axis),
                       Div(partial, Tensor::Scalar(extent)), 1e-5f));
}

INSTANTIATE_TEST_SUITE_P(Axes, ReductionProperty,
                         ::testing::Values(0, 1, 2, -1, -2));

class MatMulProperty : public ::testing::TestWithParam<int64_t> {};

TEST_P(MatMulProperty, MatchesNaiveTripleLoop) {
  const int64_t n = GetParam();
  Rng rng(static_cast<uint64_t>(n));
  Tensor a = rng.Normal(Shape({n, n + 1}));
  Tensor b = rng.Normal(Shape({n + 1, n + 2}));
  Tensor c = MatMul(a, b);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n + 2; ++j) {
      float acc = 0;
      for (int64_t k = 0; k < n + 1; ++k) {
        acc += a.at(i * (n + 1) + k) * b.at(k * (n + 2) + j);
      }
      EXPECT_NEAR(c.at(i * (n + 2) + j), acc, 1e-3f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MatMulProperty,
                         ::testing::Values(1, 2, 3, 7, 16));

TEST(Rng, Deterministic) {
  Rng a(123);
  Rng b(123);
  EXPECT_TRUE(AllClose(a.Uniform(Shape({8})), b.Uniform(Shape({8}))));
  Rng c(124);
  EXPECT_FALSE(AllClose(Rng(123).Normal(Shape({8})), c.Normal(Shape({8}))));
  Tensor ints = Rng(9).UniformInt(Shape({100}), 7);
  for (int64_t i = 0; i < 100; ++i) {
    EXPECT_GE(ints.at(i), 0);
    EXPECT_LT(ints.at(i), 7);
  }
}

}  // namespace
}  // namespace ag
