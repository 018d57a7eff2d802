// Unit tests for the tensor substrate: shapes, broadcasting, kernels,
// reductions, indexing, and numeric invariants (property-style sweeps via
// parameterized tests).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "runtime/parallel_for.h"
#include "support/error.h"
#include "tensor/rng.h"
#include "tensor/simd/dispatch.h"
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

// NumPy stretches a size-1 dimension to size 0 too; taking the larger
// size made [4,0] - [4,1] a [4,1] result that read past the empty operand.
TEST(Shape, BroadcastStretchesSizeOneToZero) {
  EXPECT_EQ(Shape::Broadcast(Shape({4, 0}), Shape({4, 1})), Shape({4, 0}));
  EXPECT_EQ(Shape::Broadcast(Shape({1}), Shape({0})), Shape({0}));
  const Tensor d =
      Sub(Tensor::Zeros(Shape({4, 0})), Tensor::Ones(Shape({4, 1})));
  EXPECT_EQ(d.shape(), Shape({4, 0}));
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

// ---- the softmax row kernels against the composed chain ----

using tensor::simd::KernelBackend;

// Bit-for-bit equality, except that any NaN matches any NaN: the sign of
// a NaN that meets another NaN in an add depends on operand order, which
// the compiler may swap (it differs between Release and sanitizer builds).
bool SameBits(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape() || a.dtype() != b.dtype()) return false;
  for (int64_t i = 0; i < a.num_elements(); ++i) {
    const float x = a.at(i);
    const float y = b.at(i);
    if (std::isnan(x) && std::isnan(y)) continue;
    if (std::memcmp(&x, &y, sizeof(float)) != 0) return false;
  }
  return true;
}

// The five-pass definitions the row kernels must reproduce bit for bit.
Tensor ComposedSoftmax(const Tensor& x) {
  Tensor e = Exp(Sub(x, ReduceMax(x, -1, /*keepdims=*/true)));
  Tensor s = ReduceSum(e, -1, /*keepdims=*/true);
  return Div(e, s);
}

Tensor ComposedLogSoftmax(const Tensor& x) {
  Tensor shifted = Sub(x, ReduceMax(x, -1, /*keepdims=*/true));
  return Sub(shifted, Log(ReduceSum(Exp(shifted), -1, /*keepdims=*/true)));
}

// Calls `body` under each kernel backend (AVX2 degrades to scalar where
// it is missing) and each intra-op budget.
template <typename Body>
void ForEachBackendAndBudget(Body body) {
  for (KernelBackend backend :
       {KernelBackend::kScalar, KernelBackend::kAvx2}) {
    for (int budget : {0, 4}) {
      tensor::simd::KernelBackendScope scope(backend);
      runtime::IntraOpScope intra(budget);
      SCOPED_TRACE(std::string(tensor::simd::KernelBackendName(backend)) +
                   " budget " + std::to_string(budget));
      body();
    }
  }
}

TEST(Ops, SoftmaxRowKernelsAreBitIdenticalToComposedChain) {
  const std::vector<Shape> shapes = {
      Shape({8, 128}), Shape({1, 1024}), Shape({3, 7}),
      Shape({2, 3, 5}), Shape({64, 4096}), Shape({5, 1}),
      Shape({6}), Shape({0, 4}), Shape({4, 0})};
  ForEachBackendAndBudget([&] {
    for (const Shape& shape : shapes) {
      SCOPED_TRACE(shape.str());
      Rng rng(static_cast<uint64_t>(shape.num_elements()) + 7);
      const Tensor x = rng.Normal(shape, 0.0f, 4.0f);
      EXPECT_TRUE(SameBits(Softmax(x), ComposedSoftmax(x)));
      EXPECT_TRUE(SameBits(LogSoftmax(x), ComposedLogSoftmax(x)));
    }
  });
}

TEST(Ops, SoftmaxRowKernelsMatchComposedChainOnInfNanAndNegativeZero) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const Tensor x = Tensor::FromVector(
      {1,     inf,  2,     3,    4,      // +inf in the middle
       -inf,  -inf, -inf,  -inf, -inf,   // all -inf
       nan,   1,    2,     3,    4,      // NaN first: std::max skips it
       1,     2,    nan,   3,    4,      // NaN later
       -0.0f, 0.0f, -0.0f, 0.0f, -0.0f,  // signed zeros
       1,     2,    -inf,  inf,  nan,
       100,   -100, 88,    89,   -87.5f,  // exp under- and overflow
       -3,    -1,   -2,    -5,   -4},     // all negative: max below 0
      Shape({8, 5}));
  ForEachBackendAndBudget([&] {
    EXPECT_TRUE(SameBits(Softmax(x), ComposedSoftmax(x)));
    EXPECT_TRUE(SameBits(LogSoftmax(x), ComposedLogSoftmax(x)));
  });
}

// RowMax takes eight lanes (element j in lane j % 8) where ReduceMax
// runs one std::max chain. Rows that tell the two apart: zeros of both
// signs in different lanes and blocks, NaN in the first and last lane,
// and every tail length around the lane width. The sign of a zero max
// never shows in Softmax or LogSoftmax (two zeros make the sum at least
// 2), so the row max itself is held to the chain's bits.
TEST(Ops, SoftmaxLaneMaxMatchesOneChainOnEdgeRows) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const int64_t cols : {1, 7, 8, 9, 15, 16, 17}) {
    SCOPED_TRACE("cols " + std::to_string(cols));
    std::vector<std::vector<float>> rows;
    Rng rng(static_cast<uint64_t>(cols));
    const Tensor noise = rng.Normal(Shape({cols}), -3.0f, 1.0f);
    const std::vector<float> base(noise.data(), noise.data() + cols);
    // +0 in a lane of block 0 and -0 in an earlier lane of a later
    // block, and the same with the signs swapped.
    for (const float first : {0.0f, -0.0f}) {
      for (int64_t plus = 1; plus < std::min<int64_t>(cols, 8); ++plus) {
        for (int64_t minus = 8; minus < cols; ++minus) {
          if (minus % 8 >= plus) continue;
          std::vector<float> row = base;
          row[static_cast<size_t>(plus)] = first;
          row[static_cast<size_t>(minus)] = -first;
          rows.push_back(row);
        }
      }
      std::vector<float> row(static_cast<size_t>(cols), -inf);
      row.back() = first;
      rows.push_back(row);
      row.front() = -first;
      rows.push_back(row);
    }
    // NaN in lanes 0 and 7 (of every block), over numbers and over zeros.
    for (const float fill : {1.0f, 0.0f, -0.0f, -inf}) {
      std::vector<float> row = base;
      for (int64_t j = 0; j < cols; ++j) {
        if (j % 8 == 0 || j % 8 == 7) row[static_cast<size_t>(j)] = nan;
        else if (fill != 1.0f) row[static_cast<size_t>(j)] = fill;
      }
      rows.push_back(row);
    }
    rows.push_back(std::vector<float>(static_cast<size_t>(cols), nan));
    rows.push_back(base);
    for (const std::vector<float>& row : rows) {
      float chain = -inf;
      for (float v : row) chain = std::max(chain, v);
      const float lanes = RowMax(row.data(), cols);
      EXPECT_EQ(std::memcmp(&lanes, &chain, sizeof(float)), 0)
          << "lanes " << lanes << " chain " << chain;
    }
    std::vector<float> all;
    for (const std::vector<float>& row : rows) {
      all.insert(all.end(), row.begin(), row.end());
    }
    const Tensor x = Tensor::FromVector(
        all, Shape({static_cast<int64_t>(rows.size()), cols}));
    ForEachBackendAndBudget([&] {
      EXPECT_TRUE(SameBits(Softmax(x), ComposedSoftmax(x)));
      EXPECT_TRUE(SameBits(LogSoftmax(x), ComposedLogSoftmax(x)));
    });
  }
}

TEST(Ops, SoftmaxCrossEntropyFollowsComposedLogSoftmax) {
  Rng rng(11);
  const Tensor logits = rng.Normal(Shape({8, 128}), 0.0f, 3.0f);
  const Tensor labels = rng.UniformInt(Shape({8}), 128);
  ForEachBackendAndBudget([&] {
    const Tensor lsm = ComposedLogSoftmax(logits);
    float total = 0.0f;
    for (int64_t i = 0; i < 8; ++i) {
      total -= lsm.at(i * 128 + static_cast<int64_t>(labels.at(i)));
    }
    const float expected = total / 8.0f;
    const float loss = SoftmaxCrossEntropy(logits, labels).scalar();
    EXPECT_EQ(std::memcmp(&loss, &expected, sizeof(float)), 0);

    const Tensor sm = ComposedSoftmax(logits);
    std::vector<float> grad(sm.data(), sm.data() + sm.num_elements());
    for (int64_t i = 0; i < 8; ++i) {
      grad[static_cast<size_t>(i * 128 + static_cast<int64_t>(
                                             labels.at(i)))] -= 1.0f;
    }
    for (float& g : grad) g *= 1.0f / 8.0f;
    EXPECT_TRUE(SameBits(SoftmaxCrossEntropyGrad(logits, labels),
                         Tensor::FromVector(grad, Shape({8, 128}))));
  });
}

TEST(Ops, SoftmaxOfScalarRaisesTheReductionAxisError) {
  const Tensor x = Tensor::Scalar(1.0f);
  std::string expected;
  try {
    (void)ReduceMax(x, -1, /*keepdims=*/true);
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kValue);
    expected = e.message();
  }
  ASSERT_FALSE(expected.empty());
  for (auto* fn : {&Softmax, &LogSoftmax}) {
    try {
      (void)fn(x);
      ADD_FAILURE() << "no error";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kValue);
      EXPECT_EQ(e.message(), expected);
    }
  }
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

std::vector<float> Column(const Tensor& t) {
  return std::vector<float>(t.data(), t.data() + t.num_elements());
}

TEST(Ops, TopKBreaksTiesByLowerIndexAndRanksNanFirst) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const Tensor ties = Tensor::FromVector({1, 5, 5, 2, 5, 0, 5, 3, 5, 5, 1, 5},
                                         Shape({12}));
  const Tensor with_nan = Tensor::FromVector({nan, 1, 2, 3, nan, 4}, Shape({6}));
  ForEachBackendAndBudget([&] {
    auto [values, indices] = TopK(ties, 4);
    EXPECT_EQ(Column(values), (std::vector<float>{5, 5, 5, 5}));
    EXPECT_EQ(Column(indices), (std::vector<float>{1, 2, 4, 6}));
    auto [nan_values, nan_indices] = TopK(with_nan, 3);
    EXPECT_TRUE(std::isnan(nan_values.at(0)));
    EXPECT_TRUE(std::isnan(nan_values.at(1)));
    EXPECT_EQ(nan_values.at(2), 4.0f);
    EXPECT_EQ(Column(nan_indices), (std::vector<float>{0, 4, 5}));
  });
}

// TopK against a stable sort of each row under the documented order
// (NaN first, then values descending with +0 == -0, then lower index),
// on both k paths and both backends, for rows built to trip each rule.
TEST(Ops, TopKMatchesStableSortUnderTheTotalOrder) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  struct Case {
    Shape shape;
    int64_t k;
  };
  const int64_t cut = kTopKScanMaxK;
  const std::vector<Case> cases = {
      {Shape({1, 1024}), 1},    {Shape({1, 1024}), 8},
      {Shape({1, 1024}), 1024}, {Shape({8, 128}), 8},
      {Shape({3, 7}), 3},       {Shape({3, 7}), 7},
      {Shape({5, 1}), 1},       {Shape({2, 3, 5}), 2},
      {Shape({64, 4096}), 16},  {Shape({2, 3 * cut}), cut},
      {Shape({2, 3 * cut}), cut + 1}};
  // Each row is drawn from one of these contents.
  enum Content {
    kRandom, kTies, kZerosAndInfs, kNanInFirstK, kNanAfterFirstK,
    kAscending, kDescending, kMostlyNan, kContents
  };
  auto fill = [&](Content content, int64_t cols, int64_t k, Rng& rng) {
    const Tensor normal = rng.Normal(Shape({cols}), 0.0f, 2.0f);
    const Tensor small = rng.UniformInt(Shape({cols}), 4);
    std::vector<float> row(static_cast<size_t>(cols));
    for (int64_t j = 0; j < cols; ++j) {
      float& v = row[static_cast<size_t>(j)];
      const int64_t pick = static_cast<int64_t>(small.at(j));
      switch (content) {
        case kRandom: v = normal.at(j); break;
        case kTies: v = pick == 0 ? (j % 2 == 0 ? 0.0f : -0.0f)
                                  : static_cast<float>(pick); break;
        case kZerosAndInfs: {
          const float pool[] = {0.0f, -0.0f, inf, -inf};
          v = pool[pick];
          break;
        }
        case kNanInFirstK: v = j < k && j % 3 == 1 ? nan : normal.at(j); break;
        case kNanAfterFirstK:
          v = j >= k && j % 3 == 1 ? nan : normal.at(j);
          break;
        case kAscending: v = static_cast<float>(j); break;
        case kDescending: v = -static_cast<float>(j); break;
        case kMostlyNan: v = pick == 0 ? normal.at(j) : nan; break;
        case kContents: break;
      }
    }
    return row;
  };
  auto ranks_above = [](float x, float y) {
    return x > y || (std::isnan(x) && !std::isnan(y));
  };
  for (const Case& c : cases) {
    const int64_t cols = c.shape.dim(-1);
    const int64_t rows = c.shape.num_elements() / cols;
    for (int content = 0; content <= kContents; ++content) {
      SCOPED_TRACE(c.shape.str() + " k " + std::to_string(c.k) +
                   " content " + std::to_string(content));
      // content == kContents mixes every content, one per row.
      Rng rng(static_cast<uint64_t>(cols * 31 + c.k + content));
      std::vector<float> data;
      for (int64_t r = 0; r < rows; ++r) {
        const Content row_content = static_cast<Content>(
            content == kContents ? r % kContents : content);
        const std::vector<float> row = fill(row_content, cols, c.k, rng);
        data.insert(data.end(), row.begin(), row.end());
      }
      const Tensor x = Tensor::FromVector(data, c.shape);
      std::vector<float> want_values;
      std::vector<float> want_indices;
      std::vector<int64_t> order(static_cast<size_t>(cols));
      for (int64_t r = 0; r < rows; ++r) {
        const float* row = data.data() + r * cols;
        std::iota(order.begin(), order.end(), 0);
        std::stable_sort(order.begin(), order.end(),
                         [&](int64_t a, int64_t b) {
                           return ranks_above(row[a], row[b]);
                         });
        for (int64_t j = 0; j < c.k; ++j) {
          want_values.push_back(row[order[static_cast<size_t>(j)]]);
          want_indices.push_back(
              static_cast<float>(order[static_cast<size_t>(j)]));
        }
      }
      std::vector<std::pair<Tensor, Tensor>> per_backend;
      ForEachBackendAndBudget([&] {
        auto [values, indices] = TopK(x, c.k);
        std::vector<int64_t> dims = c.shape.dims();
        dims.back() = c.k;
        ASSERT_EQ(values.shape(), Shape(dims));
        ASSERT_EQ(indices.shape(), Shape(dims));
        EXPECT_EQ(indices.dtype(), DType::kInt32);
        EXPECT_EQ(Column(indices), want_indices);
        EXPECT_EQ(std::memcmp(values.data(), want_values.data(),
                              want_values.size() * sizeof(float)),
                  0);
        per_backend.emplace_back(values, indices);
      });
      for (const auto& [values, indices] : per_backend) {
        EXPECT_EQ(std::memcmp(values.data(), per_backend[0].first.data(),
                              want_values.size() * sizeof(float)),
                  0);
        EXPECT_EQ(Column(indices), Column(per_backend[0].second));
      }
    }
  }
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

// `t` copied out to `shape` by index arithmetic alone, so a same-shape
// op over the copies is the reference for the broadcast op.
Tensor Materialize(const Tensor& t, const Shape& shape) {
  const int r = shape.rank();
  const int rt = t.rank();
  std::vector<float> vals(static_cast<size_t>(shape.num_elements()));
  for (int64_t i = 0; i < shape.num_elements(); ++i) {
    int64_t rem = i;
    int64_t src = 0;
    int64_t stride = 1;
    for (int d = r - 1; d >= 0; --d) {
      const int64_t coord = rem % shape.dim(d);
      rem /= shape.dim(d);
      const int dt = d - (r - rt);
      if (dt < 0) continue;
      if (t.shape().dim(dt) != 1) src += coord * stride;
      stride *= t.shape().dim(dt);
    }
    vals[static_cast<size_t>(i)] = t.at(src);
  }
  return Tensor::FromVector(std::move(vals), shape, t.dtype());
}

TEST_P(BroadcastProperty, EveryBinaryOpEqualsSameShapeOpBitForBit) {
  using BinaryFn = Tensor (*)(const Tensor&, const Tensor&);
  const BinaryFn ops[] = {&Add, &Sub, &Mul, &Div, &FloorDiv, &Mod,
                          &Pow, &Maximum, &Minimum, &Less, &LessEqual,
                          &Greater, &GreaterEqual, &Equal, &NotEqual,
                          &LogicalAnd, &LogicalOr};
  auto [sa, sb] = GetParam();
  Rng rng(static_cast<uint64_t>(sa.num_elements() * 37 + sb.num_elements()));
  // Whole halves in [-3, 3], so comparisons see ties and logical ops see
  // zeros.
  const auto halves = [&rng](const Shape& shape) {
    std::vector<float> vals(static_cast<size_t>(shape.num_elements()));
    for (float& v : vals) v = static_cast<float>(rng.NextInt(13) - 6) / 2.0f;
    return Tensor::FromVector(std::move(vals), shape);
  };
  const Tensor a = halves(sa);
  const Tensor b = halves(sb);
  const Shape out = Shape::Broadcast(sa, sb);
  const Tensor wa = Materialize(a, out);
  const Tensor wb = Materialize(b, out);
  for (int budget : {0, 4}) {
    runtime::IntraOpScope intra(budget);
    for (size_t k = 0; k < std::size(ops); ++k) {
      SCOPED_TRACE("op " + std::to_string(k) + " budget " +
                   std::to_string(budget));
      EXPECT_TRUE(SameBits(ops[k](a, b), ops[k](wa, wb)));
      EXPECT_TRUE(SameBits(ops[k](b, a), ops[k](wb, wa)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BroadcastProperty,
    ::testing::Values(std::make_pair(Shape({3, 4}), Shape({4})),
                      std::make_pair(Shape({3, 1}), Shape({1, 4})),
                      std::make_pair(Shape(), Shape({2, 2, 2})),
                      std::make_pair(Shape({2, 1, 3}), Shape({1, 5, 3})),
                      std::make_pair(Shape({6}), Shape({6})),
                      std::make_pair(Shape({8, 1}), Shape({8, 128})),
                      std::make_pair(Shape({8, 128}), Shape({128})),
                      std::make_pair(Shape({2, 1, 3}), Shape({2, 4, 3})),
                      std::make_pair(Shape({4, 1}), Shape({3})),
                      std::make_pair(Shape({5, 1, 1}), Shape({1, 1, 6})),
                      // Above two shard grains: sharded runs.
                      std::make_pair(Shape({300, 1}), Shape({1, 200})),
                      std::make_pair(Shape({64, 1, 512}), Shape({8, 1}))));

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

// Transpose against index arithmetic: output element i sits at the
// coordinates of i in the permuted dims, and reads the input at those
// coordinates dotted with the input strides of the axes they came from.
// Every perm of ranks 1-4, so both the run-copy path (last axis stays
// last) and the per-element path run, over size-0 and size-1 dims.
TEST(Ops, TransposeMatchesIndexArithmeticForEveryPerm) {
  const std::vector<Shape> shapes = {
      Shape({5}),       Shape({0}),          Shape({1}),
      Shape({3, 4}),    Shape({1, 5}),       Shape({0, 3}),
      Shape({2, 3, 4}), Shape({1, 3, 1}),    Shape({2, 0, 3}),
      Shape({4, 16, 64}), Shape({2, 3, 4, 5}), Shape({2, 1, 3, 2}),
      Shape({2, 3, 0, 4}), Shape({1, 1, 1, 1})};
  for (const Shape& shape : shapes) {
    std::vector<float> vals(static_cast<size_t>(shape.num_elements()));
    std::iota(vals.begin(), vals.end(), 0.5f);
    const Tensor a = Tensor::FromVector(std::move(vals), shape);
    const std::vector<int64_t> strides = shape.strides();
    std::vector<int> perm(static_cast<size_t>(shape.rank()));
    std::iota(perm.begin(), perm.end(), 0);
    do {
      std::string name = shape.str() + " perm";
      for (int p : perm) name += ' ' + std::to_string(p);
      SCOPED_TRACE(name);
      std::vector<int64_t> out_dims;
      for (int p : perm) out_dims.push_back(shape.dim(p));
      const Shape out_shape(out_dims);
      std::vector<float> want(static_cast<size_t>(out_shape.num_elements()));
      for (int64_t i = 0; i < out_shape.num_elements(); ++i) {
        int64_t rem = i;
        int64_t src = 0;
        for (int d = shape.rank() - 1; d >= 0; --d) {
          const auto du = static_cast<size_t>(d);
          src += (rem % out_dims[du]) *
                 strides[static_cast<size_t>(perm[du])];
          rem /= out_dims[du];
        }
        want[static_cast<size_t>(i)] = a.at(src);
      }
      EXPECT_TRUE(SameBits(Transpose(a, perm),
                           Tensor::FromVector(std::move(want), out_shape)));
    } while (std::next_permutation(perm.begin(), perm.end()));
  }
}

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
