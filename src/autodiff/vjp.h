// Vector-Jacobian products: the one backward rule of each differentiable
// op, shared by tf.gradients over the graph (autodiff/graph_grad.cc), the
// eager tape (eager/eager.cc) and Lantern's CPS backward pass
// (lantern/executor.cc). The engines differ only in how gradients flow
// between ops, not in what each op's derivative is.
//
// A rule is a function template over a value algebra `A`: GraphAlgebra
// (values are graph::Output; each primitive emits one node) or
// TensorAlgebra here. Only TensorAlgebra has the primitives of Concat,
// SliceRows and Gather, which have no graph gradient.
//
// Graph emission order fixes node names and so .agc bytes. Each rule binds
// every value it makes to a named local in emission order, because C++
// leaves the evaluation order of function arguments unspecified. A local
// is moved into its last elementwise use, so TensorAlgebra can reuse its
// buffer for the result.
//
// Depends on nothing above ag_tensor, so the tape and Lantern use it
// without linking the graph layer.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace ag::autodiff::vjp {

// What a rule may read of one forward op: its inputs, its (first) output
// and the attributes the rules use.
template <class V>
struct Forward {
  std::vector<V> x{};
  V y{};
  int axis = kAllAxes;    // ReduceSum, ReduceMean, Concat
  bool keepdims = false;  // ReduceSum, ReduceMean
  int64_t start = 0;      // SliceRows
};

// A rule returns one gradient per differentiable input. Differentiable
// inputs come first; the trailing labels (SoftmaxCrossEntropy) and indices
// (Gather) get none.
template <class A>
using Grads = std::vector<typename A::Value>;

template <class A>
using Rule = Grads<A> (*)(A&, const Forward<typename A::Value>&,
                          const typename A::Value& g);

// acc[indices[i]] += rows[i] over rows of `inner` floats: Gather's
// adjoint. Lantern also applies it in place to the gradient cell of a
// gathered global. Indices round as the forward Gather's do.
inline void AddRowsAt(float* acc, int64_t inner, const Tensor& indices,
                      const Tensor& rows) {
  const float* g = rows.data();
  for (int64_t i = 0; i < indices.num_elements(); ++i) {
    const int64_t row = std::llround(indices.at(i));
    for (int64_t k = 0; k < inner; ++k) {
      acc[row * inner + k] += g[i * inner + k];
    }
  }
}

// The algebra over concrete tensors, for the tape and Lantern. Where the
// graph has a primitive's node, this calls the same tensor_ops kernel.
struct TensorAlgebra {
  using Value = Tensor;

  // Elementwise ops take their operands by value and call the rvalue
  // kernels: a value a rule moves in after its last use lends its buffer
  // to the result; a copy of a live value never does (refcount > 1).
  static Tensor Add(Tensor x, Tensor y) {
    return ag::Add(std::move(x), std::move(y));
  }
  static Tensor Sub(Tensor x, Tensor y) {
    return ag::Sub(std::move(x), std::move(y));
  }
  static Tensor Mul(Tensor x, Tensor y) {
    return ag::Mul(std::move(x), std::move(y));
  }
  static Tensor Div(Tensor x, Tensor y) {
    return ag::Div(std::move(x), std::move(y));
  }
  static Tensor Neg(Tensor x) { return ag::Neg(std::move(x)); }
  static Tensor Greater(Tensor x, Tensor y) {
    return ag::Greater(std::move(x), std::move(y));
  }
  static Tensor MatMul(const Tensor& x, const Tensor& y) {
    return ag::MatMul(x, y);
  }
  static Tensor Transpose(const Tensor& x) { return ag::Transpose(x, {1, 0}); }
  static Tensor Scalar(float c) { return Tensor::Scalar(c); }
  static Tensor SumTo(const Tensor& g, const Tensor& like) {
    return SumToShape(g, like.shape());
  }
  static Tensor OnesLike(const Tensor& x) {
    return Tensor::Ones(x.shape(), x.dtype());
  }
  static Tensor ReshapeLike(const Tensor& g, const Tensor& like) {
    return g.Reshaped(like.shape());
  }
  static Tensor ExpandDims(const Tensor& g, int axis) {
    return ag::ExpandDims(g, axis);
  }
  static Tensor SizeRatio(const Tensor& x, const Tensor& y) {
    return Tensor::Scalar(static_cast<float>(x.num_elements()) /
                          static_cast<float>(y.num_elements()));
  }
  static Tensor SoftmaxCrossEntropyGrad(const Tensor& logits,
                                        const Tensor& labels) {
    return ag::SoftmaxCrossEntropyGrad(logits, labels);
  }

  static int64_t Dim(const Tensor& x, int axis) {
    return x.shape().dim(x.shape().ResolveAxis(axis));
  }
  static Tensor SliceAxis(const Tensor& g, int axis, int64_t start,
                          int64_t len) {
    return ag::SliceAxis(g, axis, start, len);
  }
  // Zeros shaped like `like` with rows [start, start + |g rows|) = g.
  static Tensor Unslice(const Tensor& g, const Tensor& like, int64_t start) {
    const int64_t inner = like.num_elements() / like.shape().dim(0);
    std::vector<float> out(static_cast<size_t>(like.num_elements()), 0.0f);
    std::copy(g.data(), g.data() + g.num_elements(),
              out.data() + start * inner);
    return Tensor::FromVector(std::move(out), like.shape());
  }
  // Zeros shaped like `like` with each row i of g added at indices[i].
  static Tensor ScatterAddRows(const Tensor& like, const Tensor& indices,
                               const Tensor& g) {
    std::vector<float> out(static_cast<size_t>(like.num_elements()), 0.0f);
    AddRowsAt(out.data(), like.num_elements() / like.shape().dim(0), indices,
              g);
    return Tensor::FromVector(std::move(out), like.shape());
  }
};

// What a rule reads of Forward. The tape and Lantern keep only that alive
// for the backward pass; "x" covers reading only the inputs' shapes.
enum Reads : uint8_t { kReadsNone = 0, kReadsX = 1, kReadsY = 2, kReadsXY = 3 };

// A rule instantiated over tensors, with what it reads.
struct TensorVjp {
  Rule<TensorAlgebra> rule = nullptr;
  Reads reads = kReadsNone;
};

// Declares rule `name` and its tensor instance `k<name>`.
#define AG_VJP_RULE(name, reads)                                       \
  template <class A, class V = typename A::Value>                      \
  Grads<A> name(A& a, const Forward<V>& f, const V& g);                \
  inline constexpr TensorVjp k##name{&name<TensorAlgebra>, reads};     \
  template <class A, class V>                                          \
  Grads<A> name(A& a, [[maybe_unused]] const Forward<V>& f, const V& g)

AG_VJP_RULE(Add, kReadsX) {
  V dx0 = a.SumTo(g, f.x[0]);
  V dx1 = a.SumTo(g, f.x[1]);
  return {dx0, dx1};
}

AG_VJP_RULE(Sub, kReadsX) {
  V dx0 = a.SumTo(g, f.x[0]);
  V neg = a.Neg(g);
  V dx1 = a.SumTo(neg, f.x[1]);
  return {dx0, dx1};
}

AG_VJP_RULE(Mul, kReadsX) {
  V g0 = a.Mul(g, f.x[1]);
  V dx0 = a.SumTo(g0, f.x[0]);
  V g1 = a.Mul(g, f.x[0]);
  V dx1 = a.SumTo(g1, f.x[1]);
  return {dx0, dx1};
}

AG_VJP_RULE(Div, kReadsX) {
  V g0 = a.Div(g, f.x[1]);
  V dx0 = a.SumTo(g0, f.x[0]);
  V num = a.Mul(g, f.x[0]);
  V den = a.Mul(f.x[1], f.x[1]);
  V quot = a.Div(std::move(num), std::move(den));
  V g1 = a.Neg(std::move(quot));
  V dx1 = a.SumTo(g1, f.x[1]);
  return {dx0, dx1};
}

AG_VJP_RULE(Neg, kReadsNone) { return {a.Neg(g)}; }

AG_VJP_RULE(Exp, kReadsY) { return {a.Mul(g, f.y)}; }

AG_VJP_RULE(Log, kReadsX) { return {a.Div(g, f.x[0])}; }

AG_VJP_RULE(Tanh, kReadsY) {
  V one = a.Scalar(1.0f);
  V yy = a.Mul(f.y, f.y);
  V d = a.Sub(std::move(one), std::move(yy));
  return {a.Mul(g, std::move(d))};
}

AG_VJP_RULE(Sigmoid, kReadsY) {
  V one = a.Scalar(1.0f);
  V rest = a.Sub(std::move(one), f.y);
  V d = a.Mul(f.y, std::move(rest));
  return {a.Mul(g, std::move(d))};
}

AG_VJP_RULE(Relu, kReadsX) {
  V zero = a.Scalar(0.0f);
  V mask = a.Greater(f.x[0], std::move(zero));
  return {a.Mul(g, std::move(mask))};
}

AG_VJP_RULE(Sqrt, kReadsY) {
  V half = a.Scalar(0.5f);
  V d = a.Div(std::move(half), f.y);
  return {a.Mul(g, std::move(d))};
}

AG_VJP_RULE(Square, kReadsX) {
  V two = a.Scalar(2.0f);
  V d = a.Mul(std::move(two), f.x[0]);
  return {a.Mul(g, std::move(d))};
}

AG_VJP_RULE(MatMul, kReadsX) {
  V bt = a.Transpose(f.x[1]);
  V at = a.Transpose(f.x[0]);
  V dx0 = a.MatMul(g, bt);
  V dx1 = a.MatMul(at, g);
  return {dx0, dx1};
}

AG_VJP_RULE(Reshape, kReadsX) { return {a.ReshapeLike(g, f.x[0])}; }

// Broadcasts g back over the reduced axis of x.
AG_VJP_RULE(ReduceSum, kReadsX) {
  V ones = a.OnesLike(f.x[0]);
  V grad = f.axis != kAllAxes && !f.keepdims ? a.ExpandDims(g, f.axis) : g;
  return {a.Mul(std::move(ones), std::move(grad))};
}

AG_VJP_RULE(ReduceMean, kReadsXY) {
  V spread = ReduceSum(a, f, g)[0];
  V factor = a.SizeRatio(f.x[0], f.y);
  return {a.Div(std::move(spread), std::move(factor))};
}

AG_VJP_RULE(SoftmaxCrossEntropy, kReadsX) {
  V d = a.SoftmaxCrossEntropyGrad(f.x[0], f.x[1]);
  return {a.Mul(std::move(d), g)};
}

// Splits g back into the operands' extents along the concat axis.
AG_VJP_RULE(Concat, kReadsX) {
  Grads<A> dx;
  dx.reserve(f.x.size());
  int64_t offset = 0;
  for (const V& part : f.x) {
    const int64_t len = a.Dim(part, f.axis);
    dx.push_back(a.SliceAxis(g, f.axis, offset, len));
    offset += len;
  }
  return dx;
}

AG_VJP_RULE(SliceRows, kReadsX) {
  return {a.Unslice(g, f.x[0], f.start)};
}

AG_VJP_RULE(Gather, kReadsX) {
  return {a.ScatterAddRows(f.x[0], f.x[1], g)};
}

#undef AG_VJP_RULE

}  // namespace ag::autodiff::vjp
