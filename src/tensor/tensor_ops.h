// CPU kernels over Tensor. These are the "op implementations" shared by the
// eager runtime (immediate dispatch) and the graph Session (deferred
// dispatch), mirroring how TF eager and TF graph share kernels.
//
// All binary elementwise ops broadcast NumPy-style. Comparison and logical
// ops produce kBool tensors. Reductions accept an optional axis (negative
// axes allowed) — `axis == kAllAxes` reduces to a scalar.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "tensor/tensor.h"

namespace ag {

inline constexpr int kAllAxes = INT32_MIN;

// ---- Fused elementwise programs ----
// A FusedProgram is a straight-line scalar recipe compiled from the body
// of a FusedElementwise graph node (graph/fusion.h): registers
// [0, num_inputs) hold the external operands, each step applies one
// elementwise functor to earlier registers, and the last step's register
// is the output. FusedEval evaluates the recipe block-wise — registers
// are small fixed-size rows of elements, each step runs op-at-a-time
// over its row in a tight vectorizable loop — so the chain's
// intermediates live in a few KB of scratch instead of materialized
// tensors, eliminating every intermediate allocation.
//
// Bit-identity contract: each FusedOp case in the interpreter is the
// *same expression* as the corresponding unfused functor below, compiled
// in this same translation unit, and every unfused intermediate is a
// float32 buffer (tensor.h stores all dtypes as float32), so a value
// round-tripped through memory equals the register value exactly.

enum class FusedOp : uint8_t {
  // Binary (two register operands).
  kAdd, kSub, kMul, kDiv, kFloorDiv, kMod, kPow, kMaximum, kMinimum,
  kLess, kLessEqual, kGreater, kGreaterEqual, kEqual, kNotEqual,
  kLogicalAnd, kLogicalOr,
  // Unary (one register operand).
  kLogicalNot, kNeg, kExp, kLog, kTanh, kSigmoid, kRelu, kSqrt, kAbs,
  kSquare, kSin, kCos,
  // Dtype-semantics boundary: applies the CastInPlace value transform
  // for `cast_to` (kBool -> 0/1, kInt32 -> trunc, float -> identity).
  kCast,
};

struct FusedStep {
  FusedOp op = FusedOp::kAdd;
  int a = 0;       // first operand register
  int b = -1;      // second operand register (binary ops only)
  DType cast_to = DType::kFloat32;  // kCast only
};

struct FusedProgram {
  int num_inputs = 0;
  std::vector<FusedStep> steps;  // at least one; last step is the output
  DType out_dtype = DType::kFloat32;
};

// Evaluates `program` over broadcast inputs in one pass. The inputs
// are the caller's, taken by reference so the call copies no handle: a
// sole-owned full-shape operand's buffer is moved out of its slot and
// reused for the output (same refcount rule as the rvalue ops below).
[[nodiscard]] Tensor FusedEval(const FusedProgram& program,
                               std::span<Tensor> inputs);

// ---- Elementwise binary (broadcasting) ----
// Each op also has an rvalue overload that writes in place when one of
// the operands is the sole owner of its buffer (and pooling is on) —
// the destination-passing path graph executors use once liveness says
// an edge value is dead after this consumer. Lvalue calls always copy;
// a Reshaped alias or a second live handle blocks reuse via refcount.
[[nodiscard]] Tensor Add(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor Add(Tensor&& a, Tensor&& b);
[[nodiscard]] Tensor Sub(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor Sub(Tensor&& a, Tensor&& b);
[[nodiscard]] Tensor Mul(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor Mul(Tensor&& a, Tensor&& b);
[[nodiscard]] Tensor Div(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor Div(Tensor&& a, Tensor&& b);
[[nodiscard]] Tensor FloorDiv(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor FloorDiv(Tensor&& a, Tensor&& b);
[[nodiscard]] Tensor Mod(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor Mod(Tensor&& a, Tensor&& b);
[[nodiscard]] Tensor Pow(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor Pow(Tensor&& a, Tensor&& b);
[[nodiscard]] Tensor Maximum(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor Maximum(Tensor&& a, Tensor&& b);
[[nodiscard]] Tensor Minimum(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor Minimum(Tensor&& a, Tensor&& b);

// ---- Comparisons (result dtype kBool) ----
[[nodiscard]] Tensor Less(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor Less(Tensor&& a, Tensor&& b);
[[nodiscard]] Tensor LessEqual(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor LessEqual(Tensor&& a, Tensor&& b);
[[nodiscard]] Tensor Greater(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor Greater(Tensor&& a, Tensor&& b);
[[nodiscard]] Tensor GreaterEqual(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor GreaterEqual(Tensor&& a, Tensor&& b);
[[nodiscard]] Tensor Equal(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor Equal(Tensor&& a, Tensor&& b);
[[nodiscard]] Tensor NotEqual(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor NotEqual(Tensor&& a, Tensor&& b);

// ---- Logical (operands interpreted as truthy; result kBool) ----
[[nodiscard]] Tensor LogicalAnd(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor LogicalAnd(Tensor&& a, Tensor&& b);
[[nodiscard]] Tensor LogicalOr(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor LogicalOr(Tensor&& a, Tensor&& b);
[[nodiscard]] Tensor LogicalNot(const Tensor& a);
[[nodiscard]] Tensor LogicalNot(Tensor&& a);

// ---- Elementwise unary ----
[[nodiscard]] Tensor Neg(const Tensor& a);
[[nodiscard]] Tensor Neg(Tensor&& a);
[[nodiscard]] Tensor Exp(const Tensor& a);
[[nodiscard]] Tensor Exp(Tensor&& a);
[[nodiscard]] Tensor Log(const Tensor& a);
[[nodiscard]] Tensor Log(Tensor&& a);
[[nodiscard]] Tensor Tanh(const Tensor& a);
[[nodiscard]] Tensor Tanh(Tensor&& a);
[[nodiscard]] Tensor Sigmoid(const Tensor& a);
[[nodiscard]] Tensor Sigmoid(Tensor&& a);
[[nodiscard]] Tensor Relu(const Tensor& a);
[[nodiscard]] Tensor Relu(Tensor&& a);
[[nodiscard]] Tensor Sqrt(const Tensor& a);
[[nodiscard]] Tensor Sqrt(Tensor&& a);
[[nodiscard]] Tensor Abs(const Tensor& a);
[[nodiscard]] Tensor Abs(Tensor&& a);
[[nodiscard]] Tensor Square(const Tensor& a);
[[nodiscard]] Tensor Square(Tensor&& a);
[[nodiscard]] Tensor Sin(const Tensor& a);
[[nodiscard]] Tensor Sin(Tensor&& a);
[[nodiscard]] Tensor Cos(const Tensor& a);
[[nodiscard]] Tensor Cos(Tensor&& a);

// ---- Linear algebra ----
// 2-D matrix product: [m, k] x [k, n] -> [m, n].
[[nodiscard]] Tensor MatMul(const Tensor& a, const Tensor& b);

// ---- Reductions ----
[[nodiscard]] Tensor ReduceSum(const Tensor& a, int axis = kAllAxes,
                               bool keepdims = false);
[[nodiscard]] Tensor ReduceMean(const Tensor& a, int axis = kAllAxes,
                                bool keepdims = false);
[[nodiscard]] Tensor ReduceMax(const Tensor& a, int axis = kAllAxes,
                               bool keepdims = false);
[[nodiscard]] Tensor ReduceMin(const Tensor& a, int axis = kAllAxes,
                               bool keepdims = false);
// Index of the max along `axis` (kInt32 result).
[[nodiscard]] Tensor ArgMax(const Tensor& a, int axis);

// ---- Shape manipulation ----
[[nodiscard]] Tensor Reshape(const Tensor& a, Shape shape);
// Same; when `shape` holds no -1 the result shares it (no allocation).
[[nodiscard]] Tensor Reshape(const Tensor& a,
                             const std::shared_ptr<const Shape>& shape);
// Inserts a length-1 axis at `axis` (negative counts from the end).
[[nodiscard]] Tensor ExpandDims(const Tensor& a, int axis);
// General axis permutation, e.g. Transpose(x, {1, 0, 2}).
[[nodiscard]] Tensor Transpose(const Tensor& a, std::vector<int> perm);
[[nodiscard]] Tensor Concat(const std::vector<Tensor>& parts, int axis);
// a[..., start:start+len, ...] along `axis` (Concat's inverse); throws
// ValueError when the range leaves the axis.
[[nodiscard]] Tensor SliceAxis(const Tensor& a, int axis, int64_t start,
                               int64_t len);
// Stacks equal-shaped tensors along a new leading axis.
[[nodiscard]] Tensor Stack(const std::vector<Tensor>& parts);
// Splits along axis 0 into shape.dim(0) tensors.
[[nodiscard]] std::vector<Tensor> Unstack(const Tensor& a);

// ---- Indexing ----
// x[index] along axis 0 (one row / sub-tensor).
[[nodiscard]] Tensor IndexAxis0(const Tensor& a, int64_t index);
// Value-semantics update: returns a copy of `a` with a[index] = value.
// The rvalue overload overwrites just the row when `a` is sole-owned
// (turning the staged read-modify-write idiom from O(n) copy to O(row)).
[[nodiscard]] Tensor SetItemAxis0(const Tensor& a, int64_t index,
                                  const Tensor& value);
[[nodiscard]] Tensor SetItemAxis0(Tensor&& a, int64_t index,
                                  const Tensor& value);
// Gathers rows of `params` (axis 0) by integer `indices` (any shape);
// result shape = indices.shape + params.shape[1:].
[[nodiscard]] Tensor Gather(const Tensor& params, const Tensor& indices);

// ---- Selection ----
// Elementwise select with broadcast: cond ? x : y. `cond` may be a scalar
// or match leading dims of x/y (TF's tf.where semantics for our uses).
[[nodiscard]] Tensor Where(const Tensor& cond, const Tensor& x,
                           const Tensor& y);

// ---- Neural-network fused ops ----
[[nodiscard]] Tensor Softmax(const Tensor& logits);      // last axis
[[nodiscard]] Tensor LogSoftmax(const Tensor& logits);   // last axis
// The max of x[0, n) with the value and sign that ReduceMax's chain
// m = std::max(m, x[j]) from m = -inf gives (NaNs skipped; a zero max
// has the sign of the first zero met), taken in eight interleaved lanes.
// Softmax and LogSoftmax take each row's max with it.
[[nodiscard]] float RowMax(const float* x, int64_t n);
// Mean cross entropy over batch; labels are sparse int class ids [batch].
[[nodiscard]] Tensor SoftmaxCrossEntropy(const Tensor& logits,
                                         const Tensor& labels);
// d(mean xent)/d logits — used by both autodiff backends.
[[nodiscard]] Tensor SoftmaxCrossEntropyGrad(const Tensor& logits,
                                             const Tensor& labels);

// ---- Construction ----
[[nodiscard]] Tensor Range(int64_t n);  // kInt32 [0, n)
[[nodiscard]] Tensor OneHot(const Tensor& indices, int64_t depth);

// ---- Top-K (last axis) ----
// Returns {values, indices}, both shaped like `a` with last dim replaced
// by k, in one total order: NaN first, then values descending (+0 and -0
// equal), then the lower index first. Like torch.topk on NaN; the order
// makes the result unique, so every backend and k path agrees.
[[nodiscard]] std::pair<Tensor, Tensor> TopK(const Tensor& a, int64_t k);
// TopK scans each row once, keeping the k best so far: sorted, for k up
// to this; in a heap, above it.
inline constexpr int64_t kTopKScanMaxK = 32;

// ---- Gradient helper ----
// Reduce-sums `grad` down to `target` so that broadcasted binary ops can
// route gradients back to their (smaller) operand shapes.
[[nodiscard]] Tensor SumToShape(const Tensor& grad, const Shape& target);

// True if every element matches within `atol`.
[[nodiscard]] bool AllClose(const Tensor& a, const Tensor& b,
                            float atol = 1e-5f);

}  // namespace ag
