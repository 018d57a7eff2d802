// Define-by-run (eager / PyTorch-style) execution with tape-based
// reverse-mode autodiff.
//
// Every op executes immediately on concrete tensors; when a GradientTape
// is active and an operand is watched, the op records its shared VJP rule
// (autodiff/vjp.h) with the values that rule reads.
// This is the baseline the paper's evaluation compares against: per-op
// dispatch overhead on every call, and a fresh trace on every step.
#pragma once

#include <memory>
#include <vector>

#include "autodiff/vjp.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace ag::eager {

inline constexpr int kNoId = -1;

// An eager tensor handle: a concrete value plus an optional tape id.
struct ETensor {
  Tensor value;
  int id = kNoId;  // kNoId when not tracked by the active tape

  ETensor() = default;
  /*implicit*/ ETensor(Tensor v) : value(std::move(v)) {}
  ETensor(Tensor v, int id_in) : value(std::move(v)), id(id_in) {}

  [[nodiscard]] bool tracked() const { return id != kNoId; }
};

// Records ops for reverse-mode differentiation. At most one tape is
// active at a time (per thread of use); ops consult the active tape via
// the free functions below.
class GradientTape {
 public:
  GradientTape();
  ~GradientTape();
  GradientTape(const GradientTape&) = delete;
  GradientTape& operator=(const GradientTape&) = delete;

  // Marks `t` as differentiable; returns a tracked handle.
  [[nodiscard]] ETensor Watch(const Tensor& t);

  // Computes d target / d sources. Call after the forward pass.
  [[nodiscard]] std::vector<Tensor> Gradient(
      const ETensor& target, const std::vector<ETensor>& sources);

  // ---- used by op implementations ----
  // Records an op whose backward is `rule` (vjp.h) over `forward`; the
  // rule's gradient k flows to input_ids[k].
  int Record(std::vector<int> input_ids,
             autodiff::vjp::Rule<autodiff::vjp::TensorAlgebra> rule,
             autodiff::vjp::Forward<Tensor> forward);

  static GradientTape* active() { return active_; }

 private:
  struct Entry {
    std::vector<int> input_ids;
    autodiff::vjp::Rule<autodiff::vjp::TensorAlgebra> rule;  // null: leaf
    autodiff::vjp::Forward<Tensor> forward;
  };
  std::vector<Entry> entries_;  // entry i produced tensor id i
  static thread_local GradientTape* active_;
  GradientTape* previous_ = nullptr;
};

// ---- eager ops (immediate execution; record on the active tape) ----
[[nodiscard]] ETensor Add(const ETensor& a, const ETensor& b);
[[nodiscard]] ETensor Sub(const ETensor& a, const ETensor& b);
[[nodiscard]] ETensor Mul(const ETensor& a, const ETensor& b);
[[nodiscard]] ETensor Div(const ETensor& a, const ETensor& b);
[[nodiscard]] ETensor Neg(const ETensor& a);
[[nodiscard]] ETensor MatMul(const ETensor& a, const ETensor& b);
[[nodiscard]] ETensor Tanh(const ETensor& a);
[[nodiscard]] ETensor Sigmoid(const ETensor& a);
[[nodiscard]] ETensor Relu(const ETensor& a);
[[nodiscard]] ETensor Exp(const ETensor& a);
[[nodiscard]] ETensor Log(const ETensor& a);
[[nodiscard]] ETensor Square(const ETensor& a);
[[nodiscard]] ETensor Sqrt(const ETensor& a);
[[nodiscard]] ETensor ReduceSum(const ETensor& a, int axis = kAllAxes,
                                bool keepdims = false);
[[nodiscard]] ETensor ReduceMean(const ETensor& a, int axis = kAllAxes,
                                 bool keepdims = false);
[[nodiscard]] ETensor Concat(const std::vector<ETensor>& parts, int axis);
[[nodiscard]] ETensor SoftmaxCrossEntropy(const ETensor& logits,
                                          const Tensor& labels);
// Row lookup with scatter-add backward (embedding tables).
[[nodiscard]] ETensor Gather(const ETensor& params, const Tensor& indices);
[[nodiscard]] ETensor Reshape(const ETensor& a, Shape shape);
// Contiguous row slice [start, start+len) along axis 0.
[[nodiscard]] ETensor SliceRows(const ETensor& a, int64_t start,
                                int64_t len);

}  // namespace ag::eager
