#include "eager/eager.h"

#include <algorithm>
#include <map>

#include "obs/trace.h"
#include "support/error.h"

// Times one eager-op dispatch into the thread's installed tracer; a
// no-op when none is installed (see obs::TracerInstallScope).
#define AG_EAGER_TRACE(op_name)                                     \
  ::ag::obs::TraceScope ag_eager_trace_scope_(                      \
      ::ag::obs::CurrentTracer(), op_name, "eager")

namespace ag::eager {

namespace vjp = autodiff::vjp;

thread_local GradientTape* GradientTape::active_ = nullptr;

GradientTape::GradientTape() {
  previous_ = active_;
  active_ = this;
}

GradientTape::~GradientTape() { active_ = previous_; }

ETensor GradientTape::Watch(const Tensor& t) {
  const int id = Record({}, nullptr, {});
  return ETensor(t, id);
}

int GradientTape::Record(std::vector<int> input_ids,
                         vjp::Rule<vjp::TensorAlgebra> rule,
                         vjp::Forward<Tensor> forward) {
  entries_.push_back(Entry{std::move(input_ids), rule, std::move(forward)});
  return static_cast<int>(entries_.size()) - 1;
}

std::vector<Tensor> GradientTape::Gradient(
    const ETensor& target, const std::vector<ETensor>& sources) {
  AG_EAGER_TRACE("GradientTape::Gradient");
  if (!target.tracked()) {
    throw ValueError("Gradient: target is not tracked by this tape");
  }
  std::map<int, Tensor> grads;
  grads[target.id] = Tensor::Ones(target.value.shape());

  for (int i = target.id; i >= 0; --i) {
    auto git = grads.find(i);
    if (git == grads.end()) continue;
    const Entry& entry = entries_[static_cast<size_t>(i)];
    if (entry.rule == nullptr) continue;  // watched leaf
    vjp::TensorAlgebra algebra;
    std::vector<Tensor> input_grads =
        entry.rule(algebra, entry.forward, git->second);
    if (input_grads.size() > entry.input_ids.size()) {
      throw InternalError("tape backward returned more gradients than inputs");
    }
    for (size_t k = 0; k < input_grads.size(); ++k) {
      const int id = entry.input_ids[k];
      if (id == kNoId) continue;
      auto [it, fresh] = grads.try_emplace(id, input_grads[k]);
      if (!fresh) it->second = ag::Add(it->second, input_grads[k]);
    }
  }

  std::vector<Tensor> out;
  out.reserve(sources.size());
  for (const ETensor& s : sources) {
    auto it = s.tracked() ? grads.find(s.id) : grads.end();
    out.push_back(it != grads.end() ? it->second
                                    : Tensor::Zeros(s.value.shape()));
  }
  return out;
}

namespace {

// Returns the forward result `forward.y`, recorded on the active tape with
// `op` when some input is tracked. The entry keeps only the values the
// rule reads. Only values the caller passes as ETensors can be tracked.
ETensor Taped(const vjp::TensorVjp& op, const std::vector<ETensor>& inputs,
              vjp::Forward<Tensor> forward) {
  GradientTape* tape = GradientTape::active();
  const bool any_tracked =
      std::any_of(inputs.begin(), inputs.end(),
                  [](const ETensor& in) { return in.tracked(); });
  if (tape == nullptr || !any_tracked) return ETensor(std::move(forward.y));
  std::vector<int> ids;
  ids.reserve(inputs.size());
  for (const ETensor& in : inputs) {
    ids.push_back(in.id);
    if ((op.reads & vjp::kReadsX) != 0) forward.x.push_back(in.value);
  }
  Tensor y = std::move(forward.y);
  if ((op.reads & vjp::kReadsY) != 0) forward.y = y;
  const int id = tape->Record(std::move(ids), op.rule, std::move(forward));
  return ETensor(std::move(y), id);
}

}  // namespace

ETensor Add(const ETensor& a, const ETensor& b) {
  AG_EAGER_TRACE("Add");
  return Taped(vjp::kAdd, {a, b}, {.y = ag::Add(a.value, b.value)});
}

ETensor Sub(const ETensor& a, const ETensor& b) {
  AG_EAGER_TRACE("Sub");
  return Taped(vjp::kSub, {a, b}, {.y = ag::Sub(a.value, b.value)});
}

ETensor Mul(const ETensor& a, const ETensor& b) {
  AG_EAGER_TRACE("Mul");
  return Taped(vjp::kMul, {a, b}, {.y = ag::Mul(a.value, b.value)});
}

ETensor Div(const ETensor& a, const ETensor& b) {
  AG_EAGER_TRACE("Div");
  return Taped(vjp::kDiv, {a, b}, {.y = ag::Div(a.value, b.value)});
}

ETensor Neg(const ETensor& a) {
  AG_EAGER_TRACE("Neg");
  return Taped(vjp::kNeg, {a}, {.y = ag::Neg(a.value)});
}

ETensor MatMul(const ETensor& a, const ETensor& b) {
  AG_EAGER_TRACE("MatMul");
  return Taped(vjp::kMatMul, {a, b}, {.y = ag::MatMul(a.value, b.value)});
}

ETensor Tanh(const ETensor& a) {
  AG_EAGER_TRACE("Tanh");
  return Taped(vjp::kTanh, {a}, {.y = ag::Tanh(a.value)});
}

ETensor Sigmoid(const ETensor& a) {
  AG_EAGER_TRACE("Sigmoid");
  return Taped(vjp::kSigmoid, {a}, {.y = ag::Sigmoid(a.value)});
}

ETensor Relu(const ETensor& a) {
  AG_EAGER_TRACE("Relu");
  return Taped(vjp::kRelu, {a}, {.y = ag::Relu(a.value)});
}

ETensor Exp(const ETensor& a) {
  AG_EAGER_TRACE("Exp");
  return Taped(vjp::kExp, {a}, {.y = ag::Exp(a.value)});
}

ETensor Log(const ETensor& a) {
  AG_EAGER_TRACE("Log");
  return Taped(vjp::kLog, {a}, {.y = ag::Log(a.value)});
}

ETensor Square(const ETensor& a) {
  AG_EAGER_TRACE("Square");
  return Taped(vjp::kSquare, {a}, {.y = ag::Square(a.value)});
}

ETensor Sqrt(const ETensor& a) {
  AG_EAGER_TRACE("Sqrt");
  return Taped(vjp::kSqrt, {a}, {.y = ag::Sqrt(a.value)});
}

ETensor ReduceSum(const ETensor& a, int axis, bool keepdims) {
  AG_EAGER_TRACE("ReduceSum");
  return Taped(vjp::kReduceSum, {a},
               {.y = ag::ReduceSum(a.value, axis, keepdims),
                .axis = axis,
                .keepdims = keepdims});
}

ETensor ReduceMean(const ETensor& a, int axis, bool keepdims) {
  AG_EAGER_TRACE("ReduceMean");
  return Taped(vjp::kReduceMean, {a},
               {.y = ag::ReduceMean(a.value, axis, keepdims),
                .axis = axis,
                .keepdims = keepdims});
}

ETensor Concat(const std::vector<ETensor>& parts, int axis) {
  AG_EAGER_TRACE("Concat");
  std::vector<Tensor> values;
  values.reserve(parts.size());
  for (const ETensor& p : parts) values.push_back(p.value);
  return Taped(vjp::kConcat, parts,
               {.y = ag::Concat(values, axis), .axis = axis});
}

ETensor Gather(const ETensor& params, const Tensor& indices) {
  AG_EAGER_TRACE("Gather");
  return Taped(vjp::kGather, {params, indices},
               {.y = ag::Gather(params.value, indices)});
}

ETensor Reshape(const ETensor& a, Shape shape) {
  AG_EAGER_TRACE("Reshape");
  return Taped(vjp::kReshape, {a}, {.y = ag::Reshape(a.value, shape)});
}

ETensor SliceRows(const ETensor& a, int64_t start, int64_t len) {
  AG_EAGER_TRACE("SliceRows");
  return Taped(vjp::kSliceRows, {a},
               {.y = ag::SliceAxis(a.value, 0, start, len), .start = start});
}

ETensor SoftmaxCrossEntropy(const ETensor& logits, const Tensor& labels) {
  AG_EAGER_TRACE("SoftmaxCrossEntropy");
  return Taped(vjp::kSoftmaxCrossEntropy, {logits, labels},
               {.y = ag::SoftmaxCrossEntropy(logits.value, labels)});
}

}  // namespace ag::eager
