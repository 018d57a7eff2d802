#include "lantern/executor.h"

#include <algorithm>
#include <functional>
#include <optional>

#include "autodiff/vjp.h"
#include "runtime/cancellation.h"
#include "runtime/parallel_for.h"
#include "support/error.h"
#include "tensor/tensor_ops.h"

namespace ag::lantern {

const Tensor& AsTensorL(const LValue& v) {
  const Tensor* t = std::get_if<Tensor>(&v);
  if (t == nullptr) throw RuntimeError("lantern: expected a tensor value");
  return *t;
}

const LTreePtr& AsTreeL(const LValue& v) {
  const LTreePtr* t = std::get_if<LTreePtr>(&v);
  if (t == nullptr) throw RuntimeError("lantern: expected a tree value");
  return *t;
}

namespace {

namespace vjp = autodiff::vjp;

// The shared backward rule (autodiff/vjp.h) of each differentiable LOp;
// none for leaves, comparisons, tree accessors and the control ops,
// whose gradients the backward pass routes itself.
vjp::TensorVjp RuleFor(LOp op) {
  switch (op) {
    case LOp::kAdd: return vjp::kAdd;
    case LOp::kSub: return vjp::kSub;
    case LOp::kMul: return vjp::kMul;
    case LOp::kDiv: return vjp::kDiv;
    case LOp::kNeg: return vjp::kNeg;
    case LOp::kTanh: return vjp::kTanh;
    case LOp::kSigmoid: return vjp::kSigmoid;
    case LOp::kRelu: return vjp::kRelu;
    case LOp::kExp: return vjp::kExp;
    case LOp::kLog: return vjp::kLog;
    case LOp::kSquare: return vjp::kSquare;
    case LOp::kMatMul: return vjp::kMatMul;
    case LOp::kConcat0: return vjp::kConcat;
    case LOp::kSlice0: return vjp::kSliceRows;
    case LOp::kReshape: return vjp::kReshape;
    case LOp::kReduceSum: return vjp::kReduceSum;
    case LOp::kGather: return vjp::kGather;
    case LOp::kConst:
    case LOp::kParam:
    case LOp::kGlobal:
    case LOp::kGreater:
    case LOp::kLess:
    case LOp::kEq:
    case LOp::kNot:
    case LOp::kTreeIsEmpty:
    case LOp::kTreeLeft:
    case LOp::kTreeRight:
    case LOp::kTreeValue:
    case LOp::kTreeLabel:
    case LOp::kIf:
    case LOp::kCall:
      break;
  }
  return {};
}

Block CloneBlock(const Block& src) {
  Block out;
  out.result = src.result;
  out.results = src.results;
  out.bindings.reserve(src.bindings.size());
  for (const Binding& b : src.bindings) {
    Binding c;
    c.id = b.id;
    c.op = b.op;
    c.inputs = b.inputs;
    c.const_value = b.const_value;
    c.param_index = b.param_index;
    c.slice_start = b.slice_start;
    c.slice_len = b.slice_len;
    c.reshape_dims = b.reshape_dims;
    c.callee = b.callee;
    c.out_ids = b.out_ids;
    if (b.then_block) {
      c.then_block = std::make_unique<Block>(CloneBlock(*b.then_block));
    }
    if (b.else_block) {
      c.else_block = std::make_unique<Block>(CloneBlock(*b.else_block));
    }
    out.bindings.push_back(std::move(c));
  }
  return out;
}

}  // namespace

Executor::Executor(const LProgram& program) : program_(&compiled_) {
  Compile(program);
}

void Executor::RenumberBlock(Block* block, std::map<int, int>* remap,
                             int* next, std::vector<int>* global_of) {
  for (Binding& b : block->bindings) {
    for (int& in : b.inputs) in = remap->at(in);
    if (b.op == LOp::kIf) {
      RenumberBlock(b.then_block.get(), remap, next, global_of);
      RenumberBlock(b.else_block.get(), remap, next, global_of);
      for (Block* branch : {b.then_block.get(), b.else_block.get()}) {
        if (branch->result >= 0) branch->result = remap->at(branch->result);
        for (int& r : branch->results) r = remap->at(r);
      }
    }
    const int dense = (*next)++;
    (*remap)[b.id] = dense;
    b.id = dense;
    global_of->push_back(b.op == LOp::kGlobal ? b.param_index : -1);
    // Extra If outputs get their own dense slots.
    for (int& out_id : b.out_ids) {
      if (out_id == dense) continue;  // placeholder; fixed below
      auto it = remap->find(out_id);
      if (it != remap->end()) {
        out_id = it->second;
        continue;
      }
      const int extra = (*next)++;
      (*remap)[out_id] = extra;
      out_id = extra;
      global_of->push_back(-1);
    }
    if (!b.out_ids.empty()) b.out_ids[0] = dense;
  }
}

void Executor::Compile(const LProgram& source) {
  // Clone, then renumber each function's bindings into a dense
  // function-local slot space — the "closure compilation" step that lets
  // frames be small flat arrays.
  compiled_.entry = source.entry;
  compiled_.num_globals = source.num_globals;
  for (const auto& [name, fn] : source.functions) {
    LFunction out;
    out.name = fn.name;
    out.num_params = fn.num_params;
    out.param_is_tree = fn.param_is_tree;
    out.body = CloneBlock(fn.body);
    std::map<int, int> remap;
    int next = 0;
    std::vector<int> global_of;
    RenumberBlock(&out.body, &remap, &next, &global_of);
    out.body.result = remap.at(out.body.result);
    for (int& r : out.body.results) r = remap.at(r);
    out.num_slots = next;
    compiled_.num_ids = std::max(compiled_.num_ids, next);
    global_of_[name] = std::move(global_of);
    compiled_.functions.emplace(name, std::move(out));
  }
}

LValue Executor::Run(const std::vector<LValue>& params,
                     const std::vector<Tensor>& globals,
                     const obs::RunOptions* options,
                     obs::RunMetadata* metadata) {
  const bool instrument = options != nullptr && options->enabled();
  std::optional<obs::RunRecorder> recorder;
  const int64_t t0 = instrument ? obs::NowNs() : 0;
  if (instrument) {
    recorder.emplace(*options);
    rec_ = &*recorder;
  }
  // Honour the intra-op sharding budget for the heavy tensor kernels.
  std::optional<runtime::IntraOpScope> intra;
  if (options != nullptr && options->intra_op_threads > 0) {
    intra.emplace(options->intra_op_threads);
  }
  // Interruption: own check when the options ask for one, otherwise
  // inherit an enclosing run's check (e.g. a lantern call made from an
  // engine already running under a deadline).
  std::optional<runtime::CancelCheck> cancel;
  std::optional<runtime::CancelCheckScope> cancel_scope;
  if (options != nullptr && options->cancellable()) {
    cancel.emplace(options->cancel_token, options->deadline_ms,
                   options->inject_cancel_after_kernels,
                   /*max_while_iterations=*/0, options->deadline_ns);
    cancel_scope.emplace(&*cancel);
    // Admission poll: an already-expired absolute deadline (or an
    // already-cancelled token) fails before any op executes.
    cancel->Poll("Executor::Run entry");
  }
  cancel_ = runtime::CurrentCancelCheck();
  max_call_depth_ =
      options != nullptr
          ? std::min<int64_t>(options->max_while_iterations, kMaxCallDepth)
          : kMaxCallDepth;
  call_depth_ = 0;
  globals_ = &globals;
  const LFunction& entry = program_->function(program_->entry);
  std::unique_ptr<Frame> frame;
  try {
    frame = ForwardFunction(entry, params);
  } catch (...) {
    globals_ = nullptr;
    rec_ = nullptr;
    cancel_ = nullptr;
    throw;
  }
  globals_ = nullptr;
  cancel_ = nullptr;
  if (instrument) {
    rec_ = nullptr;
    const int64_t wall = obs::NowNs() - t0;
    recorder->RecordPhase("forward", wall);
    if (obs::Tracer* tracer = recorder->tracer()) {
      tracer->AddComplete("Executor::Run", "session", t0, t0 + wall);
    }
    recorder->Finish(metadata);
    if (metadata != nullptr) {
      metadata->runs += 1;
      metadata->run_wall_ns += wall;
    }
  }
  return frame->slots[static_cast<size_t>(entry.body.result)];
}

std::pair<Tensor, std::vector<Tensor>> Executor::RunWithGradients(
    const std::vector<LValue>& params) {
  std::vector<Tensor> unused;
  return RunWithGradients(params, {}, &unused);
}

std::pair<Tensor, std::vector<Tensor>> Executor::RunWithGradients(
    const std::vector<LValue>& params, const std::vector<Tensor>& globals,
    std::vector<Tensor>* global_grads, const obs::RunOptions* options,
    obs::RunMetadata* metadata) {
  const bool instrument = options != nullptr && options->enabled();
  std::optional<obs::RunRecorder> recorder;
  const int64_t t0 = instrument ? obs::NowNs() : 0;
  if (instrument) {
    recorder.emplace(*options);
    rec_ = &*recorder;
  }
  // Honour the intra-op sharding budget for forward and backward passes.
  std::optional<runtime::IntraOpScope> intra;
  if (options != nullptr && options->intra_op_threads > 0) {
    intra.emplace(options->intra_op_threads);
  }
  std::optional<runtime::CancelCheck> cancel;
  std::optional<runtime::CancelCheckScope> cancel_scope;
  if (options != nullptr && options->cancellable()) {
    cancel.emplace(options->cancel_token, options->deadline_ms,
                   options->inject_cancel_after_kernels,
                   /*max_while_iterations=*/0, options->deadline_ns);
    cancel_scope.emplace(&*cancel);
    cancel->Poll("Executor::RunWithGradients entry");
  }
  cancel_ = runtime::CurrentCancelCheck();
  max_call_depth_ =
      options != nullptr
          ? std::min<int64_t>(options->max_while_iterations, kMaxCallDepth)
          : kMaxCallDepth;
  call_depth_ = 0;
  globals_ = &globals;
  global_accums_.assign(globals.size(), {});
  for (size_t i = 0; i < globals.size(); ++i) {
    global_accums_[i].assign(
        static_cast<size_t>(globals[i].num_elements()), 0.0f);
  }

  const LFunction& entry = program_->function(program_->entry);
  std::unique_ptr<Frame> frame;
  Tensor result;
  try {
    frame = ForwardFunction(entry, params);
    const int64_t fwd_end = instrument ? obs::NowNs() : 0;
    if (instrument) recorder->RecordPhase("forward", fwd_end - t0);
    result = AsTensorL(frame->slots[static_cast<size_t>(entry.body.result)]);
    if (result.num_elements() != 1) {
      throw RuntimeError(
          "lantern: gradients require a scalar result, got shape " +
          result.shape().str());
    }
    Accumulate(*frame, entry.body.result, Tensor::Ones(result.shape()));
    BackwardFunction(*frame);
    if (instrument) {
      recorder->RecordPhase("backward", obs::NowNs() - fwd_end);
    }
  } catch (...) {
    // Leave the executor reusable after an interrupted/failed run: the
    // per-run pointers must never dangle into a dead frame.
    globals_ = nullptr;
    rec_ = nullptr;
    cancel_ = nullptr;
    throw;
  }
  cancel_ = nullptr;

  // Collect parameter gradients in declaration order.
  std::vector<Tensor> grads(params.size());
  for (const Binding& b : entry.body.bindings) {
    if (b.op != LOp::kParam) continue;
    const auto i = static_cast<size_t>(b.param_index);
    if (entry.param_is_tree[i]) continue;
    if (frame->has_grad[static_cast<size_t>(b.id)]) {
      grads[i] = frame->grads[static_cast<size_t>(b.id)];
    } else {
      grads[i] = Tensor::Zeros(AsTensorL(params[i]).shape());
    }
  }
  // Materialize the in-place global accumulators.
  global_grads->clear();
  global_grads->reserve(globals.size());
  for (size_t i = 0; i < globals.size(); ++i) {
    global_grads->push_back(Tensor::FromVector(std::move(global_accums_[i]),
                                               globals[i].shape()));
  }
  global_accums_.clear();
  globals_ = nullptr;
  if (instrument) {
    rec_ = nullptr;
    const int64_t wall = obs::NowNs() - t0;
    if (obs::Tracer* tracer = recorder->tracer()) {
      tracer->AddComplete("Executor::RunWithGradients", "session", t0,
                          t0 + wall);
    }
    recorder->Finish(metadata);
    if (metadata != nullptr) {
      metadata->runs += 1;
      metadata->run_wall_ns += wall;
    }
  }
  return {result, std::move(grads)};
}

std::unique_ptr<Executor::Frame> Executor::ForwardFunction(
    const LFunction& fn, std::vector<LValue> args) {
  if (static_cast<int>(args.size()) != fn.num_params) {
    throw RuntimeError("lantern: function '" + fn.name + "' expects " +
                       std::to_string(fn.num_params) + " args");
  }
  // Staged loops are recursive calls here, so the call depth is the
  // iteration count of a runaway loop; raise a structured error well
  // before the native stack would overflow. No RAII needed: depth is
  // reset at every Run entry, and on unwind the whole run dies anyway.
  if (call_depth_ >= max_call_depth_) {
    throw RuntimeError(
        "lantern: call depth exceeded max_while_iterations bound (" +
        std::to_string(max_call_depth_) + ") in function '" + fn.name +
        "'; runaway staged loop/recursion?");
  }
  ++call_depth_;  // balanced by the decrement before the return below
  auto frame = std::make_unique<Frame>();
  frame->fn = &fn;
  frame->global_of = &global_of_.at(fn.name);
  frame->args = std::move(args);
  frame->slots.resize(static_cast<size_t>(fn.num_slots));
  // grads/has_grad stay empty until the backward pass touches the frame.
  ForwardBlock(fn.body, *frame);
  --call_depth_;  // on unwind the whole run dies, so no RAII needed
  return frame;
}

void Executor::ForwardBlock(const Block& block, Frame& frame) {
  for (const Binding& b : block.bindings) {
    // Per-op poll point: one branch when not cancellable.
    if (cancel_ != nullptr) {
      cancel_->Poll("lantern op in function", frame.fn->name);
    }
    ++bindings_executed_;
    const auto id = static_cast<size_t>(b.id);
    auto in = [&frame, &b](size_t i) -> const LValue& {
      return frame.slots[static_cast<size_t>(b.inputs[i])];
    };
    auto t = [&in](size_t i) -> const Tensor& { return AsTensorL(in(i)); };

    // kIf / kCall recurse through this function, so their inclusive
    // times are excluded from step stats (leaf ops only: sums stay
    // within the run wall time). They still show as nesting events in
    // the trace, added below.
    const int64_t op_start = rec_ != nullptr ? obs::NowNs() : 0;

    switch (b.op) {
      case LOp::kConst:
        frame.slots[id] = b.const_value;
        break;
      case LOp::kParam:
        frame.slots[id] = frame.args[static_cast<size_t>(b.param_index)];
        break;
      case LOp::kGlobal:
        if (globals_ == nullptr ||
            static_cast<size_t>(b.param_index) >= globals_->size()) {
          throw RuntimeError("lantern: global " +
                             std::to_string(b.param_index) + " not bound");
        }
        frame.slots[id] = (*globals_)[static_cast<size_t>(b.param_index)];
        break;
      case LOp::kAdd: frame.slots[id] = Add(t(0), t(1)); break;
      case LOp::kSub: frame.slots[id] = Sub(t(0), t(1)); break;
      case LOp::kMul: frame.slots[id] = Mul(t(0), t(1)); break;
      case LOp::kDiv: frame.slots[id] = Div(t(0), t(1)); break;
      case LOp::kNeg: frame.slots[id] = Neg(t(0)); break;
      case LOp::kTanh: frame.slots[id] = Tanh(t(0)); break;
      case LOp::kSigmoid: frame.slots[id] = Sigmoid(t(0)); break;
      case LOp::kRelu: frame.slots[id] = Relu(t(0)); break;
      case LOp::kExp: frame.slots[id] = Exp(t(0)); break;
      case LOp::kLog: frame.slots[id] = Log(t(0)); break;
      case LOp::kSquare: frame.slots[id] = Square(t(0)); break;
      case LOp::kMatMul: frame.slots[id] = MatMul(t(0), t(1)); break;
      case LOp::kConcat0:
        frame.slots[id] = Concat({t(0), t(1)}, 0);
        break;
      case LOp::kSlice0:
        frame.slots[id] = SliceAxis(t(0), 0, b.slice_start, b.slice_len);
        break;
      case LOp::kReduceSum: frame.slots[id] = ReduceSum(t(0)); break;
      case LOp::kReshape: {
        std::vector<int64_t> dims(b.reshape_dims.begin(),
                                  b.reshape_dims.end());
        frame.slots[id] = t(0).Reshaped(Shape(std::move(dims)));
        break;
      }
      case LOp::kGather:
        frame.slots[id] = Gather(t(0), t(1));
        break;
      case LOp::kGreater: frame.slots[id] = Greater(t(0), t(1)); break;
      case LOp::kLess: frame.slots[id] = Less(t(0), t(1)); break;
      case LOp::kEq: frame.slots[id] = Equal(t(0), t(1)); break;
      case LOp::kNot: frame.slots[id] = LogicalNot(t(0)); break;
      case LOp::kTreeIsEmpty:
        frame.slots[id] = Tensor::ScalarBool(AsTreeL(in(0))->is_empty);
        break;
      case LOp::kTreeLeft:
        frame.slots[id] = AsTreeL(in(0))->left;
        break;
      case LOp::kTreeRight:
        frame.slots[id] = AsTreeL(in(0))->right;
        break;
      case LOp::kTreeValue:
        frame.slots[id] = AsTreeL(in(0))->value;
        break;
      case LOp::kTreeLabel:
        frame.slots[id] = AsTreeL(in(0))->label;
        break;
      case LOp::kIf: {
        const bool taken = t(0).scalar_bool();
        frame.taken.emplace_back(b.id, taken);
        const Block& branch = taken ? *b.then_block : *b.else_block;
        ForwardBlock(branch, frame);
        if (branch.results.empty()) {
          frame.slots[id] = frame.slots[static_cast<size_t>(branch.result)];
        } else {
          for (size_t j = 0; j < branch.results.size(); ++j) {
            frame.slots[static_cast<size_t>(b.out_ids[j])] =
                frame.slots[static_cast<size_t>(branch.results[j])];
          }
        }
        break;
      }
      case LOp::kCall: {
        const LFunction& callee = program_->function(b.callee);
        std::vector<LValue> call_args;
        call_args.reserve(b.inputs.size());
        for (size_t i = 0; i < b.inputs.size(); ++i) {
          call_args.push_back(in(i));
        }
        std::unique_ptr<Frame> child =
            ForwardFunction(callee, std::move(call_args));
        if (callee.body.results.empty()) {
          frame.slots[id] =
              child->slots[static_cast<size_t>(callee.body.result)];
        } else {
          for (size_t j = 0; j < callee.body.results.size(); ++j) {
            frame.slots[static_cast<size_t>(b.out_ids[j])] =
                child->slots[static_cast<size_t>(callee.body.results[j])];
          }
        }
        frame.calls.emplace_back(b.id, std::move(child));
        break;
      }
    }

    if (rec_ != nullptr) {
      if (b.op == LOp::kIf || b.op == LOp::kCall) {
        if (obs::Tracer* tracer = rec_->tracer()) {
          std::string name = LOpName(b.op);
          if (b.op == LOp::kCall) name += " " + b.callee;
          tracer->AddComplete(name, "control", op_start, obs::NowNs());
        }
      } else {
        const Tensor* out = std::get_if<Tensor>(&frame.slots[id]);
        const int64_t bytes =
            out != nullptr
                ? out->num_elements() * (out->dtype() == DType::kBool ? 1 : 4)
                : 0;
        rec_->RecordNode(LOpName(b.op), "lantern", op_start, obs::NowNs(),
                         bytes);
      }
    }
  }
}

void Executor::Accumulate(Frame& frame, int id, const Tensor& grad) {
  const auto i = static_cast<size_t>(id);
  // Gradients flowing into a kGlobal read go straight into the shared
  // in-place accumulator (the `grad +=` cells of the generated code).
  const int g = (*frame.global_of)[i];
  if (g >= 0) {
    AccumulateGlobal(g, grad);
    return;
  }
  if (frame.grads.empty()) {
    frame.grads.resize(frame.slots.size());
    frame.has_grad.assign(frame.slots.size(), false);
  }
  if (frame.has_grad[i]) {
    frame.grads[i] = Add(frame.grads[i], grad);
  } else {
    frame.grads[i] = grad;
    frame.has_grad[i] = true;
  }
}

void Executor::AccumulateGlobal(int global_index, const Tensor& grad) {
  std::vector<float>& acc = global_accums_[static_cast<size_t>(global_index)];
  if (static_cast<int64_t>(acc.size()) != grad.num_elements()) {
    throw RuntimeError("lantern: global gradient shape mismatch");
  }
  const float* g = grad.data();
  for (size_t i = 0; i < acc.size(); ++i) acc[i] += g[i];
}

void Executor::BackwardFunction(Frame& frame) {
  if (frame.grads.empty()) {
    frame.grads.resize(frame.slots.size());
    frame.has_grad.assign(frame.slots.size(), false);
  }
  BackwardBlock(frame.fn->body, frame);
}

void Executor::BackwardBlock(const Block& block, Frame& frame) {
  vjp::Forward<Tensor> forward;  // reused: one input vector per block
  for (auto it = block.bindings.rbegin(); it != block.bindings.rend();
       ++it) {
    if (cancel_ != nullptr) {
      cancel_->Poll("lantern backward op in function", frame.fn->name);
    }
    const Binding& b = *it;
    const auto id = static_cast<size_t>(b.id);
    if (b.op == LOp::kIf || b.op == LOp::kCall) {
      // Seed the taken branch's (or the callee's) results with the
      // binding's output grads and run it backward once; a call then
      // routes its parameter grads to its arguments. A single-output
      // binding is its own output and its block's `result`.
      const bool call = b.op == LOp::kCall;
      Frame& inner = call ? *frame.CallFrame(b.id) : frame;
      const Block& body = call                ? inner.fn->body
                          : frame.Taken(b.id) ? *b.then_block
                                              : *b.else_block;
      const bool single = body.results.empty();
      bool any = false;
      for (size_t j = 0; j < (single ? 1 : body.results.size()); ++j) {
        const auto oj = static_cast<size_t>(single ? b.id : b.out_ids[j]);
        if (frame.has_grad.empty() || !frame.has_grad[oj]) continue;
        Accumulate(inner, single ? body.result : body.results[j],
                   frame.grads[oj]);
        any = true;
      }
      if (!any) continue;
      if (!call) {
        BackwardBlock(body, frame);
        continue;
      }
      BackwardFunction(inner);
      if (inner.has_grad.empty()) continue;
      for (const Binding& pb : body.bindings) {
        if (pb.op != LOp::kParam) continue;
        const auto pi = static_cast<size_t>(pb.param_index);
        if (inner.fn->param_is_tree[pi]) continue;
        if (inner.has_grad[static_cast<size_t>(pb.id)]) {
          Accumulate(frame, b.inputs[pi],
                     inner.grads[static_cast<size_t>(pb.id)]);
        }
      }
      continue;
    }
    const vjp::TensorVjp op = RuleFor(b.op);
    if (op.rule == nullptr) continue;
    if (frame.has_grad.empty() || !frame.has_grad[id]) continue;
    const Tensor g = frame.grads[id];
    auto t = [&frame, &b](size_t i) -> const Tensor& {
      return AsTensorL(frame.slots[static_cast<size_t>(b.inputs[i])]);
    };
    if (b.op == LOp::kGather) {
      const int table_global =
          (*frame.global_of)[static_cast<size_t>(b.inputs[0])];
      if (table_global >= 0) {
        // Sparse in-place scatter into the shared accumulator: O(rows
        // touched), not O(table) — this is what the generated code's
        // mutable gradient cells buy.
        const Tensor& table = t(0);
        vjp::AddRowsAt(
            global_accums_[static_cast<size_t>(table_global)].data(),
            table.num_elements() / table.shape().dim(0), t(1), g);
        continue;
      }
    }
    forward.x.clear();
    if ((op.reads & vjp::kReadsX) != 0) {
      for (size_t i = 0; i < b.inputs.size(); ++i) forward.x.push_back(t(i));
    }
    forward.y = (op.reads & vjp::kReadsY) != 0 ? AsTensorL(frame.slots[id])
                                                : Tensor();
    forward.axis = b.op == LOp::kConcat0 ? 0 : kAllAxes;
    forward.start = b.slice_start;
    vjp::TensorAlgebra algebra;
    const std::vector<Tensor> grads = op.rule(algebra, forward, g);
    if (grads.size() > b.inputs.size()) {
      throw InternalError("Lantern backward: more gradients than inputs");
    }
    for (size_t i = 0; i < grads.size(); ++i) {
      Accumulate(frame, b.inputs[i], grads[i]);
    }
  }
}

}  // namespace ag::lantern
