#include "graph/ops.h"

#include <algorithm>
#include <iterator>

namespace ag::graph {

Output GraphContext::Resolve(Output o) {
  if (!o.valid()) throw InternalError("Resolve: invalid output");
  Graph* owner = o.node->owner();
  if (owner == current()) return o;

  // Find the stack level that owns `o`.
  int level = -1;
  for (size_t i = 0; i < stack_.size(); ++i) {
    if (stack_[i] == owner) {
      level = static_cast<int>(i);
      break;
    }
  }
  if (level < 0) {
    throw StagingError(
        "tensor '" + o.node->name() +
        "' belongs to a different graph and cannot be captured here");
  }
  // Capture through each FuncGraph between `level` and the top.
  Output cur = o;
  for (size_t i = static_cast<size_t>(level) + 1; i < stack_.size(); ++i) {
    auto* fg = dynamic_cast<FuncGraph*>(stack_[i]);
    if (fg == nullptr) {
      throw InternalError("Resolve: non-root graph is not a FuncGraph");
    }
    cur = fg->CaptureExternal(cur);
  }
  return cur;
}

namespace {

using K = StepKind;
using R = DtypeRule;
using F = FlopModel;
using FO = FusedOp;

constexpr FusedForm Bin(FO op) { return {true, op, true}; }
constexpr FusedForm Un(FO op) { return {true, op, false}; }

// A pure kernel op: the shape of most rows.
constexpr OpDef Pure(std::string_view name, R rule = R::kPropagate,
                     FusedForm fused = {}, F flops = F::kNone) {
  return {name, rule, K::kKernel, kOpPure, fused, flops};
}

// An op with effects, or one the Session runs itself.
constexpr OpDef Effects(std::string_view name, K kind, uint8_t effects,
                        R rule = R::kPropagate) {
  return {name, rule, kind, effects, {}, F::kNone};
}

// The op table. Adding a graph op means adding its row here, its kernel
// in exec/kernels.cc, and optionally a gradient (autodiff/graph_grad.cc)
// and a FusedOp case (tensor/tensor_ops.cc).
constexpr OpDef kOpTable[] = {
    // ---- structure, state and control flow --------------------------
    Effects("Arg", K::kArg, 0),
    Effects("Placeholder", K::kPlaceholder, 0),
    Effects("Variable", K::kVariable, kOpStateful),
    Effects("Assign", K::kAssign, kOpStateful | kOpDceRoot),
    Effects("Cond", K::kCond, 0),
    Effects("While", K::kWhile, 0),
    Effects("NoOp", K::kKernel, 0),
    Effects("Print", K::kKernel, kOpStateful | kOpDceRoot),
    Effects("Assert", K::kKernel, kOpPure | kOpDceRoot),
    Pure("Const"),

    // ---- elementwise -------------------------------------------------
    Pure("Add", R::kPropagate, Bin(FO::kAdd), F::kUnit),
    Pure("Sub", R::kPropagate, Bin(FO::kSub), F::kUnit),
    Pure("Mul", R::kPropagate, Bin(FO::kMul), F::kUnit),
    Pure("Div", R::kFloat, Bin(FO::kDiv), F::kUnit),
    Pure("FloorDiv", R::kPropagate, Bin(FO::kFloorDiv)),
    Pure("Mod", R::kPropagate, Bin(FO::kMod)),
    Pure("Pow", R::kFloat, Bin(FO::kPow), F::kUnit),
    Pure("Maximum", R::kPropagate, Bin(FO::kMaximum), F::kUnit),
    Pure("Minimum", R::kPropagate, Bin(FO::kMinimum), F::kUnit),
    Pure("Less", R::kBool, Bin(FO::kLess)),
    Pure("LessEqual", R::kBool, Bin(FO::kLessEqual)),
    Pure("Greater", R::kBool, Bin(FO::kGreater)),
    Pure("GreaterEqual", R::kBool, Bin(FO::kGreaterEqual)),
    Pure("Equal", R::kBool, Bin(FO::kEqual)),
    Pure("NotEqual", R::kBool, Bin(FO::kNotEqual)),
    Pure("LogicalAnd", R::kBool, Bin(FO::kLogicalAnd)),
    Pure("LogicalOr", R::kBool, Bin(FO::kLogicalOr)),
    Pure("LogicalNot", R::kBool, Un(FO::kLogicalNot)),
    Pure("Neg", R::kPropagate, Un(FO::kNeg), F::kUnit),
    Pure("Exp", R::kFloat, Un(FO::kExp), F::kUnit),
    Pure("Log", R::kFloat, Un(FO::kLog), F::kUnit),
    Pure("Tanh", R::kFloat, Un(FO::kTanh), F::kUnit),
    Pure("Sigmoid", R::kFloat, Un(FO::kSigmoid), F::kUnit),
    Pure("Relu", R::kFloat, Un(FO::kRelu), F::kUnit),
    Pure("Sqrt", R::kFloat, Un(FO::kSqrt), F::kUnit),
    Pure("Abs", R::kPropagate, Un(FO::kAbs), F::kUnit),
    Pure("Square", R::kPropagate, Un(FO::kSquare), F::kUnit),
    Pure("Sin", R::kFloat, Un(FO::kSin)),
    Pure("Cos", R::kFloat, Un(FO::kCos)),
    Pure("Cast", R::kCast, Un(FO::kCast)),
    Pure("FusedElementwise", R::kFused, {}, F::kFusedBody),

    // ---- softmax, matmul and quantization (the quantize_weights pass)
    Pure("Softmax", R::kFloat, {}, F::kUnit),
    Pure("LogSoftmax", R::kFloat, {}, F::kUnit),
    Pure("SoftmaxCrossEntropy", R::kFloat),
    Pure("SoftmaxCrossEntropyGrad", R::kFloat),
    Pure("MatMul", R::kPropagate, {}, F::kMatMul),
    Pure("Quantize", R::kInt8, {}, F::kUnit),
    Pure("Dequantize", R::kFloat, {}, F::kUnit),
    Pure("QuantizedMatMul", R::kFloat, {}, F::kMatMul),

    // ---- reductions, shapes and data movement -----------------------
    Pure("ReduceSum", R::kPropagate, {}, F::kReduce),
    Pure("ReduceMean", R::kPropagate, {}, F::kReduce),
    Pure("ReduceMax", R::kPropagate, {}, F::kReduce),
    Pure("ReduceMin", R::kPropagate, {}, F::kReduce),
    Pure("ArgMax", R::kInt), Pure("TopK", R::kTopK),
    Pure("Reshape"), Pure("ReshapeLike"), Pure("ExpandDims"),
    Pure("Transpose"), Pure("Concat"), Pure("Pack"),
    Pure("Shape", R::kInt), Pure("Size", R::kInt), Pure("Dim0", R::kInt),
    Pure("ZerosLike"), Pure("OnesLike"), Pure("SumToShapeOf"),
    Pure("IndexAxis0"), Pure("SetItemAxis0"), Pure("SliceRows"),
    Pure("Gather"), Pure("Where", R::kWhere), Pure("OneHot", R::kFloat),
    Pure("Range", R::kInt),

    // ---- random draws and TensorLists: never folded or merged -------
    Effects("RandomNormal", K::kKernel, 0, R::kFloat),
    Effects("RandomUniform", K::kKernel, 0, R::kFloat),
    Effects("TensorListNew", K::kKernel, 0, R::kList),
    Effects("TensorListPushBack", K::kKernel, 0, R::kList),
    Effects("TensorListSet", K::kKernel, 0, R::kList),
    // Output 0 is the shrunk list, output 1 the popped tensor.
    Effects("TensorListPopBack", K::kKernel, 0, R::kList),
    Effects("TensorListStack", K::kKernel, 0),
    Effects("TensorListGet", K::kKernel, 0),
    Effects("TensorListLen", K::kKernel, 0, R::kInt),
};

const OpDef& RequireOpDef(const std::string& op) {
  const OpDef* def = FindOpDef(op);
  if (def == nullptr) {
    throw InternalError("graph op '" + op +
                        "' has no row in the op table (graph/ops.cc)");
  }
  return *def;
}

DType InferDtypeFor(const OpDef& def, const std::vector<Output>& inputs,
                    const AttrMap& attrs) {
  switch (def.dtype) {
    case DtypeRule::kBool:
      return DType::kBool;
    case DtypeRule::kInt:
      return DType::kInt32;
    case DtypeRule::kInt8:
      return DType::kInt8;
    case DtypeRule::kFloat:
      return DType::kFloat32;
    case DtypeRule::kCast: {
      auto it = attrs.find("dtype");
      if (it != attrs.end()) return std::get<DType>(it->second);
      return DType::kFloat32;
    }
    case DtypeRule::kFused: {
      // A fused chain's dtype is whatever its body returns.
      auto it = attrs.find("body");
      if (it != attrs.end()) {
        const auto* fg = dynamic_cast<const FuncGraph*>(
            std::get<std::shared_ptr<Graph>>(it->second).get());
        if (fg != nullptr && fg->returns.size() == 1 &&
            fg->returns[0].valid()) {
          return fg->returns[0].node->output_dtype(fg->returns[0].index);
        }
      }
      return DType::kFloat32;
    }
    case DtypeRule::kWhere:
      // Not input 0's bool: that made every While carrying a tf.where
      // value dtype-inconsistent (found by AGV105).
      if (inputs.size() >= 2 && inputs[1].valid()) {
        return inputs[1].node->output_dtype(inputs[1].index);
      }
      break;
    case DtypeRule::kPropagate:
    case DtypeRule::kTopK:
    case DtypeRule::kList:
      break;
  }
  // Dtype-propagating ops: use the first tensor input if present.
  if (!inputs.empty() && inputs[0].valid()) {
    return inputs[0].node->output_dtype(inputs[0].index);
  }
  return DType::kFloat32;
}

}  // namespace

std::span<const OpDef> OpTable() { return kOpTable; }

const OpDef* FindOpDef(std::string_view op) {
  static const auto* kIndex = [] {
    auto* index = new std::unordered_map<std::string_view, const OpDef*>();
    index->reserve(std::size(kOpTable));
    for (const OpDef& def : kOpTable) index->emplace(def.name, &def);
    return index;
  }();
  auto it = kIndex->find(op);
  return it == kIndex->end() ? nullptr : it->second;
}

StepKind KindForOp(std::string_view op) {
  const OpDef* def = FindOpDef(op);
  return def == nullptr ? StepKind::kKernel : def->kind;
}

bool IsPureOp(std::string_view op) {
  const OpDef* def = FindOpDef(op);
  return def != nullptr && def->pure();
}

bool FusedOpForName(std::string_view op, FusedOp* fused, bool* is_binary) {
  const OpDef* def = FindOpDef(op);
  if (def == nullptr || !def->fused.fusable) return false;
  *fused = def->fused.op;
  *is_binary = def->fused.binary;
  return true;
}

bool NodeIsStateful(const Node& node, StatefulMemo& memo) {
  const OpDef* def = FindOpDef(node.op());
  if (def != nullptr && def->stateful()) return true;
  for (const auto& [key, value] : node.attrs()) {
    const auto* sub = std::get_if<std::shared_ptr<Graph>>(&value);
    if (sub == nullptr || *sub == nullptr) continue;
    const Graph* g = sub->get();
    // An in-progress graph reads as stateless: the cycle guard for
    // malformed graphs whose subgraph attrs refer back to an ancestor.
    auto [it, fresh] = memo.try_emplace(g, false);
    if (!fresh) {
      if (it->second) return true;
      continue;
    }
    const bool found = std::any_of(
        g->nodes().begin(), g->nodes().end(),
        [&memo](const auto& n) { return NodeIsStateful(*n, memo); });
    memo[g] = found;  // re-lookup: the recursion may have rehashed
    if (found) return true;
  }
  return false;
}

DType InferDtype(const std::string& op, const std::vector<Output>& inputs,
                 const AttrMap& attrs) {
  return InferDtypeFor(RequireOpDef(op), inputs, attrs);
}

bool InferredDtypeIsAuthoritative(const std::string& op) {
  const OpDef* def = FindOpDef(op);
  return def != nullptr && def->dtype < DtypeRule::kPropagate;
}

std::vector<Output> OpN(GraphContext& ctx, const std::string& op,
                        std::vector<Output> inputs, AttrMap attrs,
                        int num_outputs) {
  const OpDef& def = RequireOpDef(op);
  for (Output& in : inputs) in = ctx.Resolve(in);
  const DType dtype = InferDtypeFor(def, inputs, attrs);
  Node* node = ctx.current()->AddNode(op, std::move(inputs), std::move(attrs),
                                      num_outputs);
  for (int i = 0; i < num_outputs; ++i) node->set_output_dtype(i, dtype);
  if (def.dtype == DtypeRule::kTopK && num_outputs == 2) {
    node->set_output_dtype(1, DType::kInt32);
  }
  if (def.dtype == DtypeRule::kList) node->set_output_is_list(0, true);
  std::vector<Output> outs;
  outs.reserve(static_cast<size_t>(num_outputs));
  for (int i = 0; i < num_outputs; ++i) outs.push_back(node->out(i));
  return outs;
}

Output Op(GraphContext& ctx, const std::string& op, std::vector<Output> inputs,
          AttrMap attrs) {
  return OpN(ctx, op, std::move(inputs), std::move(attrs), 1)[0];
}

Output Const(GraphContext& ctx, Tensor value) {
  const DType dtype = value.dtype();
  Node* node = ctx.current()->AddNode("Const", {},
                                      {{"value", std::move(value)}}, 1);
  node->set_output_dtype(0, dtype);
  return node->out(0);
}

Output Placeholder(GraphContext& ctx, const std::string& name, DType dtype) {
  Node* node =
      ctx.current()->AddNode("Placeholder", {}, {{"name", name}}, 1);
  node->set_output_dtype(0, dtype);
  return node->out(0);
}

Output Variable(GraphContext& ctx, const std::string& var_name, DType dtype) {
  Node* node =
      ctx.current()->AddNode("Variable", {}, {{"var_name", var_name}}, 1);
  node->set_output_dtype(0, dtype);
  return node->out(0);
}

Output Assign(GraphContext& ctx, const std::string& var_name, Output value) {
  value = ctx.Resolve(value);
  const DType dtype = value.node->output_dtype(value.index);
  Node* node = ctx.current()->AddNode("Assign", {value},
                                      {{"var_name", var_name}}, 1);
  node->set_output_dtype(0, dtype);
  return node->out(0);
}

std::vector<Output> Cond(GraphContext& ctx, Output pred,
                         const std::function<std::vector<Output>()>& then_fn,
                         const std::function<std::vector<Output>()>& else_fn) {
  pred = ctx.Resolve(pred);

  auto then_graph = std::make_shared<FuncGraph>();
  ctx.Push(then_graph.get());
  std::vector<Output> then_outs;
  try {
    then_outs = then_fn();
  } catch (...) {
    ctx.Pop();
    throw;
  }
  for (Output& o : then_outs) o = ctx.Resolve(o);
  then_graph->returns = then_outs;
  ctx.Pop();

  auto else_graph = std::make_shared<FuncGraph>();
  ctx.Push(else_graph.get());
  std::vector<Output> else_outs;
  try {
    else_outs = else_fn();
  } catch (...) {
    ctx.Pop();
    throw;
  }
  for (Output& o : else_outs) o = ctx.Resolve(o);
  else_graph->returns = else_outs;
  ctx.Pop();

  if (then_outs.size() != else_outs.size()) {
    throw StagingError(
        "cond: branches produce a different number of values (" +
        std::to_string(then_outs.size()) + " vs " +
        std::to_string(else_outs.size()) +
        "); all code paths must produce consistent values");
  }

  // Call-site inputs: pred, then-captures, else-captures. The captures
  // live in the *current* graph (or are themselves resolvable there).
  std::vector<Output> inputs{pred};
  for (const Output& c : then_graph->captures) {
    inputs.push_back(ctx.Resolve(c));
  }
  for (const Output& c : else_graph->captures) {
    inputs.push_back(ctx.Resolve(c));
  }

  const int n = static_cast<int>(then_outs.size());
  Node* node = ctx.current()->AddNode(
      "Cond", std::move(inputs),
      {{"then_branch", std::static_pointer_cast<Graph>(then_graph)},
       {"else_branch", std::static_pointer_cast<Graph>(else_graph)},
       {"then_ncaps", static_cast<int64_t>(then_graph->captures.size())}},
      std::max(n, 1));
  for (int i = 0; i < n; ++i) {
    const Output& o = then_outs[static_cast<size_t>(i)];
    node->set_output_dtype(i, o.node->output_dtype(o.index));
    node->set_output_is_list(i, o.node->output_is_list(o.index));
  }
  std::vector<Output> outs;
  outs.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) outs.push_back(node->out(i));
  return outs;
}

std::vector<Output> While(
    GraphContext& ctx, std::vector<Output> init,
    const std::function<Output(const std::vector<Output>&)>& cond_fn,
    const std::function<std::vector<Output>(const std::vector<Output>&)>&
        body_fn) {
  const int n = static_cast<int>(init.size());
  for (Output& o : init) o = ctx.Resolve(o);

  auto make_args = [n](FuncGraph* g, const std::vector<Output>& init_vals) {
    g->set_num_explicit_args(n);
    std::vector<Output> args;
    args.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      Node* arg = g->AddNode("Arg", {}, {{"index", static_cast<int64_t>(i)}});
      const Output& o = init_vals[static_cast<size_t>(i)];
      arg->set_output_dtype(0, o.node->output_dtype(o.index));
      arg->set_output_is_list(0, o.node->output_is_list(o.index));
      args.push_back(arg->out(0));
    }
    return args;
  };

  auto cond_graph = std::make_shared<FuncGraph>();
  ctx.Push(cond_graph.get());
  try {
    std::vector<Output> args = make_args(cond_graph.get(), init);
    Output test = ctx.Resolve(cond_fn(args));
    cond_graph->returns = {test};
  } catch (...) {
    ctx.Pop();
    throw;
  }
  ctx.Pop();

  auto body_graph = std::make_shared<FuncGraph>();
  ctx.Push(body_graph.get());
  try {
    std::vector<Output> args = make_args(body_graph.get(), init);
    std::vector<Output> next = body_fn(args);
    if (static_cast<int>(next.size()) != n) {
      throw StagingError(
          "while: body must return as many values as there are loop "
          "variables (" +
          std::to_string(n) + "), got " + std::to_string(next.size()));
    }
    for (Output& o : next) o = ctx.Resolve(o);
    body_graph->returns = next;
  } catch (...) {
    ctx.Pop();
    throw;
  }
  ctx.Pop();

  std::vector<Output> inputs = init;
  for (const Output& c : cond_graph->captures) {
    inputs.push_back(ctx.Resolve(c));
  }
  for (const Output& c : body_graph->captures) {
    inputs.push_back(ctx.Resolve(c));
  }

  Node* node = ctx.current()->AddNode(
      "While", std::move(inputs),
      {{"cond", std::static_pointer_cast<Graph>(cond_graph)},
       {"body", std::static_pointer_cast<Graph>(body_graph)},
       {"num_loop_vars", static_cast<int64_t>(n)},
       {"cond_ncaps", static_cast<int64_t>(cond_graph->captures.size())}},
      std::max(n, 1));
  for (int i = 0; i < n; ++i) {
    const Output& o = init[static_cast<size_t>(i)];
    node->set_output_dtype(i, o.node->output_dtype(o.index));
    node->set_output_is_list(i, o.node->output_is_list(o.index));
  }
  std::vector<Output> outs;
  outs.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) outs.push_back(node->out(i));
  return outs;
}

}  // namespace ag::graph
