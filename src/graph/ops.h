// Graph construction API: the op table, a GraphContext tracking the
// current (sub)graph, generic op emission with dtype inference, and
// functional control-flow builders (Cond / While) with automatic closure
// capture — the same mechanism TF's FuncGraph uses.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "tensor/tensor_ops.h"

namespace ag::graph {

// ---- The op table ----------------------------------------------------
// One row per graph op (ops.cc) holds every fact other layers need about
// it. Kernels (exec/kernels.cc) and the gradient table
// (autodiff/graph_grad.cc, whose shared rows are autodiff/vjp.h rules)
// stay name-keyed in their own layers, above ag_graph;
// tests/op_table_test.cc pins both to the table.

// How a plan step executes. exec::Session::Plan::Kind aliases it and the
// byte values are the .agc plan encoding: append, never reorder.
enum class StepKind : uint8_t {
  kKernel, kArg, kCond, kWhile, kPlaceholder, kVariable, kAssign,
};

// Output dtype rule. kBool..kFused fix the dtype by the op's semantics
// (authoritative for AGV104); the rest follow the inputs.
enum class DtypeRule : uint8_t {
  kBool, kInt, kFloat, kInt8,
  kCast,       // the "dtype" attr
  kFused,      // whatever the "body" attr returns
  kPropagate,  // input 0's dtype
  kWhere,      // input 1's: Where(cond, x, y) carries the value dtype
  kTopK,       // input 0's, plus an int32 index output 1
  kList,       // input 0's; output 0 is a TensorList handle
};

// Effect flags (OpDef::effects).
inline constexpr uint8_t kOpPure = 1;      // folding, CSE, LICM may rewrite
inline constexpr uint8_t kOpStateful = 2;  // ordered by the stateful chain
inline constexpr uint8_t kOpDceRoot = 4;   // DCE keeps it without consumers

// Step-stats FLOP estimate: none, one per output element, 2·m·k·n, one
// per output element per FusedElementwise body op, or one per input
// element (reductions).
enum class FlopModel : uint8_t {
  kNone,
  kUnit,
  kMatMul,
  kFusedBody,
  kReduce,
};

// Scalar form inside a FusedElementwise body (graph/fusion.h).
struct FusedForm {
  bool fusable = false;
  FusedOp op = FusedOp::kAdd;
  bool binary = false;
};

struct OpDef {
  std::string_view name;
  DtypeRule dtype;
  StepKind kind;
  uint8_t effects;
  FusedForm fused;
  FlopModel flops;

  [[nodiscard]] bool pure() const { return (effects & kOpPure) != 0; }
  [[nodiscard]] bool stateful() const { return (effects & kOpStateful) != 0; }
  [[nodiscard]] bool dce_root() const { return (effects & kOpDceRoot) != 0; }
};

[[nodiscard]] std::span<const OpDef> OpTable();

// The row for `op`, or null: one hash lookup, no allocation.
[[nodiscard]] const OpDef* FindOpDef(std::string_view op);

// Derived lookups. Names without a row are kernel steps (whose kernel
// lookup then fails with a structured error), impure, and unfusable.
[[nodiscard]] StepKind KindForOp(std::string_view op);
[[nodiscard]] bool IsPureOp(std::string_view op);
[[nodiscard]] bool FusedOpForName(std::string_view op, FusedOp* fused,
                                  bool* is_binary);

// Subgraph -> whether it transitively holds a stateful node.
using StatefulMemo = std::unordered_map<const Graph*, bool>;

// True when executing `node` can have observable side effects: its row
// is stateful (Variable/Assign/Print), or a subgraph attr (Cond
// branches, While cond/body) transitively holds such a node.
[[nodiscard]] bool NodeIsStateful(const Node& node, StatefulMemo& memo);

// Tracks the stack of graphs under construction. Ops are added to the
// innermost graph; tensors from enclosing graphs are captured through
// each FuncGraph level automatically.
class GraphContext {
 public:
  explicit GraphContext(Graph* root) { stack_.push_back(root); }

  [[nodiscard]] Graph* current() const { return stack_.back(); }
  [[nodiscard]] Graph* root() const { return stack_.front(); }
  [[nodiscard]] size_t depth() const { return stack_.size(); }

  void Push(FuncGraph* g) { stack_.push_back(g); }
  void Pop() { stack_.pop_back(); }

  // Makes `o` usable in the current graph, inserting capture Args through
  // intermediate FuncGraphs as needed.
  [[nodiscard]] Output Resolve(Output o);

 private:
  std::vector<Graph*> stack_;
};

// Emits a node of type `op` into the current graph, resolving inputs
// through captures, and returns its first output. Output dtypes are
// inferred from the op's table row and inputs; an op without a row
// throws InternalError.
Output Op(GraphContext& ctx, const std::string& op, std::vector<Output> inputs,
          AttrMap attrs = {});

// Multi-output variant; returns all outputs.
std::vector<Output> OpN(GraphContext& ctx, const std::string& op,
                        std::vector<Output> inputs, AttrMap attrs,
                        int num_outputs);

// ---- leaf constructors ----
Output Const(GraphContext& ctx, Tensor value);
Output Placeholder(GraphContext& ctx, const std::string& name, DType dtype);
// Persistent variable (state survives across Session::Run calls).
Output Variable(GraphContext& ctx, const std::string& var_name, DType dtype);
Output Assign(GraphContext& ctx, const std::string& var_name, Output value);

// ---- functional control flow ----

// tf.cond equivalent. `then_fn` / `else_fn` build their branch bodies into
// fresh FuncGraphs (pushed on `ctx`) and return the branch outputs; both
// must return the same number of outputs.
std::vector<Output> Cond(GraphContext& ctx, Output pred,
                         const std::function<std::vector<Output>()>& then_fn,
                         const std::function<std::vector<Output>()>& else_fn);

// tf.while_loop equivalent over explicit loop variables. `cond_fn` maps
// the loop vars (as subgraph Args) to a scalar-bool Output; `body_fn`
// maps them to their next values.
std::vector<Output> While(
    GraphContext& ctx, std::vector<Output> init,
    const std::function<Output(const std::vector<Output>&)>& cond_fn,
    const std::function<std::vector<Output>(const std::vector<Output>&)>&
        body_fn);

// Infers the output dtype of `op` given input dtypes (index 0 output).
// Throws InternalError for an op without a row.
[[nodiscard]] DType InferDtype(const std::string& op,
                               const std::vector<Output>& inputs,
                               const AttrMap& attrs);

// True when InferDtype's answer for `op` is fixed by the op's semantics
// (comparisons are bool, Range is int, Cast is its attr, ...) rather
// than propagated from inputs. The graph verifier only enforces AGV104
// dtype consistency where this holds.
[[nodiscard]] bool InferredDtypeIsAuthoritative(const std::string& op);

}  // namespace ag::graph
