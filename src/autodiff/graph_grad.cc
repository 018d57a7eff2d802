#include "autodiff/graph_grad.h"

#include <functional>
#include <iterator>
#include <map>
#include <set>
#include <string_view>

#include "autodiff/vjp.h"
#include "support/error.h"

namespace ag::autodiff {

using graph::GraphContext;
using graph::Node;
using graph::Op;
using graph::Output;

namespace {

// The algebra vjp.h rules are written over, emitting one graph node per
// primitive.
struct GraphAlgebra {
  using Value = Output;
  GraphContext& ctx;

  Output Add(Output x, Output y) { return Op(ctx, "Add", {x, y}); }
  Output Sub(Output x, Output y) { return Op(ctx, "Sub", {x, y}); }
  Output Mul(Output x, Output y) { return Op(ctx, "Mul", {x, y}); }
  Output Div(Output x, Output y) { return Op(ctx, "Div", {x, y}); }
  Output Neg(Output x) { return Op(ctx, "Neg", {x}); }
  Output Greater(Output x, Output y) { return Op(ctx, "Greater", {x, y}); }
  Output MatMul(Output x, Output y) { return Op(ctx, "MatMul", {x, y}); }
  Output Transpose(Output x) {
    return Op(ctx, "Transpose", {x}, {{"perm", std::vector<int>{1, 0}}});
  }
  Output Scalar(float c) { return graph::Const(ctx, Tensor::Scalar(c)); }
  Output SumTo(Output g, Output like) {
    return Op(ctx, "SumToShapeOf", {g, like});
  }
  Output OnesLike(Output x) { return Op(ctx, "OnesLike", {x}); }
  Output ReshapeLike(Output g, Output like) {
    return Op(ctx, "ReshapeLike", {g, like});
  }
  Output ExpandDims(Output g, int axis) {
    return Op(ctx, "ExpandDims", {g}, {{"axis", int64_t{axis}}});
  }
  Output SizeRatio(Output x, Output y) {
    Output nx = Op(ctx, "Cast", {Op(ctx, "Size", {x})},
                   {{"dtype", DType::kFloat32}});
    Output ny = Op(ctx, "Cast", {Op(ctx, "Size", {y})},
                   {{"dtype", DType::kFloat32}});
    return Op(ctx, "Div", {nx, ny});
  }
  Output SoftmaxCrossEntropyGrad(Output logits, Output labels) {
    return Op(ctx, "SoftmaxCrossEntropyGrad", {logits, labels});
  }
};

// Maps (ctx, node, output grads) -> input grads (invalid Output = none).
using GraphGrad = std::vector<Output> (*)(GraphContext&, Node*,
                                          const std::vector<Output>&);

// Adapts a vjp.h rule to a node: its inputs, output 0 and axis/keepdims
// attrs; inputs the rule gives no gradient get none.
template <vjp::Rule<GraphAlgebra> kRule>
std::vector<Output> Shared(GraphContext& ctx, Node* n,
                           const std::vector<Output>& g) {
  vjp::Forward<Output> f{.x = n->inputs(), .y = n->out(0)};
  if (n->HasAttr("axis")) {
    f.axis = static_cast<int>(n->attr<int64_t>("axis"));
  }
  f.keepdims = n->HasAttr("keepdims") && n->attr<int64_t>("keepdims") != 0;
  GraphAlgebra algebra{ctx};
  std::vector<Output> grads = kRule(algebra, f, g[0]);
  grads.resize(n->inputs().size());
  return grads;
}

std::vector<Output> NoInputGrads(GraphContext&, Node* n,
                                 const std::vector<Output>&) {
  return std::vector<Output>(n->inputs().size());
}

struct GradRow {
  std::string_view op;
  GraphGrad grad;
};

// One row per op with a gradient. The shared rows come from vjp.h; the
// rest have no tape or Lantern counterpart.
constexpr GradRow kGradRows[] = {
    {"Add", &Shared<&vjp::Add<GraphAlgebra>>},
    {"Sub", &Shared<&vjp::Sub<GraphAlgebra>>},
    {"Mul", &Shared<&vjp::Mul<GraphAlgebra>>},
    {"Div", &Shared<&vjp::Div<GraphAlgebra>>},
    {"Neg", &Shared<&vjp::Neg<GraphAlgebra>>},
    {"Exp", &Shared<&vjp::Exp<GraphAlgebra>>},
    {"Log", &Shared<&vjp::Log<GraphAlgebra>>},
    {"Tanh", &Shared<&vjp::Tanh<GraphAlgebra>>},
    {"Sigmoid", &Shared<&vjp::Sigmoid<GraphAlgebra>>},
    {"Relu", &Shared<&vjp::Relu<GraphAlgebra>>},
    {"Sqrt", &Shared<&vjp::Sqrt<GraphAlgebra>>},
    {"Square", &Shared<&vjp::Square<GraphAlgebra>>},
    {"MatMul", &Shared<&vjp::MatMul<GraphAlgebra>>},
    {"Reshape", &Shared<&vjp::Reshape<GraphAlgebra>>},
    {"ReduceSum", &Shared<&vjp::ReduceSum<GraphAlgebra>>},
    {"ReduceMean", &Shared<&vjp::ReduceMean<GraphAlgebra>>},
    {"SoftmaxCrossEntropy", &Shared<&vjp::SoftmaxCrossEntropy<GraphAlgebra>>},

    {"Pow",
     [](GraphContext& ctx, Node* n, const std::vector<Output>& g) {
       Output a = n->inputs()[0];
       Output b = n->inputs()[1];
       Output one = graph::Const(ctx, Tensor::Scalar(1.0f));
       Output bm1 = Op(ctx, "Sub", {b, one});
       Output da = Op(ctx, "Mul", {b, Op(ctx, "Pow", {a, bm1})});
       Output ga = GraphAlgebra{ctx}.SumTo(Op(ctx, "Mul", {g[0], da}), a);
       Output db = Op(ctx, "Mul", {n->out(0), Op(ctx, "Log", {a})});
       Output gb = GraphAlgebra{ctx}.SumTo(Op(ctx, "Mul", {g[0], db}), b);
       return std::vector<Output>{ga, gb};
     }},
    {"Maximum",
     [](GraphContext& ctx, Node* n, const std::vector<Output>& g) {
       Output a = n->inputs()[0];
       Output b = n->inputs()[1];
       Output mask = Op(ctx, "GreaterEqual", {a, b});
       Output ga = GraphAlgebra{ctx}.SumTo(Op(ctx, "Mul", {g[0], mask}), a);
       Output gb = GraphAlgebra{ctx}.SumTo(
           Op(ctx, "Mul", {g[0], Op(ctx, "LogicalNot", {mask})}), b);
       return std::vector<Output>{ga, gb};
     }},
    {"Minimum",
     [](GraphContext& ctx, Node* n, const std::vector<Output>& g) {
       Output a = n->inputs()[0];
       Output b = n->inputs()[1];
       Output mask = Op(ctx, "LessEqual", {a, b});
       Output ga = GraphAlgebra{ctx}.SumTo(Op(ctx, "Mul", {g[0], mask}), a);
       Output gb = GraphAlgebra{ctx}.SumTo(
           Op(ctx, "Mul", {g[0], Op(ctx, "LogicalNot", {mask})}), b);
       return std::vector<Output>{ga, gb};
     }},
    {"Sin",
     [](GraphContext& ctx, Node* n, const std::vector<Output>& g) {
       return std::vector<Output>{
           Op(ctx, "Mul", {g[0], Op(ctx, "Cos", {n->inputs()[0]})})};
     }},
    {"Cos",
     [](GraphContext& ctx, Node* n, const std::vector<Output>& g) {
       Output s = Op(ctx, "Sin", {n->inputs()[0]});
       return std::vector<Output>{
           Op(ctx, "Neg", {Op(ctx, "Mul", {g[0], s})})};
     }},
    {"Cast",
     [](GraphContext&, Node*, const std::vector<Output>& g) {
       return std::vector<Output>{g[0]};
     }},
    {"Transpose",
     [](GraphContext& ctx, Node* n, const std::vector<Output>& g) {
       const std::vector<int>& perm = n->attr<std::vector<int>>("perm");
       std::vector<int> inverse(perm.size());
       for (size_t i = 0; i < perm.size(); ++i) {
         inverse[static_cast<size_t>(perm[i])] = static_cast<int>(i);
       }
       return std::vector<Output>{
           Op(ctx, "Transpose", {g[0]}, {{"perm", inverse}})};
     }},
    {"ExpandDims",
     [](GraphContext& ctx, Node* n, const std::vector<Output>& g) {
       return std::vector<Output>{
           Op(ctx, "ReshapeLike", {g[0], n->inputs()[0]})};
     }},
    {"Where",
     [](GraphContext& ctx, Node* n, const std::vector<Output>& g) {
       Output cond = n->inputs()[0];
       Output zeros = Op(ctx, "ZerosLike", {g[0]});
       return std::vector<Output>{Output{},
                                  Op(ctx, "Where", {cond, g[0], zeros}),
                                  Op(ctx, "Where", {cond, zeros, g[0]})};
     }},

    // Grads of ops that appear in gradient subgraphs themselves — needed
    // to differentiate *through* tf.gradients (second-order, e.g. MAML).
    {"OnesLike",
     [](GraphContext& ctx, Node* n, const std::vector<Output>&) {
       return std::vector<Output>{Op(ctx, "ZerosLike", {n->inputs()[0]})};
     }},
    {"ZerosLike",
     [](GraphContext& ctx, Node* n, const std::vector<Output>&) {
       return std::vector<Output>{Op(ctx, "ZerosLike", {n->inputs()[0]})};
     }},
    {"SumToShapeOf",
     [](GraphContext& ctx, Node* n, const std::vector<Output>& g) {
       // d/dx sum_to_shape(x, ref): broadcast the upstream grad back.
       Output ones = Op(ctx, "OnesLike", {n->inputs()[0]});
       return std::vector<Output>{Op(ctx, "Mul", {ones, g[0]}), Output{}};
     }},
    {"ReshapeLike",
     [](GraphContext& ctx, Node* n, const std::vector<Output>& g) {
       return std::vector<Output>{
           Op(ctx, "ReshapeLike", {g[0], n->inputs()[0]}), Output{}};
     }},
    // Shape metadata ops are constants w.r.t. values: stop gradients.
    {"Size", &NoInputGrads},
    {"Shape", &NoInputGrads},
    {"Dim0", &NoInputGrads},
    {"IndexAxis0",
     [](GraphContext& ctx, Node* n, const std::vector<Output>& g) {
       Output zeros = Op(ctx, "ZerosLike", {n->inputs()[0]});
       return std::vector<Output>{
           Op(ctx, "SetItemAxis0", {zeros, n->inputs()[1], g[0]}), Output{}};
     }},
};

const GradRow* FindGradRow(std::string_view op) {
  for (const GradRow& row : kGradRows) {
    if (row.op == op) return &row;
  }
  return nullptr;
}

}  // namespace

bool HasGradient(const std::string& op) { return FindGradRow(op) != nullptr; }

std::vector<std::string> GradientOps() {
  std::vector<std::string> ops;
  ops.reserve(std::size(kGradRows));
  for (const GradRow& row : kGradRows) ops.emplace_back(row.op);
  return ops;
}

std::vector<Output> Gradients(GraphContext& ctx, Output y,
                              const std::vector<Output>& xs) {
  graph::Graph* g = ctx.current();
  if (y.node->owner() != g) {
    throw StagingError("Gradients: y is not in the current graph");
  }

  // Topological order of y's ancestors (post-order DFS).
  std::vector<Node*> topo;
  std::set<Node*> visited;
  std::function<void(Node*)> dfs = [&](Node* n) {
    if (!visited.insert(n).second) return;
    for (const Output& in : n->inputs()) dfs(in.node);
    topo.push_back(n);
  };
  dfs(y.node);

  // Path pruning (as in tf.gradients): only nodes that lie between y and
  // some x need their gradient function; everything else is skipped even
  // if an (unused) gradient happens to flow into it.
  std::set<Node*> depends_on_x;
  for (const Output& x : xs) depends_on_x.insert(x.node);
  for (Node* n : topo) {  // topo is input-before-user
    if (depends_on_x.count(n) > 0) continue;
    for (const Output& in : n->inputs()) {
      if (depends_on_x.count(in.node) > 0) {
        depends_on_x.insert(n);
        break;
      }
    }
  }

  // Accumulated gradient per endpoint.
  std::map<std::pair<Node*, int>, Output> grads;
  grads[{y.node, y.index}] = Op(ctx, "OnesLike", {y});

  auto accumulate = [&](Node* node, int index, Output grad) {
    if (!grad.valid()) return;
    auto key = std::make_pair(node, index);
    auto it = grads.find(key);
    if (it == grads.end()) {
      grads[key] = grad;
    } else {
      it->second = Op(ctx, "Add", {it->second, grad});
    }
  };

  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    Node* node = *it;
    const std::string& op = node->op();
    // Leaves (Const, Placeholder, Variable, Arg: no inputs) terminate
    // propagation, as do nodes that no x depends on.
    if (node->inputs().empty() || depends_on_x.count(node) == 0) continue;
    // Gather this node's output grads; skip if none flowed here.
    std::vector<Output> out_grads(
        static_cast<size_t>(node->num_outputs()));
    bool any = false;
    for (int i = 0; i < node->num_outputs(); ++i) {
      auto git = grads.find({node, i});
      if (git != grads.end()) {
        out_grads[static_cast<size_t>(i)] = git->second;
        any = true;
      }
    }
    if (!any) continue;
    // Fill missing output grads with zeros.
    for (int i = 0; i < node->num_outputs(); ++i) {
      if (!out_grads[static_cast<size_t>(i)].valid()) {
        out_grads[static_cast<size_t>(i)] =
            Op(ctx, "ZerosLike", {node->out(i)});
      }
    }

    const GradRow* row = FindGradRow(op);
    if (row == nullptr) {
      throw StagingError("no gradient registered for op '" + op +
                         "' (node '" + node->name() + "')");
    }
    std::vector<Output> in_grads = row->grad(ctx, node, out_grads);
    if (in_grads.size() != node->inputs().size()) {
      throw InternalError("gradient for '" + op +
                          "' returned wrong number of input grads");
    }
    for (size_t i = 0; i < in_grads.size(); ++i) {
      accumulate(node->inputs()[i].node, node->inputs()[i].index,
                 in_grads[i]);
    }
  }

  std::vector<Output> result;
  result.reserve(xs.size());
  for (const Output& x : xs) {
    auto git = grads.find({x.node, x.index});
    if (git != grads.end()) {
      result.push_back(git->second);
    } else {
      result.push_back(Op(ctx, "ZerosLike", {x}));
    }
  }
  return result;
}

}  // namespace ag::autodiff
