#include "autodiff/graph_grad.h"

#include <functional>
#include <map>
#include <set>
#include <unordered_map>

#include "support/error.h"

namespace ag::autodiff {

using graph::GraphContext;
using graph::Node;
using graph::Op;
using graph::Output;

namespace {

// Maps (ctx, node, output grads) -> input grads (invalid Output = none).
using GradFn = std::function<std::vector<Output>(
    GraphContext&, Node*, const std::vector<Output>&)>;

Output SumTo(GraphContext& ctx, Output grad, Output like) {
  return Op(ctx, "SumToShapeOf", {grad, like});
}

const std::unordered_map<std::string, GradFn>& GradRegistry() {
  static const auto* kRegistry = [] {
    auto* r = new std::unordered_map<std::string, GradFn>();
    auto& reg = *r;

    reg["Add"] = [](GraphContext& ctx, Node* n,
                    const std::vector<Output>& g) {
      return std::vector<Output>{SumTo(ctx, g[0], n->inputs()[0]),
                                 SumTo(ctx, g[0], n->inputs()[1])};
    };
    reg["Sub"] = [](GraphContext& ctx, Node* n,
                    const std::vector<Output>& g) {
      return std::vector<Output>{
          SumTo(ctx, g[0], n->inputs()[0]),
          SumTo(ctx, Op(ctx, "Neg", {g[0]}), n->inputs()[1])};
    };
    reg["Mul"] = [](GraphContext& ctx, Node* n,
                    const std::vector<Output>& g) {
      Output a = n->inputs()[0];
      Output b = n->inputs()[1];
      return std::vector<Output>{SumTo(ctx, Op(ctx, "Mul", {g[0], b}), a),
                                 SumTo(ctx, Op(ctx, "Mul", {g[0], a}), b)};
    };
    reg["Div"] = [](GraphContext& ctx, Node* n,
                    const std::vector<Output>& g) {
      Output a = n->inputs()[0];
      Output b = n->inputs()[1];
      Output ga = SumTo(ctx, Op(ctx, "Div", {g[0], b}), a);
      Output num = Op(ctx, "Mul", {g[0], a});
      Output den = Op(ctx, "Mul", {b, b});
      Output gb =
          SumTo(ctx, Op(ctx, "Neg", {Op(ctx, "Div", {num, den})}), b);
      return std::vector<Output>{ga, gb};
    };
    reg["Pow"] = [](GraphContext& ctx, Node* n,
                    const std::vector<Output>& g) {
      Output a = n->inputs()[0];
      Output b = n->inputs()[1];
      Output one = graph::Const(ctx, Tensor::Scalar(1.0f));
      Output bm1 = Op(ctx, "Sub", {b, one});
      Output da = Op(ctx, "Mul", {b, Op(ctx, "Pow", {a, bm1})});
      Output ga = SumTo(ctx, Op(ctx, "Mul", {g[0], da}), a);
      Output db = Op(ctx, "Mul", {n->out(0), Op(ctx, "Log", {a})});
      Output gb = SumTo(ctx, Op(ctx, "Mul", {g[0], db}), b);
      return std::vector<Output>{ga, gb};
    };
    reg["Maximum"] = [](GraphContext& ctx, Node* n,
                        const std::vector<Output>& g) {
      Output a = n->inputs()[0];
      Output b = n->inputs()[1];
      Output mask = Op(ctx, "GreaterEqual", {a, b});
      Output ga = SumTo(ctx, Op(ctx, "Mul", {g[0], mask}), a);
      Output gb = SumTo(
          ctx, Op(ctx, "Mul", {g[0], Op(ctx, "LogicalNot", {mask})}), b);
      return std::vector<Output>{ga, gb};
    };
    reg["Minimum"] = [](GraphContext& ctx, Node* n,
                        const std::vector<Output>& g) {
      Output a = n->inputs()[0];
      Output b = n->inputs()[1];
      Output mask = Op(ctx, "LessEqual", {a, b});
      Output ga = SumTo(ctx, Op(ctx, "Mul", {g[0], mask}), a);
      Output gb = SumTo(
          ctx, Op(ctx, "Mul", {g[0], Op(ctx, "LogicalNot", {mask})}), b);
      return std::vector<Output>{ga, gb};
    };

    reg["Neg"] = [](GraphContext& ctx, Node*, const std::vector<Output>& g) {
      return std::vector<Output>{Op(ctx, "Neg", {g[0]})};
    };
    reg["Exp"] = [](GraphContext& ctx, Node* n,
                    const std::vector<Output>& g) {
      return std::vector<Output>{Op(ctx, "Mul", {g[0], n->out(0)})};
    };
    reg["Log"] = [](GraphContext& ctx, Node* n,
                    const std::vector<Output>& g) {
      return std::vector<Output>{Op(ctx, "Div", {g[0], n->inputs()[0]})};
    };
    reg["Tanh"] = [](GraphContext& ctx, Node* n,
                     const std::vector<Output>& g) {
      Output y = n->out(0);
      Output one = graph::Const(ctx, Tensor::Scalar(1.0f));
      Output d = Op(ctx, "Sub", {one, Op(ctx, "Mul", {y, y})});
      return std::vector<Output>{Op(ctx, "Mul", {g[0], d})};
    };
    reg["Sigmoid"] = [](GraphContext& ctx, Node* n,
                        const std::vector<Output>& g) {
      Output y = n->out(0);
      Output one = graph::Const(ctx, Tensor::Scalar(1.0f));
      Output d = Op(ctx, "Mul", {y, Op(ctx, "Sub", {one, y})});
      return std::vector<Output>{Op(ctx, "Mul", {g[0], d})};
    };
    reg["Relu"] = [](GraphContext& ctx, Node* n,
                     const std::vector<Output>& g) {
      Output zero = graph::Const(ctx, Tensor::Scalar(0.0f));
      Output mask = Op(ctx, "Greater", {n->inputs()[0], zero});
      return std::vector<Output>{Op(ctx, "Mul", {g[0], mask})};
    };
    reg["Sqrt"] = [](GraphContext& ctx, Node* n,
                     const std::vector<Output>& g) {
      Output half = graph::Const(ctx, Tensor::Scalar(0.5f));
      Output d = Op(ctx, "Div", {half, n->out(0)});
      return std::vector<Output>{Op(ctx, "Mul", {g[0], d})};
    };
    reg["Square"] = [](GraphContext& ctx, Node* n,
                       const std::vector<Output>& g) {
      Output two = graph::Const(ctx, Tensor::Scalar(2.0f));
      Output d = Op(ctx, "Mul", {two, n->inputs()[0]});
      return std::vector<Output>{Op(ctx, "Mul", {g[0], d})};
    };
    reg["Sin"] = [](GraphContext& ctx, Node* n,
                    const std::vector<Output>& g) {
      return std::vector<Output>{
          Op(ctx, "Mul", {g[0], Op(ctx, "Cos", {n->inputs()[0]})})};
    };
    reg["Cos"] = [](GraphContext& ctx, Node* n,
                    const std::vector<Output>& g) {
      Output s = Op(ctx, "Sin", {n->inputs()[0]});
      return std::vector<Output>{Op(ctx, "Neg", {Op(ctx, "Mul", {g[0], s})})};
    };
    reg["Cast"] = [](GraphContext&, Node*, const std::vector<Output>& g) {
      return std::vector<Output>{g[0]};
    };

    reg["MatMul"] = [](GraphContext& ctx, Node* n,
                       const std::vector<Output>& g) {
      Output a = n->inputs()[0];
      Output b = n->inputs()[1];
      std::vector<int> swap{1, 0};
      Output bt = Op(ctx, "Transpose", {b}, {{"perm", swap}});
      Output at = Op(ctx, "Transpose", {a}, {{"perm", swap}});
      return std::vector<Output>{Op(ctx, "MatMul", {g[0], bt}),
                                 Op(ctx, "MatMul", {at, g[0]})};
    };
    reg["Transpose"] = [](GraphContext& ctx, Node* n,
                          const std::vector<Output>& g) {
      const std::vector<int>& perm = n->attr<std::vector<int>>("perm");
      std::vector<int> inverse(perm.size());
      for (size_t i = 0; i < perm.size(); ++i) {
        inverse[static_cast<size_t>(perm[i])] = static_cast<int>(i);
      }
      return std::vector<Output>{
          Op(ctx, "Transpose", {g[0]}, {{"perm", inverse}})};
    };
    reg["Reshape"] = [](GraphContext& ctx, Node* n,
                        const std::vector<Output>& g) {
      return std::vector<Output>{
          Op(ctx, "ReshapeLike", {g[0], n->inputs()[0]})};
    };
    reg["ExpandDims"] = [](GraphContext& ctx, Node* n,
                           const std::vector<Output>& g) {
      return std::vector<Output>{
          Op(ctx, "ReshapeLike", {g[0], n->inputs()[0]})};
    };

    reg["ReduceSum"] = [](GraphContext& ctx, Node* n,
                          const std::vector<Output>& g) {
      Output x = n->inputs()[0];
      Output ones = Op(ctx, "OnesLike", {x});
      Output grad = g[0];
      const bool keepdims =
          n->HasAttr("keepdims") && n->attr<int64_t>("keepdims") != 0;
      if (n->HasAttr("axis") && !keepdims) {
        grad = Op(ctx, "ExpandDims", {grad}, {{"axis", n->attr<int64_t>("axis")}});
      }
      return std::vector<Output>{Op(ctx, "Mul", {ones, grad})};
    };
    reg["ReduceMean"] = [](GraphContext& ctx, Node* n,
                           const std::vector<Output>& g) {
      Output x = n->inputs()[0];
      Output ones = Op(ctx, "OnesLike", {x});
      Output grad = g[0];
      const bool keepdims =
          n->HasAttr("keepdims") && n->attr<int64_t>("keepdims") != 0;
      if (n->HasAttr("axis") && !keepdims) {
        grad = Op(ctx, "ExpandDims", {grad},
                  {{"axis", n->attr<int64_t>("axis")}});
      }
      Output spread = Op(ctx, "Mul", {ones, grad});
      // Divide by the reduction factor |x| / |y|.
      Output nx = Op(ctx, "Cast", {Op(ctx, "Size", {x})},
                     {{"dtype", DType::kFloat32}});
      Output ny = Op(ctx, "Cast", {Op(ctx, "Size", {n->out(0)})},
                     {{"dtype", DType::kFloat32}});
      Output factor = Op(ctx, "Div", {nx, ny});
      return std::vector<Output>{Op(ctx, "Div", {spread, factor})};
    };

    reg["SoftmaxCrossEntropy"] = [](GraphContext& ctx, Node* n,
                                    const std::vector<Output>& g) {
      Output logits = n->inputs()[0];
      Output labels = n->inputs()[1];
      Output d = Op(ctx, "SoftmaxCrossEntropyGrad", {logits, labels});
      return std::vector<Output>{Op(ctx, "Mul", {d, g[0]}), Output{}};
    };

    reg["Where"] = [](GraphContext& ctx, Node* n,
                      const std::vector<Output>& g) {
      Output cond = n->inputs()[0];
      Output zeros = Op(ctx, "ZerosLike", {g[0]});
      return std::vector<Output>{Output{},
                                 Op(ctx, "Where", {cond, g[0], zeros}),
                                 Op(ctx, "Where", {cond, zeros, g[0]})};
    };

    // Grads of ops that appear in gradient subgraphs themselves — needed
    // to differentiate *through* tf.gradients (second-order, e.g. MAML).
    reg["OnesLike"] = [](GraphContext& ctx, Node* n,
                         const std::vector<Output>&) {
      return std::vector<Output>{Op(ctx, "ZerosLike", {n->inputs()[0]})};
    };
    reg["ZerosLike"] = [](GraphContext& ctx, Node* n,
                          const std::vector<Output>&) {
      return std::vector<Output>{Op(ctx, "ZerosLike", {n->inputs()[0]})};
    };
    reg["SumToShapeOf"] = [](GraphContext& ctx, Node* n,
                             const std::vector<Output>& g) {
      // d/dx sum_to_shape(x, ref): broadcast the upstream grad back.
      Output ones = Op(ctx, "OnesLike", {n->inputs()[0]});
      return std::vector<Output>{Op(ctx, "Mul", {ones, g[0]}), Output{}};
    };
    reg["ReshapeLike"] = [](GraphContext& ctx, Node* n,
                            const std::vector<Output>& g) {
      return std::vector<Output>{
          Op(ctx, "ReshapeLike", {g[0], n->inputs()[0]}), Output{}};
    };
    // Shape metadata ops are constants w.r.t. values: stop gradients.
    const auto no_input_grads = [](GraphContext&, Node* n,
                                   const std::vector<Output>&) {
      return std::vector<Output>(n->inputs().size());
    };
    reg["Size"] = no_input_grads;
    reg["Shape"] = no_input_grads;
    reg["Dim0"] = no_input_grads;
    reg["IndexAxis0"] = [](GraphContext& ctx, Node* n,
                           const std::vector<Output>& g) {
      Output zeros = Op(ctx, "ZerosLike", {n->inputs()[0]});
      return std::vector<Output>{
          Op(ctx, "SetItemAxis0", {zeros, n->inputs()[1], g[0]}), Output{}};
    };

    return r;
  }();
  return *kRegistry;
}

}  // namespace

bool HasGradient(const std::string& op) {
  return GradRegistry().count(op) > 0;
}

std::vector<std::string> GradientOps() {
  std::vector<std::string> ops;
  ops.reserve(GradRegistry().size());
  for (const auto& [op, grad] : GradRegistry()) ops.push_back(op);
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

    auto rit = GradRegistry().find(op);
    if (rit == GradRegistry().end()) {
      throw StagingError("no gradient registered for op '" + op +
                         "' (node '" + node->name() + "')");
    }
    std::vector<Output> in_grads = rit->second(ctx, node, out_grads);
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
