#include "graph/fusion.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "graph/ops.h"
#include "graph/optimize.h"
#include "support/error.h"

namespace ag::graph {
namespace {

// Uses of each endpoint within one graph: input edges, captures of
// directly attached subgraphs, and the graph's own roots/returns. An
// interior chain value must have exactly one use; anything referenced
// by a fetch, a capture, or a second consumer stays materialized.
using UseMap = std::map<std::pair<const Node*, int>, int>;

UseMap CountUses(const Graph& graph, const std::vector<Output>& roots) {
  UseMap uses;
  for (const auto& n : graph.nodes()) {
    for (const Output& in : n->inputs()) {
      ++uses[{in.node, in.index}];
    }
    for (const auto& [key, attr] : n->attrs()) {
      if (const auto* sub = std::get_if<std::shared_ptr<Graph>>(&attr)) {
        const auto* fg = dynamic_cast<const FuncGraph*>(sub->get());
        if (fg != nullptr) {
          for (const Output& c : fg->captures) ++uses[{c.node, c.index}];
        }
      }
    }
  }
  for (const Output& r : roots) ++uses[{r.node, r.index}];
  return uses;
}

// Collapses one chain (in execution order, head first) into a
// FusedElementwise node, remapping the tail's consumers onto it.
Node* BuildFusedNode(Graph* graph, const std::vector<Node*>& chain,
                     std::vector<Output>* roots) {
  std::unordered_set<const Node*> in_chain(chain.begin(), chain.end());

  // External operands, deduplicated in first-use order: each becomes
  // one explicit Arg (no captures — the body is a pure function).
  std::vector<Output> externals;
  auto external_index = [&externals](const Output& ext) {
    for (size_t i = 0; i < externals.size(); ++i) {
      if (externals[i] == ext) return static_cast<int64_t>(i);
    }
    externals.push_back(ext);
    return static_cast<int64_t>(externals.size() - 1);
  };
  for (const Node* link : chain) {
    for (const Output& in : link->inputs()) {
      if (in_chain.count(in.node) == 0) external_index(in);
    }
  }

  auto body = std::make_shared<FuncGraph>();
  std::unordered_map<const Node*, Node*> clone_of;
  std::vector<Node*> args(externals.size(), nullptr);
  for (size_t i = 0; i < externals.size(); ++i) {
    args[i] = body->AddNode("Arg", {},
                            {{"index", static_cast<int64_t>(i)}});
    args[i]->set_output_dtype(
        0, externals[i].node->output_dtype(externals[i].index));
  }
  body->set_num_explicit_args(static_cast<int>(externals.size()));
  for (const Node* link : chain) {
    std::vector<Output> body_inputs;
    body_inputs.reserve(link->inputs().size());
    for (const Output& in : link->inputs()) {
      if (in_chain.count(in.node) > 0) {
        body_inputs.push_back(Output{clone_of.at(in.node), in.index});
      } else {
        body_inputs.push_back(
            Output{args[static_cast<size_t>(external_index(in))], 0});
      }
    }
    // Clones keep their original names so name-scope paths stay legible
    // in the rendered body.
    Node* clone = body->AddNamedNode(link->name(), link->op(),
                                     std::move(body_inputs), link->attrs(), 1);
    clone->set_output_dtype(0, link->output_dtype(0));
    clone_of[link] = clone;
  }
  Node* tail_clone = clone_of.at(chain.back());
  body->returns = {Output{tail_clone, 0}};

  Node* fused =
      graph->AddNamedNode(chain.back()->name() + "/fused", "FusedElementwise",
                          externals, {{"body", body}}, 1);
  fused->set_output_dtype(0, chain.back()->output_dtype(0));

  // Redirect every consumer of the old tail (edges, captures, roots).
  // Interior chain nodes had no other uses; they are dead now — pruned
  // by dce at the top level, never scheduled inside subgraphs (the same
  // convention LICM leaves behind).
  std::unordered_map<const Node*, Node*> remap{{chain.back(), fused}};
  RemapNodeRefs(graph, remap);
  for (Output& r : *roots) {
    if (r.node == chain.back()) r.node = fused;
  }
  return fused;
}

// Fuses chains in `graph` and (first) in any attached Cond/While
// subgraph. Returns the number of chains collapsed.
int FuseGraph(Graph* graph, std::vector<Output>* roots) {
  int fused = 0;
  for (const auto& n : graph->nodes()) {
    if (n->op() == "FusedElementwise") continue;  // never re-enter bodies
    for (const auto& [key, attr] : n->attrs()) {
      if (const auto* sub = std::get_if<std::shared_ptr<Graph>>(&attr)) {
        auto* fg = dynamic_cast<FuncGraph*>(sub->get());
        if (fg != nullptr) fused += FuseGraph(fg, &fg->returns);
      }
    }
  }

  const UseMap uses = CountUses(*graph, *roots);
  auto sole_use = [&uses](const Node* node) {
    auto it = uses.find({node, 0});
    return it != uses.end() && it->second == 1;
  };

  std::unordered_set<const Node*> taken;
  // Reverse scan over the original extent (fusing appends nodes): each
  // tail greedily absorbs the longest chain behind it, and absorbed
  // nodes are `taken` so inner scans skip them.
  const size_t original = graph->num_nodes();
  for (size_t i = original; i > 0; --i) {
    Node* tail = graph->nodes()[i - 1].get();
    if (taken.count(tail) > 0 || !IsFusableElementwise(*tail)) continue;

    std::vector<Node*> chain{tail};
    for (Node* cur = tail; chain.size() < 1000;) {
      Node* extend = nullptr;
      for (const Output& in : cur->inputs()) {
        if (in.index != 0) continue;
        Node* p = in.node;
        if (taken.count(p) > 0) continue;
        if (!IsFusableElementwise(*p) || !sole_use(p)) continue;
        extend = p;
        break;
      }
      if (extend == nullptr) break;
      chain.push_back(extend);
      cur = extend;
    }
    if (chain.size() < 2) continue;

    std::reverse(chain.begin(), chain.end());  // head first
    for (const Node* link : chain) taken.insert(link);
    BuildFusedNode(graph, chain, roots);
    ++fused;
  }
  return fused;
}

}  // namespace

bool IsFusableElementwise(const Node& node) {
  if (node.num_outputs() != 1) return false;
  const OpDef* def = FindOpDef(node.op());
  return def != nullptr && def->fused.fusable;
}

int FuseElementwiseChains(PassContext& ctx) {
  const int fused = FuseGraph(ctx.graph, ctx.roots);
  ctx.stats->fused += fused;
  return fused;
}

FusedProgram CompileFusedBody(const FuncGraph& body) {
  if (!body.captures.empty()) {
    throw ValueError("FusedElementwise body must not capture (" +
                     std::to_string(body.captures.size()) + " captures)");
  }
  if (body.returns.size() != 1) {
    throw ValueError("FusedElementwise body must return exactly one value");
  }
  FusedProgram program;
  program.num_inputs = body.num_explicit_args();

  // Registers: Arg index i -> i, then one per non-Arg node in insertion
  // order (which is topological — AddNode appends after inputs exist).
  std::unordered_map<const Node*, int> reg_of;
  std::vector<bool> arg_seen(static_cast<size_t>(program.num_inputs), false);
  const Node* last = nullptr;
  for (const auto& n : body.nodes()) {
    if (n->op() == "Arg") {
      const auto index = n->attr<int64_t>("index");
      if (index < 0 || index >= program.num_inputs ||
          arg_seen[static_cast<size_t>(index)]) {
        throw ValueError("FusedElementwise body: bad Arg index " +
                         std::to_string(index));
      }
      arg_seen[static_cast<size_t>(index)] = true;
      reg_of[n.get()] = static_cast<int>(index);
      continue;
    }
    FusedStep step;
    bool is_binary = false;
    if (!FusedOpForName(n->op(), &step.op, &is_binary)) {
      throw ValueError("FusedElementwise body: op '" + n->op() +
                       "' has no fused form");
    }
    if (step.op == FusedOp::kCast) step.cast_to = n->attr<DType>("dtype");
    const size_t arity = is_binary ? 2 : 1;
    if (n->inputs().size() != arity || n->num_outputs() != 1) {
      throw ValueError("FusedElementwise body: op '" + n->op() +
                       "' has wrong arity");
    }
    auto operand = [&reg_of, &n](const Output& in) {
      auto it = reg_of.find(in.node);
      if (it == reg_of.end() || in.index != 0) {
        throw ValueError("FusedElementwise body: node '" + n->name() +
                         "' input does not precede it in the body");
      }
      return it->second;
    };
    step.a = operand(n->inputs()[0]);
    if (is_binary) step.b = operand(n->inputs()[1]);
    reg_of[n.get()] =
        program.num_inputs + static_cast<int>(program.steps.size());
    program.steps.push_back(step);
    last = n.get();
  }
  if (program.steps.empty()) {
    throw ValueError("FusedElementwise body has no ops");
  }
  const Output& ret = body.returns[0];
  if (ret.node != last || ret.index != 0) {
    throw ValueError(
        "FusedElementwise body must return its last op's output");
  }
  program.out_dtype = ret.node->output_dtype(0);
  return program;
}

}  // namespace ag::graph
