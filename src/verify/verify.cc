#include "verify/verify.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <variant>

#include "graph/fusion.h"
#include "graph/ops.h"

namespace ag::verify {
namespace {

using graph::FuncGraph;
using graph::Graph;
using graph::Node;
using graph::Output;

std::string NodeRef(const Node& node) {
  return "node '" + node.name() + "' (" + node.op() + ")";
}

std::string Where(const Node& node, const std::string& path) {
  if (path.empty()) return NodeRef(node);
  return NodeRef(node) + " in " + path;
}

void Add(std::vector<VerifyDiagnostic>* out, std::string code,
         std::string message, std::string where, std::string note = "") {
  out->push_back(VerifyDiagnostic{std::move(code), std::move(message),
                                  std::move(where), std::move(note)});
}

bool GetIntAttr(const Node& node, const std::string& key, int64_t* out) {
  auto it = node.attrs().find(key);
  if (it == node.attrs().end()) return false;
  const int64_t* v = std::get_if<int64_t>(&it->second);
  if (v == nullptr) return false;
  *out = *v;
  return true;
}

std::shared_ptr<Graph> GetSubgraphAttr(const Node& node,
                                       const std::string& key) {
  auto it = node.attrs().find(key);
  if (it == node.attrs().end()) return nullptr;
  const auto* v = std::get_if<std::shared_ptr<Graph>>(&it->second);
  return v != nullptr ? *v : nullptr;
}

// Verification state for one graph: its own node set (pointer identity,
// so dangling references are detected without dereferencing them) plus
// the enclosing graphs' sets for capture validation.
struct GraphScope {
  const Graph* graph;
  std::unordered_set<const Node*> nodes;
};

GraphScope MakeScope(const Graph& g) {
  GraphScope scope{&g, {}};
  scope.nodes.reserve(g.num_nodes());
  for (const auto& n : g.nodes()) scope.nodes.insert(n.get());
  return scope;
}

// True when every input of `node` is a live endpoint of `scope` with a
// valid output index (AGV102 otherwise). Inputs that fail are reported;
// later checks that would dereference them are skipped by the caller.
bool CheckInputs(const Node& node, const GraphScope& scope,
                 const std::string& path,
                 std::vector<VerifyDiagnostic>* out) {
  bool ok = true;
  for (size_t i = 0; i < node.inputs().size(); ++i) {
    const Output& in = node.inputs()[i];
    if (in.node == nullptr) {
      Add(out, "AGV102", "input " + std::to_string(i) + " is null",
          Where(node, path));
      ok = false;
      continue;
    }
    if (scope.nodes.count(in.node) == 0) {
      // Foreign or freed node: do not dereference it.
      Add(out, "AGV102",
          "input " + std::to_string(i) +
              " references a node that is not part of this graph "
              "(dangling or cross-graph edge)",
          Where(node, path),
          "cross-graph values must flow through FuncGraph captures");
      ok = false;
      continue;
    }
    if (in.index < 0 || in.index >= in.node->num_outputs()) {
      Add(out, "AGV102",
          "input " + std::to_string(i) + " references output " +
              std::to_string(in.index) + " of " + NodeRef(*in.node) +
              ", which has " + std::to_string(in.node->num_outputs()) +
              " output(s)",
          Where(node, path));
      ok = false;
    }
  }
  return ok;
}

// Iterative three-color DFS over intra-graph input edges (AGV101).
void CheckAcyclic(const GraphScope& scope, const std::string& path,
                  std::vector<VerifyDiagnostic>* out) {
  enum : uint8_t { kWhite, kGrey, kBlack };
  std::unordered_map<const Node*, uint8_t> color;
  color.reserve(scope.graph->num_nodes());
  for (const auto& n : scope.graph->nodes()) color[n.get()] = kWhite;
  for (const auto& root : scope.graph->nodes()) {
    if (color[root.get()] != kWhite) continue;
    std::vector<std::pair<const Node*, size_t>> stack{{root.get(), 0}};
    color[root.get()] = kGrey;
    while (!stack.empty()) {
      auto& [node, next] = stack.back();
      if (next < node->inputs().size()) {
        const Node* in = node->inputs()[next++].node;
        if (in == nullptr || scope.nodes.count(in) == 0) continue;
        if (color[in] == kGrey) {
          Add(out, "AGV101",
              "graph contains a cycle: " + NodeRef(*node) +
                  " (transitively) depends on itself through " +
                  NodeRef(*in),
              Where(*node, path),
              "topological scheduling requires an acyclic dataflow graph");
          return;  // one cycle report per graph is enough
        }
        if (color[in] == kWhite) {
          color[in] = kGrey;
          stack.emplace_back(in, 0);
        }
        continue;
      }
      color[node] = kBlack;
      stack.pop_back();
    }
  }
}

void VerifyGraphInto(const Graph& g, std::vector<const GraphScope*>* ancestors,
                     const std::string& path,
                     std::unordered_set<const Graph*>* visited,
                     std::vector<VerifyDiagnostic>* out);

// Returns the first Arg node of `fg` with attr index == `index` (null
// when absent).
const Node* FindArg(const Graph& fg, int64_t index) {
  for (const auto& n : fg.nodes()) {
    if (n->op() != "Arg") continue;
    int64_t got = -1;
    if (GetIntAttr(*n, "index", &got) && got == index) return n.get();
  }
  return nullptr;
}

// FuncGraph capture structure (AGV103): captures and capture_args in
// lockstep, Arg indices following the trailing-positional convention,
// every captured endpoint alive in some enclosing graph.
void CheckCaptures(const FuncGraph& fg,
                   const std::vector<const GraphScope*>& outer,
                   const std::string& path,
                   std::vector<VerifyDiagnostic>* out) {
  const std::string where = path.empty() ? "subgraph" : path;
  if (fg.captures.size() != fg.capture_args.size()) {
    Add(out, "AGV103",
        "subgraph records " + std::to_string(fg.captures.size()) +
            " capture(s) but " + std::to_string(fg.capture_args.size()) +
            " capture Arg node(s)",
        where,
        "each captured outer endpoint must have exactly one Arg node");
    return;  // elementwise checks below assume the sizes match
  }
  for (size_t i = 0; i < fg.captures.size(); ++i) {
    const Node* arg = fg.capture_args[i];
    if (arg == nullptr || arg->op() != "Arg" ||
        static_cast<const Graph*>(arg->owner()) != &fg) {
      Add(out, "AGV103",
          "capture " + std::to_string(i) +
              " has no matching Arg node in the subgraph",
          where);
      continue;
    }
    int64_t index = -1;
    const int64_t expect = fg.num_explicit_args() + static_cast<int64_t>(i);
    if (!GetIntAttr(*arg, "index", &index) || index != expect) {
      Add(out, "AGV103",
          "capture " + std::to_string(i) + " Arg node '" + arg->name() +
              "' has index " + std::to_string(index) + ", expected " +
              std::to_string(expect),
          where,
          "captures are passed positionally after the explicit args");
    }
    const Output& ext = fg.captures[i];
    if (ext.node == nullptr) {
      Add(out, "AGV103", "capture " + std::to_string(i) + " is null", where);
      continue;
    }
    bool found = false;
    for (const GraphScope* scope : outer) {
      if (scope->nodes.count(ext.node) > 0) {
        found = true;
        break;
      }
    }
    if (!found) {
      // Dangling: the endpoint is not in any enclosing graph, so naming
      // it would dereference freed or foreign memory.
      Add(out, "AGV103",
          "capture " + std::to_string(i) +
              " references a node that is not part of any enclosing graph "
              "(dangling capture)",
          where,
          "a pass rewired or pruned the captured value without updating "
          "the capture list");
      continue;
    }
    if (ext.index < 0 || ext.index >= ext.node->num_outputs()) {
      Add(out, "AGV103",
          "capture " + std::to_string(i) + " references output " +
              std::to_string(ext.index) + " of " + NodeRef(*ext.node) +
              ", which has " + std::to_string(ext.node->num_outputs()) +
              " output(s)",
          where);
    }
  }
}

// Subgraph return endpoints (AGV102): each must be a live endpoint of
// the subgraph itself.
void CheckReturns(const FuncGraph& fg, const GraphScope& scope,
                  const std::string& path,
                  std::vector<VerifyDiagnostic>* out) {
  const std::string where = path.empty() ? "subgraph" : path;
  for (size_t i = 0; i < fg.returns.size(); ++i) {
    const Output& r = fg.returns[i];
    if (r.node == nullptr || scope.nodes.count(r.node) == 0) {
      Add(out, "AGV102",
          "return " + std::to_string(i) +
              " references a node that is not part of the subgraph",
          where);
      continue;
    }
    if (r.index < 0 || r.index >= r.node->num_outputs()) {
      Add(out, "AGV102",
          "return " + std::to_string(i) + " references output " +
              std::to_string(r.index) + " of " + NodeRef(*r.node) +
              ", which has " + std::to_string(r.node->num_outputs()) +
              " output(s)",
          where);
    }
  }
}

DType ReturnDtype(const Output& r) {
  return r.node->output_dtype(r.index);
}

// Cond call-site / branch-signature checks (AGV103/AGV104/AGV105) and
// recursion into the branches.
void CheckCond(const Node& node, const GraphScope& scope,
               std::vector<const GraphScope*>* ancestors, const std::string& path,
               std::unordered_set<const Graph*>* visited,
               std::vector<VerifyDiagnostic>* out) {
  auto then_g = std::dynamic_pointer_cast<FuncGraph>(
      GetSubgraphAttr(node, "then_branch"));
  auto else_g = std::dynamic_pointer_cast<FuncGraph>(
      GetSubgraphAttr(node, "else_branch"));
  int64_t then_ncaps = -1;
  if (then_g == nullptr || else_g == nullptr ||
      !GetIntAttr(node, "then_ncaps", &then_ncaps)) {
    Add(out, "AGV103",
        "Cond node is missing its then_branch/else_branch subgraphs or "
        "then_ncaps attr",
        Where(node, path));
    return;
  }
  if (then_ncaps != static_cast<int64_t>(then_g->captures.size()) ||
      node.inputs().size() !=
          1 + then_g->captures.size() + else_g->captures.size()) {
    Add(out, "AGV103",
        "Cond call-site arity mismatch: " +
            std::to_string(node.inputs().size()) +
            " input(s) for 1 predicate + " +
            std::to_string(then_g->captures.size()) + " then-capture(s) + " +
            std::to_string(else_g->captures.size()) +
            " else-capture(s) (then_ncaps attr = " +
            std::to_string(then_ncaps) + ")",
        Where(node, path),
        "the executor splits trailing inputs by these counts; a mismatch "
        "feeds branches the wrong values");
  }
  if (!node.inputs().empty() && node.inputs()[0].valid() &&
      scope.nodes.count(node.inputs()[0].node) > 0 &&
      ReturnDtype(node.inputs()[0]) != DType::kBool) {
    Add(out, "AGV104",
        "Cond predicate has dtype " +
            std::string(DTypeName(ReturnDtype(node.inputs()[0]))) +
            ", expected bool",
        Where(node, path));
  }
  const GraphScope then_scope = MakeScope(*then_g);
  const GraphScope else_scope = MakeScope(*else_g);
  const size_t n_then = then_g->returns.size();
  const size_t n_else = else_g->returns.size();
  if (n_then != n_else) {
    Add(out, "AGV105",
        "Cond branches return a different number of values (" +
            std::to_string(n_then) + " vs " + std::to_string(n_else) + ")",
        Where(node, path),
        "both branches must produce the same outputs for the merged "
        "node to have a consistent signature");
  } else if (static_cast<size_t>(node.num_outputs()) !=
             std::max<size_t>(n_then, 1)) {
    Add(out, "AGV105",
        "Cond node has " + std::to_string(node.num_outputs()) +
            " output(s) but its branches return " + std::to_string(n_then),
        Where(node, path));
  } else {
    for (size_t i = 0; i < n_then; ++i) {
      const Output& t = then_g->returns[i];
      const Output& e = else_g->returns[i];
      // Only compare returns the structural checks found valid.
      if (t.node == nullptr || then_scope.nodes.count(t.node) == 0 ||
          e.node == nullptr || else_scope.nodes.count(e.node) == 0) {
        continue;
      }
      if (ReturnDtype(t) != ReturnDtype(e)) {
        Add(out, "AGV105",
            "Cond branches disagree on the dtype of return " +
                std::to_string(i) + " (" +
                std::string(DTypeName(ReturnDtype(t))) + " vs " +
                std::string(DTypeName(ReturnDtype(e))) + ")",
            Where(node, path));
      } else if (node.output_dtype(static_cast<int>(i)) != ReturnDtype(t)) {
        Add(out, "AGV105",
            "Cond output " + std::to_string(i) + " records dtype " +
                std::string(
                    DTypeName(node.output_dtype(static_cast<int>(i)))) +
                " but its branches return " +
                std::string(DTypeName(ReturnDtype(t))),
            Where(node, path));
      }
    }
  }
  VerifyGraphInto(*then_g, ancestors,
                  "then_branch of '" + node.name() + "'", visited, out);
  VerifyGraphInto(*else_g, ancestors,
                  "else_branch of '" + node.name() + "'", visited, out);
}

// While call-site / loop-signature checks (AGV103/AGV105) and recursion
// into cond/body.
void CheckWhile(const Node& node, const GraphScope& scope,
                std::vector<const GraphScope*>* ancestors, const std::string& path,
                std::unordered_set<const Graph*>* visited,
                std::vector<VerifyDiagnostic>* out) {
  auto cond_g =
      std::dynamic_pointer_cast<FuncGraph>(GetSubgraphAttr(node, "cond"));
  auto body_g =
      std::dynamic_pointer_cast<FuncGraph>(GetSubgraphAttr(node, "body"));
  int64_t n = -1;
  int64_t cond_ncaps = -1;
  if (cond_g == nullptr || body_g == nullptr ||
      !GetIntAttr(node, "num_loop_vars", &n) ||
      !GetIntAttr(node, "cond_ncaps", &cond_ncaps)) {
    Add(out, "AGV103",
        "While node is missing its cond/body subgraphs or "
        "num_loop_vars/cond_ncaps attrs",
        Where(node, path));
    return;
  }
  if (cond_ncaps != static_cast<int64_t>(cond_g->captures.size()) ||
      node.inputs().size() != static_cast<size_t>(n) +
                                  cond_g->captures.size() +
                                  body_g->captures.size()) {
    Add(out, "AGV103",
        "While call-site arity mismatch: " +
            std::to_string(node.inputs().size()) + " input(s) for " +
            std::to_string(n) + " loop var(s) + " +
            std::to_string(cond_g->captures.size()) + " cond-capture(s) + " +
            std::to_string(body_g->captures.size()) +
            " body-capture(s) (cond_ncaps attr = " +
            std::to_string(cond_ncaps) + ")",
        Where(node, path),
        "the executor splits trailing inputs by these counts; a mismatch "
        "feeds the loop the wrong values");
  }
  if (cond_g->num_explicit_args() != n || body_g->num_explicit_args() != n) {
    Add(out, "AGV103",
        "While cond/body record " +
            std::to_string(cond_g->num_explicit_args()) + "/" +
            std::to_string(body_g->num_explicit_args()) +
            " explicit arg(s), expected num_loop_vars = " +
            std::to_string(n),
        Where(node, path));
  }
  const GraphScope cond_scope = MakeScope(*cond_g);
  const GraphScope body_scope = MakeScope(*body_g);
  if (cond_g->returns.size() != 1) {
    Add(out, "AGV105",
        "While condition returns " + std::to_string(cond_g->returns.size()) +
            " value(s), expected a single bool",
        Where(node, path));
  } else {
    const Output& test = cond_g->returns[0];
    if (test.node != nullptr && cond_scope.nodes.count(test.node) > 0 &&
        ReturnDtype(test) != DType::kBool) {
      Add(out, "AGV105",
          "While condition returns dtype " +
              std::string(DTypeName(ReturnDtype(test))) + ", expected bool",
          Where(node, path));
    }
  }
  if (body_g->returns.size() != static_cast<size_t>(n)) {
    Add(out, "AGV105",
        "While body returns " + std::to_string(body_g->returns.size()) +
            " value(s) for " + std::to_string(n) + " loop var(s)",
        Where(node, path),
        "each iteration must produce a value for every loop variable");
  } else {
    for (int64_t i = 0; i < n; ++i) {
      const Output& next = body_g->returns[static_cast<size_t>(i)];
      if (next.node == nullptr || body_scope.nodes.count(next.node) == 0) {
        continue;
      }
      const Node* arg = FindArg(*body_g, i);
      if (arg != nullptr && arg->output_dtype(0) != ReturnDtype(next)) {
        Add(out, "AGV105",
            "While body changes the dtype of loop var " + std::to_string(i) +
                " (" + std::string(DTypeName(arg->output_dtype(0))) +
                " -> " + std::string(DTypeName(ReturnDtype(next))) + ")",
            Where(node, path),
            "loop-carried values must keep their dtype across iterations");
      }
      if (static_cast<size_t>(i) < node.inputs().size()) {
        const Output& init = node.inputs()[static_cast<size_t>(i)];
        if (init.valid() && scope.nodes.count(init.node) > 0 &&
            node.output_dtype(static_cast<int>(i)) != ReturnDtype(init)) {
          Add(out, "AGV105",
              "While output " + std::to_string(i) + " records dtype " +
                  std::string(
                      DTypeName(node.output_dtype(static_cast<int>(i)))) +
                  " but loop var " + std::to_string(i) +
                  " is initialized with " +
                  std::string(DTypeName(ReturnDtype(init))),
              Where(node, path));
        }
      }
    }
  }
  VerifyGraphInto(*cond_g, ancestors, "cond of '" + node.name() + "'",
                  visited, out);
  VerifyGraphInto(*body_g, ancestors, "body of '" + node.name() + "'",
                  visited, out);
}

void VerifyGraphInto(const Graph& g, std::vector<const GraphScope*>* ancestors,
                     const std::string& path,
                     std::unordered_set<const Graph*>* visited,
                     std::vector<VerifyDiagnostic>* out) {
  if (!visited->insert(&g).second) return;  // shared subgraph: once is enough
  const GraphScope scope = MakeScope(g);
  const auto* fg = dynamic_cast<const FuncGraph*>(&g);

  CheckAcyclic(scope, path, out);
  if (fg != nullptr) {
    CheckCaptures(*fg, *ancestors, path, out);
    CheckReturns(*fg, scope, path, out);
  }

  for (const auto& n : g.nodes()) {
    const Node& node = *n;
    const bool inputs_ok = CheckInputs(node, scope, path, out);

    if (node.op() == "Arg") {
      int64_t index = -1;
      if (fg == nullptr) {
        Add(out, "AGV103",
            "Arg node outside a FuncGraph: the top-level graph takes no "
            "positional arguments",
            Where(node, path));
      } else if (!GetIntAttr(node, "index", &index) || index < 0) {
        Add(out, "AGV103", "Arg node has a missing or negative index attr",
            Where(node, path));
      }
      continue;
    }

    if (node.op() == "Const") {
      auto it = node.attrs().find("value");
      const Tensor* value =
          it != node.attrs().end() ? std::get_if<Tensor>(&it->second)
                                   : nullptr;
      if (value == nullptr) {
        Add(out, "AGV104", "Const node has no Tensor 'value' attr",
            Where(node, path));
      } else if (value->dtype() != node.output_dtype(0)) {
        Add(out, "AGV104",
            "Const records output dtype " +
                std::string(DTypeName(node.output_dtype(0))) +
                " but its value is " +
                std::string(DTypeName(value->dtype())),
            Where(node, path));
      }
    } else if (inputs_ok &&
               graph::InferredDtypeIsAuthoritative(node.op())) {
      const DType expect =
          graph::InferDtype(node.op(), node.inputs(), node.attrs());
      if (node.output_dtype(0) != expect) {
        Add(out, "AGV104",
            NodeRef(node) + " records output dtype " +
                std::string(DTypeName(node.output_dtype(0))) +
                " but op semantics give " + std::string(DTypeName(expect)),
            Where(node, path),
            "kernels and downstream dtype inference trust the recorded "
            "dtype");
      }
    }

    if (node.op() == "FusedElementwise") {
      // AGV106: the body must compile into a scalar recipe — no
      // captures, one return naming the last op, only fusable ops.
      // CompileFusedBody is the executor's own compiler, so passing
      // here means the kernel cannot reject the node at run time.
      auto it = node.attrs().find("body");
      const auto* sub =
          it != node.attrs().end()
              ? std::get_if<std::shared_ptr<Graph>>(&it->second)
              : nullptr;
      const auto* body =
          sub != nullptr ? dynamic_cast<const FuncGraph*>(sub->get())
                         : nullptr;
      if (body == nullptr) {
        Add(out, "AGV106",
            "FusedElementwise node has no FuncGraph 'body' attr",
            Where(node, path));
      } else {
        if (static_cast<int>(node.inputs().size()) !=
            body->num_explicit_args()) {
          Add(out, "AGV106",
              NodeRef(node) + " has " +
                  std::to_string(node.inputs().size()) +
                  " inputs but its body takes " +
                  std::to_string(body->num_explicit_args()) + " args",
              Where(node, path));
        }
        try {
          (void)graph::CompileFusedBody(*body);
        } catch (const Error& e) {
          Add(out, "AGV106",
              NodeRef(node) + " body does not compile: " + e.what(),
              Where(node, path));
        }
      }
    }

    if (node.op() == "Cond") {
      ancestors->push_back(&scope);
      CheckCond(node, scope, ancestors, path, visited, out);
      ancestors->pop_back();
    } else if (node.op() == "While") {
      ancestors->push_back(&scope);
      CheckWhile(node, scope, ancestors, path, visited, out);
      ancestors->pop_back();
    } else {
      // Any other op carrying subgraph attrs still gets recursed into so
      // future control-flow ops inherit the structural checks.
      for (const auto& [key, value] : node.attrs()) {
        const auto* sub = std::get_if<std::shared_ptr<Graph>>(&value);
        if (sub == nullptr || *sub == nullptr) continue;
        ancestors->push_back(&scope);
        VerifyGraphInto(**sub, ancestors, key + " of '" + node.name() + "'",
                        visited, out);
        ancestors->pop_back();
      }
    }
  }
}

}  // namespace

std::string VerifyDiagnostic::str() const {
  std::string s = "error: [" + code + "] " + message;
  if (!where.empty()) s += " (at " + where + ")";
  if (!note.empty()) s += "\n  note: " + note;
  return s;
}

std::vector<VerifyDiagnostic> VerifyGraph(const Graph& graph) {
  std::vector<VerifyDiagnostic> out;
  std::vector<const GraphScope*> ancestors;
  std::unordered_set<const Graph*> visited;
  VerifyGraphInto(graph, &ancestors, "", &visited, &out);
  return out;
}

std::vector<VerifyDiagnostic> VerifyGraphAndRoots(
    const Graph& graph, const std::vector<Output>& roots) {
  std::vector<VerifyDiagnostic> out = VerifyGraph(graph);
  std::unordered_set<const Node*> live;
  live.reserve(graph.num_nodes());
  for (const auto& n : graph.nodes()) live.insert(n.get());
  for (size_t i = 0; i < roots.size(); ++i) {
    const Output& r = roots[i];
    if (r.node == nullptr || live.count(r.node) == 0) {
      // Pruned or foreign node: naming it would dereference freed memory.
      Add(&out, "AGV102",
          "fetch root " + std::to_string(i) +
              " references a node that is not part of the graph",
          "fetch list",
          "a pass pruned or replaced the fetched endpoint without "
          "remapping the root");
      continue;
    }
    if (r.index < 0 || r.index >= r.node->num_outputs()) {
      Add(&out, "AGV102",
          "fetch root " + std::to_string(i) + " references output " +
              std::to_string(r.index) + " of " + NodeRef(*r.node) +
              ", which has " + std::to_string(r.node->num_outputs()) +
              " output(s)",
          "fetch list");
    }
  }
  return out;
}

std::string FormatFindings(const std::vector<VerifyDiagnostic>& findings) {
  std::string s;
  for (const VerifyDiagnostic& d : findings) {
    s += d.str();
    s += '\n';
  }
  return s;
}

}  // namespace ag::verify
