#include "graph/optimize.h"

#include <chrono>
#include <cstdlib>
#include <map>
#include <sstream>
#include <unordered_map>

#include "graph/fusion.h"
#include "graph/ops.h"
#include "graph/quantize.h"
#include "support/error.h"
#include "verify/verify.h"

namespace ag::graph {
namespace {

// A structural signature for CSE. Includes op, input endpoints, and
// scalar attrs; nodes with subgraph or tensor attrs are handled
// separately (Const participates via value signature).
std::string NodeSignature(const Node& node) {
  std::ostringstream os;
  os << node.op();
  for (const Output& in : node.inputs()) {
    os << "|" << in.node->id() << ":" << in.index;
  }
  for (const auto& [key, attr] : node.attrs()) {
    os << "|" << key << "=";
    if (const auto* i = std::get_if<int64_t>(&attr)) {
      os << *i;
    } else if (const auto* d = std::get_if<double>(&attr)) {
      os << *d;
    } else if (const auto* s = std::get_if<std::string>(&attr)) {
      os << *s;
    } else if (const auto* dt = std::get_if<DType>(&attr)) {
      os << DTypeName(*dt);
    } else if (const auto* p = std::get_if<std::vector<int>>(&attr)) {
      for (int v : *p) os << v << ",";
    } else if (const auto* t = std::get_if<Tensor>(&attr)) {
      // Constants: fold small ones into the signature by value.
      if (t->num_elements() <= 64) {
        os << DTypeName(t->dtype()) << t->shape().str();
        for (int64_t i = 0; i < t->num_elements(); ++i) os << "," << t->at(i);
      } else {
        os << "<big tensor " << node.id() << ">";
      }
    } else {
      os << "<subgraph " << node.id() << ">";  // never merged
    }
  }
  return os.str();
}

// Hoists loop-invariant pure ops out of one While node's body. Returns
// the number of hoisted nodes. A body node is invariant when it is pure,
// single-output, subgraph-free, and every input is a capture Arg, a
// Const, or an already-hoisted node. Hoisted values are recomputed in
// the outer graph and re-captured, and all body uses (including returns)
// are redirected to the new capture; the originals become dead and the
// executor's plan never schedules them.
int HoistWhileInvariants(Graph* outer, Node* while_node) {
  auto body = std::static_pointer_cast<FuncGraph>(
      while_node->attr<std::shared_ptr<Graph>>("body"));

  // Outer endpoint of each capture Arg (Arg index -> outer Output).
  std::unordered_map<const Node*, Output> capture_source;
  for (size_t j = 0; j < body->captures.size(); ++j) {
    capture_source[body->capture_args[j]] = body->captures[j];
  }

  // Maps hoisted/cloned body nodes to their outer-graph clones.
  std::unordered_map<const Node*, Node*> hoisted;
  // Body-side replacement edges: old body endpoint -> new capture arg.
  std::unordered_map<const Node*, Output> replace;

  auto outer_input_for = [&](const Output& in,
                             bool* ok) -> Output {
    if (in.node->op() == "Arg") {
      auto it = capture_source.find(in.node);
      if (it == capture_source.end()) {  // a loop variable
        *ok = false;
        return {};
      }
      return it->second;
    }
    auto hit = hoisted.find(in.node);
    if (hit != hoisted.end()) return Output{hit->second, in.index};
    if (in.node->op() == "Const") {
      Node* clone = outer->AddNode(
          "Const", {}, {{"value", in.node->attr<Tensor>("value")}});
      clone->set_output_dtype(0, in.node->output_dtype(0));
      hoisted[in.node] = clone;
      return Output{clone, 0};
    }
    *ok = false;
    return {};
  };

  int count = 0;
  // Index iteration over the original extent: re-capturing adds Arg
  // nodes to the body while we scan.
  const size_t original_body_nodes = body->num_nodes();
  for (size_t bi = 0; bi < original_body_nodes; ++bi) {
    const auto& n = body->nodes()[bi];
    const std::string& op = n->op();
    if (!IsPureOp(op) || op == "Const" || n->num_outputs() != 1 ||
        n->inputs().empty()) {
      continue;
    }
    bool has_subgraph = false;
    for (const auto& [key, attr] : n->attrs()) {
      if (std::holds_alternative<std::shared_ptr<Graph>>(attr)) {
        has_subgraph = true;
      }
    }
    if (has_subgraph) continue;

    bool ok = true;
    std::vector<Output> outer_inputs;
    outer_inputs.reserve(n->inputs().size());
    for (const Output& in : n->inputs()) {
      outer_inputs.push_back(outer_input_for(in, &ok));
      if (!ok) break;
    }
    if (!ok) continue;

    Node* clone =
        outer->AddNode(op, std::move(outer_inputs), n->attrs(), 1);
    clone->set_output_dtype(0, n->output_dtype(0));
    clone->set_output_is_list(0, n->output_is_list(0));
    hoisted[n.get()] = clone;

    // Re-capture the hoisted value into the body and extend the While
    // node's input list (body captures form its trailing segment).
    Output arg = body->CaptureExternal(Output{clone, 0});
    while_node->mutable_inputs()->push_back(Output{clone, 0});
    capture_source[arg.node] = Output{clone, 0};
    replace[n.get()] = arg;
    ++count;
  }

  if (!replace.empty()) {
    auto fix = [&replace](Output& o) {
      auto it = replace.find(o.node);
      if (it != replace.end()) o = it->second;
    };
    for (const auto& n : body->nodes()) {
      if (replace.count(n.get()) > 0) continue;  // the dead original
      for (Output& in : *n->mutable_inputs()) fix(in);
      for (const auto& [key, attr] : n->attrs()) {
        if (const auto* sub = std::get_if<std::shared_ptr<Graph>>(&attr)) {
          auto* fg = dynamic_cast<FuncGraph*>(sub->get());
          if (fg != nullptr) {
            for (Output& c : fg->captures) fix(c);
          }
        }
      }
    }
    for (Output& r : body->returns) fix(r);
  }
  return count;
}

// ---- Pass bodies (rows of kGraphPasses) ------------------------------

// Loop-invariant code motion: pure ops inside a While body that depend
// only on loop-invariant captures/constants are hoisted into the outer
// graph and re-captured, so they execute once per Run instead of once
// per iteration (the Grappler optimization TF applies to staged loops).
int RunLicm(PassContext& ctx) {
  Graph* graph = ctx.graph;
  int hoisted = 0;
  // Hoist over the node list snapshot: hoisting appends clones.
  const size_t original = graph->num_nodes();
  for (size_t i = 0; i < original; ++i) {
    Node* n = graph->nodes()[i].get();
    if (n->op() == "While") {
      hoisted += HoistWhileInvariants(graph, n);
    }
  }
  ctx.stats->hoisted += hoisted;
  return hoisted;
}

int RunConstantFolding(PassContext& ctx) {
  Graph* graph = ctx.graph;
  const NodeEvaluator& evaluator = *ctx.evaluator;
  int folded_count = 0;
  // One forward sweep folds chains: nodes are appended after their
  // inputs, so insertion order is topological. Index-based iteration
  // over the original extent — folding appends new Const nodes, which
  // both invalidates iterators and needs no scanning.
  std::unordered_map<const Node*, Node*> remap;
  const size_t original_count = graph->num_nodes();
  for (size_t node_index = 0; node_index < original_count; ++node_index) {
    // A raw pointer, not a reference into nodes(): AddNode below may
    // reallocate that vector.
    const Node* n = graph->nodes()[node_index].get();
    if (!IsPureOp(n->op()) || n->op() == "Const" || n->num_outputs() != 1) {
      continue;
    }
    bool all_const = !n->inputs().empty();
    std::vector<Tensor> in_values;
    for (Output in : n->inputs()) {
      auto it = remap.find(in.node);
      const Node* src = it != remap.end() ? it->second : in.node;
      if (src->op() != "Const" || in.index != 0) {
        all_const = false;
        break;
      }
      in_values.push_back(src->attr<Tensor>("value"));
    }
    if (!all_const) continue;
    std::vector<Tensor> result;
    try {
      result = evaluator(*n, in_values);
    } catch (const Error&) {
      continue;  // shape errors etc. surface at run time, as in TF
    }
    if (result.size() != 1) continue;
    Node* folded =
        graph->AddNode("Const", {}, {{"value", std::move(result[0])}});
    folded->set_output_dtype(0, n->output_dtype(0));
    remap[n] = folded;
    ++folded_count;
  }
  if (!remap.empty()) {
    RemapNodeRefs(graph, remap);
    for (Output& r : *ctx.roots) {
      auto it = remap.find(r.node);
      if (it != remap.end()) r.node = it->second;
    }
  }
  ctx.stats->folded += folded_count;
  return folded_count;
}

int RunCse(PassContext& ctx) {
  Graph* graph = ctx.graph;
  int merged = 0;
  std::map<std::string, Node*> seen;
  std::unordered_map<const Node*, Node*> remap;
  for (const auto& n : graph->nodes()) {
    if (!IsPureOp(n->op())) continue;
    bool has_subgraph = false;
    for (const auto& [key, attr] : n->attrs()) {
      if (std::holds_alternative<std::shared_ptr<Graph>>(attr)) {
        has_subgraph = true;
      }
    }
    if (has_subgraph) continue;
    // Resolve inputs through prior merges so chains collapse.
    for (Output& in : *n->mutable_inputs()) {
      auto it = remap.find(in.node);
      if (it != remap.end()) in.node = it->second;
    }
    const std::string sig = NodeSignature(*n);
    auto [it, inserted] = seen.emplace(sig, n.get());
    if (!inserted) {
      remap[n.get()] = it->second;
      ++merged;
    }
  }
  if (!remap.empty()) {
    RemapNodeRefs(graph, remap);
    for (Output& r : *ctx.roots) {
      auto it = remap.find(r.node);
      if (it != remap.end()) r.node = it->second;
    }
  }
  ctx.stats->merged += merged;
  return merged;
}

int RunDce(PassContext& ctx) {
  Graph* graph = ctx.graph;
  const size_t before = graph->num_nodes();
  // Side-effecting ops stay alive even when no fetch depends on them
  // (they still only *execute* when on a fetched path, like TF ops
  // without control dependencies).
  std::vector<Output> keep = *ctx.roots;
  for (const auto& n : graph->nodes()) {
    const OpDef* def = FindOpDef(n->op());
    if (def != nullptr && def->dce_root()) keep.push_back(Output{n.get(), 0});
  }
  graph->Prune(keep);
  const int pruned = static_cast<int>(before - graph->num_nodes());
  ctx.stats->pruned += pruned;
  return pruned;
}

// The fixed pass order: hoist, simplify, fuse, clean up. cse follows
// constant_folding so folded constants merge; quantize_weights follows
// constant_folding so folded weight expressions quantize as Consts, and
// is off by default because int8 trades accuracy for throughput
// ("default,+quantize_weights" opts in); dce runs last to drop what the
// others left behind.
constexpr GraphPass kGraphPasses[] = {
    {"licm", true, false, RunLicm},
    {"constant_folding", true, true, RunConstantFolding},
    {"cse", true, false, RunCse},
    {"fusion", true, false, FuseElementwiseChains},
    {"quantize_weights", false, false, QuantizeWeights},
    {"dce", true, false, RunDce},
};

int64_t MonotonicNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

bool DefaultVerifyEachPass() {
  static const bool value = [] {
    const char* env = std::getenv("AG_VERIFY_EACH_PASS");
    return env != nullptr && env[0] != '\0' && std::string(env) != "0";
  }();
  return value;
}

std::span<const GraphPass> GraphPasses() { return kGraphPasses; }

void CheckGraphPipeline(const PipelineSpec& spec) {
  std::vector<std::string_view> names;
  for (const GraphPass& pass : kGraphPasses) names.emplace_back(pass.name);
  spec.CheckNames(names);
}

void RemapNodeRefs(Graph* graph,
                   const std::unordered_map<const Node*, Node*>& remap) {
  auto fix = [&remap](Output& o) {
    auto it = remap.find(o.node);
    if (it != remap.end()) o.node = it->second;
  };
  for (const auto& n : graph->nodes()) {
    for (Output& in : *n->mutable_inputs()) fix(in);
    for (const auto& [key, attr] : n->attrs()) {
      if (const auto* sub = std::get_if<std::shared_ptr<Graph>>(&attr)) {
        auto* fg = dynamic_cast<FuncGraph*>(sub->get());
        if (fg != nullptr) {
          for (Output& c : fg->captures) fix(c);
        }
      }
    }
  }
}

std::string OptimizeStats::DebugString() const {
  std::ostringstream os;
  os << "OptimizeStats: folded=" << folded << " merged=" << merged
     << " pruned=" << pruned << " hoisted=" << hoisted
     << " fused=" << fused;
  for (const OptimizePassStat& p : passes) {
    os << "\n  " << p.pass << ": changed=" << p.changed << " nodes "
       << p.nodes_before << " -> " << p.nodes_after << " ("
       << p.wall_ns / 1000 << " us)";
    if (p.verify_findings > 0) {
      os << " verify_findings=" << p.verify_findings;
    }
  }
  if (!broken_pass.empty()) {
    os << "\n  first broken invariant after pass '" << broken_pass
       << "': " << broken_finding;
  }
  return os.str();
}

OptimizeStats Optimize(Graph* graph, std::vector<Output>* roots,
                       const NodeEvaluator& evaluator,
                       const OptimizeOptions& options) {
  const PipelineSpec& spec = options.pipeline;
  CheckGraphPipeline(spec);
  OptimizeStats stats;
  PassContext ctx;
  ctx.graph = graph;
  ctx.roots = roots;
  ctx.evaluator = evaluator ? &evaluator : nullptr;
  ctx.stats = &stats;
  ctx.variable_snapshot = options.variable_snapshot;

  for (const GraphPass& pass : kGraphPasses) {
    if (!spec.Selects(pass.name, pass.default_enabled)) continue;
    if (pass.needs_evaluator && ctx.evaluator == nullptr) continue;
    OptimizePassStat stat;
    stat.pass = pass.name;
    stat.nodes_before = static_cast<int>(graph->num_nodes());
    const int64_t start_ns = MonotonicNs();
    stat.changed = pass.run(ctx);
    stat.wall_ns = MonotonicNs() - start_ns;
    stat.nodes_after = static_cast<int>(graph->num_nodes());
    stats.passes.push_back(std::move(stat));
    if (!options.verify_each_pass) continue;
    // Per-pass validation: the first broken invariant stops the
    // pipeline so the attribution names the pass that introduced the
    // damage rather than one that merely ran over it later.
    const std::vector<verify::VerifyDiagnostic> findings =
        verify::VerifyGraphAndRoots(*graph, *roots);
    stats.passes.back().verify_findings = static_cast<int>(findings.size());
    if (!findings.empty()) {
      stats.broken_pass = pass.name;
      stats.broken_finding = findings.front().str();
      break;
    }
  }
  return stats;
}

}  // namespace ag::graph
