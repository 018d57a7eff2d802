// Whole-graph optimization passes — the "whole-program optimization"
// benefit graph-based systems get over imperative ones (paper §1).
//
// The pass table (GraphPasses(), in optimize.cc) fixes the order every
// pipeline runs in; a PipelineSpec only selects rows from it:
//   - licm: loop-invariant pure ops inside While bodies are hoisted
//     into the outer graph and re-captured.
//   - constant_folding: pure ops whose inputs are all Const are
//     evaluated at optimization time (via an evaluator callback
//     supplied by the runtime, so the graph library stays kernel-free).
//   - cse: structurally identical pure nodes are merged.
//   - fusion: single-consumer chains of elementwise/cast ops collapse
//     into one FusedElementwise node with a composed kernel (fusion.h).
//   - quantize_weights (off by default): float MatMuls against static
//     weights become int8 QuantizedMatMuls (quantize.h).
//   - dce: nodes not reachable from the fetch roots are pruned.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "support/pass_pipeline.h"

namespace ag::graph {

// Evaluates a single node given concrete input tensors. Supplied by the
// executor (exec::EvaluatePureNode).
using NodeEvaluator = std::function<std::vector<Tensor>(
    const Node&, const std::vector<Tensor>&)>;

// True when the AG_VERIFY_EACH_PASS environment variable is set to a
// non-empty value other than "0" (read once, cached).
[[nodiscard]] bool DefaultVerifyEachPass();

struct OptimizeOptions {
  // Which passes run, as a pipeline spec ("licm,cse,-dce" — see
  // support/pass_pipeline.h for the grammar). The spec selects rows of
  // GraphPasses(); they run in table order.
  PipelineSpec pipeline;
  // Per-pass validation: run the graph well-formedness checker
  // (verify::VerifyGraphAndRoots, AGV1xx) after every executed pass.
  // The first pass to break an invariant is recorded in
  // OptimizeStats::broken_pass and the remaining passes are skipped, so
  // the attribution names the culprit rather than a downstream victim.
  // Defaults to the AG_VERIFY_EACH_PASS environment variable (unset/0 =
  // off: the checker walks every subgraph, which is measurable on the
  // staging path).
  bool verify_each_pass = DefaultVerifyEachPass();
  // Calibration data for the quantize_weights pass: variable name ->
  // value at staging time. The Session that will run the graph is
  // created after Optimize, so the caller supplies the snapshot (must
  // outlive the Optimize call). Null disables Variable quantization;
  // Const weights quantize regardless.
  const std::map<std::string, Tensor>* variable_snapshot = nullptr;
};

// Per-pass record: what one optimization pass did to the graph.
struct OptimizePassStat {
  std::string pass;     // table name: "licm", "cse", "fusion", ...
  int changed = 0;      // nodes hoisted/folded/merged/pruned by the pass
  int nodes_before = 0; // top-level node count entering the pass
  int nodes_after = 0;  // top-level node count leaving the pass
  int64_t wall_ns = 0;
  // AGV findings the verifier reported right after this pass ran (0 when
  // clean or when verify_each_pass was off).
  int verify_findings = 0;
};

struct OptimizeStats {
  int folded = 0;
  int merged = 0;
  int pruned = 0;
  int hoisted = 0;
  // Elementwise chains collapsed into FusedElementwise nodes (fusion.h).
  int fused = 0;
  // One entry per executed pass, in execution order.
  std::vector<OptimizePassStat> passes;
  // verify_each_pass attribution: the first pass after which the graph
  // checker reported findings ("" = clean or not verified), and the
  // first finding's rendered diagnostic. Callers that must not execute
  // a broken graph (core::AutoGraph::Stage) throw on non-empty.
  std::string broken_pass;
  std::string broken_finding;

  [[nodiscard]] std::string DebugString() const;
};

// Everything a pass body may touch. `evaluator` is null when the caller
// supplied none (passes with needs_evaluator are then skipped).
struct PassContext {
  Graph* graph = nullptr;
  std::vector<Output>* roots = nullptr;
  const NodeEvaluator* evaluator = nullptr;
  OptimizeStats* stats = nullptr;
  // Calibration data for quantize_weights: variable name -> value at
  // staging time (OptimizeOptions::variable_snapshot). Null when the
  // caller supplied none; Variables without an entry are left in float.
  const std::map<std::string, Tensor>* variable_snapshot = nullptr;
};

// One row of the graph pass table.
struct GraphPass {
  const char* name;        // PipelineSpec token
  bool default_enabled;    // selected by "default" and by an empty spec
  bool needs_evaluator;    // skipped (not failed) without an evaluator
  // The pass body. Returns its work metric (nodes hoisted/folded/
  // merged/fused/pruned) for OptimizePassStat::changed.
  int (*run)(PassContext&);
};

// The graph passes, in the one order Optimize runs them.
[[nodiscard]] std::span<const GraphPass> GraphPasses();

// Throws ValueError ("unknown pass '...' (registered: ...)") when `spec`
// names a pass missing from GraphPasses(). The CLIs call it while
// parsing --passes= so a typo is a usage error.
void CheckGraphPipeline(const PipelineSpec& spec);

// Rewrites every input edge (and direct subgraph capture) of `graph`
// according to `remap`. Shared by passes that replace nodes (constant
// folding, cse, fusion, quantize_weights); callers must remap
// roots/returns themselves.
void RemapNodeRefs(Graph* graph,
                   const std::unordered_map<const Node*, Node*>& remap);

// Optimizes `graph` in place, preserving the meaning of `roots` (which are
// remapped if their producers are merged/folded): runs the rows of
// GraphPasses() that `options.pipeline` selects, in table order. With
// verify_each_pass, the graph checker runs after every pass and the
// first broken invariant stops the pipeline with
// OptimizeStats::broken_pass naming the culprit. Throws ValueError for
// an unknown pass name.
OptimizeStats Optimize(Graph* graph, std::vector<Output>* roots,
                       const NodeEvaluator& evaluator,
                       const OptimizeOptions& options = {});

}  // namespace ag::graph
