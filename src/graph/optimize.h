// Whole-graph optimization passes — the "whole-program optimization"
// benefit graph-based systems get over imperative ones (paper §1).
//
// The built-in pipeline (see pass_manager.h for the registry that
// orders it):
//   - licm: loop-invariant pure ops inside While bodies are hoisted
//     into the outer graph and re-captured.
//   - constant_folding: pure ops whose inputs are all Const are
//     evaluated at optimization time (via an evaluator callback
//     supplied by the runtime, so the graph library stays kernel-free).
//   - cse: structurally identical pure nodes are merged.
//   - fusion: single-consumer chains of elementwise/cast ops collapse
//     into one FusedElementwise node with a composed kernel (fusion.h).
//   - dce: nodes not reachable from the fetch roots are pruned.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
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
  // support/pass_pipeline.h for the grammar). When unspecified, the
  // effective pipeline is the AG_PASSES environment variable if set,
  // else the registry's default set. The spec selects; the registry
  // orders.
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

// Resolves `options` into the pipeline spec Optimize() will run: the
// explicit `options.pipeline` if specified, else AG_PASSES (parsed per
// call — it is a debugging knob), else the default spec.
[[nodiscard]] PipelineSpec EffectivePipeline(const OptimizeOptions& options);

// Per-pass record: what one optimization pass did to the graph.
struct OptimizePassStat {
  std::string pass;     // registry name: "licm", "cse", "fusion", ...
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

// Optimizes `graph` in place, preserving the meaning of `roots` (which are
// remapped if their producers are merged/folded). Returns statistics.
// A thin shim over PassManager::Run with the global registry and
// EffectivePipeline(options) — see pass_manager.h.
OptimizeStats Optimize(Graph* graph, std::vector<Output>* roots,
                       const NodeEvaluator& evaluator,
                       const OptimizeOptions& options = {});

}  // namespace ag::graph
