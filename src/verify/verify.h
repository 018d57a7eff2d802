// agverify: static verification of the back half of the staging
// pipeline — the dataflow graph after construction and after every
// optimization pass.
//
// aglint (analysis/lint.h) checks the imperative *source* before
// conversion; this layer checks the *artifacts* conversion and
// optimization produce. Every invariant here is one the executors
// assume without checking on their hot paths, so a violation means a
// pass (or a hand-built graph) silently produced something the
// sequential/parallel engines may execute incorrectly.
//
// Graph invariant catalog (AGV1xx) — one line of "why" per code:
//
//   AGV101  graph cycle: every run executes a topological plan; a
//           cycle has no such order (CompilePlan rejects it, and a
//           hand-built plan would deadlock the parallel drain).
//   AGV102  dangling endpoint: an input or subgraph return references a
//           null node, a node owned by a different graph, or an output
//           index the producer does not have — the executor would read
//           another step's slot or out of bounds.
//   AGV103  subgraph capture structure: Cond/While call-site inputs,
//           FuncGraph captures, and capture Arg indices must stay in
//           lockstep (captures are passed positionally as trailing
//           args); a pass that rewires one side but not the other makes
//           the branch/body read the wrong outer value.
//   AGV104  dtype mismatch: a node's recorded output dtype disagrees
//           with what graph::InferDtype derives for its op (checked
//           only where inference is authoritative, e.g. comparisons are
//           bool, Cast is its attr) or a Const disagrees with its
//           value; kernels and downstream inference trust the recorded
//           dtype.
//   AGV105  control-flow signature: Cond branches must agree on return
//           count and dtypes, a While cond must return a single bool,
//           and a While body must preserve loop-variable dtypes — the
//           graph-level analog of aglint's AG002/AG003, enforced after
//           passes rewrite subgraphs.
//   AGV106  fused-body compilability: a FusedElementwise body must
//           compile into the executor's scalar recipe (no captures, one
//           return naming the last op, only fusable elementwise/cast
//           ops, input count matching the body's args) — checked with
//           the kernel's own compiler (graph::CompileFusedBody), so a
//           pass that emits a malformed fusion fails verification here
//           instead of at dispatch.
//
// Plan invariants (AGV2xx) live in verify/plan_verify.h. The agverify
// CLI (tools/agverify.cc) stages a .pym and runs every checker at every
// stage; graph::OptimizeOptions::verify_each_pass runs VerifyGraph
// after each optimization pass and attributes the first violation to
// the pass that introduced it.
#pragma once

#include <string>
#include <vector>

#include "graph/graph.h"

namespace ag::verify {

// One structured verifier finding — the graph/plan-level analog of
// analysis::Diagnostic. Artifacts have no source location; `where`
// names the node / step / subgraph path instead.
struct VerifyDiagnostic {
  std::string code;     // "AGV101" ... "AGV2xx"
  std::string message;  // one line, names the offending node or step
  std::string where;    // e.g. "node 'while/body' (While) in body of 'w'"
  std::string note;     // optional rationale / remediation ("" if absent)

  // "error: [AGV101] message (at where)" (+ "\n  note: ..." if set).
  [[nodiscard]] std::string str() const;
};

// Verifies one graph (recursing into Cond/While subgraphs): AGV101-106.
// Results are ordered by node id within each graph, outer graph first.
[[nodiscard]] std::vector<VerifyDiagnostic> VerifyGraph(
    const graph::Graph& graph);

// Same, plus validates that each fetch root is a live endpoint of
// `graph` (a pass that remaps roots to a pruned node breaks every Run).
[[nodiscard]] std::vector<VerifyDiagnostic> VerifyGraphAndRoots(
    const graph::Graph& graph, const std::vector<graph::Output>& roots);

// All findings, one per line (empty string when clean).
[[nodiscard]] std::string FormatFindings(
    const std::vector<VerifyDiagnostic>& findings);

}  // namespace ag::verify
