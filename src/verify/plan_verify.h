// Plan-level static verification (AGV2xx): audits the artifact
// exec::Session::CompilePlan produces before the parallel drain trusts
// it. The plan engine does nothing at run time but atomic pending-count
// decrements and (for flagged inputs) value moves — every soundness
// argument lives in the compiled successor lists, pending counts,
// stateful chain, and move flags. These checks prove those properties
// instead of assuming them.
//
// Plan invariant catalog — one line of "why" per code:
//
//   AGV201  pending count mismatch: a step's pending_init must equal its
//           distinct predecessor count over the successor edges; too low
//           launches the step before its inputs exist, too high
//           deadlocks the drain.
//   AGV202  malformed successor list: duplicate or non-forward edges
//           double-decrement or cyclically deadlock the ready-queue.
//   AGV203  missing dataflow ordering: a consumer reading a producer's
//           slot without a successor *path* from the producer races the
//           write in the parallel engine. A direct edge is not required
//           — CompilePlan's transitive reduction drops edges implied by
//           longer paths, and ordering is transitive along them.
//   AGV204  stateful chain broken: consecutive stateful steps (Variable/
//           Assign/Print, plus Cond/While whose subgraphs transitively
//           contain one) must be linked by a direct edge so side effects
//           keep their sequential order — the invariant whose violation
//           caused PR 3's Cond/While effect-reordering bug.
//   AGV205  malformed step: null node, non-topological or out-of-range
//           input ref, op/kind disagreement, missing kernel, or a move
//           flag vector that does not match the inputs — each makes
//           ExecStep read garbage.
//   AGV206  malformed returns: a fetch referencing a nonexistent step or
//           output, or a returns_move vector of the wrong arity.
//   AGV210  value read after move: an input flagged kMoveSeq/kMoveAlways
//           with a later reference to the same slot — the later reader
//           would see a moved-from (empty) value.
//   AGV211  kMoveAlways on a non-sole-consumer or argument slot: the
//           parallel drain moves without ordering against other readers,
//           so only a slot with exactly one reference anywhere (and
//           never a caller-owned arg) may carry it.
//   AGV212  fetched value moved by a consumer: returns read slots after
//           all steps complete, so consumer moves of fetched slots
//           return empty results.
//   AGV213  returns_move not at the final fetch: moving a slot at a
//           non-final fetch hands the earlier fetch the value and the
//           later ones nothing; missing the final move leaks the slot's
//           buffer back into the plan scratch.
//   AGV214  unordered variable access (schedule race): two steps that
//           (transitively, through Cond/While subgraphs) read or write
//           the same variable must be ordered by a successor path, or
//           the parallel scheduler is free to interleave them — the
//           static race detector for the schedule.
#pragma once

#include <vector>

#include "exec/session.h"
#include "verify/verify.h"

namespace ag::verify {

struct PlanVerifyOptions {
  // Whether arg references (InputRef.step == -1) are legal — true for
  // FuncGraph sub-plans, false for top-level plans.
  bool allow_args = true;
};

// Verifies one compiled plan: AGV201-AGV214. Findings are ordered by
// step index. Does not recurse into Cond/While sub-plans — those are
// compiled (and verified) separately per FuncGraph.
[[nodiscard]] std::vector<VerifyDiagnostic> VerifyPlan(
    const exec::Session::Plan& plan, const PlanVerifyOptions& options = {});

// Transitive statefulness of one plan step (graph::NodeIsStateful: a
// Variable/Assign/Print, or a Cond/While whose subgraphs contain one) —
// the predicate AGV204 audits the chain against, exported so fault
// injection (tools/agverify --inject, tests/verify_test.cc) can locate
// chain edges to corrupt.
[[nodiscard]] bool PlanStepIsStateful(const exec::Session::Plan::Step& step);

}  // namespace ag::verify
