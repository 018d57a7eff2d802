// Elementwise-chain fusion (the marian-style operator-fusion win for
// this IR): single-consumer chains of elementwise/cast ops collapse
// into one FusedElementwise node whose "body" attr is a FuncGraph of
// the original ops. The executor compiles that body into a
// tensor-layer FusedProgram (tensor_ops.h) evaluated block-wise in one
// pass, eliminating every intermediate tensor in the chain.
//
// Legality rules (each checked by the pass):
//   - every chain op is a single-output elementwise/cast op whose op
//     table row has a FusedOp scalar form (graph/ops.h);
//   - every interior value has exactly one use — the next chain op —
//     counting fetch roots, subgraph captures, and returns as uses;
//   - the body captures nothing: all external operands become explicit
//     Args, so the fused node is a pure function of its inputs.
// Under those rules the fused replay is bit-identical to the unfused
// chain (see the FusedProgram contract in tensor_ops.h); the A/B suite
// in tests/fusion_test.cc holds both engines to that.
#pragma once

#include "graph/graph.h"
#include "tensor/tensor_ops.h"

namespace ag::graph {

struct PassContext;

// True when `node` may participate in a fused chain.
[[nodiscard]] bool IsFusableElementwise(const Node& node);

// The "fusion" pass body: fuses chains in the top-level graph and in
// Cond/While subgraphs (never inside FusedElementwise bodies). Returns
// the number of chains collapsed.
int FuseElementwiseChains(PassContext& ctx);

// Compiles a FusedElementwise body into the scalar recipe the kernel
// replays. Validates the legality rules above (no captures, one return
// naming the last op, Args dense in [0, num_explicit_args)) and throws
// Error on any violation — the executor and AGV106 both call this, so
// a malformed body fails verification instead of miscomputing.
[[nodiscard]] FusedProgram CompileFusedBody(const FuncGraph& body);

}  // namespace ag::graph
