// Symbolic reverse-mode differentiation over the graph IR — this repo's
// tf.gradients. Gradient subgraphs are appended to the same graph, so a
// single Session::Run computes forward and backward together (needed for
// the in-graph training loop of Table 2 and for MAML / L-BFGS).
//
// Broadcasting note: shapes are unknown at graph-build time, so gradient
// routing through broadcasting ops emits `SumToShapeOf(grad, operand)`
// nodes, which reduce the gradient to the operand's runtime shape.
#pragma once

#include <vector>

#include "graph/ops.h"

namespace ag::autodiff {

// Returns d y / d xs[i] for each i, as new endpoints in ctx's current
// graph. `y` must be effectively scalar (the usual loss case; the seed
// gradient is OnesLike(y)). Throws Error(kStaging) if some op on the path
// has no registered gradient. An x with no path from y yields
// ZerosLike(x).
[[nodiscard]] std::vector<graph::Output> Gradients(
    graph::GraphContext& ctx, graph::Output y,
    const std::vector<graph::Output>& xs);

// True if a gradient function is registered for `op`.
[[nodiscard]] bool HasGradient(const std::string& op);
// Every op name with a registered gradient (unordered).
[[nodiscard]] std::vector<std::string> GradientOps();

}  // namespace ag::autodiff
