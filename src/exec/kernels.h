// Kernel registry: maps op type strings to CPU kernel implementations.
// Shared by the Session executor and by constant folding.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/value.h"
#include "graph/graph.h"

namespace ag::exec {

// Kernels receive their inputs by mutable reference and may consume
// (move out of) any element: the executor hands each kernel the last
// live handle to an edge value whenever the plan's liveness pass proved
// this step is its final consumer, which is what lets the elementwise
// kernels write in place and the list kernels append without copying.
// A kernel must not assume inputs are intact after it returns.
using Kernel = std::function<std::vector<RuntimeValue>(
    const graph::Node&, std::vector<RuntimeValue>&)>;

// Invocation counters for the stateful random ops. Each random node
// draws from its own stream, seeded by (node name, invocation index) —
// never from a shared engine — so results are a pure function of the
// invocation history, bit-identical between sequential and parallel
// execution, while successive Runs still see fresh draws.
//
// Session owns one RngRunState (counters advance across its Runs) and
// installs it with RngRunScope on every thread that executes kernels
// (the run thread, and each pool helper per parallel drain). Outside
// any run (e.g. a bare kernel invocation in a test) a process-wide
// fallback table keyed by node keeps draws advancing.
struct RngRunState {
  std::mutex mu;
  std::unordered_map<const graph::Node*, uint64_t> counts;
};

class RngRunScope {
 public:
  explicit RngRunScope(RngRunState* state);
  ~RngRunScope();
  RngRunScope(const RngRunScope&) = delete;
  RngRunScope& operator=(const RngRunScope&) = delete;

 private:
  RngRunState* previous_;
};

// The calling thread's installed per-run state (null outside a run).
[[nodiscard]] RngRunState* CurrentRngRunState();

// Returns the kernel for `op`, or throws Error(kRuntime) if the op has no
// registered kernel (control-flow / stateful ops are executed by the
// Session itself and have no kernels).
[[nodiscard]] const Kernel& FindKernel(const std::string& op);
[[nodiscard]] bool HasKernel(const std::string& op);
// Every op name with a registered kernel (unordered).
[[nodiscard]] std::vector<std::string> KernelOps();

// Tensor-only adapter used by graph::Optimize for constant folding.
[[nodiscard]] std::vector<Tensor> EvaluatePureNode(
    const graph::Node& node, const std::vector<Tensor>& inputs);

}  // namespace ag::exec
