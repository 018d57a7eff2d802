// Kernel registry: maps op type strings to CPU kernel implementations.
// Shared by the Session executor and by constant folding.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/value.h"
#include "graph/graph.h"
#include "graph/ops.h"
#include "tensor/tensor_ops.h"

namespace ag::exec {

struct BoundStep;

// Kernels receive their inputs by mutable reference and may consume
// (move out of) any element: the executor hands each kernel the last
// live handle to an edge value whenever the plan's liveness pass proved
// this step is its final consumer, which is what lets the elementwise
// kernels write in place and the list kernels append without copying.
// A kernel must not assume inputs are intact after it returns.
//
// A kernel writes its results into `out`, the step's output slot,
// replacing whatever the slot held and keeping its capacity, so a While
// body that reuses its slots across iterations allocates no vectors.
// Everything else a kernel reads comes from the bound step: the attrs
// decoded once by BindStep, or the node itself for attrs read rarely.
using Kernel = std::function<void(const BoundStep&, std::vector<RuntimeValue>&,
                                  std::vector<RuntimeValue>&)>;

// One graph node resolved for execution: its kernel, and every attr the
// hot ops read on each call, decoded once. Everything here is derived
// from the node, so plans loaded from an artifact bind exactly like
// compiled ones and the artifact format carries none of it.
struct BoundStep {
  const graph::Node* node = nullptr;
  graph::StepKind kind = graph::StepKind::kKernel;
  const Kernel* kernel = nullptr;  // kKernel only
  // Const: the step's output is a refcount copy of `value`; the executor
  // hands it out without calling the kernel.
  bool literal = false;
  Tensor value;
  std::shared_ptr<const Shape> shape;            // Reshape's dims
  std::shared_ptr<const FusedProgram> program;   // FusedElementwise body
  int axis = kAllAxes;                           // reductions, ArgMax, ...
  bool keepdims = false;                         // reductions
  int64_t k = 0;                                 // TopK
  // The op table's FLOP model, and the body's op count for kFusedBody,
  // for the step stats of instrumented runs.
  graph::FlopModel flops = graph::FlopModel::kNone;
  int64_t fused_ops = 0;
  // Cond: then/else branch; While: cond/body.
  const graph::FuncGraph* subgraphs[2] = {nullptr, nullptr};
  size_t ncaps = 0;          // Cond: then_ncaps; While: cond_ncaps
  size_t num_loop_vars = 0;  // While
};

// Binds `node`: the one place a node's kernel is looked up and its attrs
// decoded, shared by Session::CompilePlan, the artifact plan reader and
// EvaluatePureNode. Throws Error if the node has no kernel or an attr
// the op needs is missing or malformed.
[[nodiscard]] BoundStep BindStep(const graph::Node& node);

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
