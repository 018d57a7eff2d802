// Graph executor — this repo's tf.Session.
//
// A Session executes a built Graph: feed placeholders, fetch endpoints.
// Only nodes reachable from the fetches are executed. Each fetch list is
// compiled once into a Plan (cached per fetch signature) and every Run
// executes that plan. Functional control flow follows TF graph
// semantics:
//   - Cond's inputs (predicate and the captures of both branches) are
//     all evaluated first — so side effects feeding an untaken branch
//     still happen — then only the taken branch's sub-plan runs;
//   - While repeatedly executes its cond/body sub-plans over the loop
//     variables.
// Variables persist across Run calls in the session's variable store.
//
// Execution. obs::RunOptions::inter_op_threads picks how a plan is
// drained, never which semantics apply:
//   - 0 (default): the calling thread runs the steps in plan order,
//     moving each value into its final consumer (plan-time liveness)
//     so in-place kernels can recycle buffers;
//   - >= 1: a ready-queue over precomputed successor lists and
//     pending-input counts, drained by the calling thread plus up to
//     (inter_op_threads - 1) shared-pool workers. Stateful steps
//     (Variable/Assign/Print, plus Cond/While whose subgraphs contain
//     any of those) are chained in plan order so side effects keep
//     their sequential semantics.
// Cond/While sub-plans always run sequentially inside their step.
//
// Sessions are safe to Run() from multiple threads concurrently: the
// plan cache and the variable store are mutex-protected and SessionStats
// counters are atomic. A Run counts its steps in its own context and
// adds them to SessionStats once, when it returns or throws.
//
// Observability: every Run overload accepts an optional trailing
// `const obs::RunOptions*` / `obs::RunMetadata*` pair (TF's
// RunOptions/RunMetadata). When options are null or disabled, execution
// takes the uninstrumented fast path; when enabled, per-node step stats,
// While/Cond counters, plan-compile phase timings, and (with
// RunOptions::trace) Chrome-trace events are collected into the
// metadata.
//
// Interruption: RunOptions::deadline_ms / cancel_token /
// max_while_iterations make a Run killable. Both drains poll
// cooperatively (kernel launches, While iterations, the parallel
// drain's claim path) and unwind through the normal failure machinery
// with Error(kDeadlineExceeded / kCancelled / kRuntime), after which
// the Session remains fully usable — variables and plan caches intact.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exec/kernels.h"
#include "exec/value.h"
#include "graph/graph.h"
#include "graph/ops.h"
#include "obs/run_metadata.h"
#include "runtime/cancellation.h"
#include "tensor/simd/dispatch.h"

namespace ag::exec {

// Counters are atomic so concurrent Run() calls aggregate correctly;
// they read as plain integers (implicit load). nodes_executed and
// kernel_invocations advance when a Run ends, by that Run's counts.
// A Const step is a plan literal: it counts as a node executed but calls
// no kernel, so it is not a kernel invocation.
struct SessionStats {
  std::atomic<int64_t> nodes_executed{0};  // node evals incl. control flow
  std::atomic<int64_t> kernel_invocations{0};  // kernel calls (cumulative)
  std::atomic<int64_t> runs{0};
  // CompilePlan invocations. Stays 0 for sessions whose plan caches were
  // pre-populated from an .agc artifact — the observable proof that
  // artifact load skips plan compilation entirely.
  std::atomic<int64_t> plans_compiled{0};

  [[nodiscard]] std::string DebugString() const;
};

// An ordered feed list: the positional analog of the name-keyed feed
// map (placeholder name, value) — shared by Session and StagedFunction
// so both Run() surfaces accept both shapes.
using FeedList = std::vector<std::pair<std::string, RuntimeValue>>;

class Session {
 public:
  // The graph must outlive the session.
  explicit Session(const graph::Graph* graph) : graph_(graph) {}

  // Executes the graph. `feeds` bind placeholder names to values.
  std::vector<RuntimeValue> Run(
      const std::map<std::string, RuntimeValue>& feeds,
      const std::vector<graph::Output>& fetches,
      const obs::RunOptions* options = nullptr,
      obs::RunMetadata* metadata = nullptr);

  // Ordered-feed-list overload (the unified positional Run shape). A
  // deduction-blocked template so brace-initialized feeds — which could
  // construct either container — keep binding to the map overload above.
  template <typename V,
            std::enable_if_t<std::is_same_v<V, RuntimeValue>, int> = 0>
  std::vector<RuntimeValue> Run(
      const std::vector<std::pair<std::string, V>>& feeds,
      const std::vector<graph::Output>& fetches,
      const obs::RunOptions* options = nullptr,
      obs::RunMetadata* metadata = nullptr) {
    std::map<std::string, RuntimeValue> feed_map;
    for (const auto& [name, value] : feeds) {
      feed_map.insert_or_assign(name, value);
    }
    return Run(feed_map, fetches, options, metadata);
  }

  // Single-fetch convenience returning a Tensor.
  Tensor RunTensor(const std::map<std::string, RuntimeValue>& feeds,
                   const graph::Output& fetch,
                   const obs::RunOptions* options = nullptr,
                   obs::RunMetadata* metadata = nullptr);

  // Variable store (mutex-protected; safe against concurrent Runs).
  void SetVariable(const std::string& name, Tensor value) {
    std::lock_guard<std::mutex> lock(var_mu_);
    variables_[name] = std::move(value);
  }
  // Returns a copy (Tensors share storage, so this is cheap) — a
  // reference into the store could be invalidated by a concurrent
  // Assign. Throws a structured Error(kRuntime) naming the missing
  // variable and listing the known ones.
  [[nodiscard]] Tensor GetVariable(const std::string& name) const;
  [[nodiscard]] bool HasVariable(const std::string& name) const {
    std::lock_guard<std::mutex> lock(var_mu_);
    return variables_.count(name) > 0;
  }

  [[nodiscard]] const SessionStats& stats() const { return stats_; }

  // Precompiled execution plan for a fetched subgraph (the top-level
  // fetch list, and the FuncGraphs inside While/Cond):
  // nodes in topological order with pre-resolved input slot indices,
  // each bound once (exec::BindStep: kernel, decoded attrs, subgraphs),
  // so running a step never goes back to the graph::Node — no hashing
  // and no attr lookup per step. This is the executor-side analog of
  // TF's executor "ready list" compilation.
  //
  // For the parallel engine each step also carries its consumer list and
  // initial pending-input count, both computed here at compile time so
  // the scheduler does nothing but atomic decrements at run time.
  //
  // Public (with CompilePlan) so verify/plan_verify.h can statically
  // audit plans and tools/agverify can compile them standalone; the
  // executors only ever consume plans built here.
  struct Plan {
    // Decided per op by the op table (graph::KindForOp).
    using Kind = graph::StepKind;
    struct InputRef {
      int step;    // producing step index (-1: function argument)
      int output;  // producer output index, or arg index when step < 0
    };
    // Per-input liveness verdicts from CompilePlan's last-use pass.
    // kMoveSeq: this step is the value's final consumer in plan order —
    // the sequential executor hands the kernel the slot's own handle
    // (enabling in-place buffer reuse) instead of a copy. kMoveAlways:
    // additionally the value's only consumer anywhere in the plan, so
    // the parallel drain may move too (no other step ever reads the
    // slot). Values fetched by plan.returns are never moved into
    // consumers; returns_move releases those at the final fetch.
    static constexpr uint8_t kKeep = 0;
    static constexpr uint8_t kMoveSeq = 1;
    static constexpr uint8_t kMoveAlways = 2;
    // A Cond or While step's pointer to the session's plan for one of
    // its subgraphs: null until the step first runs, then set once (the
    // plan cache is node-based, so the address is stable). Copies start
    // unbound, so a plan copied out of one session never carries
    // pointers into that session's cache.
    class SubPlanRef {
     public:
      SubPlanRef() = default;
      SubPlanRef(const SubPlanRef& /*other*/) noexcept {}
      SubPlanRef& operator=(const SubPlanRef&) = delete;
      [[nodiscard]] const Plan* get() const {
        return plan_.load(std::memory_order_acquire);
      }
      void set(const Plan* plan) const {
        plan_.store(plan, std::memory_order_release);
      }

     private:
      mutable std::atomic<const Plan*> plan_{nullptr};
    };
    // A bound node (exec/kernels.h: kernel, decoded attrs, subgraphs)
    // plus its place in the plan.
    struct Step : BoundStep {
      Step() = default;
      explicit Step(BoundStep bound) : BoundStep(std::move(bound)) {}
      std::vector<InputRef> inputs;
      // Parallel to `inputs`: kKeep / kMoveSeq / kMoveAlways.
      std::vector<uint8_t> input_move;
      // Consumer steps (deduped; includes the stateful-order chain).
      std::vector<int> successors;
      // Number of distinct producer steps that must finish first.
      int pending_init = 0;
      // Cond: then/else plans; While: cond/body plans (see SubPlan).
      SubPlanRef sub_plans[2];
    };
    std::vector<Step> steps;
    std::vector<InputRef> returns;
    // Parallel to `returns`: 1 = move the value out of its slot at this
    // (final) fetch, so e.g. While loop-carried values re-enter the
    // next iteration sole-owned and eligible for in-place reuse.
    std::vector<uint8_t> returns_move;
    // Cross-boundary liveness: which caller-arg indices any step input
    // or return actually reads, indexed by arg index (indices at or
    // past the vector's end were never referenced). Meaningful for
    // plans compiled with allow_args; the While/Cond executors consult
    // the sub-plan's mask to release captures it provably never
    // consumes instead of keeping them alive across every iteration.
    std::vector<char> args_used;
    [[nodiscard]] bool ArgUsed(size_t index) const {
      return index < args_used.size() && args_used[index] != 0;
    }
  };

  // Compiles the subgraph reachable from `returns` into a Plan. Pure
  // (no session state mutated); `allow_args` permits Arg references
  // (FuncGraph sub-plans). Two plan-time transforms run on every plan
  // up to a size cap, both value-exact in both engines:
  //   - memory-aware scheduling greedily re-places the topological
  //     order so each position retires as many live slots as the
  //     dependencies allow (stateful steps keep their relative order);
  //   - transitive reduction drops every dataflow edge already implied
  //     by a longer path, shrinking the parallel drain's pending-count
  //     traffic (edges between consecutive stateful steps are kept).
  // In debug or -DAG_VERIFY=ON builds the result is audited by
  // verify::VerifyPlan before being returned.
  Plan CompilePlan(const std::vector<graph::Output>& returns,
                   bool allow_args);

  // Artifact load support (src/artifact): pre-populate the plan caches
  // with plans deserialized from an .agc file so PlanFor / TopPlanFor
  // hit without ever running CompilePlan. First install wins, matching
  // the compile race policy. The plan must have been compiled for
  // `subgraph->returns` / `fetches` — verify::VerifyPlan audits
  // structure, and the artifact reader cross-checks the return
  // endpoints before installing.
  void InstallPlan(const graph::Graph* subgraph, Plan plan);
  void InstallTopPlan(const std::vector<graph::Output>& fetches, Plan plan);

  // Copy of the variable store (artifact save). Tensors share storage,
  // so this is cheap.
  [[nodiscard]] std::map<std::string, Tensor> SnapshotVariables() const;

 private:
  // Per-Run execution context, threaded through the call tree instead of
  // living in session members so concurrent Runs never share it.
  struct RunCtx {
    const std::map<std::string, RuntimeValue>* feeds = nullptr;
    obs::RunRecorder* rec = nullptr;  // null on the fast path
    int inter_op_threads = 0;
    int intra_op_threads = 0;
    // Cooperative cancellation/deadline poll point for this run (null
    // when the options request none — the zero-overhead default).
    // Polled at kernel launches, While iterations, and the parallel
    // drain's claim path; owned by Run()'s stack frame.
    runtime::CancelCheck* cancel = nullptr;
    // Finite runaway-loop guard (RunOptions::max_while_iterations).
    int64_t max_while_iterations = int64_t{1} << 31;
    // Test-only: RunOptions::inject_compile_delay_ms, applied on cold
    // plan-cache compiles so deadline-vs-compile accounting is testable.
    int64_t inject_compile_delay_ms = 0;
    // RunOptions::buffer_pool: false pins a tensor::PoolDisableScope for
    // the whole run (including pool helpers), restoring the unpooled
    // allocation path.
    bool buffer_pool = true;
    // RunOptions::kernel_backend, resolved at Run() entry. When set, a
    // tensor::simd::KernelBackendScope pins this backend for the whole
    // run (pool helpers mirror the scope per drain); unset runs under
    // the process default.
    std::optional<tensor::simd::KernelBackend> kernel_backend;
    // Steps and kernel launches executed through this context. Run()
    // adds them to SessionStats once at its end; each parallel-drain
    // participant counts in its own copy and hands its counts to the
    // caller's context before the run can finish.
    int64_t nodes_executed = 0;
    int64_t kernel_invocations = 0;
  };

  // Shared run state of one parallel plan execution (defined in the
  // .cc); shared_ptr-owned so pool helpers may outlive the caller's
  // epilogue safely.
  struct ParallelRun;
  // Reusable storage of plan executions (defined in the .cc): a plan's
  // scratch holds one StepSlot per step and an input gather buffer; a
  // Cond or While step's slot also owns the scratch of its sub-plan
  // runs, so a While body's slots and its nested control flow keep their
  // capacity across iterations.
  struct StepSlot;
  struct PlanScratch;
  struct ControlScratch;

  const Plan& PlanFor(const graph::FuncGraph& fg, RunCtx& ctx);
  // Plan `which` (0 or 1, see Plan::Step::sub_plans) of a Cond or While
  // step. Only a step's first execution goes to PlanFor and its lock.
  const Plan& SubPlan(const Plan::Step& step, int which, RunCtx& ctx);
  // Plan for a top-level fetch list, cached per fetch signature.
  const Plan& TopPlanFor(const std::vector<graph::Output>& fetches,
                         RunCtx& ctx);
  // Executes one plan step given its resolved inputs, writing the step's
  // outputs to `slot`. Shared by the sequential and parallel drains.
  // `inputs` is consumed: elements the gather loop moved in are the last
  // live handles to their values, and the step forwards them into
  // kernels / sub-plan args so in-place reuse can trigger.
  void ExecStep(const Plan::Step& step, std::vector<RuntimeValue>& inputs,
                StepSlot& slot, RunCtx& ctx);
  // Runs `plan` sequentially, writing its returns to `results`.
  // `scratch` may be reused across calls (a While body's is, across
  // iterations); it is resized as needed. `args` is mutable so flagged
  // arg references can be moved into their final consumers; callers own
  // the vector and expect it consumed.
  void RunPlan(const Plan& plan, std::vector<RuntimeValue>& args,
               PlanScratch& scratch, std::vector<RuntimeValue>& results,
               RunCtx& ctx);
  // Ready-queue parallel engine: the caller drains alongside up to
  // (ctx.inter_op_threads - 1) pool helpers.
  void RunPlanParallel(const Plan& plan, const std::vector<RuntimeValue>& args,
                       std::vector<RuntimeValue>& results, RunCtx& ctx);
  // One scheduler participant: claims ready steps until the run
  // finishes (caller) or the queue momentarily empties (helper).
  // Static: pool helpers reach the session through the run state only
  // while they hold a claimed step (the caller cannot return before
  // then), never through a captured `this` that could dangle.
  static void Drain(const std::shared_ptr<ParallelRun>& run, bool is_caller);
  static void MaybeScheduleHelpers(const std::shared_ptr<ParallelRun>& run);

  const graph::Graph* graph_;
  mutable std::mutex var_mu_;
  std::map<std::string, Tensor> variables_;
  std::mutex plan_mu_;
  std::unordered_map<const graph::Graph*, Plan> plans_;
  // Top-level plans keyed by fetch signature (fetches vary per Run).
  std::map<std::vector<std::pair<const graph::Node*, int>>, Plan> top_plans_;
  SessionStats stats_;
  // Invocation counters for the stateful random ops: draws are a pure
  // function of (node, invocation index) within this session, so
  // parallel and sequential execution are bit-identical.
  RngRunState rng_state_;
};

}  // namespace ag::exec
