#include "exec/session.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "runtime/parallel_for.h"
#include "runtime/thread_pool.h"
#include "support/error.h"
#include "tensor/allocator.h"
#include "tensor/simd/dispatch.h"
#include "verify/plan_verify.h"

namespace ag::exec {

using graph::FuncGraph;
using graph::Node;
using graph::Output;

namespace {

int64_t DTypeBytes(DType dtype) { return dtype == DType::kBool ? 1 : 4; }

// Bytes produced by one node execution (tensor lists count their items).
int64_t OutputBytes(const std::vector<RuntimeValue>& outputs) {
  int64_t total = 0;
  for (const RuntimeValue& v : outputs) {
    if (IsTensor(v)) {
      const Tensor& t = AsTensor(v);
      if (!t.defined()) continue;  // stolen by an in-place kernel
      total += t.num_elements() * DTypeBytes(t.dtype());
    } else if (const TensorListPtr& list = AsList(v); list != nullptr) {
      for (const Tensor& t : list->items()) {
        total += t.num_elements() * DTypeBytes(t.dtype());
      }
    }
  }
  return total;
}

// Roofline flop estimates for one node execution, feeding the gflops
// column in the per-op table, from the op table's FLOP model. An
// estimate, not a measurement. Split in two because in-place kernels may
// steal (move out of) their input tensors: anything derived from input
// shapes must be computed BEFORE the kernel runs, anything derived from
// outputs after.
//
// InputFlops: 2·m·k·n for kMatMul, one flop per element of the first
// input for kReduce; 0 otherwise. Pre-kernel.
int64_t InputFlops(graph::FlopModel model,
                   const std::vector<RuntimeValue>& inputs) {
  if (model == graph::FlopModel::kReduce) {
    if (inputs.empty() || !IsTensor(inputs[0])) return 0;
    const Tensor& a = AsTensor(inputs[0]);
    return a.defined() ? a.num_elements() : 0;
  }
  if (model != graph::FlopModel::kMatMul) return 0;
  if (inputs.size() < 2 || !IsTensor(inputs[0]) || !IsTensor(inputs[1])) {
    return 0;
  }
  const Tensor& a = AsTensor(inputs[0]);
  const Tensor& b = AsTensor(inputs[1]);
  if (!a.defined() || !b.defined() || a.rank() != 2 || b.rank() != 2) {
    return 0;
  }
  return 2 * a.shape().dim(0) * a.shape().dim(1) * b.shape().dim(1);
}

// ElementwiseFlops: one flop per output element for kUnit, times the
// body's op count (`fused_ops`) for kFusedBody; 0 otherwise. Post-kernel.
int64_t ElementwiseFlops(graph::FlopModel model, int64_t fused_ops,
                         const std::vector<RuntimeValue>& outputs) {
  if (outputs.empty() || !IsTensor(outputs[0]) ||
      !AsTensor(outputs[0]).defined()) {
    return 0;
  }
  const int64_t elems = AsTensor(outputs[0]).num_elements();
  if (model == graph::FlopModel::kUnit) return elems;
  if (model != graph::FlopModel::kFusedBody) return 0;
  return fused_ops * elems;
}

// Annotates an interruption (cancel/deadline) escaping a While loop
// with the loop's identity: the poll that tripped is usually a kernel
// or sub-plan step deep inside the body, so without this the error
// would not name the loop the run died in. Other error kinds pass
// through untouched. Must be called from within a catch block.
[[noreturn]] void RethrowWithWhileContext(const Error& e,
                                          const std::string& node_name,
                                          int64_t iteration) {
  if (e.kind() == ErrorKind::kCancelled ||
      e.kind() == ErrorKind::kDeadlineExceeded) {
    throw Error(e.kind(),
                e.message() + " (in While node '" + node_name +
                    "', iteration " + std::to_string(iteration) + ")",
                e.frames());
  }
  throw;
}

}  // namespace

std::string SessionStats::DebugString() const {
  std::ostringstream os;
  os << "SessionStats: runs=" << runs.load()
     << " nodes_executed=" << nodes_executed.load()
     << " kernel_invocations=" << kernel_invocations.load()
     << " plans_compiled=" << plans_compiled.load();
  return os.str();
}

struct Session::StepSlot {
  std::vector<RuntimeValue> values;  // the step's outputs
  // Cond/While only, created on the step's first execution.
  std::unique_ptr<ControlScratch> control;
};

struct Session::PlanScratch {
  std::vector<StepSlot> slots;  // one per step
  // The gather buffer each step's inputs are collected into.
  std::vector<RuntimeValue> inputs;
};

// The buffers of a Cond or While step's sub-plan runs. A Lease drops
// their values when the step ends, by either exit, so nothing outlives
// the step as it would with locals, but the vectors keep their capacity
// for the step's next execution (the next iteration of an enclosing
// While).
struct Session::ControlScratch {
  PlanScratch plans[2];  // Cond: then/else; While: cond/body
  std::vector<RuntimeValue> loop_vars;  // While
  std::vector<RuntimeValue> caps[2];    // While: cond/body captures
  std::vector<RuntimeValue> args;       // the running sub-plan's args
  std::vector<RuntimeValue> test;       // While: the condition's result

  void Release() {
    for (PlanScratch& p : plans) {
      for (StepSlot& slot : p.slots) slot.values.clear();
    }
    for (std::vector<RuntimeValue>* v :
         {&loop_vars, &caps[0], &caps[1], &args, &test}) {
      v->clear();
    }
  }

  class Lease {
   public:
    explicit Lease(ControlScratch& leased) : scratch(leased) {}
    ~Lease() { scratch.Release(); }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ControlScratch& scratch;
  };
  static Lease Acquire(StepSlot& slot) {
    if (slot.control == nullptr) {
      slot.control = std::make_unique<ControlScratch>();
    }
    return Lease(*slot.control);
  }
};

// Shared state of one parallel plan execution. Owned by shared_ptr: a
// pool helper that starts late (after the run already finished) must
// still find the queue it was scheduled against. Helpers dereference
// `session`/`ctx`/`args` only while they hold a claimed step, and the
// caller cannot leave RunPlanParallel before every claimed step is done.
struct Session::ParallelRun {
  Session* session = nullptr;
  const Plan* plan = nullptr;
  const std::vector<RuntimeValue>* args = nullptr;
  RunCtx ctx;
  RngRunState* rng = nullptr;
  int max_helpers = 0;

  std::vector<StepSlot> slots;
  // One refcount per step, initialized from Plan::Step::pending_init.
  std::unique_ptr<std::atomic<int>[]> pending;

  std::mutex mu;
  std::condition_variable cv;
  std::deque<int> ready;
  int in_flight = 0;        // steps claimed but not finished
  size_t done = 0;          // steps finished successfully
  int active_helpers = 0;   // pool tasks currently draining
  bool failed = false;
  // First failing step's error. ag::Error is stored by value and the
  // caller throws a fresh copy: sharing one exception object across
  // threads via exception_ptr would let a late pool helper destroy it
  // through libstdc++ refcounts ThreadSanitizer cannot see. Foreign
  // (non-Error) exceptions keep the exception_ptr path.
  std::optional<Error> error;
  std::exception_ptr foreign_error;
  // Step and kernel counts handed in by participants as their steps end.
  int64_t nodes_executed = 0;
  int64_t kernel_invocations = 0;

  [[nodiscard]] bool Finished() const {
    return in_flight == 0 && (failed || done == plan->steps.size());
  }
};

std::vector<RuntimeValue> Session::Run(
    const std::map<std::string, RuntimeValue>& feeds,
    const std::vector<Output>& fetches, const obs::RunOptions* options,
    obs::RunMetadata* metadata) {
  const bool instrument = options != nullptr && options->enabled();
  std::optional<obs::RunRecorder> recorder;
  const int64_t t0 = instrument ? obs::NowNs() : 0;
  if (instrument) recorder.emplace(*options);

  RunCtx ctx;
  ctx.feeds = &feeds;
  ctx.rec = instrument ? &*recorder : nullptr;
  std::optional<runtime::CancelCheck> cancel;
  if (options != nullptr) {
    ctx.inter_op_threads = options->inter_op_threads;
    ctx.intra_op_threads = options->intra_op_threads;
    ctx.max_while_iterations = options->max_while_iterations;
    ctx.buffer_pool = options->buffer_pool;
    if (!options->kernel_backend.empty()) {
      // ParseKernelBackend throws ValueError on unknown names (before
      // any kernel runs); an unavailable-but-valid backend degrades to
      // scalar inside ResolveBackend.
      ctx.kernel_backend = tensor::simd::ResolveBackend(
          tensor::simd::ParseKernelBackend(options->kernel_backend),
          tensor::simd::Avx2Available());
    }
    ctx.inject_compile_delay_ms = options->inject_compile_delay_ms;
    if (options->cancellable()) {
      cancel.emplace(options->cancel_token, options->deadline_ms,
                     options->inject_cancel_after_kernels,
                     /*max_while_iterations=*/0, options->deadline_ns);
      ctx.cancel = &*cancel;
    }
  }
  // A Run launched from inside an already-cancellable context (e.g. a
  // staged call made by an eager function running under a deadline)
  // inherits the enclosing check, so the outer deadline reaches every
  // nested engine.
  if (ctx.cancel == nullptr) ctx.cancel = runtime::CurrentCancelCheck();

  // Random draws index per (node, invocation) in session scope; the
  // scope makes the counters visible to every kernel this run executes
  // on this thread (pool helpers install it per drain). The cancel
  // scope likewise makes the check reachable from inside sharded
  // kernels (ParallelFor) without threading it through every kernel.
  RngRunScope rng(&rng_state_);
  std::optional<runtime::CancelCheckScope> cancel_scope;
  if (ctx.cancel != nullptr) cancel_scope.emplace(ctx.cancel);
  std::optional<runtime::IntraOpScope> intra;
  if (ctx.intra_op_threads > 0) intra.emplace(ctx.intra_op_threads);
  // RunOptions::buffer_pool=false restores the unpooled allocation path
  // for this run (helpers mirror the scope per drain).
  std::optional<tensor::PoolDisableScope> pool_off;
  if (!ctx.buffer_pool) pool_off.emplace();
  // RunOptions::kernel_backend pins the kernel dispatch table for this
  // run (helpers mirror the scope per drain).
  std::optional<tensor::simd::KernelBackendScope> backend_scope;
  if (ctx.kernel_backend.has_value()) {
    backend_scope.emplace(*ctx.kernel_backend);
  }

  // Allocator counters are process-wide monotonic; an instrumented run
  // reports its own activity as a before/after delta.
  const tensor::PoolStats pool0 =
      instrument ? tensor::BufferPool::Global().stats() : tensor::PoolStats{};
  auto stamp_alloc = [&](obs::RunMetadata* meta_out) {
    if (meta_out == nullptr) return;
    const tensor::PoolStats p = tensor::BufferPool::Global().stats();
    meta_out->alloc_count += p.alloc_count - pool0.alloc_count;
    meta_out->alloc_bytes += p.alloc_bytes - pool0.alloc_bytes;
    meta_out->pool_hit_count += p.pool_hit_count - pool0.pool_hit_count;
  };

  // Adds this run's step counts to the session totals, once.
  auto fold_counts = [&] {
    stats_.nodes_executed.fetch_add(ctx.nodes_executed,
                                    std::memory_order_relaxed);
    stats_.kernel_invocations.fetch_add(ctx.kernel_invocations,
                                        std::memory_order_relaxed);
    ++stats_.runs;
  };

  std::vector<RuntimeValue> results;
  try {
    // Admission poll: a run whose (absolute) deadline already passed —
    // e.g. one that sat in a serving queue — or whose token is already
    // cancelled fails here, before compiling a plan or launching a
    // single kernel, so expired work never occupies the engine.
    if (ctx.cancel != nullptr) ctx.cancel->Poll("Run entry");
    const Plan& plan = TopPlanFor(fetches, ctx);
    std::vector<RuntimeValue> no_args;
    if (ctx.inter_op_threads > 0) {
      RunPlanParallel(plan, no_args, results, ctx);
    } else {
      PlanScratch scratch;
      RunPlan(plan, no_args, scratch, results, ctx);
    }
  } catch (const Error& e) {
    fold_counts();
    // An interrupted (or otherwise failed) instrumented run still
    // flushes its partial profile, stamped with the interruption
    // outcome and the time it took to unwind — per-run state is on
    // this frame, so the Session itself stays fully usable.
    if (instrument) {
      const int64_t now = obs::NowNs();
      recorder->RecordPhase("run", now - t0);
      recorder->Finish(metadata);
      if (metadata != nullptr) {
        metadata->runs += 1;
        metadata->run_wall_ns += now - t0;
        stamp_alloc(metadata);
        if (e.kind() == ErrorKind::kCancelled ||
            e.kind() == ErrorKind::kDeadlineExceeded) {
          metadata->interrupted_runs += 1;
          metadata->interrupt_kind = e.kind() == ErrorKind::kCancelled
                                         ? "cancelled"
                                         : "deadline_exceeded";
          if (cancel.has_value() && cancel->tripped_at_ns() > 0) {
            metadata->unwind_ns += now - cancel->tripped_at_ns();
            metadata->unwind_samples_ns.push_back(now -
                                                  cancel->tripped_at_ns());
          }
        }
      }
    }
    throw;
  }
  fold_counts();

  if (instrument) {
    const int64_t wall = obs::NowNs() - t0;
    recorder->RecordPhase("run", wall);
    if (obs::Tracer* tracer = recorder->tracer()) {
      tracer->AddComplete("Session::Run", "session", t0, t0 + wall);
    }
    recorder->Finish(metadata);
    if (metadata != nullptr) {
      metadata->runs += 1;
      metadata->run_wall_ns += wall;
      stamp_alloc(metadata);
    }
  }
  return results;
}

Tensor Session::RunTensor(const std::map<std::string, RuntimeValue>& feeds,
                          const Output& fetch, const obs::RunOptions* options,
                          obs::RunMetadata* metadata) {
  return AsTensor(Run(feeds, {fetch}, options, metadata)[0]);
}

Tensor Session::GetVariable(const std::string& name) const {
  std::lock_guard<std::mutex> lock(var_mu_);
  auto it = variables_.find(name);
  if (it == variables_.end()) {
    std::string known;
    for (const auto& [var_name, value] : variables_) {
      if (!known.empty()) known += ", ";
      known += "'" + var_name + "'";
    }
    throw RuntimeError("variable '" + name +
                       "' has not been initialized; known variables: " +
                       (known.empty() ? "(none)" : "[" + known + "]"));
  }
  return it->second;
}

namespace {

// Plans past this size skip the quadratic/bitset plan optimizations;
// compile time stays linear and the drain just pays the extra edges.
constexpr int kMaxStepsForPlanOpt = 4096;

}  // namespace

Session::Plan Session::CompilePlan(const std::vector<Output>& returns,
                                   bool allow_args) {
  ++stats_.plans_compiled;
  Plan plan;
  std::unordered_map<const Node*, int> step_of;
  // Post-order DFS from the returns gives a topological schedule over
  // exactly the nodes this subgraph needs. Stateful nodes appear in
  // the order a depth-first, inputs-first walk of the fetches reaches
  // them, which is what the stateful chain below relies on. The stack
  // holds exactly the current DFS path; its nodes map to kOnPath until
  // they finish, so reaching one again means a cycle (AGV101), which
  // has no topological order.
  constexpr int kOnPath = -1;
  std::vector<std::pair<const Node*, size_t>> stack;
  auto visit = [&](const Node* n) -> int {
    auto [found, fresh] = step_of.try_emplace(n, kOnPath);
    if (!fresh) return found->second;
    stack.emplace_back(n, 0);
    while (!stack.empty()) {
      auto& [node, next_input] = stack.back();
      if (next_input < node->inputs().size()) {
        const Node* in = node->inputs()[next_input++].node;
        if (in->op() == "Arg") {
          if (!allow_args) {
            throw InternalError("Arg node evaluated outside a subgraph");
          }
        } else if (auto [it, pushed] = step_of.try_emplace(in, kOnPath);
                   pushed) {
          stack.emplace_back(in, 0);
        } else if (it->second == kOnPath) {
          throw InternalError("graph cycle through node '" + in->name() +
                              "'; a plan needs a topological order");
        }
        continue;
      }
      Plan::Step step(BindStep(*node));
      step.inputs.reserve(node->inputs().size());
      for (const Output& in : node->inputs()) {
        if (in.node->op() == "Arg") {
          step.inputs.push_back(Plan::InputRef{
              -1, static_cast<int>(in.node->attr<int64_t>("index"))});
        } else {
          step.inputs.push_back(
              Plan::InputRef{step_of.at(in.node), in.index});
        }
      }
      step_of[node] = static_cast<int>(plan.steps.size());
      plan.steps.push_back(std::move(step));
      stack.pop_back();
    }
    return step_of.at(n);
  };

  for (const Output& r : returns) {
    // A fetch naming an output its node does not have (a hand-built
    // Output with a bad index) fails here instead of reading past the
    // producing step's slot at run time.
    if (r.index < 0 || r.index >= r.node->num_outputs()) {
      throw InternalError("fetch of invalid output index on node '" +
                          r.node->name() + "'");
    }
    if (r.node->op() == "Arg") {
      if (!allow_args) {
        throw InternalError("Arg node evaluated outside a subgraph");
      }
      plan.returns.push_back(Plan::InputRef{
          -1, static_cast<int>(r.node->attr<int64_t>("index"))});
    } else {
      plan.returns.push_back(Plan::InputRef{visit(r.node), r.index});
    }
  }

  graph::StatefulMemo stateful_memo;
  auto stateful = [&stateful_memo](const Plan::Step& s) {
    return graph::NodeIsStateful(*s.node, stateful_memo);
  };

  // ---- Memory-aware scheduling ---------------------------------------
  // The DFS above produced one valid topological order; this greedy
  // re-placement folds plan-time liveness into step placement: at every
  // position it picks a dependency-ready step that retires the most
  // live slots (a slot retires when its final consumer runs), tie-broken
  // by original position so the schedule stays close to the sequential
  // one when nothing is gained. Values then die as early as the
  // dependencies allow, shrinking concurrent-liveness peaks and handing
  // the buffer pool a smaller, hotter working set. Reordering pure
  // steps is value-exact — kernels are deterministic functions of their
  // inputs and RNG draws are per-node counter streams — and stateful
  // steps keep their relative order, preserving the sequential effect
  // interleaving both engines promise.
  if (plan.steps.size() > 2 &&
      plan.steps.size() <= static_cast<size_t>(kMaxStepsForPlanOpt)) {
    const int n = static_cast<int>(plan.steps.size());
    // Compressed slot ids for every (producer step, output) endpoint.
    std::map<std::pair<int, int>, int> slot_id;
    auto id_of = [&slot_id](const Plan::InputRef& ref) {
      return slot_id.emplace(std::make_pair(ref.step, ref.output),
                             static_cast<int>(slot_id.size()))
          .first->second;
    };
    std::vector<std::vector<int>> reads(static_cast<size_t>(n));
    std::vector<std::vector<int>> consumers(static_cast<size_t>(n));
    std::vector<int> indeg(static_cast<size_t>(n), 0);
    for (int i = 0; i < n; ++i) {
      std::vector<int> prod;
      for (const Plan::InputRef& ref : plan.steps[static_cast<size_t>(i)]
                                           .inputs) {
        if (ref.step < 0) continue;
        const int id = id_of(ref);
        auto& r = reads[static_cast<size_t>(i)];
        if (std::find(r.begin(), r.end(), id) == r.end()) r.push_back(id);
        if (std::find(prod.begin(), prod.end(), ref.step) == prod.end()) {
          prod.push_back(ref.step);
        }
      }
      for (int p : prod) consumers[static_cast<size_t>(p)].push_back(i);
      indeg[static_cast<size_t>(i)] = static_cast<int>(prod.size());
    }
    // Readers left per slot; fetched slots get a sentinel extra reader
    // so they never count as retired. Return slots may be new to the
    // id map (a fetch nobody consumes), so intern them before sizing.
    std::vector<int> return_ids;
    for (const Plan::InputRef& r : plan.returns) {
      if (r.step >= 0) return_ids.push_back(id_of(r));
    }
    std::vector<int> readers(slot_id.size(), 0);
    for (int i = 0; i < n; ++i) {
      for (int id : reads[static_cast<size_t>(i)]) {
        ++readers[static_cast<size_t>(id)];
      }
    }
    for (int id : return_ids) ++readers[static_cast<size_t>(id)];
    std::vector<char> is_stateful(static_cast<size_t>(n), 0);
    std::vector<int> stateful_order;
    for (int i = 0; i < n; ++i) {
      if (stateful(plan.steps[static_cast<size_t>(i)])) {
        is_stateful[static_cast<size_t>(i)] = 1;
        stateful_order.push_back(i);
      }
    }
    size_t next_stateful = 0;
    std::vector<char> scheduled(static_cast<size_t>(n), 0);
    std::vector<int> order;
    order.reserve(static_cast<size_t>(n));
    for (int picked = 0; picked < n; ++picked) {
      int best = -1;
      int best_retired = -1;
      for (int i = 0; i < n; ++i) {
        if (scheduled[static_cast<size_t>(i)] != 0 ||
            indeg[static_cast<size_t>(i)] > 0) {
          continue;
        }
        // A stateful step is eligible only in its turn; the next one in
        // line always becomes dependency-ready (its producers precede
        // it in the original topological order), so no deadlock.
        if (is_stateful[static_cast<size_t>(i)] != 0 &&
            i != stateful_order[next_stateful]) {
          continue;
        }
        int retired = 0;
        for (int id : reads[static_cast<size_t>(i)]) {
          if (readers[static_cast<size_t>(id)] == 1) ++retired;
        }
        if (retired > best_retired) {  // ascending scan: ties keep the
          best = i;                    // smallest original index
          best_retired = retired;
        }
      }
      scheduled[static_cast<size_t>(best)] = 1;
      order.push_back(best);
      if (is_stateful[static_cast<size_t>(best)] != 0) ++next_stateful;
      for (int id : reads[static_cast<size_t>(best)]) {
        --readers[static_cast<size_t>(id)];
      }
      for (int c : consumers[static_cast<size_t>(best)]) {
        --indeg[static_cast<size_t>(c)];
      }
    }
    bool identity = true;
    for (int i = 0; i < n; ++i) {
      if (order[static_cast<size_t>(i)] != i) identity = false;
    }
    if (!identity) {
      std::vector<int> new_index(static_cast<size_t>(n));
      for (int pos = 0; pos < n; ++pos) {
        new_index[static_cast<size_t>(order[static_cast<size_t>(pos)])] =
            pos;
      }
      std::vector<Plan::Step> steps;
      steps.reserve(static_cast<size_t>(n));
      for (int pos = 0; pos < n; ++pos) {
        steps.push_back(std::move(
            plan.steps[static_cast<size_t>(order[static_cast<size_t>(pos)])]));
      }
      plan.steps = std::move(steps);
      for (Plan::Step& s : plan.steps) {
        for (Plan::InputRef& ref : s.inputs) {
          if (ref.step >= 0) {
            ref.step = new_index[static_cast<size_t>(ref.step)];
          }
        }
      }
      for (Plan::InputRef& r : plan.returns) {
        if (r.step >= 0) r.step = new_index[static_cast<size_t>(r.step)];
      }
    }
  }

  // Dataflow edges for the parallel engine: one deduped edge per
  // (producer, consumer) pair; pending_init counts distinct producers.
  const int num_steps = static_cast<int>(plan.steps.size());
  std::vector<int> producers;
  for (int i = 0; i < num_steps; ++i) {
    producers.clear();
    for (const Plan::InputRef& ref : plan.steps[i].inputs) {
      if (ref.step < 0) continue;
      if (std::find(producers.begin(), producers.end(), ref.step) ==
          producers.end()) {
        producers.push_back(ref.step);
      }
    }
    for (int p : producers) {
      plan.steps[p].successors.push_back(i);
    }
    plan.steps[i].pending_init = static_cast<int>(producers.size());
  }

  // Side-effect order: chain every stateful step to the next one in
  // plan order, so variable reads/writes and Print output interleave
  // exactly as the sequential drain runs them. A Cond/While step is an
  // effect fence too when any node of its subgraphs (transitively)
  // is stateful — its branch/body runs inside the step, so it must not
  // overlap other stateful steps. Random ops need no chaining — their
  // draws are per-node counter streams, independent of cross-node
  // execution order. The chain's edges are recorded so the transitive
  // reduction below never drops them (AGV204 wants them direct).
  std::set<std::pair<int, int>> chain_edges;
  int prev = -1;
  for (int i = 0; i < num_steps; ++i) {
    if (!stateful(plan.steps[i])) continue;
    if (prev >= 0) {
      chain_edges.emplace(prev, i);
      std::vector<int>& succ = plan.steps[prev].successors;
      if (std::find(succ.begin(), succ.end(), i) == succ.end()) {
        succ.push_back(i);
        ++plan.steps[i].pending_init;
      }
    }
    prev = i;
  }

  // ---- Transitive reduction of successor edges ------------------------
  // An edge (p, c) already implied by a longer path p -> s -> ... -> c
  // adds no ordering — the drain's acq_rel pending-count decrements
  // form a release sequence along the path, so the producer's slot
  // write stays ordered before the consumer's read transitively — but
  // costs one atomic decrement every execution. Dropping such edges
  // shrinks pending-count traffic on wide fan-in plans. Redundancy is
  // judged on the original edge set (the unique DAG reduction), so
  // simultaneous removal preserves reachability; pending_init is
  // rebalanced per removed edge (AGV201) and consecutive-stateful chain
  // edges are exempt (AGV204 checks them directly, and verify's AGV203
  // accepts path reachability for dataflow inputs).
  if (num_steps > 2 &&
      num_steps <= kMaxStepsForPlanOpt) {
    const size_t words = (static_cast<size_t>(num_steps) + 63) / 64;
    // reach[i*words..] = bitset of steps reachable from i (edges all
    // point forward, so a reverse sweep sees successors finished).
    std::vector<uint64_t> reach(static_cast<size_t>(num_steps) * words, 0);
    for (int i = num_steps - 1; i >= 0; --i) {
      uint64_t* row = &reach[static_cast<size_t>(i) * words];
      for (int s : plan.steps[i].successors) {
        row[static_cast<size_t>(s) / 64] |= uint64_t{1} << (s % 64);
        const uint64_t* srow = &reach[static_cast<size_t>(s) * words];
        for (size_t w = 0; w < words; ++w) row[w] |= srow[w];
      }
    }
    for (int p = 0; p < num_steps; ++p) {
      std::vector<int>& succ = plan.steps[p].successors;
      if (succ.size() < 2) continue;
      std::vector<int> kept;
      kept.reserve(succ.size());
      for (int c : succ) {
        bool redundant = false;
        if (chain_edges.count({p, c}) == 0) {
          for (int s : succ) {
            if (s == c) continue;
            if ((reach[static_cast<size_t>(s) * words +
                       static_cast<size_t>(c) / 64] >>
                 (c % 64)) &
                1) {
              redundant = true;
              break;
            }
          }
        }
        if (redundant) {
          --plan.steps[c].pending_init;
        } else {
          kept.push_back(c);
        }
      }
      succ = std::move(kept);
    }
  }

  // Caller-arg usage mask (cross-boundary liveness): every arg index
  // this plan can ever read, from step inputs and direct arg returns.
  // While/Cond executors consult the sub-plan's mask to release
  // captures it provably never consumes — e.g. one feeding only nodes
  // LICM hoisted out of a loop body — at loop entry instead of copying
  // them into every iteration.
  auto mark_arg = [&plan](const Plan::InputRef& ref) {
    if (ref.step >= 0 || ref.output < 0) return;
    const auto index = static_cast<size_t>(ref.output);
    if (plan.args_used.size() <= index) plan.args_used.resize(index + 1, 0);
    plan.args_used[index] = 1;
  };
  for (const Plan::Step& s : plan.steps) {
    for (const Plan::InputRef& ref : s.inputs) mark_arg(ref);
  }
  for (const Plan::InputRef& r : plan.returns) mark_arg(r);

  // Last-use liveness over the finalized schedule: flag, per step input,
  // whether the executor may hand the step the slot's own value handle
  // instead of a copy. kMoveSeq marks a value's final consumer in plan
  // order — valid for the sequential engine, where plan order is
  // execution order and the flagged occurrence is the last of possibly
  // many (a within-step duplicate like Mul(x, x) moves only its second
  // reference; the kernel still sees a shared buffer and copies).
  // kMoveAlways additionally requires that reference to be the value's
  // only one anywhere in the plan, which is the condition under which
  // the parallel drain may move too: the producer's pending-count
  // release/acquire orders its slot write before the sole consumer's
  // read, and no other step — whatever order the scheduler picks —
  // ever touches the slot. Values fetched by plan.returns are excluded
  // from consumer moves entirely; returns_move instead releases each
  // from its slot at its final fetch, so While loop-carried values
  // re-enter the next iteration sole-owned and eligible for in-place
  // reuse. The stateful chain contributes ordering edges, not data
  // reads, so it is invisible here. Cond/While sub-plans are compiled
  // separately and analyzed on their own: a capture crossing the
  // boundary is an ordinary step input here and an ordinary arg there,
  // each moved only at its own last use (conservative both sides).
  struct Use {
    int count = 0;
    int step = -1;
    int input = -1;
  };
  std::map<std::pair<int, int>, Use> uses;
  for (int i = 0; i < num_steps; ++i) {
    Plan::Step& s = plan.steps[i];
    s.input_move.assign(s.inputs.size(), Plan::kKeep);
    for (size_t j = 0; j < s.inputs.size(); ++j) {
      Use& u = uses[{s.inputs[j].step, s.inputs[j].output}];
      ++u.count;
      u.step = i;
      u.input = static_cast<int>(j);
    }
  }
  for (const Plan::InputRef& r : plan.returns) {
    uses.erase({r.step, r.output});
  }
  for (const auto& [key, u] : uses) {
    plan.steps[u.step].input_move[static_cast<size_t>(u.input)] =
        (u.count == 1 && key.first >= 0) ? Plan::kMoveAlways
                                         : Plan::kMoveSeq;
  }
  plan.returns_move.assign(plan.returns.size(), 0);
  std::map<std::pair<int, int>, size_t> last_fetch;
  for (size_t i = 0; i < plan.returns.size(); ++i) {
    last_fetch[{plan.returns[i].step, plan.returns[i].output}] = i;
  }
  for (const auto& [key, i] : last_fetch) {
    (void)key;
    plan.returns_move[i] = 1;
  }

#if !defined(NDEBUG) || defined(AG_VERIFY)
  // Self-audit (debug and -DAG_VERIFY=ON builds): every invariant the
  // drain assumes — pending counts, edge structure, stateful chain,
  // move soundness, schedule races — is proved before the plan is ever
  // executed. Release builds skip this; tools/agverify and the fault-
  // injection tests call verify::VerifyPlan explicitly instead.
  {
    verify::PlanVerifyOptions vopts;
    vopts.allow_args = allow_args;
    const std::vector<verify::VerifyDiagnostic> findings =
        verify::VerifyPlan(plan, vopts);
    if (!findings.empty()) {
      throw InternalError("CompilePlan produced an invalid plan (" +
                          std::to_string(findings.size()) +
                          " finding(s)); first: " + findings.front().str());
    }
  }
#endif
  return plan;
}

void Session::InstallPlan(const graph::Graph* subgraph, Plan plan) {
  std::lock_guard<std::mutex> lock(plan_mu_);
  plans_.try_emplace(subgraph, std::move(plan));
}

void Session::InstallTopPlan(const std::vector<Output>& fetches, Plan plan) {
  std::vector<std::pair<const Node*, int>> key;
  key.reserve(fetches.size());
  for (const Output& f : fetches) key.emplace_back(f.node, f.index);
  std::lock_guard<std::mutex> lock(plan_mu_);
  top_plans_.try_emplace(std::move(key), std::move(plan));
}

std::map<std::string, Tensor> Session::SnapshotVariables() const {
  std::lock_guard<std::mutex> lock(var_mu_);
  return variables_;
}

const Session::Plan& Session::PlanFor(const FuncGraph& fg, RunCtx& ctx) {
  {
    std::lock_guard<std::mutex> lock(plan_mu_);
    auto it = plans_.find(&fg);
    if (it != plans_.end()) return it->second;
  }
  // Compile outside the lock (compilation is pure); a racing thread may
  // duplicate the work, but try_emplace keeps a single winner and
  // node-based map references stay stable.
  const int64_t t0 = ctx.rec != nullptr ? obs::NowNs() : 0;
  if (ctx.inject_compile_delay_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(ctx.inject_compile_delay_ms));
  }
  Plan plan = CompilePlan(fg.returns, /*allow_args=*/true);
  if (ctx.rec != nullptr) {
    ctx.rec->RecordPhase("plan_compile", obs::NowNs() - t0);
  }
  // Cold-cache compiles count against the run's budget: a deadline that
  // expired while compiling fires here, before any step executes.
  if (ctx.cancel != nullptr) ctx.cancel->Poll("plan compile");
  std::lock_guard<std::mutex> lock(plan_mu_);
  return plans_.try_emplace(&fg, std::move(plan)).first->second;
}

const Session::Plan& Session::TopPlanFor(const std::vector<Output>& fetches,
                                         RunCtx& ctx) {
  std::vector<std::pair<const Node*, int>> key;
  key.reserve(fetches.size());
  for (const Output& f : fetches) key.emplace_back(f.node, f.index);
  {
    std::lock_guard<std::mutex> lock(plan_mu_);
    auto it = top_plans_.find(key);
    if (it != top_plans_.end()) return it->second;
  }
  const int64_t t0 = ctx.rec != nullptr ? obs::NowNs() : 0;
  if (ctx.inject_compile_delay_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(ctx.inject_compile_delay_ms));
  }
  Plan plan = CompilePlan(fetches, /*allow_args=*/false);
  if (ctx.rec != nullptr) {
    ctx.rec->RecordPhase("plan_compile", obs::NowNs() - t0);
  }
  // Cold-cache compiles count against the run's budget: a deadline that
  // expired while compiling fires here, before any step executes.
  if (ctx.cancel != nullptr) ctx.cancel->Poll("plan compile");
  std::lock_guard<std::mutex> lock(plan_mu_);
  return top_plans_.try_emplace(std::move(key), std::move(plan))
      .first->second;
}

const Session::Plan& Session::SubPlan(const Plan::Step& step, int which,
                                      RunCtx& ctx) {
  const Plan::SubPlanRef& ref = step.sub_plans[which];
  if (const Plan* plan = ref.get()) return *plan;
  // Racing first executions may both get here; PlanFor keeps a single
  // winner, so they store the same address.
  const Plan& plan = PlanFor(*step.subgraphs[which], ctx);
  ref.set(&plan);
  return plan;
}

void Session::ExecStep(const Plan::Step& step,
                       std::vector<RuntimeValue>& inputs, StepSlot& slot,
                       RunCtx& ctx) {
  ++ctx.nodes_executed;
  const Node* node = step.node;
  std::vector<RuntimeValue>& out = slot.values;
  switch (step.kind) {
    case Plan::Kind::kKernel: {
      // A Const step is a plan literal: a refcount copy of the bound
      // value, with no kernel call, launch poll or kernel count.
      auto run = [&] {
        if (step.literal) {
          out.assign(1, step.value);
          return;
        }
        try {
          (*step.kernel)(step, inputs, out);
        } catch (const Error& e) {
          throw e.WithFrame(SourceFrame{SourceLocation{"<graph>", 0, 0},
                                        node->name() + " (" + node->op() + ")",
                                        /*generated=*/true});
        }
      };
      if (!step.literal) {
        if (ctx.cancel != nullptr) ctx.cancel->PollKernel(node->name());
        ++ctx.kernel_invocations;
      }
      if (ctx.rec == nullptr) {
        run();
        break;
      }
      const int64_t t0 = obs::NowNs();
      const int64_t alloc0 = tensor::ThreadAllocCount();
      // Input-derived stats are snapshotted before the kernel: in-place
      // kernels may steal (move out of) uniquely-owned inputs.
      const int64_t in_bytes = OutputBytes(inputs);
      const int64_t in_flops = InputFlops(step.flops, inputs);
      run();
      const int64_t flops =
          in_flops + ElementwiseFlops(step.flops, step.fused_ops, out);
      ctx.rec->RecordNode(node->name(), node->op(), t0, obs::NowNs(),
                          OutputBytes(out),
                          tensor::ThreadAllocCount() - alloc0, flops,
                          in_bytes,
                          tensor::simd::KernelBackendName(
                              tensor::simd::ActiveBackend()));
      break;
    }
    case Plan::Kind::kCond: {
      const Tensor& pred = AsTensor(inputs[0]);
      if (pred.dtype() != DType::kBool) {
        throw RuntimeError("cond predicate must be a bool tensor, got " +
                           std::string(DTypeName(pred.dtype())));
      }
      const bool taken = pred.scalar_bool();
      if (ctx.rec != nullptr) ctx.rec->CountCondBranch(taken);
      const int branch = taken ? 0 : 1;
      const Plan& branch_plan = SubPlan(step, branch, ctx);
      const size_t offset = taken ? 1 : 1 + step.ncaps;
      const size_t ncaps = step.subgraphs[branch]->captures.size();
      const ControlScratch::Lease lease = ControlScratch::Acquire(slot);
      ControlScratch& c = lease.scratch;
      // The taken branch consumes its captures (the untaken branch's die
      // with `inputs`); moved-in handles flow through to branch kernels.
      // Cross-boundary liveness: a capture the branch's plan provably
      // never reads is released before the branch runs, so its buffer
      // dies here instead of surviving the whole sub-plan.
      for (size_t i = 0; i < ncaps; ++i) {
        RuntimeValue capture = std::move(inputs[offset + i]);
        c.args.push_back(branch_plan.ArgUsed(i) ? std::move(capture)
                                                : RuntimeValue{});
      }
      obs::Tracer* tracer = ctx.rec != nullptr ? ctx.rec->tracer() : nullptr;
      obs::TraceScope scope(
          tracer, tracer != nullptr ? node->name() + " (Cond)" : std::string(),
          "control");
      RunPlan(branch_plan, c.args, c.plans[branch], out, ctx);
      if (out.empty()) out.emplace_back(Tensor());
      break;
    }
    case Plan::Kind::kWhile: {
      const size_t n = step.num_loop_vars;
      const size_t cond_ncaps = step.ncaps;
      const Plan& cond_plan = SubPlan(step, 0, ctx);
      const Plan& body_plan = SubPlan(step, 1, ctx);
      const ControlScratch::Lease lease = ControlScratch::Acquire(slot);
      ControlScratch& c = lease.scratch;
      for (size_t i = 0; i < n; ++i) {
        c.loop_vars.push_back(std::move(inputs[i]));
      }
      // Cross-boundary liveness (Plan::args_used): a capture the cond
      // or body plan provably never reads — e.g. one feeding only nodes
      // LICM hoisted out of the loop — is released once at loop entry,
      // instead of being copied into (and kept alive across) every
      // iteration.
      for (size_t i = n; i < inputs.size(); ++i) {
        RuntimeValue capture = std::move(inputs[i]);
        const bool is_cond = i < n + cond_ncaps;
        const Plan& reader = is_cond ? cond_plan : body_plan;
        const size_t arg = is_cond ? i : i - cond_ncaps;
        c.caps[is_cond ? 0 : 1].push_back(
            reader.ArgUsed(arg) ? std::move(capture) : RuntimeValue{});
      }
      obs::Tracer* tracer = ctx.rec != nullptr ? ctx.rec->tracer() : nullptr;
      obs::TraceScope scope(
          tracer,
          tracer != nullptr ? node->name() + " (While)" : std::string(),
          "control");
      int64_t iter = 0;
      try {
        for (;; ++iter) {
          if (ctx.cancel != nullptr) ctx.cancel->Poll("loop head", iter);
          // The condition runs on copies; dropping them right after
          // keeps each carried value sole-owned when the body consumes
          // it below, which is what lets the body's kernels recycle the
          // previous iteration's buffers in place.
          c.args.assign(c.loop_vars.begin(), c.loop_vars.end());
          c.args.insert(c.args.end(), c.caps[0].begin(), c.caps[0].end());
          RunPlan(cond_plan, c.args, c.plans[0], c.test, ctx);
          c.args.clear();
          if (c.test.size() != 1) {
            throw RuntimeError(
                "while condition must produce a single value");
          }
          if (!AsTensor(c.test[0]).scalar_bool()) break;
          // Guard after the condition: a loop that terminates cleanly
          // in exactly N iterations never trips a bound of N.
          if (iter >= ctx.max_while_iterations) {
            throw RuntimeError("While node '" + node->name() +
                               "' exceeded max_while_iterations (" +
                               std::to_string(ctx.max_while_iterations) +
                               "); runaway staged loop?");
          }
          if (ctx.rec != nullptr) ctx.rec->CountWhileIteration();
          for (RuntimeValue& lv : c.loop_vars) {
            c.args.push_back(std::move(lv));
          }
          c.args.insert(c.args.end(), c.caps[1].begin(), c.caps[1].end());
          RunPlan(body_plan, c.args, c.plans[1], c.loop_vars, ctx);
          c.test.clear();
        }
      } catch (const Error& e) {
        RethrowWithWhileContext(e, node->name(), iter);
      }
      out.swap(c.loop_vars);
      if (out.empty()) out.emplace_back(Tensor());
      break;
    }
    case Plan::Kind::kPlaceholder: {
      const std::string& name = node->attr<std::string>("name");
      if (ctx.feeds == nullptr) {
        throw RuntimeError("placeholder '" + name +
                           "' evaluated outside Run");
      }
      auto feed = ctx.feeds->find(name);
      if (feed == ctx.feeds->end()) {
        throw RuntimeError("placeholder '" + name + "' was not fed");
      }
      out.assign(1, feed->second);
      break;
    }
    case Plan::Kind::kVariable:
      out.assign(1, GetVariable(node->attr<std::string>("var_name")));
      break;
    case Plan::Kind::kAssign: {
      const int64_t t0 = ctx.rec != nullptr ? obs::NowNs() : 0;
      {
        // The store keeps its own handle; the extra refcount is what
        // protects the variable from in-place mutation by downstream
        // consumers of the Assign's output.
        std::lock_guard<std::mutex> lock(var_mu_);
        variables_[node->attr<std::string>("var_name")] =
            AsTensor(inputs[0]);
      }
      if (ctx.rec != nullptr) {
        ctx.rec->RecordNode(node->name(), node->op(), t0, obs::NowNs(),
                            OutputBytes({inputs[0]}));
      }
      out.clear();
      out.push_back(std::move(inputs[0]));
      break;
    }
    case Plan::Kind::kArg:
      break;  // args are resolved directly; never scheduled
  }
}

void Session::RunPlan(const Plan& plan, std::vector<RuntimeValue>& args,
                      PlanScratch& scratch,
                      std::vector<RuntimeValue>& results, RunCtx& ctx) {
  // One slot per step (steps are in execution order). A While body's
  // scratch is reused across iterations instead of reallocated.
  std::vector<StepSlot>& slots = scratch.slots;
  if (slots.size() < plan.steps.size()) slots.resize(plan.steps.size());
  auto resolve = [&](const Plan::InputRef& ref) -> RuntimeValue& {
    if (ref.step < 0) return args[static_cast<size_t>(ref.output)];
    return slots[static_cast<size_t>(ref.step)]
        .values[static_cast<size_t>(ref.output)];
  };

  // Plan order is execution order here, so any input_move flag (last
  // use in plan order) licenses handing the step the stored handle
  // itself: the value's buffer becomes sole-owned inside the kernel
  // and the in-place tensor_ops paths can recycle it.
  std::vector<RuntimeValue>& inputs = scratch.inputs;
  for (size_t s = 0; s < plan.steps.size(); ++s) {
    const Plan::Step& step = plan.steps[s];
    inputs.clear();
    for (size_t j = 0; j < step.inputs.size(); ++j) {
      RuntimeValue& src = resolve(step.inputs[j]);
      if (step.input_move[j] != Plan::kKeep) {
        inputs.push_back(std::move(src));
      } else {
        inputs.push_back(src);
      }
    }
    ExecStep(step, inputs, slots[s], ctx);
  }
  // Handles the last step left unconsumed must not outlive the run (they
  // would share buffers the caller's next consumer could reuse).
  inputs.clear();

  results.clear();
  for (size_t i = 0; i < plan.returns.size(); ++i) {
    RuntimeValue& src = resolve(plan.returns[i]);
    if (plan.returns_move[i] != 0) {
      results.push_back(std::move(src));
    } else {
      results.push_back(src);
    }
  }
}

void Session::RunPlanParallel(const Plan& plan,
                              const std::vector<RuntimeValue>& args,
                              std::vector<RuntimeValue>& results,
                              RunCtx& ctx) {
  auto run = std::make_shared<ParallelRun>();
  run->session = this;
  run->plan = &plan;
  run->args = &args;
  run->ctx = ctx;
  run->rng = &rng_state_;
  run->max_helpers = std::max(0, ctx.inter_op_threads - 1);

  const size_t num_steps = plan.steps.size();
  run->slots.resize(num_steps);
  run->pending = std::make_unique<std::atomic<int>[]>(num_steps);
  for (size_t i = 0; i < num_steps; ++i) {
    run->pending[i].store(plan.steps[i].pending_init,
                          std::memory_order_relaxed);
    if (plan.steps[i].pending_init == 0) {
      run->ready.push_back(static_cast<int>(i));
    }
  }

  if (run->max_helpers > 0) {
    // Worker growth is demand-driven: MaybeScheduleHelpers leases
    // helpers from the shared pool (process-wide capped), and the lease
    // path grows the pool to the outstanding lease count.
    MaybeScheduleHelpers(run);
  }
  Drain(run, /*is_caller=*/true);

  // Drain returned only after observing completion under run->mu, so
  // these reads are ordered after every step's effects and counts.
  ctx.nodes_executed += run->nodes_executed;
  ctx.kernel_invocations += run->kernel_invocations;
  if (run->failed) {
    if (run->error.has_value()) throw Error(*run->error);
    std::rethrow_exception(run->foreign_error);
  }
  results.clear();
  results.reserve(plan.returns.size());
  for (size_t i = 0; i < plan.returns.size(); ++i) {
    const Plan::InputRef& ref = plan.returns[i];
    if (ref.step < 0) {
      results.push_back(args[static_cast<size_t>(ref.output)]);
    } else {
      // Single-threaded epilogue (every claimed step has finished, and
      // helpers touch slots only through claimed steps), so the final
      // fetch may release each value from its slot.
      RuntimeValue& src = run->slots[static_cast<size_t>(ref.step)]
                              .values[static_cast<size_t>(ref.output)];
      if (plan.returns_move[i] != 0) {
        results.push_back(std::move(src));
      } else {
        results.push_back(src);
      }
    }
  }
}

void Session::Drain(const std::shared_ptr<ParallelRun>& run,
                    bool is_caller) {
  // This participant's own context: the run's, with its own counts.
  RunCtx ctx = run->ctx;
  ctx.nodes_executed = 0;
  ctx.kernel_invocations = 0;
  // This participant's gather buffer, emptied after every step so no
  // input handle outlives the step that read it, and its list of
  // successors a step made ready.
  std::vector<RuntimeValue> inputs;
  std::vector<int> newly;
  for (;;) {
    int s = -1;
    {
      std::unique_lock<std::mutex> lock(run->mu);
      if (!run->failed && !run->ready.empty()) {
        s = run->ready.front();
        run->ready.pop_front();
        ++run->in_flight;
      } else if (is_caller) {
        // The caller self-progresses: it claims work like any helper
        // and only sleeps while other participants hold in-flight
        // steps, so the run completes even with zero pool workers.
        run->cv.wait(lock, [&run] {
          return run->Finished() || (!run->failed && !run->ready.empty());
        });
        if (run->Finished()) return;
        continue;
      } else {
        return;  // helper: momentarily no claimable work
      }
    }

    bool ok = true;
    try {
      const Plan::Step& step = run->plan->steps[static_cast<size_t>(s)];
      // Claim-path poll: a cancelled/timed-out run flips run->failed
      // through this throw, so every participant unwinds through the
      // existing failure machinery and unstarted steps stay unstarted.
      if (run->ctx.cancel != nullptr) {
        run->ctx.cancel->Poll("parallel step", step.node->name());
      }
      for (size_t j = 0; j < step.inputs.size(); ++j) {
        const Plan::InputRef& ref = step.inputs[j];
        if (ref.step < 0) {
          inputs.push_back((*run->args)[static_cast<size_t>(ref.output)]);
        } else if (step.input_move[j] == Plan::kMoveAlways) {
          // Sole consumer: the producer's pending-count release/acquire
          // ordered its slot write before this read, and no other step
          // — in any schedule — touches the slot, so this claim may
          // take the handle itself and unlock in-place kernel reuse.
          inputs.push_back(
              std::move(run->slots[static_cast<size_t>(ref.step)]
                            .values[static_cast<size_t>(ref.output)]));
        } else {
          inputs.push_back(run->slots[static_cast<size_t>(ref.step)]
                               .values[static_cast<size_t>(ref.output)]);
        }
      }
      run->session->ExecStep(step, inputs, run->slots[static_cast<size_t>(s)],
                             ctx);
    } catch (const Error& e) {
      std::lock_guard<std::mutex> lock(run->mu);
      if (!run->failed) {
        run->failed = true;
        run->error = e;
      }
      run->ready.clear();  // claimed nothing new; unstarted steps stay off
      ok = false;
    } catch (...) {
      std::lock_guard<std::mutex> lock(run->mu);
      if (!run->failed) {
        run->failed = true;
        run->foreign_error = std::current_exception();
      }
      run->ready.clear();
      ok = false;
    }
    inputs.clear();

    newly.clear();
    if (ok) {
      // The release in each producer's fetch_sub and the acquire in the
      // final decrement order every producer's slot write before the
      // consumer's read (release sequence over the same refcount).
      for (int succ : run->plan->steps[static_cast<size_t>(s)].successors) {
        if (run->pending[succ].fetch_sub(1, std::memory_order_acq_rel) ==
            1) {
          newly.push_back(succ);
        }
      }
    }
    {
      std::lock_guard<std::mutex> lock(run->mu);
      // Hand this step's counts over before it stops being in flight, so
      // the caller sees every count once the run is finished.
      run->nodes_executed += std::exchange(ctx.nodes_executed, 0);
      run->kernel_invocations += std::exchange(ctx.kernel_invocations, 0);
      --run->in_flight;
      if (ok) {
        ++run->done;
        if (!run->failed) {
          for (int succ : newly) run->ready.push_back(succ);
        }
      }
    }
    run->cv.notify_all();
    // Fan-out grew the backlog beyond what this thread will take next —
    // invite more helpers (cheap no-op when the budget is exhausted).
    if (ok && newly.size() > 1) MaybeScheduleHelpers(run);
  }
}

void Session::MaybeScheduleHelpers(const std::shared_ptr<ParallelRun>& run) {
  runtime::ThreadPool* pool = runtime::ThreadPool::Shared();
  int want = 0;
  {
    std::lock_guard<std::mutex> lock(run->mu);
    if (!run->failed) {
      want = std::min(static_cast<int>(run->ready.size()),
                      run->max_helpers - run->active_helpers);
      if (want < 0) want = 0;
    }
  }
  if (want == 0) return;
  // Lease helpers from the shared pool: the grant is bounded by the
  // process-wide cap, so a storm of concurrent Runs (one per server
  // connection) shares the machine instead of each claiming its full
  // inter_op budget. A grant of 0 is fine — the caller drains alone.
  int granted = pool->TryLendHelpers(want);
  if (granted == 0) return;
  {
    // Re-commit under the run lock: a concurrent MaybeScheduleHelpers
    // may have scheduled helpers since `want` was computed; return any
    // leases that would overshoot the run's own budget.
    std::lock_guard<std::mutex> lock(run->mu);
    const int room = run->failed ? 0 : run->max_helpers - run->active_helpers;
    if (granted > room) {
      pool->ReturnHelpers(granted - room);
      granted = room < 0 ? 0 : room;
    }
    run->active_helpers += granted;
  }
  for (int i = 0; i < granted; ++i) {
    pool->Schedule([run, pool] {
      // Helpers inherit the run's RNG counters, cancel check, and
      // intra-op budget; nested ParallelFor inside a step degrades
      // inline on pool threads via the pool's own IntraOpScope(1).
      RngRunScope rng(run->rng);
      runtime::CancelCheckScope cancel(run->ctx.cancel);
      runtime::IntraOpScope intra(
          run->ctx.intra_op_threads > 0 ? run->ctx.intra_op_threads : 1);
      std::optional<tensor::PoolDisableScope> pool_off;
      if (!run->ctx.buffer_pool) pool_off.emplace();
      std::optional<tensor::simd::KernelBackendScope> backend_scope;
      if (run->ctx.kernel_backend.has_value()) {
        backend_scope.emplace(*run->ctx.kernel_backend);
      }
      Drain(run, /*is_caller=*/false);
      {
        std::lock_guard<std::mutex> lock(run->mu);
        --run->active_helpers;
      }
      pool->ReturnHelpers(1);
    });
  }
}

}  // namespace ag::exec
