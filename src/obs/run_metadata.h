// RunOptions / RunMetadata — the observability contract of every Run()
// surface in the system (exec::Session, core::StagedFunction /
// PolymorphicFunction / AutoGraph::CallEager, lantern::Executor).
//
// Modeled on TensorFlow's RunOptions/RunMetadata: the caller passes an
// optional `const RunOptions*` to request instrumentation and an
// optional `RunMetadata*` to receive it. Passing nullptr (the default
// everywhere) runs the uninstrumented fast path.
//
//   obs::RunOptions opts;
//   opts.trace = true;
//   obs::RunMetadata meta;
//   staged.Run(feeds, &opts, &meta);
//   std::cout << meta.DebugString();                 // per-op table
//   std::ofstream("t.json") << obs::ToChromeTraceJson(meta);  // Perfetto
//
// RunMetadata aggregates across calls via Merge(), which is how
// StagedFunction accumulates its cumulative per-op profile.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace ag::runtime {
class CancellationToken;  // runtime/cancellation.h
}  // namespace ag::runtime

namespace ag::obs {

struct RunOptions {
  // Record per-invocation TraceEvents (Chrome-trace exportable).
  bool trace = false;
  // Aggregate per-node step stats (op, count, wall time, output bytes).
  bool step_stats = true;

  // Threading knobs (the analog of TF's inter/intra-op pools, but over
  // one shared runtime::ThreadPool). These select the execution engine;
  // they do NOT turn on instrumentation (see enabled() below), so a
  // caller wanting a parallel-but-unprofiled run sets step_stats=false.
  //
  // inter_op_threads: how many graph steps may execute concurrently in
  // exec::Session. Every value runs the same compiled plan; this picks
  // only how it is drained. 0 (default) = the calling thread runs the
  // steps in plan order (step stats arrive in plan order); >= 1 = the
  // ready-queue parallel drain (1 = drained by the calling thread
  // alone, useful for deterministic testing of that drain).
  int inter_op_threads = 0;
  // intra_op_threads: per-kernel sharding budget for the heavy tensor
  // kernels (MatMul row bands, large elementwise/reduction loops).
  // 0 or 1 = unsharded. Honoured by both Session and lantern::Executor.
  int intra_op_threads = 0;

  // Memory knob: route tensor buffers through the process-wide
  // tensor::BufferPool (recycled power-of-two blocks + in-place kernel
  // reuse). false restores the seed allocation path byte-for-byte —
  // every buffer is a fresh heap allocation freed on last release —
  // which is the A/B lever bench_memory and the aliasing tests use.
  // The AG_BUFFER_POOL=0 env var disables pooling process-wide
  // regardless of this flag.
  bool buffer_pool = true;

  // Kernel-backend knob: which tensor::simd backend the kernels of this
  // run dispatch to. "" (default) = process default (the
  // AG_KERNEL_BACKEND env var if set, else "auto"); "auto" = best
  // available; "scalar" = the seed scalar loops, byte-for-byte — the
  // A/B lever the tolerance tests and bench_kernels use; "avx2" = the
  // vectorized paths (degrades to scalar when the CPU or build lacks
  // AVX2/FMA). Any other value raises ValueError at Run() entry.
  std::string kernel_backend;

  // Interruption knobs (the analog of TF's RunOptions timeout +
  // CancellationManager). Every engine polls these cooperatively at
  // kernel/iteration/shard boundaries — see runtime/cancellation.h.
  //
  // deadline_ms: wall-clock budget for one Run(); when exceeded, the
  // run unwinds with Error(kDeadlineExceeded) naming the node and loop
  // iteration where it stopped. <= 0 (default) = no deadline. This is a
  // *relative* convenience: it converts to an absolute instant once, at
  // Run() entry. A caller that retries, queues, or otherwise spans
  // several Run() calls must use deadline_ns instead — re-passing a
  // relative budget grants every attempt a fresh full budget.
  int64_t deadline_ms = 0;
  // deadline_ns: absolute deadline on the monotonic obs::NowNs() clock.
  // Stamp it once — before admission queues, retry loops, and plan
  // compilation — and every attempt and phase is charged against the
  // same instant; a Run() entered after the instant fails immediately
  // with kDeadlineExceeded, before any kernel executes. Honored by both
  // Session engines, the eager interpreter, and lantern. When both
  // deadline fields are set the earlier effective instant wins.
  // <= 0 (default) = none.
  int64_t deadline_ns = 0;
  // cancel_token: external cancellation. The token is copied at Run()
  // entry (tokens are shared_ptr views), so the pointed-to token only
  // needs to outlive the Run() call itself. Null = not cancellable.
  const runtime::CancellationToken* cancel_token = nullptr;
  // max_while_iterations: finite guard against runaway loops. A loop
  // whose condition is still true after this many body executions
  // raises Error(kRuntime) naming the node and count instead of
  // spinning forever; a loop that terminates cleanly in exactly N
  // iterations never trips a bound of N. Enforced in both Session
  // engines and the eager interpreter's while statements;
  // lantern::Executor enforces it as its recursive call-depth bound
  // (staged loops are CPS recursion there).
  static constexpr int64_t kDefaultMaxWhileIterations = int64_t{1} << 31;
  int64_t max_while_iterations = kDefaultMaxWhileIterations;
  // Test-only fault injection: cancel the run once exactly N kernels
  // have started (any engine, any thread), making cancellation at
  // arbitrary kernel boundaries deterministically testable. -1 = off.
  int64_t inject_cancel_after_kernels = -1;
  // Test-only fault injection: sleep this long on every cold plan-cache
  // compile, making "the deadline fires during a slow first compile"
  // deterministically testable. 0 = off.
  int64_t inject_compile_delay_ms = 0;

  // Whether *instrumentation* is requested; threading knobs are
  // deliberately excluded so parallelism never forces profiling.
  [[nodiscard]] bool enabled() const { return trace || step_stats; }
  // Whether this run needs a CancelCheck poll object at all; false for
  // every pre-existing call shape, keeping those runs zero-overhead.
  [[nodiscard]] bool cancellable() const {
    return deadline_ms > 0 || deadline_ns > 0 || cancel_token != nullptr ||
           inject_cancel_after_kernels >= 0;
  }
  // Whether any interruption knob is set, including a custom loop
  // bound. Engines whose only transport for the bound is the
  // CancelCheck (the eager interpreter) install one when this is true,
  // so a caller setting only max_while_iterations is still guarded.
  [[nodiscard]] bool interruptible() const {
    return cancellable() ||
           max_while_iterations != kDefaultMaxWhileIterations;
  }
};

// Aggregated execution record for one graph node (or eager/lantern op).
struct NodeStats {
  std::string name;    // node name, or op name for anonymous dispatch
  std::string op;      // op / kernel type
  int64_t count = 0;   // number of executions merged into this record
  int64_t total_ns = 0;
  int64_t output_bytes = 0;  // cumulative bytes produced
  // Fresh buffer-pool allocations (pool misses) attributed to this
  // node's kernel executions; 0 for steady-state in-place/pooled ops.
  int64_t alloc_count = 0;
  // Roofline inputs: cumulative floating-point work (estimated from op
  // type and shapes — 2·m·k·n for matmuls, ~1 flop/element for
  // elementwise; 0 for ops with no meaningful count) and cumulative
  // bytes read. GFLOP/s = flops/total_ns; GB/s =
  // (input_bytes+output_bytes)/total_ns.
  int64_t flops = 0;
  int64_t input_bytes = 0;
  // Kernel backend that executed this node ("scalar"/"avx2"); "" for
  // layers that don't record one. Last writer wins on merge.
  std::string backend;

  [[nodiscard]] std::string DebugString() const;
};

// Per-node execution statistics for the Run(s) described by a
// RunMetadata — the analog of TF's StepStats/NodeExecStats.
struct StepStats {
  std::vector<NodeStats> nodes;

  [[nodiscard]] int64_t TotalNodeExecutions() const;
  [[nodiscard]] int64_t TotalNodeNs() const;
};

struct RunMetadata {
  StepStats step_stats;
  // Raw trace events (RunOptions::trace only).
  std::vector<TraceEvent> trace_events;
  // Phase wall times: "convert", "trace", "optimize", "plan_compile",
  // "run", "forward", "backward", ... (cumulative).
  std::map<std::string, int64_t> phase_ns;
  // Control-flow counters.
  int64_t while_iterations = 0;
  int64_t cond_true_taken = 0;
  int64_t cond_false_taken = 0;
  // Number of Run() calls merged into this metadata.
  int64_t runs = 0;
  // Total Run() wall time (cumulative).
  int64_t run_wall_ns = 0;
  // Cancellation outcome: how many merged runs were interrupted, the
  // kind of the most recent interruption ("cancelled" /
  // "deadline_exceeded"), and the cumulative time from the poll that
  // tripped to Run() unwinding into the caller — so an agprof trace
  // shows both where a run died and how fast it let go.
  int64_t interrupted_runs = 0;
  std::string interrupt_kind;
  int64_t unwind_ns = 0;
  // Per-interruption unwind latencies (one sample per interrupted run
  // merged in); agprof reports p50/p90/p99/max over these.
  std::vector<int64_t> unwind_samples_ns;

  // Serving columns (filled by serve::ServerCore; zero elsewhere).
  // Time the merged requests spent in the admission queue before
  // dispatch — wall time that is invisible to per-op step stats but
  // charged against each request's absolute deadline.
  int64_t queue_wait_ns = 0;
  // Dynamic batching outcome: how many merged requests executed as part
  // of a coalesced cross-request batch, the cumulative stacked batch
  // size over those executions, and the largest batch observed.
  // avg batch = batch_requests / batched_runs.
  int64_t batched_runs = 0;
  int64_t batch_requests = 0;
  int64_t batch_size_max = 0;

  // Allocator counters for the merged runs, snapshotted from
  // tensor::BufferPool around each Run(): fresh heap allocations, bytes
  // they requested, and pool hits (recycled blocks). The pool's live-byte
  // high-water mark is process-wide and never reset, so it is read from
  // tensor::BufferPool::Global().stats(), not recorded per run.
  int64_t alloc_count = 0;
  int64_t alloc_bytes = 0;
  int64_t pool_hit_count = 0;

  // Folds `other` into this metadata (NodeStats merged by (name, op)).
  void Merge(const RunMetadata& other);

  // Human-readable per-op time table plus phase/counter summary.
  [[nodiscard]] std::string DebugString() const;
};

// Folds complete events into per-(name, category) NodeStats — used by
// layers that record through a raw Tracer (eager dispatch) rather than
// a RunRecorder.
void AggregateEvents(const std::vector<TraceEvent>& events, StepStats* stats);

// Internal instrumentation sink live during one instrumented Run().
// Execution layers call Record*/Count* unconditionally guarded by a
// null check on their recorder pointer; Finish() flushes everything
// into the caller's RunMetadata.
class RunRecorder {
 public:
  explicit RunRecorder(const RunOptions& options) : options_(options) {}

  [[nodiscard]] bool tracing() const { return options_.trace; }
  [[nodiscard]] Tracer* tracer() {
    return options_.trace ? &tracer_ : nullptr;
  }

  // Records one node/op execution over [start_ns, end_ns].
  // `alloc_count` is the number of fresh pool allocations the executing
  // thread performed inside the kernel (tensor::ThreadAllocCount delta).
  void RecordNode(const std::string& name, const std::string& op,
                  int64_t start_ns, int64_t end_ns, int64_t output_bytes,
                  int64_t alloc_count = 0, int64_t flops = 0,
                  int64_t input_bytes = 0, const std::string& backend = "");
  void RecordPhase(const std::string& phase, int64_t dur_ns);
  void CountWhileIteration();
  void CountCondBranch(bool taken);

  // Flushes aggregates (and trace events) into `meta`; no-op when null.
  void Finish(RunMetadata* meta);

 private:
  RunOptions options_;
  Tracer tracer_;
  std::mutex mu_;
  std::map<std::pair<std::string, std::string>, size_t> index_;
  StepStats stats_;
  std::map<std::string, int64_t> phase_ns_;
  int64_t while_iterations_ = 0;
  int64_t cond_true_ = 0;
  int64_t cond_false_ = 0;
};

}  // namespace ag::obs
