// Cancellation poll overhead: the cost of running with interruption
// armed but never tripping.
//
// The cooperative design claims the armed hot path is one relaxed
// atomic load (plus a clock read for deadlines) per kernel / loop
// iteration. These benches make that claim measurable: the same staged
// While loop runs with no interruption knobs, with a far-future
// deadline, and with a live-but-never-cancelled token, in both Session
// engines. The three curves should be indistinguishable; a gap is a
// regression in CancelCheck::Poll.
//
// BM_MatMul_UnwindLatency measures the other side of the contract:
// worst-case time from the interrupt tripping to the engine actually
// unwinding, with the trip landing inside a large MatMul. The
// kernel-interior panel poll (every kPanel=256 k-rows) bounds this at
// roughly one panel's worth of compute instead of the whole kernel.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "exec/session.h"
#include "graph/ops.h"
#include "obs/run_metadata.h"
#include "runtime/cancellation.h"

namespace ag {
namespace {

using exec::Session;
using graph::Const;
using graph::Graph;
using graph::GraphContext;
using graph::Op;
using graph::Output;
using graph::Placeholder;
using graph::While;

// A counting While loop: per-iteration cost is dominated by kernel
// dispatch, the granularity at which cancellation is polled — so any
// poll overhead shows up directly in iteration throughput.
struct LoopGraph {
  Graph g;
  std::vector<Output> outs;

  LoopGraph() {
    GraphContext ctx(&g);
    Output limit = Placeholder(ctx, "n", DType::kInt32);
    Output i0 = Const(ctx, Tensor::ScalarInt(0));
    outs = While(
        ctx, {i0},
        [&](const std::vector<Output>& args) {
          return Op(ctx, "Less", {args[0], limit});
        },
        [&](const std::vector<Output>& args) {
          return std::vector<Output>{
              Op(ctx, "Add", {args[0], Const(ctx, Tensor::ScalarInt(1))})};
        });
  }
};

constexpr int kIterations = 200;

void RunLoop(benchmark::State& state, const obs::RunOptions& base,
             int64_t deadline_ms, bool with_token) {
  LoopGraph loop;
  Session session(&loop.g);
  runtime::CancellationSource source;
  runtime::CancellationToken token = source.token();

  obs::RunOptions opts = base;
  opts.deadline_ms = deadline_ms;
  if (with_token) opts.cancel_token = &token;
  const Tensor n = Tensor::ScalarInt(kIterations);
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.Run({{"n", n}}, loop.outs, &opts));
  }
  state.counters["iters/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kIterations),
      benchmark::Counter::kIsRate);
}

obs::RunOptions EngineOptions(int inter) {
  obs::RunOptions opts;
  opts.step_stats = false;
  opts.inter_op_threads = inter;
  return opts;
}

// Baseline: no interruption knobs — the pre-existing zero-overhead path.
void BM_While_Unarmed(benchmark::State& state) {
  RunLoop(state, EngineOptions(static_cast<int>(state.range(0))),
          /*deadline_ms=*/0, /*with_token=*/false);
}

// Armed deadline, far enough out to never fire: every kernel launch and
// loop iteration pays the poll (atomic loads + one monotonic clock read).
void BM_While_ArmedDeadline(benchmark::State& state) {
  RunLoop(state, EngineOptions(static_cast<int>(state.range(0))),
          /*deadline_ms=*/3'600'000, /*with_token=*/false);
}

// Armed token that is never cancelled: the poll without the clock read.
void BM_While_ArmedToken(benchmark::State& state) {
  RunLoop(state, EngineOptions(static_cast<int>(state.range(0))),
          /*deadline_ms=*/0, /*with_token=*/true);
}

void ApplyEngineArgs(benchmark::internal::Benchmark* b) {
  b->ArgName("inter");
  b->Arg(0);  // sequential plan drain
  b->Arg(2);  // parallel plan drain
  b->MinTime(0.3);
  b->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_While_Unarmed)->Apply(ApplyEngineArgs);
BENCHMARK(BM_While_ArmedDeadline)->Apply(ApplyEngineArgs);
BENCHMARK(BM_While_ArmedToken)->Apply(ApplyEngineArgs);

// Worst-case unwind latency: a 1ms deadline is guaranteed to trip while
// a multi-hundred-ms MatMul chain is still inside its first kernel, so
// every sample exercises the kernel-interior panel poll. unwind_us_max
// approximates the longest stretch of compute between polls; without
// the interior poll it would be the full MatMul wall time.
void BM_MatMul_UnwindLatency(benchmark::State& state) {
  Graph g;
  std::vector<Output> outs;
  {
    GraphContext ctx(&g);
    Output x = Placeholder(ctx, "x", DType::kFloat32);
    Output w = Placeholder(ctx, "w", DType::kFloat32);
    Output y = Op(ctx, "MatMul", {x, w});
    y = Op(ctx, "MatMul", {y, w});
    outs = {y};
  }
  Session session(&g);

  obs::RunOptions opts = EngineOptions(static_cast<int>(state.range(0)));
  opts.step_stats = true;  // unwind_ns arrives via RunMetadata
  opts.deadline_ms = 1;
  const Tensor x = Tensor::Full({256, 2048}, 0.5f);
  const Tensor w = Tensor::Full({2048, 2048}, 0.001f);

  int64_t total_ns = 0;
  int64_t worst_ns = 0;
  int64_t samples = 0;
  for (auto _ : state) {
    obs::RunMetadata meta;
    try {
      benchmark::DoNotOptimize(
          session.Run({{"x", x}, {"w", w}}, outs, &opts, &meta));
    } catch (const Error&) {
      // Expected: every run dies on the deadline mid-kernel.
    }
    total_ns += meta.unwind_ns;
    worst_ns = std::max(worst_ns, meta.unwind_ns);
    ++samples;
  }
  state.counters["unwind_us_avg"] =
      samples > 0 ? static_cast<double>(total_ns) / 1000.0 /
                        static_cast<double>(samples)
                  : 0;
  state.counters["unwind_us_max"] = static_cast<double>(worst_ns) / 1000.0;
}

BENCHMARK(BM_MatMul_UnwindLatency)->Apply(ApplyEngineArgs);

}  // namespace
}  // namespace ag
