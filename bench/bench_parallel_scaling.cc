// Parallel runtime scaling: inter-op scheduling over a wide fan-out
// graph, and intra-op kernel sharding on a MatMul-heavy RNN cell.
//
// Both sweeps run at threads {1, 2, 4, 8} so the scaling curve of each
// engine is visible in isolation (CI smoke-runs threads=2). On a single-core machine the curves
// are flat and only measure scheduling overhead — the correctness (bit-
// identical results at every thread count) is covered by runtime_test.
#include <benchmark/benchmark.h>

#include <vector>

#include "exec/session.h"
#include "graph/ops.h"
#include "obs/run_metadata.h"

namespace ag {
namespace {

using exec::RuntimeValue;
using exec::Session;
using graph::Const;
using graph::Graph;
using graph::GraphContext;
using graph::Op;
using graph::Output;
using graph::Placeholder;

void ApplyThreadArgs(benchmark::internal::Benchmark* b) {
  b->ArgName("threads");
  for (int64_t threads : {1, 2, 4, 8}) b->Arg(threads);
  b->MinTime(0.3);
  b->Unit(benchmark::kMillisecond);
}

// Inter-op: eight independent MatMul/Tanh chains over a fed input,
// folded by an Add tree — the ready queue holds up to eight runnable
// steps at once, so the scheduler (not any one kernel) is the bottleneck.
void BM_InterOp_FanOut(benchmark::State& state) {
  constexpr int kChains = 8;
  constexpr int kDepth = 4;
  constexpr int64_t kDim = 96;

  Graph g;
  GraphContext ctx(&g);
  Output x = Placeholder(ctx, "x", DType::kFloat32);
  std::vector<Output> chains;
  for (int c = 0; c < kChains; ++c) {
    // Small distinct weights per chain keep activations bounded.
    Output w = Const(
        ctx, Tensor::Full({kDim, kDim}, 0.005f * static_cast<float>(c + 1)));
    Output v = x;
    for (int d = 0; d < kDepth; ++d) {
      v = Op(ctx, "Tanh", {Op(ctx, "MatMul", {v, w})});
    }
    chains.push_back(v);
  }
  Output sum = chains[0];
  for (size_t c = 1; c < chains.size(); ++c) {
    sum = Op(ctx, "Add", {sum, chains[c]});
  }

  Session session(&g);
  const Tensor feed = Tensor::Full({kDim, kDim}, 0.1f);
  obs::RunOptions opts;
  opts.step_stats = false;
  opts.inter_op_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.RunTensor({{"x", feed}}, sum, &opts));
  }
  state.counters["chains/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kChains),
      benchmark::Counter::kIsRate);
}

// Intra-op: one RNN cell h' = tanh(x @ Wxh + h @ Whh + b). The two
// MatMuls dominate; ParallelFor shards their row bands across the
// intra-op budget while the graph itself stays sequential.
void BM_IntraOp_RnnCell(benchmark::State& state) {
  constexpr int64_t kBatch = 64;
  constexpr int64_t kInput = 128;
  constexpr int64_t kHidden = 256;

  Graph g;
  GraphContext ctx(&g);
  Output x = Placeholder(ctx, "x", DType::kFloat32);
  Output h = Placeholder(ctx, "h", DType::kFloat32);
  Output wxh = Const(ctx, Tensor::Full({kInput, kHidden}, 0.01f));
  Output whh = Const(ctx, Tensor::Full({kHidden, kHidden}, 0.005f));
  Output b = Const(ctx, Tensor::Full({kHidden}, 0.1f));
  Output cell = Op(
      ctx, "Tanh",
      {Op(ctx, "Add",
          {Op(ctx, "Add",
              {Op(ctx, "MatMul", {x, wxh}), Op(ctx, "MatMul", {h, whh})}),
           b})});

  Session session(&g);
  const Tensor x_feed = Tensor::Full({kBatch, kInput}, 0.2f);
  const Tensor h_feed = Tensor::Full({kBatch, kHidden}, 0.0f);
  obs::RunOptions opts;
  opts.step_stats = false;
  opts.intra_op_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.RunTensor(
        {{"x", x_feed}, {"h", h_feed}}, cell, &opts));
  }
  state.counters["examples/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kBatch),
      benchmark::Counter::kIsRate);
}

// Combined: the fan-out graph with both knobs set, the configuration a
// multi-core deployment would actually run.
void BM_Combined_FanOut(benchmark::State& state) {
  constexpr int kChains = 8;
  constexpr int64_t kDim = 96;

  Graph g;
  GraphContext ctx(&g);
  Output x = Placeholder(ctx, "x", DType::kFloat32);
  std::vector<Output> chains;
  for (int c = 0; c < kChains; ++c) {
    Output w = Const(
        ctx, Tensor::Full({kDim, kDim}, 0.005f * static_cast<float>(c + 1)));
    chains.push_back(Op(ctx, "Tanh", {Op(ctx, "MatMul", {x, w})}));
  }
  Output sum = chains[0];
  for (size_t c = 1; c < chains.size(); ++c) {
    sum = Op(ctx, "Add", {sum, chains[c]});
  }

  Session session(&g);
  const Tensor feed = Tensor::Full({kDim, kDim}, 0.1f);
  obs::RunOptions opts;
  opts.step_stats = false;
  opts.inter_op_threads = static_cast<int>(state.range(0));
  opts.intra_op_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.RunTensor({{"x", feed}}, sum, &opts));
  }
}

BENCHMARK(BM_InterOp_FanOut)->Apply(ApplyThreadArgs);
BENCHMARK(BM_IntraOp_RnnCell)->Apply(ApplyThreadArgs);
BENCHMARK(BM_Combined_FanOut)->Apply(ApplyThreadArgs);

}  // namespace
}  // namespace ag
