// Ablation — whole-graph optimization (constant folding + CSE + DCE), the
// "whole-program optimization" benefit the paper attributes to graph
// systems. We stage a function with foldable constant subexpressions and
// duplicated work, then compare Session execution with and without the
// optimizer.
#include <benchmark/benchmark.h>

#include "core/api.h"
#include "tensor/rng.h"

namespace ag::core {
namespace {

// Deliberately redundant: constant math and repeated subexpressions that
// the optimizer can fold/merge (an unoptimized trace executes them all
// at every Run).
constexpr char kRedundant[] = R"(
def f(x):
  scale = tf.exp(tf.constant(2.0)) / (1.0 + tf.exp(tf.constant(2.0)))
  a = tf.tanh(tf.matmul(x, w) + b)
  c = tf.tanh(tf.matmul(x, w) + b)
  return scale * (a + c)
)";

StagedFunction StageIt(AutoGraph& agc, bool optimize) {
  StageOptions options;
  options.optimize = optimize;
  return agc.Stage("f", {StageArg::Placeholder("x")}, options);
}

void Setup(AutoGraph& agc) {
  agc.LoadSource(kRedundant);
  Rng rng(5);
  agc.SetGlobal("w", Value(rng.Normal(Shape({64, 64}))));
  agc.SetGlobal("b", Value(Tensor::Zeros(Shape({64}))));
}

void BM_GraphOpt_Off(benchmark::State& state) {
  AutoGraph agc;
  Setup(agc);
  StagedFunction staged = StageIt(agc, /*optimize=*/false);
  Rng rng(6);
  const std::vector<exec::RuntimeValue> feeds{
      exec::RuntimeValue(rng.Normal(Shape({32, 64})))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(staged.Run(feeds));
  }
  state.counters["nodes"] = static_cast<double>(staged.graph->num_nodes());
}

void BM_GraphOpt_On(benchmark::State& state) {
  AutoGraph agc;
  Setup(agc);
  StagedFunction staged = StageIt(agc, /*optimize=*/true);
  Rng rng(6);
  const std::vector<exec::RuntimeValue> feeds{
      exec::RuntimeValue(rng.Normal(Shape({32, 64})))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(staged.Run(feeds));
  }
  state.counters["nodes"] = static_cast<double>(staged.graph->num_nodes());
  state.counters["folded"] =
      static_cast<double>(staged.optimize_stats.folded);
  state.counters["merged"] =
      static_cast<double>(staged.optimize_stats.merged);
  state.counters["pruned"] =
      static_cast<double>(staged.optimize_stats.pruned);
}

BENCHMARK(BM_GraphOpt_Off)->MinTime(0.2)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_GraphOpt_On)->MinTime(0.2)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace ag::core
