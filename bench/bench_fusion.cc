// Elementwise-chain fusion: what collapsing single-consumer chains
// into FusedElementwise nodes buys on the paper's staged workloads.
//
// Each workload (dynamic RNN, in-graph training, beam search) runs at
// threads {1, 4, 8} with fusion on and off (fusion=1/0, i.e. the
// default pipeline vs "-fusion"). Two counters make the effect
// visible, independent of wall time:
//   kernels/run   kernel invocations per Run() — every fused chain of
//                 k ops saves k-1 invocations per execution of that
//                 chain (times loop iterations for chains in While
//                 bodies);
//   allocs/run    fresh allocations + pool hits per Run() — a fused
//                 chain writes one output instead of k intermediates,
//                 so the win multiplies the allocator's (PR 5's
//                 in-place kernels only halve chain traffic; fusion
//                 removes it).
// The A/B contract behind the comparison — fused and unfused results
// bit-identical in both engines, pool on or off — is enforced by
// tests/fusion_test.cc; this benchmark measures the same pipelines.
//
// CI smoke-runs threads=1.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/api.h"
#include "graph/optimize.h"
#include "obs/run_metadata.h"
#include "support/pass_pipeline.h"
#include "tensor/allocator.h"
#include "workloads/beam_search.h"
#include "workloads/rnn.h"
#include "workloads/training.h"

namespace ag {
namespace {

using exec::RuntimeValue;

void ApplyFusionArgs(benchmark::internal::Benchmark* b) {
  b->ArgNames({"threads", "fusion"});
  for (int64_t threads : {1, 4, 8}) {
    b->Args({threads, 0});
    b->Args({threads, 1});
  }
  b->MinTime(0.3);
  b->Unit(benchmark::kMillisecond);
}

core::StageOptions FusionStageOptions(const benchmark::State& state) {
  core::StageOptions options;
  options.optimize_options.pipeline =
      PipelineSpec::Parse(state.range(1) != 0 ? "default" : "-fusion");
  return options;
}

obs::RunOptions FusionRunOptions(const benchmark::State& state) {
  obs::RunOptions opts;
  opts.step_stats = false;
  const int threads = static_cast<int>(state.range(0));
  opts.inter_op_threads = threads == 1 ? 0 : threads;
  return opts;
}

// Kernel-invocation and allocation traffic per Run(), as deltas over
// the benchmark loop (both counters are cumulative/process-wide).
struct CounterBase {
  int64_t kernels = 0;
  tensor::PoolStats pool;
};

CounterBase SnapCounters(const core::StagedFunction& staged) {
  return {staged.session->stats().kernel_invocations,
          tensor::BufferPool::Global().stats()};
}

void ReportFusionCounters(benchmark::State& state,
                          const core::StagedFunction& staged,
                          const CounterBase& before) {
  const CounterBase after = SnapCounters(staged);
  const auto runs = static_cast<double>(state.iterations());
  if (runs <= 0) return;
  state.counters["kernels/run"] =
      static_cast<double>(after.kernels - before.kernels) / runs;
  const auto buffers =
      static_cast<double>((after.pool.alloc_count - before.pool.alloc_count) +
                          (after.pool.pool_hit_count -
                           before.pool.pool_hit_count));
  state.counters["allocs/run"] = buffers / runs;
  state.counters["fused_chains"] =
      static_cast<double>(staged.optimize_stats.fused);
}

// Dynamic RNN (Table 1): the cell computes
// tanh(x@Wxh + h@Whh + b) — the Add/Add/Tanh tail is the canonical
// fusable chain, executed once per sequence step inside the While.
void BM_Fusion_DynamicRnn(benchmark::State& state) {
  workloads::RnnConfig config;
  config.batch = 16;
  config.seq_len = 32;
  config.input_size = 32;
  config.hidden = 64;
  workloads::RnnInputs inputs = workloads::MakeRnnInputs(config);

  core::AutoGraph agc;
  workloads::InstallRnn(agc, inputs);
  core::StagedFunction staged = agc.Stage(
      "dynamic_rnn",
      {core::StageArg::Placeholder("input_data"),
       core::StageArg::Placeholder("initial_state"),
       core::StageArg::Placeholder("sequence_len", DType::kInt32)},
      FusionStageOptions(state));

  const std::vector<RuntimeValue> feeds{
      inputs.input_data, inputs.initial_state, inputs.sequence_len};
  obs::RunOptions opts = FusionRunOptions(state);
  (void)staged.Run(feeds, &opts);  // warm plans and the pool

  const CounterBase before = SnapCounters(staged);
  for (auto _ : state) {
    benchmark::DoNotOptimize(staged.Run(feeds, &opts));
  }
  ReportFusionCounters(state, staged, before);
}

// In-graph training (Table 2): the SGD update w - lr*g and the
// loss/grad elementwise tails fuse inside the While body.
void BM_Fusion_Training(benchmark::State& state) {
  workloads::MnistConfig config;
  config.batch = 32;
  config.features = 16;
  config.classes = 8;
  config.steps = 16;
  workloads::MnistData data = workloads::MakeMnistData(config);

  core::StagedFunction staged = workloads::BuildHandwrittenTrainingGraph(
      config, FusionStageOptions(state).optimize_options);
  const std::vector<RuntimeValue> feeds{data.images, data.labels, data.w0,
                                        data.b0};
  obs::RunOptions opts = FusionRunOptions(state);
  (void)staged.Run(feeds, &opts);

  const CounterBase before = SnapCounters(staged);
  for (auto _ : state) {
    benchmark::DoNotOptimize(staged.Run(feeds, &opts));
  }
  ReportFusionCounters(state, staged, before);
}

// Beam search (Table 4): score arithmetic between TopK/Gather steps —
// shorter chains than the RNN cell, so the expected win is smaller.
void BM_Fusion_BeamSearch(benchmark::State& state) {
  workloads::BeamConfig config;
  config.beam = 4;
  config.vocab = 64;
  config.hidden = 32;
  config.max_len = 16;
  workloads::BeamInputs inputs = workloads::MakeBeamInputs(config);

  core::AutoGraph agc;
  workloads::InstallBeamSearch(agc, config, inputs);
  core::StagedFunction staged = agc.Stage(
      "beam_search",
      {core::StageArg::Placeholder("state"),
       core::StageArg::Placeholder("scores"),
       core::StageArg::Placeholder("tokens", DType::kInt32)},
      FusionStageOptions(state));

  const std::vector<RuntimeValue> feeds{inputs.init_state,
                                        inputs.init_scores,
                                        inputs.init_tokens};
  obs::RunOptions opts = FusionRunOptions(state);
  (void)staged.Run(feeds, &opts);

  const CounterBase before = SnapCounters(staged);
  for (auto _ : state) {
    benchmark::DoNotOptimize(staged.Run(feeds, &opts));
  }
  ReportFusionCounters(state, staged, before);
}

BENCHMARK(BM_Fusion_DynamicRnn)->Apply(ApplyFusionArgs);
BENCHMARK(BM_Fusion_Training)->Apply(ApplyFusionArgs);
BENCHMARK(BM_Fusion_BeamSearch)->Apply(ApplyFusionArgs);

}  // namespace
}  // namespace ag
