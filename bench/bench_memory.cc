// Tensor memory subsystem: steady-state allocation behaviour of the
// pooled buffer allocator under the paper's staged While workloads.
//
// Each workload (dynamic RNN, in-graph training, beam search) runs at
// threads {1, 4, 8} with the buffer pool on and off (pool=1/0). The
// counters make the pool's effect directly visible:
//   allocs/run    fresh heap allocations per Run() — with pooling on,
//                 steady state should sit near zero (every buffer is
//                 recycled through the pool or reused in place), a
//                 >= 90% reduction against pool=0;
//   hit_rate%     pool hits / (hits + fresh allocations);
//   process_peak_live_mb  the pool's process-wide high-water mark of
//                 live tensor bytes (never reset, so it only grows
//                 across the benchmarks of one process).
// pool=0 (RunOptions::buffer_pool=false) is the seed allocation path:
// every tensor buffer is a fresh allocation freed on last release.
//
// CI smoke-runs threads=1.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/api.h"
#include "obs/run_metadata.h"
#include "tensor/allocator.h"
#include "workloads/beam_search.h"
#include "workloads/rnn.h"
#include "workloads/training.h"

namespace ag {
namespace {

using exec::RuntimeValue;

void ApplyMemoryArgs(benchmark::internal::Benchmark* b) {
  b->ArgNames({"threads", "pool"});
  for (int64_t threads : {1, 4, 8}) {
    b->Args({threads, 0});
    b->Args({threads, 1});
  }
  b->MinTime(0.3);
  b->Unit(benchmark::kMillisecond);
}

obs::RunOptions MemoryOptions(const benchmark::State& state) {
  obs::RunOptions opts;
  opts.step_stats = false;
  const int threads = static_cast<int>(state.range(0));
  opts.inter_op_threads = threads == 1 ? 0 : threads;
  opts.buffer_pool = state.range(1) != 0;
  return opts;
}

// Allocator counters are process-wide monotonic; report this
// benchmark's activity as a per-iteration delta.
void ReportPoolCounters(benchmark::State& state,
                        const tensor::PoolStats& before) {
  const tensor::PoolStats after = tensor::BufferPool::Global().stats();
  const auto runs = static_cast<double>(state.iterations());
  const auto fresh =
      static_cast<double>(after.alloc_count - before.alloc_count);
  const auto hits =
      static_cast<double>(after.pool_hit_count - before.pool_hit_count);
  state.counters["allocs/run"] = runs > 0 ? fresh / runs : 0;
  state.counters["hit_rate%"] =
      fresh + hits > 0 ? 100.0 * hits / (fresh + hits) : 0;
  state.counters["process_peak_live_mb"] =
      static_cast<double>(after.peak_live_bytes) / (1024.0 * 1024.0);
}

// Dynamic RNN (Table 1): a staged While over the sequence whose body is
// MatMul-heavy — each iteration produces a fresh hidden state, the
// canonical loop-carried buffer the pool recycles.
void BM_Memory_DynamicRnn(benchmark::State& state) {
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
       core::StageArg::Placeholder("sequence_len", DType::kInt32)});

  const std::vector<RuntimeValue> feeds{
      inputs.input_data, inputs.initial_state, inputs.sequence_len};
  obs::RunOptions opts = MemoryOptions(state);
  (void)staged.Run(feeds, &opts);  // warm plans and the pool

  const tensor::PoolStats before = tensor::BufferPool::Global().stats();
  for (auto _ : state) {
    benchmark::DoNotOptimize(staged.Run(feeds, &opts));
  }
  ReportPoolCounters(state, before);
}

// In-graph training (Table 2): a staged gradient-descent While loop —
// weights, activations, and gradients all cycle through the pool.
void BM_Memory_Training(benchmark::State& state) {
  workloads::MnistConfig config;
  config.batch = 32;
  config.features = 16;
  config.classes = 8;
  config.steps = 16;
  workloads::MnistData data = workloads::MakeMnistData(config);

  core::StagedFunction hand =
      workloads::BuildHandwrittenTrainingGraph(config);
  const std::vector<RuntimeValue> feeds{data.images, data.labels, data.w0,
                                        data.b0};
  obs::RunOptions opts = MemoryOptions(state);
  (void)hand.Run(feeds, &opts);

  const tensor::PoolStats before = tensor::BufferPool::Global().stats();
  for (auto _ : state) {
    benchmark::DoNotOptimize(hand.Run(feeds, &opts));
  }
  ReportPoolCounters(state, before);
}

// Beam search (Table 4): control-flow-heavy decoding with TopK/Gather —
// many small loop-carried tensors plus a growing token history.
void BM_Memory_BeamSearch(benchmark::State& state) {
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
       core::StageArg::Placeholder("tokens", DType::kInt32)});

  const std::vector<RuntimeValue> feeds{inputs.init_state,
                                        inputs.init_scores,
                                        inputs.init_tokens};
  obs::RunOptions opts = MemoryOptions(state);
  (void)staged.Run(feeds, &opts);

  const tensor::PoolStats before = tensor::BufferPool::Global().stats();
  for (auto _ : state) {
    benchmark::DoNotOptimize(staged.Run(feeds, &opts));
  }
  ReportPoolCounters(state, before);
}

BENCHMARK(BM_Memory_DynamicRnn)->Apply(ApplyMemoryArgs);
BENCHMARK(BM_Memory_Training)->Apply(ApplyMemoryArgs);
BENCHMARK(BM_Memory_BeamSearch)->Apply(ApplyMemoryArgs);

}  // namespace
}  // namespace ag
