// Heap allocations per steady-state staged Run, counted by a replacement
// global operator new. The count is a property of the executor, not of
// the machine: every vector, string and control block a Run builds is
// one allocation. Tensor buffers come from the buffer pool, so a warm
// pooled Run adds none of its own.
//
// Counts before plan steps were bound (kernels returned a fresh vector
// per call, Const copied its tensor out of the node's attr map, and
// every Cond and While execution built its scratch, sub-plan args and
// trace name anew), untraced, on the scalar backend:
//   - small beam search: 1791 allocations per Run;
//   - dynamic_rnn:        320 allocations per Run.
// With bound steps they were 825 and 209. FusedElementwise then stopped
// building a vector of its inputs on every call (32 and 7 per Run), so
// they are 793 and 202; nearly all that is left is the tensor layer's
// shapes. The pins sit just under 825 and 209, so building that input
// vector per call again fails both.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/api.h"
#include "exec/value.h"
#include "obs/run_metadata.h"
#include "workloads/beam_search.h"
#include "workloads/rnn.h"

namespace {

std::atomic<int64_t> g_heap_allocs{0};

void* CountedAlloc(std::size_t size, std::size_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else {
    // aligned_alloc needs a size that is a multiple of the alignment.
    p = std::aligned_alloc(align, (size + align - 1) / align * align);
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  return CountedAlloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t /*size*/) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t /*align*/) noexcept {
  std::free(p);
}
void operator delete(void* p, std::size_t /*size*/,
                     std::align_val_t /*align*/) noexcept {
  std::free(p);
}

namespace ag {
namespace {

using core::AutoGraph;
using core::StageArg;
using core::StagedFunction;

// Heap allocations of one steady-state untraced Run on the scalar
// backend, with the pool on: two Runs first compile the plans and warm
// the pool.
int64_t HeapAllocsPerRun(StagedFunction& fn,
                         const std::vector<exec::RuntimeValue>& feeds) {
  obs::RunOptions options;
  options.step_stats = false;
  options.kernel_backend = "scalar";
  for (int i = 0; i < 2; ++i) (void)fn.Run(feeds, &options);
  const int64_t allocs0 = g_heap_allocs.load();
  (void)fn.Run(feeds, &options);
  return g_heap_allocs.load() - allocs0;
}

TEST(HeapAllocs, BeamSearchRun) {
  workloads::BeamConfig config;
  config.beam = 4;
  config.vocab = 64;
  config.hidden = 32;
  config.max_len = 16;
  const workloads::BeamInputs inputs = workloads::MakeBeamInputs(config);
  AutoGraph agc;
  workloads::InstallBeamSearch(agc, config, inputs);
  StagedFunction fn = agc.Stage(
      "beam_search", {StageArg::Placeholder("state"),
                      StageArg::Placeholder("scores"),
                      StageArg::Placeholder("tokens", DType::kInt32)});
  const int64_t allocs = HeapAllocsPerRun(
      fn, {inputs.init_state, inputs.init_scores, inputs.init_tokens});
  EXPECT_GT(allocs, 0);
  EXPECT_LE(allocs, 800) << "1791 before plan steps were bound, 825 "
                             "before FusedElementwise reused its inputs";
}

TEST(HeapAllocs, DynamicRnnRun) {
  workloads::RnnConfig config;
  config.batch = 4;
  config.seq_len = 8;
  config.input_size = 8;
  config.hidden = 16;
  const workloads::RnnInputs inputs = workloads::MakeRnnInputs(config);
  AutoGraph agc;
  workloads::InstallRnn(agc, inputs);
  StagedFunction fn = agc.Stage(
      "dynamic_rnn",
      {StageArg::Placeholder("input_data"),
       StageArg::Placeholder("initial_state"),
       StageArg::Placeholder("sequence_len", DType::kInt32)});
  const int64_t allocs = HeapAllocsPerRun(
      fn, {inputs.input_data, inputs.initial_state, inputs.sequence_len});
  EXPECT_GT(allocs, 0);
  EXPECT_LE(allocs, 205) << "320 before plan steps were bound, 209 "
                            "before FusedElementwise reused its inputs";
}

}  // namespace
}  // namespace ag
