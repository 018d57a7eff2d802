// Exact counters of fixed programs, pinned. These counts do not depend on
// the machine, so they are gated strictly: a change that moves one
// updates the pin here and says why.
//   - graph nodes after Optimize, for every function of examples/*.pym;
//   - kernels, Const steps and fresh buffer allocations per staged Run
//     of the Appendix D.1 beam search and the Table 1 dynamic_rnn;
//   - execution plans compiled when staging from .pym and from .agc;
//   - buffer allocations made while loading an .agc.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/api.h"
#include "core/artifact_io.h"
#include "exec/value.h"
#include "lang/parser.h"
#include "obs/run_metadata.h"
#include "tensor/allocator.h"
#include "tensor/simd/dispatch.h"
#include "workloads/beam_search.h"
#include "workloads/rnn.h"

namespace ag {
namespace {

using core::AutoGraph;
using core::StageArg;
using core::StagedFunction;

std::string ReadExample(const std::string& file) {
  std::ifstream in(std::string(AG_EXAMPLES_DIR) + "/" + file);
  EXPECT_TRUE(in.good()) << file;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// Stages every top-level function the way `agc compile` does (one
// float32 placeholder per parameter) and returns "file:function" ->
// optimized node count.
std::map<std::string, int64_t> OptimizedNodeCounts(const std::string& file) {
  const std::string source = ReadExample(file);
  AutoGraph agc;
  agc.LoadSource(source, file);
  const lang::ModulePtr module = lang::ParseStr(source, file);
  std::map<std::string, int64_t> counts;
  for (const lang::StmtPtr& stmt : module->body) {
    if (stmt->kind != lang::StmtKind::kFunctionDef) continue;
    const std::string name = lang::Cast<lang::FunctionDefStmt>(stmt)->name;
    std::vector<StageArg> args;
    for (size_t i = 0; i < agc.GetGlobal(name).AsFunction()->params.size();
         ++i) {
      args.push_back(StageArg::Placeholder("arg" + std::to_string(i)));
    }
    counts[file + ":" + name] =
        static_cast<int64_t>(agc.Stage(name, args).graph->num_nodes());
  }
  return counts;
}

struct RunCounters {
  int64_t kernels = 0;
  int64_t allocs = 0;         // buffers one Run allocates, pool off
  int64_t pooled_allocs = 0;  // fresh allocations of a warm pooled Run
  int64_t matmuls = 0;        // MatMul steps the pool-off Run executed
  int64_t consts = 0;         // Const steps (plan literals, no kernel)
};

// Counters of one steady-state Run on `backend`. The pins use the scalar
// backend, which every machine has. The first Run compiles the plans
// and warms the buffer pool; the next two are counted, pool on and pool
// off.
RunCounters CountRun(StagedFunction& fn,
                     const std::vector<exec::RuntimeValue>& feeds,
                     const std::string& backend = "scalar") {
  obs::RunOptions pooled;
  pooled.kernel_backend = backend;
  obs::RunOptions unpooled = pooled;
  unpooled.buffer_pool = false;
  (void)fn.Run(feeds, &pooled);
  RunCounters c;
  const int64_t kernels0 = fn.session->stats().kernel_invocations.load();
  int64_t allocs0 = tensor::ThreadAllocCount();
  (void)fn.Run(feeds, &pooled);
  c.kernels = fn.session->stats().kernel_invocations.load() - kernels0;
  c.pooled_allocs = tensor::ThreadAllocCount() - allocs0;
  obs::RunMetadata meta;
  allocs0 = tensor::ThreadAllocCount();
  (void)fn.Run(feeds, &unpooled, &meta);
  c.allocs = tensor::ThreadAllocCount() - allocs0;
  for (const obs::NodeStats& node : meta.step_stats.nodes) {
    if (node.op == "MatMul") c.matmuls += node.count;
    if (node.op == "Const") c.consts += node.count;
  }
  return c;
}

workloads::RnnConfig SmallRnn() {
  workloads::RnnConfig config;
  config.batch = 4;
  config.seq_len = 8;
  config.input_size = 8;
  config.hidden = 16;
  return config;
}

std::vector<exec::RuntimeValue> RnnFeeds(const workloads::RnnInputs& in) {
  return {in.input_data, in.initial_state, in.sequence_len};
}

StagedFunction StageRnn(AutoGraph& agc) {
  return agc.Stage("dynamic_rnn",
                   {StageArg::Placeholder("input_data"),
                    StageArg::Placeholder("initial_state"),
                    StageArg::Placeholder("sequence_len", DType::kInt32)});
}

TEST(Counters, OptimizedNodeCountOfEveryExampleFunction) {
  std::map<std::string, int64_t> counts;
  for (const char* file : {"dynamic_rnn.pym", "quickstart.pym",
                           "side_effects.pym", "training_loop.pym"}) {
    counts.merge(OptimizedNodeCounts(file));
  }
  const std::map<std::string, int64_t> pinned = {
      {"dynamic_rnn.pym:dynamic_rnn", 15},
      {"dynamic_rnn.pym:rnn_cell", 8},
      {"quickstart.pym:f", 4},
      {"quickstart.pym:relu_clip", 4},
      {"quickstart.pym:sum_squares", 3},
      {"side_effects.pym:normalize", 5},
      {"training_loop.pym:loss_fn", 8},
      {"training_loop.pym:predict", 5},
      {"training_loop.pym:train", 13},
  };
  EXPECT_EQ(counts, pinned);
}

workloads::BeamConfig SmallBeam() {
  workloads::BeamConfig config;
  config.beam = 4;
  config.vocab = 64;
  config.hidden = 32;
  config.max_len = 16;
  return config;
}

std::vector<exec::RuntimeValue> BeamFeeds(const workloads::BeamInputs& in) {
  return {in.init_state, in.init_scores, in.init_tokens};
}

StagedFunction StageBeam(AutoGraph& agc) {
  return agc.Stage("beam_search",
                   {StageArg::Placeholder("state"),
                    StageArg::Placeholder("scores"),
                    StageArg::Placeholder("tokens", DType::kInt32)});
}

TEST(Counters, BeamSearchKernelsAndAllocsPerRun) {
  const workloads::BeamInputs inputs = workloads::MakeBeamInputs(SmallBeam());
  AutoGraph agc;
  workloads::InstallBeamSearch(agc, SmallBeam(), inputs);
  StagedFunction fn = StageBeam(agc);
  const RunCounters c = CountRun(fn, BeamFeeds(inputs));
  // Const steps are plan literals and call no kernel; they are pinned
  // apart.
  EXPECT_EQ(c.kernels, 354);
  EXPECT_EQ(c.consts, 163);
  EXPECT_EQ(c.allocs, 290);
  EXPECT_EQ(c.pooled_allocs, 0);
}

TEST(Counters, DynamicRnnKernelsAndAllocsPerRun) {
  const workloads::RnnInputs inputs = workloads::MakeRnnInputs(SmallRnn());
  AutoGraph agc;
  workloads::InstallRnn(agc, inputs);
  StagedFunction fn = StageRnn(agc);
  const RunCounters c = CountRun(fn, RnnFeeds(inputs));
  EXPECT_EQ(c.kernels, 78);
  EXPECT_EQ(c.consts, 29);
  EXPECT_EQ(c.allocs, 70);
  EXPECT_EQ(c.pooled_allocs, 0);
}

// At these shapes the AVX2 MatMul reads B in place, so it allocates
// nothing beyond its output, exactly like the scalar backend.
TEST(Counters, Avx2AllocsPerRunEqualScalar) {
  if (!tensor::simd::Avx2Available()) GTEST_SKIP() << "no AVX2 backend";
  const workloads::BeamInputs beam = workloads::MakeBeamInputs(SmallBeam());
  const workloads::RnnInputs rnn = workloads::MakeRnnInputs(SmallRnn());
  AutoGraph beam_agc;
  workloads::InstallBeamSearch(beam_agc, SmallBeam(), beam);
  AutoGraph rnn_agc;
  workloads::InstallRnn(rnn_agc, rnn);
  StagedFunction beam_fn = StageBeam(beam_agc);
  StagedFunction rnn_fn = StageRnn(rnn_agc);
  const std::pair<StagedFunction*, std::vector<exec::RuntimeValue>> runs[] = {
      {&beam_fn, BeamFeeds(beam)}, {&rnn_fn, RnnFeeds(rnn)}};
  for (const auto& [fn, feeds] : runs) {
    const RunCounters scalar = CountRun(*fn, feeds, "scalar");
    const RunCounters avx2 = CountRun(*fn, feeds, "avx2");
    EXPECT_EQ(avx2.kernels, scalar.kernels);
    EXPECT_GT(avx2.matmuls, 0);
    EXPECT_EQ(avx2.matmuls, scalar.matmuls);
    EXPECT_EQ(avx2.allocs, scalar.allocs);
  }
}

// From .pym, the first Run compiles the top plan and one plan per control
// flow subgraph. From .agc every plan is installed, so none compiles, and
// the weights wrap the file mapping, so loading allocates no buffer.
TEST(Counters, PlansCompiledFromPymAndAgcAndLoadAllocs) {
  const workloads::RnnInputs inputs = workloads::MakeRnnInputs(SmallRnn());
  AutoGraph agc;
  workloads::InstallRnn(agc, inputs);
  StagedFunction from_pym = StageRnn(agc);
  (void)from_pym.Run(RnnFeeds(inputs));
  EXPECT_EQ(from_pym.session->stats().plans_compiled.load(), 3);

  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("counters_test_" + std::to_string(::getpid()) + ".agc"))
          .string();
  core::SaveArtifact(path, {{"dynamic_rnn", &from_pym}});
  const int64_t allocs0 = tensor::ThreadAllocCount();
  auto loaded = core::StageFromArtifact(path);
  EXPECT_EQ(tensor::ThreadAllocCount() - allocs0, 0);
  StagedFunction& from_agc = loaded.at("dynamic_rnn");
  (void)from_agc.Run(RnnFeeds(inputs));
  EXPECT_EQ(from_agc.session->stats().plans_compiled.load(), 0);
  std::remove(path.c_str());
}

// Plans loaded from an .agc are bound by the same BindStep as compiled
// ones: the loaded beam search computes the same outputs, bit for bit,
// with the same kernels and Const literals per Run.
TEST(Counters, BeamSearchFromAgcBindsLikeStaged) {
  const workloads::BeamInputs inputs = workloads::MakeBeamInputs(SmallBeam());
  AutoGraph agc;
  workloads::InstallBeamSearch(agc, SmallBeam(), inputs);
  StagedFunction staged = StageBeam(agc);
  const std::vector<exec::RuntimeValue> feeds = BeamFeeds(inputs);
  (void)staged.Run(feeds);

  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("counters_test_beam_" + std::to_string(::getpid()) + ".agc"))
          .string();
  core::SaveArtifact(path, {{"beam_search", &staged}});
  auto loaded = core::StageFromArtifact(path);
  StagedFunction& from_agc = loaded.at("beam_search");

  const RunCounters a = CountRun(staged, feeds);
  const RunCounters b = CountRun(from_agc, feeds);
  EXPECT_EQ(b.kernels, a.kernels);
  EXPECT_EQ(b.consts, a.consts);
  EXPECT_EQ(b.allocs, a.allocs);

  for (const bool pool : {true, false}) {
    obs::RunOptions options;
    options.step_stats = false;
    options.buffer_pool = pool;
    const std::vector<exec::RuntimeValue> want = staged.Run(feeds, &options);
    const std::vector<exec::RuntimeValue> got = from_agc.Run(feeds, &options);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      const Tensor& w = exec::AsTensor(want[i]);
      const Tensor& g = exec::AsTensor(got[i]);
      ASSERT_EQ(g.shape(), w.shape());
      EXPECT_EQ(g.dtype(), w.dtype());
      EXPECT_EQ(std::memcmp(g.data(), w.data(),
                            static_cast<size_t>(w.num_elements()) *
                                sizeof(float)),
                0);
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ag
