// SIMD kernel-layer numerical contract (DESIGN.md §4j).
//
// The scalar backend is the seed code unchanged, so its results are the
// bit-identity baseline. The AVX2 backend is allowed to differ within
// documented bounds:
//   - vexpf: <= 2 ulp vs the double-precision reference over the
//     normal range; inputs above ~88.72 overflow to +inf, inputs below
//     ~-87.33 flush to zero (no subnormals); NaN propagates.
//   - vtanhf: <= 4 ulp; tanh(-0) = +0 (sign-of-zero deviation).
//   - vsigmoidf: <= 8 ulp.
//   - MatMul: reassociated FMA accumulation — compared against the
//     scalar backend by relative error, not bits, and bit for bit
//     against an ascending-k std::fmaf chain at each vector width (256
//     and, on AVX-512F CPUs, 512 bits). Per-element results are
//     deterministic (independent of width, threads, shard layout and
//     packing).
// Within one backend, fused and unfused evaluation stay bit-identical:
// FusedStepAvx2 only vectorizes ops whose vector semantics match the
// scalar functor exactly, so this file re-runs the fusion A/B identity
// under a pinned avx2 scope.
//
// Workload-level A/B (the tolerance sweeps the tentpole asks for):
// RNN, the in-graph training loop, and beam search, staged once and run
// under scalar vs avx2 RunOptions across both engines and buffer pool
// on/off.
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/api.h"
#include "exec/kernels.h"
#include "exec/session.h"
#include "exec/value.h"
#include "graph/graph.h"
#include "graph/ops.h"
#include "graph/optimize.h"
#include "obs/run_metadata.h"
#include "runtime/parallel_for.h"
#include "support/pass_pipeline.h"
#include "tensor/simd/dispatch.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"
#include "workloads/beam_search.h"
#include "workloads/rnn.h"
#include "workloads/training.h"

namespace ag {
namespace {

using exec::RuntimeValue;
using tensor::simd::Avx2Available;
using tensor::simd::KernelBackend;
using tensor::simd::KernelBackendName;
using tensor::simd::KernelBackendScope;
using tensor::simd::MatMulKernel;
using tensor::simd::MatMulKernelForTesting;
using tensor::simd::TableFor;

// Monotone integer key: equal-spaced in ulps, ordered like the reals,
// with +0 == -0.
int64_t OrderedKey(float x) {
  const auto u = std::bit_cast<std::uint32_t>(x);
  const auto mag = static_cast<int64_t>(u & 0x7FFFFFFFu);
  return (u & 0x80000000u) != 0 ? -mag : mag;
}

int64_t UlpDistance(float a, float b) {
  return std::abs(OrderedKey(a) - OrderedKey(b));
}

// Deterministic uniform floats in [lo, hi] (no std::random: identical
// sequences everywhere).
std::vector<float> UniformSweep(float lo, float hi, int64_t n,
                                std::uint64_t seed) {
  std::vector<float> out(static_cast<size_t>(n));
  std::uint64_t s = seed;
  for (auto& v : out) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto frac =
        static_cast<float>((s >> 33) & 0xFFFFFF) / static_cast<float>(0xFFFFFF);
    v = lo + (hi - lo) * frac;
  }
  return out;
}

// Runs a unary tensor op under the avx2 scope and reports the max ulp
// distance against `ref` evaluated in double precision.
template <typename Op, typename Ref>
int64_t MaxUlpVsDouble(const std::vector<float>& xs, Op op, Ref ref) {
  Tensor t = Tensor::FromVector(xs, Shape({static_cast<int64_t>(xs.size())}));
  Tensor y;
  {
    KernelBackendScope scope(KernelBackend::kAvx2);
    y = op(t);
  }
  int64_t worst = 0;
  for (size_t i = 0; i < xs.size(); ++i) {
    const auto want = static_cast<float>(ref(static_cast<double>(xs[i])));
    worst = std::max(worst, UlpDistance(y.at(static_cast<int64_t>(i)), want));
  }
  return worst;
}

TEST(SimdUlp, ExpWithinTwoUlpOverNormalRange) {
  if (!Avx2Available()) GTEST_SKIP() << "no AVX2";
  const std::vector<float> xs = UniformSweep(-87.0f, 88.0f, 100000, 17);
  EXPECT_LE(MaxUlpVsDouble(
                xs, [](const Tensor& t) { return Exp(t); },
                [](double x) { return std::exp(x); }),
            2);
}

TEST(SimdUlp, TanhWithinFourUlp) {
  if (!Avx2Available()) GTEST_SKIP() << "no AVX2";
  const std::vector<float> xs = UniformSweep(-20.0f, 20.0f, 100000, 23);
  EXPECT_LE(MaxUlpVsDouble(
                xs, [](const Tensor& t) { return Tanh(t); },
                [](double x) { return std::tanh(x); }),
            4);
}

TEST(SimdUlp, SigmoidWithinEightUlp) {
  if (!Avx2Available()) GTEST_SKIP() << "no AVX2";
  const std::vector<float> xs = UniformSweep(-30.0f, 30.0f, 100000, 29);
  EXPECT_LE(MaxUlpVsDouble(
                xs, [](const Tensor& t) { return Sigmoid(t); },
                [](double x) { return 1.0 / (1.0 + std::exp(-x)); }),
            8);
}

TEST(SimdUlp, ExpSpecialValues) {
  if (!Avx2Available()) GTEST_SKIP() << "no AVX2";
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> xs = {89.0f,  1e30f, inf,  // overflow -> +inf
                           -88.0f, -1e30f, -inf,  // flush to zero
                           nan, 0.0f, -0.0f};
  Tensor t = Tensor::FromVector(xs, Shape({static_cast<int64_t>(xs.size())}));
  Tensor y;
  {
    KernelBackendScope scope(KernelBackend::kAvx2);
    y = Exp(t);
  }
  EXPECT_EQ(y.at(0), inf);
  EXPECT_EQ(y.at(1), inf);
  EXPECT_EQ(y.at(2), inf);
  // Documented deviation from libm: inputs below the cutoff flush to
  // exactly zero instead of producing subnormals.
  EXPECT_EQ(y.at(3), 0.0f);
  EXPECT_EQ(y.at(4), 0.0f);
  EXPECT_EQ(y.at(5), 0.0f);
  EXPECT_TRUE(std::isnan(y.at(6)));
  EXPECT_EQ(y.at(7), 1.0f);
  EXPECT_EQ(y.at(8), 1.0f);
}

TEST(SimdUlp, TailMatchesVectorLanes) {
  if (!Avx2Available()) GTEST_SKIP() << "no AVX2";
  // A value's result must not depend on where it lands in the array
  // (vector body vs scalar tail) — this is what keeps fused and
  // unfused evaluation bit-identical. Evaluate the same values at
  // lengths that put them in the body and in the tail.
  const std::vector<float> vals =
      UniformSweep(-10.0f, 10.0f, 13, 31);  // 13 = 8 body + 5 tail
  Tensor t13 = Tensor::FromVector(vals, Shape({13}));
  std::vector<float> padded = vals;
  padded.resize(16, 0.0f);  // all 13 originals now in vector lanes
  Tensor t16 = Tensor::FromVector(padded, Shape({16}));
  KernelBackendScope scope(KernelBackend::kAvx2);
  const Tensor y13 = Tanh(t13);
  const Tensor y16 = Tanh(t16);
  for (int64_t i = 0; i < 13; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(y13.at(i)),
              std::bit_cast<std::uint32_t>(y16.at(i)))
        << "index " << i;
  }
}

// --- MatMul ---------------------------------------------------------------

Tensor RandomTensor(int64_t rows, int64_t cols, std::uint64_t seed) {
  std::vector<float> v = UniformSweep(-2.0f, 2.0f, rows * cols, seed);
  return Tensor::FromVector(std::move(v), Shape({rows, cols}));
}

TEST(SimdMatMul, Avx2MatchesScalarWithinTolerance) {
  if (!Avx2Available()) GTEST_SKIP() << "no AVX2";
  struct Case {
    int64_t m, k, n;
  };
  for (const Case& c : std::vector<Case>{
           {7, 13, 17}, {64, 64, 64}, {1, 100, 1}, {33, 1, 5}, {6, 16, 16},
           {12, 40, 31}}) {
    SCOPED_TRACE("m=" + std::to_string(c.m) + " k=" + std::to_string(c.k) +
                 " n=" + std::to_string(c.n));
    const Tensor a = RandomTensor(c.m, c.k, 7 * c.m + c.k);
    const Tensor b = RandomTensor(c.k, c.n, 11 * c.k + c.n);
    Tensor scalar_out;
    Tensor avx2_out;
    {
      KernelBackendScope scope(KernelBackend::kScalar);
      scalar_out = MatMul(a, b);
    }
    {
      KernelBackendScope scope(KernelBackend::kAvx2);
      avx2_out = MatMul(a, b);
    }
    ASSERT_EQ(scalar_out.num_elements(), avx2_out.num_elements());
    for (int64_t i = 0; i < scalar_out.num_elements(); ++i) {
      const float s = scalar_out.at(i);
      const float v = avx2_out.at(i);
      // Reassociated FMA accumulation: bound the relative error by the
      // dot-product length, with an absolute floor for cancellation.
      const float tol =
          1e-6f * static_cast<float>(c.k) * std::max(1.0f, std::abs(s));
      EXPECT_NEAR(s, v, tol) << "element " << i;
    }
  }
}

TEST(SimdMatMul, DeterministicAcrossThreadBudgets) {
  if (!Avx2Available()) GTEST_SKIP() << "no AVX2";
  const Tensor a = RandomTensor(37, 29, 3);
  const Tensor b = RandomTensor(29, 41, 5);
  KernelBackendScope scope(KernelBackend::kAvx2);
  const Tensor one = MatMul(a, b);
  Tensor sharded;
  {
    runtime::IntraOpScope intra(8);
    sharded = MatMul(a, b);
  }
  ASSERT_EQ(one.num_elements(), sharded.num_elements());
  EXPECT_EQ(std::memcmp(one.data(), sharded.data(),
                        static_cast<size_t>(one.num_elements()) *
                            sizeof(float)),
            0)
      << "per-element results must not depend on the shard layout";
}

// The exact contract behind both tests above: every C[i][j] is a
// std::fmaf chain over ascending k from +0, whatever the vector width
// and however B is read (in place, through the masked partial tile, or
// from packed panels), at any intra-op budget. m = 1..17 covers every
// row-block tail of both widths (6-row blocks at 256 bits, 8-row blocks
// at 512); the n values cover partial tiles on either side of 8, 16 and
// 32 lanes and the edges of 16- and 32-column tiles.
struct MatMulCase {
  int64_t m, k, n;
};

std::vector<MatMulCase> FmaChainCases() {
  std::vector<MatMulCase> cases;
  for (int64_t m = 1; m <= 17; ++m) {
    for (int64_t n : {1, 5, 15, 16, 17, 31, 32, 33, 47, 48, 63, 64, 65, 128}) {
      cases.push_back({m, 19, n});
    }
  }
  // Either side of each width's pack rule. At 256 bits (more than one
  // 6-row block, and row blocks x k x n >= 2Mi floats) 7x300^2 and both
  // 33x512 shapes read B in place; the rest pack, 13x1000x1001 and
  // 33x600x601 through a 9-lane partial tile. At 512 bits (at least five
  // 8-row blocks and k x n >= 320Ki floats) only the last two pack,
  // 33x600x601 through a 25-lane partial tile; 32x1024^2 has four blocks
  // and 33x512x639 a B one row short of the line.
  cases.insert(cases.end(), {{7, 300, 300},
                             {8, 1024, 1024},
                             {13, 1000, 1001},
                             {32, 1024, 1024},
                             {33, 512, 639},
                             {33, 512, 640},
                             {33, 600, 601}});
  return cases;
}

// Runs `matmul(a, b, m, k, n)` over every case at intra-op budgets 0
// and 4 and holds its output to the std::fmaf chain bit for bit.
template <typename Run>
void ExpectAscendingKFmaChain(Run matmul) {
  for (const MatMulCase& c : FmaChainCases()) {
    SCOPED_TRACE("m=" + std::to_string(c.m) + " k=" + std::to_string(c.k) +
                 " n=" + std::to_string(c.n));
    const Tensor a = RandomTensor(c.m, c.k, 5 * c.m + c.n);
    const Tensor b = RandomTensor(c.k, c.n, 13 * c.k + c.n);
    const float* pa = a.data();
    const float* pb = b.data();
    std::vector<float> want(static_cast<size_t>(c.m * c.n));
    for (int64_t i = 0; i < c.m; ++i) {
      for (int64_t j = 0; j < c.n; ++j) {
        float acc = 0.0f;
        for (int64_t kk = 0; kk < c.k; ++kk) {
          acc = std::fmaf(pa[i * c.k + kk], pb[kk * c.n + j], acc);
        }
        want[static_cast<size_t>(i * c.n + j)] = acc;
      }
    }
    for (int budget : {0, 4}) {
      runtime::IntraOpScope intra(budget);
      const std::vector<float> got = matmul(a, b, c.m, c.k, c.n);
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            want.size() * sizeof(float)),
                0)
          << "budget " << budget;
    }
  }
}

// One vector width of the avx2 MatMul, called directly.
void ExpectWidthIsAscendingKFmaChain(MatMulKernel kernel) {
  ExpectAscendingKFmaChain([kernel](const Tensor& a, const Tensor& b,
                                    int64_t m, int64_t k, int64_t n) {
    std::vector<float> c(static_cast<size_t>(m * n));
    kernel(a.data(), b.data(), c.data(), m, k, n);
    return c;
  });
}

// The table's kernel, through the MatMul op: on this CPU's widest width.
TEST(SimdMatMul, Avx2IsAscendingKFmaChainBitForBit) {
  if (!Avx2Available()) GTEST_SKIP() << "no AVX2";
  KernelBackendScope scope(KernelBackend::kAvx2);
  ExpectAscendingKFmaChain([](const Tensor& a, const Tensor& b, int64_t,
                              int64_t, int64_t) {
    const Tensor out = MatMul(a, b);
    return std::vector<float>(out.data(), out.data() + out.num_elements());
  });
}

TEST(SimdMatMul, Width256IsAscendingKFmaChainBitForBit) {
  const MatMulKernel kernel = MatMulKernelForTesting(256);
  if (kernel == nullptr) GTEST_SKIP() << "no AVX2: 256-bit MatMul not run";
  ExpectWidthIsAscendingKFmaChain(kernel);
}

TEST(SimdMatMul, Width512IsAscendingKFmaChainBitForBit) {
  const MatMulKernel kernel = MatMulKernelForTesting(512);
  if (kernel == nullptr) {
    GTEST_SKIP() << "CPU (or compiler) lacks AVX-512F: 512-bit MatMul not run";
  }
  ExpectWidthIsAscendingKFmaChain(kernel);
}

// The avx2 table takes the widest width this CPU runs; without AVX-512F
// it is the 256-bit kernel.
TEST(SimdMatMul, Avx2TableRunsWidestWidth) {
  if (!Avx2Available()) GTEST_SKIP() << "no AVX2";
  const MatMulKernel widest = MatMulKernelForTesting(512) != nullptr
                                  ? MatMulKernelForTesting(512)
                                  : MatMulKernelForTesting(256);
  EXPECT_EQ(TableFor(KernelBackend::kAvx2).matmul, widest);
  EXPECT_STREQ(KernelBackendName(TableFor(KernelBackend::kAvx2).backend),
               "avx2");
  std::cout << "avx2 MatMul width: "
            << (MatMulKernelForTesting(512) != nullptr ? 512 : 256)
            << " bits\n";
}

// --- Fused vs unfused, per backend ----------------------------------------

TEST(SimdFusion, FusedChainBitIdenticalToUnfusedUnderAvx2) {
  if (!Avx2Available()) GTEST_SKIP() << "no AVX2";
  auto build = [](const std::string& passes, Tensor* out) {
    auto g = std::make_shared<graph::Graph>();
    graph::GraphContext ctx(g.get());
    std::vector<float> xv = UniformSweep(-3.0f, 3.0f, 1000, 41);
    graph::Output x =
        graph::Const(ctx, Tensor::FromVector(std::move(xv), Shape({1000})));
    graph::Output c = graph::Const(ctx, Tensor::Scalar(0.5f));
    graph::Output y = graph::Op(
        ctx, "Exp",
        {graph::Op(ctx, "Tanh", {graph::Op(ctx, "Mul", {x, c})})});
    std::vector<graph::Output> roots{y};
    graph::OptimizeOptions options;
    options.pipeline = PipelineSpec::Parse(passes);
    (void)graph::Optimize(g.get(), &roots, nullptr, options);
    exec::Session session(g.get());
    *out = session.RunTensor({}, roots[0]);
  };
  KernelBackendScope scope(KernelBackend::kAvx2);
  Tensor fused;
  Tensor unfused;
  build("fusion", &fused);
  build("licm", &unfused);
  ASSERT_EQ(fused.num_elements(), unfused.num_elements());
  EXPECT_EQ(std::memcmp(fused.data(), unfused.data(),
                        static_cast<size_t>(fused.num_elements()) *
                            sizeof(float)),
            0);
}

// --- Workload-level scalar-vs-avx2 A/B ------------------------------------

void ExpectClose(const Tensor& scalar_t, const Tensor& avx2_t, float tol,
                 const char* what) {
  ASSERT_EQ(scalar_t.num_elements(), avx2_t.num_elements()) << what;
  ASSERT_EQ(scalar_t.dtype(), avx2_t.dtype()) << what;
  for (int64_t i = 0; i < scalar_t.num_elements(); ++i) {
    const float s = scalar_t.at(i);
    const float v = avx2_t.at(i);
    EXPECT_NEAR(s, v, tol * std::max(1.0f, std::abs(s)))
        << what << " element " << i;
  }
}

// Runs one staged function under scalar and avx2 backends across both
// engines and pool on/off; every configuration must stay within `tol`
// of the scalar sequential reference, and the scalar runs must be
// bit-identical to each other (scalar is the seed path, the engine and
// the pool must not perturb it).
void BackendSweep(core::StagedFunction& staged,
                  const std::vector<RuntimeValue>& feeds, float tol,
                  const char* what) {
  std::vector<RuntimeValue> reference;
  for (int threads : {0, 4}) {
    for (bool pool : {true, false}) {
      SCOPED_TRACE(std::string(what) + " threads=" + std::to_string(threads) +
                   " pool=" + std::to_string(pool));
      obs::RunOptions scalar_opts;
      scalar_opts.kernel_backend = "scalar";
      scalar_opts.inter_op_threads = threads;
      scalar_opts.buffer_pool = pool;
      obs::RunOptions avx2_opts = scalar_opts;
      avx2_opts.kernel_backend = "avx2";
      const std::vector<RuntimeValue> s = staged.Run(feeds, &scalar_opts);
      const std::vector<RuntimeValue> v = staged.Run(feeds, &avx2_opts);
      ASSERT_EQ(s.size(), v.size());
      for (size_t i = 0; i < s.size(); ++i) {
        ExpectClose(exec::AsTensor(s[i]), exec::AsTensor(v[i]), tol, what);
      }
      if (reference.empty()) {
        reference = s;
      } else {
        for (size_t i = 0; i < s.size(); ++i) {
          const Tensor& a = exec::AsTensor(s[i]);
          const Tensor& b = exec::AsTensor(reference[i]);
          ASSERT_EQ(a.num_elements(), b.num_elements());
          EXPECT_EQ(std::memcmp(a.data(), b.data(),
                                static_cast<size_t>(a.num_elements()) *
                                    sizeof(float)),
                    0)
              << what << ": scalar backend must be bit-stable across "
                         "engines and pool settings";
        }
      }
    }
  }
}

TEST(SimdWorkloadAB, DynamicRnn) {
  workloads::RnnConfig config;
  config.batch = 4;
  config.seq_len = 8;
  config.input_size = 8;
  config.hidden = 16;
  const workloads::RnnInputs inputs = workloads::MakeRnnInputs(config);
  core::AutoGraph agc;
  workloads::InstallRnn(agc, inputs);
  core::StagedFunction staged = agc.Stage(
      "dynamic_rnn",
      {core::StageArg::Placeholder("input_data"),
       core::StageArg::Placeholder("initial_state"),
       core::StageArg::Placeholder("sequence_len", DType::kInt32)});
  const std::vector<RuntimeValue> feeds{
      inputs.input_data, inputs.initial_state, inputs.sequence_len};
  BackendSweep(staged, feeds, 1e-4f, "rnn");
}

TEST(SimdWorkloadAB, TrainingLoop) {
  workloads::MnistConfig config;
  config.batch = 8;
  config.features = 8;
  config.classes = 4;
  config.steps = 8;
  const workloads::MnistData data = workloads::MakeMnistData(config);
  core::StagedFunction staged =
      workloads::BuildHandwrittenTrainingGraph(config);
  const std::vector<RuntimeValue> feeds{data.images, data.labels, data.w0,
                                        data.b0};
  // SGD amplifies kernel-level differences step over step; the bound is
  // looser than the single-pass workloads.
  BackendSweep(staged, feeds, 1e-3f, "training");
}

TEST(SimdWorkloadAB, BeamSearch) {
  workloads::BeamConfig config;
  config.beam = 4;
  config.vocab = 64;
  config.hidden = 32;
  config.max_len = 16;
  const workloads::BeamInputs inputs = workloads::MakeBeamInputs(config);
  core::AutoGraph agc;
  workloads::InstallBeamSearch(agc, config, inputs);
  core::StagedFunction staged = agc.Stage(
      "beam_search",
      {core::StageArg::Placeholder("state"),
       core::StageArg::Placeholder("scores"),
       core::StageArg::Placeholder("tokens", DType::kInt32)});
  const std::vector<RuntimeValue> feeds{
      inputs.init_state, inputs.init_scores, inputs.init_tokens};

  obs::RunOptions scalar_opts;
  scalar_opts.kernel_backend = "scalar";
  obs::RunOptions avx2_opts;
  avx2_opts.kernel_backend = "avx2";
  const std::vector<RuntimeValue> s = staged.Run(feeds, &scalar_opts);
  const std::vector<RuntimeValue> v = staged.Run(feeds, &avx2_opts);
  ASSERT_EQ(s.size(), v.size());
  // Scores within tolerance; the discrete outputs (tokens, step count)
  // must agree exactly — top-k on well-separated random logits.
  ExpectClose(exec::AsTensor(s[0]), exec::AsTensor(v[0]), 1e-4f, "scores");
  const Tensor st = exec::AsTensor(s[1]);
  const Tensor vt = exec::AsTensor(v[1]);
  ASSERT_EQ(st.num_elements(), vt.num_elements());
  for (int64_t i = 0; i < st.num_elements(); ++i) {
    EXPECT_EQ(st.at(i), vt.at(i)) << "token " << i;
  }
  EXPECT_EQ(exec::AsTensor(s[2]).scalar_int(),
            exec::AsTensor(v[2]).scalar_int());
}

}  // namespace
}  // namespace ag
