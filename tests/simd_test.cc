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
//     against an ascending-k std::fmaf chain. Per-element results are
//     deterministic (independent of threads, shard layout and packing).
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
using tensor::simd::KernelBackendScope;

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
// std::fmaf chain over ascending k from +0, however B is read (in place,
// through the masked partial tile, or from packed panels) and at any
// intra-op budget. m = 1..13 covers every row-block tail; the n values
// cover partial tiles on either side of 8 and 16 lanes.
TEST(SimdMatMul, Avx2IsAscendingKFmaChainBitForBit) {
  if (!Avx2Available()) GTEST_SKIP() << "no AVX2";
  struct Case {
    int64_t m, k, n;
  };
  std::vector<Case> cases;
  for (int64_t m = 1; m <= 13; ++m) {
    for (int64_t n : {1, 5, 15, 16, 17, 31, 33, 128}) {
      cases.push_back({m, 19, n});
    }
  }
  // Either side of the pack threshold (more than one 6-row block, and
  // row blocks x k x n >= 2Mi floats): read in place, then packed with
  // full tiles and with a 9-lane partial tile.
  cases.push_back({7, 300, 300});
  cases.push_back({8, 1024, 1024});
  cases.push_back({13, 1000, 1001});
  for (const Case& c : cases) {
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
    KernelBackendScope scope(KernelBackend::kAvx2);
    for (int budget : {0, 4}) {
      runtime::IntraOpScope intra(budget);
      const Tensor got = MatMul(a, b);
      ASSERT_EQ(got.num_elements(), c.m * c.n);
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            want.size() * sizeof(float)),
                0)
          << "budget " << budget;
    }
  }
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
