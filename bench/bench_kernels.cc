// Kernel-backend A/B: what the runtime-dispatched SIMD layer (DESIGN.md
// §4j) buys on the hot tensor kernels, and what int8 buys on top.
//
// Kernel families, swept over backend × threads {1, 4, 8} unless noted:
//   MatMul        square sizes 64..512 (512^3 is the acceptance gate:
//                 AVX2 >= 2x scalar single-thread GFLOP/s, int8 >= 1.5x
//                 over float AVX2), float backends plus the int8
//                 quantized path (weights pre-quantized offline, like
//                 the quantize_weights pass leaves them);
//   MatMulShape   the serving and decode shapes (m 1..8, where AVX2
//                 reads B in place at either vector width), among them
//                 beam search's 8x64x64 state update and 8x64x128
//                 output projection and rnn_serve's batch-4 4x64x256
//                 input projection, and two larger shapes, 8x1024^2 and
//                 128x512^2, single-threaded. On an AVX-512F CPU the
//                 avx2 rows run the 512-bit micro-kernel, which reads B
//                 in place at both large shapes; at 256 bits both pack B;
//   FusedChain    a staged exp(tanh(x*y)+x) elementwise chain through
//                 the fusion pipeline — exercises the vectorized
//                 FusedProgram row loop;
//   Softmax,      the rowwise softmax kernels over [batch, vocab] logits
//   LogSoftmax    (vexpf-backed); {8, 128} is beam search's per-step
//                 LogSoftmax (Appendix D.1);
//   BroadcastAdd  beam search's two broadcast adds, [8,128]+[128] (the
//                 output bias) and [8,1]+[8,128] (scores + logp), on the
//                 run-based broadcast path;
//   TopK          beam search's k=8 of [1,1024] (random rows, and
//                 ascending rows, where every element enters the scan's
//                 k best) and of [8,128]; k=32 and k=64 of [1,4096], the
//                 last k on the one-pass scan and the first past it; and
//                 k=1024 of [1,1024]; single-threaded.
// plus Transpose, single-threaded: a [16,4,256] (1,0,2) flip, the
// batch/time swap dynamic_rnn makes on its input and output, which
// copies whole rows; and a [64,64] (1,0) element shuffle.
//
// Each benchmark reports GFLOP/s (GFLOPS counter; nominal flop counts:
// 2mkn for matmul, ops-per-element for the chain, 4 flops/element for
// softmax and log-softmax, 1 for the add and for TopK) and GB/s over the streamed
// inputs (Transpose, a copy, reports GB/s only), so backend wins read as
// roofline movement rather than raw milliseconds. The A/B numerics
// contract behind the comparison — scalar bit-stable, AVX2 within the
// documented ULP bounds, int8 backend-bit-identical — is enforced by
// tests/simd_test.cc and tests/quantize_test.cc; this file measures
// the same kernels.
//
// CI smoke-runs this binary at threads=1.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exec/kernels.h"
#include "exec/session.h"
#include "graph/graph.h"
#include "graph/ops.h"
#include "graph/optimize.h"
#include "obs/run_metadata.h"
#include "runtime/parallel_for.h"
#include "tensor/quant.h"
#include "tensor/simd/dispatch.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace ag {
namespace {

using tensor::simd::KernelBackend;
using tensor::simd::KernelBackendScope;

// Backend axis: 0 = scalar, 1 = avx2 (degrades to scalar off-AVX2
// machines, by the dispatch contract), 2 = int8 (quantized kernel
// under the avx2 table; MatMul only).
constexpr int64_t kScalar = 0;
constexpr int64_t kAvx2 = 1;
constexpr int64_t kInt8 = 2;

KernelBackend BackendFor(int64_t axis) {
  return axis == kScalar ? KernelBackend::kScalar : KernelBackend::kAvx2;
}

Tensor RandomTensor(Shape shape, std::uint64_t seed) {
  std::vector<float> vals(static_cast<size_t>(shape.num_elements()));
  std::uint64_t s = seed;
  for (auto& v : vals) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    v = static_cast<float>((s >> 33) & 0xFFFFFF) /
            static_cast<float>(0x7FFFFF) -
        1.0f;
  }
  return Tensor::FromVector(std::move(vals), std::move(shape));
}

void RateCounters(benchmark::State& state, double flops_per_iter,
                  double bytes_per_iter) {
  state.counters["GFLOPS"] =
      benchmark::Counter(flops_per_iter, benchmark::Counter::kIsIterationInvariantRate,
                         benchmark::Counter::kIs1000);
  state.counters["GBS"] =
      benchmark::Counter(bytes_per_iter, benchmark::Counter::kIsIterationInvariantRate,
                         benchmark::Counter::kIs1000);
}

// ---- MatMul sweep ---------------------------------------------------------

void BM_MatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  const int64_t backend = state.range(1);
  const int threads = static_cast<int>(state.range(2));
  Tensor a = RandomTensor(Shape({n, n}), 1);
  Tensor b = RandomTensor(Shape({n, n}), 2);
  const QuantParams qp = ChooseQuantParams(b);
  Tensor bq = Quantize(b, qp.scale, qp.zero_point);

  runtime::IntraOpScope intra(threads == 1 ? 0 : threads);
  KernelBackendScope scope(BackendFor(backend));
  for (auto _ : state) {
    Tensor out = backend == kInt8
                     ? QuantizedMatMul(a, bq, qp.scale, qp.zero_point)
                     : MatMul(a, b);
    benchmark::DoNotOptimize(out.data());
  }
  RateCounters(state, 2.0 * n * n * n,
               // int8 streams the weight matrix at 1 byte/element
               // logically, but storage is the shared float buffer, so
               // report the float traffic for both paths.
               2.0 * n * n * sizeof(float));
}

// ---- MatMul at the workloads' shapes --------------------------------------

// [m,k]x[k,n] at the shapes the serving and decode paths run, where the
// AVX2 kernel reads B in place, plus two whose row blocks read enough of
// a large B to take its packed branch.
void BM_MatMulShape(benchmark::State& state) {
  const int64_t m = state.range(0);
  const int64_t k = state.range(1);
  const int64_t n = state.range(2);
  const int64_t backend = state.range(3);
  const int threads = static_cast<int>(state.range(4));
  Tensor a = RandomTensor(Shape({m, k}), 1);
  Tensor b = RandomTensor(Shape({k, n}), 2);
  runtime::IntraOpScope intra(threads == 1 ? 0 : threads);
  KernelBackendScope scope(BackendFor(backend));
  for (auto _ : state) {
    Tensor out = MatMul(a, b);
    benchmark::DoNotOptimize(out.data());
  }
  RateCounters(state, 2.0 * m * k * n,
               static_cast<double>(m * k + k * n) * sizeof(float));
}

// ---- Transpose ------------------------------------------------------------

// shape 0: [16,4,256] perm (1,0,2), dynamic_rnn's batch/time swap, which
// keeps the last axis; shape 1: [64,64] perm (1,0), which moves it.
void BM_Transpose(benchmark::State& state) {
  const bool flip3 = state.range(0) == 0;
  const int threads = static_cast<int>(state.range(1));
  Tensor a = RandomTensor(flip3 ? Shape({16, 4, 256}) : Shape({64, 64}), 8);
  const std::vector<int> perm =
      flip3 ? std::vector<int>{1, 0, 2} : std::vector<int>{1, 0};
  runtime::IntraOpScope intra(threads == 1 ? 0 : threads);
  for (auto _ : state) {
    Tensor out = Transpose(a, perm);
    benchmark::DoNotOptimize(out.data());
  }
  // A pure copy: report only GB/s, read plus written.
  state.counters["GBS"] = benchmark::Counter(
      2.0 * static_cast<double>(a.num_elements()) * sizeof(float),
      benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}

// ---- Fused elementwise chain ---------------------------------------------

struct FusedChain {
  graph::Graph g;
  std::vector<graph::Output> roots;
  std::map<std::string, exec::RuntimeValue> feeds;
  std::unique_ptr<exec::Session> session;
  int64_t elems = 0;
  int64_t flops_per_elem = 0;
};

void BuildFusedChain(int64_t elems, FusedChain* out) {
  FusedChain& c = *out;
  c.elems = elems;
  graph::GraphContext ctx(&c.g);
  graph::Output x = graph::Placeholder(ctx, "x", DType::kFloat32);
  graph::Output y = graph::Placeholder(ctx, "y", DType::kFloat32);
  // exp(tanh(x*y) + x): 4 fusable ops per element.
  graph::Output mul = graph::Op(ctx, "Mul", {x, y});
  graph::Output tanh = graph::Op(ctx, "Tanh", {mul});
  graph::Output add = graph::Op(ctx, "Add", {tanh, x});
  c.roots = {graph::Op(ctx, "Exp", {add})};
  c.flops_per_elem = 4;
  (void)graph::Optimize(&c.g, &c.roots, &exec::EvaluatePureNode, {});
  c.feeds = {{"x", RandomTensor(Shape({elems}), 3)},
             {"y", RandomTensor(Shape({elems}), 4)}};
  c.session = std::make_unique<exec::Session>(&c.g);
}

void BM_FusedChain(benchmark::State& state) {
  const int64_t elems = state.range(0);
  const int64_t backend = state.range(1);
  const int threads = static_cast<int>(state.range(2));
  FusedChain c;
  BuildFusedChain(elems, &c);
  obs::RunOptions opts;
  opts.step_stats = false;
  opts.kernel_backend =
      tensor::simd::KernelBackendName(BackendFor(backend));
  runtime::IntraOpScope intra(threads == 1 ? 0 : threads);
  for (auto _ : state) {
    auto out = c.session->Run(c.feeds, c.roots, &opts, nullptr);
    benchmark::DoNotOptimize(out);
  }
  RateCounters(state, static_cast<double>(c.flops_per_elem * elems),
               2.0 * elems * sizeof(float));
}

// ---- Softmax --------------------------------------------------------------

template <Tensor (*kFn)(const Tensor&)>
void BM_SoftmaxFamily(benchmark::State& state) {
  const int64_t batch = state.range(0);
  const int64_t vocab = state.range(1);
  const int64_t backend = state.range(2);
  const int threads = static_cast<int>(state.range(3));
  Tensor logits = RandomTensor(Shape({batch, vocab}), 5);
  runtime::IntraOpScope intra(threads == 1 ? 0 : threads);
  KernelBackendScope scope(BackendFor(backend));
  for (auto _ : state) {
    Tensor out = kFn(logits);
    benchmark::DoNotOptimize(out.data());
  }
  // max + sub/exp + sum + div (or log-sub): nominal 4 flops per element.
  RateCounters(state, 4.0 * batch * vocab,
               static_cast<double>(batch * vocab) * sizeof(float));
}

void BM_Softmax(benchmark::State& state) { BM_SoftmaxFamily<&Softmax>(state); }

void BM_LogSoftmax(benchmark::State& state) {
  BM_SoftmaxFamily<&LogSoftmax>(state);
}

// ---- Broadcast add --------------------------------------------------------

// shape 0: [rows, cols] + [cols]; shape 1: [rows, 1] + [rows, cols].
void BM_BroadcastAdd(benchmark::State& state) {
  const int64_t rows = state.range(0);
  const int64_t cols = state.range(1);
  const bool column = state.range(2) == 1;
  const int64_t backend = state.range(3);
  const int threads = static_cast<int>(state.range(4));
  Tensor a = RandomTensor(column ? Shape({rows, 1}) : Shape({rows, cols}), 6);
  Tensor b = RandomTensor(column ? Shape({rows, cols}) : Shape({cols}), 7);
  runtime::IntraOpScope intra(threads == 1 ? 0 : threads);
  KernelBackendScope scope(BackendFor(backend));
  for (auto _ : state) {
    Tensor out = Add(a, b);
    benchmark::DoNotOptimize(out.data());
  }
  RateCounters(state, static_cast<double>(rows * cols),
               static_cast<double>(a.num_elements() + b.num_elements()) *
                   sizeof(float));
}

// ---- TopK -----------------------------------------------------------------

// order 0: random rows; order 1: ascending rows.
void BM_TopK(benchmark::State& state) {
  const int64_t rows = state.range(0);
  const int64_t cols = state.range(1);
  const int64_t k = state.range(2);
  const bool ascending = state.range(3) == 1;
  const int64_t backend = state.range(4);
  Tensor a = RandomTensor(Shape({rows, cols}), 8);
  if (ascending) {
    std::vector<float> vals(static_cast<size_t>(rows * cols));
    for (size_t i = 0; i < vals.size(); ++i) {
      vals[i] = static_cast<float>(i % static_cast<size_t>(cols));
    }
    a = Tensor::FromVector(std::move(vals), Shape({rows, cols}));
  }
  KernelBackendScope scope(BackendFor(backend));
  for (auto _ : state) {
    auto [values, indices] = TopK(a, k);
    benchmark::DoNotOptimize(values.data());
    benchmark::DoNotOptimize(indices.data());
  }
  RateCounters(state, static_cast<double>(rows * cols),
               static_cast<double>(rows * cols) * sizeof(float));
}

void MatMulArgs(benchmark::internal::Benchmark* b) {
  b->ArgNames({"n", "backend", "threads"});
  for (int64_t n : {64, 128, 256, 512}) {
    for (int64_t backend : {kScalar, kAvx2, kInt8}) {
      for (int64_t threads : {1, 4, 8}) {
        b->Args({n, backend, threads});
      }
    }
  }
  b->Unit(benchmark::kMicrosecond);
}

void MatMulShapeArgs(benchmark::internal::Benchmark* b) {
  b->ArgNames({"m", "k", "n", "backend", "threads"});
  const int64_t shapes[][3] = {{1, 64, 256},    {1, 256, 256},
                               {4, 64, 256},    {4, 256, 256},
                               {8, 64, 64},     {8, 64, 128},
                               {8, 1024, 1024}, {128, 512, 512}};
  for (const auto& [m, k, n] : shapes) {
    for (int64_t backend : {kScalar, kAvx2}) b->Args({m, k, n, backend, 1});
  }
  b->Unit(benchmark::kMicrosecond);
}

void TransposeArgs(benchmark::internal::Benchmark* b) {
  b->ArgNames({"shape", "threads"});
  for (int64_t shape : {0, 1}) b->Args({shape, 1});
  b->Unit(benchmark::kMicrosecond);
}

void FusedChainArgs(benchmark::internal::Benchmark* b) {
  b->ArgNames({"elems", "backend", "threads"});
  for (int64_t elems : {1 << 12, 1 << 16, 1 << 20}) {
    for (int64_t backend : {kScalar, kAvx2}) {
      for (int64_t threads : {1, 4, 8}) {
        b->Args({elems, backend, threads});
      }
    }
  }
  b->Unit(benchmark::kMicrosecond);
}

void SoftmaxArgs(benchmark::internal::Benchmark* b) {
  b->ArgNames({"batch", "vocab", "backend", "threads"});
  for (int64_t backend : {kScalar, kAvx2}) {
    for (int64_t threads : {1, 4, 8}) {
      b->Args({8, 128, backend, threads});
      b->Args({64, 4096, backend, threads});
      b->Args({1024, 256, backend, threads});
    }
  }
  b->Unit(benchmark::kMicrosecond);
}

void BroadcastAddArgs(benchmark::internal::Benchmark* b) {
  b->ArgNames({"rows", "cols", "shape", "backend", "threads"});
  for (int64_t backend : {kScalar, kAvx2}) {
    for (int64_t threads : {1, 4, 8}) {
      for (int64_t shape : {0, 1}) b->Args({8, 128, shape, backend, threads});
    }
  }
  b->Unit(benchmark::kMicrosecond);
}

void TopKArgs(benchmark::internal::Benchmark* b) {
  b->ArgNames({"rows", "cols", "k", "order", "backend", "threads"});
  const int64_t cases[][4] = {{1, 1024, 8, 0},  {1, 1024, 8, 1},
                              {8, 128, 8, 0},   {1, 4096, 32, 0},
                              {1, 4096, 64, 0}, {1, 1024, 1024, 0}};
  for (const auto& [rows, cols, k, order] : cases) {
    for (int64_t backend : {kScalar, kAvx2}) {
      b->Args({rows, cols, k, order, backend, 1});
    }
  }
  b->Unit(benchmark::kMicrosecond);
}

BENCHMARK(BM_MatMul)->Apply(MatMulArgs);
BENCHMARK(BM_MatMulShape)->Apply(MatMulShapeArgs);
BENCHMARK(BM_Transpose)->Apply(TransposeArgs);
BENCHMARK(BM_FusedChain)->Apply(FusedChainArgs);
BENCHMARK(BM_Softmax)->Apply(SoftmaxArgs);
BENCHMARK(BM_LogSoftmax)->Apply(SoftmaxArgs);
BENCHMARK(BM_BroadcastAdd)->Apply(BroadcastAddArgs);
BENCHMARK(BM_TopK)->Apply(TopKArgs);

}  // namespace
}  // namespace ag
