// Runtime kernel-backend dispatch (DESIGN.md §4j). The tensor kernels
// in tensor_ops.cc / quant.cc are written against a KernelTable of
// optional vectorized entry points; the table for a backend is resolved
// once per kernel invocation on the calling thread (never inside
// ParallelFor shard bodies — pool helpers carry no scopes) and a null
// entry means "use the scalar path", which is the seed code unchanged.
//
// Resolution precedence, mirroring the buffer_pool escape hatch:
//   1. KernelBackendScope on this thread (installed by Session::Run /
//      eager calls from RunOptions::kernel_backend),
//   2. the AG_KERNEL_BACKEND environment variable ("scalar" | "avx2" |
//      "auto"; anything else is ignored),
//   3. CPU detection: AVX2+FMA when the binary was built with AG_SIMD
//      and the processor reports support, else scalar.
// An explicit "avx2" request on a CPU (or build) without AVX2 degrades
// to scalar rather than failing — the contract is that every backend
// name is runnable everywhere, just not equally fast.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "tensor/tensor_ops.h"

namespace ag::tensor::simd {

enum class KernelBackend : std::uint8_t { kScalar = 0, kAvx2 = 1 };

// "scalar" / "avx2" — the value recorded in StepStats and printed by
// agprof / bench_kernels.
[[nodiscard]] const char* KernelBackendName(KernelBackend backend);

// Dense row-major float [m,k] x [k,n] -> [m,n].
using MatMulKernel = void (*)(const float* a, const float* b, float* c,
                              int64_t m, int64_t k, int64_t n);

// Vectorized kernel entry points for one backend. Null entries fall
// back to the scalar implementation at each call site. All functions
// are deterministic: results depend only on the input values, never on
// thread budget or shard layout (the kernel determinism contract).
struct KernelTable {
  KernelBackend backend = KernelBackend::kScalar;

  // Packs B when it pays, shards rows, and polls cancellation
  // internally; writes every element of c. The avx2 table runs a 512-bit
  // micro-kernel on AVX-512F CPUs and a 256-bit one elsewhere, with the
  // same bits (each element one ascending-k FMA chain from +0).
  MatMulKernel matmul = nullptr;

  // Elementwise transcendental arrays (polynomial vexpf/vtanhf; ULP
  // bounds documented in DESIGN.md §4j). dst may alias src exactly.
  // Tail elements are computed with a scalar mirror of the vector lane
  // (same operation sequence, fused FMA), so a value's result does not
  // depend on where it lands in the array — this is what keeps fused
  // and unfused evaluation bit-identical within the backend.
  void (*vexp)(const float* src, float* dst, int64_t n) = nullptr;
  void (*vtanh)(const float* src, float* dst, int64_t n) = nullptr;
  void (*vsigmoid)(const float* src, float* dst, int64_t n) = nullptr;

  // One FusedProgram step over a block (tensor_ops.cc FusedApplyBlock).
  // Returns false when this step op has no vector form — the caller
  // then runs the scalar case. Only ops whose vector semantics match
  // the scalar functor exactly (correctly rounded arithmetic, or the
  // shared vexpf/vtanhf cores above) are vectorized, so fused output
  // stays bit-identical to the unfused chain under the same backend.
  bool (*fused_step)(const FusedStep& step, const float* a, const float* b,
                     float* dst, int64_t m) = nullptr;

  // TopK's row-scan filter: the offset of the first element of x[0, n)
  // that is not <= kth (greater, or NaN), or n when there is none. It
  // only skips; TopK itself orders and inserts (tensor_ops.cc), so every
  // backend returns the same result.
  int64_t (*topk_skip)(const float* x, int64_t n, float kth) = nullptr;

  // int8 x int8 -> int32 inner product: qa [m,k], qw [k,n], both
  // row-major; acc [m,n] fully written. Integer math is exact, so every
  // backend's qmatmul produces identical accumulators (quant.cc tests
  // hold scalar and AVX2 to bit-equality).
  void (*qmatmul)(const int8_t* qa, const int8_t* qw, int32_t* acc,
                  int64_t m, int64_t k, int64_t n) = nullptr;
};

// True when this binary carries AVX2 kernels and the CPU supports
// AVX2+FMA.
[[nodiscard]] bool Avx2Available();

// True when the binary was compiled with the AVX2 translation unit
// (-DAG_SIMD=ON), regardless of what the CPU supports.
[[nodiscard]] bool Avx2CompiledIn();

// Test-only: the avx2 backend's float MatMul at one vector width (256
// or 512 bits), bypassing the table's pick of the widest width the CPU
// runs, so tests can hold every compiled width to the same bits. Null
// when this build or CPU cannot run that width. Nothing else selects a
// width: "avx2" always means the widest one available.
[[nodiscard]] MatMulKernel MatMulKernelForTesting(int bits);

// Parses a backend name: "scalar", "avx2", or "auto" (= nullopt, pick
// the best available). Throws ValueError on anything else.
[[nodiscard]] std::optional<KernelBackend> ParseKernelBackend(
    const std::string& name);

// Pure resolution rule (unit-testable): an explicit scalar request wins;
// "auto" and "avx2" both take AVX2 when available and degrade to scalar
// when not.
[[nodiscard]] KernelBackend ResolveBackend(
    std::optional<KernelBackend> requested, bool avx2_available);

// The process-wide default: AG_KERNEL_BACKEND (invalid values ignored)
// resolved against Avx2Available(). Computed once, on first use.
[[nodiscard]] KernelBackend ProcessDefaultBackend();

// The table for `backend` on this machine (scalar table when the
// requested backend is unavailable).
[[nodiscard]] const KernelTable& TableFor(KernelBackend backend);

// This thread's active table: the innermost KernelBackendScope if one
// is installed, else the process default. Kernels call this once at
// entry and capture the result into their shard lambdas.
[[nodiscard]] const KernelTable& ActiveKernels();
[[nodiscard]] KernelBackend ActiveBackend();

// Thread-local backend override for the duration of a run — the same
// shape as tensor::PoolDisableScope, installed by Session::Run (and
// mirrored into its inter-op pool helpers) when
// RunOptions::kernel_backend is set.
class KernelBackendScope {
 public:
  explicit KernelBackendScope(KernelBackend backend);
  ~KernelBackendScope();
  KernelBackendScope(const KernelBackendScope&) = delete;
  KernelBackendScope& operator=(const KernelBackendScope&) = delete;

 private:
  const KernelTable* previous_;
};

}  // namespace ag::tensor::simd
