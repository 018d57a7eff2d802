#include "tensor/simd/dispatch.h"

#include <cstdlib>

#include "support/error.h"

namespace ag::tensor::simd {
namespace {

const KernelTable& ScalarKernelTable() {
  // All-null entries: every call site falls through to the seed scalar
  // code, byte-for-byte.
  static const KernelTable table{};
  return table;
}

thread_local const KernelTable* t_override = nullptr;

}  // namespace

#ifdef AG_SIMD_AVX2
// Defined in simd_avx2.cc (compiled with -mavx2 -mfma).
const KernelTable& Avx2KernelTable();
MatMulKernel Avx2MatMulAtWidth(int bits);
#endif

const char* KernelBackendName(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kScalar:
      return "scalar";
    case KernelBackend::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool Avx2CompiledIn() {
#ifdef AG_SIMD_AVX2
  return true;
#else
  return false;
#endif
}

bool Avx2Available() {
#ifdef AG_SIMD_AVX2
  static const bool available =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return available;
#else
  return false;
#endif
}

MatMulKernel MatMulKernelForTesting(int bits) {
#ifdef AG_SIMD_AVX2
  if (Avx2Available()) return Avx2MatMulAtWidth(bits);
#else
  (void)bits;
#endif
  return nullptr;
}

std::optional<KernelBackend> ParseKernelBackend(const std::string& name) {
  if (name == "auto") return std::nullopt;
  if (name == "scalar") return KernelBackend::kScalar;
  if (name == "avx2") return KernelBackend::kAvx2;
  throw ValueError("unknown kernel backend '" + name +
                   "' (expected one of: auto, scalar, avx2)");
}

KernelBackend ResolveBackend(std::optional<KernelBackend> requested,
                             bool avx2_available) {
  if (requested == KernelBackend::kScalar) return KernelBackend::kScalar;
  // "auto" and an explicit "avx2" both degrade gracefully when the CPU
  // (or build) lacks AVX2.
  return avx2_available ? KernelBackend::kAvx2 : KernelBackend::kScalar;
}

KernelBackend ProcessDefaultBackend() {
  static const KernelBackend backend = [] {
    std::optional<KernelBackend> requested;
    if (const char* env = std::getenv("AG_KERNEL_BACKEND")) {
      try {
        requested = ParseKernelBackend(env);
      } catch (const Error&) {
        // Invalid env values are ignored (treated as "auto"), matching
        // how AG_* tuning knobs behave elsewhere.
      }
    }
    return ResolveBackend(requested, Avx2Available());
  }();
  return backend;
}

const KernelTable& TableFor(KernelBackend backend) {
#ifdef AG_SIMD_AVX2
  if (backend == KernelBackend::kAvx2 && Avx2Available()) {
    return Avx2KernelTable();
  }
#else
  (void)backend;
#endif
  return ScalarKernelTable();
}

const KernelTable& ActiveKernels() {
  if (t_override != nullptr) return *t_override;
  return TableFor(ProcessDefaultBackend());
}

KernelBackend ActiveBackend() { return ActiveKernels().backend; }

KernelBackendScope::KernelBackendScope(KernelBackend backend)
    : previous_(t_override) {
  t_override = &TableFor(backend);
}

KernelBackendScope::~KernelBackendScope() { t_override = previous_; }

}  // namespace ag::tensor::simd
