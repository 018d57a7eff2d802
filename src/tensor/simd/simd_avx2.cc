// AVX2/FMA kernel backend (DESIGN.md §4j). This is the only translation
// unit compiled with -mavx2 -mfma; dispatch.cc calls Avx2KernelTable()
// strictly behind a __builtin_cpu_supports runtime check, so the binary
// stays runnable on plain SSE2 hardware. Its AVX-512 functions (the
// 512-bit float MatMul micro-kernel and the VNNI int8 one) carry target
// attributes and run only behind their own CPU checks.
//
// Numerical contract:
//   - Transcendentals use a Cephes-style polynomial exp core. Every
//     vector lane operation has a scalar mirror built from the same
//     operation sequence (std::fmaf == vfmadd lanewise, nearbyintf ==
//     vroundps, correctly rounded +-*/ and sqrt), used for array tails —
//     so a value's result never depends on its position in the array,
//     which keeps fused and unfused evaluation bit-identical within
//     this backend. Measured bounds vs libm (tests/simd_test.cc):
//     exp <= ~4 ulp, tanh/sigmoid <= ~8 ulp over [-20, 20]. Deviations
//     from libm semantics: exp flushes to zero below -87.3365 (no
//     subnormal range), tanh(-0) = +0.
//   - MatMul accumulates each output element over k in ascending order
//     with FMA, independent of vector width, row-block and shard
//     boundaries, so parallel == sequential bit-identity holds within
//     the backend, the 512-bit kernel an AVX-512F CPU runs gives the
//     256-bit kernel's bits, and whether B is read in place or packed
//     changes no bit (a std::fmaf chain over ascending k reproduces
//     every element).
//   - The int8 qmatmul is exact integer arithmetic: bit-identical to
//     the scalar reference in quant.cc. _mm256_maddubs_epi16 is
//     deliberately avoided (it saturates u8*s8 pair sums); the packed
//     layout pairs two consecutive k rows as int16 so _mm256_madd_epi16
//     accumulates exactly.
#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "runtime/cancellation.h"
#include "runtime/parallel_for.h"
#include "tensor/allocator.h"
#include "tensor/simd/dispatch.h"

namespace ag::tensor::simd {
namespace {

// Matches kElementGrain in tensor_ops.cc (the minimum per-shard element
// count worth shipping to another thread).
constexpr int64_t kElementGrain = 16384;

// ---- exp core ----------------------------------------------------------
// exp(x) = 2^n * exp(r), n = round(x * log2(e)), r = x - n*ln2 (two-part
// ln2 for accuracy), exp(r) ~= 1 + r + r^2 * P(r). Constants are the
// classic Cephes single-precision set.
constexpr float kExpHi = 88.7228394f;    // exp overflows above
constexpr float kExpLo = -87.3365479f;   // exp flushes to zero below
constexpr float kLog2e = 1.44269504088896341f;
constexpr float kLn2Hi = 0.693359375f;
constexpr float kLn2Lo = -2.12194440e-4f;
constexpr float kExpP0 = 1.9875691500e-4f;
constexpr float kExpP1 = 1.3981999507e-3f;
constexpr float kExpP2 = 8.3334519073e-3f;
constexpr float kExpP3 = 4.1665795894e-2f;
constexpr float kExpP4 = 1.6666665459e-1f;
constexpr float kExpP5 = 5.0000001201e-1f;

// Scalar mirrors of _mm256_max_ps / _mm256_min_ps (return the second
// operand when the comparison is false, including on NaN) — std::min /
// std::max have the opposite NaN behavior.
inline float MaxMirror(float a, float b) { return a > b ? a : b; }
inline float MinMirror(float a, float b) { return a < b ? a : b; }

// 2^e for e in [-63, 64], by exponent-bit construction. The caller
// splits n into two such halves so n = 128 (x just below kExpHi) scales
// without an intermediate infinity.
inline float Pow2Scalar(int e) {
  return std::bit_cast<float>(static_cast<uint32_t>(e + 127) << 23);
}

inline float ExpCoreScalar(float x0) {
  if (x0 != x0) return x0;  // NaN in, same NaN out (matches vector blend)
  const float x = MinMirror(MaxMirror(x0, kExpLo), kExpHi);
  const float n = std::nearbyintf(x * kLog2e);
  float r = std::fmaf(n, -kLn2Hi, x);
  r = std::fmaf(n, -kLn2Lo, r);
  const float r2 = r * r;
  float p = kExpP0;
  p = std::fmaf(p, r, kExpP1);
  p = std::fmaf(p, r, kExpP2);
  p = std::fmaf(p, r, kExpP3);
  p = std::fmaf(p, r, kExpP4);
  p = std::fmaf(p, r, kExpP5);
  float y = std::fmaf(p, r2, r);
  y += 1.0f;
  const int ni = static_cast<int>(n);
  const int n1 = ni >> 1;  // arithmetic shift: floor halves, n1+n2 == ni
  const int n2 = ni - n1;
  y = (y * Pow2Scalar(n1)) * Pow2Scalar(n2);
  if (x0 > kExpHi) return std::numeric_limits<float>::infinity();
  if (x0 < kExpLo) return 0.0f;
  return y;
}

inline __m256 ExpCore8(__m256 x0) {
  const __m256 x =
      _mm256_min_ps(_mm256_max_ps(x0, _mm256_set1_ps(kExpLo)),
                    _mm256_set1_ps(kExpHi));
  const __m256 n = _mm256_round_ps(
      _mm256_mul_ps(x, _mm256_set1_ps(kLog2e)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256 r = _mm256_fmadd_ps(n, _mm256_set1_ps(-kLn2Hi), x);
  r = _mm256_fmadd_ps(n, _mm256_set1_ps(-kLn2Lo), r);
  const __m256 r2 = _mm256_mul_ps(r, r);
  __m256 p = _mm256_set1_ps(kExpP0);
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpP1));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpP2));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpP3));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpP4));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpP5));
  __m256 y = _mm256_fmadd_ps(p, r2, r);
  y = _mm256_add_ps(y, _mm256_set1_ps(1.0f));
  const __m256i ni = _mm256_cvtps_epi32(n);
  const __m256i n1 = _mm256_srai_epi32(ni, 1);
  const __m256i n2 = _mm256_sub_epi32(ni, n1);
  const __m256i bias = _mm256_set1_epi32(127);
  const __m256 s1 = _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_add_epi32(n1, bias), 23));
  const __m256 s2 = _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_add_epi32(n2, bias), 23));
  y = _mm256_mul_ps(_mm256_mul_ps(y, s1), s2);
  // Fix-ups on the *original* input: overflow to +inf, flush to zero,
  // propagate NaN payloads.
  const __m256 inf = _mm256_set1_ps(std::numeric_limits<float>::infinity());
  y = _mm256_blendv_ps(
      y, inf, _mm256_cmp_ps(x0, _mm256_set1_ps(kExpHi), _CMP_GT_OQ));
  y = _mm256_blendv_ps(
      y, _mm256_setzero_ps(),
      _mm256_cmp_ps(x0, _mm256_set1_ps(kExpLo), _CMP_LT_OQ));
  y = _mm256_blendv_ps(y, x0, _mm256_cmp_ps(x0, x0, _CMP_UNORD_Q));
  return y;
}

// ---- tanh / sigmoid ----------------------------------------------------
// Cephes two-branch tanh: a polynomial for |x| < 0.625 (avoids the
// catastrophic cancellation of the exp form near zero) and
// sign(x) * (1 - 2/(exp(2|x|) + 1)) elsewhere. Both branches are
// computed and blended, identically in vector and scalar form.
constexpr float kTanhC0 = -5.70498872745e-3f;
constexpr float kTanhC1 = 2.06390887954e-2f;
constexpr float kTanhC2 = -5.37397155531e-2f;
constexpr float kTanhC3 = 1.33314422036e-1f;
constexpr float kTanhC4 = -3.33332819422e-1f;
constexpr float kTanhSwitch = 0.625f;

inline float TanhCoreScalar(float x) {
  const float z = std::fabs(x);
  // Small branch.
  const float z2 = x * x;
  float p = kTanhC0;
  p = std::fmaf(p, z2, kTanhC1);
  p = std::fmaf(p, z2, kTanhC2);
  p = std::fmaf(p, z2, kTanhC3);
  p = std::fmaf(p, z2, kTanhC4);
  p = p * z2;
  const float small = std::fmaf(p, x, x);
  // Large branch (exp core handles 2z up to +inf via its fix-ups).
  const float e = ExpCoreScalar(z + z);
  const float t = 1.0f - 2.0f / (e + 1.0f);
  const float large = std::bit_cast<float>(
      std::bit_cast<uint32_t>(t) |
      (std::bit_cast<uint32_t>(x) & 0x80000000u));
  return z < kTanhSwitch ? small : large;
}

inline __m256 TanhCore8(__m256 x) {
  const __m256 sign_bit = _mm256_set1_ps(-0.0f);
  const __m256 z = _mm256_andnot_ps(sign_bit, x);
  const __m256 z2 = _mm256_mul_ps(x, x);
  __m256 p = _mm256_set1_ps(kTanhC0);
  p = _mm256_fmadd_ps(p, z2, _mm256_set1_ps(kTanhC1));
  p = _mm256_fmadd_ps(p, z2, _mm256_set1_ps(kTanhC2));
  p = _mm256_fmadd_ps(p, z2, _mm256_set1_ps(kTanhC3));
  p = _mm256_fmadd_ps(p, z2, _mm256_set1_ps(kTanhC4));
  p = _mm256_mul_ps(p, z2);
  const __m256 small = _mm256_fmadd_ps(p, x, x);
  const __m256 e = ExpCore8(_mm256_add_ps(z, z));
  const __m256 t = _mm256_sub_ps(
      _mm256_set1_ps(1.0f),
      _mm256_div_ps(_mm256_set1_ps(2.0f),
                    _mm256_add_ps(e, _mm256_set1_ps(1.0f))));
  const __m256 large = _mm256_or_ps(t, _mm256_and_ps(x, sign_bit));
  return _mm256_blendv_ps(
      large, small,
      _mm256_cmp_ps(z, _mm256_set1_ps(kTanhSwitch), _CMP_LT_OQ));
}

inline float SigmoidCoreScalar(float x) {
  return 1.0f / (1.0f + ExpCoreScalar(-x));
}

inline __m256 SigmoidCore8(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 e = ExpCore8(_mm256_sub_ps(_mm256_setzero_ps(), x));
  return _mm256_div_ps(one, _mm256_add_ps(one, e));
}

// NaN note for tanh/sigmoid: |NaN| fails the small-branch compare, the
// exp core propagates the payload, and 1 - 2/(NaN+1) stays NaN — scalar
// mirror included. -0.0f negation in SigmoidCoreScalar: 0.0f - x would
// differ from the vector sub at x=+0 (+0 vs -0 feeding exp), but
// exp(+0) == exp(-0) == 1, so `-x` is safe.

// ---- array entry points ------------------------------------------------

void VExp(const float* src, float* dst, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, ExpCore8(_mm256_loadu_ps(src + i)));
  }
  for (; i < n; ++i) dst[i] = ExpCoreScalar(src[i]);
}

void VTanh(const float* src, float* dst, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, TanhCore8(_mm256_loadu_ps(src + i)));
  }
  for (; i < n; ++i) dst[i] = TanhCoreScalar(src[i]);
}

void VSigmoid(const float* src, float* dst, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, SigmoidCore8(_mm256_loadu_ps(src + i)));
  }
  for (; i < n; ++i) dst[i] = SigmoidCoreScalar(src[i]);
}

// ---- float MatMul ------------------------------------------------------
// One driver (MatMulDriver) for two vector widths. It shards rows, walks
// each shard in row blocks against column tiles of B, packs B when the
// width's rule says so, and polls cancellation once per row block. A
// width supplies its tile and block sizes, its B-pack rule and its
// micro-kernel, which computes one row block x column tile with full-k
// accumulation in registers:
//   - Ymm (256-bit): 6-row blocks x 16-column tiles, 12 ymm
//     accumulators (6 broadcasts + 2 B loads + 12 FMAs per k step);
//   - Zmm (512-bit, AVX-512F CPUs only): 8-row blocks x 32-column tiles,
//     16 zmm accumulators (8 broadcasts + 2 B loads + 16 FMAs).
// The micro-kernel reads B with row stride ldb: in place, a full tile
// row is the kColTile floats at b + kk*n + j0; the last partial tile
// (n % kColTile != 0) loads and stores through lane masks, so masked
// lanes read as 0.0f and never touch memory past B or C. Each C[i][j] is
// an ascending-k FMA chain from +0 regardless of width, tile, block,
// shard or packing, which is the determinism contract: both widths give
// the same bits. Row blocks shorter than kRowBlock run the same chain
// through templated block sizes.

template <int Rows, bool kMasked>
inline void MicroKernel(const float* a, int64_t lda, const float* b,
                        int64_t ldb, int64_t k, float* c, int64_t ldc,
                        int64_t cols) {
  __m256i mask0 = _mm256_setzero_si256();
  __m256i mask1 = _mm256_setzero_si256();
  if constexpr (kMasked) {
    const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    const __m256i width = _mm256_set1_epi32(static_cast<int>(cols));
    mask0 = _mm256_cmpgt_epi32(width, lane);
    mask1 = _mm256_cmpgt_epi32(
        width, _mm256_add_epi32(lane, _mm256_set1_epi32(8)));
  }
  __m256 acc0[Rows], acc1[Rows];
  for (int r = 0; r < Rows; ++r) {
    acc0[r] = _mm256_setzero_ps();
    acc1[r] = _mm256_setzero_ps();
  }
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* brow = b + kk * ldb;
    __m256 b0, b1;
    if constexpr (kMasked) {
      b0 = _mm256_maskload_ps(brow, mask0);
      b1 = _mm256_maskload_ps(brow + 8, mask1);
    } else {
      b0 = _mm256_loadu_ps(brow);
      b1 = _mm256_loadu_ps(brow + 8);
    }
    for (int r = 0; r < Rows; ++r) {
      const __m256 av = _mm256_set1_ps(a[r * lda + kk]);
      acc0[r] = _mm256_fmadd_ps(av, b0, acc0[r]);
      acc1[r] = _mm256_fmadd_ps(av, b1, acc1[r]);
    }
  }
  for (int r = 0; r < Rows; ++r) {
    if constexpr (kMasked) {
      _mm256_maskstore_ps(c + r * ldc, mask0, acc0[r]);
      _mm256_maskstore_ps(c + r * ldc + 8, mask1, acc1[r]);
    } else {
      _mm256_storeu_ps(c + r * ldc, acc0[r]);
      _mm256_storeu_ps(c + r * ldc + 8, acc1[r]);
    }
  }
}

template <bool kMasked>
inline void RunMicroKernel(int rows, const float* a, int64_t lda,
                           const float* b, int64_t ldb, int64_t k, float* c,
                           int64_t ldc, int64_t cols) {
  switch (rows) {
    case 1: MicroKernel<1, kMasked>(a, lda, b, ldb, k, c, ldc, cols); break;
    case 2: MicroKernel<2, kMasked>(a, lda, b, ldb, k, c, ldc, cols); break;
    case 3: MicroKernel<3, kMasked>(a, lda, b, ldb, k, c, ldc, cols); break;
    case 4: MicroKernel<4, kMasked>(a, lda, b, ldb, k, c, ldc, cols); break;
    case 5: MicroKernel<5, kMasked>(a, lda, b, ldb, k, c, ldc, cols); break;
    default: MicroKernel<6, kMasked>(a, lda, b, ldb, k, c, ldc, cols); break;
  }
}

struct Ymm {
  static constexpr int64_t kColTile = 16;
  static constexpr int64_t kRowBlock = 6;
  // B is copied into contiguous [k][16] tile panels (then read with
  // ldb = 16) only when more than one row block reads it and the row
  // blocks together read at least 2Mi floats (8 MiB) of it. Measured on
  // one core (EXPERIMENTS.md), the copy lost up to 2.3x below that and
  // won up to 2x well above it, where strided rows of a large B keep
  // missing cache.
  static bool PackB(int64_t row_blocks, int64_t k, int64_t n) {
    return row_blocks > 1 && row_blocks * k * n >= int64_t{2} << 20;
  }

  template <bool kMasked>
  static void Tile(int rows, const float* a, int64_t lda, const float* b,
                   int64_t ldb, int64_t k, float* c, int64_t ldc,
                   int64_t cols) {
    RunMicroKernel<kMasked>(rows, a, lda, b, ldb, k, c, ldc, cols);
  }
};

// AVX-512 code lives only in functions carrying the target attribute
// below, all inside this anonymous namespace: the shared driver is
// compiled for AVX2 alone, GCC never inlines an AVX-512 function into
// it, and no inline function with external linkage is built with
// AVX-512 enabled, so the linker cannot fold one into code an AVX2-only
// CPU reaches. The Zmm table entry is installed only behind
// Avx512FAvailable(). Clang builds keep the 256-bit kernel (the same
// GCC-only guard as the VNNI path).
#if defined(__GNUC__) && !defined(__clang__)
#define AG_HAVE_AVX512 1
#define AG_TARGET_AVX512F __attribute__((target("avx512f")))

bool Avx512FAvailable() {
  static const bool available = __builtin_cpu_supports("avx512f");
  return available;
}

template <int Rows, bool kMasked>
AG_TARGET_AVX512F inline void MicroKernel512(const float* a, int64_t lda,
                                             const float* b, int64_t ldb,
                                             int64_t k, float* c,
                                             int64_t ldc, int64_t cols) {
  __mmask16 mask0 = 0xFFFF;
  __mmask16 mask1 = 0xFFFF;
  if constexpr (kMasked) {
    const int64_t cols1 = cols > 16 ? cols - 16 : 0;
    mask0 = static_cast<__mmask16>(cols >= 16 ? 0xFFFFu : (1u << cols) - 1u);
    mask1 = static_cast<__mmask16>((1u << cols1) - 1u);
  }
  __m512 acc0[Rows], acc1[Rows];
  for (int r = 0; r < Rows; ++r) {
    acc0[r] = _mm512_setzero_ps();
    acc1[r] = _mm512_setzero_ps();
  }
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* brow = b + kk * ldb;
    __m512 b0, b1;
    if constexpr (kMasked) {
      b0 = _mm512_maskz_loadu_ps(mask0, brow);
      b1 = _mm512_maskz_loadu_ps(mask1, brow + 16);
    } else {
      b0 = _mm512_loadu_ps(brow);
      b1 = _mm512_loadu_ps(brow + 16);
    }
    for (int r = 0; r < Rows; ++r) {
      const __m512 av = _mm512_set1_ps(a[r * lda + kk]);
      acc0[r] = _mm512_fmadd_ps(av, b0, acc0[r]);
      acc1[r] = _mm512_fmadd_ps(av, b1, acc1[r]);
    }
  }
  for (int r = 0; r < Rows; ++r) {
    if constexpr (kMasked) {
      _mm512_mask_storeu_ps(c + r * ldc, mask0, acc0[r]);
      _mm512_mask_storeu_ps(c + r * ldc + 16, mask1, acc1[r]);
    } else {
      _mm512_storeu_ps(c + r * ldc, acc0[r]);
      _mm512_storeu_ps(c + r * ldc + 16, acc1[r]);
    }
  }
}

template <bool kMasked>
AG_TARGET_AVX512F void RunMicroKernel512(int rows, const float* a,
                                         int64_t lda, const float* b,
                                         int64_t ldb, int64_t k, float* c,
                                         int64_t ldc, int64_t cols) {
  switch (rows) {
    case 1: MicroKernel512<1, kMasked>(a, lda, b, ldb, k, c, ldc, cols); break;
    case 2: MicroKernel512<2, kMasked>(a, lda, b, ldb, k, c, ldc, cols); break;
    case 3: MicroKernel512<3, kMasked>(a, lda, b, ldb, k, c, ldc, cols); break;
    case 4: MicroKernel512<4, kMasked>(a, lda, b, ldb, k, c, ldc, cols); break;
    case 5: MicroKernel512<5, kMasked>(a, lda, b, ldb, k, c, ldc, cols); break;
    case 6: MicroKernel512<6, kMasked>(a, lda, b, ldb, k, c, ldc, cols); break;
    case 7: MicroKernel512<7, kMasked>(a, lda, b, ldb, k, c, ldc, cols); break;
    default: MicroKernel512<8, kMasked>(a, lda, b, ldb, k, c, ldc, cols); break;
  }
}

struct Zmm {
  static constexpr int64_t kColTile = 32;
  static constexpr int64_t kRowBlock = 8;
  // B is copied into [k][32] panels only when at least five 8-row blocks
  // read it (m > 32) and it holds at least 320Ki floats (1.25 MiB). A
  // paired sweep of 81 shapes on one core (EXPERIMENTS.md) re-derived the
  // rule for this kernel, which spends less time per row of B than the
  // 256-bit one, so the copy pays only later: packing won on all 25
  // shapes the rule packs, by up to 1.7x, and lost on 43 of the 56 it
  // leaves in place. The 256-bit rule would pack 9x1024^2, where the
  // copy costs 1.31x the in-place time.
  static bool PackB(int64_t row_blocks, int64_t k, int64_t n) {
    return row_blocks >= 5 && k * n >= int64_t{320} << 10;
  }

  template <bool kMasked>
  static void Tile(int rows, const float* a, int64_t lda, const float* b,
                   int64_t ldb, int64_t k, float* c, int64_t ldc,
                   int64_t cols) {
    RunMicroKernel512<kMasked>(rows, a, lda, b, ldb, k, c, ldc, cols);
  }
};
#endif  // AG_HAVE_AVX512

template <typename W>
void MatMulDriver(const float* a, const float* b, float* c, int64_t m,
                  int64_t k, int64_t n) {
  constexpr int64_t kColTile = W::kColTile;
  const int64_t tiles = (n + kColTile - 1) / kColTile;
  // The pack buffer comes from the buffer pool, so a staged loop that
  // packs reuses the same block run over run. A partial tile's lanes
  // past `cols` are left unwritten: the masked loads never read them.
  PooledBuffer pack_buf;
  const int64_t row_blocks = (m + W::kRowBlock - 1) / W::kRowBlock;
  if (W::PackB(row_blocks, k, n)) {
    pack_buf = BufferPool::Global().Acquire(tiles * k * kColTile);
    float* pack = pack_buf.mutable_data();
    for (int64_t t = 0; t < tiles; ++t) {
      const int64_t j0 = t * kColTile;
      const int64_t cols = std::min<int64_t>(kColTile, n - j0);
      float* dst = pack + t * k * kColTile;
      for (int64_t kk = 0; kk < k; ++kk) {
        std::memcpy(dst + kk * kColTile, b + kk * n + j0,
                    sizeof(float) * static_cast<size_t>(cols));
      }
    }
  }
  const float* pack = pack_buf ? pack_buf.data() : nullptr;
  const int64_t ldb = pack != nullptr ? kColTile : n;
  // Captured on the calling thread; pool helpers have no scope installed
  // (same pattern as the scalar MatMul).
  runtime::CancelCheck* cancel = runtime::CurrentCancelCheck();
  const int64_t rows_grain =
      std::max<int64_t>(1, kElementGrain / std::max<int64_t>(1, k * n));
  runtime::ParallelFor(m, rows_grain, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; i += W::kRowBlock) {
      if (cancel != nullptr) cancel->Poll("MatMul avx2 block");
      const int rows = static_cast<int>(
          std::min<int64_t>(W::kRowBlock, i1 - i));
      for (int64_t t = 0; t < tiles; ++t) {
        const int64_t j0 = t * kColTile;
        const int64_t cols = std::min<int64_t>(kColTile, n - j0);
        const float* bt = pack != nullptr ? pack + t * k * kColTile : b + j0;
        // Full tiles take plain loads: GCC keeps the accumulators in
        // registers only when no masked-load builtin is in the k loop.
        if (cols == kColTile) {
          W::template Tile<false>(rows, a + i * k, k, bt, ldb, k,
                                  c + i * n + j0, n, cols);
        } else {
          W::template Tile<true>(rows, a + i * k, k, bt, ldb, k,
                                 c + i * n + j0, n, cols);
        }
      }
    }
  });
}

// ---- fused-program steps -----------------------------------------------
// Only ops whose AVX2 semantics match the scalar functor bit-for-bit are
// handled here (correctly rounded +-*/sqrt, sign-bit ops, max(x,0) which
// equals `x > 0 ? x : 0` including NaN -> +0 and -0 -> +0, and the
// shared transcendental cores above). Everything else — Maximum/Minimum
// (std::max/min NaN and ±0 rules differ from vmaxps/vminps),
// comparisons, Pow/Mod/FloorDiv, Log/Sin/Cos, Cast — returns false
// and runs the scalar case, preserving fused == unfused bit-identity.

#define AG_SIMD_BIN_LOOP(vexpr, sexpr)                        \
  {                                                           \
    int64_t j = 0;                                            \
    for (; j + 8 <= m; j += 8) {                              \
      const __m256 x = _mm256_loadu_ps(a + j);                \
      const __m256 y = _mm256_loadu_ps(b + j);                \
      _mm256_storeu_ps(dst + j, (vexpr));                     \
    }                                                         \
    for (; j < m; ++j) {                                      \
      const float x = a[j];                                   \
      const float y = b[j];                                   \
      dst[j] = (sexpr);                                       \
    }                                                         \
  }                                                           \
  return true

#define AG_SIMD_UN_LOOP(vexpr, sexpr)                         \
  {                                                           \
    int64_t j = 0;                                            \
    for (; j + 8 <= m; j += 8) {                              \
      const __m256 x = _mm256_loadu_ps(a + j);                \
      _mm256_storeu_ps(dst + j, (vexpr));                     \
    }                                                         \
    for (; j < m; ++j) {                                      \
      const float x = a[j];                                   \
      dst[j] = (sexpr);                                       \
    }                                                         \
  }                                                           \
  return true

bool FusedStepAvx2(const FusedStep& s, const float* a, const float* b,
                   float* dst, int64_t m) {
  const __m256 sign_bit = _mm256_set1_ps(-0.0f);
  switch (s.op) {
    case FusedOp::kAdd:
      AG_SIMD_BIN_LOOP(_mm256_add_ps(x, y), x + y);
    case FusedOp::kSub:
      AG_SIMD_BIN_LOOP(_mm256_sub_ps(x, y), x - y);
    case FusedOp::kMul:
      AG_SIMD_BIN_LOOP(_mm256_mul_ps(x, y), x * y);
    case FusedOp::kDiv:
      AG_SIMD_BIN_LOOP(_mm256_div_ps(x, y), x / y);
    case FusedOp::kNeg:
      AG_SIMD_UN_LOOP(_mm256_xor_ps(x, sign_bit), -x);
    case FusedOp::kAbs:
      AG_SIMD_UN_LOOP(_mm256_andnot_ps(sign_bit, x), std::fabs(x));
    case FusedOp::kSquare:
      AG_SIMD_UN_LOOP(_mm256_mul_ps(x, x), x * x);
    case FusedOp::kRelu:
      AG_SIMD_UN_LOOP(_mm256_max_ps(x, _mm256_setzero_ps()),
                      x > 0.0f ? x : 0.0f);
    case FusedOp::kSqrt:
      AG_SIMD_UN_LOOP(_mm256_sqrt_ps(x), std::sqrt(x));
    case FusedOp::kExp:
      VExp(a, dst, m);
      return true;
    case FusedOp::kTanh:
      VTanh(a, dst, m);
      return true;
    case FusedOp::kSigmoid:
      VSigmoid(a, dst, m);
      return true;
    default:
      return false;
  }
}

#undef AG_SIMD_BIN_LOOP
#undef AG_SIMD_UN_LOOP

// ---- int8 MatMul -------------------------------------------------------
// qa [m,k] x qw [k,n] -> int32 acc [m,n], exact. Weights are packed
// per-16-column tile with two consecutive k rows interleaved as int16
// pairs, so one _mm256_madd_epi16 accumulates both rows' contribution
// for 8 columns without saturation (|q| <= 128 keeps every pair sum
// well inside int32). Odd k is zero-padded on both sides.

constexpr int64_t kQColTile = 16;

template <int Rows>
inline void QMicroKernel(const int32_t* apack, int64_t lda2,
                         const int16_t* wpack, int64_t k2, int32_t* acc,
                         int64_t ldc, int64_t cols) {
  __m256i acc0[Rows], acc1[Rows];
  for (int r = 0; r < Rows; ++r) {
    acc0[r] = _mm256_setzero_si256();
    acc1[r] = _mm256_setzero_si256();
  }
  for (int64_t kk2 = 0; kk2 < k2; ++kk2) {
    const __m256i w0 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(wpack + kk2 * kQColTile * 2));
    const __m256i w1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(wpack + kk2 * kQColTile * 2 + 16));
    for (int r = 0; r < Rows; ++r) {
      // One vpbroadcastd from the pre-packed pair — the activation side
      // costs a single load µop per row per k-pair.
      const __m256i av = _mm256_set1_epi32(apack[r * lda2 + kk2]);
      acc0[r] = _mm256_add_epi32(acc0[r], _mm256_madd_epi16(av, w0));
      acc1[r] = _mm256_add_epi32(acc1[r], _mm256_madd_epi16(av, w1));
    }
  }
  if (cols == kQColTile) {
    for (int r = 0; r < Rows; ++r) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + r * ldc),
                          acc0[r]);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + r * ldc + 8),
                          acc1[r]);
    }
  } else {
    alignas(32) int32_t tmp[kQColTile];
    for (int r = 0; r < Rows; ++r) {
      _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), acc0[r]);
      _mm256_store_si256(reinterpret_cast<__m256i*>(tmp + 8), acc1[r]);
      std::memcpy(acc + r * ldc, tmp, sizeof(int32_t) * cols);
    }
  }
}

inline void RunQMicroKernel(int rows, const int32_t* apack, int64_t lda2,
                            const int16_t* wpack, int64_t k2, int32_t* acc,
                            int64_t ldc, int64_t cols) {
  switch (rows) {
    case 1: QMicroKernel<1>(apack, lda2, wpack, k2, acc, ldc, cols); break;
    case 2: QMicroKernel<2>(apack, lda2, wpack, k2, acc, ldc, cols); break;
    case 3: QMicroKernel<3>(apack, lda2, wpack, k2, acc, ldc, cols); break;
    default: QMicroKernel<4>(apack, lda2, wpack, k2, acc, ldc, cols); break;
  }
}

// AVX512-VNNI variant: vpdpbusd computes a 4-way int8 dot product per
// int32 lane (64 MACs per 512-bit instruction vs 16 for the madd+add
// pair above). The u8 x s8 operand asymmetry is absorbed exactly:
// activations are biased by +128 into [1, 255] (qa is clamped to -127,
// so the bias cannot wrap) and the accumulators are *initialized* to
// -128 * colsum(w) per column tile, which cancels the bias with zero
// inner-loop cost. Each 4-product group fits int16 intermediates
// (255 * 128 * 4 < 2^31, products in [-32640, 32385]) and vpdpbusd —
// unlike vpmaddubsw and the saturating vpdpbusds — accumulates the
// group exactly, so this path stays bit-identical to the madd path and
// the scalar reference. It is picked purely by __builtin_cpu_supports
// at kernel entry and does not change the backend name ("avx2" means
// "the best integer kernel this machine runs", mirroring how BLAS
// backends sub-dispatch).
#if defined(AG_HAVE_AVX512)
#define AG_TARGET_VNNI \
  __attribute__((target("avx512f,avx512bw,avx512vl,avx512vnni")))

template <int Rows>
AG_TARGET_VNNI inline void QMicroKernelVnni(const int32_t* apack,
                                            int64_t lda4,
                                            const int8_t* wpack, int64_t k4,
                                            const int32_t* init, int32_t* acc,
                                            int64_t ldc, int64_t cols) {
  __m512i accv[Rows];
  const __m512i iv = _mm512_loadu_si512(init);
  for (int r = 0; r < Rows; ++r) accv[r] = iv;
  for (int64_t kk4 = 0; kk4 < k4; ++kk4) {
    const __m512i w = _mm512_loadu_si512(wpack + kk4 * kQColTile * 4);
    for (int r = 0; r < Rows; ++r) {
      const __m512i av = _mm512_set1_epi32(apack[r * lda4 + kk4]);
      accv[r] = _mm512_dpbusd_epi32(accv[r], av, w);
    }
  }
  if (cols == kQColTile) {
    for (int r = 0; r < Rows; ++r) {
      _mm512_storeu_si512(acc + r * ldc, accv[r]);
    }
  } else {
    const __mmask16 mask =
        static_cast<__mmask16>((1u << cols) - 1u);
    for (int r = 0; r < Rows; ++r) {
      _mm512_mask_storeu_epi32(acc + r * ldc, mask, accv[r]);
    }
  }
}

AG_TARGET_VNNI inline void RunQMicroKernelVnni(int rows, const int32_t* apack,
                                               int64_t lda4,
                                               const int8_t* wpack,
                                               int64_t k4, const int32_t* init,
                                               int32_t* acc, int64_t ldc,
                                               int64_t cols) {
  switch (rows) {
    case 1:
      QMicroKernelVnni<1>(apack, lda4, wpack, k4, init, acc, ldc, cols);
      break;
    case 2:
      QMicroKernelVnni<2>(apack, lda4, wpack, k4, init, acc, ldc, cols);
      break;
    case 3:
      QMicroKernelVnni<3>(apack, lda4, wpack, k4, init, acc, ldc, cols);
      break;
    case 4:
      QMicroKernelVnni<4>(apack, lda4, wpack, k4, init, acc, ldc, cols);
      break;
    case 5:
      QMicroKernelVnni<5>(apack, lda4, wpack, k4, init, acc, ldc, cols);
      break;
    case 6:
      QMicroKernelVnni<6>(apack, lda4, wpack, k4, init, acc, ldc, cols);
      break;
    case 7:
      QMicroKernelVnni<7>(apack, lda4, wpack, k4, init, acc, ldc, cols);
      break;
    default:
      QMicroKernelVnni<8>(apack, lda4, wpack, k4, init, acc, ldc, cols);
      break;
  }
}

bool Vnni512Available() {
  static const bool available = __builtin_cpu_supports("avx512f") &&
                                __builtin_cpu_supports("avx512bw") &&
                                __builtin_cpu_supports("avx512vl") &&
                                __builtin_cpu_supports("avx512vnni");
  return available;
}

// One 512-bit accumulator per row, so a deeper row block amortizes the
// weight-tile load over more dot-steps.
constexpr int64_t kQRowBlockVnni = 8;

// vpdpbusd needs its own packed layouts: weight quads (4 consecutive k
// values per int32 lane, 16 columns per 64-byte row) plus the biased
// activation quads, and the -128 * colsum(w) accumulator seeds.
void QMatMulVnni(const int8_t* qa, const int8_t* qw, int32_t* acc,
                 int64_t m, int64_t k, int64_t n, int64_t tiles,
                 int64_t rows_grain) {
  const int64_t k4 = (k + 3) / 4;
  std::vector<int8_t> wpack(tiles * k4 * kQColTile * 4);
  std::vector<int32_t> init(tiles * kQColTile, 0);
  for (int64_t t = 0; t < tiles; ++t) {
    const int64_t j0 = t * kQColTile;
    const int64_t cols = std::min<int64_t>(kQColTile, n - j0);
    int8_t* dst = wpack.data() + t * k4 * kQColTile * 4;
    int32_t* seed = init.data() + t * kQColTile;
    for (int64_t kk4 = 0; kk4 < k4; ++kk4) {
      int8_t* drow = dst + kk4 * kQColTile * 4;
      for (int64_t jc = 0; jc < kQColTile; ++jc) {
        for (int64_t b = 0; b < 4; ++b) {
          const int64_t kk = kk4 * 4 + b;
          const int8_t w =
              (kk < k && jc < cols) ? qw[kk * n + j0 + jc] : int8_t{0};
          drow[jc * 4 + b] = w;
          seed[jc] -= 128 * static_cast<int32_t>(w);
        }
      }
    }
  }
  // Biased activation quads: byte b of apack[i][kk4] is qa + 128 as u8
  // (pad bytes 0 — they meet zero weight pads, contributing nothing).
  std::vector<int32_t> apack(m * k4, 0);
  for (int64_t i = 0; i < m; ++i) {
    const int8_t* row = qa + i * k;
    auto* dst = reinterpret_cast<uint8_t*>(apack.data() + i * k4);
    for (int64_t kk = 0; kk < k; ++kk) {
      dst[kk] = static_cast<uint8_t>(static_cast<int32_t>(row[kk]) + 128);
    }
  }
  runtime::CancelCheck* cancel = runtime::CurrentCancelCheck();
  runtime::ParallelFor(m, rows_grain, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; i += kQRowBlockVnni) {
      if (cancel != nullptr) cancel->Poll("QuantizedMatMul avx2 block");
      const int rows = static_cast<int>(
          std::min<int64_t>(kQRowBlockVnni, i1 - i));
      for (int64_t t = 0; t < tiles; ++t) {
        const int64_t j0 = t * kQColTile;
        const int64_t cols = std::min<int64_t>(kQColTile, n - j0);
        RunQMicroKernelVnni(rows, apack.data() + i * k4, k4,
                            wpack.data() + t * k4 * kQColTile * 4, k4,
                            init.data() + t * kQColTile,
                            acc + i * n + j0, n, cols);
      }
    }
  });
}
#endif  // AG_HAVE_AVX512

constexpr int64_t kQRowBlock = 4;

void QMatMulAvx2(const int8_t* qa, const int8_t* qw, int32_t* acc,
                 int64_t m, int64_t k, int64_t n) {
  const int64_t tiles = (n + kQColTile - 1) / kQColTile;
  const int64_t rows_grain_v =
      std::max<int64_t>(1, kElementGrain / std::max<int64_t>(1, k * n));
#if defined(AG_HAVE_AVX512)
  if (Vnni512Available()) {
    QMatMulVnni(qa, qw, acc, m, k, n, tiles, rows_grain_v);
    return;
  }
#endif
  const int64_t k2 = (k + 1) / 2;
  std::vector<int16_t> pack(tiles * k2 * kQColTile * 2);
  for (int64_t t = 0; t < tiles; ++t) {
    const int64_t j0 = t * kQColTile;
    const int64_t cols = std::min<int64_t>(kQColTile, n - j0);
    int16_t* dst = pack.data() + t * k2 * kQColTile * 2;
    for (int64_t kk2 = 0; kk2 < k2; ++kk2) {
      const int64_t kk = kk2 * 2;
      const int8_t* w0 = qw + kk * n + j0;
      const int8_t* w1 = kk + 1 < k ? qw + (kk + 1) * n + j0 : nullptr;
      int16_t* drow = dst + kk2 * kQColTile * 2;
      for (int64_t jc = 0; jc < kQColTile; ++jc) {
        drow[jc * 2] = jc < cols ? static_cast<int16_t>(w0[jc]) : 0;
        drow[jc * 2 + 1] =
            (w1 != nullptr && jc < cols) ? static_cast<int16_t>(w1[jc]) : 0;
      }
    }
  }
  // Activations pre-packed the same way: consecutive k pairs fused into
  // one int32 (lo half = even k, hi half = odd k), so the micro-kernel
  // broadcast is a plain vpbroadcastd instead of a scalar
  // load/shift/or rebuilt per column tile.
  std::vector<int32_t> apack(m * k2);
  for (int64_t i = 0; i < m; ++i) {
    const int8_t* row = qa + i * k;
    int32_t* dst = apack.data() + i * k2;
    for (int64_t kk2 = 0; kk2 < k2; ++kk2) {
      const int64_t kk = kk2 * 2;
      const int32_t a0 = row[kk];
      const int32_t a1 = kk + 1 < k ? row[kk + 1] : 0;
      dst[kk2] = (a1 << 16) | (a0 & 0xFFFF);
    }
  }
  runtime::CancelCheck* cancel = runtime::CurrentCancelCheck();
  const int64_t rows_grain = rows_grain_v;
  runtime::ParallelFor(m, rows_grain, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; i += kQRowBlock) {
      if (cancel != nullptr) cancel->Poll("QuantizedMatMul avx2 block");
      const int rows = static_cast<int>(
          std::min<int64_t>(kQRowBlock, i1 - i));
      for (int64_t t = 0; t < tiles; ++t) {
        const int64_t j0 = t * kQColTile;
        const int64_t cols = std::min<int64_t>(kQColTile, n - j0);
        RunQMicroKernel(rows, apack.data() + i * k2, k2,
                        pack.data() + t * k2 * kQColTile * 2, k2,
                        acc + i * n + j0, n, cols);
      }
    }
  });
}

// ---- TopK row-scan filter -----------------------------------------------
// _CMP_NLE_UQ is "not <=", true for greater and for NaN, the same
// predicate as the scalar skip loop in TopK.
int64_t TopKSkip(const float* x, int64_t n, float kth) {
  const __m256 t = _mm256_set1_ps(kth);
  int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    const unsigned lo = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_cmp_ps(_mm256_loadu_ps(x + j), t, _CMP_NLE_UQ)));
    const unsigned hi = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_cmp_ps(_mm256_loadu_ps(x + j + 8), t, _CMP_NLE_UQ)));
    const unsigned mask = lo | (hi << 8);
    if (mask != 0) return j + std::countr_zero(mask);
  }
  for (; j < n; ++j) {
    if (!(x[j] <= kth)) return j;
  }
  return n;
}

}  // namespace

const KernelTable& Avx2KernelTable() {
  static const KernelTable table = [] {
    KernelTable t;
    t.backend = KernelBackend::kAvx2;
    t.matmul = &MatMulDriver<Ymm>;
#if defined(AG_HAVE_AVX512)
    // Same numerics, twice the lanes: the backend keeps its name.
    if (Avx512FAvailable()) t.matmul = &MatMulDriver<Zmm>;
#endif
    t.vexp = &VExp;
    t.vtanh = &VTanh;
    t.vsigmoid = &VSigmoid;
    t.fused_step = &FusedStepAvx2;
    t.qmatmul = &QMatMulAvx2;
    t.topk_skip = &TopKSkip;
    return t;
  }();
  return table;
}

MatMulKernel Avx2MatMulAtWidth(int bits) {
  if (bits == 256) return &MatMulDriver<Ymm>;
#if defined(AG_HAVE_AVX512)
  if (bits == 512 && Avx512FAvailable()) return &MatMulDriver<Zmm>;
#endif
  return nullptr;
}

}  // namespace ag::tensor::simd
