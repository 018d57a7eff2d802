#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "runtime/cancellation.h"
#include "runtime/parallel_for.h"
#include "support/error.h"
#include "tensor/simd/dispatch.h"

namespace ag {
namespace {

using detail::TensorAccess;

// Minimum elements per intra-op shard: below this, shipping work to
// another thread costs more than the loop. Each output element is
// written by exactly one shard and accumulation order within an output
// element never depends on the shard layout, so sharded results are
// bit-identical to sequential ones (the kernel determinism contract —
// see DESIGN.md §4e).
constexpr int64_t kElementGrain = 16384;

// Fixed block length for whole-tensor reductions: partial sums are
// taken over kReduceBlock-element blocks and then combined in block
// order. The block structure depends only on the input length — never
// on the thread budget — so results are identical whether the blocks
// run sequentially or sharded.
constexpr int64_t kReduceBlock = 65536;

// Result dtype for an arithmetic binary op (float wins over int).
DType PromoteDType(DType a, DType b) {
  if (a == DType::kFloat32 || b == DType::kFloat32) return DType::kFloat32;
  if (a == DType::kInt32 || b == DType::kInt32) return DType::kInt32;
  return DType::kBool;
}

// Output tensor over a pool-acquired (contents-unspecified) buffer.
Tensor NewOut(Shape shape, DType dtype) {
  return TensorAccess::Uninitialized(std::move(shape), dtype);
}

// Broadcast strides of a `shape` operand against an output of rank
// `out_rank`: dimensions right-aligned, stride 0 where the operand has
// size 1 or no dimension at all, so the same output coordinate walks
// every operand.
std::vector<int64_t> PaddedStrides(const Shape& shape, int out_rank) {
  std::vector<int64_t> s(static_cast<size_t>(out_rank), 0);
  const auto& dims = shape.dims();
  const auto strides = shape.strides();
  const int rt = shape.rank();
  for (int i = 0; i < rt; ++i) {
    const auto iu = static_cast<size_t>(i);
    s[static_cast<size_t>(out_rank - rt + i)] =
        dims[iu] == 1 ? 0 : strides[iu];
  }
  return s;
}

// Broadcast-aware elementwise binary kernel. `ra`/`rb` are non-null when
// the caller owns that operand as an rvalue: if its buffer is sole-owned
// (and pooling is on) the op writes the result into it instead of
// allocating. Only the exact-index fast paths reuse — element i is read
// before it is written, never across indices — so in-place results are
// identical to the copying path. The run-based broadcast path never
// reuses: its output index is not its operands' index.
template <typename F>
Tensor BinaryOp(const Tensor& a, const Tensor& b, DType out_dtype, F&& f,
                Tensor* ra = nullptr, Tensor* rb = nullptr) {
  const Shape out_shape = Shape::Broadcast(a.shape(), b.shape());
  const int64_t n = out_shape.num_elements();

  // Fast paths: same shape, or one side scalar. Sharded above the flop
  // threshold: every out[i] is written by exactly one shard.
  if (a.shape() == b.shape()) {
    Tensor* reuse = (ra != nullptr && TensorAccess::CanReuse(*ra)) ? ra
                    : (rb != nullptr && TensorAccess::CanReuse(*rb)) ? rb
                                                                     : nullptr;
    // Capture sources before the move below: `a`/`b` alias `*ra`/`*rb`,
    // and moving one into `out` nulls its handle (the storage itself
    // stays alive inside `out`, so the pointers remain valid).
    const float* pa = a.data();
    const float* pb = b.data();
    Tensor out = reuse != nullptr ? std::move(*reuse)
                                  : NewOut(out_shape, out_dtype);
    float* po = TensorAccess::data(out);
    runtime::ParallelFor(n, kElementGrain, [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) po[i] = f(pa[i], pb[i]);
    });
    return reuse != nullptr ? TensorAccess::Retag(std::move(out), out_dtype)
                            : out;
  }
  if (a.num_elements() == 1) {
    const bool reuse = rb != nullptr && TensorAccess::CanReuse(*rb);
    // Read the scalar and capture pb before the move: with reuse, `b`
    // aliases `*rb` and po aliases pb.
    const float va = a.data()[0];
    const float* pb = b.data();
    Tensor out = reuse ? std::move(*rb) : NewOut(out_shape, out_dtype);
    float* po = TensorAccess::data(out);
    runtime::ParallelFor(n, kElementGrain, [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) po[i] = f(va, pb[i]);
    });
    return reuse ? TensorAccess::Retag(std::move(out), out_dtype) : out;
  }
  if (b.num_elements() == 1) {
    const bool reuse = ra != nullptr && TensorAccess::CanReuse(*ra);
    const float vb = b.data()[0];
    const float* pa = a.data();
    Tensor out = reuse ? std::move(*ra) : NewOut(out_shape, out_dtype);
    float* po = TensorAccess::data(out);
    runtime::ParallelFor(n, kElementGrain, [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) po[i] = f(pa[i], vb);
    });
    return reuse ? TensorAccess::Retag(std::move(out), out_dtype) : out;
  }

  // General broadcast, one run of the innermost output dimension at a
  // time: inside a run each operand advances by its innermost stride (0
  // or 1 for every bias-style broadcast, which get their own loops), and
  // the odometer over the outer dimensions moves only between runs.
  // Shards are whole runs, so each output element is still computed by
  // one f(x, y) call, whatever the budget.
  Tensor out_t = NewOut(out_shape, out_dtype);
  if (n == 0) return out_t;
  const int r = out_shape.rank();
  const std::vector<int64_t>& out_dims = out_shape.dims();
  const std::vector<int64_t> sa = PaddedStrides(a.shape(), r);
  const std::vector<int64_t> sb = PaddedStrides(b.shape(), r);
  const int64_t cols = out_dims.back();
  const int64_t ia = sa.back();
  const int64_t ib = sb.back();
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = TensorAccess::data(out_t);
  runtime::ParallelFor(
      n / cols, std::max<int64_t>(1, kElementGrain / cols),
      [&](int64_t q0, int64_t q1) {
        // Seed the outer odometer at run q0.
        std::vector<int64_t> idx(static_cast<size_t>(r), 0);
        int64_t oa = 0;
        int64_t ob = 0;
        int64_t rem = q0;
        for (int d = r - 2; d >= 0; --d) {
          const auto du = static_cast<size_t>(d);
          idx[du] = rem % out_dims[du];
          rem /= out_dims[du];
          oa += sa[du] * idx[du];
          ob += sb[du] * idx[du];
        }
        for (int64_t q = q0; q < q1; ++q) {
          const float* x = pa + oa;
          const float* y = pb + ob;
          float* o = po + q * cols;
          if (ia == 1 && ib == 1) {
            for (int64_t j = 0; j < cols; ++j) o[j] = f(x[j], y[j]);
          } else if (ia == 0 && ib == 1) {
            const float vx = *x;
            for (int64_t j = 0; j < cols; ++j) o[j] = f(vx, y[j]);
          } else if (ia == 1 && ib == 0) {
            const float vy = *y;
            for (int64_t j = 0; j < cols; ++j) o[j] = f(x[j], vy);
          } else {
            for (int64_t j = 0; j < cols; ++j) o[j] = f(x[j * ia], y[j * ib]);
          }
          for (int d = r - 2; d >= 0; --d) {
            const auto du = static_cast<size_t>(d);
            idx[du] += 1;
            oa += sa[du];
            ob += sb[du];
            if (idx[du] < out_dims[du]) break;
            oa -= sa[du] * out_dims[du];
            ob -= sb[du] * out_dims[du];
            idx[du] = 0;
          }
        }
      });
  return out_t;
}

template <typename F>
Tensor UnaryOp(const Tensor& a, DType out_dtype, F&& f, Tensor* ra = nullptr) {
  const int64_t n = a.num_elements();
  const bool reuse = ra != nullptr && TensorAccess::CanReuse(*ra);
  // Capture before the move: `a` aliases `*ra` (see BinaryOp).
  const float* pa = a.data();
  Tensor out = reuse ? std::move(*ra) : NewOut(a.shape(), out_dtype);
  float* po = TensorAccess::data(out);
  runtime::ParallelFor(n, kElementGrain, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) po[i] = f(pa[i]);
  });
  return reuse ? TensorAccess::Retag(std::move(out), out_dtype) : out;
}

// UnaryOp variant over a vectorized array kernel (a simd::KernelTable
// entry): same reuse/Retag structure. The array kernel computes each
// element position-independently (scalar tails mirror the vector lanes
// exactly), so shard boundaries cannot change any value, and it
// tolerates the exact aliasing (dst == src) the reuse path produces.
Tensor UnaryArrayOp(const Tensor& a, DType out_dtype,
                    void (*fn)(const float*, float*, int64_t),
                    Tensor* ra = nullptr) {
  const int64_t n = a.num_elements();
  const bool reuse = ra != nullptr && TensorAccess::CanReuse(*ra);
  const float* pa = a.data();
  Tensor out = reuse ? std::move(*ra) : NewOut(a.shape(), out_dtype);
  float* po = TensorAccess::data(out);
  runtime::ParallelFor(n, kElementGrain, [&](int64_t begin, int64_t end) {
    fn(pa + begin, po + begin, end - begin);
  });
  return reuse ? TensorAccess::Retag(std::move(out), out_dtype) : out;
}

// Shared reduction machinery: reduces `axis` of `a` with accumulator F,
// starting from `init`.
template <typename F>
Tensor Reduce(const Tensor& a, int axis, bool keepdims, float init, F&& f) {
  if (axis == kAllAxes) {
    const float* p = a.data();
    const int64_t n = a.num_elements();
    float acc = init;
    if (n >= 2 * kReduceBlock) {
      // Fixed-block tree: per-block partials in block order, combined in
      // block order. Shape of the tree depends only on n, so the result
      // is bit-identical at every thread budget.
      const int64_t blocks = (n + kReduceBlock - 1) / kReduceBlock;
      std::vector<float> partial(static_cast<size_t>(blocks), init);
      float* pp = partial.data();
      runtime::ParallelFor(blocks, 1, [&](int64_t b0, int64_t b1) {
        for (int64_t b = b0; b < b1; ++b) {
          const int64_t lo = b * kReduceBlock;
          const int64_t hi = std::min(n, lo + kReduceBlock);
          float block_acc = init;
          for (int64_t i = lo; i < hi; ++i) block_acc = f(block_acc, p[i]);
          pp[b] = block_acc;
        }
      });
      for (int64_t b = 0; b < blocks; ++b) acc = f(acc, pp[b]);
    } else {
      for (int64_t i = 0; i < n; ++i) acc = f(acc, p[i]);
    }
    if (keepdims) {
      std::vector<int64_t> dims(static_cast<size_t>(a.rank()), 1);
      Tensor out = NewOut(Shape(std::move(dims)), a.dtype());
      TensorAccess::data(out)[0] = acc;
      return out;
    }
    return Tensor::Scalar(acc, a.dtype());
  }
  const int ax = a.shape().ResolveAxis(axis);
  const auto& dims = a.shape().dims();
  int64_t outer = 1;
  int64_t inner = 1;
  for (int i = 0; i < ax; ++i) outer *= dims[static_cast<size_t>(i)];
  for (int i = ax + 1; i < a.rank(); ++i) inner *= dims[static_cast<size_t>(i)];
  const int64_t mid = dims[static_cast<size_t>(ax)];

  std::vector<int64_t> out_dims;
  for (int i = 0; i < a.rank(); ++i) {
    if (i == ax) {
      if (keepdims) out_dims.push_back(1);
    } else {
      out_dims.push_back(dims[static_cast<size_t>(i)]);
    }
  }
  Tensor out_t = NewOut(Shape(std::move(out_dims)), a.dtype());
  const float* p = a.data();
  float* po = TensorAccess::data(out_t);
  std::fill(po, po + outer * inner, init);
  // Shard over the non-reduced outer axis: each output row accumulates
  // over `mid` in the same order regardless of sharding.
  const int64_t outer_grain =
      std::max<int64_t>(1, kElementGrain / std::max<int64_t>(1, mid * inner));
  runtime::ParallelFor(outer, outer_grain, [&](int64_t o0, int64_t o1) {
    for (int64_t o = o0; o < o1; ++o) {
      for (int64_t m = 0; m < mid; ++m) {
        const float* row = p + (o * mid + m) * inner;
        float* orow = po + o * inner;
        for (int64_t i = 0; i < inner; ++i) orow[i] = f(orow[i], row[i]);
      }
    }
  });
  return out_t;
}

// One functor per binary op, shared by its lvalue and rvalue overloads
// so each op instantiates BinaryOp once.
constexpr auto kAdd = [](float x, float y) { return x + y; };
constexpr auto kSub = [](float x, float y) { return x - y; };
constexpr auto kMul = [](float x, float y) { return x * y; };
constexpr auto kDiv = [](float x, float y) { return x / y; };
constexpr auto kFloorDiv = [](float x, float y) { return std::floor(x / y); };
// Python modulo semantics.
inline float PyMod(float x, float y) { return x - std::floor(x / y) * y; }
constexpr auto kMod = [](float x, float y) { return PyMod(x, y); };
constexpr auto kPow = [](float x, float y) { return std::pow(x, y); };
constexpr auto kMaximum = [](float x, float y) { return std::max(x, y); };
constexpr auto kMinimum = [](float x, float y) { return std::min(x, y); };
constexpr auto kLess = [](float x, float y) { return x < y ? 1.0f : 0.0f; };
constexpr auto kLessEqual = [](float x, float y) {
  return x <= y ? 1.0f : 0.0f;
};
constexpr auto kGreater = [](float x, float y) { return x > y ? 1.0f : 0.0f; };
constexpr auto kGreaterEqual = [](float x, float y) {
  return x >= y ? 1.0f : 0.0f;
};
constexpr auto kEqual = [](float x, float y) { return x == y ? 1.0f : 0.0f; };
constexpr auto kNotEqual = [](float x, float y) {
  return x != y ? 1.0f : 0.0f;
};
constexpr auto kLogicalAnd = [](float x, float y) {
  return (x != 0.0f && y != 0.0f) ? 1.0f : 0.0f;
};
constexpr auto kLogicalOr = [](float x, float y) {
  return (x != 0.0f || y != 0.0f) ? 1.0f : 0.0f;
};

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, PromoteDType(a.dtype(), b.dtype()), kAdd);
}

Tensor Add(Tensor&& a, Tensor&& b) {
  return BinaryOp(a, b, PromoteDType(a.dtype(), b.dtype()), kAdd, &a, &b);
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, PromoteDType(a.dtype(), b.dtype()), kSub);
}

Tensor Sub(Tensor&& a, Tensor&& b) {
  return BinaryOp(a, b, PromoteDType(a.dtype(), b.dtype()), kSub, &a, &b);
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, PromoteDType(a.dtype(), b.dtype()), kMul);
}

Tensor Mul(Tensor&& a, Tensor&& b) {
  return BinaryOp(a, b, PromoteDType(a.dtype(), b.dtype()), kMul, &a, &b);
}

Tensor Div(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, DType::kFloat32, kDiv);
}

Tensor Div(Tensor&& a, Tensor&& b) {
  return BinaryOp(a, b, DType::kFloat32, kDiv, &a, &b);
}

Tensor FloorDiv(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, PromoteDType(a.dtype(), b.dtype()), kFloorDiv);
}

Tensor FloorDiv(Tensor&& a, Tensor&& b) {
  return BinaryOp(a, b, PromoteDType(a.dtype(), b.dtype()), kFloorDiv, &a, &b);
}

Tensor Mod(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, PromoteDType(a.dtype(), b.dtype()), kMod);
}

Tensor Mod(Tensor&& a, Tensor&& b) {
  return BinaryOp(a, b, PromoteDType(a.dtype(), b.dtype()), kMod, &a, &b);
}

Tensor Pow(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, DType::kFloat32, kPow);
}

Tensor Pow(Tensor&& a, Tensor&& b) {
  return BinaryOp(a, b, DType::kFloat32, kPow, &a, &b);
}

Tensor Maximum(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, PromoteDType(a.dtype(), b.dtype()), kMaximum);
}

Tensor Maximum(Tensor&& a, Tensor&& b) {
  return BinaryOp(a, b, PromoteDType(a.dtype(), b.dtype()), kMaximum, &a, &b);
}

Tensor Minimum(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, PromoteDType(a.dtype(), b.dtype()), kMinimum);
}

Tensor Minimum(Tensor&& a, Tensor&& b) {
  return BinaryOp(a, b, PromoteDType(a.dtype(), b.dtype()), kMinimum, &a, &b);
}

Tensor Less(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, DType::kBool, kLess);
}

Tensor Less(Tensor&& a, Tensor&& b) {
  return BinaryOp(a, b, DType::kBool, kLess, &a, &b);
}

Tensor LessEqual(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, DType::kBool, kLessEqual);
}

Tensor LessEqual(Tensor&& a, Tensor&& b) {
  return BinaryOp(a, b, DType::kBool, kLessEqual, &a, &b);
}

Tensor Greater(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, DType::kBool, kGreater);
}

Tensor Greater(Tensor&& a, Tensor&& b) {
  return BinaryOp(a, b, DType::kBool, kGreater, &a, &b);
}

Tensor GreaterEqual(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, DType::kBool, kGreaterEqual);
}

Tensor GreaterEqual(Tensor&& a, Tensor&& b) {
  return BinaryOp(a, b, DType::kBool, kGreaterEqual, &a, &b);
}

Tensor Equal(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, DType::kBool, kEqual);
}

Tensor Equal(Tensor&& a, Tensor&& b) {
  return BinaryOp(a, b, DType::kBool, kEqual, &a, &b);
}

Tensor NotEqual(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, DType::kBool, kNotEqual);
}

Tensor NotEqual(Tensor&& a, Tensor&& b) {
  return BinaryOp(a, b, DType::kBool, kNotEqual, &a, &b);
}

Tensor LogicalAnd(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, DType::kBool, kLogicalAnd);
}

Tensor LogicalAnd(Tensor&& a, Tensor&& b) {
  return BinaryOp(a, b, DType::kBool, kLogicalAnd, &a, &b);
}

Tensor LogicalOr(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, DType::kBool, kLogicalOr);
}

Tensor LogicalOr(Tensor&& a, Tensor&& b) {
  return BinaryOp(a, b, DType::kBool, kLogicalOr, &a, &b);
}

Tensor LogicalNot(const Tensor& a) {
  return UnaryOp(a, DType::kBool,
                 [](float x) { return x == 0.0f ? 1.0f : 0.0f; });
}

Tensor LogicalNot(Tensor&& a) {
  return UnaryOp(a, DType::kBool,
                 [](float x) { return x == 0.0f ? 1.0f : 0.0f; }, &a);
}

Tensor Neg(const Tensor& a) {
  return UnaryOp(a, a.dtype(), [](float x) { return -x; });
}

Tensor Neg(Tensor&& a) {
  return UnaryOp(a, a.dtype(), [](float x) { return -x; }, &a);
}

// Exp/Tanh/Sigmoid consult the active kernel backend (resolved here, on
// the calling thread) and route through the vectorized array kernels
// when present; the scalar backend's table has null entries, keeping
// the libm path byte-identical to the seed.
Tensor Exp(const Tensor& a) {
  if (auto* fn = tensor::simd::ActiveKernels().vexp) {
    return UnaryArrayOp(a, DType::kFloat32, fn);
  }
  return UnaryOp(a, DType::kFloat32, [](float x) { return std::exp(x); });
}

Tensor Exp(Tensor&& a) {
  if (auto* fn = tensor::simd::ActiveKernels().vexp) {
    return UnaryArrayOp(a, DType::kFloat32, fn, &a);
  }
  return UnaryOp(a, DType::kFloat32, [](float x) { return std::exp(x); }, &a);
}

Tensor Log(const Tensor& a) {
  return UnaryOp(a, DType::kFloat32, [](float x) { return std::log(x); });
}

Tensor Log(Tensor&& a) {
  return UnaryOp(a, DType::kFloat32, [](float x) { return std::log(x); }, &a);
}

Tensor Tanh(const Tensor& a) {
  if (auto* fn = tensor::simd::ActiveKernels().vtanh) {
    return UnaryArrayOp(a, DType::kFloat32, fn);
  }
  return UnaryOp(a, DType::kFloat32, [](float x) { return std::tanh(x); });
}

Tensor Tanh(Tensor&& a) {
  if (auto* fn = tensor::simd::ActiveKernels().vtanh) {
    return UnaryArrayOp(a, DType::kFloat32, fn, &a);
  }
  return UnaryOp(a, DType::kFloat32, [](float x) { return std::tanh(x); }, &a);
}

Tensor Sigmoid(const Tensor& a) {
  if (auto* fn = tensor::simd::ActiveKernels().vsigmoid) {
    return UnaryArrayOp(a, DType::kFloat32, fn);
  }
  return UnaryOp(a, DType::kFloat32,
                 [](float x) { return 1.0f / (1.0f + std::exp(-x)); });
}

Tensor Sigmoid(Tensor&& a) {
  if (auto* fn = tensor::simd::ActiveKernels().vsigmoid) {
    return UnaryArrayOp(a, DType::kFloat32, fn, &a);
  }
  return UnaryOp(a, DType::kFloat32,
                 [](float x) { return 1.0f / (1.0f + std::exp(-x)); }, &a);
}

Tensor Relu(const Tensor& a) {
  return UnaryOp(a, DType::kFloat32,
                 [](float x) { return x > 0.0f ? x : 0.0f; });
}

Tensor Relu(Tensor&& a) {
  return UnaryOp(a, DType::kFloat32,
                 [](float x) { return x > 0.0f ? x : 0.0f; }, &a);
}

Tensor Sqrt(const Tensor& a) {
  return UnaryOp(a, DType::kFloat32, [](float x) { return std::sqrt(x); });
}

Tensor Sqrt(Tensor&& a) {
  return UnaryOp(a, DType::kFloat32, [](float x) { return std::sqrt(x); }, &a);
}

Tensor Abs(const Tensor& a) {
  return UnaryOp(a, a.dtype(), [](float x) { return std::fabs(x); });
}

Tensor Abs(Tensor&& a) {
  return UnaryOp(a, a.dtype(), [](float x) { return std::fabs(x); }, &a);
}

Tensor Square(const Tensor& a) {
  return UnaryOp(a, a.dtype(), [](float x) { return x * x; });
}

Tensor Square(Tensor&& a) {
  return UnaryOp(a, a.dtype(), [](float x) { return x * x; }, &a);
}

Tensor Sin(const Tensor& a) {
  return UnaryOp(a, DType::kFloat32, [](float x) { return std::sin(x); });
}

Tensor Sin(Tensor&& a) {
  return UnaryOp(a, DType::kFloat32, [](float x) { return std::sin(x); }, &a);
}

Tensor Cos(const Tensor& a) {
  return UnaryOp(a, DType::kFloat32, [](float x) { return std::cos(x); });
}

Tensor Cos(Tensor&& a) {
  return UnaryOp(a, DType::kFloat32, [](float x) { return std::cos(x); }, &a);
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  if (a.rank() != 2 || b.rank() != 2) {
    throw ValueError("MatMul requires rank-2 tensors, got " +
                     a.shape().str() + " x " + b.shape().str());
  }
  const int64_t m = a.shape().dim(0);
  const int64_t k = a.shape().dim(1);
  const int64_t k2 = b.shape().dim(0);
  const int64_t n = b.shape().dim(1);
  if (k != k2) {
    throw ValueError("MatMul inner dims mismatch: " + a.shape().str() +
                     " x " + b.shape().str());
  }
  Tensor out_t = NewOut(Shape({m, n}), DType::kFloat32);
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = TensorAccess::data(out_t);
  // Vector backend: the table's matmul is a complete driver (B read in
  // place or packed, row sharding, cancellation) writing every element
  // of po. The scalar path below stays byte-identical to the seed.
  if (auto* fn = tensor::simd::ActiveKernels().matmul) {
    fn(pa, pb, po, m, k, n);
    return out_t;
  }
  std::fill(po, po + m * n, 0.0f);
  // Cancellation is polled once per k-panel per shard so a cancel or
  // deadline unwinds within a panel's worth of work, not a whole
  // kernel. The pointer is captured on the calling thread because the
  // shard bodies may run on pool threads that have no scope installed;
  // CancelCheck itself is thread-safe. ParallelFor rethrows the
  // CancelledError on the calling thread (DESIGN.md §4f).
  runtime::CancelCheck* cancel = runtime::CurrentCancelCheck();
  // Row-band parallel, cache-blocked over k so a panel of B rows stays
  // resident while a band of A rows streams over it. Each output row is
  // produced by one shard with k accumulated in ascending order, so the
  // result is bit-identical across thread budgets. Inner loops keep the
  // ikj row-major order (and the zero-skip for sparse-ish A).
  constexpr int64_t kPanel = 256;  // B rows per k-panel (~n KiB of B)
  const int64_t rows_grain =
      std::max<int64_t>(1, kElementGrain / std::max<int64_t>(1, k * n));
  runtime::ParallelFor(m, rows_grain, [&](int64_t i0, int64_t i1) {
    for (int64_t k0 = 0; k0 < k; k0 += kPanel) {
      if (cancel != nullptr) cancel->Poll("MatMul panel");
      const int64_t k1 = std::min(k, k0 + kPanel);
      for (int64_t i = i0; i < i1; ++i) {
        float* orow = po + i * n;
        const float* arow = pa + i * k;
        for (int64_t kk = k0; kk < k1; ++kk) {
          const float av = arow[kk];
          if (av == 0.0f) continue;
          const float* brow = pb + kk * n;
          for (int64_t j = 0; j < n; ++j) orow[j] += av * brow[j];
        }
      }
    }
  });
  return out_t;
}

Tensor ReduceSum(const Tensor& a, int axis, bool keepdims) {
  return Reduce(a, axis, keepdims, 0.0f,
                [](float acc, float x) { return acc + x; });
}

Tensor ReduceMean(const Tensor& a, int axis, bool keepdims) {
  Tensor sum = ReduceSum(a, axis, keepdims);
  const int64_t count = axis == kAllAxes
                            ? a.num_elements()
                            : a.shape().dim(a.shape().ResolveAxis(axis));
  return Div(std::move(sum), Tensor::Scalar(static_cast<float>(count)));
}

Tensor ReduceMax(const Tensor& a, int axis, bool keepdims) {
  return Reduce(a, axis, keepdims, -std::numeric_limits<float>::infinity(),
                [](float acc, float x) { return std::max(acc, x); });
}

Tensor ReduceMin(const Tensor& a, int axis, bool keepdims) {
  return Reduce(a, axis, keepdims, std::numeric_limits<float>::infinity(),
                [](float acc, float x) { return std::min(acc, x); });
}

Tensor ArgMax(const Tensor& a, int axis) {
  const int ax = a.shape().ResolveAxis(axis);
  const auto& dims = a.shape().dims();
  int64_t outer = 1;
  int64_t inner = 1;
  for (int i = 0; i < ax; ++i) outer *= dims[static_cast<size_t>(i)];
  for (int i = ax + 1; i < a.rank(); ++i) inner *= dims[static_cast<size_t>(i)];
  const int64_t mid = dims[static_cast<size_t>(ax)];

  std::vector<int64_t> out_dims;
  for (int i = 0; i < a.rank(); ++i) {
    if (i != ax) out_dims.push_back(dims[static_cast<size_t>(i)]);
  }
  Tensor out_t = NewOut(Shape(std::move(out_dims)), DType::kInt32);
  // Running-max scratch, pool-recycled like any output buffer.
  tensor::PooledBuffer best =
      tensor::BufferPool::Global().Acquire(outer * inner);
  const float* p = a.data();
  float* pout = TensorAccess::data(out_t);
  float* pbest = best.mutable_data();
  std::fill(pout, pout + outer * inner, 0.0f);
  std::fill(pbest, pbest + outer * inner,
            -std::numeric_limits<float>::infinity());
  const int64_t outer_grain =
      std::max<int64_t>(1, kElementGrain / std::max<int64_t>(1, mid * inner));
  runtime::ParallelFor(outer, outer_grain, [&](int64_t o0, int64_t o1) {
    for (int64_t o = o0; o < o1; ++o) {
      for (int64_t m = 0; m < mid; ++m) {
        const float* row = p + (o * mid + m) * inner;
        for (int64_t i = 0; i < inner; ++i) {
          const size_t oi = static_cast<size_t>(o * inner + i);
          if (row[i] > pbest[oi]) {
            pbest[oi] = row[i];
            pout[oi] = static_cast<float>(m);
          }
        }
      }
    }
  });
  return out_t;
}

Tensor Reshape(const Tensor& a, Shape shape) {
  // Support a single -1 wildcard dim, NumPy style.
  int wildcard = -1;
  int64_t known = 1;
  auto dims = shape.dims();
  for (size_t i = 0; i < dims.size(); ++i) {
    if (dims[i] == -1) {
      if (wildcard >= 0) throw ValueError("Reshape: multiple -1 dims");
      wildcard = static_cast<int>(i);
    } else {
      known *= dims[i];
    }
  }
  if (wildcard >= 0) {
    if (known == 0 || a.num_elements() % known != 0) {
      throw ValueError("Reshape: cannot infer -1 dim for " +
                       a.shape().str() + " -> " + shape.str());
    }
    dims[static_cast<size_t>(wildcard)] = a.num_elements() / known;
  }
  return a.Reshaped(Shape(std::move(dims)));
}

Tensor Reshape(const Tensor& a, const std::shared_ptr<const Shape>& shape) {
  for (int64_t d : shape->dims()) {
    if (d == -1) return Reshape(a, *shape);
  }
  return a.Reshaped(shape);
}

Tensor ExpandDims(const Tensor& a, int axis) {
  std::vector<int64_t> dims = a.shape().dims();
  if (axis < 0) axis += a.rank() + 1;
  dims.insert(dims.begin() + axis, 1);
  return a.Reshaped(Shape(std::move(dims)));
}

Tensor Transpose(const Tensor& a, std::vector<int> perm) {
  if (static_cast<int>(perm.size()) != a.rank()) {
    throw ValueError("Transpose: perm size != rank");
  }
  const auto& dims = a.shape().dims();
  const auto strides = a.shape().strides();
  std::vector<int64_t> out_dims(perm.size());
  std::vector<int64_t> src_strides(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) {
    out_dims[i] = dims[static_cast<size_t>(perm[i])];
    src_strides[i] = strides[static_cast<size_t>(perm[i])];
  }
  const int64_t n = a.num_elements();
  const int r = a.rank();
  Tensor out_t = NewOut(Shape(std::vector<int64_t>(out_dims)), a.dtype());
  float* out = TensorAccess::data(out_t);
  const float* p = a.data();
  std::vector<int64_t> idx(static_cast<size_t>(r), 0);
  int64_t src = 0;
  // Moves the odometer over the first `rank` output dims by one step.
  const auto advance = [&](int rank) {
    for (int d = rank - 1; d >= 0; --d) {
      const auto du = static_cast<size_t>(d);
      idx[du] += 1;
      src += src_strides[du];
      if (idx[du] < out_dims[du]) break;
      src -= src_strides[du] * idx[du];
      idx[du] = 0;
    }
  };
  if (r > 0 && perm.back() == r - 1 && n > 0) {
    // The last axis stays last, so the output is a sequence of whole
    // input rows: copy each at once, stepping over the outer dims only.
    const int64_t run = out_dims.back();
    for (int64_t i = 0; i < n; i += run) {
      std::copy(p + src, p + src + run, out + i);
      advance(r - 1);
    }
  } else {
    for (int64_t i = 0; i < n; ++i) {
      out[static_cast<size_t>(i)] = p[src];
      advance(r);
    }
  }
  return out_t;
}

Tensor Concat(const std::vector<Tensor>& parts, int axis) {
  if (parts.empty()) throw ValueError("Concat: empty input");
  const int ax = parts[0].shape().ResolveAxis(axis);
  const auto& base_dims = parts[0].shape().dims();
  int64_t outer = 1;
  int64_t inner = 1;
  for (int i = 0; i < ax; ++i) outer *= base_dims[static_cast<size_t>(i)];
  for (int i = ax + 1; i < parts[0].rank(); ++i) {
    inner *= base_dims[static_cast<size_t>(i)];
  }
  int64_t total_mid = 0;
  for (const Tensor& t : parts) {
    if (t.rank() != parts[0].rank()) {
      throw ValueError("Concat: rank mismatch");
    }
    total_mid += t.shape().dim(ax);
  }
  std::vector<int64_t> out_dims = base_dims;
  out_dims[static_cast<size_t>(ax)] = total_mid;
  Tensor out_t = NewOut(Shape(std::move(out_dims)), parts[0].dtype());
  float* out = TensorAccess::data(out_t);
  for (int64_t o = 0; o < outer; ++o) {
    int64_t written = 0;
    for (const Tensor& t : parts) {
      const int64_t mid = t.shape().dim(ax);
      const float* src = t.data() + o * mid * inner;
      std::copy(src, src + mid * inner,
                out + (o * total_mid + written) * inner);
      written += mid;
    }
  }
  return out_t;
}

Tensor SliceAxis(const Tensor& a, int axis, int64_t start, int64_t len) {
  const int ax = a.shape().ResolveAxis(axis);
  std::vector<int64_t> dims = a.shape().dims();
  const int64_t total = dims[static_cast<size_t>(ax)];
  if (start < 0 || len < 0 || start + len > total) {
    throw ValueError("SliceAxis: [" + std::to_string(start) + ", " +
                     std::to_string(start + len) + ") is out of range for " +
                     a.shape().str());
  }
  int64_t outer = 1;
  int64_t inner = 1;
  for (int i = 0; i < ax; ++i) outer *= dims[static_cast<size_t>(i)];
  for (size_t i = static_cast<size_t>(ax) + 1; i < dims.size(); ++i) {
    inner *= dims[i];
  }
  std::vector<float> out(static_cast<size_t>(outer * len * inner));
  for (int64_t o = 0; o < outer; ++o) {
    const float* src = a.data() + (o * total + start) * inner;
    std::copy(src, src + len * inner, out.data() + o * len * inner);
  }
  dims[static_cast<size_t>(ax)] = len;
  return Tensor::FromVector(std::move(out), Shape(std::move(dims)),
                            a.dtype());
}

Tensor Stack(const std::vector<Tensor>& parts) {
  if (parts.empty()) throw ValueError("Stack: empty input");
  const int64_t per = parts[0].num_elements();
  std::vector<int64_t> dims = parts[0].shape().dims();
  dims.insert(dims.begin(), static_cast<int64_t>(parts.size()));
  Tensor out_t = NewOut(Shape(std::move(dims)), parts[0].dtype());
  float* out = TensorAccess::data(out_t);
  for (size_t i = 0; i < parts.size(); ++i) {
    const Tensor& t = parts[i];
    if (t.shape() != parts[0].shape()) {
      throw ValueError("Stack: shape mismatch " + t.shape().str() + " vs " +
                       parts[0].shape().str());
    }
    std::copy(t.data(), t.data() + per, out + static_cast<int64_t>(i) * per);
  }
  return out_t;
}

std::vector<Tensor> Unstack(const Tensor& a) {
  if (a.rank() < 1) throw ValueError("Unstack: scalar input");
  const int64_t n = a.shape().dim(0);
  std::vector<Tensor> out;
  out.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) out.push_back(IndexAxis0(a, i));
  return out;
}

Tensor IndexAxis0(const Tensor& a, int64_t index) {
  if (a.rank() < 1) throw ValueError("IndexAxis0: scalar input");
  const int64_t n0 = a.shape().dim(0);
  int64_t i = index < 0 ? index + n0 : index;
  if (i < 0 || i >= n0) {
    throw ValueError("index " + std::to_string(index) +
                     " out of range for shape " + a.shape().str());
  }
  const int64_t inner = a.num_elements() / n0;
  std::vector<int64_t> dims(a.shape().dims().begin() + 1,
                            a.shape().dims().end());
  Tensor out_t = NewOut(Shape(std::move(dims)), a.dtype());
  std::copy(a.data() + i * inner, a.data() + (i + 1) * inner,
            TensorAccess::data(out_t));
  return out_t;
}

Tensor SetItemAxis0(const Tensor& a, int64_t index, const Tensor& value) {
  if (a.rank() < 1) throw ValueError("SetItemAxis0: scalar target");
  const int64_t n0 = a.shape().dim(0);
  int64_t i = index < 0 ? index + n0 : index;
  if (i < 0 || i >= n0) {
    throw ValueError("index " + std::to_string(index) +
                     " out of range for shape " + a.shape().str());
  }
  const int64_t inner = a.num_elements() / n0;
  if (value.num_elements() != inner) {
    throw ValueError("SetItemAxis0: value shape " + value.shape().str() +
                     " does not fit row of " + a.shape().str());
  }
  Tensor out_t = NewOut(a.shape(), a.dtype());
  float* out = TensorAccess::data(out_t);
  std::copy(a.data(), a.data() + a.num_elements(), out);
  std::copy(value.data(), value.data() + inner, out + i * inner);
  return out_t;
}

Tensor SetItemAxis0(Tensor&& a, int64_t index, const Tensor& value) {
  // In-place row write: only the updated row is touched, so `a` must be
  // sole-owned (a `value` aliasing a's buffer pins the refcount and
  // routes to the copying overload automatically).
  if (!TensorAccess::CanReuse(a)) {
    return SetItemAxis0(static_cast<const Tensor&>(a), index, value);
  }
  if (a.rank() < 1) throw ValueError("SetItemAxis0: scalar target");
  const int64_t n0 = a.shape().dim(0);
  int64_t i = index < 0 ? index + n0 : index;
  if (i < 0 || i >= n0) {
    throw ValueError("index " + std::to_string(index) +
                     " out of range for shape " + a.shape().str());
  }
  const int64_t inner = a.num_elements() / n0;
  if (value.num_elements() != inner) {
    throw ValueError("SetItemAxis0: value shape " + value.shape().str() +
                     " does not fit row of " + a.shape().str());
  }
  std::copy(value.data(), value.data() + inner,
            TensorAccess::data(a) + i * inner);
  return std::move(a);
}

Tensor Gather(const Tensor& params, const Tensor& indices) {
  if (params.rank() < 1) throw ValueError("Gather: scalar params");
  const int64_t n0 = params.shape().dim(0);
  const int64_t inner = params.num_elements() / n0;
  const int64_t ni = indices.num_elements();
  std::vector<int64_t> dims = indices.shape().dims();
  for (int i = 1; i < params.rank(); ++i) {
    dims.push_back(params.shape().dim(i));
  }
  Tensor out_t = NewOut(Shape(std::move(dims)), params.dtype());
  float* out = TensorAccess::data(out_t);
  for (int64_t i = 0; i < ni; ++i) {
    const int64_t idx = static_cast<int64_t>(std::llround(indices.at(i)));
    if (idx < 0 || idx >= n0) {
      throw ValueError("Gather: index " + std::to_string(idx) +
                       " out of range [0, " + std::to_string(n0) + ")");
    }
    std::copy(params.data() + idx * inner, params.data() + (idx + 1) * inner,
              out + i * inner);
  }
  return out_t;
}

Tensor Where(const Tensor& cond, const Tensor& x, const Tensor& y) {
  if (x.shape() != y.shape()) {
    throw ValueError("Where: branch shapes differ: " + x.shape().str() +
                     " vs " + y.shape().str());
  }
  const int64_t n = x.num_elements();
  Tensor out_t = NewOut(x.shape(), x.dtype());
  float* out = TensorAccess::data(out_t);
  const float* px = x.data();
  const float* py = y.data();
  if (cond.num_elements() == 1) {
    const bool c = cond.data()[0] != 0.0f;
    const float* src = c ? px : py;
    std::copy(src, src + n, out);
  } else if (cond.num_elements() == n) {
    const float* pc = cond.data();
    for (int64_t i = 0; i < n; ++i) {
      out[static_cast<size_t>(i)] = pc[i] != 0.0f ? px[i] : py[i];
    }
  } else {
    // cond indexes the leading axis (tf.where batch semantics).
    const int64_t rows = cond.num_elements();
    if (x.rank() < 1 || x.shape().dim(0) != rows) {
      throw ValueError("Where: cond shape " + cond.shape().str() +
                       " incompatible with " + x.shape().str());
    }
    const int64_t inner = n / rows;
    const float* pc = cond.data();
    for (int64_t r = 0; r < rows; ++r) {
      const float* src = (pc[r] != 0.0f ? px : py) + r * inner;
      std::copy(src, src + inner, out + r * inner);
    }
  }
  return out_t;
}

float RowMax(const float* x, int64_t n) {
  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  // Element j goes to lane j % 8. Each lane, and the combine, is a
  // std::max chain from -inf, so NaNs are skipped exactly as in one chain
  // and the maximum value is the same; eight chains run side by side.
  float lane[8] = {kNegInf, kNegInf, kNegInf, kNegInf,
                   kNegInf, kNegInf, kNegInf, kNegInf};
  int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    for (int l = 0; l < 8; ++l) lane[l] = std::max(lane[l], x[j + l]);
  }
  for (; j < n; ++j) lane[j % 8] = std::max(lane[j % 8], x[j]);
  float m = kNegInf;
  for (float v : lane) m = std::max(m, v);
  // Only a zero max can differ: one chain keeps the first zero it meets,
  // whose sign the lanes may not. Rerun the one chain for that row.
  if (m == 0.0f) {
    m = kNegInf;
    for (j = 0; j < n; ++j) m = std::max(m, x[j]);
  }
  return m;
}

namespace {

// Softmax (kLog false) or LogSoftmax (kLog true) over the last axis, one
// row at a time into the one output buffer. Each row runs the
// operations of the composed chain
//   m = ReduceMax(x); e = Exp(x - m); s = ReduceSum(e);
//   Softmax = e / s;  LogSoftmax = (x - m) - Log(s)
// in the same order — the max as RowMax takes it (the value and sign of
// ReduceMax's std::max chain), the sum from 0 in index order, exp through
// the active table's vexp (std::exp when it is null) — so the result is
// bit-identical to that chain on every backend. vexp is
// position-independent, which lets LogSoftmax take the exps of a row in
// stack-sized chunks; Softmax keeps them in the output.
template <bool kLog>
Tensor SoftmaxRows(const Tensor& logits) {
  // Rank 0 fails here with ReduceMax's "axis -1 out of range" error.
  const int64_t cols = logits.shape().dim(-1);
  const int64_t rows = cols == 0 ? 0 : logits.num_elements() / cols;
  Tensor out_t = NewOut(logits.shape(), DType::kFloat32);
  const float* px = logits.data();
  float* po = TensorAccess::data(out_t);
  // Resolved on the calling thread (pool helpers carry no scopes).
  auto* const vexp = tensor::simd::ActiveKernels().vexp;
  constexpr int64_t kChunk = 256;
  const int64_t grain =
      std::max<int64_t>(1, kElementGrain / std::max<int64_t>(1, cols));
  runtime::ParallelFor(rows, grain, [&](int64_t r0, int64_t r1) {
    float scratch[kChunk] = {};
    for (int64_t r = r0; r < r1; ++r) {
      const float* x = px + r * cols;
      float* y = po + r * cols;
      const float m = RowMax(x, cols);
      for (int64_t j = 0; j < cols; ++j) y[j] = x[j] - m;
      float sum = 0.0f;
      for (int64_t j0 = 0; j0 < cols; j0 += kChunk) {
        const int64_t len = std::min(kChunk, cols - j0);
        float* e = kLog ? scratch : y + j0;
        if (vexp != nullptr) {
          vexp(y + j0, e, len);
        } else {
          for (int64_t t = 0; t < len; ++t) e[t] = std::exp(y[j0 + t]);
        }
        for (int64_t t = 0; t < len; ++t) sum += e[t];
      }
      if constexpr (kLog) {
        const float lse = std::log(sum);
        for (int64_t j = 0; j < cols; ++j) y[j] -= lse;
      } else {
        for (int64_t j = 0; j < cols; ++j) y[j] /= sum;
      }
    }
  });
  return out_t;
}

}  // namespace

Tensor Softmax(const Tensor& logits) { return SoftmaxRows<false>(logits); }

Tensor LogSoftmax(const Tensor& logits) { return SoftmaxRows<true>(logits); }

Tensor SoftmaxCrossEntropy(const Tensor& logits, const Tensor& labels) {
  if (logits.rank() != 2) {
    throw ValueError("SoftmaxCrossEntropy: logits must be rank 2");
  }
  const int64_t batch = logits.shape().dim(0);
  const int64_t classes = logits.shape().dim(1);
  if (labels.num_elements() != batch) {
    throw ValueError("SoftmaxCrossEntropy: labels size mismatch");
  }
  Tensor lsm = LogSoftmax(logits);
  float total = 0.0f;
  for (int64_t i = 0; i < batch; ++i) {
    const int64_t c = static_cast<int64_t>(std::llround(labels.at(i)));
    if (c < 0 || c >= classes) {
      throw ValueError("SoftmaxCrossEntropy: label out of range");
    }
    total -= lsm.at(i * classes + c);
  }
  return Tensor::Scalar(total / static_cast<float>(batch));
}

Tensor SoftmaxCrossEntropyGrad(const Tensor& logits, const Tensor& labels) {
  const int64_t batch = logits.shape().dim(0);
  const int64_t classes = logits.shape().dim(1);
  Tensor sm = Softmax(logits);
  // `sm` is a freshly produced local, so when pooling is on it is
  // sole-owned and the gradient rewrites its buffer directly.
  const bool reuse = TensorAccess::CanReuse(sm);
  Tensor out_t = reuse ? TensorAccess::Retag(std::move(sm), DType::kFloat32)
                       : NewOut(logits.shape(), DType::kFloat32);
  float* out = TensorAccess::data(out_t);
  if (!reuse) std::copy(sm.data(), sm.data() + sm.num_elements(), out);
  for (int64_t i = 0; i < batch; ++i) {
    const int64_t c = static_cast<int64_t>(std::llround(labels.at(i)));
    out[static_cast<size_t>(i * classes + c)] -= 1.0f;
  }
  const float inv_batch = 1.0f / static_cast<float>(batch);
  const int64_t n = batch * classes;
  for (int64_t i = 0; i < n; ++i) out[i] *= inv_batch;
  return out_t;
}

Tensor Range(int64_t n) {
  const int64_t len = std::max<int64_t>(n, 0);
  Tensor out_t = NewOut(Shape({len}), DType::kInt32);
  float* out = TensorAccess::data(out_t);
  for (int64_t i = 0; i < len; ++i) out[i] = static_cast<float>(i);
  return out_t;
}

Tensor OneHot(const Tensor& indices, int64_t depth) {
  const int64_t n = indices.num_elements();
  std::vector<int64_t> dims = indices.shape().dims();
  dims.push_back(depth);
  Tensor out_t = NewOut(Shape(std::move(dims)), DType::kFloat32);
  float* out = TensorAccess::data(out_t);
  std::fill(out, out + n * depth, 0.0f);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t c = static_cast<int64_t>(std::llround(indices.at(i)));
    if (c >= 0 && c < depth) out[static_cast<size_t>(i * depth + c)] = 1.0f;
  }
  return out_t;
}

namespace {

// TopK's total order: NaN ranks above every number, then values descend
// (+0 and -0 equal), then the lower index wins. Above(x, y) says that x
// ranks above y when x has the higher index, so a tie leaves x below.
bool Above(float x, float y) {
  return x > y || (std::isnan(x) && !std::isnan(y));
}

// The whole order on element indices of one row.
bool RanksBefore(const float* row, int64_t x, int64_t y) {
  if (Above(row[x], row[y])) return true;
  if (Above(row[y], row[x])) return false;
  return x < y;
}

}  // namespace

std::pair<Tensor, Tensor> TopK(const Tensor& a, int64_t k) {
  if (a.rank() < 1) throw ValueError("TopK: scalar input");
  const int64_t last = a.shape().dim(a.rank() - 1);
  if (k < 1 || k > last) {
    throw ValueError("TopK: k=" + std::to_string(k) +
                     " out of range for last dim " + std::to_string(last));
  }
  const int64_t rows = a.num_elements() / last;
  std::vector<int64_t> dims = a.shape().dims();
  dims.back() = k;
  Shape out_shape(std::move(dims));
  Tensor values_t = NewOut(out_shape, a.dtype());
  Tensor indices_t = NewOut(out_shape, DType::kInt32);
  float* values = TensorAccess::data(values_t);
  float* indices = TensorAccess::data(indices_t);
  // One pass per row over the k best so far. Once k are held, only an
  // element that ranks above the k-th can enter; for a numeric k-th that
  // is exactly "not <= kth", and the table's skip entry finds the next
  // such element. A NaN k-th ends the row: k NaNs at the lowest indices
  // rank above everything after them. Up to the cutover the k best are
  // kept sorted in the output row, and an entrant takes the k-th's slot
  // and shifts up past each entry it ranks above; past it they are kept
  // in a heap of indices whose top is the k-th.
  auto* const skip = tensor::simd::ActiveKernels().topk_skip;
  const bool sorted = k <= kTopKScanMaxK;
  std::vector<int64_t> heap(sorted ? 0 : static_cast<size_t>(k));
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = a.data() + r * last;
    float* v = values + r * k;
    float* ix = indices + r * k;
    auto before = [row](int64_t x, int64_t y) {
      return RanksBefore(row, x, y);
    };
    // Inserts row[j] into the sorted slots [0, p], moving each entry it
    // ranks above down one slot.
    auto insert = [&](int64_t j, int64_t p) {
      const float x = row[j];
      for (; p > 0 && Above(x, v[p - 1]); --p) {
        v[p] = v[p - 1];
        ix[p] = ix[p - 1];
      }
      v[p] = x;
      ix[p] = static_cast<float>(j);
    };
    if (sorted) {
      for (int64_t j = 0; j < k; ++j) insert(j, j);
    } else {
      std::iota(heap.begin(), heap.end(), 0);
      std::make_heap(heap.begin(), heap.end(), before);
    }
    for (int64_t j = k; j < last; ++j) {
      const float kth = sorted ? v[k - 1] : row[heap.front()];
      if (std::isnan(kth)) break;
      if (row[j] <= kth) {
        if (skip != nullptr) {
          j += skip(row + j, last - j, kth);
        } else {
          while (j < last && row[j] <= kth) ++j;
        }
        if (j == last) break;
      }
      if (sorted) {
        insert(j, k - 1);
      } else {
        std::pop_heap(heap.begin(), heap.end(), before);
        heap.back() = j;
        std::push_heap(heap.begin(), heap.end(), before);
      }
    }
    if (!sorted) {
      std::sort_heap(heap.begin(), heap.end(), before);
      for (int64_t j = 0; j < k; ++j) {
        const int64_t i = heap[static_cast<size_t>(j)];
        v[j] = row[i];
        ix[j] = static_cast<float>(i);
      }
    }
  }
  return {std::move(values_t), std::move(indices_t)};
}

Tensor SumToShape(const Tensor& grad, const Shape& target) {
  if (grad.shape() == target) return grad;
  Tensor g = grad;
  // Sum away leading broadcast axes.
  while (g.rank() > target.rank()) g = ReduceSum(g, 0);
  // Sum (keepdims) axes where target dim is 1.
  for (int i = 0; i < target.rank(); ++i) {
    if (target.dim(i) == 1 && g.shape().dim(i) != 1) {
      g = ReduceSum(g, i, /*keepdims=*/true);
    }
  }
  if (g.shape() != target) {
    g = Reshape(g, target);
  }
  return g;
}

bool AllClose(const Tensor& a, const Tensor& b, float atol) {
  if (a.shape() != b.shape()) return false;
  const int64_t n = a.num_elements();
  for (int64_t i = 0; i < n; ++i) {
    if (std::fabs(a.at(i) - b.at(i)) > atol) return false;
  }
  return true;
}

// ---- Fused elementwise programs ----

namespace {

// One fused step over a block of m elements: op-at-a-time rather than
// element-at-a-time, so the FusedOp dispatch costs one switch per block
// per step and each case body is a tight loop the compiler can
// vectorize. Every case computes the same per-element expression as the
// corresponding unfused functor above (and kCast mirrors CastInPlace in
// tensor.cc); elements are independent, so the loop-nesting change
// cannot alter any value — that is what makes fused output bit-identical
// to the unfused chain.
inline void FusedApplyBlock(const FusedStep& s, const float* a,
                            const float* b, float* dst, int64_t m,
                            const tensor::simd::KernelTable* kt) {
  // Vector backend first: fused_step handles only ops whose vector
  // semantics match the scalar cases below exactly (see simd_avx2.cc),
  // so fused == unfused bit-identity holds within every backend.
  if (kt != nullptr && kt->fused_step != nullptr &&
      kt->fused_step(s, a, b, dst, m)) {
    return;
  }
#define AG_FUSED_LOOP(expr)                     \
  for (int64_t j = 0; j < m; ++j) {             \
    const float x = a[j];                       \
    dst[j] = (expr);                            \
  }                                             \
  break
#define AG_FUSED_LOOP2(expr)                    \
  for (int64_t j = 0; j < m; ++j) {             \
    const float x = a[j];                       \
    const float y = b[j];                       \
    dst[j] = (expr);                            \
  }                                             \
  break
  switch (s.op) {
    case FusedOp::kAdd: AG_FUSED_LOOP2(x + y);
    case FusedOp::kSub: AG_FUSED_LOOP2(x - y);
    case FusedOp::kMul: AG_FUSED_LOOP2(x * y);
    case FusedOp::kDiv: AG_FUSED_LOOP2(x / y);
    case FusedOp::kFloorDiv: AG_FUSED_LOOP2(std::floor(x / y));
    case FusedOp::kMod: AG_FUSED_LOOP2(PyMod(x, y));
    case FusedOp::kPow: AG_FUSED_LOOP2(std::pow(x, y));
    case FusedOp::kMaximum: AG_FUSED_LOOP2(std::max(x, y));
    case FusedOp::kMinimum: AG_FUSED_LOOP2(std::min(x, y));
    case FusedOp::kLess: AG_FUSED_LOOP2(x < y ? 1.0f : 0.0f);
    case FusedOp::kLessEqual: AG_FUSED_LOOP2(x <= y ? 1.0f : 0.0f);
    case FusedOp::kGreater: AG_FUSED_LOOP2(x > y ? 1.0f : 0.0f);
    case FusedOp::kGreaterEqual: AG_FUSED_LOOP2(x >= y ? 1.0f : 0.0f);
    case FusedOp::kEqual: AG_FUSED_LOOP2(x == y ? 1.0f : 0.0f);
    case FusedOp::kNotEqual: AG_FUSED_LOOP2(x != y ? 1.0f : 0.0f);
    case FusedOp::kLogicalAnd:
      AG_FUSED_LOOP2((x != 0.0f && y != 0.0f) ? 1.0f : 0.0f);
    case FusedOp::kLogicalOr:
      AG_FUSED_LOOP2((x != 0.0f || y != 0.0f) ? 1.0f : 0.0f);
    case FusedOp::kLogicalNot: AG_FUSED_LOOP(x == 0.0f ? 1.0f : 0.0f);
    case FusedOp::kNeg: AG_FUSED_LOOP(-x);
    case FusedOp::kExp: AG_FUSED_LOOP(std::exp(x));
    case FusedOp::kLog: AG_FUSED_LOOP(std::log(x));
    case FusedOp::kTanh: AG_FUSED_LOOP(std::tanh(x));
    case FusedOp::kSigmoid: AG_FUSED_LOOP(1.0f / (1.0f + std::exp(-x)));
    case FusedOp::kRelu: AG_FUSED_LOOP(x > 0.0f ? x : 0.0f);
    case FusedOp::kSqrt: AG_FUSED_LOOP(std::sqrt(x));
    case FusedOp::kAbs: AG_FUSED_LOOP(std::fabs(x));
    case FusedOp::kSquare: AG_FUSED_LOOP(x * x);
    case FusedOp::kSin: AG_FUSED_LOOP(std::sin(x));
    case FusedOp::kCos: AG_FUSED_LOOP(std::cos(x));
    case FusedOp::kCast:
      switch (s.cast_to) {
        case DType::kBool: AG_FUSED_LOOP((x != 0.0f) ? 1.0f : 0.0f);
        case DType::kInt32: AG_FUSED_LOOP(std::trunc(x));
        default: AG_FUSED_LOOP(x);
      }
      break;
  }
#undef AG_FUSED_LOOP
#undef AG_FUSED_LOOP2
}

}  // namespace

Tensor FusedEval(const FusedProgram& program, std::span<Tensor> inputs) {
  if (static_cast<int>(inputs.size()) != program.num_inputs ||
      program.steps.empty()) {
    throw InternalError("FusedEval: program/input arity mismatch");
  }
  Shape out_shape = inputs[0].shape();
  for (size_t i = 1; i < inputs.size(); ++i) {
    out_shape = Shape::Broadcast(out_shape, inputs[i].shape());
  }
  const int64_t n = out_shape.num_elements();
  const int r = out_shape.rank();
  const std::vector<int64_t>& out_dims = out_shape.dims();

  // Per-input addressing: full-shape operands read at the output index,
  // scalars at 0, everything else through PaddedStrides, as in BinaryOp.
  enum class Mode : uint8_t { kDirect, kScalar, kStrided };
  struct In {
    const float* p;
    Mode mode;
    std::vector<int64_t> strides;  // kStrided only, length r
  };
  std::vector<In> ins;
  ins.reserve(inputs.size());
  bool any_strided = false;
  for (const Tensor& t : inputs) {
    In in;
    in.p = t.data();
    if (t.shape() == out_shape) {
      in.mode = Mode::kDirect;
    } else if (t.num_elements() == 1) {
      in.mode = Mode::kScalar;
    } else {
      in.mode = Mode::kStrided;
      any_strided = true;
      in.strides = PaddedStrides(t.shape(), r);
    }
    ins.push_back(std::move(in));
  }
  std::vector<size_t> strided;
  for (size_t k = 0; k < ins.size(); ++k) {
    if (ins[k].mode == Mode::kStrided) strided.push_back(k);
  }

  // Output buffer: steal the first sole-owned full-shape operand (its
  // element i is consumed before element i is written — the exact-index
  // reuse rule from BinaryOp; a shared buffer fails CanReuse, including
  // the same tensor passed twice).
  Tensor* reuse = nullptr;
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (ins[i].mode == Mode::kDirect && TensorAccess::CanReuse(inputs[i])) {
      reuse = &inputs[i];
      break;
    }
  }
  Tensor out = reuse != nullptr ? std::move(*reuse)
                                : NewOut(out_shape, program.out_dtype);
  float* po = TensorAccess::data(out);

  const FusedStep* steps = program.steps.data();
  const size_t num_steps = program.steps.size();
  const int num_inputs = program.num_inputs;
  // Block evaluation: registers are rows of kFusedBlock elements (one
  // per input and per step) in a single scratch vector — a 2-input,
  // 3-step chain costs ~10 KB, still zero tensor intermediates — and
  // FusedApplyBlock runs each step op-at-a-time over the row, so the
  // per-element FusedOp dispatch of the naive interpreter becomes one
  // switch per block per step with vectorizable loop bodies. Elements
  // stay independent, so sharding and blocking cannot change any value
  // (the kernel determinism contract).
  constexpr int64_t kFusedBlock = 512;
  // Resolved once on the calling thread: ParallelFor pool helpers carry
  // no thread-local scopes, so a per-run KernelBackendScope would be
  // invisible if the table were consulted inside the shard body.
  const tensor::simd::KernelTable* kt = &tensor::simd::ActiveKernels();
  runtime::ParallelFor(n, kElementGrain, [&](int64_t begin, int64_t end) {
    // Scratch is thread-local and reused across calls: a fused node in
    // a While body runs every iteration, and a per-call heap
    // allocation here would rival the saved intermediate-tensor
    // allocations it exists to remove. Safe because the scratch's live
    // range is one shard body (no nested ParallelFor inside) and
    // shards on one thread run sequentially.
    thread_local std::vector<float> regs;
    thread_local std::vector<int64_t> idx;
    thread_local std::vector<int64_t> off;
    thread_local std::vector<const float*> arg;
    regs.resize((static_cast<size_t>(num_inputs) + num_steps) *
                static_cast<size_t>(kFusedBlock));
    const auto row = [&](int64_t reg) {
      return regs.data() + reg * kFusedBlock;
    };
    // Strided inputs walk a shared odometer over the output
    // coordinates, seeded from `begin`; scalars are splatted once per
    // shard; direct inputs are read in place, no copy.
    idx.assign(static_cast<size_t>(r), 0);
    off.assign(ins.size(), 0);
    if (any_strided) {
      int64_t rem = begin;
      for (int d = r - 1; d >= 0; --d) {
        const auto du = static_cast<size_t>(d);
        idx[du] = rem % out_dims[du];
        rem /= out_dims[du];
      }
      for (size_t k = 0; k < ins.size(); ++k) {
        if (ins[k].mode != Mode::kStrided) continue;
        for (int d = 0; d < r; ++d) {
          off[k] += ins[k].strides[static_cast<size_t>(d)] *
                    idx[static_cast<size_t>(d)];
        }
      }
    }
    arg.assign(ins.size(), nullptr);
    for (size_t k = 0; k < ins.size(); ++k) {
      if (ins[k].mode == Mode::kDirect) continue;
      // Scalar and strided operands both live in their register row.
      float* rk = row(static_cast<int64_t>(k));
      arg[k] = rk;
      if (ins[k].mode == Mode::kScalar) {
        std::fill(rk, rk + kFusedBlock, ins[k].p[0]);
      }
    }
    for (int64_t b0 = begin; b0 < end; b0 += kFusedBlock) {
      const int64_t m = std::min<int64_t>(kFusedBlock, end - b0);
      for (size_t k = 0; k < ins.size(); ++k) {
        if (ins[k].mode == Mode::kDirect) arg[k] = ins[k].p + b0;
      }
      if (any_strided) {
        // Run-based gather: the odometer advances in whole runs of the
        // innermost output dimension, so a bias-style broadcast
        // (innermost stride 0 or 1) gathers as a fill/copy per run
        // instead of paying per-element odometer arithmetic.
        const auto rl = static_cast<size_t>(r - 1);
        int64_t j = 0;
        while (j < m) {
          const int64_t run = std::min(m - j, out_dims[rl] - idx[rl]);
          for (size_t k : strided) {
            const int64_t s = ins[k].strides[rl];
            float* dst = row(static_cast<int64_t>(k)) + j;
            const float* src = ins[k].p + off[k];
            if (s == 0) {
              std::fill(dst, dst + run, *src);
            } else if (s == 1) {
              std::copy(src, src + run, dst);
            } else {
              for (int64_t t = 0; t < run; ++t) dst[t] = src[t * s];
            }
            off[k] += s * run;
          }
          j += run;
          idx[rl] += run;
          // Ripple the carry into outer dimensions.
          for (int d = r - 1;
               d >= 0 && idx[static_cast<size_t>(d)] ==
                             out_dims[static_cast<size_t>(d)];
               --d) {
            const auto du = static_cast<size_t>(d);
            idx[du] = 0;
            for (size_t k : strided) {
              off[k] -= ins[k].strides[du] * out_dims[du];
            }
            if (d == 0) break;
            idx[du - 1] += 1;
            for (size_t k : strided) off[k] += ins[k].strides[du - 1];
          }
        }
      }
      for (size_t s = 0; s < num_steps; ++s) {
        const FusedStep& st = steps[s];
        const float* av = st.a < num_inputs
                              ? arg[static_cast<size_t>(st.a)]
                              : row(st.a);
        const float* bv =
            st.b < 0 ? nullptr
                     : (st.b < num_inputs ? arg[static_cast<size_t>(st.b)]
                                          : row(st.b));
        // The last step writes the output range directly. If `out`
        // stole a direct operand's buffer, av/dst are the *same*
        // pointer (never shifted), and each element is read before it
        // is written — the exact-index reuse rule from BinaryOp.
        float* dst = s + 1 == num_steps
                         ? po + b0
                         : row(num_inputs + static_cast<int64_t>(s));
        FusedApplyBlock(st, av, bv, dst, m, kt);
      }
    }
  });
  return reuse != nullptr
             ? TensorAccess::Retag(std::move(out), program.out_dtype)
             : out;
}

}  // namespace ag
