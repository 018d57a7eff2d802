// Dense CPU tensors — the kernel substrate for both the eager runtime and
// the graph Session, standing in for TensorFlow's CPU kernels.
//
// Storage note: all dtypes share a float buffer. The DType tag drives the
// same type-checking semantics TF enforces (e.g. `tf.cond` predicates must
// be kBool, loop counters kInt32), while keeping kernels compact. Integer
// values used in the benchmarks (indices, vocab ids, counters) are well
// within float32's exact-integer range.
//
// Memory note: the buffer is a tensor::PooledBuffer — an intrusive
// refcounted handle whose storage is recycled through the process-wide
// BufferPool (allocator.h) instead of freed. The public API stays
// immutable: mutation is only reachable through detail::TensorAccess,
// which kernels use to write into sole-owned buffers (see the in-place
// safety rules in DESIGN.md §4g).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tensor/allocator.h"
#include "tensor/shape.h"

namespace ag {

namespace detail {
struct TensorAccess;
}  // namespace detail

// kInt8 is the quantized-inference storage tag (quant.h): values are
// integers in [-128, 127] held, like every dtype, in the float buffer.
// It is appended after kBool so serialized dtype codes are stable.
enum class DType : std::uint8_t { kFloat32, kInt32, kBool, kInt8 };

[[nodiscard]] const char* DTypeName(DType dtype);

// An immutable, cheaply copyable dense tensor. The data buffer is shared
// between copies; all ops produce new tensors. A moved-from Tensor holds
// no buffer and may only be destroyed or assigned to.
class Tensor {
 public:
  // Default: float32 scalar 0 (shares one pinned static buffer).
  Tensor();

  // Scalar constructors.
  static Tensor Scalar(float value, DType dtype = DType::kFloat32);
  static Tensor ScalarInt(int64_t value);
  static Tensor ScalarBool(bool value);

  // Dense constructors. FromVector adopts the vector's heap storage
  // without copying; the storage joins the buffer pool on release.
  static Tensor FromVector(std::vector<float> values, Shape shape,
                           DType dtype = DType::kFloat32);
  // Wraps read-only external storage without copying — the zero-copy
  // path for mmap'd artifact weights (src/artifact). `owner` keeps the
  // backing memory (e.g. the file mapping) alive as long as any handle
  // to this buffer exists. The result can never be written in place:
  // detail::TensorAccess::CanReuse()/SoleOwner() are false for it.
  static Tensor FromExternal(const float* data, Shape shape, DType dtype,
                             std::shared_ptr<const void> owner);
  static Tensor Zeros(Shape shape, DType dtype = DType::kFloat32);
  static Tensor Ones(Shape shape, DType dtype = DType::kFloat32);
  static Tensor Full(Shape shape, float value, DType dtype = DType::kFloat32);

  [[nodiscard]] const Shape& shape() const { return *shape_; }
  [[nodiscard]] DType dtype() const { return dtype_; }
  // False only for a moved-from Tensor (no shape, no buffer); such a
  // value may only be destroyed or assigned to, so callers that might
  // see one (e.g. instrumentation over inputs an in-place kernel stole)
  // must check before touching shape()/data().
  [[nodiscard]] bool defined() const { return shape_ != nullptr; }
  [[nodiscard]] int64_t num_elements() const {
    return shape_->num_elements();
  }
  [[nodiscard]] int rank() const { return shape_->rank(); }

  [[nodiscard]] const float* data() const { return buffer_.data(); }

  // Scalar accessors; throw ValueError unless num_elements() == 1.
  [[nodiscard]] float scalar() const;
  [[nodiscard]] int64_t scalar_int() const;
  [[nodiscard]] bool scalar_bool() const;

  // Element access by flat index (no bounds check in release-critical path).
  [[nodiscard]] float at(int64_t flat_index) const {
    return buffer_.data()[static_cast<size_t>(flat_index)];
  }

  // Returns a tensor with the same buffer and a new compatible shape.
  // The alias bumps the buffer refcount, which is exactly what blocks
  // in-place kernels from ever mutating a reshaped view's storage.
  [[nodiscard]] Tensor Reshaped(Shape new_shape) const;
  // Same, sharing `new_shape` with the result instead of allocating one.
  [[nodiscard]] Tensor Reshaped(std::shared_ptr<const Shape> new_shape) const;
  // Returns a copy with the dtype tag changed (values reinterpreted
  // semantically: bool<->float via 0/1, int<->float via truncation).
  // The rvalue overload rewrites the buffer in place when sole-owned.
  [[nodiscard]] Tensor Cast(DType new_dtype) const&;
  [[nodiscard]] Tensor Cast(DType new_dtype) &&;

  [[nodiscard]] std::string str() const;  // human-readable summary
  [[nodiscard]] std::string DebugString(int max_elements = 16) const;

 private:
  friend struct detail::TensorAccess;

  Tensor(Shape shape, DType dtype, tensor::PooledBuffer buffer);
  Tensor(std::shared_ptr<const Shape> shape, DType dtype,
         tensor::PooledBuffer buffer)
      : shape_(std::move(shape)), dtype_(dtype), buffer_(std::move(buffer)) {}

  // The shape is shared between copies (it is immutable), so copying a
  // Tensor costs two refcount bumps and no heap allocation — copies are
  // pervasive in both the eager and graph execution paths.
  std::shared_ptr<const Shape> shape_;
  DType dtype_ = DType::kFloat32;
  tensor::PooledBuffer buffer_;
};

namespace detail {

// The only door out of Tensor's immutable API, used by the kernels in
// tensor_ops.cc / exec/kernels.cc and by the aliasing tests. Keeping it
// a named friend (not public methods) makes every mutation site
// greppable and keeps callers honest about the safety rules:
//
//   - Uninitialized() buffers are private until published; writing them
//     is always safe.
//   - In-place writes to an *existing* buffer require CanReuse(): the
//     handle is the sole owner (no alias via copy/Reshaped/memo/feed
//     can observe the write) AND pooling is enabled (the escape hatch
//     must restore the seed copy-always path byte-for-byte).
struct TensorAccess {
  // A tensor over a pool-acquired buffer with unspecified contents; the
  // caller must write all num_elements() floats before publishing it.
  static Tensor Uninitialized(Shape shape, DType dtype) {
    const int64_t n = shape.num_elements();
    return Tensor(std::move(shape), dtype,
                  tensor::BufferPool::Global().Acquire(n));
  }

  static float* data(Tensor& t) { return t.buffer_.mutable_data(); }

  // True when t's buffer may be mutated through t: sole-owned and the
  // pool (and with it, in-place reuse) is enabled on this thread.
  static bool CanReuse(const Tensor& t) {
    return t.buffer_.unique() && tensor::PoolingEnabled();
  }
  // Sole ownership alone (ignores the pooling knob) — for structural
  // reuse that does not change observable allocation behavior.
  static bool SoleOwner(const Tensor& t) { return t.buffer_.unique(); }

  // Same buffer and shape, new dtype tag (comparison kernels produce
  // kBool over a reused float buffer).
  static Tensor Retag(Tensor t, DType dtype) {
    return Tensor(std::move(t.shape_), dtype, std::move(t.buffer_));
  }
  // Same buffer, caller-supplied shape/dtype (shape must cover the
  // buffer's size).
  static Tensor WithShape(Tensor t, Shape shape, DType dtype) {
    return Tensor(std::move(shape), dtype, std::move(t.buffer_));
  }

  // Identity of the underlying storage, for aliasing tests.
  static const float* raw(const Tensor& t) {
    return t.buffer_ ? t.buffer_.data() : nullptr;
  }
};

}  // namespace detail

}  // namespace ag
