#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "support/error.h"

namespace ag {

namespace {

// Rank-0 is by far the most common shape (loop counters, predicates,
// reduction results); every scalar tensor shares this one instance so
// Scalar() costs only the buffer acquire.
const std::shared_ptr<const Shape>& ScalarShapePtr() {
  static const auto* shape = new std::shared_ptr<const Shape>(
      std::make_shared<const Shape>());
  return *shape;
}

std::shared_ptr<const Shape> MakeShapePtr(Shape shape) {
  if (shape.rank() == 0) return ScalarShapePtr();
  return std::make_shared<const Shape>(std::move(shape));
}

tensor::PooledBuffer FilledBuffer(int64_t n, float value) {
  tensor::PooledBuffer buffer = tensor::BufferPool::Global().Acquire(n);
  float* out = buffer.mutable_data();
  for (int64_t i = 0; i < n; ++i) out[static_cast<size_t>(i)] = value;
  return buffer;
}

// Backs every default-constructed Tensor. The static handle pins the
// refcount above zero forever, so the block is never sole-owned — no
// in-place kernel can ever scribble on the shared zero.
const tensor::PooledBuffer& DefaultScalarBuffer() {
  static const auto* buffer = new tensor::PooledBuffer(
      tensor::BufferPool::Global().Adopt(std::vector<float>(1, 0.0f)));
  return *buffer;
}

}  // namespace

const char* DTypeName(DType dtype) {
  switch (dtype) {
    case DType::kFloat32:
      return "float32";
    case DType::kInt32:
      return "int32";
    case DType::kBool:
      return "bool";
    case DType::kInt8:
      return "int8";
  }
  return "unknown";
}

Tensor::Tensor()
    : shape_(ScalarShapePtr()), dtype_(DType::kFloat32),
      buffer_(DefaultScalarBuffer()) {}

Tensor::Tensor(Shape shape, DType dtype, tensor::PooledBuffer buffer)
    : shape_(MakeShapePtr(std::move(shape))),
      dtype_(dtype),
      buffer_(std::move(buffer)) {}

Tensor Tensor::Scalar(float value, DType dtype) {
  return Tensor(ScalarShapePtr(), dtype, FilledBuffer(1, value));
}

Tensor Tensor::ScalarInt(int64_t value) {
  return Scalar(static_cast<float>(value), DType::kInt32);
}

Tensor Tensor::ScalarBool(bool value) {
  return Scalar(value ? 1.0f : 0.0f, DType::kBool);
}

Tensor Tensor::FromVector(std::vector<float> values, Shape shape,
                          DType dtype) {
  if (static_cast<int64_t>(values.size()) != shape.num_elements()) {
    throw ValueError("FromVector: " + std::to_string(values.size()) +
                     " values do not fill shape " + shape.str());
  }
  return Tensor(std::move(shape), dtype,
                tensor::BufferPool::Global().Adopt(std::move(values)));
}

Tensor Tensor::FromExternal(const float* data, Shape shape, DType dtype,
                            std::shared_ptr<const void> owner) {
  if (data == nullptr && shape.num_elements() > 0) {
    throw ValueError("FromExternal: null data for shape " + shape.str());
  }
  const int64_t n = shape.num_elements();
  return Tensor(std::move(shape), dtype,
                tensor::BufferPool::Global().WrapExternal(data, n,
                                                          std::move(owner)));
}

Tensor Tensor::Zeros(Shape shape, DType dtype) {
  return Full(std::move(shape), 0.0f, dtype);
}

Tensor Tensor::Ones(Shape shape, DType dtype) {
  return Full(std::move(shape), 1.0f, dtype);
}

Tensor Tensor::Full(Shape shape, float value, DType dtype) {
  const int64_t n = shape.num_elements();
  return Tensor(std::move(shape), dtype, FilledBuffer(n, value));
}

float Tensor::scalar() const {
  if (num_elements() != 1) {
    throw ValueError("scalar() on tensor of shape " + shape_->str());
  }
  return buffer_.data()[0];
}

int64_t Tensor::scalar_int() const {
  return static_cast<int64_t>(std::llround(scalar()));
}

bool Tensor::scalar_bool() const { return scalar() != 0.0f; }

Tensor Tensor::Reshaped(Shape new_shape) const {
  return Reshaped(MakeShapePtr(std::move(new_shape)));
}

Tensor Tensor::Reshaped(std::shared_ptr<const Shape> new_shape) const {
  if (new_shape->num_elements() != num_elements()) {
    throw ValueError("cannot reshape " + shape_->str() + " to " +
                     new_shape->str());
  }
  return Tensor(std::move(new_shape), dtype_, buffer_);
}

namespace {

void CastInPlace(float* data, int64_t n, DType new_dtype) {
  if (new_dtype == DType::kBool) {
    for (int64_t i = 0; i < n; ++i) {
      data[i] = (data[i] != 0.0f) ? 1.0f : 0.0f;
    }
  } else if (new_dtype == DType::kInt32) {
    for (int64_t i = 0; i < n; ++i) data[i] = std::trunc(data[i]);
  } else if (new_dtype == DType::kInt8) {
    for (int64_t i = 0; i < n; ++i) {
      data[i] = std::min(127.0f, std::max(-128.0f, std::trunc(data[i])));
    }
  }
}

}  // namespace

Tensor Tensor::Cast(DType new_dtype) const& {
  const int64_t n = num_elements();
  tensor::PooledBuffer buffer = tensor::BufferPool::Global().Acquire(n);
  float* out = buffer.mutable_data();
  const float* in = buffer_.data();
  for (int64_t i = 0; i < n; ++i) out[i] = in[i];
  CastInPlace(out, n, new_dtype);
  return Tensor(shape_, new_dtype, std::move(buffer));
}

Tensor Tensor::Cast(DType new_dtype) && {
  if (!(buffer_.unique() && tensor::PoolingEnabled())) {
    return static_cast<const Tensor&>(*this).Cast(new_dtype);
  }
  CastInPlace(buffer_.mutable_data(), num_elements(), new_dtype);
  return Tensor(std::move(shape_), new_dtype, std::move(buffer_));
}

std::string Tensor::str() const {
  std::ostringstream os;
  os << "Tensor<" << DTypeName(dtype_) << ", " << shape_->str() << ">";
  return os.str();
}

std::string Tensor::DebugString(int max_elements) const {
  std::ostringstream os;
  os << str() << " [";
  int64_t n = std::min<int64_t>(num_elements(), max_elements);
  const float* d = buffer_.data();
  for (int64_t i = 0; i < n; ++i) {
    if (i > 0) os << ", ";
    os << d[static_cast<size_t>(i)];
  }
  if (n < num_elements()) os << ", ...";
  os << "]";
  return os.str();
}

}  // namespace ag
