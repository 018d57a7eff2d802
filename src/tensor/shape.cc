#include "tensor/shape.h"

#include <sstream>

#include "support/error.h"

namespace ag {

int64_t Shape::dim(int axis) const {
  return dims_.at(static_cast<size_t>(ResolveAxis(axis)));
}

int64_t Shape::num_elements() const {
  int64_t n = 1;
  for (int64_t d : dims_) n *= d;
  return n;
}

std::vector<int64_t> Shape::strides() const {
  std::vector<int64_t> s(dims_.size(), 1);
  for (int i = static_cast<int>(dims_.size()) - 2; i >= 0; --i) {
    s[static_cast<size_t>(i)] =
        s[static_cast<size_t>(i) + 1] * dims_[static_cast<size_t>(i) + 1];
  }
  return s;
}

int Shape::ResolveAxis(int axis) const {
  int r = rank();
  int resolved = axis < 0 ? axis + r : axis;
  if (resolved < 0 || resolved >= r) {
    throw ValueError("axis " + std::to_string(axis) +
                     " out of range for shape " + str());
  }
  return resolved;
}

std::string Shape::str() const {
  std::ostringstream os;
  os << "(";
  for (size_t i = 0; i < dims_.size(); ++i) {
    if (i > 0) os << ", ";
    os << dims_[i];
  }
  os << ")";
  return os.str();
}

bool Shape::BroadcastCompatible(const Shape& a, const Shape& b) {
  int ra = a.rank();
  int rb = b.rank();
  int r = std::max(ra, rb);
  for (int i = 0; i < r; ++i) {
    int64_t da = i < ra ? a.dims()[static_cast<size_t>(ra - 1 - i)] : 1;
    int64_t db = i < rb ? b.dims()[static_cast<size_t>(rb - 1 - i)] : 1;
    if (da != db && da != 1 && db != 1) return false;
  }
  return true;
}

Shape Shape::Broadcast(const Shape& a, const Shape& b) {
  if (!BroadcastCompatible(a, b)) {
    throw ValueError("shapes " + a.str() + " and " + b.str() +
                     " are not broadcast-compatible");
  }
  int ra = a.rank();
  int rb = b.rank();
  int r = std::max(ra, rb);
  std::vector<int64_t> dims(static_cast<size_t>(r));
  for (int i = 0; i < r; ++i) {
    int64_t da = i < ra ? a.dims()[static_cast<size_t>(ra - 1 - i)] : 1;
    int64_t db = i < rb ? b.dims()[static_cast<size_t>(rb - 1 - i)] : 1;
    // A size-1 dimension stretches to the other's, including to 0.
    dims[static_cast<size_t>(r - 1 - i)] = da == 1 ? db : da;
  }
  return Shape(std::move(dims));
}

}  // namespace ag
