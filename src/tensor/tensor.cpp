#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "tensor/gemm.hpp"

namespace salnov {

std::string shape_to_string(const Shape& shape) {
  std::ostringstream os;
  os << '[';
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i != 0) os << ", ";
    os << shape[i];
  }
  os << ']';
  return os.str();
}

int64_t shape_numel(const Shape& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    if (d < 0) {
      throw std::invalid_argument("shape_numel: negative dimension in " + shape_to_string(shape));
    }
    if (__builtin_mul_overflow(n, d, &n)) {
      throw std::invalid_argument("shape_numel: element count overflows int64 in " +
                                  shape_to_string(shape));
    }
  }
  return n;
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)), data_(static_cast<size_t>(shape_numel(shape_)), 0.0f) {}

Tensor::Tensor(Shape shape, std::vector<float> data) : shape_(std::move(shape)), data_(std::move(data)) {
  if (shape_numel(shape_) != static_cast<int64_t>(data_.size())) {
    throw std::invalid_argument("Tensor: data size " + std::to_string(data_.size()) +
                                " does not match shape " + shape_to_string(shape_));
  }
}

int64_t Tensor::dim(int64_t d) const {
  const int64_t r = rank();
  if (d < 0) d += r;
  if (d < 0 || d >= r) {
    throw std::out_of_range("Tensor::dim: dimension " + std::to_string(d) + " out of range for rank " +
                            std::to_string(r));
  }
  return shape_[static_cast<size_t>(d)];
}

void Tensor::throw_flat_out_of_range(int64_t flat_index) const {
  throw std::out_of_range("Tensor: flat index " + std::to_string(flat_index) + " out of range [0, " +
                          std::to_string(numel()) + ")");
}

int64_t Tensor::offset(std::initializer_list<int64_t> idx) const {
  if (static_cast<int64_t>(idx.size()) != rank()) {
    throw std::invalid_argument("Tensor::at: got " + std::to_string(idx.size()) + " indices for rank " +
                                std::to_string(rank()));
  }
  int64_t off = 0;
  size_t d = 0;
  for (int64_t i : idx) {
    if (i < 0 || i >= shape_[d]) {
      throw std::out_of_range("Tensor::at: index " + std::to_string(i) + " out of range for dim " +
                              std::to_string(d) + " of shape " + shape_to_string(shape_));
    }
    off = off * shape_[d] + i;
    ++d;
  }
  return off;
}

void Tensor::require_same_shape(const Tensor& other, const char* op) const {
  if (shape_ != other.shape_) {
    throw std::invalid_argument(std::string("Tensor::") + op + ": shape mismatch " +
                                shape_to_string(shape_) + " vs " + shape_to_string(other.shape_));
  }
}

Tensor Tensor::reshape(Shape new_shape) const {
  int64_t inferred_at = -1;
  int64_t known = 1;
  for (size_t i = 0; i < new_shape.size(); ++i) {
    if (new_shape[i] == -1) {
      if (inferred_at != -1) {
        throw std::invalid_argument("Tensor::reshape: more than one -1 in " + shape_to_string(new_shape));
      }
      inferred_at = static_cast<int64_t>(i);
    } else {
      known *= new_shape[i];
    }
  }
  if (inferred_at != -1) {
    if (known == 0 || numel() % known != 0) {
      throw std::invalid_argument("Tensor::reshape: cannot infer dimension for " +
                                  shape_to_string(new_shape) + " from " + std::to_string(numel()) +
                                  " elements");
    }
    new_shape[static_cast<size_t>(inferred_at)] = numel() / known;
  }
  if (shape_numel(new_shape) != numel()) {
    throw std::invalid_argument("Tensor::reshape: " + shape_to_string(shape_) + " -> " +
                                shape_to_string(new_shape) + " changes element count");
  }
  return Tensor(std::move(new_shape), data_);
}

Tensor Tensor::transposed() const {
  if (rank() != 2) {
    throw std::logic_error("Tensor::transposed: requires rank 2, got " + shape_to_string(shape_));
  }
  const int64_t rows = shape_[0];
  const int64_t cols = shape_[1];
  Tensor out({cols, rows});
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      out.data_[static_cast<size_t>(c * rows + r)] = data_[static_cast<size_t>(r * cols + c)];
    }
  }
  return out;
}

Tensor Tensor::slice0(int64_t index) const {
  if (rank() < 1) throw std::logic_error("Tensor::slice0: rank-0 tensor");
  if (index < 0 || index >= shape_[0]) {
    throw std::out_of_range("Tensor::slice0: index " + std::to_string(index) + " out of range for " +
                            shape_to_string(shape_));
  }
  Shape sub(shape_.begin() + 1, shape_.end());
  const int64_t stride = shape_numel(sub);
  Tensor out(sub);
  std::copy_n(data_.begin() + index * stride, stride, out.data_.begin());
  return out;
}

void Tensor::set_slice0(int64_t index, const Tensor& src) {
  if (rank() < 1) throw std::logic_error("Tensor::set_slice0: rank-0 tensor");
  if (index < 0 || index >= shape_[0]) {
    throw std::out_of_range("Tensor::set_slice0: index " + std::to_string(index) + " out of range for " +
                            shape_to_string(shape_));
  }
  const int64_t stride = numel() / std::max<int64_t>(shape_[0], 1);
  if (src.numel() != stride) {
    throw std::invalid_argument("Tensor::set_slice0: slice has " + std::to_string(stride) +
                                " elements but source has " + std::to_string(src.numel()));
  }
  std::copy_n(src.data_.begin(), stride, data_.begin() + index * stride);
}

Tensor& Tensor::operator+=(const Tensor& other) {
  require_same_shape(other, "operator+=");
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& other) {
  require_same_shape(other, "operator-=");
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(const Tensor& other) {
  require_same_shape(other, "operator*=");
  for (size_t i = 0; i < data_.size(); ++i) data_[i] *= other.data_[i];
  return *this;
}

Tensor& Tensor::operator+=(float value) {
  for (float& v : data_) v += value;
  return *this;
}

Tensor& Tensor::operator*=(float value) {
  for (float& v : data_) v *= value;
  return *this;
}

void Tensor::fill(float value) { std::fill(data_.begin(), data_.end(), value); }

float Tensor::sum() const {
  // Kahan summation: training statistics accumulate over many thousands of
  // elements and plain float accumulation loses precision noticeably.
  float s = 0.0f;
  float c = 0.0f;
  for (float v : data_) {
    const float y = v - c;
    const float t = s + y;
    c = (t - s) - y;
    s = t;
  }
  return s;
}

float Tensor::mean() const {
  if (data_.empty()) throw std::logic_error("Tensor::mean: empty tensor");
  return sum() / static_cast<float>(data_.size());
}

float Tensor::min() const {
  if (data_.empty()) throw std::logic_error("Tensor::min: empty tensor");
  return *std::min_element(data_.begin(), data_.end());
}

float Tensor::max() const {
  if (data_.empty()) throw std::logic_error("Tensor::max: empty tensor");
  return *std::max_element(data_.begin(), data_.end());
}

float Tensor::max_abs_diff(const Tensor& a, const Tensor& b) {
  a.require_same_shape(b, "max_abs_diff");
  float m = 0.0f;
  for (size_t i = 0; i < a.data_.size(); ++i) {
    m = std::max(m, std::abs(a.data_[i] - b.data_[i]));
  }
  return m;
}

bool Tensor::operator==(const Tensor& other) const {
  if (shape_ != other.shape_) return false;
  // Fixed blocks with a branch-free test inside, which the compiler
  // vectorizes at the baseline ISA; a difference exits at its block's end.
  // Float equality throughout: NaN != NaN, -0 == +0.
  constexpr size_t kBlock = 256;
  const float* a = data_.data();
  const float* b = other.data_.data();
  const size_t n = data_.size();
  for (size_t begin = 0; begin < n; begin += kBlock) {
    const size_t end = std::min(n, begin + kBlock);
    unsigned differ = 0;  // a bool accumulator does not vectorize (GCC 12)
    for (size_t i = begin; i < end; ++i) differ |= a[i] != b[i];
    if (differ != 0) return false;
  }
  return true;
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  if (a.rank() != 2 || b.rank() != 2) {
    throw std::invalid_argument("matmul: requires rank-2 tensors, got " + shape_to_string(a.shape()) +
                                " and " + shape_to_string(b.shape()));
  }
  const int64_t m = a.dim(0);
  const int64_t k = a.dim(1);
  if (b.dim(0) != k) {
    throw std::invalid_argument("matmul: inner dimensions differ: " + shape_to_string(a.shape()) +
                                " x " + shape_to_string(b.shape()));
  }
  const int64_t n = b.dim(1);
  Tensor out({m, n});
  gemm(a.data(), b.data(), out.data(), m, n, k);
  return out;
}

std::ostream& operator<<(std::ostream& os, const Tensor& t) {
  os << "Tensor" << shape_to_string(t.shape()) << " {";
  const int64_t limit = std::min<int64_t>(t.numel(), 16);
  for (int64_t i = 0; i < limit; ++i) {
    if (i != 0) os << ", ";
    os << t[i];
  }
  if (t.numel() > limit) os << ", ...";
  os << '}';
  return os;
}

}  // namespace salnov
