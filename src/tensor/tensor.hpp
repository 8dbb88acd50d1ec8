// Tensor: a minimal dense float32 N-dimensional array.
//
// This is the numeric substrate for the whole library: images, feature maps,
// network parameters, and gradients are all Tensors. The design goals are
// value semantics (copyable, movable, no shared aliasing surprises),
// row-major contiguous storage, and a small but sufficient op set for
// CNN training and saliency computation on a CPU.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace salnov {

/// Shape of a tensor: sizes of each dimension, outermost first.
using Shape = std::vector<int64_t>;

/// Returns a human-readable "[2, 3, 4]" rendering of a shape.
std::string shape_to_string(const Shape& shape);

/// Returns the number of elements implied by a shape (product of dims).
/// A rank-0 shape has one element. Throws std::invalid_argument on any
/// negative dimension.
int64_t shape_numel(const Shape& shape);

/// Dense float32 tensor with row-major contiguous storage and value
/// semantics. All binary elementwise operations require exactly matching
/// shapes (no implicit broadcasting; the few places that need broadcast-like
/// behaviour, e.g. bias addition, implement it explicitly).
class Tensor {
 public:
  /// Creates an empty rank-1 tensor with zero elements.
  Tensor() = default;

  /// Creates a zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Creates a tensor of the given shape with the given flat contents.
  /// Throws std::invalid_argument if sizes do not match.
  Tensor(Shape shape, std::vector<float> data);

  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }

  // --- Introspection -------------------------------------------------------

  const Shape& shape() const { return shape_; }
  int64_t rank() const { return static_cast<int64_t>(shape_.size()); }
  int64_t numel() const { return static_cast<int64_t>(data_.size()); }
  /// Size of dimension `dim`; negative indices count from the back.
  int64_t dim(int64_t dim) const;
  bool empty() const { return data_.empty(); }

  const float* data() const { return data_.data(); }
  float* data() { return data_.data(); }

  // --- Element access ------------------------------------------------------

  /// Flat (row-major) element access, bounds-checked in debug builds.
  float operator[](int64_t flat_index) const { return data_[check_flat(flat_index)]; }
  float& operator[](int64_t flat_index) { return data_[check_flat(flat_index)]; }

  /// Multi-index access; index count must equal rank. Always bounds-checked.
  float at(std::initializer_list<int64_t> idx) const { return data_[offset(idx)]; }
  float& at(std::initializer_list<int64_t> idx) { return data_[offset(idx)]; }

  // --- Shape manipulation --------------------------------------------------

  /// Returns a tensor with the same data and a new shape. One dimension may
  /// be -1 and is inferred. Throws if element counts cannot match.
  Tensor reshape(Shape new_shape) const;

  /// Returns the transposed copy of a rank-2 tensor.
  Tensor transposed() const;

  /// Returns the `index`-th slice along dimension 0 (rank reduced by one).
  Tensor slice0(int64_t index) const;

  /// Writes `src` into the `index`-th slice along dimension 0.
  void set_slice0(int64_t index, const Tensor& src);

  // --- Elementwise and scalar ops -----------------------------------------

  Tensor& operator+=(const Tensor& other);
  Tensor& operator-=(const Tensor& other);
  Tensor& operator*=(const Tensor& other);  ///< Hadamard product.
  Tensor& operator+=(float value);
  Tensor& operator*=(float value);

  friend Tensor operator+(Tensor lhs, const Tensor& rhs) { return lhs += rhs; }
  friend Tensor operator-(Tensor lhs, const Tensor& rhs) { return lhs -= rhs; }
  friend Tensor operator*(Tensor lhs, const Tensor& rhs) { return lhs *= rhs; }
  friend Tensor operator*(Tensor lhs, float rhs) { return lhs *= rhs; }
  friend Tensor operator*(float lhs, Tensor rhs) { return rhs *= lhs; }

  /// Applies `fn` to every element in place and returns *this. A template
  /// on the functor, so a lambda inlines into the loop.
  template <typename Fn>
  Tensor& apply(Fn&& fn) {
    for (float& v : data_) v = fn(v);
    return *this;
  }

  void fill(float value);

  // --- Reductions ----------------------------------------------------------

  float sum() const;
  float mean() const;
  float min() const;  ///< Throws std::logic_error on empty tensor.
  float max() const;  ///< Throws std::logic_error on empty tensor.

  /// Maximum |a - b| over elements; shapes must match.
  static float max_abs_diff(const Tensor& a, const Tensor& b);

  // --- Equality ------------------------------------------------------------

  /// Exact equality of shape and every element, as floats: NaN != NaN and
  /// -0 == +0 (so not a byte compare).
  bool operator==(const Tensor& other) const;
  bool operator!=(const Tensor& other) const { return !(*this == other); }

 private:
  /// Inline so operator[] costs no call; the throw stays out of line.
  int64_t check_flat(int64_t flat_index) const {
#ifndef NDEBUG
    if (flat_index < 0 || flat_index >= numel()) throw_flat_out_of_range(flat_index);
#endif
    return flat_index;
  }
  [[noreturn]] void throw_flat_out_of_range(int64_t flat_index) const;
  int64_t offset(std::initializer_list<int64_t> idx) const;
  void require_same_shape(const Tensor& other, const char* op) const;

  Shape shape_{0};
  std::vector<float> data_;
};

/// Matrix product of rank-2 tensors: [m, k] x [k, n] -> [m, n].
Tensor matmul(const Tensor& a, const Tensor& b);

std::ostream& operator<<(std::ostream& os, const Tensor& t);

}  // namespace salnov
