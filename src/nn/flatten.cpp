#include "nn/flatten.hpp"

#include <stdexcept>

namespace salnov::nn {

Shape Flatten::output_shape(const Shape& input) const {
  if (input.empty()) throw std::invalid_argument("Flatten: rank-0 input");
  return {input[0], shape_numel(Shape(input.begin() + 1, input.end()))};
}

Tensor Flatten::forward(const Tensor& input, Mode mode) {
  if (mode == Mode::kTrain) {
    cached_input_shape_ = input.shape();
    have_cache_ = true;
  }
  return input.reshape(output_shape(input.shape()));
}

Tensor Flatten::backward(const Tensor& grad_output) {
  require_forward_cache(have_cache_, "Flatten");
  return grad_output.reshape(cached_input_shape_);
}

}  // namespace salnov::nn
