#include "nn/activations.hpp"

#include <cmath>

#include "tensor/sigmoid.hpp"

namespace salnov::nn {

Tensor ReLU::forward(const Tensor& input, Mode mode) {
  Tensor out = input;
  out.apply([](float v) { return v > 0.0f ? v : 0.0f; });
  if (mode == Mode::kTrain) {
    cached_input_ = input;
    have_cache_ = true;
  }
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  require_forward_cache(have_cache_, "ReLU");
  Tensor grad_input = grad_output;
  for (int64_t i = 0; i < grad_input.numel(); ++i) {
    if (cached_input_[i] <= 0.0f) grad_input[i] = 0.0f;
  }
  return grad_input;
}

Tensor Sigmoid::forward(const Tensor& input, Mode mode) {
  Tensor out = input;
  sigmoid_inplace(out.data(), out.numel());
  if (mode == Mode::kTrain) {
    cached_output_ = out;
    have_cache_ = true;
  }
  return out;
}

Tensor Sigmoid::backward(const Tensor& grad_output) {
  require_forward_cache(have_cache_, "Sigmoid");
  Tensor grad_input = grad_output;
  for (int64_t i = 0; i < grad_input.numel(); ++i) {
    const float y = cached_output_[i];
    grad_input[i] *= y * (1.0f - y);
  }
  return grad_input;
}

Tensor Tanh::forward(const Tensor& input, Mode mode) {
  Tensor out = input;
  out.apply([](float v) { return std::tanh(v); });
  if (mode == Mode::kTrain) {
    cached_output_ = out;
    have_cache_ = true;
  }
  return out;
}

Tensor Tanh::backward(const Tensor& grad_output) {
  require_forward_cache(have_cache_, "Tanh");
  Tensor grad_input = grad_output;
  for (int64_t i = 0; i < grad_input.numel(); ++i) {
    const float y = cached_output_[i];
    grad_input[i] *= 1.0f - y * y;
  }
  return grad_input;
}

}  // namespace salnov::nn
