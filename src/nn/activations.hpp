// Elementwise activation layers: ReLU, Sigmoid, Tanh.
//
// The paper's models use ReLU hidden activations everywhere and a sigmoid
// output layer on the autoencoder (pixels are normalized to [0, 1]).
#pragma once

#include "nn/layer.hpp"

namespace salnov::nn {

class ReLU : public Layer {
 public:
  Tensor forward(const Tensor& input, Mode mode) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string type_name() const override { return "relu"; }
  Shape output_shape(const Shape& input) const override { return input; }
  void save_config(std::ostream&) const override {}

 private:
  Tensor cached_input_;
  bool have_cache_ = false;
};

/// 1 / (1 + exp(-v)) through sigmoid_inplace (tensor/sigmoid.hpp): the same
/// bits on every kernel, without libm.
class Sigmoid : public Layer {
 public:
  Tensor forward(const Tensor& input, Mode mode) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string type_name() const override { return "sigmoid"; }
  Shape output_shape(const Shape& input) const override { return input; }
  void save_config(std::ostream&) const override {}

 private:
  Tensor cached_output_;  ///< sigmoid' = y (1 - y), so cache the output
  bool have_cache_ = false;
};

class Tanh : public Layer {
 public:
  Tensor forward(const Tensor& input, Mode mode) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string type_name() const override { return "tanh"; }
  Shape output_shape(const Shape& input) const override { return input; }
  void save_config(std::ostream&) const override {}

 private:
  Tensor cached_output_;  ///< tanh' = 1 - y^2
  bool have_cache_ = false;
};

}  // namespace salnov::nn
