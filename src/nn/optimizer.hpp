// First-order optimizers: Adam, the one every training loop uses.
//
// Stateful optimizers key their per-parameter state by position in the
// parameter list, so the same optimizer instance must always be stepped
// with the same model's parameter list (the usual contract).
#pragma once

#include <vector>

#include "nn/layer.hpp"

namespace salnov::nn {

class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// Applies one update step from the accumulated gradients. Does not zero
  /// the gradients; call zero_grad() (or Sequential::zero_grad) before the
  /// next backward pass.
  virtual void step(const std::vector<Parameter*>& params) = 0;

  static void zero_grad(const std::vector<Parameter*>& params);
};

class Adam : public Optimizer {
 public:
  explicit Adam(double learning_rate, double beta1 = 0.9, double beta2 = 0.999, double epsilon = 1e-8);
  void step(const std::vector<Parameter*>& params) override;

 private:
  double lr_;
  double beta1_;
  double beta2_;
  double epsilon_;
  int64_t t_ = 0;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
};

}  // namespace salnov::nn
