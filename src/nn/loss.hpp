// Training losses.
//
// A Loss maps (prediction, target) to a scalar and provides the gradient of
// that scalar w.r.t. the prediction. MseLoss is the Richter & Roy baseline
// loss; SsimLoss (see ssim_loss.hpp) is the paper's proposed loss.
#pragma once

#include <string>

#include "tensor/tensor.hpp"

namespace salnov::nn {

class Loss {
 public:
  virtual ~Loss() = default;

  /// Scalar loss value. Shapes of `prediction` and `target` must match.
  virtual double value(const Tensor& prediction, const Tensor& target) const = 0;

  /// dLoss/dprediction, same shape as `prediction`.
  virtual Tensor gradient(const Tensor& prediction, const Tensor& target) const = 0;

  virtual std::string name() const = 0;

 protected:
  static void require_same_shape(const Tensor& prediction, const Tensor& target, const char* loss);
};

/// Mean squared error averaged over every element.
class MseLoss : public Loss {
 public:
  double value(const Tensor& prediction, const Tensor& target) const override;
  Tensor gradient(const Tensor& prediction, const Tensor& target) const override;
  std::string name() const override { return "mse"; }
};

}  // namespace salnov::nn
