#include "nn/loss.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace salnov::nn {

void Loss::require_same_shape(const Tensor& prediction, const Tensor& target, const char* loss) {
  if (prediction.shape() != target.shape()) {
    throw std::invalid_argument(std::string(loss) + ": prediction " + shape_to_string(prediction.shape()) +
                                " vs target " + shape_to_string(target.shape()));
  }
  if (prediction.numel() == 0) {
    throw std::invalid_argument(std::string(loss) + ": empty tensors");
  }
}

double MseLoss::value(const Tensor& prediction, const Tensor& target) const {
  require_same_shape(prediction, target, "MseLoss");
  double acc = 0.0;
  for (int64_t i = 0; i < prediction.numel(); ++i) {
    const double d = static_cast<double>(prediction[i]) - static_cast<double>(target[i]);
    acc += d * d;
  }
  return acc / static_cast<double>(prediction.numel());
}

Tensor MseLoss::gradient(const Tensor& prediction, const Tensor& target) const {
  require_same_shape(prediction, target, "MseLoss");
  const float scale = 2.0f / static_cast<float>(prediction.numel());
  Tensor grad = prediction;
  grad -= target;
  grad *= scale;
  return grad;
}

}  // namespace salnov::nn
