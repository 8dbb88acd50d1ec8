#include "nn/optimizer.hpp"

#include <cmath>
#include <stdexcept>

namespace salnov::nn {

void Optimizer::zero_grad(const std::vector<Parameter*>& params) {
  for (Parameter* p : params) p->zero_grad();
}

Adam::Adam(double learning_rate, double beta1, double beta2, double epsilon)
    : lr_(learning_rate), beta1_(beta1), beta2_(beta2), epsilon_(epsilon) {
  if (learning_rate <= 0.0) throw std::invalid_argument("Adam: learning rate must be positive");
  if (beta1 < 0.0 || beta1 >= 1.0 || beta2 < 0.0 || beta2 >= 1.0) {
    throw std::invalid_argument("Adam: betas must be in [0, 1)");
  }
}

void Adam::step(const std::vector<Parameter*>& params) {
  if (m_.empty()) {
    for (const Parameter* p : params) {
      m_.emplace_back(p->value.shape());
      v_.emplace_back(p->value.shape());
    }
  }
  if (m_.size() != params.size()) {
    throw std::logic_error("Adam: parameter list changed between steps");
  }
  ++t_;
  const double bias1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bias2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (size_t i = 0; i < params.size(); ++i) {
    Parameter* p = params[i];
    float* value = p->value.data();
    const float* grad = p->grad.data();
    float* m = m_[i].data();
    float* v = v_[i].data();
    for (int64_t j = 0; j < p->value.numel(); ++j) {
      m[j] = static_cast<float>(beta1_ * m[j] + (1.0 - beta1_) * grad[j]);
      v[j] = static_cast<float>(beta2_ * v[j] + (1.0 - beta2_) * grad[j] * grad[j]);
      const double m_hat = m[j] / bias1;
      const double v_hat = v[j] / bias2;
      value[j] -= static_cast<float>(lr_ * m_hat / (std::sqrt(v_hat) + epsilon_));
    }
    p->bump_version();
  }
}

}  // namespace salnov::nn
