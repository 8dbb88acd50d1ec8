#include "saliency/lrp.hpp"

#include <cmath>
#include <stdexcept>

#include "nn/conv2d.hpp"
#include "nn/dense.hpp"

namespace salnov::saliency {
namespace {

double stabilized(double z, double epsilon) { return z + (z >= 0.0 ? epsilon : -epsilon); }

/// Dense epsilon-rule: R_in_i = x_i * sum_j w_ij * R_j / stab(z_j).
Tensor propagate_dense(const nn::Dense& dense, const Tensor& input, const Tensor& output,
                       const Tensor& relevance, double epsilon) {
  const int64_t batch = input.dim(0);
  const int64_t in_f = dense.in_features();
  const int64_t out_f = dense.out_features();
  const Tensor& w = dense.weight().value;  // [in, out]
  Tensor result(input.shape());
  for (int64_t n = 0; n < batch; ++n) {
    const float* x = input.data() + n * in_f;
    const float* z = output.data() + n * out_f;
    const float* r = relevance.data() + n * out_f;
    float* out = result.data() + n * in_f;
    // factor_j = R_j / stab(z_j); R_in_i = x_i * sum_j w_ij factor_j.
    std::vector<double> factor(static_cast<size_t>(out_f));
    for (int64_t j = 0; j < out_f; ++j) {
      factor[static_cast<size_t>(j)] = r[j] / stabilized(z[j], epsilon);
    }
    for (int64_t i = 0; i < in_f; ++i) {
      const float* w_row = w.data() + i * out_f;
      double acc = 0.0;
      for (int64_t j = 0; j < out_f; ++j) acc += w_row[j] * factor[static_cast<size_t>(j)];
      out[i] = static_cast<float>(static_cast<double>(x[i]) * acc);
    }
  }
  return result;
}

/// Conv epsilon-rule, direct loops over output positions and kernel taps.
Tensor propagate_conv(const nn::Conv2d& conv, const Tensor& input, const Tensor& output,
                      const Tensor& relevance, double epsilon) {
  const auto& cfg = conv.config();
  const int64_t batch = input.dim(0);
  const int64_t in_h = input.dim(2), in_w = input.dim(3);
  const int64_t out_h = output.dim(2), out_w = output.dim(3);
  const Tensor& w = conv.weight().value;  // [oc, ic, kh, kw]
  Tensor result(input.shape());

  for (int64_t n = 0; n < batch; ++n) {
    const float* x_n = input.data() + n * cfg.in_channels * in_h * in_w;
    const float* z_n = output.data() + n * cfg.out_channels * out_h * out_w;
    const float* r_n = relevance.data() + n * cfg.out_channels * out_h * out_w;
    float* res_n = result.data() + n * cfg.in_channels * in_h * in_w;
    for (int64_t oc = 0; oc < cfg.out_channels; ++oc) {
      const float* w_oc = w.data() + oc * cfg.in_channels * cfg.kernel_h * cfg.kernel_w;
      for (int64_t oy = 0; oy < out_h; ++oy) {
        for (int64_t ox = 0; ox < out_w; ++ox) {
          const int64_t out_at = (oc * out_h + oy) * out_w + ox;
          const double factor = r_n[out_at] / stabilized(z_n[out_at], epsilon);
          if (factor == 0.0) continue;
          for (int64_t ic = 0; ic < cfg.in_channels; ++ic) {
            const float* w_ic = w_oc + ic * cfg.kernel_h * cfg.kernel_w;
            const float* x_plane = x_n + ic * in_h * in_w;
            float* res_plane = res_n + ic * in_h * in_w;
            for (int64_t ki = 0; ki < cfg.kernel_h; ++ki) {
              const int64_t iy = oy * cfg.stride - cfg.padding + ki;
              if (iy < 0 || iy >= in_h) continue;
              for (int64_t kj = 0; kj < cfg.kernel_w; ++kj) {
                const int64_t ix = ox * cfg.stride - cfg.padding + kj;
                if (ix < 0 || ix >= in_w) continue;
                res_plane[iy * in_w + ix] += static_cast<float>(
                    static_cast<double>(x_plane[iy * in_w + ix]) * w_ic[ki * cfg.kernel_w + kj] * factor);
              }
            }
          }
        }
      }
    }
  }
  return result;
}

}  // namespace

Tensor LayerwiseRelevancePropagation::relevance(nn::Sequential& model, const Image& input) const {
  const Tensor nchw = input.as_nchw();
  const auto activations = model.forward_collect(nchw);
  if (activations.empty()) throw std::invalid_argument("LRP: empty model");

  // Start from the model output itself as the relevance to explain.
  Tensor r = activations.back();
  for (size_t i = model.size(); i-- > 0;) {
    const Tensor& layer_input = i == 0 ? nchw : activations[i - 1];
    const Tensor& layer_output = activations[i];
    const nn::Layer& layer = model.layer(i);
    const std::string type = layer.type_name();
    if (type == "dense") {
      r = propagate_dense(dynamic_cast<const nn::Dense&>(layer), layer_input, layer_output, r, epsilon_);
    } else if (type == "conv2d") {
      r = propagate_conv(dynamic_cast<const nn::Conv2d&>(layer), layer_input, layer_output, r, epsilon_);
    } else if (type == "flatten") {
      r = r.reshape(layer_input.shape());
    } else if (type == "relu" || type == "sigmoid" || type == "tanh") {
      // Activation layers pass relevance through unchanged.
    } else {
      throw std::invalid_argument("LRP: unsupported layer type '" + type + "'");
    }
  }
  return r;
}

Image LayerwiseRelevancePropagation::compute(nn::Sequential& model, const Image& input) {
  Tensor r = relevance(model, input);
  r.apply([](float v) { return std::abs(v); });
  Image mask(input.height(), input.width(), r.reshape({input.height(), input.width()}));
  mask.normalize_minmax();
  return mask;
}

}  // namespace salnov::saliency
