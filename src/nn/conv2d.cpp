#include "nn/conv2d.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <stdexcept>

#include "tensor/gemm.hpp"
#include "tensor/serialize.hpp"
#include "tensor/workspace.hpp"

namespace salnov::nn {

Conv2d::Conv2d(const Conv2dConfig& config, Rng& rng) : config_(config) {
  validate_config();
  const int64_t fan_in = config_.in_channels * config_.kernel_h * config_.kernel_w;
  const double bound = std::sqrt(6.0 / static_cast<double>(fan_in));
  weight_ = Parameter("weight",
                      rng.uniform_tensor({config_.out_channels, config_.in_channels, config_.kernel_h,
                                          config_.kernel_w},
                                         -bound, bound));
  bias_ = Parameter("bias", Tensor::zeros({config_.out_channels}));
}

Conv2d::Conv2d(const Conv2dConfig& config, Tensor weight, Tensor bias) : config_(config) {
  validate_config();
  const Shape expected{config_.out_channels, config_.in_channels, config_.kernel_h, config_.kernel_w};
  if (weight.shape() != expected) {
    throw std::invalid_argument("Conv2d: weight shape " + shape_to_string(weight.shape()) +
                                " does not match config " + shape_to_string(expected));
  }
  if (bias.shape() != Shape{config_.out_channels}) {
    throw std::invalid_argument("Conv2d: bias shape mismatch");
  }
  weight_ = Parameter("weight", std::move(weight));
  bias_ = Parameter("bias", std::move(bias));
}

void Conv2d::validate_config() const {
  if (config_.in_channels <= 0 || config_.out_channels <= 0 || config_.kernel_h <= 0 ||
      config_.kernel_w <= 0 || config_.stride <= 0 || config_.padding < 0) {
    throw std::invalid_argument("Conv2d: invalid configuration");
  }
}

int64_t Conv2d::out_size(int64_t in_size, int64_t kernel) const {
  // A loaded model's padding and a loaded pipeline's frame size come from a
  // file, so the padded size is computed with overflow checks.
  int64_t padded = 0;
  if (__builtin_mul_overflow(config_.padding, int64_t{2}, &padded) ||
      __builtin_add_overflow(in_size, padded, &padded)) {
    throw std::invalid_argument("Conv2d: padded input size overflows");
  }
  return (padded - kernel) / config_.stride + 1;
}

Shape Conv2d::output_shape(const Shape& input) const {
  if (input.size() != 4 || input[1] != config_.in_channels) {
    throw std::invalid_argument("Conv2d: expected input [batch, " +
                                std::to_string(config_.in_channels) + ", h, w], got " +
                                shape_to_string(input));
  }
  const int64_t out_h = out_size(input[2], config_.kernel_h);
  const int64_t out_w = out_size(input[3], config_.kernel_w);
  if (out_h <= 0 || out_w <= 0) {
    throw std::invalid_argument("Conv2d: input " + shape_to_string(input) +
                                " too small for kernel/stride");
  }
  return {input[0], config_.out_channels, out_h, out_w};
}

void Conv2d::im2col(const float* x, int64_t in_h, int64_t in_w, int64_t out_h, int64_t out_w,
                    float* cols) const {
  const int64_t stride = config_.stride;
  const int64_t pad = config_.padding;
  const int64_t positions = out_h * out_w;
  float* out_row = cols;
  for (int64_t c = 0; c < config_.in_channels; ++c) {
    const float* plane = x + c * in_h * in_w;
    for (int64_t ki = 0; ki < config_.kernel_h; ++ki) {
      for (int64_t kj = 0; kj < config_.kernel_w; ++kj, out_row += positions) {
        // Output column ox reads input column first + ox * stride; only
        // ox in [lo, hi) lands inside [0, in_w), the rest is padding.
        const int64_t first = kj - pad;
        const int64_t lo = std::min(out_w, first >= 0 ? 0 : (-first + stride - 1) / stride);
        const int64_t hi =
            std::clamp(first < in_w ? (in_w - 1 - first) / stride + 1 : 0, lo, out_w);
        for (int64_t oy = 0; oy < out_h; ++oy) {
          float* dst = out_row + oy * out_w;
          const int64_t iy = oy * stride - pad + ki;
          if (iy < 0 || iy >= in_h || hi == lo) {
            std::fill(dst, dst + out_w, 0.0f);
            continue;
          }
          std::fill(dst, dst + lo, 0.0f);
          // Offsets stay relative to the row start; the only pointer formed
          // is at the first in-bounds read.
          const float* src = plane + (iy * in_w + first + lo * stride);
          copy_strided(src, stride, hi - lo, dst + lo);
          std::fill(dst + hi, dst + out_w, 0.0f);
        }
      }
    }
  }
}

void Conv2d::col2im(const float* cols, int64_t in_h, int64_t in_w, int64_t out_h, int64_t out_w,
                    float* grad_x) const {
  const int64_t positions = out_h * out_w;
  int64_t row = 0;
  for (int64_t c = 0; c < config_.in_channels; ++c) {
    float* plane = grad_x + c * in_h * in_w;
    for (int64_t ki = 0; ki < config_.kernel_h; ++ki) {
      for (int64_t kj = 0; kj < config_.kernel_w; ++kj, ++row) {
        const float* col_row = cols + row * positions;
        for (int64_t oy = 0; oy < out_h; ++oy) {
          const int64_t iy = oy * config_.stride - config_.padding + ki;
          if (iy < 0 || iy >= in_h) continue;
          float* in_row = plane + iy * in_w;
          for (int64_t ox = 0; ox < out_w; ++ox) {
            const int64_t ix = ox * config_.stride - config_.padding + kj;
            if (ix >= 0 && ix < in_w) in_row[ix] += col_row[oy * out_w + ox];
          }
        }
      }
    }
  }
}

const PackedMatrix* Conv2d::packed_weights() const {
  // As the implicit GEMM's A operand the weight is reused across samples and
  // frames.
  if (active_gemm_kernel() != GemmKernel::kSimd) return nullptr;
  return &packed_weight_.get(weight_, [&](const Tensor& w) {
    return pack_a_panels(w.data(), config_.out_channels, w.numel() / config_.out_channels);
  });
}

Tensor Conv2d::forward(const Tensor& input, Mode mode) { return run_forward(input, mode, false); }

Tensor Conv2d::run_forward(const Tensor& input, Mode mode, bool fuse_relu) {
  const Shape out_shape = output_shape(input.shape());
  const int64_t batch = input.dim(0);
  const int64_t in_h = input.dim(2);
  const int64_t in_w = input.dim(3);
  const int64_t out_h = out_shape[2];
  const int64_t out_w = out_shape[3];
  const int64_t patch = config_.in_channels * config_.kernel_h * config_.kernel_w;
  const int64_t positions = out_h * out_w;

  Tensor output(out_shape);
  const int64_t in_stride = config_.in_channels * in_h * in_w;
  const int64_t out_stride = config_.out_channels * positions;

  GemmEpilogue epilogue;
  epilogue.bias_row = bias_.value.data();
  epilogue.relu = fuse_relu;

  if (const PackedMatrix* packed = mode == Mode::kInfer ? packed_weights() : nullptr) {
    // SIMD inference: the GEMM gathers each B panel straight from the input.
    const ConvShape shape{config_.in_channels, in_h, in_w, config_.kernel_h, config_.kernel_w,
                          config_.stride, config_.padding};
    for (int64_t n = 0; n < batch; ++n) {
      conv_gemm(*packed, input.data() + n * in_stride, shape, output.data() + n * out_stride,
                epilogue);
    }
  } else {
    WorkspaceScope scratch;
    float* cols = scratch.floats(patch * positions);
    for (int64_t n = 0; n < batch; ++n) {
      im2col(input.data() + n * in_stride, in_h, in_w, out_h, out_w, cols);
      // out[n] = W [out_c, patch] x cols [patch, positions], bias fused.
      gemm_ex(weight_.value.data(), cols, output.data() + n * out_stride, config_.out_channels,
              positions, patch, epilogue);
    }
  }

  if (mode == Mode::kTrain) {
    cached_input_ = input;
    have_cache_ = true;
  }
  return output;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  require_forward_cache(have_cache_, "Conv2d");
  const Shape out_shape = output_shape(cached_input_.shape());
  if (grad_output.shape() != out_shape) {
    throw std::invalid_argument("Conv2d::backward: grad shape " + shape_to_string(grad_output.shape()) +
                                " does not match output " + shape_to_string(out_shape));
  }
  const int64_t batch = cached_input_.dim(0);
  const int64_t in_h = cached_input_.dim(2);
  const int64_t in_w = cached_input_.dim(3);
  const int64_t out_h = out_shape[2];
  const int64_t out_w = out_shape[3];
  const int64_t patch = config_.in_channels * config_.kernel_h * config_.kernel_w;
  const int64_t positions = out_h * out_w;
  const int64_t in_stride = config_.in_channels * in_h * in_w;
  const int64_t out_stride = config_.out_channels * positions;

  Tensor grad_input(cached_input_.shape());
  WorkspaceScope scratch;
  float* cols = scratch.floats(patch * positions);
  float* grad_cols = scratch.floats(patch * positions);

  for (int64_t n = 0; n < batch; ++n) {
    const float* g_n = grad_output.data() + n * out_stride;

    // dW += g_n [out_c, positions] x cols^T [positions, patch]
    im2col(cached_input_.data() + n * in_stride, in_h, in_w, out_h, out_w, cols);
    gemm_nt_accumulate(g_n, cols, weight_.grad.data(), config_.out_channels, patch, positions);

    // db += row sums of g_n
    for (int64_t oc = 0; oc < config_.out_channels; ++oc) {
      const float* plane = g_n + oc * positions;
      float acc = 0.0f;
      for (int64_t p = 0; p < positions; ++p) acc += plane[p];
      bias_.grad[oc] += acc;
    }

    // dcols = W^T [patch, out_c] x g_n [out_c, positions]; scatter to input.
    std::fill(grad_cols, grad_cols + patch * positions, 0.0f);
    gemm_tn_accumulate(weight_.value.data(), g_n, grad_cols, patch, positions,
                       config_.out_channels);
    col2im(grad_cols, in_h, in_w, out_h, out_w, grad_input.data() + n * in_stride);
  }
  return grad_input;
}

void Conv2d::save_config(std::ostream& os) const {
  write_i64(os, config_.in_channels);
  write_i64(os, config_.out_channels);
  write_i64(os, config_.kernel_h);
  write_i64(os, config_.kernel_w);
  write_i64(os, config_.stride);
  write_i64(os, config_.padding);
}

}  // namespace salnov::nn
