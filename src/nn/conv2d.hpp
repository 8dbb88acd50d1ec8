// 2-D convolution layer (GEMM over unrolled patches).
//
// Layout: inputs and outputs are [batch, channels, height, width]; weights
// are [out_channels, in_channels, kernel_h, kernel_w]. Stride is uniform in
// both spatial dimensions; padding is symmetric zero padding. PilotNet uses
// valid (pad = 0) convolutions with stride 2 (5x5 kernels) and stride 1
// (3x3 kernels), both of which this layer covers.
//
// Every output is one dot product over K = (channel, ki, kj) in ascending
// order, padding reads contributing w * 0, with the bias add (and the
// following ReLU, when fused) in the GEMM epilogue. Two routes compute it:
//   * SIMD inference is an implicit GEMM (conv_gemm in tensor/gemm.hpp):
//     per sample the input is copied once into stride^2 zero-padded phase
//     planes per channel, and each 16-position B panel is gathered from them
//     into L1 with masked loads, one per output-row run, then multiplied by
//     the weight pre-packed into micro-kernel panels (a WeightCache,
//     nn/weight_cache.hpp). No im2col matrix exists.
//   * Training, backward and the scalar kernel unroll the patches with
//     im2col into a [K, positions] matrix and call gemm_ex. im2col moves
//     data in bounded row copies: for each (channel, ki, kj) row it
//     computes once the output-column range whose reads land inside the
//     input row, zero-fills the rest, and copies the interior with one
//     strided copy per output row. Offsets are taken from the row start, so
//     no pointer is formed outside the input plane.
// Both routes sum each output from +0 in ascending K with the same
// bias-then-ReLU store (gemm_ex's matvec, which a one-channel layer takes,
// included), so they are bit-identical under the SIMD kernel.
//
// Scratch (phase planes, panels, im2col/col2im buffers) comes from the
// calling thread's workspace arena: zero heap allocations after warm-up.
#pragma once

#include "nn/layer.hpp"
#include "nn/weight_cache.hpp"
#include "tensor/pack.hpp"
#include "tensor/rng.hpp"

namespace salnov::nn {

struct Conv2dConfig {
  int64_t in_channels = 0;
  int64_t out_channels = 0;
  int64_t kernel_h = 0;
  int64_t kernel_w = 0;
  int64_t stride = 1;
  int64_t padding = 0;
};

class Conv2d : public Layer {
 public:
  /// He-uniform initialized convolution.
  Conv2d(const Conv2dConfig& config, Rng& rng);

  /// Constructs from explicit weights: weight [out_c, in_c, kh, kw],
  /// bias [out_c] (used by model loading and tests).
  Conv2d(const Conv2dConfig& config, Tensor weight, Tensor bias);

  Tensor forward(const Tensor& input, Mode mode) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  std::string type_name() const override { return "conv2d"; }
  Shape output_shape(const Shape& input) const override;
  void save_config(std::ostream& os) const override;

  /// Inference forward with the following ReLU fused into the GEMM
  /// epilogue (used by Sequential in inference mode). Bit-identical to
  /// forward(kInfer) followed by a ReLU layer.
  Tensor forward_infer_fused_relu(const Tensor& input) {
    return run_forward(input, Mode::kInfer, true);
  }

  const Conv2dConfig& config() const { return config_; }
  const Parameter& weight() const { return weight_; }
  const Parameter& bias() const { return bias_; }

  /// Output spatial size for a given input spatial size.
  int64_t out_size(int64_t in_size, int64_t kernel) const;

 private:
  void validate_config() const;

  Tensor run_forward(const Tensor& input, Mode mode, bool fuse_relu);

  /// Pre-packed weight panels ([out_c, patch] as GEMM A) for the SIMD
  /// kernel's implicit GEMM, or nullptr under the scalar kernel.
  const PackedMatrix* packed_weights() const;

  /// Fills `cols` ([in_c * kh * kw, out_h * out_w]) with the unrolled
  /// patches of one sample `x` ([in_c, in_h, in_w] flat).
  void im2col(const float* x, int64_t in_h, int64_t in_w, int64_t out_h, int64_t out_w,
              float* cols) const;

  /// Scatter-adds column gradients back into one sample's input gradient.
  void col2im(const float* cols, int64_t in_h, int64_t in_w, int64_t out_h, int64_t out_w,
              float* grad_x) const;

  Conv2dConfig config_;
  Parameter weight_;  ///< [out_c, in_c, kh, kw]
  Parameter bias_;    ///< [out_c]
  Tensor cached_input_;
  bool have_cache_ = false;
  WeightCache<PackedMatrix> packed_weight_;
};

}  // namespace salnov::nn
