// 2-D convolution layer (im2col + GEMM).
//
// Layout: inputs and outputs are [batch, channels, height, width]; weights
// are [out_channels, in_channels, kernel_h, kernel_w]. Stride is uniform in
// both spatial dimensions; padding is symmetric zero padding. PilotNet uses
// valid (pad = 0) convolutions with stride 2 (5x5 kernels) and stride 1
// (3x3 kernels), both of which this layer covers.
//
// The per-sample im2col/col2im buffers come from the calling thread's
// workspace arena (zero heap allocations after warm-up), the bias add is
// fused into the GEMM epilogue, and inference forwards reuse the weight
// matrix pre-packed into micro-kernel panels (lazy, invalidated via
// Parameter::version).
//
// im2col moves data in bounded row copies rather than a per-element
// bounds-checked gather: for each (channel, ki, kj) row it computes once
// the output-column range whose reads land inside the input row, zero-fills
// the columns outside it (and every output row that reads padding), and
// copies the interior with memcpy at stride 1 or a constant-stride loop at
// stride 2. Offsets are taken from the row start, so no pointer is formed
// outside the input plane. The unrolled matrix is byte-identical to the
// gather's, so the GEMMs and every output bit are unchanged.
#pragma once

#include <atomic>
#include <mutex>

#include "nn/layer.hpp"
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
  /// kernel, or nullptr when unavailable. Thread-safe; repacks when
  /// weight_.version moved.
  const PackedMatrix* packed_weights();

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

  std::mutex pack_mutex_;
  std::atomic<uint64_t> packed_version_{0};  ///< weight version + 1; 0 = not packed
  PackedMatrix packed_weight_;
};

}  // namespace salnov::nn
