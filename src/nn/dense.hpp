// Fully-connected layer: y = x W + b.
//
// The bias add is fused into the GEMM epilogue, and inference forwards with
// batch > 1 use weight panels pre-packed for the SIMD kernel. The panels
// live in a WeightCache (nn/weight_cache.hpp): packed on the first such
// forward, repacked after Parameter::version moves, shared by concurrent
// inference forwards — the detector's batch fan-out. A second WeightCache
// holds whether every weight is finite, which lets the batch-1 matvec skip
// the weight rows a zero input multiplies.
#pragma once

#include "nn/layer.hpp"
#include "nn/weight_cache.hpp"
#include "tensor/pack.hpp"
#include "tensor/rng.hpp"

namespace salnov::nn {

class Dense : public Layer {
 public:
  /// He-uniform initialized dense layer mapping `in_features` -> `out_features`.
  Dense(int64_t in_features, int64_t out_features, Rng& rng);

  /// Constructs from explicit weights (used by model loading and tests).
  /// `weight` must be [in_features, out_features], `bias` [out_features].
  Dense(Tensor weight, Tensor bias);

  Tensor forward(const Tensor& input, Mode mode) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  std::string type_name() const override { return "dense"; }
  Shape output_shape(const Shape& input) const override;
  void save_config(std::ostream& os) const override;

  /// Inference forward with the following ReLU fused into the GEMM
  /// epilogue (used by Sequential in inference mode). Bit-identical to
  /// forward(kInfer) followed by a ReLU layer.
  Tensor forward_infer_fused_relu(const Tensor& input) { return run_forward(input, Mode::kInfer, true); }

  int64_t in_features() const { return weight_.value.dim(0); }
  int64_t out_features() const { return weight_.value.dim(1); }
  const Parameter& weight() const { return weight_; }
  const Parameter& bias() const { return bias_; }

 private:
  Tensor run_forward(const Tensor& input, Mode mode, bool fuse_relu);

  /// Pre-packed weight panels for the SIMD kernel, or nullptr when the
  /// scalar kernel is active or the batch cannot use panels (batch 1 takes
  /// the matvec path).
  const PackedMatrix* packed_weights(int64_t batch) const;

  Parameter weight_;  ///< [in, out]
  Parameter bias_;    ///< [out]
  Tensor cached_input_;
  bool have_cache_ = false;
  WeightCache<PackedMatrix> packed_weight_;
  WeightCache<bool> finite_weight_;  ///< no inf or NaN: gemm_ex's b_finite
};

}  // namespace salnov::nn
