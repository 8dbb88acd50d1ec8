// Int8-quantized inference view over a float Sequential model.
//
// QuantizedForward runs the model's own inference walk (Sequential::infer,
// forward_stages, forward_collect) with a GemmHook that re-runs each Dense
// and Conv2d through the exact-int32 u8s8 GEMM: activations are quantized
// symmetrically to u8 in [0, 127] with a per-layer scale fitted by
// calibrate(), weights to s8 in [-127, 127] with a scale derived from
// max |w|, and the int32 accumulators are dequantized (fmaf) back to fp32
// at the store, where the walk's fused ReLU runs too (QuantEpilogue::relu).
// Every other layer runs its float forward on the dequantized activations,
// and a Sigmoid after a Dense runs in place, as on the float path. So the
// quantized chain is a drop-in replacement for Sequential::forward /
// forward_stages / forward_collect with bounded score drift.
//
// Determinism contract (what the q8 ladder rungs and trace replay rely
// on): the quantize -> exact integer GEMM -> dequant chain performs the
// same correctly-rounded float operations per element regardless of
// kernel, thread count, or batch size, so quantized outputs are
// BIT-IDENTICAL everywhere the float path only promises tolerance-level
// agreement. quant_differential_test enforces this.
//
// Each layer's s8 weights and packed operand live in a WeightCache
// (nn/weight_cache.hpp), as the float layers' packed panels do: a weight
// update (optimizer step, fault injection) bumps Parameter::version, and the
// next forward re-quantizes that layer. Concurrent inference forwards
// are safe; concurrent training and quantized inference on the same model
// are unsupported (same rule as the float path).
#pragma once

#include <cstdint>
#include <vector>

#include "nn/sequential.hpp"
#include "nn/weight_cache.hpp"
#include "tensor/gemm_int8.hpp"

namespace salnov::nn {

class Conv2d;
class Dense;

/// Per-layer activation scales for a model's quantizable (Dense / Conv2d)
/// layers, in model order. act_scales[i] = sx maps layer i's input to
/// x_q = clamp(round(x / sx), 0, 127). Fitted once by
/// QuantizedForward::calibrate over representative inputs and persisted
/// alongside the ECDF thresholds (PipelineIo v3).
struct QuantScales {
  std::vector<float> act_scales;

  bool empty() const { return act_scales.empty(); }
};

class QuantizedForward : private GemmHook {
 public:
  /// Binds to `model` (which must outlive this object). `scales` must hold
  /// exactly count_quantizable(model) entries; throws std::invalid_argument
  /// otherwise. Weights are quantized lazily on first forward.
  QuantizedForward(const Sequential& model, QuantScales scales);

  QuantizedForward(const QuantizedForward&) = delete;
  QuantizedForward& operator=(const QuantizedForward&) = delete;

  /// Quantized counterpart of Sequential::forward(input, kInfer).
  Tensor forward(const Tensor& input) const;

  /// Quantized counterpart of Sequential::forward_stages: the same chain as
  /// forward(), also keeping each conv stage's post-ReLU output. The q8
  /// steering prediction and the q8 VisualBackProp mask share this pass.
  StagedForward forward_stages(const Tensor& input) const;

  /// Quantized counterpart of Sequential::forward_collect: the walk unfused,
  /// one output per layer, result[size()-1] is the final output (for
  /// layer-by-layer checks).
  std::vector<Tensor> forward_collect(const Tensor& input) const;

  const Sequential& model() const { return model_; }
  const QuantScales& scales() const { return scales_; }

  /// Number of quantizable (Dense / Conv2d) layers in `model`.
  static int64_t count_quantizable(const Sequential& model);

  /// Fits per-layer activation scales by running the float chain over
  /// `inputs` and recording the max |x| reaching each quantizable layer.
  /// Layers that only ever see zeros get scale 1. Throws on empty input
  /// list.
  static QuantScales calibrate(const Sequential& model, const std::vector<const Tensor*>& inputs);

 private:
  /// A quantizable layer's weights in int8 form: s8 in GEMM layout ([in, out]
  /// for Dense; [patch, out_c] for Conv2d), the pre-packed SIMD operand, and
  /// the fused dequant scale sx * sw.
  struct QuantWeights {
    float dequant_scale = 1.0f;
    std::vector<int8_t> weight_q;
    PackedQuantMatrix packed;
  };
  /// One quantizable layer: exactly one of `dense` / `conv` is set.
  struct QuantLayer {
    const Dense* dense = nullptr;
    const Conv2d* conv = nullptr;
    float act_scale = 1.0f;      ///< sx
    float inv_act_scale = 1.0f;  ///< 1 / sx (quantize multiplier)
    WeightCache<QuantWeights> weights;
  };

  /// The int8 GEMM of quantizable layer `gemm_index`, ReLU in the dequant
  /// store when asked.
  Tensor gemm(size_t gemm_index, const Tensor& input, bool relu) const override;
  /// `ql`'s int8 weights, re-quantized when its float weights changed.
  static const QuantWeights& quant_weights(const QuantLayer& ql);

  static Tensor forward_quant_dense(const QuantLayer& ql, const Tensor& input, bool relu);
  static Tensor forward_quant_conv(const QuantLayer& ql, const Tensor& input, bool relu);

  const Sequential& model_;
  QuantScales scales_;
  std::vector<QuantLayer> layers_;  ///< sized once: a WeightCache does not move
};

}  // namespace salnov::nn
