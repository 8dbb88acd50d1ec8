// Int8-quantized inference view over a float Sequential model.
//
// QuantizedForward wraps a (const) Sequential and re-runs its Dense and
// Conv2d layers through the exact-int32 u8s8 GEMM: activations are
// quantized symmetrically to u8 in [0, 127] with a per-layer scale fitted
// by calibrate(), weights to s8 in [-127, 127] with a scale derived from
// max |w|, and the int32 accumulators are dequantized (fmaf) back to fp32
// at the store. Every other layer (ReLU, Sigmoid, Tanh, Flatten, ...)
// runs its float forward on the dequantized activations, so the quantized
// chain is a drop-in replacement for Sequential::forward /
// forward_stages / forward_collect with bounded score drift.
//
// Determinism contract (what the q8 ladder rungs and trace replay rely
// on): the quantize -> exact integer GEMM -> dequant chain performs the
// same correctly-rounded float operations per element regardless of
// kernel, thread count, or batch size, so quantized outputs are
// BIT-IDENTICAL everywhere the float path only promises tolerance-level
// agreement. quant_differential_test enforces this.
//
// Weight mutation (optimizer step, fault injection) is tracked through
// Parameter::version, mirroring the float layers' lazy weight packing:
// the first forward after a bump re-quantizes and re-packs that layer
// under a mutex. Concurrent inference forwards are safe; concurrent
// training and quantized inference on the same model are unsupported
// (same rule as the float path).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "nn/sequential.hpp"
#include "tensor/gemm_int8.hpp"

namespace salnov::nn {

/// Per-layer activation scales for a model's quantizable (Dense / Conv2d)
/// layers, in model order. act_scales[i] = sx maps layer i's input to
/// x_q = clamp(round(x / sx), 0, 127). Fitted once by
/// QuantizedForward::calibrate over representative inputs and persisted
/// alongside the ECDF thresholds (PipelineIo v3).
struct QuantScales {
  std::vector<float> act_scales;

  bool empty() const { return act_scales.empty(); }
};

class QuantizedForward {
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

  /// Quantized counterpart of Sequential::forward_collect: one output per
  /// layer, result[size()-1] is the final output (for layer-by-layer drift
  /// checks).
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
  /// One quantizable layer's derived state: s8 weights in GEMM layout
  /// ([in, out] for Dense; [patch, out_c] for Conv2d), the pre-packed SIMD
  /// operand, and the fused dequant scale sx * sw.
  struct QuantLayer {
    const Layer* layer = nullptr;
    bool is_conv = false;
    float act_scale = 1.0f;      ///< sx
    float inv_act_scale = 1.0f;  ///< 1 / sx (quantize multiplier)
    float weight_scale = 1.0f;   ///< sw = max |w| / 127
    float dequant_scale = 1.0f;  ///< sx * sw
    const float* bias = nullptr;
    std::vector<int8_t> weight_q;
    PackedQuantMatrix packed;
    uint64_t weight_version = 0;  ///< Parameter::version the above derive from
  };

  /// Re-quantizes any layer whose weight version moved. Fast path is a
  /// single relaxed atomic load (versions only grow, so a sum stamp cannot
  /// alias).
  void ensure_fresh() const;
  static void requantize(QuantLayer& ql);

  /// Runs layer `i` on `input`: the int8 GEMM for Dense / Conv2d, the
  /// float forward for everything else.
  Tensor forward_layer(size_t i, const Tensor& input) const;
  /// The chain behind forward() and forward_stages(); appends each conv
  /// stage's output to `conv_stages` when it is non-null.
  Tensor run(const Tensor& input, std::vector<Tensor>* conv_stages) const;

  Tensor forward_quant_dense(const QuantLayer& ql, const Tensor& input) const;
  Tensor forward_quant_conv(const QuantLayer& ql, const Tensor& input) const;

  const Sequential& model_;
  QuantScales scales_;
  std::vector<int> layer_slot_;  ///< model layer index -> quant slot, or -1

  mutable std::mutex requant_mutex_;
  mutable std::atomic<uint64_t> version_stamp_{0};  ///< sum of (version + 1); 0 = never built
  mutable std::vector<QuantLayer> layers_;
};

}  // namespace salnov::nn
