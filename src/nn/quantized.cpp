#include "nn/quantized.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "tensor/workspace.hpp"

namespace salnov::nn {
namespace {

/// x -> clamp(round(x / sx), 0, 127). Computed as a multiply by 1/sx so the
/// quantizer is one rounded float op per element, the same everywhere.
/// Negative inputs clamp to 0, so q(0) == 0 and conv zero padding stays
/// exact in the integer domain.
inline uint8_t quantize_u8(float v, float inv_sx) {
  const long q = std::lrintf(v * inv_sx);
  return static_cast<uint8_t>(q < 0 ? 0 : (q > 127 ? 127 : q));
}

/// w -> clamp(round(w / sw), -127, 127), symmetric (no zero point).
inline int8_t quantize_s8(float v, float sw) {
  const long q = std::lrintf(v / sw);
  return static_cast<int8_t>(q < -127 ? -127 : (q > 127 ? 127 : q));
}

inline float max_abs(const float* data, int64_t count) {
  float m = 0.0f;
  for (int64_t i = 0; i < count; ++i) {
    const float a = std::fabs(data[i]);
    if (a > m) m = a;
  }
  return m;
}

bool is_quantizable(const Layer& layer) {
  return dynamic_cast<const Dense*>(&layer) != nullptr ||
         dynamic_cast<const Conv2d*>(&layer) != nullptr;
}

const Parameter& quant_weight(const Layer& layer, bool is_conv) {
  return is_conv ? static_cast<const Conv2d&>(layer).weight()
                 : static_cast<const Dense&>(layer).weight();
}

/// Quantized, transposed im2col: fills `cols` ([out_h * out_w, patch] u8)
/// with one sample's unrolled patches — the GEMM A operand, positions as
/// rows. Padding reads quantize to exactly 0 (see quantize_u8).
void im2col_quant(const float* x, const Conv2dConfig& cfg, int64_t in_h, int64_t in_w,
                  int64_t out_h, int64_t out_w, float inv_sx, uint8_t* cols) {
  const int64_t patch = cfg.in_channels * cfg.kernel_h * cfg.kernel_w;
  int64_t col = 0;
  for (int64_t c = 0; c < cfg.in_channels; ++c) {
    const float* x_plane = x + c * in_h * in_w;
    for (int64_t kh = 0; kh < cfg.kernel_h; ++kh) {
      for (int64_t kw = 0; kw < cfg.kernel_w; ++kw, ++col) {
        for (int64_t oy = 0; oy < out_h; ++oy) {
          const int64_t iy = oy * cfg.stride - cfg.padding + kh;
          uint8_t* cols_row = cols + oy * out_w * patch + col;
          if (iy < 0 || iy >= in_h) {
            for (int64_t ox = 0; ox < out_w; ++ox) cols_row[ox * patch] = 0;
            continue;
          }
          const float* x_row = x_plane + iy * in_w;
          for (int64_t ox = 0; ox < out_w; ++ox) {
            const int64_t ix = ox * cfg.stride - cfg.padding + kw;
            cols_row[ox * patch] =
                (ix >= 0 && ix < in_w) ? quantize_u8(x_row[ix], inv_sx) : uint8_t{0};
          }
        }
      }
    }
  }
}

}  // namespace

QuantizedForward::QuantizedForward(const Sequential& model, QuantScales scales)
    : model_(model), scales_(std::move(scales)) {
  layer_slot_.assign(model.size(), -1);
  for (size_t i = 0; i < model.size(); ++i) {
    const Layer& layer = model.layer(i);
    const auto* conv = dynamic_cast<const Conv2d*>(&layer);
    if (conv == nullptr && dynamic_cast<const Dense*>(&layer) == nullptr) continue;
    layer_slot_[i] = static_cast<int>(layers_.size());
    QuantLayer ql;
    ql.layer = &layer;
    ql.is_conv = conv != nullptr;
    ql.bias = conv != nullptr ? conv->bias().value.data()
                              : static_cast<const Dense&>(layer).bias().value.data();
    layers_.push_back(std::move(ql));
  }
  if (scales_.act_scales.size() != layers_.size()) {
    throw std::invalid_argument("QuantizedForward: scale count does not match quantizable layers");
  }
  for (size_t s = 0; s < layers_.size(); ++s) {
    const float sx = scales_.act_scales[s];
    if (!std::isfinite(sx) || sx <= 0.0f) {
      throw std::invalid_argument("QuantizedForward: activation scales must be positive finite");
    }
    layers_[s].act_scale = sx;
    layers_[s].inv_act_scale = 1.0f / sx;
  }
}

int64_t QuantizedForward::count_quantizable(const Sequential& model) {
  int64_t count = 0;
  for (size_t i = 0; i < model.size(); ++i) {
    if (is_quantizable(model.layer(i))) ++count;
  }
  return count;
}

QuantScales QuantizedForward::calibrate(const Sequential& model,
                                        const std::vector<const Tensor*>& inputs) {
  if (inputs.empty()) {
    throw std::invalid_argument("QuantizedForward::calibrate: no calibration inputs");
  }
  std::vector<float> act_max(static_cast<size_t>(count_quantizable(model)), 0.0f);
  for (const Tensor* input : inputs) {
    Tensor cur = *input;
    size_t slot = 0;
    for (size_t i = 0; i < model.size(); ++i) {
      // forward_collect semantics: unfused per-layer inference forwards,
      // which are bit-identical to the fused chain.
      Layer& layer = const_cast<Layer&>(model.layer(i));
      if (is_quantizable(layer)) {
        const float m = max_abs(cur.data(), cur.numel());
        if (m > act_max[slot]) act_max[slot] = m;
        ++slot;
      }
      cur = layer.forward(cur, Mode::kInfer);
    }
  }
  QuantScales scales;
  scales.act_scales.reserve(act_max.size());
  for (const float m : act_max) {
    scales.act_scales.push_back(m > 0.0f ? m / 127.0f : 1.0f);
  }
  return scales;
}

void QuantizedForward::ensure_fresh() const {
  if (layers_.empty()) return;
  uint64_t sum = 0;
  for (const QuantLayer& ql : layers_) {
    sum += quant_weight(*ql.layer, ql.is_conv).version + 1;
  }
  // Versions only grow, so the sum is strictly monotone in any mutation and
  // cannot alias a stale state.
  if (version_stamp_.load(std::memory_order_acquire) == sum) return;
  std::lock_guard<std::mutex> lock(requant_mutex_);
  uint64_t locked_sum = 0;
  for (QuantLayer& ql : layers_) {
    const uint64_t v = quant_weight(*ql.layer, ql.is_conv).version + 1;
    locked_sum += v;
    if (ql.weight_version != v) requantize(ql);
  }
  version_stamp_.store(locked_sum, std::memory_order_release);
}

void QuantizedForward::requantize(QuantLayer& ql) {
  const Parameter& wp = ql.is_conv ? static_cast<const Conv2d*>(ql.layer)->weight()
                                   : static_cast<const Dense*>(ql.layer)->weight();
  const Tensor& w = wp.value;
  const float wmax = max_abs(w.data(), w.numel());
  ql.weight_scale = wmax > 0.0f ? wmax / 127.0f : 1.0f;
  ql.dequant_scale = ql.act_scale * ql.weight_scale;
  int64_t k = 0;
  int64_t n = 0;
  if (ql.is_conv) {
    // Weight [out_c, in_c, kh, kw] -> GEMM B [patch, out_c] (transposed so
    // the positions-by-patch im2col multiplies straight through).
    const int64_t out_c = w.dim(0);
    const int64_t patch = w.numel() / out_c;
    k = patch;
    n = out_c;
    ql.weight_q.resize(static_cast<size_t>(k * n));
    const float* wd = w.data();
    for (int64_t oc = 0; oc < out_c; ++oc) {
      for (int64_t p = 0; p < patch; ++p) {
        ql.weight_q[static_cast<size_t>(p * n + oc)] =
            quantize_s8(wd[oc * patch + p], ql.weight_scale);
      }
    }
  } else {
    // Dense weight is already the [in, out] GEMM B operand.
    k = w.dim(0);
    n = w.dim(1);
    ql.weight_q.resize(static_cast<size_t>(k * n));
    const float* wd = w.data();
    for (int64_t i = 0; i < k * n; ++i) ql.weight_q[static_cast<size_t>(i)] =
        quantize_s8(wd[i], ql.weight_scale);
  }
  ql.packed = pack_quant_b(ql.weight_q.data(), k, n);
  ql.weight_version = wp.version + 1;
}

Tensor QuantizedForward::forward_quant_dense(const QuantLayer& ql, const Tensor& input) const {
  const auto& dense = static_cast<const Dense&>(*ql.layer);
  const int64_t k = dense.in_features();
  const int64_t n = dense.out_features();
  if (input.rank() != 2 || input.dim(1) != k) {
    throw std::invalid_argument("QuantizedForward: dense input must be [batch, in_features]");
  }
  const int64_t batch = input.dim(0);
  WorkspaceScope scope;
  auto* a_q = reinterpret_cast<uint8_t*>(scope.floats((batch * k + 3) / 4));
  const float* x = input.data();
  for (int64_t i = 0; i < batch * k; ++i) a_q[i] = quantize_u8(x[i], ql.inv_act_scale);
  Tensor out({batch, n});
  const QuantEpilogue epi{ql.dequant_scale, ql.bias, false};
  gemm_u8s8_dequant(a_q, ql.weight_q.data(), out.data(), batch, n, k, epi, &ql.packed);
  return out;
}

Tensor QuantizedForward::forward_quant_conv(const QuantLayer& ql, const Tensor& input) const {
  const auto& conv = static_cast<const Conv2d&>(*ql.layer);
  const Conv2dConfig& cfg = conv.config();
  if (input.rank() != 4 || input.dim(1) != cfg.in_channels) {
    throw std::invalid_argument("QuantizedForward: conv input must be [batch, in_c, h, w]");
  }
  const int64_t batch = input.dim(0);
  const int64_t in_h = input.dim(2);
  const int64_t in_w = input.dim(3);
  const int64_t out_h = conv.out_size(in_h, cfg.kernel_h);
  const int64_t out_w = conv.out_size(in_w, cfg.kernel_w);
  const int64_t positions = out_h * out_w;
  const int64_t patch = cfg.in_channels * cfg.kernel_h * cfg.kernel_w;
  const int64_t out_c = cfg.out_channels;
  Tensor out({batch, out_c, out_h, out_w});
  const QuantEpilogue epi{ql.dequant_scale, ql.bias, false};
  for (int64_t b = 0; b < batch; ++b) {
    WorkspaceScope scope;
    auto* cols = reinterpret_cast<uint8_t*>(scope.floats((positions * patch + 3) / 4));
    im2col_quant(input.data() + b * cfg.in_channels * in_h * in_w, cfg, in_h, in_w, out_h, out_w,
                 ql.inv_act_scale, cols);
    // GEMM result is [positions, out_c]; the output tensor wants
    // [out_c, positions] per sample, so dequantize into scratch and
    // transpose at the copy.
    float* tmp = scope.floats(positions * out_c);
    gemm_u8s8_dequant(cols, ql.weight_q.data(), tmp, positions, out_c, patch, epi, &ql.packed);
    float* dst = out.data() + b * out_c * positions;
    for (int64_t p = 0; p < positions; ++p) {
      const float* src = tmp + p * out_c;
      for (int64_t oc = 0; oc < out_c; ++oc) dst[oc * positions + p] = src[oc];
    }
  }
  return out;
}

Tensor QuantizedForward::forward_layer(size_t i, const Tensor& input) const {
  const int slot = layer_slot_[i];
  if (slot < 0) return const_cast<Layer&>(model_.layer(i)).forward(input, Mode::kInfer);
  const QuantLayer& ql = layers_[static_cast<size_t>(slot)];
  return ql.is_conv ? forward_quant_conv(ql, input) : forward_quant_dense(ql, input);
}

Tensor QuantizedForward::run(const Tensor& input, std::vector<Tensor>* conv_stages) const {
  ensure_fresh();
  // Same in-place hand-off as Sequential::infer: a kept conv stage feeds the
  // next layer from its slot in `conv_stages`.
  const Tensor* current = &input;
  Tensor owned;
  for (size_t i = 0; i < model_.size(); ++i) {
    Tensor next = forward_layer(i, *current);
    if (conv_stages != nullptr && model_.ends_conv_stage(i)) {
      conv_stages->push_back(std::move(next));
      current = &conv_stages->back();
    } else {
      owned = std::move(next);
      current = &owned;
    }
  }
  if (current == &owned) return owned;
  return *current;
}

Tensor QuantizedForward::forward(const Tensor& input) const { return run(input, nullptr); }

StagedForward QuantizedForward::forward_stages(const Tensor& input) const {
  StagedForward result;
  result.output = run(input, &result.conv_stages);
  return result;
}

std::vector<Tensor> QuantizedForward::forward_collect(const Tensor& input) const {
  ensure_fresh();
  std::vector<Tensor> outputs;
  outputs.reserve(model_.size());
  Tensor cur = input;
  for (size_t i = 0; i < model_.size(); ++i) {
    cur = forward_layer(i, cur);
    outputs.push_back(cur);
  }
  return outputs;
}

}  // namespace salnov::nn
