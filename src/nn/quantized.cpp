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
    : model_(model),
      scales_(std::move(scales)),
      layers_(static_cast<size_t>(count_quantizable(model))) {
  if (scales_.act_scales.size() != layers_.size()) {
    throw std::invalid_argument("QuantizedForward: scale count does not match quantizable layers");
  }
  // Slots follow the model's Dense / Conv2d order, which is the walk's
  // GemmHook index.
  size_t slot = 0;
  for (size_t i = 0; i < model.size(); ++i) {
    const Layer& layer = model.layer(i);
    if (!is_quantizable(layer)) continue;
    QuantLayer& ql = layers_[slot];
    ql.dense = dynamic_cast<const Dense*>(&layer);
    ql.conv = dynamic_cast<const Conv2d*>(&layer);
    const float sx = scales_.act_scales[slot++];
    if (!std::isfinite(sx) || sx <= 0.0f) {
      throw std::invalid_argument("QuantizedForward: activation scales must be positive finite");
    }
    ql.act_scale = sx;
    ql.inv_act_scale = 1.0f / sx;
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

const QuantizedForward::QuantWeights& QuantizedForward::quant_weights(const QuantLayer& ql) {
  const Parameter& source = ql.conv != nullptr ? ql.conv->weight() : ql.dense->weight();
  return ql.weights.get(source, [&](const Tensor& w) {
    QuantWeights q;
    const float wmax = max_abs(w.data(), w.numel());
    const float weight_scale = wmax > 0.0f ? wmax / 127.0f : 1.0f;  // sw
    q.dequant_scale = ql.act_scale * weight_scale;
    // GEMM B is [k, n]. A Dense weight [in, out] already is; a Conv2d weight
    // [out_c, in_c, kh, kw] is read transposed to [patch, out_c], so the
    // positions-by-patch im2col multiplies straight through.
    const bool is_conv = ql.conv != nullptr;
    const int64_t n = is_conv ? w.dim(0) : w.dim(1);
    const int64_t k = w.numel() / n;
    q.weight_q.resize(static_cast<size_t>(k * n));
    const float* wd = w.data();
    for (int64_t r = 0; r < k; ++r) {
      for (int64_t c = 0; c < n; ++c) {
        q.weight_q[static_cast<size_t>(r * n + c)] =
            quantize_s8(is_conv ? wd[c * k + r] : wd[r * n + c], weight_scale);
      }
    }
    q.packed = pack_quant_b(q.weight_q.data(), k, n);
    return q;
  });
}

Tensor QuantizedForward::forward_quant_dense(const QuantLayer& ql, const Tensor& input,
                                             bool relu) {
  const Dense& dense = *ql.dense;
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
  const QuantWeights& q = quant_weights(ql);
  Tensor out({batch, n});
  const QuantEpilogue epi{q.dequant_scale, dense.bias().value.data(), relu};
  gemm_u8s8_dequant(a_q, q.weight_q.data(), out.data(), batch, n, k, epi, &q.packed);
  return out;
}

Tensor QuantizedForward::forward_quant_conv(const QuantLayer& ql, const Tensor& input,
                                            bool relu) {
  const Conv2d& conv = *ql.conv;
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
  const QuantWeights& q = quant_weights(ql);
  Tensor out({batch, out_c, out_h, out_w});
  const QuantEpilogue epi{q.dequant_scale, conv.bias().value.data(), relu};
  for (int64_t b = 0; b < batch; ++b) {
    WorkspaceScope scope;
    auto* cols = reinterpret_cast<uint8_t*>(scope.floats((positions * patch + 3) / 4));
    im2col_quant(input.data() + b * cfg.in_channels * in_h * in_w, cfg, in_h, in_w, out_h, out_w,
                 ql.inv_act_scale, cols);
    // GEMM result is [positions, out_c]; the output tensor wants
    // [out_c, positions] per sample, so dequantize into scratch and
    // transpose at the copy.
    float* tmp = scope.floats(positions * out_c);
    gemm_u8s8_dequant(cols, q.weight_q.data(), tmp, positions, out_c, patch, epi, &q.packed);
    float* dst = out.data() + b * out_c * positions;
    for (int64_t p = 0; p < positions; ++p) {
      const float* src = tmp + p * out_c;
      for (int64_t oc = 0; oc < out_c; ++oc) dst[oc * positions + p] = src[oc];
    }
  }
  return out;
}

Tensor QuantizedForward::gemm(size_t gemm_index, const Tensor& input, bool relu) const {
  const QuantLayer& ql = layers_[gemm_index];
  return ql.conv != nullptr ? forward_quant_conv(ql, input, relu)
                            : forward_quant_dense(ql, input, relu);
}

Tensor QuantizedForward::forward(const Tensor& input) const { return model_.infer(input, this); }

StagedForward QuantizedForward::forward_stages(const Tensor& input) const {
  return model_.forward_stages(input, this);
}

std::vector<Tensor> QuantizedForward::forward_collect(const Tensor& input) const {
  return model_.forward_collect(input, this);
}

}  // namespace salnov::nn
