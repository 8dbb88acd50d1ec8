#include "saliency/visual_backprop.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "nn/conv2d.hpp"
#include "parallel/parallel_for.hpp"
#include "tensor/workspace.hpp"

namespace salnov::saliency {
namespace {

/// The model's conv layers, shallow to deep: the geometry the relevance
/// chain deconvolves through, one per forward_stages() conv stage.
std::vector<const nn::Conv2d*> conv_layers(const nn::Sequential& model) {
  std::vector<const nn::Conv2d*> convs;
  for (size_t i = 0; i < model.size(); ++i) {
    if (const auto* conv = dynamic_cast<const nn::Conv2d*>(&model.layer(i))) convs.push_back(conv);
  }
  if (convs.empty()) {
    throw std::invalid_argument("VisualBackProp: model has no convolutional stages");
  }
  return convs;
}

/// Mean over channels of sample `n` of a [B, C, H, W] activation -> [H, W].
/// Channels are accumulated in ascending order, so the batched path and the
/// batch-1 path sum the same values in the same order — bit-identical.
Tensor channel_average_sample(const Tensor& activation, int64_t n) {
  if (activation.rank() != 4 || n < 0 || n >= activation.dim(0)) {
    throw std::logic_error("VisualBackProp: expected [B, C, H, W] activation with sample " +
                           std::to_string(n) + " in range, got " +
                           shape_to_string(activation.shape()));
  }
  const int64_t channels = activation.dim(1);
  const int64_t plane = activation.dim(2) * activation.dim(3);
  Tensor avg({activation.dim(2), activation.dim(3)});
  float* dst = avg.data();
  const float* src = activation.data() + n * channels * plane;
  for (int64_t c = 0; c < channels; ++c) {
    for (int64_t i = 0; i < plane; ++i) dst[i] += src[c * plane + i];
  }
  const float inv = 1.0f / static_cast<float>(channels);
  for (int64_t i = 0; i < plane; ++i) dst[i] *= inv;
  return avg;
}

/// Scales a map so its max is 1 (keeps zeros if the map is all-zero).
/// Normalizing every stage keeps the running product numerically stable
/// across deep chains of pointwise multiplications.
void normalize_by_max(float* map, int64_t count) {
  float peak = 0.0f;
  for (int64_t i = 0; i < count; ++i) peak = std::max(peak, map[i]);
  if (peak > 0.0f) {
    const float inv = 1.0f / peak;
    for (int64_t i = 0; i < count; ++i) map[i] *= inv;
  }
}

/// Raw-buffer core of deconv_ones: scatters `map` [in_h, in_w] into
/// `out` [out_h, out_w]. `out` is overwritten.
void deconv_ones_into(const float* map, int64_t in_h, int64_t in_w, int64_t kernel_h,
                      int64_t kernel_w, int64_t stride, int64_t padding, int64_t out_h,
                      int64_t out_w, float* out) {
  std::memset(out, 0, static_cast<size_t>(out_h * out_w) * sizeof(float));
  for (int64_t y = 0; y < in_h; ++y) {
    for (int64_t x = 0; x < in_w; ++x) {
      const float v = map[y * in_w + x];
      if (v == 0.0f) continue;
      for (int64_t ki = 0; ki < kernel_h; ++ki) {
        const int64_t oy = y * stride - padding + ki;
        if (oy < 0 || oy >= out_h) continue;
        for (int64_t kj = 0; kj < kernel_w; ++kj) {
          const int64_t ox = x * stride - padding + kj;
          if (ox >= 0 && ox < out_w) out[oy * out_w + ox] += v;
        }
      }
    }
  }
}

/// Walks the averaged maps deep-to-shallow, multiplying each deconvolved
/// relevance map into the next stage's averaged activation, and returns the
/// normalized input-resolution mask. Shared by the batch-1 and batched
/// entries so they cannot drift apart.
Image relevance_chain(const std::vector<const nn::Conv2d*>& stages,
                      const std::vector<Tensor>& averaged_maps, int64_t in_h, int64_t in_w) {
  // The relevance chain ping-pongs between two workspace buffers sized for
  // the largest intermediate map, so steady-state frames allocate nothing.
  int64_t max_map = averaged_maps.back().numel();
  for (size_t i = 0; i + 1 < stages.size(); ++i) max_map = std::max(max_map, averaged_maps[i].numel());
  WorkspaceScope scratch;
  float* cur = scratch.floats(max_map);
  float* next = scratch.floats(max_map);

  const Tensor& deepest = averaged_maps.back();
  int64_t cur_h = deepest.dim(0);
  int64_t cur_w = deepest.dim(1);
  std::memcpy(cur, deepest.data(), static_cast<size_t>(deepest.numel()) * sizeof(float));
  normalize_by_max(cur, cur_h * cur_w);

  for (size_t i = stages.size() - 1; i-- > 0;) {
    const nn::Conv2dConfig& geo = stages[i + 1]->config();
    const Tensor& target = averaged_maps[i];
    const int64_t th = target.dim(0);
    const int64_t tw = target.dim(1);
    deconv_ones_into(cur, cur_h, cur_w, geo.kernel_h, geo.kernel_w, geo.stride, geo.padding, th, tw,
                     next);
    for (int64_t j = 0; j < th * tw; ++j) next[j] *= target.data()[j];
    normalize_by_max(next, th * tw);
    std::swap(cur, next);
    cur_h = th;
    cur_w = tw;
  }

  const nn::Conv2dConfig& first = stages.front()->config();
  Tensor relevance({in_h, in_w});
  deconv_ones_into(cur, cur_h, cur_w, first.kernel_h, first.kernel_w, first.stride, first.padding,
                   in_h, in_w, relevance.data());

  Image mask(in_h, in_w, std::move(relevance));
  mask.normalize_minmax();
  return mask;
}

/// The mask of sample `n`: channel averages of each conv stage, then the
/// relevance chain. Every entry point ends here.
Image stage_mask(const std::vector<const nn::Conv2d*>& convs, const std::vector<Tensor>& conv_stages,
                 int64_t n, int64_t height, int64_t width, std::vector<Tensor>& averaged_maps) {
  if (conv_stages.size() != convs.size()) {
    throw std::invalid_argument("VisualBackProp: expected one activation per conv stage");
  }
  averaged_maps.clear();
  averaged_maps.reserve(conv_stages.size());
  for (const Tensor& stage : conv_stages) averaged_maps.push_back(channel_average_sample(stage, n));
  return relevance_chain(convs, averaged_maps, height, width);
}

std::vector<int64_t> all_rows(size_t count) {
  std::vector<int64_t> rows(count);
  for (size_t i = 0; i < count; ++i) rows[i] = static_cast<int64_t>(i);
  return rows;
}

}  // namespace

Tensor deconv_ones(const Tensor& map, int64_t kernel_h, int64_t kernel_w, int64_t stride,
                   int64_t padding, int64_t out_h, int64_t out_w) {
  if (map.rank() != 2) {
    throw std::invalid_argument("deconv_ones: expected [h, w] map, got " + shape_to_string(map.shape()));
  }
  Tensor out({out_h, out_w});
  deconv_ones_into(map.data(), map.dim(0), map.dim(1), kernel_h, kernel_w, stride, padding, out_h,
                   out_w, out.data());
  return out;
}

std::vector<Image> VisualBackProp::masks(const nn::Sequential& model,
                                         const std::vector<Tensor>& conv_stages,
                                         const std::vector<int64_t>& rows, int64_t height,
                                         int64_t width) const {
  const auto convs = conv_layers(model);
  std::vector<Image> out(rows.size());
  parallel::parallel_for(0, static_cast<int64_t>(rows.size()), 1, [&](int64_t begin, int64_t end) {
    std::vector<Tensor> averaged_maps;
    for (int64_t i = begin; i < end; ++i) {
      out[static_cast<size_t>(i)] = stage_mask(convs, conv_stages, rows[static_cast<size_t>(i)],
                                               height, width, averaged_maps);
    }
  });
  return out;
}

Image VisualBackProp::compute(nn::Sequential& model, const Image& input) {
  return std::move(compute_batch(model, {&input})[0]);
}

Image VisualBackProp::compute_with_maps(nn::Sequential& model, const Image& input,
                                        std::vector<Tensor>& averaged_maps) const {
  return stage_mask(conv_layers(model), model.forward_stages(input.as_nchw()).conv_stages, 0,
                    input.height(), input.width(), averaged_maps);
}

std::vector<Image> VisualBackProp::compute_batch(nn::Sequential& model,
                                                 const std::vector<const Image*>& inputs) {
  if (inputs.empty()) return {};
  return masks(model, model.forward_stages(stack_nchw(inputs)).conv_stages,
               all_rows(inputs.size()), inputs[0]->height(), inputs[0]->width());
}

std::vector<Image> VisualBackProp::compute_batch_quantized(
    const nn::QuantizedForward& model, const std::vector<const Image*>& inputs) const {
  if (inputs.empty()) return {};
  return masks(model.model(), model.forward_stages(stack_nchw(inputs)).conv_stages,
               all_rows(inputs.size()), inputs[0]->height(), inputs[0]->width());
}

}  // namespace salnov::saliency
