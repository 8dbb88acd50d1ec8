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

/// Sample `i` of a fan-out: rows[i], or i when `rows` is null.
int64_t row_at(const int64_t* rows, int64_t i) { return rows != nullptr ? rows[i] : i; }

/// Throws unless `conv_stages` holds one [B, C, h, w] activation per conv
/// layer of `model` (forward_stages() keeps exactly that) and every row is a
/// sample of it.
void check_stages(const nn::Sequential& model, const std::vector<Tensor>& conv_stages,
                  const int64_t* rows, int64_t count) {
  size_t convs = 0;
  for (size_t i = 0; i < model.size(); ++i) {
    if (dynamic_cast<const nn::Conv2d*>(&model.layer(i)) != nullptr) ++convs;
  }
  if (convs == 0) {
    throw std::invalid_argument("VisualBackProp: model has no convolutional stages");
  }
  if (conv_stages.size() != convs) {
    throw std::invalid_argument("VisualBackProp: expected one activation per conv stage");
  }
  for (const Tensor& stage : conv_stages) {
    for (int64_t i = 0; i < count; ++i) {
      const int64_t n = row_at(rows, i);
      if (stage.rank() != 4 || n < 0 || n >= stage.dim(0)) {
        throw std::logic_error("VisualBackProp: expected [B, C, H, W] activation with sample " +
                               std::to_string(n) + " in range, got " +
                               shape_to_string(stage.shape()));
      }
    }
  }
}

int64_t plane(const Tensor& stage) { return stage.dim(2) * stage.dim(3); }

/// Mean over channels of sample `n` of a [B, C, h, w] stage, into `dst`
/// [h * w]. Channels are summed in ascending order from +0.0, so every entry
/// point sums the same values in the same order — bit-identical.
void channel_average(const Tensor& stage, int64_t n, float* __restrict dst) {
  const int64_t channels = stage.dim(1);
  const int64_t count = plane(stage);
  const float* src = stage.data() + n * channels * count;
  std::fill(dst, dst + count, 0.0f);
  for (int64_t c = 0; c < channels; ++c) {
    const float* __restrict channel = src + c * count;
    for (int64_t i = 0; i < count; ++i) dst[i] += channel[i];
  }
  const float inv = 1.0f / static_cast<float>(channels);
  for (int64_t i = 0; i < count; ++i) dst[i] *= inv;
}

/// Four adjacent floats (a GCC/Clang vector extension): arithmetic is four
/// independent IEEE operations, the same as four scalar ones.
using Lanes = float __attribute__((vector_size(4 * sizeof(float))));
constexpr int64_t kLanes = 4;

Lanes load_lanes(const float* src) {
  Lanes v;
  std::memcpy(&v, src, sizeof v);
  return v;
}

void store_lanes(const Lanes& v, float* dst) { std::memcpy(dst, &v, sizeof v); }

/// The left fold std::max(peak, v) from +0.0 over `map`: the largest value,
/// NaNs skipped, and +0.0 when nothing is positive. The fold is exact in any
/// order (only ±0 compare equal with different bits, and the +0.0 start
/// wins those), so independent lanes give the same bits.
float peak_of(const float* map, int64_t count) {
  Lanes lanes{};
  int64_t i = 0;
  for (; i + kLanes <= count; i += kLanes) {
    const Lanes v = load_lanes(map + i);
    lanes = lanes < v ? v : lanes;
  }
  float peak = 0.0f;
  for (int64_t l = 0; l < kLanes; ++l) peak = std::max(peak, lanes[l]);
  for (; i < count; ++i) peak = std::max(peak, map[i]);
  return peak;
}

/// floor(a / b) for b > 0.
int64_t floor_div(int64_t a, int64_t b) { return a >= 0 ? a / b : -((b - 1 - a) / b); }

/// floor(v / d) of a value v that steps up by one, without a division per
/// step.
class FloorStepper {
 public:
  FloorStepper(int64_t v, int64_t d) : quot_(floor_div(v, d)), rem_(v - quot_ * d), d_(d) {}
  int64_t quot() const { return quot_; }
  void next() {
    if (++rem_ == d_) {
      rem_ = 0;
      ++quot_;
    }
  }

 private:
  int64_t quot_;
  int64_t rem_;
  int64_t d_;
};

/// The output columns of one residue r = (ox + padding) % stride: output
/// ox0 + stride * k reads input columns q0 + k + t for t in [tap, 0]. With
/// u = ox + padding, input x reaches ox iff 0 <= u - stride * x < kernel_w.
struct Residue {
  int64_t ox0 = 0;
  int64_t q0 = 0;
  int64_t count = 0;
  int64_t tap = 0;
};

Residue residue(int64_t r, int64_t kernel_w, int64_t stride, int64_t padding, int64_t out_w) {
  Residue g;
  g.ox0 = ((r - padding) % stride + stride) % stride;
  g.q0 = (g.ox0 + padding) / stride;
  g.count = g.ox0 < out_w ? (out_w - 1 - g.ox0) / stride + 1 : 0;
  g.tap = floor_div(r - kernel_w, stride) + 1;
  return g;
}

/// Sums the `vectors * kLanes` adjacent outputs whose first input column is
/// `src`: every input row in [y_lo, y_hi], then every tap in [tap, 0], in
/// that order, kept in registers until the single store to `acc`.
template <int64_t vectors>
void gather_lanes(const float* src, int64_t padded_w, int64_t y_lo, int64_t y_hi, int64_t tap,
                  float* acc) {
  Lanes sums[vectors] = {};
  for (int64_t y = y_lo; y <= y_hi; ++y) {
    const float* row = src + y * padded_w;
    for (int64_t t = tap; t <= 0; ++t) {
      for (int64_t v = 0; v < vectors; ++v) sums[v] += load_lanes(row + t + v * kLanes);
    }
  }
  for (int64_t v = 0; v < vectors; ++v) store_lanes(sums[v], acc + v * kLanes);
}

/// Transposed convolution with all-ones weights as an ordered gather:
/// `out` [out_h, out_w] = deconv(`map` * `scale`), times `target` [out_h,
/// out_w] when it is non-null. `out` may alias `map`.
///
/// Bits: the scatter this replaces adds each output's contributors in
/// ascending input row, then column, starting from +0.0; the gather adds the
/// same values in that order. It also adds the zeros the scatter skipped and
/// the zero padding, which change nothing: an accumulator that starts at
/// +0.0 never becomes -0.0, so adding ±0 leaves it as it is. Split by
/// residue, each (input row, tap) step is an elementwise add over k that
/// vectorises without reordering any output's sum.
void deconv_ones_into(const float* map, float scale, int64_t in_h, int64_t in_w,
                      int64_t kernel_h, int64_t kernel_w, int64_t stride, int64_t padding,
                      int64_t out_h, int64_t out_w, const float* target, float* out) {
  // The scaled map with zero columns around it, wide enough for every tap.
  int64_t left = 0;
  int64_t right = in_w;
  for (int64_t r = 0; r < stride; ++r) {
    const Residue g = residue(r, kernel_w, stride, padding, out_w);
    if (g.count == 0) continue;
    left = std::max(left, -(g.q0 + std::min<int64_t>(g.tap, 0)));
    right = std::max(right, g.q0 + g.count);
  }
  const int64_t padded_w = left + right;
  WorkspaceScope scratch;
  float* padded = scratch.floats(in_h * padded_w);
  float* acc = scratch.floats(out_w);
  for (int64_t y = 0; y < in_h; ++y) {
    float* row = padded + y * padded_w;
    const float* src = map + y * in_w;
    std::fill(row, row + left, 0.0f);
    for (int64_t x = 0; x < in_w; ++x) row[left + x] = src[x] * scale;
    std::fill(row + left + in_w, row + padded_w, 0.0f);
  }

  for (int64_t r = 0; r < stride; ++r) {
    const Residue g = residue(r, kernel_w, stride, padding, out_w);
    if (g.count == 0) continue;
    // Output row oy reads input rows [floor((uy - kernel_h) / stride) + 1,
    // floor(uy / stride)], uy = oy + padding, clipped to the map.
    FloorStepper first_row(padding - kernel_h, stride);
    FloorStepper last_row(padding, stride);
    for (int64_t oy = 0; oy < out_h; ++oy, first_row.next(), last_row.next()) {
      const int64_t y_lo = std::max<int64_t>(0, first_row.quot() + 1);
      const int64_t y_hi = std::min(in_h - 1, last_row.quot());
      const float* base = padded + left + g.q0;
      int64_t k0 = 0;
      for (; k0 + 4 * kLanes <= g.count; k0 += 4 * kLanes) {
        gather_lanes<4>(base + k0, padded_w, y_lo, y_hi, g.tap, acc + k0);
      }
      for (; k0 + kLanes <= g.count; k0 += kLanes) {
        gather_lanes<1>(base + k0, padded_w, y_lo, y_hi, g.tap, acc + k0);
      }
      for (; k0 < g.count; ++k0) {
        float sum = 0.0f;
        for (int64_t y = y_lo; y <= y_hi; ++y) {
          for (int64_t t = g.tap; t <= 0; ++t) sum += base[y * padded_w + k0 + t];
        }
        acc[k0] = sum;
      }
      float* dst = out + oy * out_w + g.ox0;
      if (target != nullptr) {
        const float* weight = target + oy * out_w + g.ox0;
        for (int64_t k = 0; k < g.count; ++k) dst[stride * k] = acc[k] * weight[stride * k];
      } else {
        for (int64_t k = 0; k < g.count; ++k) dst[stride * k] = acc[k];
      }
    }
  }
}

/// Writes the mask of sample `n` of a finished forward into `mask`.
///
/// Deep to shallow, conv layer k upsamples the running map from stage k's
/// resolution to stage k-1's (the input's for k = 0), and stage k-1's
/// channel average weights it. Each level's map is scaled so its peak is 1
/// as the next level reads it, which keeps the running product numerically
/// stable across deep chains. All scratch is workspace memory.
void sample_mask(const nn::Sequential& model, const std::vector<Tensor>& conv_stages, int64_t n,
                 Image& mask) {
  int64_t max_plane = 0;
  for (const Tensor& stage : conv_stages) max_plane = std::max(max_plane, plane(stage));
  WorkspaceScope scratch;
  float* map = scratch.floats(max_plane);
  float* target = scratch.floats(max_plane);

  size_t k = conv_stages.size() - 1;
  const Tensor* from = &conv_stages[k];
  channel_average(*from, n, map);
  float peak = peak_of(map, plane(*from));
  for (size_t l = model.size(); l-- > 0;) {
    const auto* conv = dynamic_cast<const nn::Conv2d*>(&model.layer(l));
    if (conv == nullptr) continue;
    const nn::Conv2dConfig& geo = conv->config();
    const float scale = peak > 0.0f ? 1.0f / peak : 1.0f;
    if (k == 0) {
      deconv_ones_into(map, scale, from->dim(2), from->dim(3), geo.kernel_h, geo.kernel_w,
                       geo.stride, geo.padding, mask.height(), mask.width(), nullptr,
                       mask.tensor().data());
      break;
    }
    const Tensor& to = conv_stages[--k];
    channel_average(to, n, target);
    deconv_ones_into(map, scale, from->dim(2), from->dim(3), geo.kernel_h, geo.kernel_w,
                     geo.stride, geo.padding, to.dim(2), to.dim(3), target, map);
    peak = peak_of(map, plane(to));
    from = &to;
  }
  mask.normalize_minmax();
}

/// The masks of `count` samples of a finished forward (see row_at). The
/// returned masks are the only heap allocations; the per-sample chains write
/// disjoint masks and fan out across the worker pool.
std::vector<Image> sample_masks(const nn::Sequential& model, const std::vector<Tensor>& conv_stages,
                                const int64_t* rows, int64_t count, int64_t height,
                                int64_t width) {
  check_stages(model, conv_stages, rows, count);
  std::vector<Image> out;
  out.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) out.emplace_back(height, width);
  const auto chain = [&](int64_t i) {
    sample_mask(model, conv_stages, row_at(rows, i), out[static_cast<size_t>(i)]);
  };
  // One captured reference keeps the chunk function inside std::function's
  // small buffer, so the fan-out allocates nothing.
  parallel::parallel_for(0, count, 1, [&chain](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) chain(i);
  });
  return out;
}

}  // namespace

Tensor deconv_ones(const Tensor& map, int64_t kernel_h, int64_t kernel_w, int64_t stride,
                   int64_t padding, int64_t out_h, int64_t out_w) {
  if (map.rank() != 2) {
    throw std::invalid_argument("deconv_ones: expected [h, w] map, got " + shape_to_string(map.shape()));
  }
  if (stride < 1 || padding < 0) {
    throw std::invalid_argument("deconv_ones: stride must be >= 1 and padding >= 0");
  }
  Tensor out({out_h, out_w});
  deconv_ones_into(map.data(), 1.0f, map.dim(0), map.dim(1), kernel_h, kernel_w, stride, padding,
                   out_h, out_w, nullptr, out.data());
  return out;
}

std::vector<Image> VisualBackProp::masks(const nn::Sequential& model,
                                         const std::vector<Tensor>& conv_stages,
                                         const std::vector<int64_t>& rows, int64_t height,
                                         int64_t width) const {
  return sample_masks(model, conv_stages, rows.data(), static_cast<int64_t>(rows.size()), height,
                      width);
}

Image VisualBackProp::compute(nn::Sequential& model, const Image& input) {
  return std::move(compute_batch(model, {&input})[0]);
}

std::vector<Image> VisualBackProp::compute_batch(nn::Sequential& model,
                                                 const std::vector<const Image*>& inputs) {
  if (inputs.empty()) return {};
  return sample_masks(model, model.forward_stages(stack_nchw(inputs)).conv_stages, nullptr,
                      static_cast<int64_t>(inputs.size()), inputs[0]->height(), inputs[0]->width());
}

std::vector<Image> VisualBackProp::compute_batch_quantized(
    const nn::QuantizedForward& model, const std::vector<const Image*>& inputs) const {
  if (inputs.empty()) return {};
  return sample_masks(model.model(), model.forward_stages(stack_nchw(inputs)).conv_stages, nullptr,
                      static_cast<int64_t>(inputs.size()), inputs[0]->height(), inputs[0]->width());
}

}  // namespace salnov::saliency
