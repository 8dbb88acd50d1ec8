// VisualBackProp (Bojarski et al., ICRA 2018).
//
// For each convolutional stage (conv + ReLU), average the post-activation
// feature maps over channels; then, walking from the deepest stage back to
// the input, repeatedly (a) upscale the running relevance map to the
// previous stage's resolution with a transposed convolution whose weights
// are all ones (geometry taken from the intervening conv layer), and (b)
// multiply pointwise with that stage's averaged feature map. A final
// ones-deconvolution through the first conv layer brings the mask to input
// resolution; the result is min-max normalized. Each level is one gather
// pass that sums every output's contributors in a fixed order, then weights
// the sum by the stage's average; the channel averages and levels live in
// the thread's workspace.
//
// VBP reads only the post-ReLU conv stages of the forward pass the steering
// prediction already runs (nn::Sequential::forward_stages), so next to the
// steering forward its cost is the channel averages and O(pixels)
// upsampling — no backward pass through weights — which is what makes VBP
// an order of magnitude faster than decomposition methods like LRP. Every
// entry below is one forward_stages() pass plus masks().
#pragma once

#include <cstdint>
#include <vector>

#include "nn/quantized.hpp"
#include "saliency/saliency.hpp"

namespace salnov::saliency {

class VisualBackProp : public SaliencyMethod {
 public:
  VisualBackProp() = default;

  /// Stateless per call: all scratch (the per-stage averaged maps and the
  /// relevance levels) lives in the calling thread's workspace, so one
  /// VisualBackProp instance may serve concurrent compute() calls — the
  /// detector's parallel scoring fan-out relies on this.
  Image compute(nn::Sequential& model, const Image& input) override;

  /// Cross-frame batched VBP: one forward_stages over the stacked
  /// [B, 1, H, W] input (conv layers loop per sample with identical
  /// per-sample GEMM calls), then masks(). Element i is bit-identical to
  /// compute(model, *inputs[i]) for any batch composition.
  std::vector<Image> compute_batch(nn::Sequential& model,
                                   const std::vector<const Image*>& inputs) override;

  bool thread_safe() const override { return true; }
  std::string name() const override { return "vbp"; }

  /// Int8-quantized VBP: the forward pass runs through the quantized view of
  /// the steering model (exact-int32 GEMMs, bit-identical at any kernel /
  /// thread count / batch size); the channel averages and relevance chain
  /// are the same float code as the float path. Used by the q8 ladder rungs.
  std::vector<Image> compute_batch_quantized(const nn::QuantizedForward& model,
                                             const std::vector<const Image*>& inputs) const;

  /// The masks of samples `rows` from a forward that already ran:
  /// `conv_stages` is forward_stages(...).conv_stages of `model` (or of its
  /// quantized view) over a [B, 1, height, width] input. A serving path
  /// that ran that forward for the steering angle builds the masks here
  /// without a second forward. The per-sample chains are pure and write
  /// disjoint outputs, so they fan out across the worker pool. After a
  /// warm-up the returned masks are the only heap allocations.
  std::vector<Image> masks(const nn::Sequential& model, const std::vector<Tensor>& conv_stages,
                           const std::vector<int64_t>& rows, int64_t height, int64_t width) const;
};

/// Transposed convolution with all-ones weights: each input value lands in
/// the k x k output window it came from. Each output is the sum of its
/// contributors in ascending input row, then column, from +0.0 — the order
/// a scatter over the input visits them. `out_h` / `out_w` give the exact
/// target size (transposed-conv arithmetic can disagree by a pixel with the
/// true pre-conv size when the stride does not divide evenly; out-of-range
/// contributions are dropped). Throws std::invalid_argument for a map that
/// is not [h, w], stride < 1 or padding < 0. Exposed for tests.
Tensor deconv_ones(const Tensor& map, int64_t kernel_h, int64_t kernel_w, int64_t stride,
                   int64_t padding, int64_t out_h, int64_t out_w);

}  // namespace salnov::saliency
