// Layer-wise Relevance Propagation (Bach et al., 2015), epsilon rule.
//
// Decomposes the model output into per-pixel relevances by walking the
// network backwards: each neuron's relevance is redistributed to its inputs
// proportionally to their contribution z_ij = x_i w_ij, stabilized by
// R_i = sum_j (z_ij / (z_j + eps * sign(z_j))) R_j. Activation layers pass
// relevance through.
//
// This is the comparison method for the paper's claim that VBP is "an order
// of magnitude faster" than relevance-decomposition saliency: LRP must
// touch every weight (a backward-sized pass), whereas VBP only averages
// feature maps and upsamples.
#pragma once

#include "saliency/saliency.hpp"

namespace salnov::saliency {

class LayerwiseRelevancePropagation : public SaliencyMethod {
 public:
  explicit LayerwiseRelevancePropagation(double epsilon = 1e-6) : epsilon_(epsilon) {}

  Image compute(nn::Sequential& model, const Image& input) override;
  /// Walks weights via inference-mode forward_collect only; no per-call
  /// member scratch, so concurrent compute() calls are safe.
  bool thread_safe() const override { return true; }
  std::string name() const override { return "lrp"; }

  /// Raw signed relevance at the input, before abs/normalization
  /// (exposed for the conservation-property tests).
  Tensor relevance(nn::Sequential& model, const Image& input) const;

 private:
  double epsilon_;
};

}  // namespace salnov::saliency
