// Sequential container: a chain of layers trained end-to-end.
//
// Also the introspection point for saliency: forward_stages() runs the fused
// inference chain once and keeps the post-ReLU output of each conv stage,
// which is all VisualBackProp reads, so a steering prediction and its mask
// share one forward. forward_collect() returns every intermediate activation
// for LRP, which needs the pre-ReLU conv outputs too.
#pragma once

#include <memory>
#include <vector>

#include "nn/layer.hpp"

namespace salnov::nn {

/// An inference forward's output plus the post-activation output of each
/// convolutional stage (a Conv2d, through the ReLU that follows it if any),
/// shallow to deep, as [B, C, h, w] tensors.
struct StagedForward {
  Tensor output;
  std::vector<Tensor> conv_stages;
};

class Sequential {
 public:
  Sequential() = default;
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;

  /// Appends a layer; returns *this for fluent building.
  Sequential& add(std::unique_ptr<Layer> layer);

  /// Convenience: emplaces a layer of type L.
  template <typename L, typename... Args>
  Sequential& emplace(Args&&... args) {
    return add(std::make_unique<L>(std::forward<Args>(args)...));
  }

  size_t size() const { return layers_.size(); }
  bool empty() const { return layers_.empty(); }
  Layer& layer(size_t index) { return *layers_.at(index); }
  const Layer& layer(size_t index) const { return *layers_.at(index); }

  /// Runs the full chain. kTrain mode arms every layer's backward cache.
  Tensor forward(const Tensor& input, Mode mode = Mode::kInfer);

  /// The inference forward (the same fused chain as forward(input, kInfer),
  /// bit-identical output) that also keeps each conv stage's output. Only
  /// those stages are kept; every other activation is freed as the chain
  /// moves on.
  StagedForward forward_stages(const Tensor& input) const;

  /// True when layer `index` closes a conv stage: a Conv2d not followed by
  /// a ReLU, or a ReLU that follows a Conv2d.
  bool ends_conv_stage(size_t index) const;

  /// Runs the chain and returns all intermediate outputs:
  /// result[0] is layer 0's output, ..., result[size()-1] the final output.
  /// Always runs in inference mode (no caches disturbed).
  std::vector<Tensor> forward_collect(const Tensor& input) const;

  /// Backpropagates through the whole chain (after forward(..., kTrain))
  /// and returns dL/dinput.
  Tensor backward(const Tensor& grad_output);

  /// All trainable parameters, in layer order.
  std::vector<Parameter*> parameters();

  void zero_grad();

  /// Output shape of the full chain for a given input shape.
  Shape output_shape(Shape input) const;

  int64_t parameter_count();

 private:
  /// The fused inference chain behind forward(kInfer) and forward_stages();
  /// appends each conv stage's output to `conv_stages` when it is non-null.
  Tensor infer(const Tensor& input, std::vector<Tensor>* conv_stages) const;

  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace salnov::nn
