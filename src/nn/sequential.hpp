// Sequential container: a chain of layers trained end-to-end.
//
// Inference is one walk over the chain, planned once per model as layers
// are added: a Dense or Conv2d followed by a ReLU runs the ReLU in its GEMM
// store, a Dense followed by a Sigmoid runs the sigmoid in place on its
// GEMM output, and the plan marks the layer that ends each conv stage. Both
// are the activation layer's arithmetic without its pass and its copy, so
// fusion moves no bit. The float path and the int8 view (QuantizedForward)
// run this same walk; the int8 view swaps in its GEMMs through a GemmHook.
//
// forward_stages() keeps the post-ReLU output of each conv stage, which is
// all VisualBackProp reads, so a steering prediction and its mask share one
// forward. forward_collect() walks unfused and returns every layer's
// output, for LRP (which needs the pre-ReLU conv outputs too) and for
// layer-by-layer checks.
#pragma once

#include <cstdint>
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

/// Runs the Dense and Conv2d layers of an inference walk in place of their
/// float GEMMs. `gemm_index` counts the model's Dense and Conv2d layers in
/// model order; `relu` asks for the following ReLU to be applied at the
/// store, with the ReLU layer's arithmetic (v > 0 ? v : +0).
class GemmHook {
 public:
  virtual Tensor gemm(size_t gemm_index, const Tensor& input, bool relu) const = 0;

 protected:
  ~GemmHook() = default;
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

  /// Runs the full chain. kTrain mode arms every layer's backward cache;
  /// kInfer is infer(input).
  Tensor forward(const Tensor& input, Mode mode = Mode::kInfer);

  /// The inference walk. `hook`, when non-null, runs every Dense and Conv2d
  /// GEMM.
  Tensor infer(const Tensor& input, const GemmHook* hook = nullptr) const;

  /// The inference walk (bit-identical output to infer()) that also keeps
  /// each conv stage's output. Only those stages are kept; every other
  /// activation is freed as the walk moves on.
  StagedForward forward_stages(const Tensor& input, const GemmHook* hook = nullptr) const;

  /// True when layer `index` closes a conv stage: a Conv2d not followed by
  /// a ReLU, or a ReLU that follows a Conv2d.
  bool ends_conv_stage(size_t index) const { return plan_.at(index).ends_conv_stage; }

  /// The inference walk with no layer fused, returning every output:
  /// result[0] is layer 0's output, ..., result[size()-1] the final output.
  std::vector<Tensor> forward_collect(const Tensor& input, const GemmHook* hook = nullptr) const;

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
  /// How the inference walk runs one layer; set when the layer is added.
  struct Step {
    enum class Gemm : uint8_t { kNone, kDense, kConv };
    /// The next layer, when this one runs it: a ReLU in the GEMM store, a
    /// Sigmoid in place on a Dense output.
    enum class Fuse : uint8_t { kNone, kRelu, kSigmoid };
    Gemm gemm = Gemm::kNone;
    Fuse fuse = Fuse::kNone;
    size_t gemm_index = 0;  ///< GemmHook::gemm's index, for a Dense / Conv2d
    bool ends_conv_stage = false;
  };
  enum class Keep { kOutput, kConvStages, kEveryLayer };

  /// The one inference walk: appends the conv-stage outputs (kConvStages)
  /// or, unfused, every output but the returned last one (kEveryLayer) to
  /// `kept`.
  Tensor walk(const Tensor& input, const GemmHook* hook, Keep keep,
              std::vector<Tensor>* kept) const;
  /// Layer `index`'s float GEMM (a Dense or a Conv2d), ReLU fused if asked.
  Tensor float_gemm(size_t index, const Tensor& input, bool relu) const;

  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<Step> plan_;  ///< one per layer
};

}  // namespace salnov::nn
