#include "nn/sequential.hpp"

#include <stdexcept>

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "tensor/sigmoid.hpp"

namespace salnov::nn {

Sequential& Sequential::add(std::unique_ptr<Layer> layer) {
  if (!layer) throw std::invalid_argument("Sequential::add: null layer");
  Step step;
  if (dynamic_cast<const Dense*>(layer.get()) != nullptr) step.gemm = Step::Gemm::kDense;
  if (dynamic_cast<const Conv2d*>(layer.get()) != nullptr) step.gemm = Step::Gemm::kConv;
  step.ends_conv_stage = step.gemm == Step::Gemm::kConv;
  if (!plan_.empty()) {
    Step& prev = plan_.back();
    step.gemm_index = prev.gemm_index + (prev.gemm != Step::Gemm::kNone ? 1 : 0);
    const bool relu = dynamic_cast<const ReLU*>(layer.get()) != nullptr;
    if (relu && prev.gemm != Step::Gemm::kNone) prev.fuse = Step::Fuse::kRelu;
    if (relu && prev.gemm == Step::Gemm::kConv) {
      prev.ends_conv_stage = false;
      step.ends_conv_stage = true;
    }
    if (dynamic_cast<const Sigmoid*>(layer.get()) != nullptr && prev.gemm == Step::Gemm::kDense) {
      prev.fuse = Step::Fuse::kSigmoid;
    }
  }
  layers_.push_back(std::move(layer));
  plan_.push_back(step);
  return *this;
}

Tensor Sequential::forward(const Tensor& input, Mode mode) {
  if (mode == Mode::kInfer) return infer(input);
  Tensor current = input;
  for (auto& layer : layers_) current = layer->forward(current, mode);
  return current;
}

Tensor Sequential::infer(const Tensor& input, const GemmHook* hook) const {
  return walk(input, hook, Keep::kOutput, nullptr);
}

StagedForward Sequential::forward_stages(const Tensor& input, const GemmHook* hook) const {
  StagedForward result;
  result.output = walk(input, hook, Keep::kConvStages, &result.conv_stages);
  return result;
}

std::vector<Tensor> Sequential::forward_collect(const Tensor& input, const GemmHook* hook) const {
  std::vector<Tensor> outputs;
  if (layers_.empty()) return outputs;
  outputs.reserve(layers_.size());
  outputs.push_back(walk(input, hook, Keep::kEveryLayer, &outputs));
  return outputs;
}

Tensor Sequential::float_gemm(size_t index, const Tensor& input, bool relu) const {
  // forward() is non-const on Layer because of training caches; inference
  // mode leaves caches untouched, making these calls logically const.
  if (plan_[index].gemm == Step::Gemm::kDense) {
    auto& dense = static_cast<Dense&>(*layers_[index]);
    return relu ? dense.forward_infer_fused_relu(input) : dense.forward(input, Mode::kInfer);
  }
  auto& conv = static_cast<Conv2d&>(*layers_[index]);
  return relu ? conv.forward_infer_fused_relu(input) : conv.forward(input, Mode::kInfer);
}

Tensor Sequential::walk(const Tensor& input, const GemmHook* hook, Keep keep,
                        std::vector<Tensor>* kept) const {
  // Layers read the previous output in place: a kept output feeds the next
  // layer from its slot in `kept` (only the last slot is read, and only
  // before the next push), everything else from `owned`.
  const Tensor* current = &input;
  Tensor owned;
  for (size_t i = 0; i < layers_.size(); ++i) {
    const Step& step = plan_[i];
    const Step::Fuse fuse = keep == Keep::kEveryLayer ? Step::Fuse::kNone : step.fuse;
    Tensor next;
    if (step.gemm == Step::Gemm::kNone) {
      next = layers_[i]->forward(*current, Mode::kInfer);
    } else {
      const bool relu = fuse == Step::Fuse::kRelu;
      next = hook != nullptr ? hook->gemm(step.gemm_index, *current, relu)
                             : float_gemm(i, *current, relu);
      if (fuse == Step::Fuse::kSigmoid) sigmoid_inplace(next.data(), next.numel());
      if (fuse != Step::Fuse::kNone) ++i;  // the activation ran on the GEMM output
    }
    const bool keep_next = keep == Keep::kEveryLayer ? i + 1 < layers_.size()
                                                     : keep == Keep::kConvStages &&
                                                           plan_[i].ends_conv_stage;
    if (keep_next) {
      kept->push_back(std::move(next));
      current = &kept->back();
    } else {
      owned = std::move(next);
      current = &owned;
    }
  }
  if (current == &owned) return owned;
  return *current;
}

Tensor Sequential::backward(const Tensor& grad_output) {
  Tensor grad = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    grad = (*it)->backward(grad);
  }
  return grad;
}

std::vector<Parameter*> Sequential::parameters() {
  std::vector<Parameter*> params;
  for (auto& layer : layers_) {
    for (Parameter* p : layer->parameters()) params.push_back(p);
  }
  return params;
}

void Sequential::zero_grad() {
  for (Parameter* p : parameters()) p->zero_grad();
}

Shape Sequential::output_shape(Shape input) const {
  for (const auto& layer : layers_) input = layer->output_shape(input);
  return input;
}

int64_t Sequential::parameter_count() { return nn::parameter_count(parameters()); }

}  // namespace salnov::nn
