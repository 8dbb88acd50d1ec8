#include "nn/sequential.hpp"

#include <stdexcept>

#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "tensor/sigmoid.hpp"

namespace salnov::nn {

namespace {

// In inference mode a Dense/Conv2d immediately followed by a ReLU can run
// with the ReLU fused into the GEMM epilogue. max(v, 0) at the store is
// bit-identical to a separate ReLU pass, so fusion is purely a perf change.
// A Dense followed by a Sigmoid runs the sigmoid kernel in place over the
// GEMM output, which is the Sigmoid layer's arithmetic without its copy.
// Returns true (and writes `out`) if layers [i, i+1] were fused.
bool try_fused_infer(const std::vector<std::unique_ptr<Layer>>& layers, size_t i,
                     const Tensor& input, Tensor& out) {
  if (i + 1 >= layers.size()) return false;
  const std::string next = layers[i + 1]->type_name();
  if (next == "sigmoid") {
    auto* dense = dynamic_cast<Dense*>(layers[i].get());
    if (dense == nullptr) return false;
    out = dense->forward(input, Mode::kInfer);
    sigmoid_inplace(out.data(), out.numel());
    return true;
  }
  if (next != "relu") return false;
  if (auto* dense = dynamic_cast<Dense*>(layers[i].get())) {
    out = dense->forward_infer_fused_relu(input);
    return true;
  }
  if (auto* conv = dynamic_cast<Conv2d*>(layers[i].get())) {
    out = conv->forward_infer_fused_relu(input);
    return true;
  }
  return false;
}

}  // namespace

Sequential& Sequential::add(std::unique_ptr<Layer> layer) {
  if (!layer) throw std::invalid_argument("Sequential::add: null layer");
  layers_.push_back(std::move(layer));
  return *this;
}

Tensor Sequential::forward(const Tensor& input, Mode mode) {
  if (mode == Mode::kInfer) return infer(input, nullptr);
  Tensor current = input;
  for (auto& layer : layers_) current = layer->forward(current, mode);
  return current;
}

StagedForward Sequential::forward_stages(const Tensor& input) const {
  StagedForward result;
  result.output = infer(input, &result.conv_stages);
  return result;
}

bool Sequential::ends_conv_stage(size_t index) const {
  const auto is_conv = [&](size_t i) {
    return dynamic_cast<const Conv2d*>(layers_.at(i).get()) != nullptr;
  };
  if (layers_.at(index)->type_name() == "relu") return index > 0 && is_conv(index - 1);
  return is_conv(index) &&
         (index + 1 == layers_.size() || layers_[index + 1]->type_name() != "relu");
}

Tensor Sequential::infer(const Tensor& input, std::vector<Tensor>* conv_stages) const {
  // Layers read the previous output in place: a kept conv stage feeds the
  // next layer from its slot in `conv_stages` (only the last slot is read,
  // and only before the next push), everything else from `owned`.
  const Tensor* current = &input;
  Tensor owned;
  for (size_t i = 0; i < layers_.size(); ++i) {
    // forward() is non-const on Layer because of training caches; inference
    // mode leaves caches untouched, making this call logically const.
    Tensor next;
    if (try_fused_infer(layers_, i, *current, next)) {
      ++i;  // the activation ran on the GEMM output
    } else {
      next = layers_[i]->forward(*current, Mode::kInfer);
    }
    if (conv_stages != nullptr && ends_conv_stage(i)) {
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

std::vector<Tensor> Sequential::forward_collect(const Tensor& input) const {
  std::vector<Tensor> activations;
  activations.reserve(layers_.size());
  Tensor current = input;
  for (const auto& layer : layers_) {
    // forward() is non-const on Layer because of training caches; inference
    // mode leaves caches untouched, making this call logically const.
    current = const_cast<Layer&>(*layer).forward(current, Mode::kInfer);
    activations.push_back(current);
  }
  return activations;
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
