#include "nn/model_io.hpp"

#include <limits>
#include <sstream>
#include <stdexcept>

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/flatten.hpp"
#include "tensor/serialize.hpp"

namespace salnov::nn {
namespace {

constexpr const char* kMagic = "salnov-model";
constexpr uint32_t kVersion = 1;

/// Checks that a layer's weight shape, read from its config block, is
/// positive and that the weights it implies are still in the stream, so a
/// corrupt dimension fails typed before anything is allocated.
Shape checked_weight_shape(std::istream& is, Shape shape) {
  int64_t numel = 1;
  for (const int64_t d : shape) {
    if (d <= 0 || __builtin_mul_overflow(numel, d, &numel)) {
      throw SerializationError("load_model: implausible weight shape " + shape_to_string(shape));
    }
  }
  check_count(is, numel, std::numeric_limits<int64_t>::max(), sizeof(float),
              "load_model: weight elements");
  return shape;
}

std::unique_ptr<Layer> make_layer(const std::string& type, std::istream& is) {
  if (type == "dense") {
    const int64_t in = read_i64(is);
    const int64_t out = read_i64(is);
    const Shape weight_shape = checked_weight_shape(is, {in, out});  // before any allocation
    return std::make_unique<Dense>(Tensor::zeros(weight_shape), Tensor::zeros({out}));
  }
  if (type == "conv2d") {
    Conv2dConfig config;
    config.in_channels = read_i64(is);
    config.out_channels = read_i64(is);
    config.kernel_h = read_i64(is);
    config.kernel_w = read_i64(is);
    config.stride = read_i64(is);
    config.padding = read_i64(is);
    const Shape weight_shape = checked_weight_shape(
        is, {config.out_channels, config.in_channels, config.kernel_h, config.kernel_w});
    return std::make_unique<Conv2d>(config, Tensor::zeros(weight_shape),
                                    Tensor::zeros({config.out_channels}));
  }
  if (type == "relu") return std::make_unique<ReLU>();
  if (type == "sigmoid") return std::make_unique<Sigmoid>();
  if (type == "tanh") return std::make_unique<Tanh>();
  if (type == "flatten") return std::make_unique<Flatten>();
  throw SerializationError("load_model: unknown layer type '" + type + "'");
}

}  // namespace

void save_model(std::ostream& os, Sequential& model) {
  write_header(os, kMagic, kVersion);
  write_u32(os, static_cast<uint32_t>(model.size()));
  for (size_t i = 0; i < model.size(); ++i) {
    Layer& layer = model.layer(i);
    write_string(os, layer.type_name());
    layer.save_config(os);
    const auto params = layer.parameters();
    write_u32(os, static_cast<uint32_t>(params.size()));
    for (const Parameter* p : params) {
      write_string(os, p->name);
      write_tensor(os, p->value);
    }
  }
}

void save_model_file(const std::string& path, Sequential& model) {
  save_file_checked(path, [&](std::ostream& os) { save_model(os, model); });
}

Sequential load_model(std::istream& is) {
  read_header(is, kMagic, kVersion);
  const uint32_t layer_count = read_u32(is);
  Sequential model;
  for (uint32_t i = 0; i < layer_count; ++i) {
    const std::string type = read_string(is);
    std::unique_ptr<Layer> layer;
    try {
      layer = make_layer(type, is);
    } catch (const std::invalid_argument& err) {
      // A layer constructor refused the config block (e.g. a zero stride).
      throw SerializationError("load_model: layer '" + type + "': " + err.what());
    }
    const uint32_t param_count = read_u32(is);
    const auto params = layer->parameters();
    if (param_count != params.size()) {
      throw SerializationError("load_model: layer '" + type + "' expects " +
                               std::to_string(params.size()) + " parameters, file has " +
                               std::to_string(param_count));
    }
    for (Parameter* p : params) {
      const std::string name = read_string(is);
      Tensor value = read_tensor(is);
      if (name != p->name) {
        throw SerializationError("load_model: parameter name mismatch: '" + name + "' vs '" + p->name +
                                 "'");
      }
      if (value.shape() != p->value.shape()) {
        throw SerializationError("load_model: parameter shape mismatch for '" + name + "'");
      }
      p->value = std::move(value);
      p->grad = Tensor::zeros(p->value.shape());
    }
    model.add(std::move(layer));
  }
  return model;
}

Sequential load_model_file(const std::string& path) {
  std::istringstream is(load_file_checked(path), std::ios::binary);
  return load_model(is);
}

void require_model_shape(const Sequential& model, const Shape& input, const Shape& expected,
                         const std::string& what) {
  Shape output;
  try {
    output = model.output_shape(input);
  } catch (const std::invalid_argument& err) {
    throw SerializationError(what + " does not accept " + shape_to_string(input) + ": " +
                             err.what());
  }
  if (output != expected) {
    throw SerializationError(what + " maps " + shape_to_string(input) + " to " +
                             shape_to_string(output) + ", expected " + shape_to_string(expected));
  }
}

}  // namespace salnov::nn
