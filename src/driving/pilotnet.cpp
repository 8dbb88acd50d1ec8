#include "driving/pilotnet.hpp"

#include <stdexcept>

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/flatten.hpp"

namespace salnov::driving {

PilotNetConfig PilotNetConfig::paper() { return PilotNetConfig{}; }

PilotNetConfig PilotNetConfig::compact() {
  PilotNetConfig config;
  config.conv_channels = {8, 12, 16, 20, 20};
  config.dense_units = {32, 16};
  return config;
}

PilotNetConfig PilotNetConfig::tiny(int64_t height, int64_t width) {
  PilotNetConfig config;
  config.input_height = height;
  config.input_width = width;
  config.conv_channels = {4, 6, 8};
  config.dense_units = {16};
  return config;
}

nn::Sequential build_pilotnet(const PilotNetConfig& config, Rng& rng) {
  if (config.conv_channels.empty() || config.dense_units.empty()) {
    throw std::invalid_argument("build_pilotnet: need at least one conv and one dense layer");
  }
  nn::Sequential model;
  // Kernel schedule: all but the last two convs are 5x5 stride 2 (feature
  // extraction + downsampling), the last two are 3x3 stride 1. The 3x3
  // layers use padding 1 because the paper's 60x160 input (smaller than
  // PilotNet's original 66x200) would otherwise shrink below the kernel.
  const auto conv_count = static_cast<int64_t>(config.conv_channels.size());
  const int64_t strided = std::max<int64_t>(conv_count - 2, 1);
  int64_t in_channels = 1;
  for (int64_t i = 0; i < conv_count; ++i) {
    nn::Conv2dConfig conv;
    conv.in_channels = in_channels;
    conv.out_channels = config.conv_channels[static_cast<size_t>(i)];
    if (i < strided) {
      conv.kernel_h = conv.kernel_w = 5;
      conv.stride = 2;
      conv.padding = 0;
    } else {
      conv.kernel_h = conv.kernel_w = 3;
      conv.stride = 1;
      conv.padding = 1;
    }
    model.emplace<nn::Conv2d>(conv, rng);
    model.emplace<nn::ReLU>();
    in_channels = conv.out_channels;
  }
  model.emplace<nn::Flatten>();

  const Shape flat_shape =
      model.output_shape({1, 1, config.input_height, config.input_width});
  int64_t features = flat_shape[1];
  for (int64_t units : config.dense_units) {
    model.emplace<nn::Dense>(features, units, rng);
    model.emplace<nn::ReLU>();
    features = units;
  }
  // Output head: a down-scaled init keeps the tanh out of saturation at the
  // start of training (a saturated head has vanishing gradients and can lock
  // the model into a constant +/-1 prediction).
  auto head = std::make_unique<nn::Dense>(features, 1, rng);
  for (nn::Parameter* p : head->parameters()) p->value *= 0.1f;
  model.add(std::move(head));
  model.emplace<nn::Tanh>();
  return model;
}

}  // namespace salnov::driving
