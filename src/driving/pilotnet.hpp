// PilotNet-style steering-angle regression network.
//
// The paper models its prediction CNN on Bojarski et al.'s end-to-end
// steering network ("End to End Learning for Self-Driving Cars" /
// "VisualBackProp"): five convolutional layers (5x5 stride 2, then 3x3
// stride 1) followed by fully-connected layers, ReLU activations, and a
// single tanh-bounded steering output. `PilotNetConfig::paper()` is the
// full-size network for 60x160 inputs; `PilotNetConfig::compact()` is a
// reduced-width variant that trains in seconds on one CPU core and is used
// by tests and the faster benches (the saliency method is
// architecture-agnostic — the paper says so explicitly).
#pragma once

#include <cstdint>
#include <vector>

#include "nn/sequential.hpp"
#include "tensor/rng.hpp"

namespace salnov::driving {

struct PilotNetConfig {
  int64_t input_height = 60;   ///< Paper's pipeline resolution.
  int64_t input_width = 160;
  std::vector<int64_t> conv_channels = {24, 36, 48, 64, 64};  ///< Bojarski et al.
  std::vector<int64_t> dense_units = {100, 50, 10};
  /// Kernel sizes / strides follow PilotNet: three 5x5 stride-2 convs, then
  /// two 3x3 stride-1 convs. (Fixed; widths above are the tunable part.)

  /// Full-size configuration from the paper's reference network.
  static PilotNetConfig paper();

  /// Reduced-width configuration for CPU-budget experiments.
  static PilotNetConfig compact();

  /// Tiny configuration for unit tests (very small images train in <1 s).
  static PilotNetConfig tiny(int64_t height, int64_t width);
};

/// Builds the network. The returned Sequential maps [N, 1, H, W] images to
/// [N, 1] steering angles in (-1, 1) (tanh output).
nn::Sequential build_pilotnet(const PilotNetConfig& config, Rng& rng);

}  // namespace salnov::driving
