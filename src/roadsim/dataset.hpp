// Dataset container: generated scenes prepared for the pipeline.
//
// Applies the paper's preprocessing at generation time: grayscale
// conversion, bilinear downscale to the pipeline resolution (paper: 60x160),
// and [0, 1] normalization. Keeps the ground-truth steering label and the
// scene parameters (the latter lets experiments recover per-image relevance
// masks).
#pragma once

#include <cstdint>
#include <vector>

#include "image/image.hpp"
#include "roadsim/generator.hpp"

namespace salnov::roadsim {

class DrivingDataset {
 public:
  DrivingDataset() = default;

  /// Generates `count` scenes at the generator's render resolution and
  /// downsamples to (height, width).
  static DrivingDataset generate(const SceneGenerator& generator, int64_t count, int64_t height,
                                 int64_t width, Rng& rng);

  int64_t size() const { return static_cast<int64_t>(images_.size()); }
  int64_t height() const { return height_; }
  int64_t width() const { return width_; }

  const Image& image(int64_t index) const { return images_.at(static_cast<size_t>(index)); }
  double steering(int64_t index) const { return steering_.at(static_cast<size_t>(index)); }
  const SceneParams& params(int64_t index) const { return params_.at(static_cast<size_t>(index)); }
  const std::vector<Image>& images() const { return images_; }

  void add(Image image, double steering_angle, const SceneParams& params);

  /// All images stacked as [N, 1, H, W] (CNN input).
  Tensor images_nchw() const;

  /// Steering labels as [N, 1].
  Tensor steering_tensor() const;

 private:
  DrivingDataset(int64_t height, int64_t width) : height_(height), width_(width) {}

  int64_t height_ = 0;
  int64_t width_ = 0;
  std::vector<Image> images_;
  std::vector<double> steering_;
  std::vector<SceneParams> params_;
};

}  // namespace salnov::roadsim
