// Image types used throughout the pipeline.
//
// The paper's pipeline operates on low-resolution (60x160) grayscale images
// normalized to [0, 1]. We keep two value types:
//   * Image     — single-channel float image in [0, 1] (the workhorse),
//   * RgbImage  — three-channel float image, produced by the scene
//                 generators and converted to grayscale at pipeline entry.
// Both are thin wrappers around Tensor with (height, width[, channel])
// accessors, so they interoperate with the nn:: substrate at zero cost.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace salnov {

/// Single-channel float image, row-major, values nominally in [0, 1].
class Image {
 public:
  Image() = default;

  /// Black image of the given size.
  Image(int64_t height, int64_t width);

  /// Wraps existing pixel data; `pixels` must have shape [height, width] or
  /// be reshapeable to it.
  Image(int64_t height, int64_t width, Tensor pixels);

  int64_t height() const { return height_; }
  int64_t width() const { return width_; }
  int64_t numel() const { return height_ * width_; }
  bool empty() const { return numel() == 0; }

  float operator()(int64_t y, int64_t x) const { return pixels_[index(y, x)]; }
  float& operator()(int64_t y, int64_t x) { return pixels_[index(y, x)]; }

  /// Bounds-clamped read: out-of-range coordinates are clamped to the edge.
  /// Used by resampling kernels.
  float at_clamped(int64_t y, int64_t x) const;

  const Tensor& tensor() const { return pixels_; }
  Tensor& tensor() { return pixels_; }

  /// Flattened copy as a [height * width] tensor (autoencoder input layout).
  Tensor flattened() const { return pixels_.reshape({numel()}); }

  /// As a [1, 1, height, width] tensor (CNN input layout, batch of one).
  Tensor as_nchw() const { return pixels_.reshape({1, 1, height_, width_}); }

  /// Rebuilds an image from a flat or [h, w] tensor.
  static Image from_tensor(int64_t height, int64_t width, const Tensor& t);

  /// Clamps every pixel into [0, 1] in place.
  void clamp01();

  /// Linearly rescales pixel values so min -> 0 and max -> 1. A constant
  /// image becomes all zeros.
  void normalize_minmax();

  float mean() const { return pixels_.mean(); }
  float min() const { return pixels_.min(); }
  float max() const { return pixels_.max(); }

  bool same_size(const Image& other) const {
    return height_ == other.height_ && width_ == other.width_;
  }

 private:
  int64_t index(int64_t y, int64_t x) const { return y * width_ + x; }

  int64_t height_ = 0;
  int64_t width_ = 0;
  Tensor pixels_{Shape{0}};
};

/// Stacks same-sized images into one [B, 1, H, W] network input, the batched
/// counterpart of Image::as_nchw(). Throws std::invalid_argument on an empty
/// list, a null entry, or mixed sizes.
Tensor stack_nchw(const std::vector<const Image*>& images);

/// Three-channel (RGB) float image with values nominally in [0, 1].
class RgbImage {
 public:
  RgbImage() = default;
  RgbImage(int64_t height, int64_t width);

  int64_t height() const { return height_; }
  int64_t width() const { return width_; }

  float operator()(int64_t y, int64_t x, int64_t c) const { return pixels_[index(y, x, c)]; }
  float& operator()(int64_t y, int64_t x, int64_t c) { return pixels_[index(y, x, c)]; }

  const Tensor& tensor() const { return pixels_; }

  /// Sets all three channels at (y, x).
  void set(int64_t y, int64_t x, float r, float g, float b);

  void clamp01();

  /// Luminance conversion (ITU-R BT.601: 0.299 R + 0.587 G + 0.114 B),
  /// matching the paper's "converted to grayscale" preprocessing step.
  Image to_grayscale() const;

 private:
  int64_t index(int64_t y, int64_t x, int64_t c) const { return (y * width_ + x) * 3 + c; }

  int64_t height_ = 0;
  int64_t width_ = 0;
  Tensor pixels_{Shape{0}};
};

}  // namespace salnov
