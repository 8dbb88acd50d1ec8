#include "image/image.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace salnov {

Image::Image(int64_t height, int64_t width) : height_(height), width_(width), pixels_({height, width}) {
  if (height < 0 || width < 0) throw std::invalid_argument("Image: negative size");
}

Image::Image(int64_t height, int64_t width, Tensor pixels) : height_(height), width_(width) {
  if (pixels.numel() != height * width) {
    throw std::invalid_argument("Image: tensor has " + std::to_string(pixels.numel()) +
                                " elements, expected " + std::to_string(height * width));
  }
  pixels_ = pixels.reshape({height, width});
}

float Image::at_clamped(int64_t y, int64_t x) const {
  y = std::clamp<int64_t>(y, 0, height_ - 1);
  x = std::clamp<int64_t>(x, 0, width_ - 1);
  return pixels_[index(y, x)];
}

void Image::clamp01() {
  pixels_.apply([](float v) { return std::clamp(v, 0.0f, 1.0f); });
}

namespace {

/// The values std::min_element and std::max_element find over `v`, in one
/// pass of independent lanes that vectorises. Like those scans, each lane
/// starts from the first pixel (a NaN there is the answer, and stays it),
/// skips later NaNs and keeps the first of equal values. Equal values differ
/// in bits only as ±0, so the lanes can disagree with the scans only on the
/// sign of a zero extremum, and only when a -0.0 is present; then the
/// ordered scans decide.
std::pair<float, float> extrema(const float* v, int64_t count) {
  constexpr int64_t kLanes = 16;
  constexpr uint32_t kNegativeZero = 0x80000000u;
  float lo[kLanes];
  float hi[kLanes];
  uint32_t negative_zero[kLanes] = {};
  std::fill(lo, lo + kLanes, v[0]);
  std::fill(hi, hi + kLanes, v[0]);
  const auto step = [&](int64_t l, float x) {
    lo[l] = x < lo[l] ? x : lo[l];
    hi[l] = hi[l] < x ? x : hi[l];
    negative_zero[l] |= std::bit_cast<uint32_t>(x) == kNegativeZero ? 1u : 0u;
  };
  int64_t i = 0;
  for (; i + kLanes <= count; i += kLanes) {
    for (int64_t l = 0; l < kLanes; ++l) step(l, v[i + l]);
  }
  for (; i < count; ++i) step(0, v[i]);
  float min = lo[0];
  float max = hi[0];
  uint32_t any_negative_zero = negative_zero[0];
  for (int64_t l = 1; l < kLanes; ++l) {
    min = lo[l] < min ? lo[l] : min;
    max = max < hi[l] ? hi[l] : max;
    any_negative_zero |= negative_zero[l];
  }
  if (any_negative_zero != 0 && (min == 0.0f || max == 0.0f)) {
    return {*std::min_element(v, v + count), *std::max_element(v, v + count)};
  }
  return {min, max};
}

}  // namespace

void Image::normalize_minmax() {
  if (empty()) return;
  const auto [lo, hi] = extrema(pixels_.data(), numel());
  const float range = hi - lo;
  if (range <= 0.0f) {
    pixels_.fill(0.0f);
    return;
  }
  pixels_.apply([lo, range](float v) { return (v - lo) / range; });
}

Tensor stack_nchw(const std::vector<const Image*>& images) {
  if (images.empty()) throw std::invalid_argument("stack_nchw: no images");
  for (const Image* image : images) {
    if (image == nullptr) throw std::invalid_argument("stack_nchw: null image");
  }
  const int64_t h = images[0]->height();
  const int64_t w = images[0]->width();
  Tensor stacked({static_cast<int64_t>(images.size()), 1, h, w});
  float* dst = stacked.data();
  for (const Image* image : images) {
    if (image->height() != h || image->width() != w) {
      throw std::invalid_argument("stack_nchw: mixed image sizes in one batch");
    }
    std::memcpy(dst, image->tensor().data(), static_cast<size_t>(h * w) * sizeof(float));
    dst += h * w;
  }
  return stacked;
}

RgbImage::RgbImage(int64_t height, int64_t width)
    : height_(height), width_(width), pixels_({height, width, 3}) {
  if (height < 0 || width < 0) throw std::invalid_argument("RgbImage: negative size");
}

void RgbImage::set(int64_t y, int64_t x, float r, float g, float b) {
  pixels_[index(y, x, 0)] = r;
  pixels_[index(y, x, 1)] = g;
  pixels_[index(y, x, 2)] = b;
}

void RgbImage::clamp01() {
  pixels_.apply([](float v) { return std::clamp(v, 0.0f, 1.0f); });
}

Image RgbImage::to_grayscale() const {
  Image gray(height_, width_);
  for (int64_t y = 0; y < height_; ++y) {
    for (int64_t x = 0; x < width_; ++x) {
      gray(y, x) = 0.299f * (*this)(y, x, 0) + 0.587f * (*this)(y, x, 1) + 0.114f * (*this)(y, x, 2);
    }
  }
  return gray;
}

}  // namespace salnov
