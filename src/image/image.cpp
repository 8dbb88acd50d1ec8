#include "image/image.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

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

Image Image::from_tensor(int64_t height, int64_t width, const Tensor& t) {
  return Image(height, width, t);
}

void Image::clamp01() {
  pixels_.apply([](float v) { return std::clamp(v, 0.0f, 1.0f); });
}

void Image::normalize_minmax() {
  if (empty()) return;
  const float lo = pixels_.min();
  const float hi = pixels_.max();
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
