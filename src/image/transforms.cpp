#include "image/transforms.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace salnov {
namespace {

float bilinear_sample(const Image& src, double y, double x) {
  const auto y0 = static_cast<int64_t>(std::floor(y));
  const auto x0 = static_cast<int64_t>(std::floor(x));
  const double fy = y - static_cast<double>(y0);
  const double fx = x - static_cast<double>(x0);
  const double v00 = src.at_clamped(y0, x0);
  const double v01 = src.at_clamped(y0, x0 + 1);
  const double v10 = src.at_clamped(y0 + 1, x0);
  const double v11 = src.at_clamped(y0 + 1, x0 + 1);
  const double top = v00 + (v01 - v00) * fx;
  const double bottom = v10 + (v11 - v10) * fx;
  return static_cast<float>(top + (bottom - top) * fy);
}

// Pixel-wise MSE in 0-255 intensity units (the scale the paper quotes in
// Fig. 3), local to this file to keep image/ below metrics/ in the layering.
double mse_255(const Image& a, const Image& b) {
  double acc = 0.0;
  for (int64_t i = 0; i < a.numel(); ++i) {
    const double d = (static_cast<double>(a.tensor()[i]) - static_cast<double>(b.tensor()[i])) * 255.0;
    acc += d * d;
  }
  return acc / static_cast<double>(a.numel());
}

}  // namespace

Image resize_bilinear(const Image& src, int64_t out_height, int64_t out_width) {
  if (out_height <= 0 || out_width <= 0) {
    throw std::invalid_argument("resize_bilinear: non-positive output size");
  }
  if (src.empty()) throw std::invalid_argument("resize_bilinear: empty source");
  Image out(out_height, out_width);
  const double sy = static_cast<double>(src.height()) / static_cast<double>(out_height);
  const double sx = static_cast<double>(src.width()) / static_cast<double>(out_width);
  for (int64_t y = 0; y < out_height; ++y) {
    // Align sample points to pixel centers to avoid a half-pixel shift.
    const double src_y = (static_cast<double>(y) + 0.5) * sy - 0.5;
    for (int64_t x = 0; x < out_width; ++x) {
      const double src_x = (static_cast<double>(x) + 0.5) * sx - 0.5;
      out(y, x) = bilinear_sample(src, src_y, src_x);
    }
  }
  return out;
}

Image add_gaussian_noise(const Image& src, double stddev, Rng& rng) {
  Image out = src;
  for (int64_t y = 0; y < out.height(); ++y) {
    for (int64_t x = 0; x < out.width(); ++x) {
      out(y, x) = static_cast<float>(out(y, x) + rng.normal(0.0, stddev));
    }
  }
  out.clamp01();
  return out;
}

Image adjust_brightness(const Image& src, double delta) {
  Image out = src;
  out.tensor() += static_cast<float>(delta);
  out.clamp01();
  return out;
}

Image adjust_contrast(const Image& src, double factor) {
  Image out = src;
  const float mean = src.mean();
  out.tensor().apply([mean, factor](float v) {
    return static_cast<float>(mean + factor * (static_cast<double>(v) - mean));
  });
  out.clamp01();
  return out;
}

Image rotate(const Image& src, double degrees) {
  const double radians = degrees * std::numbers::pi / 180.0;
  const double c = std::cos(radians);
  const double s = std::sin(radians);
  const double cy = static_cast<double>(src.height() - 1) / 2.0;
  const double cx = static_cast<double>(src.width() - 1) / 2.0;
  Image out(src.height(), src.width());
  for (int64_t y = 0; y < src.height(); ++y) {
    for (int64_t x = 0; x < src.width(); ++x) {
      // Inverse mapping: sample the source at the pre-rotation location.
      const double dy = static_cast<double>(y) - cy;
      const double dx = static_cast<double>(x) - cx;
      const double src_y = cy + c * dy + s * dx;
      const double src_x = cx - s * dy + c * dx;
      out(y, x) = bilinear_sample(src, src_y, src_x);
    }
  }
  return out;
}

Image translate(const Image& src, int64_t dy, int64_t dx) {
  Image out(src.height(), src.width());
  for (int64_t y = 0; y < src.height(); ++y) {
    for (int64_t x = 0; x < src.width(); ++x) {
      out(y, x) = src.at_clamped(y - dy, x - dx);
    }
  }
  return out;
}

Image add_salt_pepper_noise(const Image& src, double p, Rng& rng) {
  if (p < 0.0 || p > 1.0) throw std::invalid_argument("add_salt_pepper_noise: p outside [0, 1]");
  Image out = src;
  for (int64_t y = 0; y < out.height(); ++y) {
    for (int64_t x = 0; x < out.width(); ++x) {
      const double u = rng.uniform();
      if (u < p / 2.0) {
        out(y, x) = 0.0f;
      } else if (u < p) {
        out(y, x) = 1.0f;
      }
    }
  }
  return out;
}

Image occlude(const Image& src, int64_t y0, int64_t x0, int64_t h, int64_t w, float value) {
  Image out = src;
  const int64_t y1 = std::min(y0 + h, src.height());
  const int64_t x1 = std::min(x0 + w, src.width());
  for (int64_t y = std::max<int64_t>(y0, 0); y < y1; ++y) {
    for (int64_t x = std::max<int64_t>(x0, 0); x < x1; ++x) {
      out(y, x) = value;
    }
  }
  return out;
}

double calibrate_noise_for_mse(const Image& src, double target_mse, Rng& rng, int iterations) {
  // Clamping at [0, 1] makes realized MSE a monotone but nonlinear function
  // of sigma, so bisect on sigma using a fixed noise realization per probe.
  double lo = 0.0;
  double hi = 1.0;
  for (int i = 0; i < iterations; ++i) {
    const double mid = (lo + hi) / 2.0;
    Rng probe = rng;  // same stream per probe: keeps the function monotone
    const Image noisy = add_gaussian_noise(src, mid, probe);
    if (mse_255(src, noisy) < target_mse) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return (lo + hi) / 2.0;
}

double calibrate_brightness_for_mse(const Image& src, double target_mse, int iterations) {
  double lo = 0.0;
  double hi = 1.0;
  for (int i = 0; i < iterations; ++i) {
    const double mid = (lo + hi) / 2.0;
    if (mse_255(src, adjust_brightness(src, mid)) < target_mse) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return (lo + hi) / 2.0;
}

}  // namespace salnov
