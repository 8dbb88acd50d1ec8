#include "core/frame_validator.hpp"

#include <cmath>

namespace salnov::core {
namespace {

/// Allowed overshoot beyond [0, 1] before a pixel counts as out of range
/// (PGM-decoded inputs are exact, but resampled/blended frames may carry
/// float dust).
constexpr double kRangeSlack = 1e-3;
/// Frames whose pixel standard deviation falls below this are near-constant.
/// Deliberately tiny: a dark night frame has little contrast but is not
/// *constant*; a dead sensor is.
constexpr double kMinStddev = 1e-6;

}  // namespace

const char* frame_fault_name(FrameFault fault) {
  switch (fault) {
    case FrameFault::kNone:
      return "none";
    case FrameFault::kWrongSize:
      return "wrong-size";
    case FrameFault::kNonFinite:
      return "non-finite";
    case FrameFault::kOutOfRange:
      return "out-of-range";
    case FrameFault::kNearConstant:
      return "near-constant";
  }
  return "unknown";
}

FrameValidator::FrameValidator(int64_t height, int64_t width) : height_(height), width_(width) {
  if (height_ <= 0 || width_ <= 0) {
    throw std::invalid_argument("FrameValidator: non-positive frame size");
  }
}

FrameFault FrameValidator::check(const Image& frame) const {
  if (frame.height() != height_ || frame.width() != width_) return FrameFault::kWrongSize;

  const float lo = static_cast<float>(0.0 - kRangeSlack);
  const float hi = static_cast<float>(1.0 + kRangeSlack);
  const int64_t n = frame.numel();
  const float* pixels = frame.tensor().data();

  // One fused pass: finiteness and range per pixel, plus the running moments
  // for the constancy check.
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const float v = pixels[i];
    if (!std::isfinite(v)) return FrameFault::kNonFinite;
    if (!(v >= lo && v <= hi)) return FrameFault::kOutOfRange;
    sum += v;
    sum_sq += static_cast<double>(v) * v;
  }
  if (n > 1) {
    const double mean = sum / static_cast<double>(n);
    const double variance = std::max(0.0, sum_sq / static_cast<double>(n) - mean * mean);
    if (std::sqrt(variance) < kMinStddev) return FrameFault::kNearConstant;
  }
  return FrameFault::kNone;
}

void FrameValidator::require_valid(const Image& frame, const std::string& context) const {
  const FrameFault fault = check(frame);
  if (fault == FrameFault::kNone) return;
  std::string what = context + ": frame rejected (" + frame_fault_name(fault) + ")";
  if (fault == FrameFault::kWrongSize) {
    what += ": input is " + std::to_string(frame.height()) + "x" + std::to_string(frame.width()) +
            ", pipeline expects " + std::to_string(height_) + "x" + std::to_string(width_);
  } else if (fault == FrameFault::kNearConstant) {
    what += ": pixel variance is ~0 — frozen, dropped, or disconnected sensor";
  } else {
    what += ": the sensor or upstream preprocessing produced unusable pixel values";
  }
  throw InvalidFrameError(fault, what);
}

}  // namespace salnov::core
