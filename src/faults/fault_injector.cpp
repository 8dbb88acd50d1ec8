#include "faults/fault_injector.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace salnov::faults {
namespace {

Image salt_pepper(Rng& rng, double severity, const Image& frame) {
  // One uniform draw per pixel regardless of severity: the flipped pixel
  // sets at p1 < p2 are nested for a fixed seed, which makes the severity
  // sweep monotone in distortion.
  const double p = 0.5 * severity;
  Image out = frame;
  for (int64_t i = 0; i < out.numel(); ++i) {
    const double u = rng.uniform();
    if (u < p / 2.0) {
      out.tensor()[i] = 0.0f;
    } else if (u >= 1.0 - p / 2.0) {
      out.tensor()[i] = 1.0f;
    }
  }
  return out;
}

Image band_tearing(Rng& rng, double severity, const Image& frame) {
  const int64_t h = frame.height();
  const int64_t w = frame.width();
  // The tear row is drawn even at severity 0 to keep the stream aligned.
  const int64_t y0 = rng.uniform_int(0, std::max<int64_t>(0, h - 1));
  if (severity <= 0.0) return frame;
  const int64_t band = std::min(h - y0, std::max<int64_t>(1, std::llround(severity * h / 2.0)));
  const int64_t dx = std::max<int64_t>(1, std::llround(severity * w / 2.0));
  Image out = frame;
  for (int64_t y = y0; y < y0 + band; ++y) {
    for (int64_t x = 0; x < w; ++x) out(y, x) = frame(y, (x + dx) % w);
  }
  return out;
}

Image exposure(double gain, double bias, const Image& frame) {
  Image out = frame;
  for (int64_t i = 0; i < out.numel(); ++i) {
    out.tensor()[i] =
        std::clamp(static_cast<float>(out.tensor()[i] * gain + bias), 0.0f, 1.0f);
  }
  return out;
}

Image occlusion(Rng& rng, double severity, const Image& frame) {
  const int64_t h = frame.height();
  const int64_t w = frame.width();
  const int64_t cy = rng.uniform_int(0, std::max<int64_t>(0, h - 1));
  const int64_t cx = rng.uniform_int(0, std::max<int64_t>(0, w - 1));
  if (severity <= 0.0) return frame;
  // Sides scale with sqrt(severity) so the *covered area* scales with
  // severity; a fixed center makes rectangles at increasing severity nested.
  const int64_t rh = std::max<int64_t>(1, std::llround(0.8 * h * std::sqrt(severity)));
  const int64_t rw = std::max<int64_t>(1, std::llround(0.8 * w * std::sqrt(severity)));
  const int64_t top = std::clamp<int64_t>(cy - rh / 2, 0, h - 1);
  const int64_t left = std::clamp<int64_t>(cx - rw / 2, 0, w - 1);
  const int64_t bottom = std::min(h, top + rh);
  const int64_t right = std::min(w, left + rw);
  Image out = frame;
  for (int64_t y = top; y < bottom; ++y) {
    for (int64_t x = left; x < right; ++x) out(y, x) = 0.0f;
  }
  return out;
}

Image gaussian_blur(double severity, const Image& frame) {
  const double sigma = 2.5 * severity;
  if (sigma < 1e-6) return frame;
  const int64_t radius = std::max<int64_t>(1, static_cast<int64_t>(std::ceil(2.5 * sigma)));
  std::vector<float> kernel(static_cast<size_t>(2 * radius + 1));
  double norm = 0.0;
  for (int64_t k = -radius; k <= radius; ++k) {
    const double wgt = std::exp(-0.5 * (static_cast<double>(k) / sigma) * (static_cast<double>(k) / sigma));
    kernel[static_cast<size_t>(k + radius)] = static_cast<float>(wgt);
    norm += wgt;
  }
  for (float& wgt : kernel) wgt = static_cast<float>(wgt / norm);

  const int64_t h = frame.height();
  const int64_t w = frame.width();
  Image horizontal(h, w);
  for (int64_t y = 0; y < h; ++y) {
    for (int64_t x = 0; x < w; ++x) {
      float acc = 0.0f;
      for (int64_t k = -radius; k <= radius; ++k) {
        acc += kernel[static_cast<size_t>(k + radius)] * frame.at_clamped(y, x + k);
      }
      horizontal(y, x) = acc;
    }
  }
  Image out(h, w);
  for (int64_t y = 0; y < h; ++y) {
    for (int64_t x = 0; x < w; ++x) {
      float acc = 0.0f;
      for (int64_t k = -radius; k <= radius; ++k) {
        acc += kernel[static_cast<size_t>(k + radius)] * horizontal.at_clamped(y + k, x);
      }
      out(y, x) = acc;
    }
  }
  return out;
}

}  // namespace

const char* camera_fault_name(CameraFault fault) {
  return kCameraFaultNames[static_cast<size_t>(fault)];
}

const std::vector<CameraFault>& all_camera_faults() {
  static const std::vector<CameraFault> faults = {
      CameraFault::kFrozenFrame,  CameraFault::kDroppedFrame, CameraFault::kSaltPepper,
      CameraFault::kBandTearing,  CameraFault::kOverExposure, CameraFault::kUnderExposure,
      CameraFault::kOcclusion,    CameraFault::kGaussianBlur,
  };
  return faults;
}

FaultInjector::FaultInjector(uint64_t seed) : rng_(seed) {}

void FaultInjector::reset(uint64_t seed) {
  rng_ = Rng(seed);
  stale_.reset();
}

Image FaultInjector::apply(CameraFault fault, double severity, const Image& frame) {
  if (!std::isfinite(severity) || severity < 0.0 || severity > 1.0) {
    throw std::invalid_argument("FaultInjector: severity must be in [0, 1]");
  }
  if (frame.empty()) throw std::invalid_argument("FaultInjector: empty frame");

  switch (fault) {
    case CameraFault::kFrozenFrame: {
      Image out = frame;
      if (!stale_.has_value() || !stale_->same_size(frame) || severity <= 0.0) {
        // Healthy capture: the frame buffer updates normally.
        stale_ = frame;
      } else {
        // Stuck buffer: the stale frame does NOT update while the fault is
        // active, so at severity 1 the output repeats bit-identically —
        // what a frozen camera actually produces (not a one-frame lag).
        for (int64_t i = 0; i < out.numel(); ++i) {
          out.tensor()[i] = static_cast<float>(severity * stale_->tensor()[i] +
                                               (1.0 - severity) * frame.tensor()[i]);
        }
      }
      return out;
    }
    case CameraFault::kDroppedFrame: {
      Image out = frame;
      for (int64_t i = 0; i < out.numel(); ++i) {
        out.tensor()[i] = static_cast<float>(out.tensor()[i] * (1.0 - severity));
      }
      return out;
    }
    case CameraFault::kSaltPepper:
      return salt_pepper(rng_, severity, frame);
    case CameraFault::kBandTearing:
      return band_tearing(rng_, severity, frame);
    case CameraFault::kOverExposure:
      return exposure(1.0 + 3.0 * severity, 0.25 * severity, frame);
    case CameraFault::kUnderExposure:
      return exposure(1.0 - 0.95 * severity, 0.0, frame);
    case CameraFault::kOcclusion:
      return occlusion(rng_, severity, frame);
    case CameraFault::kGaussianBlur:
      return gaussian_blur(severity, frame);
  }
  throw std::logic_error("FaultInjector: unknown fault");
}

Image FaultInjector::apply_all(const std::vector<FaultSpec>& chain, const Image& frame) {
  Image out = frame;
  for (const FaultSpec& spec : chain) out = apply(spec, out);
  return out;
}

int64_t flip_weight_bits(nn::Sequential& model, int64_t flips, Rng& rng) {
  const auto params = model.parameters();
  int64_t total = 0;
  for (const nn::Parameter* p : params) total += p->value.numel();
  if (total == 0 || flips <= 0) return 0;

  for (int64_t f = 0; f < flips; ++f) {
    int64_t element = rng.uniform_int(0, total - 1);
    const int bit = static_cast<int>(rng.uniform_int(0, 31));
    for (nn::Parameter* p : params) {
      if (element < p->value.numel()) {
        float& value = p->value[element];
        value = std::bit_cast<float>(std::bit_cast<uint32_t>(value) ^ (1u << bit));
        p->bump_version();  // invalidate pre-packed inference weights
        break;
      }
      element -= p->value.numel();
    }
  }
  return flips;
}

}  // namespace salnov::faults
