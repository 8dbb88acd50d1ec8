#include "core/frame_validator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#if defined(__SSE2__)
#include <emmintrin.h>
#include <xmmintrin.h>
#endif

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

/// What one pass over the pixels learns: whether every pixel satisfies
/// lo <= v <= hi (NaN and +/-inf do not), and the extremes, which mean
/// something only when every pixel does.
struct PixelScreen {
  bool all_in_range = false;
  float min = 0.0f;
  float max = 0.0f;
};

/// The screen pass: per-lane min/max plus an unordered (NaN) flag, 16
/// floats (one cache line) a step at SSE2 (the x86-64 baseline), the scalar
/// loop elsewhere and for the tail. Its result does not depend on the
/// pass's order: min and max are exact, and the range test on them is the
/// per-pixel test.
PixelScreen screen_pixels(const float* pixels, int64_t n, float lo, float hi) {
  float lo_seen = std::numeric_limits<float>::infinity();
  float hi_seen = -std::numeric_limits<float>::infinity();
  bool unordered = false;
  int64_t i = 0;
#if defined(__SSE2__)
  // A served frame usually arrives cold, its lines evicted by the previous
  // frame's forwards, and the hardware prefetcher restarts at every 4 KB
  // page: reading one page ahead, with four chains, cut a cold 60x160 pass
  // from about 7 to under 5 us on the AVX-512 Xeon of EXPERIMENTS.md.
  constexpr int64_t kPrefetchAhead = 1024;  // floats
  constexpr int kLanes = 4;                 // independent min/max chains
  __m128 mins[kLanes];
  __m128 maxs[kLanes];
  for (int l = 0; l < kLanes; ++l) {
    mins[l] = _mm_set1_ps(lo_seen);
    maxs[l] = _mm_set1_ps(hi_seen);
  }
  __m128 nan = _mm_setzero_ps();
  for (; i + 4 * kLanes <= n; i += 4 * kLanes) {
    _mm_prefetch(reinterpret_cast<const char*>(pixels + std::min(i + kPrefetchAhead, n - 1)),
                 _MM_HINT_T0);
    for (int l = 0; l < kLanes; ++l) {
      const __m128 v = _mm_loadu_ps(pixels + i + 4 * l);
      nan = _mm_or_ps(nan, _mm_cmpunord_ps(v, v));
      mins[l] = _mm_min_ps(mins[l], v);
      maxs[l] = _mm_max_ps(maxs[l], v);
    }
  }
  for (int l = 1; l < kLanes; ++l) {
    mins[0] = _mm_min_ps(mins[0], mins[l]);
    maxs[0] = _mm_max_ps(maxs[0], maxs[l]);
  }
  alignas(16) float lanes[8];
  _mm_store_ps(lanes, mins[0]);
  _mm_store_ps(lanes + 4, maxs[0]);
  for (int l = 0; l < 4; ++l) {
    lo_seen = std::min(lo_seen, lanes[l]);
    hi_seen = std::max(hi_seen, lanes[4 + l]);
  }
  unordered = _mm_movemask_ps(nan) != 0;
#endif
  for (; i < n; ++i) {
    const float v = pixels[i];
    unordered |= v != v;
    lo_seen = std::min(lo_seen, v);
    hi_seen = std::max(hi_seen, v);
  }
  return {!unordered && lo_seen >= lo && hi_seen <= hi, lo_seen, hi_seen};
}

/// True when the frame's range alone proves the ordered loop below would
/// not report kNearConstant, so the moment sums need not run. All n > 1
/// pixels lie in [min, max] within [lo, hi], M = hi >= max |v|, u = 2^-53.
///
///   * Exact variance: the two extreme pixels sit a + b = R = max - min
///     from the mean, so n * var >= a^2 + b^2 >= R^2 / 2: var >= R^2/(2n).
///   * The loop's computed variance is within E = (3(n-1) + 5) u M^2 of
///     it: each product v*v of floats is exact in double; the two ordered
///     sums carry at most (n-1) u n M and (n-1) u n M^2, so sum_sq / n is
///     off by (n-1) u M^2 (+ u M^2 rounding), the mean by n u M and its
///     square by 2 n u M^2 (+ u M^2), and the subtraction adds u M^2. The
///     std::max(0, .) only raises it.
///
/// Certifying when R^2/(2n) > kMinStddev^2 + 2E leaves a computed variance
/// above kMinStddev^2 + E - (the rounding of this test itself and the
/// second-order terms above, both far below E >= 8u); sqrt rounds
/// monotonically, so the loop's stddev is >= kMinStddev. At 60x160 this
/// certifies any frame whose range exceeds about 4e-4.
bool range_certifies_spread(float min, float max, int64_t n, float hi) {
  const double count = static_cast<double>(n);
  const double m = static_cast<double>(hi);
  const double moment_error = (3.0 * (count - 1.0) + 5.0) * 0x1p-53 * m * m;
  const double range = static_cast<double>(max) - static_cast<double>(min);
  return range * range / (2.0 * count) > kMinStddev * kMinStddev + 2.0 * moment_error;
}

/// The reference check: pixels in order, so the first bad pixel names the
/// fault, then the constancy test on ordered double moment sums.
FrameFault ordered_check(const float* pixels, int64_t n, float lo, float hi) {
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

  // The screen settles the common frame, every pixel in range and a range
  // that certifies the spread. Any other frame (a bad pixel, a black or
  // near-constant one, a single pixel) takes the ordered loop, so every
  // verdict, and which fault a frame reports first, is the loop's.
  const PixelScreen screen = screen_pixels(pixels, n, lo, hi);
  if (screen.all_in_range && n > 1 && range_certifies_spread(screen.min, screen.max, n, hi)) {
    return FrameFault::kNone;
  }
  return ordered_check(pixels, n, lo, hi);
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
