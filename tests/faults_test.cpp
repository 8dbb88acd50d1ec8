// Unit tests for the fault-injection subsystem (faults/fault_injector.hpp)
// and the FrameValidator input guard it is designed to exercise.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/frame_validator.hpp"
#include "core/novelty_detector.hpp"
#include "faults/fault_injector.hpp"
#include "metrics/mse.hpp"
#include "nn/dense.hpp"
#include "nn/sequential.hpp"
#include "tensor/rng.hpp"

namespace salnov::faults {
namespace {

constexpr int64_t kH = 20;
constexpr int64_t kW = 30;
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

Image noise_frame(uint64_t seed) {
  Rng rng(seed);
  return Image(kH, kW, rng.uniform_tensor({kH * kW}, 0.05, 0.95));
}

TEST(FaultInjector, SeverityZeroIsIdentity) {
  for (CameraFault fault : all_camera_faults()) {
    FaultInjector injector(11);
    const Image frame = noise_frame(1);
    injector.apply(fault, 0.5, frame);  // prime any state (frozen-frame)
    const Image out = injector.apply(fault, 0.0, noise_frame(2));
    EXPECT_TRUE(out.tensor() == noise_frame(2).tensor())
        << camera_fault_name(fault) << " at severity 0 changed the frame";
  }
}

TEST(FaultInjector, SameSeedSameStream) {
  FaultInjector a(42), b(42);
  for (CameraFault fault : all_camera_faults()) {
    for (int i = 0; i < 3; ++i) {
      const Image frame = noise_frame(static_cast<uint64_t>(100 + i));
      EXPECT_TRUE(a.apply(fault, 0.6, frame).tensor() == b.apply(fault, 0.6, frame).tensor())
          << camera_fault_name(fault) << " stream diverged at frame " << i;
    }
  }
}

TEST(FaultInjector, SeverityMonotoneInDistortion) {
  const Image prime = noise_frame(5);
  const Image frame = noise_frame(6);
  const std::vector<double> severities = {0.0, 0.25, 0.5, 0.75, 1.0};
  for (CameraFault fault : all_camera_faults()) {
    double previous = -1.0;
    for (double severity : severities) {
      // A fresh injector per severity, all with one seed: the random draws
      // (impulse positions, tear row, occlusion center) are identical across
      // the sweep, so distortion depends on severity alone.
      FaultInjector injector(99);
      injector.apply(fault, 1.0, prime);  // install frozen-frame state
      const double distortion = mse(injector.apply(fault, severity, frame), frame);
      EXPECT_GE(distortion, previous - 1e-9)
          << camera_fault_name(fault) << " distortion dropped at severity " << severity;
      if (severity == 0.0) {
        EXPECT_EQ(distortion, 0.0);
      }
      previous = distortion;
    }
    EXPECT_GT(previous, 0.0) << camera_fault_name(fault) << " at severity 1 did nothing";
  }
}

TEST(FaultInjector, InvalidSeverityThrows) {
  FaultInjector injector(1);
  const Image frame = noise_frame(7);
  EXPECT_THROW(injector.apply(CameraFault::kOcclusion, -0.1, frame), std::invalid_argument);
  EXPECT_THROW(injector.apply(CameraFault::kOcclusion, 1.1, frame), std::invalid_argument);
  EXPECT_THROW(injector.apply(CameraFault::kOcclusion, kNaN, frame), std::invalid_argument);
  EXPECT_THROW(injector.apply(CameraFault::kOcclusion, 0.5, Image()), std::invalid_argument);
}

TEST(FaultInjector, FrozenFrameReplaysPreviousFrame) {
  FaultInjector injector(13);
  const Image first = noise_frame(8);
  const Image second = noise_frame(9);
  // The first frame passes through untouched (nothing to freeze onto yet).
  EXPECT_TRUE(injector.apply(CameraFault::kFrozenFrame, 1.0, first).tensor() == first.tensor());
  // At full severity the second frame is replaced by the first.
  EXPECT_TRUE(injector.apply(CameraFault::kFrozenFrame, 1.0, second).tensor() == first.tensor());
}

TEST(FaultInjector, DroppedFrameAtFullSeverityIsBlack) {
  FaultInjector injector(17);
  const Image out = injector.apply(CameraFault::kDroppedFrame, 1.0, noise_frame(10));
  EXPECT_EQ(out.min(), 0.0f);
  EXPECT_EQ(out.max(), 0.0f);
}

TEST(FlipWeightBits, DeterministicAndEffective) {
  Rng init(3);
  nn::Sequential a;
  a.add(std::make_unique<nn::Dense>(8, 4, init));
  nn::Sequential b;  // bit-identical copy via a fresh Rng with the same seed
  Rng init2(3);
  b.add(std::make_unique<nn::Dense>(8, 4, init2));

  Rng ra(5), rb(5);
  EXPECT_EQ(flip_weight_bits(a, 10, ra), 10);
  EXPECT_EQ(flip_weight_bits(b, 10, rb), 10);

  int64_t diffs = 0;
  const auto pa = a.parameters(), pb = b.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i]->value.numel(), pb[i]->value.numel());
    for (int64_t j = 0; j < pa[i]->value.numel(); ++j) {
      // Same seed, same flips: corrupted copies stay bit-identical.
      EXPECT_EQ(std::bit_cast<uint32_t>(pa[i]->value[j]), std::bit_cast<uint32_t>(pb[i]->value[j]));
    }
  }
  // And the corruption really changed something vs a pristine copy.
  Rng init3(3);
  nn::Sequential pristine;
  pristine.add(std::make_unique<nn::Dense>(8, 4, init3));
  const auto pc = pristine.parameters();
  for (size_t i = 0; i < pa.size(); ++i) {
    for (int64_t j = 0; j < pa[i]->value.numel(); ++j) {
      if (std::bit_cast<uint32_t>(pa[i]->value[j]) != std::bit_cast<uint32_t>(pc[i]->value[j])) {
        ++diffs;
      }
    }
  }
  EXPECT_GT(diffs, 0);
}

TEST(FlipWeightBits, ParameterlessModelIsNoop) {
  nn::Sequential empty;
  Rng rng(1);
  EXPECT_EQ(flip_weight_bits(empty, 5, rng), 0);
}

// ---------------------------------------------------------------------------
// FrameValidator: each fault class is classified, valid frames pass.

TEST(FrameValidator, ClassifiesEachFaultClass) {
  core::FrameValidator validator(kH, kW);

  EXPECT_EQ(validator.check(noise_frame(20)), core::FrameFault::kNone);
  EXPECT_EQ(validator.check(Image(kH + 1, kW)), core::FrameFault::kWrongSize);

  Image nan_frame = noise_frame(21);
  nan_frame(2, 3) = kNaN;
  EXPECT_EQ(validator.check(nan_frame), core::FrameFault::kNonFinite);

  Image inf_frame = noise_frame(22);
  inf_frame(0, 0) = std::numeric_limits<float>::infinity();
  EXPECT_EQ(validator.check(inf_frame), core::FrameFault::kNonFinite);

  Image hot_frame = noise_frame(23);
  hot_frame(5, 5) = 2.0f;
  EXPECT_EQ(validator.check(hot_frame), core::FrameFault::kOutOfRange);

  Image negative_frame = noise_frame(24);
  negative_frame(1, 1) = -0.5f;
  EXPECT_EQ(validator.check(negative_frame), core::FrameFault::kOutOfRange);

  Image dead_frame(kH, kW);  // all zeros: disconnected sensor
  EXPECT_EQ(validator.check(dead_frame), core::FrameFault::kNearConstant);
}

TEST(FrameValidator, RangeSlackTolerated) {
  core::FrameValidator validator(kH, kW);
  Image frame = noise_frame(25);
  frame(0, 0) = 1.0f + 5e-4f;  // inside the default 1e-3 slack
  EXPECT_EQ(validator.check(frame), core::FrameFault::kNone);
}

TEST(FrameValidator, RequireValidThrowsWithFault) {
  core::FrameValidator validator(kH, kW);
  Image nan_frame = noise_frame(26);
  nan_frame(0, 0) = kNaN;
  try {
    validator.require_valid(nan_frame, "test");
    FAIL() << "expected InvalidFrameError";
  } catch (const core::InvalidFrameError& e) {
    EXPECT_EQ(e.fault(), core::FrameFault::kNonFinite);
  }
}

// The validator screens each frame in one vector pass and settles most of
// them from their pixel range; every other frame runs the ordered loop. The
// cases below hold check() to a copy of that loop as it stood before the
// screen existed, so any verdict the screen changed would show.

/// The reference: the pre-screen check, pixels in order with double
/// moment sums (the frame's size is the validator's).
core::FrameFault reference_check(const Image& frame) {
  const float lo = static_cast<float>(0.0 - 1e-3);
  const float hi = static_cast<float>(1.0 + 1e-3);
  const int64_t n = frame.numel();
  const float* pixels = frame.tensor().data();
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const float v = pixels[i];
    if (!std::isfinite(v)) return core::FrameFault::kNonFinite;
    if (!(v >= lo && v <= hi)) return core::FrameFault::kOutOfRange;
    sum += v;
    sum_sq += static_cast<double>(v) * v;
  }
  if (n > 1) {
    const double mean = sum / static_cast<double>(n);
    const double variance = std::max(0.0, sum_sq / static_cast<double>(n) - mean * mean);
    if (std::sqrt(variance) < 1e-6) return core::FrameFault::kNearConstant;
  }
  return core::FrameFault::kNone;
}

/// Frame sizes with n = 1, 2, 3, 5, 17 and 9600 (60x160) pixels, plus one
/// whose vector pass leaves a 12-pixel scalar tail.
const std::vector<std::pair<int64_t, int64_t>> kScreenSizes = {
    {1, 1}, {1, 2}, {1, 3}, {1, 5}, {1, 17}, {60, 160}, {60, 161}};

Image frame_of(int64_t h, int64_t w, const std::vector<float>& pixels) {
  return Image(h, w, Tensor({h * w}, pixels));
}

TEST(FrameValidator, ScreenMatchesOrderedLoopOnRandomFrames) {
  Rng rng(31);
  for (const auto& [h, w] : kScreenSizes) {
    const core::FrameValidator validator(h, w);
    for (int trial = 0; trial < 40; ++trial) {
      // Spans from full-range noise down to a tenth of an ulp's worth.
      const double spread = std::pow(10.0, -rng.uniform(0.0, 8.0));
      const double base = rng.uniform(0.0, 1.0 - spread);
      const Image frame(h, w, rng.uniform_tensor({h * w}, base, base + spread));
      EXPECT_EQ(validator.check(frame), reference_check(frame))
          << h << "x" << w << " trial " << trial << " spread " << spread;
    }
  }
}

TEST(FrameValidator, ScreenMatchesOrderedLoopOnNearConstantFrames) {
  // Noise of amplitude a around a level: the sweep crosses stddev 1e-6
  // (the near-constant line) and the range at which the screen certifies a
  // frame without the moment sums (about 4e-4 at 60x160).
  int near_constant = 0;
  int usable = 0;
  for (const auto& [h, w] : kScreenSizes) {
    const core::FrameValidator validator(h, w);
    const int64_t n = h * w;
    for (const float level : {0.0f, 0.25f, 0.5f, 1.0f}) {
      for (double amplitude = 1e-8; amplitude < 3e-2; amplitude *= 1.18) {
        Rng rng(static_cast<uint64_t>(amplitude * 1e12) + static_cast<uint64_t>(n));
        std::vector<float> pixels(static_cast<size_t>(n));
        for (float& v : pixels) {
          v = level + static_cast<float>(amplitude * rng.uniform(-0.5, 0.5));
        }
        const Image noisy = frame_of(h, w, pixels);
        // The extremal frame for its range: every pixel at the level but
        // two at level -/+ a/2, the least variance a range of a allows.
        std::vector<float> flat(static_cast<size_t>(n), level);
        if (n > 1) {
          flat.front() = level - static_cast<float>(amplitude / 2);
          flat.back() = level + static_cast<float>(amplitude / 2);
        }
        const Image extremal = frame_of(h, w, flat);
        for (const Image* frame : {&noisy, &extremal}) {
          const core::FrameFault expected = reference_check(*frame);
          EXPECT_EQ(validator.check(*frame), expected)
              << h << "x" << w << " level " << level << " amplitude " << amplitude;
          near_constant += expected == core::FrameFault::kNearConstant;
          usable += expected == core::FrameFault::kNone;
        }
      }
    }
  }
  EXPECT_GT(near_constant, 100) << "the sweep must reach below stddev 1e-6";
  EXPECT_GT(usable, 100) << "the sweep must reach above it";
}

TEST(FrameValidator, ScreenDefersEveryBadPixelToTheOrderedLoop) {
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<std::pair<float, core::FrameFault>> bad = {
      {kNaN, core::FrameFault::kNonFinite},
      {inf, core::FrameFault::kNonFinite},
      {-inf, core::FrameFault::kNonFinite},
      {2.0f, core::FrameFault::kOutOfRange},
      {-0.5f, core::FrameFault::kOutOfRange},
      {1.0011f, core::FrameFault::kOutOfRange},
      {-0.0011f, core::FrameFault::kOutOfRange}};
  Rng rng(32);
  for (const auto& [h, w] : kScreenSizes) {
    const core::FrameValidator validator(h, w);
    const int64_t n = h * w;
    const Tensor noise = rng.uniform_tensor({n}, 0.05, 0.95);
    // First, middle and last index; the last is in the vector tail when
    // n is not a multiple of the pass's width, and n - 3 is too for 60x161.
    for (const int64_t at : {int64_t{0}, n / 2, n - 3, n - 1}) {
      if (at < 0) continue;
      for (const auto& [value, fault] : bad) {
        Image frame(h, w, noise);
        frame.tensor()[at] = value;
        EXPECT_EQ(validator.check(frame), fault) << h << "x" << w << " at " << at << " " << value;
        EXPECT_EQ(validator.check(frame), reference_check(frame));
      }
    }
  }
}

TEST(FrameValidator, FirstBadPixelNamesTheFault) {
  Rng rng(33);
  for (const auto& [h, w] : kScreenSizes) {
    const int64_t n = h * w;
    if (n < 2) continue;
    const core::FrameValidator validator(h, w);
    Image frame(h, w, rng.uniform_tensor({n}, 0.05, 0.95));
    for (const auto& [first, second] : {std::pair<int64_t, int64_t>{0, n - 1}, {n - 1, 0}}) {
      Image nan_first = frame;
      nan_first.tensor()[first] = kNaN;
      nan_first.tensor()[second] = 3.0f;
      Image range_first = frame;
      range_first.tensor()[first] = 3.0f;
      range_first.tensor()[second] = kNaN;
      const bool nan_leads = first < second;
      EXPECT_EQ(validator.check(nan_first), nan_leads ? core::FrameFault::kNonFinite
                                                      : core::FrameFault::kOutOfRange);
      EXPECT_EQ(validator.check(range_first), nan_leads ? core::FrameFault::kOutOfRange
                                                        : core::FrameFault::kNonFinite);
      EXPECT_EQ(validator.check(nan_first), reference_check(nan_first));
      EXPECT_EQ(validator.check(range_first), reference_check(range_first));
    }
  }
}

TEST(FrameValidator, FaultNamesAreStable) {
  EXPECT_STREQ(core::frame_fault_name(core::FrameFault::kNone), "none");
  EXPECT_STREQ(core::frame_fault_name(core::FrameFault::kNonFinite), "non-finite");
}

// ---------------------------------------------------------------------------
// Guarded inference: the detector refuses malformed frames end to end.

/// Runs `entry` and expects an InvalidFrameError carrying `fault`.
template <typename Entry>
void expect_rejected(const Entry& entry, core::FrameFault fault, const std::string& what) {
  try {
    entry();
    ADD_FAILURE() << what << ": expected InvalidFrameError";
  } catch (const core::InvalidFrameError& e) {
    EXPECT_EQ(e.fault(), fault) << what << ": " << e.what();
  }
}

TEST(GuardedInference, DetectorRejectsMalformedFrames) {
  core::NoveltyDetectorConfig config;
  config.height = kH;
  config.width = kW;
  config.preprocessing = core::Preprocessing::kRaw;
  config.score = core::ReconstructionScore::kMse;
  config.autoencoder = core::AutoencoderConfig::tiny(kH, kW);
  config.train_epochs = 2;
  core::NoveltyDetector detector(config);
  Rng rng(31);
  std::vector<Image> train;
  for (int i = 0; i < 8; ++i) train.push_back(noise_frame(static_cast<uint64_t>(40 + i)));
  detector.fit(train, rng);

  Image nan_frame = noise_frame(50);
  nan_frame(0, 0) = kNaN;
  Image hot_frame = noise_frame(51);
  hot_frame(3, 4) = 2.0f;
  const std::vector<std::pair<Image, core::FrameFault>> malformed = {
      {nan_frame, core::FrameFault::kNonFinite},
      {hot_frame, core::FrameFault::kOutOfRange},
      {Image(kH, kW), core::FrameFault::kNearConstant},
      {Image(kH + 1, kW), core::FrameFault::kWrongSize},
  };
  for (const auto& [frame, fault] : malformed) {
    const std::string name = core::frame_fault_name(fault);
    expect_rejected([&] { detector.classify(frame); }, fault, "classify " + name);
    expect_rejected([&] { detector.score(frame); }, fault, "score " + name);
    // Behind a good frame: every input is screened before any stage runs.
    const Image good = noise_frame(52);
    expect_rejected(
        [&] { detector.score_batch(core::DetectorVariant::kPrimary, {&good, &frame}); }, fault,
        "score_batch " + name);
    std::vector<Image> tainted = train;
    tainted.push_back(frame);
    core::NoveltyDetector refit(config);
    Rng refit_rng(31);
    expect_rejected([&] { refit.fit(tainted, refit_rng); }, fault, "fit " + name);
  }

  // Size, then wiring, then content: a VBP detector with no steering model
  // reports the wiring error before any content fault, and a wrong-size
  // frame before the wiring error.
  core::NoveltyDetectorConfig vbp_config = config;
  vbp_config.preprocessing = core::Preprocessing::kVbp;
  core::NoveltyDetector miswired(vbp_config);
  for (const auto& [frame, fault] : malformed) {
    const std::string name = core::frame_fault_name(fault);
    if (fault == core::FrameFault::kWrongSize) {
      expect_rejected([&] { miswired.score(frame); }, fault, "miswired score " + name);
      continue;
    }
    for (const bool fit : {false, true}) {
      try {
        if (fit) {
          Rng fit_rng(31);
          miswired.fit({frame}, fit_rng);
        } else {
          miswired.score(frame);
        }
        ADD_FAILURE() << "miswired " << name << ": expected std::logic_error";
      } catch (const core::InvalidFrameError& e) {
        ADD_FAILURE() << "miswired " << name << ": content fault before wiring: " << e.what();
      } catch (const std::logic_error&) {
      }
    }
  }
}

}  // namespace
}  // namespace salnov::faults
