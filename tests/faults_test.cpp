// Unit tests for the fault-injection subsystem (faults/fault_injector.hpp)
// and the FrameValidator input guard it is designed to exercise.
#include <gtest/gtest.h>

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
