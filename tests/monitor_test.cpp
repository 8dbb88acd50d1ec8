// Unit tests for the NoveltyMonitor policy layer, the Supervisor's frame
// screen that feeds it, and the configurable saliency-preprocessing
// extension.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/monitor.hpp"
#include "core/novelty_detector.hpp"
#include "driving/pilotnet.hpp"
#include "driving/steering_trainer.hpp"
#include "roadsim/dataset.hpp"
#include "roadsim/outdoor_generator.hpp"
#include "serving/clock.hpp"
#include "serving/supervisor.hpp"

namespace salnov::core {
namespace {

constexpr int64_t kH = 16;
constexpr int64_t kW = 24;

/// Builds a raw+MSE detector fitted on smooth gradient images; smooth images
/// score familiar, full-noise images score novel — a controllable fixture for
/// exercising monitor state transitions.
class MonitorFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    NoveltyDetectorConfig config;
    config.height = kH;
    config.width = kW;
    config.preprocessing = Preprocessing::kRaw;
    config.score = ReconstructionScore::kMse;
    config.autoencoder = AutoencoderConfig::tiny(kH, kW);
    config.train_epochs = 60;
    config.learning_rate = 3e-3;
    detector_ = new NoveltyDetector(config);

    Rng rng(3);
    std::vector<Image> train;
    for (int i = 0; i < 40; ++i) train.push_back(familiar_frame(rng));
    detector_->fit(train, rng);
  }

  static void TearDownTestSuite() {
    delete detector_;
    detector_ = nullptr;
  }

  /// Smooth gradient image with mild per-image variation.
  static Image familiar_frame(Rng& rng) {
    Image img(kH, kW);
    const double slope = rng.uniform(0.8, 1.2);
    for (int64_t y = 0; y < kH; ++y) {
      for (int64_t x = 0; x < kW; ++x) {
        img(y, x) = static_cast<float>(slope * (y + x) / static_cast<double>(kH + kW));
      }
    }
    img.clamp01();
    return img;
  }

  /// Full-scale noise image, far outside the training manifold.
  static Image novel_frame(Rng& rng) {
    return Image(kH, kW, rng.uniform_tensor({kH * kW}, 0.0, 1.0));
  }

  /// What Supervisor::process hands the monitor for one frame (frozen-frame
  /// detection aside): a screened-out frame, or the detector's score and the
  /// threshold's verdict. Returns the monitor's new state.
  static MonitorState feed(NoveltyMonitor& monitor, const Image& frame) {
    if (detector_->frame_validator().check(frame) != FrameFault::kNone) {
      return monitor.update_sensor_bad();
    }
    const double score = detector_->score(frame);
    return monitor.update_scored(score, detector_->threshold().is_novel(score));
  }

  /// A default SupervisorConfig whose NoveltyMonitor runs `monitor`.
  static serving::SupervisorConfig serving_config(const MonitorConfig& monitor) {
    serving::SupervisorConfig config;
    config.monitor = monitor;
    return config;
  }

  static NoveltyDetector* detector_;
};

NoveltyDetector* MonitorFixture::detector_ = nullptr;

TEST_F(MonitorFixture, FixtureSeparates) {
  Rng rng(5);
  EXPECT_FALSE(detector_->classify(familiar_frame(rng)).is_novel);
  EXPECT_TRUE(detector_->classify(novel_frame(rng)).is_novel);
}

TEST_F(MonitorFixture, StartsNominal) {
  NoveltyMonitor monitor;
  EXPECT_EQ(monitor.state(), MonitorState::kNominal);
  EXPECT_TRUE(std::isnan(monitor.smoothed_score()));
}

TEST_F(MonitorFixture, StaysNominalOnFamiliarFrames) {
  NoveltyMonitor monitor;
  Rng rng(7);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(feed(monitor, familiar_frame(rng)), MonitorState::kNominal);
  }
}

TEST_F(MonitorFixture, EntersFallbackAfterTriggerFrames) {
  MonitorConfig config;
  config.trigger_frames = 3;
  NoveltyMonitor monitor(config);
  Rng rng(9);
  EXPECT_EQ(feed(monitor, novel_frame(rng)), MonitorState::kAlert);
  EXPECT_EQ(feed(monitor, novel_frame(rng)), MonitorState::kAlert);
  EXPECT_EQ(feed(monitor, novel_frame(rng)), MonitorState::kFallback);
}

TEST_F(MonitorFixture, SingleNovelFrameOnlyAlerts) {
  NoveltyMonitor monitor;
  Rng rng(11);
  EXPECT_EQ(feed(monitor, novel_frame(rng)), MonitorState::kAlert);
  EXPECT_EQ(feed(monitor, familiar_frame(rng)), MonitorState::kNominal);
}

TEST_F(MonitorFixture, FallbackReleasesAfterConsecutiveFamiliar) {
  MonitorConfig config;
  config.trigger_frames = 2;
  config.release_frames = 3;
  NoveltyMonitor monitor(config);
  Rng rng(13);
  feed(monitor, novel_frame(rng));
  feed(monitor, novel_frame(rng));
  ASSERT_EQ(monitor.state(), MonitorState::kFallback);
  EXPECT_EQ(feed(monitor, familiar_frame(rng)), MonitorState::kFallback);
  EXPECT_EQ(feed(monitor, familiar_frame(rng)), MonitorState::kFallback);
  EXPECT_EQ(feed(monitor, familiar_frame(rng)), MonitorState::kNominal);
}

TEST_F(MonitorFixture, NovelFrameDuringReleaseResetsCount) {
  MonitorConfig config;
  config.trigger_frames = 1;
  config.release_frames = 2;
  NoveltyMonitor monitor(config);
  Rng rng(15);
  feed(monitor, novel_frame(rng));
  ASSERT_EQ(monitor.state(), MonitorState::kFallback);
  feed(monitor, familiar_frame(rng));
  feed(monitor, novel_frame(rng));  // interrupts the release streak
  EXPECT_EQ(feed(monitor, familiar_frame(rng)), MonitorState::kFallback);
  EXPECT_EQ(feed(monitor, familiar_frame(rng)), MonitorState::kNominal);
}

TEST_F(MonitorFixture, SmoothedScoreTracksEma) {
  MonitorConfig config;
  config.score_smoothing = 0.5;
  NoveltyMonitor monitor(config);
  Rng rng(17);
  const Image first = familiar_frame(rng);
  const Image second = familiar_frame(rng);
  feed(monitor, first);
  EXPECT_DOUBLE_EQ(monitor.smoothed_score(), detector_->score(first));
  feed(monitor, second);
  EXPECT_NEAR(monitor.smoothed_score(),
              0.5 * detector_->score(first) + 0.5 * detector_->score(second), 1e-12);
}

TEST_F(MonitorFixture, InvalidConfigThrows) {
  MonitorConfig bad;
  bad.trigger_frames = 0;
  EXPECT_THROW(NoveltyMonitor{bad}, std::invalid_argument);
  bad = MonitorConfig{};
  bad.score_smoothing = 0.0;
  EXPECT_THROW(NoveltyMonitor{bad}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Sensor-fault path: frames the Supervisor's validate stage screens out
// (validator rejections, frozen repeats) drive their own hysteresis into
// kSensorFault, distinct from the novelty kFallback path.

TEST_F(MonitorFixture, FrozenStreamEntersSensorFaultNotFallback) {
  MonitorConfig config;
  config.sensor_trigger_frames = 3;
  serving::FakeClock clock;
  serving::Supervisor supervisor(*detector_, nullptr, serving_config(config), &clock);
  Rng rng(23);
  const Image stuck = familiar_frame(rng);
  // First sighting is a normal frame; repeats are bit-identical -> frozen.
  const serving::ServeResult first = supervisor.process(stuck);
  EXPECT_FALSE(first.sensor_bad);
  EXPECT_EQ(first.monitor_state, MonitorState::kNominal);
  for (int repeat = 1; repeat <= 3; ++repeat) {
    const serving::ServeResult r = supervisor.process(stuck);
    EXPECT_TRUE(r.sensor_bad);
    EXPECT_TRUE(r.frozen);
    EXPECT_EQ(r.fault, FrameFault::kNone);
    EXPECT_FALSE(r.scored);
    EXPECT_TRUE(std::isnan(r.score));
    EXPECT_NE(r.monitor_state, MonitorState::kFallback);
    if (repeat < 3) {
      EXPECT_EQ(r.monitor_state, MonitorState::kNominal) << "held until the trigger count";
      EXPECT_EQ(r.fallback_path, FallbackPath::kNone);
    } else {
      EXPECT_EQ(r.monitor_state, MonitorState::kSensorFault);
      EXPECT_EQ(r.fallback_path, FallbackPath::kSensorFault);
    }
  }
}

TEST_F(MonitorFixture, FrozenCheckComparesPixelsAsFloats) {
  // A repeat that differs only by the sign of a zero pixel is the same
  // picture: the frozen check is float equality (-0 == +0), not a byte
  // compare.
  serving::FakeClock clock;
  serving::Supervisor supervisor(*detector_, nullptr, serving_config({}), &clock);
  Rng rng(41);
  Image first = familiar_frame(rng);
  first(kH / 2, kW / 2) = 0.0f;
  Image repeat = first;
  repeat(kH / 2, kW / 2) = -0.0f;
  ASSERT_TRUE(std::signbit(repeat(kH / 2, kW / 2)));
  EXPECT_FALSE(supervisor.process(first).sensor_bad);
  const serving::ServeResult r = supervisor.process(repeat);
  EXPECT_EQ(r.fault, FrameFault::kNone);
  EXPECT_TRUE(r.frozen);
  EXPECT_TRUE(r.sensor_bad);
}

TEST_F(MonitorFixture, NanStreamEntersSensorFault) {
  MonitorConfig config;
  config.sensor_trigger_frames = 2;
  serving::FakeClock clock;
  serving::Supervisor supervisor(*detector_, nullptr, serving_config(config), &clock);
  Image bad(kH, kW);
  bad(0, 0) = std::numeric_limits<float>::quiet_NaN();
  const serving::ServeResult first = supervisor.process(bad);
  EXPECT_TRUE(first.sensor_bad);
  EXPECT_EQ(first.fault, FrameFault::kNonFinite);
  EXPECT_FALSE(first.frozen);
  EXPECT_EQ(first.monitor_state, MonitorState::kNominal);
  const serving::ServeResult r = supervisor.process(bad);
  EXPECT_TRUE(r.sensor_bad);
  EXPECT_FALSE(r.scored);
  EXPECT_EQ(r.monitor_state, MonitorState::kSensorFault);
  EXPECT_EQ(r.fallback_path, FallbackPath::kSensorFault);
}

TEST_F(MonitorFixture, InvalidFrameBreaksTheFrozenChain) {
  // Frozen means bit-identical to the previous *valid* frame: a rejected
  // frame in between resets the comparison, so the repeat is scored.
  serving::FakeClock clock;
  serving::Supervisor supervisor(*detector_, nullptr, serving_config({}), &clock);
  Rng rng(39);
  const Image stuck = familiar_frame(rng);
  Image bad(kH, kW);
  bad(0, 0) = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(supervisor.process(stuck).sensor_bad);
  EXPECT_TRUE(supervisor.process(bad).sensor_bad);
  const serving::ServeResult after = supervisor.process(stuck);
  EXPECT_FALSE(after.sensor_bad);
  EXPECT_TRUE(after.scored);
  EXPECT_EQ(after.monitor_state, MonitorState::kNominal);
  EXPECT_EQ(after.fallback_path, FallbackPath::kNone);
  EXPECT_TRUE(supervisor.process(stuck).sensor_bad) << "the next repeat is frozen again";
}

TEST_F(MonitorFixture, SensorFaultReleasesAfterGoodFrames) {
  MonitorConfig config;
  config.sensor_trigger_frames = 2;
  config.sensor_release_frames = 3;
  NoveltyMonitor monitor(config);
  Image bad(kH, kW);  // dead-constant frame
  feed(monitor, bad);
  feed(monitor, bad);
  ASSERT_EQ(monitor.state(), MonitorState::kSensorFault);

  Rng rng(25);
  EXPECT_EQ(feed(monitor, familiar_frame(rng)), MonitorState::kSensorFault);
  EXPECT_EQ(feed(monitor, familiar_frame(rng)), MonitorState::kSensorFault);
  const MonitorState recovered = feed(monitor, familiar_frame(rng));
  EXPECT_EQ(recovered, MonitorState::kNominal);
  EXPECT_EQ(fallback_path(recovered), FallbackPath::kNone);
}

TEST_F(MonitorFixture, BadFrameInterruptsSensorRelease) {
  MonitorConfig config;
  config.sensor_trigger_frames = 1;
  config.sensor_release_frames = 2;
  NoveltyMonitor monitor(config);
  Image bad(kH, kW);
  feed(monitor, bad);
  ASSERT_EQ(monitor.state(), MonitorState::kSensorFault);
  Rng rng(27);
  feed(monitor, familiar_frame(rng));
  feed(monitor, bad);  // interrupts the release streak
  EXPECT_EQ(feed(monitor, familiar_frame(rng)), MonitorState::kSensorFault);
  EXPECT_EQ(feed(monitor, familiar_frame(rng)), MonitorState::kNominal);
}

TEST_F(MonitorFixture, InterleavedNoveltyAndSensorFault) {
  MonitorConfig config;
  config.trigger_frames = 2;
  config.release_frames = 2;
  config.sensor_trigger_frames = 2;
  config.sensor_release_frames = 2;
  NoveltyMonitor monitor(config);
  Rng rng(29);

  // Novel world engages the novelty path...
  feed(monitor, novel_frame(rng));
  const MonitorState fb = feed(monitor, novel_frame(rng));
  ASSERT_EQ(fb, MonitorState::kFallback);
  EXPECT_EQ(fallback_path(fb), FallbackPath::kNovelty);

  // ...then the camera dies: the sensor path takes over from kFallback.
  Image bad(kH, kW);
  feed(monitor, bad);
  const MonitorState sf = feed(monitor, bad);
  EXPECT_EQ(sf, MonitorState::kSensorFault);
  EXPECT_EQ(fallback_path(sf), FallbackPath::kSensorFault);

  // Camera recovers onto a familiar world: full recovery to nominal.
  feed(monitor, familiar_frame(rng));
  EXPECT_EQ(feed(monitor, familiar_frame(rng)), MonitorState::kNominal);

  // And the novelty machine still works afterwards.
  feed(monitor, novel_frame(rng));
  EXPECT_EQ(feed(monitor, novel_frame(rng)), MonitorState::kFallback);
}

TEST_F(MonitorFixture, NoveltyHysteresisIsCleanAfterSensorFaultRelease) {
  // Regression guard: a novel streak accumulated before a sensor fault must
  // not survive it. After the fault releases, the novelty machine has to
  // earn kFallback from zero — otherwise a single post-recovery novel frame
  // could trip the fallback off stale evidence.
  MonitorConfig config;
  config.trigger_frames = 2;
  config.sensor_trigger_frames = 1;
  config.sensor_release_frames = 2;
  NoveltyMonitor monitor(config);
  Rng rng(35);

  // One novel frame: streak of 1 (alert, below the trigger).
  ASSERT_EQ(feed(monitor, novel_frame(rng)), MonitorState::kAlert);
  // Camera dies, then recovers.
  Image bad(kH, kW);
  ASSERT_EQ(feed(monitor, bad), MonitorState::kSensorFault);
  feed(monitor, familiar_frame(rng));
  ASSERT_EQ(feed(monitor, familiar_frame(rng)), MonitorState::kNominal);

  // Into a novel world: the first novel frame may only alert; the stale
  // pre-fault streak is gone.
  EXPECT_EQ(feed(monitor, novel_frame(rng)), MonitorState::kAlert);
  EXPECT_EQ(feed(monitor, novel_frame(rng)), MonitorState::kFallback);
}

TEST_F(MonitorFixture, SensorReleaseIntoNovelWorldRetriggersPromptly) {
  // The serving runtime's sensor hold must not mask a genuinely novel world:
  // scored novel frames during kSensorFault both release the sensor path and
  // count toward the novelty trigger.
  MonitorConfig config;
  config.trigger_frames = 2;
  config.sensor_trigger_frames = 1;
  config.sensor_release_frames = 2;
  NoveltyMonitor monitor(config);
  Rng rng(37);
  Image bad(kH, kW);
  ASSERT_EQ(feed(monitor, bad), MonitorState::kSensorFault);
  EXPECT_EQ(feed(monitor, novel_frame(rng)), MonitorState::kSensorFault);
  // Second good frame releases the sensor path; the two novel frames seen
  // during the fault already satisfy the novelty trigger.
  EXPECT_EQ(feed(monitor, novel_frame(rng)), MonitorState::kNominal);
  EXPECT_EQ(feed(monitor, novel_frame(rng)), MonitorState::kFallback);
}

// ---------------------------------------------------------------------------
// External-scoring entry points (used by the serving supervisor).

TEST_F(MonitorFixture, UpdateScoredDrivesTheSameHysteresis) {
  MonitorConfig config;
  config.trigger_frames = 2;
  config.release_frames = 2;
  NoveltyMonitor monitor(config);
  EXPECT_EQ(monitor.update_scored(0.1, false), MonitorState::kNominal);
  EXPECT_EQ(monitor.update_scored(0.9, true), MonitorState::kAlert);
  EXPECT_EQ(monitor.update_scored(0.9, true), MonitorState::kFallback);
  EXPECT_EQ(monitor.update_scored(0.1, false), MonitorState::kFallback);
  EXPECT_EQ(monitor.update_scored(0.1, false), MonitorState::kNominal);
}

TEST_F(MonitorFixture, NonFiniteScoreDoesNotPoisonTheEma) {
  NoveltyMonitor monitor;
  monitor.update_scored(0.5, false);
  EXPECT_DOUBLE_EQ(monitor.smoothed_score(), 0.5);
  monitor.update_scored(std::numeric_limits<double>::quiet_NaN(), true);
  EXPECT_DOUBLE_EQ(monitor.smoothed_score(), 0.5) << "EMA must skip non-finite scores";
  monitor.update_scored(std::numeric_limits<double>::infinity(), true);
  EXPECT_DOUBLE_EQ(monitor.smoothed_score(), 0.5);
}

TEST_F(MonitorFixture, UpdateSensorBadFeedsTheSensorPath) {
  MonitorConfig config;
  config.sensor_trigger_frames = 2;
  NoveltyMonitor monitor(config);
  EXPECT_EQ(monitor.update_sensor_bad(), MonitorState::kNominal);
  EXPECT_EQ(monitor.update_sensor_bad(), MonitorState::kSensorFault);
}

TEST_F(MonitorFixture, FrozenDetectionCanBeDisabled) {
  MonitorConfig config;
  config.detect_frozen_frames = false;
  serving::FakeClock clock;
  serving::Supervisor supervisor(*detector_, nullptr, serving_config(config), &clock);
  Rng rng(31);
  const Image stuck = familiar_frame(rng);
  for (int i = 0; i < 6; ++i) {
    const serving::ServeResult r = supervisor.process(stuck);
    EXPECT_FALSE(r.sensor_bad);
    EXPECT_TRUE(r.scored);
    EXPECT_EQ(r.monitor_state, MonitorState::kNominal);
    EXPECT_EQ(r.fallback_path, FallbackPath::kNone);
  }
}

TEST_F(MonitorFixture, SmoothedScoreHoldsThroughSensorFault) {
  NoveltyMonitor monitor;
  Rng rng(33);
  feed(monitor, familiar_frame(rng));
  const double smoothed = monitor.smoothed_score();
  Image bad(kH, kW);
  feed(monitor, bad);
  EXPECT_DOUBLE_EQ(monitor.smoothed_score(), smoothed);
}

TEST_F(MonitorFixture, WrongSizeFrameIsSensorFaultNotThrow) {
  MonitorConfig config;
  config.sensor_trigger_frames = 1;
  serving::FakeClock clock;
  serving::Supervisor supervisor(*detector_, nullptr, serving_config(config), &clock);
  serving::ServeResult r;
  EXPECT_NO_THROW(r = supervisor.process(Image(kH + 2, kW)));
  EXPECT_TRUE(r.sensor_bad);
  EXPECT_EQ(r.monitor_state, MonitorState::kSensorFault);
  EXPECT_EQ(r.fallback_path, FallbackPath::kSensorFault);
}

TEST_F(MonitorFixture, SensorConfigValidated) {
  MonitorConfig bad;
  bad.sensor_trigger_frames = 0;
  EXPECT_THROW(NoveltyMonitor{bad}, std::invalid_argument);
  bad = MonitorConfig{};
  bad.sensor_release_frames = 0;
  EXPECT_THROW(NoveltyMonitor{bad}, std::invalid_argument);
}

TEST(MonitorStandalone, UnfittedDetectorRejected) {
  // The monitor never sees a detector; the Supervisor that feeds it refuses
  // an unfitted one.
  NoveltyDetectorConfig config;
  config.height = kH;
  config.width = kW;
  config.preprocessing = Preprocessing::kRaw;
  config.autoencoder = AutoencoderConfig::tiny(kH, kW);
  NoveltyDetector detector(config);
  EXPECT_THROW(serving::Supervisor(detector, nullptr), std::logic_error);
}

// ---------------------------------------------------------------------------
// Configurable saliency preprocessing (extension): every saliency method
// must work as the preprocessing stage end-to-end.

class SaliencyPreprocessingSweep : public ::testing::TestWithParam<Preprocessing> {};

TEST_P(SaliencyPreprocessingSweep, FitsAndScores) {
  const int64_t h = 24, w = 48;
  roadsim::OutdoorSceneGenerator gen;
  Rng rng(21);
  const auto data = roadsim::DrivingDataset::generate(gen, 24, h, w, rng);
  nn::Sequential steering =
      driving::build_pilotnet(driving::PilotNetConfig::tiny(h, w), rng);

  NoveltyDetectorConfig config;
  config.height = h;
  config.width = w;
  config.preprocessing = GetParam();
  config.score = ReconstructionScore::kSsim;
  config.autoencoder = AutoencoderConfig::tiny(h, w);
  config.train_epochs = 10;
  NoveltyDetector detector(config);
  detector.attach_steering_model(&steering);
  detector.fit(data.images(), rng);

  const double score = detector.score(data.image(0));
  EXPECT_GE(score, -1.0);
  EXPECT_LE(score, 1.0);
  const Image mask = detector.preprocess(data.image(0));
  EXPECT_GE(mask.min(), 0.0f);
  EXPECT_LE(mask.max(), 1.0f);
}

INSTANTIATE_TEST_SUITE_P(AllSaliencyMethods, SaliencyPreprocessingSweep,
                         ::testing::Values(Preprocessing::kVbp, Preprocessing::kGradient,
                                           Preprocessing::kLrp),
                         [](const ::testing::TestParamInfo<Preprocessing>& info) {
                           switch (info.param) {
                             case Preprocessing::kVbp:
                               return "Vbp";
                             case Preprocessing::kGradient:
                               return "Gradient";
                             case Preprocessing::kLrp:
                               return "Lrp";
                             default:
                               return "Raw";
                           }
                         });

}  // namespace
}  // namespace salnov::core
