// Online-calibration tests: P² sketch vs the exact ECDF, drift hysteresis,
// crash-safe ThresholdSet persistence, the RCU hot-swap slot, and the
// supervisor's end-to-end recalibration loop (including the 10k-frame soak
// with a mid-run distribution shift, replayed bit-exactly from its trace).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "calib/drift_detector.hpp"
#include "calib/online_calibrator.hpp"
#include "calib/p2_sketch.hpp"
#include "calib/threshold_set.hpp"
#include "core/novelty_detector.hpp"
#include "faults/crash_points.hpp"
#include "image/transforms.hpp"
#include "metrics/ecdf.hpp"
#include "parallel/parallel_for.hpp"
#include "roadsim/outdoor_generator.hpp"
#include "serving/clock.hpp"
#include "serving/supervisor.hpp"
#include "tensor/gemm.hpp"
#include "tensor/serialize.hpp"
#include "trace/trace.hpp"

namespace salnov::calib {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

// ---------------------------------------------------------------------------
// P² sketch.

TEST(P2SketchTest, RejectsBadConstruction) {
  EXPECT_THROW(P2Sketch({0.0, 0.5}), std::invalid_argument) << "0 is not interior";
  EXPECT_THROW(P2Sketch({1.0}), std::invalid_argument);
  EXPECT_THROW(P2Sketch({0.5}, 2), std::invalid_argument) << "warm-up below marker bank";
  EXPECT_THROW(P2Sketch({std::nan("")}), std::invalid_argument);
}

TEST(P2SketchTest, EmptySketchThrowsEmptyCalibration) {
  P2Sketch sketch({0.5});
  EXPECT_THROW(sketch.upper_quantile(0.5), EmptyCalibrationError);
  EXPECT_THROW(sketch.min(), EmptyCalibrationError);
  sketch.add(std::numeric_limits<double>::quiet_NaN());
  EXPECT_THROW(sketch.upper_quantile(0.5), EmptyCalibrationError)
      << "dropped samples do not count";
}

TEST(P2SketchTest, WarmupAnswersMatchEmpiricalCdfBitExactly) {
  P2Sketch sketch({0.01, 0.5, 0.99}, 64);
  std::vector<double> samples;
  Rng rng(11);
  for (int i = 0; i < 48; ++i) {
    const double v = rng.uniform(-3.0, 7.0);
    samples.push_back(v);
    sketch.add(v);
  }
  ASSERT_FALSE(sketch.streaming());
  const EmpiricalCdf cdf(samples);
  for (const double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(sketch.upper_quantile(q), cdf.upper_quantile(q)) << "q=" << q;
    EXPECT_EQ(sketch.lower_quantile(q), cdf.lower_quantile(q)) << "q=" << q;
  }
  EXPECT_EQ(sketch.min(), cdf.min());
  EXPECT_EQ(sketch.max(), cdf.max());
}

TEST(P2SketchTest, StreamingEstimatesTrackExactQuantiles) {
  P2Sketch sketch({0.01, 0.5, 0.99}, 64);
  std::vector<double> samples;
  Rng rng(13);
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.uniform(0.0, 1.0);
    samples.push_back(v);
    sketch.add(v);
  }
  ASSERT_TRUE(sketch.streaming());
  const EmpiricalCdf cdf(samples);
  EXPECT_NEAR(sketch.upper_quantile(0.99), cdf.upper_quantile(0.99), 0.01);
  EXPECT_NEAR(sketch.upper_quantile(0.5), cdf.upper_quantile(0.5), 0.01);
  EXPECT_NEAR(sketch.lower_quantile(0.01), cdf.lower_quantile(0.01), 0.01);
  EXPECT_EQ(sketch.min(), cdf.min()) << "extremes are tracked exactly";
  EXPECT_EQ(sketch.max(), cdf.max());
  // Quantile estimates are ordered like the quantiles themselves.
  EXPECT_LE(sketch.lower_quantile(0.01), sketch.upper_quantile(0.5));
  EXPECT_LE(sketch.upper_quantile(0.5), sketch.upper_quantile(0.99));
}

TEST(P2SketchTest, NonFiniteSamplesAreDroppedAndCounted) {
  P2Sketch sketch({0.5}, 8);
  sketch.add(1.0);
  sketch.add(std::numeric_limits<double>::quiet_NaN());
  sketch.add(std::numeric_limits<double>::infinity());
  sketch.add(2.0);
  EXPECT_EQ(sketch.count(), 2);
  EXPECT_EQ(sketch.nonfinite_dropped(), 2);
  EXPECT_EQ(sketch.max(), 2.0) << "Inf never reached the quantile math";
}

TEST(P2SketchTest, StreamRoundTripsThroughCheckedFileMidWarmup) {
  const std::string path = temp_path("sketch_warmup.bin");
  P2Sketch sketch({0.01, 0.5, 0.99}, 64);
  Rng rng(17);
  for (int i = 0; i < 30; ++i) sketch.add(rng.uniform(0.0, 5.0));
  sketch.save_file(path);
  P2Sketch loaded = P2Sketch::load_file(path);
  // Continue both streams identically: every subsequent answer must agree
  // bit-for-bit, through the warm-up -> streaming transition and beyond.
  Rng cont(19);
  for (int i = 0; i < 400; ++i) {
    const double v = cont.uniform(0.0, 5.0);
    sketch.add(v);
    loaded.add(v);
  }
  ASSERT_TRUE(sketch.streaming());
  EXPECT_EQ(loaded.count(), sketch.count());
  for (const double q : {0.01, 0.5, 0.99}) {
    EXPECT_EQ(loaded.upper_quantile(q), sketch.upper_quantile(q)) << "q=" << q;
    EXPECT_EQ(loaded.lower_quantile(q), sketch.lower_quantile(q)) << "q=" << q;
  }
}

TEST(P2SketchTest, StreamRoundTripsThroughCheckedFileWhileStreaming) {
  const std::string path = temp_path("sketch_streaming.bin");
  P2Sketch sketch({0.01, 0.5, 0.99}, 64);
  Rng rng(23);
  for (int i = 0; i < 500; ++i) sketch.add(rng.uniform(-1.0, 1.0));
  ASSERT_TRUE(sketch.streaming());
  sketch.save_file(path);
  P2Sketch loaded = P2Sketch::load_file(path);
  EXPECT_EQ(loaded.count(), sketch.count());
  EXPECT_EQ(loaded.tracked(), sketch.tracked());
  Rng cont(29);
  for (int i = 0; i < 200; ++i) {
    const double v = cont.uniform(-1.0, 1.0);
    sketch.add(v);
    loaded.add(v);
  }
  for (const double q : {0.0, 0.01, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(loaded.upper_quantile(q), sketch.upper_quantile(q)) << "q=" << q;
  }
}

// ---------------------------------------------------------------------------
// Drift hysteresis.

TEST(DriftDetectorTest, RejectsBadConfig) {
  EXPECT_THROW(DriftDetector({0.0, 3, 5}), std::invalid_argument);
  EXPECT_THROW(DriftDetector({0.5, 0, 5}), std::invalid_argument);
  EXPECT_THROW(DriftDetector({0.5, 3, 0}), std::invalid_argument);
}

TEST(DriftDetectorTest, TriggerAndReleaseAreConsecutiveCounts) {
  DriftDetector detector({0.5, /*trigger=*/3, /*release=*/2});
  EXPECT_EQ(detector.update(true), DriftState::kAlert);
  EXPECT_EQ(detector.update(true), DriftState::kAlert);
  EXPECT_EQ(detector.update(false), DriftState::kStable) << "streak broken before trigger";
  EXPECT_EQ(detector.update(true), DriftState::kAlert);
  EXPECT_EQ(detector.update(true), DriftState::kAlert);
  EXPECT_EQ(detector.update(true), DriftState::kDrifted);
  EXPECT_EQ(detector.update(false), DriftState::kDrifted) << "one clean check holds the episode";
  EXPECT_EQ(detector.update(true), DriftState::kDrifted) << "clean streak resets";
  EXPECT_EQ(detector.update(false), DriftState::kDrifted);
  EXPECT_EQ(detector.update(false), DriftState::kStable) << "released after 2 consecutive clean";
}

TEST(DriftDetectorTest, ResetRearmsTheEpisode) {
  DriftDetector detector({0.5, 1, 5});
  EXPECT_EQ(detector.update(true), DriftState::kDrifted);
  detector.reset();
  EXPECT_EQ(detector.state(), DriftState::kStable);
  EXPECT_EQ(detector.update(true), DriftState::kDrifted) << "trigger counts start over";
}

// ---------------------------------------------------------------------------
// ThresholdSet persistence + crash injection.

ThresholdSet make_set(int64_t epoch, double base) {
  ThresholdSet set;
  set.epoch = epoch;
  for (int v = 0; v < core::kDetectorVariantCount; ++v) {
    set.thresholds[static_cast<size_t>(v)] =
        core::NoveltyThreshold(base + v, core::ScoreOrientation::kHighIsNovel);
    set.shadow_samples[static_cast<size_t>(v)] = 100 * (v + 1);
    set.rebuilt[static_cast<size_t>(v)] = static_cast<uint8_t>(v % 2);
  }
  return set;
}

TEST(ThresholdSetTest, RoundTripsThroughCheckedFile) {
  const std::string path = temp_path("thresholds_roundtrip.bin");
  const ThresholdSet set = make_set(7, 0.25);
  set.save_file(path);
  const ThresholdSet loaded = ThresholdSet::load_file(path);
  EXPECT_EQ(loaded.epoch, 7);
  for (int v = 0; v < core::kDetectorVariantCount; ++v) {
    const size_t i = static_cast<size_t>(v);
    EXPECT_EQ(loaded.thresholds[i].threshold(), set.thresholds[i].threshold());
    EXPECT_EQ(loaded.thresholds[i].orientation(), set.thresholds[i].orientation());
    EXPECT_EQ(loaded.shadow_samples[i], set.shadow_samples[i]);
    EXPECT_EQ(loaded.rebuilt[i], set.rebuilt[i]);
  }
}

TEST(ThresholdSetTest, SuccessfulSavePassesEveryCrashPoint) {
  const std::string path = temp_path("thresholds_passes.bin");
  const int64_t before[] = {
      faults::crash_point_passes(faults::CrashPoint::kSwapBeforeTempWrite),
      faults::crash_point_passes(faults::CrashPoint::kSwapAfterTempWrite),
      faults::crash_point_passes(faults::CrashPoint::kSwapAfterRename),
  };
  make_set(1, 0.5).save_file(path);
  EXPECT_EQ(faults::crash_point_passes(faults::CrashPoint::kSwapBeforeTempWrite), before[0] + 1);
  EXPECT_EQ(faults::crash_point_passes(faults::CrashPoint::kSwapAfterTempWrite), before[1] + 1);
  EXPECT_EQ(faults::crash_point_passes(faults::CrashPoint::kSwapAfterRename), before[2] + 1);
}

TEST(ThresholdSetTest, CrashAtEveryPointLeavesServedFileReadable) {
  const std::string path = temp_path("thresholds_crash.bin");
  std::filesystem::remove(path);
  make_set(1, 0.5).save_file(path);  // the "served" set an operator relies on

  const struct {
    faults::CrashPoint point;
    int64_t expected_epoch;  // what a restart must recover
  } cases[] = {
      {faults::CrashPoint::kSwapBeforeTempWrite, 1},  // nothing written yet
      {faults::CrashPoint::kSwapAfterTempWrite, 1},   // temp complete, rename pending
      {faults::CrashPoint::kSwapAfterRename, 2},      // new file already in place
  };
  for (const auto& c : cases) {
    std::filesystem::remove(path);
    make_set(1, 0.5).save_file(path);
    {
      faults::ScopedCrashPoint crash(c.point);
      EXPECT_THROW(make_set(2, 0.9).save_file(path), faults::InjectedCrash)
          << faults::crash_point_name(c.point);
    }
    const ThresholdSet recovered = ThresholdSet::load_file(path);
    EXPECT_EQ(recovered.epoch, c.expected_epoch)
        << "crash at " << faults::crash_point_name(c.point)
        << " must leave a complete old-or-new file, never a torn one";
    // No stray temp files: the writer cleans up after an injected crash.
    int64_t siblings = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(std::filesystem::path(path).parent_path())) {
      if (entry.path().string().rfind(path, 0) == 0) ++siblings;
    }
    EXPECT_EQ(siblings, 1) << "only the target file remains after "
                           << faults::crash_point_name(c.point);
  }
}

// ---------------------------------------------------------------------------
// Hot-swap slot.

TEST(ThresholdHotSwapTest, InstallPublishesAndRetiredSetsStayValid) {
  ThresholdHotSwap slot;
  EXPECT_EQ(slot.acquire(), nullptr) << "fitted calibration served before first install";
  slot.install(std::make_shared<ThresholdSet>(make_set(1, 0.1)));
  const ThresholdSet* first = slot.acquire();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->epoch, 1);
  slot.install(std::make_shared<ThresholdSet>(make_set(2, 0.2)));
  EXPECT_EQ(slot.acquire()->epoch, 2);
  // A reader that pinned the old pointer for the duration of a frame must
  // still be able to dereference it after the swap.
  EXPECT_EQ(first->epoch, 1);
  EXPECT_EQ(slot.installs(), 2);
}

// ---------------------------------------------------------------------------
// Supervisor-level recalibration loop. A raw+MSE detector needs no steering
// model, keeping the fixture cheap; it is fitted on outdoor roadsim frames
// so the nominal stream is in-distribution.

constexpr int64_t kH = 16;
constexpr int64_t kW = 24;

class CalibServingFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    saved_kernel_ = active_gemm_kernel();
    set_gemm_kernel(GemmKernel::kScalar);
    Rng rng(41);
    core::NoveltyDetectorConfig config;
    config.height = kH;
    config.width = kW;
    config.preprocessing = core::Preprocessing::kRaw;
    config.score = core::ReconstructionScore::kMse;
    config.autoencoder = core::AutoencoderConfig::tiny(kH, kW);
    config.train_epochs = 10;
    detector_ = new core::NoveltyDetector(config);

    roadsim::OutdoorSceneGenerator generator;
    Rng frame_rng(101);
    std::vector<Image> train;
    for (int i = 0; i < 24; ++i) {
      const roadsim::Sample sample = generator.generate(frame_rng);
      train.push_back(resize_bilinear(sample.rgb.to_grayscale(), kH, kW));
    }
    detector_->fit(train, rng);
  }

  static void TearDownTestSuite() {
    set_gemm_kernel(saved_kernel_);
    delete detector_;
    detector_ = nullptr;
  }

  static Image nominal_frame(Rng& rng) {
    roadsim::OutdoorSceneGenerator generator;
    const roadsim::Sample sample = generator.generate(rng);
    return resize_bilinear(sample.rgb.to_grayscale(), kH, kW);
  }

  /// A nominal frame pushed off-distribution: brightness shifted the way a
  /// mis-exposed camera would, still a valid in-range frame.
  static Image shifted_frame(Rng& rng) {
    Image img = nominal_frame(rng);
    for (int64_t i = 0; i < img.numel(); ++i) {
      img.tensor()[i] = img.tensor()[i] * 1.8f + 0.15f;
    }
    img.clamp01();
    return img;
  }

  static OnlineCalibrationConfig fast_calibration() {
    OnlineCalibrationConfig calibration;
    calibration.enabled = true;
    calibration.warmup = 16;
    calibration.min_samples = 24;
    calibration.check_every_frames = 8;
    calibration.trigger_checks = 2;
    calibration.release_checks = 2;
    return calibration;
  }

  static core::NoveltyDetector* detector_;
  static GemmKernel saved_kernel_;
};

core::NoveltyDetector* CalibServingFixture::detector_ = nullptr;
GemmKernel CalibServingFixture::saved_kernel_ = GemmKernel::kScalar;

TEST_F(CalibServingFixture, CalibrationOffLeavesCountersAndJsonInert) {
  serving::FakeClock clock;
  serving::Supervisor supervisor(*detector_, nullptr, {}, &clock);
  Rng rng(43);
  for (int i = 0; i < 4; ++i) supervisor.process(nominal_frame(rng));
  const serving::HealthSnapshot health = supervisor.health();
  EXPECT_EQ(health.drift_checks, 0);
  EXPECT_EQ(health.threshold_swaps, 0);
  EXPECT_EQ(health.threshold_epoch, 0);
  const std::string json = health.to_json();
  EXPECT_NE(json.find("\"drift_state\":\"off\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"shadow\":[]"), std::string::npos) << json;
}

TEST_F(CalibServingFixture, ForcedSwapInstallsNextEpochOnSchedule) {
  serving::SupervisorConfig config;
  config.calibration = fast_calibration();
  config.calibration.forced_swap_frames = {10};
  serving::FakeClock clock;
  serving::Supervisor supervisor(*detector_, nullptr, config, &clock);
  Rng rng(45);
  for (int i = 0; i < 20; ++i) {
    const serving::ServeResult result = supervisor.process(nominal_frame(rng));
    EXPECT_EQ(result.threshold_swapped, i == 10) << "frame " << i;
    EXPECT_EQ(result.threshold_epoch, i < 10 ? 0 : 1) << "frame " << i;
  }
  ASSERT_EQ(supervisor.swap_events().size(), 1u);
  const serving::ThresholdSwapEvent& event = supervisor.swap_events().front();
  EXPECT_EQ(event.frame_index, 10);
  EXPECT_EQ(event.epoch, 1);
  EXPECT_TRUE(event.forced);
  EXPECT_FALSE(event.persisted) << "no store_path configured";
  const serving::HealthSnapshot health = supervisor.health();
  EXPECT_EQ(health.threshold_swaps, 1);
  EXPECT_EQ(health.threshold_epoch, 1);
  ASSERT_NE(supervisor.served_thresholds(), nullptr);
  // Frame 10 had only 11 scored samples (< min_samples 24): every rung
  // carries over the fitted threshold rather than trusting a thin shadow.
  for (int v = 0; v < core::kDetectorVariantCount; ++v) {
    EXPECT_EQ(supervisor.served_thresholds()->rebuilt[static_cast<size_t>(v)], 0);
    EXPECT_EQ(
        supervisor.served_thresholds()->thresholds[static_cast<size_t>(v)].threshold(),
        detector_->variant_calibration(static_cast<core::DetectorVariant>(v)).threshold.threshold());
  }
}

TEST_F(CalibServingFixture, DistributionShiftFiresDriftAndAutoSwaps) {
  serving::SupervisorConfig config;
  config.calibration = fast_calibration();
  serving::FakeClock clock;
  serving::Supervisor supervisor(*detector_, nullptr, config, &clock);
  Rng rng(47);
  // Nominal phase: shadow agrees with the fitted thresholds.
  for (int i = 0; i < 32; ++i) supervisor.process(nominal_frame(rng));
  const serving::HealthSnapshot before = supervisor.health();
  EXPECT_EQ(before.threshold_swaps, 0);
  EXPECT_EQ(before.drift_detections, 0) << "in-distribution stream must not drift";
  ASSERT_GE(before.drift_checks, 1);

  // Shifted phase: scores leave the fitted distribution and stay there.
  for (int i = 0; i < 96; ++i) supervisor.process(shifted_frame(rng));
  const serving::HealthSnapshot after = supervisor.health();
  EXPECT_GT(after.drift_detections, 0);
  EXPECT_GE(after.threshold_swaps, 1);
  EXPECT_GE(after.threshold_epoch, 1);
  ASSERT_FALSE(supervisor.swap_events().empty());
  EXPECT_FALSE(supervisor.swap_events().front().forced);
  // The swapped set rebuilt the rung that actually served (raw+MSE).
  ASSERT_NE(supervisor.served_thresholds(), nullptr);
  EXPECT_EQ(supervisor.served_thresholds()
                ->rebuilt[static_cast<size_t>(core::DetectorVariant::kRawMse)],
            1);
  const std::string json = after.to_json();
  EXPECT_NE(json.find("\"drift_checks\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"shadow\":[{\"rung\":"), std::string::npos) << json;
}

TEST_F(CalibServingFixture, SwapPersistsToStoreAndRecoversAtRestart) {
  const std::string store = temp_path("supervisor_store.bin");
  std::filesystem::remove(store);
  serving::SupervisorConfig config;
  config.calibration = fast_calibration();
  config.calibration.forced_swap_frames = {30};
  config.calibration.store_path = store;
  serving::FakeClock clock;
  serving::Supervisor supervisor(*detector_, nullptr, config, &clock);
  Rng rng(49);
  for (int i = 0; i < 40; ++i) supervisor.process(nominal_frame(rng));
  ASSERT_EQ(supervisor.swap_events().size(), 1u);
  EXPECT_TRUE(supervisor.swap_events().front().persisted);

  // "Restart": a fresh supervisor recovers the persisted set and serves it.
  const ThresholdSet recovered = ThresholdSet::load_file(store);
  EXPECT_EQ(recovered.epoch, 1);
  serving::FakeClock clock2;
  serving::Supervisor restarted(*detector_, nullptr, config, &clock2);
  restarted.install_thresholds(std::make_shared<ThresholdSet>(recovered));
  ASSERT_NE(restarted.served_thresholds(), nullptr);
  EXPECT_EQ(restarted.served_thresholds()->epoch, 1);
  EXPECT_EQ(restarted.health().threshold_epoch, 1);
}

TEST_F(CalibServingFixture, PersistFailureKeepsOldThresholdsAndCounts) {
  const std::string store = temp_path("supervisor_store_crash.bin");
  std::filesystem::remove(store);
  make_set(5, 0.5).save_file(store);  // pre-existing served file
  serving::SupervisorConfig config;
  config.calibration = fast_calibration();
  config.calibration.forced_swap_frames = {8};
  config.calibration.store_path = store;
  serving::FakeClock clock;
  serving::Supervisor supervisor(*detector_, nullptr, config, &clock);
  Rng rng(51);
  {
    faults::ScopedCrashPoint crash(faults::CrashPoint::kSwapAfterTempWrite);
    for (int i = 0; i < 16; ++i) {
      const serving::ServeResult result = supervisor.process(nominal_frame(rng));
      EXPECT_FALSE(result.threshold_swapped) << "frame " << i;
      EXPECT_TRUE(result.scored) << "serving continues through the failed persist";
    }
  }
  const serving::HealthSnapshot health = supervisor.health();
  EXPECT_EQ(health.swap_persist_failures, 1);
  EXPECT_EQ(health.threshold_swaps, 0) << "a set that was not made durable is not installed";
  EXPECT_EQ(supervisor.served_thresholds(), nullptr);
  EXPECT_TRUE(supervisor.swap_events().empty());
  EXPECT_EQ(ThresholdSet::load_file(store).epoch, 5) << "disk still holds the old complete file";
}

// ---------------------------------------------------------------------------
// The acceptance soak: 10k frames under FakeClock, an injected mid-run
// exposure shift, drift fires and hot-swaps without dropping a frame, and
// the recorded trace (swap event included) replays bit-exactly at 1 and 4
// threads.

struct ThreadGuard {
  ~ThreadGuard() { parallel::set_num_threads(0); }
};

TEST_F(CalibServingFixture, TenThousandFrameSoakSwapsAndReplaysBitExact) {
  trace::TraceRunSpec spec;
  spec.dataset = "outdoor";
  spec.frame_seed = 2024;
  spec.fault_seed = 7;
  spec.frames = 10000;
  spec.height = kH;
  spec.width = kW;
  trace::TraceCameraFault shift;
  shift.fault = faults::CameraFault::kOverExposure;
  shift.severity = 0.35;
  shift.first_frame = 5000;
  shift.last_frame = 9999;
  spec.camera_faults.push_back(shift);
  spec.supervisor.calibration.enabled = true;
  spec.supervisor.calibration.warmup = 64;
  spec.supervisor.calibration.min_samples = 256;
  spec.supervisor.calibration.check_every_frames = 64;
  spec.supervisor.calibration.trigger_checks = 3;
  spec.supervisor.calibration.release_checks = 5;
  spec.validate();

  const trace::Trace trace = trace::TraceRecorder::record(spec, *detector_, nullptr);
  EXPECT_EQ(trace.health.frames_total, 10000);
  EXPECT_EQ(trace.health.frames_abandoned, 0) << "no frame dropped or blocked across the swap";
  EXPECT_GE(trace.health.threshold_swaps, 1) << "the exposure shift must trigger a hot-swap";
  EXPECT_GT(trace.health.drift_detections, 0);
  EXPECT_GE(trace.health.threshold_epoch, 1);
  int64_t swap_frames = 0;
  int64_t first_swap = -1;
  for (const trace::TraceFrame& frame : trace.frames) {
    if (frame.threshold_swapped) {
      ++swap_frames;
      if (first_swap < 0) first_swap = frame.frame_index;
    }
  }
  EXPECT_EQ(swap_frames, trace.health.threshold_swaps);
  EXPECT_GE(first_swap, 5000) << "drift must not fire before the distribution shifts";

  // The swap event survives the file format.
  const std::string path = temp_path("soak.trace");
  trace.save_file(path);
  const trace::Trace loaded = trace::Trace::load_file(path);
  ASSERT_EQ(loaded.frames.size(), trace.frames.size());
  EXPECT_EQ(loaded.frames[static_cast<size_t>(first_swap)].threshold_swapped, true);
  EXPECT_EQ(loaded.health.threshold_swaps, trace.health.threshold_swaps);
  EXPECT_TRUE(loaded.spec.supervisor.calibration.enabled);

  ThreadGuard guard;
  for (const int threads : {1, 4}) {
    parallel::set_num_threads(threads);
    const trace::ReplayReport report = trace::TraceReplayer::replay(loaded, *detector_, nullptr);
    EXPECT_TRUE(report.ok()) << "threads=" << threads << ": "
                             << (report.divergence ? report.divergence->format() : "");
    EXPECT_EQ(report.frames_compared, 10000);
  }
}

}  // namespace
}  // namespace salnov::calib
