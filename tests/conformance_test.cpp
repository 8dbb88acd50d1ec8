// Conformance suite for the golden-trace record/replay layer.
//
// Two families of tests live here:
//
//   * Fixture-local scenarios: a tiny detector is fitted in-process, traces
//     are recorded under the scalar GEMM kernel, and replays are required to
//     be bit-exact at 1 vs 4 threads and at the recording kernel, and
//     tolerance-conformant across kernels. Perturbation tests tamper with a
//     recorded trace and check the first-divergence report names the frame,
//     stage, and field.
//   * Golden replays: every *.trace checked into tests/golden/ (recorded by
//     tools/make_golden against tests/golden/pipeline.bin) is replayed under
//     the same matrix. These pin today's decision stream against future
//     refactors.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/monitor.hpp"
#include "core/novelty_detector.hpp"
#include "core/pipeline_io.hpp"
#include "driving/pilotnet.hpp"
#include "faults/fault_injector.hpp"
#include "image/transforms.hpp"
#include "parallel/parallel_for.hpp"
#include "roadsim/outdoor_generator.hpp"
#include "tensor/gemm.hpp"
#include "tensor/serialize.hpp"
#include "trace/trace.hpp"

namespace salnov::trace {
namespace {

constexpr int64_t kH = 16;
constexpr int64_t kW = 24;
constexpr int64_t kMs = 1'000'000;  // ns

/// Restores the ambient worker-thread override on scope exit.
struct ThreadGuard {
  ~ThreadGuard() { parallel::set_num_threads(0); }
};

/// Restores the GEMM kernel active at construction on scope exit.
struct KernelGuard {
  GemmKernel saved = active_gemm_kernel();
  ~KernelGuard() { set_gemm_kernel(saved); }
};

/// Fitted pipeline shared across the suite. The detector is trained on
/// outdoor roadsim frames resized to the serving resolution, so the nominal
/// scenario stream is in-distribution.
class ConformanceFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Record and fit under the scalar kernel: it is available everywhere,
    // so every machine reproduces the same weights and traces bit-for-bit.
    KernelGuard kernel;
    set_gemm_kernel(GemmKernel::kScalar);

    Rng rng(41);
    steering_ =
        new nn::Sequential(driving::build_pilotnet(driving::PilotNetConfig::tiny(kH, kW), rng));

    core::NoveltyDetectorConfig config;
    config.height = kH;
    config.width = kW;
    config.preprocessing = core::Preprocessing::kVbp;
    config.score = core::ReconstructionScore::kSsim;
    config.autoencoder = core::AutoencoderConfig::tiny(kH, kW);
    config.train_epochs = 10;
    detector_ = new core::NoveltyDetector(config);
    detector_->attach_steering_model(steering_);

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
    delete detector_;
    detector_ = nullptr;
    delete steering_;
    steering_ = nullptr;
  }

  /// Shared knobs: tight 1 ms budgets (only injected stalls can overrun
  /// under the FakeClock) and short hysteresis windows so short runs still
  /// visit every policy state.
  static TraceRunSpec base_spec(int64_t frames) {
    TraceRunSpec spec;
    spec.dataset = "outdoor";
    spec.frame_seed = 2024;
    spec.fault_seed = 7;
    spec.frames = frames;
    spec.height = kH;
    spec.width = kW;
    spec.supervisor.stage_budget_ns = {kMs, kMs, kMs, kMs, kMs};
    spec.supervisor.frame_budget_ns = 1000 * kMs;
    spec.supervisor.breaker.failure_threshold = 3;
    spec.supervisor.breaker.open_frames = 4;
    spec.supervisor.demote_after_bad_frames = 1;
    spec.supervisor.promote_after_healthy_frames = 2;
    spec.supervisor.monitor.trigger_frames = 2;
    spec.supervisor.monitor.release_frames = 2;
    spec.supervisor.monitor.sensor_trigger_frames = 2;
    spec.supervisor.monitor.sensor_release_frames = 2;
    return spec;
  }

  static TraceRunSpec nominal_spec() { return base_spec(12); }

  /// Saliency stalls on frames 3..8 blow the 1 ms stage budget: the breaker
  /// trips after 2 failures, reopens on a failed probe while the stall
  /// persists, then a clean probe restores VBP+SSIM. (Threshold 2, not the
  /// default 3: with immediate demotion the ladder leaves the saliency rungs
  /// after two bad frames, and a breaker needing a third consecutive failure
  /// would never see it.)
  static TraceRunSpec stall_spec() {
    TraceRunSpec spec = base_spec(24);
    spec.supervisor.breaker.failure_threshold = 2;
    spec.stalls.push_back({/*stage=*/2, /*stall_ns=*/10 * kMs, /*first_frame=*/3,
                           /*last_frame=*/8, /*period=*/1});
    return spec;
  }

  /// A frozen camera on frames 4..8 drives the sensor-fault hysteresis;
  /// after recovery, salt-and-pepper frames 14..17 re-enter fallback via
  /// the novelty path.
  static TraceRunSpec sensor_spec() {
    TraceRunSpec spec = base_spec(24);
    spec.camera_faults.push_back(
        {faults::CameraFault::kFrozenFrame, /*severity=*/1.0, /*first=*/4, /*last=*/8,
         /*period=*/1});
    spec.camera_faults.push_back(
        {faults::CameraFault::kSaltPepper, /*severity=*/1.0, /*first=*/14, /*last=*/17,
         /*period=*/1});
    return spec;
  }

  static Trace record_scalar(const TraceRunSpec& spec) {
    KernelGuard kernel;
    set_gemm_kernel(GemmKernel::kScalar);
    return TraceRecorder::record(spec, *detector_, steering_);
  }

  static core::NoveltyDetector* detector_;
  static nn::Sequential* steering_;
};

core::NoveltyDetector* ConformanceFixture::detector_ = nullptr;
nn::Sequential* ConformanceFixture::steering_ = nullptr;

using Conformance = ConformanceFixture;

// ---------------------------------------------------------------------------
// Determinism matrix: threads x kernels.

TEST_F(Conformance, RecordingTwiceIsBitIdentical) {
  for (const TraceRunSpec& spec : {nominal_spec(), stall_spec(), sensor_spec()}) {
    const Trace first = record_scalar(spec);
    const Trace second = record_scalar(spec);
    const ReplayReport report = compare(first, second.frames, second.health);
    EXPECT_TRUE(report.ok()) << report.format();
    EXPECT_EQ(report.frames_compared, spec.frames);
  }
}

TEST_F(Conformance, ReplayIsBitExactAtFourThreads) {
  for (const TraceRunSpec& spec : {nominal_spec(), stall_spec(), sensor_spec()}) {
    const Trace recorded = record_scalar(spec);

    KernelGuard kernel;
    set_gemm_kernel(GemmKernel::kScalar);
    ThreadGuard threads;
    parallel::set_num_threads(4);
    const ReplayReport report = TraceReplayer::replay(recorded, *detector_, steering_);
    EXPECT_TRUE(report.ok()) << report.format();
  }
}

TEST_F(Conformance, ReplayIsBitExactAtOneThread) {
  const Trace recorded = record_scalar(stall_spec());

  KernelGuard kernel;
  set_gemm_kernel(GemmKernel::kScalar);
  ThreadGuard threads;
  parallel::set_num_threads(1);
  const ReplayReport report = TraceReplayer::replay(recorded, *detector_, steering_);
  EXPECT_TRUE(report.ok()) << report.format();
}

TEST_F(Conformance, CrossKernelReplayConformsWithinTolerance) {
  if (!gemm_simd_available()) GTEST_SKIP() << "no SIMD kernel on this CPU";
  for (const TraceRunSpec& spec : {nominal_spec(), stall_spec(), sensor_spec()}) {
    const Trace recorded = record_scalar(spec);

    KernelGuard kernel;
    set_gemm_kernel(GemmKernel::kSimd);
    ReplayOptions options;
    options.score_tolerance = 1e-6;
    const ReplayReport report = TraceReplayer::replay(recorded, *detector_, steering_, options);
    // Scores may round differently under FMA, but every discrete decision
    // (verdicts, modes, monitor states, counters) must still match exactly.
    EXPECT_TRUE(report.ok()) << report.format();
  }
}

// ---------------------------------------------------------------------------
// Scenario coverage: the recorded streams actually exercise the policy
// machinery the traces exist to pin down.

TEST_F(Conformance, StallScenarioTripsAndRecoversTheBreaker) {
  const Trace trace = record_scalar(stall_spec());
  EXPECT_GE(trace.health.breaker_trips, 1);
  EXPECT_GE(trace.health.step_downs, 1);
  EXPECT_GE(trace.health.probe_failures, 1);
  EXPECT_GE(trace.health.probe_successes, 1);
  EXPECT_GE(trace.health.promotions, 1);

  bool saw_degraded = false;
  bool saw_open = false;
  for (const TraceFrame& frame : trace.frames) {
    saw_degraded |= frame.mode == serving::ServingMode::kRawMse;
    saw_open |= frame.breaker_after == serving::BreakerState::kOpen;
  }
  EXPECT_TRUE(saw_degraded);
  EXPECT_TRUE(saw_open);
  // The run ends recovered: breaker closed, back on the primary rung.
  EXPECT_EQ(trace.frames.back().breaker_after, serving::BreakerState::kClosed);
  EXPECT_EQ(trace.frames.back().mode_after, serving::ServingMode::kVbpSsim);
}

TEST_F(Conformance, SensorScenarioVisitsBothFallbackPaths) {
  const Trace trace = record_scalar(sensor_spec());
  bool saw_sensor_fault = false;
  bool saw_novelty_fallback_after_recovery = false;
  for (const TraceFrame& frame : trace.frames) {
    if (frame.monitor_state == core::MonitorState::kSensorFault) saw_sensor_fault = true;
    if (saw_sensor_fault && frame.monitor_state == core::MonitorState::kFallback) {
      saw_novelty_fallback_after_recovery = true;
      EXPECT_EQ(frame.fallback_path, core::FallbackPath::kNovelty);
    }
  }
  EXPECT_TRUE(saw_sensor_fault);
  EXPECT_TRUE(saw_novelty_fallback_after_recovery);
  EXPECT_GE(trace.health.frames_sensor_bad, 2);
}

// ---------------------------------------------------------------------------
// Monitor hysteresis re-entry, re-driven from a replayed trace: feeding the
// recorded per-frame outcomes into a fresh NoveltyMonitor must reproduce the
// recorded state sequence, including the sensor-fault -> nominal -> novelty
// fallback re-entry.

TEST_F(Conformance, MonitorHysteresisReplaysFromRecordedTrace) {
  const TraceRunSpec spec = sensor_spec();
  const Trace trace = record_scalar(spec);

  core::NoveltyMonitor monitor(spec.supervisor.monitor);
  for (const TraceFrame& frame : trace.frames) {
    SCOPED_TRACE("frame " + std::to_string(frame.frame_index));
    if (frame.sensor_bad) {
      // Only the fact that the frame was screened out moves the hysteresis,
      // not which check fired.
      monitor.update_sensor_bad();
      EXPECT_EQ(monitor.state(), frame.monitor_state);
      EXPECT_EQ(core::fallback_path(monitor.state()), frame.fallback_path);
    } else if (frame.abandoned) {
      // Abandoned frames never reach the monitor.
      EXPECT_EQ(monitor.state(), frame.monitor_state);
    } else if (frame.scored) {
      monitor.update_scored(frame.score, frame.novel);
      EXPECT_EQ(monitor.state(), frame.monitor_state);
      EXPECT_EQ(core::fallback_path(monitor.state()), frame.fallback_path);
    } else if (frame.mode == serving::ServingMode::kSensorHold) {
      monitor.update_sensor_bad();
      EXPECT_EQ(monitor.state(), frame.monitor_state);
      EXPECT_EQ(core::fallback_path(monitor.state()), frame.fallback_path);
    } else {
      // Pipeline-broken frames report the state without updating it.
      EXPECT_EQ(monitor.state(), frame.monitor_state);
    }
  }
}

// ---------------------------------------------------------------------------
// Round trips through the checked file format at the degenerate sizes.

TEST_F(Conformance, ZeroFrameRunRoundTripsAndReplays) {
  TraceRunSpec spec = base_spec(0);
  const Trace recorded = record_scalar(spec);
  EXPECT_TRUE(recorded.frames.empty());
  EXPECT_EQ(recorded.health.frames_total, 0);

  const std::string path =
      (std::filesystem::temp_directory_path() / "salnov_conformance_zero.trace").string();
  recorded.save_file(path);
  const Trace loaded = Trace::load_file(path);
  std::filesystem::remove(path);

  KernelGuard kernel;
  set_gemm_kernel(GemmKernel::kScalar);
  const ReplayReport report = TraceReplayer::replay(loaded, *detector_, steering_);
  EXPECT_TRUE(report.ok()) << report.format();
  EXPECT_EQ(report.frames_compared, 0);
}

TEST_F(Conformance, SingleFrameRunRoundTripsAndReplays) {
  TraceRunSpec spec = base_spec(1);
  const Trace recorded = record_scalar(spec);
  ASSERT_EQ(recorded.frames.size(), 1u);

  const std::string path =
      (std::filesystem::temp_directory_path() / "salnov_conformance_one.trace").string();
  recorded.save_file(path);
  const Trace loaded = Trace::load_file(path);
  std::filesystem::remove(path);

  KernelGuard kernel;
  set_gemm_kernel(GemmKernel::kScalar);
  const ReplayReport report = TraceReplayer::replay(loaded, *detector_, steering_);
  EXPECT_TRUE(report.ok()) << report.format();
  EXPECT_EQ(report.frames_compared, 1);
}

// ---------------------------------------------------------------------------
// Perturbation: a tampered trace must produce a first-divergence report
// naming the frame, the stage, and the field.

TEST_F(Conformance, PerturbedVerdictIsReportedWithFrameStageField) {
  Trace trace = record_scalar(nominal_spec());
  ASSERT_GE(trace.frames.size(), 3u);
  trace.frames[2].novel = !trace.frames[2].novel;

  KernelGuard kernel;
  set_gemm_kernel(GemmKernel::kScalar);
  const ReplayReport report = TraceReplayer::replay(trace, *detector_, steering_);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.divergence->frame, 2);
  EXPECT_EQ(report.divergence->stage, "score");
  EXPECT_EQ(report.divergence->field, "novel");
  EXPECT_NE(report.format().find("frame 2"), std::string::npos);
}

TEST_F(Conformance, PerturbedHealthCounterIsReportedAtRunLevel) {
  Trace trace = record_scalar(nominal_spec());
  trace.health.frames_scored += 1;

  KernelGuard kernel;
  set_gemm_kernel(GemmKernel::kScalar);
  const ReplayReport report = TraceReplayer::replay(trace, *detector_, steering_);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.divergence->frame, -1);
  EXPECT_EQ(report.divergence->stage, "health");
  EXPECT_EQ(report.divergence->field, "frames_scored");
}

// ---------------------------------------------------------------------------
// Golden replays: the traces checked into tests/golden, recorded by
// tools/make_golden against tests/golden/pipeline.bin, must replay with an
// empty diff at 1 vs 4 threads (bit-exact) and across GEMM kernels
// (tolerance-bounded floats, exact decisions).

std::vector<std::string> golden_trace_paths() {
  std::vector<std::string> paths;
  const std::filesystem::path dir = SALNOV_GOLDEN_DIR;
  if (!std::filesystem::is_directory(dir)) return paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".trace") paths.push_back(entry.path().string());
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

class GoldenReplay : public ::testing::Test {
 protected:
  static constexpr const char* pipeline_path() { return SALNOV_GOLDEN_DIR "/pipeline.bin"; }
};

// Goldens are checked into the repo; their absence is a broken checkout, not
// a reason to skip the conformance gate. (ASSERT_ must expand in the test
// body to abort the right function, hence a macro and not a helper.)
#define REQUIRE_GOLDENS()                                                              \
  ASSERT_TRUE(std::filesystem::exists(pipeline_path()))                                \
      << "no golden pipeline at " << pipeline_path() << " (record with make_golden)";  \
  ASSERT_FALSE(golden_trace_paths().empty())                                           \
      << "golden pipeline present but no .trace files in " SALNOV_GOLDEN_DIR

TEST_F(GoldenReplay, TracesMatchThePipelineTheyWereRecordedAgainst) {
  REQUIRE_GOLDENS();
  const std::string payload = load_file_checked(pipeline_path());
  const uint32_t crc = crc32(payload.data(), payload.size());
  for (const std::string& path : golden_trace_paths()) {
    SCOPED_TRACE(path);
    const Trace trace = Trace::load_file(path);
    EXPECT_EQ(trace.spec.pipeline_crc, crc);
    EXPECT_EQ(trace.spec.pipeline_bytes, static_cast<int64_t>(payload.size()));
  }
}

TEST_F(GoldenReplay, GoldensReplayBitExactAtOneAndFourThreads) {
  REQUIRE_GOLDENS();
  const core::LoadedPipeline pipeline = core::PipelineIo::load_file(pipeline_path());

  KernelGuard kernel;
  set_gemm_kernel(GemmKernel::kScalar);
  for (const std::string& path : golden_trace_paths()) {
    SCOPED_TRACE(path);
    const Trace trace = Trace::load_file(path);
    for (const int threads : {1, 4}) {
      ThreadGuard guard;
      parallel::set_num_threads(threads);
      const ReplayReport report =
          TraceReplayer::replay(trace, *pipeline.detector, pipeline.steering_model.get());
      EXPECT_TRUE(report.ok()) << "threads=" << threads << ": " << report.format();
      // Multi-stream traces carry spec.frames frames PER stream.
      const int64_t streams = std::max<int64_t>(trace.spec.cluster.streams, 1);
      EXPECT_EQ(report.frames_compared, trace.spec.frames * streams);
    }
  }
}

TEST_F(GoldenReplay, GoldensReplayAcrossGemmKernels) {
  REQUIRE_GOLDENS();
  if (!gemm_simd_available()) GTEST_SKIP() << "no SIMD kernel on this CPU";
  const core::LoadedPipeline pipeline = core::PipelineIo::load_file(pipeline_path());

  KernelGuard kernel;
  set_gemm_kernel(GemmKernel::kSimd);
  ReplayOptions options;
  options.score_tolerance = 1e-6;
  for (const std::string& path : golden_trace_paths()) {
    SCOPED_TRACE(path);
    const Trace trace = Trace::load_file(path);
    const ReplayReport report = TraceReplayer::replay(
        trace, *pipeline.detector, pipeline.steering_model.get(), options);
    EXPECT_TRUE(report.ok()) << report.format();
  }
}

}  // namespace
}  // namespace salnov::trace
