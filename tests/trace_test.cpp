// Unit tests for the trace layer's data plane: spec validation, versioned
// CRC-guarded (de)serialization including zero- and single-frame traces,
// and the first-divergence diffing used by the conformance harness. No
// pipeline is fitted here — conformance_test covers the live record/replay
// path; these tests pin the format and the diff semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "tensor/serialize.hpp"
#include "trace/trace.hpp"

namespace salnov::trace {
namespace {

std::filesystem::path temp_path(const std::string& name) {
  return std::filesystem::temp_directory_path() / ("salnov_trace_test_" + name);
}

/// A representative trace: two frames with distinct decisions plus nonzero
/// health counters, so every serialized field has a non-default value
/// somewhere.
Trace sample_trace() {
  Trace trace;
  trace.spec.dataset = "indoor";
  trace.spec.frame_seed = 7;
  trace.spec.fault_seed = 11;
  trace.spec.frames = 2;
  trace.spec.height = 16;
  trace.spec.width = 24;
  trace.spec.stalls.push_back({2, 10'000'000, 3, 9, 2});
  trace.spec.camera_faults.push_back(
      {faults::CameraFault::kSaltPepper, 0.75, 4, 8, 1});
  trace.spec.supervisor.stage_budget_ns = {1, 2, 3, 4, 5};
  trace.spec.supervisor.frame_budget_ns = 99;
  trace.spec.supervisor.breaker.failure_threshold = 2;
  trace.spec.supervisor.breaker.open_frames = 6;
  trace.spec.supervisor.demote_after_bad_frames = 3;
  trace.spec.supervisor.promote_after_healthy_frames = 4;
  trace.spec.supervisor.monitor.trigger_frames = 2;
  trace.spec.supervisor.monitor.release_frames = 7;
  trace.spec.supervisor.monitor.score_smoothing = 0.25;
  trace.spec.supervisor.monitor.sensor_trigger_frames = 1;
  trace.spec.supervisor.monitor.sensor_release_frames = 9;
  trace.spec.supervisor.monitor.detect_frozen_frames = false;
  trace.spec.supervisor.calibration.enabled = true;
  trace.spec.supervisor.calibration.auto_swap = false;
  trace.spec.supervisor.calibration.percentile = 0.95;
  trace.spec.supervisor.calibration.warmup = 32;
  trace.spec.supervisor.calibration.min_samples = 100;
  trace.spec.supervisor.calibration.drift_tolerance = 0.75;
  trace.spec.supervisor.calibration.check_every_frames = 16;
  trace.spec.supervisor.calibration.trigger_checks = 2;
  trace.spec.supervisor.calibration.release_checks = 3;
  trace.spec.supervisor.calibration.forced_swap_frames = {1, 5};
  trace.spec.cluster.streams = 2;
  trace.spec.cluster.replicas = 1;  // stalls above require a single replica
  trace.spec.cluster.gather_window_ns = 3'000'000;
  trace.spec.cluster.max_batch = 8;
  trace.spec.cluster.arrival_period_ns = 500'000;
  trace.spec.cluster.watchdog.enabled = true;
  trace.spec.cluster.watchdog.batch_deadline_ns = 4'000'000;
  trace.spec.cluster.watchdog.heartbeat_timeout_ns = 40'000'000;
  trace.spec.cluster.watchdog.missed_deadlines_to_quarantine = 3;
  trace.spec.cluster.watchdog.canary_period_ns = 20'000'000;
  trace.spec.cluster.watchdog.canary_failures_to_quarantine = 2;
  trace.spec.cluster.watchdog.probe_backoff_ns = 6'000'000;
  trace.spec.cluster.watchdog.max_probe_backoff_ns = 48'000'000;
  trace.spec.cluster.watchdog.max_redispatches = 5;
  trace.spec.cluster.watchdog.canary_epsilon = 2e-3;
  trace.spec.cluster.admission_credits = 4;
  trace.spec.cluster.replica_faults.push_back(
      {/*replica=*/0, faults::ReplicaFaultKind::kSlow, /*start_ns=*/1'000'000,
       /*end_ns=*/9'000'000, /*slow_penalty_ns=*/5'000'000});
  trace.spec.cluster.replica_faults.push_back(
      {/*replica=*/0, faults::ReplicaFaultKind::kWeightCorrupt, /*start_ns=*/2'000'000,
       /*end_ns=*/3'000'000, /*slow_penalty_ns=*/0, /*weight_bits=*/16, /*seed=*/9});
  trace.spec.pipeline_crc = 0xdeadbeef;
  trace.spec.pipeline_bytes = 12345;

  TraceFrame f0;
  f0.frame_index = 0;
  f0.mode = serving::ServingMode::kVbpSsim;
  f0.scored = true;
  f0.novel = false;
  f0.score = 0.875;
  f0.steering = -0.25;
  f0.stage_ns = {1, 2, 3, 4, 5};
  trace.frames.push_back(f0);

  TraceFrame f1;
  f1.frame_index = 1;
  f1.mode = serving::ServingMode::kRawMse;
  f1.scored = true;
  f1.novel = true;
  f1.deadline_overrun = true;
  f1.score = 123.5;
  f1.steering = 0.5;
  f1.monitor_state = core::MonitorState::kAlert;
  f1.stage_ns = {5, 4, 3, 2, 1};
  f1.mode_after = serving::ServingMode::kVbpMse;
  f1.breaker_after = serving::BreakerState::kOpen;
  f1.swapped = true;
  f1.epoch_after = 1;
  f1.stream_id = 1;
  trace.frames.push_back(f1);

  trace.health.frames_total = 2;
  trace.health.frames_scored = 2;
  trace.health.deadline_overruns = 1;
  trace.health.step_downs = 1;
  trace.health.breaker_trips = 1;
  trace.health.drift_checks = 4;
  trace.health.drift_detections = 2;
  trace.health.threshold_swaps = 1;
  trace.health.threshold_epoch = 1;

  // Format v4: the failure-domain event log and end-of-run counters.
  trace.events.push_back({serving::ClusterEventKind::kQuarantine, /*at_ns=*/1'500'000,
                          /*replica=*/0, /*stream=*/-1, /*detail=*/0});
  trace.events.push_back({serving::ClusterEventKind::kFailover, /*at_ns=*/1'500'000,
                          /*replica=*/0, /*stream=*/1, /*detail=*/2});
  trace.events.push_back({serving::ClusterEventKind::kShed, /*at_ns=*/2'000'000,
                          /*replica=*/-1, /*stream=*/1, /*detail=*/5});
  trace.cluster_health.quarantines = 1;
  trace.cluster_health.probe_attempts = 2;
  trace.cluster_health.probe_failures = 1;
  trace.cluster_health.restores = 1;
  trace.cluster_health.failovers = 1;
  trace.cluster_health.redispatched_frames = 2;
  trace.cluster_health.fallback_frames = 1;
  trace.cluster_health.shed_frames = 1;
  return trace;
}

void expect_traces_equal(const Trace& a, const Trace& b) {
  // compare() ignores the spec, so check it directly...
  EXPECT_EQ(a.spec.dataset, b.spec.dataset);
  EXPECT_EQ(a.spec.frame_seed, b.spec.frame_seed);
  EXPECT_EQ(a.spec.fault_seed, b.spec.fault_seed);
  EXPECT_EQ(a.spec.frames, b.spec.frames);
  EXPECT_EQ(a.spec.height, b.spec.height);
  EXPECT_EQ(a.spec.width, b.spec.width);
  ASSERT_EQ(a.spec.stalls.size(), b.spec.stalls.size());
  for (size_t i = 0; i < a.spec.stalls.size(); ++i) {
    EXPECT_EQ(a.spec.stalls[i].stage, b.spec.stalls[i].stage);
    EXPECT_EQ(a.spec.stalls[i].stall_ns, b.spec.stalls[i].stall_ns);
    EXPECT_EQ(a.spec.stalls[i].first_frame, b.spec.stalls[i].first_frame);
    EXPECT_EQ(a.spec.stalls[i].last_frame, b.spec.stalls[i].last_frame);
    EXPECT_EQ(a.spec.stalls[i].period, b.spec.stalls[i].period);
  }
  ASSERT_EQ(a.spec.camera_faults.size(), b.spec.camera_faults.size());
  for (size_t i = 0; i < a.spec.camera_faults.size(); ++i) {
    EXPECT_EQ(a.spec.camera_faults[i].fault, b.spec.camera_faults[i].fault);
    EXPECT_EQ(a.spec.camera_faults[i].severity, b.spec.camera_faults[i].severity);
    EXPECT_EQ(a.spec.camera_faults[i].first_frame, b.spec.camera_faults[i].first_frame);
    EXPECT_EQ(a.spec.camera_faults[i].last_frame, b.spec.camera_faults[i].last_frame);
    EXPECT_EQ(a.spec.camera_faults[i].period, b.spec.camera_faults[i].period);
  }
  EXPECT_EQ(a.spec.supervisor.stage_budget_ns, b.spec.supervisor.stage_budget_ns);
  EXPECT_EQ(a.spec.supervisor.frame_budget_ns, b.spec.supervisor.frame_budget_ns);
  EXPECT_EQ(a.spec.supervisor.breaker.failure_threshold,
            b.spec.supervisor.breaker.failure_threshold);
  EXPECT_EQ(a.spec.supervisor.breaker.open_frames, b.spec.supervisor.breaker.open_frames);
  EXPECT_EQ(a.spec.supervisor.demote_after_bad_frames, b.spec.supervisor.demote_after_bad_frames);
  EXPECT_EQ(a.spec.supervisor.promote_after_healthy_frames,
            b.spec.supervisor.promote_after_healthy_frames);
  EXPECT_EQ(a.spec.supervisor.monitor.trigger_frames, b.spec.supervisor.monitor.trigger_frames);
  EXPECT_EQ(a.spec.supervisor.monitor.release_frames, b.spec.supervisor.monitor.release_frames);
  EXPECT_EQ(a.spec.supervisor.monitor.score_smoothing, b.spec.supervisor.monitor.score_smoothing);
  EXPECT_EQ(a.spec.supervisor.monitor.sensor_trigger_frames,
            b.spec.supervisor.monitor.sensor_trigger_frames);
  EXPECT_EQ(a.spec.supervisor.monitor.sensor_release_frames,
            b.spec.supervisor.monitor.sensor_release_frames);
  EXPECT_EQ(a.spec.supervisor.monitor.detect_frozen_frames,
            b.spec.supervisor.monitor.detect_frozen_frames);
  EXPECT_EQ(a.spec.supervisor.calibration.enabled, b.spec.supervisor.calibration.enabled);
  EXPECT_EQ(a.spec.supervisor.calibration.auto_swap, b.spec.supervisor.calibration.auto_swap);
  EXPECT_EQ(a.spec.supervisor.calibration.percentile, b.spec.supervisor.calibration.percentile);
  EXPECT_EQ(a.spec.supervisor.calibration.warmup, b.spec.supervisor.calibration.warmup);
  EXPECT_EQ(a.spec.supervisor.calibration.min_samples, b.spec.supervisor.calibration.min_samples);
  EXPECT_EQ(a.spec.supervisor.calibration.drift_tolerance,
            b.spec.supervisor.calibration.drift_tolerance);
  EXPECT_EQ(a.spec.supervisor.calibration.check_every_frames,
            b.spec.supervisor.calibration.check_every_frames);
  EXPECT_EQ(a.spec.supervisor.calibration.trigger_checks,
            b.spec.supervisor.calibration.trigger_checks);
  EXPECT_EQ(a.spec.supervisor.calibration.release_checks,
            b.spec.supervisor.calibration.release_checks);
  EXPECT_EQ(a.spec.supervisor.calibration.forced_swap_frames,
            b.spec.supervisor.calibration.forced_swap_frames);
  EXPECT_TRUE(b.spec.supervisor.calibration.store_path.empty())
      << "store_path is machine-local and must never survive serialization";
  EXPECT_EQ(a.spec.cluster.streams, b.spec.cluster.streams);
  EXPECT_EQ(a.spec.cluster.replicas, b.spec.cluster.replicas);
  EXPECT_EQ(a.spec.cluster.gather_window_ns, b.spec.cluster.gather_window_ns);
  EXPECT_EQ(a.spec.cluster.max_batch, b.spec.cluster.max_batch);
  EXPECT_EQ(a.spec.cluster.arrival_period_ns, b.spec.cluster.arrival_period_ns);
  EXPECT_EQ(a.spec.cluster.watchdog.enabled, b.spec.cluster.watchdog.enabled);
  EXPECT_EQ(a.spec.cluster.watchdog.batch_deadline_ns, b.spec.cluster.watchdog.batch_deadline_ns);
  EXPECT_EQ(a.spec.cluster.watchdog.heartbeat_timeout_ns,
            b.spec.cluster.watchdog.heartbeat_timeout_ns);
  EXPECT_EQ(a.spec.cluster.watchdog.missed_deadlines_to_quarantine,
            b.spec.cluster.watchdog.missed_deadlines_to_quarantine);
  EXPECT_EQ(a.spec.cluster.watchdog.canary_period_ns, b.spec.cluster.watchdog.canary_period_ns);
  EXPECT_EQ(a.spec.cluster.watchdog.canary_failures_to_quarantine,
            b.spec.cluster.watchdog.canary_failures_to_quarantine);
  EXPECT_EQ(a.spec.cluster.watchdog.probe_backoff_ns, b.spec.cluster.watchdog.probe_backoff_ns);
  EXPECT_EQ(a.spec.cluster.watchdog.max_probe_backoff_ns,
            b.spec.cluster.watchdog.max_probe_backoff_ns);
  EXPECT_EQ(a.spec.cluster.watchdog.max_redispatches, b.spec.cluster.watchdog.max_redispatches);
  EXPECT_EQ(a.spec.cluster.watchdog.canary_epsilon, b.spec.cluster.watchdog.canary_epsilon);
  EXPECT_EQ(a.spec.cluster.admission_credits, b.spec.cluster.admission_credits);
  ASSERT_EQ(a.spec.cluster.replica_faults.size(), b.spec.cluster.replica_faults.size());
  for (size_t i = 0; i < a.spec.cluster.replica_faults.size(); ++i) {
    EXPECT_EQ(a.spec.cluster.replica_faults[i].replica, b.spec.cluster.replica_faults[i].replica);
    EXPECT_EQ(a.spec.cluster.replica_faults[i].kind, b.spec.cluster.replica_faults[i].kind);
    EXPECT_EQ(a.spec.cluster.replica_faults[i].start_ns, b.spec.cluster.replica_faults[i].start_ns);
    EXPECT_EQ(a.spec.cluster.replica_faults[i].end_ns, b.spec.cluster.replica_faults[i].end_ns);
    EXPECT_EQ(a.spec.cluster.replica_faults[i].slow_penalty_ns,
              b.spec.cluster.replica_faults[i].slow_penalty_ns);
    EXPECT_EQ(a.spec.cluster.replica_faults[i].weight_bits,
              b.spec.cluster.replica_faults[i].weight_bits);
    EXPECT_EQ(a.spec.cluster.replica_faults[i].seed, b.spec.cluster.replica_faults[i].seed);
  }
  EXPECT_EQ(a.spec.pipeline_crc, b.spec.pipeline_crc);
  EXPECT_EQ(a.spec.pipeline_bytes, b.spec.pipeline_bytes);

  // ...and reuse the conformance diff for frames + health + the v4 event
  // log and failure-domain counters.
  const ReplayReport report = compare(a, b.frames, b.health, {}, &b.events, &b.cluster_health);
  EXPECT_TRUE(report.ok()) << report.format();
}

TEST(TraceFormat, RoundTripsThroughStream) {
  const Trace original = sample_trace();
  std::ostringstream os;
  original.save(os);
  std::istringstream is(os.str());
  const Trace loaded = Trace::load(is);
  expect_traces_equal(original, loaded);
}

TEST(TraceFormat, RoundTripsZeroFrameTrace) {
  // A zero-frame run is a valid trace (spec + empty stream + zero health) —
  // the empty-input edge the recorder, replayer, and file format must all
  // accept.
  Trace empty;
  empty.spec.frames = 0;
  std::ostringstream os;
  empty.save(os);
  std::istringstream is(os.str());
  const Trace loaded = Trace::load(is);
  EXPECT_EQ(loaded.frames.size(), 0u);
  EXPECT_EQ(loaded.health.frames_total, 0);
  const ReplayReport report = compare(empty, loaded.frames, loaded.health);
  EXPECT_TRUE(report.ok()) << report.format();
}

TEST(TraceFormat, RoundTripsSingleFrameTraceThroughFile) {
  Trace single;
  single.spec.frames = 1;
  TraceFrame frame;
  frame.frame_index = 0;
  frame.scored = true;
  frame.score = 0.5;
  single.frames.push_back(frame);
  single.health.frames_total = 1;
  single.health.frames_scored = 1;

  const auto path = temp_path("single.trace");
  single.save_file(path.string());
  const Trace loaded = Trace::load_file(path.string());
  std::filesystem::remove(path);
  expect_traces_equal(single, loaded);
}

TEST(TraceFormat, FileIsCrcGuarded) {
  const auto path = temp_path("guarded.trace");
  sample_trace().save_file(path.string());

  // Flip one payload byte: the checked loader must refuse the file.
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  file.seekp(20);
  char byte = 0;
  file.seekg(20);
  file.read(&byte, 1);
  byte ^= 0x40;
  file.seekp(20);
  file.write(&byte, 1);
  file.close();

  EXPECT_THROW(Trace::load_file(path.string()), CorruptFileError);
  std::filesystem::remove(path);
}

TEST(TraceFormat, RejectsWrongMagic) {
  std::istringstream is("not-a-trace-at-all");
  EXPECT_THROW(Trace::load(is), SerializationError);
}

std::string saved(const Trace& trace) {
  std::ostringstream os;
  trace.save(os);
  return os.str();
}

TEST(TraceFormat, RejectsOutOfRangeEnums) {
  // The loader's bound on a frame's rung fields is the rung table's row
  // count: the last row loads, one past it fails typed rather than casting
  // garbage into the enum. Each field is located by diffing two saves that
  // differ only in that field.
  constexpr uint32_t kRows = static_cast<uint32_t>(core::kRungs.size());
  const auto mode_of = [](Trace& t) -> serving::ServingMode& { return t.frames[0].mode; };
  const auto mode_after_of = [](Trace& t) -> serving::ServingMode& { return t.frames[0].mode_after; };
  for (const auto& field : {+mode_of, +mode_after_of}) {
    Trace base = sample_trace();
    base.frames[0].mode = serving::ServingMode::kVbpSsim;
    base.frames[0].mode_after = serving::ServingMode::kVbpSsim;
    Trace moved = base;
    field(moved) = serving::ServingMode::kVbpMse;
    const std::string bytes = saved(base);
    const std::string moved_bytes = saved(moved);
    ASSERT_EQ(bytes.size(), moved_bytes.size());
    const size_t pos = static_cast<size_t>(
        std::mismatch(bytes.begin(), bytes.end(), moved_bytes.begin()).first - bytes.begin());
    ASSERT_LT(pos + sizeof(uint32_t), bytes.size());

    const auto load_with = [&](uint32_t value) {
      std::string patched = bytes;
      std::memcpy(&patched[pos], &value, sizeof value);
      std::istringstream is(patched);
      return Trace::load(is);
    };
    Trace last = load_with(kRows - 1);
    EXPECT_EQ(static_cast<uint32_t>(field(last)), kRows - 1);
    EXPECT_STREQ(serving::serving_mode_name(field(last)), "vbp+mse-q8");
    EXPECT_THROW(load_with(kRows), SerializationError);
    EXPECT_THROW(load_with(100), SerializationError);
  }
}

TEST(TraceSpec, ValidateRejectsBadSpecs) {
  TraceRunSpec spec;
  spec.dataset = "marslander";
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = TraceRunSpec{};
  spec.frames = -1;
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = TraceRunSpec{};
  spec.height = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = TraceRunSpec{};
  spec.stalls.push_back({0, -5, 0, 10, 1});  // negative stall
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = TraceRunSpec{};
  spec.camera_faults.push_back({faults::CameraFault::kOcclusion, 1.5, 0,
                                std::numeric_limits<int64_t>::max(), 1});  // severity > 1
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = TraceRunSpec{};
  spec.camera_faults.push_back({faults::CameraFault::kOcclusion, 0.5, 10, 4, 1});  // inverted
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = TraceRunSpec{};
  spec.frames = 0;  // zero frames is explicitly allowed
  EXPECT_NO_THROW(spec.validate());
}

TEST(TraceSpec, ValidateEnforcesClusterRules) {
  // A well-formed multi-stream spec passes.
  TraceRunSpec spec;
  spec.cluster.streams = 3;
  spec.cluster.replicas = 2;
  EXPECT_NO_THROW(spec.validate());

  // streams == 0 is the legacy single-supervisor driver; negative is garbage.
  spec = TraceRunSpec{};
  spec.cluster.streams = -1;
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = TraceRunSpec{};
  spec.cluster.streams = 2;
  spec.cluster.replicas = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = TraceRunSpec{};
  spec.cluster.streams = 2;
  spec.cluster.max_batch = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = TraceRunSpec{};
  spec.cluster.streams = 2;
  spec.cluster.gather_window_ns = -1;
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  // Stall injection is only deterministic with one replica: concurrent
  // replicas share the FakeClock, so stall sleeps would interleave.
  spec = TraceRunSpec{};
  spec.cluster.streams = 2;
  spec.cluster.replicas = 2;
  spec.stalls.push_back({2, 10'000'000, 0, 5, 1});
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.cluster.replicas = 1;
  EXPECT_NO_THROW(spec.validate());
}

// ---------------------------------------------------------------------------
// First-divergence reporting: each perturbed field must be attributed to
// the right frame, stage, and field.

TEST(TraceDiff, CleanComparisonReportsConformant) {
  const Trace trace = sample_trace();
  const ReplayReport report = compare(trace, trace.frames, trace.health);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.frames_compared, 2);
  EXPECT_EQ(report.format(), "replay conformant (2 frames)");
}

TEST(TraceDiff, ScoreDivergenceNamesScoreStage) {
  const Trace trace = sample_trace();
  auto frames = trace.frames;
  frames[1].score += 1.0;
  const ReplayReport report = compare(trace, frames, trace.health);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.divergence->frame, 1);
  EXPECT_EQ(report.divergence->stage, "score");
  EXPECT_EQ(report.divergence->field, "score");
  // The report names frame, stage, and field in one line.
  EXPECT_NE(report.format().find("frame 1"), std::string::npos);
  EXPECT_NE(report.format().find("stage score"), std::string::npos);
  EXPECT_NE(report.format().find("field score"), std::string::npos);
}

TEST(TraceDiff, ScoreToleranceSuppressesKernelRounding) {
  const Trace trace = sample_trace();
  auto frames = trace.frames;
  frames[0].score += 1e-9;
  EXPECT_FALSE(compare(trace, frames, trace.health).ok()) << "bit-exact mode";
  ReplayOptions tolerant;
  tolerant.score_tolerance = 1e-6;
  EXPECT_TRUE(compare(trace, frames, trace.health, tolerant).ok());
}

TEST(TraceDiff, SensorBadDivergenceNamesValidateStage) {
  const Trace trace = sample_trace();
  auto frames = trace.frames;
  frames[0].sensor_bad = true;
  const ReplayReport report = compare(trace, frames, trace.health);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.divergence->frame, 0);
  EXPECT_EQ(report.divergence->stage, "validate");
  EXPECT_EQ(report.divergence->field, "sensor_bad");
}

TEST(TraceDiff, StageTimingDivergenceNamesTheStage) {
  const Trace trace = sample_trace();
  auto frames = trace.frames;
  frames[1].stage_ns[2] += 7;  // saliency
  const ReplayReport report = compare(trace, frames, trace.health);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.divergence->frame, 1);
  EXPECT_EQ(report.divergence->stage, "saliency");
  EXPECT_EQ(report.divergence->field, "stage_ns");
}

TEST(TraceDiff, ModeDivergenceNamesLadder) {
  const Trace trace = sample_trace();
  auto frames = trace.frames;
  frames[1].mode_after = serving::ServingMode::kSensorHold;
  const ReplayReport report = compare(trace, frames, trace.health);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.divergence->stage, "ladder");
  EXPECT_EQ(report.divergence->field, "mode_after");
  EXPECT_EQ(report.divergence->recorded, "vbp+mse");
  EXPECT_EQ(report.divergence->replayed, "sensor-hold");
}

TEST(TraceDiff, MonitorAndBreakerDivergencesNameTheirLayers) {
  const Trace trace = sample_trace();
  auto frames = trace.frames;
  frames[0].monitor_state = core::MonitorState::kFallback;
  ReplayReport report = compare(trace, frames, trace.health);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.divergence->stage, "monitor");
  EXPECT_EQ(report.divergence->field, "monitor_state");

  frames = trace.frames;
  frames[1].breaker_after = serving::BreakerState::kHalfOpen;
  report = compare(trace, frames, trace.health);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.divergence->stage, "breaker");
  EXPECT_EQ(report.divergence->field, "breaker_after");
}

TEST(TraceDiff, FirstDivergenceWinsAcrossFrames) {
  // Perturb frame 0 (late field) and frame 1 (early field): the frame-0
  // divergence must be the one reported.
  const Trace trace = sample_trace();
  auto frames = trace.frames;
  frames[0].breaker_after = serving::BreakerState::kOpen;
  frames[1].sensor_bad = true;
  const ReplayReport report = compare(trace, frames, trace.health);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.divergence->frame, 0);
  EXPECT_EQ(report.divergence->stage, "breaker");
}

TEST(TraceDiff, FrameCountMismatchIsRunLevel) {
  const Trace trace = sample_trace();
  auto frames = trace.frames;
  frames.pop_back();
  const ReplayReport report = compare(trace, frames, trace.health);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.divergence->frame, -1);
  EXPECT_EQ(report.divergence->stage, "supervisor");
  EXPECT_EQ(report.divergence->field, "frame_count");
  EXPECT_NE(report.format().find("run level"), std::string::npos);
}

TEST(TraceDiff, HealthCounterMismatchIsRunLevel) {
  const Trace trace = sample_trace();
  TraceHealth health = trace.health;
  health.breaker_trips += 1;
  const ReplayReport report = compare(trace, trace.frames, health);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.divergence->frame, -1);
  EXPECT_EQ(report.divergence->stage, "health");
  EXPECT_EQ(report.divergence->field, "breaker_trips");
}

TEST(TraceDiff, SwapDivergenceNamesCalibStage) {
  const Trace trace = sample_trace();
  auto frames = trace.frames;
  frames[1].swapped = false;
  ReplayReport report = compare(trace, frames, trace.health);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.divergence->frame, 1);
  EXPECT_EQ(report.divergence->stage, "calib");
  EXPECT_EQ(report.divergence->field, "swapped");

  frames = trace.frames;
  frames[1].epoch_after += 1;
  report = compare(trace, frames, trace.health);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.divergence->frame, 1);
  EXPECT_EQ(report.divergence->stage, "calib");
  EXPECT_EQ(report.divergence->field, "epoch_after");
}

TEST(TraceDiff, DriftHealthCountersAreRunLevel) {
  const Trace trace = sample_trace();
  TraceHealth health = trace.health;
  health.drift_detections += 1;
  ReplayReport report = compare(trace, trace.frames, health);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.divergence->frame, -1);
  EXPECT_EQ(report.divergence->stage, "health");
  EXPECT_EQ(report.divergence->field, "drift_detections");

  health = trace.health;
  health.threshold_swaps += 1;
  report = compare(trace, trace.frames, health);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.divergence->stage, "health");
  EXPECT_EQ(report.divergence->field, "threshold_swaps");
}

TEST(TraceDiff, StreamIdDivergenceNamesClusterStage) {
  // A replay that routes a frame to the wrong stream is a batching bug, not
  // a scoring bug — the diff must attribute it to the cluster layer.
  const Trace trace = sample_trace();
  auto frames = trace.frames;
  frames[1].stream_id = 0;
  const ReplayReport report = compare(trace, frames, trace.health);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.divergence->frame, 1);
  EXPECT_EQ(report.divergence->stage, "cluster");
  EXPECT_EQ(report.divergence->field, "stream_id");
}

TEST(TraceDiff, NanScoresCompareEqualBitExact) {
  // Unscored frames carry NaN scores; NaN == NaN for trace purposes, so an
  // all-held recording replays conformant.
  Trace trace;
  trace.spec.frames = 1;
  TraceFrame frame;
  frame.frame_index = 0;
  trace.frames.push_back(frame);  // score and steering default to NaN
  trace.health.frames_total = 1;
  const ReplayReport report = compare(trace, trace.frames, trace.health);
  EXPECT_TRUE(report.ok()) << report.format();
}

}  // namespace
}  // namespace salnov::trace
