#include "trace/trace.hpp"

#include <cmath>
#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "image/transforms.hpp"
#include "roadsim/generator.hpp"
#include "serving/clock.hpp"
#include "serving/cluster.hpp"
#include "tensor/serialize.hpp"

namespace salnov::trace {

namespace {

constexpr const char* kTraceMagic = "salnov-trace";
// Layout: spec (scene stream, stall and camera-fault schedules, supervisor
// knobs, online-calibration block, cluster shape, failure-domain block,
// quantized-ladder flag, pipeline guard), the frame records, the health
// counters, then the cluster event log and cluster-health counters. The
// checked-in goldens are all this version; older traces are rejected.
constexpr uint32_t kTraceVersion = 5;

// Plausibility caps for the counts a trace carries; each count is also
// checked against the bytes left in the stream before anything is sized
// from it.
constexpr int64_t kMaxScheduleEntries = int64_t{1} << 20;  // stalls, faults, forced swaps
constexpr int64_t kMaxRecords = int64_t{1} << 32;          // frames, events

// Serialized sizes of the repeated records, for the bytes-left check.
constexpr int64_t kStallBytes = 5 * 8;
constexpr int64_t kCameraFaultBytes = 4 + 4 * 8;
constexpr int64_t kReplicaFaultBytes = 4 + 6 * 8;
constexpr int64_t kFrameBytes = 6 * 4 + 5 * 8 + serving::kStageCount * 8;
constexpr int64_t kEventBytes = 4 + 4 * 8;

// The health and cluster-health records are the traced counter rows, in row
// order; marking another row traced changes the layout and needs a version
// bump.
constexpr int traced_rows(const auto& rows) {
  int n = 0;
  for (const auto& row : rows) n += row.traced ? 1 : 0;
  return n;
}
static_assert(traced_rows(serving::kHealthCounters) == 17 &&
              traced_rows(serving::kClusterCounters) == 8);

// Frame-record flag bits (TraceFrame bools packed into one u32).
constexpr uint32_t kFlagScored = 1u << 0;
constexpr uint32_t kFlagAbandoned = 1u << 1;
constexpr uint32_t kFlagDeadlineOverrun = 1u << 2;
constexpr uint32_t kFlagSensorBad = 1u << 3;
constexpr uint32_t kFlagNovel = 1u << 4;
constexpr uint32_t kFlagSwapped = 1u << 5;
constexpr uint32_t kKnownFlags = (kFlagSwapped << 1) - 1;

uint32_t checked_enum(std::istream& is, uint32_t limit, const char* what) {
  const uint32_t value = read_u32(is);
  if (value >= limit) {
    throw SerializationError(std::string("trace: ") + what + " value " + std::to_string(value) +
                             " out of range");
  }
  return value;
}

bool checked_bool(std::istream& is, const char* what) { return checked_enum(is, 2, what) != 0; }

std::string format_i64(int64_t value) { return std::to_string(value); }

std::string format_f64(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

/// True when `fault` is scheduled to fire on `frame`.
bool fault_active(const TraceCameraFault& fault, int64_t frame) {
  if (frame < fault.first_frame || frame > fault.last_frame) return false;
  return (frame - fault.first_frame) % fault.period == 0;
}

/// Floats diverge when not both-NaN and the relative gap exceeds the
/// tolerance. tolerance 0 demands bit-exactness (NaN == NaN included).
bool f64_diverges(double recorded, double replayed, double tolerance) {
  const bool rec_nan = std::isnan(recorded);
  const bool rep_nan = std::isnan(replayed);
  if (rec_nan || rep_nan) return rec_nan != rep_nan;
  if (tolerance <= 0.0) return recorded != replayed;
  const double scale = std::max({1.0, std::fabs(recorded), std::fabs(replayed)});
  return std::fabs(recorded - replayed) > tolerance * scale;
}

/// Comparison context: first divergence wins, later checks become no-ops.
struct Differ {
  std::optional<Divergence>& out;
  int64_t frame = -1;

  void check_i64(const char* stage, const char* field, int64_t recorded, int64_t replayed) {
    if (out || recorded == replayed) return;
    out = Divergence{frame, stage, field, format_i64(recorded), format_i64(replayed)};
  }
  void check_bool(const char* stage, const char* field, bool recorded, bool replayed) {
    check_i64(stage, field, recorded ? 1 : 0, replayed ? 1 : 0);
  }
  void check_enum(const char* stage, const char* field, int recorded, int replayed,
                  const char* (*name)(int)) {
    if (out || recorded == replayed) return;
    out = Divergence{frame, stage, field, name(recorded), name(replayed)};
  }
  void check_f64(const char* stage, const char* field, double recorded, double replayed,
                 double tolerance) {
    if (out || !f64_diverges(recorded, replayed, tolerance)) return;
    out = Divergence{frame, stage, field, format_f64(recorded), format_f64(replayed)};
  }
};

const char* serving_mode_tag(int value) {
  return core::rung(static_cast<core::ServingMode>(value)).name;
}
const char* breaker_state_tag(int value) {
  return serving::breaker_state_name(static_cast<serving::BreakerState>(value));
}
const char* monitor_state_tag(int value) {
  switch (static_cast<core::MonitorState>(value)) {
    case core::MonitorState::kNominal: return "nominal";
    case core::MonitorState::kAlert: return "alert";
    case core::MonitorState::kFallback: return "fallback";
    case core::MonitorState::kSensorFault: return "sensor-fault";
  }
  return "?";
}
const char* fallback_path_tag(int value) {
  switch (static_cast<core::FallbackPath>(value)) {
    case core::FallbackPath::kNone: return "none";
    case core::FallbackPath::kNovelty: return "novelty";
    case core::FallbackPath::kSensorFault: return "sensor-fault";
  }
  return "?";
}
const char* cluster_event_tag(int value) {
  return serving::cluster_event_kind_name(static_cast<serving::ClusterEventKind>(value));
}

}  // namespace

// --- spec -------------------------------------------------------------------

void TraceRunSpec::validate() const {
  if (!roadsim::make_scene_generator(dataset)) {
    throw std::invalid_argument("trace: unknown dataset '" + dataset + "'");
  }
  if (frames < 0) throw std::invalid_argument("trace: negative frame count");
  if (height <= 0 || width <= 0) throw std::invalid_argument("trace: non-positive resolution");
  calib::validate(supervisor.calibration);  // throws on out-of-range drift knobs
  faults::TimingFaultInjector probe;
  for (const auto& stall : stalls) probe.add(stall);  // throws on a bad schedule
  for (const auto& fault : camera_faults) {
    if (!(fault.severity >= 0.0 && fault.severity <= 1.0)) {
      throw std::invalid_argument("trace: camera-fault severity outside [0, 1]");
    }
    if (fault.period <= 0 || fault.first_frame < 0 || fault.last_frame < fault.first_frame) {
      throw std::invalid_argument("trace: bad camera-fault schedule");
    }
  }
  if (cluster.streams < 0) throw std::invalid_argument("trace: negative stream count");
  if (cluster.streams > 0) {
    if (cluster.replicas < 1) throw std::invalid_argument("trace: cluster replicas must be >= 1");
    if (cluster.max_batch < 1) throw std::invalid_argument("trace: cluster max_batch must be >= 1");
    if (cluster.gather_window_ns < 0 || cluster.arrival_period_ns < 0) {
      throw std::invalid_argument("trace: negative cluster window/period");
    }
    if (cluster.replicas > 1 && !stalls.empty()) {
      // Concurrent replicas share the FakeClock: a stall advanced by one
      // worker would bleed into another worker's stage timings, making
      // stage_ns a race instead of a function of the spec.
      throw std::invalid_argument("trace: stalls require a single replica");
    }
  }
  if (cluster.admission_credits < 0) {
    throw std::invalid_argument("trace: negative admission credits");
  }
  if (cluster.watchdog.enabled) {
    const serving::WatchdogConfig& wd = cluster.watchdog;
    if (wd.batch_deadline_ns <= 0 || wd.heartbeat_timeout_ns <= 0 || wd.probe_backoff_ns <= 0 ||
        wd.max_probe_backoff_ns < wd.probe_backoff_ns) {
      throw std::invalid_argument("trace: bad watchdog timeouts");
    }
    if (wd.missed_deadlines_to_quarantine < 1 || wd.canary_failures_to_quarantine < 1 ||
        wd.canary_period_ns < 0 || wd.max_redispatches < 0 || !(wd.canary_epsilon >= 0.0)) {
      throw std::invalid_argument("trace: bad watchdog thresholds");
    }
  }
  if (!cluster.replica_faults.empty()) {
    if (cluster.streams <= 0) {
      throw std::invalid_argument("trace: replica faults require a cluster run");
    }
    faults::ReplicaFaultSchedule probe_schedule;
    for (const auto& fault : cluster.replica_faults) {
      probe_schedule.add(fault);  // throws on a bad fault window / fields
      if (fault.replica >= cluster.replicas) {
        throw std::invalid_argument("trace: replica fault targets replica " +
                                    std::to_string(fault.replica) + " of " +
                                    std::to_string(cluster.replicas));
      }
    }
  }
}

// --- serialization ----------------------------------------------------------

void Trace::save(std::ostream& os) const {
  write_header(os, kTraceMagic, kTraceVersion);

  write_string(os, spec.dataset);
  write_i64(os, static_cast<int64_t>(spec.frame_seed));
  write_i64(os, static_cast<int64_t>(spec.fault_seed));
  write_i64(os, spec.frames);
  write_i64(os, spec.height);
  write_i64(os, spec.width);

  write_u32(os, static_cast<uint32_t>(spec.stalls.size()));
  for (const auto& stall : spec.stalls) {
    write_i64(os, stall.stage);
    write_i64(os, stall.stall_ns);
    write_i64(os, stall.first_frame);
    write_i64(os, stall.last_frame);
    write_i64(os, stall.period);
  }

  write_u32(os, static_cast<uint32_t>(spec.camera_faults.size()));
  for (const auto& fault : spec.camera_faults) {
    write_u32(os, static_cast<uint32_t>(fault.fault));
    write_f64(os, fault.severity);
    write_i64(os, fault.first_frame);
    write_i64(os, fault.last_frame);
    write_i64(os, fault.period);
  }

  const serving::SupervisorConfig& sup = spec.supervisor;
  for (int64_t budget : sup.stage_budget_ns) write_i64(os, budget);
  write_i64(os, sup.frame_budget_ns);
  write_i64(os, sup.breaker.failure_threshold);
  write_i64(os, sup.breaker.open_frames);
  write_i64(os, sup.demote_after_bad_frames);
  write_i64(os, sup.promote_after_healthy_frames);
  write_i64(os, sup.monitor.trigger_frames);
  write_i64(os, sup.monitor.release_frames);
  write_f64(os, sup.monitor.score_smoothing);
  write_i64(os, sup.monitor.sensor_trigger_frames);
  write_i64(os, sup.monitor.sensor_release_frames);
  write_u32(os, sup.monitor.detect_frozen_frames ? 1 : 0);

  // Online-calibration block. store_path is deliberately omitted (a replay
  // must never write operator files).
  const calib::OnlineCalibrationConfig& cal = sup.calibration;
  write_u32(os, cal.enabled ? 1 : 0);
  write_u32(os, cal.auto_swap ? 1 : 0);
  write_f64(os, cal.percentile);
  write_i64(os, cal.warmup);
  write_i64(os, cal.min_samples);
  write_f64(os, cal.drift_tolerance);
  write_i64(os, cal.check_every_frames);
  write_i64(os, cal.trigger_checks);
  write_i64(os, cal.release_checks);
  write_u32(os, static_cast<uint32_t>(cal.forced_swap_frames.size()));
  for (int64_t frame : cal.forced_swap_frames) write_i64(os, frame);

  // Multi-stream cluster block.
  write_i64(os, spec.cluster.streams);
  write_i64(os, spec.cluster.replicas);
  write_i64(os, spec.cluster.gather_window_ns);
  write_i64(os, spec.cluster.max_batch);
  write_i64(os, spec.cluster.arrival_period_ns);

  // Failure-domain block (watchdog, admission credits, fault schedule).
  const serving::WatchdogConfig& wd = spec.cluster.watchdog;
  write_u32(os, wd.enabled ? 1 : 0);
  write_i64(os, wd.batch_deadline_ns);
  write_i64(os, wd.heartbeat_timeout_ns);
  write_i64(os, wd.missed_deadlines_to_quarantine);
  write_i64(os, wd.canary_period_ns);
  write_i64(os, wd.canary_failures_to_quarantine);
  write_i64(os, wd.probe_backoff_ns);
  write_i64(os, wd.max_probe_backoff_ns);
  write_i64(os, wd.max_redispatches);
  write_f64(os, wd.canary_epsilon);
  write_i64(os, spec.cluster.admission_credits);
  write_u32(os, static_cast<uint32_t>(spec.cluster.replica_faults.size()));
  for (const auto& fault : spec.cluster.replica_faults) {
    write_i64(os, fault.replica);
    write_u32(os, static_cast<uint32_t>(fault.kind));
    write_i64(os, fault.start_ns);
    write_i64(os, fault.end_ns);
    write_i64(os, fault.slow_penalty_ns);
    write_i64(os, fault.weight_bits);
    write_i64(os, static_cast<int64_t>(fault.seed));
  }

  // Quantized-ladder flag.
  write_u32(os, sup.enable_quant_rungs ? 1 : 0);

  write_u32(os, spec.pipeline_crc);
  write_i64(os, spec.pipeline_bytes);

  write_i64(os, static_cast<int64_t>(frames.size()));
  for (const auto& frame : frames) {
    write_i64(os, frame.frame_index);
    write_u32(os, static_cast<uint32_t>(frame.mode));
    uint32_t flags = 0;
    if (frame.scored) flags |= kFlagScored;
    if (frame.abandoned) flags |= kFlagAbandoned;
    if (frame.deadline_overrun) flags |= kFlagDeadlineOverrun;
    if (frame.sensor_bad) flags |= kFlagSensorBad;
    if (frame.novel) flags |= kFlagNovel;
    if (frame.threshold_swapped) flags |= kFlagSwapped;
    write_u32(os, flags);
    write_f64(os, frame.score);
    write_f64(os, frame.steering);
    write_u32(os, static_cast<uint32_t>(frame.monitor_state));
    write_u32(os, static_cast<uint32_t>(frame.fallback_path));
    for (int64_t ns : frame.stage_ns) write_i64(os, ns);
    write_u32(os, static_cast<uint32_t>(frame.mode_after));
    write_u32(os, static_cast<uint32_t>(frame.breaker_after));
    write_i64(os, frame.threshold_epoch);
    write_i64(os, frame.stream_id);
  }

  for (const auto& row : serving::kHealthCounters) {
    if (row.traced) write_i64(os, health.*row.member);
  }

  // Failure-domain event log + cluster-health counters.
  write_i64(os, static_cast<int64_t>(events.size()));
  for (const auto& event : events) {
    write_u32(os, static_cast<uint32_t>(event.kind));
    write_i64(os, event.at_ns);
    write_i64(os, event.replica);
    write_i64(os, event.stream);
    write_i64(os, event.detail);
  }
  for (const auto& row : serving::kClusterCounters) {
    if (row.traced) write_i64(os, cluster_health.*row.member);
  }
}

Trace Trace::load(std::istream& is) {
  read_header(is, kTraceMagic, kTraceVersion);
  Trace trace;
  TraceRunSpec& spec = trace.spec;

  spec.dataset = read_string(is);
  spec.frame_seed = static_cast<uint64_t>(read_i64(is));
  spec.fault_seed = static_cast<uint64_t>(read_i64(is));
  spec.frames = read_i64(is);
  spec.height = read_i64(is);
  spec.width = read_i64(is);

  const uint32_t n_stalls = read_u32(is);
  check_count(is, n_stalls, kMaxScheduleEntries, kStallBytes, "trace: stall count");
  spec.stalls.resize(n_stalls);
  for (auto& stall : spec.stalls) {
    stall.stage = static_cast<int>(read_i64(is));
    stall.stall_ns = read_i64(is);
    stall.first_frame = read_i64(is);
    stall.last_frame = read_i64(is);
    stall.period = read_i64(is);
  }

  const uint32_t n_camera = read_u32(is);
  check_count(is, n_camera, kMaxScheduleEntries, kCameraFaultBytes, "trace: camera-fault count");
  spec.camera_faults.resize(n_camera);
  for (auto& fault : spec.camera_faults) {
    fault.fault = static_cast<faults::CameraFault>(checked_enum(is, 8, "camera fault"));
    fault.severity = read_f64(is);
    fault.first_frame = read_i64(is);
    fault.last_frame = read_i64(is);
    fault.period = read_i64(is);
  }

  serving::SupervisorConfig& sup = spec.supervisor;
  for (int64_t& budget : sup.stage_budget_ns) budget = read_i64(is);
  sup.frame_budget_ns = read_i64(is);
  sup.breaker.failure_threshold = static_cast<int>(read_i64(is));
  sup.breaker.open_frames = read_i64(is);
  sup.demote_after_bad_frames = static_cast<int>(read_i64(is));
  sup.promote_after_healthy_frames = static_cast<int>(read_i64(is));
  sup.monitor.trigger_frames = read_i64(is);
  sup.monitor.release_frames = read_i64(is);
  sup.monitor.score_smoothing = read_f64(is);
  sup.monitor.sensor_trigger_frames = read_i64(is);
  sup.monitor.sensor_release_frames = read_i64(is);
  sup.monitor.detect_frozen_frames = checked_bool(is, "detect_frozen_frames");

  calib::OnlineCalibrationConfig& cal = sup.calibration;
  cal.enabled = checked_bool(is, "calibration enabled");
  cal.auto_swap = checked_bool(is, "calibration auto_swap");
  cal.percentile = read_f64(is);
  cal.warmup = read_i64(is);
  cal.min_samples = read_i64(is);
  cal.drift_tolerance = read_f64(is);
  cal.check_every_frames = read_i64(is);
  cal.trigger_checks = read_i64(is);
  cal.release_checks = read_i64(is);
  const uint32_t n_forced = read_u32(is);
  check_count(is, n_forced, kMaxScheduleEntries, 8, "trace: forced-swap count");
  cal.forced_swap_frames.resize(n_forced);
  for (int64_t& frame : cal.forced_swap_frames) frame = read_i64(is);

  spec.cluster.streams = read_i64(is);
  spec.cluster.replicas = read_i64(is);
  spec.cluster.gather_window_ns = read_i64(is);
  spec.cluster.max_batch = read_i64(is);
  spec.cluster.arrival_period_ns = read_i64(is);

  serving::WatchdogConfig& wd = spec.cluster.watchdog;
  wd.enabled = checked_bool(is, "watchdog enabled");
  wd.batch_deadline_ns = read_i64(is);
  wd.heartbeat_timeout_ns = read_i64(is);
  wd.missed_deadlines_to_quarantine = read_i64(is);
  wd.canary_period_ns = read_i64(is);
  wd.canary_failures_to_quarantine = read_i64(is);
  wd.probe_backoff_ns = read_i64(is);
  wd.max_probe_backoff_ns = read_i64(is);
  wd.max_redispatches = read_i64(is);
  wd.canary_epsilon = read_f64(is);
  spec.cluster.admission_credits = read_i64(is);
  const uint32_t n_replica_faults = read_u32(is);
  check_count(is, n_replica_faults, kMaxScheduleEntries, kReplicaFaultBytes,
              "trace: replica-fault count");
  spec.cluster.replica_faults.resize(n_replica_faults);
  for (auto& fault : spec.cluster.replica_faults) {
    fault.replica = read_i64(is);
    fault.kind = static_cast<faults::ReplicaFaultKind>(checked_enum(is, 4, "replica fault"));
    fault.start_ns = read_i64(is);
    fault.end_ns = read_i64(is);
    fault.slow_penalty_ns = read_i64(is);
    fault.weight_bits = read_i64(is);
    fault.seed = static_cast<uint64_t>(read_i64(is));
  }

  sup.enable_quant_rungs = checked_bool(is, "enable_quant_rungs");

  spec.pipeline_crc = read_u32(is);
  spec.pipeline_bytes = read_i64(is);

  const int64_t n_frames = read_i64(is);
  check_count(is, n_frames, kMaxRecords, kFrameBytes, "trace: frame-record count");
  trace.frames.resize(static_cast<size_t>(n_frames));
  for (auto& frame : trace.frames) {
    frame.frame_index = read_i64(is);
    frame.mode = static_cast<serving::ServingMode>(
        checked_enum(is, core::kServingModeCount, "serving mode"));
    const uint32_t flags = read_u32(is);
    if ((flags & ~kKnownFlags) != 0) {
      throw SerializationError("trace: unknown frame flag bits " + std::to_string(flags));
    }
    frame.scored = (flags & kFlagScored) != 0;
    frame.abandoned = (flags & kFlagAbandoned) != 0;
    frame.deadline_overrun = (flags & kFlagDeadlineOverrun) != 0;
    frame.sensor_bad = (flags & kFlagSensorBad) != 0;
    frame.novel = (flags & kFlagNovel) != 0;
    frame.threshold_swapped = (flags & kFlagSwapped) != 0;
    frame.score = read_f64(is);
    frame.steering = read_f64(is);
    frame.monitor_state = static_cast<core::MonitorState>(checked_enum(is, 4, "monitor state"));
    frame.fallback_path = static_cast<core::FallbackPath>(checked_enum(is, 3, "fallback path"));
    for (int64_t& ns : frame.stage_ns) ns = read_i64(is);
    frame.mode_after = static_cast<serving::ServingMode>(
        checked_enum(is, core::kServingModeCount, "serving mode"));
    frame.breaker_after =
        static_cast<serving::BreakerState>(checked_enum(is, 3, "breaker state"));
    frame.threshold_epoch = read_i64(is);
    frame.stream_id = read_i64(is);
  }

  for (const auto& row : serving::kHealthCounters) {
    if (row.traced) trace.health.*row.member = read_i64(is);
  }

  const int64_t n_events = read_i64(is);
  check_count(is, n_events, kMaxRecords, kEventBytes, "trace: event count");
  trace.events.resize(static_cast<size_t>(n_events));
  for (auto& event : trace.events) {
    event.kind = static_cast<serving::ClusterEventKind>(checked_enum(is, 7, "cluster event"));
    event.at_ns = read_i64(is);
    event.replica = read_i64(is);
    event.stream = read_i64(is);
    event.detail = read_i64(is);
  }
  for (const auto& row : serving::kClusterCounters) {
    if (row.traced) trace.cluster_health.*row.member = read_i64(is);
  }
  return trace;
}

void Trace::save_file(const std::string& path) const {
  save_file_checked(path, [this](std::ostream& os) { save(os); });
}

Trace Trace::load_file(const std::string& path) {
  const std::string payload = load_file_checked(path);
  std::istringstream is(payload);
  return load(is);
}

// --- scenario driver --------------------------------------------------------

serving::HealthSnapshot drive(const TraceRunSpec& spec, const core::NoveltyDetector& detector,
                              nn::Sequential* steering_model,
                              const std::function<void(const TraceFrame&)>& on_frame,
                              std::vector<serving::ClusterEvent>* events,
                              serving::ClusterStats* cluster_stats) {
  spec.validate();
  if (spec.height != detector.config().height || spec.width != detector.config().width) {
    throw std::invalid_argument("trace: spec resolution " + std::to_string(spec.height) + "x" +
                                std::to_string(spec.width) + " does not match the pipeline (" +
                                std::to_string(detector.config().height) + "x" +
                                std::to_string(detector.config().width) + ")");
  }

  const auto generator = roadsim::make_scene_generator(spec.dataset);
  faults::TimingFaultInjector stalls;
  for (const auto& stall : spec.stalls) stalls.add(stall);
  serving::SupervisorConfig config = spec.supervisor;
  config.timing_faults = stalls.empty() ? nullptr : &stalls;
  // Traced runs never persist threshold sets: the decision stream must be a
  // pure function of the spec, and a replay must not write operator files.
  // (store_path is not serialized either; this guards in-memory specs.)
  config.calibration.store_path.clear();

  // All timing under a FakeClock: elapsed time is exactly the injected
  // stalls, so the decision stream is a pure function of the spec.
  serving::FakeClock clock;

  if (spec.cluster.streams <= 0) {
    serving::Supervisor supervisor(detector, steering_model, config, &clock);

    Rng rng(spec.frame_seed);
    faults::FaultInjector camera(spec.fault_seed);
    for (int64_t i = 0; i < spec.frames; ++i) {
      const roadsim::Sample sample = generator->generate(rng);
      Image view = resize_bilinear(sample.rgb.to_grayscale(), spec.height, spec.width);
      // Tick every scheduled fault each frame — severity 0 when inactive —
      // so stateful faults (frozen-frame) and per-call variate draws see the
      // same stream a continuously-faulted camera would.
      for (const auto& fault : spec.camera_faults) {
        view = camera.apply(fault.fault, fault_active(fault, i) ? fault.severity : 0.0, view);
      }
      TraceFrame frame{supervisor.process(view)};
      if (on_frame) on_frame(frame);
    }
    return supervisor.health();
  }

  // Multi-stream path: one ServingCluster, deterministic arrival schedule.
  // The whole schedule is staged while the workers are paused — every frame
  // is stamped with its scheduled fake arrival time before any compute runs,
  // so the batch composition (and, with a single replica, every stall-driven
  // stage timing) is a pure function of the spec.
  serving::ClusterConfig cluster_config;
  cluster_config.streams = spec.cluster.streams;
  cluster_config.replicas = spec.cluster.replicas;
  cluster_config.gather_window_ns = spec.cluster.gather_window_ns;
  cluster_config.max_batch = spec.cluster.max_batch;
  cluster_config.supervisor = config;
  cluster_config.watchdog = spec.cluster.watchdog;
  cluster_config.admission_credits = spec.cluster.admission_credits;
  // Declared before the cluster so the schedule outlives the workers.
  faults::ReplicaFaultSchedule replica_faults;
  for (const auto& fault : spec.cluster.replica_faults) replica_faults.add(fault);
  cluster_config.replica_faults = replica_faults.empty() ? nullptr : &replica_faults;
  // A simulated slow replica must never sleep the shared FakeClock: under
  // the staged protocol the driver owns time, so the penalty is charged to
  // the watchdog's deadline accounting only.
  cluster_config.sleep_on_slow = false;
  serving::ServingCluster cluster(detector, steering_model, cluster_config, &clock);
  cluster.pause();

  const int64_t streams = spec.cluster.streams;
  std::vector<std::unique_ptr<roadsim::SceneGenerator>> generators;
  std::vector<Rng> rngs;
  std::vector<faults::FaultInjector> cameras;
  for (int64_t s = 0; s < streams; ++s) {
    generators.push_back(roadsim::make_scene_generator(spec.dataset));
    rngs.emplace_back(spec.frame_seed + static_cast<uint64_t>(s));
    cameras.emplace_back(spec.fault_seed + static_cast<uint64_t>(s));
  }
  for (int64_t i = 0; i < spec.frames; ++i) {
    for (int64_t s = 0; s < streams; ++s) {
      const size_t si = static_cast<size_t>(s);
      const roadsim::Sample sample = generators[si]->generate(rngs[si]);
      Image view = resize_bilinear(sample.rgb.to_grayscale(), spec.height, spec.width);
      for (const auto& fault : spec.camera_faults) {
        view = cameras[si].apply(fault.fault, fault_active(fault, i) ? fault.severity : 0.0, view);
      }
      cluster.submit(s, std::move(view));
    }
    clock.advance_ns(spec.cluster.arrival_period_ns);
  }
  cluster.drain();
  if (on_frame) {
    // take_results() sorts by arrival_seq == submission order, so the frame
    // stream is emitted in global arrival order.
    for (const auto& cr : cluster.take_results()) on_frame(TraceFrame{cr.result, cr.stream_id});
  }
  if (events) *events = cluster.take_events();
  if (cluster_stats) *cluster_stats = cluster.stats();
  const serving::HealthSnapshot health = cluster.aggregate_health();
  cluster.stop();
  return health;
}

Trace TraceRecorder::record(const TraceRunSpec& spec, const core::NoveltyDetector& detector,
                            nn::Sequential* steering_model) {
  Trace trace;
  trace.spec = spec;
  trace.frames.reserve(static_cast<size_t>(spec.frames));
  trace.health =
      drive(spec, detector, steering_model,
            [&trace](const TraceFrame& frame) { trace.frames.push_back(frame); }, &trace.events,
            &trace.cluster_health);
  return trace;
}

// --- diffing ----------------------------------------------------------------

std::string Divergence::format() const {
  std::string where = frame >= 0 ? "frame " + std::to_string(frame) : "run level";
  return "divergence at " + where + ", stage " + stage + ", field " + field +
         ": recorded=" + recorded + " replayed=" + replayed;
}

std::string ReplayReport::format() const {
  if (!divergence) {
    return "replay conformant (" + std::to_string(frames_compared) + " frames)";
  }
  return divergence->format();
}

ReplayReport compare(const Trace& recorded, const std::vector<TraceFrame>& replayed,
                     const serving::HealthSnapshot& replayed_health, const ReplayOptions& options,
                     const std::vector<serving::ClusterEvent>* replayed_events,
                     const serving::ClusterStats* replayed_cluster) {
  ReplayReport report;
  Differ diff{report.divergence};

  diff.check_i64("supervisor", "frame_count", static_cast<int64_t>(recorded.frames.size()),
                 static_cast<int64_t>(replayed.size()));

  const size_t n = std::min(recorded.frames.size(), replayed.size());
  for (size_t i = 0; i < n && !report.divergence; ++i) {
    const TraceFrame& rec = recorded.frames[i];
    const TraceFrame& rep = replayed[i];
    diff.frame = rec.frame_index;
    ++report.frames_compared;

    // Fields in pipeline order, so the first divergence names the earliest
    // stage that moved.
    diff.check_i64("supervisor", "frame_index", rec.frame_index, rep.frame_index);
    diff.check_i64("cluster", "stream_id", rec.stream_id, rep.stream_id);
    diff.check_enum("ladder", "mode", static_cast<int>(rec.mode), static_cast<int>(rep.mode),
                    serving_mode_tag);
    diff.check_bool("validate", "sensor_bad", rec.sensor_bad, rep.sensor_bad);
    for (int s = 0; s < serving::kStageCount; ++s) {
      diff.check_i64(serving::stage_name(static_cast<serving::Stage>(s)), "stage_ns",
                     rec.stage_ns[static_cast<size_t>(s)], rep.stage_ns[static_cast<size_t>(s)]);
    }
    diff.check_f64("steer", "steering", rec.steering, rep.steering, options.score_tolerance);
    diff.check_f64("score", "score", rec.score, rep.score, options.score_tolerance);
    diff.check_bool("score", "novel", rec.novel, rep.novel);
    diff.check_bool("supervisor", "scored", rec.scored, rep.scored);
    diff.check_bool("supervisor", "abandoned", rec.abandoned, rep.abandoned);
    diff.check_bool("supervisor", "deadline_overrun", rec.deadline_overrun, rep.deadline_overrun);
    diff.check_enum("monitor", "monitor_state", static_cast<int>(rec.monitor_state),
                    static_cast<int>(rep.monitor_state), monitor_state_tag);
    diff.check_enum("monitor", "fallback_path", static_cast<int>(rec.fallback_path),
                    static_cast<int>(rep.fallback_path), fallback_path_tag);
    diff.check_enum("ladder", "mode_after", static_cast<int>(rec.mode_after),
                    static_cast<int>(rep.mode_after), serving_mode_tag);
    diff.check_enum("breaker", "breaker_after", static_cast<int>(rec.breaker_after),
                    static_cast<int>(rep.breaker_after), breaker_state_tag);
    diff.check_bool("calib", "swapped", rec.threshold_swapped, rep.threshold_swapped);
    diff.check_i64("calib", "epoch_after", rec.threshold_epoch, rep.threshold_epoch);
  }

  if (!report.divergence) {
    diff.frame = -1;
    for (const auto& row : serving::kHealthCounters) {
      if (row.traced) {
        diff.check_i64("health", row.name, recorded.health.*row.member,
                       replayed_health.*row.member);
      }
    }
  }

  // The failure-domain event log and cluster-health counters must replay
  // bit-exactly — a recovery path that fires at a different fake time, moves
  // a different frame count, or quarantines a different replica is a policy
  // divergence even when every per-frame decision matches.
  if (!report.divergence && replayed_events) {
    diff.frame = -1;
    diff.check_i64("events", "event_count", static_cast<int64_t>(recorded.events.size()),
                   static_cast<int64_t>(replayed_events->size()));
    const size_t n_events = std::min(recorded.events.size(), replayed_events->size());
    for (size_t i = 0; i < n_events && !report.divergence; ++i) {
      const serving::ClusterEvent& rec = recorded.events[i];
      const serving::ClusterEvent& rep = (*replayed_events)[i];
      diff.frame = static_cast<int64_t>(i);  // event index, not a frame index
      diff.check_enum("events", "kind", static_cast<int>(rec.kind), static_cast<int>(rep.kind),
                      cluster_event_tag);
      diff.check_i64("events", "at_ns", rec.at_ns, rep.at_ns);
      diff.check_i64("events", "replica", rec.replica, rep.replica);
      diff.check_i64("events", "stream", rec.stream, rep.stream);
      diff.check_i64("events", "detail", rec.detail, rep.detail);
    }
  }
  if (!report.divergence && replayed_cluster) {
    diff.frame = -1;
    for (const auto& row : serving::kClusterCounters) {
      if (row.traced) {
        diff.check_i64("cluster_health", row.name, recorded.cluster_health.*row.member,
                       replayed_cluster->*row.member);
      }
    }
  }
  return report;
}

ReplayReport TraceReplayer::replay(const Trace& trace, const core::NoveltyDetector& detector,
                                   nn::Sequential* steering_model, const ReplayOptions& options) {
  std::vector<TraceFrame> replayed;
  replayed.reserve(trace.frames.size());
  std::vector<serving::ClusterEvent> replayed_events;
  serving::ClusterStats replayed_stats;
  const serving::HealthSnapshot health =
      drive(trace.spec, detector, steering_model,
            [&replayed](const TraceFrame& frame) { replayed.push_back(frame); }, &replayed_events,
            &replayed_stats);
  return compare(trace, replayed, health, options, &replayed_events, &replayed_stats);
}

}  // namespace salnov::trace
