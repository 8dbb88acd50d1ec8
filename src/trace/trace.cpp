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

constexpr ListField<uint32_t> kStallList{"stall count", kMaxScheduleEntries};
constexpr ListField<uint32_t> kCameraFaultList{"camera-fault count", kMaxScheduleEntries};
constexpr ListField<uint32_t> kForcedSwapList{"forced-swap count", kMaxScheduleEntries};
constexpr ListField<uint32_t> kReplicaFaultList{"replica-fault count", kMaxScheduleEntries};
constexpr ListField<int64_t> kFrameList{"frame-record count", kMaxRecords};
constexpr ListField<int64_t> kEventList{"event count", kMaxRecords};

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

// A frame record's bools, packed into one u32: member b is bit b.
constexpr std::array<bool serving::ServeResult::*, 6> kFrameFlags = {
    &serving::ServeResult::scored,           &serving::ServeResult::abandoned,
    &serving::ServeResult::deadline_overrun, &serving::ServeResult::sensor_bad,
    &serving::ServeResult::novel,            &serving::ServeResult::threshold_swapped,
};

// The field lists of the trace format, shared by save() (Io = FieldWriter,
// records const) and load() (Io = FieldReader).

template <typename Io, typename Spec>
void spec_fields(Io& io, Spec& spec) {
  io.str(spec.dataset);
  io.i64(spec.frame_seed);
  io.i64(spec.fault_seed);
  io.i64(spec.frames);
  io.i64(spec.height);
  io.i64(spec.width);
  io.list(spec.stalls, kStallList, [](auto& io, auto& stall) {
    io.i64(stall.stage);
    io.i64(stall.stall_ns);
    io.i64(stall.first_frame);
    io.i64(stall.last_frame);
    io.i64(stall.period);
  });
  io.list(spec.camera_faults, kCameraFaultList, [](auto& io, auto& fault) {
    io.tag(fault.fault, faults::kCameraFaultCount, "camera fault");
    io.f64(fault.severity);
    io.i64(fault.first_frame);
    io.i64(fault.last_frame);
    io.i64(fault.period);
  });

  auto& sup = spec.supervisor;
  for (auto& budget : sup.stage_budget_ns) io.i64(budget);
  io.i64(sup.frame_budget_ns);
  io.i64(sup.breaker.failure_threshold);
  io.i64(sup.breaker.open_frames);
  io.i64(sup.demote_after_bad_frames);
  io.i64(sup.promote_after_healthy_frames);
  io.i64(sup.monitor.trigger_frames);
  io.i64(sup.monitor.release_frames);
  io.f64(sup.monitor.score_smoothing);
  io.i64(sup.monitor.sensor_trigger_frames);
  io.i64(sup.monitor.sensor_release_frames);
  io.flag(sup.monitor.detect_frozen_frames, "detect_frozen_frames");

  // Online-calibration block. store_path is deliberately omitted (a replay
  // must never write operator files).
  auto& cal = sup.calibration;
  io.flag(cal.enabled, "calibration enabled");
  io.flag(cal.auto_swap, "calibration auto_swap");
  io.f64(cal.percentile);
  io.i64(cal.warmup);
  io.i64(cal.min_samples);
  io.f64(cal.drift_tolerance);
  io.i64(cal.check_every_frames);
  io.i64(cal.trigger_checks);
  io.i64(cal.release_checks);
  io.list(cal.forced_swap_frames, kForcedSwapList, [](auto& io, auto& frame) { io.i64(frame); });

  // Multi-stream cluster block.
  auto& cluster = spec.cluster;
  io.i64(cluster.streams);
  io.i64(cluster.replicas);
  io.i64(cluster.gather_window_ns);
  io.i64(cluster.max_batch);
  io.i64(cluster.arrival_period_ns);

  // Failure-domain block (watchdog, admission credits, fault schedule).
  auto& wd = cluster.watchdog;
  io.flag(wd.enabled, "watchdog enabled");
  io.i64(wd.batch_deadline_ns);
  io.i64(wd.heartbeat_timeout_ns);
  io.i64(wd.missed_deadlines_to_quarantine);
  io.i64(wd.canary_period_ns);
  io.i64(wd.canary_failures_to_quarantine);
  io.i64(wd.probe_backoff_ns);
  io.i64(wd.max_probe_backoff_ns);
  io.i64(wd.max_redispatches);
  io.f64(wd.canary_epsilon);
  io.i64(cluster.admission_credits);
  io.list(cluster.replica_faults, kReplicaFaultList, [](auto& io, auto& fault) {
    io.i64(fault.replica);
    io.tag(fault.kind, faults::kReplicaFaultKindCount, "replica fault");
    io.i64(fault.start_ns);
    io.i64(fault.end_ns);
    io.i64(fault.slow_penalty_ns);
    io.i64(fault.weight_bits);
    io.i64(fault.seed);
  });

  io.flag(sup.enable_quant_rungs, "enable_quant_rungs");
  io.u32(spec.pipeline_crc);
  io.i64(spec.pipeline_bytes);
}

template <typename Io, typename Frame>
void frame_fields(Io& io, Frame& frame) {
  io.i64(frame.frame_index);
  io.tag(frame.mode, core::kServingModeCount, "serving mode");
  io.bits(frame, kFrameFlags, "frame flag bits");
  io.f64(frame.score);
  io.f64(frame.steering);
  io.tag(frame.monitor_state, core::kMonitorStateCount, "monitor state");
  io.tag(frame.fallback_path, core::kFallbackPathCount, "fallback path");
  for (auto& ns : frame.stage_ns) io.i64(ns);
  io.tag(frame.mode_after, core::kServingModeCount, "serving mode");
  io.tag(frame.breaker_after, serving::kBreakerStateCount, "breaker state");
  io.i64(frame.threshold_epoch);
  io.i64(frame.stream_id);
}

template <typename Io, typename Event>
void event_fields(Io& io, Event& event) {
  io.tag(event.kind, serving::kClusterEventKindCount, "cluster event");
  io.i64(event.at_ns);
  io.i64(event.replica);
  io.i64(event.stream);
  io.i64(event.detail);
}

/// The whole payload after the header: spec, frame records, health
/// counters, then the cluster event log and cluster-health counters.
template <typename Io, typename T>
void trace_fields(Io& io, T& trace) {
  spec_fields(io, trace.spec);
  io.list(trace.frames, kFrameList, [](auto& io, auto& frame) { frame_fields(io, frame); });
  for (const auto& row : serving::kHealthCounters) {
    if (row.traced) io.i64(trace.health.*row.member);
  }
  io.list(trace.events, kEventList, [](auto& io, auto& event) { event_fields(io, event); });
  for (const auto& row : serving::kClusterCounters) {
    if (row.traced) io.i64(trace.cluster_health.*row.member);
  }
}

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
  const char* who = "trace";
  check_knobs(kDatasetKnobs, *this, who);
  check_knobs(kFramesKnobs, *this, who);
  if (height <= 0 || width <= 0) throw std::invalid_argument("trace: non-positive resolution");
  serving::validate(supervisor);
  calib::validate(supervisor.calibration);
  faults::TimingFaultInjector probe;
  for (const auto& stall : stalls) probe.add(stall);  // throws on a bad schedule
  for (const auto& fault : camera_faults) {
    check_knobs(kCameraFaultKnobs, fault, who);
    if (fault.last_frame < fault.first_frame) {
      throw std::invalid_argument(std::string("trace: --") +
                                  knob_flag(kCameraFaultKnobs, &TraceCameraFault::last_frame) +
                                  " before --" +
                                  knob_flag(kCameraFaultKnobs, &TraceCameraFault::first_frame));
    }
  }
  check_knobs(kTraceClusterKnobs, cluster, who);
  const serving::ClusterKnobs& knobs = cluster;
  check_knobs(serving::kClusterKnobs, knobs, who);
  const std::string replicas_flag = knob_flag(serving::kClusterKnobs, &serving::ClusterKnobs::replicas);
  if (cluster.streams > 0 && cluster.replicas > 1 && !stalls.empty()) {
    // Concurrent replicas share the FakeClock: a stall advanced by one
    // worker would bleed into another worker's stage timings, making
    // stage_ns a race instead of a function of the spec.
    throw std::invalid_argument(std::string("trace: a --") +
                                knob_flag(faults::kStallKnobs, &faults::TimingFault::stage) +
                                " stall needs --" + replicas_flag + " 1");
  }
  if (cluster.watchdog.enabled) serving::validate(cluster.watchdog);
  if (!cluster.replica_faults.empty()) {
    if (cluster.streams <= 0) {
      throw std::invalid_argument(std::string("trace: replica faults need --") +
                                  knob_flag(kTraceClusterKnobs, &TraceClusterSpec::streams) +
                                  " >= 1");
    }
    faults::ReplicaFaultSchedule probe_schedule;
    for (const auto& fault : cluster.replica_faults) {
      probe_schedule.add(fault);  // throws on a bad fault window / fields
      if (fault.replica >= cluster.replicas) {
        throw std::invalid_argument("trace: replica fault targets replica " +
                                    std::to_string(fault.replica) + " of --" + replicas_flag +
                                    " " + std::to_string(cluster.replicas));
      }
    }
  }
}

// --- serialization ----------------------------------------------------------

void Trace::save(std::ostream& os) const {
  write_header(os, kTraceMagic, kTraceVersion);
  FieldWriter io(os);
  trace_fields(io, *this);
}

Trace Trace::load(std::istream& is) {
  read_header(is, kTraceMagic, kTraceVersion);
  Trace trace;
  FieldReader io(is, "trace");
  trace_fields(io, trace);
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

DriveOutcome drive(const TraceRunSpec& spec, const core::NoveltyDetector& detector,
                   nn::Sequential* steering_model,
                   const std::function<void(const TraceFrame&)>& on_frame, bool live) {
  spec.validate();
  if (spec.height != detector.config().height || spec.width != detector.config().width) {
    throw std::invalid_argument("trace: spec resolution " + std::to_string(spec.height) + "x" +
                                std::to_string(spec.width) + " does not match the pipeline (" +
                                std::to_string(detector.config().height) + "x" +
                                std::to_string(detector.config().width) + ")");
  }
  if (live && !spec.cluster.replica_faults.empty()) {
    throw std::invalid_argument("trace: replica faults need the fake clock (fault windows are "
                                "offsets into fake time; a wall clock never enters them)");
  }

  faults::TimingFaultInjector stalls;
  for (const auto& stall : spec.stalls) stalls.add(stall);
  serving::SupervisorConfig config = spec.supervisor;
  config.timing_faults = stalls.empty() ? nullptr : &stalls;
  // Traced runs never persist threshold sets: the decision stream must be a
  // pure function of the spec, and a replay must not write operator files.
  // (store_path is not serialized either; this guards in-memory specs.)
  config.calibration.store_path.clear();

  // Under the FakeClock, elapsed time is exactly the injected stalls, so the
  // decision stream is a pure function of the spec.
  serving::FakeClock clock;

  // One ServingCluster, deterministic arrival schedule; a single-stream spec
  // (streams == 0) is one stream on one replica. Under the FakeClock the
  // whole schedule is staged while the workers are paused — every frame is
  // stamped with its scheduled fake arrival time before any compute runs,
  // so the batch composition (and, with a single replica, every
  // stall-driven stage timing) is a pure function of the spec.
  const bool single_stream = spec.cluster.streams == 0;
  const int64_t streams = single_stream ? 1 : spec.cluster.streams;
  serving::ClusterConfig cluster_config;
  static_cast<serving::ClusterKnobs&>(cluster_config) = spec.cluster;
  cluster_config.streams = streams;
  if (single_stream) cluster_config.replicas = 1;
  cluster_config.supervisor = config;
  // Declared before the cluster so the schedule outlives the workers.
  faults::ReplicaFaultSchedule replica_faults;
  for (const auto& fault : spec.cluster.replica_faults) replica_faults.add(fault);
  cluster_config.replica_faults = replica_faults.empty() ? nullptr : &replica_faults;
  serving::ServingCluster cluster(detector, steering_model, cluster_config,
                                  live ? nullptr : &clock);
  if (!live) cluster.pause();

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
      // Tick every scheduled fault each frame — severity 0 when inactive —
      // so stateful faults (frozen-frame) and per-call variate draws see the
      // same stream a continuously-faulted camera would.
      for (const auto& fault : spec.camera_faults) {
        view = cameras[si].apply(fault.fault, fault_active(fault, i) ? fault.severity : 0.0, view);
      }
      cluster.submit(s, std::move(view));
    }
    if (!live) clock.advance_ns(spec.cluster.arrival_period_ns);
  }
  cluster.drain();
  if (on_frame) {
    // take_results() sorts by arrival_seq == submission order, so the frame
    // stream is emitted in global arrival order.
    for (const auto& cr : cluster.take_results()) on_frame(TraceFrame{cr.result, cr.stream_id});
  }
  DriveOutcome outcome;
  outcome.events = cluster.take_events();
  outcome.stats = cluster.stats();
  outcome.health = single_stream ? cluster.stream_health(0) : cluster.aggregate_health();
  for (int64_t s = 0; s < streams; ++s) outcome.stream_health.push_back(cluster.stream_health(s));
  outcome.replicas = cluster.replicas();
  cluster.stop();
  return outcome;
}

Trace TraceRecorder::record(const TraceRunSpec& spec, const core::NoveltyDetector& detector,
                            nn::Sequential* steering_model) {
  Trace trace;
  trace.spec = spec;
  trace.frames.reserve(static_cast<size_t>(spec.frames));
  DriveOutcome outcome = drive(spec, detector, steering_model, [&trace](const TraceFrame& frame) {
    trace.frames.push_back(frame);
  });
  trace.health = outcome.health;
  trace.events = std::move(outcome.events);
  trace.cluster_health = outcome.stats;
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
  const DriveOutcome outcome =
      drive(trace.spec, detector, steering_model,
            [&replayed](const TraceFrame& frame) { replayed.push_back(frame); });
  return compare(trace, replayed, outcome.health, options, &outcome.events, &outcome.stats);
}

}  // namespace salnov::trace
