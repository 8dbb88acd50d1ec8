// Golden-trace record/replay conformance layer.
//
// The serving stack makes a long chain of decisions per frame — validator
// verdict, VBP/SSIM (or degraded-rung) score, ECDF threshold test, monitor
// hysteresis, ladder and breaker transitions — and the safety argument rests
// on that chain being reproducible. This module pins it down end to end:
//
//   * A TraceRunSpec is a complete, serializable description of a scenario:
//     scene stream (dataset + seed), camera-fault schedule, stall schedule,
//     and every supervisor/monitor/breaker knob. All timing runs under a
//     FakeClock, so the only "time" in a run is the injected stalls and the
//     whole decision trace is a pure function of the spec and the fitted
//     pipeline.
//   * TraceRecorder::record drives the scenario and captures one TraceFrame
//     per frame (scores, verdicts, modes, monitor state, stage timings) plus
//     the final health counters, into a versioned file guarded by the
//     checked-persistence CRC trailer.
//   * TraceReplayer::replay re-drives the pipeline from the spec and diffs
//     the fresh decision stream against the recorded one. Discrete decisions
//     (verdicts, modes, states, counters) must match bit-exactly; float
//     scores are bit-exact at the recording kernel/thread configuration (the
//     PR-1 determinism contract) and tolerance-bounded across GEMM kernels
//     (which legitimately round differently). The first mismatch is reported
//     with frame, stage, and field.
//
// Golden traces checked into tests/golden/ turn every future refactor into a
// cheap conformance question: replay them at 1 vs N threads and scalar vs
// SIMD kernels and require an empty diff.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/monitor.hpp"
#include "core/novelty_detector.hpp"
#include "faults/fault_injector.hpp"
#include "faults/replica_faults.hpp"
#include "faults/timing_faults.hpp"
#include "serving/health.hpp"
#include "serving/supervisor.hpp"
#include "serving/watchdog.hpp"

namespace salnov::trace {

/// One scheduled camera fault: applied to frames in [first_frame,
/// last_frame] whose offset from first_frame is a multiple of `period`.
/// Inactive frames still tick the injector at severity 0 so stateful faults
/// (frozen-frame) track the healthy stream exactly as a real camera would.
struct TraceCameraFault {
  faults::CameraFault fault = faults::CameraFault::kFrozenFrame;
  double severity = 1.0;
  int64_t first_frame = 0;
  int64_t last_frame = std::numeric_limits<int64_t>::max();  ///< inclusive
  int64_t period = 1;
};

/// Multi-stream scenario shape. `streams == 0` selects the
/// legacy single-supervisor driver; `streams > 0` drives a ServingCluster:
/// stream s draws its scene stream from frame_seed + s and its camera-fault
/// variates from fault_seed + s, `frames` becomes frames *per stream*, and
/// arrivals are scheduled round-robin (every stream's frame i arrives at
/// i * arrival_period_ns of fake time) so the batch composition is a pure
/// function of the spec. Stalls require `replicas == 1`: concurrent
/// replicas share the FakeClock, and a stall advanced by one worker would
/// bleed into another worker's stage timings.
struct TraceClusterSpec {
  int64_t streams = 0;    ///< 0 = single-stream legacy driver
  int64_t replicas = 1;
  int64_t gather_window_ns = 2'000'000;
  int64_t max_batch = 16;
  int64_t arrival_period_ns = 1'000'000;  ///< fake time between arrival rounds

  // The replica failure domain. All feature-off defaults: a cluster without
  // watchdog, faults, or admission control.
  serving::WatchdogConfig watchdog;
  int64_t admission_credits = 0;  ///< per-stream pending bound (0 = off)
  std::vector<faults::ReplicaFault> replica_faults;
};

/// Complete description of a recordable scenario. Everything that can move
/// a decision is in here; the fitted pipeline arrives separately (and is
/// guarded by `pipeline_crc`).
struct TraceRunSpec {
  std::string dataset = "outdoor";  ///< "outdoor" | "indoor"
  uint64_t frame_seed = 1;          ///< scene-stream RNG seed
  uint64_t fault_seed = 77;         ///< camera-fault RNG seed
  int64_t frames = 0;               ///< zero-frame runs are valid (and tested)
  int64_t height = 60;              ///< pipeline resolution (frames are resized)
  int64_t width = 160;

  std::vector<faults::TimingFault> stalls;       ///< deterministic stage stalls
  std::vector<TraceCameraFault> camera_faults;   ///< deterministic pixel faults

  /// Supervisor/monitor/breaker knobs for the run, including the online
  /// calibration loop. `timing_faults` is ignored here — the
  /// replayer rebuilds the injector from `stalls` — and
  /// `calibration.store_path` is machine-local and never serialized:
  /// replaying a trace must not write operator files.
  serving::SupervisorConfig supervisor;

  /// Multi-stream cluster shape; default (streams == 0) keeps the
  /// single-stream driver.
  TraceClusterSpec cluster;

  /// Integrity guard for the pipeline the trace was recorded against:
  /// CRC32 + byte size of the checked pipeline file's payload (0 = unset).
  uint32_t pipeline_crc = 0;
  int64_t pipeline_bytes = 0;

  /// Throws std::invalid_argument on an unusable spec (unknown dataset,
  /// negative frame count, non-positive resolution, bad fault schedule).
  void validate() const;
};

/// Everything the pipeline decided about one frame, plus the policy state
/// it left behind.
struct TraceFrame {
  int64_t frame_index = 0;
  serving::ServingMode mode = serving::ServingMode::kVbpSsim;  ///< rung that served the frame
  bool scored = false;
  bool abandoned = false;
  bool deadline_overrun = false;
  bool sensor_bad = false;
  bool novel = false;
  double score = std::numeric_limits<double>::quiet_NaN();
  double steering = std::numeric_limits<double>::quiet_NaN();
  core::MonitorState monitor_state = core::MonitorState::kNominal;
  core::FallbackPath fallback_path = core::FallbackPath::kNone;
  std::array<int64_t, serving::kStageCount> stage_ns{};
  serving::ServingMode mode_after = serving::ServingMode::kVbpSsim;  ///< ladder rung after the frame
  serving::BreakerState breaker_after = serving::BreakerState::kClosed;
  bool swapped = false;       ///< a threshold hot-swap completed on this frame
  int64_t epoch_after = 0;    ///< served ThresholdSet epoch after the frame
  int64_t stream_id = 0;      ///< owning stream (0 in single-stream runs)

  static TraceFrame from(const serving::ServeResult& result, serving::ServingMode mode_after,
                         serving::BreakerState breaker_after);
};

/// Exact end-of-run counters (the HealthSnapshot minus the shed count and
/// latency fields, which belong to the cluster's admission control and the
/// real clock respectively).
struct TraceHealth {
  int64_t frames_total = 0;
  int64_t frames_scored = 0;
  int64_t frames_abandoned = 0;
  int64_t frames_held = 0;
  int64_t frames_sensor_bad = 0;
  int64_t deadline_overruns = 0;
  int64_t scoring_failures = 0;
  int64_t nonfinite_scores = 0;
  int64_t step_downs = 0;
  int64_t promotions = 0;
  int64_t breaker_trips = 0;
  int64_t probe_successes = 0;
  int64_t probe_failures = 0;
  int64_t drift_checks = 0;
  int64_t drift_detections = 0;
  int64_t threshold_swaps = 0;
  int64_t threshold_epoch = 0;

  static TraceHealth from(const serving::HealthSnapshot& snapshot);
};

/// Exact end-of-run failure-domain counters (all zero for runs without a
/// watchdog).
struct TraceClusterHealth {
  int64_t quarantines = 0;
  int64_t probe_attempts = 0;
  int64_t probe_failures = 0;
  int64_t restores = 0;
  int64_t failovers = 0;
  int64_t redispatched_frames = 0;
  int64_t fallback_frames = 0;
  int64_t shed_frames = 0;

  static TraceClusterHealth from(const serving::ClusterStats& stats);
};

/// A recorded run: spec + per-frame decision stream + final counters, plus
/// the failure-domain event log (quarantine / probe / restore / failover /
/// fallback / shed, in decision order) and the cluster-health counters, both
/// diffed on replay. load() accepts only the current format version.
struct Trace {
  TraceRunSpec spec;
  std::vector<TraceFrame> frames;
  TraceHealth health;
  std::vector<serving::ClusterEvent> events;
  TraceClusterHealth cluster_health;

  void save(std::ostream& os) const;
  static Trace load(std::istream& is);

  /// Checked persistence: temp-file + atomic rename + CRC32 trailer, same
  /// guarantees as model/pipeline files.
  void save_file(const std::string& path) const;
  static Trace load_file(const std::string& path);
};

/// Re-executes a spec against a fitted pipeline under a FakeClock, invoking
/// `on_frame` once per frame in order (multi-stream runs emit frames in
/// global arrival order, each tagged with its stream_id, and return the
/// aggregate health). This is the ONE scenario driver — recording and
/// replaying go through the same code path, so they cannot drift apart.
/// `events` / `cluster_stats`, when non-null, receive the failure-domain
/// event log and end-of-run ClusterStats of a cluster run (left untouched by
/// the single-stream driver).
serving::HealthSnapshot drive(const TraceRunSpec& spec, const core::NoveltyDetector& detector,
                              nn::Sequential* steering_model,
                              const std::function<void(const TraceFrame&)>& on_frame,
                              std::vector<serving::ClusterEvent>* events = nullptr,
                              serving::ClusterStats* cluster_stats = nullptr);

class TraceRecorder {
 public:
  /// Runs the scenario and captures the full decision trace.
  static Trace record(const TraceRunSpec& spec, const core::NoveltyDetector& detector,
                      nn::Sequential* steering_model);
};

/// One field-level mismatch between a recorded and a replayed stream.
struct Divergence {
  int64_t frame = -1;    ///< -1 = run-level (frame count / health counters)
  std::string stage;     ///< pipeline stage or policy layer owning the field
  std::string field;
  std::string recorded;
  std::string replayed;

  /// "divergence at frame 17, stage score, field novel: recorded=1 replayed=0"
  std::string format() const;
};

struct ReplayOptions {
  /// Tolerance for float fields (score, steering): |a - b| <=
  /// score_tolerance * max(1, |a|, |b|). 0 demands bit-exact floats — the
  /// right setting when replaying at the recording's GEMM kernel; use a
  /// small tolerance (~1e-6) across kernels. Discrete fields are always
  /// compared exactly.
  double score_tolerance = 0.0;
};

struct ReplayReport {
  int64_t frames_compared = 0;
  std::optional<Divergence> divergence;  ///< first divergence, if any

  bool ok() const { return !divergence.has_value(); }
  /// "replay conformant (N frames)" or the first-divergence line.
  std::string format() const;
};

/// Diffs a recorded trace against a freshly replayed stream (used by the
/// replayer and by perturbation tests that tamper with a trace in memory).
/// When `replayed_events` / `replayed_cluster` are provided, the
/// failure-domain event log and cluster-health counters are diffed too —
/// every quarantine, failover, fallback, and shed must replay bit-exactly.
ReplayReport compare(const Trace& recorded, const std::vector<TraceFrame>& replayed,
                     const TraceHealth& replayed_health, const ReplayOptions& options = {},
                     const std::vector<serving::ClusterEvent>* replayed_events = nullptr,
                     const TraceClusterHealth* replayed_cluster = nullptr);

class TraceReplayer {
 public:
  /// Re-drives the spec and diffs against the recorded stream.
  static ReplayReport replay(const Trace& trace, const core::NoveltyDetector& detector,
                             nn::Sequential* steering_model, const ReplayOptions& options = {});
};

}  // namespace salnov::trace
