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
//   * TraceRecorder::record drives the scenario through a ServingCluster
//     (a single-stream spec is one stream on one replica, so every golden
//     also pins the batched hand-off) and captures one TraceFrame per frame
//     (the supervisor's ServeResult: scores, verdicts, modes, monitor
//     state, stage timings) plus the final health counters — the traced
//     rows of serving::kHealthCounters / kClusterCounters — into a
//     versioned file guarded by the checked-persistence CRC trailer. The
//     file's layout is one field list per record (spec, frame, event) that
//     save() and load() share through tensor/serialize.hpp's field io.
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

#include "core/knob.hpp"
#include "core/monitor.hpp"
#include "core/novelty_detector.hpp"
#include "faults/fault_injector.hpp"
#include "faults/replica_faults.hpp"
#include "faults/timing_faults.hpp"
#include "roadsim/generator.hpp"
#include "serving/cluster.hpp"
#include "serving/health.hpp"
#include "serving/supervisor.hpp"

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

/// TraceCameraFault's knobs: one --camera-fault flag schedules one fault.
inline constexpr Knob<TraceCameraFault> kCameraFaultKnobs[] = {
    {.flag = "camera-fault", .member = knob_enum<&TraceCameraFault::fault>(),
     .doc = "scheduled camera fault", .choices = faults::kCameraFaultNames},
    {.flag = "fault-severity", .member = &TraceCameraFault::severity,
     .doc = "fault severity (0 = identity, 1 = worst case)", .lo = 0, .hi = 1},
    {.flag = "fault-first", .member = &TraceCameraFault::first_frame, .doc = "first faulted frame",
     .lo = 0, .hi = kNoBound},
    {.flag = "fault-last", .member = &TraceCameraFault::last_frame,
     .doc = "last faulted frame (inclusive; default: no end)", .lo = 0, .hi = kNoBound},
    {.flag = "fault-period", .member = &TraceCameraFault::period,
     .doc = "fault every N-th frame from the first", .lo = 1, .hi = 1e9},
};

/// Scenario shape. Every run drives a ServingCluster: stream s draws its
/// scene stream from frame_seed + s and its camera-fault variates from
/// fault_seed + s, `frames` counts frames *per stream*, and arrivals are
/// scheduled round-robin (every stream's frame i arrives at
/// i * arrival_period_ns of fake time) so the batch composition is a pure
/// function of the spec. `streams == 0` is a single-stream run: one stream
/// on one replica, whose health is that stream's supervisor snapshot (no
/// cluster section). Stalls require `replicas == 1`: concurrent replicas
/// share the FakeClock, and a stall advanced by one worker would bleed into
/// another worker's stage timings.
/// The batching and failure-domain knobs (replicas, gather window, batch
/// cap, watchdog, admission credits) are the cluster's own; their defaults
/// are a cluster without watchdog, faults, or admission control.
struct TraceClusterSpec : serving::ClusterKnobs {
  int64_t streams = 0;    ///< 0 = single-stream run (one stream, one replica)
  int64_t arrival_period_ns = 1'000'000;  ///< fake time between arrival rounds
  std::vector<faults::ReplicaFault> replica_faults;
};

/// TraceClusterSpec's own knobs (the rest are serving::kClusterKnobs).
inline constexpr Knob<TraceClusterSpec> kTraceClusterKnobs[] = {
    {.flag = "streams", .member = &TraceClusterSpec::streams,
     .doc = "camera streams on one ServingCluster (0 = one stream)", .lo = 0, .hi = 4096},
    {.flag = "arrival-us", .member = &TraceClusterSpec::arrival_period_ns,
     .doc = "time between arrival rounds", .lo = 0, .hi = 6e7, .scale = 1000},
    {.flag = "replica-fault",
     .member = KnobParser<TraceClusterSpec>{[](TraceClusterSpec& c, std::string_view text) {
       c.replica_faults = faults::parse_replica_faults(text);
     }},
     .doc = "replica faults: kind:replica:start_us:end_us[:arg[:seed]] joined by ';'"},
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

  /// Cluster shape; the default (streams == 0) is a single-stream run.
  TraceClusterSpec cluster;

  /// Integrity guard for the pipeline the trace was recorded against:
  /// CRC32 + byte size of the checked pipeline file's payload (0 = unset).
  uint32_t pipeline_crc = 0;
  int64_t pipeline_bytes = 0;

  /// Throws std::invalid_argument on an unusable spec: a knob outside its
  /// row (the spec's own, and those of the supervisor, breaker,
  /// calibration, stall, camera-fault, cluster and watchdog tables), a
  /// non-positive resolution, or a cross-field conflict (an inverted fault
  /// window, stalls on several replicas, a fault on a missing replica).
  void validate() const;
};

/// The spec's own knobs, one table per group a CLI subcommand accepts.
inline constexpr Knob<TraceRunSpec> kSeedKnobs[] = {
    {.flag = "seed", .member = &TraceRunSpec::frame_seed,
     .doc = "RNG seed (stream s draws its scenes from seed + s)"},
};
inline constexpr Knob<TraceRunSpec> kDatasetKnobs[] = {
    {.flag = "dataset", .member = &TraceRunSpec::dataset, .doc = "scene generator",
     .choices = roadsim::kSceneDatasets},
};
inline constexpr Knob<TraceRunSpec> kFramesKnobs[] = {
    {.flag = "frames", .member = &TraceRunSpec::frames, .doc = "frames per stream", .lo = 0,
     .hi = 1e9},
};
inline constexpr Knob<TraceRunSpec> kFaultSeedKnobs[] = {
    {.flag = "fault-seed", .member = &TraceRunSpec::fault_seed,
     .doc = "RNG seed of the camera faults (stream s uses fault-seed + s)"},
};

/// Everything the pipeline decided about one frame, plus the policy state
/// it left behind: the supervisor's ServeResult, tagged with the stream
/// that owned the frame. The frame record does not save `fault` and
/// `frozen`, so a loaded frame holds their defaults.
struct TraceFrame : serving::ServeResult {
  int64_t stream_id = 0;  ///< owning stream (0 in single-stream runs)
};

/// A recorded run: spec + per-frame decision stream + final counters, plus
/// the failure-domain event log (quarantine / probe / restore / failover /
/// fallback / shed, in decision order) and the cluster-health counters, both
/// diffed on replay. Only the traced rows of serving::kHealthCounters and
/// serving::kClusterCounters are saved, loaded and compared; the other
/// members of `health` and `cluster_health` (modes, stage latencies, swap
/// persistence, shedding by admission credits, batching) are left at their
/// defaults by load(). load() accepts only the current format version.
struct Trace {
  TraceRunSpec spec;
  std::vector<TraceFrame> frames;
  serving::HealthSnapshot health;
  std::vector<serving::ClusterEvent> events;
  serving::ClusterStats cluster_health;

  void save(std::ostream& os) const;
  static Trace load(std::istream& is);

  /// Checked persistence: temp-file + atomic rename + CRC32 trailer, same
  /// guarantees as model/pipeline files.
  void save_file(const std::string& path) const;
  static Trace load_file(const std::string& path);
};

/// What a scenario run leaves besides its frame stream.
struct DriveOutcome {
  /// The single stream's health, or the aggregate of a multi-stream run.
  serving::HealthSnapshot health;
  std::vector<serving::HealthSnapshot> stream_health;  ///< each stream's own snapshot
  serving::ClusterStats stats;                         ///< end-of-run cluster counters
  std::vector<serving::ClusterEvent> events;           ///< failure-domain event log
  int64_t replicas = 0;  ///< replicas the cluster ran (at most one per stream)
};

/// Re-executes a spec against a fitted pipeline, invoking `on_frame` once
/// per frame in global arrival order, each frame tagged with its stream_id.
/// By default every time is fake: the whole arrival schedule is staged
/// while the cluster is paused, so the run is a pure function of the spec.
/// With `live`, the cluster runs on a wall clock and each arrival round is
/// submitted as it comes; arrival_period_ns does not apply, and replica
/// faults (offsets into fake time) are refused. This is the ONE scenario
/// driver — recording, replaying and `salnov serve --streams` go through
/// the same code path, so they cannot drift apart.
DriveOutcome drive(const TraceRunSpec& spec, const core::NoveltyDetector& detector,
                   nn::Sequential* steering_model,
                   const std::function<void(const TraceFrame&)>& on_frame, bool live = false);

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
                     const serving::HealthSnapshot& replayed_health,
                     const ReplayOptions& options = {},
                     const std::vector<serving::ClusterEvent>* replayed_events = nullptr,
                     const serving::ClusterStats* replayed_cluster = nullptr);

class TraceReplayer {
 public:
  /// Re-drives the spec and diffs against the recorded stream.
  static ReplayReport replay(const Trace& trace, const core::NoveltyDetector& detector,
                             nn::Sequential* steering_model, const ReplayOptions& options = {});
};

}  // namespace salnov::trace
