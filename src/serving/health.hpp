// Serving-runtime introspection: stage/mode vocabulary, latency rings, and
// the exportable health snapshot.
//
// The supervisor's whole value is that it *reacts* — so its reactions must
// be observable. Every counter here is exact (no sampling): a test that
// injects three saliency stalls can assert exactly three stage overruns, and
// an operator reading the JSON snapshot sees the same numbers the fallback
// ladder acted on.
//
// Each int64 counter of HealthSnapshot and ClusterStats is one row of a
// constexpr table (kHealthCounters, kClusterCounters): its output name, its
// member, how it merges across streams or sources, and whether golden
// traces carry it. The health JSON, the cluster merge, the trace file and
// its replay diff, and the CLI's counter lines all read these rows, so a
// new counter is one member plus one row.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/rung.hpp"
#include "serving/circuit_breaker.hpp"

namespace salnov::serving {

/// Pipeline stages, in execution order. Values double as TimingFault stage
/// indices and as indices into per-stage arrays.
enum class Stage : int {
  kValidate = 0,  ///< frame screening (validator + frozen-frame check)
  kSteer,         ///< steering CNN forward pass (the vehicle's primary output)
  kSaliency,      ///< VBP/gradient/LRP mask of the steering model
  kReconstruct,   ///< autoencoder forward pass
  kScore,         ///< SSIM or MSE similarity scoring
};
inline constexpr int kStageCount = 5;

const char* stage_name(Stage stage);

/// The degradation ladder's rungs. Names, ladder order and what each rung
/// computes are rows of core/rung.hpp's table; the serialized ordinals are
/// the row indices.
using ServingMode = core::ServingMode;
using core::serving_mode_name;
using core::serving_mode_quantized;

/// Fixed-window ring of recent stage latencies; percentiles are computed
/// over the window by nearest-rank on a sorted copy.
/// Nearest-rank percentile of `samples` (the smallest value with at least
/// `p` of them at or below it), 0 when empty. `p` in [0, 1].
int64_t nearest_rank_ns(std::vector<int64_t> samples, double p);

class LatencyRing {
 public:
  explicit LatencyRing(size_t capacity = 256);

  void push(int64_t ns);

  /// Nearest-rank percentile over the current window, 0 when empty.
  /// `p` in [0, 1].
  int64_t percentile_ns(double p) const;

  /// The current window's samples (unordered).
  const std::vector<int64_t>& window() const { return samples_; }

  /// Total samples ever pushed (not capped by the window).
  int64_t count() const { return total_; }

 private:
  std::vector<int64_t> samples_;
  size_t capacity_;
  size_t next_ = 0;
  bool full_ = false;
  int64_t total_ = 0;
};

struct StageHealth {
  std::string name;
  int64_t overruns = 0;   ///< times this stage blew its budget
  int64_t samples = 0;    ///< times this stage ran
  int64_t p50_ns = 0;     ///< median latency over the recent window
  int64_t p99_ns = 0;     ///< tail latency over the recent window
};

/// Exact assembler/batching/failure-domain counters, aggregated across a
/// ServingCluster's replicas. Lives here (not cluster.hpp) so the snapshot
/// can embed it without a circular include.
struct ClusterStats {
  int64_t batches = 0;          ///< batched forwards executed
  int64_t batched_frames = 0;   ///< frames that went through a batch
  int64_t max_batch_seals = 0;  ///< batches sealed by hitting max_batch
  int64_t window_seals = 0;     ///< batches sealed by the gather-window deadline
  int64_t flush_seals = 0;      ///< batches sealed by drain()/stop()
  int64_t max_gather_wait_ns = 0;  ///< worst sealed_ns - arrival_ns over all frames
  int64_t provided_steer = 0;      ///< frames served a batched steering angle
  int64_t provided_saliency = 0;   ///< frames served a batched saliency mask
  int64_t provided_recon = 0;      ///< frames served a batched reconstruction
  int64_t recon_mispredicts = 0;   ///< provided reconstructions discarded (input mismatch)
  int64_t prescreen_rejects = 0;   ///< frames excluded from batched compute by the validator

  // Replica failure domain (all zero when the watchdog is disabled).
  int64_t quarantines = 0;         ///< replicas pulled from rotation
  int64_t probe_attempts = 0;      ///< half-open canary probes run
  int64_t probe_failures = 0;      ///< probes that did not pass
  int64_t restores = 0;            ///< replicas restored to rotation
  int64_t failovers = 0;           ///< stream migrations between replicas
  int64_t redispatched_frames = 0; ///< frames re-queued on a surviving replica
  int64_t fallback_frames = 0;     ///< frames served inline by their Supervisor
  int64_t shed_frames = 0;         ///< frames shed by admission credits
  int64_t slow_batches = 0;        ///< batches charged a slow-replica penalty
  int64_t canary_checks = 0;       ///< canary evaluations (periodic + probes)
  int64_t canary_failures = 0;     ///< canary evaluations outside epsilon
};

/// How one counter combines when snapshots of several streams (or the
/// worker-side and failure-domain halves of ClusterStats) are merged.
enum class Merge { kSum, kMax };

/// One counter of `Struct`: the name it is exported under (JSON key, CLI
/// line, trace divergence field), the member holding it, its merge rule, and
/// whether golden traces serialize and diff it.
template <typename Struct>
struct CounterRow {
  const char* name;
  int64_t Struct::*member;
  Merge merge;
  bool traced;

  /// Folds `from`'s value of this counter into `into` by the merge rule.
  void merge_into(Struct& into, const Struct& from) const {
    int64_t& dst = into.*member;
    const int64_t src = from.*member;
    dst = merge == Merge::kMax ? std::max(dst, src) : dst + src;
  }
};

/// ClusterStats rows in export order. The traced rows, in this order, are
/// the trace format's cluster-health record.
inline constexpr std::array<CounterRow<ClusterStats>, 22> kClusterCounters = {{
    {"batches", &ClusterStats::batches, Merge::kSum, false},
    {"batched_frames", &ClusterStats::batched_frames, Merge::kSum, false},
    {"max_batch_seals", &ClusterStats::max_batch_seals, Merge::kSum, false},
    {"window_seals", &ClusterStats::window_seals, Merge::kSum, false},
    {"flush_seals", &ClusterStats::flush_seals, Merge::kSum, false},
    {"max_gather_wait_ns", &ClusterStats::max_gather_wait_ns, Merge::kMax, false},
    {"provided_steer", &ClusterStats::provided_steer, Merge::kSum, false},
    {"provided_saliency", &ClusterStats::provided_saliency, Merge::kSum, false},
    {"provided_recon", &ClusterStats::provided_recon, Merge::kSum, false},
    {"recon_mispredicts", &ClusterStats::recon_mispredicts, Merge::kSum, false},
    {"prescreen_rejects", &ClusterStats::prescreen_rejects, Merge::kSum, false},
    {"quarantines", &ClusterStats::quarantines, Merge::kSum, true},
    {"probe_attempts", &ClusterStats::probe_attempts, Merge::kSum, true},
    {"probe_failures", &ClusterStats::probe_failures, Merge::kSum, true},
    {"restores", &ClusterStats::restores, Merge::kSum, true},
    {"failovers", &ClusterStats::failovers, Merge::kSum, true},
    {"redispatched_frames", &ClusterStats::redispatched_frames, Merge::kSum, true},
    {"fallback_frames", &ClusterStats::fallback_frames, Merge::kSum, true},
    {"shed_frames", &ClusterStats::shed_frames, Merge::kSum, true},
    {"slow_batches", &ClusterStats::slow_batches, Merge::kSum, false},
    {"canary_checks", &ClusterStats::canary_checks, Merge::kSum, false},
    {"canary_failures", &ClusterStats::canary_failures, Merge::kSum, false},
}};

/// Point-in-time view of the serving runtime, exportable as JSON from the
/// CLI (`salnov_cli serve`). `queue_shed` is zero for a bare Supervisor and
/// filled in by ServingCluster (frames shed by admission credits).
struct HealthSnapshot {
  ServingMode mode = ServingMode::kVbpSsim;
  BreakerState breaker_state = BreakerState::kClosed;

  int64_t frames_total = 0;
  int64_t frames_scored = 0;
  int64_t frames_abandoned = 0;  ///< frame deadline blown mid-pipeline
  int64_t frames_held = 0;       ///< served in kSensorHold
  int64_t frames_sensor_bad = 0; ///< screened out (validator fault / frozen)

  int64_t deadline_overruns = 0; ///< frames where any budget was blown
  int64_t scoring_failures = 0;  ///< stage threw mid-pipeline
  int64_t nonfinite_scores = 0;  ///< NaN/Inf scores (always treated as novel)

  int64_t step_downs = 0;        ///< ladder demotions (incl. breaker trips)
  int64_t promotions = 0;        ///< ladder promotions via hysteresis
  int64_t breaker_trips = 0;
  int64_t probe_successes = 0;
  int64_t probe_failures = 0;

  // Online shadow calibration / drift (all zero, state "off", when the
  // calibration loop is disabled).
  int64_t drift_checks = 0;        ///< periodic shadow-vs-served comparisons run
  int64_t drift_detections = 0;    ///< checks where some rung exceeded tolerance
  int64_t threshold_swaps = 0;     ///< hot-swaps installed (auto, forced, external)
  int64_t swap_persist_failures = 0;  ///< swaps aborted because persistence failed
  int64_t threshold_epoch = 0;     ///< epoch of the served ThresholdSet (0 = fitted)
  std::string drift_state = "off"; ///< "off" | "stable" | "alert" | "drifted"

  int64_t queue_shed = 0;

  std::array<StageHealth, kStageCount> stages;

  /// Per-rung shadow-vs-served quantile gauges; empty when calibration is
  /// off. Quantiles are NaN (JSON null) until the rung has shadow samples.
  struct ShadowGauge {
    std::string rung;
    int64_t shadow_samples = 0;
    double shadow_quantile = 0.0;   ///< shadow sketch's threshold quantile
    double served_threshold = 0.0;  ///< threshold the scorer currently applies
    bool eligible = false;          ///< enough samples to compare/rebuild
  };
  std::vector<ShadowGauge> shadow;

  /// Cluster-level batching/failover counters; rendered as a nested
  /// "cluster" object only when has_cluster (set by aggregate_health()).
  bool has_cluster = false;
  ClusterStats cluster;

  /// Single-line JSON rendering (stable key order; counters are integers,
  /// shadow gauges are floats rendered as JSON null when non-finite).
  std::string to_json() const;
};

/// HealthSnapshot's int64 counters in export order (drift_state, a string,
/// is rendered between threshold_epoch and queue_shed). The traced rows, in
/// this order, are the trace format's health record: swap persistence and
/// admission shedding are machine- and load-dependent, not decisions.
inline constexpr std::array<CounterRow<HealthSnapshot>, 19> kHealthCounters = {{
    {"frames_total", &HealthSnapshot::frames_total, Merge::kSum, true},
    {"frames_scored", &HealthSnapshot::frames_scored, Merge::kSum, true},
    {"frames_abandoned", &HealthSnapshot::frames_abandoned, Merge::kSum, true},
    {"frames_held", &HealthSnapshot::frames_held, Merge::kSum, true},
    {"frames_sensor_bad", &HealthSnapshot::frames_sensor_bad, Merge::kSum, true},
    {"deadline_overruns", &HealthSnapshot::deadline_overruns, Merge::kSum, true},
    {"scoring_failures", &HealthSnapshot::scoring_failures, Merge::kSum, true},
    {"nonfinite_scores", &HealthSnapshot::nonfinite_scores, Merge::kSum, true},
    {"step_downs", &HealthSnapshot::step_downs, Merge::kSum, true},
    {"promotions", &HealthSnapshot::promotions, Merge::kSum, true},
    {"breaker_trips", &HealthSnapshot::breaker_trips, Merge::kSum, true},
    {"probe_successes", &HealthSnapshot::probe_successes, Merge::kSum, true},
    {"probe_failures", &HealthSnapshot::probe_failures, Merge::kSum, true},
    {"drift_checks", &HealthSnapshot::drift_checks, Merge::kSum, true},
    {"drift_detections", &HealthSnapshot::drift_detections, Merge::kSum, true},
    {"threshold_swaps", &HealthSnapshot::threshold_swaps, Merge::kSum, true},
    {"swap_persist_failures", &HealthSnapshot::swap_persist_failures, Merge::kSum, false},
    {"threshold_epoch", &HealthSnapshot::threshold_epoch, Merge::kMax, true},
    {"queue_shed", &HealthSnapshot::queue_shed, Merge::kSum, false},
}};

}  // namespace salnov::serving
