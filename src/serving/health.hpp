// Serving-runtime introspection: stage/mode vocabulary, latency rings, and
// the exportable health snapshot.
//
// The supervisor's whole value is that it *reacts* — so its reactions must
// be observable. Every counter here is exact (no sampling): a test that
// injects three saliency stalls can assert exactly three stage overruns, and
// an operator reading the JSON snapshot sees the same numbers the fallback
// ladder acted on.
#pragma once

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
class LatencyRing {
 public:
  explicit LatencyRing(size_t capacity = 256);

  void push(int64_t ns);

  /// Nearest-rank percentile over the current window, 0 when empty.
  /// `p` in [0, 1].
  int64_t percentile_ns(double p) const;

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

}  // namespace salnov::serving
