// Supervisor: deadline-aware staged executor with a degraded-mode ladder.
//
// The detector's offline API assumes every stage always finishes; a vehicle
// cannot. The supervisor runs the pipeline stage by stage under per-stage
// wall-clock budgets read from a monotonic Clock, and reacts to misbehaviour
// instead of propagating it:
//
//   * A stage that blows its budget (or throws) marks the frame "bad"; the
//     frame still completes on a cheaper path when possible (a failed
//     saliency stage falls back to raw+MSE scoring *within the same frame*).
//   * A frame whose total deadline is blown mid-pipeline is abandoned —
//     remaining stages are skipped and no score is reported.
//   * `demote_after_bad_frames` consecutive bad frames step the mode ladder
//     down one rung: VBP+SSIM -> VBP+MSE -> raw+MSE -> sensor hold. Each
//     rung scores against its own fitted ECDF threshold (see
//     NoveltyDetector::variant_calibration), so a degraded mode still makes
//     calibrated novelty decisions. `promote_after_healthy_frames`
//     consecutive healthy frames step back up (into saliency rungs only
//     while the breaker is closed).
//   * The saliency stage sits behind a CircuitBreaker: consecutive failures
//     trip it (forcing the raw+MSE rung), and a successful half-open probe
//     restores VBP+SSIM directly.
//
// All timing flows through the Clock interface, and injected stalls come
// from a deterministic TimingFaultInjector — under a FakeClock the entire
// overrun/fallback/breaker trace is reproducible bit-for-bit.
//
// What a frame computes (rung, stages, precisions) is decided once, by
// plan(), from the state the frame will start from; process() follows it,
// and a batching front end that asks before the frame runs provides exactly
// what process() consumes. A provided result then goes unused only when an
// earlier frame of the stream moved the mode or breaker after the plan was
// taken, or a stage failed (a failed saliency stage serves the frame raw).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "calib/online_calibrator.hpp"
#include "calib/threshold_set.hpp"
#include "core/monitor.hpp"
#include "core/novelty_detector.hpp"
#include "faults/timing_faults.hpp"
#include "serving/circuit_breaker.hpp"
#include "serving/clock.hpp"
#include "serving/health.hpp"

namespace salnov::serving {

struct SupervisorConfig {
  /// Per-stage wall-clock budgets; 0 disables the check for that stage.
  /// Defaults are generous for the 60x160 pipeline on a laptop core.
  std::array<int64_t, kStageCount> stage_budget_ns = {
      5'000'000,   // validate
      20'000'000,  // steer
      50'000'000,  // saliency
      20'000'000,  // reconstruct
      20'000'000,  // score
  };
  /// Whole-frame deadline; blowing it mid-pipeline abandons the frame.
  /// 0 disables abandonment.
  int64_t frame_budget_ns = 200'000'000;

  CircuitBreakerConfig breaker;

  /// Ladder hysteresis: demotion is immediate by default (a blown deadline
  /// is already a late answer), promotion deliberately slow.
  int demote_after_bad_frames = 1;
  int promote_after_healthy_frames = 16;

  core::MonitorConfig monitor;

  /// Enables the int8-quantized ladder rungs (vbp+ssim-q8 / vbp+mse-q8)
  /// between each float rung and its cheaper successor. Requires a detector
  /// fitted with quantization (has_quant_calibrations + has_quant_path);
  /// otherwise the flag is ignored and the ladder skips the q8 rungs —
  /// identical to the pre-quantization ladder.
  bool enable_quant_rungs = false;

  /// Online shadow calibration + drift-triggered threshold hot-swap;
  /// disabled by default (frozen paper thresholds).
  calib::OnlineCalibrationConfig calibration;

  /// Optional deterministic stall schedule (not owned; may be null).
  const faults::TimingFaultInjector* timing_faults = nullptr;
};

/// SupervisorConfig's own knobs (the breaker and calibration have theirs).
/// --stage-budget-ns sets every stage's budget; the range check reads the
/// stage furthest out of range (the lowest when one is negative).
inline constexpr Knob<SupervisorConfig> kSupervisorKnobs[] = {
    {.flag = "stage-budget-ns",
     .member = KnobAccess<SupervisorConfig>{
         [](const SupervisorConfig& c) {
           const auto [lo, hi] = std::minmax_element(c.stage_budget_ns.begin(),
                                                     c.stage_budget_ns.end());
           return *lo < 0 ? *lo : *hi;
         },
         [](SupervisorConfig& c, int64_t ns) { c.stage_budget_ns.fill(ns); }},
     .doc = "every stage's wall-clock budget (0 disables the check)", .lo = 0, .hi = 1e12},
    {.flag = "frame-budget-ns", .member = &SupervisorConfig::frame_budget_ns,
     .doc = "whole-frame deadline; blowing it abandons the frame (0 disables)", .lo = 0,
     .hi = 1e12},
    {.flag = "demote-after", .member = &SupervisorConfig::demote_after_bad_frames,
     .doc = "consecutive bad frames that step the ladder down", .lo = 1, .hi = 1e6},
    {.flag = "promote-after", .member = &SupervisorConfig::promote_after_healthy_frames,
     .doc = "consecutive healthy frames that step the ladder up", .lo = 1, .hi = 1e6},
    {.flag = "quant", .member = &SupervisorConfig::enable_quant_rungs,
     .doc = "serve the int8 rungs (when the pipeline has them)"},
};

/// Throws std::invalid_argument on a knob outside its row (supervisor and
/// breaker rows; the calibration block is checked when it is enabled).
void validate(const SupervisorConfig& config);

/// Per-frame outcome.
struct ServeResult {
  int64_t frame_index = 0;
  ServingMode mode = ServingMode::kVbpSsim;  ///< rung that actually served the frame
  bool scored = false;      ///< a calibrated novelty decision was made
  bool abandoned = false;   ///< frame deadline blown mid-pipeline
  bool deadline_overrun = false;  ///< any stage or frame budget blown
  bool sensor_bad = false;  ///< screened out before scoring
  bool novel = false;
  double score = std::numeric_limits<double>::quiet_NaN();
  double steering = std::numeric_limits<double>::quiet_NaN();
  core::MonitorState monitor_state = core::MonitorState::kNominal;
  core::FallbackPath fallback_path = core::FallbackPath::kNone;
  std::array<int64_t, kStageCount> stage_ns{};  ///< 0 for stages not run
  bool threshold_swapped = false;  ///< a hot-swap completed during this frame
  int64_t threshold_epoch = 0;     ///< ThresholdSet epoch after the frame (0 = fitted)
  ServingMode mode_after = ServingMode::kVbpSsim;      ///< ladder rung after the frame
  BreakerState breaker_after = BreakerState::kClosed;  ///< breaker state after the frame
};

/// What the next frame computes once it passes validation (Supervisor::plan()).
struct FramePlan {
  ServingMode mode = ServingMode::kVbpSsim;  ///< starting rung
  bool q8 = false;         ///< its precision: the reconstruction's, and ProvidedCompute::quantized
  bool steer = false;      ///< the steer stage runs (a steering model is attached)
  bool steer_q8 = false;   ///< ... on the int8 steering view
  bool saliency = false;   ///< the saliency stage is attempted
  bool probe = false;      ///< ... as the breaker's half-open probe
  bool mask_q8 = false;    ///< the mask's precision
};

/// Precomputed stage results injected by a batching front end (the
/// ServingCluster aggregates frames across streams into batch-B forward
/// passes and hands each frame's share back through this struct). Each
/// field replaces exactly one *pure compute* call inside process(); every
/// policy decision — validation, budgets, ladder, breaker, monitor,
/// calibration — still runs in the supervisor itself, so the decision
/// stream is bit-identical to the unbatched path by construction. A field
/// left empty (or a reconstruction whose recon_input no longer matches the
/// frame's actual preprocessed image, e.g. after a stale plan) falls back to
/// the direct call, which computes the same bits.
struct ProvidedCompute {
  std::optional<double> steering;       ///< predict_steering(model, frame)
  std::optional<Image> saliency_mask;   ///< variant_preprocess(kPrimary, frame)
  std::optional<Image> reconstruction;  ///< reconstruct(recon_input)
  Image recon_input;  ///< the preprocessed image `reconstruction` was computed from
  /// Precision the batched forwards ran at. A frame served on a rung of the
  /// other precision ignores the provided compute above (quantized and float
  /// results are different bits by design), falling back to direct calls.
  bool quantized = false;
  /// The detector's FrameValidator verdict on this frame, when the front end
  /// already screened it: the validate stage takes it instead of checking
  /// the frame again. Frozen-frame detection stays in the supervisor. The
  /// verdict does not depend on precision, so unlike the fields above it
  /// holds whatever `quantized` says.
  std::optional<core::FrameFault> fault;
};

/// One completed in-process threshold hot-swap (drift-triggered or forced).
struct ThresholdSwapEvent {
  int64_t frame_index = 0;
  int64_t epoch = 0;
  bool forced = false;     ///< operator-forced vs drift-triggered
  bool persisted = false;  ///< store_path configured and the durable write succeeded
};

class Supervisor {
 public:
  /// `detector` must be fitted (all variant calibrations present) and
  /// outlive the supervisor. `steering_model` may be null only when the
  /// detector's preprocessing does not use saliency; it is also used for
  /// the steer stage. `clock` may be null (a SteadyClock is created).
  Supervisor(const core::NoveltyDetector& detector, nn::Sequential* steering_model,
             SupervisorConfig config = {}, Clock* clock = nullptr);

  /// Runs one frame through the staged pipeline. Never throws on malformed
  /// frames or stage failures — misbehaviour is folded into the result and
  /// the health counters.
  ServeResult process(const Image& frame) { return process(frame, nullptr); }

  /// As process(frame), consuming batched precompute where valid (see
  /// ProvidedCompute). `provided` may be null and is not retained.
  ServeResult process(const Image& frame, const ProvidedCompute* provided);

  /// True when the last process() call discarded a provided reconstruction
  /// because its recon_input did not match the frame's actual preprocessed
  /// image (a batching front end's speculation missed). Diagnostic for the
  /// cluster's stats; reset at every process() entry.
  bool last_recon_mispredicted() const { return last_recon_mispredicted_; }

  /// What the next frame will compute: process() follows the plan this
  /// returns at its entry. Not thread-safe against a concurrent process().
  FramePlan plan() const;

  ServingMode mode() const { return mode_; }
  BreakerState breaker_state() const { return breaker_.state(); }
  const core::NoveltyMonitor& monitor() const { return monitor_; }
  int64_t frames_total() const { return counters_.frames_total; }

  /// Publishes an externally built ThresholdSet (e.g. one recovered from the
  /// calibration store at startup) as the served set. Thread-safe and
  /// wait-free for the scoring path: process() never blocks on an install.
  void install_thresholds(std::shared_ptr<const calib::ThresholdSet> set);

  /// The ThresholdSet the scorer currently applies, or nullptr while the
  /// detector's fitted calibration is served.
  const calib::ThresholdSet* served_thresholds() const { return live_thresholds_.acquire(); }

  /// In-process swaps, in frame order. NOT thread-safe against a concurrent
  /// process(); read it after the run (the CLI prints these as swap log
  /// lines).
  const std::vector<ThresholdSwapEvent>& swap_events() const { return swap_events_; }

  HealthSnapshot health() const;

  /// The latency window `stage`'s percentiles are computed over (a cluster
  /// merges these across streams). Same thread-safety as health().
  const LatencyRing& stage_ring(Stage stage) const {
    return rings_[static_cast<size_t>(stage)];
  }

  /// True when the q8 rungs participate in this supervisor's ladder (the
  /// config flag was set AND the detector supports it).
  bool quant_rungs_active() const { return quant_rungs_active_; }

  /// The detector variant a rung scores with (q8 rungs map to q8 variants).
  static core::DetectorVariant variant_for(ServingMode mode) { return core::rung(mode).variant; }

 private:
  struct StageOutcome {
    bool threw = false;
    bool overrun = false;
    bool ok() const { return !threw && !overrun; }
  };

  /// process()'s staged pipeline; process() stamps the policy state the
  /// frame left behind (mode_after, breaker_after) on whichever exit it took.
  ServeResult run_pipeline(const Image& frame, const ProvidedCompute* provided);
  StageOutcome run_stage(Stage stage, int64_t frame_index, ServeResult& result,
                         const std::function<void()>& body);
  bool frame_deadline_blown(int64_t frame_start_ns) const;
  /// Abandons a frame whose deadline blew while it was served on
  /// `mode_used`: counters, result fields, monitor state, and a bad-frame
  /// ladder update unless a breaker trip already moved the ladder.
  ServeResult abandon(ServeResult& result, ServingMode mode_used, bool tripped);
  void attach_monitor_state(ServeResult& result);
  void update_ladder(bool frame_bad);
  void set_mode(ServingMode mode);
  const core::NoveltyThreshold& threshold_for(core::DetectorVariant variant,
                                              const calib::ThresholdSet* live) const;
  void run_calibration(ServeResult& result, const calib::ThresholdSet* live,
                       core::DetectorVariant variant);
  void perform_swap(ServeResult& result, const calib::ThresholdSet* live, bool forced);

  const core::NoveltyDetector& detector_;
  nn::Sequential* steering_model_;
  SupervisorConfig config_;
  std::unique_ptr<Clock> owned_clock_;
  Clock* clock_;

  core::NoveltyMonitor monitor_;
  CircuitBreaker breaker_;
  const bool saliency_configured_;
  const bool quant_rungs_active_;

  ServingMode mode_ = ServingMode::kVbpSsim;
  bool last_recon_mispredicted_ = false;
  int bad_streak_ = 0;
  int healthy_streak_ = 0;
  std::optional<Image> last_valid_frame_;  ///< frozen-frame detection

  // Exact counters, updated in place; health() copies them and fills in what
  // other objects own (breaker counts, swap count, served epoch, drift
  // state, shadow gauges, stage latencies).
  HealthSnapshot counters_;
  std::array<LatencyRing, kStageCount> rings_;

  // Online calibration. The hot-swap slot and the swap counter are the only
  // state shared with other threads (install_thresholds); everything else
  // is touched exclusively by the processing thread.
  std::optional<calib::OnlineCalibrator> calibrator_;
  calib::ThresholdHotSwap live_thresholds_;
  std::atomic<int64_t> threshold_swaps_{0};
  size_t next_forced_ = 0;  ///< cursor into calibration.forced_swap_frames
  std::vector<ThresholdSwapEvent> swap_events_;
};

}  // namespace salnov::serving
