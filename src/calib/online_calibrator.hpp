// Online shadow calibration: the control loop tying sketch, drift detector
// and threshold sets together.
//
// The paper fits thresholds once, offline. A deployed stream drifts — the
// exposure changes, the fog rolls in — and the fitted 99th percentile slowly
// stops meaning "1% of nominal frames flagged". The calibrator runs a
// shadow calibration per ladder rung: every finite served score is folded
// into that rung's P² sketch, and every `check_every_frames` scored frames
// the shadow's threshold quantile is compared against the served threshold
// (DriftDetector hysteresis decides when disagreement is an episode, not
// noise). When drift fires, a new ThresholdSet is built from the sketches —
// rungs without enough shadow samples carry the served threshold over — and
// handed to the supervisor for the crash-safe persist + RCU install.
//
// The calibrator itself is deliberately clock-free and allocation-light:
// all cadence is counted in scored frames, so the same stream of scores
// produces the same checks, the same drift episodes and the same swap
// frames on record and on replay.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "calib/drift_detector.hpp"
#include "calib/p2_sketch.hpp"
#include "calib/threshold_set.hpp"
#include "core/knob.hpp"
#include "core/novelty_detector.hpp"

namespace salnov::calib {

struct OnlineCalibrationConfig {
  bool enabled = false;   ///< master switch; everything below is inert when false
  bool auto_swap = true;  ///< hot-swap automatically when drift fires

  /// Threshold percentile for shadow thresholds; matches the paper's (and
  /// the detector's) 0.99 rule.
  double percentile = 0.99;
  /// P² exact warm-up per rung (see P2Sketch).
  int64_t warmup = 64;
  /// Shadow samples a rung needs before it participates in drift checks or
  /// gets rebuilt in a swap.
  int64_t min_samples = 256;
  /// Normalized shadow-vs-served disagreement that counts as one drifted
  /// check (see DriftDetectorConfig::tolerance).
  double drift_tolerance = 0.5;
  /// Drift-check cadence, counted in *scored* frames (held / sensor-bad /
  /// abandoned frames never advance the cadence).
  int64_t check_every_frames = 32;
  int64_t trigger_checks = 3;
  int64_t release_checks = 5;

  /// Frame indices at which a swap is forced regardless of drift state —
  /// deterministic operator-initiated recalibration (CLI --force-swap-at).
  std::vector<int64_t> forced_swap_frames;

  /// When non-empty, every swap persists the new ThresholdSet here before
  /// it is installed. Machine-local, NOT serialized into traces (replay
  /// must not write operator files), like SupervisorConfig::timing_faults.
  std::string store_path;
};

/// OnlineCalibrationConfig's knobs. --force-swap-at may be given once per
/// run; its frame is appended to forced_swap_frames.
inline constexpr Knob<OnlineCalibrationConfig> kCalibrationKnobs[] = {
    {.flag = "online-calib", .member = &OnlineCalibrationConfig::enabled,
     .doc = "run shadow calibration; drift can hot-swap thresholds"},
    {.flag = "drift-tolerance", .member = &OnlineCalibrationConfig::drift_tolerance,
     .doc = "normalized shadow-vs-served gap that counts as drift", .lo = 1e-9, .hi = 1e9},
    {.flag = "calib-warmup", .member = &OnlineCalibrationConfig::warmup,
     .doc = "exact P2 warm-up samples per rung", .lo = 1, .hi = 1e9},
    {.flag = "drift-min-samples", .member = &OnlineCalibrationConfig::min_samples,
     .doc = "shadow samples a rung needs before drift checks", .lo = 1, .hi = 1e12},
    {.flag = "drift-check-every", .member = &OnlineCalibrationConfig::check_every_frames,
     .doc = "scored frames between drift checks", .lo = 1, .hi = 1e9},
    {.flag = "drift-trigger", .member = &OnlineCalibrationConfig::trigger_checks,
     .doc = "consecutive drifted checks that trigger a swap", .lo = 1, .hi = 1e6},
    {.flag = "drift-release", .member = &OnlineCalibrationConfig::release_checks,
     .doc = "consecutive stable checks that release the drift alert", .lo = 1, .hi = 1e6},
    {.flag = "force-swap-at", .member = &OnlineCalibrationConfig::forced_swap_frames,
     .doc = "force a threshold swap at this frame (implies --online-calib)", .lo = 0,
     .hi = kNoBound},
};

/// Throws std::invalid_argument on out-of-range knobs (used by the
/// supervisor ctor and TraceRunSpec::validate).
void validate(const OnlineCalibrationConfig& config);

class OnlineCalibrator {
 public:
  /// `detector` must outlive the calibrator and have fitted variant
  /// calibrations (their ECDFs provide the per-rung drift scale).
  OnlineCalibrator(const core::NoveltyDetector& detector, OnlineCalibrationConfig config);

  const OnlineCalibrationConfig& config() const { return config_; }

  /// Folds one served score into the rung's shadow sketch. Non-finite
  /// scores are dropped and counted inside the sketch, mirroring the ECDF
  /// fit containment.
  void observe(core::DetectorVariant variant, double score);

  /// True when `scored_frames` lands on the check cadence.
  bool check_due(int64_t scored_frames) const;

  /// Runs one drift check against the currently served set (nullptr =
  /// the detector's fitted thresholds) and advances the hysteresis.
  DriftCheck check(const ThresholdSet* live);

  /// Builds the recalibrated set at `epoch`. Rungs with at least
  /// min_samples shadow samples get the sketch's threshold quantile; the
  /// rest carry over the served threshold.
  std::shared_ptr<const ThresholdSet> build(const ThresholdSet* live, int64_t epoch) const;

  /// Snapshot of one rung's shadow-vs-served gauges without advancing any
  /// state (for HealthSnapshot).
  RungDrift gauge(core::DetectorVariant variant, const ThresholdSet* live) const;

  DriftState state() const { return drift_.state(); }

  /// Rearms the hysteresis after a swap (shadow == served by construction).
  void rearm_after_swap() { drift_.reset(); }

  const P2Sketch& sketch(core::DetectorVariant variant) const {
    return sketches_[static_cast<size_t>(variant)];
  }


 private:
  RungDrift evaluate(core::DetectorVariant variant, const ThresholdSet* live) const;
  double served_threshold_for(core::DetectorVariant variant, const ThresholdSet* live) const;

  /// The fitted calibration backing a rung's drift scale/orientation. For a
  /// q8 rung of a pipeline fitted without quantization this is the float
  /// peer's calibration — the same stand-in the serving path uses.
  const core::VariantCalibration& fit_calibration(core::DetectorVariant variant) const;

  const core::NoveltyDetector& detector_;
  OnlineCalibrationConfig config_;
  std::vector<P2Sketch> sketches_;  ///< one per DetectorVariant, same index
  /// Fixed per-rung drift scale: |fitted threshold - fitted median|, from
  /// the detector's training ECDF. Anchoring the scale to the fit (rather
  /// than the currently served set) keeps the drift ratio comparable across
  /// swap epochs.
  std::array<double, core::kDetectorVariantCount> scale_{};
  DriftDetector drift_;
};

}  // namespace salnov::calib
