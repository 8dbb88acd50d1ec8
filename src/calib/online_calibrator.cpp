#include "calib/online_calibrator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace salnov::calib {

void validate(const OnlineCalibrationConfig& config) {
  if (!(config.percentile > 0.0 && config.percentile < 1.0)) {
    throw std::invalid_argument("OnlineCalibrationConfig: percentile outside (0, 1)");
  }
  check_knobs(kCalibrationKnobs, config, "OnlineCalibrationConfig");
}

namespace {

double shadow_threshold_quantile(const P2Sketch& sketch, core::ScoreOrientation orientation,
                                 double percentile) {
  // Same tail rule as NoveltyThreshold::calibrate: high-is-novel thresholds
  // at the upper percentile, low-is-novel at the mirrored lower one.
  return orientation == core::ScoreOrientation::kHighIsNovel
             ? sketch.upper_quantile(percentile)
             : sketch.lower_quantile(1.0 - percentile);
}

}  // namespace

const core::VariantCalibration& OnlineCalibrator::fit_calibration(
    core::DetectorVariant variant) const {
  const core::VariantCalibration* cal = detector_.variant_calibration_if(variant);
  if (cal == nullptr) {
    // An absent q8 slot serves with its float peer's fitted calibration.
    const core::Rung& row = core::rung(variant);
    for (const core::Rung& peer : core::kRungs) {
      if (cal == nullptr && !peer.q8 && peer.raw == row.raw && peer.mse == row.mse) {
        cal = detector_.variant_calibration_if(peer.variant);
      }
    }
  }
  if (cal == nullptr) {
    throw std::logic_error("OnlineCalibrator: variant has no fitted calibration");
  }
  return *cal;
}

OnlineCalibrator::OnlineCalibrator(const core::NoveltyDetector& detector,
                                   OnlineCalibrationConfig config)
    : detector_(detector),
      config_(std::move(config)),
      drift_(DriftDetectorConfig{config_.drift_tolerance, config_.trigger_checks,
                                 config_.release_checks}) {
  validate(config_);
  if (!detector_.has_variant_calibrations()) {
    throw std::invalid_argument("OnlineCalibrator: detector has no fitted variant calibrations");
  }
  std::sort(config_.forced_swap_frames.begin(), config_.forced_swap_frames.end());
  const std::vector<double> tracked = {1.0 - config_.percentile, 0.5, config_.percentile};
  sketches_.reserve(core::kDetectorVariantCount);
  for (int v = 0; v < core::kDetectorVariantCount; ++v) {
    sketches_.emplace_back(tracked, config_.warmup);
    const auto& calibration = fit_calibration(static_cast<core::DetectorVariant>(v));
    const double median = calibration.cdf.quantile(0.5);
    const double threshold = calibration.threshold.threshold();
    scale_[static_cast<size_t>(v)] = std::max(std::abs(threshold - median), 1e-12);
  }
}

void OnlineCalibrator::observe(core::DetectorVariant variant, double score) {
  sketches_[static_cast<size_t>(variant)].add(score);
}

bool OnlineCalibrator::check_due(int64_t scored_frames) const {
  return scored_frames > 0 && scored_frames % config_.check_every_frames == 0;
}

double OnlineCalibrator::served_threshold_for(core::DetectorVariant variant,
                                              const ThresholdSet* live) const {
  if (live != nullptr) return live->thresholds[static_cast<size_t>(variant)].threshold();
  return fit_calibration(variant).threshold.threshold();
}

RungDrift OnlineCalibrator::evaluate(core::DetectorVariant variant,
                                     const ThresholdSet* live) const {
  const auto& sketch = sketches_[static_cast<size_t>(variant)];
  RungDrift rung;
  rung.shadow_samples = sketch.count();
  rung.served_threshold = served_threshold_for(variant, live);
  rung.eligible = sketch.count() >= config_.min_samples;
  if (!rung.eligible) return rung;
  const core::ScoreOrientation orientation = fit_calibration(variant).threshold.orientation();
  rung.shadow_quantile = shadow_threshold_quantile(sketch, orientation, config_.percentile);
  rung.ratio = std::abs(rung.shadow_quantile - rung.served_threshold) /
               scale_[static_cast<size_t>(variant)];
  rung.drifted = rung.ratio > config_.drift_tolerance;
  return rung;
}

DriftCheck OnlineCalibrator::check(const ThresholdSet* live) {
  DriftCheck result;
  for (int v = 0; v < core::kDetectorVariantCount; ++v) {
    result.rungs[static_cast<size_t>(v)] = evaluate(static_cast<core::DetectorVariant>(v), live);
    result.any_drifted = result.any_drifted || result.rungs[static_cast<size_t>(v)].drifted;
  }
  ++checks_;
  if (result.any_drifted) ++drifted_checks_;
  result.state = drift_.update(result.any_drifted);
  return result;
}

std::shared_ptr<const ThresholdSet> OnlineCalibrator::build(const ThresholdSet* live,
                                                            int64_t epoch) const {
  auto set = std::make_shared<ThresholdSet>();
  set->epoch = epoch;
  for (int v = 0; v < core::kDetectorVariantCount; ++v) {
    const auto variant = static_cast<core::DetectorVariant>(v);
    const auto& sketch = sketches_[static_cast<size_t>(v)];
    const core::ScoreOrientation orientation = fit_calibration(variant).threshold.orientation();
    if (sketch.count() >= config_.min_samples) {
      set->thresholds[static_cast<size_t>(v)] = core::NoveltyThreshold(
          shadow_threshold_quantile(sketch, orientation, config_.percentile), orientation);
      set->shadow_samples[static_cast<size_t>(v)] = sketch.count();
      set->rebuilt[static_cast<size_t>(v)] = 1;
    } else {
      // Not enough shadow evidence on this rung (it may simply never have
      // served): keep whatever is live so a swap can never degrade a rung
      // it knows nothing about.
      set->thresholds[static_cast<size_t>(v)] =
          live != nullptr ? live->thresholds[static_cast<size_t>(v)]
                          : fit_calibration(variant).threshold;
      set->shadow_samples[static_cast<size_t>(v)] = 0;
      set->rebuilt[static_cast<size_t>(v)] = 0;
    }
  }
  return set;
}

RungDrift OnlineCalibrator::gauge(core::DetectorVariant variant, const ThresholdSet* live) const {
  RungDrift rung = evaluate(variant, live);
  if (!rung.eligible) {
    // For a gauge (unlike a drift check) a below-min_samples shadow is still
    // worth showing; only a sample-less rung reads as NaN -> JSON null.
    const auto& sketch = sketches_[static_cast<size_t>(variant)];
    rung.shadow_quantile =
        sketch.count() > 0
            ? shadow_threshold_quantile(sketch, fit_calibration(variant).threshold.orientation(),
                                        config_.percentile)
            : std::numeric_limits<double>::quiet_NaN();
  }
  return rung;
}

}  // namespace salnov::calib
