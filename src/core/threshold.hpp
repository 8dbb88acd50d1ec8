// Novelty threshold calibration.
//
// Following the paper (and Richter & Roy): fit the empirical CDF of the
// training-set reconstruction scores and flag an input as novel when its
// score falls outside the 99th percentile. The tail direction depends on
// the score: reconstruction *error* (MSE) flags the high tail, similarity
// (SSIM) flags the low tail.
#pragma once

#include <iosfwd>
#include <vector>

#include "metrics/ecdf.hpp"

namespace salnov::core {

enum class ScoreOrientation {
  kHighIsNovel,  ///< e.g. MSE reconstruction error
  kLowIsNovel,   ///< e.g. SSIM similarity
};

class NoveltyThreshold {
 public:
  NoveltyThreshold() = default;

  /// Constructs directly from a known threshold (used by deserialization).
  NoveltyThreshold(double threshold, ScoreOrientation orientation);

  /// True when `score` falls outside the calibrated threshold. Non-finite
  /// scores (NaN, +/-Inf reconstruction output) are always novel: a score
  /// the pipeline cannot even represent is the strongest possible evidence
  /// that the input (or the model) left the training distribution.
  bool is_novel(double score) const;
  double threshold() const { return threshold_; }
  ScoreOrientation orientation() const { return orientation_; }

  void save(std::ostream& os) const;
  static NoveltyThreshold load(std::istream& is);

 private:
  double threshold_ = 0.0;
  ScoreOrientation orientation_ = ScoreOrientation::kHighIsNovel;
};

/// Calibration artifact for one detector scoring variant: the full
/// training-score ECDF plus the threshold derived from it. The serving
/// runtime's degraded-mode fallback chain keeps one of these per scoring
/// level (primary, preprocessed+MSE, raw+MSE), and the whole struct is
/// persisted through PipelineIo so a reloaded pipeline degrades against
/// exactly the distributions it was fitted on.
struct VariantCalibration {
  EmpiricalCdf cdf;
  NoveltyThreshold threshold;

  /// Builds the ECDF of `training_scores` (non-finite samples dropped) and
  /// derives the threshold at `percentile` for the given orientation.
  static VariantCalibration calibrate(const std::vector<double>& training_scores,
                                      ScoreOrientation orientation, double percentile = 0.99);

  void save(std::ostream& os) const;
  static VariantCalibration load(std::istream& is);
};

}  // namespace salnov::core
