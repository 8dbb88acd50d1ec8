// ROC / AUC for novelty-detection quality.
//
// The paper reports separations qualitatively via histograms; we additionally
// quantify each figure with the area under the ROC curve of "novel vs target"
// scores, so shape claims ("SSIM separates better than MSE") become numbers.
#pragma once

#include <vector>

#include "tensor/rng.hpp"

namespace salnov {

/// AUC of the detector that flags high scores as positive. `positives` are
/// scores of the positive (novel) class, `negatives` of the target class.
/// Ties count 1/2 (equivalent to the Mann-Whitney U statistic). Result in
/// [0, 1]; 0.5 = chance, 1.0 = perfect separation.
double auc_high_is_positive(const std::vector<double>& positives, const std::vector<double>& negatives);

/// AUC of the detector that flags *low* scores as positive (for SSIM-style
/// similarity scores where novel inputs score low).
double auc_low_is_positive(const std::vector<double>& positives, const std::vector<double>& negatives);

/// One operating point of a thresholded detector.
struct DetectionRates {
  double true_positive_rate = 0.0;   ///< fraction of novel inputs flagged
  double false_positive_rate = 0.0;  ///< fraction of target inputs flagged
};

/// Rates of the detector "flag if score > threshold".
DetectionRates rates_at_threshold_high(const std::vector<double>& positives,
                                       const std::vector<double>& negatives, double threshold);

/// Rates of the detector "flag if score < threshold".
DetectionRates rates_at_threshold_low(const std::vector<double>& positives,
                                      const std::vector<double>& negatives, double threshold);

/// A two-sided confidence interval.
struct ConfidenceInterval {
  double lower = 0.0;
  double upper = 0.0;
  double point = 0.0;  ///< the full-sample estimate
};

/// Percentile-bootstrap confidence interval for the AUC (high-is-positive
/// orientation; flip the sample roles for the other orientation).
/// `confidence` in (0, 1), e.g. 0.95. Deterministic given `rng`.
ConfidenceInterval bootstrap_auc_ci(const std::vector<double>& positives,
                                    const std::vector<double>& negatives, Rng& rng,
                                    int resamples = 1000, double confidence = 0.95);

}  // namespace salnov
