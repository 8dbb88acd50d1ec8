#include "metrics/roc.hpp"

#include <algorithm>
#include <stdexcept>

namespace salnov {

double auc_high_is_positive(const std::vector<double>& positives, const std::vector<double>& negatives) {
  if (positives.empty() || negatives.empty()) {
    throw std::invalid_argument("auc: both classes must be non-empty");
  }
  // Mann-Whitney U via sorted negatives: for each positive, count negatives
  // strictly below it plus half the ties. O((P+N) log N).
  std::vector<double> sorted_neg = negatives;
  std::sort(sorted_neg.begin(), sorted_neg.end());
  double u = 0.0;
  for (double p : positives) {
    const auto lo = std::lower_bound(sorted_neg.begin(), sorted_neg.end(), p);
    const auto hi = std::upper_bound(sorted_neg.begin(), sorted_neg.end(), p);
    u += static_cast<double>(std::distance(sorted_neg.begin(), lo));
    u += 0.5 * static_cast<double>(std::distance(lo, hi));
  }
  return u / (static_cast<double>(positives.size()) * static_cast<double>(negatives.size()));
}

double auc_low_is_positive(const std::vector<double>& positives, const std::vector<double>& negatives) {
  return 1.0 - auc_high_is_positive(positives, negatives);
}

namespace {

double fraction_above(const std::vector<double>& values, double threshold) {
  if (values.empty()) throw std::invalid_argument("rates_at_threshold: empty class");
  int64_t count = 0;
  for (double v : values) {
    if (v > threshold) ++count;
  }
  return static_cast<double>(count) / static_cast<double>(values.size());
}

double fraction_below(const std::vector<double>& values, double threshold) {
  if (values.empty()) throw std::invalid_argument("rates_at_threshold: empty class");
  int64_t count = 0;
  for (double v : values) {
    if (v < threshold) ++count;
  }
  return static_cast<double>(count) / static_cast<double>(values.size());
}

}  // namespace

DetectionRates rates_at_threshold_high(const std::vector<double>& positives,
                                       const std::vector<double>& negatives, double threshold) {
  return DetectionRates{fraction_above(positives, threshold), fraction_above(negatives, threshold)};
}

DetectionRates rates_at_threshold_low(const std::vector<double>& positives,
                                      const std::vector<double>& negatives, double threshold) {
  return DetectionRates{fraction_below(positives, threshold), fraction_below(negatives, threshold)};
}

ConfidenceInterval bootstrap_auc_ci(const std::vector<double>& positives,
                                    const std::vector<double>& negatives, Rng& rng, int resamples,
                                    double confidence) {
  if (resamples < 10) throw std::invalid_argument("bootstrap_auc_ci: too few resamples");
  if (confidence <= 0.0 || confidence >= 1.0) {
    throw std::invalid_argument("bootstrap_auc_ci: confidence outside (0, 1)");
  }
  ConfidenceInterval ci;
  ci.point = auc_high_is_positive(positives, negatives);

  std::vector<double> estimates;
  estimates.reserve(static_cast<size_t>(resamples));
  std::vector<double> pos_sample(positives.size());
  std::vector<double> neg_sample(negatives.size());
  for (int r = 0; r < resamples; ++r) {
    for (auto& v : pos_sample) {
      v = positives[static_cast<size_t>(rng.uniform_int(0, static_cast<int64_t>(positives.size()) - 1))];
    }
    for (auto& v : neg_sample) {
      v = negatives[static_cast<size_t>(rng.uniform_int(0, static_cast<int64_t>(negatives.size()) - 1))];
    }
    estimates.push_back(auc_high_is_positive(pos_sample, neg_sample));
  }
  std::sort(estimates.begin(), estimates.end());
  const double tail = (1.0 - confidence) / 2.0;
  const auto index = [&](double q) {
    const auto i = static_cast<size_t>(q * static_cast<double>(estimates.size() - 1));
    return estimates[std::min(i, estimates.size() - 1)];
  };
  ci.lower = index(tail);
  ci.upper = index(1.0 - tail);
  return ci;
}

}  // namespace salnov
