#include "core/threshold.hpp"

#include <cmath>
#include <stdexcept>

#include "tensor/serialize.hpp"

namespace salnov::core {

NoveltyThreshold::NoveltyThreshold(double threshold, ScoreOrientation orientation)
    : threshold_(threshold), orientation_(orientation) {}

bool NoveltyThreshold::is_novel(double score) const {
  if (!std::isfinite(score)) return true;
  return orientation_ == ScoreOrientation::kHighIsNovel ? score > threshold_ : score < threshold_;
}

void NoveltyThreshold::save(std::ostream& os) const {
  write_f64(os, threshold_);
  write_u32(os, orientation_ == ScoreOrientation::kHighIsNovel ? 0u : 1u);
}

NoveltyThreshold NoveltyThreshold::load(std::istream& is) {
  const double threshold = read_f64(is);
  const uint32_t tag = read_u32(is);
  if (tag > 1) throw SerializationError("NoveltyThreshold::load: bad orientation tag");
  return NoveltyThreshold(threshold,
                          tag == 0 ? ScoreOrientation::kHighIsNovel : ScoreOrientation::kLowIsNovel);
}

VariantCalibration VariantCalibration::calibrate(const std::vector<double>& training_scores,
                                                 ScoreOrientation orientation, double percentile) {
  if (percentile <= 0.0 || percentile >= 1.0) {
    throw std::invalid_argument("VariantCalibration: percentile must be in (0, 1)");
  }
  EmpiricalCdf cdf(training_scores);
  // Conservative order-statistic quantiles: the threshold is always an
  // actual training score, so at most a (1 - percentile) fraction of the
  // training set is flagged even when ties dominate the distribution (the
  // interpolating quantile() can land between tied values and flag a whole
  // duplicate block).
  const double cut = orientation == ScoreOrientation::kHighIsNovel
                         ? cdf.upper_quantile(percentile)
                         : cdf.lower_quantile(1.0 - percentile);
  NoveltyThreshold threshold(cut, orientation);
  return VariantCalibration{std::move(cdf), threshold};
}

void VariantCalibration::save(std::ostream& os) const {
  cdf.save(os);
  threshold.save(os);
}

VariantCalibration VariantCalibration::load(std::istream& is) {
  EmpiricalCdf cdf = EmpiricalCdf::load(is);
  const NoveltyThreshold threshold = NoveltyThreshold::load(is);
  return VariantCalibration{std::move(cdf), threshold};
}

}  // namespace salnov::core
