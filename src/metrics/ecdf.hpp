// Empirical CDF and percentile utilities.
//
// The paper (following Richter & Roy) turns a reconstruction-loss
// distribution into a novelty threshold: "an image is classified as novel if
// its [loss] falls outside of the 99th percentile of the empirical CDF of
// the distribution of losses in the training set."
#pragma once

#include <cstddef>
#include <iosfwd>
#include <stdexcept>
#include <vector>

namespace salnov {

/// Thrown when a calibration fit receives no finite samples: the resulting
/// quantiles would be degenerate and every threshold built from them
/// meaningless. Derives from std::invalid_argument so pre-typed callers keep
/// catching it.
class EmptyCalibrationError : public std::invalid_argument {
 public:
  explicit EmptyCalibrationError(const std::string& what) : std::invalid_argument(what) {}
};

class EmpiricalCdf {
 public:
  /// Builds the ECDF of the given samples. Non-finite samples (NaN, +/-Inf)
  /// are dropped before any quantile math — NaNs violate the strict weak
  /// ordering the sort relies on, and a single corrupted score must not
  /// poison a calibrated threshold. Throws EmptyCalibrationError when no
  /// finite sample remains (including on empty input).
  explicit EmpiricalCdf(std::vector<double> samples);

  /// F(x): fraction of samples <= x.
  double cdf(double x) const;

  /// Inverse CDF with linear interpolation between order statistics;
  /// `q` in [0, 1]. quantile(0) = min sample, quantile(1) = max sample.
  /// Interpolation can fall strictly between ties — for calibrated
  /// thresholds use upper_quantile/lower_quantile, which always return an
  /// actual sample.
  double quantile(double q) const;

  /// Conservative inverse CDF: the smallest SAMPLE x with cdf(x) >= q, so
  /// at most a (1-q) fraction of the samples exceed the result. Exactly
  /// idempotent against cdf() — upper_quantile(cdf(x)) == x for every
  /// sample x — including on duplicate-heavy sample sets where the
  /// interpolating quantile() lands between tied values.
  double upper_quantile(double q) const;

  /// Mirror image: the largest sample x such that at most a `q` fraction of
  /// the samples lie strictly below x. lower_quantile(q) on S equals
  /// -upper_quantile(1-q) on -S.
  double lower_quantile(double q) const;

  double min() const { return sorted_.front(); }
  double max() const { return sorted_.back(); }
  size_t size() const { return sorted_.size(); }

  /// The retained (finite, sorted) samples backing the CDF.
  const std::vector<double>& samples() const { return sorted_; }

  /// Serializes the sample set (f64 little-endian, length-prefixed), so a
  /// fitted CDF round-trips bit-exactly through model/pipeline files.
  void save(std::ostream& os) const;
  static EmpiricalCdf load(std::istream& is);

 private:
  std::vector<double> sorted_;
};

/// Convenience: q-th quantile of a sample set. Copies and sorts `samples`
/// (O(n log n)) on EVERY call — callers reading several percentiles of the
/// same sample set should construct one EmpiricalCdf (or use the overload
/// below) so the sort happens once.
double quantile(const std::vector<double>& samples, double q);

/// q-th quantile from an already-built ECDF: O(1), no copy, no re-sort.
double quantile(const EmpiricalCdf& cdf, double q);

/// Sample mean; throws on empty input.
double mean(const std::vector<double>& samples);

}  // namespace salnov
