#include "metrics/ecdf.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/serialize.hpp"

namespace salnov {

EmpiricalCdf::EmpiricalCdf(std::vector<double> samples) : sorted_(std::move(samples)) {
  const size_t original = sorted_.size();
  sorted_.erase(std::remove_if(sorted_.begin(), sorted_.end(),
                               [](double v) { return !std::isfinite(v); }),
                sorted_.end());
  dropped_nonfinite_ = original - sorted_.size();
  if (sorted_.empty()) {
    throw EmptyCalibrationError("EmpiricalCdf: no finite samples (" + std::to_string(original) +
                                " given, " + std::to_string(dropped_nonfinite_) +
                                " non-finite dropped)");
  }
  std::sort(sorted_.begin(), sorted_.end());
}

void EmpiricalCdf::save(std::ostream& os) const {
  write_i64(os, static_cast<int64_t>(sorted_.size()));
  for (double v : sorted_) write_f64(os, v);
}

EmpiricalCdf EmpiricalCdf::load(std::istream& is) {
  const int64_t count = read_i64(is);
  if (count == 0) throw SerializationError("EmpiricalCdf::load: empty sample set");
  check_count(is, count, int64_t{1} << 32, sizeof(double), "EmpiricalCdf::load: sample count");
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) samples.push_back(read_f64(is));
  return EmpiricalCdf(std::move(samples));
}

double EmpiricalCdf::cdf(double x) const {
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(std::distance(sorted_.begin(), it)) / static_cast<double>(sorted_.size());
}

namespace {

void check_q(double q, const char* who) {
  // Negated comparison so NaN (for which every comparison is false) is
  // rejected rather than flowing into floor/ceil index math.
  if (!(q >= 0.0 && q <= 1.0)) {
    throw std::invalid_argument(std::string(who) + ": q outside [0, 1]");
  }
}

/// Smallest rank k in [1, n] with k/n >= q. Snaps q*n to the nearest
/// integer within float noise so ranks computed from cdf() outputs (exact
/// sample fractions k/n) round-trip instead of ceiling up one rank.
int64_t rank_at_least(double q, int64_t n) {
  const double qn = q * static_cast<double>(n);
  const double nearest = std::round(qn);
  const int64_t k = std::abs(qn - nearest) <= 1e-9 * std::max(1.0, qn)
                        ? static_cast<int64_t>(nearest)
                        : static_cast<int64_t>(std::ceil(qn));
  return std::min(std::max<int64_t>(k, 1), n);
}

}  // namespace

double EmpiricalCdf::quantile(double q) const {
  check_q(q, "EmpiricalCdf::quantile");
  if (sorted_.size() == 1) return sorted_.front();
  const double pos = q * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, sorted_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted_[lo] + frac * (sorted_[hi] - sorted_[lo]);
}

double EmpiricalCdf::upper_quantile(double q) const {
  check_q(q, "EmpiricalCdf::upper_quantile");
  const auto n = static_cast<int64_t>(sorted_.size());
  return sorted_[static_cast<size_t>(rank_at_least(q, n) - 1)];
}

double EmpiricalCdf::lower_quantile(double q) const {
  check_q(q, "EmpiricalCdf::lower_quantile");
  const auto n = static_cast<int64_t>(sorted_.size());
  return sorted_[static_cast<size_t>(n - rank_at_least(1.0 - q, n))];
}

double quantile(const std::vector<double>& samples, double q) {
  return EmpiricalCdf(samples).quantile(q);
}

double quantile(const EmpiricalCdf& cdf, double q) { return cdf.quantile(q); }

double mean(const std::vector<double>& samples) {
  if (samples.empty()) throw std::invalid_argument("mean: empty sample set");
  double acc = 0.0;
  for (double v : samples) acc += v;
  return acc / static_cast<double>(samples.size());
}

double stddev(const std::vector<double>& samples) {
  if (samples.size() < 2) return 0.0;
  const double m = mean(samples);
  double acc = 0.0;
  for (double v : samples) acc += (v - m) * (v - m);
  return std::sqrt(acc / static_cast<double>(samples.size() - 1));
}

}  // namespace salnov
