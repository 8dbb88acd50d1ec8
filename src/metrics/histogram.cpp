#include "metrics/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace salnov {

Histogram::Histogram(double lo, double hi, int64_t bins) : lo_(lo), hi_(hi) {
  if (!(lo < hi)) throw std::invalid_argument("Histogram: requires lo < hi");
  if (bins < 1) throw std::invalid_argument("Histogram: requires at least one bin");
  counts_.assign(static_cast<size_t>(bins), 0);
}

void Histogram::add(double value) {
  const double scaled = (value - lo_) / (hi_ - lo_) * static_cast<double>(bins());
  auto bin = static_cast<int64_t>(std::floor(scaled));
  bin = std::clamp<int64_t>(bin, 0, bins() - 1);
  ++counts_[static_cast<size_t>(bin)];
  ++total_;
}

void Histogram::add_all(const std::vector<double>& values) {
  for (double v : values) add(v);
}

double Histogram::bin_center(int64_t bin) const {
  if (bin < 0 || bin >= bins()) throw std::out_of_range("Histogram::bin_center");
  const double width = (hi_ - lo_) / static_cast<double>(bins());
  return lo_ + (static_cast<double>(bin) + 0.5) * width;
}

double Histogram::frequency(int64_t bin) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(count(bin)) / static_cast<double>(total_);
}

double distribution_overlap(const std::vector<double>& a, const std::vector<double>& b, int64_t bins) {
  if (a.empty() || b.empty()) throw std::invalid_argument("distribution_overlap: empty sample set");
  const auto [amin, amax] = std::minmax_element(a.begin(), a.end());
  const auto [bmin, bmax] = std::minmax_element(b.begin(), b.end());
  double lo = std::min(*amin, *bmin);
  double hi = std::max(*amax, *bmax);
  if (lo == hi) return 1.0;  // all samples identical -> full overlap
  Histogram ha(lo, hi, bins);
  Histogram hb(lo, hi, bins);
  ha.add_all(a);
  hb.add_all(b);
  double overlap = 0.0;
  for (int64_t i = 0; i < bins; ++i) {
    overlap += std::min(ha.frequency(i), hb.frequency(i));
  }
  return overlap;
}

}  // namespace salnov
