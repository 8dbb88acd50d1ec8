// Fixed-bin histograms, used to regenerate the paper's Fig. 5 and Fig. 7
// score-distribution plots as printable series.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace salnov {

class Histogram {
 public:
  /// Histogram over [lo, hi) with `bins` equal-width bins. Values outside the
  /// range are clamped into the first/last bin so no sample is dropped.
  Histogram(double lo, double hi, int64_t bins);

  void add(double value);
  void add_all(const std::vector<double>& values);

  int64_t bins() const { return static_cast<int64_t>(counts_.size()); }
  int64_t count(int64_t bin) const { return counts_.at(static_cast<size_t>(bin)); }
  int64_t total() const { return total_; }

  /// Center value of the given bin.
  double bin_center(int64_t bin) const;

  /// Fraction of all samples in the given bin (0 if empty histogram).
  double frequency(int64_t bin) const;

 private:
  double lo_;
  double hi_;
  std::vector<int64_t> counts_;
  int64_t total_ = 0;
};

/// Overlap coefficient of two sample sets, estimated on a shared histogram:
/// sum over bins of min(freq_a, freq_b). 0 = perfectly separated,
/// 1 = identical distributions. This is the "how separable are the two
/// classes" number we report alongside each histogram figure.
double distribution_overlap(const std::vector<double>& a, const std::vector<double>& b, int64_t bins = 50);

}  // namespace salnov
