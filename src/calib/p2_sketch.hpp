// Streaming quantile sketch for online shadow calibration.
//
// The paper's thresholds come from the full training-score ECDF
// (EmpiricalCdf): exact order statistics over a batch. A serving stream
// cannot afford to keep every score, but the drift loop still needs the
// same quantiles, continuously, per ladder rung. P2Sketch is the standard
// P² algorithm (Jain & Chlamtac, CACM 1985) extended to a set of tracked
// quantiles, with two deliberate deviations that tie it to EmpiricalCdf:
//
//   * Exact warm-up. Until `warmup` samples have arrived the sketch IS an
//     exact buffer and answers upper_quantile/lower_quantile with
//     EmpiricalCdf's conservative order-statistic semantics (the same
//     rank-snapping math — warm-up answers are bit-identical to an
//     EmpiricalCdf fitted on the same samples). The P² markers are then
//     initialized from exact order statistics of the buffer instead of the
//     classic first-five-samples rule.
//   * Conservative marker snapping. After warm-up, upper_quantile(q)
//     answers with the nearest tracked marker AT OR ABOVE q and
//     lower_quantile(q) with the nearest marker at or below — the estimate
//     errs outward, like EmpiricalCdf's smallest-sample-with-cdf>=q rule,
//     never inward. Callers track the quantiles they will query (the
//     calibrator tracks {1-p, 0.5, p}); min and max are always tracked.
//
// Non-finite samples are dropped and counted, mirroring the EmpiricalCdf
// fit and the monitor's EMA containment: one NaN score must not poison a
// shadow threshold. A sketch lives only in memory: the online calibrator
// never persists one, and only the ThresholdSet it publishes reaches disk.
#pragma once

#include <cstdint>
#include <vector>

namespace salnov::calib {

class P2Sketch {
 public:
  /// `tracked_quantiles` are the interior quantiles the sketch maintains
  /// markers for (each strictly inside (0,1); duplicates are merged; 0 and
  /// 1 — min and max — are always added). `warmup` is the exact-buffer
  /// size; it must cover the marker bank (throws std::invalid_argument when
  /// it does not, or on an out-of-range quantile).
  explicit P2Sketch(std::vector<double> tracked_quantiles, int64_t warmup = 64);

  /// Folds one sample in. Non-finite values are dropped and counted in
  /// nonfinite_dropped() — they never reach the quantile math.
  void add(double value);

  /// Finite samples folded in so far.
  int64_t count() const { return count_; }

  /// Non-finite samples dropped by add().
  int64_t nonfinite_dropped() const { return nonfinite_dropped_; }

  /// False while in the exact warm-up buffer, true once the P² markers have
  /// taken over.
  bool streaming() const { return streaming_; }

  /// Conservative upper quantile: exact EmpiricalCdf::upper_quantile
  /// during warm-up; afterwards the height of the nearest marker at or
  /// above `q`. Throws EmptyCalibrationError before the first finite
  /// sample and std::invalid_argument for q outside [0, 1].
  double upper_quantile(double q) const;

  /// Mirror image (EmpiricalCdf::lower_quantile semantics): exact during
  /// warm-up, nearest marker at or below `q` afterwards.
  double lower_quantile(double q) const;

  double min() const;
  double max() const;

 private:
  void init_markers();

  std::vector<double> tracked_;   ///< interior quantiles, sorted, deduped
  std::vector<double> marker_q_;  ///< full marker quantile set incl. 0, 1, midpoints
  int64_t warmup_ = 64;
  int64_t count_ = 0;
  int64_t nonfinite_dropped_ = 0;
  bool streaming_ = false;

  std::vector<double> buffer_;     ///< warm-up samples, insertion order
  std::vector<int64_t> marker_n_;  ///< marker positions (1-based ranks)
  std::vector<double> marker_h_;   ///< marker heights
};

}  // namespace salnov::calib
