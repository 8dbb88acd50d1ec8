#include "calib/p2_sketch.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "metrics/ecdf.hpp"
#include "tensor/serialize.hpp"

namespace salnov::calib {
namespace {

constexpr char kSketchMagic[] = "salnov-p2sketch";
constexpr uint32_t kSketchVersion = 1;

/// Tolerance for matching a queried quantile against a tracked marker; the
/// same order of magnitude as EmpiricalCdf's rank snap.
constexpr double kQuantileSnap = 1e-9;

void check_q(double q, const char* who) {
  if (!(q >= 0.0 && q <= 1.0)) {
    throw std::invalid_argument(std::string(who) + ": q outside [0, 1]");
  }
}

}  // namespace

P2Sketch::P2Sketch(std::vector<double> tracked_quantiles, int64_t warmup)
    : tracked_(std::move(tracked_quantiles)), warmup_(warmup) {
  for (double q : tracked_) {
    if (!(q > 0.0 && q < 1.0)) {
      throw std::invalid_argument("P2Sketch: tracked quantile outside (0, 1)");
    }
  }
  std::sort(tracked_.begin(), tracked_.end());
  tracked_.erase(std::unique(tracked_.begin(), tracked_.end()), tracked_.end());

  // Marker bank: 0, the tracked quantiles, 1, plus the midpoint between
  // each adjacent pair. The midpoints are the classic P² trick — they keep
  // the interior markers from starving for position updates when the
  // tracked quantiles sit deep in a tail (0.99 next to 1).
  std::vector<double> base;
  base.push_back(0.0);
  base.insert(base.end(), tracked_.begin(), tracked_.end());
  base.push_back(1.0);
  for (size_t i = 0; i + 1 < base.size(); ++i) {
    marker_q_.push_back(base[i]);
    marker_q_.push_back(0.5 * (base[i] + base[i + 1]));
  }
  marker_q_.push_back(base.back());

  const auto markers = static_cast<int64_t>(marker_q_.size());
  if (warmup_ < markers) {
    throw std::invalid_argument("P2Sketch: warmup " + std::to_string(warmup_) +
                                " smaller than marker bank (" + std::to_string(markers) + ")");
  }
  // No up-front reserve: the buffer grows with the samples that arrive, so a
  // huge (or, when loading, corrupt) warm-up never allocates by itself.
}

void P2Sketch::init_markers() {
  std::vector<double> sorted = buffer_;
  std::sort(sorted.begin(), sorted.end());
  const auto n = static_cast<int64_t>(sorted.size());
  const auto m = static_cast<int64_t>(marker_q_.size());

  // Exact order statistics seed the markers: position round(1 + q*(n-1)),
  // forced strictly increasing so every inter-marker cell holds at least
  // one rank (the P² position updates preserve this invariant).
  marker_n_.assign(static_cast<size_t>(m), 0);
  for (int64_t i = 0; i < m; ++i) {
    const auto ideal = static_cast<int64_t>(std::llround(1.0 + marker_q_[static_cast<size_t>(i)] *
                                                                   static_cast<double>(n - 1)));
    marker_n_[static_cast<size_t>(i)] = std::clamp<int64_t>(ideal, i + 1, n - (m - 1 - i));
  }
  for (int64_t i = 1; i < m; ++i) {
    marker_n_[static_cast<size_t>(i)] =
        std::max(marker_n_[static_cast<size_t>(i)], marker_n_[static_cast<size_t>(i - 1)] + 1);
  }
  marker_h_.assign(static_cast<size_t>(m), 0.0);
  for (int64_t i = 0; i < m; ++i) {
    marker_h_[static_cast<size_t>(i)] = sorted[static_cast<size_t>(marker_n_[static_cast<size_t>(i)] - 1)];
  }
  buffer_.clear();
  buffer_.shrink_to_fit();
  streaming_ = true;
}

void P2Sketch::add(double value) {
  if (!std::isfinite(value)) {
    ++nonfinite_dropped_;
    return;
  }
  if (!streaming_) {
    buffer_.push_back(value);
    ++count_;
    if (count_ == warmup_) init_markers();
    return;
  }

  const auto m = static_cast<int64_t>(marker_q_.size());
  auto& n = marker_n_;
  auto& h = marker_h_;

  // Locate the cell, stretching the extreme markers when the sample falls
  // outside the current range.
  int64_t k;
  if (value < h[0]) {
    h[0] = value;
    k = 0;
  } else if (value >= h[static_cast<size_t>(m - 1)]) {
    h[static_cast<size_t>(m - 1)] = std::max(h[static_cast<size_t>(m - 1)], value);
    k = m - 2;
  } else {
    const auto it = std::upper_bound(h.begin(), h.end(), value);
    k = std::distance(h.begin(), it) - 1;
  }
  for (int64_t i = k + 1; i < m; ++i) ++n[static_cast<size_t>(i)];
  ++count_;

  // Nudge interior markers toward their desired positions with the
  // piecewise-parabolic (P²) update, falling back to linear when the
  // parabola would break height monotonicity.
  for (int64_t i = 1; i < m - 1; ++i) {
    const auto iu = static_cast<size_t>(i);
    const double desired = 1.0 + marker_q_[iu] * static_cast<double>(count_ - 1);
    const double d = desired - static_cast<double>(n[iu]);
    const int64_t right_gap = n[iu + 1] - n[iu];
    const int64_t left_gap = n[iu - 1] - n[iu];
    if ((d >= 1.0 && right_gap > 1) || (d <= -1.0 && left_gap < -1)) {
      const auto s = static_cast<int64_t>(d >= 1.0 ? 1 : -1);
      const auto sd = static_cast<double>(s);
      const double np = static_cast<double>(n[iu + 1]);
      const double nc = static_cast<double>(n[iu]);
      const double nm = static_cast<double>(n[iu - 1]);
      const double parabolic =
          h[iu] + sd / (np - nm) *
                      ((nc - nm + sd) * (h[iu + 1] - h[iu]) / (np - nc) +
                       (np - nc - sd) * (h[iu] - h[iu - 1]) / (nc - nm));
      if (h[iu - 1] < parabolic && parabolic < h[iu + 1]) {
        h[iu] = parabolic;
      } else {
        const auto ju = static_cast<size_t>(i + s);
        h[iu] += sd * (h[ju] - h[iu]) / static_cast<double>(n[ju] - n[iu]);
      }
      n[iu] += s;
    }
  }
}

double P2Sketch::upper_quantile(double q) const {
  check_q(q, "P2Sketch::upper_quantile");
  if (count_ == 0) throw EmptyCalibrationError("P2Sketch: no finite samples observed");
  if (!streaming_) return EmpiricalCdf(buffer_).upper_quantile(q);
  // Nearest marker at or above q: the estimate snaps outward (upward), the
  // conservative direction for a high-tail threshold.
  for (size_t i = 0; i < marker_q_.size(); ++i) {
    if (marker_q_[i] >= q - kQuantileSnap) return marker_h_[i];
  }
  return marker_h_.back();
}

double P2Sketch::lower_quantile(double q) const {
  check_q(q, "P2Sketch::lower_quantile");
  if (count_ == 0) throw EmptyCalibrationError("P2Sketch: no finite samples observed");
  if (!streaming_) return EmpiricalCdf(buffer_).lower_quantile(q);
  for (size_t i = marker_q_.size(); i-- > 0;) {
    if (marker_q_[i] <= q + kQuantileSnap) return marker_h_[i];
  }
  return marker_h_.front();
}

double P2Sketch::min() const {
  if (count_ == 0) throw EmptyCalibrationError("P2Sketch: no finite samples observed");
  if (!streaming_) return *std::min_element(buffer_.begin(), buffer_.end());
  return marker_h_.front();
}

double P2Sketch::max() const {
  if (count_ == 0) throw EmptyCalibrationError("P2Sketch: no finite samples observed");
  if (!streaming_) return *std::max_element(buffer_.begin(), buffer_.end());
  return marker_h_.back();
}

void P2Sketch::save(std::ostream& os) const {
  write_header(os, kSketchMagic, kSketchVersion);
  write_u32(os, static_cast<uint32_t>(tracked_.size()));
  for (double q : tracked_) write_f64(os, q);
  write_i64(os, warmup_);
  write_i64(os, count_);
  write_i64(os, nonfinite_dropped_);
  write_u32(os, streaming_ ? 1 : 0);
  if (!streaming_) {
    write_i64(os, static_cast<int64_t>(buffer_.size()));
    for (double v : buffer_) write_f64(os, v);  // insertion order: bit-exact resume
  } else {
    write_u32(os, static_cast<uint32_t>(marker_q_.size()));
    for (size_t i = 0; i < marker_q_.size(); ++i) {
      write_f64(os, marker_q_[i]);
      write_i64(os, marker_n_[i]);
      write_f64(os, marker_h_[i]);
    }
  }
}

P2Sketch P2Sketch::load(std::istream& is) {
  read_header(is, kSketchMagic, kSketchVersion);
  const uint32_t tracked_count = read_u32(is);
  if (tracked_count > 64) {
    throw SerializationError("P2Sketch::load: implausible tracked-quantile count " +
                             std::to_string(tracked_count));
  }
  std::vector<double> tracked(tracked_count);
  for (auto& q : tracked) q = read_f64(is);
  const int64_t warmup = read_i64(is);
  if (warmup <= 0 || warmup > (int64_t{1} << 32)) {
    throw SerializationError("P2Sketch::load: implausible warmup " + std::to_string(warmup));
  }
  // The constructor re-derives and validates marker_q_; a corrupted byte in
  // the tracked quantiles surfaces as a format error, not a usage error.
  P2Sketch sketch = [&] {
    try {
      return P2Sketch(std::move(tracked), warmup);
    } catch (const std::invalid_argument& err) {
      throw SerializationError(std::string("P2Sketch::load: ") + err.what());
    }
  }();
  sketch.count_ = read_i64(is);
  sketch.nonfinite_dropped_ = read_i64(is);
  bool streaming = false;
  FieldReader(is, "P2Sketch::load").flag(streaming, "streaming flag");
  if (!streaming) {
    const int64_t buffered = read_i64(is);
    if (buffered != sketch.count_ || buffered < 0 || buffered >= warmup) {
      throw SerializationError("P2Sketch::load: buffer size " + std::to_string(buffered) +
                               " inconsistent with count/warmup");
    }
    check_count(is, buffered, warmup, sizeof(double), "P2Sketch::load: buffer size");
    sketch.buffer_.resize(static_cast<size_t>(buffered));
    for (auto& v : sketch.buffer_) v = read_f64(is);
  } else {
    const uint32_t markers = read_u32(is);
    if (markers != sketch.marker_q_.size()) {
      throw SerializationError("P2Sketch::load: marker count " + std::to_string(markers) +
                               " does not match tracked quantiles");
    }
    sketch.marker_n_.resize(markers);
    sketch.marker_h_.resize(markers);
    for (uint32_t i = 0; i < markers; ++i) {
      const double q = read_f64(is);
      if (q != sketch.marker_q_[i]) {
        throw SerializationError("P2Sketch::load: marker quantile mismatch");
      }
      sketch.marker_n_[i] = read_i64(is);
      sketch.marker_h_[i] = read_f64(is);
    }
    sketch.streaming_ = true;
  }
  sketch.validate_or_throw();
  return sketch;
}

void P2Sketch::validate_or_throw() const {
  if (count_ < 0 || nonfinite_dropped_ < 0) {
    throw SerializationError("P2Sketch::load: negative counter");
  }
  if (streaming_) {
    if (count_ < warmup_) {
      throw SerializationError("P2Sketch::load: streaming sketch with count below warmup");
    }
    for (size_t i = 0; i < marker_h_.size(); ++i) {
      if (!std::isfinite(marker_h_[i])) {
        throw SerializationError("P2Sketch::load: non-finite marker height");
      }
      if (i > 0 && (marker_n_[i] <= marker_n_[i - 1] || marker_h_[i] < marker_h_[i - 1])) {
        throw SerializationError("P2Sketch::load: marker bank not monotone");
      }
    }
    if (!marker_n_.empty() &&
        (marker_n_.front() != 1 || marker_n_.back() != count_)) {
      throw SerializationError("P2Sketch::load: marker positions do not span the sample count");
    }
  } else {
    for (double v : buffer_) {
      if (!std::isfinite(v)) throw SerializationError("P2Sketch::load: non-finite buffered sample");
    }
  }
}

void P2Sketch::save_file(const std::string& path) const {
  save_file_checked(path, [this](std::ostream& os) { save(os); });
}

P2Sketch P2Sketch::load_file(const std::string& path) {
  std::istringstream is(load_file_checked(path));
  return load(is);
}

}  // namespace salnov::calib
