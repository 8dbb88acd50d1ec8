#include "roadsim/rasterizer.hpp"

#include <algorithm>
#include <cmath>

namespace salnov::roadsim {

RoadGeometry::RoadGeometry(const SceneParams& params, int64_t height, int64_t width)
    : height_(height), width_(width) {
  horizon_row_ = static_cast<int64_t>(params.horizon_frac * static_cast<double>(height));
  horizon_row_ = std::clamp<int64_t>(horizon_row_, 1, height - 2);
  // Camera offset shifts the whole road laterally; curvature displaces the
  // road toward the horizon (quadratic in 1 - depth, i.e. zero at the car).
  offset_px_ = -params.camera_offset * 0.5 * params.road_half_width * static_cast<double>(width);
  curve_px_ = params.curvature * 0.45 * static_cast<double>(width);
  bottom_half_width_px_ = params.road_half_width * static_cast<double>(width);
}

double RoadGeometry::depth(int64_t row) const {
  if (row <= horizon_row_) return 0.0;
  return static_cast<double>(row - horizon_row_) / static_cast<double>(height_ - 1 - horizon_row_);
}

double RoadGeometry::center_x(int64_t row) const {
  const double t = depth(row);
  const double far = 1.0 - t;  // 1 at horizon, 0 at the car
  return static_cast<double>(width_) / 2.0 + offset_px_ * t + curve_px_ * far * far;
}

double RoadGeometry::half_width(int64_t row) const {
  // A small floor keeps the road visible (a vanishing-point wedge) near the
  // horizon so distant geometry still contributes features.
  const double t = depth(row);
  return std::max(1.5, bottom_half_width_px_ * t);
}

bool RoadGeometry::on_road(int64_t row, int64_t col) const {
  if (row <= horizon_row_) return false;
  return std::abs(static_cast<double>(col) - center_x(row)) <= half_width(row);
}

bool RoadGeometry::on_edge(int64_t row, int64_t col, double edge_frac) const {
  if (row <= horizon_row_) return false;
  const double distance = std::abs(static_cast<double>(col) - center_x(row));
  const double hw = half_width(row);
  const double band = std::max(1.0, edge_frac * hw);
  return distance <= hw + band * 0.5 && distance >= hw - band;
}

bool RoadGeometry::on_center_marking(int64_t row, int64_t col, double dash_period) const {
  if (row <= horizon_row_) return false;
  const double distance = std::abs(static_cast<double>(col) - center_x(row));
  const double hw = half_width(row);
  const double marking_half_width = std::max(0.6, 0.045 * hw);
  if (distance > marking_half_width) return false;
  // Dashes: on for the first 60% of each period of road rows.
  const double phase = std::fmod(static_cast<double>(row - horizon_row_), dash_period) / dash_period;
  return phase < 0.6;
}

double ValueNoise::lattice(int64_t y, int64_t x) const {
  // splitmix64-style integer hash of (seed, y, x).
  uint64_t h = seed_;
  h ^= static_cast<uint64_t>(y) * 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h ^= static_cast<uint64_t>(x) * 0x94d049bb133111ebULL;
  h = (h ^ (h >> 27)) * 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 31;
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

double ValueNoise::at(double y, double x, double scale) const {
  const double fy = y / scale;
  const double fx = x / scale;
  const auto y0 = static_cast<int64_t>(std::floor(fy));
  const auto x0 = static_cast<int64_t>(std::floor(fx));
  const double ty = fy - static_cast<double>(y0);
  const double tx = fx - static_cast<double>(x0);
  // Smoothstep weights avoid visible lattice seams.
  const double wy = ty * ty * (3.0 - 2.0 * ty);
  const double wx = tx * tx * (3.0 - 2.0 * tx);
  const double v00 = lattice(y0, x0);
  const double v01 = lattice(y0, x0 + 1);
  const double v10 = lattice(y0 + 1, x0);
  const double v11 = lattice(y0 + 1, x0 + 1);
  const double top = v00 + (v01 - v00) * wx;
  const double bottom = v10 + (v11 - v10) * wx;
  return top + (bottom - top) * wy;
}

double ValueNoise::fractal(double y, double x, double scale) const {
  return 0.65 * at(y, x, scale) + 0.35 * at(y + 101.0, x + 57.0, scale / 3.0);
}

void draw_rect(RgbImage& image, int64_t y0, int64_t x0, int64_t h, int64_t w, float r, float g,
               float b) {
  const int64_t y1 = std::min(y0 + h, image.height());
  const int64_t x1 = std::min(x0 + w, image.width());
  for (int64_t y = std::max<int64_t>(y0, 0); y < y1; ++y) {
    for (int64_t x = std::max<int64_t>(x0, 0); x < x1; ++x) image.set(y, x, r, g, b);
  }
}

void draw_vertical_gradient(RgbImage& image, int64_t y0, int64_t y1, float r0, float g0, float b0,
                            float r1, float g1, float b1) {
  y0 = std::max<int64_t>(y0, 0);
  y1 = std::min(y1, image.height());
  const double span = std::max<int64_t>(y1 - y0 - 1, 1);
  for (int64_t y = y0; y < y1; ++y) {
    const double t = static_cast<double>(y - y0) / span;
    const float r = static_cast<float>(r0 + (r1 - r0) * t);
    const float g = static_cast<float>(g0 + (g1 - g0) * t);
    const float b = static_cast<float>(b0 + (b1 - b0) * t);
    for (int64_t x = 0; x < image.width(); ++x) image.set(y, x, r, g, b);
  }
}

}  // namespace salnov::roadsim
