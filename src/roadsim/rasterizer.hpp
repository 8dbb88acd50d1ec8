// Shared rendering machinery for the scene generators.
//
// RoadGeometry turns SceneParams into per-row road center / width curves
// (a cheap perspective model: width shrinks linearly toward the horizon,
// lateral curve displacement grows quadratically). ValueNoise is a smooth,
// seedable 2-D noise field used for terrain, clouds, and floor texture.
// The free draw_* helpers paint into an RgbImage.
#pragma once

#include <cstdint>

#include "image/image.hpp"
#include "roadsim/scene.hpp"

namespace salnov::roadsim {

/// Per-row road geometry for an image of a given size.
class RoadGeometry {
 public:
  RoadGeometry(const SceneParams& params, int64_t height, int64_t width);

  int64_t horizon_row() const { return horizon_row_; }

  /// Perspective depth parameter for a row: 0 at the horizon, 1 at the
  /// bottom row. Rows above the horizon return 0.
  double depth(int64_t row) const;

  /// X coordinate (pixels, fractional) of the road center at a row.
  double center_x(int64_t row) const;

  /// Road half-width in pixels at a row.
  double half_width(int64_t row) const;

  /// True if pixel (row, col) lies on the road surface.
  bool on_road(int64_t row, int64_t col) const;

  /// True if pixel (row, col) lies on a road edge band (within
  /// `edge_frac` * half_width of either edge). These are the task-relevant
  /// pixels a steering model should attend to.
  bool on_edge(int64_t row, int64_t col, double edge_frac = 0.12) const;

  /// True if pixel lies on the dashed center lane marking.
  bool on_center_marking(int64_t row, int64_t col, double dash_period = 18.0) const;

 private:
  int64_t height_;
  int64_t width_;
  int64_t horizon_row_;
  double offset_px_;
  double curve_px_;
  double bottom_half_width_px_;
};

/// Smooth value noise: bilinear interpolation of a hashed integer lattice.
/// Deterministic in (seed, x, y); output in [0, 1].
class ValueNoise {
 public:
  explicit ValueNoise(uint64_t seed) : seed_(seed) {}

  /// Noise at continuous coordinates with a given feature scale (larger
  /// scale = smoother).
  double at(double y, double x, double scale) const;

  /// Two-octave fractal variant (scale and scale/3).
  double fractal(double y, double x, double scale) const;

 private:
  double lattice(int64_t y, int64_t x) const;
  uint64_t seed_;
};

/// Paints an axis-aligned rectangle, clipped to the image.
void draw_rect(RgbImage& image, int64_t y0, int64_t x0, int64_t h, int64_t w, float r, float g, float b);

/// Vertical gradient between two colors over rows [y0, y1).
void draw_vertical_gradient(RgbImage& image, int64_t y0, int64_t y1, float r0, float g0, float b0,
                            float r1, float g1, float b1);

}  // namespace salnov::roadsim
