// Summed-area tables (integral images) over double grids.
//
// Shared by the SSIM metric and the differentiable SSIM loss: window sums
// become O(1) per window, making whole-image SSIM O(pixels) regardless of
// window size.
//
// SSIM needs five tables over an image pair (x, y, x^2, y^2, xy). The
// moment-table builder makes all five in one pass over the pixels, carrying
// the five independent running row sums together, so the adds of the five
// tables overlap instead of forming one long dependent chain per table. Each
// entry is the same sequence of IEEE double operations as build_summed_area
// over the corresponding grid (this header's users are compiled without
// FMA contraction), so the tables are bit-identical to five separate
// builds. The tables live in the calling thread's workspace: no heap
// traffic after warm-up and no zero fill.
#pragma once

#include <algorithm>
#include <cstdint>

#include "tensor/workspace.hpp"

namespace salnov {

/// Builds the (rows + 1) x (cols + 1) summed-area table of `grid` into
/// `sat`: sat[r][c] = sum of grid[0..r)[0..c). The first row and column of
/// `sat` are zero.
inline void build_summed_area(const double* grid, int64_t rows, int64_t cols, double* sat) {
  const int64_t stride = cols + 1;
  std::fill(sat, sat + stride, 0.0);
  for (int64_t r = 0; r < rows; ++r) {
    double row_acc = 0.0;
    sat[(r + 1) * stride] = 0.0;
    for (int64_t c = 0; c < cols; ++c) {
      row_acc += grid[r * cols + c];
      sat[(r + 1) * stride + (c + 1)] = sat[r * stride + (c + 1)] + row_acc;
    }
  }
}

/// Sum of grid[r0..r1)[c0..c1) from its summed-area table (`cols` is the
/// grid's column count, not the table's).
inline double summed_area_rect(const double* sat, int64_t cols, int64_t r0, int64_t c0, int64_t r1,
                               int64_t c1) {
  const int64_t stride = cols + 1;
  return sat[r1 * stride + c1] - sat[r0 * stride + c1] - sat[r1 * stride + c0] +
         sat[r0 * stride + c0];
}

/// The five (rows + 1) x (cols + 1) summed-area tables of an image pair.
struct MomentTables {
  double* x = nullptr;
  double* y = nullptr;
  double* xx = nullptr;
  double* yy = nullptr;
  double* xy = nullptr;
};

/// The five sums over one window: of x, y, x*x, y*y and x*y.
struct MomentSums {
  double x, y, xx, yy, xy;
};

/// The five sums over the win x win window with top-left (y0, x0) of a
/// `cols`-column image.
inline MomentSums window_sums(const MomentTables& t, int64_t cols, int64_t y0, int64_t x0,
                              int64_t win) {
  return {summed_area_rect(t.x, cols, y0, x0, y0 + win, x0 + win),
          summed_area_rect(t.y, cols, y0, x0, y0 + win, x0 + win),
          summed_area_rect(t.xx, cols, y0, x0, y0 + win, x0 + win),
          summed_area_rect(t.yy, cols, y0, x0, y0 + win, x0 + win),
          summed_area_rect(t.xy, cols, y0, x0, y0 + win, x0 + win)};
}

/// out[c] = fn(window_sums(t, cols, y0, c * stride, win)) for c in
/// [0, count): one row of windows. The iterations are independent and `out`
/// aliases nothing else, so the loop vectorises.
template <class WindowFn>
inline void window_row(const MomentTables& t, int64_t cols, int64_t y0, int64_t win,
                       int64_t stride, int64_t count, WindowFn fn, double* __restrict out) {
  // ivdep: without it GCC gives up on the 20 table reads it cannot prove
  // disjoint from `out` once the loop is inlined.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC ivdep
#endif
  for (int64_t c = 0; c < count; ++c) out[c] = fn(window_sums(t, cols, y0, c * stride, win));
}

/// Builds the summed-area tables of x, y, x*x, y*y and x*y (products in
/// double) over two rows x cols images, in buffers taken from `scratch`.
/// Each table is bit-identical to build_summed_area over that grid.
inline MomentTables build_moment_tables(const float* x, const float* y, int64_t rows, int64_t cols,
                                        WorkspaceScope& scratch) {
  const int64_t stride = cols + 1;
  const int64_t size = (rows + 1) * stride;
  MomentTables t{scratch.doubles(size), scratch.doubles(size), scratch.doubles(size),
                 scratch.doubles(size), scratch.doubles(size)};
  for (double* sat : {t.x, t.y, t.xx, t.yy, t.xy}) std::fill(sat, sat + stride, 0.0);
  for (int64_t r = 0; r < rows; ++r) {
    const float* x_row = x + r * cols;
    const float* y_row = y + r * cols;
    const int64_t above = r * stride + 1;
    const int64_t here = (r + 1) * stride + 1;
    t.x[here - 1] = t.y[here - 1] = t.xx[here - 1] = t.yy[here - 1] = t.xy[here - 1] = 0.0;
    double sx = 0.0, sy = 0.0, sxx = 0.0, syy = 0.0, sxy = 0.0;
    for (int64_t c = 0; c < cols; ++c) {
      const double xv = x_row[c];
      const double yv = y_row[c];
      sx += xv;
      sy += yv;
      sxx += xv * xv;
      syy += yv * yv;
      sxy += xv * yv;
      t.x[here + c] = t.x[above + c] + sx;
      t.y[here + c] = t.y[above + c] + sy;
      t.xx[here + c] = t.xx[above + c] + sxx;
      t.yy[here + c] = t.yy[above + c] + syy;
      t.xy[here + c] = t.xy[above + c] + sxy;
    }
  }
  return t;
}

}  // namespace salnov
