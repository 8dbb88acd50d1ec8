#include "nn/ssim_loss.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "metrics/summed_area.hpp"
#include "parallel/parallel_for.hpp"
#include "tensor/workspace.hpp"

namespace salnov::nn {
namespace {

// Ceiling division for possibly-negative numerators (b > 0).
int64_t ceil_div(int64_t a, int64_t b) { return a >= 0 ? (a + b - 1) / b : -((-a) / b); }

// One window's means and the SSIM factors A1, A2, B1, B2 (see the header).
struct WindowTerms {
  double mu_x, mu_y, a1, a2, b1, b2;

  double ssim() const { return (a1 * a2) / (b1 * b2); }
};

inline WindowTerms window_terms(const MomentSums& sum, double n_win, double c1, double c2) {
  WindowTerms t;
  t.mu_x = sum.x / n_win;
  t.mu_y = sum.y / n_win;
  const double var_x = std::max(0.0, sum.xx / n_win - t.mu_x * t.mu_x);
  const double var_y = std::max(0.0, sum.yy / n_win - t.mu_y * t.mu_y);
  const double cov = sum.xy / n_win - t.mu_x * t.mu_y;

  t.a1 = 2.0 * t.mu_x * t.mu_y + c1;
  t.a2 = 2.0 * cov + c2;
  t.b1 = t.mu_x * t.mu_x + t.mu_y * t.mu_y + c1;
  t.b2 = var_x + var_y + c2;
  return t;
}

}  // namespace

SsimLoss::SsimLoss(int64_t height, int64_t width, SsimOptions options)
    : height_(height), width_(width), options_(options) {
  if (height_ < options_.window || width_ < options_.window) {
    throw std::invalid_argument("SsimLoss: image smaller than SSIM window");
  }
  if (options_.window < 1 || options_.stride < 1) {
    throw std::invalid_argument("SsimLoss: window and stride must be >= 1");
  }
}

void SsimLoss::validate_batch(const Tensor& prediction, const Tensor& target) const {
  require_same_shape(prediction, target, "SsimLoss");
  if (prediction.rank() != 2 || prediction.dim(1) != height_ * width_) {
    throw std::invalid_argument("SsimLoss: expected [batch, " + std::to_string(height_ * width_) +
                                "], got " + shape_to_string(prediction.shape()));
  }
}

double SsimLoss::sample_ssim(const float* y_recon, const float* x_input, float* grad_row) const {
  const int64_t h = height_, w = width_;
  const int64_t win = options_.window, stride = options_.stride;
  const int64_t grid_rows = (h - win) / stride + 1;
  const int64_t grid_cols = (w - win) / stride + 1;
  const double n_win = static_cast<double>(win * win);
  const double c1 = options_.c1();
  const double c2 = options_.c2();

  // Summed-area tables of x, y, x^2, y^2, xy over the image.
  WorkspaceScope scratch;
  const MomentTables sat = build_moment_tables(x_input, y_recon, h, w, scratch);

  double* alpha = nullptr;
  double* beta = nullptr;
  double* gamma = nullptr;
  if (grad_row != nullptr) {
    alpha = scratch.doubles(grid_rows * grid_cols);
    beta = scratch.doubles(grid_rows * grid_cols);
    gamma = scratch.doubles(grid_rows * grid_cols);
  }

  // One window row at a time: the first loop computes every window's value
  // (independent iterations, so it vectorises), the second adds them to the
  // running sum in ascending (row, column) order. The gradient pass
  // recomputes the same terms for the per-window coefficients.
  double* row_values = scratch.doubles(grid_cols);
  double ssim_acc = 0.0;
  for (int64_t gr = 0; gr < grid_rows; ++gr) {
    const int64_t y0 = gr * stride;
    window_row(sat, w, y0, win, stride, grid_cols,
               [&](const MomentSums& sum) { return window_terms(sum, n_win, c1, c2).ssim(); },
               row_values);
    for (int64_t gc = 0; gc < grid_cols; ++gc) ssim_acc += row_values[gc];
    if (grad_row == nullptr) continue;
    for (int64_t gc = 0; gc < grid_cols; ++gc) {
      const WindowTerms t = window_terms(window_sums(sat, w, y0, gc * stride, win), n_win, c1, c2);
      const double term = 2.0 / (n_win * t.b1 * t.b1 * t.b2 * t.b2);
      const int64_t g = gr * grid_cols + gc;
      beta[g] = term * t.a1 * t.b1 * t.b2;
      gamma[g] = -term * t.a1 * t.a2 * t.b1;
      alpha[g] =
          term * (t.mu_x * t.b1 * t.b2 * (t.a2 - t.a1) + t.mu_y * t.a1 * t.a2 * (t.b1 - t.b2));
    }
  }
  const double window_count = static_cast<double>(grid_rows * grid_cols);
  const double mean_ssim_value = ssim_acc / window_count;

  if (grad_row != nullptr) {
    // Accumulate per-pixel sums of alpha/beta/gamma over covering windows
    // with summed-area tables over the window grid.
    const int64_t gsat_size = (grid_rows + 1) * (grid_cols + 1);
    double* sat_a = scratch.doubles(gsat_size);
    double* sat_b = scratch.doubles(gsat_size);
    double* sat_g = scratch.doubles(gsat_size);
    build_summed_area(alpha, grid_rows, grid_cols, sat_a);
    build_summed_area(beta, grid_rows, grid_cols, sat_b);
    build_summed_area(gamma, grid_rows, grid_cols, sat_g);

    for (int64_t py = 0; py < h; ++py) {
      const int64_t r0 = std::max<int64_t>(0, ceil_div(py - win + 1, stride));
      const int64_t r1 = std::min(grid_rows - 1, py / stride);
      if (r0 > r1) continue;
      for (int64_t px = 0; px < w; ++px) {
        const int64_t q0 = std::max<int64_t>(0, ceil_div(px - win + 1, stride));
        const int64_t q1 = std::min(grid_cols - 1, px / stride);
        if (q0 > q1) continue;
        const double a_sum = summed_area_rect(sat_a, grid_cols, r0, q0, r1 + 1, q1 + 1);
        const double b_sum = summed_area_rect(sat_b, grid_cols, r0, q0, r1 + 1, q1 + 1);
        const double g_sum = summed_area_rect(sat_g, grid_cols, r0, q0, r1 + 1, q1 + 1);
        const int64_t k = py * w + px;
        const double d_mean_ssim =
            (a_sum + b_sum * x_input[k] + g_sum * y_recon[k]) / window_count;
        grad_row[k] += static_cast<float>(d_mean_ssim);
      }
    }
  }
  return mean_ssim_value;
}

double SsimLoss::value(const Tensor& prediction, const Tensor& target) const {
  validate_batch(prediction, target);
  const int64_t batch = prediction.dim(0);
  const int64_t dim = height_ * width_;
  // Per-sample SSIM in parallel; the final reduction runs in ascending
  // sample order, which is exactly the serial path's association.
  std::vector<double> per_sample(static_cast<size_t>(batch));
  parallel::parallel_for(0, batch, 1, [&](int64_t n_begin, int64_t n_end) {
    for (int64_t n = n_begin; n < n_end; ++n) {
      per_sample[static_cast<size_t>(n)] =
          1.0 - sample_ssim(prediction.data() + n * dim, target.data() + n * dim, nullptr);
    }
  });
  double acc = 0.0;
  for (int64_t n = 0; n < batch; ++n) acc += per_sample[static_cast<size_t>(n)];
  return acc / static_cast<double>(batch);
}

Tensor SsimLoss::gradient(const Tensor& prediction, const Tensor& target) const {
  validate_batch(prediction, target);
  const int64_t batch = prediction.dim(0);
  const int64_t dim = height_ * width_;
  // grad of L = (1/B) sum (1 - meanSSIM) is -(1/B) * dmeanSSIM/dy. Each
  // sample writes a disjoint row of `grad`, so the batch fans out cleanly.
  Tensor grad(prediction.shape());
  const float scale = -1.0f / static_cast<float>(batch);
  parallel::parallel_for(0, batch, 1, [&](int64_t n_begin, int64_t n_end) {
    std::vector<float> sample_grad(static_cast<size_t>(dim));
    for (int64_t n = n_begin; n < n_end; ++n) {
      std::fill(sample_grad.begin(), sample_grad.end(), 0.0f);
      sample_ssim(prediction.data() + n * dim, target.data() + n * dim, sample_grad.data());
      float* out = grad.data() + n * dim;
      for (int64_t k = 0; k < dim; ++k) out[k] = scale * sample_grad[static_cast<size_t>(k)];
    }
  });
  return grad;
}

double SsimLoss::mean_ssim(const Tensor& prediction_row, const Tensor& target_row) const {
  if (prediction_row.numel() != height_ * width_ || target_row.numel() != height_ * width_) {
    throw std::invalid_argument("SsimLoss::mean_ssim: expected " + std::to_string(height_ * width_) +
                                " elements");
  }
  return sample_ssim(prediction_row.data(), target_row.data(), nullptr);
}

}  // namespace salnov::nn
