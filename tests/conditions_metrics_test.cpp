// Tests for environmental-condition transforms (fog/dusk/rain), the
// fast SAT-based SSIM vs its reference implementation, the one-pass SSIM
// moment tables, and bootstrap AUC confidence intervals.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "image/transforms.hpp"
#include "metrics/roc.hpp"
#include "metrics/ssim.hpp"
#include "metrics/summed_area.hpp"
#include "nn/ssim_loss.hpp"
#include "roadsim/conditions.hpp"
#include "roadsim/outdoor_generator.hpp"
#include "roadsim/rasterizer.hpp"
#include "tensor/rng.hpp"

namespace salnov {
namespace {

roadsim::Sample sample_scene(uint64_t seed) {
  roadsim::OutdoorSceneGenerator gen;
  Rng rng(seed);
  return gen.generate(rng);
}

Image scene_gray(const roadsim::Sample& s, int64_t h = 60, int64_t w = 160) {
  return resize_bilinear(s.rgb.to_grayscale(), h, w);
}

// ---------------------------------------------------------------------------
// Fog.

TEST(Fog, ZeroDensityIsIdentity) {
  const auto s = sample_scene(1);
  const Image frame = scene_gray(s);
  const Image fogged = roadsim::apply_fog(frame, s.params, 0.0);
  EXPECT_LE(Tensor::max_abs_diff(fogged.tensor(), frame.tensor()), 1e-6f);
}

TEST(Fog, ThickensTowardHorizon) {
  const auto s = sample_scene(2);
  const Image frame = scene_gray(s);
  const float fog_color = 0.75f;
  const Image fogged = roadsim::apply_fog(frame, s.params, 2.0, fog_color);
  const roadsim::RoadGeometry geo(s.params, frame.height(), frame.width());
  // Just below the horizon the image should be closer to the fog color than
  // at the bottom row.
  const int64_t near_row = frame.height() - 2;
  const int64_t far_row = geo.horizon_row() + 2;
  double near_dist = 0.0, far_dist = 0.0;
  for (int64_t x = 0; x < frame.width(); ++x) {
    near_dist += std::abs(fogged(near_row, x) - fog_color);
    far_dist += std::abs(fogged(far_row, x) - fog_color);
  }
  EXPECT_LT(far_dist, near_dist);
}

TEST(Fog, HighDensityConvergesToFogColor) {
  const auto s = sample_scene(3);
  const Image frame = scene_gray(s);
  const Image fogged = roadsim::apply_fog(frame, s.params, 50.0, 0.6f);
  const roadsim::RoadGeometry geo(s.params, frame.height(), frame.width());
  for (int64_t x = 0; x < frame.width(); x += 13) {
    EXPECT_NEAR(fogged(geo.horizon_row(), x), 0.6f, 0.02f);
  }
}

TEST(Fog, SimilarityFallsMonotonicallyWithDensity) {
  const auto s = sample_scene(4);
  const Image frame = scene_gray(s);
  double previous = 1.1;
  for (double density : {0.2, 0.6, 1.2, 2.5}) {
    const double sim = ssim(frame, roadsim::apply_fog(frame, s.params, density));
    EXPECT_LT(sim, previous);
    previous = sim;
  }
}

TEST(Fog, NegativeDensityThrows) {
  const auto s = sample_scene(5);
  EXPECT_THROW(roadsim::apply_fog(scene_gray(s), s.params, -1.0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Dusk.

TEST(Dusk, ZeroSeverityIsIdentity) {
  const auto s = sample_scene(6);
  const Image frame = scene_gray(s);
  EXPECT_LE(Tensor::max_abs_diff(roadsim::apply_dusk(frame, 0.0).tensor(), frame.tensor()), 1e-6f);
}

TEST(Dusk, DarkensGlobally) {
  const auto s = sample_scene(7);
  const Image frame = scene_gray(s);
  const Image dark = roadsim::apply_dusk(frame, 0.7);
  EXPECT_LT(dark.mean(), frame.mean() * 0.75f);
}

TEST(Dusk, SeverityOutOfRangeThrows) {
  const auto s = sample_scene(8);
  EXPECT_THROW(roadsim::apply_dusk(scene_gray(s), 1.5), std::invalid_argument);
  EXPECT_THROW(roadsim::apply_dusk(scene_gray(s), -0.1), std::invalid_argument);
}

TEST(Dusk, PreservesRelativeBrightOrdering) {
  // Gamma lift keeps bright features bright relative to dark ones.
  Image frame(20, 20);
  frame(5, 5) = 0.9f;
  frame(10, 10) = 0.2f;
  const Image dark = roadsim::apply_dusk(frame, 0.5);
  EXPECT_GT(dark(5, 5), dark(10, 10));
}

// ---------------------------------------------------------------------------
// Rain.

TEST(Rain, ZeroStreaksOnlyReducesContrast) {
  const auto s = sample_scene(9);
  const Image frame = scene_gray(s);
  Rng rng(10);
  const Image rainy = roadsim::apply_rain(frame, 0, rng);
  EXPECT_NEAR(rainy.mean(), frame.mean(), 0.02f);
  // Contrast (stddev) strictly reduced.
  auto stddev_of = [](const Image& img) {
    const float mean = img.mean();
    double acc = 0.0;
    for (int64_t i = 0; i < img.numel(); ++i) {
      const double d = img.tensor()[i] - mean;
      acc += d * d;
    }
    return std::sqrt(acc / static_cast<double>(img.numel()));
  };
  EXPECT_LT(stddev_of(rainy), stddev_of(frame));
}

TEST(Rain, StreaksChangePixels) {
  const auto s = sample_scene(11);
  const Image frame = scene_gray(s);
  Rng rng(12);
  const Image rainy = roadsim::apply_rain(frame, 40, rng);
  EXPECT_GT(Tensor::max_abs_diff(rainy.tensor(), frame.tensor()), 0.1f);
  EXPECT_GE(rainy.min(), 0.0f);
  EXPECT_LE(rainy.max(), 1.0f);
}

TEST(Rain, DeterministicGivenRng) {
  const auto s = sample_scene(13);
  const Image frame = scene_gray(s);
  Rng a(14), b(14);
  EXPECT_EQ(roadsim::apply_rain(frame, 20, a).tensor(), roadsim::apply_rain(frame, 20, b).tensor());
}

TEST(Rain, NegativeCountThrows) {
  const auto s = sample_scene(15);
  Rng rng(16);
  EXPECT_THROW(roadsim::apply_rain(scene_gray(s), -1, rng), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Fast SSIM vs reference.

TEST(FastSsim, MatchesReferenceOnRandomImages) {
  Rng rng(17);
  for (int trial = 0; trial < 5; ++trial) {
    const Image a(40, 50, rng.uniform_tensor({2000}, 0.0, 1.0));
    const Image b(40, 50, rng.uniform_tensor({2000}, 0.0, 1.0));
    EXPECT_NEAR(ssim(a, b), ssim_reference(a, b), 1e-9);
  }
}

TEST(FastSsim, MatchesReferenceWithStrideAndWindow) {
  Rng rng(18);
  const Image a(30, 44, rng.uniform_tensor({30 * 44}, 0.0, 1.0));
  const Image b(30, 44, rng.uniform_tensor({30 * 44}, 0.0, 1.0));
  for (int64_t window : {5, 7, 11}) {
    for (int64_t stride : {1, 2, 3}) {
      SsimOptions options;
      options.window = window;
      options.stride = stride;
      EXPECT_NEAR(ssim(a, b, options), ssim_reference(a, b, options), 1e-9)
          << "window " << window << " stride " << stride;
    }
  }
}

TEST(FastSsim, MapMatchesReferencePerWindow) {
  Rng rng(19);
  const Image a(24, 24, rng.uniform_tensor({576}, 0.0, 1.0));
  const Image b(24, 24, rng.uniform_tensor({576}, 0.0, 1.0));
  const Image map = ssim_map(a, b);
  for (int64_t i = 0; i < map.height(); i += 3) {
    for (int64_t j = 0; j < map.width(); j += 3) {
      const double reference = ssim_from_stats(window_stats(a, b, i, j, 11), SsimOptions{});
      EXPECT_NEAR(map(i, j), reference, 1e-6);
    }
  }
}

// ---------------------------------------------------------------------------
// One-pass moment tables.

/// The five tables the way they were built before the one-pass builder: a
/// double grid per moment, each through build_summed_area.
std::vector<std::vector<double>> five_separate_tables(const Image& x, const Image& y) {
  const int64_t h = x.height(), w = x.width();
  std::vector<std::vector<double>> tables(5, std::vector<double>((h + 1) * (w + 1)));
  std::vector<double> grid(static_cast<size_t>(h * w));
  for (int t = 0; t < 5; ++t) {
    for (int64_t i = 0; i < h * w; ++i) {
      const double xv = x.tensor()[i];
      const double yv = y.tensor()[i];
      const double moments[5] = {xv, yv, xv * xv, yv * yv, xv * yv};
      grid[static_cast<size_t>(i)] = moments[t];
    }
    build_summed_area(grid.data(), h, w, tables[static_cast<size_t>(t)].data());
  }
  return tables;
}

Image filled(int64_t h, int64_t w, float value) {
  Image image(h, w);
  for (int64_t i = 0; i < h * w; ++i) image.tensor()[i] = value;
  return image;
}

TEST(MomentTables, OnePassBuildMatchesFiveSeparateBuilds) {
  Rng rng(41);
  for (const auto& [h, w] : std::vector<std::pair<int64_t, int64_t>>{
           {1, 1}, {1, 9}, {9, 1}, {7, 13}, {23, 31}, {60, 160}}) {
    const std::vector<std::pair<Image, Image>> pairs{
        {Image(h, w, rng.uniform_tensor({h * w}, 0.0, 1.0)),
         Image(h, w, rng.uniform_tensor({h * w}, 0.0, 1.0))},
        {filled(h, w, 0.1f), filled(h, w, 0.7f)},
        {filled(h, w, 0.0f), filled(h, w, 0.0f)}};
    for (size_t p = 0; p < pairs.size(); ++p) {
      const Image& x = pairs[p].first;
      const Image& y = pairs[p].second;
      const auto expected = five_separate_tables(x, y);
      WorkspaceScope scratch;
      const MomentTables t =
          build_moment_tables(x.tensor().data(), y.tensor().data(), h, w, scratch);
      const double* got[5] = {t.x, t.y, t.xx, t.yy, t.xy};
      for (int k = 0; k < 5; ++k) {
        EXPECT_EQ(std::memcmp(got[k], expected[static_cast<size_t>(k)].data(),
                              expected[static_cast<size_t>(k)].size() * sizeof(double)),
                  0)
            << "table " << k << ", image pair " << p << ", " << h << "x" << w;
      }
    }
  }
}

/// x uniform in [0, 1], y = 0.75 x + 0.25 noise: similar but not equal.
std::pair<Image, Image> related_pair(uint64_t seed, int64_t h, int64_t w) {
  Rng rng(seed);
  Image x(h, w, rng.uniform_tensor({h * w}, 0.0, 1.0));
  Image y(h, w);
  const Tensor noise = rng.uniform_tensor({h * w}, 0.0, 1.0);
  for (int64_t i = 0; i < h * w; ++i) y.tensor()[i] = 0.75f * x.tensor()[i] + 0.25f * noise[i];
  return {x, y};
}

TEST(MomentTables, SsimScoresKeepTheirPreviousValues) {
  // SsimLoss::mean_ssim (the detector's score) and metrics::ssim, recorded
  // from the five-table implementation; both must reproduce every bit.
  struct Case {
    int64_t window, stride;
    double mean_ssim, ssim;
  };
  const auto [x, y] = related_pair(71, 23, 31);
  const Case sweep[] = {
      {3, 1, 0x1.d1724617aca29p-1, 0x1.d1724617aca29p-1},
      {3, 2, 0x1.cf24117762ea4p-1, 0x1.cf24117762ea4p-1},
      {3, 3, 0x1.d09c51cd7494ap-1, 0x1.d09c51cd7494ap-1},
      {7, 1, 0x1.d6f44793e76fcp-1, 0x1.d6f44793e76fcp-1},
      {7, 2, 0x1.d6505c851d155p-1, 0x1.d6505c851d155p-1},
      {7, 3, 0x1.d643138b104ap-1, 0x1.d643138b104ap-1},
      {11, 1, 0x1.d6fbe01c0ad65p-1, 0x1.d6fbe01c0ad65p-1},
      {11, 2, 0x1.d678ac23bc5ddp-1, 0x1.d678ac23bc5ddp-1},
      {11, 3, 0x1.d67a069564475p-1, 0x1.d67a069564475p-1},
  };
  for (const Case& c : sweep) {
    SsimOptions options;
    options.window = c.window;
    options.stride = c.stride;
    const nn::SsimLoss loss(23, 31, options);
    EXPECT_EQ(loss.mean_ssim(y.tensor(), x.tensor()), c.mean_ssim)
        << "window " << c.window << " stride " << c.stride;
    EXPECT_EQ(ssim(x, y, options), c.ssim) << "window " << c.window << " stride " << c.stride;
  }

  // The paper's frame size and window.
  const auto [fx, fy] = related_pair(72, 60, 160);
  EXPECT_EQ(nn::SsimLoss(60, 160).mean_ssim(fy.tensor(), fx.tensor()), 0x1.d8e8af34ce606p-1);
  EXPECT_EQ(ssim(fx, fy), 0x1.d8e8af34ce606p-1);

  // Constant images: only metrics::ssim clamps the covariance to the
  // variances' Cauchy-Schwarz bound, so the two disagree in the last bits.
  const nn::SsimLoss small(16, 20);
  const Image low = filled(16, 20, 0.1f);
  const Image high = filled(16, 20, 0.7f);
  EXPECT_EQ(small.mean_ssim(low.tensor(), low.tensor()), 0x1.fffffffffffe2p-1);
  EXPECT_EQ(ssim(low, low), 1.0);
  EXPECT_EQ(small.mean_ssim(high.tensor(), low.tensor()), 0x1.1ede103d821c2p-2);
  EXPECT_EQ(ssim(low, high), 0x1.1ede103d8216cp-2);
}

// ---------------------------------------------------------------------------
// Bootstrap AUC confidence interval.

TEST(BootstrapCi, ContainsPointEstimate) {
  Rng rng(20);
  std::vector<double> pos, neg;
  for (int i = 0; i < 60; ++i) {
    pos.push_back(rng.normal(1.0, 1.0));
    neg.push_back(rng.normal(0.0, 1.0));
  }
  Rng boot(21);
  const ConfidenceInterval ci = bootstrap_auc_ci(pos, neg, boot, 500, 0.95);
  EXPECT_LE(ci.lower, ci.point);
  EXPECT_GE(ci.upper, ci.point);
  EXPECT_GT(ci.upper - ci.lower, 0.0);
}

TEST(BootstrapCi, TightForPerfectSeparation) {
  std::vector<double> pos{10, 11, 12, 13, 14, 15};
  std::vector<double> neg{0, 1, 2, 3, 4, 5};
  Rng boot(22);
  const ConfidenceInterval ci = bootstrap_auc_ci(pos, neg, boot, 300, 0.95);
  EXPECT_DOUBLE_EQ(ci.point, 1.0);
  EXPECT_DOUBLE_EQ(ci.lower, 1.0);
  EXPECT_DOUBLE_EQ(ci.upper, 1.0);
}

TEST(BootstrapCi, WiderAtHigherConfidence) {
  Rng rng(23);
  std::vector<double> pos, neg;
  for (int i = 0; i < 40; ++i) {
    pos.push_back(rng.normal(0.5, 1.0));
    neg.push_back(rng.normal(0.0, 1.0));
  }
  Rng boot_a(24), boot_b(24);
  const ConfidenceInterval narrow = bootstrap_auc_ci(pos, neg, boot_a, 800, 0.80);
  const ConfidenceInterval wide = bootstrap_auc_ci(pos, neg, boot_b, 800, 0.99);
  EXPECT_GE(wide.upper - wide.lower, narrow.upper - narrow.lower);
}

TEST(BootstrapCi, ValidatesArguments) {
  Rng rng(25);
  std::vector<double> a{1.0, 2.0};
  EXPECT_THROW(bootstrap_auc_ci(a, a, rng, 5), std::invalid_argument);
  EXPECT_THROW(bootstrap_auc_ci(a, a, rng, 100, 1.5), std::invalid_argument);
}

}  // namespace
}  // namespace salnov
