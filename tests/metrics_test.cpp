// Unit tests for metrics: MSE, SSIM, histograms, ECDF, ROC/AUC.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "image/transforms.hpp"
#include "metrics/ecdf.hpp"
#include "metrics/histogram.hpp"
#include "metrics/mse.hpp"
#include "metrics/roc.hpp"
#include "metrics/ssim.hpp"
#include "tensor/rng.hpp"

namespace salnov {
namespace {

Image noise_image(int64_t h, int64_t w, uint64_t seed) {
  Rng rng(seed);
  Image img(h, w);
  for (int64_t i = 0; i < img.numel(); ++i) {
    img.tensor()[i] = static_cast<float>(rng.uniform());
  }
  return img;
}

TEST(Mse, ZeroForIdenticalTensors) {
  Tensor t({4}, {1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(mse(t, t), 0.0);
}

TEST(Mse, KnownValue) {
  Tensor a({2}, {0, 0});
  Tensor b({2}, {3, 4});
  EXPECT_DOUBLE_EQ(mse(a, b), (9.0 + 16.0) / 2.0);
}

TEST(Mse, ShapeMismatchThrows) { EXPECT_THROW(mse(Tensor({2}), Tensor({3})), std::invalid_argument); }

TEST(Mse, EmptyThrows) { EXPECT_THROW(mse(Tensor(Shape{0}), Tensor(Shape{0})), std::invalid_argument); }

TEST(Mse, Scale255MatchesUnitMse) {
  const Image a = noise_image(12, 12, 1);
  const Image b = noise_image(12, 12, 2);
  EXPECT_NEAR(mse_255(a, b), mse(a, b) * 255.0 * 255.0, 1e-9);
}

TEST(Ssim, IdenticalImagesScoreOne) {
  const Image img = noise_image(16, 20, 3);
  EXPECT_NEAR(ssim(img, img), 1.0, 1e-9);
}

TEST(Ssim, Symmetric) {
  const Image a = noise_image(16, 16, 4);
  const Image b = noise_image(16, 16, 5);
  EXPECT_NEAR(ssim(a, b), ssim(b, a), 1e-12);
}

TEST(Ssim, RangeWithinMinusOneToOne) {
  const Image a = noise_image(14, 14, 6);
  Image inverted = a;
  inverted.tensor().apply([](float v) { return 1.0f - v; });
  const double s = ssim(a, inverted);
  EXPECT_GE(s, -1.0);
  EXPECT_LE(s, 1.0);
  EXPECT_LT(s, 0.1);  // anti-correlated content scores low
}

TEST(Ssim, UnrelatedImagesScoreNearZero) {
  const Image a = noise_image(22, 22, 7);
  const Image b = noise_image(22, 22, 8);
  EXPECT_LT(std::abs(ssim(a, b)), 0.25);
}

TEST(Ssim, BrightnessShiftScoresHigherThanNoiseAtEqualMse) {
  // The paper's Fig. 3 argument: engineer noise and brightness to the same
  // pixel-wise MSE; SSIM must rank the brightness-shifted image as far more
  // similar than the noisy one. The effect requires a mostly smooth base
  // image (like a road scene), where noise dominates the local structure.
  Image base(40, 60);
  for (int64_t y = 0; y < 40; ++y) {
    for (int64_t x = 0; x < 60; ++x) {
      base(y, x) = 0.3f + 0.4f * static_cast<float>(x + y) / 98.0f;
    }
  }
  const double target_mse = 90.0;
  const double delta = calibrate_brightness_for_mse(base, target_mse);
  Rng rng(9);
  const double sigma = calibrate_noise_for_mse(base, target_mse, rng);
  Rng replay(9);
  const Image brightened = adjust_brightness(base, delta);
  const Image noisy = add_gaussian_noise(base, sigma, replay);

  EXPECT_NEAR(mse_255(base, brightened), mse_255(base, noisy), 25.0);
  EXPECT_GT(ssim(base, brightened), ssim(base, noisy) + 0.2);
}

TEST(Ssim, SizeMismatchThrows) {
  EXPECT_THROW(ssim(noise_image(16, 16, 1), noise_image(16, 18, 1)), std::invalid_argument);
}

TEST(Ssim, ImageSmallerThanWindowThrows) {
  EXPECT_THROW(ssim(noise_image(8, 8, 1), noise_image(8, 8, 2)), std::invalid_argument);
}

TEST(Ssim, BadOptionsThrow) {
  SsimOptions options;
  options.stride = 0;
  EXPECT_THROW(ssim(noise_image(16, 16, 1), noise_image(16, 16, 2), options), std::invalid_argument);
}

TEST(Ssim, StrideReducesWindowCountButNotMuchTheValue) {
  const Image a = noise_image(32, 32, 10);
  Image b = a;
  Rng rng(11);
  b = add_gaussian_noise(b, 0.05, rng);
  SsimOptions dense;
  SsimOptions strided;
  strided.stride = 4;
  EXPECT_NEAR(ssim(a, b, dense), ssim(a, b, strided), 0.05);
}

TEST(Ssim, MapHasExpectedShape) {
  const Image a = noise_image(20, 30, 12);
  const Image map = ssim_map(a, a);
  EXPECT_EQ(map.height(), 20 - 11 + 1);
  EXPECT_EQ(map.width(), 30 - 11 + 1);
  EXPECT_NEAR(map(0, 0), 1.0f, 1e-6f);
}

TEST(Ssim, WindowStatsMatchDirectComputation) {
  const Image x = noise_image(12, 12, 13);
  const Image y = noise_image(12, 12, 14);
  const WindowStats s = window_stats(x, y, 1, 1, 11);
  double mu_x = 0.0;
  for (int64_t dy = 0; dy < 11; ++dy) {
    for (int64_t dx = 0; dx < 11; ++dx) mu_x += x(1 + dy, 1 + dx);
  }
  mu_x /= 121.0;
  EXPECT_NEAR(s.mu_x, mu_x, 1e-9);
  EXPECT_GE(s.var_x, 0.0);
  EXPECT_GE(s.var_y, 0.0);
}

TEST(Ssim, ConstantWindowsGiveOneWhenEqual) {
  Image a(12, 12);
  a.tensor().fill(0.5f);
  EXPECT_NEAR(ssim(a, a), 1.0, 1e-9);
}

TEST(Histogram, BinsAndCounts) {
  Histogram h(0.0, 1.0, 4);
  h.add(0.1);
  h.add(0.3);
  h.add(0.3);
  h.add(0.9);
  EXPECT_EQ(h.total(), 4);
  EXPECT_EQ(h.count(0), 1);
  EXPECT_EQ(h.count(1), 2);
  EXPECT_EQ(h.count(3), 1);
}

TEST(Histogram, OutOfRangeClampedToEdgeBins) {
  Histogram h(0.0, 1.0, 2);
  h.add(-5.0);
  h.add(7.0);
  EXPECT_EQ(h.count(0), 1);
  EXPECT_EQ(h.count(1), 1);
}

TEST(Histogram, BinCenters) {
  Histogram h(0.0, 1.0, 4);
  EXPECT_NEAR(h.bin_center(0), 0.125, 1e-12);
  EXPECT_NEAR(h.bin_center(3), 0.875, 1e-12);
  EXPECT_THROW(h.bin_center(4), std::out_of_range);
}

TEST(Histogram, FrequencySumsToOne) {
  Histogram h(0.0, 1.0, 8);
  Rng rng(15);
  for (int i = 0; i < 100; ++i) h.add(rng.uniform());
  double total = 0.0;
  for (int64_t b = 0; b < h.bins(); ++b) total += h.frequency(b);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Histogram, InvalidConstructionThrows) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(DistributionOverlap, IdenticalSamplesOverlapFully) {
  std::vector<double> a{1, 2, 3, 4, 5};
  EXPECT_NEAR(distribution_overlap(a, a), 1.0, 1e-9);
}

TEST(DistributionOverlap, DisjointSamplesNoOverlap) {
  std::vector<double> a{1, 2, 3};
  std::vector<double> b{10, 11, 12};
  EXPECT_NEAR(distribution_overlap(a, b), 0.0, 1e-9);
}

TEST(DistributionOverlap, EmptyThrows) {
  std::vector<double> a{1};
  EXPECT_THROW(distribution_overlap(a, {}), std::invalid_argument);
}

TEST(Ecdf, CdfStepsThroughSamples) {
  EmpiricalCdf cdf({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf.cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.cdf(2.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf.cdf(10.0), 1.0);
}

TEST(Ecdf, QuantileInterpolates) {
  EmpiricalCdf cdf({0.0, 1.0});
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 1.0);
}

TEST(Ecdf, QuantileOfSingleSample) {
  EmpiricalCdf cdf({7.0});
  EXPECT_DOUBLE_EQ(cdf.quantile(0.3), 7.0);
}

TEST(Ecdf, NinetyNinthPercentileNearTail) {
  std::vector<double> samples;
  for (int i = 0; i < 1000; ++i) samples.push_back(static_cast<double>(i));
  EXPECT_NEAR(quantile(samples, 0.99), 989.0, 1.0);
}

TEST(Ecdf, InvalidInputsThrow) {
  EXPECT_THROW(EmpiricalCdf({}), std::invalid_argument);
  EmpiricalCdf cdf({1.0});
  EXPECT_THROW(cdf.quantile(1.5), std::invalid_argument);
}

TEST(Ecdf, NonFiniteSamplesAreExcludedFromQuantileMath) {
  // Regression: a NaN inside std::sort is undefined behaviour (it breaks
  // strict weak ordering), and an Inf would silently stretch the tail. The
  // ECDF must drop non-finite samples before any order statistics.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EmpiricalCdf cdf({1.0, nan, 2.0, inf, 3.0, -inf, 4.0});
  ASSERT_EQ(cdf.samples().size(), 4u);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 4.0) << "Inf must not become the tail";
  EXPECT_DOUBLE_EQ(cdf.cdf(2.0), 0.5);
}

TEST(Ecdf, AllNonFiniteThrows) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(EmpiricalCdf({nan, nan}), std::invalid_argument);
}

TEST(Ecdf, SaveLoadRoundTripsExactly) {
  EmpiricalCdf cdf({0.25, -1.5, 3.75, 0.25});
  std::stringstream buffer;
  cdf.save(buffer);
  const EmpiricalCdf loaded = EmpiricalCdf::load(buffer);
  EXPECT_EQ(loaded.samples(), cdf.samples());
  EXPECT_DOUBLE_EQ(loaded.quantile(0.99), cdf.quantile(0.99));
}

TEST(Mean, AveragesSamplesAndRejectsEmptyInput) {
  std::vector<double> samples{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(samples), 5.0);
  EXPECT_THROW(mean({}), std::invalid_argument);
}

TEST(Auc, PerfectSeparationScoresOne) {
  std::vector<double> novel{5, 6, 7};
  std::vector<double> target{1, 2, 3};
  EXPECT_DOUBLE_EQ(auc_high_is_positive(novel, target), 1.0);
  EXPECT_DOUBLE_EQ(auc_low_is_positive(target, novel), 1.0);
}

TEST(Auc, ChanceLevelForIdenticalDistributions) {
  std::vector<double> a{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(auc_high_is_positive(a, a), 0.5);
}

TEST(Auc, TiesCountHalf) {
  std::vector<double> pos{1.0};
  std::vector<double> neg{1.0};
  EXPECT_DOUBLE_EQ(auc_high_is_positive(pos, neg), 0.5);
}

TEST(Auc, EmptyClassThrows) {
  EXPECT_THROW(auc_high_is_positive({}, {1.0}), std::invalid_argument);
}

TEST(Roc, RatesAtThresholdHigh) {
  std::vector<double> novel{0.8, 0.9};
  std::vector<double> target{0.1, 0.2, 0.85};
  const DetectionRates r = rates_at_threshold_high(novel, target, 0.5);
  EXPECT_DOUBLE_EQ(r.true_positive_rate, 1.0);
  EXPECT_NEAR(r.false_positive_rate, 1.0 / 3.0, 1e-12);
}

TEST(Roc, RatesAtThresholdLow) {
  std::vector<double> novel{0.05, 0.2};
  std::vector<double> target{0.7, 0.8};
  const DetectionRates r = rates_at_threshold_low(novel, target, 0.5);
  EXPECT_DOUBLE_EQ(r.true_positive_rate, 1.0);
  EXPECT_DOUBLE_EQ(r.false_positive_rate, 0.0);
}

}  // namespace
}  // namespace salnov
