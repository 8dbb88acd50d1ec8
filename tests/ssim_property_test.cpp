// Property-based sweeps over the SSIM metric itself: invariants from Wang &
// Bovik's definition checked across window sizes, strides, and image
// content, plus consistency between the standalone metric and the
// differentiable loss.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "image/transforms.hpp"
#include "metrics/ssim.hpp"
#include "nn/ssim_loss.hpp"
#include "prop.hpp"
#include "tensor/rng.hpp"

namespace salnov {
namespace {

Image random_image(int64_t h, int64_t w, Rng& rng, double lo = 0.0, double hi = 1.0) {
  return Image(h, w, rng.uniform_tensor({h * w}, lo, hi));
}

Image random_image(int64_t h, int64_t w, uint64_t seed, double lo = 0.0, double hi = 1.0) {
  Rng rng(seed);
  return random_image(h, w, rng, lo, hi);
}

using SsimCase = std::tuple<int, int>;  // window, stride

class SsimMetricSweep : public ::testing::TestWithParam<SsimCase> {
 protected:
  SsimOptions options() const {
    SsimOptions o;
    o.window = std::get<0>(GetParam());
    o.stride = std::get<1>(GetParam());
    return o;
  }
};

TEST_P(SsimMetricSweep, IdentityScoresOne) {
  const SsimOptions o = options();
  prop::for_all<double>(
      "ssim(x, x) == 1",
      [&o](Rng& rng) {
        const Image img = random_image(24, 30, rng);
        return ssim(img, img, o);
      },
      [](double s) { return std::abs(s - 1.0) <= 1e-9; }, {20, 1});
}

TEST_P(SsimMetricSweep, SymmetricInArguments) {
  const SsimOptions o = options();
  prop::for_all<double>(
      "ssim(a, b) == ssim(b, a)",
      [&o](Rng& rng) {
        const Image a = random_image(24, 30, rng);
        const Image b = random_image(24, 30, rng);
        return ssim(a, b, o) - ssim(b, a, o);
      },
      [](double gap) { return std::abs(gap) <= 1e-12; }, {20, 2});
}

TEST_P(SsimMetricSweep, BoundedByOne) {
  const SsimOptions o = options();
  prop::for_all<double>(
      "ssim in [-1, 1]",
      [&o](Rng& rng) {
        const Image a = random_image(24, 30, rng);
        const Image b = random_image(24, 30, rng);
        return ssim(a, b, o);
      },
      [](double s) { return s >= -1.0 && s <= 1.0 + 1e-12; }, {40, 10});
}

TEST_P(SsimMetricSweep, DecreasesWithNoiseLevel) {
  const Image base = random_image(24, 30, 4, 0.3, 0.7);
  double previous = 1.1;
  for (double sigma : {0.01, 0.05, 0.15, 0.4}) {
    Rng rng(5);
    const double s = ssim(base, add_gaussian_noise(base, sigma, rng), options());
    EXPECT_LT(s, previous);
    previous = s;
  }
}

TEST_P(SsimMetricSweep, InvariantToGlobalIntensityFlip) {
  // SSIM(x, y) = SSIM(1-x, 1-y): complementing both images preserves all
  // central moments and flips means symmetrically about 1/2... (the
  // luminance term is not exactly invariant, so allow a loose tolerance).
  const Image a = random_image(24, 30, 6, 0.2, 0.8);
  Image b = a;
  Rng rng(7);
  b = add_gaussian_noise(b, 0.1, rng);
  Image a_flip = a;
  a_flip.tensor().apply([](float v) { return 1.0f - v; });
  Image b_flip = b;
  b_flip.tensor().apply([](float v) { return 1.0f - v; });
  EXPECT_NEAR(ssim(a, b, options()), ssim(a_flip, b_flip, options()), 0.05);
}

TEST_P(SsimMetricSweep, MetricMatchesLossComplement) {
  const int64_t h = 24, w = 30;
  const Image a = random_image(h, w, 8);
  const Image b = random_image(h, w, 9);
  SsimOptions o = options();
  nn::SsimLoss loss(h, w, o);
  const double via_loss = 1.0 - loss.value(b.flattened().reshape({1, h * w}),
                                           a.flattened().reshape({1, h * w}));
  EXPECT_NEAR(via_loss, ssim(b, a, o), 1e-6);
}

TEST_P(SsimMetricSweep, MapAveragesToMeanSsim) {
  const Image a = random_image(24, 30, 10);
  const Image b = random_image(24, 30, 11);
  const SsimOptions o = options();
  const Image map = ssim_map(a, b, o);
  EXPECT_NEAR(map.tensor().mean(), ssim(a, b, o), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Grid, SsimMetricSweep,
                         ::testing::Values(SsimCase{3, 1}, SsimCase{5, 2}, SsimCase{7, 1},
                                           SsimCase{11, 1}, SsimCase{11, 4}),
                         [](const ::testing::TestParamInfo<SsimCase>& info) {
                           std::string name = "w";
                           name.append(std::to_string(std::get<0>(info.param))).append("s");
                           return name.append(std::to_string(std::get<1>(info.param)));
                         });

// ---------------------------------------------------------------------------
// Perceptual-ordering properties that motivate the paper's metric choice.

TEST(SsimPerception, BrightnessBeatsNoiseAtEveryMatchedMse) {
  // The Fig. 3 property as a sweep: at any matched MSE target, SSIM ranks
  // the brightness shift above the noise.
  Image base(30, 60);
  for (int64_t y = 0; y < 30; ++y) {
    for (int64_t x = 0; x < 60; ++x) {
      base(y, x) = 0.25f + 0.5f * static_cast<float>(x + y) / 88.0f;
    }
  }
  for (double target : {30.0, 90.0, 200.0}) {
    Rng rng(12);
    const double sigma = calibrate_noise_for_mse(base, target, rng);
    const double delta = calibrate_brightness_for_mse(base, target);
    Rng replay(12);
    const double s_noise = ssim(base, add_gaussian_noise(base, sigma, replay));
    const double s_bright = ssim(base, adjust_brightness(base, delta));
    EXPECT_GT(s_bright, s_noise) << "at target MSE " << target;
  }
}

TEST(SsimPerception, StructuralShuffleDestroysSimilarity) {
  // Shuffling pixels preserves the global histogram (so global MSE-style
  // stats change little) but destroys structure; SSIM must fall sharply.
  const Image base = random_image(24, 30, 13, 0.3, 0.7);
  Image shuffled = base;
  Rng rng(14);
  std::vector<int64_t> order(static_cast<size_t>(base.numel()));
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int64_t>(i);
  rng.shuffle(order);
  for (int64_t i = 0; i < base.numel(); ++i) {
    shuffled.tensor()[i] = base.tensor()[order[static_cast<size_t>(i)]];
  }
  EXPECT_LT(ssim(base, shuffled), 0.3);
}

TEST(SsimPerception, SmallTranslationDegradesGracefully) {
  Image base(30, 60);
  for (int64_t y = 0; y < 30; ++y) {
    for (int64_t x = 0; x < 60; ++x) {
      base(y, x) = 0.5f + 0.4f * std::sin(static_cast<float>(x) / 5.0f);
    }
  }
  const double s1 = ssim(base, translate(base, 0, 1));
  const double s4 = ssim(base, translate(base, 0, 4));
  EXPECT_GT(s1, s4);  // larger shifts are less similar
  EXPECT_GT(s1, 0.5);
}

}  // namespace
}  // namespace salnov
