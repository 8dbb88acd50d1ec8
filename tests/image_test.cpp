// Unit tests for the image substrate: Image/RgbImage, PNM IO, transforms.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "image/image.hpp"
#include "image/image_io.hpp"
#include "image/transforms.hpp"
#include "metrics/mse.hpp"
#include "tensor/rng.hpp"

namespace salnov {
namespace {

Image gradient_image(int64_t h, int64_t w) {
  Image img(h, w);
  for (int64_t y = 0; y < h; ++y) {
    for (int64_t x = 0; x < w; ++x) {
      img(y, x) = static_cast<float>(x + y) / static_cast<float>(h + w - 2);
    }
  }
  return img;
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Image, ConstructsBlack) {
  Image img(4, 6);
  EXPECT_EQ(img.height(), 4);
  EXPECT_EQ(img.width(), 6);
  EXPECT_EQ(img(3, 5), 0.0f);
}

TEST(Image, PixelAccess) {
  Image img(2, 2);
  img(1, 0) = 0.5f;
  EXPECT_FLOAT_EQ(img(1, 0), 0.5f);
}

TEST(Image, AtClampedHandlesOutOfRange) {
  Image img(2, 2);
  img(0, 0) = 0.25f;
  img(1, 1) = 0.75f;
  EXPECT_FLOAT_EQ(img.at_clamped(-5, -5), 0.25f);
  EXPECT_FLOAT_EQ(img.at_clamped(9, 9), 0.75f);
}

TEST(Image, FromTensorValidatesSize) {
  EXPECT_THROW(Image(2, 3, Tensor({5})), std::invalid_argument);
  const Image img(2, 3, Tensor({6}, {0, 1, 2, 3, 4, 5}));
  EXPECT_FLOAT_EQ(img(1, 2), 5.0f);
}

TEST(Image, FlattenedAndNchwShapes) {
  Image img(3, 4);
  EXPECT_EQ(img.flattened().shape(), (Shape{12}));
  EXPECT_EQ(img.as_nchw().shape(), (Shape{1, 1, 3, 4}));
}

TEST(Image, Clamp01) {
  Image img(1, 3, Tensor({3}, {-0.5f, 0.5f, 1.5f}));
  img.clamp01();
  EXPECT_FLOAT_EQ(img(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(img(0, 1), 0.5f);
  EXPECT_FLOAT_EQ(img(0, 2), 1.0f);
}

TEST(Image, NormalizeMinmax) {
  Image img(1, 3, Tensor({3}, {2.0f, 4.0f, 6.0f}));
  img.normalize_minmax();
  EXPECT_FLOAT_EQ(img(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(img(0, 1), 0.5f);
  EXPECT_FLOAT_EQ(img(0, 2), 1.0f);
}

TEST(Image, NormalizeMinmaxConstantBecomesZero) {
  Image img(1, 3, Tensor({3}, {0.7f, 0.7f, 0.7f}));
  img.normalize_minmax();
  EXPECT_FLOAT_EQ(img(0, 2), 0.0f);
}

/// normalize_minmax as it was written over std::min_element and
/// std::max_element, kept as the oracle for its one-pass extrema.
Tensor scan_normalize_minmax(Tensor pixels) {
  const float lo = *std::min_element(pixels.data(), pixels.data() + pixels.numel());
  const float hi = *std::max_element(pixels.data(), pixels.data() + pixels.numel());
  const float range = hi - lo;
  if (range <= 0.0f) {
    pixels.fill(0.0f);
  } else {
    pixels.apply([lo, range](float v) { return (v - lo) / range; });
  }
  return pixels;
}

void expect_matches_scan(const std::vector<float>& values, const std::string& what) {
  const auto count = static_cast<int64_t>(values.size());
  Image img(1, count, Tensor({count}, values));
  img.normalize_minmax();
  const Tensor want = scan_normalize_minmax(Tensor({count}, values));
  EXPECT_EQ(std::memcmp(img.tensor().data(), want.data(), sizeof(float) * values.size()), 0)
      << what;
}

/// `count` values in [lo, hi] with `special` written at `positions`.
std::vector<float> with_values_at(int64_t count, float lo, float hi,
                                  const std::vector<std::pair<int64_t, float>>& special) {
  Rng rng(static_cast<uint64_t>(count));
  std::vector<float> values(static_cast<size_t>(count));
  for (float& v : values) v = static_cast<float>(rng.uniform(lo, hi));
  for (const auto& [at, value] : special) values[static_cast<size_t>(at)] = value;
  return values;
}

TEST(Image, NormalizeMinmaxMatchesTheOrderedScans) {
  // Sizes span whole 16-lane blocks and tails; specials sit in the first
  // pixel, in other lanes and in the tail.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const int64_t count : {1, 5, 16, 37, 160}) {
    const int64_t last = count - 1;
    const std::string n = " (" + std::to_string(count) + " pixels)";
    expect_matches_scan(with_values_at(count, 0.2f, 0.9f, {{0, nan}}), "NaN first" + n);
    expect_matches_scan(with_values_at(count, 0.2f, 0.9f, {{last / 2, nan}, {last, nan}}),
                        "NaN later" + n);
    expect_matches_scan(with_values_at(count, 0.2f, 0.9f, {{last, -0.0f}, {last / 3, 0.0f}}),
                        "+-0 at the minimum, +0 first" + n);
    expect_matches_scan(with_values_at(count, 0.2f, 0.9f, {{last, 0.0f}, {last / 3, -0.0f}}),
                        "+-0 at the minimum, -0 first" + n);
    expect_matches_scan(with_values_at(count, -0.9f, -0.2f, {{last, -0.0f}, {last / 3, 0.0f}}),
                        "+-0 at the maximum, +0 first" + n);
    expect_matches_scan(with_values_at(count, -0.9f, -0.2f, {{last, 0.0f}, {last / 3, -0.0f}}),
                        "+-0 at the maximum, -0 first" + n);
    expect_matches_scan(with_values_at(count, 0.2f, 0.9f, {{last, -0.0f}}),
                        "-0 alone at the minimum" + n);
    expect_matches_scan(std::vector<float>(static_cast<size_t>(count), 0.7f), "all equal" + n);
    expect_matches_scan(with_values_at(count, -3.0f, -1.0f, {}), "all negative" + n);
  }
  expect_matches_scan({nan}, "one NaN pixel");
  expect_matches_scan({-0.0f}, "one -0 pixel");
}

TEST(Image, NormalizeMinmaxMatchesTheOrderedScansOnRandomMaps) {
  const float specials[] = {0.0f, -0.0f, std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity()};
  Rng rng(31);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<float> values(static_cast<size_t>(rng.uniform_int(1, 100)));
    const double special_rate = rng.uniform(0.0, 0.5);
    for (float& v : values) {
      v = rng.bernoulli(special_rate) ? specials[rng.uniform_int(0, 4)]
                                      : static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    expect_matches_scan(values, "trial " + std::to_string(trial));
  }
}

TEST(RgbImage, GrayscaleUsesLuminanceWeights) {
  RgbImage rgb(1, 1);
  rgb.set(0, 0, 1.0f, 0.0f, 0.0f);
  EXPECT_NEAR(rgb.to_grayscale()(0, 0), 0.299f, 1e-5f);
  rgb.set(0, 0, 0.0f, 1.0f, 0.0f);
  EXPECT_NEAR(rgb.to_grayscale()(0, 0), 0.587f, 1e-5f);
  rgb.set(0, 0, 0.0f, 0.0f, 1.0f);
  EXPECT_NEAR(rgb.to_grayscale()(0, 0), 0.114f, 1e-5f);
}

TEST(RgbImage, GrayscaleOfWhiteIsOne) {
  RgbImage rgb(2, 2);
  rgb.set(1, 1, 1.0f, 1.0f, 1.0f);
  EXPECT_NEAR(rgb.to_grayscale()(1, 1), 1.0f, 1e-5f);
}

TEST(ImageIo, PgmRoundTripPreservesPixels) {
  const Image img = gradient_image(8, 12);
  const std::string path = temp_path("salnov_test_roundtrip.pgm");
  write_pgm(path, img);
  const Image back = read_pgm(path);
  ASSERT_EQ(back.height(), 8);
  ASSERT_EQ(back.width(), 12);
  // 8-bit quantization bounds the error at 1/255 / 2.
  for (int64_t y = 0; y < 8; ++y) {
    for (int64_t x = 0; x < 12; ++x) EXPECT_NEAR(back(y, x), img(y, x), 0.5f / 255.0f + 1e-6f);
  }
  std::remove(path.c_str());
}

TEST(ImageIo, MissingFileThrows) { EXPECT_THROW(read_pgm("/nonexistent/x.pgm"), std::runtime_error); }

TEST(ImageIo, WrongMagicThrows) {
  const std::string path = temp_path("salnov_test_wrong_magic.pgm");
  std::ofstream(path, std::ios::binary) << "P6\n2 2\n255\n";
  EXPECT_THROW(read_pgm(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Transforms, ResizeIdentityWhenSameSize) {
  const Image img = gradient_image(6, 9);
  const Image out = resize_bilinear(img, 6, 9);
  for (int64_t y = 0; y < 6; ++y) {
    for (int64_t x = 0; x < 9; ++x) EXPECT_NEAR(out(y, x), img(y, x), 1e-5f);
  }
}

TEST(Transforms, ResizePreservesConstantImage) {
  Image img(4, 4);
  img.tensor().fill(0.37f);
  const Image out = resize_bilinear(img, 9, 13);
  for (int64_t y = 0; y < out.height(); ++y) {
    for (int64_t x = 0; x < out.width(); ++x) EXPECT_NEAR(out(y, x), 0.37f, 1e-5f);
  }
}

TEST(Transforms, ResizeDownscaleApproximatesMean) {
  const Image img = gradient_image(40, 40);
  const Image out = resize_bilinear(img, 10, 10);
  EXPECT_NEAR(out.mean(), img.mean(), 0.02f);
}

TEST(Transforms, ResizeRejectsBadSizes) {
  const Image img = gradient_image(4, 4);
  EXPECT_THROW(resize_bilinear(img, 0, 5), std::invalid_argument);
  EXPECT_THROW(resize_bilinear(Image(), 5, 5), std::invalid_argument);
}

TEST(Transforms, GaussianNoiseStatistics) {
  Image img(64, 64);
  img.tensor().fill(0.5f);
  Rng rng(3);
  const Image noisy = add_gaussian_noise(img, 0.1, rng);
  // Mean stays ~0.5, realized stddev ~0.1 (slightly reduced by clamping).
  EXPECT_NEAR(noisy.mean(), 0.5f, 0.01f);
  double var = 0.0;
  for (int64_t i = 0; i < noisy.numel(); ++i) {
    const double d = noisy.tensor()[i] - 0.5;
    var += d * d;
  }
  var /= static_cast<double>(noisy.numel());
  EXPECT_NEAR(std::sqrt(var), 0.1, 0.02);
}

TEST(Transforms, NoiseWithZeroStddevIsIdentity) {
  const Image img = gradient_image(5, 5);
  Rng rng(1);
  const Image out = add_gaussian_noise(img, 0.0, rng);
  EXPECT_LE(Tensor::max_abs_diff(out.tensor(), img.tensor()), 1e-7f);
}

TEST(Transforms, BrightnessShiftsAndClamps) {
  Image img(1, 2, Tensor({2}, {0.3f, 0.9f}));
  const Image out = adjust_brightness(img, 0.2);
  EXPECT_NEAR(out(0, 0), 0.5f, 1e-6f);
  EXPECT_NEAR(out(0, 1), 1.0f, 1e-6f);  // clamped
}

TEST(Transforms, ContrastAboutMean) {
  Image img(1, 2, Tensor({2}, {0.4f, 0.6f}));
  const Image out = adjust_contrast(img, 2.0);
  EXPECT_NEAR(out(0, 0), 0.3f, 1e-5f);
  EXPECT_NEAR(out(0, 1), 0.7f, 1e-5f);
}

TEST(Transforms, RotateZeroDegreesIsIdentity) {
  const Image img = gradient_image(7, 7);
  const Image out = rotate(img, 0.0);
  for (int64_t i = 0; i < img.numel(); ++i) EXPECT_NEAR(out.tensor()[i], img.tensor()[i], 1e-5f);
}

TEST(Transforms, Rotate90MovesCorner) {
  Image img(5, 5);
  img(0, 4) = 1.0f;  // top-right
  const Image out = rotate(img, 90.0);
  // CCW by 90 deg maps top-right to top-left.
  EXPECT_GT(out(0, 0), 0.5f);
}

TEST(Transforms, TranslateShiftsContent) {
  Image img(4, 4);
  img(1, 1) = 1.0f;
  const Image out = translate(img, 1, 2);
  EXPECT_FLOAT_EQ(out(2, 3), 1.0f);
}

TEST(Transforms, SaltPepperFractionRoughlyP) {
  Image img(100, 100);
  img.tensor().fill(0.5f);
  Rng rng(7);
  const Image out = add_salt_pepper_noise(img, 0.1, rng);
  int64_t flipped = 0;
  for (int64_t i = 0; i < out.numel(); ++i) {
    if (out.tensor()[i] != 0.5f) ++flipped;
  }
  EXPECT_NEAR(static_cast<double>(flipped) / static_cast<double>(out.numel()), 0.1, 0.02);
}

TEST(Transforms, SaltPepperRejectsBadP) {
  Image img(2, 2);
  Rng rng(1);
  EXPECT_THROW(add_salt_pepper_noise(img, 1.5, rng), std::invalid_argument);
}

TEST(Transforms, OccludePaintsRectangle) {
  Image img = gradient_image(6, 6);
  const Image out = occlude(img, 2, 2, 2, 2, 0.0f);
  EXPECT_FLOAT_EQ(out(2, 2), 0.0f);
  EXPECT_FLOAT_EQ(out(3, 3), 0.0f);
  EXPECT_EQ(out(0, 0), img(0, 0));
}

TEST(Transforms, OccludeClipsToImage) {
  Image img(3, 3);
  img.tensor().fill(0.5f);
  const Image out = occlude(img, 2, 2, 10, 10, 1.0f);
  EXPECT_FLOAT_EQ(out(2, 2), 1.0f);
  EXPECT_FLOAT_EQ(out(0, 0), 0.5f);
}

TEST(Transforms, CalibrateBrightnessHitsTargetMse) {
  const Image img = gradient_image(30, 50);
  const double target = 90.0;  // in 0-255^2 units, like the paper's Fig. 3
  const double delta = calibrate_brightness_for_mse(img, target);
  const double achieved = mse_255(img, adjust_brightness(img, delta));
  EXPECT_NEAR(achieved, target, 8.0);
}

TEST(Transforms, CalibrateNoiseHitsTargetMse) {
  const Image img = gradient_image(30, 50);
  Rng rng(11);
  const double target = 90.0;
  const double sigma = calibrate_noise_for_mse(img, target, rng);
  Rng replay(11);
  const double achieved = mse_255(img, add_gaussian_noise(img, sigma, replay));
  EXPECT_NEAR(achieved, target, 12.0);
}

}  // namespace
}  // namespace salnov
