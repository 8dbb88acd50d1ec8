// Tests for the extension features: horizontal-flip augmentation and the
// umbrella header.
#include <gtest/gtest.h>

#include "salnov.hpp"

namespace salnov {
namespace {

Image random_image(int64_t h, int64_t w, uint64_t seed, double lo = 0.0, double hi = 1.0) {
  Rng rng(seed);
  return Image(h, w, rng.uniform_tensor({h * w}, lo, hi));
}

// ---------------------------------------------------------------------------
// Horizontal flip + mirror augmentation.

TEST(FlipHorizontal, ReversesColumns) {
  Image img(1, 3, Tensor({3}, {1.0f, 2.0f, 3.0f}));
  const Image out = flip_horizontal(img);
  EXPECT_FLOAT_EQ(out(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(out(0, 2), 1.0f);
}

TEST(FlipHorizontal, Involution) {
  const Image img = random_image(6, 9, 10);
  EXPECT_EQ(flip_horizontal(flip_horizontal(img)).tensor(), img.tensor());
}

TEST(MirrorAugmentation, DoublesDatasetAndNegatesSteering) {
  roadsim::OutdoorSceneGenerator gen;
  Rng rng(11);
  const auto ds = roadsim::DrivingDataset::generate(gen, 6, 30, 80, rng);
  const auto augmented = ds.with_mirrored();
  ASSERT_EQ(augmented.size(), 12);
  for (int64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(augmented.image(i).tensor(), ds.image(i).tensor());
    EXPECT_NEAR(augmented.steering(i + 6), -ds.steering(i), 1e-12);
    EXPECT_EQ(augmented.image(i + 6).tensor(), flip_horizontal(ds.image(i)).tensor());
    EXPECT_DOUBLE_EQ(augmented.params(i + 6).curvature, -ds.params(i).curvature);
  }
}

TEST(MirrorAugmentation, AugmentedTrainingImprovesSteering) {
  // With few scenes, mirroring should not hurt (and typically helps) the
  // steering fit; mainly this guards the label/image consistency end-to-end.
  roadsim::OutdoorSceneGenerator gen;
  Rng rng(12);
  const auto ds = roadsim::DrivingDataset::generate(gen, 40, 24, 48, rng);
  const auto test = roadsim::DrivingDataset::generate(gen, 20, 24, 48, rng);
  nn::Sequential model = driving::build_pilotnet(driving::PilotNetConfig::tiny(24, 48), rng);
  driving::SteeringTrainOptions options;
  options.epochs = 15;
  driving::train_steering_model(model, ds.with_mirrored(), options, rng);
  EXPECT_LT(driving::steering_mae(model, test), 0.35);
}

}  // namespace
}  // namespace salnov
