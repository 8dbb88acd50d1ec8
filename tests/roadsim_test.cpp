// Unit tests for the scene generators and dataset container.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "roadsim/dataset.hpp"
#include "roadsim/indoor_generator.hpp"
#include "roadsim/outdoor_generator.hpp"
#include "roadsim/rasterizer.hpp"
#include "roadsim/scene.hpp"

namespace salnov::roadsim {
namespace {

TEST(Scene, SteeringFollowsCurvature) {
  SceneParams straight;
  EXPECT_DOUBLE_EQ(steering_for_scene(straight), 0.0);
  SceneParams right = straight;
  right.curvature = 0.5;
  EXPECT_GT(steering_for_scene(right), 0.0);
  SceneParams left = straight;
  left.curvature = -0.5;
  EXPECT_LT(steering_for_scene(left), 0.0);
}

TEST(Scene, SteeringCorrectsOffset) {
  SceneParams displaced;
  displaced.camera_offset = 0.5;  // car is right of center -> steer left
  EXPECT_LT(steering_for_scene(displaced), 0.0);
}

TEST(Scene, SteeringClampedToUnitRange) {
  SceneParams extreme;
  extreme.curvature = 1.0;
  extreme.camera_offset = -1.0;
  EXPECT_LE(steering_for_scene(extreme), 1.0);
  EXPECT_GE(steering_for_scene(extreme), -1.0);
}

TEST(RoadGeometryTest, DepthRunsZeroToOne) {
  SceneParams params;
  RoadGeometry geo(params, 100, 200);
  EXPECT_DOUBLE_EQ(geo.depth(geo.horizon_row()), 0.0);
  EXPECT_DOUBLE_EQ(geo.depth(99), 1.0);
  EXPECT_DOUBLE_EQ(geo.depth(0), 0.0);  // above horizon
}

TEST(RoadGeometryTest, StraightCenteredRoadIsCentered) {
  SceneParams params;  // zero curvature, zero offset
  RoadGeometry geo(params, 100, 200);
  EXPECT_NEAR(geo.center_x(99), 100.0, 1e-9);
  EXPECT_NEAR(geo.center_x(geo.horizon_row() + 10), 100.0, 1e-9);
}

TEST(RoadGeometryTest, CurvatureBendsTowardHorizon) {
  SceneParams params;
  params.curvature = 1.0;
  RoadGeometry geo(params, 100, 200);
  // Near the car the road is centered; near the horizon it is displaced.
  EXPECT_NEAR(geo.center_x(99), 100.0, 1.0);
  EXPECT_GT(geo.center_x(geo.horizon_row() + 1), 120.0);
}

TEST(RoadGeometryTest, WidthShrinksTowardHorizon) {
  SceneParams params;
  RoadGeometry geo(params, 100, 200);
  EXPECT_GT(geo.half_width(99), geo.half_width(geo.horizon_row() + 5));
  EXPECT_NEAR(geo.half_width(99), params.road_half_width * 200.0, 1e-6);
}

TEST(RoadGeometryTest, OnRoadAndEdgesConsistent) {
  SceneParams params;
  RoadGeometry geo(params, 100, 200);
  const int64_t row = 80;
  const auto center = static_cast<int64_t>(geo.center_x(row));
  EXPECT_TRUE(geo.on_road(row, center));
  const auto edge = static_cast<int64_t>(geo.center_x(row) + geo.half_width(row));
  EXPECT_TRUE(geo.on_edge(row, edge));
  EXPECT_FALSE(geo.on_road(geo.horizon_row() - 1, center));
}

TEST(RoadGeometryTest, CenterMarkingIsDashes) {
  SceneParams params;
  RoadGeometry geo(params, 200, 200);
  const auto center_col = static_cast<int64_t>(geo.center_x(150));
  int on = 0, off = 0;
  for (int64_t row = geo.horizon_row() + 1; row < 200; ++row) {
    const auto c = static_cast<int64_t>(geo.center_x(row));
    (geo.on_center_marking(row, c) ? on : off)++;
  }
  EXPECT_GT(on, 0);
  EXPECT_GT(off, 0);
  (void)center_col;
}

TEST(ValueNoiseTest, DeterministicAndInRange) {
  ValueNoise a(42), b(42), c(43);
  for (int i = 0; i < 50; ++i) {
    const double y = i * 1.7, x = i * 0.9;
    const double v = a.at(y, x, 10.0);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
    EXPECT_DOUBLE_EQ(v, b.at(y, x, 10.0));
  }
  EXPECT_NE(a.at(5.0, 5.0, 10.0), c.at(5.0, 5.0, 10.0));
}

TEST(ValueNoiseTest, SmoothAtFineScale) {
  ValueNoise noise(7);
  const double v1 = noise.at(10.0, 10.0, 20.0);
  const double v2 = noise.at(10.0, 10.5, 20.0);
  EXPECT_LT(std::abs(v1 - v2), 0.2);
}

TEST(OutdoorGenerator, ProducesValidSamples) {
  OutdoorSceneGenerator gen;
  Rng rng(1);
  const Sample s = gen.generate(rng);
  EXPECT_EQ(s.rgb.height(), gen.render_height());
  EXPECT_EQ(s.rgb.width(), gen.render_width());
  EXPECT_GE(s.steering, -1.0);
  EXPECT_LE(s.steering, 1.0);
  // Pixels are valid [0, 1] values.
  EXPECT_GE(s.rgb.tensor().min(), 0.0f);
  EXPECT_LE(s.rgb.tensor().max(), 1.0f);
}

TEST(OutdoorGenerator, DeterministicGivenSeed) {
  OutdoorSceneGenerator gen;
  Rng a(5), b(5);
  const Sample sa = gen.generate(a);
  const Sample sb = gen.generate(b);
  EXPECT_EQ(sa.rgb.tensor(), sb.rgb.tensor());
  EXPECT_DOUBLE_EQ(sa.steering, sb.steering);
}

TEST(OutdoorGenerator, ScenesVary) {
  OutdoorSceneGenerator gen;
  Rng rng(9);
  const Sample a = gen.generate(rng);
  const Sample b = gen.generate(rng);
  EXPECT_GT(Tensor::max_abs_diff(a.rgb.tensor(), b.rgb.tensor()), 0.05f);
}

TEST(OutdoorGenerator, SteeringMatchesParams) {
  OutdoorSceneGenerator gen;
  Rng rng(11);
  const Sample s = gen.generate(rng);
  EXPECT_DOUBLE_EQ(s.steering, steering_for_scene(s.params));
}

TEST(OutdoorGenerator, RoadDarkerThanEdgeLines) {
  OutdoorSceneGenerator gen;
  SceneParams params;
  params.detail_seed = 3;
  const Sample s = gen.render(params, 3);
  const RoadGeometry geo(params, gen.render_height(), gen.render_width());
  const int64_t row = gen.render_height() - 5;
  const auto center = static_cast<int64_t>(geo.center_x(row));
  const auto edge = static_cast<int64_t>(geo.center_x(row) + geo.half_width(row));
  const Image gray = s.rgb.to_grayscale();
  EXPECT_LT(gray(row, center + 8), gray(row, edge));
}

TEST(OutdoorGenerator, TooSmallConfigThrows) {
  OutdoorConfig config;
  config.height = 4;
  EXPECT_THROW(OutdoorSceneGenerator{config}, std::invalid_argument);
}

TEST(IndoorGenerator, ProducesValidSamples) {
  IndoorSceneGenerator gen;
  Rng rng(2);
  const Sample s = gen.generate(rng);
  EXPECT_EQ(s.rgb.height(), gen.render_height());
  EXPECT_GE(s.rgb.tensor().min(), 0.0f);
  EXPECT_LE(s.rgb.tensor().max(), 1.0f);
}

TEST(IndoorGenerator, StatisticallyDifferentFromOutdoor) {
  // The novel-class argument needs the two datasets to have different image
  // statistics; compare mean brightness variability across scenes.
  OutdoorSceneGenerator outdoor;
  IndoorSceneGenerator indoor;
  Rng rng(3);
  double outdoor_mean = 0.0, indoor_mean = 0.0;
  const int n = 10;
  for (int i = 0; i < n; ++i) {
    outdoor_mean += outdoor.generate(rng).rgb.to_grayscale().mean();
    indoor_mean += indoor.generate(rng).rgb.to_grayscale().mean();
  }
  EXPECT_GT(std::abs(outdoor_mean - indoor_mean) / n, 0.02);
}

TEST(IndoorGenerator, HorizonHigherThanOutdoor) {
  IndoorSceneGenerator indoor;
  OutdoorSceneGenerator outdoor;
  Rng rng(4);
  const Sample i = indoor.generate(rng);
  const Sample o = outdoor.generate(rng);
  EXPECT_GT(i.params.horizon_frac, o.params.horizon_frac - 0.05);
}

TEST(RelevanceMask, MarksEdgesOnly) {
  OutdoorSceneGenerator gen;
  SceneParams params;
  const Image mask = gen.relevance_mask(params, 60, 160);
  // Mask is binary, nonempty, and a small fraction of the image.
  double on = 0.0;
  for (int64_t i = 0; i < mask.numel(); ++i) {
    EXPECT_TRUE(mask.tensor()[i] == 0.0f || mask.tensor()[i] == 1.0f);
    on += mask.tensor()[i];
  }
  EXPECT_GT(on, 0.0);
  EXPECT_LT(on / static_cast<double>(mask.numel()), 0.35);
}

TEST(Dataset, GeneratePreprocessesToTargetSize) {
  OutdoorSceneGenerator gen;
  Rng rng(6);
  const DrivingDataset ds = DrivingDataset::generate(gen, 5, 60, 160, rng);
  EXPECT_EQ(ds.size(), 5);
  EXPECT_EQ(ds.image(0).height(), 60);
  EXPECT_EQ(ds.image(0).width(), 160);
  EXPECT_GE(ds.image(0).min(), 0.0f);
  EXPECT_LE(ds.image(0).max(), 1.0f);
}

TEST(Dataset, TensorViewsHaveRightShapes) {
  IndoorSceneGenerator gen;
  Rng rng(10);
  const DrivingDataset ds = DrivingDataset::generate(gen, 3, 24, 48, rng);
  EXPECT_EQ(ds.images_nchw().shape(), (Shape{3, 1, 24, 48}));
  EXPECT_EQ(ds.steering_tensor().shape(), (Shape{3, 1}));
  EXPECT_NEAR(ds.steering_tensor()[1], static_cast<float>(ds.steering(1)), 1e-6f);
}

TEST(Dataset, AddRejectsMismatchedSize) {
  DrivingDataset ds;
  ds.add(Image(10, 10), 0.0, SceneParams{});
  EXPECT_THROW(ds.add(Image(5, 5), 0.0, SceneParams{}), std::invalid_argument);
}

}  // namespace
}  // namespace salnov::roadsim
