// Property-based sweeps over the scene generators: invariants that must
// hold for *every* sampled scene, driven through the shared property core
// (tests/prop.hpp) so failures echo a replayable SALNOV_PROP_SEED.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "prop.hpp"
#include "roadsim/indoor_generator.hpp"
#include "roadsim/outdoor_generator.hpp"
#include "roadsim/rasterizer.hpp"

namespace salnov::roadsim {

/// Randomly drawn geometry case; found via ADL by prop's failure printer.
struct GeoCase {
  SceneParams params;
  int64_t h = 0;
  int64_t w = 0;
};

inline std::string describe(const GeoCase& c) {
  std::ostringstream os;
  os.precision(17);
  os << "{curvature=" << c.params.curvature << ", camera_offset=" << c.params.camera_offset
     << ", horizon_frac=" << c.params.horizon_frac
     << ", road_half_width=" << c.params.road_half_width << ", h=" << c.h << ", w=" << c.w << "}";
  return os.str();
}

namespace {

TEST(SteeringProperty, MonotoneInCurvature) {
  SceneParams params;
  double previous = -2.0;
  for (double curvature = -1.0; curvature <= 1.0; curvature += 0.1) {
    params.curvature = curvature;
    const double steer = steering_for_scene(params);
    EXPECT_GE(steer, previous);
    previous = steer;
  }
}

TEST(SteeringProperty, AntitoneInOffset) {
  SceneParams params;
  double previous = 2.0;
  for (double offset = -1.0; offset <= 1.0; offset += 0.1) {
    params.camera_offset = offset;
    const double steer = steering_for_scene(params);
    EXPECT_LE(steer, previous);
    previous = steer;
  }
}

TEST(SteeringProperty, AlwaysInUnitInterval) {
  prop::for_all<std::vector<double>>(
      "steering_for_scene in [-1, 1]",
      prop::gen_vector(2, 2, prop::gen_double(-2.0, 2.0)),
      [](const std::vector<double>& draw) {
        SceneParams params;
        params.curvature = draw[0];
        params.camera_offset = draw[1];
        const double steer = steering_for_scene(params);
        return steer >= -1.0 && steer <= 1.0;
      },
      {500, 1});
}

// ---------------------------------------------------------------------------
// Geometry invariants over a random parameter sweep.

TEST(GeometryPropertySweep, InvariantsHoldForRandomScenes) {
  const auto gen = [](Rng& rng) {
    GeoCase c;
    c.params.curvature = rng.uniform(-1.4, 1.4);
    c.params.camera_offset = rng.uniform(-1.1, 1.1);
    c.params.horizon_frac = rng.uniform(0.25, 0.65);
    c.params.road_half_width = rng.uniform(0.12, 0.5);
    c.h = 40 + rng.uniform_int(0, 60);
    c.w = 80 + rng.uniform_int(0, 200);
    return c;
  };
  const auto holds = [](const GeoCase& c) {
    const RoadGeometry geo(c.params, c.h, c.w);

    // Horizon inside the frame.
    if (geo.horizon_row() < 1 || geo.horizon_row() > c.h - 2) return false;

    // Depth is monotone in row and bounded.
    double prev_depth = -1.0;
    for (int64_t y = geo.horizon_row(); y < c.h; ++y) {
      const double d = geo.depth(y);
      if (d < prev_depth || d < 0.0 || d > 1.0) return false;
      prev_depth = d;
    }

    // Half-width grows (weakly) with depth and is positive.
    double prev_width = 0.0;
    for (int64_t y = geo.horizon_row() + 1; y < c.h; ++y) {
      const double hw = geo.half_width(y);
      if (hw <= 0.0 || hw < prev_width - 1e-9) return false;
      prev_width = hw;
    }

    // At the bottom row the road is anchored near the camera: the center
    // offset from mid-frame is bounded by half the lane width.
    const double bottom_center = geo.center_x(c.h - 1);
    if (std::abs(bottom_center - static_cast<double>(c.w) / 2.0) >
        0.55 * c.params.road_half_width * static_cast<double>(c.w) + 1.0) {
      return false;
    }

    // A pixel on the center marking must be on the road.
    for (int64_t y = geo.horizon_row() + 1; y < c.h; y += 7) {
      for (int64_t x = 0; x < c.w; x += 11) {
        if (geo.on_center_marking(y, x) && !geo.on_road(y, x)) return false;
      }
    }
    return true;
  };
  prop::for_all<GeoCase>("road geometry invariants", gen, holds, {200, 1});
}

// ---------------------------------------------------------------------------
// Generator invariants, parameterized over both generators.

enum class Which { kOutdoor, kIndoor };

class GeneratorPropertySweep : public ::testing::TestWithParam<Which> {
 protected:
  std::unique_ptr<SceneGenerator> make() const {
    if (GetParam() == Which::kOutdoor) return std::make_unique<OutdoorSceneGenerator>();
    return std::make_unique<IndoorSceneGenerator>();
  }
};

TEST_P(GeneratorPropertySweep, SamplesAreValid) {
  auto gen = make();
  Rng rng(prop::run_seed(11));
  for (int i = 0; i < 20; ++i) {
    const Sample s = gen->generate(rng);
    EXPECT_EQ(s.rgb.height(), gen->render_height());
    EXPECT_EQ(s.rgb.width(), gen->render_width());
    EXPECT_GE(s.rgb.tensor().min(), 0.0f);
    EXPECT_LE(s.rgb.tensor().max(), 1.0f);
    EXPECT_GE(s.steering, -1.0);
    EXPECT_LE(s.steering, 1.0);
    EXPECT_DOUBLE_EQ(s.steering, steering_for_scene(s.params));
  }
}

TEST_P(GeneratorPropertySweep, DeterministicPerSeed) {
  auto gen = make();
  Rng a(42), b(42);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(gen->generate(a).rgb.tensor(), gen->generate(b).rgb.tensor());
  }
}

TEST_P(GeneratorPropertySweep, RelevanceMaskIsBinaryAndBelowHorizon) {
  auto gen = make();
  Rng rng(prop::run_seed(13));
  for (int i = 0; i < 10; ++i) {
    const Sample s = gen->generate(rng);
    const Image mask = gen->relevance_mask(s.params, 60, 160);
    const RoadGeometry geo(s.params, 60, 160);
    for (int64_t y = 0; y < mask.height(); ++y) {
      for (int64_t x = 0; x < mask.width(); ++x) {
        const float v = mask(y, x);
        EXPECT_TRUE(v == 0.0f || v == 1.0f);
        if (y <= geo.horizon_row()) {
          EXPECT_EQ(v, 0.0f);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Both, GeneratorPropertySweep,
                         ::testing::Values(Which::kOutdoor, Which::kIndoor),
                         [](const ::testing::TestParamInfo<Which>& info) {
                           return info.param == Which::kOutdoor ? "Outdoor" : "Indoor";
                         });

// ---------------------------------------------------------------------------
// Cross-generator contrast: the datasets must be statistically different
// (that is their role), measured over a modest sample.

TEST(GeneratorContrast, GrayscaleStatisticsDiffer) {
  OutdoorSceneGenerator outdoor;
  IndoorSceneGenerator indoor;
  Rng rng(19);
  double outdoor_mean = 0.0, indoor_mean = 0.0;
  const int n = 16;
  for (int i = 0; i < n; ++i) {
    outdoor_mean += outdoor.generate(rng).rgb.to_grayscale().mean();
    indoor_mean += indoor.generate(rng).rgb.to_grayscale().mean();
  }
  EXPECT_GT(std::abs(outdoor_mean - indoor_mean) / n, 0.02);
}

TEST(GeneratorContrast, IndoorTrackNarrowerThanOutdoorRoad) {
  OutdoorSceneGenerator outdoor;
  IndoorSceneGenerator indoor;
  Rng rng(23);
  double outdoor_width = 0.0, indoor_width = 0.0;
  const int n = 16;
  for (int i = 0; i < n; ++i) {
    outdoor_width += outdoor.generate(rng).params.road_half_width;
    indoor_width += indoor.generate(rng).params.road_half_width;
  }
  EXPECT_GT(outdoor_width / n, indoor_width / n * 1.5);
}

}  // namespace
}  // namespace salnov::roadsim
