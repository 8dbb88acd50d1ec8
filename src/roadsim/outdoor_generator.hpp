// Outdoor driving-scene generator — the DSU (Udacity dataset) substitute.
//
// Renders varied outdoor road views: sky with clouds, textured terrain,
// asphalt with white edge lines and a dashed center marking, plus
// task-irrelevant clutter (trees, road signs) whose position and look vary
// per scene. The paper's argument hinges on the training images containing
// "many irrelevant features (e.g., the shape of clouds or the color of shop
// signs)" — this generator produces exactly those nuisance features.
#pragma once

#include "roadsim/generator.hpp"

namespace salnov::roadsim {

struct OutdoorConfig {
  int64_t height = 120;
  int64_t width = 320;
  double max_curvature = 1.0;
  double max_offset = 0.5;
  int64_t max_trees = 7;
  int64_t max_signs = 3;
};

class OutdoorSceneGenerator : public SceneGenerator {
 public:
  explicit OutdoorSceneGenerator(OutdoorConfig config = {});

  SceneParams sample_params(Rng& rng) const override;
  Sample render_scene(const SceneParams& params) const override;
  int64_t render_height() const override { return config_.height; }
  int64_t render_width() const override { return config_.width; }

  /// Renders a specific parameter set (used by tests and by experiments
  /// that perturb a fixed scene).
  Sample render(const SceneParams& params, uint64_t clutter_seed) const;

  const OutdoorConfig& config() const { return config_; }

 private:
  OutdoorConfig config_;
};

}  // namespace salnov::roadsim
