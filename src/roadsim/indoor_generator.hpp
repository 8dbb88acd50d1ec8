// Indoor racing-environment generator — the DSI (in-house dataset)
// substitute.
//
// Renders a model-car view of an indoor track: a matte floor with a darker
// track surface bounded by bright tape edges, walls with a baseboard line
// above the horizon, and occasional furniture boxes. Compared to the
// outdoor generator the scenes are more structured and uniform (as the
// paper says of its in-house environment), with different brightness and
// texture statistics — which is exactly what makes it a useful novel class.
#pragma once

#include "roadsim/generator.hpp"

namespace salnov::roadsim {

struct IndoorConfig {
  int64_t height = 120;
  int64_t width = 320;
  // A model car on a tight indoor circuit sees far more varied view
  // geometry than a road car: hairpin curvature and large lateral drift
  // relative to the narrow taped track.
  double max_curvature = 1.4;
  double max_offset = 1.1;
  int64_t max_furniture = 3;
};

class IndoorSceneGenerator : public SceneGenerator {
 public:
  explicit IndoorSceneGenerator(IndoorConfig config = {});

  SceneParams sample_params(Rng& rng) const override;
  Sample render_scene(const SceneParams& params) const override;
  int64_t render_height() const override { return config_.height; }
  int64_t render_width() const override { return config_.width; }

  Sample render(const SceneParams& params, uint64_t clutter_seed) const;

  const IndoorConfig& config() const { return config_; }

 private:
  IndoorConfig config_;
};

}  // namespace salnov::roadsim
