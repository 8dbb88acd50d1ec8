#include "roadsim/generator.hpp"

#include "roadsim/indoor_generator.hpp"
#include "roadsim/outdoor_generator.hpp"
#include "roadsim/rasterizer.hpp"

namespace salnov::roadsim {

Image SceneGenerator::relevance_mask(const SceneParams& params, int64_t height, int64_t width) const {
  const RoadGeometry geo(params, height, width);
  Image mask(height, width);
  for (int64_t y = geo.horizon_row() + 1; y < height; ++y) {
    for (int64_t x = 0; x < width; ++x) {
      if (geo.on_edge(y, x) || geo.on_center_marking(y, x)) mask(y, x) = 1.0f;
    }
  }
  return mask;
}

std::unique_ptr<SceneGenerator> make_scene_generator(const std::string& dataset) {
  if (dataset == kSceneDatasets[0]) return std::make_unique<OutdoorSceneGenerator>();
  if (dataset == kSceneDatasets[1]) return std::make_unique<IndoorSceneGenerator>();
  return nullptr;
}

}  // namespace salnov::roadsim
