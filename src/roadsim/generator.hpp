// Scene generator interface.
//
// A SceneGenerator is the library's stand-in for a driving dataset: it
// samples scene parameters from a dataset-specific distribution and renders
// them. OutdoorSceneGenerator plays the role of the Udacity dataset (DSU):
// varied, cluttered, outdoor. IndoorSceneGenerator plays the role of the
// paper's in-house indoor racing environment (DSI): structured, uniform.
#pragma once

#include <array>
#include <memory>
#include <string>

#include "image/image.hpp"
#include "roadsim/scene.hpp"
#include "tensor/rng.hpp"

namespace salnov::roadsim {

/// One generated example: rendered view, ground-truth steering, and the
/// parameters that produced it.
struct Sample {
  RgbImage rgb;
  double steering = 0.0;
  SceneParams params;
};

class SceneGenerator {
 public:
  virtual ~SceneGenerator() = default;

  /// Renders one scene drawn from this dataset's parameter distribution.
  /// Equivalent to render_scene(sample_params(rng)).
  virtual Sample generate(Rng& rng) const { return render_scene(sample_params(rng)); }

  /// Draws one scene's parameters — the exact RNG consumption generate()
  /// makes — without rendering. Splitting the cheap, stream-ordered draws
  /// from the expensive, purely-functional rendering lets DrivingDataset
  /// sample sequentially and rasterize on the worker pool while producing
  /// bit-identical datasets at any thread count.
  virtual SceneParams sample_params(Rng& rng) const = 0;

  /// Renders previously drawn parameters. Pure function of `params`
  /// (clutter placement derives from params.detail_seed), safe to call
  /// concurrently.
  virtual Sample render_scene(const SceneParams& params) const = 0;

  /// Dataset name ("outdoor-sim" / "indoor-sim") used in reports.
  virtual std::string name() const = 0;

  /// Rendered image height/width.
  virtual int64_t render_height() const = 0;
  virtual int64_t render_width() const = 0;

  /// Binary mask (1 = task-relevant pixel) of the road-edge and lane-marking
  /// bands for a scene, at a given output resolution. Used to score how well
  /// a saliency mask concentrates on features a human driver attends to
  /// (Fig. 2 / Fig. 4 statistics).
  Image relevance_mask(const SceneParams& params, int64_t height, int64_t width) const;
};

/// The dataset names, as the CLI and trace specs spell them.
inline constexpr std::array<const char*, 2> kSceneDatasets = {"outdoor", "indoor"};

/// The generator a kSceneDatasets name selects; nullptr for any other name.
std::unique_ptr<SceneGenerator> make_scene_generator(const std::string& dataset);

}  // namespace salnov::roadsim
