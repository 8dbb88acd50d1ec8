// Fault injection: deterministic camera- and model-fault models.
//
// The paper's noise experiment (Fig. 7) perturbs frames with ad-hoc
// Gaussian noise; real sensor failures are richer — cameras freeze, frames
// drop to black, rolling shutters tear, exposure control saturates, lenses
// get occluded. FaultInjector packages those failure modes as composable,
// seedable transforms with one `severity` knob each (0 = identity,
// 1 = worst case), so the detector's robustness can be characterized as a
// fault-type x severity matrix (bench_fault_matrix) instead of a single
// noise sweep. A weight-corruption injector (random bit-flips in Sequential
// parameters) plays the same role for *model* faults.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "image/image.hpp"
#include "nn/sequential.hpp"
#include "tensor/rng.hpp"

namespace salnov::faults {

enum class CameraFault {
  kFrozenFrame,    ///< the previous frame bleeds through / replaces this one
  kDroppedFrame,   ///< signal fades to black (severity 1 = fully black)
  kSaltPepper,     ///< impulse noise on a severity-scaled pixel fraction
  kBandTearing,    ///< a horizontal band is sheared sideways (readout tear)
  kOverExposure,   ///< gain + bias push pixels into white saturation
  kUnderExposure,  ///< gain collapse toward black
  kOcclusion,      ///< opaque rectangle (lens obstruction), grows with severity
  kGaussianBlur,   ///< defocus; separable Gaussian, sigma scales with severity
};
inline constexpr uint32_t kCameraFaultCount = 8;
static_assert(static_cast<uint32_t>(CameraFault::kGaussianBlur) + 1 == kCameraFaultCount);

/// Stable tags for tables, CSV artifacts and the CLI, by ordinal.
inline constexpr std::array<const char*, kCameraFaultCount> kCameraFaultNames = {
    "frozen-frame",  "dropped-frame",  "salt-pepper", "band-tearing",
    "over-exposure", "under-exposure", "occlusion",   "gaussian-blur",
};

/// Stable tag for tables and CSV artifacts ("frozen-frame", ...).
const char* camera_fault_name(CameraFault fault);

/// Every camera fault, in declaration order (for sweeps).
const std::vector<CameraFault>& all_camera_faults();

/// One fault with its severity in [0, 1].
struct FaultSpec {
  CameraFault fault;
  double severity = 0.5;
};

/// Deterministic, seedable fault source. All randomness (impulse positions,
/// tear row, occlusion center) comes from the owned Rng, and every fault
/// draws the same number of variates regardless of severity, so two
/// injectors with equal seeds produce bit-identical streams and severity
/// sweeps at a fixed seed are nested (monotone in distortion).
class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed);

  /// Applies one fault. kFrozenFrame is stateful: the frame buffer updates
  /// on healthy captures (severity 0, or the first/size-changing frame) and
  /// sticks while the fault is active, so a severity-1 stream repeats the
  /// last healthy frame bit-identically. apply() calls should follow the
  /// camera's frame order. Throws std::invalid_argument unless severity is
  /// finite and in [0, 1]. Severity 0 returns the frame unchanged.
  Image apply(CameraFault fault, double severity, const Image& frame);
  Image apply(const FaultSpec& spec, const Image& frame) {
    return apply(spec.fault, spec.severity, frame);
  }

  /// Applies a fault chain left to right (faults compose: e.g. an
  /// under-exposed, blurred, torn frame).
  Image apply_all(const std::vector<FaultSpec>& chain, const Image& frame);

  /// Reseeds the stream and forgets the stale frame.
  void reset(uint64_t seed);

 private:
  Rng rng_;
  std::optional<Image> stale_;  ///< last frame seen (kFrozenFrame state)
};

/// Model-fault injector: flips `flips` uniformly random bits across the
/// model's parameter tensors (the classic single-event-upset model). The
/// same (element, bit) pair may be drawn twice, un-flipping it. Returns the
/// number of flips performed (0 for a parameterless model).
int64_t flip_weight_bits(nn::Sequential& model, int64_t flips, Rng& rng);

}  // namespace salnov::faults
