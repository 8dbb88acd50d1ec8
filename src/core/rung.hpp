// The rung table: the single definition of what each scoring rung computes.
//
// A rung is one point on the paper's two Fig. 5 axes — VBP (configured) or
// raw preprocessing, SSIM (configured) or MSE scoring — plus a precision
// axis (float or int8 forwards). The serving runtime orders the rungs into
// its degradation ladder; the detector calibrates one threshold per rung.
// Every question about a rung (its name, its calibration slot, what it runs,
// where it sits on the ladder) is a read of its row in kRungs, so a new
// scorer is one row, not an edit in every layer.
#pragma once

#include <array>
#include <cstdint>

namespace salnov::core {

/// The preprocessing axis. Ordinals are serialized (pipeline files).
enum class Preprocessing {
  kRaw = 0,   ///< feed the grayscale image directly (baseline)
  kVbp,       ///< feed the VisualBackProp mask of the steering model (proposed)
  kGradient,  ///< gradient-saliency mask (ablation; slower than VBP)
  kLrp,       ///< layer-wise relevance propagation mask (ablation; slowest)
};
inline constexpr uint32_t kPreprocessingCount = 4;
/// Names by ordinal, as the CLI spells them.
inline constexpr std::array<const char*, kPreprocessingCount> kPreprocessingNames = {
    "raw", "vbp", "gradient", "lrp"};

/// True for any preprocessing mode that needs the steering model.
constexpr bool uses_saliency(Preprocessing preprocessing) {
  return preprocessing != Preprocessing::kRaw;
}

enum class ReconstructionScore {
  kMse,   ///< pixel-wise reconstruction error; high = novel (baseline)
  kSsim,  ///< structural similarity; low = novel (proposed)
};
inline constexpr uint32_t kReconstructionScoreCount = 2;
static_assert(static_cast<uint32_t>(ReconstructionScore::kSsim) + 1 == kReconstructionScoreCount);
/// Names by ordinal, as the CLI spells them.
inline constexpr std::array<const char*, kReconstructionScoreCount> kReconstructionScoreNames = {
    "mse", "ssim"};

/// Calibration slots of one fitted detector: each holds the training-score
/// ECDF and threshold of the rungs that score with it. Ordinals are
/// serialized (pipeline files, threshold sets).
enum class DetectorVariant : int {
  kPrimary = 0,        ///< configured preprocessing + configured score (VBP+SSIM as proposed)
  kPreprocessedMse,    ///< configured preprocessing + MSE score (skips the SSIM pass)
  kRawMse,             ///< raw pass-through + MSE (skips saliency entirely; Richter & Roy floor)
  kPrimaryQ8,          ///< kPrimary with int8-quantized forwards (bounded score drift)
  kPreprocessedMseQ8,  ///< kPreprocessedMse with int8-quantized forwards
};
inline constexpr int kDetectorVariantCount = 5;

/// The serving ladder's rungs. Ordinals are serialized (traces, health
/// JSON); ladder order is the row's `rank`, not the ordinal.
enum class ServingMode : int {
  kVbpSsim = 0,  ///< full pipeline at the configured preprocessing + score
  kVbpMse,       ///< saliency kept, SSIM pass skipped (MSE score)
  kRawMse,       ///< saliency skipped, raw frame + MSE
  kSensorHold,   ///< ladder exhausted: hold last safe behaviour, report sensor fault
  kVbpSsimQ8,    ///< kVbpSsim with int8-quantized forwards (cheaper, bounded drift)
  kVbpMseQ8,     ///< kVbpMse with int8-quantized forwards
};

struct Rung {
  ServingMode mode;
  const char* name;            ///< serving name ("vbp+ssim" ... "sensor-hold")
  DetectorVariant variant;     ///< calibration slot the rung scores against
  const char* variant_name;    ///< the slot's name ("primary" ... "preproc+mse-q8")
  bool raw;                    ///< raw pass-through instead of the configured preprocessing
  bool mse;                    ///< MSE score instead of the configured one
  bool q8;                     ///< int8-quantized steering and autoencoder forwards
  int rank;                    ///< ladder position, 0 = most preferred

  constexpr Preprocessing preprocessing(Preprocessing configured) const {
    return raw ? Preprocessing::kRaw : configured;
  }
  constexpr ReconstructionScore metric(ReconstructionScore configured) const {
    return mse ? ReconstructionScore::kMse : configured;
  }
};

/// One row per ServingMode ordinal. A q8 rung sits directly below its float
/// peer: cheaper compute with bounded drift beats dropping a whole stage.
/// Sensor hold scores with the raw+MSE slot (its answer is a recovery probe,
/// never trusted).
inline constexpr std::array<Rung, 6> kRungs = {{
    {ServingMode::kVbpSsim, "vbp+ssim", DetectorVariant::kPrimary, "primary", false, false, false, 0},
    {ServingMode::kVbpMse, "vbp+mse", DetectorVariant::kPreprocessedMse, "preproc+mse", false, true,
     false, 2},
    {ServingMode::kRawMse, "raw+mse", DetectorVariant::kRawMse, "raw+mse", true, true, false, 4},
    {ServingMode::kSensorHold, "sensor-hold", DetectorVariant::kRawMse, "raw+mse", true, true, false,
     5},
    {ServingMode::kVbpSsimQ8, "vbp+ssim-q8", DetectorVariant::kPrimaryQ8, "primary-q8", false, false,
     true, 1},
    {ServingMode::kVbpMseQ8, "vbp+mse-q8", DetectorVariant::kPreprocessedMseQ8, "preproc+mse-q8",
     false, true, true, 3},
}};
inline constexpr int kServingModeCount = static_cast<int>(kRungs.size());

constexpr const Rung& rung(ServingMode mode) { return kRungs[static_cast<size_t>(mode)]; }

/// The first row scoring against `variant`: the rung that owns the slot.
constexpr const Rung& rung(DetectorVariant variant) {
  for (const Rung& row : kRungs) {
    if (row.variant == variant) return row;
  }
  return kRungs[0];
}

/// Stable tags for logs, health JSON and traces: the serving name of a rung
/// ("vbp+ssim" ... "sensor-hold") and the name of a calibration slot
/// ("primary" ... "preproc+mse-q8").
constexpr const char* serving_mode_name(ServingMode mode) { return rung(mode).name; }
constexpr const char* detector_variant_name(DetectorVariant variant) {
  return rung(variant).variant_name;
}

/// True for the int8-quantized rungs.
constexpr bool serving_mode_quantized(ServingMode mode) { return rung(mode).q8; }

/// The rung at ladder position `rank` (clamped to the ladder's ends).
constexpr const Rung& rung_at_rank(int rank) {
  for (const Rung& row : kRungs) {
    if (row.rank == rank) return row;
  }
  return rank < 0 ? kRungs[0] : rung(ServingMode::kSensorHold);
}

/// One rung down (step +1, towards sensor hold) or up (step -1, towards
/// vbp+ssim), skipping q8 rungs when `skip_q8`. Saturates at the ends.
constexpr ServingMode ladder_step(ServingMode mode, int step, bool skip_q8) {
  int rank = rung(mode).rank;
  do {
    rank += step;
  } while (rank > 0 && rank < kServingModeCount - 1 && skip_q8 && rung_at_rank(rank).q8);
  return rung_at_rank(rank).mode;
}

static_assert([] {
  for (size_t i = 0; i < kRungs.size(); ++i) {
    if (static_cast<size_t>(kRungs[i].mode) != i) return false;
    if (&rung_at_rank(kRungs[i].rank) != &kRungs[i]) return false;
  }
  for (int v = 0; v < kDetectorVariantCount; ++v) {
    if (static_cast<int>(rung(static_cast<DetectorVariant>(v)).variant) != v) return false;
  }
  return rung_at_rank(0).mode == ServingMode::kVbpSsim &&
         rung_at_rank(kServingModeCount - 1).mode == ServingMode::kSensorHold;
}(), "kRungs: rows in ordinal order, one row per rank, every slot owned, ladder ends fixed");

}  // namespace salnov::core
