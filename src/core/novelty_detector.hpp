// NoveltyDetector: the paper's end-to-end two-layer framework (Fig. 1).
//
//   input image -> [VBP of the trained steering CNN] -> one-class
//   autoencoder reconstruction -> similarity score -> threshold test.
//
// The detector is configurable along the paper's two experimental axes:
//   * preprocessing: VBP saliency masks (proposed) vs raw images
//     (Richter & Roy baseline),
//   * reconstruction loss/score: SSIM (proposed) vs pixel-wise MSE
//     (baseline),
// so every Fig. 5 configuration is one NoveltyDetectorConfig away.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/autoencoder.hpp"
#include "core/frame_validator.hpp"
#include "core/rung.hpp"
#include "core/threshold.hpp"
#include "image/image.hpp"
#include "nn/quantized.hpp"
#include "nn/sequential.hpp"
#include "nn/ssim_loss.hpp"
#include "nn/trainer.hpp"
#include "saliency/saliency.hpp"
#include "tensor/rng.hpp"

namespace salnov::saliency {
class VisualBackProp;
}

namespace salnov::core {

struct NoveltyDetectorConfig {
  int64_t height = 60;   ///< Paper's pipeline resolution (60 x 160).
  int64_t width = 160;
  Preprocessing preprocessing = Preprocessing::kVbp;
  ReconstructionScore score = ReconstructionScore::kSsim;
  AutoencoderConfig autoencoder;  ///< Its input size is forced to (height, width).
  SsimOptions ssim;               ///< Window/constants for the SSIM loss and score.
  int64_t train_epochs = 20;
  int64_t batch_size = 32;        ///< Paper: 32.
  double learning_rate = 1e-3;    ///< Adam.
  double threshold_percentile = 0.99;  ///< Paper: 99th percentile of the ECDF.
  bool verbose = false;

  /// The paper's proposed configuration (VBP + SSIM).
  static NoveltyDetectorConfig proposed();
  /// The Richter & Roy baseline (raw images + MSE).
  static NoveltyDetectorConfig baseline_raw_mse();
};

/// Classification result for one input.
struct NoveltyResult {
  double score = 0.0;      ///< MSE error or mean SSIM, per config.
  double threshold = 0.0;
  bool is_novel = false;
};

class NoveltyDetector {
 public:
  explicit NoveltyDetector(NoveltyDetectorConfig config);

  /// Attaches the trained steering model whose saliency defines the
  /// preprocessing (required for Preprocessing::kVbp before fit/score;
  /// the model must outlive this detector and is not modified).
  void attach_steering_model(nn::Sequential* model);

  /// Trains the one-class autoencoder on the (preprocessed) training images
  /// and calibrates the novelty threshold on the training-score ECDF.
  /// Returns the autoencoder's per-epoch loss history. Screens every
  /// training frame first, as score_batch does.
  nn::TrainHistory fit(const std::vector<Image>& training_images, Rng& rng);

  /// Preprocessing stage only (VBP mask or pass-through). Throws
  /// InvalidFrameError on a wrong-size frame; pixel content is the caller's
  /// to screen (see frame_validator()).
  Image preprocess(const Image& input) const;

  /// The frame screen. score_batch (which score, score_variant, scores and
  /// classify reach) and fit run it on every input and throw on a fault; the
  /// serving Supervisor's validate stage routes its verdict to the
  /// sensor-fault path instead.
  const FrameValidator& frame_validator() const { return validator_; }

  /// Autoencoder reconstruction of a *preprocessed* image.
  Image reconstruct(const Image& preprocessed) const;

  /// Similarity/error score of one input (runs the full pipeline). Throws
  /// InvalidFrameError on a malformed frame (size, then content).
  double score(const Image& input) const;

  /// Scores a batch of inputs. Frames fan out across the parallel worker
  /// pool (see parallel/parallel_for.hpp; SALNOV_THREADS) whenever the
  /// configured preprocessing is safe to run concurrently; results are
  /// bit-identical to scoring each input serially, at any thread count.
  std::vector<double> scores(const std::vector<Image>& inputs) const;

  /// Full classification of one input. Requires fit() (or a loaded model).
  NoveltyResult classify(const Image& input) const;

  // --- Variant scoring (degraded-mode fallback chain) ----------------------
  // The serving runtime executes the pipeline stage by stage under per-stage
  // deadlines, so the variant API exposes each stage separately. What a
  // variant runs is its row in core/rung.hpp.
  //
  // Every entry, batch 1 or batch B, float or q8, is one call of the same
  // per-stage body over a list of frames (batch 1 is a list of one). The
  // stage entries check frame size and wiring only: their callers screen
  // frame content first (score_batch, the Supervisor, the cluster). The
  // batched forwards (autoencoder GEMMs, VBP forward) keep strict bitwise
  // equivalence: element i of a batched call is bit-identical to the batch-1
  // call, regardless of batch size or composition. (Conv layers loop per
  // sample; dense GEMM kernels accumulate each output row in the same
  // ascending-k order at any m; packing pads with zeros.)

  /// Preprocessing stage for a variant (pass-through for kRawMse).
  Image variant_preprocess(DetectorVariant variant, const Image& input) const;

  /// Batched preprocessing stage; saliency-backed configurations share one
  /// batched VBP pass. Checks every input's size and wiring in order.
  std::vector<Image> variant_preprocess_batch(DetectorVariant variant,
                                              const std::vector<const Image*>& inputs) const;

  /// As variant_preprocess_batch(variant, inputs), with the same checks,
  /// but mask i is built from row rows[i] of `pass`, a forward_stages() that
  /// already ran over the steering model at the variant's precision. Same
  /// bits as the two-forward path. Throws std::logic_error unless
  /// mask_reads_steer_pass() holds for that precision.
  std::vector<Image> variant_preprocess_batch(DetectorVariant variant,
                                              const std::vector<const Image*>& inputs,
                                              const nn::StagedForward& pass,
                                              const std::vector<int64_t>& rows) const;

  /// Autoencoder reconstruction of variant-preprocessed images: the q8
  /// variants run the int8-quantized forward (bit-identical across
  /// kernels/threads/batch sizes), the float variants the float one.
  Image variant_reconstruct(DetectorVariant variant, const Image& preprocessed) const;
  std::vector<Image> variant_reconstruct_batch(DetectorVariant variant,
                                               const std::vector<const Image*>& preprocessed) const;
  /// Float reconstruction as one [B, H*W] forward.
  std::vector<Image> reconstruct_batch(const std::vector<const Image*>& preprocessed) const;

  /// Scores a reconstruction against its variant-preprocessed input.
  double variant_score_pair(DetectorVariant variant, const Image& preprocessed,
                            const Image& reconstruction) const;

  /// Full pipeline score under one variant. score_variant(kPrimary, x) is
  /// identical to score(x). score_batch screens every input in order (size,
  /// wiring, then content) before any stage runs.
  double score_variant(DetectorVariant variant, const Image& input) const;
  std::vector<double> score_batch(DetectorVariant variant,
                                  const std::vector<const Image*>& inputs) const;

  // --- The steer stage's shared forward ------------------------------------

  /// True when the steer stage on a rung of precision `q8` runs the int8
  /// view of the steering model (it exists), false when it runs the float one.
  bool steers_quantized(bool q8) const { return q8 && quant_steering_ != nullptr; }

  /// The pass-reuse rule: true when masks at precision `q8` read the conv
  /// stages of the steer stage's forward over `steering` at that precision
  /// (VBP on the detector's own steering model, or on its int8 view), so a
  /// caller that ran that forward hands it to variant_preprocess_batch
  /// instead of paying for a second one.
  bool mask_reads_steer_pass(bool q8, const nn::Sequential* steering) const {
    return vbp_ != nullptr && (q8 ? quant_steering_ != nullptr
                                  : steering != nullptr && steering == steering_model_);
  }

  /// Per-variant calibration (training-score ECDF + threshold), fitted for
  /// all variants by fit() and persisted through PipelineIo. Throws
  /// std::logic_error when the detector was not fitted/loaded.
  const VariantCalibration& variant_calibration(DetectorVariant variant) const;

  /// Non-throwing lookup: nullptr when the variant is not calibrated (e.g.
  /// the q8 slots of a pipeline fitted or loaded without quantization).
  const VariantCalibration* variant_calibration_if(DetectorVariant variant) const;

  /// True when every FLOAT variant is calibrated; the q8 slots are optional
  /// (gradient/LRP pipelines have no quantized path).
  bool has_variant_calibrations() const;

  /// True when both q8 variants are calibrated.
  bool has_quant_calibrations() const;

  /// True when the quantized forwards are ready to run: quantization scales
  /// are fitted/loaded for the autoencoder and — for saliency
  /// configurations — the attached steering model.
  bool has_quant_path() const;

  /// The quantized model views, or nullptr when has_quant_path() is false
  /// (steering also requires attach_steering_model()).
  const nn::QuantizedForward* quant_autoencoder() const { return quant_ae_.get(); }
  const nn::QuantizedForward* quant_steering() const { return quant_steering_.get(); }

  bool is_fitted() const { return fitted_; }
  const NoveltyDetectorConfig& config() const { return config_; }
  const NoveltyThreshold& threshold() const;
  nn::Sequential& autoencoder() { return autoencoder_; }

 private:
  friend class PipelineIo;

  /// The stage bodies every public entry calls, over a list of frames.
  /// preprocess_frames checks every input's size and wiring and builds masks
  /// from `pass` rows when given; reconstruct_frames runs the rung's
  /// precision; score_frames scores pair i with the rung's metric.
  std::vector<Image> preprocess_frames(const Rung& rung, const std::vector<const Image*>& inputs,
                                       const nn::StagedForward* pass = nullptr,
                                       const std::vector<int64_t>* rows = nullptr) const;
  std::vector<Image> reconstruct_frames(const Rung& rung,
                                        const std::vector<const Image*>& preprocessed) const;
  std::vector<double> score_frames(const Rung& rung, const std::vector<const Image*>& preprocessed,
                                   const std::vector<const Image*>& reconstructions) const;

  /// Size check, then wiring check, of one input: what the stage bodies need.
  void check_input(const Image* input, bool needs_saliency) const;

  /// The frame-in screen of score_batch and fit: per input in order, the
  /// size and wiring checks, then the validator's content check.
  void screen_inputs(const std::vector<const Image*>& inputs, bool needs_saliency) const;

  /// Calibrates every slot owned by a row of precision `q8` on the training
  /// frames. Rows that share preprocessing share one reconstruction;
  /// `preprocessed` holds the configured float preprocessing of `frames`.
  void calibrate_rows(bool q8, const std::vector<Image>& frames,
                      const std::vector<Image>& preprocessed);

  /// True when batches may be preprocessed/scored on multiple threads:
  /// either no saliency stage, or one whose compute() is reentrant.
  bool batch_parallel_safe() const;

  /// True when the configuration admits a quantized path at all (raw or VBP
  /// preprocessing; the gradient/LRP ablations have no quantized saliency).
  bool quant_supported() const;

  /// (Re)builds quant_ae_ / quant_steering_ from the current models and
  /// scales. Called after fit, after attach_steering_model, and by
  /// PipelineIo::load — the wrappers cache layer pointers, so any model
  /// rebuild must run through here.
  void rebuild_quant_path();

  NoveltyDetectorConfig config_;
  nn::Sequential autoencoder_;
  nn::Sequential* steering_model_ = nullptr;
  /// Built eagerly in the constructor (per config_.preprocessing) so that
  /// const scoring paths never mutate shared state — lazy construction here
  /// was a data race under concurrent scores()/classify() calls.
  std::unique_ptr<saliency::SaliencyMethod> saliency_;
  nn::SsimLoss ssim_;  ///< Shared SSIM machinery (also used for scoring).
  FrameValidator validator_;  ///< Frame screen (see frame_validator()).
  std::optional<NoveltyThreshold> threshold_;
  /// One calibration per DetectorVariant (same index), fitted by fit() and
  /// restored by PipelineIo::load. threshold_ mirrors the kPrimary entry.
  /// The q8 slots stay empty for pipelines fitted/loaded without
  /// quantization.
  std::array<std::optional<VariantCalibration>, kDetectorVariantCount> variant_calibrations_;

  /// Int8 per-layer activation scales (empty = no quantized path) and the
  /// quantized model views built from them. Weight scales are derived from
  /// the live weights, so only activation scales persist (PipelineIo v3).
  nn::QuantScales ae_quant_scales_;
  nn::QuantScales steering_quant_scales_;
  std::unique_ptr<nn::QuantizedForward> quant_ae_;
  std::unique_ptr<nn::QuantizedForward> quant_steering_;
  /// Non-owning view of saliency_ when it is VisualBackProp (the only
  /// method with a quantized entry); null otherwise.
  saliency::VisualBackProp* vbp_ = nullptr;

  bool fitted_ = false;
};

}  // namespace salnov::core
