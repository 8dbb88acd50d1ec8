#include "core/novelty_detector.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "metrics/mse.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/trainer.hpp"
#include "parallel/parallel_for.hpp"
#include "saliency/gradient_saliency.hpp"
#include "saliency/lrp.hpp"
#include "saliency/visual_backprop.hpp"

namespace salnov::core {
namespace {

std::unique_ptr<saliency::SaliencyMethod> make_saliency(Preprocessing preprocessing) {
  switch (preprocessing) {
    case Preprocessing::kVbp:
      return std::make_unique<saliency::VisualBackProp>();
    case Preprocessing::kGradient:
      return std::make_unique<saliency::GradientSaliency>();
    case Preprocessing::kLrp:
      return std::make_unique<saliency::LayerwiseRelevancePropagation>();
    case Preprocessing::kRaw:
      return nullptr;
  }
  throw std::logic_error("make_saliency: unknown preprocessing");
}

/// Runs fn(i) for i in [0, n), fanning out across the pool when the
/// per-index work is reentrant. Each index owns its own output slot, so the
/// parallel and serial paths are bit-identical.
void fan_out(int64_t n, bool parallel_ok, const std::function<void(int64_t)>& fn) {
  if (!parallel_ok) {
    for (int64_t i = 0; i < n; ++i) fn(i);
    return;
  }
  parallel::parallel_for(0, n, 1, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) fn(i);
  });
}

std::vector<const Image*> pointers(const std::vector<Image>& images) {
  std::vector<const Image*> out;
  out.reserve(images.size());
  for (const Image& image : images) out.push_back(&image);
  return out;
}

}  // namespace

NoveltyDetectorConfig NoveltyDetectorConfig::proposed() { return NoveltyDetectorConfig{}; }

NoveltyDetectorConfig NoveltyDetectorConfig::baseline_raw_mse() {
  NoveltyDetectorConfig config;
  config.preprocessing = Preprocessing::kRaw;
  config.score = ReconstructionScore::kMse;
  return config;
}

NoveltyDetector::NoveltyDetector(NoveltyDetectorConfig config)
    : config_([&] {
        if (config.height <= 0 || config.width <= 0) {
          throw std::invalid_argument("NoveltyDetector: non-positive input size");
        }
        return std::move(config);
      }()),
      saliency_(make_saliency(config_.preprocessing)),
      ssim_(config_.height, config_.width, config_.ssim),
      validator_(config_.height, config_.width) {
  config_.autoencoder.input_height = config_.height;
  config_.autoencoder.input_width = config_.width;
  vbp_ = dynamic_cast<saliency::VisualBackProp*>(saliency_.get());
}

void NoveltyDetector::attach_steering_model(nn::Sequential* model) {
  if (model == nullptr) throw std::invalid_argument("attach_steering_model: null model");
  steering_model_ = model;
  // A loaded pipeline may carry steering scales from before the model was
  // attached; the quantized view can only be built now.
  rebuild_quant_path();
}

bool NoveltyDetector::quant_supported() const {
  return config_.preprocessing == Preprocessing::kRaw ||
         (config_.preprocessing == Preprocessing::kVbp && vbp_ != nullptr);
}

void NoveltyDetector::rebuild_quant_path() {
  quant_ae_.reset();
  quant_steering_.reset();
  if (!quant_supported()) return;
  if (fitted_ && !ae_quant_scales_.empty()) {
    quant_ae_ = std::make_unique<nn::QuantizedForward>(autoencoder_, ae_quant_scales_);
  }
  if (steering_model_ != nullptr && !steering_quant_scales_.empty()) {
    quant_steering_ = std::make_unique<nn::QuantizedForward>(*steering_model_, steering_quant_scales_);
  }
}

bool NoveltyDetector::has_quant_path() const {
  if (quant_ae_ == nullptr) return false;
  return !uses_saliency(config_.preprocessing) || quant_steering_ != nullptr;
}

void NoveltyDetector::check_input(const Image* input, bool needs_saliency) const {
  if (input == nullptr) throw std::invalid_argument("NoveltyDetector: null input image");
  if (input->height() != config_.height || input->width() != config_.width) {
    throw InvalidFrameError(
        FrameFault::kWrongSize,
        "NoveltyDetector: input is " + std::to_string(input->height()) + "x" +
            std::to_string(input->width()) + ", pipeline expects " +
            std::to_string(config_.height) + "x" + std::to_string(config_.width));
  }
  if (needs_saliency && steering_model_ == nullptr) {
    throw std::logic_error("NoveltyDetector: saliency preprocessing requires attach_steering_model()");
  }
}

void NoveltyDetector::screen_inputs(const std::vector<const Image*>& inputs,
                                    bool needs_saliency) const {
  // Content checks run after the configuration errors so that a mis-wired
  // pipeline surfaces as logic_error, not as a sensor fault.
  for (const Image* input : inputs) {
    check_input(input, needs_saliency);
    validator_.require_valid(*input, "NoveltyDetector");
  }
}

Image NoveltyDetector::preprocess(const Image& input) const {
  return variant_preprocess(DetectorVariant::kPrimary, input);
}

Image NoveltyDetector::variant_preprocess(DetectorVariant variant, const Image& input) const {
  return std::move(preprocess_frames(rung(variant), {&input})[0]);
}

std::vector<Image> NoveltyDetector::variant_preprocess_batch(
    DetectorVariant variant, const std::vector<const Image*>& inputs) const {
  return preprocess_frames(rung(variant), inputs);
}

std::vector<Image> NoveltyDetector::variant_preprocess_batch(
    DetectorVariant variant, const std::vector<const Image*>& inputs,
    const nn::StagedForward& pass, const std::vector<int64_t>& rows) const {
  return preprocess_frames(rung(variant), inputs, &pass, &rows);
}

std::vector<Image> NoveltyDetector::preprocess_frames(const Rung& rung,
                                                      const std::vector<const Image*>& inputs,
                                                      const nn::StagedForward* pass,
                                                      const std::vector<int64_t>* rows) const {
  const bool saliency = uses_saliency(rung.preprocessing(config_.preprocessing));
  for (const Image* input : inputs) check_input(input, saliency);
  if (!saliency) {
    std::vector<Image> out;
    out.reserve(inputs.size());
    for (const Image* input : inputs) out.push_back(*input);
    return out;
  }
  if (rung.q8 && quant_steering_ == nullptr) {
    throw std::logic_error("NoveltyDetector: quantized saliency path is not available");
  }
  if (pass != nullptr) {
    if (vbp_ == nullptr) {
      throw std::logic_error("NoveltyDetector: only VBP preprocessing reads a steering pass");
    }
    if (rows->size() != inputs.size()) {
      throw std::invalid_argument("NoveltyDetector: one pass row per input required");
    }
    return vbp_->masks(*steering_model_, pass->conv_stages, *rows, config_.height, config_.width);
  }
  if (rung.q8) return vbp_->compute_batch_quantized(*quant_steering_, inputs);
  // saliency_ exists since construction, so this const path mutates nothing
  // of the detector's and is safe under the concurrent batch fan-out.
  return saliency_->compute_batch(*steering_model_, inputs);
}

Image NoveltyDetector::reconstruct(const Image& preprocessed) const {
  return variant_reconstruct(DetectorVariant::kPrimary, preprocessed);
}

Image NoveltyDetector::variant_reconstruct(DetectorVariant variant,
                                           const Image& preprocessed) const {
  return std::move(reconstruct_frames(rung(variant), {&preprocessed})[0]);
}

std::vector<Image> NoveltyDetector::reconstruct_batch(
    const std::vector<const Image*>& preprocessed) const {
  return reconstruct_frames(rung(DetectorVariant::kPrimary), preprocessed);
}

std::vector<Image> NoveltyDetector::variant_reconstruct_batch(
    DetectorVariant variant, const std::vector<const Image*>& preprocessed) const {
  return reconstruct_frames(rung(variant), preprocessed);
}

std::vector<Image> NoveltyDetector::reconstruct_frames(
    const Rung& rung, const std::vector<const Image*>& preprocessed) const {
  if (!fitted_) throw std::logic_error("NoveltyDetector: not fitted");
  if (rung.q8 && quant_ae_ == nullptr) {
    throw std::logic_error("NoveltyDetector: quantized autoencoder path is not available");
  }
  if (preprocessed.empty()) return {};
  const int64_t batch = static_cast<int64_t>(preprocessed.size());
  const int64_t dim = config_.height * config_.width;
  // Each tensor is built once from its source rows: no zero fill that a
  // copy then overwrites.
  std::vector<float> stacked;
  stacked.reserve(static_cast<size_t>(batch * dim));
  for (const Image* image : preprocessed) {
    if (image == nullptr) throw std::invalid_argument("NoveltyDetector: null image");
    if (image->numel() != dim) {
      throw std::invalid_argument("NoveltyDetector: image size does not match the pipeline");
    }
    const float* pixels = image->tensor().data();
    stacked.insert(stacked.end(), pixels, pixels + dim);
  }
  const Tensor input({batch, dim}, std::move(stacked));
  const Tensor output = rung.q8 ? quant_ae_->forward(input) : autoencoder_.infer(input);
  std::vector<Image> result;
  result.reserve(preprocessed.size());
  for (int64_t n = 0; n < batch; ++n) {
    const float* row = output.data() + n * dim;
    Tensor pixels({config_.height, config_.width}, std::vector<float>(row, row + dim));
    result.emplace_back(config_.height, config_.width, std::move(pixels));
  }
  return result;
}

double NoveltyDetector::variant_score_pair(DetectorVariant variant, const Image& preprocessed,
                                           const Image& reconstruction) const {
  return score_frames(rung(variant), {&preprocessed}, {&reconstruction})[0];
}

std::vector<double> NoveltyDetector::score_frames(
    const Rung& rung, const std::vector<const Image*>& preprocessed,
    const std::vector<const Image*>& reconstructions) const {
  if (reconstructions.size() != preprocessed.size()) {
    throw std::invalid_argument("NoveltyDetector: one reconstruction per input required");
  }
  const bool mse_metric = rung.metric(config_.score) == ReconstructionScore::kMse;
  std::vector<double> scores(preprocessed.size());
  for (size_t i = 0; i < scores.size(); ++i) {
    const Image& input = *preprocessed[i];
    const Image& recon = *reconstructions[i];
    scores[i] = mse_metric ? mse(recon, input) : ssim_.mean_ssim(recon.flattened(), input.flattened());
  }
  return scores;
}

double NoveltyDetector::score(const Image& input) const {
  return score_variant(DetectorVariant::kPrimary, input);
}

double NoveltyDetector::score_variant(DetectorVariant variant, const Image& input) const {
  return score_batch(variant, {&input})[0];
}

std::vector<double> NoveltyDetector::score_batch(DetectorVariant variant,
                                                 const std::vector<const Image*>& inputs) const {
  const Rung& row = rung(variant);
  screen_inputs(inputs, uses_saliency(row.preprocessing(config_.preprocessing)));
  const std::vector<Image> preprocessed = preprocess_frames(row, inputs);
  const std::vector<const Image*> views = pointers(preprocessed);
  return score_frames(row, views, pointers(reconstruct_frames(row, views)));
}

bool NoveltyDetector::batch_parallel_safe() const {
  return saliency_ == nullptr || saliency_->thread_safe();
}

nn::TrainHistory NoveltyDetector::fit(const std::vector<Image>& training_images, Rng& rng) {
  if (training_images.empty()) throw std::invalid_argument("NoveltyDetector::fit: no training images");
  screen_inputs(pointers(training_images), uses_saliency(config_.preprocessing));

  // Refit invalidates any previous quantized state up front: stage 2
  // replaces the autoencoder's layers, which the quantized views point at.
  quant_ae_.reset();
  quant_steering_.reset();
  ae_quant_scales_ = {};
  steering_quant_scales_ = {};
  for (const Rung& row : kRungs) {
    if (row.q8) variant_calibrations_[static_cast<size_t>(row.variant)].reset();
  }

  // Stage 1: preprocess every training image (VBP mask or pass-through),
  // one image per pool chunk.
  std::vector<Image> preprocessed(training_images.size());
  fan_out(static_cast<int64_t>(training_images.size()), batch_parallel_safe(), [&](int64_t i) {
    preprocessed[static_cast<size_t>(i)] = preprocess(training_images[static_cast<size_t>(i)]);
  });

  const int64_t n = static_cast<int64_t>(preprocessed.size());
  const int64_t dim = config_.height * config_.width;
  Tensor data({n, dim});
  for (int64_t i = 0; i < n; ++i) {
    data.set_slice0(i, preprocessed[static_cast<size_t>(i)].flattened());
  }

  // Stage 2: train the one-class autoencoder to reconstruct its input.
  autoencoder_ = build_autoencoder(config_.autoencoder, rng);
  nn::MseLoss mse_loss;
  std::unique_ptr<nn::SsimLoss> ssim_loss;
  nn::Loss* loss = &mse_loss;
  if (config_.score == ReconstructionScore::kSsim) {
    ssim_loss = std::make_unique<nn::SsimLoss>(config_.height, config_.width, config_.ssim);
    loss = ssim_loss.get();
  }
  nn::Adam optimizer(config_.learning_rate);
  nn::Trainer trainer(autoencoder_, *loss, optimizer, rng.split());
  nn::TrainOptions options;
  options.epochs = config_.train_epochs;
  options.batch_size = config_.batch_size;
  options.verbose = config_.verbose;
  const nn::TrainHistory history = trainer.fit(data, data, options);
  fitted_ = true;

  // Stage 3: calibrate the novelty threshold on the training-score ECDF —
  // once per scoring variant, so the serving runtime's degraded modes each
  // test against their own fitted distribution.
  calibrate_rows(/*q8=*/false, training_images, preprocessed);
  threshold_ = variant_calibrations_[static_cast<size_t>(DetectorVariant::kPrimary)]->threshold;

  // Stage 4: int8 quantization (raw and VBP preprocessing only). Fits
  // per-layer activation scales over the training set, builds the quantized
  // model views, and calibrates the q8 variants against their own
  // training-score ECDFs. Draws nothing from `rng`, so every float artifact
  // (weights, thresholds) is unaffected by this stage.
  if (quant_supported()) {
    // Activation maxima are computed over the stacked batch tensors — the
    // per-layer max of a batch forward equals the max over batch-1 calls.
    ae_quant_scales_ = nn::QuantizedForward::calibrate(autoencoder_, {&data});
    if (uses_saliency(config_.preprocessing) && steering_model_ != nullptr) {
      const Tensor steer_data = stack_nchw(pointers(training_images));
      steering_quant_scales_ = nn::QuantizedForward::calibrate(*steering_model_, {&steer_data});
    }
    rebuild_quant_path();
    if (has_quant_path()) calibrate_rows(/*q8=*/true, training_images, preprocessed);
  }
  return history;
}

void NoveltyDetector::calibrate_rows(bool q8, const std::vector<Image>& frames,
                                     const std::vector<Image>& preprocessed) {
  // One group per distinct preprocessing at this precision (configured and
  // raw; a raw configuration has one). A group's rows share one
  // reconstruction per frame; each row owning a slot scores it. The
  // per-frame work is inference-mode forwards only, so it fans out
  // unconditionally.
  const std::array<Preprocessing, 2> groups = {config_.preprocessing, Preprocessing::kRaw};
  for (size_t g = 0; g < groups.size(); ++g) {
    if (g > 0 && groups[g] == groups[0]) break;
    std::vector<const Rung*> rows;
    for (const Rung& row : kRungs) {
      if (row.q8 == q8 && &rung(row.variant) == &row &&
          row.preprocessing(config_.preprocessing) == groups[g]) {
        rows.push_back(&row);
      }
    }
    if (rows.empty()) continue;
    std::vector<std::vector<double>> scores(rows.size(), std::vector<double>(frames.size()));
    fan_out(static_cast<int64_t>(frames.size()), true, [&](int64_t i) {
      const size_t s = static_cast<size_t>(i);
      // Raw frames feed the autoencoder as they are, and stage 1 already
      // ran the configured float preprocessing.
      std::vector<Image> mask;
      const Image* input = &frames[s];
      if (groups[g] != Preprocessing::kRaw) {
        if (q8) mask = preprocess_frames(*rows[0], {&frames[s]});
        input = q8 ? &mask[0] : &preprocessed[s];
      }
      const std::vector<Image> recon = reconstruct_frames(*rows[0], {input});
      for (size_t r = 0; r < rows.size(); ++r) {
        scores[r][s] = score_frames(*rows[r], {input}, {&recon[0]})[0];
      }
    });
    for (size_t r = 0; r < rows.size(); ++r) {
      const ScoreOrientation orientation =
          rows[r]->metric(config_.score) == ReconstructionScore::kMse
              ? ScoreOrientation::kHighIsNovel
              : ScoreOrientation::kLowIsNovel;
      variant_calibrations_[static_cast<size_t>(rows[r]->variant)] =
          VariantCalibration::calibrate(scores[r], orientation, config_.threshold_percentile);
    }
  }
}

const VariantCalibration& NoveltyDetector::variant_calibration(DetectorVariant variant) const {
  const auto& slot = variant_calibrations_[static_cast<size_t>(variant)];
  if (!slot.has_value()) {
    throw std::logic_error(std::string("NoveltyDetector: variant '") +
                           detector_variant_name(variant) +
                           "' is not calibrated (call fit or load)");
  }
  return *slot;
}

const VariantCalibration* NoveltyDetector::variant_calibration_if(DetectorVariant variant) const {
  const auto& slot = variant_calibrations_[static_cast<size_t>(variant)];
  return slot.has_value() ? &*slot : nullptr;
}

bool NoveltyDetector::has_variant_calibrations() const {
  return std::all_of(kRungs.begin(), kRungs.end(), [&](const Rung& row) {
    return row.q8 || variant_calibration_if(row.variant) != nullptr;
  });
}

bool NoveltyDetector::has_quant_calibrations() const {
  return std::all_of(kRungs.begin(), kRungs.end(), [&](const Rung& row) {
    return !row.q8 || variant_calibration_if(row.variant) != nullptr;
  });
}

std::vector<double> NoveltyDetector::scores(const std::vector<Image>& inputs) const {
  std::vector<double> result(inputs.size());
  fan_out(static_cast<int64_t>(inputs.size()), batch_parallel_safe(), [&](int64_t i) {
    result[static_cast<size_t>(i)] = score(inputs[static_cast<size_t>(i)]);
  });
  return result;
}

NoveltyResult NoveltyDetector::classify(const Image& input) const {
  const NoveltyThreshold& t = threshold();
  NoveltyResult result;
  result.score = score(input);
  result.threshold = t.threshold();
  result.is_novel = t.is_novel(result.score);
  return result;
}

const NoveltyThreshold& NoveltyDetector::threshold() const {
  if (!threshold_.has_value()) {
    throw std::logic_error("NoveltyDetector: threshold not calibrated (call fit or load)");
  }
  return *threshold_;
}

}  // namespace salnov::core
