#include "core/pipeline_io.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "nn/model_io.hpp"
#include "tensor/serialize.hpp"

namespace salnov::core {
namespace {

constexpr const char* kMagic = "salnov-pipeline";
// Layout: config, primary threshold, one presence flag + calibration (ECDF +
// threshold) per DetectorVariant, the autoencoder, the optional steering
// model, and the int8 activation-scale blocks for the autoencoder and
// steering forwards. The float calibrations are mandatory, so every loadable
// pipeline can serve the full ladder; absent q8 calibrations make the
// serving layer fall back to the float ladder. Older versions are rejected
// (callers refit; the bench cache does so automatically).

/// Reads a u32 that must be 0 or 1.
bool read_flag(std::istream& is, const char* what) {
  const uint32_t value = read_u32(is);
  if (value > 1) {
    throw SerializationError(std::string("pipeline: ") + what + " " + std::to_string(value) +
                             " out of range");
  }
  return value == 1;
}

void write_quant_scales(std::ostream& os, const nn::QuantScales& scales) {
  write_u32(os, static_cast<uint32_t>(scales.act_scales.size()));
  for (float s : scales.act_scales) write_f32(os, s);
}

nn::QuantScales read_quant_scales(std::istream& is) {
  const uint32_t count = read_u32(is);
  if (count > 4096) throw SerializationError("pipeline: implausible quant scale count");
  nn::QuantScales scales;
  scales.act_scales.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    const float s = read_f32(is);
    if (!std::isfinite(s) || s <= 0.0f) {
      throw SerializationError("pipeline: quant scale must be finite and positive");
    }
    scales.act_scales.push_back(s);
  }
  return scales;
}

void write_config(std::ostream& os, const NoveltyDetectorConfig& config) {
  write_i64(os, config.height);
  write_i64(os, config.width);
  write_u32(os, static_cast<uint32_t>(config.preprocessing));
  write_u32(os, config.score == ReconstructionScore::kSsim ? 1u : 0u);
  write_u32(os, static_cast<uint32_t>(config.autoencoder.hidden_units.size()));
  for (int64_t units : config.autoencoder.hidden_units) write_i64(os, units);
  write_i64(os, config.train_epochs);
  write_i64(os, config.batch_size);
  write_f32(os, static_cast<float>(config.learning_rate));
  write_f32(os, static_cast<float>(config.threshold_percentile));
  write_i64(os, config.ssim.window);
  write_i64(os, config.ssim.stride);
  write_f64(os, config.ssim.k1);
  write_f64(os, config.ssim.k2);
  write_f64(os, config.ssim.dynamic_range);
}

NoveltyDetectorConfig read_config(std::istream& is) {
  NoveltyDetectorConfig config;
  config.height = read_i64(is);
  config.width = read_i64(is);
  const uint32_t preprocessing = read_u32(is);
  if (preprocessing >= kPreprocessingCount) {
    throw SerializationError("pipeline: unknown preprocessing tag " + std::to_string(preprocessing));
  }
  config.preprocessing = static_cast<Preprocessing>(preprocessing);
  config.score = read_flag(is, "score tag") ? ReconstructionScore::kSsim : ReconstructionScore::kMse;
  const uint32_t hidden_count = read_u32(is);
  if (hidden_count > 64) throw SerializationError("pipeline: implausible hidden layer count");
  config.autoencoder.hidden_units.clear();
  for (uint32_t i = 0; i < hidden_count; ++i) config.autoencoder.hidden_units.push_back(read_i64(is));
  config.train_epochs = read_i64(is);
  config.batch_size = read_i64(is);
  config.learning_rate = read_f32(is);
  config.threshold_percentile = read_f32(is);
  config.ssim.window = read_i64(is);
  config.ssim.stride = read_i64(is);
  config.ssim.k1 = read_f64(is);
  config.ssim.k2 = read_f64(is);
  config.ssim.dynamic_range = read_f64(is);
  return config;
}

}  // namespace

void PipelineIo::save(std::ostream& os, const NoveltyDetector& detector,
                      nn::Sequential* steering_model) {
  if (!detector.is_fitted()) {
    throw std::logic_error("PipelineIo::save: detector is not fitted");
  }
  if (uses_saliency(detector.config().preprocessing) && steering_model == nullptr) {
    throw std::invalid_argument("PipelineIo::save: saliency pipeline requires its steering model");
  }
  if (!detector.has_variant_calibrations()) {
    throw std::logic_error("PipelineIo::save: detector lacks variant calibrations (refit required)");
  }
  write_header(os, kMagic, kCurrentVersion);
  write_config(os, detector.config());
  detector.threshold().save(os);
  write_u32(os, static_cast<uint32_t>(kDetectorVariantCount));
  for (int v = 0; v < kDetectorVariantCount; ++v) {
    const VariantCalibration* calibration =
        detector.variant_calibration_if(static_cast<DetectorVariant>(v));
    write_u32(os, calibration != nullptr ? 1u : 0u);
    if (calibration != nullptr) calibration->save(os);
  }
  // The autoencoder is logically const here; save_model only reads weights.
  nn::save_model(os, const_cast<NoveltyDetector&>(detector).autoencoder());
  write_u32(os, steering_model != nullptr ? 1u : 0u);
  if (steering_model != nullptr) nn::save_model(os, *steering_model);
  write_quant_scales(os, detector.ae_quant_scales_);
  write_quant_scales(os, detector.steering_quant_scales_);
}

void PipelineIo::save_file(const std::string& path, const NoveltyDetector& detector,
                           nn::Sequential* steering_model) {
  save_file_checked(path, [&](std::ostream& os) { save(os, detector, steering_model); });
}

LoadedPipeline PipelineIo::load(std::istream& is) {
  read_header(is, kMagic, kCurrentVersion);
  const NoveltyDetectorConfig config = read_config(is);
  const NoveltyThreshold threshold = NoveltyThreshold::load(is);

  LoadedPipeline pipeline;
  try {
    pipeline.detector = std::make_unique<NoveltyDetector>(config);
  } catch (const std::invalid_argument& err) {
    throw SerializationError(std::string("pipeline: invalid detector configuration: ") +
                             err.what());
  }
  const uint32_t variant_count = read_u32(is);
  if (variant_count != static_cast<uint32_t>(kDetectorVariantCount)) {
    throw SerializationError("pipeline: expected " + std::to_string(kDetectorVariantCount) +
                             " variant calibrations, file has " + std::to_string(variant_count));
  }
  for (uint32_t v = 0; v < variant_count; ++v) {
    if (!read_flag(is, "calibration presence flag")) {
      if (!rung(static_cast<DetectorVariant>(v)).q8) {
        throw SerializationError("pipeline: float variant calibration missing");
      }
      continue;  // absent q8 calibration: the float peer serves the rung
    }
    pipeline.detector->variant_calibrations_[v] = VariantCalibration::load(is);
  }
  pipeline.detector->autoencoder_ = nn::load_model(is);
  int64_t pixels = 0;
  if (__builtin_mul_overflow(config.height, config.width, &pixels)) {
    throw SerializationError("pipeline: implausible image size");
  }
  nn::require_model_shape(pipeline.detector->autoencoder_, {1, pixels}, {1, pixels},
                          "pipeline: autoencoder");
  pipeline.detector->threshold_ = threshold;
  pipeline.detector->fitted_ = true;

  if (read_flag(is, "steering presence flag")) {
    pipeline.steering_model = std::make_unique<nn::Sequential>(nn::load_model(is));
    nn::require_model_shape(*pipeline.steering_model, {1, 1, config.height, config.width}, {1, 1},
                            "pipeline: steering model");
    pipeline.detector->attach_steering_model(pipeline.steering_model.get());
  } else if (uses_saliency(config.preprocessing)) {
    throw SerializationError("pipeline: saliency configuration but no steering model in file");
  }
  pipeline.detector->ae_quant_scales_ = read_quant_scales(is);
  pipeline.detector->steering_quant_scales_ = read_quant_scales(is);
  if (!pipeline.detector->ae_quant_scales_.empty() &&
      pipeline.detector->ae_quant_scales_.act_scales.size() !=
          static_cast<size_t>(
              nn::QuantizedForward::count_quantizable(pipeline.detector->autoencoder_))) {
    throw SerializationError("pipeline: autoencoder quant scale count mismatch");
  }
  if (!pipeline.detector->steering_quant_scales_.empty() &&
      (pipeline.steering_model == nullptr ||
       pipeline.detector->steering_quant_scales_.act_scales.size() !=
           static_cast<size_t>(
               nn::QuantizedForward::count_quantizable(*pipeline.steering_model)))) {
    throw SerializationError("pipeline: steering quant scale count mismatch");
  }
  // Builds the quantized wrappers from the freshly loaded weights + scales
  // (attach_steering_model above ran too early — before the scales existed).
  pipeline.detector->rebuild_quant_path();
  return pipeline;
}

LoadedPipeline PipelineIo::load_file(const std::string& path) {
  std::istringstream is(load_file_checked(path), std::ios::binary);
  return load(is);
}

}  // namespace salnov::core
