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

constexpr ListField<uint32_t> kHiddenUnitList{"hidden layer count", 64};
constexpr ListField<uint32_t> kQuantScaleList{"quant scale count", 4096};

// The field lists of the config and quant-scale blocks, shared by save()
// (Io = FieldWriter, records const) and load() (Io = FieldReader).

template <typename Io, typename Config>
void config_fields(Io& io, Config& config) {
  io.i64(config.height);
  io.i64(config.width);
  io.tag(config.preprocessing, kPreprocessingCount, "preprocessing tag");
  io.tag(config.score, kReconstructionScoreCount, "score tag");
  io.list(config.autoencoder.hidden_units, kHiddenUnitList,
          [](auto& io, auto& units) { io.i64(units); });
  io.i64(config.train_epochs);
  io.i64(config.batch_size);
  io.f32(config.learning_rate);
  io.f32(config.threshold_percentile);
  io.i64(config.ssim.window);
  io.i64(config.ssim.stride);
  io.f64(config.ssim.k1);
  io.f64(config.ssim.k2);
  io.f64(config.ssim.dynamic_range);
}

template <typename Io, typename Scales>
void quant_scale_fields(Io& io, Scales& scales) {
  io.list(scales.act_scales, kQuantScaleList, [](auto& io, auto& scale) { io.f32(scale); });
}

/// Structural check of a loaded scale block: each scale finite and positive.
void check_quant_scales(const nn::QuantScales& scales) {
  for (float s : scales.act_scales) {
    if (!std::isfinite(s) || s <= 0.0f) {
      throw SerializationError("pipeline: quant scale must be finite and positive");
    }
  }
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
  FieldWriter io(os);
  config_fields(io, detector.config());
  detector.threshold().save(os);
  io.u32(kDetectorVariantCount);
  for (int v = 0; v < kDetectorVariantCount; ++v) {
    const VariantCalibration* calibration =
        detector.variant_calibration_if(static_cast<DetectorVariant>(v));
    io.flag(calibration != nullptr, "calibration presence flag");
    if (calibration != nullptr) calibration->save(os);
  }
  // The autoencoder is logically const here; save_model only reads weights.
  nn::save_model(os, const_cast<NoveltyDetector&>(detector).autoencoder());
  io.flag(steering_model != nullptr, "steering presence flag");
  if (steering_model != nullptr) nn::save_model(os, *steering_model);
  quant_scale_fields(io, detector.ae_quant_scales_);
  quant_scale_fields(io, detector.steering_quant_scales_);
}

void PipelineIo::save_file(const std::string& path, const NoveltyDetector& detector,
                           nn::Sequential* steering_model) {
  save_file_checked(path, [&](std::ostream& os) { save(os, detector, steering_model); });
}

LoadedPipeline PipelineIo::load(std::istream& is) {
  read_header(is, kMagic, kCurrentVersion);
  FieldReader io(is, "pipeline");
  NoveltyDetectorConfig config;
  config_fields(io, config);
  const NoveltyThreshold threshold = NoveltyThreshold::load(is);

  LoadedPipeline pipeline;
  try {
    pipeline.detector = std::make_unique<NoveltyDetector>(config);
  } catch (const std::invalid_argument& err) {
    throw SerializationError(std::string("pipeline: invalid detector configuration: ") +
                             err.what());
  }
  uint32_t variant_count = 0;
  io.u32(variant_count);
  if (variant_count != static_cast<uint32_t>(kDetectorVariantCount)) {
    throw SerializationError("pipeline: expected " + std::to_string(kDetectorVariantCount) +
                             " variant calibrations, file has " + std::to_string(variant_count));
  }
  for (uint32_t v = 0; v < variant_count; ++v) {
    bool present = false;
    io.flag(present, "calibration presence flag");
    if (!present) {
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

  bool has_steering = false;
  io.flag(has_steering, "steering presence flag");
  if (has_steering) {
    pipeline.steering_model = std::make_unique<nn::Sequential>(nn::load_model(is));
    nn::require_model_shape(*pipeline.steering_model, {1, 1, config.height, config.width}, {1, 1},
                            "pipeline: steering model");
    pipeline.detector->attach_steering_model(pipeline.steering_model.get());
  } else if (uses_saliency(config.preprocessing)) {
    throw SerializationError("pipeline: saliency configuration but no steering model in file");
  }
  quant_scale_fields(io, pipeline.detector->ae_quant_scales_);
  check_quant_scales(pipeline.detector->ae_quant_scales_);
  quant_scale_fields(io, pipeline.detector->steering_quant_scales_);
  check_quant_scales(pipeline.detector->steering_quant_scales_);
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
