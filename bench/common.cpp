#include "common.hpp"

#include <cstdio>
#include <filesystem>
#include <memory>

#include "core/pipeline_io.hpp"
#include "driving/steering_trainer.hpp"
#include "metrics/histogram.hpp"
#include "metrics/roc.hpp"
#include "nn/model_io.hpp"
#include "tensor/serialize.hpp"

namespace salnov::bench {

std::string artifact_dir() {
  static const std::string dir = [] {
    std::string d = "bench_artifacts";
    std::filesystem::create_directories(d);
    return d;
  }();
  return dir;
}

Env& environment() {
  static std::unique_ptr<Env> env = [] {
    auto e = std::make_unique<Env>();
    Rng rng(1);
    std::fprintf(stderr, "[env] generating datasets (%lld train / %lld test per class)...\n",
                 static_cast<long long>(kTrainImages), static_cast<long long>(kTestImages));
    e->outdoor_train = roadsim::DrivingDataset::generate(e->outdoor, kTrainImages, kHeight, kWidth, rng);
    e->outdoor_test = roadsim::DrivingDataset::generate(e->outdoor, kTestImages, kHeight, kWidth, rng);
    e->indoor_test = roadsim::DrivingDataset::generate(e->indoor, kTestImages, kHeight, kWidth, rng);

    const std::string model_path = artifact_dir() + "/steering_compact.model";
    bool loaded = false;
    if (std::filesystem::exists(model_path)) {
      std::fprintf(stderr, "[env] loading cached steering model from %s\n", model_path.c_str());
      try {
        e->steering = nn::load_model_file(model_path);
        nn::require_model_shape(e->steering, {1, 1, kHeight, kWidth}, {1, 1}, "cached steering model");
        loaded = true;
      } catch (const SerializationError& err) {
        std::fprintf(stderr, "[env] cached model unusable (%s); retraining\n", err.what());
      }
    }
    if (!loaded) {
      std::fprintf(stderr, "[env] training steering model (25 epochs, ~30 s on one core)...\n");
      e->steering = driving::build_pilotnet(driving::PilotNetConfig::compact(), rng);
      driving::SteeringTrainOptions options;
      options.epochs = 25;
      options.learning_rate = 2e-3;
      driving::train_steering_model(e->steering, e->outdoor_train, options, rng);
      nn::save_model_file(model_path, e->steering);
    }
    std::fprintf(stderr, "[env] steering MAE on held-out outdoor data: %.3f\n",
                 driving::steering_mae(e->steering, e->outdoor_test));
    return e;
  }();
  return *env;
}

core::NoveltyDetectorConfig bench_detector_config(core::Preprocessing pre,
                                                  core::ReconstructionScore score) {
  core::NoveltyDetectorConfig config;  // paper defaults: 60x160, 64-16-64 AE
  config.preprocessing = pre;
  config.score = score;
  // The SSIM objective converges more slowly than pixel-wise MSE on the
  // same architecture; give it a longer budget so both reach their plateau.
  config.train_epochs = score == core::ReconstructionScore::kSsim ? 150 : 60;
  config.learning_rate = 3e-3;
  return config;
}

DetectorHandle fit_or_load_detector(Env& env, core::NoveltyDetectorConfig config, uint64_t seed) {
  const bool vbp = core::uses_saliency(config.preprocessing);
  const char* pre_name = config.preprocessing == core::Preprocessing::kRaw        ? "raw"
                         : config.preprocessing == core::Preprocessing::kVbp      ? "vbp"
                         : config.preprocessing == core::Preprocessing::kGradient ? "grad"
                                                                                  : "lrp";
  // Non-default autoencoder layouts get an architecture segment so a
  // capacity-scaled fit can never collide with a paper-scale cache entry.
  std::string arch;
  if (config.autoencoder.hidden_units != core::AutoencoderConfig{}.hidden_units) {
    arch = "_h";
    for (size_t i = 0; i < config.autoencoder.hidden_units.size(); ++i) {
      if (i > 0) arch += "x";
      arch += std::to_string(config.autoencoder.hidden_units[i]);
    }
  }
  const std::string cache_path =
      artifact_dir() + "/detector_" + pre_name + "_" +
      (config.score == core::ReconstructionScore::kSsim ? "ssim" : "mse") + arch + "_" +
      std::to_string(config.train_epochs) + "ep_seed" + std::to_string(seed) + ".pipeline";

  DetectorHandle handle;
  if (std::filesystem::exists(cache_path)) {
    std::fprintf(stderr, "[fit] loading cached detector from %s\n", cache_path.c_str());
    try {
      core::LoadedPipeline loaded = core::PipelineIo::load_file(cache_path);
      handle.steering = std::move(loaded.steering_model);
      handle.detector = std::move(loaded.detector);
      return handle;
    } catch (const SerializationError& err) {
      // Damaged or older-format cache entry: refit and overwrite it.
      std::fprintf(stderr, "[fit] cached detector unusable (%s); refitting\n", err.what());
    }
  }

  handle.detector = std::make_unique<core::NoveltyDetector>(std::move(config));
  if (vbp) handle.detector->attach_steering_model(&env.steering);
  Rng rng(seed);
  std::fprintf(stderr, "[fit] training autoencoder (%lld epochs)...\n",
               static_cast<long long>(handle.detector->config().train_epochs));
  handle.detector->fit(env.outdoor_train.images(), rng);
  core::PipelineIo::save_file(cache_path, *handle.detector, vbp ? &env.steering : nullptr);
  return handle;
}

double mean_of(const std::vector<double>& values) {
  double acc = 0.0;
  for (double v : values) acc += v;
  return values.empty() ? 0.0 : acc / static_cast<double>(values.size());
}

void print_score_comparison(const std::string& title, const std::string& target_name,
                            const std::vector<double>& target_scores, const std::string& novel_name,
                            const std::vector<double>& novel_scores, bool high_is_novel,
                            double threshold, int64_t bins) {
  const auto [tmin, tmax] = std::minmax_element(target_scores.begin(), target_scores.end());
  const auto [nmin, nmax] = std::minmax_element(novel_scores.begin(), novel_scores.end());
  double lo = std::min(*tmin, *nmin);
  double hi = std::max(*tmax, *nmax);
  if (lo == hi) hi = lo + 1e-9;

  Histogram target_hist(lo, hi, bins);
  Histogram novel_hist(lo, hi, bins);
  target_hist.add_all(target_scores);
  novel_hist.add_all(novel_scores);

  std::printf("\n%s\n", title.c_str());
  std::printf("%12s | %-26s | %-26s\n", "score", target_name.c_str(), novel_name.c_str());
  const int64_t bar = 24;
  int64_t peak = 1;
  for (int64_t b = 0; b < bins; ++b) {
    peak = std::max({peak, target_hist.count(b), novel_hist.count(b)});
  }
  for (int64_t b = 0; b < bins; ++b) {
    std::string tb(static_cast<size_t>(target_hist.count(b) * bar / peak), '#');
    std::string nb(static_cast<size_t>(novel_hist.count(b) * bar / peak), '*');
    std::printf("%12.4f | %-26s | %-26s\n", target_hist.bin_center(b), tb.c_str(), nb.c_str());
  }

  const double auc = high_is_novel ? auc_high_is_positive(novel_scores, target_scores)
                                   : auc_low_is_positive(novel_scores, target_scores);
  const DetectionRates rates = high_is_novel
                                   ? rates_at_threshold_high(novel_scores, target_scores, threshold)
                                   : rates_at_threshold_low(novel_scores, target_scores, threshold);
  std::printf("  %s mean = %.4f   %s mean = %.4f\n", target_name.c_str(), mean_of(target_scores),
              novel_name.c_str(), mean_of(novel_scores));
  std::printf("  distribution overlap = %.3f   AUC = %.3f\n",
              distribution_overlap(target_scores, novel_scores), auc);
  std::printf("  threshold (99th pct rule) = %.4f -> %.1f%% novel flagged, %.1f%% target flagged\n",
              threshold, 100.0 * rates.true_positive_rate, 100.0 * rates.false_positive_rate);
}

void print_header(const std::string& figure, const std::string& description) {
  std::printf("==============================================================\n");
  std::printf("%s\n%s\n", figure.c_str(), description.c_str());
  std::printf("==============================================================\n");
}

}  // namespace salnov::bench
