// Unit tests for the PilotNet steering model and its training harness.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "driving/pilotnet.hpp"
#include "driving/steering_trainer.hpp"
#include "nn/model_io.hpp"
#include "roadsim/outdoor_generator.hpp"

namespace salnov::driving {
namespace {

TEST(PilotNet, PaperConfigShapes) {
  Rng rng(1);
  const PilotNetConfig config = PilotNetConfig::paper();
  nn::Sequential model = build_pilotnet(config, rng);
  EXPECT_EQ(model.output_shape({4, 1, 60, 160}), (Shape{4, 1}));
}

TEST(PilotNet, PaperConfigHasFiveConvStages) {
  Rng rng(2);
  nn::Sequential model = build_pilotnet(PilotNetConfig::paper(), rng);
  size_t stages = 0;
  for (size_t i = 0; i < model.size(); ++i) stages += model.ends_conv_stage(i) ? 1 : 0;
  EXPECT_EQ(stages, 5u);
}

TEST(PilotNet, CompactConfigShapes) {
  Rng rng(3);
  nn::Sequential model = build_pilotnet(PilotNetConfig::compact(), rng);
  EXPECT_EQ(model.output_shape({2, 1, 60, 160}), (Shape{2, 1}));
  // Compact model must be much smaller than the paper model.
  Rng rng2(3);
  nn::Sequential paper = build_pilotnet(PilotNetConfig::paper(), rng2);
  EXPECT_LT(model.parameter_count(), paper.parameter_count() / 4);
}

TEST(PilotNet, TinyConfigShapes) {
  Rng rng(4);
  const PilotNetConfig config = PilotNetConfig::tiny(24, 48);
  nn::Sequential model = build_pilotnet(config, rng);
  EXPECT_EQ(model.output_shape({1, 1, 24, 48}), (Shape{1, 1}));
}

TEST(PilotNet, OutputBoundedByTanh) {
  Rng rng(5);
  nn::Sequential model = build_pilotnet(PilotNetConfig::tiny(24, 48), rng);
  const Tensor out = model.forward(rng.uniform_tensor({3, 1, 24, 48}, 0.0, 1.0), nn::Mode::kInfer);
  for (int64_t i = 0; i < out.numel(); ++i) {
    EXPECT_GE(out[i], -1.0f);
    EXPECT_LE(out[i], 1.0f);
  }
}

TEST(PilotNet, InvalidConfigThrows) {
  Rng rng(6);
  PilotNetConfig config;
  config.conv_channels.clear();
  EXPECT_THROW(build_pilotnet(config, rng), std::invalid_argument);
}

TEST(PilotNet, ConvStageOutputsPointAtReLUs) {
  Rng rng(7);
  nn::Sequential model = build_pilotnet(PilotNetConfig::tiny(24, 48), rng);
  for (size_t idx = 0; idx < model.size(); ++idx) {
    if (!model.ends_conv_stage(idx)) continue;
    EXPECT_EQ(model.layer(idx).type_name(), "relu");
    EXPECT_EQ(model.layer(idx - 1).type_name(), "conv2d");
  }
}

TEST(SteeringTrainer, LossDecreasesOnRealLabels) {
  roadsim::OutdoorSceneGenerator gen;
  Rng rng(8);
  const auto dataset = roadsim::DrivingDataset::generate(gen, 48, 24, 48, rng);

  nn::Sequential model = build_pilotnet(PilotNetConfig::tiny(24, 48), rng);
  SteeringTrainOptions options;
  options.epochs = 12;
  options.learning_rate = 2e-3;
  const SteeringTrainResult result = train_steering_model(model, dataset, options, rng);
  ASSERT_GE(result.history.epoch_loss.size(), 2u);
  EXPECT_LT(result.history.epoch_loss.back(), result.history.epoch_loss.front());
}

TEST(SteeringTrainer, LearnsBetterThanMeanPredictor) {
  roadsim::OutdoorSceneGenerator gen;
  Rng rng(9);
  const auto dataset = roadsim::DrivingDataset::generate(gen, 96, 24, 48, rng);

  nn::Sequential model = build_pilotnet(PilotNetConfig::tiny(24, 48), rng);
  SteeringTrainOptions options;
  options.epochs = 25;
  options.learning_rate = 2e-3;
  train_steering_model(model, dataset, options, rng);

  // Variance of the labels = MSE of the best constant predictor.
  double mean_label = 0.0;
  for (int64_t i = 0; i < dataset.size(); ++i) mean_label += dataset.steering(i);
  mean_label /= static_cast<double>(dataset.size());
  double variance = 0.0;
  for (int64_t i = 0; i < dataset.size(); ++i) {
    const double d = dataset.steering(i) - mean_label;
    variance += d * d;
  }
  variance /= static_cast<double>(dataset.size());

  double model_mse = 0.0;
  for (int64_t i = 0; i < dataset.size(); ++i) {
    const double d = predict_steering(model, dataset.image(i)) - dataset.steering(i);
    model_mse += d * d;
  }
  model_mse /= static_cast<double>(dataset.size());
  EXPECT_LT(model_mse, variance * 0.6);
}

TEST(SteeringTrainer, RandomLabelsDoNotLearnStructure) {
  roadsim::OutdoorSceneGenerator gen;
  Rng rng(10);
  const auto dataset = roadsim::DrivingDataset::generate(gen, 48, 24, 48, rng);

  nn::Sequential model = build_pilotnet(PilotNetConfig::tiny(24, 48), rng);
  SteeringTrainOptions options;
  options.epochs = 10;
  options.randomize_labels = true;
  train_steering_model(model, dataset, options, rng);

  // Against the *true* labels the random-label model should be no better
  // than a mean predictor (it never saw them).
  const double mae = steering_mae(model, dataset);
  EXPECT_GT(mae, 0.15);
}

TEST(SteeringTrainer, EmptyDatasetThrows) {
  Rng rng(11);
  nn::Sequential model = build_pilotnet(PilotNetConfig::tiny(24, 48), rng);
  EXPECT_THROW(train_steering_model(model, roadsim::DrivingDataset{}, {}, rng), std::invalid_argument);
}

TEST(PilotNet, FreshModelPredictsNearZero) {
  // The output head is initialized small so the tanh starts in its linear
  // region: an untrained model must not be saturated at +/-1 (that failure
  // mode produces vanishing gradients and a constant-prediction model).
  Rng rng(20);
  nn::Sequential model = build_pilotnet(PilotNetConfig::compact(), rng);
  Rng probe_rng(21);
  for (int i = 0; i < 5; ++i) {
    const Tensor input = probe_rng.uniform_tensor({1, 1, 60, 160}, 0.0, 1.0);
    const double prediction = model.forward(input, nn::Mode::kInfer)[0];
    EXPECT_LT(std::abs(prediction), 0.5) << "saturated at init";
  }
}

TEST(PilotNet, TrainedModelRoundTripsThroughFile) {
  roadsim::OutdoorSceneGenerator gen;
  Rng rng(22);
  const auto dataset = roadsim::DrivingDataset::generate(gen, 32, 24, 48, rng);
  nn::Sequential model = build_pilotnet(PilotNetConfig::tiny(24, 48), rng);
  SteeringTrainOptions options;
  options.epochs = 5;
  train_steering_model(model, dataset, options, rng);

  std::stringstream ss;
  nn::save_model(ss, model);
  nn::Sequential loaded = nn::load_model(ss);
  for (int64_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(predict_steering(loaded, dataset.image(i)),
                     predict_steering(model, dataset.image(i)));
  }
}

TEST(SteeringTrainer, PredictSteeringScalar) {
  Rng rng(12);
  nn::Sequential model = build_pilotnet(PilotNetConfig::tiny(24, 48), rng);
  const double s = predict_steering(model, Image(24, 48));
  EXPECT_GE(s, -1.0);
  EXPECT_LE(s, 1.0);
}

}  // namespace
}  // namespace salnov::driving
