// Unit tests for losses (incl. the differentiable SSIM loss), optimizers,
// the Trainer, and model serialization.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "metrics/ssim.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/flatten.hpp"
#include "nn/loss.hpp"
#include "nn/model_io.hpp"
#include "nn/optimizer.hpp"
#include "nn/ssim_loss.hpp"
#include "nn/trainer.hpp"
#include "tensor/serialize.hpp"
#include "test_util.hpp"

namespace salnov::nn {
namespace {

TEST(MseLossTest, KnownValue) {
  MseLoss loss;
  EXPECT_DOUBLE_EQ(loss.value(Tensor({2}, {1, 3}), Tensor({2}, {0, 0})), 5.0);
}

TEST(MseLossTest, ZeroAtTarget) {
  MseLoss loss;
  const Tensor t({3}, {1, 2, 3});
  EXPECT_DOUBLE_EQ(loss.value(t, t), 0.0);
}

TEST(MseLossTest, GradientCheck) {
  Rng rng(1);
  MseLoss loss;
  test::check_loss_gradient(loss, rng.uniform_tensor({2, 5}, -1.0, 1.0),
                            rng.uniform_tensor({2, 5}, -1.0, 1.0));
}

TEST(MseLossTest, ShapeMismatchThrows) {
  MseLoss loss;
  EXPECT_THROW(loss.value(Tensor({2}), Tensor({3})), std::invalid_argument);
}

TEST(SsimLossTest, ZeroForPerfectReconstruction) {
  Rng rng(4);
  SsimLoss loss(12, 14);
  const Tensor x = rng.uniform_tensor({2, 12 * 14}, 0.0, 1.0);
  EXPECT_NEAR(loss.value(x, x), 0.0, 1e-9);
}

TEST(SsimLossTest, PositiveForMismatchedImages) {
  Rng rng(5);
  SsimLoss loss(12, 14);
  const Tensor x = rng.uniform_tensor({1, 12 * 14}, 0.0, 1.0);
  const Tensor y = rng.uniform_tensor({1, 12 * 14}, 0.0, 1.0);
  EXPECT_GT(loss.value(y, x), 0.3);
}

TEST(SsimLossTest, ValueMatchesMetricSsim) {
  // 1 - loss on a single sample must equal metrics::ssim of the images.
  Rng rng(6);
  const int64_t h = 16, w = 18;
  const Tensor x = rng.uniform_tensor({1, h * w}, 0.0, 1.0);
  const Tensor y = rng.uniform_tensor({1, h * w}, 0.0, 1.0);
  SsimLoss loss(h, w);
  const Image ix(h, w, x.reshape({h, w}));
  const Image iy(h, w, y.reshape({h, w}));
  EXPECT_NEAR(1.0 - loss.value(y, x), ssim(iy, ix), 1e-6);
}

TEST(SsimLossTest, MeanSsimMatchesMetric) {
  Rng rng(7);
  const int64_t h = 13, w = 15;
  const Tensor x = rng.uniform_tensor({h * w}, 0.0, 1.0);
  const Tensor y = rng.uniform_tensor({h * w}, 0.0, 1.0);
  SsimLoss loss(h, w);
  const Image ix(h, w, x.reshape({h, w}));
  const Image iy(h, w, y.reshape({h, w}));
  EXPECT_NEAR(loss.mean_ssim(y, x), ssim(iy, ix), 1e-6);
}

TEST(SsimLossTest, GradientCheck) {
  Rng rng(8);
  const int64_t h = 12, w = 13;
  SsimLoss loss(h, w);
  const Tensor x = rng.uniform_tensor({1, h * w}, 0.0, 1.0);
  const Tensor y = rng.uniform_tensor({1, h * w}, 0.0, 1.0);
  test::check_loss_gradient(loss, y, x, 1e-3, 5e-3);
}

TEST(SsimLossTest, GradientCheckBatch) {
  Rng rng(9);
  const int64_t h = 11, w = 12;
  SsimLoss loss(h, w);
  const Tensor x = rng.uniform_tensor({3, h * w}, 0.0, 1.0);
  const Tensor y = rng.uniform_tensor({3, h * w}, 0.0, 1.0);
  test::check_loss_gradient(loss, y, x, 1e-3, 5e-3);
}

TEST(SsimLossTest, GradientCheckStride2) {
  Rng rng(10);
  const int64_t h = 13, w = 13;
  SsimOptions options;
  options.stride = 2;
  SsimLoss loss(h, w, options);
  const Tensor x = rng.uniform_tensor({1, h * w}, 0.0, 1.0);
  const Tensor y = rng.uniform_tensor({1, h * w}, 0.0, 1.0);
  test::check_loss_gradient(loss, y, x, 1e-3, 5e-3);
}

TEST(SsimLossTest, GradientDescentImprovesSsim) {
  // Direct gradient descent on the reconstruction must increase SSIM.
  Rng rng(11);
  const int64_t h = 12, w = 12;
  SsimLoss loss(h, w);
  const Tensor x = rng.uniform_tensor({1, h * w}, 0.2, 0.8);
  Tensor y = rng.uniform_tensor({1, h * w}, 0.2, 0.8);
  const double before = loss.value(y, x);
  for (int step = 0; step < 200; ++step) {
    const Tensor g = loss.gradient(y, x);
    y -= g * 1.0f;
  }
  EXPECT_GT(before, 0.5);
  EXPECT_LT(loss.value(y, x), 0.05);
}

TEST(SsimLossTest, RejectsWrongShapes) {
  SsimLoss loss(12, 12);
  EXPECT_THROW(loss.value(Tensor({1, 100}), Tensor({1, 100})), std::invalid_argument);
  EXPECT_THROW(SsimLoss(4, 4), std::invalid_argument);  // smaller than window
}

TEST(AdamTest, ConvergesOnQuadratic) {
  // Minimize f(w) = (w - 3)^2 by feeding its gradient to Adam.
  Parameter p("w", Tensor({1}, {0.0f}));
  Adam adam(0.1);
  for (int i = 0; i < 300; ++i) {
    p.grad = Tensor({1}, {2.0f * (p.value[0] - 3.0f)});
    adam.step({&p});
  }
  EXPECT_NEAR(p.value[0], 3.0f, 0.05f);
}

TEST(AdamTest, InvalidHyperparametersThrow) {
  EXPECT_THROW(Adam(-1.0), std::invalid_argument);
  EXPECT_THROW(Adam(0.1, 1.0), std::invalid_argument);
}

TEST(OptimizerTest, ZeroGradClearsAccumulators) {
  Parameter p("w", Tensor({2}, {1, 1}));
  p.grad = Tensor({2}, {5, 5});
  Optimizer::zero_grad({&p});
  EXPECT_FLOAT_EQ(p.grad[0], 0.0f);
}

TEST(TrainerTest, LearnsLinearRegression) {
  // y = 2x - 1, learnable exactly by a single dense layer.
  Rng rng(12);
  Sequential model;
  model.emplace<Dense>(1, 1, rng);
  MseLoss loss;
  Adam optimizer(0.05);
  Trainer trainer(model, loss, optimizer, rng.split());

  const int64_t n = 64;
  Tensor x({n, 1}), y({n, 1});
  Rng data_rng(13);
  for (int64_t i = 0; i < n; ++i) {
    x[i] = static_cast<float>(data_rng.uniform(-1.0, 1.0));
    y[i] = 2.0f * x[i] - 1.0f;
  }
  TrainOptions options;
  options.epochs = 200;
  options.batch_size = 16;
  const TrainHistory history = trainer.fit(x, y, options);
  EXPECT_LT(history.final_loss(), 1e-3);
}

TEST(TrainerTest, LossDecreasesOverEpochs) {
  Rng rng(14);
  Sequential model;
  model.emplace<Dense>(2, 8, rng);
  model.emplace<ReLU>();
  model.emplace<Dense>(8, 1, rng);
  MseLoss loss;
  Adam optimizer(0.01);
  Trainer trainer(model, loss, optimizer, rng.split());

  const int64_t n = 128;
  Tensor x({n, 2}), y({n, 1});
  Rng data_rng(15);
  for (int64_t i = 0; i < n; ++i) {
    const float a = static_cast<float>(data_rng.uniform(-1.0, 1.0));
    const float b = static_cast<float>(data_rng.uniform(-1.0, 1.0));
    x[2 * i] = a;
    x[2 * i + 1] = b;
    y[i] = a * b;  // nonlinear target
  }
  TrainOptions options;
  options.epochs = 40;
  const TrainHistory history = trainer.fit(x, y, options);
  EXPECT_LT(history.epoch_loss.back(), history.epoch_loss.front() * 0.5);
}

TEST(TrainerTest, EarlyStopCallback) {
  Rng rng(16);
  Sequential model;
  model.emplace<Dense>(1, 1, rng);
  MseLoss loss;
  Adam optimizer(0.01);
  Trainer trainer(model, loss, optimizer, rng.split());
  Tensor x({4, 1}), y({4, 1});
  TrainOptions options;
  options.epochs = 100;
  options.on_epoch = [](int64_t epoch, double) { return epoch < 4; };
  const TrainHistory history = trainer.fit(x, y, options);
  EXPECT_EQ(history.epoch_loss.size(), 5u);
}

TEST(TrainerTest, MismatchedDatasetThrows) {
  Rng rng(17);
  Sequential model;
  model.emplace<Dense>(1, 1, rng);
  MseLoss loss;
  Adam optimizer(0.01);
  Trainer trainer(model, loss, optimizer, rng.split());
  EXPECT_THROW(trainer.fit(Tensor({3, 1}), Tensor({4, 1}), {}), std::invalid_argument);
}

TEST(ModelIo, RoundTripPreservesArchitectureAndWeights) {
  Rng rng(18);
  Sequential model;
  Conv2dConfig cfg{1, 3, 3, 3, 2, 1};
  model.emplace<Conv2d>(cfg, rng);
  model.emplace<ReLU>();
  model.emplace<Flatten>();
  model.emplace<Dense>(48, 4, rng);
  model.emplace<Tanh>();
  model.emplace<Dense>(4, 1, rng);
  model.emplace<Sigmoid>();

  std::stringstream ss;
  save_model(ss, model);
  Sequential loaded = load_model(ss);

  ASSERT_EQ(loaded.size(), model.size());
  const Tensor input = rng.uniform_tensor({2, 1, 8, 8}, -1.0, 1.0);
  test::expect_tensors_near(loaded.forward(input, Mode::kInfer), model.forward(input, Mode::kInfer),
                            1e-6f);
}

TEST(ModelIo, CorruptedMagicRejected) {
  std::stringstream ss("garbage-not-a-model-file-____");
  EXPECT_THROW(load_model(ss), SerializationError);
}

TEST(ModelIo, TruncatedFileRejected) {
  Rng rng(19);
  Sequential model;
  model.emplace<Dense>(4, 4, rng);
  std::stringstream ss;
  save_model(ss, model);
  const std::string full = ss.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW(load_model(truncated), SerializationError);
}

}  // namespace
}  // namespace salnov::nn
