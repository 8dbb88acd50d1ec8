// Parameterized property sweeps over the nn substrate: gradient correctness
// for every layer configuration in a grid, optimizer convergence for every
// optimizer, and SSIM-loss gradients across window/stride combinations.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <tuple>

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/optimizer.hpp"
#include "nn/ssim_loss.hpp"
#include "test_util.hpp"

namespace salnov::nn {
namespace {

// ---------------------------------------------------------------------------
// Conv2d gradient grid: (in_channels, out_channels, kernel, stride, padding).

using ConvCase = std::tuple<int, int, int, int, int>;

class ConvGradientSweep : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvGradientSweep, AnalyticMatchesNumeric) {
  const auto [in_c, out_c, kernel, stride, padding] = GetParam();
  Rng rng(static_cast<uint64_t>(in_c * 1000 + out_c * 100 + kernel * 10 + stride));
  Conv2dConfig config;
  config.in_channels = in_c;
  config.out_channels = out_c;
  config.kernel_h = config.kernel_w = kernel;
  config.stride = stride;
  config.padding = padding;
  Conv2d conv(config, rng);
  // Input large enough for any config in the grid.
  const Tensor input = rng.uniform_tensor({2, in_c, 7, 8}, -1.0, 1.0);
  test::check_layer_gradients(conv, input, rng);
}

std::string conv_case_name(const ::testing::TestParamInfo<ConvCase>& info) {
  const auto [in_c, out_c, kernel, stride, padding] = info.param;
  return "i" + std::to_string(in_c) + "o" + std::to_string(out_c) + "k" + std::to_string(kernel) +
         "s" + std::to_string(stride) + "p" + std::to_string(padding);
}

INSTANTIATE_TEST_SUITE_P(Grid, ConvGradientSweep,
                         ::testing::Values(ConvCase{1, 1, 1, 1, 0}, ConvCase{1, 2, 3, 1, 0},
                                           ConvCase{2, 3, 3, 1, 1}, ConvCase{1, 2, 3, 2, 0},
                                           ConvCase{2, 2, 5, 2, 0}, ConvCase{3, 1, 3, 1, 1},
                                           ConvCase{1, 4, 2, 2, 1}, ConvCase{2, 2, 3, 3, 1}),
                         conv_case_name);

// ---------------------------------------------------------------------------
// Dense gradient grid.

using DenseCase = std::tuple<int, int, int>;  // batch, in, out

class DenseGradientSweep : public ::testing::TestWithParam<DenseCase> {};

TEST_P(DenseGradientSweep, AnalyticMatchesNumeric) {
  const auto [batch, in_f, out_f] = GetParam();
  Rng rng(static_cast<uint64_t>(batch * 100 + in_f * 10 + out_f));
  Dense dense(in_f, out_f, rng);
  const Tensor input = rng.uniform_tensor({batch, in_f}, -1.0, 1.0);
  test::check_layer_gradients(dense, input, rng);
}

std::string dense_case_name(const ::testing::TestParamInfo<DenseCase>& info) {
  return "b" + std::to_string(std::get<0>(info.param)) + "i" +
         std::to_string(std::get<1>(info.param)) + "o" + std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(Grid, DenseGradientSweep,
                         ::testing::Values(DenseCase{1, 1, 1}, DenseCase{1, 5, 3},
                                           DenseCase{3, 2, 7}, DenseCase{4, 6, 2},
                                           DenseCase{2, 8, 8}),
                         dense_case_name);

// ---------------------------------------------------------------------------
// Activation gradient sweep (factory-based).

struct ActivationCase {
  const char* name;
  std::unique_ptr<Layer> (*make)();
};

// Print the case by name: gtest's default dumps the struct bytes, which
// hold pointers and so differ from one process to the next.
void PrintTo(const ActivationCase& c, std::ostream* os) { *os << c.name; }

class ActivationGradientSweep : public ::testing::TestWithParam<ActivationCase> {};

TEST_P(ActivationGradientSweep, AnalyticMatchesNumeric) {
  Rng rng(99);
  auto layer = GetParam().make();
  // Inputs away from zero so the ReLU kink does not poison the check.
  Tensor input = rng.uniform_tensor({3, 6}, 0.15, 1.2);
  for (int64_t i = 0; i < input.numel(); i += 3) input[i] = -input[i];
  test::check_layer_gradients(*layer, input, rng);
}

INSTANTIATE_TEST_SUITE_P(
    All, ActivationGradientSweep,
    ::testing::Values(ActivationCase{"relu", [] { return std::unique_ptr<Layer>(new ReLU); }},
                      ActivationCase{"sigmoid", [] { return std::unique_ptr<Layer>(new Sigmoid); }},
                      ActivationCase{"tanh", [] { return std::unique_ptr<Layer>(new Tanh); }}),
    [](const ::testing::TestParamInfo<ActivationCase>& info) { return info.param.name; });

// ---------------------------------------------------------------------------
// Optimizer convergence sweep: each optimizer must minimize a quadratic.

struct OptimizerCase {
  const char* name;
  std::unique_ptr<Optimizer> (*make)();
  int steps;
};

void PrintTo(const OptimizerCase& c, std::ostream* os) { *os << c.name; }

class OptimizerConvergenceSweep : public ::testing::TestWithParam<OptimizerCase> {};

TEST_P(OptimizerConvergenceSweep, MinimizesQuadratic) {
  auto optimizer = GetParam().make();
  Parameter p("w", Tensor({2}, {5.0f, -4.0f}));
  // f(w) = (w0 - 1)^2 + 2 (w1 + 2)^2 ; unique minimum at (1, -2).
  for (int i = 0; i < GetParam().steps; ++i) {
    p.grad = Tensor({2}, {2.0f * (p.value[0] - 1.0f), 4.0f * (p.value[1] + 2.0f)});
    optimizer->step({&p});
  }
  EXPECT_NEAR(p.value[0], 1.0f, 0.1f);
  EXPECT_NEAR(p.value[1], -2.0f, 0.1f);
}

INSTANTIATE_TEST_SUITE_P(
    All, OptimizerConvergenceSweep,
    ::testing::Values(
        OptimizerCase{"sgd", [] { return std::unique_ptr<Optimizer>(new Sgd(0.05)); }, 400},
        OptimizerCase{"momentum",
                      [] { return std::unique_ptr<Optimizer>(new Momentum(0.02, 0.9)); }, 400},
        OptimizerCase{"adam", [] { return std::unique_ptr<Optimizer>(new Adam(0.1)); }, 400}),
    [](const ::testing::TestParamInfo<OptimizerCase>& info) { return info.param.name; });

// ---------------------------------------------------------------------------
// SSIM loss gradient across window/stride combinations.

using SsimCase = std::tuple<int, int>;  // window, stride

class SsimLossSweep : public ::testing::TestWithParam<SsimCase> {};

TEST_P(SsimLossSweep, GradientMatchesNumeric) {
  const auto [window, stride] = GetParam();
  Rng rng(static_cast<uint64_t>(window * 10 + stride));
  const int64_t h = 14, w = 15;
  SsimOptions options;
  options.window = window;
  options.stride = stride;
  SsimLoss loss(h, w, options);
  const Tensor x = rng.uniform_tensor({1, h * w}, 0.0, 1.0);
  const Tensor y = rng.uniform_tensor({1, h * w}, 0.0, 1.0);
  test::check_loss_gradient(loss, y, x, 1e-3, 5e-3);
}

TEST_P(SsimLossSweep, PerfectReconstructionGivesZeroLossAndZeroGradient) {
  const auto [window, stride] = GetParam();
  Rng rng(static_cast<uint64_t>(window * 100 + stride));
  const int64_t h = 14, w = 15;
  SsimOptions options;
  options.window = window;
  options.stride = stride;
  SsimLoss loss(h, w, options);
  const Tensor x = rng.uniform_tensor({2, h * w}, 0.05, 0.95);
  EXPECT_NEAR(loss.value(x, x), 0.0, 1e-9);
  const Tensor g = loss.gradient(x, x);
  // At the optimum the gradient must vanish.
  for (int64_t i = 0; i < g.numel(); ++i) EXPECT_NEAR(g[i], 0.0f, 1e-5f);
}

INSTANTIATE_TEST_SUITE_P(Grid, SsimLossSweep,
                         ::testing::Values(SsimCase{3, 1}, SsimCase{5, 1}, SsimCase{7, 2},
                                           SsimCase{11, 1}, SsimCase{11, 3}, SsimCase{13, 5}),
                         [](const ::testing::TestParamInfo<SsimCase>& info) {
                           return "w" + std::to_string(std::get<0>(info.param)) + "s" +
                                  std::to_string(std::get<1>(info.param));
                         });

}  // namespace
}  // namespace salnov::nn
