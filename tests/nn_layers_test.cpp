// Unit tests for nn layers: forward correctness on hand-computed examples,
// a bit-exact conv geometry sweep against a direct convolution, and
// numerical gradient checks (central differences) for every layer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/flatten.hpp"
#include "nn/sequential.hpp"
#include "tensor/gemm.hpp"
#include "test_util.hpp"

namespace salnov::nn {
namespace {

TEST(Dense, ForwardMatchesHandComputation) {
  // y = x W + b with known numbers.
  Dense dense(Tensor({2, 2}, {1, 2, 3, 4}), Tensor({2}, {10, 20}));
  const Tensor out = dense.forward(Tensor({1, 2}, {1, 1}), Mode::kInfer);
  test::expect_tensors_near(out, Tensor({1, 2}, {1 + 3 + 10, 2 + 4 + 20}));
}

TEST(Dense, ForwardBatch) {
  Dense dense(Tensor({1, 1}, {2}), Tensor({1}, {1}));
  const Tensor out = dense.forward(Tensor({3, 1}, {1, 2, 3}), Mode::kInfer);
  test::expect_tensors_near(out, Tensor({3, 1}, {3, 5, 7}));
}

TEST(Dense, RejectsWrongInputWidth) {
  Rng rng(1);
  Dense dense(3, 2, rng);
  EXPECT_THROW(dense.forward(Tensor({1, 4}), Mode::kInfer), std::invalid_argument);
}

TEST(Dense, BackwardWithoutForwardThrows) {
  Rng rng(1);
  Dense dense(2, 2, rng);
  EXPECT_THROW(dense.backward(Tensor({1, 2})), std::logic_error);
}

TEST(Dense, GradientCheck) {
  Rng rng(42);
  Dense dense(4, 3, rng);
  const Tensor input = rng.uniform_tensor({2, 4}, -1.0, 1.0);
  test::check_layer_gradients(dense, input, rng);
}

TEST(Dense, GradientsAccumulateAcrossBackwardCalls) {
  Rng rng(7);
  Dense dense(2, 2, rng);
  const Tensor input = rng.uniform_tensor({1, 2}, -1.0, 1.0);
  const Tensor seed = Tensor::ones({1, 2});
  dense.forward(input, Mode::kTrain);
  dense.backward(seed);
  const Tensor first = dense.weight().grad;
  dense.forward(input, Mode::kTrain);
  dense.backward(seed);
  test::expect_tensors_near(dense.weight().grad, first * 2.0f, 1e-5f);
}

TEST(Dense, InvalidConstructionThrows) {
  Rng rng(1);
  EXPECT_THROW(Dense(0, 2, rng), std::invalid_argument);
  EXPECT_THROW(Dense(Tensor({2, 2}), Tensor({3})), std::invalid_argument);
}

TEST(Conv2d, ForwardIdentityKernel) {
  // 1x1 kernel with weight 1: output equals input.
  Conv2dConfig cfg{1, 1, 1, 1, 1, 0};
  Conv2d conv(cfg, Tensor({1, 1, 1, 1}, {1.0f}), Tensor({1}, {0.0f}));
  const Tensor input = Tensor({1, 1, 2, 3}, {1, 2, 3, 4, 5, 6});
  test::expect_tensors_near(conv.forward(input, Mode::kInfer), input);
}

TEST(Conv2d, ForwardSumKernel) {
  // 2x2 all-ones kernel computes window sums.
  Conv2dConfig cfg{1, 1, 2, 2, 1, 0};
  Conv2d conv(cfg, Tensor::ones({1, 1, 2, 2}), Tensor({1}, {0.0f}));
  const Tensor input = Tensor({1, 1, 2, 2}, {1, 2, 3, 4});
  const Tensor out = conv.forward(input, Mode::kInfer);
  EXPECT_EQ(out.shape(), (Shape{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(out[0], 10.0f);
}

TEST(Conv2d, BiasAddedPerChannel) {
  Conv2dConfig cfg{1, 2, 1, 1, 1, 0};
  Conv2d conv(cfg, Tensor::zeros({2, 1, 1, 1}), Tensor({2}, {1.5f, -2.0f}));
  const Tensor out = conv.forward(Tensor({1, 1, 2, 2}), Mode::kInfer);
  EXPECT_FLOAT_EQ(out.at({0, 0, 1, 1}), 1.5f);
  EXPECT_FLOAT_EQ(out.at({0, 1, 0, 0}), -2.0f);
}

TEST(Conv2d, StrideGeometry) {
  Conv2dConfig cfg{1, 1, 5, 5, 2, 0};
  Rng rng(1);
  Conv2d conv(cfg, rng);
  EXPECT_EQ(conv.output_shape({1, 1, 60, 160}), (Shape{1, 1, 28, 78}));
}

TEST(Conv2d, PaddingGeometry) {
  Conv2dConfig cfg{1, 1, 3, 3, 1, 1};
  Rng rng(1);
  Conv2d conv(cfg, rng);
  EXPECT_EQ(conv.output_shape({2, 1, 7, 9}), (Shape{2, 1, 7, 9}));
}

TEST(Conv2d, PaddingTreatedAsZeros) {
  Conv2dConfig cfg{1, 1, 3, 3, 1, 1};
  Conv2d conv(cfg, Tensor::ones({1, 1, 3, 3}), Tensor({1}, {0.0f}));
  Tensor input = Tensor::ones({1, 1, 3, 3});
  const Tensor out = conv.forward(input, Mode::kInfer);
  EXPECT_FLOAT_EQ(out.at({0, 0, 1, 1}), 9.0f);  // center sees full window
  EXPECT_FLOAT_EQ(out.at({0, 0, 0, 0}), 4.0f);  // corner sees 2x2 of ones
}

TEST(Conv2d, TooSmallInputThrows) {
  Conv2dConfig cfg{1, 1, 5, 5, 1, 0};
  Rng rng(1);
  Conv2d conv(cfg, rng);
  EXPECT_THROW(conv.forward(Tensor({1, 1, 4, 4}), Mode::kInfer), std::invalid_argument);
}

TEST(Conv2d, WrongChannelCountThrows) {
  Conv2dConfig cfg{2, 1, 3, 3, 1, 0};
  Rng rng(1);
  Conv2d conv(cfg, rng);
  EXPECT_THROW(conv.forward(Tensor({1, 1, 5, 5}), Mode::kInfer), std::invalid_argument);
}

TEST(Conv2d, OverflowingPaddedSizeThrows) {
  // Padding and frame size can come from a file; their sum must not wrap.
  Conv2dConfig cfg{1, 1, 3, 3, 1, std::numeric_limits<int64_t>::max() / 2};
  Rng rng(1);
  Conv2d conv(cfg, rng);
  EXPECT_THROW(conv.output_shape({1, 1, 8, 8}), std::invalid_argument);
}

TEST(Flatten, OverflowingFeatureCountThrows) {
  Flatten flatten;
  EXPECT_THROW(flatten.output_shape({1, std::numeric_limits<int64_t>::max(), 2}),
               std::invalid_argument);
}

TEST(Conv2d, GradientCheckValidConv) {
  Rng rng(3);
  Conv2dConfig cfg{2, 3, 3, 3, 1, 0};
  Conv2d conv(cfg, rng);
  const Tensor input = rng.uniform_tensor({2, 2, 5, 5}, -1.0, 1.0);
  test::check_layer_gradients(conv, input, rng);
}

TEST(Conv2d, GradientCheckStridedPaddedConv) {
  Rng rng(5);
  Conv2dConfig cfg{1, 2, 3, 3, 2, 1};
  Conv2d conv(cfg, rng);
  const Tensor input = rng.uniform_tensor({1, 1, 6, 6}, -1.0, 1.0);
  test::check_layer_gradients(conv, input, rng);
}

TEST(Conv2d, GradientCheckRectangularKernel) {
  Rng rng(9);
  Conv2dConfig cfg{1, 2, 2, 4, 1, 0};
  Conv2d conv(cfg, rng);
  const Tensor input = rng.uniform_tensor({1, 1, 4, 6}, -1.0, 1.0);
  test::check_layer_gradients(conv, input, rng);
}

// ---------------------------------------------------------------------------
// Conv geometry sweep: Conv2d's inference forward (im2col + GEMM) equals a
// direct convolution bit for bit. Every output is one dot product over
// K = (channel, ki, kj) in ascending order, padding reads contributing
// w * 0, then + bias and the optional ReLU: separate multiply and add under
// the scalar kernel, std::fma under the SIMD kernel.

struct KernelShape {
  int64_t kh;
  int64_t kw;
};

void PrintTo(const KernelShape& k, std::ostream* os) { *os << k.kh << "x" << k.kw; }

Tensor direct_conv(const Tensor& x, const Conv2d& conv, bool relu, bool fused_multiply_add) {
  const Conv2dConfig& cfg = conv.config();
  const Shape out_shape = conv.output_shape(x.shape());
  const int64_t in_h = x.dim(2), in_w = x.dim(3), out_h = out_shape[2], out_w = out_shape[3];
  const Tensor& w = conv.weight().value;
  const Tensor& b = conv.bias().value;
  Tensor out(out_shape);
  for (int64_t n = 0; n < out_shape[0]; ++n) {
    for (int64_t oc = 0; oc < cfg.out_channels; ++oc) {
      for (int64_t oy = 0; oy < out_h; ++oy) {
        for (int64_t ox = 0; ox < out_w; ++ox) {
          float acc = 0.0f;
          for (int64_t c = 0; c < cfg.in_channels; ++c) {
            for (int64_t ki = 0; ki < cfg.kernel_h; ++ki) {
              for (int64_t kj = 0; kj < cfg.kernel_w; ++kj) {
                const int64_t iy = oy * cfg.stride - cfg.padding + ki;
                const int64_t ix = ox * cfg.stride - cfg.padding + kj;
                const bool inside = iy >= 0 && iy < in_h && ix >= 0 && ix < in_w;
                const float v = inside ? x.at({n, c, iy, ix}) : 0.0f;
                const float wv = w.at({oc, c, ki, kj});
                acc = fused_multiply_add ? std::fma(wv, v, acc) : acc + wv * v;
              }
            }
          }
          acc += b[oc];
          if (relu) acc = acc > 0.0f ? acc : 0.0f;
          out.at({n, oc, oy, ox}) = acc;
        }
      }
    }
  }
  return out;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

class ConvGeometrySweep : public ::testing::TestWithParam<KernelShape> {};

TEST_P(ConvGeometrySweep, InferenceMatchesDirectConvolutionBitExact) {
  const KernelShape k = GetParam();
  const GemmKernel saved = active_gemm_kernel();
  std::vector<GemmKernel> kernels{GemmKernel::kScalar};
  if (gemm_simd_available()) kernels.push_back(GemmKernel::kSimd);

  Rng rng(static_cast<uint64_t>(100 + 10 * k.kh + k.kw));
  int64_t checked = 0;
  for (int64_t stride = 1; stride <= 3; ++stride) {
    for (int64_t pad = 0; pad <= 2; ++pad) {
      for (int64_t in_c = 1; in_c <= 3; ++in_c) {
        // Sizes down to one pixel: with padding, whole kernel rows and
        // columns then read only padding.
        for (int64_t in_h : {1, 2, 4, 7}) {
          for (int64_t in_w : {1, 3, 5, 9}) {
            if (in_h + 2 * pad < k.kh || in_w + 2 * pad < k.kw) continue;
            // out_channels 1 takes the GEMM's matrix-vector path, 3 the tile
            // kernel with pre-packed weights.
            const int64_t out_c = (in_h + in_w) % 2 == 0 ? 3 : 1;
            const Conv2dConfig cfg{in_c, out_c, k.kh, k.kw, stride, pad};
            Conv2d layer(cfg, rng.uniform_tensor({out_c, in_c, k.kh, k.kw}, -1.0, 1.0),
                         rng.uniform_tensor({out_c}, -0.5, 0.5));
            for (int64_t batch : {1, 3}) {
              const Tensor x = rng.uniform_tensor({batch, in_c, in_h, in_w}, -1.0, 1.0);
              for (GemmKernel kernel : kernels) {
                set_gemm_kernel(kernel);
                const bool fma = kernel == GemmKernel::kSimd;
                const std::string where =
                    std::string(gemm_kernel_name(kernel)) + " stride " + std::to_string(stride) +
                    " pad " + std::to_string(pad) + " in_c " + std::to_string(in_c) + " input " +
                    std::to_string(in_h) + "x" + std::to_string(in_w) + " batch " +
                    std::to_string(batch);
                EXPECT_TRUE(same_bits(layer.forward(x, Mode::kInfer),
                                      direct_conv(x, layer, false, fma)))
                    << "forward(kInfer), " << where;
                EXPECT_TRUE(same_bits(layer.forward_infer_fused_relu(x),
                                      direct_conv(x, layer, true, fma)))
                    << "forward_infer_fused_relu, " << where;
                ++checked;
              }
            }
          }
        }
      }
    }
  }
  set_gemm_kernel(saved);
  EXPECT_GT(checked, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Geometry, ConvGeometrySweep,
    ::testing::Values(KernelShape{1, 1}, KernelShape{2, 2}, KernelShape{3, 3}, KernelShape{4, 4},
                      KernelShape{5, 5}, KernelShape{1, 3}, KernelShape{3, 1}, KernelShape{2, 5},
                      KernelShape{5, 2}, KernelShape{4, 3}),
    [](const ::testing::TestParamInfo<KernelShape>& info) {
      return "k" + std::to_string(info.param.kh) + "x" + std::to_string(info.param.kw);
    });

TEST(ReLU, ForwardClampsNegatives) {
  ReLU relu;
  const Tensor out = relu.forward(Tensor({4}, {-1, 0, 2, -3}), Mode::kInfer);
  test::expect_tensors_near(out, Tensor({4}, {0, 0, 2, 0}));
}

TEST(ReLU, GradientCheck) {
  Rng rng(11);
  ReLU relu;
  // Keep inputs away from the kink at 0 for a clean finite-difference check.
  Tensor input = rng.uniform_tensor({2, 6}, 0.2, 1.0);
  for (int64_t i = 0; i < input.numel(); i += 2) input[i] = -input[i];
  test::check_layer_gradients(relu, input, rng);
}

TEST(Sigmoid, ForwardKnownValues) {
  Sigmoid sigmoid;
  const Tensor out = sigmoid.forward(Tensor({2}, {0.0f, 100.0f}), Mode::kInfer);
  EXPECT_NEAR(out[0], 0.5f, 1e-6f);
  EXPECT_NEAR(out[1], 1.0f, 1e-6f);
}

TEST(Sigmoid, GradientCheck) {
  Rng rng(13);
  Sigmoid sigmoid;
  const Tensor input = rng.uniform_tensor({3, 4}, -2.0, 2.0);
  test::check_layer_gradients(sigmoid, input, rng);
}

TEST(Tanh, ForwardKnownValues) {
  Tanh tanh_layer;
  const Tensor out = tanh_layer.forward(Tensor({2}, {0.0f, 20.0f}), Mode::kInfer);
  EXPECT_NEAR(out[0], 0.0f, 1e-6f);
  EXPECT_NEAR(out[1], 1.0f, 1e-5f);
}

TEST(Tanh, GradientCheck) {
  Rng rng(17);
  Tanh tanh_layer;
  const Tensor input = rng.uniform_tensor({2, 5}, -1.5, 1.5);
  test::check_layer_gradients(tanh_layer, input, rng);
}

TEST(Flatten, CollapsesTrailingDims) {
  Flatten flatten;
  const Tensor out = flatten.forward(Tensor({2, 3, 4, 5}), Mode::kInfer);
  EXPECT_EQ(out.shape(), (Shape{2, 60}));
}

TEST(Flatten, BackwardRestoresShape) {
  Flatten flatten;
  flatten.forward(Tensor({2, 3, 2, 2}), Mode::kTrain);
  const Tensor grad = flatten.backward(Tensor({2, 12}));
  EXPECT_EQ(grad.shape(), (Shape{2, 3, 2, 2}));
}

TEST(Sequential, ChainsLayers) {
  Rng rng(23);
  Sequential model;
  model.emplace<Dense>(Tensor({2, 2}, {1, 0, 0, 1}), Tensor({2}, {1, 1}));
  model.emplace<ReLU>();
  const Tensor out = model.forward(Tensor({1, 2}, {-5, 3}), Mode::kInfer);
  test::expect_tensors_near(out, Tensor({1, 2}, {0, 4}));
}

TEST(Sequential, ForwardCollectReturnsAllActivations) {
  Sequential model;
  model.emplace<Dense>(Tensor({1, 1}, {2}), Tensor({1}, {0}));
  model.emplace<ReLU>();
  const auto acts = model.forward_collect(Tensor({1, 1}, {3}));
  ASSERT_EQ(acts.size(), 2u);
  EXPECT_FLOAT_EQ(acts[0][0], 6.0f);
  EXPECT_FLOAT_EQ(acts[1][0], 6.0f);
}

TEST(Sequential, EndToEndGradientCheck) {
  Rng rng(29);
  Sequential model;
  model.emplace<Dense>(3, 4, rng);
  model.emplace<ReLU>();
  model.emplace<Dense>(4, 2, rng);
  model.emplace<Tanh>();

  const Tensor input = rng.uniform_tensor({2, 3}, -1.0, 1.0);
  const Tensor seed = rng.uniform_tensor({2, 2}, -1.0, 1.0);

  model.zero_grad();
  model.forward(input, Mode::kTrain);
  const Tensor grad_input = model.backward(seed);

  auto scalar = [&](const Tensor& x) {
    const Tensor out = model.forward(x, Mode::kInfer);
    double acc = 0.0;
    for (int64_t i = 0; i < out.numel(); ++i) acc += static_cast<double>(out[i]) * seed[i];
    return acc;
  };
  Tensor x = input;
  for (int64_t i = 0; i < x.numel(); ++i) {
    const float saved = x[i];
    const double h = 1e-3;
    x[i] = saved + static_cast<float>(h);
    const double up = scalar(x);
    x[i] = saved - static_cast<float>(h);
    const double down = scalar(x);
    x[i] = saved;
    EXPECT_NEAR(grad_input[i], (up - down) / (2 * h), 2e-2) << "at " << i;
  }
}

TEST(Sequential, ParameterCountSumsLayers) {
  Rng rng(31);
  Sequential model;
  model.emplace<Dense>(10, 5, rng);  // 10*5 + 5
  model.emplace<Dense>(5, 2, rng);   // 5*2 + 2
  EXPECT_EQ(model.parameter_count(), 55 + 12);
}

TEST(Sequential, OutputShapePropagates) {
  Rng rng(37);
  Sequential model;
  Conv2dConfig cfg{1, 4, 3, 3, 1, 0};
  model.emplace<Conv2d>(cfg, rng);
  model.emplace<ReLU>();
  model.emplace<Flatten>();
  model.emplace<Dense>(4 * 4 * 4, 2, rng);
  EXPECT_EQ(model.output_shape({5, 1, 6, 6}), (Shape{5, 2}));
}

TEST(Sequential, AddNullThrows) {
  Sequential model;
  EXPECT_THROW(model.add(nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace salnov::nn
