// Unit tests for nn layers: forward correctness on hand-computed examples,
// a bit-exact conv geometry sweep against a direct convolution, numerical
// gradient checks (central differences) for every layer, and the weight
// caches' rebuild after a weight update.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/flatten.hpp"
#include "nn/quantized.hpp"
#include "nn/sequential.hpp"
#include "parallel/parallel_for.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_simd.hpp"
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
  const Tensor seed({1, 2}, {1.0f, 1.0f});
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
  Conv2d conv(cfg, Tensor({1, 1, 2, 2}, {1, 1, 1, 1}), Tensor({1}, {0.0f}));
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
  Tensor input({1, 1, 3, 3});
  input.fill(1.0f);
  Conv2d conv(cfg, input, Tensor({1}, {0.0f}));
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
            // out_channels 1 and 3: one pre-packed weight row panel, mostly
            // zero padding, under the SIMD kernel.
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

// ---------------------------------------------------------------------------
// Implicit-GEMM convolution: the SIMD inference route gathers each
// 16-position B panel from the input, so it is held bit-exact to the direct
// convolution where the geometry sweep's small shapes cannot reach: a single
// output channel (out_channels 1, five zero rows in its one A row panel),
// several A row panels with a tail (out_channels 13, 25) and more rows than the
// pool's row grain (25, which fans column panels out at 4 threads), panels
// straddling output rows (output widths 17, 37, 78) and tail panels, under
// both tile kernels and their panel fills, at 1 and 4 pool threads.

/// Restores the pool size, GEMM kernel and tile switch on scope exit.
struct ImplicitConvGuard {
  GemmKernel saved = active_gemm_kernel();
  bool saved_tile = detail::gemm_avx512_tile_enabled();
  ~ImplicitConvGuard() {
    parallel::set_num_threads(0);
    set_gemm_kernel(saved);
    detail::set_gemm_avx512_tile(saved_tile);
  }
};

/// Checks forward(kInfer) and the fused-ReLU forward of `layer` on `x`
/// against the FMA direct convolution under every tile kernel / pool size.
void expect_implicit_conv_bit_exact(Conv2d& layer, const Tensor& x, const std::string& where) {
  const Tensor plain = direct_conv(x, layer, false, true);
  const Tensor relu = direct_conv(x, layer, true, true);
  for (bool wide_tile : {false, true}) {
    for (int threads : {1, 4}) {
      detail::set_gemm_avx512_tile(wide_tile);
      parallel::set_num_threads(threads);
      const std::string mode = where + (wide_tile ? ", avx512 tile" : ", avx2 tile") + ", " +
                               std::to_string(threads) + " threads";
      EXPECT_TRUE(same_bits(layer.forward(x, Mode::kInfer), plain)) << "forward(kInfer), " << mode;
      EXPECT_TRUE(same_bits(layer.forward_infer_fused_relu(x), relu))
          << "forward_infer_fused_relu, " << mode;
    }
  }
}

TEST(ConvImplicitGemm, StridePaddingAndWidthSweepMatchesDirectConvolutionBitExact) {
  if (!gemm_simd_available()) GTEST_SKIP() << "SIMD kernel not available on this CPU";
  ImplicitConvGuard guard;
  set_gemm_kernel(GemmKernel::kSimd);
  Rng rng(2028);
  const int64_t in_c = 2;
  const int64_t out_h = 3;
  for (int64_t out_c : {1, 8, 13, 20, 25}) {
    for (int64_t stride = 1; stride <= 3; ++stride) {
      const int64_t kernel = stride + 2;
      for (int64_t pad = 0; pad <= 2; ++pad) {
        for (int64_t out_w : {17, 37, 78}) {
          // The input size that gives exactly out_h x out_w.
          const int64_t in_h = (out_h - 1) * stride + kernel - 2 * pad;
          const int64_t in_w = (out_w - 1) * stride + kernel - 2 * pad;
          const Conv2dConfig cfg{in_c, out_c, kernel, kernel, stride, pad};
          Conv2d layer(cfg, rng.uniform_tensor({out_c, in_c, kernel, kernel}, -1.0, 1.0),
                       rng.uniform_tensor({out_c}, -0.5, 0.5));
          for (int64_t batch : {1, 3}) {
            const Tensor x = rng.uniform_tensor({batch, in_c, in_h, in_w}, -1.0, 1.0);
            ASSERT_EQ(layer.output_shape(x.shape()), (Shape{batch, out_c, out_h, out_w}));
            expect_implicit_conv_bit_exact(
                layer, x,
                "out_c " + std::to_string(out_c) + " stride " + std::to_string(stride) + " pad " +
                    std::to_string(pad) + " out_w " + std::to_string(out_w) + " batch " +
                    std::to_string(batch));
          }
        }
      }
    }
  }
}

TEST(ConvImplicitGemm, PilotNetLayersMatchDirectConvolutionBitExact) {
  if (!gemm_simd_available()) GTEST_SKIP() << "SIMD kernel not available on this CPU";
  ImplicitConvGuard guard;
  set_gemm_kernel(GemmKernel::kSimd);
  Rng rng(2029);
  // The compact and paper PilotNet conv stacks at the 60x160 frame: three
  // 5x5 stride-2 valid layers, then two 3x3 stride-1 layers padded by 1.
  for (const std::vector<int64_t>& channels :
       {std::vector<int64_t>{8, 12, 16, 20, 20}, std::vector<int64_t>{24, 36, 48, 64, 64}}) {
    int64_t in_c = 1, in_h = 60, in_w = 160;
    for (size_t i = 0; i < channels.size(); ++i) {
      const bool strided = i < 3;
      const int64_t kernel = strided ? 5 : 3;
      const Conv2dConfig cfg{in_c, channels[i], kernel, kernel, strided ? 2 : 1, strided ? 0 : 1};
      Conv2d layer(cfg, rng.uniform_tensor({channels[i], in_c, kernel, kernel}, -1.0, 1.0),
                   rng.uniform_tensor({channels[i]}, -0.5, 0.5));
      const Tensor x = rng.uniform_tensor({2, in_c, in_h, in_w}, -1.0, 1.0);
      expect_implicit_conv_bit_exact(layer, x,
                                     "conv" + std::to_string(i) + " of " +
                                         std::to_string(channels[0]) + "-channel PilotNet");
      const Shape out = layer.output_shape(x.shape());
      in_c = out[1];
      in_h = out[2];
      in_w = out[3];
    }
  }
}

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
  // Exact bits: the sigmoid is one fixed formulation on every kernel.
  Sigmoid sigmoid;
  const Tensor out = sigmoid.forward(Tensor({4}, {0.0f, 100.0f, 1.0f, -2.75f}), Mode::kInfer);
  EXPECT_EQ(std::bit_cast<uint32_t>(out[0]), 0x3f000000u);  // 0.5
  EXPECT_EQ(std::bit_cast<uint32_t>(out[1]), 0x3f800000u);  // 1.0
  EXPECT_EQ(std::bit_cast<uint32_t>(out[2]), 0x3f3b26a8u);
  EXPECT_EQ(std::bit_cast<uint32_t>(out[3]), 0x3d761d6cu);
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

// ---------------------------------------------------------------------------
// Weight caches: Dense and Conv2d keep their packed GEMM panels, and the int8
// view its quantized weights, in a WeightCache keyed by Parameter::version.
// After a weight changes in place and bump_version() is called, the next
// inference forward must equal a model built from the new weights, bit for
// bit: the batch-B Dense and the Conv2d layer by layer, and the int8 view.

/// conv -> relu -> flatten -> dense -> relu -> dense, from `w` in
/// parameters() order.
Sequential cache_test_model(const std::vector<Tensor>& w) {
  Sequential model;
  model.emplace<Conv2d>(Conv2dConfig{1, 4, 3, 3, 1, 0}, w[0], w[1]);
  model.emplace<ReLU>();
  model.emplace<Flatten>();
  model.emplace<Dense>(w[2], w[3]);
  model.emplace<ReLU>();
  model.emplace<Dense>(w[4], w[5]);
  return model;
}

std::vector<Tensor> cache_test_weights(Rng& rng) {
  return {rng.uniform_tensor({4, 1, 3, 3}, -1.0, 1.0), rng.uniform_tensor({4}, -0.5, 0.5),
          rng.uniform_tensor({80, 12}, -0.3, 0.3),     rng.uniform_tensor({12}, -0.5, 0.5),
          rng.uniform_tensor({12, 3}, -0.5, 0.5),      rng.uniform_tensor({3}, -0.5, 0.5)};
}

/// A model whose caches were built from one set of weights and then had a
/// second set written into its Parameters in place, each version bumped;
/// `fresh` is built from the second set.
struct BumpedModel {
  explicit BumpedModel(uint64_t seed) {
    Rng rng(seed);
    const std::vector<Tensor> before = cache_test_weights(rng);
    const std::vector<Tensor> after = cache_test_weights(rng);
    input = rng.uniform_tensor({5, 1, 6, 7}, -1.0, 1.0);
    model = cache_test_model(before);
    scales = QuantizedForward::calibrate(model, {&input});
    quant = std::make_unique<QuantizedForward>(model, scales);
    model.infer(input);  // builds the float panels
    quant->forward(input);  // and the int8 weights
    const std::vector<Parameter*> params = model.parameters();
    for (size_t j = 0; j < params.size(); ++j) {
      std::memcpy(params[j]->value.data(), after[j].data(),
                  static_cast<size_t>(after[j].numel()) * sizeof(float));
      params[j]->bump_version();
    }
    fresh = cache_test_model(after);
    fresh_quant = std::make_unique<QuantizedForward>(fresh, scales);
  }

  Tensor input;  ///< batch 5, so the Dense layers run on packed panels
  Sequential model;
  Sequential fresh;
  QuantScales scales;
  std::unique_ptr<QuantizedForward> quant;
  std::unique_ptr<QuantizedForward> fresh_quant;
};

TEST(WeightCache, ForwardAfterBumpVersionMatchesAModelBuiltFromTheNewWeights) {
  const BumpedModel bumped(31);
  const std::vector<Tensor> got = bumped.model.forward_collect(bumped.input);
  const std::vector<Tensor> want = bumped.fresh.forward_collect(bumped.input);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(same_bits(got[i], want[i])) << "layer " << i;
  }
  EXPECT_TRUE(same_bits(bumped.quant->forward(bumped.input),
                        bumped.fresh_quant->forward(bumped.input)));
}

TEST(WeightCache, ConcurrentForwardsAfterBumpVersionMatchAModelBuiltFromTheNewWeights) {
  // The first forwards after the bump race to rebuild each cache: four
  // threads run batch 5, which packs the panels, and four run batch 1,
  // which reads Dense's finite flag instead.
  const BumpedModel bumped(37);
  Tensor single({1, 1, 6, 7});
  std::memcpy(single.data(), bumped.input.data(), static_cast<size_t>(single.numel()) * sizeof(float));
  constexpr int kThreads = 8;
  const auto input = [&](int t) -> const Tensor& { return t < 4 ? bumped.input : single; };
  std::vector<Tensor> floats(kThreads);
  std::vector<Tensor> int8s(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      floats[static_cast<size_t>(t)] = bumped.model.infer(input(t));
      int8s[static_cast<size_t>(t)] = bumped.quant->forward(input(t));
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(same_bits(floats[static_cast<size_t>(t)], bumped.fresh.infer(input(t))))
        << "thread " << t;
    EXPECT_TRUE(same_bits(int8s[static_cast<size_t>(t)], bumped.fresh_quant->forward(input(t))))
        << "thread " << t;
  }
}

}  // namespace
}  // namespace salnov::nn
