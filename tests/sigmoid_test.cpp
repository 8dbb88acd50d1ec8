// The library's one exp and sigmoid (tensor/sigmoid.hpp).
//
// Three layers of evidence that every kernel computes the same sigmoid bits:
//   * pinned bit patterns for the inputs where an exp implementation is most
//     likely to slip (the two inputs where an unfused reduction rounds
//     differently, signed zeros, infinities, NaN sign and payload, both
//     saturation boundaries and their neighbours, subnormal results);
//   * the AVX-512 kernel against the scalar form over all 2^32 inputs,
//     memcmp including NaNs, and over every masked tail length;
//   * the autoencoder's fused inference chain (the sigmoid in place on the
//     decoder's GEMM output) against the layer-by-layer chain, bit for bit.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "core/autoencoder.hpp"
#include "parallel/parallel_for.hpp"
#include "tensor/gemm.hpp"
#include "tensor/rng.hpp"
#include "tensor/sigmoid.hpp"
#include "tensor/sigmoid_avx512.hpp"

namespace salnov {
namespace {

float from_bits(uint32_t bits) { return std::bit_cast<float>(bits); }
uint32_t bits_of(float value) { return std::bit_cast<uint32_t>(value); }

struct KernelGuard {
  GemmKernel saved = active_gemm_kernel();
  ~KernelGuard() { set_gemm_kernel(saved); }
};

// --- Pinned values ----------------------------------------------------------

TEST(ExpF32, FmaSensitiveInputs) {
  // The only two floats where evaluating r = InvLn2N * x - kd unfused changes
  // the result: 0x56fc9f1b and 0x11fa2992 instead of these.
  EXPECT_EQ(bits_of(exp_f32(from_bits(0x4202422f))), 0x56fc9f1cu);
  EXPECT_EQ(bits_of(exp_f32(from_bits(0xc27c65d9))), 0x11fa2993u);
  EXPECT_EQ(bits_of(sigmoid_f32(-from_bits(0x4202422f))), 0x2801b63bu);
  EXPECT_EQ(bits_of(sigmoid_f32(-from_bits(0xc27c65d9))), 0x3f800000u);
}

TEST(ExpF32, ZerosInfinitiesAndNaNs) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(bits_of(exp_f32(0.0f)), 0x3f800000u);
  EXPECT_EQ(bits_of(exp_f32(-0.0f)), 0x3f800000u);
  EXPECT_EQ(bits_of(exp_f32(inf)), 0x7f800000u);
  EXPECT_EQ(bits_of(exp_f32(-inf)), 0x00000000u);
  // A NaN comes back as x + x: quiet, with its sign and payload.
  EXPECT_EQ(bits_of(exp_f32(from_bits(0x7fc12345))), 0x7fc12345u);
  EXPECT_EQ(bits_of(exp_f32(from_bits(0xffc12345))), 0xffc12345u);
  EXPECT_EQ(bits_of(exp_f32(from_bits(0x7f812345))), 0x7fc12345u);
}

TEST(ExpF32, SaturationBoundariesAndNeighbours) {
  EXPECT_EQ(bits_of(detail::kExpOverflow), 0x42b17217u);
  EXPECT_EQ(bits_of(exp_f32(from_bits(0x42b17216))), 0x7f7fff04u);
  EXPECT_EQ(bits_of(exp_f32(from_bits(0x42b17217))), 0x7f7fff84u);
  EXPECT_EQ(bits_of(exp_f32(from_bits(0x42b17218))), 0x7f800000u);
  EXPECT_EQ(bits_of(detail::kExpUnderflow), 0xc2cff1b4u);
  EXPECT_EQ(bits_of(exp_f32(from_bits(0xc2cff1b3))), 0x00000001u);
  EXPECT_EQ(bits_of(exp_f32(from_bits(0xc2cff1b4))), 0x00000001u);
  EXPECT_EQ(bits_of(exp_f32(from_bits(0xc2cff1b5))), 0x00000000u);
}

TEST(ExpF32, SubnormalResults) {
  EXPECT_EQ(bits_of(exp_f32(-87.5f)), 0x006cb2bcu);
  EXPECT_EQ(bits_of(exp_f32(-88.0f)), 0x0041edc4u);
  EXPECT_EQ(bits_of(exp_f32(-95.5f)), 0x00000956u);
  EXPECT_EQ(bits_of(exp_f32(-100.0f)), 0x0000001bu);
  EXPECT_EQ(bits_of(exp_f32(-103.0f)), 0x00000001u);
}

TEST(SigmoidF32, PinnedValues) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(bits_of(sigmoid_f32(0.0f)), 0x3f000000u);
  EXPECT_EQ(bits_of(sigmoid_f32(-0.0f)), 0x3f000000u);
  EXPECT_EQ(bits_of(sigmoid_f32(inf)), 0x3f800000u);
  EXPECT_EQ(bits_of(sigmoid_f32(-inf)), 0x00000000u);
  EXPECT_EQ(bits_of(sigmoid_f32(1.0f)), 0x3f3b26a8u);
  EXPECT_EQ(bits_of(sigmoid_f32(-1.0f)), 0x3e89b2b1u);
  EXPECT_EQ(bits_of(sigmoid_f32(0.5f)), 0x3f1f597fu);
  EXPECT_EQ(bits_of(sigmoid_f32(-2.75f)), 0x3d761d6cu);
  EXPECT_EQ(bits_of(sigmoid_f32(10.0f)), 0x3f7ffd06u);
  // Subnormal sigmoids: exp(-v) near the overflow boundary, and exp(v) tiny.
  EXPECT_EQ(bits_of(sigmoid_f32(from_bits(0xc2b17216))), 0x00200020u);
  EXPECT_EQ(bits_of(sigmoid_f32(from_bits(0xc2b17217))), 0x00200010u);
  EXPECT_EQ(bits_of(sigmoid_f32(from_bits(0xc2b17218))), 0x00000000u);
  EXPECT_EQ(bits_of(sigmoid_f32(-88.0f)), 0x0041edc4u);
  EXPECT_EQ(bits_of(sigmoid_f32(-100.0f)), 0x00000000u);
  EXPECT_EQ(bits_of(sigmoid_f32(100.0f)), 0x3f800000u);
}

TEST(SigmoidF32, NaNKeepsPayloadAndFlipsSign) {
  // -v flips the sign bit, and exp and the division carry the NaN through.
  EXPECT_EQ(bits_of(sigmoid_f32(from_bits(0x7fc12345))), 0xffc12345u);
  EXPECT_EQ(bits_of(sigmoid_f32(from_bits(0xffc12345))), 0x7fc12345u);
  EXPECT_EQ(bits_of(sigmoid_f32(from_bits(0x7f812345))), 0xffc12345u);
  EXPECT_EQ(bits_of(sigmoid_f32(from_bits(0xff812345))), 0x7fc12345u);
}

// --- Vector kernel against the scalar form ----------------------------------

/// Inputs that exercise every branch: ordinary values, both saturation
/// boundaries with their neighbours, signed zeros and infinities, NaNs.
std::vector<float> branch_inputs() {
  std::vector<float> values = {0.0f, -0.0f, 1.0f, -1.0f, 0.5f, -2.75f, 10.0f, -88.0f, -100.0f};
  for (uint32_t bits : {0x42b17216u, 0x42b17217u, 0x42b17218u, 0xc2cff1b3u, 0xc2cff1b4u,
                        0xc2cff1b5u, 0x4202422fu, 0xc27c65d9u, 0x7f800000u, 0xff800000u,
                        0x7fc12345u, 0xffc12345u, 0x7f812345u, 0x00000001u, 0x807fffffu}) {
    values.push_back(from_bits(bits));
    values.push_back(-from_bits(bits));
  }
  return values;
}

TEST(SigmoidKernel, EveryMaskedTailLengthMatchesScalar) {
  if (!detail::sigmoid_avx512_available()) GTEST_SKIP() << "no AVX-512 sigmoid on this CPU";
  const std::vector<float> inputs = branch_inputs();
  constexpr float kSentinel = 12345.0f;
  for (int64_t n = 0; n <= 17; ++n) {
    for (size_t offset = 0; offset + static_cast<size_t>(n) <= inputs.size(); offset += 7) {
      std::vector<float> data(inputs.begin() + static_cast<std::ptrdiff_t>(offset),
                              inputs.begin() + static_cast<std::ptrdiff_t>(offset) + n);
      data.push_back(kSentinel);  // must survive: the tail store is masked
      detail::sigmoid_avx512(data.data(), n);
      for (int64_t i = 0; i < n; ++i) {
        EXPECT_EQ(bits_of(data[static_cast<size_t>(i)]),
                  bits_of(sigmoid_f32(inputs[offset + static_cast<size_t>(i)])))
            << "n=" << n << " offset=" << offset << " lane " << i;
      }
      EXPECT_EQ(data.back(), kSentinel) << "n=" << n;
    }
  }
}

TEST(SigmoidKernel, DispatchFollowsTheGemmKernel) {
  KernelGuard guard;
  const std::vector<float> inputs = branch_inputs();
  std::vector<GemmKernel> kernels = {GemmKernel::kScalar};
  if (gemm_simd_available()) kernels.push_back(GemmKernel::kSimd);
  for (const GemmKernel kernel : kernels) {
    set_gemm_kernel(kernel);
    std::vector<float> data = inputs;
    sigmoid_inplace(data.data(), static_cast<int64_t>(data.size()));
    for (size_t i = 0; i < inputs.size(); ++i) {
      EXPECT_EQ(bits_of(data[i]), bits_of(sigmoid_f32(inputs[i])))
          << gemm_kernel_name(kernel) << " input " << std::hex << bits_of(inputs[i]);
    }
  }
}

TEST(SigmoidKernel, VectorEqualsScalarOnAllFloatsExhaustive) {
  if (!detail::sigmoid_avx512_available()) GTEST_SKIP() << "no AVX-512 sigmoid on this CPU";
  // 2^16 blocks of 2^16 consecutive bit patterns, spread over the pool.
  constexpr int64_t kBlock = int64_t{1} << 16;
  std::atomic<int64_t> mismatches{0};
  std::atomic<uint32_t> first_bad{0xffffffffu};
  parallel::parallel_for(0, kBlock, 64, [&](int64_t block_begin, int64_t block_end) {
    std::vector<float> data(static_cast<size_t>(kBlock));
    std::vector<float> expected(static_cast<size_t>(kBlock));
    for (int64_t block = block_begin; block < block_end; ++block) {
      const auto base = static_cast<uint32_t>(block * kBlock);
      for (int64_t i = 0; i < kBlock; ++i) {
        const float v = from_bits(base + static_cast<uint32_t>(i));
        data[static_cast<size_t>(i)] = v;
        expected[static_cast<size_t>(i)] = sigmoid_f32(v);
      }
      detail::sigmoid_avx512(data.data(), kBlock);
      if (std::memcmp(data.data(), expected.data(), data.size() * sizeof(float)) == 0) continue;
      for (int64_t i = 0; i < kBlock; ++i) {
        if (bits_of(data[static_cast<size_t>(i)]) != bits_of(expected[static_cast<size_t>(i)])) {
          mismatches.fetch_add(1);
          uint32_t seen = first_bad.load();
          const uint32_t bits = base + static_cast<uint32_t>(i);
          while (bits < seen && !first_bad.compare_exchange_weak(seen, bits)) {
          }
        }
      }
    }
  });
  EXPECT_EQ(mismatches.load(), 0) << "first mismatching input 0x" << std::hex << first_bad.load();
}

// --- The fused inference chain ----------------------------------------------

TEST(FusedChain, AutoencoderForwardEqualsLayerByLayer) {
  // Sequential::forward(kInfer) runs Dense+ReLU in the GEMM epilogue and the
  // output sigmoid in place on the decoder's GEMM output; forward_collect
  // runs every layer on its own. Paper-shaped autoencoder, both kernels.
  KernelGuard guard;
  Rng rng(2025);
  nn::Sequential ae = core::build_autoencoder(core::AutoencoderConfig::paper(), rng);
  const int64_t dim = core::AutoencoderConfig::paper().input_dim();
  std::vector<GemmKernel> kernels = {GemmKernel::kScalar};
  if (gemm_simd_available()) kernels.push_back(GemmKernel::kSimd);
  for (const GemmKernel kernel : kernels) {
    set_gemm_kernel(kernel);
    for (const int64_t batch : {int64_t{1}, int64_t{3}, int64_t{16}}) {
      SCOPED_TRACE(std::string(gemm_kernel_name(kernel)) + " B=" + std::to_string(batch));
      const Tensor input = rng.uniform_tensor({batch, dim}, 0.0, 1.0);
      const Tensor fused = ae.forward(input, nn::Mode::kInfer);
      const Tensor unfused = ae.forward_collect(input).back();
      ASSERT_EQ(fused.shape(), unfused.shape());
      EXPECT_EQ(std::memcmp(fused.data(), unfused.data(),
                            static_cast<size_t>(fused.numel()) * sizeof(float)),
                0);
    }
  }
}

}  // namespace
}  // namespace salnov
