// Property tests pinning the GEMM kernel-equivalence contracts:
//   * every kernel matches a naive triple-loop reference over a shape grid
//     that exercises empty dims, the matvec fast path, and tail tiles
//     (scalar bit-exactly, SIMD within FMA-reassociation tolerance);
//   * the packed and unpacked SIMD paths are bit-identical;
//   * the fused bias/ReLU epilogue is bit-identical to a separate post-pass;
//   * the transposed accumulate variants match their naive definitions
//     bit-exactly (both sum k in ascending order);
//   * detector scores are exactly invariant to weight pre-packing;
//   * the AVX-512 float tile and the VNNI int8 band are bit-identical to
//     the AVX2 kernels they upgrade.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "core/novelty_detector.hpp"
#include "driving/pilotnet.hpp"
#include "roadsim/dataset.hpp"
#include "roadsim/outdoor_generator.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_simd.hpp"
#include "tensor/gemm_int8.hpp"
#include "tensor/gemm_int8_simd.hpp"
#include "tensor/pack.hpp"
#include "tensor/rng.hpp"

namespace salnov {
namespace {

/// Restores kernel selection and the packing switch when a test scope ends.
struct KernelGuard {
  GemmKernel saved_kernel = active_gemm_kernel();
  bool saved_packing = gemm_weight_packing_enabled();
  ~KernelGuard() {
    set_gemm_kernel(saved_kernel);
    set_gemm_weight_packing(saved_packing);
  }
};

const std::vector<int64_t> kSizes = {0, 1, 3, 5, 17, 31, 64, 100};

/// Reference GEMM: per-element float accumulation in ascending-k order,
/// epilogue applied in the documented order (+bias_row, +bias_col, ReLU).
std::vector<float> naive_gemm(const float* a, const float* b, int64_t m, int64_t n, int64_t k,
                              const GemmEpilogue& epilogue = {}) {
  std::vector<float> c(static_cast<size_t>(m * n), 0.0f);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) acc += a[i * k + kk] * b[kk * n + j];
      if (epilogue.bias_row != nullptr) acc += epilogue.bias_row[i];
      if (epilogue.bias_col != nullptr) acc += epilogue.bias_col[j];
      if (epilogue.relu && acc < 0.0f) acc = 0.0f;
      c[static_cast<size_t>(i * n + j)] = acc;
    }
  }
  return c;
}

struct Operands {
  Tensor a;
  Tensor b;
  Operands(Rng& rng, int64_t m, int64_t n, int64_t k)
      : a(rng.uniform_tensor({m * k + 1}, -1.0, 1.0)),  // +1: non-null even when empty
        b(rng.uniform_tensor({k * n + 1}, -1.0, 1.0)) {}
};

TEST(GemmKernels, ScalarMatchesNaiveBitExactly) {
  // The scalar kernel also sums k in ascending order per element, so it must
  // reproduce the reference exactly, not just approximately.
  KernelGuard guard;
  set_gemm_kernel(GemmKernel::kScalar);
  Rng rng(1);
  for (int64_t m : kSizes) {
    for (int64_t n : kSizes) {
      for (int64_t k : kSizes) {
        Operands ops(rng, m, n, k);
        const std::vector<float> expected = naive_gemm(ops.a.data(), ops.b.data(), m, n, k);
        std::vector<float> c(static_cast<size_t>(m * n), 42.0f);
        gemm(ops.a.data(), ops.b.data(), c.data(), m, n, k);
        ASSERT_EQ(0, std::memcmp(c.data(), expected.data(), c.size() * sizeof(float)))
            << "m=" << m << " n=" << n << " k=" << k;
      }
    }
  }
}

TEST(GemmKernels, SimdMatchesNaiveWithinFmaTolerance) {
  if (!gemm_simd_available()) GTEST_SKIP() << "SIMD kernel not available on this CPU";
  KernelGuard guard;
  set_gemm_kernel(GemmKernel::kSimd);
  Rng rng(2);
  for (int64_t m : kSizes) {
    for (int64_t n : kSizes) {
      for (int64_t k : kSizes) {
        Operands ops(rng, m, n, k);
        const std::vector<float> expected = naive_gemm(ops.a.data(), ops.b.data(), m, n, k);
        std::vector<float> c(static_cast<size_t>(m * n), 42.0f);
        gemm(ops.a.data(), ops.b.data(), c.data(), m, n, k);
        // Operands are in [-1, 1], so |c| <= k; FMA only tightens per-term
        // rounding, leaving reassociation-free ascending sums this close.
        const float tol = 1e-5f * static_cast<float>(std::max<int64_t>(k, 1)) + 1e-6f;
        for (int64_t i = 0; i < m * n; ++i) {
          ASSERT_NEAR(c[static_cast<size_t>(i)], expected[static_cast<size_t>(i)], tol)
              << "m=" << m << " n=" << n << " k=" << k << " flat=" << i;
        }
      }
    }
  }
}

TEST(GemmKernels, PackedOperandsBitIdenticalToUnpacked) {
  if (!gemm_simd_available()) GTEST_SKIP() << "SIMD kernel not available on this CPU";
  KernelGuard guard;
  set_gemm_kernel(GemmKernel::kSimd);
  Rng rng(3);
  for (int64_t m : kSizes) {
    for (int64_t n : kSizes) {
      for (int64_t k : kSizes) {
        Operands ops(rng, m, n, k);
        std::vector<float> plain(static_cast<size_t>(m * n), 1.0f);
        gemm_ex(ops.a.data(), ops.b.data(), plain.data(), m, n, k, GemmEpilogue{});

        const PackedMatrix pa = pack_a_panels(ops.a.data(), m, k);
        const PackedMatrix pb = pack_b_panels(ops.b.data(), k, n);
        std::vector<float> both(static_cast<size_t>(m * n), 2.0f);
        gemm_ex(ops.a.data(), ops.b.data(), both.data(), m, n, k, GemmEpilogue{}, &pa, &pb);
        ASSERT_EQ(0, std::memcmp(both.data(), plain.data(), plain.size() * sizeof(float)))
            << "packed A+B, m=" << m << " n=" << n << " k=" << k;

        std::vector<float> only_b(static_cast<size_t>(m * n), 3.0f);
        gemm_ex(ops.a.data(), ops.b.data(), only_b.data(), m, n, k, GemmEpilogue{}, nullptr, &pb);
        ASSERT_EQ(0, std::memcmp(only_b.data(), plain.data(), plain.size() * sizeof(float)))
            << "packed B, m=" << m << " n=" << n << " k=" << k;
      }
    }
  }
}

TEST(GemmKernels, FusedEpilogueBitIdenticalToPostPass) {
  std::vector<GemmKernel> kernels = {GemmKernel::kScalar};
  if (gemm_simd_available()) kernels.push_back(GemmKernel::kSimd);
  KernelGuard guard;
  Rng rng(4);
  for (GemmKernel kernel : kernels) {
    set_gemm_kernel(kernel);
    for (int64_t m : {1, 5, 24, 64}) {
      for (int64_t n : {1, 17, 48}) {
        const int64_t k = 33;
        Operands ops(rng, m, n, k);
        const Tensor bias_row = rng.uniform_tensor({m}, -1.0, 1.0);
        const Tensor bias_col = rng.uniform_tensor({n}, -1.0, 1.0);
        GemmEpilogue epilogue;
        epilogue.bias_row = bias_row.data();
        epilogue.bias_col = bias_col.data();
        epilogue.relu = true;

        std::vector<float> fused(static_cast<size_t>(m * n));
        gemm_ex(ops.a.data(), ops.b.data(), fused.data(), m, n, k, epilogue);

        // Same arithmetic as a separate post-pass over the plain product.
        std::vector<float> manual(static_cast<size_t>(m * n));
        gemm(ops.a.data(), ops.b.data(), manual.data(), m, n, k);
        for (int64_t i = 0; i < m; ++i) {
          for (int64_t j = 0; j < n; ++j) {
            float v = manual[static_cast<size_t>(i * n + j)];
            v += bias_row[i];
            v += bias_col[j];
            if (v < 0.0f) v = 0.0f;
            manual[static_cast<size_t>(i * n + j)] = v;
          }
        }
        ASSERT_EQ(0, std::memcmp(fused.data(), manual.data(), fused.size() * sizeof(float)))
            << gemm_kernel_name(kernel) << " m=" << m << " n=" << n;
      }
    }
  }
}

TEST(GemmKernels, TransposedAccumulatesMatchNaiveBitExactly) {
  Rng rng(5);
  for (int64_t m : {1, 6, 31}) {
    for (int64_t n : {1, 16, 40}) {
      for (int64_t k : {1, 17, 64}) {
        // nt: C[m,n] += A[m,k] * B[n,k]^T, ascending-k dot per element.
        const Tensor a_nt = rng.uniform_tensor({m, k}, -1.0, 1.0);
        const Tensor b_nt = rng.uniform_tensor({n, k}, -1.0, 1.0);
        Tensor c_nt({m, n});
        gemm_nt_accumulate(a_nt.data(), b_nt.data(), c_nt.data(), m, n, k);
        for (int64_t i = 0; i < m; ++i) {
          for (int64_t j = 0; j < n; ++j) {
            float acc = 0.0f;
            for (int64_t kk = 0; kk < k; ++kk) acc += a_nt[i * k + kk] * b_nt[j * k + kk];
            ASSERT_EQ(c_nt[i * n + j], acc) << "nt m=" << m << " n=" << n << " k=" << k;
          }
        }

        // tn: C[m,n] += A[k,m]^T * B[k,n], ascending-k accumulation.
        const Tensor a_tn = rng.uniform_tensor({k, m}, -1.0, 1.0);
        const Tensor b_tn = rng.uniform_tensor({k, n}, -1.0, 1.0);
        Tensor c_tn({m, n});
        gemm_tn_accumulate(a_tn.data(), b_tn.data(), c_tn.data(), m, n, k);
        for (int64_t i = 0; i < m; ++i) {
          for (int64_t j = 0; j < n; ++j) {
            float acc = 0.0f;
            for (int64_t kk = 0; kk < k; ++kk) acc += a_tn[kk * m + i] * b_tn[kk * n + j];
            ASSERT_EQ(c_tn[i * n + j], acc) << "tn m=" << m << " n=" << n << " k=" << k;
          }
        }
      }
    }
  }
}

TEST(GemmKernels, KernelNamesAndAvailability) {
  EXPECT_STREQ("scalar", gemm_kernel_name(GemmKernel::kScalar));
  if (!gemm_simd_available()) {
    EXPECT_THROW(set_gemm_kernel(GemmKernel::kSimd), std::invalid_argument);
  } else {
    const char* name = gemm_kernel_name(GemmKernel::kSimd);
    EXPECT_TRUE(std::strcmp(name, "avx2") == 0 || std::strcmp(name, "avx512") == 0 ||
                std::strcmp(name, "neon") == 0)
        << name;
  }
}

TEST(GemmKernels, DetectorScoresExactlyInvariantToWeightPacking) {
  if (!gemm_simd_available()) GTEST_SKIP() << "SIMD kernel not available on this CPU";
  KernelGuard guard;
  set_gemm_kernel(GemmKernel::kSimd);

  constexpr int64_t kH = 24, kW = 48;
  Rng rng(123);
  roadsim::OutdoorSceneGenerator outdoor;
  const auto train = roadsim::DrivingDataset::generate(outdoor, 16, kH, kW, rng);
  const auto probe = roadsim::DrivingDataset::generate(outdoor, 6, kH, kW, rng);

  nn::Sequential steering = driving::build_pilotnet(driving::PilotNetConfig::tiny(kH, kW), rng);

  core::NoveltyDetectorConfig config;
  config.height = kH;
  config.width = kW;
  config.preprocessing = core::Preprocessing::kVbp;
  config.score = core::ReconstructionScore::kSsim;
  config.autoencoder = core::AutoencoderConfig::tiny(kH, kW);
  config.train_epochs = 2;

  core::NoveltyDetector detector(config);
  detector.attach_steering_model(&steering);
  Rng fit_rng(7);
  detector.fit(train.images(), fit_rng);

  set_gemm_weight_packing(false);
  const std::vector<double> unpacked = detector.scores(probe.images());
  set_gemm_weight_packing(true);
  const std::vector<double> packed = detector.scores(probe.images());

  ASSERT_EQ(unpacked.size(), packed.size());
  for (size_t i = 0; i < unpacked.size(); ++i) {
    EXPECT_EQ(unpacked[i], packed[i]) << "score " << i << " changed under weight packing";
  }
}

// --- int8 kernel rungs -------------------------------------------------------
// The quantized scoring rungs promise bit-exact int32 accumulation, so the
// int8 contracts are strictly tighter than the float ones above: every
// comparison here is memcmp-strength, SIMD included.

/// Restores the int8 kernel selection when a test scope ends.
struct Int8KernelGuard {
  GemmInt8Kernel saved = active_gemm_int8_kernel();
  ~Int8KernelGuard() { set_gemm_int8_kernel(saved); }
};

/// Reference u8*s8 -> int32 GEMM: plain integer dot, order-independent.
std::vector<int32_t> naive_gemm_int8(const uint8_t* a, const int8_t* b, int64_t m, int64_t n,
                                     int64_t k) {
  std::vector<int32_t> c(static_cast<size_t>(m * n), 0);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      int32_t acc = 0;
      for (int64_t kk = 0; kk < k; ++kk) {
        acc += static_cast<int32_t>(a[i * k + kk]) * static_cast<int32_t>(b[kk * n + j]);
      }
      c[static_cast<size_t>(i * n + j)] = acc;
    }
  }
  return c;
}

struct QuantOperands {
  std::vector<uint8_t> a;
  std::vector<int8_t> b;
  QuantOperands(Rng& rng, int64_t m, int64_t n, int64_t k)
      : a(static_cast<size_t>(m * k + 1)), b(static_cast<size_t>(k * n + 1)) {
    for (auto& v : a) v = static_cast<uint8_t>(rng.uniform_int(0, 127));
    for (auto& v : b) v = static_cast<int8_t>(rng.uniform_int(-127, 127));
  }
};

TEST(GemmInt8Kernels, EveryKernelMatchesNaiveInt32Exactly) {
  // Force each kernel in turn (forced-fallback coverage: the scalar rung
  // must hold the same exactness contract the SIMD rung is dispatched to).
  std::vector<GemmInt8Kernel> kernels = {GemmInt8Kernel::kScalar};
  if (gemm_int8_simd_available()) kernels.push_back(GemmInt8Kernel::kSimd);
  Int8KernelGuard guard;
  Rng rng(6);
  for (GemmInt8Kernel kernel : kernels) {
    set_gemm_int8_kernel(kernel);
    for (int64_t m : kSizes) {
      for (int64_t n : kSizes) {
        for (int64_t k : kSizes) {
          QuantOperands ops(rng, m, n, k);
          const std::vector<int32_t> expected = naive_gemm_int8(ops.a.data(), ops.b.data(), m, n, k);
          std::vector<int32_t> c(static_cast<size_t>(m * n), 42);
          gemm_u8s8(ops.a.data(), ops.b.data(), c.data(), m, n, k);
          ASSERT_EQ(expected, c)
              << gemm_int8_kernel_name(kernel) << " m=" << m << " n=" << n << " k=" << k;
        }
      }
    }
  }
}

TEST(GemmInt8Kernels, PackedOperandBitIdenticalToUnpacked) {
  std::vector<GemmInt8Kernel> kernels = {GemmInt8Kernel::kScalar};
  if (gemm_int8_simd_available()) kernels.push_back(GemmInt8Kernel::kSimd);
  Int8KernelGuard guard;
  Rng rng(7);
  for (GemmInt8Kernel kernel : kernels) {
    set_gemm_int8_kernel(kernel);
    for (int64_t m : {1, 5, 31}) {
      for (int64_t n : {1, 17, 40}) {
        const int64_t k = 33;
        QuantOperands ops(rng, m, n, k);
        std::vector<int32_t> plain(static_cast<size_t>(m * n), 1);
        gemm_u8s8(ops.a.data(), ops.b.data(), plain.data(), m, n, k);
        const PackedQuantMatrix pb = pack_quant_b(ops.b.data(), k, n);
        std::vector<int32_t> packed(static_cast<size_t>(m * n), 2);
        gemm_u8s8(ops.a.data(), ops.b.data(), packed.data(), m, n, k, &pb);
        ASSERT_EQ(plain, packed)
            << gemm_int8_kernel_name(kernel) << " m=" << m << " n=" << n << " k=" << k;
      }
    }
  }
}

TEST(GemmInt8Kernels, DequantEpilogueMatchesManualFmafExactly) {
  // The dequant contract is a single correctly-rounded fmaf per element
  // (then ReLU); verify against a manual pass over the int32 product for
  // every kernel.
  std::vector<GemmInt8Kernel> kernels = {GemmInt8Kernel::kScalar};
  if (gemm_int8_simd_available()) kernels.push_back(GemmInt8Kernel::kSimd);
  Int8KernelGuard guard;
  Rng rng(8);
  for (GemmInt8Kernel kernel : kernels) {
    set_gemm_int8_kernel(kernel);
    for (bool relu : {false, true}) {
      const int64_t m = 7, n = 19, k = 41;
      QuantOperands ops(rng, m, n, k);
      std::vector<float> bias(static_cast<size_t>(n));
      for (auto& v : bias) v = static_cast<float>(rng.uniform(-1.0, 1.0));
      QuantEpilogue epilogue;
      epilogue.scale = 3.07e-3f;
      epilogue.bias_col = bias.data();
      epilogue.relu = relu;

      std::vector<float> fused(static_cast<size_t>(m * n));
      gemm_u8s8_dequant(ops.a.data(), ops.b.data(), fused.data(), m, n, k, epilogue);

      const std::vector<int32_t> acc = naive_gemm_int8(ops.a.data(), ops.b.data(), m, n, k);
      std::vector<float> manual(static_cast<size_t>(m * n));
      for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = 0; j < n; ++j) {
          float v = std::fmaf(static_cast<float>(acc[static_cast<size_t>(i * n + j)]),
                              epilogue.scale, bias[static_cast<size_t>(j)]);
          if (relu && v < 0.0f) v = 0.0f;
          manual[static_cast<size_t>(i * n + j)] = v;
        }
      }
      ASSERT_EQ(0, std::memcmp(fused.data(), manual.data(), fused.size() * sizeof(float)))
          << gemm_int8_kernel_name(kernel) << " relu=" << relu;
    }
  }
}

TEST(GemmInt8Kernels, KernelNamesAvailabilityAndGuards) {
  EXPECT_STREQ("scalar", gemm_int8_kernel_name(GemmInt8Kernel::kScalar));
  if (!gemm_int8_simd_available()) {
    EXPECT_THROW(set_gemm_int8_kernel(GemmInt8Kernel::kSimd), std::invalid_argument);
  } else {
    Int8KernelGuard guard;
    set_gemm_int8_kernel(GemmInt8Kernel::kSimd);
    EXPECT_EQ(GemmInt8Kernel::kSimd, active_gemm_int8_kernel());
    set_gemm_int8_kernel(GemmInt8Kernel::kScalar);
    EXPECT_EQ(GemmInt8Kernel::kScalar, active_gemm_int8_kernel());
  }

  // Exactness guard: k beyond kMaxQuantK could overflow the int32
  // accumulator, so the entry point must refuse rather than wrap.
  std::vector<uint8_t> a(1);
  std::vector<int8_t> b(1);
  std::vector<int32_t> c(1);
  EXPECT_THROW(gemm_u8s8(a.data(), b.data(), c.data(), 1, 1, kMaxQuantK + 1),
               std::invalid_argument);
  EXPECT_THROW(gemm_u8s8(a.data(), b.data(), c.data(), -1, 1, 1), std::invalid_argument);
}

// --- Bit-identical kernel upgrades ------------------------------------------
// On AVX-512 hardware the float tile and the int8 band run upgraded kernels
// (the AVX-512 6x16 tile, the VNNI dpbusd band) that promise the AVX2
// kernels' bits. Each test runs the same products with the upgrade on and
// off and compares bytes; it skips on a CPU without the upgrade.

TEST(GemmKernelUpgrades, Avx512TileBitIdenticalToAvx2Tile) {
  if (!gemm_simd_available()) GTEST_SKIP() << "SIMD kernel not available on this CPU";
  KernelGuard guard;
  set_gemm_kernel(GemmKernel::kSimd);
  if (std::strcmp(detail::simd_arch_name(), "avx512") != 0) {
    GTEST_SKIP() << "no AVX-512 tile on this CPU";
  }
  Rng rng(12);
  for (int64_t m : {2, 6, 7, 31, 64}) {  // m == 1 takes the matvec path, not the tile
    for (int64_t n : {1, 16, 17, 40, 100}) {
      for (int64_t k : {1, 17, 64}) {
        Operands ops(rng, m, n, k);
        std::vector<float> bias(static_cast<size_t>(n));
        for (auto& v : bias) v = static_cast<float>(rng.uniform(-1.0, 1.0));
        GemmEpilogue epilogue;
        epilogue.bias_col = bias.data();
        epilogue.relu = true;
        std::vector<float> wide(static_cast<size_t>(m * n), 1.0f);
        std::vector<float> narrow(static_cast<size_t>(m * n), 2.0f);
        gemm_ex(ops.a.data(), ops.b.data(), wide.data(), m, n, k, epilogue);
        detail::set_gemm_avx512_tile(false);
        gemm_ex(ops.a.data(), ops.b.data(), narrow.data(), m, n, k, epilogue);
        detail::set_gemm_avx512_tile(true);
        ASSERT_EQ(0, std::memcmp(wide.data(), narrow.data(), wide.size() * sizeof(float)))
            << "m=" << m << " n=" << n << " k=" << k;
      }
    }
  }
}

TEST(GemmKernelUpgrades, VnniBandBitIdenticalToAvx2Band) {
  if (!gemm_int8_simd_available()) GTEST_SKIP() << "int8 SIMD kernel not available on this CPU";
  Int8KernelGuard guard;
  set_gemm_int8_kernel(GemmInt8Kernel::kSimd);
  if (std::strcmp(detail::int8_arch_name(), "avx512-vnni") != 0) {
    GTEST_SKIP() << "no AVX-512 VNNI band on this CPU";
  }
  Rng rng(13);
  for (int64_t m : {1, 5, 31}) {
    for (int64_t n : {1, 16, 17, 40}) {
      for (int64_t k : {1, 33, 100}) {
        QuantOperands ops(rng, m, n, k);
        std::vector<int32_t> vnni(static_cast<size_t>(m * n), 1);
        std::vector<int32_t> avx2(static_cast<size_t>(m * n), 2);
        gemm_u8s8(ops.a.data(), ops.b.data(), vnni.data(), m, n, k);
        detail::set_int8_vnni(false);
        gemm_u8s8(ops.a.data(), ops.b.data(), avx2.data(), m, n, k);
        detail::set_int8_vnni(true);
        ASSERT_EQ(vnni, avx2) << "m=" << m << " n=" << n << " k=" << k;
      }
    }
  }
}

}  // namespace
}  // namespace salnov
