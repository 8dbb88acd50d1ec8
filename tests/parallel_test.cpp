// Tests for the parallel execution layer: parallel_for semantics, the
// thread-count determinism guarantee along the VBP -> autoencoder -> SSIM
// scoring path, and the SSIM variance-clamp regression.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "core/novelty_detector.hpp"
#include "driving/pilotnet.hpp"
#include "driving/steering_trainer.hpp"
#include "metrics/ecdf.hpp"
#include "metrics/ssim.hpp"
#include "parallel/parallel_for.hpp"
#include "roadsim/dataset.hpp"
#include "roadsim/outdoor_generator.hpp"
#include "tensor/gemm.hpp"
#include "tensor/rng.hpp"

namespace salnov {
namespace {

/// Restores automatic thread resolution when a test scope ends, so thread
/// overrides never leak across tests.
struct ThreadGuard {
  ~ThreadGuard() { parallel::set_num_threads(0); }
};

// --- parallel_for semantics ------------------------------------------------

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadGuard guard;
  parallel::set_num_threads(4);
  std::vector<std::atomic<int>> hits(103);
  for (auto& h : hits) h.store(0);
  parallel::parallel_for(0, 103, 7, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) hits[static_cast<size_t>(i)].fetch_add(1);
  });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool called = false;
  parallel::parallel_for(5, 5, 1, [&](int64_t, int64_t) { called = true; });
  parallel::parallel_for(7, 3, 1, [&](int64_t, int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, InvalidGrainThrows) {
  EXPECT_THROW(parallel::parallel_for(0, 4, 0, [](int64_t, int64_t) {}), std::invalid_argument);
}

TEST(ParallelFor, ChunkBoundariesFollowGrainNotThreadCount) {
  ThreadGuard guard;
  for (int threads : {1, 3}) {
    parallel::set_num_threads(threads);
    std::vector<std::pair<int64_t, int64_t>> chunks(4, {-1, -1});
    parallel::parallel_for(2, 12, 3, [&](int64_t begin, int64_t end) {
      chunks[static_cast<size_t>((begin - 2) / 3)] = {begin, end};
    });
    const std::vector<std::pair<int64_t, int64_t>> expected = {{2, 5}, {5, 8}, {8, 11}, {11, 12}};
    EXPECT_EQ(chunks, expected) << "threads=" << threads;
  }
}

TEST(ParallelFor, PropagatesExceptions) {
  ThreadGuard guard;
  parallel::set_num_threads(4);
  EXPECT_THROW(parallel::parallel_for(0, 64, 1,
                                      [&](int64_t begin, int64_t) {
                                        if (begin == 13) throw std::runtime_error("chunk 13");
                                      }),
               std::runtime_error);
  // The pool must still be usable after an exception drained a job.
  std::atomic<int64_t> total{0};
  parallel::parallel_for(0, 10, 1, [&](int64_t b, int64_t e) { total.fetch_add(e - b); });
  EXPECT_EQ(total.load(), 10);
}

TEST(ParallelFor, NestedCallsRunInline) {
  ThreadGuard guard;
  parallel::set_num_threads(4);
  std::vector<std::atomic<int>> hits(64);
  for (auto& h : hits) h.store(0);
  parallel::parallel_for(0, 8, 1, [&](int64_t ob, int64_t oe) {
    for (int64_t o = ob; o < oe; ++o) {
      EXPECT_TRUE(parallel::in_parallel_region());
      parallel::parallel_for(0, 8, 1, [&](int64_t ib, int64_t ie) {
        for (int64_t i = ib; i < ie; ++i) hits[static_cast<size_t>(o * 8 + i)].fetch_add(1);
      });
    }
  });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, SetNumThreadsRejectsNegative) {
  EXPECT_THROW(parallel::set_num_threads(-1), std::invalid_argument);
  EXPECT_GE(parallel::num_threads(), 1);
}

// --- gemm: empty dimensions and thread-count invariance --------------------

TEST(GemmParallel, EmptyDimensionsAreSafe) {
  gemm(nullptr, nullptr, nullptr, 0, 0, 0);
  gemm(nullptr, nullptr, nullptr, 0, 5, 3);
  gemm_nt_accumulate(nullptr, nullptr, nullptr, 0, 0, 7);
  gemm_tn_accumulate(nullptr, nullptr, nullptr, 3, 4, 0);

  // k == 0 with a non-empty output: C := A[m,0] x B[0,n] must be zeroed.
  std::vector<float> c(6, 42.0f);
  gemm(nullptr, nullptr, c.data(), 2, 3, 0);
  for (float v : c) EXPECT_EQ(v, 0.0f);
}

TEST(GemmParallel, BitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  Rng rng(7);
  const int64_t m = 96, n = 48, k = 64;
  const Tensor a = rng.uniform_tensor({m, k}, -1.0, 1.0);
  const Tensor b = rng.uniform_tensor({k, n}, -1.0, 1.0);
  // The tn call takes `a` [m, k] as its transposed operand, so it sums over
  // m: its right-hand operand is [m, n] and its output [k, n].
  const Tensor bt = rng.uniform_tensor({m, n}, -1.0, 1.0);

  parallel::set_num_threads(1);
  Tensor c1({m, n});
  gemm(a.data(), b.data(), c1.data(), m, n, k);
  Tensor t1({k, n});
  gemm_tn_accumulate(a.data(), bt.data(), t1.data(), k, n, m);

  parallel::set_num_threads(4);
  Tensor c4({m, n});
  gemm(a.data(), b.data(), c4.data(), m, n, k);
  Tensor t4({k, n});
  gemm_tn_accumulate(a.data(), bt.data(), t4.data(), k, n, m);

  EXPECT_EQ(0, std::memcmp(c1.data(), c4.data(), sizeof(float) * m * n));
  EXPECT_EQ(0, std::memcmp(t1.data(), t4.data(), sizeof(float) * k * n));
}

TEST(GemmParallel, SimdBitIdenticalAcrossThreadCounts) {
  // The determinism contract holds per kernel: the SIMD path partitions rows
  // by a fixed grain too, so its results (packed or not) cannot depend on
  // the thread count.
  if (!gemm_simd_available()) GTEST_SKIP() << "SIMD kernel not available on this CPU";
  ThreadGuard guard;
  const GemmKernel saved = active_gemm_kernel();
  set_gemm_kernel(GemmKernel::kSimd);

  Rng rng(13);
  const int64_t m = 96, n = 48, k = 64;
  const Tensor a = rng.uniform_tensor({m, k}, -1.0, 1.0);
  const Tensor b = rng.uniform_tensor({k, n}, -1.0, 1.0);
  const PackedMatrix pb = pack_b_panels(b.data(), k, n);

  parallel::set_num_threads(1);
  Tensor c1({m, n});
  gemm(a.data(), b.data(), c1.data(), m, n, k);
  Tensor p1({m, n});
  gemm_ex(a.data(), b.data(), p1.data(), m, n, k, GemmEpilogue{}, &pb);

  parallel::set_num_threads(4);
  Tensor c4({m, n});
  gemm(a.data(), b.data(), c4.data(), m, n, k);
  Tensor p4({m, n});
  gemm_ex(a.data(), b.data(), p4.data(), m, n, k, GemmEpilogue{}, &pb);

  EXPECT_EQ(0, std::memcmp(c1.data(), c4.data(), sizeof(float) * m * n));
  EXPECT_EQ(0, std::memcmp(p1.data(), p4.data(), sizeof(float) * m * n));
  EXPECT_EQ(0, std::memcmp(c1.data(), p1.data(), sizeof(float) * m * n))
      << "packed path diverged from unpacked";

  set_gemm_kernel(saved);
}

// --- SSIM: variance clamp regression and thread invariance -----------------

TEST(SsimClamp, ConstantWindowsAgreeWithReference) {
  // Near-constant images provoke catastrophic cancellation in the naive
  // variance; before the clamp, ssim() (SAT path, clamped) and
  // ssim_reference() (window path, unclamped) could disagree and the
  // reference could exceed 1.
  for (float level : {0.1f, 0.5f, 0.73f, 1.0f}) {
    Image x(16, 16), y(16, 16);
    x.tensor().fill(level);
    y.tensor().fill(level);
    SsimOptions options;
    options.window = 8;
    options.stride = 4;
    const double fast = ssim(x, y, options);
    const double reference = ssim_reference(x, y, options);
    EXPECT_DOUBLE_EQ(fast, reference) << "level " << level;
    EXPECT_LE(reference, 1.0 + 1e-12) << "level " << level;
    EXPECT_NEAR(reference, 1.0, 1e-9) << "identical images must score ~1";
  }
}

TEST(SsimClamp, NearConstantWindowStatsVarianceNonNegative) {
  Image x(8, 8), y(8, 8);
  x.tensor().fill(0.1f);
  y.tensor().fill(0.1f);
  const WindowStats stats = window_stats(x, y, 0, 0, 8);
  EXPECT_GE(stats.var_x, 0.0);
  EXPECT_GE(stats.var_y, 0.0);
}

TEST(SsimParallel, BitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  Rng rng(11);
  const Image x(60, 160, rng.uniform_tensor({60 * 160}, 0.0, 1.0));
  const Image y(60, 160, rng.uniform_tensor({60 * 160}, 0.0, 1.0));
  SsimOptions options;

  parallel::set_num_threads(1);
  const double s1 = ssim(x, y, options);
  parallel::set_num_threads(4);
  const double s4 = ssim(x, y, options);
  EXPECT_EQ(s1, s4);  // exact, not approximate
}

// --- quantile helper -------------------------------------------------------

TEST(QuantileHelper, CdfOverloadMatchesVectorOverload) {
  const std::vector<double> samples = {9.0, 1.0, 5.0, 3.0, 7.0};
  const EmpiricalCdf cdf(samples);
  for (double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(quantile(samples, q), quantile(cdf, q));
  }
}

// --- full pipeline: detector scores and dataset generation -----------------

TEST(DetectorParallel, ScoresBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  constexpr int64_t kH = 24, kW = 48;

  parallel::set_num_threads(1);
  Rng rng(123);
  roadsim::OutdoorSceneGenerator outdoor;
  const auto train = roadsim::DrivingDataset::generate(outdoor, 24, kH, kW, rng);
  const auto probe = roadsim::DrivingDataset::generate(outdoor, 12, kH, kW, rng);

  nn::Sequential steering = driving::build_pilotnet(driving::PilotNetConfig::tiny(kH, kW), rng);

  core::NoveltyDetectorConfig config;
  config.height = kH;
  config.width = kW;
  config.preprocessing = core::Preprocessing::kVbp;
  config.score = core::ReconstructionScore::kSsim;
  config.autoencoder = core::AutoencoderConfig::tiny(kH, kW);
  config.train_epochs = 3;

  core::NoveltyDetector detector(config);
  detector.attach_steering_model(&steering);
  Rng fit_rng(7);
  detector.fit(train.images(), fit_rng);

  const std::vector<double> serial = detector.scores(probe.images());

  // Every pool size, an odd one included, must reproduce the 1-thread scores.
  for (int threads : {2, 3, 4}) {
    parallel::set_num_threads(threads);
    const std::vector<double> threaded = detector.scores(probe.images());

    ASSERT_EQ(serial.size(), threaded.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i], threaded[i])
          << "score " << i << " diverged at " << threads << " threads";
    }

    // And the batch API must agree with one-at-a-time scoring exactly.
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(threaded[i], detector.score(probe.images()[i]));
    }
  }
}

TEST(DatasetParallel, GenerationBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  roadsim::OutdoorSceneGenerator outdoor;

  parallel::set_num_threads(1);
  Rng rng1(42);
  const auto ds1 = roadsim::DrivingDataset::generate(outdoor, 10, 30, 80, rng1);

  parallel::set_num_threads(4);
  Rng rng4(42);
  const auto ds4 = roadsim::DrivingDataset::generate(outdoor, 10, 30, 80, rng4);

  ASSERT_EQ(ds1.size(), ds4.size());
  for (int64_t i = 0; i < ds1.size(); ++i) {
    EXPECT_EQ(ds1.image(i).tensor(), ds4.image(i).tensor()) << "image " << i;
    EXPECT_EQ(ds1.steering(i), ds4.steering(i)) << "steering " << i;
  }
  // The caller RNG must end in the same state either way: follow-up draws
  // agree.
  EXPECT_EQ(rng1.next_u64(), rng4.next_u64());
}

}  // namespace
}  // namespace salnov
