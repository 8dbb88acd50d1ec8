// Tests for the per-thread workspace arena: bump/mark/release semantics,
// alignment, pointer stability across growth, and the steady-state
// zero-allocation guarantee through the full NoveltyDetector::score path
// and through SSIM scoring.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/novelty_detector.hpp"
#include "driving/pilotnet.hpp"
#include "nn/ssim_loss.hpp"
#include "parallel/parallel_for.hpp"
#include "roadsim/dataset.hpp"
#include "roadsim/outdoor_generator.hpp"
#include "tensor/rng.hpp"
#include "tensor/workspace.hpp"

// Allocation probe: this binary replaces the global operator new so a test
// can count the heap allocations made while it runs. Workspace chunks use
// the aligned overload and are counted by Workspace::heap_allocation_count.
namespace {
std::atomic<bool> g_count_allocations{false};
std::atomic<int64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// GCC pairs the inlined free() with new-expressions and warns; the pairing
// is correct because operator new above allocates with malloc.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace salnov {
namespace {

struct ThreadGuard {
  ~ThreadGuard() { parallel::set_num_threads(0); }
};

TEST(Workspace, BuffersAreAlignedAndDisjoint) {
  Workspace ws;
  const auto marker = ws.mark();
  float* a = ws.alloc_floats(100);
  float* b = ws.alloc_floats(1);
  float* c = ws.alloc_floats(7);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(c) % 64, 0u);
  EXPECT_GE(b, a + 100);
  EXPECT_GE(c, b + 1);
  ws.release(marker);
}

TEST(Workspace, ReleaseRewindsForReuse) {
  Workspace ws;
  const auto marker = ws.mark();
  float* first = ws.alloc_floats(512);
  ws.release(marker);
  float* second = ws.alloc_floats(512);
  EXPECT_EQ(first, second) << "released memory must be reused, not reallocated";
  ws.release(marker);
}

TEST(Workspace, ScopesNestAndRestore) {
  Workspace& ws = Workspace::tls();
  float* outer = nullptr;
  float* probe = nullptr;
  {
    WorkspaceScope outer_scope;
    outer = outer_scope.floats(64);
    outer[0] = 1.0f;
    {
      WorkspaceScope inner_scope;
      float* inner = inner_scope.floats(64);
      EXPECT_GE(inner, outer + 64) << "inner scope must allocate past the outer buffer";
      inner[0] = 2.0f;
    }
    // Inner released; the next inner-level allocation reuses its space while
    // the outer buffer stays intact.
    {
      WorkspaceScope again;
      probe = again.floats(64);
    }
    EXPECT_EQ(outer[0], 1.0f);
    EXPECT_GE(probe, outer + 64);
  }
  // Fully unwound: a fresh scope starts from the same place.
  WorkspaceScope fresh;
  EXPECT_EQ(fresh.floats(1), outer);
  (void)ws;
}

TEST(Workspace, GrowthKeepsOldBuffersValid) {
  Workspace ws;
  float* small = ws.alloc_floats(16);
  small[0] = 7.0f;
  // Force at least one new chunk: far larger than the minimum chunk size.
  float* big = ws.alloc_floats(1 << 22);
  big[0] = 8.0f;
  EXPECT_EQ(small[0], 7.0f) << "growth must append chunks, never move old ones";
}

TEST(Workspace, GrowthIsGeometricNotLinear) {
  // Batch-B panels make arenas grow far past the single-frame high-water
  // mark; growth must be amortized. N live allocations of the minimum chunk
  // size must cost O(log N) heap trips (each new chunk reserves at least the
  // total reserved so far), not one chunk per allocation.
  Workspace ws;
  constexpr int64_t kMinChunkFloats = 1 << 16;  // workspace.cpp's floor
  const int64_t before = Workspace::heap_allocation_count();
  for (int i = 0; i < 200; ++i) ws.alloc_floats(kMinChunkFloats);
  const int64_t chunks = Workspace::heap_allocation_count() - before;
  EXPECT_LE(chunks, 12) << "200 min-sized allocations must share geometric chunks";
  EXPECT_GE(chunks, 1);
}

TEST(Workspace, ZeroCountAllocationIsValid) {
  Workspace ws;
  EXPECT_NO_THROW(ws.alloc_floats(0));
  EXPECT_THROW(ws.alloc_floats(-1), std::invalid_argument);
}

TEST(Workspace, SteadyStateDetectorScoringAllocatesNothing) {
  // The zero-allocation guarantee from the issue: after warm-up, repeated
  // NoveltyDetector::score calls must not grow any thread's arena — the
  // process-wide chunk-allocation counter stays flat.
  ThreadGuard guard;
  parallel::set_num_threads(2);

  constexpr int64_t kH = 24, kW = 48;
  Rng rng(321);
  roadsim::OutdoorSceneGenerator outdoor;
  const auto train = roadsim::DrivingDataset::generate(outdoor, 12, kH, kW, rng);
  const auto probe = roadsim::DrivingDataset::generate(outdoor, 4, kH, kW, rng);

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
  Rng fit_rng(9);
  detector.fit(train.images(), fit_rng);

  // Warm-up: grows every participating thread's arena to its high-water
  // mark and populates the lazy weight packs.
  std::vector<double> warm;
  for (const auto& img : probe.images()) warm.push_back(detector.score(img));

  const int64_t baseline = Workspace::heap_allocation_count();
  std::vector<double> steady;
  for (int round = 0; round < 3; ++round) {
    for (const auto& img : probe.images()) steady.push_back(detector.score(img));
  }
  EXPECT_EQ(Workspace::heap_allocation_count(), baseline)
      << "steady-state scoring grew a workspace arena";

  // And warm-up did not change the scores.
  for (size_t i = 0; i < warm.size(); ++i) {
    EXPECT_EQ(steady[i], warm[i]) << "score " << i;
  }
}

TEST(Workspace, SteadyStateSsimScoringAllocatesNothing) {
  // SsimLoss::mean_ssim builds its moment tables in the thread's workspace:
  // after a warm-up call, scoring makes no heap allocation of any kind.
  constexpr int64_t kH = 60, kW = 160;
  Rng rng(17);
  const Tensor recon = rng.uniform_tensor({kH * kW}, 0.0, 1.0);
  const Tensor input = rng.uniform_tensor({kH * kW}, 0.0, 1.0);
  const nn::SsimLoss loss(kH, kW);
  const double warm = loss.mean_ssim(recon, input);

  std::vector<double> steady;
  steady.reserve(8);
  const int64_t chunks = Workspace::heap_allocation_count();
  g_allocations.store(0);
  g_count_allocations.store(true);
  for (int i = 0; i < 8; ++i) steady.push_back(loss.mean_ssim(recon, input));
  g_count_allocations.store(false);

  EXPECT_EQ(g_allocations.load(), 0) << "mean_ssim allocated after warm-up";
  EXPECT_EQ(Workspace::heap_allocation_count(), chunks) << "mean_ssim grew a workspace arena";
  for (double value : steady) EXPECT_EQ(value, warm);
}

}  // namespace
}  // namespace salnov
