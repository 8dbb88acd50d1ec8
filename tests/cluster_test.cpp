// ServingCluster tests: multi-stream routing, cross-frame micro-batching,
// batch-composition determinism, per-stream policy isolation, and the
// bit-identity contract — a frame scored inside any batch must produce
// exactly the result it would have produced through a bare Supervisor.
//
// All scenarios run under a FakeClock with pre-staged arrival schedules
// (pause -> submit -> advance -> resume), so batch composition is a pure
// function of the scripted timestamps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <vector>

#include "core/novelty_detector.hpp"
#include "driving/pilotnet.hpp"
#include "faults/timing_faults.hpp"
#include "serving/clock.hpp"
#include "serving/cluster.hpp"
#include "serving/supervisor.hpp"

namespace salnov::serving {
namespace {

using core::NoveltyDetector;
using core::NoveltyDetectorConfig;
using core::Preprocessing;
using core::ReconstructionScore;

constexpr int64_t kH = 16;
constexpr int64_t kW = 24;
constexpr int64_t kMs = 1'000'000;  // ns

class ClusterFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(41);
    steering_ = new nn::Sequential(
        driving::build_pilotnet(driving::PilotNetConfig::tiny(kH, kW), rng));

    NoveltyDetectorConfig config;
    config.height = kH;
    config.width = kW;
    config.preprocessing = Preprocessing::kVbp;
    config.score = ReconstructionScore::kSsim;
    config.autoencoder = core::AutoencoderConfig::tiny(kH, kW);
    config.train_epochs = 10;
    detector_ = new NoveltyDetector(config);
    detector_->attach_steering_model(steering_);

    std::vector<Image> train;
    for (int i = 0; i < 24; ++i) train.push_back(familiar_frame(rng));
    detector_->fit(train, rng);
  }

  static void TearDownTestSuite() {
    delete detector_;
    detector_ = nullptr;
    delete steering_;
    steering_ = nullptr;
  }

  static Image familiar_frame(Rng& rng) {
    Image img(kH, kW);
    const double slope = rng.uniform(0.8, 1.2);
    for (int64_t y = 0; y < kH; ++y) {
      for (int64_t x = 0; x < kW; ++x) {
        img(y, x) = static_cast<float>(slope * (y + x) / static_cast<double>(kH + kW));
      }
    }
    img.clamp01();
    return img;
  }

  static Image noise_frame(Rng& rng) {
    Image img(kH, kW);
    for (int64_t y = 0; y < kH; ++y) {
      for (int64_t x = 0; x < kW; ++x) img(y, x) = static_cast<float>(rng.uniform(0.0, 1.0));
    }
    return img;
  }

  /// Per-stream frame scripts: stream s gets a deterministic mix of
  /// familiar and novel frames, distinct across streams.
  static std::vector<std::vector<Image>> stream_scripts(int64_t streams, int64_t frames) {
    std::vector<std::vector<Image>> scripts(static_cast<size_t>(streams));
    for (int64_t s = 0; s < streams; ++s) {
      Rng rng(100 + static_cast<uint64_t>(s));
      for (int64_t i = 0; i < frames; ++i) {
        scripts[static_cast<size_t>(s)].push_back(
            (i + s) % 3 == 2 ? noise_frame(rng) : familiar_frame(rng));
      }
    }
    return scripts;
  }

  static void expect_results_bitexact(const ServeResult& solo, const ServeResult& batched) {
    EXPECT_EQ(solo.frame_index, batched.frame_index);
    EXPECT_EQ(solo.mode, batched.mode);
    EXPECT_EQ(solo.scored, batched.scored);
    EXPECT_EQ(solo.abandoned, batched.abandoned);
    EXPECT_EQ(solo.deadline_overrun, batched.deadline_overrun);
    EXPECT_EQ(solo.sensor_bad, batched.sensor_bad);
    EXPECT_EQ(solo.fault, batched.fault);
    EXPECT_EQ(solo.frozen, batched.frozen);
    EXPECT_EQ(solo.novel, batched.novel);
    // Bit-exact, NaN-tolerant: compare the representations.
    EXPECT_TRUE((std::isnan(solo.score) && std::isnan(batched.score)) ||
                solo.score == batched.score)
        << "score " << solo.score << " vs " << batched.score;
    EXPECT_TRUE((std::isnan(solo.steering) && std::isnan(batched.steering)) ||
                solo.steering == batched.steering)
        << "steering " << solo.steering << " vs " << batched.steering;
    EXPECT_EQ(solo.monitor_state, batched.monitor_state);
    EXPECT_EQ(solo.fallback_path, batched.fallback_path);
  }

  static NoveltyDetector* detector_;
  static nn::Sequential* steering_;
};

NoveltyDetector* ClusterFixture::detector_ = nullptr;
nn::Sequential* ClusterFixture::steering_ = nullptr;

// ---------------------------------------------------------------------------
// Construction and basic routing.

TEST_F(ClusterFixture, RejectsBadConfigs) {
  ClusterConfig config;
  config.streams = 0;
  EXPECT_THROW(ServingCluster(*detector_, steering_, config), std::invalid_argument);
  config.streams = 1;
  config.replicas = 0;
  EXPECT_THROW(ServingCluster(*detector_, steering_, config), std::invalid_argument);
  config.replicas = 1;
  config.max_batch = 0;
  EXPECT_THROW(ServingCluster(*detector_, steering_, config), std::invalid_argument);
}

TEST_F(ClusterFixture, RejectsNegativeGatherWindowByFlag) {
  // A negative window is refused like any other out-of-range knob, not
  // clamped to 0; the error names the flag that sets it.
  ClusterConfig config;
  config.gather_window_ns = -1;
  try {
    ServingCluster cluster(*detector_, steering_, config);
    ADD_FAILURE() << "negative gather window accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--batch-window-us"), std::string::npos) << e.what();
  }
  config.gather_window_ns = 0;
  EXPECT_NO_THROW(ServingCluster(*detector_, steering_, config));
}

TEST_F(ClusterFixture, RejectsBadStreamIds) {
  FakeClock clock;
  ClusterConfig config;
  config.streams = 2;
  ServingCluster cluster(*detector_, steering_, config, &clock);
  Rng rng(7);
  EXPECT_THROW(cluster.submit(-1, familiar_frame(rng)), std::out_of_range);
  EXPECT_THROW(cluster.submit(2, familiar_frame(rng)), std::out_of_range);
  EXPECT_THROW(cluster.stream_health(2), std::out_of_range);
  cluster.stop();
}

TEST_F(ClusterFixture, StopIsIdempotentAndDropsLateSubmissions) {
  FakeClock clock;
  ClusterConfig config;
  config.streams = 1;
  ServingCluster cluster(*detector_, steering_, config, &clock);
  Rng rng(7);
  cluster.submit(0, familiar_frame(rng));
  cluster.stop();
  cluster.stop();
  cluster.submit(0, familiar_frame(rng));  // dropped, not queued
  EXPECT_EQ(cluster.stream_health(0).frames_total, 1);
}

// ---------------------------------------------------------------------------
// Tentpole contract: batched scores are bit-identical to the solo path.

TEST_F(ClusterFixture, BatchedResultsBitIdenticalToSoloSupervisors) {
  const int64_t streams = 4;
  const int64_t frames = 6;
  const auto scripts = stream_scripts(streams, frames);

  // Reference: one independent supervisor per stream (FakeClock, no stalls:
  // timing never varies, so decisions depend only on the frames).
  std::vector<std::vector<ServeResult>> solo(static_cast<size_t>(streams));
  for (int64_t s = 0; s < streams; ++s) {
    FakeClock clock;
    Supervisor supervisor(*detector_, steering_, SupervisorConfig{}, &clock);
    for (const Image& frame : scripts[static_cast<size_t>(s)]) {
      solo[static_cast<size_t>(s)].push_back(supervisor.process(frame));
    }
  }

  // Cluster: 2 replicas, generous window so whole rounds batch together.
  FakeClock clock;
  ClusterConfig config;
  config.streams = streams;
  config.replicas = 2;
  config.gather_window_ns = 10 * kMs;
  config.max_batch = 16;
  ServingCluster cluster(*detector_, steering_, config, &clock);
  cluster.pause();
  for (int64_t i = 0; i < frames; ++i) {
    for (int64_t s = 0; s < streams; ++s) {
      cluster.submit(s, scripts[static_cast<size_t>(s)][static_cast<size_t>(i)]);
    }
    clock.advance_ns(20 * kMs);  // each round is its own gather window
  }
  cluster.drain();
  const std::vector<ClusterResult> results = cluster.take_results();
  cluster.stop();

  ASSERT_EQ(results.size(), static_cast<size_t>(streams * frames));
  std::map<int64_t, int64_t> next_frame;
  bool any_batched = false;
  for (const ClusterResult& cr : results) {
    const int64_t s = cr.stream_id;
    const int64_t i = next_frame[s]++;
    ASSERT_LT(i, frames);
    expect_results_bitexact(solo[static_cast<size_t>(s)][static_cast<size_t>(i)], cr.result);
    if (cr.batch_size > 1) any_batched = true;
  }
  EXPECT_TRUE(any_batched) << "scenario never exercised a multi-frame batch";
  // Every frame went through batched compute: steer and reconstruction were
  // provided for all frames, saliency for every frame predicted on a
  // saliency rung.
  const ClusterStats stats = cluster.stats();
  EXPECT_EQ(stats.batched_frames, streams * frames);
  EXPECT_EQ(stats.provided_steer, streams * frames);
  EXPECT_GT(stats.provided_saliency, 0);
  EXPECT_GT(stats.provided_recon, 0);
}

// ---------------------------------------------------------------------------
// Batch composition is a pure function of the arrival schedule.

TEST_F(ClusterFixture, SealsOnGatherWindowBoundaries) {
  FakeClock clock;
  ClusterConfig config;
  config.streams = 1;
  config.gather_window_ns = 2 * kMs;
  config.max_batch = 16;
  ServingCluster cluster(*detector_, steering_, config, &clock);
  cluster.pause();
  Rng rng(5);
  for (int i = 0; i < 3; ++i) cluster.submit(0, familiar_frame(rng));  // t = 0
  clock.advance_ns(6 * kMs);
  for (int i = 0; i < 2; ++i) cluster.submit(0, familiar_frame(rng));  // t = 6 ms
  clock.advance_ns(6 * kMs);                                           // now 12 ms > 6 + 2
  cluster.drain();
  const std::vector<ClusterResult> results = cluster.take_results();
  cluster.stop();

  ASSERT_EQ(results.size(), 5u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(results[static_cast<size_t>(i)].batch_size, 3) << "frame " << i;
    EXPECT_EQ(results[static_cast<size_t>(i)].batch_seq, 0) << "frame " << i;
  }
  for (int i = 3; i < 5; ++i) {
    EXPECT_EQ(results[static_cast<size_t>(i)].batch_size, 2) << "frame " << i;
    EXPECT_EQ(results[static_cast<size_t>(i)].batch_seq, 1) << "frame " << i;
  }
  const ClusterStats stats = cluster.stats();
  EXPECT_EQ(stats.batches, 2);
  EXPECT_EQ(stats.window_seals, 2);
  EXPECT_EQ(stats.max_batch_seals, 0);
  // Gather wait is bounded by the scripted schedule: the first batch sealed
  // when the beyond-window frames landed at t = 6 ms.
  EXPECT_LE(stats.max_gather_wait_ns, 12 * kMs);
}

TEST_F(ClusterFixture, SealsAtMaxBatch) {
  FakeClock clock;
  ClusterConfig config;
  config.streams = 1;
  config.gather_window_ns = 100 * kMs;
  config.max_batch = 4;
  ServingCluster cluster(*detector_, steering_, config, &clock);
  cluster.pause();
  Rng rng(5);
  for (int i = 0; i < 6; ++i) cluster.submit(0, familiar_frame(rng));  // all t = 0
  cluster.drain();  // seals 4 (max_batch), then flushes the remaining 2
  const std::vector<ClusterResult> results = cluster.take_results();
  cluster.stop();

  ASSERT_EQ(results.size(), 6u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(results[static_cast<size_t>(i)].batch_size, 4);
  for (int i = 4; i < 6; ++i) EXPECT_EQ(results[static_cast<size_t>(i)].batch_size, 2);
  const ClusterStats stats = cluster.stats();
  EXPECT_EQ(stats.max_batch_seals, 1);
  EXPECT_EQ(stats.flush_seals, 1);
}

TEST_F(ClusterFixture, CompositionIsDeterministicAcrossRuns) {
  const auto run_once = [&] {
    FakeClock clock;
    ClusterConfig config;
    config.streams = 3;
    config.replicas = 2;
    config.gather_window_ns = 3 * kMs;
    config.max_batch = 4;
    ServingCluster cluster(*detector_, steering_, config, &clock);
    cluster.pause();
    const auto scripts = stream_scripts(3, 5);
    for (int64_t i = 0; i < 5; ++i) {
      for (int64_t s = 0; s < 3; ++s) {
        cluster.submit(s, scripts[static_cast<size_t>(s)][static_cast<size_t>(i)]);
      }
      clock.advance_ns(2 * kMs);  // every other round crosses a window boundary
    }
    cluster.drain();
    auto results = cluster.take_results();
    cluster.stop();
    return results;
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].stream_id, b[i].stream_id) << i;
    EXPECT_EQ(a[i].arrival_seq, b[i].arrival_seq) << i;
    EXPECT_EQ(a[i].replica, b[i].replica) << i;
    EXPECT_EQ(a[i].batch_seq, b[i].batch_seq) << i;
    EXPECT_EQ(a[i].batch_size, b[i].batch_size) << i;
    EXPECT_TRUE((std::isnan(a[i].result.score) && std::isnan(b[i].result.score)) ||
                a[i].result.score == b[i].result.score)
        << i;
  }
}

// ---------------------------------------------------------------------------
// Per-stream policy isolation.

TEST_F(ClusterFixture, StreamsDegradeIndependently) {
  FakeClock clock;
  ClusterConfig config;
  config.streams = 2;
  config.replicas = 2;
  config.gather_window_ns = 5 * kMs;
  // Fast monitor so the novelty-fed stream reaches fallback within the run.
  config.supervisor.monitor.trigger_frames = 3;
  ServingCluster cluster(*detector_, steering_, config, &clock);
  cluster.pause();
  Rng familiar_rng(11);
  Rng noise_rng(12);
  for (int i = 0; i < 8; ++i) {
    cluster.submit(0, familiar_frame(familiar_rng));
    cluster.submit(1, noise_frame(noise_rng));
    clock.advance_ns(10 * kMs);
  }
  cluster.drain();
  cluster.stop();

  const HealthSnapshot healthy = cluster.stream_health(0);
  const HealthSnapshot novel = cluster.stream_health(1);
  EXPECT_EQ(healthy.frames_total, 8);
  EXPECT_EQ(novel.frames_total, 8);
  EXPECT_EQ(healthy.frames_scored, 8);
  // Stream 1 scores novel frame after frame; its monitor must escalate while
  // stream 0 stays nominal.
  const core::NoveltyMonitor& monitor0 = cluster.stream_supervisor(0).monitor();
  const core::NoveltyMonitor& monitor1 = cluster.stream_supervisor(1).monitor();
  EXPECT_NE(monitor0.state(), core::MonitorState::kFallback);
  EXPECT_EQ(monitor1.state(), core::MonitorState::kFallback);

  const HealthSnapshot aggregate = cluster.aggregate_health();
  EXPECT_EQ(aggregate.frames_total, 16);
  EXPECT_EQ(aggregate.frames_scored, healthy.frames_scored + novel.frames_scored);
}

// The aggregate's counters are each stream's counters merged by their row's
// rule: sums, except the served epoch, which is the newest across streams.
TEST_F(ClusterFixture, AggregateHealthMergesEveryCounterRowByItsRule) {
  faults::TimingFaultInjector stalls;
  stalls.add({/*stage=*/2, /*stall_ns=*/10 * kMs, /*first_frame=*/1, /*last_frame=*/2,
              /*period=*/1});
  FakeClock clock;
  ClusterConfig config;
  config.streams = 3;
  config.replicas = 1;
  config.supervisor.stage_budget_ns = {kMs, kMs, kMs, kMs, kMs};
  config.supervisor.frame_budget_ns = 1000 * kMs;
  config.supervisor.timing_faults = &stalls;
  config.supervisor.calibration.enabled = true;
  config.supervisor.calibration.forced_swap_frames = {4};
  ServingCluster cluster(*detector_, steering_, config, &clock);
  cluster.pause();
  const auto scripts = stream_scripts(config.streams, 8);
  for (int64_t i = 0; i < 8; ++i) {
    // Stream 2 stops early, so its epoch stays at the fitted 0.
    for (int64_t s = 0; s < config.streams; ++s) {
      if (s == 2 && i >= 3) continue;
      cluster.submit(s, scripts[static_cast<size_t>(s)][static_cast<size_t>(i)]);
    }
    clock.advance_ns(kMs);
  }
  cluster.drain();

  std::vector<HealthSnapshot> per_stream;
  for (int64_t s = 0; s < config.streams; ++s) per_stream.push_back(cluster.stream_health(s));
  const HealthSnapshot aggregate = cluster.aggregate_health();
  cluster.stop();

  for (const auto& row : kHealthCounters) {
    int64_t expected = 0;
    for (const HealthSnapshot& h : per_stream) {
      expected = row.merge == Merge::kMax ? std::max(expected, h.*row.member)
                                          : expected + h.*row.member;
    }
    EXPECT_EQ(aggregate.*row.member, expected) << row.name;
  }
  // The scenario exercises both rules: epochs 1, 1, 0 merge to 1, not 2.
  EXPECT_EQ(aggregate.frames_total, 19);
  EXPECT_GT(aggregate.deadline_overruns, 0);
  EXPECT_EQ(aggregate.threshold_swaps, 2);
  EXPECT_EQ(aggregate.threshold_epoch, 1);
}

// Stage percentiles of the aggregate are nearest-rank percentiles over every
// sample in the streams' windows, not the largest per-stream percentile.
TEST_F(ClusterFixture, AggregateStagePercentilesAreExactOverAllStreams) {
  // A 1 ms score stall on frames 24 onward reaches only stream 1, the one
  // stream that serves more than 24 frames: its median is 1 ms, while most
  // of the cluster's score samples are 0.
  constexpr int64_t kScore = static_cast<int64_t>(Stage::kScore);
  faults::TimingFaultInjector stalls;
  stalls.add({/*stage=*/static_cast<int>(kScore), /*stall_ns=*/kMs, /*first_frame=*/24,
              /*last_frame=*/std::numeric_limits<int64_t>::max(), /*period=*/1});
  FakeClock clock;
  ClusterConfig config;
  config.streams = 2;
  config.replicas = 1;
  config.supervisor.timing_faults = &stalls;
  ServingCluster cluster(*detector_, steering_, config, &clock);
  cluster.pause();
  const auto scripts = stream_scripts(2, 50);
  for (int64_t i = 0; i < 50; ++i) {
    if (i < 24) cluster.submit(0, scripts[0][static_cast<size_t>(i)]);
    cluster.submit(1, scripts[1][static_cast<size_t>(i)]);
  }
  cluster.drain();
  const std::vector<ClusterResult> results = cluster.take_results();
  const HealthSnapshot aggregate = cluster.aggregate_health();
  const HealthSnapshot stream1 = cluster.stream_health(1);
  cluster.stop();

  const StageHealth& score = aggregate.stages[static_cast<size_t>(kScore)];
  ASSERT_EQ(score.samples, static_cast<int64_t>(results.size()))
      << "every frame ran the score stage, so stage_ns holds every window sample";
  std::vector<int64_t> served;
  for (const ClusterResult& r : results) {
    served.push_back(r.result.stage_ns[static_cast<size_t>(kScore)]);
  }
  std::sort(served.begin(), served.end());
  const auto brute_force = [&served](double p) {
    const size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(served.size())));
    return served[std::max<size_t>(rank, 1) - 1];
  };
  EXPECT_EQ(score.p50_ns, brute_force(0.50));
  EXPECT_EQ(score.p99_ns, brute_force(0.99));
  EXPECT_EQ(score.p50_ns, 0);
  EXPECT_EQ(score.p99_ns, kMs);
  EXPECT_EQ(stream1.stages[static_cast<size_t>(kScore)].p50_ns, kMs)
      << "the largest per-stream median differs from the cluster's median";
}

// ---------------------------------------------------------------------------
// Speculation misses fall back to in-stage compute with identical bits.

TEST_F(ClusterFixture, MispredictedReconstructionFallsBackBitIdentically) {
  // Stalls on the reconstruct stage of frames 0 and 1 demote the stream to
  // raw+MSE; frame 2 sits in the same batch, so its reconstruction was
  // speculated from the saliency mask and must be discarded and recomputed
  // from the raw frame.
  faults::TimingFaultInjector stalls;
  stalls.add({/*stage=*/3, /*stall_ns=*/10 * kMs, /*first_frame=*/0, /*last_frame=*/1,
              /*period=*/1});
  SupervisorConfig sup;
  sup.stage_budget_ns = {kMs, kMs, kMs, kMs, kMs};
  sup.frame_budget_ns = 1000 * kMs;
  sup.timing_faults = &stalls;

  const auto scripts = stream_scripts(1, 6);

  // Solo reference under the identical stall schedule.
  std::vector<ServeResult> solo;
  {
    FakeClock clock;
    Supervisor supervisor(*detector_, steering_, sup, &clock);
    for (const Image& frame : scripts[0]) solo.push_back(supervisor.process(frame));
  }

  FakeClock clock;
  ClusterConfig config;
  config.streams = 1;
  config.gather_window_ns = 100 * kMs;
  config.max_batch = 16;
  config.supervisor = sup;
  ServingCluster cluster(*detector_, steering_, config, &clock);
  cluster.pause();
  for (const Image& frame : scripts[0]) cluster.submit(0, frame);
  cluster.drain();
  const std::vector<ClusterResult> results = cluster.take_results();
  const ClusterStats stats = cluster.stats();
  cluster.stop();

  ASSERT_EQ(results.size(), solo.size());
  EXPECT_EQ(results[0].batch_size, 6) << "scenario requires one mixed batch";
  for (size_t i = 0; i < solo.size(); ++i) {
    expect_results_bitexact(solo[i], results[i].result);
  }
  // The mode change mid-batch invalidated at least one speculated
  // reconstruction (raw rung scores against the frame, not the mask).
  EXPECT_GT(stats.recon_mispredicts, 0);
  EXPECT_EQ(cluster.stream_health(0).mode, ServingMode::kRawMse);
}

// ---------------------------------------------------------------------------
// The cluster batches exactly what each supervisor plans, half-open probes
// included.

TEST_F(ClusterFixture, HalfOpenProbeFramesAreBatchedAsPlanned) {
  // Saliency stalls on frames 1-3 and 8-10 trip the breaker (three
  // consecutive failures; the ladder is held still so saliency keeps running
  // until the trip). After two open frames each trip ends in a clean
  // half-open probe, on frames 5 and 12.
  constexpr int kSaliency = static_cast<int>(Stage::kSaliency);
  faults::TimingFaultInjector stalls;
  stalls.add({kSaliency, /*stall_ns=*/10 * kMs, /*first_frame=*/1, /*last_frame=*/3,
              /*period=*/1});
  stalls.add({kSaliency, /*stall_ns=*/10 * kMs, /*first_frame=*/8, /*last_frame=*/10,
              /*period=*/1});
  SupervisorConfig sup;
  sup.stage_budget_ns = {kMs, kMs, kMs, kMs, kMs};
  sup.frame_budget_ns = 1000 * kMs;
  sup.demote_after_bad_frames = 100;
  sup.breaker.failure_threshold = 3;
  sup.breaker.open_frames = 2;
  sup.timing_faults = &stalls;

  const std::vector<Image> frames = stream_scripts(1, 14)[0];
  std::vector<ServeResult> solo;
  {
    FakeClock clock;
    Supervisor supervisor(*detector_, steering_, sup, &clock);
    for (const Image& frame : frames) solo.push_back(supervisor.process(frame));
  }

  // One frame per batch, so each frame's counters can be read apart.
  FakeClock clock;
  ClusterConfig config;
  config.streams = 1;
  config.replicas = 1;
  config.supervisor = sup;
  ServingCluster cluster(*detector_, steering_, config, &clock);
  std::vector<int64_t> saliency_ran;
  for (size_t i = 0; i < frames.size(); ++i) {
    const int64_t ran_before =
        cluster.stream_health(0).stages[static_cast<size_t>(kSaliency)].samples;
    const ClusterStats before = cluster.stats();
    cluster.pause();
    cluster.submit(0, frames[i]);
    cluster.drain();
    const int64_t ran =
        cluster.stream_health(0).stages[static_cast<size_t>(kSaliency)].samples - ran_before;
    const ClusterStats after = cluster.stats();
    const bool stalled = stalls.stall_ns(kSaliency, static_cast<int64_t>(i)) > 0;
    saliency_ran.push_back(ran);
    EXPECT_EQ(after.provided_saliency - before.provided_saliency, ran)
        << "frame " << i << ": a frame whose saliency stage ran gets a batched mask";
    EXPECT_EQ(after.recon_mispredicts - before.recon_mispredicts, stalled && ran == 1 ? 1 : 0)
        << "frame " << i << ": only a failed saliency stage discards the reconstruction";
    EXPECT_EQ(after.provided_recon - before.provided_recon, stalled && ran == 1 ? 0 : 1)
        << "frame " << i;
  }
  const std::vector<ClusterResult> results = cluster.take_results();
  const HealthSnapshot health = cluster.stream_health(0);
  cluster.stop();

  // The scenario: two trips, two probes that ran saliency on a raw rung and
  // restored the top rung, open frames that skipped the stage.
  EXPECT_EQ(health.breaker_trips, 2);
  EXPECT_EQ(health.probe_successes, 2);
  for (const size_t probe : {5u, 12u}) {
    EXPECT_EQ(saliency_ran[probe], 1) << "probe frame " << probe;
    EXPECT_EQ(solo[probe].mode, ServingMode::kVbpSsim) << "probe frame " << probe;
    EXPECT_EQ(solo[probe - 1].mode_after, ServingMode::kRawMse) << "probe frame " << probe;
  }
  EXPECT_EQ(saliency_ran[4], 0);
  EXPECT_EQ(saliency_ran[11], 0);

  ASSERT_EQ(results.size(), solo.size());
  for (size_t i = 0; i < solo.size(); ++i) {
    const ServeResult& got = results[i].result;
    EXPECT_EQ(0, std::memcmp(&got.score, &solo[i].score, sizeof(double))) << "frame " << i;
    EXPECT_EQ(got.novel, solo[i].novel) << "frame " << i;
    expect_results_bitexact(solo[i], got);
  }
}

// ---------------------------------------------------------------------------
// Invalid frames are screened out of batched compute but still accounted.

TEST_F(ClusterFixture, MalformedFramesAreScreenedNotBatched) {
  FakeClock clock;
  ClusterConfig config;
  config.streams = 1;
  config.gather_window_ns = 100 * kMs;
  ServingCluster cluster(*detector_, steering_, config, &clock);
  cluster.pause();
  Rng rng(9);
  Image bad(kH, kW);
  bad(0, 0) = std::numeric_limits<float>::quiet_NaN();
  cluster.submit(0, familiar_frame(rng));
  cluster.submit(0, bad);
  cluster.submit(0, familiar_frame(rng));
  cluster.drain();
  const std::vector<ClusterResult> results = cluster.take_results();
  const ClusterStats stats = cluster.stats();
  cluster.stop();

  ASSERT_EQ(results.size(), 3u);
  EXPECT_FALSE(results[0].result.sensor_bad);
  EXPECT_TRUE(results[1].result.sensor_bad);
  EXPECT_FALSE(results[2].result.sensor_bad);
  EXPECT_EQ(stats.prescreen_rejects, 1);
  EXPECT_EQ(cluster.stream_health(0).frames_sensor_bad, 1);
  EXPECT_EQ(cluster.stream_health(0).frames_scored, 2);
}

TEST_F(ClusterFixture, PrescreenVerdictServesMixedBatchesLikeTheBareSupervisor) {
  // The cluster validates each batched frame once and hands the verdict to
  // the frame's supervisor. Batches that mix NaN, out-of-range,
  // near-constant, frozen and good frames must serve exactly what a bare
  // Supervisor serves, sensor-bad counts included.
  Rng rng(57);
  const auto script = [&](int64_t stream) {
    Image nan_frame = familiar_frame(rng);
    nan_frame(1, 2) = std::numeric_limits<float>::quiet_NaN();
    Image out_of_range = familiar_frame(rng);
    out_of_range(3, 4) = 1.5f;
    Image near_constant(kH, kW);
    near_constant.tensor().fill(0.25f);
    const Image good = familiar_frame(rng);
    std::vector<Image> frames = {good,         nan_frame,  good,
                                 good,  // frozen: the previous valid frame again
                                 out_of_range, noise_frame(rng), near_constant,
                                 familiar_frame(rng)};
    if (stream == 1) std::rotate(frames.begin(), frames.begin() + 4, frames.end());
    return frames;
  };
  const std::vector<std::vector<Image>> scripts = {script(0), script(1)};

  std::vector<std::vector<ServeResult>> solo(scripts.size());
  std::vector<int64_t> solo_sensor_bad;
  for (size_t s = 0; s < scripts.size(); ++s) {
    FakeClock clock;
    Supervisor supervisor(*detector_, steering_, SupervisorConfig{}, &clock);
    for (const Image& frame : scripts[s]) solo[s].push_back(supervisor.process(frame));
    solo_sensor_bad.push_back(supervisor.health().frames_sensor_bad);
  }

  FakeClock clock;
  ClusterConfig config;
  config.streams = static_cast<int64_t>(scripts.size());
  config.replicas = 1;
  config.max_batch = 6;
  config.gather_window_ns = 100 * kMs;
  ServingCluster cluster(*detector_, steering_, config, &clock);
  cluster.pause();
  for (size_t i = 0; i < scripts[0].size(); ++i) {
    for (size_t s = 0; s < scripts.size(); ++s) {
      cluster.submit(static_cast<int64_t>(s), scripts[s][i]);
    }
  }
  cluster.drain();
  const std::vector<ClusterResult> results = cluster.take_results();
  const ClusterStats stats = cluster.stats();
  std::vector<int64_t> sensor_bad;
  for (size_t s = 0; s < scripts.size(); ++s) {
    sensor_bad.push_back(cluster.stream_health(static_cast<int64_t>(s)).frames_sensor_bad);
  }
  cluster.stop();

  // Three validator faults per stream; the frozen frame passes the
  // validator and is batched, then screened by its supervisor.
  EXPECT_EQ(stats.prescreen_rejects, 6);
  EXPECT_EQ(sensor_bad, solo_sensor_bad);
  EXPECT_EQ(solo_sensor_bad, (std::vector<int64_t>{4, 4}));
  ASSERT_EQ(results.size(), scripts.size() * scripts[0].size());
  std::vector<size_t> next(scripts.size(), 0);
  int64_t batched = 0;
  for (const ClusterResult& cr : results) {
    const size_t s = static_cast<size_t>(cr.stream_id);
    const ServeResult& want = solo[s][next[s]++];
    batched += cr.batch_size > 1 ? 1 : 0;
    EXPECT_EQ(0, std::memcmp(&cr.result.score, &want.score, sizeof(double)))
        << "stream " << s << " frame " << cr.result.frame_index;
    EXPECT_EQ(0, std::memcmp(&cr.result.steering, &want.steering, sizeof(double)))
        << "stream " << s << " frame " << cr.result.frame_index;
    expect_results_bitexact(want, cr.result);
  }
  EXPECT_EQ(batched, static_cast<int64_t>(results.size()));
}

TEST_F(ClusterFixture, ScreenVerdictReachesTheResultThroughABatch) {
  // A NaN frame, then a good frame and its bit-identical repeat, in one
  // batch: the prescreen's kNonFinite reaches the first result through
  // ProvidedCompute::fault, and the supervisor flags the repeat frozen.
  Rng rng(59);
  Image nan_frame = familiar_frame(rng);
  nan_frame(2, 3) = std::numeric_limits<float>::quiet_NaN();
  const Image good = familiar_frame(rng);
  const std::vector<Image> frames = {nan_frame, good, good};

  std::vector<ServeResult> solo;
  {
    FakeClock clock;
    Supervisor supervisor(*detector_, steering_, SupervisorConfig{}, &clock);
    for (const Image& frame : frames) solo.push_back(supervisor.process(frame));
  }

  FakeClock clock;
  ClusterConfig config;
  config.streams = 1;
  config.gather_window_ns = 100 * kMs;
  ServingCluster cluster(*detector_, steering_, config, &clock);
  cluster.pause();
  for (const Image& frame : frames) cluster.submit(0, frame);
  cluster.drain();
  const std::vector<ClusterResult> results = cluster.take_results();
  const ClusterStats stats = cluster.stats();
  cluster.stop();

  ASSERT_EQ(results.size(), frames.size());
  EXPECT_EQ(results[0].batch_size, 3) << "scenario requires one batch";
  EXPECT_EQ(stats.prescreen_rejects, 1);
  EXPECT_EQ(results[0].result.fault, core::FrameFault::kNonFinite);
  EXPECT_FALSE(results[0].result.frozen);
  EXPECT_EQ(results[1].result.fault, core::FrameFault::kNone);
  EXPECT_FALSE(results[1].result.frozen);
  EXPECT_EQ(results[2].result.fault, core::FrameFault::kNone);
  EXPECT_TRUE(results[2].result.frozen);
  EXPECT_TRUE(results[2].result.sensor_bad);
  for (size_t i = 0; i < frames.size(); ++i) expect_results_bitexact(solo[i], results[i].result);
}

TEST_F(ClusterFixture, SupervisorScreensByTheProvidedVerdict) {
  // The validate stage takes a provided verdict as given: a good frame
  // handed a fault is screened out, and frozen-frame detection still runs.
  Rng rng(58);
  const Image frame = familiar_frame(rng);
  FakeClock clock;
  Supervisor supervisor(*detector_, steering_, SupervisorConfig{}, &clock);
  ProvidedCompute faulted;
  faulted.fault = core::FrameFault::kNearConstant;
  EXPECT_TRUE(supervisor.process(frame, &faulted).sensor_bad);
  ProvidedCompute clean;
  clean.fault = core::FrameFault::kNone;
  EXPECT_FALSE(supervisor.process(frame, &clean).sensor_bad);
  EXPECT_TRUE(supervisor.process(frame, &clean).sensor_bad) << "the repeat is frozen";
  EXPECT_EQ(supervisor.health().frames_sensor_bad, 2);
}

}  // namespace
}  // namespace salnov::serving
