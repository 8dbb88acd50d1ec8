// Serving-runtime tests: deadline watchdog, degraded-mode ladder, circuit
// breaker, admission-credit shedding, and health accounting.
//
// Every timing scenario runs under a FakeClock with a deterministic
// TimingFaultInjector: injected stalls are the ONLY thing that advances
// time, so budget overruns, ladder steps, and breaker transitions happen on
// exactly the frames the schedule says — bit-for-bit reproducible on any
// machine, loaded or not.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "calib/threshold_set.hpp"
#include "core/novelty_detector.hpp"
#include "driving/pilotnet.hpp"
#include "faults/timing_faults.hpp"
#include "serving/circuit_breaker.hpp"
#include "serving/clock.hpp"
#include "serving/cluster.hpp"
#include "serving/health.hpp"
#include "serving/supervisor.hpp"

namespace salnov::serving {
namespace {

using core::DetectorVariant;
using core::NoveltyDetector;
using core::NoveltyDetectorConfig;
using core::Preprocessing;
using core::ReconstructionScore;

constexpr int64_t kH = 16;
constexpr int64_t kW = 24;
constexpr int64_t kMs = 1'000'000;  // ns

/// Fitted VBP+SSIM detector + steering model, shared across the suite (the
/// fit is the expensive part). Smooth gradients are familiar; noise is novel.
class ServingFixture : public ::testing::Test {
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

  /// Supervisor config with tight 1 ms stage budgets; under the FakeClock a
  /// 10 ms injected stall is the only way a stage can overrun.
  static SupervisorConfig tight_config(const faults::TimingFaultInjector* faults) {
    SupervisorConfig config;
    config.stage_budget_ns = {kMs, kMs, kMs, kMs, kMs};
    config.frame_budget_ns = 1000 * kMs;
    config.timing_faults = faults;
    return config;
  }

  /// The serving front end: one stream on one replica, admitting at most
  /// `credits` pending frames (the oldest queued frame is shed past that).
  static ClusterConfig front_end(SupervisorConfig supervisor, int64_t credits) {
    ClusterConfig config;
    config.supervisor = std::move(supervisor);
    config.admission_credits = credits;
    return config;
  }

  static NoveltyDetector* detector_;
  static nn::Sequential* steering_;
};

NoveltyDetector* ServingFixture::detector_ = nullptr;
nn::Sequential* ServingFixture::steering_ = nullptr;

// ---------------------------------------------------------------------------
// Building blocks.

TEST(TimingFaults, ScheduleIsDeterministic) {
  faults::TimingFaultInjector injector;
  injector.add({/*stage=*/2, /*stall_ns=*/10 * kMs, /*first_frame=*/4, /*last_frame=*/12,
                /*period=*/4});
  EXPECT_EQ(injector.stall_ns(2, 3), 0);
  EXPECT_EQ(injector.stall_ns(2, 4), 10 * kMs);
  EXPECT_EQ(injector.stall_ns(2, 5), 0);
  EXPECT_EQ(injector.stall_ns(2, 8), 10 * kMs);
  EXPECT_EQ(injector.stall_ns(2, 12), 10 * kMs);
  EXPECT_EQ(injector.stall_ns(2, 13), 0);
  EXPECT_EQ(injector.stall_ns(1, 8), 0) << "other stages unaffected";
  // Overlapping faults sum.
  injector.add({2, 5 * kMs, 8, 8, 1});
  EXPECT_EQ(injector.stall_ns(2, 8), 15 * kMs);
}

TEST(TimingFaults, RejectsBadSchedules) {
  faults::TimingFaultInjector injector;
  EXPECT_THROW(injector.add({0, -1, 0, 10, 1}), std::invalid_argument);
  EXPECT_THROW(injector.add({0, 1, 0, 10, 0}), std::invalid_argument);
  EXPECT_THROW(injector.add({0, 1, 10, 4, 1}), std::invalid_argument);
}

TEST(FakeClockTest, SleepAdvancesTime) {
  FakeClock clock(100);
  EXPECT_EQ(clock.now_ns(), 100);
  clock.sleep_ns(50);
  EXPECT_EQ(clock.now_ns(), 150);
  clock.sleep_ns(-5);  // negative sleeps are ignored
  EXPECT_EQ(clock.now_ns(), 150);
}

TEST(CircuitBreakerTest, TripsAfterConsecutiveFailuresOnly) {
  CircuitBreakerConfig config;
  config.failure_threshold = 3;
  config.open_frames = 2;
  CircuitBreaker breaker(config);
  breaker.record_failure();
  breaker.record_failure();
  breaker.record_success();  // resets the streak
  breaker.record_failure();
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.trips(), 1);
}

TEST(CircuitBreakerTest, HalfOpenProbeLifecycle) {
  CircuitBreakerConfig config;
  config.failure_threshold = 1;
  config.open_frames = 2;
  CircuitBreaker breaker(config);
  breaker.record_failure();
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_FALSE(breaker.allows());
  breaker.begin_frame();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  breaker.begin_frame();
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_TRUE(breaker.allows());
  // Failed probe re-opens for a fresh backoff window.
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.probe_failures(), 1);
  breaker.begin_frame();
  breaker.begin_frame();
  ASSERT_EQ(breaker.state(), BreakerState::kHalfOpen);
  breaker.record_success();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.probe_successes(), 1);
  EXPECT_EQ(breaker.trips(), 1) << "probe failures are not fresh trips";
}

TEST(CircuitBreakerTest, RepeatedProbeFailuresBackOffWithoutFreshTrips) {
  // A stage that stays broken across many probe windows must keep the
  // breaker cycling open -> half-open -> open, counting probe failures but
  // never inflating the trip counter or shortening the backoff.
  CircuitBreakerConfig config;
  config.failure_threshold = 2;
  config.open_frames = 3;
  CircuitBreaker breaker(config);
  breaker.record_failure();
  breaker.record_failure();
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);

  for (int cycle = 1; cycle <= 5; ++cycle) {
    // A full backoff window must elapse before each probe.
    for (int64_t i = 0; i < config.open_frames - 1; ++i) {
      breaker.begin_frame();
      EXPECT_EQ(breaker.state(), BreakerState::kOpen) << "cycle " << cycle;
      EXPECT_FALSE(breaker.allows());
    }
    breaker.begin_frame();
    ASSERT_EQ(breaker.state(), BreakerState::kHalfOpen) << "cycle " << cycle;
    breaker.record_failure();
    EXPECT_EQ(breaker.state(), BreakerState::kOpen);
    EXPECT_EQ(breaker.probe_failures(), cycle);
    EXPECT_EQ(breaker.trips(), 1);
  }

  // Recovery after the 5th failed probe: the next window's probe succeeds,
  // and the failure streak must start from zero again (a single failure
  // right after closing is below the threshold).
  for (int64_t i = 0; i < config.open_frames; ++i) breaker.begin_frame();
  ASSERT_EQ(breaker.state(), BreakerState::kHalfOpen);
  breaker.record_success();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed) << "streak reset on close";
}

TEST(CircuitBreakerTest, HalfOpenHoldsUntilAProbeResultArrives) {
  // Extra frame ticks while half-open (e.g. frames that skip the guarded
  // stage entirely) must not re-open, re-close, or double-arm the probe.
  CircuitBreakerConfig config;
  config.failure_threshold = 1;
  config.open_frames = 1;
  CircuitBreaker breaker(config);
  breaker.record_failure();
  breaker.begin_frame();
  ASSERT_EQ(breaker.state(), BreakerState::kHalfOpen);
  for (int i = 0; i < 4; ++i) {
    breaker.begin_frame();
    EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
    EXPECT_TRUE(breaker.allows());
  }
  breaker.record_success();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.probe_successes(), 1);
}

TEST(LatencyRingTest, NearestRankPercentiles) {
  LatencyRing ring(8);
  EXPECT_EQ(ring.percentile_ns(0.99), 0) << "empty ring reports 0";
  for (int64_t v = 1; v <= 8; ++v) ring.push(v * 100);
  EXPECT_EQ(ring.percentile_ns(0.50), 400);
  EXPECT_EQ(ring.percentile_ns(0.99), 800);
  // Window rolls: pushing 4 more evicts 100..400.
  for (int64_t v = 9; v <= 12; ++v) ring.push(v * 100);
  EXPECT_EQ(ring.percentile_ns(0.99), 1200);
  EXPECT_EQ(ring.count(), 12);
}

/// A snapshot whose every counter holds a distinct value, so a key bound to
/// the wrong member, a dropped key or a reordered key changes the JSON.
HealthSnapshot distinct_snapshot() {
  HealthSnapshot h;
  h.mode = ServingMode::kVbpMse;
  h.breaker_state = BreakerState::kHalfOpen;
  h.frames_total = 101;
  h.frames_scored = 102;
  h.frames_abandoned = 103;
  h.frames_held = 104;
  h.frames_sensor_bad = 105;
  h.deadline_overruns = 106;
  h.scoring_failures = 107;
  h.nonfinite_scores = 108;
  h.step_downs = 109;
  h.promotions = 110;
  h.breaker_trips = 111;
  h.probe_successes = 112;
  h.probe_failures = 113;
  h.drift_checks = 114;
  h.drift_detections = 115;
  h.threshold_swaps = 116;
  h.swap_persist_failures = 117;
  h.threshold_epoch = 118;
  h.drift_state = "alert";
  h.queue_shed = 119;
  for (int s = 0; s < kStageCount; ++s) {
    StageHealth& stage = h.stages[static_cast<size_t>(s)];
    stage.name = stage_name(static_cast<Stage>(s));
    stage.overruns = 200 + s;
    stage.samples = 210 + s;
    stage.p50_ns = 220 + s;
    stage.p99_ns = 230 + s;
  }
  HealthSnapshot::ShadowGauge filled;
  filled.rung = "vbp+ssim";
  filled.shadow_samples = 240;
  filled.shadow_quantile = 0.125;
  filled.served_threshold = 0.5;
  filled.eligible = true;
  HealthSnapshot::ShadowGauge empty;
  empty.rung = "raw+mse";
  empty.shadow_quantile = std::numeric_limits<double>::quiet_NaN();
  empty.served_threshold = 2.75;
  h.shadow = {filled, empty};
  ClusterStats& c = h.cluster;
  c.batches = 301;
  c.batched_frames = 302;
  c.max_batch_seals = 303;
  c.window_seals = 304;
  c.flush_seals = 305;
  c.max_gather_wait_ns = 306;
  c.provided_steer = 307;
  c.provided_saliency = 308;
  c.provided_recon = 309;
  c.recon_mispredicts = 310;
  c.prescreen_rejects = 311;
  c.quarantines = 312;
  c.probe_attempts = 313;
  c.probe_failures = 314;
  c.restores = 315;
  c.failovers = 316;
  c.redispatched_frames = 317;
  c.fallback_frames = 318;
  c.shed_frames = 319;
  c.slow_batches = 320;
  c.canary_checks = 321;
  c.canary_failures = 322;
  return h;
}

// Pins the exported JSON byte for byte (recorded before the counters moved
// into row tables): key names, key order, the drift_state string between
// the counters, null for a non-finite gauge, and the cluster section only
// when has_cluster is set.
TEST(HealthJsonTest, RendersEveryFieldInTheRecordedOrder) {
  const std::string single =
      R"({"mode":"vbp+mse","breaker_state":"half-open","frames_total":101,)"
      R"("frames_scored":102,"frames_abandoned":103,"frames_held":104,)"
      R"("frames_sensor_bad":105,"deadline_overruns":106,"scoring_failures":107,)"
      R"("nonfinite_scores":108,"step_downs":109,"promotions":110,"breaker_trips":111,)"
      R"("probe_successes":112,"probe_failures":113,"drift_checks":114,)"
      R"("drift_detections":115,"threshold_swaps":116,"swap_persist_failures":117,)"
      R"("threshold_epoch":118,"drift_state":"alert","queue_shed":119,)"
      R"("stages":[{"name":"validate","overruns":200,"samples":210,"p50_ns":220,)"
      R"("p99_ns":230},{"name":"steer","overruns":201,"samples":211,"p50_ns":221,)"
      R"("p99_ns":231},{"name":"saliency","overruns":202,"samples":212,"p50_ns":222,)"
      R"("p99_ns":232},{"name":"reconstruct","overruns":203,"samples":213,"p50_ns":223,)"
      R"("p99_ns":233},{"name":"score","overruns":204,"samples":214,"p50_ns":224,)"
      R"("p99_ns":234}],"shadow":[{"rung":"vbp+ssim","shadow_samples":240,)"
      R"("shadow_quantile":0.125,"served_threshold":0.5,"eligible":true},{"rung":"raw+mse",)"
      R"("shadow_samples":0,"shadow_quantile":null,"served_threshold":2.75,)"
      R"("eligible":false}]})";
  const std::string cluster =
      R"({"mode":"vbp+mse","breaker_state":"half-open","frames_total":101,)"
      R"("frames_scored":102,"frames_abandoned":103,"frames_held":104,)"
      R"("frames_sensor_bad":105,"deadline_overruns":106,"scoring_failures":107,)"
      R"("nonfinite_scores":108,"step_downs":109,"promotions":110,"breaker_trips":111,)"
      R"("probe_successes":112,"probe_failures":113,"drift_checks":114,)"
      R"("drift_detections":115,"threshold_swaps":116,"swap_persist_failures":117,)"
      R"("threshold_epoch":118,"drift_state":"alert","queue_shed":119,)"
      R"("stages":[{"name":"validate","overruns":200,"samples":210,"p50_ns":220,)"
      R"("p99_ns":230},{"name":"steer","overruns":201,"samples":211,"p50_ns":221,)"
      R"("p99_ns":231},{"name":"saliency","overruns":202,"samples":212,"p50_ns":222,)"
      R"("p99_ns":232},{"name":"reconstruct","overruns":203,"samples":213,"p50_ns":223,)"
      R"("p99_ns":233},{"name":"score","overruns":204,"samples":214,"p50_ns":224,)"
      R"("p99_ns":234}],"shadow":[{"rung":"vbp+ssim","shadow_samples":240,)"
      R"("shadow_quantile":0.125,"served_threshold":0.5,"eligible":true},{"rung":"raw+mse",)"
      R"("shadow_samples":0,"shadow_quantile":null,"served_threshold":2.75,)"
      R"("eligible":false}],"cluster":{"batches":301,"batched_frames":302,)"
      R"("max_batch_seals":303,"window_seals":304,"flush_seals":305,"max_gather_wait_ns":306,)"
      R"("provided_steer":307,"provided_saliency":308,"provided_recon":309,)"
      R"("recon_mispredicts":310,"prescreen_rejects":311,"quarantines":312,)"
      R"("probe_attempts":313,"probe_failures":314,"restores":315,"failovers":316,)"
      R"("redispatched_frames":317,"fallback_frames":318,"shed_frames":319,)"
      R"("slow_batches":320,"canary_checks":321,"canary_failures":322}})";
  HealthSnapshot h = distinct_snapshot();
  EXPECT_EQ(h.to_json(), single);
  h.has_cluster = true;
  EXPECT_EQ(h.to_json(), cluster);
}

// ---------------------------------------------------------------------------
// Supervisor scenarios (all under FakeClock + injected stalls).

TEST_F(ServingFixture, HealthyStreamServesAtTopOfLadder) {
  FakeClock clock;
  Supervisor supervisor(*detector_, steering_, tight_config(nullptr), &clock);
  Rng rng(43);
  for (int i = 0; i < 8; ++i) {
    const ServeResult result = supervisor.process(familiar_frame(rng));
    EXPECT_EQ(result.mode, ServingMode::kVbpSsim);
    EXPECT_TRUE(result.scored);
    EXPECT_FALSE(result.deadline_overrun);
    EXPECT_FALSE(result.abandoned);
    EXPECT_TRUE(std::isfinite(result.score));
    EXPECT_TRUE(std::isfinite(result.steering));
  }
  const HealthSnapshot health = supervisor.health();
  EXPECT_EQ(health.frames_total, 8);
  EXPECT_EQ(health.frames_scored, 8);
  EXPECT_EQ(health.deadline_overruns, 0);
  EXPECT_EQ(health.step_downs, 0);
  EXPECT_EQ(health.mode, ServingMode::kVbpSsim);
  EXPECT_EQ(health.breaker_state, BreakerState::kClosed);
}

TEST_F(ServingFixture, SaliencyStallStepsDownLadderRungByRung) {
  faults::TimingFaultInjector faults;
  faults.add({static_cast<int>(Stage::kSaliency), 10 * kMs, 0, 1, 1});
  SupervisorConfig config = tight_config(&faults);
  config.breaker.failure_threshold = 10;  // keep the breaker out of this test
  FakeClock clock;
  Supervisor supervisor(*detector_, steering_, config, &clock);
  Rng rng(45);

  // Frame 0: saliency blows its budget -> the frame itself is still served,
  // on the raw+MSE rung, and the ladder steps down to VBP+MSE.
  const ServeResult f0 = supervisor.process(familiar_frame(rng));
  EXPECT_EQ(f0.mode, ServingMode::kRawMse) << "within-frame fallback";
  EXPECT_TRUE(f0.scored);
  EXPECT_TRUE(f0.deadline_overrun);
  EXPECT_EQ(f0.stage_ns[static_cast<size_t>(Stage::kSaliency)], 10 * kMs);
  EXPECT_EQ(supervisor.mode(), ServingMode::kVbpMse);

  // Frame 1: still stalling -> second step down, to raw+MSE.
  const ServeResult f1 = supervisor.process(familiar_frame(rng));
  EXPECT_EQ(f1.mode, ServingMode::kRawMse);
  EXPECT_EQ(supervisor.mode(), ServingMode::kRawMse);

  // Frame 2: the raw rung never touches saliency -> healthy.
  const ServeResult f2 = supervisor.process(familiar_frame(rng));
  EXPECT_EQ(f2.mode, ServingMode::kRawMse);
  EXPECT_FALSE(f2.deadline_overrun);
  EXPECT_EQ(f2.stage_ns[static_cast<size_t>(Stage::kSaliency)], 0) << "stage skipped";

  const HealthSnapshot health = supervisor.health();
  EXPECT_EQ(health.step_downs, 2);
  EXPECT_EQ(health.deadline_overruns, 2);
  EXPECT_EQ(health.stages[static_cast<size_t>(Stage::kSaliency)].overruns, 2);
  EXPECT_EQ(health.frames_scored, 3);
}

TEST_F(ServingFixture, PromotionClimbsBackAfterRecovery) {
  faults::TimingFaultInjector faults;
  faults.add({static_cast<int>(Stage::kSaliency), 10 * kMs, 0, 1, 1});
  SupervisorConfig config = tight_config(&faults);
  config.breaker.failure_threshold = 10;
  config.promote_after_healthy_frames = 3;
  FakeClock clock;
  Supervisor supervisor(*detector_, steering_, config, &clock);
  Rng rng(47);

  for (int i = 0; i < 8; ++i) supervisor.process(familiar_frame(rng));
  // f0,f1 demote to raw+mse; f2..f4 healthy -> vbp+mse; f5..f7 -> vbp+ssim.
  EXPECT_EQ(supervisor.mode(), ServingMode::kVbpSsim);
  const HealthSnapshot health = supervisor.health();
  EXPECT_EQ(health.step_downs, 2);
  EXPECT_EQ(health.promotions, 2);
}

TEST_F(ServingFixture, BreakerTripForcesRawAndProbeRestoresTop) {
  faults::TimingFaultInjector faults;
  faults.add({static_cast<int>(Stage::kSaliency), 10 * kMs, 0, 2, 1});
  SupervisorConfig config = tight_config(&faults);
  config.breaker.failure_threshold = 3;
  config.breaker.open_frames = 2;
  config.demote_after_bad_frames = 100;     // isolate the breaker path
  config.promote_after_healthy_frames = 100;
  FakeClock clock;
  Supervisor supervisor(*detector_, steering_, config, &clock);
  Rng rng(49);

  supervisor.process(familiar_frame(rng));  // f0: failure 1
  supervisor.process(familiar_frame(rng));  // f1: failure 2
  EXPECT_EQ(supervisor.mode(), ServingMode::kVbpSsim) << "hysteresis held the rung";
  const ServeResult f2 = supervisor.process(familiar_frame(rng));  // f2: trips
  EXPECT_EQ(supervisor.breaker_state(), BreakerState::kOpen);
  EXPECT_EQ(supervisor.mode(), ServingMode::kRawMse) << "trip forces the raw rung";
  EXPECT_EQ(f2.mode, ServingMode::kRawMse);

  // f3: breaker open -> saliency untouched.
  const ServeResult f3 = supervisor.process(familiar_frame(rng));
  EXPECT_EQ(f3.stage_ns[static_cast<size_t>(Stage::kSaliency)], 0);
  EXPECT_FALSE(f3.deadline_overrun);

  // f4: open_frames elapsed -> half-open probe; the stall cleared at f2, so
  // the probe succeeds and restores VBP+SSIM directly.
  const ServeResult f4 = supervisor.process(familiar_frame(rng));
  EXPECT_EQ(f4.mode, ServingMode::kVbpSsim);
  EXPECT_TRUE(f4.scored);
  EXPECT_EQ(supervisor.mode(), ServingMode::kVbpSsim);
  EXPECT_EQ(supervisor.breaker_state(), BreakerState::kClosed);

  const HealthSnapshot health = supervisor.health();
  EXPECT_EQ(health.breaker_trips, 1);
  EXPECT_EQ(health.probe_successes, 1);
  EXPECT_EQ(health.probe_failures, 0);
}

TEST_F(ServingFixture, FailedProbeReopensForAnotherBackoff) {
  faults::TimingFaultInjector faults;
  faults.add({static_cast<int>(Stage::kSaliency), 10 * kMs, 0, 4, 1});
  SupervisorConfig config = tight_config(&faults);
  config.breaker.failure_threshold = 3;
  config.breaker.open_frames = 2;
  config.demote_after_bad_frames = 100;
  config.promote_after_healthy_frames = 100;
  FakeClock clock;
  Supervisor supervisor(*detector_, steering_, config, &clock);
  Rng rng(51);

  for (int i = 0; i < 5; ++i) supervisor.process(familiar_frame(rng));
  // f0..f2 trip the breaker; f4 is the first probe and the stall is still
  // active, so it fails and the breaker re-opens.
  EXPECT_EQ(supervisor.breaker_state(), BreakerState::kOpen);
  EXPECT_EQ(supervisor.health().probe_failures, 1);

  // Two more open frames -> second probe at f6, now past the stall window.
  supervisor.process(familiar_frame(rng));
  const ServeResult f6 = supervisor.process(familiar_frame(rng));
  EXPECT_EQ(f6.mode, ServingMode::kVbpSsim);
  EXPECT_EQ(supervisor.breaker_state(), BreakerState::kClosed);
  const HealthSnapshot health = supervisor.health();
  EXPECT_EQ(health.breaker_trips, 1);
  EXPECT_EQ(health.probe_failures, 1);
  EXPECT_EQ(health.probe_successes, 1);
}

TEST_F(ServingFixture, FrameDeadlineAbandonsMidPipeline) {
  faults::TimingFaultInjector faults;
  faults.add({static_cast<int>(Stage::kReconstruct), 10 * kMs, 0, 0, 1});
  SupervisorConfig config = tight_config(&faults);
  config.frame_budget_ns = 5 * kMs;
  FakeClock clock;
  Supervisor supervisor(*detector_, steering_, config, &clock);
  Rng rng(53);

  const ServeResult f0 = supervisor.process(familiar_frame(rng));
  EXPECT_TRUE(f0.abandoned);
  EXPECT_FALSE(f0.scored);
  EXPECT_TRUE(f0.deadline_overrun);
  EXPECT_EQ(f0.stage_ns[static_cast<size_t>(Stage::kScore)], 0) << "score stage skipped";

  const ServeResult f1 = supervisor.process(familiar_frame(rng));
  EXPECT_FALSE(f1.abandoned);
  EXPECT_TRUE(f1.scored);

  const HealthSnapshot health = supervisor.health();
  EXPECT_EQ(health.frames_abandoned, 1);
  EXPECT_EQ(health.frames_total, 2);
  EXPECT_EQ(health.step_downs, 1) << "an abandoned frame is a bad frame";
}

TEST_F(ServingFixture, LadderExhaustionHoldsAndRecovers) {
  // Reconstruct runs on every rung, so a sustained stall walks the ladder
  // all the way down to sensor hold; once it clears the supervisor climbs
  // back and the monitor releases.
  faults::TimingFaultInjector faults;
  faults.add({static_cast<int>(Stage::kReconstruct), 10 * kMs, 0, 9, 1});
  SupervisorConfig config = tight_config(&faults);
  config.promote_after_healthy_frames = 2;
  config.breaker.failure_threshold = 100;
  FakeClock clock;
  Supervisor supervisor(*detector_, steering_, config, &clock);
  Rng rng(55);

  bool saw_hold_with_sensor_fault = false;
  for (int i = 0; i < 10; ++i) {
    const ServeResult result = supervisor.process(familiar_frame(rng));
    if (result.mode == ServingMode::kSensorHold) {
      EXPECT_FALSE(result.scored) << "held frames make no calibrated claim";
      if (result.monitor_state == core::MonitorState::kSensorFault) {
        EXPECT_EQ(result.fallback_path, core::FallbackPath::kSensorFault);
        saw_hold_with_sensor_fault = true;
      }
    }
  }
  EXPECT_EQ(supervisor.mode(), ServingMode::kSensorHold);
  EXPECT_TRUE(saw_hold_with_sensor_fault)
      << "sustained hold must engage the monitor's sensor path";
  const HealthSnapshot mid = supervisor.health();
  EXPECT_EQ(mid.step_downs, 3);
  EXPECT_GT(mid.frames_held, 0);

  // Stall clears: promote back up to the top and release the monitor.
  for (int i = 0; i < 20; ++i) supervisor.process(familiar_frame(rng));
  EXPECT_EQ(supervisor.mode(), ServingMode::kVbpSsim);
  EXPECT_NE(supervisor.monitor().state(), core::MonitorState::kSensorFault);
  const HealthSnapshot health = supervisor.health();
  EXPECT_EQ(health.frames_total, 30);
  EXPECT_EQ(health.frames_scored + health.frames_held + health.frames_abandoned, 30);
}

TEST_F(ServingFixture, SensorBadFramesAreLadderNeutral) {
  FakeClock clock;
  Supervisor supervisor(*detector_, steering_, tight_config(nullptr), &clock);
  Rng rng(57);
  supervisor.process(familiar_frame(rng));
  const ServeResult bad = supervisor.process(Image(kH + 2, kW));  // wrong size
  EXPECT_TRUE(bad.sensor_bad);
  EXPECT_FALSE(bad.scored);
  EXPECT_EQ(supervisor.mode(), ServingMode::kVbpSsim) << "ladder unaffected";
  const HealthSnapshot health = supervisor.health();
  EXPECT_EQ(health.frames_sensor_bad, 1);
  EXPECT_EQ(health.step_downs, 0);
}

TEST_F(ServingFixture, PeriodicSpikesCountExactlyAndNeverDemote) {
  faults::TimingFaultInjector faults;
  faults.add({static_cast<int>(Stage::kSaliency), 10 * kMs, 0, 11, 4});  // f0, f4, f8
  SupervisorConfig config = tight_config(&faults);
  config.demote_after_bad_frames = 2;  // isolated spikes never make a streak
  config.breaker.failure_threshold = 10;
  FakeClock clock;
  Supervisor supervisor(*detector_, steering_, config, &clock);
  Rng rng(59);

  for (int i = 0; i < 12; ++i) supervisor.process(familiar_frame(rng));
  const HealthSnapshot health = supervisor.health();
  EXPECT_EQ(health.deadline_overruns, 3);
  EXPECT_EQ(health.stages[static_cast<size_t>(Stage::kSaliency)].overruns, 3);
  EXPECT_EQ(health.step_downs, 0);
  EXPECT_EQ(health.mode, ServingMode::kVbpSsim);
  EXPECT_EQ(health.frames_scored, 12);

  const std::string json = health.to_json();
  EXPECT_NE(json.find("\"deadline_overruns\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"mode\":\"vbp+ssim\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"saliency\",\"overruns\":3"), std::string::npos) << json;
}

TEST_F(ServingFixture, IdenticalSchedulesProduceIdenticalHealth) {
  const auto run = [&] {
    faults::TimingFaultInjector faults;
    faults.add({static_cast<int>(Stage::kSaliency), 10 * kMs, 1, 6, 2});
    faults.add({static_cast<int>(Stage::kScore), 3 * kMs, 4, 4, 1});
    SupervisorConfig config = tight_config(&faults);
    config.promote_after_healthy_frames = 3;
    FakeClock clock;
    Supervisor supervisor(*detector_, steering_, config, &clock);
    Rng rng(61);
    for (int i = 0; i < 16; ++i) supervisor.process(familiar_frame(rng));
    return supervisor.health().to_json();
  };
  EXPECT_EQ(run(), run());
}

// ---------------------------------------------------------------------------
// The serving front end: a one-stream, one-replica ServingCluster with
// admission credits, fed by producer threads. These also run under TSan
// (see tools/run_tsan.sh).

TEST_F(ServingFixture, ServerProcessesEverythingItAccepts) {
  ServingCluster cluster(*detector_, steering_, front_end(tight_config(nullptr), 8));
  Rng rng(63);
  for (int i = 0; i < 50; ++i) cluster.submit(0, familiar_frame(rng));
  cluster.drain();
  const HealthSnapshot health = cluster.stream_health(0);
  EXPECT_EQ(health.frames_total + health.queue_shed, 50);
  EXPECT_EQ(health.queue_shed, cluster.shed_for_stream(0));
  const std::vector<ClusterResult> results = cluster.take_results();
  EXPECT_EQ(static_cast<int64_t>(results.size()), health.frames_total);
  cluster.stop();
}

TEST_F(ServingFixture, ServerBurstRespectsQueueBound) {
  // Stall every frame's saliency stage on a real clock so the worker is
  // genuinely slower than the producer; admission control must shed past
  // the credits (oldest queued frame first) and account for every
  // submission exactly once.
  faults::TimingFaultInjector faults;
  faults.add({static_cast<int>(Stage::kSaliency), 2 * kMs, 0,
              std::numeric_limits<int64_t>::max() - 1, 1});
  SupervisorConfig config = tight_config(&faults);
  config.breaker.failure_threshold = 1'000'000;
  ClusterConfig cluster_config = front_end(config, 4);
  cluster_config.keep_results = false;
  ServingCluster cluster(*detector_, steering_, cluster_config);
  Rng rng(65);
  for (int i = 0; i < 64; ++i) cluster.submit(0, familiar_frame(rng));
  cluster.drain();
  const HealthSnapshot health = cluster.aggregate_health();
  EXPECT_EQ(health.frames_total + health.queue_shed, 64);
  EXPECT_EQ(health.cluster.shed_frames, health.queue_shed);
  EXPECT_TRUE(cluster.take_results().empty());
  cluster.stop();
}

TEST_F(ServingFixture, PersistentStallFailsEveryProbeWithoutRetripping) {
  // Supervisor-level view of the repeated-probe-failure cycle: a saliency
  // stall that never clears must trip the breaker exactly once, fail every
  // half-open probe thereafter, and keep serving calibrated raw+MSE scores
  // the whole time.
  faults::TimingFaultInjector faults;
  faults.add({static_cast<int>(Stage::kSaliency), 10 * kMs, 0,
              std::numeric_limits<int64_t>::max() - 1, 1});
  FakeClock clock;
  SupervisorConfig config = tight_config(&faults);
  config.breaker.failure_threshold = 2;
  config.breaker.open_frames = 2;
  // An isolated failed-probe frame must not demote the ladder below raw+MSE
  // (each probe blows the stage budget, but two bad frames never run
  // consecutively once the breaker is open).
  config.demote_after_bad_frames = 2;
  Supervisor supervisor(*detector_, steering_, config, &clock);
  Rng rng(71);
  for (int i = 0; i < 20; ++i) {
    const ServeResult result = supervisor.process(familiar_frame(rng));
    if (i >= 2) {
      EXPECT_EQ(result.mode, ServingMode::kRawMse) << "frame " << i;
      EXPECT_TRUE(result.scored) << "frame " << i;
    }
  }
  const HealthSnapshot health = supervisor.health();
  EXPECT_EQ(health.breaker_trips, 1) << "failed probes must not count as trips";
  EXPECT_GE(health.probe_failures, 3);
  EXPECT_EQ(health.probe_successes, 0);
  EXPECT_EQ(health.promotions, 0);
  EXPECT_NE(health.breaker_state, BreakerState::kClosed);
  EXPECT_EQ(health.mode, ServingMode::kRawMse);
}

TEST_F(ServingFixture, ProbeDuringQueueBurstRestoresLadder) {
  // The half-open probe fires while the front end is absorbing a producer
  // burst: shedding changes which *camera* frames are processed, but stalls
  // key off the supervisor's own frame counter, so the trip -> backoff ->
  // probe -> restore cycle happens on exactly the same processed-frame
  // indices regardless of admission pressure.
  faults::TimingFaultInjector faults;
  faults.add({static_cast<int>(Stage::kSaliency), 10 * kMs, /*first_frame=*/0,
              /*last_frame=*/1, /*period=*/1});
  FakeClock clock;
  SupervisorConfig config = tight_config(&faults);
  config.breaker.failure_threshold = 2;
  config.breaker.open_frames = 2;
  config.promote_after_healthy_frames = 2;
  ServingCluster cluster(*detector_, steering_, front_end(config, 8), &clock);
  Rng rng(73);
  for (int i = 0; i < 60; ++i) cluster.submit(0, familiar_frame(rng));
  cluster.drain();
  const HealthSnapshot health = cluster.stream_health(0);
  EXPECT_EQ(health.frames_total + health.queue_shed, 60);
  // Even in the worst burst case the drain processes >= admission_credits
  // frames, which covers trip (frame 1), backoff (2..3), and the successful
  // probe that restores the top rung.
  ASSERT_GE(health.frames_total, 8);
  EXPECT_EQ(health.breaker_trips, 1);
  EXPECT_EQ(health.probe_failures, 0);
  EXPECT_EQ(health.probe_successes, 1);
  EXPECT_EQ(health.breaker_state, BreakerState::kClosed);
  EXPECT_EQ(health.mode, ServingMode::kVbpSsim);
  const std::vector<ClusterResult> results = cluster.take_results();
  EXPECT_EQ(static_cast<int64_t>(results.size()), health.frames_total);
  cluster.stop();
}

TEST_F(ServingFixture, HotSwapChangesVerdictsWithoutInterruptingService) {
  // Drift path end to end on the primary rung: a stream of off-distribution
  // frames is flagged novel against the fitted threshold until the shadow
  // calibration swaps in a threshold fitted to the new distribution — after
  // which the same frames read as nominal. Service never pauses.
  SupervisorConfig config = tight_config(nullptr);
  config.monitor.trigger_frames = 1'000'000;  // keep the monitor quiet
  config.calibration.enabled = true;
  config.calibration.warmup = 16;
  config.calibration.min_samples = 24;
  config.calibration.check_every_frames = 8;
  config.calibration.trigger_checks = 2;
  config.calibration.release_checks = 2;
  FakeClock clock;
  Supervisor supervisor(*detector_, steering_, config, &clock);
  Rng rng(75);

  const auto off_distribution_frame = [&] {
    Image img = familiar_frame(rng);
    for (int64_t i = 0; i < img.numel(); ++i) {
      img.tensor()[i] = 1.0f - img.tensor()[i];  // inverted gradient
    }
    return img;
  };

  int64_t novel_before_swap = 0;
  int64_t scored_before_swap = 0;
  int64_t novel_after_swap = 0;
  int64_t scored_after_swap = 0;
  for (int i = 0; i < 160; ++i) {
    const ServeResult result = supervisor.process(off_distribution_frame());
    ASSERT_TRUE(result.scored) << "frame " << i << ": service must not pause for a swap";
    if (result.threshold_epoch == 0) {
      ++scored_before_swap;
      novel_before_swap += result.novel ? 1 : 0;
    } else {
      ++scored_after_swap;
      novel_after_swap += result.novel ? 1 : 0;
    }
  }
  const HealthSnapshot health = supervisor.health();
  ASSERT_GE(health.threshold_swaps, 1) << "sustained shift must trigger a recalibration";
  ASSERT_GT(scored_before_swap, 0);
  ASSERT_GT(scored_after_swap, 0);
  EXPECT_GT(static_cast<double>(novel_before_swap) / scored_before_swap, 0.9)
      << "fitted threshold flags the shifted stream";
  EXPECT_LT(static_cast<double>(novel_after_swap) / scored_after_swap, 0.25)
      << "swapped threshold is calibrated to the shifted stream";
}

TEST_F(ServingFixture, ServerConcurrentHotSwapNeverBlocksScoring) {
  // Hot-swap thread-safety under load (runs under TSan, see
  // tools/run_tsan.sh): one thread streams frames through the front end
  // while another repeatedly installs fresh ThresholdSets on the stream's
  // supervisor and reads health snapshots. The scorer's acquire is
  // wait-free, so every accepted frame is processed and the served epoch
  // only moves forward.
  ServingCluster cluster(*detector_, steering_, front_end(tight_config(nullptr), 16));
  Supervisor& supervisor = cluster.stream_supervisor(0);

  constexpr int64_t kInstalls = 200;
  std::thread installer([&] {
    for (int64_t epoch = 1; epoch <= kInstalls; ++epoch) {
      auto set = std::make_shared<calib::ThresholdSet>();
      set->epoch = epoch;
      for (int v = 0; v < core::kDetectorVariantCount; ++v) {
        set->thresholds[static_cast<size_t>(v)] =
            detector_->variant_calibration(static_cast<core::DetectorVariant>(v)).threshold;
      }
      supervisor.install_thresholds(std::move(set));
      (void)cluster.stream_health(0);
    }
  });

  Rng rng(77);
  for (int i = 0; i < 40; ++i) cluster.submit(0, familiar_frame(rng));
  installer.join();
  cluster.drain();

  const HealthSnapshot health = cluster.stream_health(0);
  EXPECT_EQ(health.frames_total + health.queue_shed, 40);
  EXPECT_EQ(health.threshold_swaps, kInstalls);
  const std::vector<ClusterResult> results = cluster.take_results();
  int64_t last_epoch = 0;
  for (const ClusterResult& cr : results) {
    EXPECT_GE(cr.result.threshold_epoch, last_epoch) << "served epoch must be monotone";
    last_epoch = std::max(last_epoch, cr.result.threshold_epoch);
  }
  cluster.stop();
}

TEST_F(ServingFixture, ServerConcurrentProducersAndSnapshots) {
  ServingCluster cluster(*detector_, steering_, front_end(tight_config(nullptr), 16));

  const auto produce = [&](int seed) {
    Rng rng(seed);
    for (int i = 0; i < 25; ++i) cluster.submit(0, familiar_frame(rng));
  };
  std::thread a(produce, 67);
  std::thread b(produce, 69);
  for (int i = 0; i < 10; ++i) (void)cluster.aggregate_health();  // concurrent snapshots
  a.join();
  b.join();
  cluster.drain();
  const HealthSnapshot health = cluster.aggregate_health();
  EXPECT_EQ(health.frames_total + health.queue_shed, 50);
  cluster.stop();
}

}  // namespace
}  // namespace salnov::serving
