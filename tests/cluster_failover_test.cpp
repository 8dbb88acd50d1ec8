// Replica failure-domain tests: fault-scheduled crash/hang/slow/corruption,
// watchdog quarantine + half-open probe restore, deterministic failover and
// re-dispatch, inline Supervisor fallback, admission-credit shedding, and a
// seeded chaos property suite.
//
// The invariant under test everywhere: per-sample scores stay bit-identical
// to the batch-1 path through EVERY recovery route — batched on the home
// replica, batched on a survivor after failover, or served inline by the
// stream's own Supervisor. All scenarios run under a FakeClock with the
// staged pause -> submit -> advance -> drain protocol, so the quarantine /
// probe / failover sequence is a pure function of the fault schedule and
// the arrival timestamps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include "core/novelty_detector.hpp"
#include "driving/pilotnet.hpp"
#include "faults/replica_faults.hpp"
#include "prop.hpp"
#include "serving/clock.hpp"
#include "serving/cluster.hpp"
#include "serving/supervisor.hpp"
#include "serving/watchdog.hpp"
#include "trace/trace.hpp"

namespace salnov::serving {
namespace {

using core::NoveltyDetector;
using core::NoveltyDetectorConfig;
using core::Preprocessing;
using core::ReconstructionScore;
using faults::ReplicaFault;
using faults::ReplicaFaultKind;
using faults::ReplicaFaultSchedule;

constexpr int64_t kH = 16;
constexpr int64_t kW = 24;
constexpr int64_t kMs = 1'000'000;  // ns

class FailoverFixture : public ::testing::Test {
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

  /// Reference decision stream: one private Supervisor per stream under its
  /// own FakeClock (no stalls, so decisions depend only on the frames).
  static std::vector<std::vector<ServeResult>> solo_reference(
      const std::vector<std::vector<Image>>& scripts, const SupervisorConfig& sup = {}) {
    std::vector<std::vector<ServeResult>> solo(scripts.size());
    for (size_t s = 0; s < scripts.size(); ++s) {
      FakeClock clock;
      Supervisor supervisor(*detector_, steering_, sup, &clock);
      for (const Image& frame : scripts[s]) solo[s].push_back(supervisor.process(frame));
    }
    return solo;
  }

  static void expect_results_bitexact(const ServeResult& solo, const ServeResult& batched) {
    EXPECT_EQ(solo.frame_index, batched.frame_index);
    EXPECT_EQ(solo.mode, batched.mode);
    EXPECT_EQ(solo.scored, batched.scored);
    EXPECT_EQ(solo.abandoned, batched.abandoned);
    EXPECT_EQ(solo.deadline_overrun, batched.deadline_overrun);
    EXPECT_EQ(solo.sensor_bad, batched.sensor_bad);
    EXPECT_EQ(solo.novel, batched.novel);
    EXPECT_TRUE((std::isnan(solo.score) && std::isnan(batched.score)) ||
                solo.score == batched.score)
        << "score " << solo.score << " vs " << batched.score;
    EXPECT_TRUE((std::isnan(solo.steering) && std::isnan(batched.steering)) ||
                solo.steering == batched.steering)
        << "steering " << solo.steering << " vs " << batched.steering;
    EXPECT_EQ(solo.monitor_state, batched.monitor_state);
    EXPECT_EQ(solo.fallback_path, batched.fallback_path);
  }

  /// Diffs the full cluster output against the per-stream solo reference.
  static void expect_all_bitexact(const std::vector<ClusterResult>& results,
                                  const std::vector<std::vector<ServeResult>>& solo) {
    std::map<int64_t, int64_t> next_frame;
    for (const ClusterResult& cr : results) {
      const int64_t s = cr.stream_id;
      const int64_t i = next_frame[s]++;
      ASSERT_LT(static_cast<size_t>(i), solo[static_cast<size_t>(s)].size());
      expect_results_bitexact(solo[static_cast<size_t>(s)][static_cast<size_t>(i)], cr.result);
    }
  }

  /// Fast-reacting watchdog for the scripted timelines below: one missed
  /// 1 ms deadline per 10 ms round, quarantine at 2 misses, probe at 8 ms.
  static WatchdogConfig fast_watchdog() {
    WatchdogConfig wd;
    wd.enabled = true;
    wd.batch_deadline_ns = 1 * kMs;
    wd.missed_deadlines_to_quarantine = 2;
    wd.probe_backoff_ns = 8 * kMs;
    wd.max_probe_backoff_ns = 64 * kMs;
    return wd;
  }

  /// Staged protocol shared by the scenarios: `rounds` arrival rounds, all
  /// streams submitting one frame per round, 10 ms of fake time between
  /// rounds, then drain.
  struct RunOutput {
    std::vector<ClusterResult> results;
    std::vector<ClusterEvent> events;
    ClusterStats stats;
  };
  static RunOutput run_staged(ServingCluster& cluster, FakeClock& clock,
                              const std::vector<std::vector<Image>>& scripts) {
    cluster.pause();
    const int64_t streams = static_cast<int64_t>(scripts.size());
    const int64_t rounds = static_cast<int64_t>(scripts[0].size());
    for (int64_t i = 0; i < rounds; ++i) {
      for (int64_t s = 0; s < streams; ++s) {
        cluster.submit(s, scripts[static_cast<size_t>(s)][static_cast<size_t>(i)]);
      }
      clock.advance_ns(10 * kMs);
    }
    cluster.drain();
    RunOutput out;
    out.results = cluster.take_results();
    out.events = cluster.take_events();
    out.stats = cluster.stats();
    std::sort(out.results.begin(), out.results.end(),
              [](const ClusterResult& a, const ClusterResult& b) {
                return a.arrival_seq < b.arrival_seq;
              });
    return out;
  }

  static bool has_event(const std::vector<ClusterEvent>& events, ClusterEventKind kind) {
    return std::any_of(events.begin(), events.end(),
                       [kind](const ClusterEvent& e) { return e.kind == kind; });
  }

  static NoveltyDetector* detector_;
  static nn::Sequential* steering_;
};

NoveltyDetector* FailoverFixture::detector_ = nullptr;
nn::Sequential* FailoverFixture::steering_ = nullptr;

// ---------------------------------------------------------------------------
// Watchdog state machine (no cluster).

TEST(ReplicaWatchdog, ChargesOutageIncrementallyAcrossTicks) {
  WatchdogConfig config;
  config.enabled = true;
  config.batch_deadline_ns = 10;
  config.missed_deadlines_to_quarantine = 3;
  ReplicaWatchdog wd(1, config);
  // Repeated ticks over the same window never double-count elapsed misses.
  EXPECT_FALSE(wd.charge_outage(0, 0, 15));  // 1 miss
  EXPECT_FALSE(wd.charge_outage(0, 0, 19));  // still 1
  EXPECT_FALSE(wd.charge_outage(0, 0, 25));  // 2
  EXPECT_TRUE(wd.charge_outage(0, 0, 31));   // 3 -> quarantine
}

TEST(ReplicaWatchdog, ProbeBackoffDoublesAndCaps) {
  WatchdogConfig config;
  config.enabled = true;
  config.probe_backoff_ns = 10;
  config.max_probe_backoff_ns = 35;
  ReplicaWatchdog wd(1, config);
  wd.quarantine(0, 100);
  EXPECT_FALSE(wd.probe_due(0, 105));
  EXPECT_TRUE(wd.probe_due(0, 110));
  wd.begin_probe(0);
  EXPECT_EQ(wd.state(0), ReplicaState::kHalfOpen);
  wd.probe_failed(0, 110);  // backoff 10 -> 20
  EXPECT_FALSE(wd.probe_due(0, 125));
  EXPECT_TRUE(wd.probe_due(0, 130));
  wd.begin_probe(0);
  wd.probe_failed(0, 130);  // 20 -> 35 (capped)
  EXPECT_FALSE(wd.probe_due(0, 160));
  EXPECT_TRUE(wd.probe_due(0, 165));
  wd.begin_probe(0);
  wd.restore(0);
  EXPECT_EQ(wd.state(0), ReplicaState::kHealthy);
  EXPECT_EQ(wd.probe_attempts(), 3);
}

TEST(ReplicaWatchdog, HeartbeatSilenceBeyondTimeoutTrips) {
  WatchdogConfig config;
  config.enabled = true;
  config.heartbeat_timeout_ns = 50;
  ReplicaWatchdog wd(2, config);
  EXPECT_FALSE(wd.charge_heartbeat_silence(0, 100, 149));
  EXPECT_TRUE(wd.charge_heartbeat_silence(0, 100, 151));
  wd.quarantine(1, 0);
  // Quarantined replicas are not re-charged.
  EXPECT_FALSE(wd.charge_heartbeat_silence(1, 0, 1000));
}

TEST(ReplicaWatchdog, CanaryFailuresAccumulateToThreshold) {
  WatchdogConfig config;
  config.enabled = true;
  config.canary_period_ns = 100;
  config.canary_failures_to_quarantine = 2;
  ReplicaWatchdog wd(1, config);
  EXPECT_FALSE(wd.canary_due(0, 50));
  EXPECT_TRUE(wd.canary_due(0, 100));
  EXPECT_FALSE(wd.charge_canary_failure(0));
  wd.note_canary_ok(0);  // a pass resets the streak
  EXPECT_FALSE(wd.charge_canary_failure(0));
  EXPECT_TRUE(wd.charge_canary_failure(0));
}

TEST(ReplicaWatchdog, RejectsBadKnobs) {
  WatchdogConfig config;
  config.enabled = true;
  config.batch_deadline_ns = 0;
  EXPECT_THROW(ReplicaWatchdog(1, config), std::invalid_argument);
  config = WatchdogConfig{};
  config.enabled = true;
  config.missed_deadlines_to_quarantine = 0;
  EXPECT_THROW(ReplicaWatchdog(1, config), std::invalid_argument);
  config = WatchdogConfig{};
  EXPECT_THROW(ReplicaWatchdog(0, config), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Fault schedule semantics.

TEST(ReplicaFaultScheduleTest, ActiveWindowsAreHalfOpen) {
  ReplicaFaultSchedule sched;
  sched.add({0, ReplicaFaultKind::kCrash, 10, 20, 0, 0, 1});
  EXPECT_EQ(sched.active_of_kind(0, ReplicaFaultKind::kCrash, 9), nullptr);
  EXPECT_NE(sched.active_of_kind(0, ReplicaFaultKind::kCrash, 10), nullptr);
  EXPECT_NE(sched.active_of_kind(0, ReplicaFaultKind::kCrash, 19), nullptr);
  EXPECT_EQ(sched.active_of_kind(0, ReplicaFaultKind::kCrash, 20), nullptr);
  EXPECT_EQ(sched.active_of_kind(1, ReplicaFaultKind::kCrash, 15), nullptr);
  EXPECT_TRUE(sched.outage_active(0, 15));
  EXPECT_FALSE(sched.outage_active(0, 25));
}

TEST(ReplicaFaultScheduleTest, SlowPenaltiesSumAcrossOverlappingFaults) {
  ReplicaFaultSchedule sched;
  sched.add({0, ReplicaFaultKind::kSlow, 0, 100, 5, 0, 1});
  sched.add({0, ReplicaFaultKind::kSlow, 50, 100, 7, 0, 1});
  EXPECT_EQ(sched.slow_penalty_ns(0, 10), 5);
  EXPECT_EQ(sched.slow_penalty_ns(0, 60), 12);
  EXPECT_EQ(sched.slow_penalty_ns(0, 100), 0);
}

TEST(ReplicaFaultScheduleTest, RejectsMalformedFaults) {
  ReplicaFaultSchedule sched;
  EXPECT_THROW(sched.add({-1, ReplicaFaultKind::kCrash, 0, 10, 0, 0, 1}),
               std::invalid_argument);
  EXPECT_THROW(sched.add({0, ReplicaFaultKind::kCrash, 10, 10, 0, 0, 1}),
               std::invalid_argument);
  EXPECT_THROW(sched.add({0, ReplicaFaultKind::kSlow, 0, 10, -5, 0, 1}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Deterministic failover scenarios.

TEST_F(FailoverFixture, CrashMidScheduleFailsOverBitExact) {
  const auto scripts = stream_scripts(2, 6);
  const auto solo = solo_reference(scripts);

  ReplicaFaultSchedule sched;
  sched.add({0, ReplicaFaultKind::kCrash, 0, 1'000'000 * kMs, 0, 0, 1});

  FakeClock clock;
  ClusterConfig config;
  config.streams = 2;
  config.replicas = 2;
  config.gather_window_ns = 5 * kMs;
  config.watchdog = fast_watchdog();
  config.replica_faults = &sched;
  ServingCluster cluster(*detector_, steering_, config, &clock);
  const RunOutput out = run_staged(cluster, clock, scripts);
  cluster.stop();

  ASSERT_EQ(out.results.size(), 12u);
  expect_all_bitexact(out.results, solo);
  // Stream 0's home replica never recovers: every frame of both streams is
  // served by the survivor.
  for (const ClusterResult& cr : out.results) {
    EXPECT_EQ(cr.replica, 1) << "arrival_seq " << cr.arrival_seq;
  }
  EXPECT_EQ(out.stats.quarantines, 1);
  EXPECT_GE(out.stats.failovers, 1);
  EXPECT_EQ(out.stats.redispatched_frames, 1);  // the one frame staged before t=10ms
  EXPECT_GE(out.stats.probe_attempts, 1);       // probes fire and fail while crashed
  EXPECT_EQ(out.stats.probe_attempts, out.stats.probe_failures);
  EXPECT_EQ(out.stats.restores, 0);
  EXPECT_TRUE(has_event(out.events, ClusterEventKind::kQuarantine));
  EXPECT_TRUE(has_event(out.events, ClusterEventKind::kFailover));
  EXPECT_EQ(cluster.replica_state(0), ReplicaState::kQuarantined);
}

TEST_F(FailoverFixture, HangPastGatherWindowQuarantinesAndMigrates) {
  const auto scripts = stream_scripts(2, 5);
  const auto solo = solo_reference(scripts);

  ReplicaFaultSchedule sched;
  sched.add({1, ReplicaFaultKind::kHang, 0, 1'000'000 * kMs, 0, 0, 1});

  FakeClock clock;
  ClusterConfig config;
  config.streams = 2;
  config.replicas = 2;
  config.gather_window_ns = 2 * kMs;  // hang holds batches far past the window
  config.watchdog = fast_watchdog();
  config.replica_faults = &sched;
  ServingCluster cluster(*detector_, steering_, config, &clock);
  const RunOutput out = run_staged(cluster, clock, scripts);
  cluster.stop();

  ASSERT_EQ(out.results.size(), 10u);
  expect_all_bitexact(out.results, solo);
  for (const ClusterResult& cr : out.results) EXPECT_EQ(cr.replica, 0);
  EXPECT_EQ(out.stats.quarantines, 1);
  EXPECT_TRUE(has_event(out.events, ClusterEventKind::kQuarantine));
  EXPECT_EQ(cluster.replica_state(1), ReplicaState::kQuarantined);
}

TEST_F(FailoverFixture, SlowReplicaDemotedWhenPenaltyExceedsDeadline) {
  const auto scripts = stream_scripts(2, 5);
  const auto solo = solo_reference(scripts);

  ReplicaFaultSchedule sched;
  sched.add({0, ReplicaFaultKind::kSlow, 0, 1'000'000 * kMs, /*penalty=*/20 * kMs, 0, 1});

  FakeClock clock;
  ClusterConfig config;
  config.streams = 2;
  config.replicas = 2;
  config.gather_window_ns = 5 * kMs;
  config.watchdog = fast_watchdog();
  config.watchdog.batch_deadline_ns = 5 * kMs;  // 20 ms penalty >> 5 ms deadline
  config.replica_faults = &sched;
  ServingCluster cluster(*detector_, steering_, config, &clock);
  const RunOutput out = run_staged(cluster, clock, scripts);
  cluster.stop();

  ASSERT_EQ(out.results.size(), 10u);
  expect_all_bitexact(out.results, solo);
  EXPECT_EQ(out.stats.quarantines, 1);
  EXPECT_EQ(cluster.replica_state(0), ReplicaState::kQuarantined);
  for (const ClusterResult& cr : out.results) EXPECT_EQ(cr.replica, 1);
}

TEST_F(FailoverFixture, TolerableSlownessIsChargedButNotQuarantined) {
  const auto scripts = stream_scripts(2, 4);
  const auto solo = solo_reference(scripts);

  ReplicaFaultSchedule sched;
  sched.add({0, ReplicaFaultKind::kSlow, 0, 1'000'000 * kMs, /*penalty=*/1 * kMs, 0, 1});

  FakeClock clock;
  ClusterConfig config;
  config.streams = 2;
  config.replicas = 2;
  config.gather_window_ns = 5 * kMs;
  config.watchdog = fast_watchdog();
  config.watchdog.batch_deadline_ns = 5 * kMs;  // 1 ms penalty tolerable
  config.replica_faults = &sched;
  ServingCluster cluster(*detector_, steering_, config, &clock);
  const RunOutput out = run_staged(cluster, clock, scripts);
  cluster.stop();

  ASSERT_EQ(out.results.size(), 8u);
  expect_all_bitexact(out.results, solo);
  EXPECT_EQ(out.stats.quarantines, 0);
  EXPECT_EQ(out.stats.failovers, 0);
  EXPECT_GE(out.stats.slow_batches, 1);  // the penalty is still accounted
  // Streams stayed home.
  for (const ClusterResult& cr : out.results) EXPECT_EQ(cr.replica, cr.stream_id % 2);
}

TEST_F(FailoverFixture, QuarantineHalfOpenProbeRestoresReplica) {
  const auto scripts = stream_scripts(2, 4);
  const auto solo = solo_reference(scripts);

  // Crash over [0 ms, 20 ms): quarantined at the t=10ms tick, probe due at
  // 18 ms, fault gone by the t=20ms tick -> probe passes -> restore, and the
  // stream fails back to its home replica.
  ReplicaFaultSchedule sched;
  sched.add({0, ReplicaFaultKind::kCrash, 0, 20 * kMs, 0, 0, 1});

  FakeClock clock;
  ClusterConfig config;
  config.streams = 2;
  config.replicas = 2;
  config.gather_window_ns = 5 * kMs;
  config.watchdog = fast_watchdog();
  config.replica_faults = &sched;
  ServingCluster cluster(*detector_, steering_, config, &clock);
  const RunOutput out = run_staged(cluster, clock, scripts);
  cluster.stop();

  ASSERT_EQ(out.results.size(), 8u);
  expect_all_bitexact(out.results, solo);
  EXPECT_EQ(out.stats.quarantines, 1);
  EXPECT_EQ(out.stats.probe_attempts, 1);
  EXPECT_EQ(out.stats.probe_failures, 0);
  EXPECT_EQ(out.stats.restores, 1);
  EXPECT_EQ(out.stats.failovers, 2);  // away at quarantine, home at restore
  EXPECT_TRUE(has_event(out.events, ClusterEventKind::kRestore));
  EXPECT_EQ(cluster.replica_state(0), ReplicaState::kHealthy);
  // After the restore everything staged on the survivor migrated back, so
  // stream 0's frames were ultimately batched on its home replica.
  for (const ClusterResult& cr : out.results) {
    if (cr.stream_id == 0) {
      EXPECT_EQ(cr.replica, 0) << "arrival_seq " << cr.arrival_seq;
    }
  }
}

TEST_F(FailoverFixture, RedispatchBudgetExhaustionFallsBackInline) {
  const auto scripts = stream_scripts(2, 4);
  const auto solo = solo_reference(scripts);

  ReplicaFaultSchedule sched;
  sched.add({0, ReplicaFaultKind::kCrash, 0, 20 * kMs, 0, 0, 1});

  FakeClock clock;
  ClusterConfig config;
  config.streams = 2;
  config.replicas = 2;
  config.gather_window_ns = 5 * kMs;
  config.watchdog = fast_watchdog();
  config.watchdog.max_redispatches = 1;  // the restore migration blows the budget
  config.replica_faults = &sched;
  ServingCluster cluster(*detector_, steering_, config, &clock);
  const RunOutput out = run_staged(cluster, clock, scripts);
  cluster.stop();

  ASSERT_EQ(out.results.size(), 8u);
  expect_all_bitexact(out.results, solo);
  EXPECT_GE(out.stats.fallback_frames, 1);
  EXPECT_TRUE(has_event(out.events, ClusterEventKind::kFallback));
  bool any_inline = false;
  for (const ClusterResult& cr : out.results) {
    if (cr.replica == -1) {
      any_inline = true;
      EXPECT_EQ(cr.batch_seq, -1);
      EXPECT_EQ(cr.batch_size, 1);
    }
  }
  EXPECT_TRUE(any_inline);
}

TEST_F(FailoverFixture, AllReplicasDownServesEveryFrameInline) {
  const auto scripts = stream_scripts(1, 5);
  const auto solo = solo_reference(scripts);

  ReplicaFaultSchedule sched;
  sched.add({0, ReplicaFaultKind::kCrash, 0, 1'000'000 * kMs, 0, 0, 1});

  FakeClock clock;
  ClusterConfig config;
  config.streams = 1;
  config.replicas = 1;
  config.watchdog = fast_watchdog();
  config.replica_faults = &sched;
  ServingCluster cluster(*detector_, steering_, config, &clock);
  const RunOutput out = run_staged(cluster, clock, scripts);

  ASSERT_EQ(out.results.size(), 5u);
  expect_all_bitexact(out.results, solo);
  // The Supervisor ladder is the fallback of last resort: batch-1 path,
  // identical bits, replica -1.
  for (const ClusterResult& cr : out.results) {
    EXPECT_EQ(cr.replica, -1);
    EXPECT_EQ(cr.batch_size, 1);
  }
  EXPECT_EQ(out.stats.fallback_frames, 5);
  EXPECT_EQ(out.stats.batched_frames, 0);

  // Satellite: the failure-domain counters surface in the aggregate
  // HealthSnapshot and its JSON rendering.
  const HealthSnapshot agg = cluster.aggregate_health();
  cluster.stop();
  EXPECT_TRUE(agg.has_cluster);
  EXPECT_EQ(agg.cluster.fallback_frames, 5);
  const std::string json = agg.to_json();
  EXPECT_NE(json.find("\"cluster\":{"), std::string::npos);
  EXPECT_NE(json.find("\"fallback_frames\":5"), std::string::npos);
  EXPECT_NE(json.find("\"provided_recon\":"), std::string::npos);
  EXPECT_NE(json.find("\"recon_mispredicts\":"), std::string::npos);
  EXPECT_NE(json.find("\"window_seals\":"), std::string::npos);
}

TEST_F(FailoverFixture, WeightCorruptionWithholdsBatchedComputeBitExact) {
  const auto scripts = stream_scripts(2, 4);
  const auto solo = solo_reference(scripts);

  // Corruption active on replica 0 with no watchdog: batches still run
  // there, but every ProvidedCompute from the poisoned replica is withheld
  // and the supervisors recompute from the pristine shared weights.
  ReplicaFaultSchedule sched;
  sched.add({0, ReplicaFaultKind::kWeightCorrupt, 0, 1'000'000 * kMs, 0, /*bits=*/64, 5});

  FakeClock clock;
  ClusterConfig config;
  config.streams = 2;
  config.replicas = 2;
  config.gather_window_ns = 5 * kMs;
  config.replica_faults = &sched;
  ServingCluster cluster(*detector_, steering_, config, &clock);
  const RunOutput out = run_staged(cluster, clock, scripts);
  cluster.stop();

  ASSERT_EQ(out.results.size(), 8u);
  expect_all_bitexact(out.results, solo);
  EXPECT_EQ(out.stats.batched_frames, 8);
  // Only the clean replica's frames were served speculative compute.
  EXPECT_EQ(out.stats.provided_steer, 4);
  EXPECT_EQ(out.stats.quarantines, 0);  // no watchdog -> no quarantine
}

TEST_F(FailoverFixture, CanaryCatchesWeightCorruptionAndQuarantines) {
  const auto scripts = stream_scripts(2, 5);
  const auto solo = solo_reference(scripts);

  ReplicaFaultSchedule sched;
  sched.add({0, ReplicaFaultKind::kWeightCorrupt, 0, 1'000'000 * kMs, 0, /*bits=*/64, 5});

  FakeClock clock;
  ClusterConfig config;
  config.streams = 2;
  config.replicas = 2;
  config.gather_window_ns = 5 * kMs;
  config.watchdog = fast_watchdog();
  config.watchdog.batch_deadline_ns = 1'000'000 * kMs;  // outage path stays quiet
  config.watchdog.canary_period_ns = 1 * kMs;
  config.watchdog.canary_failures_to_quarantine = 1;
  config.replica_faults = &sched;
  ServingCluster cluster(*detector_, steering_, config, &clock);
  const RunOutput out = run_staged(cluster, clock, scripts);
  cluster.stop();

  ASSERT_EQ(out.results.size(), 10u);
  expect_all_bitexact(out.results, solo);
  EXPECT_GE(out.stats.canary_checks, 1);
  EXPECT_GE(out.stats.canary_failures, 1);
  EXPECT_EQ(out.stats.quarantines, 1);
  // Quarantine detail 1 = canary verdict.
  bool canary_quarantine = false;
  for (const ClusterEvent& e : out.events) {
    if (e.kind == ClusterEventKind::kQuarantine && e.replica == 0 && e.detail == 1) {
      canary_quarantine = true;
    }
  }
  EXPECT_TRUE(canary_quarantine);
  EXPECT_EQ(cluster.replica_state(0), ReplicaState::kQuarantined);
}

// ---------------------------------------------------------------------------
// End-to-end backpressure: admission credits shed oldest-first per stream.

TEST_F(FailoverFixture, AdmissionCreditsShedOldestFirst) {
  FakeClock clock;
  ClusterConfig config;
  config.streams = 1;
  config.replicas = 1;
  config.admission_credits = 2;
  ServingCluster cluster(*detector_, steering_, config, &clock);
  cluster.pause();
  Rng rng(3);
  for (int i = 0; i < 5; ++i) cluster.submit(0, familiar_frame(rng));
  cluster.drain();
  const std::vector<ClusterResult> results = cluster.take_results();
  const std::vector<ClusterEvent> events = cluster.take_events();
  const ClusterStats stats = cluster.stats();

  // 5 submitted, 2 credits: seqs 0..2 shed oldest-first, 3 and 4 served.
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].arrival_seq, 3);
  EXPECT_EQ(results[1].arrival_seq, 4);
  EXPECT_EQ(stats.shed_frames, 3);
  EXPECT_EQ(cluster.shed_for_stream(0), 3);
  std::vector<int64_t> shed_seqs;
  for (const ClusterEvent& e : events) {
    if (e.kind == ClusterEventKind::kShed) shed_seqs.push_back(e.detail);
  }
  EXPECT_EQ(shed_seqs, (std::vector<int64_t>{0, 1, 2}));
  // Shedding is visible in the per-stream and aggregate snapshots.
  EXPECT_EQ(cluster.stream_health(0).queue_shed, 3);
  const HealthSnapshot agg = cluster.aggregate_health();
  EXPECT_EQ(agg.queue_shed, 3);
  EXPECT_EQ(agg.cluster.shed_frames, 3);
  cluster.stop();
}

TEST_F(FailoverFixture, AdmissionCreditsIsolatePerStream) {
  FakeClock clock;
  ClusterConfig config;
  config.streams = 2;
  config.replicas = 1;
  config.admission_credits = 3;
  ServingCluster cluster(*detector_, steering_, config, &clock);
  cluster.pause();
  Rng rng(3);
  // Stream 0 floods; stream 1 stays under its credits.
  for (int i = 0; i < 6; ++i) cluster.submit(0, familiar_frame(rng));
  for (int i = 0; i < 2; ++i) cluster.submit(1, familiar_frame(rng));
  cluster.drain();
  const ClusterStats stats = cluster.stats();
  EXPECT_EQ(cluster.shed_for_stream(0), 3);
  EXPECT_EQ(cluster.shed_for_stream(1), 0);
  EXPECT_EQ(stats.shed_frames, 3);
  EXPECT_EQ(cluster.stream_health(1).frames_total, 2);
  cluster.stop();
}

// ---------------------------------------------------------------------------
// Seeded chaos property suite (prop.hpp style: failure echoes the seed).

struct ChaosCase {
  int64_t streams = 1;
  int64_t rounds = 1;
  int64_t replicas = 1;
  int64_t admission_credits = 0;
  std::vector<ReplicaFault> faults;
};

std::string describe_case(const ChaosCase& c) {
  std::ostringstream os;
  os << "streams=" << c.streams << " rounds=" << c.rounds << " replicas=" << c.replicas
     << " credits=" << c.admission_credits << " faults=[";
  for (const ReplicaFault& f : c.faults) {
    os << "{r" << f.replica << " " << faults::replica_fault_kind_name(f.kind) << " ["
       << f.start_ns / kMs << "ms," << f.end_ns / kMs << "ms)} ";
  }
  os << "]";
  return os.str();
}

ChaosCase gen_chaos_case(Rng& rng) {
  ChaosCase c;
  c.streams = rng.uniform_int(1, 4);
  c.rounds = rng.uniform_int(3, 6);
  c.replicas = rng.uniform_int(1, 3);
  c.admission_credits = rng.uniform_int(0, 1) ? rng.uniform_int(2, 4) : 0;
  const int64_t n_faults = rng.uniform_int(0, 4);
  for (int64_t i = 0; i < n_faults; ++i) {
    ReplicaFault f;
    f.replica = rng.uniform_int(0, std::min(c.replicas, c.streams) - 1);
    f.kind = static_cast<ReplicaFaultKind>(rng.uniform_int(0, 3));
    f.start_ns = rng.uniform_int(0, 4) * 10 * kMs;
    f.end_ns = f.start_ns + rng.uniform_int(1, 5) * 10 * kMs;
    f.slow_penalty_ns = rng.uniform_int(0, 1) ? 20 * kMs : kMs / 2;
    f.weight_bits = 48;
    f.seed = rng.uniform_int(1, 1'000'000);
    c.faults.push_back(f);
  }
  return c;
}

TEST_F(FailoverFixture, ChaosConservationAndEventSanity) {
  prop::Options options;
  options.trials = 6;
  options.seed = 20260808;
  prop::for_all<ChaosCase>(
      "chaos: conservation, per-stream order, counter sanity", gen_chaos_case,
      [&](const ChaosCase& c) {
        ReplicaFaultSchedule sched;
        for (const ReplicaFault& f : c.faults) sched.add(f);

        FakeClock clock;
        ClusterConfig config;
        config.streams = c.streams;
        config.replicas = c.replicas;
        config.gather_window_ns = 5 * kMs;
        config.watchdog = fast_watchdog();
        config.watchdog.batch_deadline_ns = 5 * kMs;
        config.admission_credits = c.admission_credits;
        config.replica_faults = sched.empty() ? nullptr : &sched;
        ServingCluster cluster(*detector_, steering_, config, &clock);
        const auto scripts = stream_scripts(c.streams, c.rounds);
        const RunOutput out = run_staged(cluster, clock, scripts);
        const int64_t submitted = c.streams * c.rounds;
        bool ok = true;

        // Conservation: every submitted frame was served or counted shed.
        ok = ok && static_cast<int64_t>(out.results.size()) + out.stats.shed_frames == submitted;
        ok = ok && out.stats.batched_frames + out.stats.fallback_frames ==
                       static_cast<int64_t>(out.results.size());

        // Per-stream processing order: each stream's served arrival_seqs are
        // strictly increasing (oldest-first through every recovery path).
        std::map<int64_t, int64_t> last_seq;
        std::set<int64_t> seen_seqs;
        for (const ClusterResult& cr : out.results) {
          auto it = last_seq.find(cr.stream_id);
          if (it != last_seq.end() && cr.arrival_seq <= it->second) ok = false;
          last_seq[cr.stream_id] = cr.arrival_seq;
          if (!seen_seqs.insert(cr.arrival_seq).second) ok = false;  // seqs unique
        }

        // Counter sanity: every probe resolves, restores never exceed
        // quarantines, canary failures never exceed checks.
        ok = ok && out.stats.probe_attempts ==
                       out.stats.probe_failures + out.stats.restores;
        ok = ok && out.stats.restores <= out.stats.quarantines;
        ok = ok && out.stats.canary_failures <= out.stats.canary_checks;
        ok = ok && out.stats.shed_frames <= submitted;

        // Event log consistency with the counters.
        int64_t ev_quarantines = 0;
        int64_t ev_sheds = 0;
        for (const ClusterEvent& e : out.events) {
          if (e.kind == ClusterEventKind::kQuarantine) ++ev_quarantines;
          if (e.kind == ClusterEventKind::kShed) ++ev_sheds;
        }
        ok = ok && ev_quarantines == out.stats.quarantines;
        ok = ok && ev_sheds == out.stats.shed_frames;

        cluster.stop();
        if (!ok) ADD_FAILURE() << "case: " << describe_case(c);
        return ok;
      },
      options);
}

TEST_F(FailoverFixture, ChaosRunsAreDeterministicAcrossRepeats) {
  // Two identical runs of a mixed-fault scenario must agree on every result
  // field and every event — the property the v4 trace format relies on.
  const auto run_once = [&] {
    ReplicaFaultSchedule sched;
    sched.add({0, ReplicaFaultKind::kCrash, 0, 20 * kMs, 0, 0, 1});
    sched.add({1, ReplicaFaultKind::kSlow, 10 * kMs, 40 * kMs, 20 * kMs, 0, 1});

    FakeClock clock;
    ClusterConfig config;
    config.streams = 3;
    config.replicas = 2;
    config.gather_window_ns = 5 * kMs;
    config.watchdog = fast_watchdog();
    config.watchdog.batch_deadline_ns = 5 * kMs;
    config.replica_faults = &sched;
    ServingCluster cluster(*detector_, steering_, config, &clock);
    const auto scripts = stream_scripts(3, 5);
    RunOutput out = run_staged(cluster, clock, scripts);
    cluster.stop();
    return out;
  };
  const RunOutput a = run_once();
  const RunOutput b = run_once();
  ASSERT_EQ(a.results.size(), b.results.size());
  for (size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].stream_id, b.results[i].stream_id) << i;
    EXPECT_EQ(a.results[i].arrival_seq, b.results[i].arrival_seq) << i;
    EXPECT_EQ(a.results[i].replica, b.results[i].replica) << i;
    EXPECT_EQ(a.results[i].batch_seq, b.results[i].batch_seq) << i;
    EXPECT_EQ(a.results[i].batch_size, b.results[i].batch_size) << i;
  }
  ASSERT_EQ(a.events.size(), b.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind) << i;
    EXPECT_EQ(a.events[i].at_ns, b.events[i].at_ns) << i;
    EXPECT_EQ(a.events[i].replica, b.events[i].replica) << i;
    EXPECT_EQ(a.events[i].stream, b.events[i].stream) << i;
    EXPECT_EQ(a.events[i].detail, b.events[i].detail) << i;
  }
}

// ---------------------------------------------------------------------------
// Trace format v4: a chaos run records and replays bit-exactly, events and
// cluster health included.

trace::TraceRunSpec chaos_spec() {
  trace::TraceRunSpec spec;
  spec.dataset = "outdoor";
  spec.frames = 4;
  spec.height = kH;
  spec.width = kW;
  spec.cluster.streams = 3;
  spec.cluster.replicas = 2;
  spec.cluster.gather_window_ns = 5 * kMs;
  spec.cluster.arrival_period_ns = 10 * kMs;
  spec.cluster.watchdog.enabled = true;
  spec.cluster.watchdog.batch_deadline_ns = 5 * kMs;
  spec.cluster.watchdog.missed_deadlines_to_quarantine = 2;
  spec.cluster.watchdog.probe_backoff_ns = 8 * kMs;
  spec.cluster.replica_faults.push_back(
      {0, ReplicaFaultKind::kCrash, 0, 20 * kMs, 0, 0, 1});
  spec.cluster.replica_faults.push_back(
      {1, ReplicaFaultKind::kWeightCorrupt, 10 * kMs, 100 * kMs, 0, 64, 5});
  return spec;
}

TEST_F(FailoverFixture, ChaosTraceRecordsAndReplaysBitExact) {
  const trace::TraceRunSpec spec = chaos_spec();
  const trace::Trace recorded = trace::TraceRecorder::record(spec, *detector_, steering_);
  EXPECT_EQ(recorded.frames.size(), 12u);
  // The scenario actually exercised the failure domain.
  EXPECT_GE(recorded.cluster_health.quarantines, 1);
  EXPECT_GE(recorded.cluster_health.failovers, 1);
  EXPECT_FALSE(recorded.events.empty());

  const trace::ReplayReport report =
      trace::TraceReplayer::replay(recorded, *detector_, steering_);
  EXPECT_TRUE(report.ok()) << report.format();
}

TEST_F(FailoverFixture, ChaosTraceSurvivesSerializationAndStillReplays) {
  const trace::Trace recorded =
      trace::TraceRecorder::record(chaos_spec(), *detector_, steering_);
  std::ostringstream os;
  recorded.save(os);
  std::istringstream is(os.str());
  const trace::Trace loaded = trace::Trace::load(is);

  // v4 fields round-trip.
  ASSERT_EQ(loaded.spec.cluster.replica_faults.size(), 2u);
  EXPECT_EQ(loaded.spec.cluster.replica_faults[0].kind, ReplicaFaultKind::kCrash);
  EXPECT_EQ(loaded.spec.cluster.replica_faults[1].weight_bits, 64);
  EXPECT_TRUE(loaded.spec.cluster.watchdog.enabled);
  EXPECT_EQ(loaded.spec.cluster.watchdog.probe_backoff_ns, 8 * kMs);
  ASSERT_EQ(loaded.events.size(), recorded.events.size());
  EXPECT_EQ(loaded.cluster_health.quarantines, recorded.cluster_health.quarantines);
  EXPECT_EQ(loaded.cluster_health.fallback_frames, recorded.cluster_health.fallback_frames);

  const trace::ReplayReport report =
      trace::TraceReplayer::replay(loaded, *detector_, steering_);
  EXPECT_TRUE(report.ok()) << report.format();
}

TEST_F(FailoverFixture, TamperedEventLogIsCaughtByReplay) {
  trace::Trace recorded = trace::TraceRecorder::record(chaos_spec(), *detector_, steering_);
  ASSERT_FALSE(recorded.events.empty());
  recorded.events[0].at_ns += 1;
  const trace::ReplayReport report =
      trace::TraceReplayer::replay(recorded, *detector_, steering_);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.divergence->stage, "events");
}

TEST_F(FailoverFixture, ClusterRejectsWatchdogKnobsTheTraceSpecRejects) {
  // One rule set for both entry points: a cluster and a trace spec refuse
  // the same watchdog knobs.
  const auto expect_rejected = [](const WatchdogConfig& watchdog) {
    ClusterConfig config;
    config.streams = 2;
    config.replicas = 2;
    config.watchdog = watchdog;
    FakeClock clock;
    EXPECT_THROW(ServingCluster(*detector_, steering_, config, &clock), std::invalid_argument);
    trace::TraceRunSpec spec;
    spec.cluster.streams = 2;
    spec.cluster.replicas = 2;
    spec.cluster.watchdog = watchdog;
    EXPECT_THROW(spec.validate(), std::invalid_argument);
  };
  WatchdogConfig shrinking = fast_watchdog();
  shrinking.probe_backoff_ns = 8 * kMs;
  shrinking.max_probe_backoff_ns = 1 * kMs;  // a failed probe would shrink the backoff
  expect_rejected(shrinking);
  WatchdogConfig nan_epsilon = fast_watchdog();
  nan_epsilon.canary_epsilon = std::numeric_limits<double>::quiet_NaN();
  expect_rejected(nan_epsilon);
}

TEST(TraceFailureDomainSpec, ValidateRejectsBadFailureDomainSpecs) {
  trace::TraceRunSpec spec;
  spec.cluster.streams = 2;
  spec.cluster.replicas = 2;
  spec.cluster.replica_faults.push_back({5, ReplicaFaultKind::kCrash, 0, 10, 0, 0, 1});
  EXPECT_THROW(spec.validate(), std::invalid_argument);  // replica out of range

  spec = trace::TraceRunSpec{};
  spec.cluster.replica_faults.push_back({0, ReplicaFaultKind::kCrash, 0, 10, 0, 0, 1});
  EXPECT_THROW(spec.validate(), std::invalid_argument);  // faults need a cluster

  spec = trace::TraceRunSpec{};
  spec.cluster.streams = 1;
  spec.cluster.admission_credits = -1;
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = trace::TraceRunSpec{};
  spec.cluster.streams = 1;
  spec.cluster.watchdog.enabled = true;
  spec.cluster.watchdog.batch_deadline_ns = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = trace::TraceRunSpec{};
  spec.cluster.streams = 2;
  spec.cluster.replicas = 2;
  spec.cluster.watchdog.enabled = true;
  spec.cluster.admission_credits = 4;
  spec.cluster.replica_faults.push_back({1, ReplicaFaultKind::kHang, 0, 10 * kMs, 0, 0, 1});
  EXPECT_NO_THROW(spec.validate());
}

}  // namespace
}  // namespace salnov::serving
