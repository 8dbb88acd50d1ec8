// Fault-robustness matrix (extends the Fig. 7 noise experiment).
//
// The paper perturbs test frames with Gaussian noise and reports detection
// rate vs noise level. This bench generalizes that protocol to a matrix of
// realistic sensor faults (see faults/fault_injector.hpp) x severity, and
// asks: does the *guarded* pipeline — FrameValidator screening + frozen-frame
// detection + the novelty threshold — flag the faulty stream? A frame counts
// as detected when any guard fires:
//   * the validator rejects it (NaN, out-of-range, dead-constant),
//   * it repeats the previous frame bit-identically (frozen camera),
//   * the detector scores it past the calibrated novelty threshold,
//   * the score itself is non-finite.
// A clean pass over the same images reports the false-positive floor (~1% by
// construction of the 99th-percentile rule). A second table corrupts the
// *model* instead of the camera: random bit-flips in the autoencoder weights,
// where self-detection shows up as the clean stream turning "novel".
//
// Each camera-fault cell also reports recovery latency: the monitor is fed a
// clean warm-up, a burst of faulty frames, then clean frames again, and the
// column counts frames from fault-clear until the NoveltyMonitor releases
// back to kNominal (0 when the fault never engaged it).
//
// A third table covers slow distribution drift rather than abrupt faults:
// the exposure of an otherwise healthy camera ramps up and then holds, and
// the same nominal stream is served once with the frozen paper thresholds
// and once with online shadow calibration (drift-triggered hot-swap). The
// `thresholds` CSV column separates the two regimes; the frozen rows show
// the false-alarm blow-up the calibrator exists to prevent. This scenario
// is self-contained (reduced-resolution raw+MSE pipeline, no shared env)
// so `--drift-only` stays cheap enough for CI.
//
// A fourth table moves the fault from the sensor and the weights to the
// *serving replica*: each row injects one replica-fault kind (crash, hang,
// slow, weight-corruption) into a small live ServingCluster under the fake
// clock and reports how the watchdog failure domain absorbs it — quarantines,
// probes, restores, and the `failover_latency_frames` column: how many frames
// arrived cluster-wide between fault onset and the quarantine that migrated
// the victim's streams (the window in which frames could queue behind a dead
// replica before redispatch).
//
// Artifacts: bench_artifacts/fault_matrix.csv (one row per cell; the final
// failover_latency_frames column is 0 for non-replica rows).
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/monitor.hpp"
#include "faults/fault_injector.hpp"
#include "faults/replica_faults.hpp"
#include "image/transforms.hpp"
#include "roadsim/outdoor_generator.hpp"
#include "serving/clock.hpp"
#include "serving/cluster.hpp"
#include "serving/supervisor.hpp"

namespace salnov::bench {
namespace {

constexpr uint64_t kDetectorSeed = 5;
constexpr uint64_t kInjectorSeed = 7;

struct CellResult {
  double detection_rate = 0.0;   ///< any guard fired
  double validator_rate = 0.0;   ///< validator or frozen-frame screening
  double novelty_rate = 0.0;     ///< scored past the threshold (or non-finite)
};

/// Streams `images` through the guarded pipeline after per-frame injection
/// of (fault, severity). `severity < 0` means "no injection" (clean floor).
/// `variant` selects the scoring rung (float kPrimary or int8 kPrimaryQ8),
/// each judged against its own fitted threshold; the validator/frozen
/// screening ahead of scoring is precision-independent.
CellResult run_cell(const core::NoveltyDetector& detector, const std::vector<Image>& images,
                    faults::CameraFault fault, double severity,
                    core::DetectorVariant variant = core::DetectorVariant::kPrimary) {
  faults::FaultInjector injector(kInjectorSeed);
  const int64_t n = static_cast<int64_t>(images.size());

  // Screening pass (cheap, serial): validator verdict + frozen-frame check,
  // mirroring NoveltyMonitor::update's order.
  std::vector<Image> injected(images.size());
  std::vector<bool> screened(images.size(), false);
  std::vector<Image> scoreable;
  std::vector<size_t> scoreable_at;
  const Tensor* last_valid = nullptr;
  for (size_t i = 0; i < images.size(); ++i) {
    injected[i] = severity < 0.0 ? images[i] : injector.apply(fault, severity, images[i]);
    const core::FrameFault verdict = detector.frame_validator().check(injected[i]);
    const bool frozen =
        verdict == core::FrameFault::kNone && last_valid != nullptr && *last_valid == injected[i].tensor();
    last_valid = verdict == core::FrameFault::kNone ? &injected[i].tensor() : nullptr;
    if (verdict != core::FrameFault::kNone || frozen) {
      screened[i] = true;
    } else {
      scoreable.push_back(injected[i]);
      scoreable_at.push_back(i);
    }
  }

  // Scoring pass for the frames that survived screening (fans out across the
  // worker pool).
  std::vector<const Image*> scoreable_ptrs;
  scoreable_ptrs.reserve(scoreable.size());
  for (const Image& image : scoreable) scoreable_ptrs.push_back(&image);
  const std::vector<double> scores = detector.score_batch(variant, scoreable_ptrs);
  const core::NoveltyThreshold& threshold = detector.variant_calibration(variant).threshold;

  CellResult cell;
  int64_t detected = 0, by_validator = 0, by_novelty = 0;
  for (size_t i = 0; i < images.size(); ++i) {
    if (screened[i]) {
      ++by_validator;
      ++detected;
    }
  }
  for (double s : scores) {
    if (!std::isfinite(s) || threshold.is_novel(s)) {
      ++by_novelty;
      ++detected;
    }
  }
  cell.detection_rate = static_cast<double>(detected) / static_cast<double>(n);
  cell.validator_rate = static_cast<double>(by_validator) / static_cast<double>(n);
  cell.novelty_rate = static_cast<double>(by_novelty) / static_cast<double>(n);
  return cell;
}

/// Frames from fault-clear until the NoveltyMonitor releases to kNominal.
/// Clean warm-up, then a burst of injected frames, then clean frames counted
/// until release (capped). 0 when the fault burst never engaged the monitor.
int64_t recovery_latency(const core::NoveltyDetector& detector, const std::vector<Image>& images,
                         faults::CameraFault fault, double severity) {
  constexpr int64_t kWarmup = 6;
  constexpr int64_t kFaultFrames = 8;
  constexpr int64_t kRecoveryCap = 40;

  faults::FaultInjector injector(kInjectorSeed);
  core::NoveltyMonitor monitor(detector);
  size_t at = 0;
  const auto next_clean = [&]() -> const Image& { return images[at++ % images.size()]; };

  for (int64_t i = 0; i < kWarmup; ++i) monitor.update(next_clean());
  bool engaged = false;
  for (int64_t i = 0; i < kFaultFrames; ++i) {
    monitor.update(injector.apply(fault, severity, next_clean()));
    engaged = engaged || monitor.state() == core::MonitorState::kFallback ||
              monitor.state() == core::MonitorState::kSensorFault;
  }
  if (!engaged && monitor.state() == core::MonitorState::kNominal) return 0;
  for (int64_t i = 1; i <= kRecoveryCap; ++i) {
    monitor.update(next_clean());
    if (monitor.state() == core::MonitorState::kNominal) return i;
  }
  return kRecoveryCap;
}

// --- Drift scenario --------------------------------------------------------

constexpr int64_t kDriftHeight = 16;
constexpr int64_t kDriftWidth = 24;
constexpr int64_t kDriftCleanFrames = 200;
constexpr int64_t kDriftRampFrames = 200;
constexpr int64_t kDriftHoldFrames = 200;
constexpr int64_t kDriftTailFrames = 150;  ///< measured window at the end of the hold
constexpr double kDriftPeakSeverity = 0.45;

struct DriftOutcome {
  double tail_flag_rate = 0.0;  ///< novel-flag rate over the final hold window
  int64_t swaps = 0;
  int64_t drift_detections = 0;
  int64_t final_epoch = 0;
};

/// A small raw+MSE detector fitted on nominal outdoor frames; the drift
/// scenario exercises the calibration control loop, not image fidelity, so
/// reduced resolution keeps `--drift-only` runs in CI territory.
core::NoveltyDetector fit_drift_detector() {
  core::NoveltyDetectorConfig config;
  config.height = kDriftHeight;
  config.width = kDriftWidth;
  config.preprocessing = core::Preprocessing::kRaw;
  config.score = core::ReconstructionScore::kMse;
  config.autoencoder = core::AutoencoderConfig::tiny(kDriftHeight, kDriftWidth);
  config.train_epochs = 12;
  core::NoveltyDetector detector(config);

  roadsim::OutdoorSceneGenerator generator;
  Rng frame_rng(kDetectorSeed + 1);
  std::vector<Image> train;
  for (int i = 0; i < 32; ++i) {
    const roadsim::Sample sample = generator.generate(frame_rng);
    train.push_back(resize_bilinear(sample.rgb.to_grayscale(), kDriftHeight, kDriftWidth));
  }
  Rng fit_rng(kDetectorSeed);
  detector.fit(train, fit_rng);
  return detector;
}

/// Streams clean frames, then an exposure ramp that holds at its peak,
/// through a Supervisor. Identical frame/injector seeds per call, so the
/// frozen and hot-swapped runs see the same pixels.
DriftOutcome run_drift(const core::NoveltyDetector& detector, bool online_calibration) {
  serving::SupervisorConfig config;
  // Quiet the monitor so the measured rate isolates the threshold verdicts.
  config.monitor.trigger_frames = 1'000'000;
  if (online_calibration) {
    config.calibration.enabled = true;
    config.calibration.warmup = 64;
    config.calibration.min_samples = 128;
    config.calibration.check_every_frames = 32;
    config.calibration.trigger_checks = 3;
    config.calibration.release_checks = 4;
  }
  serving::FakeClock clock;
  serving::Supervisor supervisor(detector, nullptr, config, &clock);
  faults::FaultInjector injector(kInjectorSeed);
  roadsim::OutdoorSceneGenerator generator;
  Rng frame_rng(kInjectorSeed + 11);

  const int64_t total = kDriftCleanFrames + kDriftRampFrames + kDriftHoldFrames;
  int64_t tail_scored = 0, tail_novel = 0;
  for (int64_t i = 0; i < total; ++i) {
    const roadsim::Sample sample = generator.generate(frame_rng);
    Image frame = resize_bilinear(sample.rgb.to_grayscale(), kDriftHeight, kDriftWidth);
    if (i >= kDriftCleanFrames) {
      const double progress =
          std::min(1.0, static_cast<double>(i - kDriftCleanFrames + 1) / kDriftRampFrames);
      frame = injector.apply(faults::CameraFault::kOverExposure, kDriftPeakSeverity * progress,
                             frame);
    }
    const serving::ServeResult result = supervisor.process(frame);
    if (i >= total - kDriftTailFrames && result.scored) {
      ++tail_scored;
      if (result.novel) ++tail_novel;
    }
  }

  const serving::HealthSnapshot health = supervisor.health();
  DriftOutcome outcome;
  outcome.tail_flag_rate =
      tail_scored == 0 ? 1.0 : static_cast<double>(tail_novel) / static_cast<double>(tail_scored);
  outcome.swaps = health.threshold_swaps;
  outcome.drift_detections = health.drift_detections;
  outcome.final_epoch = health.threshold_epoch;
  return outcome;
}

void run_drift_scenario(std::ofstream& csv) {
  std::printf(
      "\nExposure drift (gain ramps over %" PRId64 " frames to severity %.2f, then holds;\n"
      "flag rate measured over the final %" PRId64 " held frames of a *nominal* scene):\n",
      kDriftRampFrames, kDriftPeakSeverity, kDriftTailFrames);

  const core::NoveltyDetector detector = fit_drift_detector();
  const DriftOutcome frozen = run_drift(detector, /*online_calibration=*/false);
  const DriftOutcome adaptive = run_drift(detector, /*online_calibration=*/true);

  std::printf("%-12s %-16s %-8s %-18s %s\n", "thresholds", "tail flag rate", "swaps",
              "drift detections", "final epoch");
  std::printf("%-12s %6.1f%%          %-8" PRId64 " %-18" PRId64 " %" PRId64 "\n", "frozen",
              100.0 * frozen.tail_flag_rate, frozen.swaps, frozen.drift_detections,
              frozen.final_epoch);
  std::printf("%-12s %6.1f%%          %-8" PRId64 " %-18" PRId64 " %" PRId64 "\n", "hot-swap",
              100.0 * adaptive.tail_flag_rate, adaptive.swaps, adaptive.drift_detections,
              adaptive.final_epoch);

  csv << "exposure-drift," << kDriftPeakSeverity << "," << frozen.tail_flag_rate << ",0,"
      << frozen.tail_flag_rate << ",0,frozen,0,float\n";
  csv << "exposure-drift," << kDriftPeakSeverity << "," << adaptive.tail_flag_rate << ",0,"
      << adaptive.tail_flag_rate << ",0,hot-swap,0,float\n";
}

// --- Precision smoke (CI-sized) --------------------------------------------

/// Float-vs-q8 detection rates on a reduced pipeline (the drift detector's
/// 16x24 raw+MSE config), so the CI `--drift-only` run still produces
/// precision rows in the CSV artifact without the paper-scale refit. Applies
/// the same mean-degradation gate as the full matrix; returns false on FAIL.
bool run_precision_smoke(std::ofstream& csv) {
  constexpr double kMaxQ8DegradationPp = 2.0;
  const core::NoveltyDetector detector = fit_drift_detector();
  if (!detector.has_quant_calibrations()) {
    std::printf("\n(precision smoke skipped: no quant calibrations)\n");
    return true;
  }

  roadsim::OutdoorSceneGenerator generator;
  Rng frame_rng(kDetectorSeed + 3);
  std::vector<Image> images;
  for (int i = 0; i < 200; ++i) {
    const roadsim::Sample sample = generator.generate(frame_rng);
    images.push_back(resize_bilinear(sample.rgb.to_grayscale(), kDriftHeight, kDriftWidth));
  }

  std::printf("\nPrecision smoke (16x24 raw+MSE pipeline, float vs int8 rung):\n");
  std::printf("%-16s %-10s %-10s %-10s %s\n", "fault", "severity", "float", "q8", "delta");
  const std::vector<faults::CameraFault> smoke_faults = {faults::CameraFault::kSaltPepper,
                                                         faults::CameraFault::kOverExposure};
  double total_degradation_pp = 0.0;
  int64_t cells = 0;
  for (faults::CameraFault fault : smoke_faults) {
    for (double severity : {0.25, 1.0}) {
      const CellResult f_cell = run_cell(detector, images, fault, severity);
      const CellResult q_cell =
          run_cell(detector, images, fault, severity, core::DetectorVariant::kPrimaryQ8);
      const double degradation_pp = 100.0 * (f_cell.detection_rate - q_cell.detection_rate);
      total_degradation_pp += degradation_pp;
      ++cells;
      std::printf("%-16s %-10.2f %8.1f%%  %8.1f%%  %+5.1fpp\n",
                  faults::camera_fault_name(fault), severity, 100.0 * f_cell.detection_rate,
                  100.0 * q_cell.detection_rate, -degradation_pp);
      csv << faults::camera_fault_name(fault) << "," << severity << "," << f_cell.detection_rate
          << "," << f_cell.validator_rate << "," << f_cell.novelty_rate << ",0,frozen,0,float\n";
      csv << faults::camera_fault_name(fault) << "," << severity << "," << q_cell.detection_rate
          << "," << q_cell.validator_rate << "," << q_cell.novelty_rate << ",0,frozen,0,q8\n";
    }
  }
  const double mean_pp = total_degradation_pp / static_cast<double>(cells);
  const bool gate_ok = mean_pp <= kMaxQ8DegradationPp;
  std::printf("Precision smoke gate: mean q8 degradation %.2fpp — limit %.1fpp: %s\n", mean_pp,
              kMaxQ8DegradationPp, gate_ok ? "PASS" : "FAIL");
  return gate_ok;
}

// --- Replica failure domain ------------------------------------------------

constexpr int64_t kRfStreams = 4;
constexpr int64_t kRfReplicas = 2;
constexpr int64_t kRfRounds = 64;
constexpr int64_t kRfPeriodNs = 1'000'000;  ///< one submit round per fake millisecond
constexpr int64_t kRfFaultStartNs = 16 * kRfPeriodNs;
constexpr int64_t kRfFaultEndNs = 32 * kRfPeriodNs;

struct ReplicaOutcome {
  int64_t submitted = 0;
  serving::ClusterStats stats;
  int64_t failover_latency_frames = -1;  ///< frames arrived fault-onset -> quarantine
  int64_t restore_latency_frames = -1;   ///< frames arrived fault-clear -> restore
};

/// Drives a live 4-stream / 2-replica cluster under the fake clock with one
/// scheduled fault on replica 0, one frame per stream per fake millisecond.
/// The driver paces itself with the serving soak's bounded-staleness guard;
/// while it withholds submits it keeps fake time flowing and ticks the
/// cluster, so quarantine/probe decisions are not starved of watchdog passes.
ReplicaOutcome run_replica_cell(const core::NoveltyDetector& detector,
                                nn::Sequential* steering, const std::vector<Image>& images,
                                const faults::ReplicaFault& fault) {
  faults::ReplicaFaultSchedule schedule;
  schedule.add(fault);

  serving::ClusterConfig config;
  config.streams = kRfStreams;
  config.replicas = kRfReplicas;
  config.max_batch = 8;
  config.gather_window_ns = 2 * kRfPeriodNs;
  config.supervisor.stage_budget_ns.fill(0);
  config.supervisor.frame_budget_ns = 0;
  config.keep_results = false;
  config.watchdog.enabled = true;
  config.watchdog.batch_deadline_ns = 2 * kRfPeriodNs;
  config.watchdog.missed_deadlines_to_quarantine = 2;
  config.watchdog.probe_backoff_ns = 4 * kRfPeriodNs;
  config.watchdog.max_probe_backoff_ns = 32 * kRfPeriodNs;
  // Periodic canaries are the only live detector for weight corruption (a
  // corrupted replica still seals and serves on time).
  config.watchdog.canary_period_ns = 4 * kRfPeriodNs;
  config.watchdog.canary_failures_to_quarantine = 1;
  config.replica_faults = &schedule;

  serving::FakeClock clock;
  serving::ServingCluster cluster(detector, steering, config, &clock);
  ReplicaOutcome out;
  const auto caught_up = [&](int64_t due_per_stream) {
    for (int64_t s = 0; s < kRfStreams; ++s) {
      if (cluster.stream_health(s).frames_total + cluster.shed_for_stream(s) < due_per_stream) {
        return false;
      }
    }
    return true;
  };
  for (int64_t round = 0; round < kRfRounds; ++round) {
    clock.advance_ns(kRfPeriodNs);
    for (int64_t s = 0; s < kRfStreams; ++s) {
      cluster.submit(s, images[static_cast<size_t>((s * 17 + round) % images.size())]);
      ++out.submitted;
    }
    if (round < 8) continue;
    const auto wait_start = std::chrono::steady_clock::now();
    int64_t extra_ms = 0;
    const auto waited_ms = [&]() {
      return std::chrono::duration_cast<std::chrono::milliseconds>(
                 std::chrono::steady_clock::now() - wait_start)
          .count();
    };
    // One frame per stream per round: frames through round-8 must be done.
    while (!caught_up(round - 7) && waited_ms() < 5000) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      if (extra_ms < 8 && waited_ms() > 2 * (extra_ms + 1)) {
        clock.advance_ns(kRfPeriodNs);
        cluster.tick();
        ++extra_ms;
      }
    }
  }
  cluster.drain();
  out.stats = cluster.stats();
  for (const serving::ClusterEvent& event : cluster.take_events()) {
    if (event.kind == serving::ClusterEventKind::kQuarantine &&
        out.failover_latency_frames < 0 && event.at_ns >= fault.start_ns) {
      out.failover_latency_frames = (event.at_ns - fault.start_ns) / kRfPeriodNs * kRfStreams;
    }
    if (event.kind == serving::ClusterEventKind::kRestore && out.restore_latency_frames < 0 &&
        event.at_ns >= fault.end_ns) {
      out.restore_latency_frames = (event.at_ns - fault.end_ns) / kRfPeriodNs * kRfStreams;
    }
  }
  cluster.stop();
  return out;
}

void run_replica_scenario(const core::NoveltyDetector& detector, nn::Sequential* steering,
                          const std::vector<Image>& images, std::ofstream& csv) {
  std::printf(
      "\nReplica failure domain (one fault on replica 0 of a %" PRId64 "-stream / %" PRId64
      "-replica\nlive cluster, fake-clock rounds; latency columns count frames arrived\n"
      "cluster-wide from fault onset to quarantine and from fault clear to restore):\n",
      kRfStreams, kRfReplicas);
  std::printf("%-14s %-8s %-10s %-9s %-10s %-13s %-11s %s\n", "fault", "served", "quarant.",
              "restores", "failovers", "redispatched", "failover_f", "restore_f");

  struct Row {
    const char* name;
    faults::ReplicaFault fault;
  };
  const std::vector<Row> rows = {
      {"crash", {0, faults::ReplicaFaultKind::kCrash, kRfFaultStartNs, kRfFaultEndNs}},
      {"hang", {0, faults::ReplicaFaultKind::kHang, kRfFaultStartNs, kRfFaultEndNs}},
      {"slow",
       {0, faults::ReplicaFaultKind::kSlow, kRfFaultStartNs, kRfFaultEndNs,
        /*slow_penalty_ns=*/10 * kRfPeriodNs}},
      {"bit-flip",
       {0, faults::ReplicaFaultKind::kWeightCorrupt, kRfFaultStartNs, kRfFaultEndNs,
        /*slow_penalty_ns=*/0, /*weight_bits=*/64, /*seed=*/kInjectorSeed}},
  };
  for (const Row& row : rows) {
    const ReplicaOutcome out = run_replica_cell(detector, steering, images, row.fault);
    const int64_t served = out.stats.batched_frames + out.stats.fallback_frames;
    std::printf("replica-%-6s %4" PRId64 "/%-4" PRId64 " %-10" PRId64 " %-9" PRId64 " %-10" PRId64
                " %-13" PRId64 " %-11" PRId64 " %" PRId64 "\n",
                row.name, served, out.submitted, out.stats.quarantines, out.stats.restores,
                out.stats.failovers, out.stats.redispatched_frames, out.failover_latency_frames,
                out.restore_latency_frames);
    // detection_rate doubles as the served share; recovery latency column
    // carries the restore latency so the CSV schema stays uniform.
    csv << "replica-" << row.name << ",1,"
        << (static_cast<double>(served) / static_cast<double>(out.submitted)) << ",0,0,"
        << out.restore_latency_frames << ",frozen," << out.failover_latency_frames << ",float\n";
  }
}

}  // namespace

int run(bool drift_only) {
  print_header("Fault matrix (extends Fig. 7)",
               "Detection rate of the guarded VBP+SSIM pipeline per sensor-fault type x severity,\n"
               "plus a weight-corruption (bit-flip) sweep on the autoencoder and a slow exposure\n"
               "drift served with frozen vs hot-swapped thresholds.");

  if (drift_only) {
    std::ofstream csv(artifact_dir() + "/fault_matrix.csv");
    csv << "fault,severity,detection_rate,validator_rate,novelty_rate,recovery_latency_frames,"
           "thresholds,failover_latency_frames,precision\n";
    run_drift_scenario(csv);
    const bool precision_ok = run_precision_smoke(csv);
    std::printf("\nWrote %s/fault_matrix.csv (drift + precision-smoke rows)\n",
                artifact_dir().c_str());
    return precision_ok ? 0 : 1;
  }

  Env& env = environment();
  DetectorHandle handle = fit_or_load_detector(
      env, bench_detector_config(core::Preprocessing::kVbp, core::ReconstructionScore::kSsim),
      kDetectorSeed);
  const core::NoveltyDetector& detector = *handle.detector;
  const std::vector<Image>& images = env.outdoor_test.images();

  const std::vector<double> severities = {0.1, 0.25, 0.5, 1.0};
  const CellResult clean =
      run_cell(detector, images, faults::CameraFault::kFrozenFrame, /*severity=*/-1.0);
  std::printf("\nClean stream (no fault): %.1f%% flagged (false-positive floor; 99th-pct rule)\n",
              100.0 * clean.detection_rate);

  std::ofstream csv(artifact_dir() + "/fault_matrix.csv");
  csv << "fault,severity,detection_rate,validator_rate,novelty_rate,recovery_latency_frames,"
         "thresholds,failover_latency_frames,precision\n";
  csv << "none,0," << clean.detection_rate << "," << clean.validator_rate << ","
      << clean.novelty_rate << ",0,frozen,0,float\n";

  // Precision comparison: every camera-fault cell is scored twice, once by
  // the float rung and once by the int8 rung (each against its own fitted
  // threshold). The gate fails the bench if quantization costs more than
  // kMaxQ8DegradationPp detection averaged over the matrix. The mean, not
  // the worst cell, is the gated statistic: a single 200-frame cell has a
  // sampling standard error of ~2pp near p=0.9, so any individual cell can
  // legitimately wobble past 2pp while the matrix-wide cost stays near zero
  // (the worst cell is still reported for eyeballing).
  constexpr double kMaxQ8DegradationPp = 2.0;
  const bool quant = detector.has_quant_calibrations();
  if (!quant) {
    std::printf("\n(pipeline has no quant calibrations; q8 precision rows skipped)\n");
  }
  double worst_q8_degradation_pp = 0.0;
  double total_q8_degradation_pp = 0.0;
  int64_t q8_cells = 0;
  const char* worst_q8_cell = "none";

  std::printf(
      "\nDetection rate per cell (v = screened by validator/frozen guard share,\n"
      "r = frames from fault-clear to monitor release; q8 rows score the same\n"
      "frames through the int8 rung against its own threshold):\n");
  std::printf("%-22s", "fault \\ sev");
  for (double s : severities) std::printf("      %10.2f", s);
  std::printf("\n");
  for (faults::CameraFault fault : faults::all_camera_faults()) {
    std::printf("%-22s", faults::camera_fault_name(fault));
    std::vector<CellResult> float_cells;
    for (double severity : severities) {
      const CellResult cell = run_cell(detector, images, fault, severity);
      float_cells.push_back(cell);
      const int64_t recovery = recovery_latency(detector, images, fault, severity);
      std::printf("  %5.1f%% v%3.0f%% r%-2" PRId64, 100.0 * cell.detection_rate,
                  100.0 * cell.validator_rate, recovery);
      csv << faults::camera_fault_name(fault) << "," << severity << "," << cell.detection_rate
          << "," << cell.validator_rate << "," << cell.novelty_rate << "," << recovery
          << ",frozen,0,float\n";
    }
    std::printf("\n");
    if (!quant) continue;
    std::printf("%-19s q8", faults::camera_fault_name(fault));
    for (size_t i = 0; i < severities.size(); ++i) {
      const CellResult cell = run_cell(detector, images, fault, severities[i],
                                       core::DetectorVariant::kPrimaryQ8);
      const double degradation_pp =
          100.0 * (float_cells[i].detection_rate - cell.detection_rate);
      if (degradation_pp > worst_q8_degradation_pp) {
        worst_q8_degradation_pp = degradation_pp;
        worst_q8_cell = faults::camera_fault_name(fault);
      }
      total_q8_degradation_pp += degradation_pp;
      ++q8_cells;
      std::printf("  %5.1f%% %+5.1fpp    ", 100.0 * cell.detection_rate, -degradation_pp);
      csv << faults::camera_fault_name(fault) << "," << severities[i] << ","
          << cell.detection_rate << "," << cell.validator_rate << "," << cell.novelty_rate
          << ",0,frozen,0,q8\n";
    }
    std::printf("\n");
  }
  if (quant) {
    const double mean_q8_degradation_pp =
        q8_cells > 0 ? total_q8_degradation_pp / static_cast<double>(q8_cells) : 0.0;
    const bool gate_ok = mean_q8_degradation_pp <= kMaxQ8DegradationPp;
    std::printf(
        "\nPrecision gate: mean q8 detection-rate degradation %.2fpp over %" PRId64
        " cells (worst %.2fpp at %s) — limit %.1fpp mean: %s\n",
        mean_q8_degradation_pp, q8_cells, worst_q8_degradation_pp, worst_q8_cell,
        kMaxQ8DegradationPp, gate_ok ? "PASS" : "FAIL");
    if (!gate_ok) return 1;
  }

  std::printf("\nWeight corruption (random bit-flips in the autoencoder, clean input stream):\n");
  std::printf("%-12s %-18s %s\n", "bit flips", "flagged novel", "non-finite scores");
  for (int64_t flips : {int64_t{1}, int64_t{16}, int64_t{256}, int64_t{4096}}) {
    // Reload the cached pipeline so every row corrupts pristine weights.
    DetectorHandle corrupted = fit_or_load_detector(
        env, bench_detector_config(core::Preprocessing::kVbp, core::ReconstructionScore::kSsim),
        kDetectorSeed);
    Rng rng(kInjectorSeed + static_cast<uint64_t>(flips));
    faults::flip_weight_bits(corrupted.detector->autoencoder(), flips, rng);
    const std::vector<double> scores = corrupted.detector->scores(images);
    const core::NoveltyThreshold& threshold = corrupted.detector->threshold();
    int64_t novel = 0, non_finite = 0;
    for (double s : scores) {
      if (!std::isfinite(s)) {
        ++non_finite;
        ++novel;
      } else if (threshold.is_novel(s)) {
        ++novel;
      }
    }
    const double rate = static_cast<double>(novel) / static_cast<double>(scores.size());
    std::printf("%-12" PRId64 " %6.1f%%            %" PRId64 "\n", flips, 100.0 * rate, non_finite);
    csv << "weight-bit-flip," << flips << "," << rate << ",0," << rate << ",0,frozen,0,float\n";
  }

  run_replica_scenario(detector, handle.steering ? handle.steering.get() : &env.steering, images, csv);
  run_drift_scenario(csv);

  std::printf("\nWrote %s/fault_matrix.csv\n", artifact_dir().c_str());
  return 0;
}

}  // namespace salnov::bench

int main(int argc, char** argv) {
  const bool drift_only = argc > 1 && std::strcmp(argv[1], "--drift-only") == 0;
  return salnov::bench::run(drift_only);
}
