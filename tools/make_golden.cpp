// make_golden — records the golden conformance traces under tests/golden/.
//
// Fits a small deterministic pipeline (scalar GEMM kernel, fixed seeds, tiny
// 16x24 autoencoder so the checked-in file stays small), records the five
// canonical scenarios — nominal, stall-ladder (breaker trip + probe
// recovery), sensor-fault (frozen camera, then salt-and-pepper novelty
// re-entry), multi-stream (three micro-batched streams on two replicas with
// a frozen-camera burst), replica-failover (format v4: a crashed replica
// quarantined and restored via half-open probe, a slow replica with a failed
// probe, and a weight-corruption window that withholds speculated compute) —
// and self-verifies every trace before writing it:
//
//   * replays bit-exactly at 1 and 4 worker threads under the scalar kernel;
//   * replays within the cross-kernel tolerance under SIMD when available;
//   * every scored frame's |score - threshold| margin is wide enough that a
//     differently-rounding GEMM kernel cannot flip a verdict.
//
// Usage: make_golden --out tests/golden [--only SCENARIO]
// Re-run it (and commit the result) whenever an intentional pipeline change
// invalidates the goldens; CI replays them on every push. --only records a
// single scenario, leaving the other checked-in traces untouched (the trace
// loader accepts only the current format version, so those must already be
// current).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "salnov.hpp"
#include "tensor/gemm.hpp"

namespace {

using namespace salnov;

constexpr int64_t kH = 16;
constexpr int64_t kW = 24;
constexpr int64_t kMs = 1'000'000;  // ns

/// Minimum relative margin between a scored frame's score and its variant
/// threshold. Cross-kernel rounding moves scores by ~1e-7 relative; 1e-5
/// leaves two orders of magnitude of slack.
constexpr double kMinDecisionMargin = 1e-5;

trace::TraceRunSpec base_spec(int64_t frames) {
  trace::TraceRunSpec spec;
  spec.dataset = "outdoor";
  spec.frame_seed = 2024;
  spec.fault_seed = 7;
  spec.frames = frames;
  spec.height = kH;
  spec.width = kW;
  spec.supervisor.stage_budget_ns = {kMs, kMs, kMs, kMs, kMs};
  spec.supervisor.frame_budget_ns = 1000 * kMs;
  spec.supervisor.breaker.failure_threshold = 2;
  spec.supervisor.breaker.open_frames = 4;
  spec.supervisor.demote_after_bad_frames = 1;
  spec.supervisor.promote_after_healthy_frames = 2;
  spec.supervisor.monitor.trigger_frames = 2;
  spec.supervisor.monitor.release_frames = 2;
  spec.supervisor.monitor.sensor_trigger_frames = 2;
  spec.supervisor.monitor.sensor_release_frames = 2;
  return spec;
}

struct Scenario {
  std::string name;
  trace::TraceRunSpec spec;
};

std::vector<Scenario> scenarios() {
  std::vector<Scenario> all;

  all.push_back({"nominal", base_spec(16)});

  Scenario stall{"stall_ladder", base_spec(24)};
  stall.spec.stalls.push_back({/*stage=*/2, /*stall_ns=*/10 * kMs, /*first_frame=*/3,
                               /*last_frame=*/8, /*period=*/1});
  all.push_back(stall);

  Scenario sensor{"sensor_fault", base_spec(24)};
  sensor.spec.camera_faults.push_back({faults::CameraFault::kFrozenFrame, /*severity=*/1.0,
                                       /*first=*/4, /*last=*/8, /*period=*/1});
  sensor.spec.camera_faults.push_back({faults::CameraFault::kSaltPepper, /*severity=*/1.0,
                                       /*first=*/14, /*last=*/17, /*period=*/1});
  all.push_back(sensor);

  // Three streams micro-batched on two replicas; 10 frames per stream. A
  // frozen-camera burst hits each stream's own fault schedule, so the trace
  // pins per-stream monitor divergence on top of the batch routing. No
  // stalls: concurrent replicas share the FakeClock (see
  // TraceRunSpec::validate).
  Scenario multi{"multi_stream", base_spec(10)};
  multi.spec.cluster.streams = 3;
  multi.spec.cluster.replicas = 2;
  multi.spec.cluster.gather_window_ns = 2 * kMs;
  multi.spec.cluster.max_batch = 8;
  multi.spec.cluster.arrival_period_ns = kMs;
  multi.spec.camera_faults.push_back({faults::CameraFault::kFrozenFrame, /*severity=*/1.0,
                                      /*first=*/4, /*last=*/6, /*period=*/1});
  all.push_back(multi);

  // Format v4: the replica failure domain under a deterministic fault
  // schedule. Three streams on two replicas, arrivals every 10 ms so the
  // watchdog timeline lands on the round grid:
  //   * replica 0 crashes over [0 ms, 20 ms): two missed 5 ms batch
  //     deadlines quarantine it at t=10 ms, its streams fail over to
  //     replica 1, and the half-open probe at t=20 ms restores it;
  //   * replica 1 runs 20 ms slow over [40 ms, 65 ms): quarantined at
  //     t=50 ms, the t=60 ms probe still sees the latency fault and FAILS
  //     (backoff doubles), and the t=80 ms probe restores it;
  //   * replica 0's weights are bit-flipped from t=30 ms onward (past the
  //     drain at t=100 ms, where the staged run's batches seal): every
  //     batch replica 0 seals has its speculated ProvidedCompute withheld
  //     and is re-scored from the pristine shared weights, so scores stay
  //     bit-identical while batching efficiency (provided_* counters)
  //     visibly drops. Replica 0's half-open probe at t=20 ms predates the
  //     corruption, so the canary passes and the crash recovery above is
  //     unaffected.
  // No admission credits: the golden must stay shed-free so the replay
  // compares exactly frames-per-stream x streams frames.
  Scenario failover{"replica_failover", base_spec(10)};
  failover.spec.cluster.streams = 3;
  failover.spec.cluster.replicas = 2;
  failover.spec.cluster.gather_window_ns = 5 * kMs;
  failover.spec.cluster.max_batch = 8;
  failover.spec.cluster.arrival_period_ns = 10 * kMs;
  failover.spec.cluster.watchdog.enabled = true;
  failover.spec.cluster.watchdog.batch_deadline_ns = 5 * kMs;
  failover.spec.cluster.watchdog.missed_deadlines_to_quarantine = 2;
  failover.spec.cluster.watchdog.probe_backoff_ns = 8 * kMs;
  failover.spec.cluster.watchdog.max_probe_backoff_ns = 64 * kMs;
  failover.spec.cluster.replica_faults.push_back(
      {/*replica=*/0, faults::ReplicaFaultKind::kCrash, /*start_ns=*/0,
       /*end_ns=*/20 * kMs});
  failover.spec.cluster.replica_faults.push_back(
      {/*replica=*/1, faults::ReplicaFaultKind::kSlow, /*start_ns=*/40 * kMs,
       /*end_ns=*/65 * kMs, /*slow_penalty_ns=*/20 * kMs});
  failover.spec.cluster.replica_faults.push_back(
      {/*replica=*/0, faults::ReplicaFaultKind::kWeightCorrupt, /*start_ns=*/30 * kMs,
       /*end_ns=*/200 * kMs, /*slow_penalty_ns=*/0, /*weight_bits=*/64, /*seed=*/5});
  all.push_back(failover);

  // Format v5: the quantized ladder. Reconstruct-stage stalls demote one
  // rung at a time with no breaker involvement, so the trace pins the full
  // q8 walk: frame 3's stall drops vbp+ssim -> vbp+ssim-q8 (promoted back
  // after 2 healthy frames); the {12,13,14} burst walks vbp+ssim ->
  // vbp+ssim-q8 -> vbp+mse -> vbp+mse-q8; the healthy tail climbs all four
  // rungs back to vbp+ssim by frame 22. Every q8-served frame is scored by
  // the int8 forward against the q8 rung's own fitted threshold, and the
  // integer path replays bit-exactly across GEMM kernels.
  Scenario quant{"quantized_rung", base_spec(24)};
  quant.spec.supervisor.enable_quant_rungs = true;
  quant.spec.stalls.push_back({/*stage=*/3, /*stall_ns=*/10 * kMs, /*first_frame=*/3,
                               /*last_frame=*/3, /*period=*/1});
  quant.spec.stalls.push_back({/*stage=*/3, /*stall_ns=*/10 * kMs, /*first_frame=*/12,
                               /*last_frame=*/14, /*period=*/1});
  all.push_back(quant);

  return all;
}

/// True when every scored frame's decision would survive a score nudge of
/// kMinDecisionMargin relative — the cross-kernel safety condition.
bool margins_are_safe(const trace::Trace& trace, const core::NoveltyDetector& detector,
                      const std::string& name) {
  bool safe = true;
  for (const trace::TraceFrame& frame : trace.frames) {
    if (!frame.scored || !std::isfinite(frame.score)) continue;
    const double threshold =
        detector.variant_calibration(core::rung(frame.mode).variant).threshold.threshold();
    const double margin =
        std::fabs(frame.score - threshold) / std::max(1.0, std::fabs(threshold));
    if (margin < kMinDecisionMargin) {
      std::fprintf(stderr,
                   "make_golden: %s frame %lld scores %.9g against threshold %.9g "
                   "(margin %.3g < %.3g) — verdict could flip across kernels; "
                   "adjust the scenario seeds\n",
                   name.c_str(), static_cast<long long>(frame.frame_index), frame.score,
                   threshold, margin, kMinDecisionMargin);
      safe = false;
    }
  }
  return safe;
}

bool replay_ok(const trace::Trace& trace, const core::NoveltyDetector& detector,
               nn::Sequential* steering, double tolerance, const std::string& what) {
  trace::ReplayOptions options;
  options.score_tolerance = tolerance;
  const trace::ReplayReport report = trace::TraceReplayer::replay(trace, detector, steering, options);
  if (!report.ok()) {
    std::fprintf(stderr, "make_golden: %s: %s\n", what.c_str(), report.format().c_str());
  }
  return report.ok();
}

int run(const std::string& out_dir, const std::string& only) {
  // Goldens are recorded under the scalar kernel: it exists on every machine,
  // so any checkout can re-verify them bit-for-bit.
  set_gemm_kernel(GemmKernel::kScalar);
  std::filesystem::create_directories(out_dir);

  std::printf("fitting golden pipeline (%lldx%lld, scalar kernel)...\n",
              static_cast<long long>(kH), static_cast<long long>(kW));
  Rng rng(41);
  nn::Sequential steering =
      driving::build_pilotnet(driving::PilotNetConfig::tiny(kH, kW), rng);

  core::NoveltyDetectorConfig config;
  config.height = kH;
  config.width = kW;
  config.preprocessing = core::Preprocessing::kVbp;
  config.score = core::ReconstructionScore::kSsim;
  config.autoencoder = core::AutoencoderConfig::tiny(kH, kW);
  config.train_epochs = 10;
  core::NoveltyDetector detector(config);
  detector.attach_steering_model(&steering);

  roadsim::OutdoorSceneGenerator generator;
  Rng frame_rng(101);
  std::vector<Image> train;
  for (int i = 0; i < 24; ++i) {
    const roadsim::Sample sample = generator.generate(frame_rng);
    train.push_back(resize_bilinear(sample.rgb.to_grayscale(), kH, kW));
  }
  detector.fit(train, rng);

  const std::string pipeline_path = out_dir + "/pipeline.bin";
  core::PipelineIo::save_file(pipeline_path, detector, &steering);
  const std::string payload = load_file_checked(pipeline_path);
  const uint32_t pipeline_crc = crc32(payload.data(), payload.size());
  std::printf("wrote %s (%zu bytes, crc 0x%08x)\n", pipeline_path.c_str(), payload.size(),
              pipeline_crc);

  bool all_ok = true;
  bool matched = false;
  for (Scenario& scenario : scenarios()) {
    if (!only.empty() && scenario.name != only) continue;
    matched = true;
    scenario.spec.pipeline_crc = pipeline_crc;
    scenario.spec.pipeline_bytes = static_cast<int64_t>(payload.size());
    const trace::Trace trace =
        trace::TraceRecorder::record(scenario.spec, detector, &steering);

    bool ok = margins_are_safe(trace, detector, scenario.name);
    parallel::set_num_threads(1);
    ok = replay_ok(trace, detector, &steering, 0.0, scenario.name + " @1 thread") && ok;
    parallel::set_num_threads(4);
    ok = replay_ok(trace, detector, &steering, 0.0, scenario.name + " @4 threads") && ok;
    parallel::set_num_threads(0);
    if (gemm_simd_available()) {
      set_gemm_kernel(GemmKernel::kSimd);
      ok = replay_ok(trace, detector, &steering, 1e-6, scenario.name + " @simd") && ok;
      set_gemm_kernel(GemmKernel::kScalar);
    }

    if (!ok) {
      all_ok = false;
      continue;
    }
    const std::string trace_path = out_dir + "/" + scenario.name + ".trace";
    trace.save_file(trace_path);
    std::printf(
        "wrote %s: %lld frames, %lld scored, %lld sensor-bad, %lld step-downs, "
        "%lld trips, %lld promotions\n",
        trace_path.c_str(), static_cast<long long>(trace.health.frames_total),
        static_cast<long long>(trace.health.frames_scored),
        static_cast<long long>(trace.health.frames_sensor_bad),
        static_cast<long long>(trace.health.step_downs),
        static_cast<long long>(trace.health.breaker_trips),
        static_cast<long long>(trace.health.promotions));
    if (!trace.events.empty()) {
      std::printf(
          "  failure domain: %zu events, %lld quarantines, %lld probe failures, "
          "%lld restores, %lld failovers, %lld redispatched, %lld shed\n",
          trace.events.size(), static_cast<long long>(trace.cluster_health.quarantines),
          static_cast<long long>(trace.cluster_health.probe_failures),
          static_cast<long long>(trace.cluster_health.restores),
          static_cast<long long>(trace.cluster_health.failovers),
          static_cast<long long>(trace.cluster_health.redispatched_frames),
          static_cast<long long>(trace.cluster_health.shed_frames));
    }
  }

  if (!matched) {
    std::fprintf(stderr, "make_golden: no scenario named '%s'\n", only.c_str());
    return 2;
  }
  if (!all_ok) {
    std::fprintf(stderr, "make_golden: verification failed; goldens not (fully) written\n");
    return 1;
  }
  std::printf("all goldens verified (1/4 threads bit-exact%s)\n",
              gemm_simd_available() ? ", cross-kernel within tolerance" : "");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_dir = "tests/golden";
  std::string only;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--only") == 0 && i + 1 < argc) {
      only = argv[++i];
    } else {
      std::fprintf(stderr, "usage: make_golden [--out DIR] [--only SCENARIO]\n");
      return 2;
    }
  }
  try {
    return run(out_dir, only);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "make_golden: %s\n", e.what());
    return 1;
  }
}
