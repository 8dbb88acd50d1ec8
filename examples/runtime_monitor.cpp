// Runtime monitor: the deployment story.
//
// Phase 1 (offline, "factory"): train the steering model and novelty
// detector, then save the whole pipeline to one file with PipelineIo.
// Phase 2 (online, "vehicle"): load the pipeline and run a simulated drive
// through the serving Supervisor — each frame is screened, steered by the
// CNN and scored by the novelty detector in one pass; flagged frames would
// trigger a fallback controller. Midway through the drive the "vehicle"
// leaves its training domain (outdoor -> indoor), and the monitor should
// start flagging.
// Phase 3 (online, "degraded"): replay the same drive through the serving
// Supervisor with a saliency stall injected under a fake clock — the mode
// ladder steps down to a cheaper calibrated rung, then climbs back up once
// the stall clears.
#include <cstdio>
#include <filesystem>

#include "core/novelty_detector.hpp"
#include "core/pipeline_io.hpp"
#include "driving/pilotnet.hpp"
#include "driving/steering_trainer.hpp"
#include "faults/timing_faults.hpp"
#include "image/transforms.hpp"
#include "roadsim/dataset.hpp"
#include "roadsim/indoor_generator.hpp"
#include "roadsim/outdoor_generator.hpp"
#include "serving/supervisor.hpp"

namespace {

constexpr int64_t kHeight = 30;
constexpr int64_t kWidth = 80;
const char* kPipelinePath = "runtime_monitor.pipeline";

void factory_phase() {
  using namespace salnov;
  Rng rng(17);
  roadsim::OutdoorSceneGenerator outdoor;
  const auto train = roadsim::DrivingDataset::generate(outdoor, 300, kHeight, kWidth, rng);

  std::printf("[factory] training steering model...\n");
  auto pilot_config = driving::PilotNetConfig::compact();
  pilot_config.input_height = kHeight;
  pilot_config.input_width = kWidth;
  nn::Sequential steering = driving::build_pilotnet(pilot_config, rng);
  driving::SteeringTrainOptions steering_options;
  steering_options.epochs = 20;
  driving::train_steering_model(steering, train, steering_options, rng);

  std::printf("[factory] fitting novelty detector...\n");
  core::NoveltyDetectorConfig config = core::NoveltyDetectorConfig::proposed();
  config.height = kHeight;
  config.width = kWidth;
  config.autoencoder.hidden_units = {64, 16, 64};
  config.train_epochs = 120;
  config.learning_rate = 3e-3;
  core::NoveltyDetector detector(config);
  detector.attach_steering_model(&steering);
  detector.fit(train.images(), rng);

  core::PipelineIo::save_file(kPipelinePath, detector, &steering);
  std::printf("[factory] pipeline saved to %s\n", kPipelinePath);
}

void vehicle_phase() {
  using namespace salnov;
  std::printf("[vehicle] loading pipeline from %s\n", kPipelinePath);
  core::LoadedPipeline pipeline = core::PipelineIo::load_file(kPipelinePath);

  Rng rng(23);
  roadsim::OutdoorSceneGenerator outdoor;
  roadsim::IndoorSceneGenerator indoor;

  // The supervisor's NoveltyMonitor adds the deployment policy on top of
  // per-frame classification: enter fallback only after 3 consecutive novel
  // frames, release after 5 consecutive familiar ones. Its steer stage's
  // forward also gives the VBP mask, so each frame runs the CNN once.
  serving::FakeClock clock;
  serving::Supervisor supervisor(*pipeline.detector, pipeline.steering_model.get(), {}, &clock);

  std::printf("[vehicle] driving: 12 familiar frames, then 8 out-of-domain frames\n\n");
  std::printf("%5s %-10s %10s %10s %10s  %s\n", "frame", "domain", "steer", "SSIM", "smoothed",
              "monitor");
  for (int64_t frame = 0; frame < 20; ++frame) {
    const bool in_domain = frame < 12;
    const roadsim::Sample sample = in_domain ? outdoor.generate(rng) : indoor.generate(rng);
    Image view = sample.rgb.to_grayscale();
    view = resize_bilinear(view, kHeight, kWidth);

    const serving::ServeResult result = supervisor.process(view);

    const char* action = result.monitor_state == core::MonitorState::kFallback
                             ? "NOVEL -> fallback controller engaged"
                             : (result.monitor_state == core::MonitorState::kAlert ? "NOVEL" : "ok");
    std::printf("%5lld %-10s %10.3f %10.3f %10.3f  %s\n", static_cast<long long>(frame),
                in_domain ? "outdoor" : "indoor", result.steering, result.score,
                supervisor.monitor().smoothed_score(), action);
  }
}

void degraded_phase() {
  using namespace salnov;
  std::printf("\n[degraded] same drive through the serving supervisor, with a\n"
              "[degraded] saliency stall injected on frames 4-9 (fake clock)\n\n");
  core::LoadedPipeline pipeline = core::PipelineIo::load_file(kPipelinePath);

  // Stall the saliency stage well past its budget for six frames; the fake
  // clock makes the injected stalls the only elapsed time, so the fallback
  // trace below is identical on every run.
  faults::TimingFaultInjector stalls;
  faults::TimingFault stall;
  stall.stage = static_cast<int>(serving::Stage::kSaliency);
  stall.stall_ns = 80'000'000;
  stall.first_frame = 4;
  stall.last_frame = 9;
  stalls.add(stall);

  serving::SupervisorConfig config;
  config.timing_faults = &stalls;
  config.promote_after_healthy_frames = 4;
  serving::FakeClock clock;
  serving::Supervisor supervisor(*pipeline.detector, pipeline.steering_model.get(), config,
                                 &clock);

  Rng rng(23);
  roadsim::OutdoorSceneGenerator outdoor;
  std::printf("%5s %-10s %10s  %s\n", "frame", "mode", "score", "note");
  for (int64_t frame = 0; frame < 20; ++frame) {
    const roadsim::Sample sample = outdoor.generate(rng);
    Image view = resize_bilinear(sample.rgb.to_grayscale(), kHeight, kWidth);
    const serving::ServeResult result = supervisor.process(view);
    const char* note = result.deadline_overrun ? "saliency overrun -> degraded rung"
                                               : (result.novel ? "NOVEL" : "ok");
    std::printf("%5lld %-10s %10.3f  %s\n", static_cast<long long>(frame),
                serving::serving_mode_name(result.mode), result.score, note);
  }
  const serving::HealthSnapshot health = supervisor.health();
  std::printf("\n[degraded] final mode %s, %lld step-downs, %lld promotions, %lld overruns\n",
              serving::serving_mode_name(health.mode),
              static_cast<long long>(health.step_downs),
              static_cast<long long>(health.promotions),
              static_cast<long long>(health.deadline_overruns));
  std::filesystem::remove(kPipelinePath);
}

}  // namespace

int main() {
  factory_phase();
  vehicle_phase();
  degraded_phase();
  return 0;
}
