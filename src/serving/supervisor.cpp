#include "serving/supervisor.hpp"

#include <cmath>
#include <optional>
#include <stdexcept>

#include "driving/steering_trainer.hpp"

namespace salnov::serving {

void validate(const SupervisorConfig& config) {
  check_knobs(kSupervisorKnobs, config, "SupervisorConfig");
  check_knobs(kBreakerKnobs, config.breaker, "SupervisorConfig");
  if (config.calibration.enabled) calib::validate(config.calibration);
}

Supervisor::Supervisor(const core::NoveltyDetector& detector, nn::Sequential* steering_model,
                       SupervisorConfig config, Clock* clock)
    : detector_(detector),
      steering_model_(steering_model),
      config_(std::move(config)),
      owned_clock_(clock == nullptr ? std::make_unique<SteadyClock>() : nullptr),
      clock_(clock == nullptr ? owned_clock_.get() : clock),
      monitor_(config_.monitor),
      breaker_(config_.breaker),
      saliency_configured_(core::uses_saliency(detector.config().preprocessing)),
      // Silent degrade, not an error: a pipeline without int8 calibrations
      // (gradient/LRP preprocessing has no quantized path) serves the float
      // ladder.
      quant_rungs_active_(config_.enable_quant_rungs && detector.has_quant_calibrations() &&
                          detector.has_quant_path()) {
  if (!detector.has_variant_calibrations()) {
    throw std::logic_error("Supervisor: detector lacks variant calibrations (refit or reload)");
  }
  if (saliency_configured_ && steering_model_ == nullptr) {
    throw std::invalid_argument("Supervisor: saliency pipeline requires its steering model");
  }
  validate(config_);
  if (config_.calibration.enabled) {
    calibrator_.emplace(detector_, config_.calibration);  // validates the config
  }
  for (int s = 0; s < kStageCount; ++s) {
    counters_.stages[static_cast<size_t>(s)].name = stage_name(static_cast<Stage>(s));
  }
}

void Supervisor::install_thresholds(std::shared_ptr<const calib::ThresholdSet> set) {
  live_thresholds_.install(std::move(set));
  threshold_swaps_.fetch_add(1, std::memory_order_acq_rel);
}

const core::NoveltyThreshold& Supervisor::threshold_for(core::DetectorVariant variant,
                                                        const calib::ThresholdSet* live) const {
  if (live != nullptr) return live->thresholds[static_cast<size_t>(variant)];
  return detector_.variant_calibration(variant).threshold;
}

void Supervisor::perform_swap(ServeResult& result, const calib::ThresholdSet* live, bool forced) {
  const int64_t epoch = (live != nullptr ? live->epoch : 0) + 1;
  const std::shared_ptr<const calib::ThresholdSet> next = calibrator_->build(live, epoch);
  ThresholdSwapEvent event;
  event.frame_index = result.frame_index;
  event.epoch = epoch;
  event.forced = forced;
  const std::string& store = calibrator_->config().store_path;
  if (!store.empty()) {
    try {
      next->save_file(store);  // crash-safe: temp + atomic rename + CRC trailer
      event.persisted = true;
    } catch (const std::exception&) {
      // Persistence failed (disk fault or injected crash). Policy: do not
      // install a set that could not be made durable — disk holds either the
      // complete old file or the complete new one, and the live pointer
      // keeps serving the old set. The drift episode stays armed, so the
      // swap is retried at the next check.
      ++counters_.swap_persist_failures;
      return;
    }
  }
  live_thresholds_.install(next);
  threshold_swaps_.fetch_add(1, std::memory_order_acq_rel);
  calibrator_->rearm_after_swap();
  swap_events_.push_back(event);
  result.threshold_swapped = true;
  result.threshold_epoch = epoch;
}

void Supervisor::run_calibration(ServeResult& result, const calib::ThresholdSet* live,
                                 core::DetectorVariant variant) {
  if (!calibrator_.has_value()) return;
  bool drift_fired = false;
  if (result.scored) {
    calibrator_->observe(variant, result.score);
    if (calibrator_->check_due(counters_.frames_scored)) {
      ++counters_.drift_checks;
      const calib::DriftCheck check = calibrator_->check(live);
      if (check.any_drifted) ++counters_.drift_detections;
      drift_fired = check.state == calib::DriftState::kDrifted;
    }
  }
  // Forced swaps: entries for frames that never reached this point (sensor
  // screening, abandonment) are skipped, not deferred — the schedule stays
  // a function of frame indices alone.
  const auto& forced_frames = calibrator_->config().forced_swap_frames;
  while (next_forced_ < forced_frames.size() &&
         forced_frames[next_forced_] < result.frame_index) {
    ++next_forced_;
  }
  const bool forced_now =
      next_forced_ < forced_frames.size() && forced_frames[next_forced_] == result.frame_index;
  if (forced_now) ++next_forced_;
  if (forced_now || (drift_fired && calibrator_->config().auto_swap)) {
    perform_swap(result, live, forced_now);
  }
}

Supervisor::StageOutcome Supervisor::run_stage(Stage stage, int64_t frame_index,
                                               ServeResult& result,
                                               const std::function<void()>& body) {
  const size_t s = static_cast<size_t>(stage);
  const int64_t start = clock_->now_ns();
  if (config_.timing_faults != nullptr) {
    clock_->sleep_ns(config_.timing_faults->stall_ns(static_cast<int>(stage), frame_index));
  }
  StageOutcome outcome;
  try {
    body();
  } catch (const std::exception&) {
    outcome.threw = true;
  }
  const int64_t elapsed = clock_->now_ns() - start;
  result.stage_ns[s] = elapsed;
  rings_[s].push(elapsed);
  const int64_t budget = config_.stage_budget_ns[s];
  if (budget > 0 && elapsed > budget) {
    outcome.overrun = true;
    result.deadline_overrun = true;
    ++counters_.stages[s].overruns;
  }
  return outcome;
}

bool Supervisor::frame_deadline_blown(int64_t frame_start_ns) const {
  return config_.frame_budget_ns > 0 &&
         clock_->now_ns() - frame_start_ns > config_.frame_budget_ns;
}

void Supervisor::attach_monitor_state(ServeResult& result) {
  const core::MonitorState state = monitor_.state();
  result.monitor_state = state;
  result.fallback_path = core::fallback_path(state);
}

ServeResult Supervisor::abandon(ServeResult& result, ServingMode mode_used, bool tripped) {
  ++counters_.frames_abandoned;
  ++counters_.deadline_overruns;
  result.abandoned = true;
  result.scored = false;
  result.deadline_overrun = true;
  result.mode = mode_used;
  // The monitor does not hear about abandoned frames: there is neither a
  // score nor sensor evidence, only a scheduling failure — which the ladder
  // handles (a breaker trip this frame already moved it).
  attach_monitor_state(result);
  if (!tripped) update_ladder(true);
  return result;
}

void Supervisor::set_mode(ServingMode mode) {
  mode_ = mode;
  bad_streak_ = 0;
  healthy_streak_ = 0;
}

void Supervisor::update_ladder(bool frame_bad) {
  // Pipelines without the q8 rungs walk the ladder exactly as before the
  // rungs existed: next/prev skip over them.
  if (frame_bad) {
    healthy_streak_ = 0;
    if (++bad_streak_ >= config_.demote_after_bad_frames &&
        mode_ != ServingMode::kSensorHold) {
      mode_ = core::ladder_step(mode_, +1, /*skip_q8=*/!quant_rungs_active_);
      ++counters_.step_downs;
      bad_streak_ = 0;
    }
    return;
  }
  bad_streak_ = 0;
  if (++healthy_streak_ >= config_.promote_after_healthy_frames &&
      mode_ != ServingMode::kVbpSsim) {
    const ServingMode target = core::ladder_step(mode_, -1, /*skip_q8=*/!quant_rungs_active_);
    // Promotion back into a saliency rung is gated on the breaker: while it
    // is open or probing, the stage the rung depends on is not trusted yet.
    if (core::rung(target).raw || !saliency_configured_ ||
        breaker_.state() == BreakerState::kClosed) {
      mode_ = target;
      ++counters_.promotions;
      healthy_streak_ = 0;
    }
  }
}

FramePlan Supervisor::plan() const {
  const core::Rung& rung = core::rung(mode_);
  const BreakerState breaker = breaker_.next_frame_state();
  FramePlan plan;
  plan.mode = mode_;
  plan.q8 = rung.q8;
  // On a q8 rung the steer stage runs the quantized steering forward when it
  // exists — the same network the q8 mask is backpropped through.
  plan.steer = steering_model_ != nullptr;
  plan.steer_q8 = detector_.steers_quantized(rung.q8);
  plan.probe = breaker == BreakerState::kHalfOpen;
  plan.saliency =
      saliency_configured_ && breaker != BreakerState::kOpen && (!rung.raw || plan.probe);
  // A half-open probe restores the float top rung on success, so its mask
  // is the float mask; only a q8 rung that will itself consume the mask
  // computes it quantized.
  plan.mask_q8 = rung.q8 && !rung.raw;
  return plan;
}

ServeResult Supervisor::process(const Image& frame, const ProvidedCompute* provided) {
  ServeResult result = run_pipeline(frame, provided);
  result.mode_after = mode_;
  result.breaker_after = breaker_.state();
  return result;
}

ServeResult Supervisor::run_pipeline(const Image& frame, const ProvidedCompute* provided) {
  const int64_t index = counters_.frames_total++;
  const int64_t frame_start = clock_->now_ns();
  ServeResult result;
  result.frame_index = index;
  result.mode = mode_;
  bool frame_bad = false;
  last_recon_mispredicted_ = false;

  // One wait-free acquire pins the threshold set for the whole frame: a
  // concurrent install takes effect at the next frame boundary, never
  // mid-frame (retired sets stay alive, so the pointer cannot dangle).
  const calib::ThresholdSet* live = live_thresholds_.acquire();
  result.threshold_epoch = live != nullptr ? live->epoch : 0;

  // --- Stage 0: validate -------------------------------------------------
  // The frame screen: the validator's verdict, then the frozen-frame check.
  // No later stage re-checks the frame's content.
  const StageOutcome validate = run_stage(Stage::kValidate, index, result, [&] {
    result.fault = provided != nullptr && provided->fault.has_value()
                       ? *provided->fault
                       : detector_.frame_validator().check(frame);
    if (result.fault == core::FrameFault::kNone) {
      result.frozen = config_.monitor.detect_frozen_frames && last_valid_frame_.has_value() &&
                      last_valid_frame_->tensor() == frame.tensor();
      last_valid_frame_ = frame;
    } else {
      last_valid_frame_.reset();
    }
  });
  if (validate.overrun) frame_bad = true;
  if (frame_deadline_blown(frame_start)) return abandon(result, mode_, false);
  if (result.fault != core::FrameFault::kNone || result.frozen) {
    // Sensor-bad frames are the monitor's jurisdiction and are neutral to
    // the ladder: a dead camera says nothing about pipeline timing health.
    ++counters_.frames_sensor_bad;
    monitor_.update_sensor_bad();
    result.sensor_bad = true;
    attach_monitor_state(result);
    if (result.deadline_overrun) ++counters_.deadline_overruns;
    return result;
  }

  const FramePlan planned = plan();
  breaker_.begin_frame();
  ServingMode mode_used = planned.mode;

  // Provided compute is only trusted at the precision this frame serves at:
  // float and q8 forwards are different bits by design, so a precision
  // mismatch (mid-batch mode change across a q8 boundary) recomputes
  // directly.
  const bool provided_ok = provided != nullptr && provided->quantized == planned.q8;

  // --- Stage 1: steer ----------------------------------------------------
  // The steering prediction is the vehicle's primary output and runs in
  // every mode that reaches this point.
  //
  // When the stage runs the forward itself it keeps the conv stages, so the
  // saliency stage can build the VBP mask without a second forward.
  std::optional<nn::StagedForward> steer_pass;
  if (planned.steer) {
    const StageOutcome steer = run_stage(Stage::kSteer, index, result, [&] {
      // A provided angle is the batched forward's row for this frame —
      // bit-identical to the direct call (per-row GEMM identity; exact for
      // q8 too, since integer accumulation is associative).
      if (provided_ok && provided->steering.has_value()) {
        result.steering = *provided->steering;
        return;
      }
      nn::StagedForward pass = planned.steer_q8
                                   ? detector_.quant_steering()->forward_stages(frame.as_nchw())
                                   : steering_model_->forward_stages(frame.as_nchw());
      result.steering = driving::steering_angles(pass.output, 1)[0];
      steer_pass = std::move(pass);
    });
    if (!steer.ok()) frame_bad = true;
    if (steer.threw) ++counters_.scoring_failures;
    if (frame_deadline_blown(frame_start)) return abandon(result, mode_used, false);
  }

  // --- Stage 2: saliency (behind the circuit breaker) --------------------
  // The image the autoencoder reads, by reference: the frame itself, or the
  // mask once the stage succeeds (provided, or computed into `mask`).
  const Image* preprocessed = &frame;
  Image mask;
  bool tripped_this_frame = false;
  if (planned.saliency) {
    const core::DetectorVariant mask_variant =
        planned.mask_q8 ? core::DetectorVariant::kPrimaryQ8 : core::DetectorVariant::kPrimary;
    // The steer stage's pass is the mask's forward only when it ran at the
    // mask's precision and the detector's reuse rule accepts it; otherwise
    // (provided or failed steering, a q8 rung without a quantized steering
    // model, another saliency method) the stage computes its own forward.
    const bool reuse_pass = steer_pass.has_value() && planned.steer_q8 == planned.mask_q8 &&
                            detector_.mask_reads_steer_pass(planned.mask_q8, steering_model_);
    const Image* mask_view = &mask;
    const StageOutcome saliency = run_stage(Stage::kSaliency, index, result, [&] {
      // A provided mask skips only the compute: the frame already passed the
      // screen in the kValidate stage.
      if (provided_ok && provided->saliency_mask.has_value()) {
        mask_view = &*provided->saliency_mask;
      } else if (reuse_pass) {
        mask = std::move(
            detector_.variant_preprocess_batch(mask_variant, {&frame}, *steer_pass, {0})[0]);
      } else {
        mask = detector_.variant_preprocess(mask_variant, frame);
      }
    });
    if (saliency.ok()) {
      breaker_.record_success();
      preprocessed = mask_view;
      if (planned.probe) {
        // Probe success: the stage works again — restore the top of the
        // ladder immediately rather than climbing one rung at a time.
        set_mode(ServingMode::kVbpSsim);
        mode_used = ServingMode::kVbpSsim;
        ++counters_.promotions;
      }
    } else {
      if (saliency.threw) ++counters_.scoring_failures;
      frame_bad = true;
      const int64_t trips_before = breaker_.trips();
      breaker_.record_failure();
      if (breaker_.trips() > trips_before) {
        tripped_this_frame = true;
        if (core::rung(mode_).rank < core::rung(ServingMode::kRawMse).rank) {
          set_mode(ServingMode::kRawMse);
          ++counters_.step_downs;
        }
      }
      // Within-frame fallback: the frame still gets a calibrated answer on
      // the raw+MSE rung.
      if (mode_used != ServingMode::kSensorHold) mode_used = ServingMode::kRawMse;
    }
    if (frame_deadline_blown(frame_start)) return abandon(result, mode_used, tripped_this_frame);
  } else if (!core::rung(mode_used).raw) {
    // Saliency rung but the breaker is open (can only happen transiently):
    // serve raw for this frame.
    mode_used = ServingMode::kRawMse;
  }
  steer_pass.reset();  // the conv stages are not needed past this point

  // --- Stage 3: reconstruct ----------------------------------------------
  const core::DetectorVariant variant = variant_for(mode_used);
  Image computed_reconstruction;
  const Image* reconstruction = &computed_reconstruction;
  const StageOutcome reconstruct = run_stage(Stage::kReconstruct, index, result, [&] {
    // The provided reconstruction is only trusted when it was computed from
    // exactly the image this frame actually feeds the autoencoder (value
    // equality, the frozen-frame idiom) at the rung's precision: the plan
    // fixes both before policy runs, and a mid-batch mode change or a failed
    // saliency stage (a q8 frame then serves float raw+MSE) can leave
    // either behind. A miss recomputes the same bits, just unbatched.
    if (provided_ok && provided->reconstruction.has_value() &&
        core::rung(mode_used).q8 == planned.q8 &&
        provided->recon_input.tensor() == preprocessed->tensor()) {
      reconstruction = &*provided->reconstruction;
    } else {
      if (provided != nullptr && provided->reconstruction.has_value()) {
        last_recon_mispredicted_ = true;
      }
      computed_reconstruction = detector_.variant_reconstruct(variant, *preprocessed);
    }
  });
  bool pipeline_broken = reconstruct.threw;
  if (!reconstruct.ok()) frame_bad = true;
  if (reconstruct.threw) ++counters_.scoring_failures;
  if (frame_deadline_blown(frame_start)) return abandon(result, mode_used, tripped_this_frame);

  // --- Stage 4: score ----------------------------------------------------
  double score = std::numeric_limits<double>::quiet_NaN();
  bool novel = false;
  if (!pipeline_broken) {
    const StageOutcome scoring = run_stage(Stage::kScore, index, result, [&] {
      score = detector_.variant_score_pair(variant, *preprocessed, *reconstruction);
      novel = threshold_for(variant, live).is_novel(score);
    });
    if (!scoring.ok()) frame_bad = true;
    if (scoring.threw) {
      ++counters_.scoring_failures;
      pipeline_broken = true;
    }
    if (frame_deadline_blown(frame_start)) return abandon(result, mode_used, tripped_this_frame);
  }
  if (!pipeline_broken && !std::isfinite(score)) {
    // Non-finite containment: the threshold already classifies NaN/Inf as
    // novel; it is also evidence the current rung is misbehaving.
    ++counters_.nonfinite_scores;
    frame_bad = true;
  }

  // --- Outcome ------------------------------------------------------------
  result.mode = mode_used;
  if (result.deadline_overrun) ++counters_.deadline_overruns;

  if (pipeline_broken) {
    // No trustworthy score: report the frame unscored; the monitor is not
    // updated (a compute fault is not sensor evidence).
    result.scored = false;
    attach_monitor_state(result);
  } else if (mode_used == ServingMode::kSensorHold) {
    // Ladder exhausted: the pipeline ran as a recovery probe, but its
    // answer is not trusted. The monitor hears "sensor bad" so the
    // fallback controller engages through the sensor path.
    ++counters_.frames_held;
    result.score = score;
    result.scored = false;
    monitor_.update_sensor_bad();
    attach_monitor_state(result);
  } else {
    ++counters_.frames_scored;
    result.score = score;
    result.novel = novel;
    result.scored = true;
    monitor_.update_scored(score, novel);
    attach_monitor_state(result);
  }

  if (!tripped_this_frame) update_ladder(frame_bad);
  run_calibration(result, live, variant);
  return result;
}

HealthSnapshot Supervisor::health() const {
  HealthSnapshot snapshot = counters_;
  snapshot.mode = mode_;
  snapshot.breaker_state = breaker_.state();
  snapshot.breaker_trips = breaker_.trips();
  snapshot.probe_successes = breaker_.probe_successes();
  snapshot.probe_failures = breaker_.probe_failures();
  const calib::ThresholdSet* live = live_thresholds_.acquire();
  snapshot.threshold_swaps = threshold_swaps_.load(std::memory_order_acquire);
  snapshot.threshold_epoch = live != nullptr ? live->epoch : 0;
  if (calibrator_.has_value()) {
    snapshot.drift_state = calib::drift_state_name(calibrator_->state());
    snapshot.shadow.reserve(core::kDetectorVariantCount);
    for (int v = 0; v < core::kDetectorVariantCount; ++v) {
      const auto variant = static_cast<core::DetectorVariant>(v);
      const calib::RungDrift rung = calibrator_->gauge(variant, live);
      HealthSnapshot::ShadowGauge gauge;
      gauge.rung = core::detector_variant_name(variant);
      gauge.shadow_samples = rung.shadow_samples;
      gauge.shadow_quantile = rung.shadow_quantile;
      gauge.served_threshold = rung.served_threshold;
      gauge.eligible = rung.eligible;
      snapshot.shadow.push_back(std::move(gauge));
    }
  }
  for (size_t i = 0; i < rings_.size(); ++i) {
    snapshot.stages[i].samples = rings_[i].count();
    snapshot.stages[i].p50_ns = rings_[i].percentile_ns(0.50);
    snapshot.stages[i].p99_ns = rings_[i].percentile_ns(0.99);
  }
  return snapshot;
}

}  // namespace salnov::serving
