#include "core/monitor.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace salnov::core {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

}  // namespace

NoveltyMonitor::NoveltyMonitor(MonitorConfig config) : config_(config) {
  if (config_.trigger_frames < 1 || config_.release_frames < 1 ||
      config_.sensor_trigger_frames < 1 || config_.sensor_release_frames < 1) {
    throw std::invalid_argument("NoveltyMonitor: frame counts must be >= 1");
  }
  if (config_.score_smoothing <= 0.0 || config_.score_smoothing > 1.0) {
    throw std::invalid_argument("NoveltyMonitor: smoothing must be in (0, 1]");
  }
}

double NoveltyMonitor::smoothed_score() const { return smoothed_.value_or(kNaN); }

MonitorState NoveltyMonitor::update_sensor_bad() {
  ++consecutive_sensor_bad_;
  consecutive_sensor_good_ = 0;
  // A broken frame is evidence of neither novelty nor familiarity.
  consecutive_novel_ = 0;
  consecutive_familiar_ = 0;
  return advance_state(/*sensor_bad=*/true);
}

MonitorState NoveltyMonitor::update_scored(double raw_score, bool frame_novel) {
  consecutive_sensor_bad_ = 0;
  ++consecutive_sensor_good_;

  // Non-finite containment: a NaN/Inf score is itself a fault signal and is
  // kept out of the EMA, which would otherwise stay NaN forever.
  if (std::isfinite(raw_score)) {
    if (smoothed_.has_value()) {
      smoothed_ = (1.0 - config_.score_smoothing) * *smoothed_ + config_.score_smoothing * raw_score;
    } else {
      smoothed_ = raw_score;
    }
  }

  if (frame_novel) {
    ++consecutive_novel_;
    consecutive_familiar_ = 0;
  } else {
    ++consecutive_familiar_;
    consecutive_novel_ = 0;
  }
  return advance_state(/*sensor_bad=*/false);
}

MonitorState NoveltyMonitor::advance_state(bool sensor_bad) {
  // State transitions. Sensor faults dominate: they can be entered from any
  // state, and while in kSensorFault the novelty machine is suspended (its
  // streaks still accumulate on scored frames, so a release into a novel
  // world re-triggers the novelty path immediately afterwards).
  if (state_ == MonitorState::kSensorFault) {
    if (consecutive_sensor_good_ >= config_.sensor_release_frames) {
      state_ = MonitorState::kNominal;
    }
  } else if (consecutive_sensor_bad_ >= config_.sensor_trigger_frames) {
    state_ = MonitorState::kSensorFault;
  } else if (!sensor_bad) {
    switch (state_) {
      case MonitorState::kNominal:
      case MonitorState::kAlert:
        if (consecutive_novel_ >= config_.trigger_frames) {
          state_ = MonitorState::kFallback;
        } else if (consecutive_novel_ > 0) {
          state_ = MonitorState::kAlert;
        } else {
          state_ = MonitorState::kNominal;
        }
        break;
      case MonitorState::kFallback:
        if (consecutive_familiar_ >= config_.release_frames) {
          state_ = MonitorState::kNominal;
        }
        break;
      case MonitorState::kSensorFault:
        break;  // unreachable: handled above
    }
  }
  // Remaining case — a sensor-bad frame below the trigger count — holds the
  // current state (mirroring how a single novel frame only raises kAlert).
  return state_;
}

}  // namespace salnov::core
