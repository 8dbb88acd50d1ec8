// NoveltyMonitor: run-time policy layer over a fitted NoveltyDetector.
//
// A per-frame novelty bit is too twitchy to gate a safety action on — the
// 99th-percentile rule flags ~1% of in-distribution frames by construction.
// The monitor adds the standard deployment policy: an exponential moving
// average of the score plus consecutive-flag hysteresis, entering the
// kFallback state only after `trigger_frames` consecutive novel frames and
// leaving it only after `release_frames` consecutive familiar ones.
//
// It also distinguishes "the world is novel" from "the sensor died": frames
// that fail the FrameValidator (NaN, out-of-range, dead-constant) or repeat
// bit-identically (frozen camera) are never scored; they feed a *separate*
// trigger/release hysteresis that enters kSensorFault. MonitorUpdate reports
// which path — novelty or sensor fault — engaged the degraded mode.
#pragma once

#include <cstdint>
#include <optional>

#include "core/frame_validator.hpp"
#include "core/novelty_detector.hpp"

namespace salnov::core {

struct MonitorConfig {
  int64_t trigger_frames = 3;   ///< consecutive novel frames to enter fallback
  int64_t release_frames = 5;   ///< consecutive familiar frames to leave it
  double score_smoothing = 0.3; ///< EMA coefficient for the reported score

  // Sensor-fault hysteresis — its own knobs, because a dead camera warrants
  // a different reaction time than a drifting world.
  int64_t sensor_trigger_frames = 3;  ///< consecutive bad frames to enter kSensorFault
  int64_t sensor_release_frames = 5;  ///< consecutive good frames to leave it
  bool detect_frozen_frames = true;   ///< treat bit-identical repeats as sensor faults
};

enum class MonitorState {
  kNominal,      ///< trusting the model
  kAlert,        ///< novel frames seen, below the trigger count
  kFallback,     ///< fallback controller should be engaged (novelty path)
  kSensorFault,  ///< fallback controller should be engaged (sensor path)
};
inline constexpr uint32_t kMonitorStateCount = 4;
static_assert(static_cast<uint32_t>(MonitorState::kSensorFault) + 1 == kMonitorStateCount);

/// Which mechanism currently engages the fallback controller.
enum class FallbackPath {
  kNone,         ///< nominal / alert: the model is trusted
  kNovelty,      ///< consecutive novel frames (kFallback)
  kSensorFault,  ///< validator rejections or frozen frames (kSensorFault)
};
inline constexpr uint32_t kFallbackPathCount = 3;
static_assert(static_cast<uint32_t>(FallbackPath::kSensorFault) + 1 == kFallbackPathCount);

struct MonitorUpdate {
  double raw_score = 0.0;       ///< NaN when the frame was not scored
  double smoothed_score = 0.0;  ///< last EMA value (NaN before any scored frame)
  bool frame_novel = false;
  bool frame_scored = true;     ///< false for validator-rejected / frozen frames
  FrameFault frame_fault = FrameFault::kNone;
  bool frame_frozen = false;    ///< bit-identical to the previous valid frame
  MonitorState state = MonitorState::kNominal;
  FallbackPath fallback_path = FallbackPath::kNone;
};

class NoveltyMonitor {
 public:
  /// `detector` must be fitted and outlive the monitor.
  NoveltyMonitor(const NoveltyDetector& detector, MonitorConfig config = {});

  /// Feeds one camera frame; returns the per-frame result and the updated
  /// policy state. Malformed or frozen frames are screened out before the
  /// detector runs, so this never throws InvalidFrameError.
  MonitorUpdate update(const Image& frame);

  /// Feeds an externally-computed score for a frame that already passed
  /// screening. The serving runtime scores frames through its own staged,
  /// deadline-aware executor (possibly at a degraded detector variant) and
  /// uses this entry point so the hysteresis policy stays in one place.
  /// Non-finite scores count as novel evidence but do NOT update the EMA —
  /// one NaN must not poison every later smoothed value.
  MonitorUpdate update_scored(double raw_score, bool frame_novel);

  /// Feeds a frame rejected by screening (validator fault and/or frozen
  /// repeat) without scoring it. Callers using this entry point do their own
  /// screening, including frozen-frame detection.
  MonitorUpdate update_sensor_bad(FrameFault fault, bool frozen);

  MonitorState state() const { return state_; }
  int64_t frames_seen() const { return frames_seen_; }

  /// Resets the policy state (e.g. after an operator handover).
  void reset();

 private:
  /// Shared state-transition tail of every update path.
  void advance_state(MonitorUpdate& update, bool sensor_bad);

  const NoveltyDetector& detector_;
  MonitorConfig config_;
  MonitorState state_ = MonitorState::kNominal;
  int64_t consecutive_novel_ = 0;
  int64_t consecutive_familiar_ = 0;
  int64_t consecutive_sensor_bad_ = 0;
  int64_t consecutive_sensor_good_ = 0;
  int64_t frames_seen_ = 0;
  std::optional<double> smoothed_;
  std::optional<Image> last_valid_frame_;  ///< for frozen-frame detection
};

}  // namespace salnov::core
