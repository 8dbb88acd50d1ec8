// NoveltyMonitor: the run-time hysteresis policy over per-frame verdicts.
//
// A per-frame novelty bit is too twitchy to gate a safety action on — the
// 99th-percentile rule flags ~1% of in-distribution frames by construction.
// The monitor adds the standard deployment policy: an exponential moving
// average of the score plus consecutive-flag hysteresis, entering the
// kFallback state only after `trigger_frames` consecutive novel frames and
// leaving it only after `release_frames` consecutive familiar ones.
//
// It also distinguishes "the world is novel" from "the sensor died": frames
// that the serving Supervisor's validate stage screens out (FrameValidator
// faults, bit-identical repeats) are never scored; they feed a *separate*
// trigger/release hysteresis that enters kSensorFault. fallback_path() names
// which path — novelty or sensor fault — engaged the degraded mode.
//
// The monitor sees verdicts only, never frames: Supervisor::process screens
// and scores each frame and feeds the outcome to update_scored or
// update_sensor_bad.
#pragma once

#include <cstdint>
#include <optional>

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

/// The one rule from monitor state to the path engaging the fallback.
constexpr FallbackPath fallback_path(MonitorState state) {
  return state == MonitorState::kFallback      ? FallbackPath::kNovelty
         : state == MonitorState::kSensorFault ? FallbackPath::kSensorFault
                                               : FallbackPath::kNone;
}

class NoveltyMonitor {
 public:
  /// Throws std::invalid_argument on a frame count below 1 or a smoothing
  /// coefficient outside (0, 1].
  explicit NoveltyMonitor(MonitorConfig config = {});

  /// Feeds the score of a frame that passed screening.
  /// Non-finite scores count as novel evidence but do NOT update the EMA —
  /// one NaN must not poison every later smoothed value. Returns the new
  /// state.
  MonitorState update_scored(double raw_score, bool frame_novel);

  /// Feeds a frame rejected by screening (validator fault and/or frozen
  /// repeat) without scoring it. Returns the new state.
  MonitorState update_sensor_bad();

  MonitorState state() const { return state_; }

  /// The EMA of the finite scores fed so far; NaN before the first one.
  double smoothed_score() const;

 private:
  /// Shared state-transition tail of every update path.
  MonitorState advance_state(bool sensor_bad);

  MonitorConfig config_;
  MonitorState state_ = MonitorState::kNominal;
  int64_t consecutive_novel_ = 0;
  int64_t consecutive_familiar_ = 0;
  int64_t consecutive_sensor_bad_ = 0;
  int64_t consecutive_sensor_good_ = 0;
  std::optional<double> smoothed_;
};

}  // namespace salnov::core
