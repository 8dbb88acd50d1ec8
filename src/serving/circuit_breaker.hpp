// Circuit breaker guarding the saliency stage of the serving pipeline.
//
// Saliency is the most expensive and most failure-prone stage (it walks the
// steering CNN's activations); when it stalls repeatedly there is no point
// burning the frame deadline re-attempting it every frame. The breaker
// follows the classic three-state protocol, with "time" measured in frames
// so the behaviour is deterministic under a FakeClock:
//
//   kClosed   — saliency runs normally; `failure_threshold` *consecutive*
//               failures trip the breaker.
//   kOpen     — saliency is skipped outright for `open_frames` frames
//               (the supervisor serves the raw+MSE rung meanwhile).
//   kHalfOpen — one probe frame is allowed through. Success re-closes the
//               breaker (and the supervisor restores the top of the mode
//               ladder); failure re-opens it for another backoff window.
#pragma once

#include <cstdint>

#include "core/knob.hpp"

namespace salnov::serving {

struct CircuitBreakerConfig {
  int failure_threshold = 3;  ///< consecutive failures that trip the breaker
  int64_t open_frames = 8;    ///< frames to hold open before the half-open probe
};

/// CircuitBreakerConfig's knobs; the CircuitBreaker constructor checks them.
inline constexpr Knob<CircuitBreakerConfig> kBreakerKnobs[] = {
    {.flag = "breaker-threshold", .member = &CircuitBreakerConfig::failure_threshold,
     .doc = "consecutive saliency failures that trip the breaker", .lo = 1, .hi = 1e6},
    {.flag = "breaker-open-frames", .member = &CircuitBreakerConfig::open_frames,
     .doc = "frames the breaker stays open before its half-open probe", .lo = 1, .hi = 1e9},
};

enum class BreakerState { kClosed, kOpen, kHalfOpen };
inline constexpr uint32_t kBreakerStateCount = 3;
static_assert(static_cast<uint32_t>(BreakerState::kHalfOpen) + 1 == kBreakerStateCount);

const char* breaker_state_name(BreakerState state);

/// Degradation order across streams: closed < half-open < open.
constexpr int breaker_severity(BreakerState state) {
  return state == BreakerState::kOpen ? 2 : state == BreakerState::kHalfOpen ? 1 : 0;
}

class CircuitBreaker {
 public:
  explicit CircuitBreaker(CircuitBreakerConfig config = {});

  /// Ticks the frame counter; while open, `open_frames` ticks graduate the
  /// breaker to half-open. Call once per frame before consulting allows().
  void begin_frame();

  /// The state the next begin_frame() will leave (an open breaker on its
  /// last backoff frame reads half-open).
  BreakerState next_frame_state() const {
    return state_ == BreakerState::kOpen && open_frame_count_ + 1 >= config_.open_frames
               ? BreakerState::kHalfOpen
               : state_;
  }

  /// True when the protected stage may be attempted this frame (closed, or
  /// half-open probe).
  bool allows() const { return state_ != BreakerState::kOpen; }

  void record_success();
  void record_failure();

  BreakerState state() const { return state_; }
  int64_t trips() const { return trips_; }
  int64_t probe_successes() const { return probe_successes_; }
  int64_t probe_failures() const { return probe_failures_; }

 private:
  CircuitBreakerConfig config_;
  BreakerState state_ = BreakerState::kClosed;
  int consecutive_failures_ = 0;
  int64_t open_frame_count_ = 0;
  int64_t trips_ = 0;
  int64_t probe_successes_ = 0;
  int64_t probe_failures_ = 0;
};

}  // namespace salnov::serving
