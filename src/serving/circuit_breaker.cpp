#include "serving/circuit_breaker.hpp"

#include <stdexcept>

namespace salnov::serving {

const char* breaker_state_name(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "unknown";
}

CircuitBreaker::CircuitBreaker(CircuitBreakerConfig config) : config_(config) {
  check_knobs(kBreakerKnobs, config_, "CircuitBreaker");
}

void CircuitBreaker::begin_frame() {
  const BreakerState next = next_frame_state();
  if (state_ == BreakerState::kOpen) ++open_frame_count_;
  state_ = next;
}

void CircuitBreaker::record_success() {
  if (state_ == BreakerState::kHalfOpen) {
    ++probe_successes_;
    state_ = BreakerState::kClosed;
  }
  consecutive_failures_ = 0;
}

void CircuitBreaker::record_failure() {
  if (state_ == BreakerState::kHalfOpen) {
    ++probe_failures_;
    state_ = BreakerState::kOpen;
    open_frame_count_ = 0;
    consecutive_failures_ = 0;
    return;
  }
  if (state_ == BreakerState::kClosed && ++consecutive_failures_ >= config_.failure_threshold) {
    ++trips_;
    state_ = BreakerState::kOpen;
    open_frame_count_ = 0;
    consecutive_failures_ = 0;
  }
}

}  // namespace salnov::serving
