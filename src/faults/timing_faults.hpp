// Timing-fault injection: deterministic per-stage stalls and spikes.
//
// The camera-fault injector corrupts *pixels*; this injector corrupts
// *time*. A serving pipeline's watchdog and degraded-mode ladder react to
// stages blowing their wall-clock budgets, and those reactions must be
// testable without relying on a loaded CI machine to be slow in just the
// right way. A TimingFaultInjector is a pure schedule: for a (stage, frame)
// pair it answers "how much extra latency does this stage suffer on this
// frame", and the serving executor turns that answer into a real sleep
// (SteadyClock) or an instantaneous advance (FakeClock). No randomness:
// two runs of the same schedule produce identical overrun/fallback traces.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/knob.hpp"

namespace salnov::faults {

/// One scheduled stall. `stage` is a pipeline stage index (the serving
/// layer's Stage enum values); the fault applies to frames in
/// [first_frame, last_frame] whose offset from first_frame is a multiple of
/// `period` (period 1 = a sustained stall, period N = a latency spike every
/// N-th frame).
struct TimingFault {
  int stage = 0;
  int64_t stall_ns = 0;
  int64_t first_frame = 0;
  int64_t last_frame = std::numeric_limits<int64_t>::max();  ///< inclusive
  int64_t period = 1;
};

/// TimingFault's knobs: one --stall-* flag schedules one stall.
inline constexpr Knob<TimingFault> kStallKnobs[] = {
    {.flag = "stall-stage", .member = &TimingFault::stage,
     .doc = "stalled stage: 0 validate, 1 steer, 2 saliency, 3 reconstruct, 4 score", .lo = 0,
     .hi = 4},
    {.flag = "stall-ns", .member = &TimingFault::stall_ns, .doc = "extra latency per stalled frame",
     .lo = 0, .hi = 1e12},
    {.flag = "stall-first", .member = &TimingFault::first_frame, .doc = "first stalled frame",
     .lo = 0, .hi = kNoBound},
    {.flag = "stall-last", .member = &TimingFault::last_frame,
     .doc = "last stalled frame (inclusive; default: no end)", .lo = 0, .hi = kNoBound},
    {.flag = "stall-period", .member = &TimingFault::period,
     .doc = "stall every N-th frame from the first", .lo = 1, .hi = 1e9},
};

class TimingFaultInjector {
 public:
  /// Adds one fault to the schedule. Throws std::invalid_argument on a
  /// field outside its kStallKnobs row or an inverted frame range.
  void add(const TimingFault& fault);

  /// Total extra latency scheduled for `stage` on `frame` (sums overlapping
  /// faults). Zero when nothing matches.
  int64_t stall_ns(int stage, int64_t frame) const;

  bool empty() const { return faults_.empty(); }

 private:
  std::vector<TimingFault> faults_;
};

}  // namespace salnov::faults
