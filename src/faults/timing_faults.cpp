#include "faults/timing_faults.hpp"

#include <stdexcept>
#include <string>

namespace salnov::faults {

void TimingFaultInjector::add(const TimingFault& fault) {
  check_knobs(kStallKnobs, fault, "TimingFaultInjector");
  if (fault.last_frame < fault.first_frame) {
    throw std::invalid_argument(std::string("TimingFaultInjector: --") +
                                knob_flag(kStallKnobs, &TimingFault::last_frame) + " before --" +
                                knob_flag(kStallKnobs, &TimingFault::first_frame));
  }
  faults_.push_back(fault);
}

int64_t TimingFaultInjector::stall_ns(int stage, int64_t frame) const {
  int64_t total = 0;
  for (const TimingFault& fault : faults_) {
    if (fault.stage != stage) continue;
    if (frame < fault.first_frame || frame > fault.last_frame) continue;
    if ((frame - fault.first_frame) % fault.period != 0) continue;
    total += fault.stall_ns;
  }
  return total;
}

}  // namespace salnov::faults
