#include "serving/health.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace salnov::serving {
namespace {

/// JSON has no NaN/Inf literal: render non-finite gauges as null, finite
/// ones with enough digits to round-trip a double.
std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

const char* stage_name(Stage stage) {
  constexpr std::array<const char*, kStageCount> kNames = {"validate", "steer", "saliency",
                                                           "reconstruct", "score"};
  return kNames[static_cast<size_t>(stage)];
}

LatencyRing::LatencyRing(size_t capacity) : capacity_(capacity) {
  if (capacity < 1) throw std::invalid_argument("LatencyRing: capacity must be >= 1");
  samples_.reserve(capacity);
}

void LatencyRing::push(int64_t ns) {
  if (samples_.size() < capacity_) {
    samples_.push_back(ns);
  } else {
    samples_[next_] = ns;
    full_ = true;
  }
  next_ = (next_ + 1) % capacity_;
  ++total_;
}

int64_t nearest_rank_ns(std::vector<int64_t> samples, double p) {
  if (samples.empty()) return 0;
  if (p < 0.0 || p > 1.0) throw std::invalid_argument("LatencyRing: percentile outside [0, 1]");
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  return samples[rank - 1];
}

int64_t LatencyRing::percentile_ns(double p) const { return nearest_rank_ns(samples_, p); }

std::string HealthSnapshot::to_json() const {
  std::ostringstream os;
  os << "{";
  os << "\"mode\":\"" << serving_mode_name(mode) << "\",";
  os << "\"breaker_state\":\"" << breaker_state_name(breaker_state) << "\",";
  for (const auto& row : kHealthCounters) {
    // drift_state, the one string among the counters, sits before queue_shed.
    if (row.member == &HealthSnapshot::queue_shed) {
      os << "\"drift_state\":\"" << drift_state << "\",";
    }
    os << "\"" << row.name << "\":" << this->*row.member << ",";
  }
  os << "\"stages\":[";
  for (size_t s = 0; s < stages.size(); ++s) {
    const StageHealth& stage = stages[s];
    if (s > 0) os << ",";
    os << "{\"name\":\"" << stage.name << "\",";
    os << "\"overruns\":" << stage.overruns << ",";
    os << "\"samples\":" << stage.samples << ",";
    os << "\"p50_ns\":" << stage.p50_ns << ",";
    os << "\"p99_ns\":" << stage.p99_ns << "}";
  }
  os << "],";
  os << "\"shadow\":[";
  for (size_t g = 0; g < shadow.size(); ++g) {
    const ShadowGauge& gauge = shadow[g];
    if (g > 0) os << ",";
    os << "{\"rung\":\"" << gauge.rung << "\",";
    os << "\"shadow_samples\":" << gauge.shadow_samples << ",";
    os << "\"shadow_quantile\":" << json_number(gauge.shadow_quantile) << ",";
    os << "\"served_threshold\":" << json_number(gauge.served_threshold) << ",";
    os << "\"eligible\":" << (gauge.eligible ? "true" : "false") << "}";
  }
  os << "]";
  if (has_cluster) {
    os << ",\"cluster\":{";
    for (size_t r = 0; r < kClusterCounters.size(); ++r) {
      if (r > 0) os << ",";
      os << "\"" << kClusterCounters[r].name << "\":" << cluster.*kClusterCounters[r].member;
    }
    os << "}";
  }
  os << "}";
  return os.str();
}

}  // namespace salnov::serving
