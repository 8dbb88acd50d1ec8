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

int64_t LatencyRing::percentile_ns(double p) const {
  if (samples_.empty()) return 0;
  if (p < 0.0 || p > 1.0) throw std::invalid_argument("LatencyRing: percentile outside [0, 1]");
  std::vector<int64_t> sorted(samples_);
  std::sort(sorted.begin(), sorted.end());
  // Nearest-rank: the smallest value with at least p of the window at or
  // below it.
  const size_t n = sorted.size();
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  return sorted[rank - 1];
}

std::string HealthSnapshot::to_json() const {
  std::ostringstream os;
  os << "{";
  os << "\"mode\":\"" << serving_mode_name(mode) << "\",";
  os << "\"breaker_state\":\"" << breaker_state_name(breaker_state) << "\",";
  os << "\"frames_total\":" << frames_total << ",";
  os << "\"frames_scored\":" << frames_scored << ",";
  os << "\"frames_abandoned\":" << frames_abandoned << ",";
  os << "\"frames_held\":" << frames_held << ",";
  os << "\"frames_sensor_bad\":" << frames_sensor_bad << ",";
  os << "\"deadline_overruns\":" << deadline_overruns << ",";
  os << "\"scoring_failures\":" << scoring_failures << ",";
  os << "\"nonfinite_scores\":" << nonfinite_scores << ",";
  os << "\"step_downs\":" << step_downs << ",";
  os << "\"promotions\":" << promotions << ",";
  os << "\"breaker_trips\":" << breaker_trips << ",";
  os << "\"probe_successes\":" << probe_successes << ",";
  os << "\"probe_failures\":" << probe_failures << ",";
  os << "\"drift_checks\":" << drift_checks << ",";
  os << "\"drift_detections\":" << drift_detections << ",";
  os << "\"threshold_swaps\":" << threshold_swaps << ",";
  os << "\"swap_persist_failures\":" << swap_persist_failures << ",";
  os << "\"threshold_epoch\":" << threshold_epoch << ",";
  os << "\"drift_state\":\"" << drift_state << "\",";
  os << "\"queue_shed\":" << queue_shed << ",";
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
    os << "\"batches\":" << cluster.batches << ",";
    os << "\"batched_frames\":" << cluster.batched_frames << ",";
    os << "\"max_batch_seals\":" << cluster.max_batch_seals << ",";
    os << "\"window_seals\":" << cluster.window_seals << ",";
    os << "\"flush_seals\":" << cluster.flush_seals << ",";
    os << "\"max_gather_wait_ns\":" << cluster.max_gather_wait_ns << ",";
    os << "\"provided_steer\":" << cluster.provided_steer << ",";
    os << "\"provided_saliency\":" << cluster.provided_saliency << ",";
    os << "\"provided_recon\":" << cluster.provided_recon << ",";
    os << "\"recon_mispredicts\":" << cluster.recon_mispredicts << ",";
    os << "\"prescreen_rejects\":" << cluster.prescreen_rejects << ",";
    os << "\"quarantines\":" << cluster.quarantines << ",";
    os << "\"probe_attempts\":" << cluster.probe_attempts << ",";
    os << "\"probe_failures\":" << cluster.probe_failures << ",";
    os << "\"restores\":" << cluster.restores << ",";
    os << "\"failovers\":" << cluster.failovers << ",";
    os << "\"redispatched_frames\":" << cluster.redispatched_frames << ",";
    os << "\"fallback_frames\":" << cluster.fallback_frames << ",";
    os << "\"shed_frames\":" << cluster.shed_frames << ",";
    os << "\"slow_batches\":" << cluster.slow_batches << ",";
    os << "\"canary_checks\":" << cluster.canary_checks << ",";
    os << "\"canary_failures\":" << cluster.canary_failures << "}";
  }
  os << "}";
  return os.str();
}

}  // namespace salnov::serving
