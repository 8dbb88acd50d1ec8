#include "serving/watchdog.hpp"

#include <algorithm>
#include <stdexcept>

namespace salnov::serving {

const char* cluster_event_kind_name(ClusterEventKind kind) {
  switch (kind) {
    case ClusterEventKind::kQuarantine: return "quarantine";
    case ClusterEventKind::kProbeFailure: return "probe_failure";
    case ClusterEventKind::kRestore: return "restore";
    case ClusterEventKind::kFailover: return "failover";
    case ClusterEventKind::kRedispatch: return "redispatch";
    case ClusterEventKind::kFallback: return "fallback";
    case ClusterEventKind::kShed: return "shed";
  }
  return "unknown";
}

void validate(const WatchdogConfig& config) {
  check_knobs(kWatchdogKnobs, config, "WatchdogConfig");
  if (config.max_probe_backoff_ns < config.probe_backoff_ns) {
    throw std::invalid_argument(
        std::string("WatchdogConfig: --") +
        knob_flag(kWatchdogKnobs, &WatchdogConfig::max_probe_backoff_ns) + " below --" +
        knob_flag(kWatchdogKnobs, &WatchdogConfig::probe_backoff_ns));
  }
  if (!(config.canary_epsilon >= 0.0)) {
    throw std::invalid_argument("WatchdogConfig: canary epsilon must be >= 0");
  }
}

ReplicaWatchdog::ReplicaWatchdog(int64_t replicas, const WatchdogConfig& config)
    : config_(config) {
  if (replicas <= 0) {
    throw std::invalid_argument("ReplicaWatchdog: replicas must be >= 1");
  }
  validate(config);
  replicas_.resize(static_cast<size_t>(replicas));
}

bool ReplicaWatchdog::charge_outage(int64_t replica, int64_t window_start_ns,
                                    int64_t now_ns) {
  PerReplica& r = replicas_[static_cast<size_t>(replica)];
  if (r.state != ReplicaState::kHealthy) return false;
  if (r.outage_window_start_ns != window_start_ns) {
    // A new outage window (different oldest-frame timestamp): start fresh
    // accounting but keep misses already accumulated from earlier windows.
    r.outage_window_start_ns = window_start_ns;
    r.outage_misses_charged = 0;
  }
  const int64_t misses_now = (now_ns - window_start_ns) / config_.batch_deadline_ns;
  if (misses_now > r.outage_misses_charged) {
    r.missed_deadlines += static_cast<int>(misses_now - r.outage_misses_charged);
    r.outage_misses_charged = misses_now;
  }
  return r.missed_deadlines >= config_.missed_deadlines_to_quarantine;
}

bool ReplicaWatchdog::charge_heartbeat_silence(int64_t replica,
                                               int64_t last_heartbeat_ns,
                                               int64_t now_ns) {
  const PerReplica& r = replicas_[static_cast<size_t>(replica)];
  if (r.state != ReplicaState::kHealthy) return false;
  return now_ns - last_heartbeat_ns > config_.heartbeat_timeout_ns;
}

bool ReplicaWatchdog::canary_due(int64_t replica, int64_t now_ns) {
  if (config_.canary_period_ns <= 0) return false;
  PerReplica& r = replicas_[static_cast<size_t>(replica)];
  if (r.state != ReplicaState::kHealthy) return false;
  if (now_ns < r.last_canary_check_ns + config_.canary_period_ns) return false;
  r.last_canary_check_ns = now_ns;
  return true;
}

bool ReplicaWatchdog::charge_canary_failure(int64_t replica) {
  PerReplica& r = replicas_[static_cast<size_t>(replica)];
  r.canary_failures += 1;
  return r.canary_failures >= config_.canary_failures_to_quarantine;
}

void ReplicaWatchdog::note_canary_ok(int64_t replica) {
  replicas_[static_cast<size_t>(replica)].canary_failures = 0;
}

void ReplicaWatchdog::quarantine(int64_t replica, int64_t now_ns) {
  PerReplica& r = replicas_[static_cast<size_t>(replica)];
  r.state = ReplicaState::kQuarantined;
  r.missed_deadlines = 0;
  r.canary_failures = 0;
  r.outage_window_start_ns = -1;
  r.outage_misses_charged = 0;
  r.probe_backoff_ns = config_.probe_backoff_ns;
  r.next_probe_ns = now_ns + r.probe_backoff_ns;
}

bool ReplicaWatchdog::probe_due(int64_t replica, int64_t now_ns) const {
  const PerReplica& r = replicas_[static_cast<size_t>(replica)];
  return r.state == ReplicaState::kQuarantined && now_ns >= r.next_probe_ns;
}

void ReplicaWatchdog::begin_probe(int64_t replica) {
  replicas_[static_cast<size_t>(replica)].state = ReplicaState::kHalfOpen;
  probe_attempts_ += 1;
}

void ReplicaWatchdog::probe_failed(int64_t replica, int64_t now_ns) {
  PerReplica& r = replicas_[static_cast<size_t>(replica)];
  r.state = ReplicaState::kQuarantined;
  r.probe_backoff_ns = std::min(r.probe_backoff_ns * 2, config_.max_probe_backoff_ns);
  r.next_probe_ns = now_ns + r.probe_backoff_ns;
}

void ReplicaWatchdog::restore(int64_t replica) {
  PerReplica& r = replicas_[static_cast<size_t>(replica)];
  r.state = ReplicaState::kHealthy;
  r.missed_deadlines = 0;
  r.canary_failures = 0;
  r.outage_window_start_ns = -1;
  r.outage_misses_charged = 0;
  r.last_canary_check_ns = 0;
}

}  // namespace salnov::serving
