// Per-replica watchdog: the cluster's circuit breaker over whole replicas.
//
// The saliency CircuitBreaker guards one *stage* of one supervisor; the
// ReplicaWatchdog guards one *replica* of the cluster. It tracks, per
// replica, a kHealthy → kQuarantined → kHalfOpen state machine driven by
// symptoms the cluster reports: missed batch deadlines (a batch sat queued
// past batch_deadline_ns), heartbeat silence (the worker thread stopped
// stamping last-seen times), and canary failures (the replica's weights no
// longer produce a known-good score on a fixed probe frame). Quarantined
// replicas are retried via a half-open probe with exponential backoff; a
// probe success restores the replica and the cluster rebalances streams
// back home.
//
// The watchdog itself is passive and single-threaded: the cluster calls it
// from deterministic tick points (submit/drain) under its routing lock, so
// given the same fault schedule and arrival timestamps the quarantine /
// probe / restore event sequence is identical across runs — the property
// the v4 trace format records and replays.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/knob.hpp"

namespace salnov::serving {

/// Knobs for replica failure detection and recovery. Disabled by default:
/// a cluster built without a watchdog behaves exactly like PR 7's.
struct WatchdogConfig {
  bool enabled = false;
  /// A queued batch older than this counts as a missed deadline.
  int64_t batch_deadline_ns = 10'000'000;
  /// Worker silence (no heartbeat stamp) past this is an outage symptom.
  int64_t heartbeat_timeout_ns = 50'000'000;
  /// Missed deadlines before the replica is quarantined.
  int missed_deadlines_to_quarantine = 2;
  /// Period between canary probes of healthy replicas (0 = never).
  int64_t canary_period_ns = 0;
  /// Canary failures before a healthy replica is quarantined.
  int canary_failures_to_quarantine = 1;
  /// Initial half-open probe backoff; doubles per failed probe.
  int64_t probe_backoff_ns = 8'000'000;
  int64_t max_probe_backoff_ns = 64'000'000;
  /// Frame re-dispatch budget; past it the frame falls back to its
  /// stream's private Supervisor ladder (batch-1, identical bits).
  int64_t max_redispatches = 3;
  /// |canary steering − known-good| beyond this fails the probe.
  double canary_epsilon = 1e-3;
};

/// WatchdogConfig's knobs, in microseconds on the CLI. Timeouts need only
/// be positive: 0.001 us is the library's 1 ns floor.
inline constexpr Knob<WatchdogConfig> kWatchdogKnobs[] = {
    {.flag = "watchdog", .member = &WatchdogConfig::enabled,
     .doc = "health-checked replica failover (quarantine, probe, restore)"},
    {.flag = "batch-deadline-us", .member = &WatchdogConfig::batch_deadline_ns,
     .doc = "a queued batch older than this is a missed deadline", .lo = 1e-3, .hi = 3.6e9,
     .scale = 1000},
    {.flag = "heartbeat-timeout-us", .member = &WatchdogConfig::heartbeat_timeout_ns,
     .doc = "worker silence that counts as an outage", .lo = 1e-3, .hi = 3.6e9,
     .scale = 1000},
    {.flag = "missed-deadlines", .member = &WatchdogConfig::missed_deadlines_to_quarantine,
     .doc = "missed deadlines that quarantine a replica", .lo = 1, .hi = 1e6},
    {.flag = "canary-period-us", .member = &WatchdogConfig::canary_period_ns,
     .doc = "period of canary checks on healthy replicas (0 = never)", .lo = 0, .hi = 3.6e9,
     .scale = 1000},
    {.flag = "canary-failures", .member = &WatchdogConfig::canary_failures_to_quarantine,
     .doc = "canary failures that quarantine a replica", .lo = 1, .hi = 1e6},
    {.flag = "probe-backoff-us", .member = &WatchdogConfig::probe_backoff_ns,
     .doc = "initial half-open probe backoff; doubles per failed probe", .lo = 1e-3, .hi = 3.6e9,
     .scale = 1000},
    {.flag = "max-probe-backoff-us", .member = &WatchdogConfig::max_probe_backoff_ns,
     .doc = "cap on the probe backoff", .lo = 1e-3, .hi = 3.6e9, .scale = 1000},
    {.flag = "max-redispatches", .member = &WatchdogConfig::max_redispatches,
     .doc = "re-dispatch budget before a frame is served inline", .lo = 0, .hi = 1e6},
};

/// Throws std::invalid_argument on unusable knobs: a field outside its
/// kWatchdogKnobs row, a max probe backoff below the initial one, or a
/// negative or NaN canary epsilon. Used by ReplicaWatchdog's constructor and
/// TraceRunSpec::validate.
void validate(const WatchdogConfig& config);

enum class ReplicaState : int { kHealthy = 0, kQuarantined = 1, kHalfOpen = 2 };

/// What happened to the cluster's failure domain, in decision order.
/// Recorded into v4 traces and diffed by the replay harness.
enum class ClusterEventKind : int {
  kQuarantine = 0,    ///< replica pulled from rotation
  kProbeFailure = 1,  ///< half-open probe did not pass; backoff doubled
  kRestore = 2,       ///< half-open probe passed; replica healthy again
  kFailover = 3,      ///< a stream's pending frames migrated between replicas
  kRedispatch = 4,    ///< queued frames re-dispatched (charged against budget)
  kFallback = 5,      ///< frame(s) processed inline on the stream's Supervisor
  kShed = 6,          ///< admission credits exhausted; a frame was shed
};
inline constexpr uint32_t kClusterEventKindCount = 7;
static_assert(static_cast<uint32_t>(ClusterEventKind::kShed) + 1 == kClusterEventKindCount);

const char* cluster_event_kind_name(ClusterEventKind kind);

struct ClusterEvent {
  ClusterEventKind kind = ClusterEventKind::kQuarantine;
  int64_t at_ns = 0;
  int64_t replica = -1;  ///< -1 when not replica-scoped (e.g. kShed)
  int64_t stream = -1;   ///< -1 when not stream-scoped (e.g. kQuarantine)
  int64_t detail = 0;    ///< kind-specific: frames moved, misses charged, ...
};

/// Per-replica failure-detection state machine. Not thread-safe; the
/// cluster serializes all calls under its routing lock.
class ReplicaWatchdog {
 public:
  ReplicaWatchdog(int64_t replicas, const WatchdogConfig& config);

  ReplicaState state(int64_t replica) const { return replicas_[replica].state; }
  bool healthy(int64_t replica) const {
    return replicas_[replica].state == ReplicaState::kHealthy;
  }

  /// Charges missed-deadline symptoms for an outage window that began at
  /// `window_start_ns`. Misses are derived from elapsed time (one per
  /// batch_deadline_ns) and charged incrementally, so repeated ticks over
  /// the same window never double-count. Returns true when the replica
  /// has accumulated enough misses to quarantine.
  bool charge_outage(int64_t replica, int64_t window_start_ns, int64_t now_ns);

  /// Charges heartbeat silence since `last_heartbeat_ns`. Returns true
  /// when the silence exceeds heartbeat_timeout_ns (quarantine the replica).
  bool charge_heartbeat_silence(int64_t replica, int64_t last_heartbeat_ns,
                                int64_t now_ns);

  /// True when a periodic canary check is due for a healthy replica; stamps
  /// the check time so the next check waits a full period.
  bool canary_due(int64_t replica, int64_t now_ns);

  /// Returns true when accumulated canary failures reach the threshold.
  bool charge_canary_failure(int64_t replica);
  void note_canary_ok(int64_t replica);

  void quarantine(int64_t replica, int64_t now_ns);

  /// True when a quarantined replica's probe backoff has elapsed.
  bool probe_due(int64_t replica, int64_t now_ns) const;
  void begin_probe(int64_t replica);
  void probe_failed(int64_t replica, int64_t now_ns);
  void restore(int64_t replica);

  int64_t probe_attempts() const { return probe_attempts_; }

 private:
  struct PerReplica {
    ReplicaState state = ReplicaState::kHealthy;
    // Outage accounting: misses already charged for the current window.
    int64_t outage_window_start_ns = -1;
    int64_t outage_misses_charged = 0;
    int missed_deadlines = 0;
    int canary_failures = 0;
    int64_t last_canary_check_ns = 0;
    // Quarantine/probe bookkeeping.
    int64_t next_probe_ns = 0;
    int64_t probe_backoff_ns = 0;
  };

  WatchdogConfig config_;
  std::vector<PerReplica> replicas_;
  int64_t probe_attempts_ = 0;
};

}  // namespace salnov::serving
