// Replica-fault injection: deterministic failure schedules for cluster replicas.
//
// The timing-fault injector corrupts a single pipeline's *stages*; this one
// corrupts whole *replicas* of a ServingCluster. A ReplicaFaultSchedule is a
// pure function of (replica, kind, now_ns): it answers "is this replica
// crashed / hung / slowed / weight-corrupted at this instant". The cluster's
// workers and watchdog consult the schedule against the shared Clock, so two
// runs with the same schedule and the same arrival timestamps produce
// identical quarantine/failover/restore traces — which is what lets chaos
// runs be recorded and replayed bit-exactly (trace format v4).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace salnov::faults {

/// What a scheduled replica fault does while active.
enum class ReplicaFaultKind : int {
  kCrash = 0,        ///< replica seals no batches; queued frames strand until failover
  kHang = 1,         ///< same outage as kCrash but models a stuck (not dead) worker
  kSlow = 2,         ///< each sealed batch costs an extra slow_penalty_ns
  kWeightCorrupt = 3 ///< canary clone has weight_bits bits flipped; batched compute withheld
};
inline constexpr uint32_t kReplicaFaultKindCount = 4;
static_assert(static_cast<uint32_t>(ReplicaFaultKind::kWeightCorrupt) + 1 ==
              kReplicaFaultKindCount);

/// Stable tags by ordinal, as the CLI's packed schedule spells them.
inline constexpr std::array<const char*, kReplicaFaultKindCount> kReplicaFaultKindNames = {
    "crash", "hang", "slow", "corrupt"};

const char* replica_fault_kind_name(ReplicaFaultKind kind);

/// One scheduled replica fault, active over [start_ns, end_ns).
struct ReplicaFault {
  int64_t replica = 0;
  ReplicaFaultKind kind = ReplicaFaultKind::kCrash;
  int64_t start_ns = 0;
  int64_t end_ns = 0;           ///< exclusive
  int64_t slow_penalty_ns = 0;  ///< kSlow only: extra latency per sealed batch
  int64_t weight_bits = 0;      ///< kWeightCorrupt only: bits flipped in the canary clone
  uint64_t seed = 1;            ///< kWeightCorrupt only: Rng seed for flip_weight_bits
};

/// Parses a packed schedule: ';'-separated entries of the form
///   kind:replica:start_us:end_us[:arg[:seed]]
/// with kind a kReplicaFaultKindNames entry; arg is the slowdown in us for
/// `slow` and the flipped-bit count for `corrupt` (default 64). Throws
/// std::invalid_argument on a malformed entry.
std::vector<ReplicaFault> parse_replica_faults(std::string_view packed);

/// A set of scheduled replica faults with point-in-time queries. Purely
/// passive: the cluster decides what an active fault *means* (skip sealing,
/// add latency, fail the canary); the schedule only answers what is active.
class ReplicaFaultSchedule {
 public:
  /// Adds one fault. Throws std::invalid_argument on a negative replica,
  /// an inverted or negative time window, or negative penalty/bit counts.
  void add(const ReplicaFault& fault);

  /// First fault of `kind` active on `replica` at `now_ns`, else nullptr.
  const ReplicaFault* active_of_kind(int64_t replica, ReplicaFaultKind kind,
                                     int64_t now_ns) const;

  /// Total slow-batch penalty active on `replica` at `now_ns` (sums
  /// overlapping kSlow windows). Zero when nothing matches.
  int64_t slow_penalty_ns(int64_t replica, int64_t now_ns) const;

  /// True when any fault of any kind is active on `replica` at `now_ns`.
  bool any_active(int64_t replica, int64_t now_ns) const;

  /// True when the replica is in an outage (kCrash or kHang) at `now_ns`.
  bool outage_active(int64_t replica, int64_t now_ns) const;

  const std::vector<ReplicaFault>& faults() const { return faults_; }

  void clear() { faults_.clear(); }
  bool empty() const { return faults_.empty(); }
  size_t size() const { return faults_.size(); }

 private:
  std::vector<ReplicaFault> faults_;
};

}  // namespace salnov::faults
