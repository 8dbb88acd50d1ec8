#include "faults/replica_faults.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>
#include <string>

namespace salnov::faults {

const char* replica_fault_kind_name(ReplicaFaultKind kind) {
  return kReplicaFaultKindNames[static_cast<size_t>(kind)];
}

std::vector<ReplicaFault> parse_replica_faults(std::string_view packed) {
  std::vector<ReplicaFault> out;
  const auto number = [](std::string_view entry, std::string_view text, auto& value) {
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end || text.empty()) {
      throw std::invalid_argument("bad number '" + std::string(text) + "' in entry '" +
                                  std::string(entry) + "'");
    }
  };
  while (!packed.empty()) {
    const size_t semi = packed.find(';');
    const std::string_view entry = packed.substr(0, semi);
    packed = semi == std::string_view::npos ? std::string_view() : packed.substr(semi + 1);
    if (entry.empty()) continue;
    std::vector<std::string_view> fields;
    for (std::string_view rest = entry;;) {
      const size_t colon = rest.find(':');
      fields.push_back(rest.substr(0, colon));
      if (colon == std::string_view::npos) break;
      rest = rest.substr(colon + 1);
    }
    if (fields.size() < 4 || fields.size() > 6) {
      throw std::invalid_argument("bad entry '" + std::string(entry) +
                                  "' (want kind:replica:start_us:end_us[:arg[:seed]])");
    }
    const auto kind = std::find(kReplicaFaultKindNames.begin(), kReplicaFaultKindNames.end(),
                                fields[0]);
    if (kind == kReplicaFaultKindNames.end()) {
      std::string kinds;
      for (const char* name : kReplicaFaultKindNames) {
        if (!kinds.empty()) kinds += '|';
        kinds += name;
      }
      throw std::invalid_argument("unknown replica fault kind '" + std::string(fields[0]) + "' (" +
                                  kinds + ")");
    }
    ReplicaFault fault;
    fault.kind = static_cast<ReplicaFaultKind>(kind - kReplicaFaultKindNames.begin());
    int64_t start_us = 0, end_us = 0, arg = 0;
    number(entry, fields[1], fault.replica);
    number(entry, fields[2], start_us);
    number(entry, fields[3], end_us);
    fault.start_ns = start_us * 1000;
    fault.end_ns = end_us * 1000;
    if (fields.size() > 4) number(entry, fields[4], arg);
    if (fault.kind == ReplicaFaultKind::kSlow) {
      fault.slow_penalty_ns = arg * 1000;
    } else if (fault.kind == ReplicaFaultKind::kWeightCorrupt) {
      fault.weight_bits = fields.size() > 4 ? arg : 64;
    }
    if (fields.size() > 5) number(entry, fields[5], fault.seed);
    out.push_back(fault);
  }
  return out;
}

void ReplicaFaultSchedule::add(const ReplicaFault& fault) {
  if (fault.replica < 0) {
    throw std::invalid_argument("ReplicaFaultSchedule: negative replica");
  }
  if (fault.start_ns < 0 || fault.end_ns <= fault.start_ns) {
    throw std::invalid_argument("ReplicaFaultSchedule: bad time window");
  }
  if (fault.slow_penalty_ns < 0) {
    throw std::invalid_argument("ReplicaFaultSchedule: negative slow penalty");
  }
  if (fault.weight_bits < 0) {
    throw std::invalid_argument("ReplicaFaultSchedule: negative weight bits");
  }
  faults_.push_back(fault);
}

const ReplicaFault* ReplicaFaultSchedule::active_of_kind(int64_t replica,
                                                         ReplicaFaultKind kind,
                                                         int64_t now_ns) const {
  for (const ReplicaFault& fault : faults_) {
    if (fault.replica != replica || fault.kind != kind) continue;
    if (now_ns < fault.start_ns || now_ns >= fault.end_ns) continue;
    return &fault;
  }
  return nullptr;
}

int64_t ReplicaFaultSchedule::slow_penalty_ns(int64_t replica, int64_t now_ns) const {
  int64_t total = 0;
  for (const ReplicaFault& fault : faults_) {
    if (fault.replica != replica || fault.kind != ReplicaFaultKind::kSlow) continue;
    if (now_ns < fault.start_ns || now_ns >= fault.end_ns) continue;
    total += fault.slow_penalty_ns;
  }
  return total;
}

bool ReplicaFaultSchedule::any_active(int64_t replica, int64_t now_ns) const {
  for (const ReplicaFault& fault : faults_) {
    if (fault.replica != replica) continue;
    if (now_ns < fault.start_ns || now_ns >= fault.end_ns) continue;
    return true;
  }
  return false;
}

bool ReplicaFaultSchedule::outage_active(int64_t replica, int64_t now_ns) const {
  return active_of_kind(replica, ReplicaFaultKind::kCrash, now_ns) != nullptr ||
         active_of_kind(replica, ReplicaFaultKind::kHang, now_ns) != nullptr;
}

}  // namespace salnov::faults
