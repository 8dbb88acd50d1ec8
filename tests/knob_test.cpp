// Knob rows: every finite range is enforced by its struct's own validate
// function or constructor, every error names its flag, every default lies
// in range, and the parser accepts only whole values.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/knob.hpp"
#include "faults/replica_faults.hpp"
#include "faults/timing_faults.hpp"
#include "serving/circuit_breaker.hpp"
#include "serving/supervisor.hpp"
#include "serving/watchdog.hpp"
#include "trace/trace.hpp"

namespace salnov {
namespace {

/// Writes `flag_value` (in flag units) into the row's member, bypassing the
/// parser's own range check. False for rows without a numeric member.
template <typename S>
bool write_member(const Knob<S>& row, S& target, double flag_value) {
  const double v = flag_value * static_cast<double>(row.scale);
  return std::visit(
      [&](const auto& m) {
        using M = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<M, int64_t S::*>) {
          target.*m = static_cast<int64_t>(v);
        } else if constexpr (std::is_same_v<M, int S::*>) {
          target.*m = static_cast<int>(v);
        } else if constexpr (std::is_same_v<M, double S::*>) {
          target.*m = v;
        } else if constexpr (std::is_same_v<M, std::vector<int64_t> S::*>) {
          target.*m = {static_cast<int64_t>(v)};
        } else if constexpr (std::is_same_v<M, KnobAccess<S>>) {
          if (!row.choices.empty()) return false;
          m.set(target, static_cast<int64_t>(v));
        } else {
          return false;
        }
        return true;
      },
      row.member);
}

/// Walks every row: the default (`base`'s member) passes its own row and
/// shows exactly in flag units; for a finite range, min and max pass
/// `validate` and min-1 / max+1 throw std::invalid_argument naming the flag.
template <typename Rows, typename S, typename Validate>
void walk_rows(const Rows& rows, const S& base, const Validate& validate) {
  for (const Knob<S>& row : rows) {
    SCOPED_TRACE(row.flag);
    EXPECT_NO_THROW(check_knob(row, S{}, "default"));
    if (const auto* m = std::get_if<int64_t S::*>(&row.member)) {
      EXPECT_EQ((S{}.**m) % row.scale, 0) << "default does not show exactly in flag units";
    }
    S probe = base;
    if (std::isinf(row.lo) || std::isinf(row.hi) || !write_member(row, probe, row.lo)) continue;
    for (const double v : {row.lo, row.hi}) {
      S s = base;
      write_member(row, s, v);
      EXPECT_NO_THROW(validate(s)) << "value " << v;
    }
    for (const double v : {row.lo - 1, row.hi + 1}) {
      S s = base;
      write_member(row, s, v);
      try {
        validate(s);
        ADD_FAILURE() << "value " << v << " accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(std::string("--") + row.flag), std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(KnobRows, BreakerRowsAreCheckedByTheBreaker) {
  walk_rows(serving::kBreakerKnobs, serving::CircuitBreakerConfig{},
            [](const serving::CircuitBreakerConfig& c) { serving::CircuitBreaker breaker(c); });
}

TEST(KnobRows, SupervisorRowsAreCheckedByValidate) {
  walk_rows(serving::kSupervisorKnobs, serving::SupervisorConfig{},
            [](const serving::SupervisorConfig& c) { serving::validate(c); });
}

TEST(KnobRows, CalibrationRowsAreCheckedByValidate) {
  walk_rows(calib::kCalibrationKnobs, calib::OnlineCalibrationConfig{},
            [](const calib::OnlineCalibrationConfig& c) { calib::validate(c); });
}

TEST(KnobRows, StallRowsAreCheckedByTheInjector) {
  walk_rows(faults::kStallKnobs, faults::TimingFault{},
            [](const faults::TimingFault& f) { faults::TimingFaultInjector().add(f); });
}

TEST(KnobRows, WatchdogRowsAreCheckedByValidate) {
  // A base whose backoff pair holds at every extreme of either row, so
  // only the row under test can fail.
  serving::WatchdogConfig base;
  base.probe_backoff_ns = 1;
  base.max_probe_backoff_ns = int64_t{3'600'000'000'000};
  walk_rows(serving::kWatchdogKnobs, base,
            [](const serving::WatchdogConfig& c) { serving::validate(c); });
}

TEST(KnobRows, ClusterRowsAreCheckedByTheTraceSpec) {
  walk_rows(serving::kClusterKnobs, serving::ClusterKnobs{}, [](const serving::ClusterKnobs& k) {
    trace::TraceRunSpec spec;
    static_cast<serving::ClusterKnobs&>(spec.cluster) = k;
    spec.validate();
  });
}

TEST(KnobRows, TraceSpecRowsAreCheckedByValidate) {
  const auto validate = [](const trace::TraceRunSpec& spec) { spec.validate(); };
  for (const auto* rows : {&trace::kSeedKnobs, &trace::kDatasetKnobs, &trace::kFramesKnobs,
                           &trace::kFaultSeedKnobs}) {
    walk_rows(*rows, trace::TraceRunSpec{}, validate);
  }
  walk_rows(trace::kTraceClusterKnobs, trace::TraceClusterSpec{},
            [](const trace::TraceClusterSpec& cluster) {
              trace::TraceRunSpec spec;
              spec.cluster = cluster;
              spec.validate();
            });
  walk_rows(trace::kCameraFaultKnobs, trace::TraceCameraFault{},
            [](const trace::TraceCameraFault& fault) {
              trace::TraceRunSpec spec;
              spec.camera_faults = {fault};
              spec.validate();
            });
}

TEST(KnobRows, ParserTakesOnlyWholeValuesAndNamesTheFlag) {
  const auto rejects = [](const auto& row, auto target, const char* text) {
    try {
      set_knob(row, target, text);
      ADD_FAILURE() << "--" << row.flag << " accepted '" << text << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("--") + row.flag), std::string::npos)
          << e.what();
    }
  };
  const Knob<trace::TraceRunSpec>& frames = trace::kFramesKnobs[0];
  for (const char* text : {"abc", "3x", "1e6", "", "-1", "1000000001"}) {
    rejects(frames, trace::TraceRunSpec{}, text);
  }
  rejects(trace::kDatasetKnobs[0], trace::TraceRunSpec{}, "marslander");
  rejects(trace::kCameraFaultKnobs[0], trace::TraceCameraFault{}, "frozen");
  rejects(trace::kCameraFaultKnobs[1], trace::TraceCameraFault{}, "nan");
  rejects(trace::kTraceClusterKnobs[2], trace::TraceClusterSpec{}, "melt:0:0:10");

  trace::TraceRunSpec spec;
  set_knob(frames, spec, "12");
  EXPECT_EQ(spec.frames, 12);
  serving::ClusterKnobs knobs;
  set_knob(serving::kClusterKnobs[1], knobs, "4000");  // --batch-window-us, in microseconds
  EXPECT_EQ(knobs.gather_window_ns, 4'000'000);
  trace::TraceCameraFault fault;
  set_knob(trace::kCameraFaultKnobs[0], fault, "occlusion");
  EXPECT_EQ(fault.fault, faults::CameraFault::kOcclusion);
  EXPECT_STREQ(knob_flag(serving::kWatchdogKnobs, &serving::WatchdogConfig::probe_backoff_ns),
               "probe-backoff-us");
}

TEST(KnobRows, PackedReplicaFaultScheduleParses) {
  const auto faults =
      faults::parse_replica_faults("crash:0:0:20000;slow:1:40000:65000:20000;corrupt:1:5:9;"
                                   "corrupt:0:1:2:16:7");
  ASSERT_EQ(faults.size(), 4u);
  EXPECT_EQ(faults[0].kind, faults::ReplicaFaultKind::kCrash);
  EXPECT_EQ(faults[0].end_ns, 20'000'000);
  EXPECT_EQ(faults[1].replica, 1);
  EXPECT_EQ(faults[1].slow_penalty_ns, 20'000'000);
  EXPECT_EQ(faults[2].kind, faults::ReplicaFaultKind::kWeightCorrupt);
  EXPECT_EQ(faults[2].weight_bits, 64);
  EXPECT_EQ(faults[3].weight_bits, 16);
  EXPECT_EQ(faults[3].seed, 7u);
  EXPECT_THROW(faults::parse_replica_faults("crash:0:0"), std::invalid_argument);
  EXPECT_THROW(faults::parse_replica_faults("crash:0:0:1x"), std::invalid_argument);
}

}  // namespace
}  // namespace salnov
