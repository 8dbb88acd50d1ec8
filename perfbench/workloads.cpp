// Workload runners. A monitor workload serves one camera on one Supervisor;
// a fleet workload serves many camera streams on a ServingCluster. Both are
// measured the same way:
//
//   closed loop  -> frames_per_s, frame_p50_ms (reported), frame_p99_ms
//   open loop    -> lat_p{50,90}_ms.{lo,hi} at the two fixed offered rates
//   rate ladder  -> max_rate_fps, the highest ladder rate whose p90 meets the
//                   latency limit without a growing backlog
// Only the closed-loop pair is reported; the open-loop figures are printed.
//
// Completions are observed from outside the program (the monitor's process()
// returns; the fleet's ServingCluster::take_results() is polled between due
// times), and every served frame is checked against its batch-1 reference.
//
// A traced run (--trace 1) reports per-layer metrics instead. It records
// spans around the benchmark's own calls into the public entry points of
// src/core, src/driving, src/saliency, src/metrics and src/serving: the
// monitor runs each frame's stages itself and hands them to the Supervisor
// as ProvidedCompute; the fleet replays the batches the cluster formed
// through the same batched entry points the cluster calls.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "bench.hpp"
#include "core/pipeline_io.hpp"
#include "driving/steering_trainer.hpp"
#include "nn/dense.hpp"
#include "serving/cluster.hpp"
#include "tensor/workspace.hpp"

namespace perfbench {

using namespace salnov;

namespace {

constexpr double kMs = 1e-6;            // ns -> ms
constexpr int64_t kPollNs = 100'000;    // fleet completion polling interval
constexpr int64_t kHeight = 60;         // paper pipeline resolution
constexpr int64_t kWidth = 160;
constexpr int64_t kMonitorWarmup = 8;   // frames served during each monitor set-up
constexpr int64_t kInflight = 2;        // fleet closed loop: frames outstanding per stream

// Open-loop limits. 33 ms is one camera frame period at 30 fps. The ladder
// is absolute (kLadderBase * kLadderRatio^i frames/s) and the same on every
// commit; steps 3% apart keep a one-step flip inside a tenth.
constexpr double kLatencyLimitMs = 33.0;
constexpr double kLadderBase = 100.0;
constexpr double kLadderRatio = 1.03;
constexpr int64_t kLadderProbes = 6;    // probes spent searching the ladder

// An untraced run is kRounds rounds; each spends these shares of its time
// on a closed-loop slice, each fixed-rate step, and one ladder probe.
constexpr int kRounds = 6;
constexpr double kClosedShare = 0.45;
constexpr double kStepShare = 0.10;     // each of the lo and hi steps
constexpr double kLadderShare = 0.35;
// A traced run spends these shares of --seconds on untraced frames, traced
// frames (or replayed batches), and each fixed-rate step.
constexpr double kTracedShare = 0.30;

// The ladder search treats rungs above this multiple of the closed-loop
// throughput as failing.
constexpr double kLadderCeiling = 1.25;
// An open-loop step stops offering frames once this many seconds of
// arrivals are queued: it has failed, and a longer queue only costs time
// and memory.
constexpr double kAbortBacklogS = 0.25;

// The lo/hi rates were chosen once, from the open-loop capacity measured when
// the benchmark was defined (README.md), and must stay the same.
const Workload kWorkloads[] = {
    {"monitor_b1", "monitor", "vbp_ssim", 1, 0, 300.0, 450.0},
    {"fleet_vbp_ssim", "fleet", "vbp_ssim", 32, 3, 700.0, 1100.0},
    {"fleet_raw_mse", "fleet", "raw_mse", 32, 3, 4000.0, 7000.0},
};

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

namespace {

/// Loads the fitted pipeline and checks it serves the pool's resolution (a
/// mismatch would turn every frame into a cheap sensor_bad rejection).
core::LoadedPipeline load_pipeline(const Options& opt) {
  const std::string path = pipeline_file(opt.cache_dir, opt.wl->pipeline);
  core::LoadedPipeline loaded = core::PipelineIo::load_file(path);
  if (loaded.detector->config().height != kHeight || loaded.detector->config().width != kWidth) {
    throw std::runtime_error("pipeline " + path + " does not serve 60x160 frames");
  }
  return loaded;
}

serving::SupervisorConfig supervisor_config() {
  serving::SupervisorConfig config;
  config.stage_budget_ns.fill(0);  // budgets off: every frame does the same work
  config.frame_budget_ns = 0;
  return config;
}

/// The rung a healthy frame is served on: the saliency rung when the
/// pipeline has one, raw+MSE otherwise.
serving::ServingMode top_mode(const core::NoveltyDetector& detector) {
  return core::uses_saliency(detector.config().preprocessing) ? serving::ServingMode::kVbpSsim
                                                              : serving::ServingMode::kRawMse;
}

double stage_sum_ns(const serving::ServeResult& r) {
  double acc = 0.0;
  for (int64_t ns : r.stage_ns) acc += static_cast<double>(ns);
  return acc;
}

/// FLOPs and weight bytes of one autoencoder forward, from its Dense shapes.
struct AeCost {
  double flops = 0.0;
  double weight_bytes = 0.0;
  std::string shape;
};

AeCost ae_cost(core::NoveltyDetector& detector) {
  AeCost cost;
  nn::Sequential& ae = detector.autoencoder();
  for (size_t i = 0; i < ae.size(); ++i) {
    const auto* dense = dynamic_cast<const nn::Dense*>(&ae.layer(i));
    if (dense == nullptr) continue;
    const double in = static_cast<double>(dense->in_features());
    const double out = static_cast<double>(dense->out_features());
    cost.flops += 2.0 * in * out;
    cost.weight_bytes += 4.0 * (in * out + out);
    if (!cost.shape.empty()) cost.shape += ' ';
    cost.shape += std::to_string(dense->in_features());
    cost.shape += 'x';
    cost.shape += std::to_string(dense->out_features());
  }
  return cost;
}

/// Latency recorded for a failed frame: it misses every latency limit.
constexpr double kFailedMs = std::numeric_limits<double>::infinity();

/// Where frames go. send() offers one frame now; poll() collects finished
/// frames and appends each one's due -> observed latency (kFailedMs for a
/// failed frame).
class Server {
 public:
  virtual ~Server() = default;
  virtual void send(int64_t due_ns) = 0;
  virtual void poll(std::vector<double>& latency_ms) = 0;
  virtual int64_t completed() const = 0;
  /// True when send() returns only after the frame is served.
  virtual bool synchronous() const = 0;
};

/// One open-loop step at a fixed offered rate.
struct Step {
  double rate = 0.0;
  int64_t frames = 0;
  std::vector<double> latency_ms;  ///< due -> observed completion
  std::vector<double> late_ms;     ///< how late each frame was sent
  std::vector<double> poll_gap_us;
  int64_t backlog_mid = 0;  ///< frames due but not completed, half-way through
  int64_t backlog_end = 0;  ///< ... when the last frame fell due
  int64_t backlog_max = 0;
  bool aborted = false;  ///< stopped early: the backlog passed kAbortBacklogS of arrivals

  double p50() const { return percentile(latency_ms, 0.50); }
  /// The open-loop tail. p90, not p99: a single-core stall of the host
  /// queues every frame behind it, so an open-loop p99 on a shared host is
  /// set by how many such stalls a run happens to catch.
  double p90() const { return percentile(latency_ms, 0.90); }
  double p99() const { return percentile(latency_ms, 0.99); }
  /// The backlog grew by more than one latency limit's worth of arrivals
  /// over the second half of the step.
  bool backlog_grows(double limit_ms) const {
    return static_cast<double>(backlog_end - backlog_mid) > std::max(1.0, rate * limit_ms * 1e-3);
  }
};

Step open_loop(Server& server, double rate, double seconds) {
  Step st;
  st.rate = rate;
  st.frames = std::max<int64_t>(2, std::llround(rate * seconds));
  const double period = 1e9 / rate;
  const int64_t t0 = now_ns() + 1'000'000;
  const int64_t base = server.completed();
  auto due = [&](int64_t k) { return t0 + static_cast<int64_t>(static_cast<double>(k) * period); };
  // Frames due by `t` (by the schedule, so a late generator still counts
  // them) minus frames completed; `capped` stops counting past the last one.
  auto backlog = [&](int64_t t, bool capped) {
    int64_t due_count = t < t0 ? 0 : static_cast<int64_t>(static_cast<double>(t - t0) / period) + 1;
    if (capped) due_count = std::min(due_count, st.frames);
    return due_count - (server.completed() - base);
  };
  const int64_t give_up = due(st.frames - 1) + 20'000'000'000;
  int64_t k = 0;
  int64_t last_poll = 0;
  while (true) {
    int64_t now = now_ns();
    if (k < st.frames && backlog(now, false) > std::max<double>(64.0, rate * kAbortBacklogS)) {
      st.aborted = true;  // hopelessly overloaded: stop offering, drain what was sent
      st.frames = k;
    }
    while (k < st.frames && due(k) <= now) {
      if (k == st.frames / 2) st.backlog_mid = backlog(now, false);
      if (k == st.frames - 1) st.backlog_end = backlog(now, false);
      st.late_ms.push_back(static_cast<double>(now - due(k)) * kMs);
      server.send(due(k));
      ++k;
      now = now_ns();
    }
    if (last_poll != 0) st.poll_gap_us.push_back(static_cast<double>(now - last_poll) * 1e-3);
    last_poll = now;
    server.poll(st.latency_ms);
    st.backlog_max = std::max(st.backlog_max, backlog(now_ns(), true));
    if (k == st.frames && server.completed() - base >= st.frames) break;
    if (now > give_up) {
      st.aborted = true;
      break;
    }
    const int64_t next = k < st.frames ? due(k) : now + kPollNs;
    if (server.synchronous()) {
      wait_until(next, true);
    } else {
      wait_until(std::min(next, now + kPollNs), false);
    }
  }
  return st;
}

/// True when an open-loop step meets the ladder's rule: p90 within the
/// latency limit and no growing backlog.
bool step_passes(const Step& st) {
  return !st.aborted && st.p90() <= kLatencyLimitMs && !st.backlog_grows(kLatencyLimitMs);
}

/// Binary search on the fixed rate ladder for the
/// highest rung that passes, one probe at a time so the probes can be
/// spread over a run. Rungs at or below `passed_fps` (a step that already
/// passed; 0 if none did) count as passing, rungs above `upper_fps` as
/// failing.
class Ladder {
 public:
  Ladder(double passed_fps, double upper_fps) {
    pass_i_ = passed_fps >= kLadderBase ? rung_at_or_below(passed_fps) : -1;
    fail_i_ = std::max(pass_i_ + 1, rung_at_or_below(upper_fps) + 1);
  }

  bool done() const { return fail_i_ - pass_i_ <= 1 || probes_ >= kLadderProbes; }

  void probe(Server& server, double seconds) {
    const int64_t j = (pass_i_ + fail_i_) / 2;
    const Step st = open_loop(server, rate(j), seconds);
    ++probes_;
    const bool ok = step_passes(st);
    std::printf("ladder rung %lld: %.1f frames/s offered, %lld frames, p90 %.3f ms p99 %.3f ms, "
                "backlog mid %lld end %lld -> %s\n",
                static_cast<long long>(j), rate(j), static_cast<long long>(st.frames), st.p90(), st.p99(),
                static_cast<long long>(st.backlog_mid), static_cast<long long>(st.backlog_end),
                ok ? "pass" : "fail");
    (ok ? pass_i_ : fail_i_) = j;
  }

  double max_rate() const { return rate(std::max<int64_t>(0, pass_i_)); }

 private:
  static double rate(int64_t i) { return kLadderBase * std::pow(kLadderRatio, static_cast<double>(i)); }
  static int64_t rung_at_or_below(double fps) {
    return static_cast<int64_t>(std::floor(std::log(fps / kLadderBase) / std::log(kLadderRatio) + 1e-9));
  }

  int64_t pass_i_ = -1;
  int64_t fail_i_ = 0;
  int64_t probes_ = 0;
};

void print_step(const char* name, const Step& st) {
  std::printf("open loop %-3s: %.1f frames/s offered, %lld frames, latency p50 %.3f ms p90 %.3f ms "
              "p99 %.3f ms, sent late p99 %.3f ms, backlog mid %lld end %lld max %lld\n",
              name, st.rate, static_cast<long long>(st.frames), st.p50(), st.p90(), st.p99(),
              percentile(st.late_ms, 0.99), static_cast<long long>(st.backlog_mid),
              static_cast<long long>(st.backlog_end), static_cast<long long>(st.backlog_max));
}

struct Closed {
  double fps = 0.0;  ///< frames served without failing, per second
  double elapsed_s = 0.0;
  int64_t frames = 0;  ///< frames served without failing
  std::vector<double> latency_ms;
};

using ClosedSlice = std::function<Closed(double seconds)>;

/// Middle value (mean of the two middle values for an even count).
double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

/// Pools one slice of a fixed-rate step into the step's running total.
void merge(Step& total, const Step& slice) {
  total.rate = slice.rate;
  total.frames += slice.frames;
  append(total.latency_ms, slice.latency_ms);
  append(total.late_ms, slice.late_ms);
  total.backlog_max = std::max(total.backlog_max, slice.backlog_max);
}

/// Untraced measurement in kRounds rounds. Each round starts with one cold
/// set-up in a fresh process, then runs a closed-loop slice, one slice at
/// each fixed rate and one ladder probe, so every metric samples the whole
/// run rather than one stretch of it. Each metric is the median of its
/// per-round values: the host's speed drifts over seconds, and a pooled tail
/// would be set by the one round that caught a slow stretch. `own_setup_s`
/// is this process's own (also cold) set-up, one more setup_s sample.
void measure_end_to_end(Server& server, const Options& opt, const ClosedSlice& closed_slice,
                        double own_setup_s, Report& report) {
  const Workload& wl = *opt.wl;
  const double round_s = opt.seconds / kRounds;
  // Per-round values. The closed-loop throughput and median are reported;
  // the rest, and max_rate_fps, are printed only: through a slow phase of a
  // shared host they move by more than any bound a regression check could
  // use (README.md, "Printed, not reported").
  const char* names[] = {"frames_per_s",  "frame_p50_ms",  "frame_p99_ms",  "lat_p50_ms.lo",
                         "lat_p90_ms.lo", "lat_p50_ms.hi", "lat_p90_ms.hi"};
  const char* units[] = {"frames/s", "ms", "ms", "ms", "ms", "ms", "ms"};
  constexpr size_t kReported = 2;
  std::vector<std::vector<double>> rounds(std::size(names));
  Step lo;
  Step hi;
  int64_t closed_frames = 0;
  std::optional<Ladder> ladder;
  double peak_rss = 0.0;
  std::vector<double> setup_s = {own_setup_s};
  for (int r = 0; r < kRounds; ++r) {
    setup_s.push_back(cold_setup(opt));
    const Closed c = closed_slice(kClosedShare * round_s);
    // Read after the first closed-loop slice, with a fixed number of frames
    // in flight. Open-loop frames queue up when the host is slow, so a
    // reading taken after them would measure the host's speed.
    if (r == 0) peak_rss = peak_rss_mb();
    const Step l = open_loop(server, wl.lo_fps, kStepShare * round_s);
    const Step h = open_loop(server, wl.hi_fps, kStepShare * round_s);
    closed_frames += c.frames;
    merge(lo, l);
    merge(hi, h);
    const double values[] = {c.fps,   percentile(c.latency_ms, 0.50), percentile(c.latency_ms, 0.99),
                             l.p50(), l.p90(), h.p50(), h.p90()};
    for (size_t m = 0; m < std::size(names); ++m) rounds[m].push_back(values[m]);
    std::printf("round %d: closed %.1f frames/s p50 %.3f ms p99 %.3f ms; lo p50 %.3f p90 %.3f ms; "
                "hi p50 %.3f p90 %.3f ms\n",
                r, values[0], values[1], values[2], values[3], values[4], values[5], values[6]);
    if (!ladder) {
      const double passed = step_passes(h) ? wl.hi_fps : step_passes(l) ? wl.lo_fps : 0.0;
      ladder.emplace(passed, kLadderCeiling * c.fps);
    }
    if (!ladder->done()) ladder->probe(server, kLadderShare * round_s);
  }
  print_step("lo", lo);
  print_step("hi", hi);
  std::printf("closed loop: %lld frames over %d rounds\n", static_cast<long long>(closed_frames), kRounds);
  std::printf("setup_s samples (one cold set-up per process):");
  for (double t : setup_s) std::printf(" %.4f", t);
  std::printf("\n");
  report.add("setup_s", percentile(setup_s, 0.5), "s");
  report.add("peak_rss_mb", peak_rss, "MiB");
  for (size_t m = 0; m < kReported; ++m) report.add(names[m], median(rounds[m]), units[m]);
  for (size_t m = kReported; m < std::size(names); ++m) {
    std::printf("printed %-26s %12.6f %s (median of %d rounds)\n", names[m], median(rounds[m]), units[m],
                kRounds);
  }
  std::printf("printed %-26s %12.6f frames/s\n", "max_rate_fps", ladder->max_rate());
}

// --- traced stage execution --------------------------------------------------

/// What the traced path needs to run a frame's stages itself.
struct StageCtx {
  core::NoveltyDetector* detector = nullptr;
  nn::Sequential* steering = nullptr;  ///< null for a pipeline without saliency
  const FramePool* pool = nullptr;
  bool batch1 = false;                 ///< use the batch-1 entry points
  const char* metric_span = "metrics.ssim";
};

struct TracedTotals {
  int64_t frames = 0;
  int64_t batches = 0;
  double stage_ns = 0.0;  ///< summed ServeResult::stage_ns of the supervisor calls
};

/// Runs one batch (one frame on the batch-1 path) through the stage entry
/// points under spans, then through each frame's Supervisor with the
/// results as ProvidedCompute — the same split the ServingCluster makes.
void traced_batch(Tracer& tr, int64_t id, const StageCtx& ctx,
                  const std::vector<std::pair<int64_t, int64_t>>& items,  // (stream, pool index)
                  const std::vector<serving::Supervisor*>& sups, Tally& tally, TracedTotals& totals) {
  core::NoveltyDetector& det = *ctx.detector;
  const FramePool& pool = *ctx.pool;
  const bool b1 = ctx.batch1 && items.size() == 1;
  const bool saliency = ctx.steering != nullptr;
  Scope root(tr, "batch", id);

  std::vector<const Image*> in;
  std::vector<size_t> at;  // item index of each valid frame
  {
    Scope s(tr, "core.validate", id);
    for (size_t i = 0; i < items.size(); ++i) {
      const Image& frame = pool.frames[static_cast<size_t>(items[i].second)];
      if (det.frame_validator().check(frame) == core::FrameFault::kNone) {
        in.push_back(&frame);
        at.push_back(i);
      }
    }
  }
  std::vector<double> angles;
  std::vector<Image> masks;
  std::vector<Image> recons;
  std::vector<const Image*> recon_in = in;
  std::vector<double> scores(in.size(), 0.0);
  if (!in.empty()) {
    if (saliency) {
      {
        Scope s(tr, "driving.steer", id);
        angles = b1 ? std::vector<double>{driving::predict_steering(*ctx.steering, *in[0])}
                    : driving::predict_steering_batch(*ctx.steering, in);
      }
      {
        Scope s(tr, "saliency.vbp", id);
        if (b1) {
          masks.push_back(det.variant_preprocess(core::DetectorVariant::kPrimary, *in[0]));
        } else {
          masks = det.variant_preprocess_batch(core::DetectorVariant::kPrimary, in);
        }
      }
      for (size_t k = 0; k < in.size(); ++k) recon_in[k] = &masks[k];
    }
    {
      Scope s(tr, "core.reconstruct", id);
      if (b1) {
        recons.push_back(det.reconstruct(*recon_in[0]));
      } else {
        recons = det.reconstruct_batch(recon_in);
      }
    }
    {
      Scope s(tr, ctx.metric_span, id);
      for (size_t k = 0; k < in.size(); ++k) {
        scores[k] = det.variant_score_pair(core::DetectorVariant::kPrimary, *recon_in[k], recons[k]);
      }
    }
  }

  size_t k = 0;
  for (size_t i = 0; i < items.size(); ++i) {
    const auto [stream, idx] = items[i];
    const Image& frame = pool.frames[static_cast<size_t>(idx)];
    const Reference& ref = pool.refs[static_cast<size_t>(idx)];
    serving::ProvidedCompute provided;
    const bool valid = k < at.size() && at[k] == i;
    if (valid) {
      if (saliency) {
        provided.steering = angles[k];
        provided.saliency_mask = masks[k];
      }
      provided.recon_input = *recon_in[k];
      provided.reconstruction = std::move(recons[k]);
      if (std::memcmp(&scores[k], &ref.score, sizeof(double)) != 0) {
        tally.mismatch("traced stage score differs from the batch-1 reference");
      }
    }
    serving::ServeResult r;
    {
      Scope s(tr, "serving.supervisor", id);
      r = sups[static_cast<size_t>(stream)]->process(frame, valid ? &provided : nullptr);
    }
    if (valid) ++k;
    totals.stage_ns += stage_sum_ns(r);
    ++totals.frames;
    tally.check(r, ref, idx);
  }
  ++totals.batches;
}

/// Per-layer metrics shared by both workload kinds. `untraced_frame_ns` is
/// the untraced cost of one frame the traced frames are compared with.
void report_layers(Report& report, const Tracer& tr, const TracedTotals& totals, bool batched,
                   double untraced_frame_ns, double policy_us, double heap_allocs_per_frame,
                   const AeCost& ae) {
  const double frames = static_cast<double>(std::max<int64_t>(1, totals.frames));
  auto per_frame_us = [&](const char* name) { return tr.self_ns(name) / frames * 1e-3; };
  const double stages_ns = tr.self_ns("core.validate") + tr.self_ns("driving.steer") +
                           tr.self_ns("saliency.vbp") + tr.self_ns("core.reconstruct") +
                           tr.self_ns("metrics.ssim") + tr.self_ns("metrics.mse");
  const double recon_ns = tr.self_ns("core.reconstruct");
  report.add("core.validate_us", per_frame_us("core.validate"), "us");
  report.add("core.reconstruct_us.b1", batched ? 0.0 : per_frame_us("core.reconstruct"), "us");
  report.add("core.reconstruct_us.bB", batched ? per_frame_us("core.reconstruct") : 0.0, "us");
  report.add("driving.steer_us.b1", batched ? 0.0 : per_frame_us("driving.steer"), "us");
  report.add("driving.steer_us.bB", batched ? per_frame_us("driving.steer") : 0.0, "us");
  report.add("saliency.vbp_us.b1", batched ? 0.0 : per_frame_us("saliency.vbp"), "us");
  report.add("saliency.vbp_us.bB", batched ? per_frame_us("saliency.vbp") : 0.0, "us");
  report.add("metrics.ssim_us", per_frame_us("metrics.ssim"), "us");
  report.add("metrics.mse_us", per_frame_us("metrics.mse"), "us");
  // FLOP/ns == GFLOP/s and B/ns == GB/s. Weights stream once per forward
  // call, so a batch-B call moves them once for B frames.
  report.add("nn.ae.gflops", recon_ns > 0 ? ae.flops * frames / recon_ns : 0.0, "GFLOP/s");
  report.add("nn.ae.weight_gbps",
             recon_ns > 0 ? ae.weight_bytes * static_cast<double>(tr.count("core.reconstruct")) / recon_ns
                          : 0.0,
             "GB/s");
  report.add("tensor.workspace.heap_allocs_per_frame", heap_allocs_per_frame, "count");
  report.add("serving.supervisor.policy_us", policy_us, "us");
  report.add("trace.coverage", stages_ns / frames / untraced_frame_ns, "ratio");
  report.add("trace.overhead_frac", tr.total_ns("batch") / frames / untraced_frame_ns, "ratio");
  std::printf("nn.ae.* are computed from the autoencoder's layer shapes (%s): %.3f MFLOP and "
              "%.3f MB of weights per forward, over the traced core.reconstruct time\n",
              ae.shape.c_str(), ae.flops * 1e-6, ae.weight_bytes * 1e-6);
  std::printf("traced %lld frames in %lld %s, %zu spans; untraced frame %.3f us, traced frame %.3f us\n",
              static_cast<long long>(totals.frames), static_cast<long long>(totals.batches),
              batched ? "replayed batches" : "frames", tr.size(), untraced_frame_ns * 1e-3,
              tr.total_ns("batch") / frames * 1e-3);
}

void report_cluster_zero(Report& report) {
  for (const char* name :
       {"serving.cluster.gather_wait_ms.p50", "serving.cluster.gather_wait_ms.p99",
        "serving.cluster.service_ms.p99"}) {
    report.add(name, 0.0, "ms");
  }
  report.add("serving.cluster.batch_size.mean", 0.0, "frames");
  report.add("serving.cluster.seal_share.max_batch", 0.0, "ratio");
  report.add("serving.cluster.seal_share.window", 0.0, "ratio");
  report.add("serving.cluster.seal_share.flush", 0.0, "ratio");
  report.add("serving.cluster.recon_hit_frac", 0.0, "ratio");
  report.add("serving.cluster.backlog_max", 0.0, "frames");
}

// --- monitor ---------------------------------------------------------------

class MonitorServer final : public Server {
 public:
  MonitorServer(serving::Supervisor& sup, const FramePool& pool, Tally& tally, int64_t& seq)
      : sup_(sup), pool_(pool), tally_(tally), seq_(seq) {}

  void send(int64_t due_ns) override {
    const int64_t idx = pool_index(pool_, 1, 0, seq_++);
    const serving::ServeResult r = sup_.process(pool_.frames[static_cast<size_t>(idx)]);
    const double ms = static_cast<double>(now_ns() - due_ns) * kMs;
    ++completed_;
    latency_.push_back(tally_.check(r, pool_.refs[static_cast<size_t>(idx)], idx) ? ms : kFailedMs);
  }
  void poll(std::vector<double>& latency_ms) override {
    latency_ms.insert(latency_ms.end(), latency_.begin(), latency_.end());
    latency_.clear();
  }
  int64_t completed() const override { return completed_; }
  bool synchronous() const override { return true; }

 private:
  serving::Supervisor& sup_;
  const FramePool& pool_;
  Tally& tally_;
  int64_t& seq_;
  std::vector<double> latency_;
  int64_t completed_ = 0;
};

/// One client, closed loop: the next frame goes in when process() returns.
/// `policy_ns` (optional) collects each frame's process() wall time minus
/// its stage times. A failed frame counts in neither the latency nor the
/// throughput it would have earned.
Closed monitor_closed_loop(serving::Supervisor& sup, const FramePool& pool, Tally& tally,
                           int64_t& seq, double seconds, std::vector<double>* policy_ns) {
  Closed c;
  const int64_t t0 = now_ns();
  const int64_t end = t0 + static_cast<int64_t>(seconds * 1e9);
  int64_t done = t0;
  while (done < end) {
    const int64_t idx = pool_index(pool, 1, 0, seq++);
    const Image& frame = pool.frames[static_cast<size_t>(idx)];
    const int64_t start = now_ns();
    const serving::ServeResult r = sup.process(frame);
    done = now_ns();
    if (policy_ns != nullptr) policy_ns->push_back(static_cast<double>(done - start) - stage_sum_ns(r));
    const bool ok = tally.check(r, pool.refs[static_cast<size_t>(idx)], idx);
    c.latency_ms.push_back(ok ? static_cast<double>(done - start) * kMs : kFailedMs);
    c.frames += ok ? 1 : 0;
  }
  c.elapsed_s = static_cast<double>(done - t0) * 1e-9;
  c.fps = static_cast<double>(c.frames) / c.elapsed_s;
  return c;
}

// --- fleet -------------------------------------------------------------------

/// One frame served by the cluster, as observed from take_results().
struct BatchFrame {
  int64_t replica = 0;
  int64_t batch_seq = 0;
  int64_t stream = 0;
  int64_t idx = 0;
  int64_t arrival_seq = 0;
};

class FleetServer final : public Server {
 public:
  FleetServer(serving::ServingCluster& cluster, const FramePool& pool, int64_t streams)
      : cluster_(cluster), pool_(pool), streams_(streams),
        seq_(static_cast<size_t>(streams), 0), submitted_(static_cast<size_t>(streams), 0),
        served_(static_cast<size_t>(streams), 0) {}

  /// Results are checked against the references only once a tally is set
  /// (set-up warm-up frames run before the references exist).
  Tally* tally = nullptr;
  /// Closed loop: resubmit on a stream as soon as one of its frames returns.
  bool resubmit = false;
  /// Traced runs record each served frame's batch and cluster timings.
  bool record = false;
  std::vector<BatchFrame> batches;
  std::vector<double> gather_wait_ms;  ///< sealed_ns - arrival_ns
  std::vector<double> service_ms;      ///< observed completion - sealed_ns

  void send(int64_t due_ns) override { send_on(next_stream_++ % streams_, due_ns); }

  void send_on(int64_t stream, int64_t due_ns) {
    const int64_t idx = pool_index(pool_, streams_, stream, seq_[static_cast<size_t>(stream)]++);
    sent_.push_back({due_ns, idx});
    ++submitted_[static_cast<size_t>(stream)];
    cluster_.submit(stream, pool_.frames[static_cast<size_t>(idx)]);
  }

  void poll(std::vector<double>& latency_ms) override {
    const std::vector<serving::ClusterResult> results = cluster_.take_results();
    if (results.empty()) return;
    const int64_t now = now_ns();
    for (const serving::ClusterResult& cr : results) {
      const Sent& s = sent_[static_cast<size_t>(cr.arrival_seq)];
      const bool ok = tally == nullptr || tally->check(cr.result, pool_.refs[static_cast<size_t>(s.idx)], s.idx);
      latency_ms.push_back(ok ? static_cast<double>(now - s.due_ns) * kMs : kFailedMs);
      ++served_[static_cast<size_t>(cr.stream_id)];
      ++completed_;
      served_ok_ += ok ? 1 : 0;
      if (record) {
        batches.push_back({cr.replica, cr.batch_seq, cr.stream_id, s.idx, cr.arrival_seq});
        gather_wait_ms.push_back(static_cast<double>(cr.sealed_ns - cr.arrival_ns) * kMs);
        service_ms.push_back(static_cast<double>(now - cr.sealed_ns) * kMs);
      }
      if (resubmit) send_on(cr.stream_id, now_ns());
    }
  }

  int64_t completed() const override { return completed_; }
  /// Completed frames that did not fail.
  int64_t served_ok() const { return served_ok_; }
  int64_t outstanding() const { return static_cast<int64_t>(sent_.size()) - completed_; }
  bool synchronous() const override { return false; }

  /// Drains the cluster and checks served + shed == submitted per stream.
  void finish(Tally& t) {
    cluster_.drain();
    std::vector<double> ignored;
    poll(ignored);
    for (int64_t s = 0; s < streams_; ++s) {
      const int64_t shed = cluster_.shed_for_stream(s);
      const int64_t sub = submitted_[static_cast<size_t>(s)];
      const int64_t got = served_[static_cast<size_t>(s)];
      t.attempted += shed;
      t.failed += shed;
      if (got + shed != sub) {
        t.mismatch("stream " + std::to_string(s) + ": served " + std::to_string(got) + " + shed " +
                   std::to_string(shed) + " != submitted " + std::to_string(sub));
      }
    }
  }

 private:
  struct Sent {
    int64_t due_ns;
    int64_t idx;
  };
  serving::ServingCluster& cluster_;
  const FramePool& pool_;
  int64_t streams_;
  std::vector<int64_t> seq_;
  std::vector<int64_t> submitted_;
  std::vector<int64_t> served_;
  std::vector<Sent> sent_;  ///< indexed by the cluster's arrival_seq
  int64_t next_stream_ = 0;
  int64_t completed_ = 0;
  int64_t served_ok_ = 0;
};

/// Saturation: every stream keeps kInflight frames outstanding, so frames
/// are offered faster than they are served.
Closed fleet_closed_loop(FleetServer& server, int64_t streams, double seconds) {
  Closed c;
  const int64_t t0 = now_ns();
  const int64_t base = server.served_ok();
  server.resubmit = true;
  for (int64_t j = 0; j < kInflight; ++j) {
    for (int64_t s = 0; s < streams; ++s) server.send_on(s, now_ns());
  }
  const int64_t end = t0 + static_cast<int64_t>(seconds * 1e9);
  while (true) {
    const int64_t now = now_ns();
    server.poll(c.latency_ms);
    if (server.resubmit && now >= end) {
      server.resubmit = false;
      c.frames = server.served_ok() - base;
      c.elapsed_s = static_cast<double>(now - t0) * 1e-9;
    }
    if (!server.resubmit && server.outstanding() == 0) break;
    wait_until(now + kPollNs, false);
  }
  c.fps = static_cast<double>(c.frames) / c.elapsed_s;
  return c;
}

struct ClusterDelta {
  serving::ClusterStats a, b;
  double d(int64_t serving::ClusterStats::*field) const {
    return static_cast<double>(b.*field - a.*field);
  }
};

/// What a monitor set-up leaves ready to serve.
struct MonitorLive {
  core::LoadedPipeline live;
  std::unique_ptr<serving::Supervisor> sup;
  int64_t seq = 0;  ///< frames the camera has sent
};

/// Pipeline load, supervisor construction and warm-up frames, which pack
/// the weights lazily and grow the workspaces.
MonitorLive monitor_setup(const Options& opt, const FramePool& pool) {
  MonitorLive m;
  m.live = load_pipeline(opt);
  m.sup = std::make_unique<serving::Supervisor>(*m.live.detector, m.live.steering_model.get(),
                                                supervisor_config());
  for (int64_t w = 0; w < kMonitorWarmup; ++w) {
    m.sup->process(pool.frames[static_cast<size_t>(pool_index(pool, 1, 0, m.seq++))]);
  }
  return m;
}

serving::ClusterConfig cluster_config(const Workload& wl) {
  serving::ClusterConfig config;
  config.streams = wl.streams;
  config.replicas = wl.replicas;
  config.supervisor = supervisor_config();
  config.keep_results = true;
  return config;
}

/// What a fleet set-up leaves ready to serve.
struct FleetLive {
  core::LoadedPipeline live;
  std::unique_ptr<serving::ServingCluster> cluster;
  std::unique_ptr<FleetServer> server;
};

/// Pipeline load, cluster construction and warm-up: enough frames at once
/// that every replica seals full batches.
FleetLive fleet_setup(const Options& opt, const FramePool& pool) {
  FleetLive f;
  f.live = load_pipeline(opt);
  f.cluster = std::make_unique<serving::ServingCluster>(*f.live.detector, f.live.steering_model.get(),
                                                        cluster_config(*opt.wl));
  f.server = std::make_unique<FleetServer>(*f.cluster, pool, opt.wl->streams);
  for (int64_t j = 0; j < kInflight; ++j) {
    for (int64_t s = 0; s < opt.wl->streams; ++s) f.server->send_on(s, now_ns());
  }
  f.cluster->drain();
  std::vector<double> ignored;
  f.server->poll(ignored);
  return f;
}

double seconds_since(int64_t t0) { return static_cast<double>(now_ns() - t0) * 1e-9; }

}  // namespace

double setup_once(const Options& opt) {
  const FramePool pool = make_pool(opt.seed, kSetupPoolFrames, kHeight, kWidth);
  const int64_t t0 = now_ns();
  if (std::string(opt.wl->kind) == "monitor") {
    const MonitorLive m = monitor_setup(opt, pool);
    return seconds_since(t0);
  }
  const FleetLive f = fleet_setup(opt, pool);
  return seconds_since(t0);
}

void run_monitor(const Options& opt, Report& report, Tally& tally) {
  FramePool pool = make_pool(opt.seed, kPoolFrames, kHeight, kWidth);
  const int64_t t0 = now_ns();
  MonitorLive m = monitor_setup(opt, pool);
  const double setup_s = seconds_since(t0);
  core::LoadedPipeline& live = m.live;
  const std::unique_ptr<serving::Supervisor>& sup = m.sup;
  int64_t& seq = m.seq;
  compute_references(pool, *live.detector);
  tally.top_mode = top_mode(*live.detector);
  std::printf("pool: %lld frames (%lld indoor, %lld dropped), %lld novel by reference\n",
              static_cast<long long>(pool.size()), static_cast<long long>(pool.indoor),
              static_cast<long long>(pool.dropped), static_cast<long long>(pool.novel));
  MonitorServer server(*sup, pool, tally, seq);

  if (!opt.trace) {
    measure_end_to_end(
        server, opt,
        [&](double seconds) { return monitor_closed_loop(*sup, pool, tally, seq, seconds, nullptr); },
        setup_s, report);
    return;
  }

  // Untraced frames first: the baseline the traced frames are compared with.
  std::vector<double> policy_ns;
  const int64_t heap0 = Workspace::heap_allocation_count();
  const Closed untraced =
      monitor_closed_loop(*sup, pool, tally, seq, kClosedShare * opt.seconds, &policy_ns);
  const double heap_per_frame =
      static_cast<double>(Workspace::heap_allocation_count() - heap0) / static_cast<double>(untraced.frames);

  Tracer tr;
  StageCtx ctx{live.detector.get(), live.steering_model.get(), &pool, true,
               live.detector->config().score == core::ReconstructionScore::kSsim ? "metrics.ssim"
                                                                                : "metrics.mse"};
  TracedTotals totals;
  const std::vector<serving::Supervisor*> sups = {sup.get()};
  const int64_t end = now_ns() + static_cast<int64_t>(kTracedShare * opt.seconds * 1e9);
  while (now_ns() < end) {
    const int64_t idx = pool_index(pool, 1, 0, seq++);
    traced_batch(tr, totals.frames, ctx, {{0, idx}}, sups, tally, totals);
  }
  const Step lo = open_loop(server, opt.wl->lo_fps, kStepShare * opt.seconds);
  const Step hi = open_loop(server, opt.wl->hi_fps, kStepShare * opt.seconds);
  std::vector<double> late = lo.late_ms;
  late.insert(late.end(), hi.late_ms.begin(), hi.late_ms.end());

  report_layers(report, tr, totals, false, mean(untraced.latency_ms) * 1e6, mean(policy_ns) * 1e-3,
                heap_per_frame, ae_cost(*live.detector));
  report_cluster_zero(report);
  report.add("loadgen.late_ms.p99", percentile(late, 0.99), "ms");
  report.add("loadgen.poll_us.p50", 0.0, "us");
  tr.write(opt.trace_path);
}

void run_fleet(const Options& opt, Report& report, Tally& tally) {
  const Workload& wl = *opt.wl;
  FramePool pool = make_pool(opt.seed, kPoolFrames, kHeight, kWidth);
  const int64_t t0 = now_ns();
  FleetLive f = fleet_setup(opt, pool);
  const double setup_s = seconds_since(t0);
  core::LoadedPipeline& live = f.live;
  const std::unique_ptr<serving::ServingCluster>& cluster = f.cluster;
  const std::unique_ptr<FleetServer>& server = f.server;
  const serving::ClusterConfig config = cluster_config(wl);
  compute_references(pool, *live.detector);
  tally.top_mode = top_mode(*live.detector);
  std::printf("pool: %lld frames (%lld indoor, %lld dropped), %lld novel by reference\n",
              static_cast<long long>(pool.size()), static_cast<long long>(pool.indoor),
              static_cast<long long>(pool.dropped), static_cast<long long>(pool.novel));
  std::printf("cluster: %lld streams, %lld replicas, gather window %.3f ms, max_batch %lld\n",
              static_cast<long long>(wl.streams), static_cast<long long>(cluster->replicas()),
              static_cast<double>(config.gather_window_ns) * 1e-6, static_cast<long long>(config.max_batch));
  server->tally = &tally;

  if (!opt.trace) {
    measure_end_to_end(
        *server, opt,
        [&](double seconds) { return fleet_closed_loop(*server, wl.streams, seconds); },
        setup_s, report);
    server->finish(tally);
    return;
  }

  // Saturation, untraced: batch shapes and the per-frame cost the replay is
  // compared with.
  ClusterDelta sat;
  sat.a = cluster->stats();
  const int64_t heap0 = Workspace::heap_allocation_count();
  server->record = true;
  const Closed closed = fleet_closed_loop(*server, wl.streams, kClosedShare * opt.seconds);
  const std::vector<BatchFrame> sat_frames = std::move(server->batches);
  server->batches.clear();
  const double heap_per_frame =
      static_cast<double>(Workspace::heap_allocation_count() - heap0) / static_cast<double>(closed.frames);
  sat.b = cluster->stats();

  // Open loop at the fixed rates: gather waits, service times, seal reasons.
  server->gather_wait_ms.clear();
  server->service_ms.clear();
  ClusterDelta open;
  open.a = sat.b;
  const Step lo = open_loop(*server, wl.lo_fps, kStepShare * opt.seconds);
  const Step hi = open_loop(*server, wl.hi_fps, kStepShare * opt.seconds);
  open.b = cluster->stats();
  server->finish(tally);

  // Replay the saturation batches through the batched entry points, traced.
  std::map<std::pair<int64_t, int64_t>, std::vector<BatchFrame>> grouped;
  for (const BatchFrame& f : sat_frames) grouped[{f.replica, f.batch_seq}].push_back(f);
  std::vector<std::vector<BatchFrame>> batches;
  for (auto& [key, frames] : grouped) batches.push_back(std::move(frames));
  std::sort(batches.begin(), batches.end(),
            [](const auto& a, const auto& b) { return a.front().arrival_seq < b.front().arrival_seq; });
  Tracer tr;
  StageCtx ctx{live.detector.get(), live.steering_model.get(), &pool, false,
               live.detector->config().score == core::ReconstructionScore::kSsim ? "metrics.ssim"
                                                                                : "metrics.mse"};
  TracedTotals totals;
  const int64_t end = now_ns() + static_cast<int64_t>(kTracedShare * opt.seconds * 1e9);
  while (now_ns() < end && !batches.empty()) {
    // Fresh supervisors per pass, so a stream never sees its last frame of
    // one pass followed by the same frame starting the next.
    std::vector<std::unique_ptr<serving::Supervisor>> owned;
    std::vector<serving::Supervisor*> sups;
    for (int64_t s = 0; s < wl.streams; ++s) {
      owned.push_back(std::make_unique<serving::Supervisor>(*live.detector, live.steering_model.get(),
                                                            supervisor_config()));
      sups.push_back(owned.back().get());
    }
    for (const auto& batch : batches) {
      if (now_ns() >= end) break;
      std::vector<std::pair<int64_t, int64_t>> items;
      for (const BatchFrame& f : batch) items.emplace_back(f.stream, f.idx);
      traced_batch(tr, totals.batches, ctx, items, sups, tally, totals);
    }
  }

  const double untraced_frame_ns =
      static_cast<double>(cluster->replicas()) * closed.elapsed_s * 1e9 / static_cast<double>(closed.frames);
  const double policy_us =
      (tr.total_ns("serving.supervisor") - totals.stage_ns) / static_cast<double>(std::max<int64_t>(1, totals.frames)) * 1e-3;
  report_layers(report, tr, totals, true, untraced_frame_ns, policy_us, heap_per_frame,
                ae_cost(*live.detector));

  std::vector<double> late = lo.late_ms;
  late.insert(late.end(), hi.late_ms.begin(), hi.late_ms.end());
  const double seals = open.d(&serving::ClusterStats::max_batch_seals) +
                       open.d(&serving::ClusterStats::window_seals) +
                       open.d(&serving::ClusterStats::flush_seals);
  const double recon_hits = sat.d(&serving::ClusterStats::provided_recon);
  const double recon_tries = recon_hits + sat.d(&serving::ClusterStats::recon_mispredicts);
  report.add("serving.cluster.gather_wait_ms.p50", percentile(server->gather_wait_ms, 0.50), "ms");
  report.add("serving.cluster.gather_wait_ms.p99", percentile(server->gather_wait_ms, 0.99), "ms");
  report.add("serving.cluster.service_ms.p99", percentile(server->service_ms, 0.99), "ms");
  report.add("serving.cluster.batch_size.mean",
             sat.d(&serving::ClusterStats::batched_frames) / std::max(1.0, sat.d(&serving::ClusterStats::batches)),
             "frames");
  report.add("serving.cluster.seal_share.max_batch",
             open.d(&serving::ClusterStats::max_batch_seals) / std::max(1.0, seals), "ratio");
  report.add("serving.cluster.seal_share.window",
             open.d(&serving::ClusterStats::window_seals) / std::max(1.0, seals), "ratio");
  report.add("serving.cluster.seal_share.flush",
             open.d(&serving::ClusterStats::flush_seals) / std::max(1.0, seals), "ratio");
  report.add("serving.cluster.recon_hit_frac", recon_tries > 0 ? recon_hits / recon_tries : 0.0, "ratio");
  report.add("serving.cluster.backlog_max", static_cast<double>(std::max(lo.backlog_max, hi.backlog_max)),
             "frames");
  report.add("loadgen.late_ms.p99", percentile(late, 0.99), "ms");
  std::vector<double> gaps = lo.poll_gap_us;
  gaps.insert(gaps.end(), hi.poll_gap_us.begin(), hi.poll_gap_us.end());
  report.add("loadgen.poll_us.p50", percentile(gaps, 0.5), "us");
  tr.write(opt.trace_path);
}

}  // namespace perfbench
