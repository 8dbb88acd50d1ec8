// Shared pieces of the serving benchmark program: options, the seeded frame
// pool with its batch-1 reference outcomes, the outcome tally, the span
// recorder used by traced runs, and the metric report.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/novelty_detector.hpp"
#include "image/image.hpp"
#include "serving/supervisor.hpp"

namespace perfbench {

using salnov::Image;

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Waits until `target_ns` (steady clock). With `spin` it busy-waits, so
/// the core stays awake and no host wake-up latency lands on the frame that
/// follows; used where the waiting thread is also the one serving frames.
/// Otherwise it sleeps, leaving the core to the program's own threads.
void wait_until(int64_t target_ns, bool spin);

/// One row of the workload table: only what differs between workloads.
/// Everything else (pool size and mix, ladder, latency limit, frames in
/// flight) is a constant.
struct Workload {
  const char* name;
  const char* kind;      ///< "monitor" (one Supervisor) or "fleet" (ServingCluster)
  const char* pipeline;  ///< "vbp_ssim" or "raw_mse"; fitted by `perfbench_main fit`
  int64_t streams;
  int64_t replicas;      ///< cluster replicas (0 for a monitor)
  double lo_fps;         ///< fixed open-loop offered rates (absolute frames/s)
  double hi_fps;
};

/// The workload with this name (one of BENCHMARK.json's), or null.
const Workload* find_workload(const std::string& name);

struct Options {
  const Workload* wl;
  std::string cache_dir;      ///< where `perfbench_main fit` left the fitted pipelines
  std::string trace_path;     ///< where a traced run writes its spans
  uint64_t seed;
  double seconds;
  bool trace;
};

/// Expected outcome of one pool frame, computed on the batch-1 path.
struct Reference {
  bool sensor_bad = false;  ///< the validator rejects the frame
  double score = 0.0;       ///< score_variant(kPrimary, frame)
  bool novel = false;       ///< the kPrimary threshold's verdict on `score`
};

struct FramePool {
  std::vector<Image> frames;
  std::vector<Reference> refs;
  int64_t indoor = 0;
  int64_t dropped = 0;
  int64_t novel = 0;  ///< reference verdicts that say novel

  int64_t size() const { return static_cast<int64_t>(frames.size()); }
};

/// Generates a pool of `frames` frames from the workload seed: roadsim
/// outdoor scenes, a share of indoor (novel) scenes, and a share of
/// FaultInjector dropped frames, shuffled.
FramePool make_pool(uint64_t seed, int64_t frames, int64_t height, int64_t width);

/// Distinct frames in a run's pool.
constexpr int64_t kPoolFrames = 240;
/// A set-up process only serves warm-up frames, so it makes a smaller pool
/// (no fewer than a fleet's streams x frames in flight).
constexpr int64_t kSetupPoolFrames = 64;

/// Fills pool.refs with every frame's batch-1 reference outcome.
void compute_references(FramePool& pool, const salnov::core::NoveltyDetector& detector);

/// Pool index of stream `stream`'s `seq`-th frame. Consecutive frames of a
/// stream are always different pool entries, so the supervisor's
/// frozen-frame guard never fires on a healthy frame.
inline int64_t pool_index(const FramePool& pool, int64_t streams, int64_t stream, int64_t seq) {
  const int64_t stride = pool.size() / streams > 0 ? pool.size() / streams : 1;
  return (stream * stride + seq) % pool.size();
}

/// Attempted/failed frame counts plus correctness mismatches.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t mismatched = 0;
  int64_t sensor_bad = 0;
  int64_t novel = 0;
  std::string first_mismatch;
  /// The rung every healthy frame must be served on.
  salnov::serving::ServingMode top_mode = salnov::serving::ServingMode::kVbpSsim;

  /// Classifies one served frame. A frame fails when it is abandoned, threw
  /// while scoring, or was served on a rung other than the top one; it
  /// mismatches when its score (bitwise) or verdict differs from the
  /// reference, or a dropped frame did not come back sensor_bad. Returns
  /// true when the frame counts as served correctly on the top rung.
  bool check(const salnov::serving::ServeResult& r, const Reference& ref, int64_t pool_idx);

  /// Records a correctness failure that is not tied to one served frame.
  void mismatch(const std::string& why);
};

/// Spans recorded around the benchmark's calls into the program's layers.
/// Kept in memory; written out once at the end of the run.
class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t parent;  ///< index of the enclosing span, -1 for a root
    int64_t frame;   ///< frame (or batch) the span belongs to
    int64_t start_ns;
    int64_t end_ns;
  };

  int64_t begin(const char* name, int64_t frame);
  void end(int64_t span);

  /// Summed self time (duration minus the parts covered by child spans) per
  /// span name, in nanoseconds.
  double self_ns(const std::string& name) const;
  /// Summed duration of the spans with this name.
  double total_ns(const std::string& name) const;
  int64_t count(const std::string& name) const;

  /// Tab-separated: index, parent, name, frame, start_ns, end_ns.
  void write(const std::string& path) const;

  size_t size() const { return spans_.size(); }

 private:
  std::vector<Span> spans_;
  std::vector<int64_t> open_;  ///< stack of open span indices
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, int64_t frame)
      : tracer_(tracer), span_(tracer.begin(name, frame)) {}
  ~Scope() { tracer_.end(span_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int64_t span_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Metrics of one run, in the order they were added.
struct Report {
  std::vector<Metric> metrics;
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// Nearest-rank percentile (p in [0, 1]) of `values`; 0 when empty.
double percentile(std::vector<double> values, double p);
double mean(const std::vector<double>& values);

/// The fitted pipeline file of `pipeline` in `cache_dir`.
std::string pipeline_file(const std::string& cache_dir, const std::string& pipeline);

/// Runs the workload and fills `report` with its end-to-end metrics (or,
/// with opt.trace, its per-layer metrics). Human-readable lines go to
/// stdout as the run progresses.
void run_monitor(const Options& opt, Report& report, Tally& tally);
void run_fleet(const Options& opt, Report& report, Tally& tally);

/// One cold set-up of the workload in this process: pool generation
/// (untimed), then pipeline load, supervisor or cluster construction and
/// warm-up. Returns its time in seconds.
double setup_once(const Options& opt);

/// Runs `setup_once` in a fresh `perfbench_main setup` process, waits for
/// it, and returns the time it printed.
double cold_setup(const Options& opt);

/// Peak resident set of the process so far, in MiB.
double peak_rss_mb();

}  // namespace perfbench
