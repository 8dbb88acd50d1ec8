// perfbench_main: the serving benchmark's measuring program.
//
//   perfbench_main fit --cache-dir DIR
//       For every pipeline the workloads use, loads DIR/<pipeline>.pipeline
//       if it holds a usable fitted pipeline, otherwise fits one with a
//       fixed seed and writes it (atomically, CRC-guarded). Run as its own
//       process so the fit stays out of set-up time and peak RSS.
//
//   perfbench_main run --workload NAME --seed N --seconds S --trace 0|1
//                        --cache-dir DIR --trace-file FILE
//       Runs one workload and prints a JSON result as the last stdout line.
//
//   perfbench_main setup --workload NAME --seed N --cache-dir DIR
//       One cold set-up; prints "setup_s <seconds>". An untraced `run`
//       starts one of these per round for its setup_s samples.
//
// The workload table and every other setting are constants (workloads.cpp,
// bench.hpp); see README.md in this directory.
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/pipeline_io.hpp"
#include "driving/pilotnet.hpp"
#include "driving/steering_trainer.hpp"
#include "faults/fault_injector.hpp"
#include "parallel/parallel_for.hpp"
#include "roadsim/dataset.hpp"
#include "roadsim/indoor_generator.hpp"
#include "roadsim/outdoor_generator.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_int8.hpp"

namespace perfbench {

using namespace salnov;

// --- helpers shared by the workloads ----------------------------------------

void wait_until(int64_t target_ns, bool spin) {
  if (!spin) {
    const int64_t now = now_ns();
    if (target_ns > now) std::this_thread::sleep_for(std::chrono::nanoseconds(target_ns - now));
    return;
  }
  while (now_ns() < target_ns) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double acc = 0.0;
  for (double v : values) acc += v;
  return acc / static_cast<double>(values.size());
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// --- frame pool and reference ------------------------------------------------

FramePool make_pool(uint64_t seed, int64_t frames, int64_t h, int64_t w) {
  // About 10% indoor (novel) scenes and 2.5% dropped frames.
  const int64_t indoor = std::max<int64_t>(1, frames / 10);
  const int64_t dropped = std::max<int64_t>(1, frames / 40);

  Rng rng(seed);
  const roadsim::DrivingDataset out =
      roadsim::DrivingDataset::generate(roadsim::OutdoorSceneGenerator{}, frames - indoor, h, w, rng);
  const roadsim::DrivingDataset in =
      roadsim::DrivingDataset::generate(roadsim::IndoorSceneGenerator{}, indoor, h, w, rng);
  FramePool pool;
  pool.frames = out.images();
  pool.frames.insert(pool.frames.end(), in.images().begin(), in.images().end());
  pool.indoor = indoor;
  // Seeded Fisher-Yates shuffle, then black out `dropped` frames through
  // the fault injector (a camera whose signal fades to black).
  for (int64_t i = pool.size() - 1; i > 0; --i) {
    const int64_t j = rng.uniform_int(0, i);
    std::swap(pool.frames[static_cast<size_t>(i)], pool.frames[static_cast<size_t>(j)]);
  }
  faults::FaultInjector injector(seed ^ 0x5eedULL);
  for (int64_t k = 0; k < dropped; ++k) {
    const size_t idx = static_cast<size_t>((k * pool.size()) / dropped + pool.size() / (2 * dropped));
    pool.frames[idx] = injector.apply(faults::CameraFault::kDroppedFrame, 1.0, pool.frames[idx]);
  }
  pool.dropped = dropped;
  return pool;
}

void compute_references(FramePool& pool, const core::NoveltyDetector& detector) {
  const core::NoveltyThreshold& threshold =
      detector.variant_calibration(core::DetectorVariant::kPrimary).threshold;
  pool.refs.resize(pool.frames.size());
  for (size_t i = 0; i < pool.frames.size(); ++i) {
    Reference& ref = pool.refs[i];
    ref.sensor_bad = detector.frame_validator().check(pool.frames[i]) != core::FrameFault::kNone;
    if (ref.sensor_bad) continue;
    ref.score = detector.score_variant(core::DetectorVariant::kPrimary, pool.frames[i]);
    ref.novel = threshold.is_novel(ref.score);
    pool.novel += ref.novel ? 1 : 0;
  }
}

bool Tally::check(const serving::ServeResult& r, const Reference& ref, int64_t pool_idx) {
  ++attempted;
  const char* why = nullptr;
  bool fail = false;
  if (ref.sensor_bad) {
    if (!r.sensor_bad || r.scored) why = "dropped frame not reported sensor_bad";
    ++sensor_bad;
  } else if (r.abandoned) {
    fail = true;
  } else if (!r.scored || r.sensor_bad) {
    fail = true;
    why = "frame not scored";
  } else if (r.mode != top_mode) {
    fail = true;  // served below the top rung
  } else if (std::memcmp(&r.score, &ref.score, sizeof(double)) != 0) {
    why = "score differs from the batch-1 reference";
  } else if (r.novel != ref.novel) {
    why = "verdict differs from the reference";
  }
  if (r.novel) ++novel;
  if (why != nullptr) {
    fail = true;
    ++mismatched;
    if (first_mismatch.empty()) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "pool frame %lld: %s (served %.17g, reference %.17g)",
                    static_cast<long long>(pool_idx), why, r.score, ref.score);
      first_mismatch = buf;
    }
  }
  if (fail) ++failed;
  return !fail;
}

void Tally::mismatch(const std::string& why) {
  ++mismatched;
  if (first_mismatch.empty()) first_mismatch = why;
}

// --- cold set-up processes ---------------------------------------------------

std::string pipeline_file(const std::string& cache_dir, const std::string& pipeline) {
  return cache_dir + "/" + pipeline + ".pipeline";
}

double cold_setup(const Options& opt) {
  std::vector<std::string> args = {"perfbench_main", "setup", "--workload", opt.wl->name, "--seed",
                                   std::to_string(opt.seed), "--cache-dir", opt.cache_dir};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  pid_t pid = 0;
  const int err = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  if (err == 0) {
    char buf[256];
    ssize_t n = 0;
    while ((n = read(fds[0], buf, sizeof(buf))) > 0) out.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  if (err != 0) throw std::runtime_error("cannot start a set-up process");
  int status = 0;
  waitpid(pid, &status, 0);
  double seconds = 0.0;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || std::sscanf(out.c_str(), "setup_s %lf", &seconds) != 1) {
    throw std::runtime_error("set-up process failed: " + out);
  }
  return seconds;
}

// --- tracer ------------------------------------------------------------------

int64_t Tracer::begin(const char* name, int64_t frame) {
  const int64_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, parent, frame, now_ns(), 0});
  open_.push_back(static_cast<int64_t>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::end(int64_t span) {
  spans_[static_cast<size_t>(span)].end_ns = now_ns();
  open_.pop_back();
}

double Tracer::total_ns(const std::string& name) const {
  double acc = 0.0;
  for (const Span& s : spans_) {
    if (name == s.name) acc += static_cast<double>(s.end_ns - s.start_ns);
  }
  return acc;
}

double Tracer::self_ns(const std::string& name) const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child[static_cast<size_t>(s.parent)] += static_cast<double>(s.end_ns - s.start_ns);
  }
  double acc = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) {
      acc += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) - child[i];
    }
  }
  return acc;
}

int64_t Tracer::count(const std::string& name) const {
  return std::count_if(spans_.begin(), spans_.end(), [&](const Span& s) { return name == s.name; });
}

void Tracer::write(const std::string& path) const {
  std::ofstream os(path, std::ios::trunc);
  os << "index\tparent\tname\tframe\tstart_ns\tend_ns\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << i << '\t' << s.parent << '\t' << s.name << '\t' << s.frame << '\t' << s.start_ns << '\t'
       << s.end_ns << '\n';
  }
}

}  // namespace perfbench

namespace {

using namespace salnov;
using perfbench::Options;

constexpr uint64_t kFitSeed = 2019;  // fixed: the fitted pipeline never depends on --seed
constexpr int64_t kFitImages = 400;

/// Knobs that change which kernels run or how many threads they get.
constexpr const char* kKnobs[] = {"SALNOV_THREADS",   "SALNOV_GEMM_KERNEL",
                                  "SALNOV_GEMM_PACK", "SALNOV_GEMM_AVX512",
                                  "SALNOV_GEMM_INT8", "SALNOV_GEMM_INT8_VNNI"};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "perfbench_main: %s\n", why.c_str());
  std::exit(2);
}

std::map<std::string, std::string> parse_flags(int argc, char** argv, int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) usage(std::string("bad argument ") + argv[i]);
    flags[argv[i] + 2] = argv[i + 1];
  }
  return flags;
}

bool pipeline_usable(const std::string& path, bool saliency) {
  try {
    core::LoadedPipeline loaded = core::PipelineIo::load_file(path);
    return loaded.detector->has_variant_calibrations() && loaded.detector->has_quant_calibrations() &&
           (loaded.steering_model != nullptr) == saliency;
  } catch (const std::exception& err) {
    std::printf("cached pipeline %s unusable (%s); refitting\n", path.c_str(), err.what());
    return false;
  }
}

std::string flag(const std::map<std::string, std::string>& flags, const char* key) {
  auto it = flags.find(key);
  if (it == flags.end()) usage(std::string("missing --") + key);
  return it->second;
}

void fit_pipeline(const std::string& name, const std::string& out) {
  const bool saliency = name == "vbp_ssim";
  std::FILE* probe = std::fopen(out.c_str(), "rb");
  if (probe != nullptr) {
    std::fclose(probe);
    if (pipeline_usable(out, saliency)) {
      std::printf("pipeline %s: cached at %s\n", name.c_str(), out.c_str());
      return;
    }
  }
  const int64_t start = perfbench::now_ns();
  core::NoveltyDetectorConfig config =
      saliency ? core::NoveltyDetectorConfig::proposed() : core::NoveltyDetectorConfig::baseline_raw_mse();
  config.train_epochs = saliency ? 60 : 40;
  config.learning_rate = 3e-3;
  Rng rng(kFitSeed);
  const roadsim::DrivingDataset train = roadsim::DrivingDataset::generate(
      roadsim::OutdoorSceneGenerator{}, kFitImages, config.height, config.width, rng);
  nn::Sequential steering;
  core::NoveltyDetector detector(config);
  if (saliency) {
    steering = driving::build_pilotnet(driving::PilotNetConfig::compact(), rng);
    driving::SteeringTrainOptions options;
    options.epochs = 25;
    options.learning_rate = 2e-3;
    driving::train_steering_model(steering, train, options, rng);
    detector.attach_steering_model(&steering);
  }
  detector.fit(train.images(), rng);
  core::PipelineIo::save_file(out, detector, saliency ? &steering : nullptr);
  std::printf("pipeline %s: fitted in %.1f s, written to %s\n", name.c_str(),
              static_cast<double>(perfbench::now_ns() - start) * 1e-9, out.c_str());
}

int fit_main(const std::map<std::string, std::string>& flags) {
  const std::string cache_dir = flag(flags, "cache-dir");
  fit_pipeline("vbp_ssim", perfbench::pipeline_file(cache_dir, "vbp_ssim"));
  fit_pipeline("raw_mse", perfbench::pipeline_file(cache_dir, "raw_mse"));
  return 0;
}

std::string cpu_flags() {
  std::string flags;
  auto add = [&](const char* name, bool on) {
    if (on) flags += (flags.empty() ? "" : ",") + std::string(name);
  };
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  add("avx2", __builtin_cpu_supports("avx2"));
  add("fma", __builtin_cpu_supports("fma"));
  add("avx512f", __builtin_cpu_supports("avx512f"));
  add("avx512bw", __builtin_cpu_supports("avx512bw"));
  add("avx512vl", __builtin_cpu_supports("avx512vl"));
  add("avx512vnni", __builtin_cpu_supports("avx512vnni"));
#endif
  return flags.empty() ? "none" : flags;
}

void print_json(const perfbench::Report& report, const perfbench::Tally& tally, bool correct) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

/// CPUs this process may run on (what `nproc` prints).
int64_t cpus_allowed() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

/// The options every subcommand shares. Pins the parallel_for pool to the
/// calling thread and checks the thread budget: the load-generator thread
/// plus one per replica must fit in the CPUs this process may use.
Options common_options(const std::map<std::string, std::string>& flags) {
  Options opt{};
  opt.wl = perfbench::find_workload(flag(flags, "workload"));
  if (opt.wl == nullptr) usage("unknown workload " + flag(flags, "workload"));
  opt.cache_dir = flag(flags, "cache-dir");
  opt.seed = std::stoull(flag(flags, "seed"));
  parallel::set_num_threads(1);
  const int64_t threads = 1 + opt.wl->replicas;
  if (threads > cpus_allowed()) {
    usage("workload " + std::string(opt.wl->name) + " needs " + std::to_string(threads) +
          " threads but only " + std::to_string(cpus_allowed()) + " CPUs are allowed");
  }
  return opt;
}

int setup_main(const std::map<std::string, std::string>& flags) {
  const Options opt = common_options(flags);
  std::printf("setup_s %.9f\n", perfbench::setup_once(opt));
  return 0;
}

int run_main(const std::map<std::string, std::string>& flags) {
  Options opt = common_options(flags);
  opt.trace_path = flag(flags, "trace-file");
  opt.seconds = std::stod(flag(flags, "seconds"));
  opt.trace = flag(flags, "trace") == "1";
  if (opt.seconds <= 0) usage("--seconds must be positive");
  const perfbench::Workload& wl = *opt.wl;
  std::printf("host nproc=%lld cpu_flags=%s gemm=%s gemm_int8=%s weight_packing=%d\n",
              static_cast<long long>(cpus_allowed()), cpu_flags().c_str(),
              gemm_kernel_name(active_gemm_kernel()),
              gemm_int8_kernel_name(active_gemm_int8_kernel()),
              gemm_weight_packing_enabled() ? 1 : 0);
  std::printf("threads loadgen=1 replicas=%lld pool_per_thread=1 total=%lld\n",
              static_cast<long long>(wl.replicas), static_cast<long long>(1 + wl.replicas));
  std::printf("workload %s seed=%llu seconds=%g trace=%d\n", wl.name,
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  perfbench::Report report;
  perfbench::Tally tally;
  if (std::string(wl.kind) == "monitor") {
    perfbench::run_monitor(opt, report, tally);
  } else {
    perfbench::run_fleet(opt, report, tally);
  }
  const bool correct = tally.mismatched == 0;
  std::printf("frames attempted=%lld failed=%lld fail_frac=%.6f (ratio) mismatched=%lld "
              "sensor_bad=%lld novel=%lld\n",
              static_cast<long long>(tally.attempted), static_cast<long long>(tally.failed),
              tally.attempted > 0 ? static_cast<double>(tally.failed) / static_cast<double>(tally.attempted) : 0.0,
              static_cast<long long>(tally.mismatched), static_cast<long long>(tally.sensor_bad),
              static_cast<long long>(tally.novel));
  if (!correct) std::printf("CORRECTNESS FAILURE: %s\n", tally.first_mismatch.c_str());
  // The workloads are chosen so that no frame fails; one that does means
  // the figures are not comparable.
  if (tally.failed > 0) std::printf("FAILED FRAMES: %lld\n", static_cast<long long>(tally.failed));
  for (const perfbench::Metric& m : report.metrics) {
    std::printf("metric %-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  print_json(report, tally, correct);
  return correct && tally.attempted > 0 && tally.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (const char* knob : kKnobs) {
    if (const char* value = std::getenv(knob)) {
      std::fprintf(stderr,
                   "perfbench_main: refusing to run with %s=%s set; runs under different "
                   "kernel/thread knobs are not comparable\n",
                   knob, value);
      return 2;
    }
  }
  if (argc < 2) usage("expected a subcommand: fit | run | setup");
  const std::string cmd = argv[1];
  const auto flags = parse_flags(argc, argv, 2);
  try {
    if (cmd == "fit") return fit_main(flags);
    if (cmd == "run") return run_main(flags);
    if (cmd == "setup") return setup_main(flags);
  } catch (const std::exception& err) {
    std::fprintf(stderr, "perfbench_main: %s\n", err.what());
    return 1;
  }
  usage("unknown subcommand " + cmd);
}
