// salnov — command-line front end for the library.
//
// Subcommands cover the offline workflow (generate -> train-steering -> fit
// -> classify / saliency) and the serving runtime (serve, record, replay),
// so the pipeline can be driven without writing C++. `salnov` with no
// arguments prints every subcommand and the flags it accepts.
//
// Every flag is one knob row (core/knob.hpp). The serving tables sit
// beside their config structs in the library; the CLI-only flags are the
// rows below. A subcommand lists the tables it accepts, and the parser
// rejects any other flag by name, as it rejects a value that does not
// parse completely or lies outside its row's range. The usage text is
// generated from the same rows.
//
// serve and record fill one trace::TraceRunSpec. `serve --streams N` and
// record both run it through trace::drive; single-stream serve keeps its
// bare-Supervisor loop because it owns threshold-store recovery and
// persistence, which a recorded run must never do.
#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "salnov.hpp"
#include "tensor/gemm.hpp"

namespace {

using namespace salnov;

enum class NetConfig { kCompact, kPaper };
constexpr std::array<const char*, 2> kNetConfigNames = {"compact", "paper"};
constexpr std::array<const char*, 2> kKernelNames = {"scalar", "simd"};

/// Everything a command line sets: the scenario of serve and record in
/// `spec` (whose scene seed and dataset generate, train-steering and fit
/// read too), and the CLI's own knobs.
struct Options {
  const char* command = "";
  trace::TraceRunSpec spec;
  std::string pipeline;
  std::string out;
  std::string data;
  std::string steering;
  std::string trace;
  std::string health_out;
  std::string threshold_store;
  std::string report;
  std::string kernel;  ///< empty: the ambient GEMM dispatch
  bool fake_clock = false;
  bool verbose = false;
  int64_t count = 100;
  int64_t height = 60;
  int64_t width = 160;
  int64_t epochs = 1;  ///< preset per command
  NetConfig net = NetConfig::kCompact;
  core::Preprocessing preprocessing = core::Preprocessing::kVbp;
  core::ReconstructionScore score = core::ReconstructionScore::kSsim;
  int threads = 0;  ///< 0: automatic (SALNOV_THREADS, else the hardware)
  double tolerance = 0.0;
  std::vector<std::string> images;  ///< positional arguments
};

// --- the CLI's own knobs ------------------------------------------------------

constexpr Knob<Options> kPipelineKnobs[] = {
    {.flag = "pipeline", .member = &Options::pipeline, .doc = "fitted pipeline file"},
};
constexpr Knob<Options> kOutKnobs[] = {
    {.flag = "out", .member = &Options::out, .doc = "output file or directory"},
};
constexpr Knob<Options> kDataKnobs[] = {
    {.flag = "data", .member = &Options::data, .doc = "directory written by generate"},
};
constexpr Knob<Options> kSteeringKnobs[] = {
    {.flag = "steering", .member = &Options::steering, .doc = "steering model file"},
};
constexpr Knob<Options> kGenerateKnobs[] = {
    {.flag = "count", .member = &Options::count, .doc = "scenes to render", .lo = 0, .hi = 1e7},
    {.flag = "height", .member = &Options::height, .doc = "image height", .lo = 1, .hi = 4096},
    {.flag = "width", .member = &Options::width, .doc = "image width", .lo = 1, .hi = 4096},
};
constexpr Knob<Options> kTrainKnobs[] = {
    {.flag = "epochs", .member = &Options::epochs, .doc = "training epochs", .lo = 1, .hi = 1e6},
    {.flag = "verbose", .member = &Options::verbose, .doc = "print per-epoch losses"},
};
constexpr Knob<Options> kNetKnobs[] = {
    {.flag = "config", .member = knob_enum<&Options::net>(), .doc = "steering network size",
     .choices = kNetConfigNames},
};
constexpr Knob<Options> kFitKnobs[] = {
    {.flag = "preprocessing", .member = knob_enum<&Options::preprocessing>(),
     .doc = "autoencoder input", .choices = core::kPreprocessingNames},
    {.flag = "score", .member = knob_enum<&Options::score>(), .doc = "reconstruction score",
     .choices = core::kReconstructionScoreNames},
};
constexpr Knob<Options> kServeKnobs[] = {
    {.flag = "fake-clock", .member = &Options::fake_clock,
     .doc = "fake time: only injected stalls elapse, so runs reproduce bit for bit"},
    {.flag = "health-out", .member = &Options::health_out, .doc = "also write the health JSON here"},
    {.flag = "threshold-store", .member = &Options::threshold_store,
     .doc = "persist swapped thresholds here and recover them at start (single stream)"},
};
constexpr Knob<Options> kKernelKnobs[] = {
    {.flag = "kernel", .member = &Options::kernel, .doc = "GEMM kernel (default: the CPU's best)",
     .choices = kKernelNames},
};
constexpr Knob<Options> kReplayKnobs[] = {
    {.flag = "trace", .member = &Options::trace, .doc = "recorded trace file"},
    {.flag = "tolerance", .member = &Options::tolerance,
     .doc = "relative float tolerance (0 = bit-exact)", .lo = 0, .hi = 1},
    {.flag = "threads", .member = &Options::threads, .doc = "worker threads (0 = automatic)",
     .lo = 0, .hi = 1024},
    {.flag = "report", .member = &Options::report, .doc = "also write the result line here"},
};

constexpr std::span<const Knob<Options>> kCliTables[] = {
    kPipelineKnobs, kOutKnobs,    kDataKnobs,   kSteeringKnobs, kGenerateKnobs, kTrainKnobs,
    kNetKnobs,      kFitKnobs,    kServeKnobs,  kKernelKnobs,   kReplayKnobs,
};

/// "--flag" of the CLI row holding `member`.
template <typename T>
std::string cli_flag(T Options::*member) {
  for (const auto rows : kCliTables) {
    for (const Knob<Options>& row : rows) {
      const auto* m = std::get_if<T Options::*>(&row.member);
      if (m != nullptr && *m == member) return std::string("--") + row.flag;
    }
  }
  return "?";
}

// --- where each table's rows write ---------------------------------------------

Options& self(Options& o) { return o; }
trace::TraceRunSpec& spec(Options& o) { return o.spec; }
serving::SupervisorConfig& supervisor(Options& o) { return o.spec.supervisor; }
serving::CircuitBreakerConfig& breaker(Options& o) { return o.spec.supervisor.breaker; }
calib::OnlineCalibrationConfig& calibration(Options& o) {
  return o.spec.supervisor.calibration;
}
trace::TraceClusterSpec& trace_cluster(Options& o) { return o.spec.cluster; }
serving::ClusterKnobs& cluster(Options& o) { return o.spec.cluster; }
serving::WatchdogConfig& watchdog(Options& o) { return o.spec.cluster.watchdog; }
/// The first stall row given schedules the run's one stall.
faults::TimingFault& stall(Options& o) {
  if (o.spec.stalls.empty()) o.spec.stalls.emplace_back();
  return o.spec.stalls.back();
}
/// The first camera-fault row given schedules the run's one camera fault.
trace::TraceCameraFault& camera_fault(Options& o) {
  if (o.spec.camera_faults.empty()) o.spec.camera_faults.emplace_back();
  return o.spec.camera_faults.back();
}

/// One knob table a subcommand accepts, bound to the part of Options its
/// rows set.
struct Table {
  const char* name;
  int (*find)(std::string_view flag);  ///< row index, or -1
  bool (*is_switch)(int row);
  void (*set)(Options& o, int row, std::string_view value);
  std::string (*usage)();
};

template <const auto& Rows, auto Target>
constexpr Table bind(const char* name) {
  return {name,
          [](std::string_view flag) {
            for (size_t i = 0; i < std::size(Rows); ++i) {
              if (flag == Rows[i].flag) return static_cast<int>(i);
            }
            return -1;
          },
          [](int row) { return knob_is_switch(Rows[row]); },
          [](Options& o, int row, std::string_view value) { set_knob(Rows[row], Target(o), value); },
          [] {
            std::string text;
            for (const auto& row : Rows) text += knob_usage(row);
            return text;
          }};
}

constexpr Table kPipeline = bind<kPipelineKnobs, self>("input pipeline");
constexpr Table kOut = bind<kOutKnobs, self>("output");
constexpr Table kData = bind<kDataKnobs, self>("training data");
constexpr Table kSteering = bind<kSteeringKnobs, self>("steering model");
constexpr Table kGenerate = bind<kGenerateKnobs, self>("rendering");
constexpr Table kTrain = bind<kTrainKnobs, self>("training");
constexpr Table kNet = bind<kNetKnobs, self>("network");
constexpr Table kFit = bind<kFitKnobs, self>("detector");
constexpr Table kServe = bind<kServeKnobs, self>("serving");
constexpr Table kKernel = bind<kKernelKnobs, self>("gemm");
constexpr Table kReplay = bind<kReplayKnobs, self>("replay");
constexpr Table kSeed = bind<trace::kSeedKnobs, spec>("rng");
constexpr Table kDataset = bind<trace::kDatasetKnobs, spec>("scenes");
constexpr Table kFrames = bind<trace::kFramesKnobs, spec>("length");
constexpr Table kFaultSeed = bind<trace::kFaultSeedKnobs, spec>("fault rng");
constexpr Table kCameraFault = bind<trace::kCameraFaultKnobs, camera_fault>("camera faults");
constexpr Table kSupervisor = bind<serving::kSupervisorKnobs, supervisor>("supervisor");
constexpr Table kBreaker = bind<serving::kBreakerKnobs, breaker>("breaker");
constexpr Table kCalibration = bind<calib::kCalibrationKnobs, calibration>("calibration");
constexpr Table kStall = bind<faults::kStallKnobs, stall>("stalls");
constexpr Table kTraceCluster = bind<trace::kTraceClusterKnobs, trace_cluster>("arrivals");
constexpr Table kCluster = bind<serving::kClusterKnobs, cluster>("cluster");
constexpr Table kWatchdog = bind<serving::kWatchdogKnobs, watchdog>("failover");

int fail(const std::string& message) {
  std::fprintf(stderr, "salnov: %s\n", message.c_str());
  return 1;
}

int fail(const Options& o, const std::string& message) {
  return fail(std::string(o.command) + ": " + message);
}

/// An error naming the first of `required` left empty; nullopt when all are set.
std::optional<std::string> missing(const Options& o,
                                   std::initializer_list<std::string Options::*> required) {
  for (const auto member : required) {
    if ((o.*member).empty()) return cli_flag(member) + " is required";
  }
  return std::nullopt;
}

// --- generate ---------------------------------------------------------------

int cmd_generate(Options& o) {
  if (const auto error = missing(o, {&Options::out})) return fail(o, *error);
  std::filesystem::create_directories(o.out);

  Rng rng(o.spec.frame_seed);
  const auto generator = roadsim::make_scene_generator(o.spec.dataset);
  const auto data = roadsim::DrivingDataset::generate(*generator, o.count, o.height, o.width, rng);
  std::ofstream labels(o.out + "/labels.csv");
  labels << "file,steering\n";
  for (int64_t i = 0; i < data.size(); ++i) {
    char name[32];
    std::snprintf(name, sizeof name, "img%05lld.pgm", static_cast<long long>(i));
    write_pgm(o.out + "/" + name, data.image(i));
    labels << name << ',' << data.steering(i) << '\n';
  }
  std::printf("wrote %lld %s scenes to %s (labels.csv included)\n",
              static_cast<long long>(o.count), o.spec.dataset.c_str(), o.out.c_str());
  return 0;
}

// --- shared data loading ----------------------------------------------------

struct LoadedData {
  std::vector<Image> images;
  std::vector<double> steering;
};

std::optional<LoadedData> load_directory(const std::string& dir) {
  std::ifstream labels(dir + "/labels.csv");
  if (!labels) return std::nullopt;
  LoadedData data;
  std::string line;
  std::getline(labels, line);  // header
  while (std::getline(labels, line)) {
    const auto comma = line.find(',');
    if (comma == std::string::npos) continue;
    data.images.push_back(read_pgm(dir + "/" + line.substr(0, comma)));
    data.steering.push_back(std::stod(line.substr(comma + 1)));
  }
  if (data.images.empty()) return std::nullopt;
  return data;
}

// --- train-steering -----------------------------------------------------------

int cmd_train_steering(Options& o) {
  if (const auto error = missing(o, {&Options::data, &Options::out})) return fail(o, *error);
  const auto data = load_directory(o.data);
  if (!data) return fail(o, "cannot load " + o.data + "/labels.csv");

  roadsim::DrivingDataset dataset;
  for (size_t i = 0; i < data->images.size(); ++i) {
    dataset.add(data->images[i], data->steering[i], roadsim::SceneParams{});
  }

  Rng rng(o.spec.frame_seed);
  auto config = o.net == NetConfig::kPaper ? driving::PilotNetConfig::paper()
                                           : driving::PilotNetConfig::compact();
  config.input_height = dataset.height();
  config.input_width = dataset.width();
  nn::Sequential model = driving::build_pilotnet(config, rng);

  driving::SteeringTrainOptions options;
  options.epochs = o.epochs;
  options.verbose = o.verbose;
  const auto result = driving::train_steering_model(model, dataset, options, rng);
  nn::save_model_file(o.out, model);
  std::printf("trained steering model on %lld images (final loss %.5f); saved to %s\n",
              static_cast<long long>(dataset.size()), result.train_mse, o.out.c_str());
  return 0;
}

// --- fit ---------------------------------------------------------------------

int cmd_fit(Options& o) {
  if (const auto error = missing(o, {&Options::data, &Options::out})) return fail(o, *error);
  const auto data = load_directory(o.data);
  if (!data) return fail(o, "cannot load " + o.data + "/labels.csv");

  core::NoveltyDetectorConfig config;
  config.height = data->images.front().height();
  config.width = data->images.front().width();
  config.preprocessing = o.preprocessing;
  config.score = o.score;
  config.train_epochs = o.epochs;
  config.verbose = o.verbose;

  std::unique_ptr<nn::Sequential> steering;
  if (core::uses_saliency(config.preprocessing)) {
    if (const auto error = missing(o, {&Options::steering})) {
      return fail(o, *error + " for saliency preprocessing");
    }
    steering = std::make_unique<nn::Sequential>(nn::load_model_file(o.steering));
    nn::require_model_shape(*steering, {1, 1, config.height, config.width}, {1, 1},
                            "fit: steering model " + o.steering);
  }

  core::NoveltyDetector detector(config);
  if (steering) detector.attach_steering_model(steering.get());
  Rng rng(o.spec.frame_seed);
  const auto history = detector.fit(data->images, rng);
  core::PipelineIo::save_file(o.out, detector, steering.get());
  std::printf("fitted detector on %lld images (final loss %.4f, threshold %.4f); saved to %s\n",
              static_cast<long long>(data->images.size()), history.final_loss(),
              detector.threshold().threshold(), o.out.c_str());
  return 0;
}

// --- classify ------------------------------------------------------------------

int cmd_classify(Options& o) {
  if (const auto error = missing(o, {&Options::pipeline})) return fail(o, *error);
  if (o.images.empty()) return fail(o, "at least one image is required");
  core::LoadedPipeline pipeline = core::PipelineIo::load_file(o.pipeline);
  std::printf("%-40s %10s %10s  %s\n", "image", "score", "threshold", "verdict");
  int novel_count = 0;
  for (const std::string& path : o.images) {
    const Image image = read_pgm(path);
    const core::NoveltyResult result = pipeline.detector->classify(image);
    novel_count += result.is_novel ? 1 : 0;
    std::printf("%-40s %10.4f %10.4f  %s\n", path.c_str(), result.score, result.threshold,
                result.is_novel ? "NOVEL" : "ok");
  }
  std::printf("%d/%zu flagged novel\n", novel_count, o.images.size());
  return 0;
}

// --- saliency -------------------------------------------------------------------

int cmd_saliency(Options& o) {
  if (const auto error = missing(o, {&Options::steering})) return fail(o, *error);
  if (o.images.empty()) return fail(o, "at least one image is required");
  std::filesystem::create_directories(o.out);
  nn::Sequential model = nn::load_model_file(o.steering);
  saliency::VisualBackProp vbp;
  for (const std::string& path : o.images) {
    const Image image = read_pgm(path);
    nn::require_model_shape(model, {1, 1, image.height(), image.width()}, {1, 1},
                            "saliency: steering model " + o.steering);
    const Image mask = vbp.compute(model, image);
    Image overlay(image.height(), image.width());
    for (int64_t i = 0; i < overlay.numel(); ++i) {
      overlay.tensor()[i] = 0.45f * image.tensor()[i] + 0.55f * mask.tensor()[i];
    }
    const std::string stem = o.out + "/" + std::filesystem::path(path).stem().string();
    write_pgm(stem + "_mask.pgm", mask);
    write_pgm(stem + "_overlay.pgm", overlay);
    std::printf("%s -> %s_mask.pgm, %s_overlay.pgm (steering %.3f)\n", path.c_str(), stem.c_str(),
                stem.c_str(), driving::predict_steering(model, image));
  }
  return 0;
}

// --- serve / record / replay ------------------------------------------------------

/// Completes the scenario serve and record share, then validates it: the
/// run takes the pipeline's resolution, and a forced swap needs the
/// calibration loop's shadow sketches.
void finish_scenario(Options& o, const core::LoadedPipeline& pipeline) {
  trace::TraceRunSpec& spec = o.spec;
  spec.height = pipeline.detector->config().height;
  spec.width = pipeline.detector->config().width;
  calib::OnlineCalibrationConfig& calibration = spec.supervisor.calibration;
  calibration.enabled = calibration.enabled || !calibration.forced_swap_frames.empty();
  spec.validate();
  // A fault schedule without a watchdog is legal (faults hit, nobody
  // reacts) but almost never what the operator meant.
  if (!spec.cluster.replica_faults.empty() && !spec.cluster.watchdog.enabled) {
    std::fprintf(stderr,
                 "salnov: note: replica faults without --%s — faults will fire but no failover "
                 "will occur\n",
                 knob_flag(serving::kWatchdogKnobs, &serving::WatchdogConfig::enabled));
  }
}

/// Prints the grep-able `name=value` line of the kHealthCounters row that
/// holds `member`.
void print_counter(const serving::HealthSnapshot& health,
                   int64_t serving::HealthSnapshot::*member) {
  for (const auto& row : serving::kHealthCounters) {
    if (row.member == member) {
      std::printf("%s=%lld\n", row.name, static_cast<long long>(health.*member));
    }
  }
}

/// Prints the health JSON, and writes it to --health-out when given.
bool print_health(const Options& o, const serving::HealthSnapshot& health) {
  const std::string json = health.to_json();
  if (!o.health_out.empty()) {
    std::ofstream out(o.health_out);
    if (!out) return false;
    out << json << '\n';
  }
  std::printf("%s\n", json.c_str());
  return true;
}

/// Multi-stream serve: the spec's streams run through trace::drive, under
/// --fake-clock with the arrival schedule staged (so the batch composition,
/// and hence every line printed, is reproducible bit for bit), otherwise
/// live on the wall clock.
int serve_cluster(const Options& o, const core::LoadedPipeline& pipeline) {
  struct StreamCounts {
    int64_t frames = 0, scored = 0, novel = 0;
  };
  std::vector<StreamCounts> counts(static_cast<size_t>(o.spec.cluster.streams));
  const trace::DriveOutcome run = trace::drive(
      o.spec, *pipeline.detector, pipeline.steering_model.get(),
      [&counts](const trace::TraceFrame& frame) {
        StreamCounts& c = counts[static_cast<size_t>(frame.stream_id)];
        ++c.frames;
        c.scored += frame.scored ? 1 : 0;
        c.novel += (frame.scored && frame.novel) ? 1 : 0;
      },
      !o.fake_clock);

  if (!print_health(o, run.health)) return fail(o, "cannot write " + o.health_out);
  // Grep-able per-stream summary lines for shell harnesses.
  int64_t novel_total = 0;
  for (size_t s = 0; s < counts.size(); ++s) {
    const StreamCounts& c = counts[s];
    novel_total += c.novel;
    std::printf("stream=%lld frames=%lld scored=%lld novel=%lld final_mode=%s breaker_state=%s\n",
                static_cast<long long>(s), static_cast<long long>(c.frames),
                static_cast<long long>(c.scored), static_cast<long long>(c.novel),
                serving::serving_mode_name(run.stream_health[s].mode),
                serving::breaker_state_name(run.stream_health[s].breaker_state));
  }

  // Aggregate lines, same keys as single-stream serve plus batching counters.
  std::printf("streams=%lld\n", static_cast<long long>(counts.size()));
  std::printf("replicas=%lld\n", static_cast<long long>(run.replicas));
  std::printf("final_mode=%s\n", serving::serving_mode_name(run.health.mode));
  std::printf("breaker_state=%s\n", serving::breaker_state_name(run.health.breaker_state));
  print_counter(run.health, &serving::HealthSnapshot::frames_total);
  print_counter(run.health, &serving::HealthSnapshot::frames_scored);
  std::printf("novel_frames=%lld\n", static_cast<long long>(novel_total));
  print_counter(run.health, &serving::HealthSnapshot::deadline_overruns);
  // Batching and failure-domain counters (the latter all zero without a
  // watchdog / fault schedule).
  for (const auto& row : serving::kClusterCounters) {
    std::printf("%s=%lld\n", row.name, static_cast<long long>(run.stats.*row.member));
  }
  for (const serving::ClusterEvent& event : run.events) {
    std::printf("cluster_event kind=%s at_us=%lld replica=%lld stream=%lld detail=%lld\n",
                serving::cluster_event_kind_name(event.kind),
                static_cast<long long>(event.at_ns / 1000), static_cast<long long>(event.replica),
                static_cast<long long>(event.stream), static_cast<long long>(event.detail));
  }
  return 0;
}

int cmd_serve(Options& o) {
  if (const auto error = missing(o, {&Options::pipeline})) return fail(o, *error);
  core::LoadedPipeline pipeline = core::PipelineIo::load_file(o.pipeline);
  finish_scenario(o, pipeline);
  const trace::TraceRunSpec& spec = o.spec;
  if (spec.cluster.streams > 0) {
    if (!o.threshold_store.empty()) {
      return fail(o, cli_flag(&Options::threshold_store) +
                         " is single-stream only (one store per supervisor)");
    }
    return serve_cluster(o, pipeline);
  }

  const core::NoveltyDetector& detector = *pipeline.detector;
  serving::SupervisorConfig config = spec.supervisor;
  config.calibration.store_path = o.threshold_store;
  faults::TimingFaultInjector injector;
  for (const faults::TimingFault& stall : spec.stalls) injector.add(stall);
  if (!injector.empty()) config.timing_faults = &injector;

  // Under --fake-clock the only elapsed time is the injected stalls, so the
  // overrun/fallback trace is reproducible bit-for-bit across machines.
  serving::FakeClock fake_clock;
  serving::Supervisor supervisor(detector, pipeline.steering_model.get(), config,
                                 o.fake_clock ? &fake_clock : nullptr);

  // Crash recovery: an earlier run's swap that completed its atomic rename
  // (even if the process died immediately after) is picked up here.
  if (!o.threshold_store.empty() && std::filesystem::exists(o.threshold_store)) {
    auto recovered =
        std::make_shared<calib::ThresholdSet>(calib::ThresholdSet::load_file(o.threshold_store));
    std::printf("recovered threshold store %s (epoch %lld)\n", o.threshold_store.c_str(),
                static_cast<long long>(recovered->epoch));
    supervisor.install_thresholds(std::move(recovered));
  }

  const auto generator = roadsim::make_scene_generator(spec.dataset);
  Rng rng(spec.frame_seed);
  int64_t novel_frames = 0;
  for (int64_t i = 0; i < spec.frames; ++i) {
    const roadsim::Sample sample = generator->generate(rng);
    Image view = resize_bilinear(sample.rgb.to_grayscale(), spec.height, spec.width);
    const serving::ServeResult result = supervisor.process(view);
    novel_frames += (result.scored && result.novel) ? 1 : 0;
  }

  const serving::HealthSnapshot health = supervisor.health();
  if (!print_health(o, health)) return fail(o, "cannot write " + o.health_out);
  // Grep-able summary lines for shell harnesses.
  std::printf("final_mode=%s\n", serving::serving_mode_name(health.mode));
  std::printf("breaker_state=%s\n", serving::breaker_state_name(health.breaker_state));
  print_counter(health, &serving::HealthSnapshot::frames_total);
  print_counter(health, &serving::HealthSnapshot::frames_scored);
  std::printf("novel_frames=%lld\n", static_cast<long long>(novel_frames));
  print_counter(health, &serving::HealthSnapshot::deadline_overruns);
  print_counter(health, &serving::HealthSnapshot::step_downs);
  print_counter(health, &serving::HealthSnapshot::promotions);
  print_counter(health, &serving::HealthSnapshot::breaker_trips);
  for (const serving::ThresholdSwapEvent& event : supervisor.swap_events()) {
    std::printf("swap_event frame=%lld epoch=%lld reason=%s persisted=%d\n",
                static_cast<long long>(event.frame_index), static_cast<long long>(event.epoch),
                event.forced ? "forced" : "drift", event.persisted ? 1 : 0);
  }
  print_counter(health, &serving::HealthSnapshot::threshold_swaps);
  print_counter(health, &serving::HealthSnapshot::drift_checks);
  print_counter(health, &serving::HealthSnapshot::drift_detections);
  return 0;
}

/// Applies --kernel (no flag: the ambient dispatch). Returns false when the
/// SIMD kernel is asked for on a CPU without it.
bool apply_kernel(const Options& o) {
  if (o.kernel.empty()) return true;
  const bool simd = o.kernel == kKernelNames[1];
  if (simd && !gemm_simd_available()) return false;
  set_gemm_kernel(simd ? GemmKernel::kSimd : GemmKernel::kScalar);
  return true;
}

int cmd_record(Options& o) {
  if (const auto error = missing(o, {&Options::pipeline, &Options::out})) return fail(o, *error);
  if (!apply_kernel(o)) return fail(o, "SIMD kernel not available on this CPU");
  core::LoadedPipeline pipeline = core::PipelineIo::load_file(o.pipeline);
  trace::TraceRunSpec& spec = o.spec;
  // Bind the trace to the exact pipeline bytes it was recorded against.
  const std::string payload = load_file_checked(o.pipeline);
  spec.pipeline_crc = crc32(payload.data(), payload.size());
  spec.pipeline_bytes = static_cast<int64_t>(payload.size());
  finish_scenario(o, pipeline);

  const trace::Trace trace =
      trace::TraceRecorder::record(spec, *pipeline.detector, pipeline.steering_model.get());
  trace.save_file(o.out);
  std::printf("recorded %lld frames (%lld scored, %lld sensor-bad, %lld abandoned) to %s\n",
              static_cast<long long>(trace.health.frames_total),
              static_cast<long long>(trace.health.frames_scored),
              static_cast<long long>(trace.health.frames_sensor_bad),
              static_cast<long long>(trace.health.frames_abandoned), o.out.c_str());
  return 0;
}

int cmd_replay(Options& o) {
  if (const auto error = missing(o, {&Options::pipeline, &Options::trace})) {
    return fail(o, *error);
  }
  if (!apply_kernel(o)) return fail(o, "SIMD kernel not available on this CPU");
  parallel::set_num_threads(o.threads);

  const trace::Trace trace = trace::Trace::load_file(o.trace);
  if (trace.spec.pipeline_crc != 0) {
    const std::string payload = load_file_checked(o.pipeline);
    if (trace.spec.pipeline_crc != crc32(payload.data(), payload.size()) ||
        trace.spec.pipeline_bytes != static_cast<int64_t>(payload.size())) {
      return fail(o, o.pipeline +
                         " is not the pipeline this trace was recorded against (CRC mismatch)");
    }
  }
  core::LoadedPipeline pipeline = core::PipelineIo::load_file(o.pipeline);

  trace::ReplayOptions options;
  options.score_tolerance = o.tolerance;
  const trace::ReplayReport report = trace::TraceReplayer::replay(
      trace, *pipeline.detector, pipeline.steering_model.get(), options);

  const std::string line = report.format();
  std::printf("%s\n", line.c_str());
  if (!o.report.empty()) {
    std::ofstream out(o.report);
    if (!out) return fail(o, "cannot write " + o.report);
    out << line << '\n';
  }
  return report.ok() ? 0 : 1;
}

// --- commands -------------------------------------------------------------------

struct Command {
  const char* name;
  int (*run)(Options&);
  std::vector<Table> tables;
  const char* positional = "";                 ///< "IMAGE..." when images follow the flags
  void (*preset)(Options&) = [](Options&) {};  ///< the command's own defaults
};

const std::vector<Command>& commands() {
  static const std::vector<Command> list = {
      {"generate", cmd_generate, {kOut, kGenerate, kDataset, kSeed}},
      {"train-steering", cmd_train_steering, {kData, kOut, kTrain, kNet, kSeed}, "",
       [](Options& o) { o.epochs = 25; }},
      {"fit", cmd_fit, {kData, kSteering, kOut, kFit, kTrain, kSeed}, "",
       [](Options& o) { o.epochs = 100; }},
      {"classify", cmd_classify, {kPipeline}, "IMAGE..."},
      {"saliency", cmd_saliency, {kSteering, kOut}, "IMAGE...", [](Options& o) { o.out = "."; }},
      {"serve", cmd_serve,
       {kPipeline, kServe, kFrames, kDataset, kSeed, kSupervisor, kBreaker, kCalibration, kStall,
        kTraceCluster, kCluster, kWatchdog},
       "", [](Options& o) { o.spec.frames = 200; }},
      {"record", cmd_record,
       {kPipeline, kOut, kKernel, kFrames, kDataset, kSeed, kFaultSeed, kCameraFault, kSupervisor,
        kBreaker, kCalibration, kStall, kTraceCluster, kCluster, kWatchdog},
       "", [](Options& o) { o.spec.frames = 100; }},
      {"replay", cmd_replay, {kPipeline, kReplay, kKernel}},
  };
  return list;
}

/// Fills Options from argv[2..]: every flag must be a row of one of the
/// command's tables, and every value must parse into it.
Options parse(const Command& command, int argc, char** argv) {
  Options o;
  o.command = command.name;
  command.preset(o);
  for (int i = 2; i < argc; ++i) {
    const std::string_view token = argv[i];
    if (token.substr(0, 2) != "--") {
      if (*command.positional == '\0') {
        throw std::invalid_argument("unexpected argument '" + std::string(token) + "'");
      }
      o.images.emplace_back(token);
      continue;
    }
    const std::string_view flag = token.substr(2);
    const Table* table = nullptr;
    int row = -1;
    for (const Table& t : command.tables) {
      if ((row = t.find(flag)) >= 0) {
        table = &t;
        break;
      }
    }
    if (table == nullptr) throw std::invalid_argument("unknown flag " + std::string(token));
    std::string_view value;
    if (!table->is_switch(row)) {
      if (i + 1 >= argc) throw std::invalid_argument(std::string(token) + " needs a value");
      value = argv[++i];
    }
    table->set(o, row, value);
  }
  return o;
}

int usage() {
  std::string text = "usage: salnov <command> [flags]\n";
  std::vector<std::string> shown;
  std::string flags;
  for (const Command& command : commands()) {
    std::string line = "  " + std::string(command.name);
    line.resize(18, ' ');
    for (const Table& table : command.tables) {
      line += std::string(" [") + table.name + "]";
      if (std::find(shown.begin(), shown.end(), table.name) == shown.end()) {
        shown.emplace_back(table.name);
        flags += std::string("  [") + table.name + "]\n" + table.usage();
      }
    }
    text += line + (*command.positional ? " " : "") + command.positional + "\n";
  }
  std::fprintf(stderr, "%sflags:\n%s", text.c_str(), flags.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string_view name = argc >= 2 ? argv[1] : "";
  for (const Command& command : commands()) {
    if (name != command.name) continue;
    try {
      Options options;
      try {
        options = parse(command, argc, argv);
      } catch (const std::invalid_argument& e) {
        return fail(std::string(command.name) + ": " + e.what());
      }
      return command.run(options);
    } catch (const TruncatedFileError& e) {
      return fail(std::string(e.what()) +
                  " (file is incomplete — re-run the fit/train step that produced it)");
    } catch (const CorruptFileError& e) {
      return fail(std::string(e.what()) +
                  " (file is damaged — restore it from backup or re-create it)");
    } catch (const SerializationError& e) {
      return fail(std::string("cannot read file: ") + e.what());
    } catch (const std::exception& e) {
      return fail(std::string(command.name) + ": " + e.what());
    }
  }
  return usage();
}
