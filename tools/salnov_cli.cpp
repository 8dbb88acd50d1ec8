// salnov — command-line front end for the library.
//
// Subcommands cover the full offline workflow so the pipeline can be driven
// without writing C++:
//
//   salnov generate --out DIR --dataset outdoor|indoor --count N [--seed S]
//       Render scenes to PGM files plus a labels.csv (file, steering).
//   salnov train-steering --data DIR --out MODEL [--epochs N] [--config compact|paper]
//       Train the steering CNN on a generated directory.
//   salnov fit --data DIR --steering MODEL --out PIPELINE
//       [--preprocessing vbp|raw|gradient|lrp] [--score ssim|mse] [--epochs N]
//       Fit the novelty detector and save the whole pipeline.
//   salnov classify --pipeline PIPELINE IMAGE...
//       Score images; prints score, threshold, verdict per image.
//   salnov saliency --steering MODEL --out DIR IMAGE...
//       Dump VBP masks and overlays for images.
//   salnov serve --pipeline PIPELINE [--frames N] [--dataset outdoor|indoor]
//       [--fake-clock] [--stall-stage K --stall-ns NS ...] [--health-out FILE]
//       [--online-calib] [--force-swap-at N] [--threshold-store FILE]
//       [--streams N [--replicas R] [--batch-window-us W] [--max-batch B]
//        [--arrival-us U]]
//       Drive the fault-tolerant serving runtime over generated frames and
//       report the health snapshot (mode ladder, breaker, overrun counters,
//       drift/swap counters). With --online-calib the shadow calibration
//       runs and drift can hot-swap thresholds; --threshold-store persists
//       swapped sets crash-safely and reloads them at startup. With
//       --streams the multi-stream ServingCluster serves N streams
//       (--frames each) through cross-frame micro-batching and prints one
//       grep-able "stream=S ..." summary line per stream plus aggregate
//       batching counters. --watchdog enables health-checked replica
//       failover (quarantine, half-open probe restore, bounded re-dispatch),
//       --admission-credits bounds per-stream pending frames (oldest-first
//       shed past the bound), and --replica-fault injects a deterministic
//       packed fault schedule ("kind:replica:start_us:end_us[:arg[:seed]]"
//       entries joined with ';', kind in crash|hang|slow|corrupt; requires
//       --fake-clock). Failure-domain counters and the cluster event log
//       are printed as grep-able lines.
//   salnov record --pipeline PIPELINE --out TRACE [--frames N] [scenario flags]
//       Run a scenario under the FakeClock and capture the full per-frame
//       decision trace into a CRC-guarded golden-trace file. With --streams
//       the multi-stream cluster scenario is recorded (frames per stream,
//       round-robin arrivals every --arrival-us); serve's failure-domain
//       flags record a format-v4 trace whose failover/quarantine/shed
//       events replay bit-exactly.
//   salnov replay --pipeline PIPELINE --trace TRACE [--tolerance X]
//       [--threads N] [--kernel scalar|simd] [--report FILE]
//       Re-drive a recorded trace and diff the decision streams; exits 1 and
//       prints the first divergence (frame, stage, field) on any mismatch.
//
// All images are 8-bit PGM at the pipeline resolution (60x160 by default;
// --height/--width override consistently across subcommands).
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "salnov.hpp"
#include "tensor/gemm.hpp"

namespace {

using namespace salnov;

struct Args {
  std::string command;
  std::map<std::string, std::string> options;
  std::vector<std::string> positional;

  std::string get(const std::string& key, const std::string& fallback = "") const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  int64_t get_int(const std::string& key, int64_t fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : std::stoll(it->second);
  }
  bool has(const std::string& key) const { return options.count(key) > 0; }
};

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) == 0) {
      const std::string key = token.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        args.options[key] = argv[++i];
      } else {
        args.options[key] = "1";
      }
    } else {
      args.positional.push_back(token);
    }
  }
  return args;
}

int usage() {
  std::fprintf(stderr,
               "usage: salnov <command> [options]\n"
               "  generate        --out DIR --dataset outdoor|indoor --count N [--seed S]\n"
               "  train-steering  --data DIR --out MODEL [--epochs N] [--config compact|paper]\n"
               "  fit             --data DIR --steering MODEL --out PIPELINE\n"
               "                  [--preprocessing vbp|raw|gradient|lrp] [--score ssim|mse]\n"
               "                  [--epochs N]\n"
               "  classify        --pipeline PIPELINE IMAGE...\n"
               "  saliency        --steering MODEL --out DIR IMAGE...\n"
               "  serve           --pipeline PIPELINE [--frames N] [--dataset outdoor|indoor]\n"
               "                  [--fake-clock] [--stage-budget-ns NS] [--frame-budget-ns NS]\n"
               "                  [--stall-stage K --stall-ns NS [--stall-first F]\n"
               "                   [--stall-last L] [--stall-period P]]\n"
               "                  [--demote-after N] [--promote-after N] [--quant]\n"
               "                  [--breaker-threshold N] [--breaker-open-frames N]\n"
               "                  [--online-calib] [--drift-tolerance X]\n"
               "                  [--drift-min-samples N] [--drift-check-every N]\n"
               "                  [--drift-trigger N] [--drift-release N]\n"
               "                  [--calib-warmup N] [--force-swap-at N]\n"
               "                  [--threshold-store FILE] [--health-out FILE]\n"
               "                  [--streams N [--replicas R] [--batch-window-us W]\n"
               "                   [--max-batch B] [--arrival-us U]\n"
               "                   [--watchdog] [--batch-deadline-us US]\n"
               "                   [--heartbeat-timeout-us US] [--missed-deadlines N]\n"
               "                   [--canary-period-us US] [--canary-failures N]\n"
               "                   [--probe-backoff-us US] [--max-probe-backoff-us US]\n"
               "                   [--max-redispatches N] [--admission-credits N]\n"
               "                   [--replica-fault k:r:s_us:e_us[:arg[:seed]][;...]]]\n"
               "  record          --pipeline PIPELINE --out TRACE [--frames N]\n"
               "                  [--dataset outdoor|indoor] [--frame-seed S] [--fault-seed S]\n"
               "                  [--kernel scalar|simd] [serve's budget/ladder/breaker flags]\n"
               "                  [--stall-stage K --stall-ns NS [--stall-first F]\n"
               "                   [--stall-last L] [--stall-period P]]\n"
               "                  [--camera-fault NAME [--fault-severity X] [--fault-first F]\n"
               "                   [--fault-last L] [--fault-period P]]\n"
               "                  [serve's --online-calib/drift/forced-swap flags]\n"
               "                  [--streams N [--replicas R] [--batch-window-us W]\n"
               "                   [--max-batch B] [--arrival-us U]\n"
               "                   [serve's --watchdog/--admission-credits/--replica-fault flags]]\n"
               "  replay          --pipeline PIPELINE --trace TRACE [--tolerance X]\n"
               "                  [--threads N] [--kernel scalar|simd] [--report FILE]\n"
               "common: --height H --width W (default 60 160), --seed S\n");
  return 2;
}

int fail(const std::string& message) {
  std::fprintf(stderr, "salnov: %s\n", message.c_str());
  return 1;
}

// --- generate ---------------------------------------------------------------

int cmd_generate(const Args& args) {
  const std::string out_dir = args.get("out");
  const std::string dataset = args.get("dataset", "outdoor");
  const int64_t count = args.get_int("count", 100);
  const int64_t height = args.get_int("height", 60);
  const int64_t width = args.get_int("width", 160);
  if (out_dir.empty()) return fail("generate: --out is required");
  std::filesystem::create_directories(out_dir);

  Rng rng(static_cast<uint64_t>(args.get_int("seed", 1)));
  const auto generator = roadsim::make_scene_generator(dataset);
  if (!generator) return fail("generate: unknown dataset '" + dataset + "'");

  const auto data = roadsim::DrivingDataset::generate(*generator, count, height, width, rng);
  std::ofstream labels(out_dir + "/labels.csv");
  labels << "file,steering\n";
  for (int64_t i = 0; i < data.size(); ++i) {
    char name[32];
    std::snprintf(name, sizeof name, "img%05lld.pgm", static_cast<long long>(i));
    write_pgm(out_dir + "/" + name, data.image(i));
    labels << name << ',' << data.steering(i) << '\n';
  }
  std::printf("wrote %lld %s scenes to %s (labels.csv included)\n", static_cast<long long>(count),
              dataset.c_str(), out_dir.c_str());
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

int cmd_train_steering(const Args& args) {
  const std::string data_dir = args.get("data");
  const std::string out_path = args.get("out");
  if (data_dir.empty() || out_path.empty()) {
    return fail("train-steering: --data and --out are required");
  }
  const auto data = load_directory(data_dir);
  if (!data) return fail("train-steering: cannot load " + data_dir + "/labels.csv");

  roadsim::DrivingDataset dataset;
  for (size_t i = 0; i < data->images.size(); ++i) {
    dataset.add(data->images[i], data->steering[i], roadsim::SceneParams{});
  }

  Rng rng(static_cast<uint64_t>(args.get_int("seed", 1)));
  auto config = args.get("config", "compact") == "paper" ? driving::PilotNetConfig::paper()
                                                         : driving::PilotNetConfig::compact();
  config.input_height = dataset.height();
  config.input_width = dataset.width();
  nn::Sequential model = driving::build_pilotnet(config, rng);

  driving::SteeringTrainOptions options;
  options.epochs = args.get_int("epochs", 25);
  options.verbose = args.has("verbose");
  const auto result = driving::train_steering_model(model, dataset, options, rng);
  nn::save_model_file(out_path, model);
  std::printf("trained steering model on %lld images (final loss %.5f); saved to %s\n",
              static_cast<long long>(dataset.size()), result.train_mse, out_path.c_str());
  return 0;
}

// --- fit ---------------------------------------------------------------------

int cmd_fit(const Args& args) {
  const std::string data_dir = args.get("data");
  const std::string steering_path = args.get("steering");
  const std::string out_path = args.get("out");
  if (data_dir.empty() || out_path.empty()) return fail("fit: --data and --out are required");
  const auto data = load_directory(data_dir);
  if (!data) return fail("fit: cannot load " + data_dir + "/labels.csv");

  core::NoveltyDetectorConfig config;
  config.height = data->images.front().height();
  config.width = data->images.front().width();
  const std::string pre = args.get("preprocessing", "vbp");
  if (pre == "vbp") {
    config.preprocessing = core::Preprocessing::kVbp;
  } else if (pre == "raw") {
    config.preprocessing = core::Preprocessing::kRaw;
  } else if (pre == "gradient") {
    config.preprocessing = core::Preprocessing::kGradient;
  } else if (pre == "lrp") {
    config.preprocessing = core::Preprocessing::kLrp;
  } else {
    return fail("fit: unknown preprocessing '" + pre + "'");
  }
  config.score = args.get("score", "ssim") == "mse" ? core::ReconstructionScore::kMse
                                                    : core::ReconstructionScore::kSsim;
  config.train_epochs = args.get_int("epochs", 100);
  config.verbose = args.has("verbose");

  std::unique_ptr<nn::Sequential> steering;
  if (core::uses_saliency(config.preprocessing)) {
    if (steering_path.empty()) return fail("fit: --steering is required for saliency preprocessing");
    steering = std::make_unique<nn::Sequential>(nn::load_model_file(steering_path));
    nn::require_model_shape(*steering, {1, 1, config.height, config.width}, {1, 1},
                            "fit: steering model " + steering_path);
  }

  core::NoveltyDetector detector(config);
  if (steering) detector.attach_steering_model(steering.get());
  Rng rng(static_cast<uint64_t>(args.get_int("seed", 1)));
  const auto history = detector.fit(data->images, rng);
  core::PipelineIo::save_file(out_path, detector, steering.get());
  std::printf("fitted detector on %lld images (final loss %.4f, threshold %.4f); saved to %s\n",
              static_cast<long long>(data->images.size()), history.final_loss(),
              detector.threshold().threshold(), out_path.c_str());
  return 0;
}

// --- classify ------------------------------------------------------------------

int cmd_classify(const Args& args) {
  const std::string pipeline_path = args.get("pipeline");
  if (pipeline_path.empty() || args.positional.empty()) {
    return fail("classify: --pipeline and at least one image are required");
  }
  core::LoadedPipeline pipeline = core::PipelineIo::load_file(pipeline_path);
  std::printf("%-40s %10s %10s  %s\n", "image", "score", "threshold", "verdict");
  int novel_count = 0;
  for (const std::string& path : args.positional) {
    const Image image = read_pgm(path);
    const core::NoveltyResult result = pipeline.detector->classify(image);
    novel_count += result.is_novel ? 1 : 0;
    std::printf("%-40s %10.4f %10.4f  %s\n", path.c_str(), result.score, result.threshold,
                result.is_novel ? "NOVEL" : "ok");
  }
  std::printf("%d/%zu flagged novel\n", novel_count, args.positional.size());
  return 0;
}

// --- saliency -------------------------------------------------------------------

int cmd_saliency(const Args& args) {
  const std::string steering_path = args.get("steering");
  const std::string out_dir = args.get("out", ".");
  if (steering_path.empty() || args.positional.empty()) {
    return fail("saliency: --steering and at least one image are required");
  }
  std::filesystem::create_directories(out_dir);
  nn::Sequential model = nn::load_model_file(steering_path);
  saliency::VisualBackProp vbp;
  for (const std::string& path : args.positional) {
    const Image image = read_pgm(path);
    nn::require_model_shape(model, {1, 1, image.height(), image.width()}, {1, 1},
                            "saliency: steering model " + steering_path);
    const Image mask = vbp.compute(model, image);
    Image overlay(image.height(), image.width());
    for (int64_t i = 0; i < overlay.numel(); ++i) {
      overlay.tensor()[i] = 0.45f * image.tensor()[i] + 0.55f * mask.tensor()[i];
    }
    const std::string stem =
        out_dir + "/" + std::filesystem::path(path).stem().string();
    write_pgm(stem + "_mask.pgm", mask);
    write_pgm(stem + "_overlay.pgm", overlay);
    std::printf("%s -> %s_mask.pgm, %s_overlay.pgm (steering %.3f)\n", path.c_str(), stem.c_str(),
                stem.c_str(), driving::predict_steering(model, image));
  }
  return 0;
}

// --- serve ----------------------------------------------------------------------

/// Shared by serve and record: stage/frame budgets, ladder hysteresis,
/// breaker, --quant, the online-calibration knobs, and one --stall-* stage
/// stall (appended to `stalls`). --force-swap-at implies the calibration
/// loop (a forced swap needs the shadow sketches). `store_path` is
/// serve-only — a recorded trace must stay machine-portable.
serving::SupervisorConfig parse_supervisor_flags(const Args& args,
                                                 std::vector<faults::TimingFault>& stalls) {
  serving::SupervisorConfig config;
  if (args.has("stage-budget-ns")) {
    config.stage_budget_ns.fill(args.get_int("stage-budget-ns", 0));
  }
  config.frame_budget_ns = args.get_int("frame-budget-ns", config.frame_budget_ns);
  config.demote_after_bad_frames =
      static_cast<int>(args.get_int("demote-after", config.demote_after_bad_frames));
  config.promote_after_healthy_frames =
      static_cast<int>(args.get_int("promote-after", config.promote_after_healthy_frames));
  config.breaker.failure_threshold =
      static_cast<int>(args.get_int("breaker-threshold", config.breaker.failure_threshold));
  config.breaker.open_frames = args.get_int("breaker-open-frames", config.breaker.open_frames);
  // Int8-quantized ladder rungs; silently inert when the pipeline file was
  // fitted (or saved) without quantization state.
  config.enable_quant_rungs = args.has("quant");

  calib::OnlineCalibrationConfig& calibration = config.calibration;
  calibration.enabled = args.has("online-calib") || args.has("force-swap-at");
  if (args.has("drift-tolerance")) {
    calibration.drift_tolerance = std::stod(args.get("drift-tolerance"));
  }
  calibration.warmup = args.get_int("calib-warmup", calibration.warmup);
  calibration.min_samples = args.get_int("drift-min-samples", calibration.min_samples);
  calibration.check_every_frames =
      args.get_int("drift-check-every", calibration.check_every_frames);
  calibration.trigger_checks = args.get_int("drift-trigger", calibration.trigger_checks);
  calibration.release_checks = args.get_int("drift-release", calibration.release_checks);
  if (args.has("force-swap-at")) {
    calibration.forced_swap_frames.push_back(args.get_int("force-swap-at", 0));
  }

  if (args.has("stall-stage")) {
    faults::TimingFault stall;
    stall.stage = static_cast<int>(args.get_int("stall-stage", 2));
    stall.stall_ns = args.get_int("stall-ns", 0);
    stall.first_frame = args.get_int("stall-first", 0);
    stall.last_frame = args.get_int("stall-last", stall.last_frame);
    stall.period = args.get_int("stall-period", 1);
    stalls.push_back(stall);
  }
  return config;
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

std::optional<faults::ReplicaFaultKind> parse_replica_fault_kind(const std::string& name) {
  if (name == "crash") return faults::ReplicaFaultKind::kCrash;
  if (name == "hang") return faults::ReplicaFaultKind::kHang;
  if (name == "slow") return faults::ReplicaFaultKind::kSlow;
  if (name == "corrupt") return faults::ReplicaFaultKind::kWeightCorrupt;
  return std::nullopt;
}

/// Parses a packed --replica-fault schedule. The flag map keeps only the
/// last occurrence of a repeated flag, so the whole schedule rides in one
/// value: ';'-separated entries of the form
///   kind:replica:start_us:end_us[:arg[:seed]]
/// with kind in crash|hang|slow|corrupt; arg is the slowdown in us for
/// `slow` and the flipped-bit count for `corrupt` (default 64).
bool parse_replica_faults(const std::string& packed, std::vector<faults::ReplicaFault>& out,
                          std::string& error) {
  std::stringstream entries(packed);
  std::string entry;
  while (std::getline(entries, entry, ';')) {
    if (entry.empty()) continue;
    std::vector<std::string> fields;
    std::stringstream fs(entry);
    std::string field;
    while (std::getline(fs, field, ':')) fields.push_back(field);
    if (fields.size() < 4 || fields.size() > 6) {
      error = "bad --replica-fault entry '" + entry +
              "' (want kind:replica:start_us:end_us[:arg[:seed]])";
      return false;
    }
    const auto kind = parse_replica_fault_kind(fields[0]);
    if (!kind) {
      error = "unknown replica fault kind '" + fields[0] + "' (crash|hang|slow|corrupt)";
      return false;
    }
    faults::ReplicaFault fault;
    fault.kind = *kind;
    fault.replica = std::stoll(fields[1]);
    fault.start_ns = std::stoll(fields[2]) * 1000;
    fault.end_ns = std::stoll(fields[3]) * 1000;
    if (fault.kind == faults::ReplicaFaultKind::kSlow) {
      fault.slow_penalty_ns = (fields.size() > 4 ? std::stoll(fields[4]) : 0) * 1000;
    } else if (fault.kind == faults::ReplicaFaultKind::kWeightCorrupt) {
      fault.weight_bits = fields.size() > 4 ? std::stoll(fields[4]) : 64;
    }
    if (fields.size() > 5) fault.seed = static_cast<uint64_t>(std::stoull(fields[5]));
    out.push_back(fault);
  }
  return true;
}

/// Applies the replica failure-domain flags shared by `serve --streams` and
/// `record --streams`: --watchdog enables health-checked failover, the
/// -us flags tune its deadlines, --admission-credits bounds per-stream
/// pending frames, and --replica-fault schedules deterministic faults.
bool apply_failure_domain_flags(const Args& args, serving::WatchdogConfig& watchdog,
                                int64_t& admission_credits,
                                std::vector<faults::ReplicaFault>& schedule, std::string& error) {
  if (args.has("watchdog")) watchdog.enabled = true;
  if (args.has("batch-deadline-us")) {
    watchdog.batch_deadline_ns = args.get_int("batch-deadline-us", 0) * 1000;
  }
  if (args.has("heartbeat-timeout-us")) {
    watchdog.heartbeat_timeout_ns = args.get_int("heartbeat-timeout-us", 0) * 1000;
  }
  watchdog.missed_deadlines_to_quarantine = static_cast<int>(
      args.get_int("missed-deadlines", watchdog.missed_deadlines_to_quarantine));
  if (args.has("canary-period-us")) {
    watchdog.canary_period_ns = args.get_int("canary-period-us", 0) * 1000;
  }
  watchdog.canary_failures_to_quarantine = static_cast<int>(
      args.get_int("canary-failures", watchdog.canary_failures_to_quarantine));
  if (args.has("probe-backoff-us")) {
    watchdog.probe_backoff_ns = args.get_int("probe-backoff-us", 0) * 1000;
    if (watchdog.max_probe_backoff_ns < watchdog.probe_backoff_ns) {
      watchdog.max_probe_backoff_ns = 8 * watchdog.probe_backoff_ns;
    }
  }
  if (args.has("max-probe-backoff-us")) {
    watchdog.max_probe_backoff_ns = args.get_int("max-probe-backoff-us", 0) * 1000;
  }
  watchdog.max_redispatches =
      static_cast<int>(args.get_int("max-redispatches", watchdog.max_redispatches));
  admission_credits = args.get_int("admission-credits", admission_credits);
  if (args.has("replica-fault")) {
    if (!parse_replica_faults(args.get("replica-fault"), schedule, error)) return false;
    // A fault schedule without a watchdog is legal (faults hit, nobody
    // reacts) but almost never what the operator meant on the CLI.
    if (!watchdog.enabled) {
      std::fprintf(stderr, "salnov: note: --replica-fault without --watchdog — faults will "
                           "fire but no failover will occur\n");
    }
  }
  return true;
}

/// Multi-stream serve: drives a ServingCluster with --frames frames PER
/// stream, round-robin arrivals. Under --fake-clock the arrival schedule is
/// staged while paused so the batch composition (and hence the stats lines)
/// is reproducible bit-for-bit.
int cmd_serve_cluster(const Args& args, const core::LoadedPipeline& pipeline,
                      const serving::SupervisorConfig& supervisor_config, serving::Clock* clock,
                      serving::FakeClock* fake, const std::string& dataset, int64_t frames) {
  const core::NoveltyDetector& detector = *pipeline.detector;
  serving::ClusterConfig config;
  config.streams = args.get_int("streams", 1);
  config.replicas = args.get_int("replicas", 1);
  config.gather_window_ns = args.get_int("batch-window-us", 2000) * 1000;
  config.max_batch = args.get_int("max-batch", config.max_batch);
  config.supervisor = supervisor_config;
  if (config.streams < 1) return fail("serve: --streams must be >= 1");
  if (config.replicas < 1) return fail("serve: --replicas must be >= 1");
  const int64_t arrival_ns = args.get_int("arrival-us", 1000) * 1000;

  // Replica failure domain: watchdog knobs, admission credits, and a packed
  // deterministic fault schedule (which must outlive the cluster).
  std::vector<faults::ReplicaFault> fault_list;
  std::string fd_error;
  if (!apply_failure_domain_flags(args, config.watchdog, config.admission_credits, fault_list,
                                  fd_error)) {
    return fail("serve: " + fd_error);
  }
  faults::ReplicaFaultSchedule fault_schedule;
  for (const faults::ReplicaFault& fault : fault_list) {
    if (fault.replica < 0 || fault.replica >= config.replicas) {
      return fail("serve: --replica-fault names replica " + std::to_string(fault.replica) +
                  " but the cluster has " + std::to_string(config.replicas));
    }
    fault_schedule.add(fault);
  }
  if (!fault_list.empty()) config.replica_faults = &fault_schedule;
  if (!fake && !fault_list.empty()) {
    return fail("serve: --replica-fault needs --fake-clock (fault windows are offsets into "
                "fake time; a wall clock never enters them)");
  }

  serving::ServingCluster cluster(detector, pipeline.steering_model.get(), config, clock);

  const uint64_t seed = static_cast<uint64_t>(args.get_int("seed", 1));
  std::vector<std::unique_ptr<roadsim::SceneGenerator>> generators;
  std::vector<Rng> rngs;
  for (int64_t s = 0; s < config.streams; ++s) {
    generators.push_back(roadsim::make_scene_generator(dataset));
    rngs.emplace_back(seed + static_cast<uint64_t>(s));
  }

  if (fake) cluster.pause();
  for (int64_t i = 0; i < frames; ++i) {
    for (int64_t s = 0; s < config.streams; ++s) {
      const roadsim::Sample sample = generators[static_cast<size_t>(s)]->generate(
          rngs[static_cast<size_t>(s)]);
      Image view = resize_bilinear(sample.rgb.to_grayscale(), detector.config().height,
                                   detector.config().width);
      cluster.submit(s, std::move(view));
    }
    if (fake) fake->advance_ns(arrival_ns);
  }
  cluster.drain();
  const std::vector<serving::ClusterResult> results = cluster.take_results();

  const serving::HealthSnapshot aggregate = cluster.aggregate_health();
  const serving::ClusterStats stats = cluster.stats();
  const std::string json = aggregate.to_json();
  const std::string health_out = args.get("health-out");
  if (!health_out.empty()) {
    std::ofstream out(health_out);
    if (!out) return fail("serve: cannot write " + health_out);
    out << json << '\n';
  }
  std::printf("%s\n", json.c_str());

  // Grep-able per-stream summary lines for shell harnesses.
  int64_t novel_total = 0;
  for (int64_t s = 0; s < config.streams; ++s) {
    int64_t stream_frames = 0, stream_scored = 0, stream_novel = 0;
    for (const serving::ClusterResult& r : results) {
      if (r.stream_id != s) continue;
      ++stream_frames;
      stream_scored += r.result.scored ? 1 : 0;
      stream_novel += (r.result.scored && r.result.novel) ? 1 : 0;
    }
    novel_total += stream_novel;
    const serving::HealthSnapshot health = cluster.stream_health(s);
    std::printf("stream=%lld frames=%lld scored=%lld novel=%lld final_mode=%s breaker_state=%s\n",
                static_cast<long long>(s), static_cast<long long>(stream_frames),
                static_cast<long long>(stream_scored), static_cast<long long>(stream_novel),
                serving::serving_mode_name(health.mode),
                serving::breaker_state_name(health.breaker_state));
  }

  // Aggregate lines, same keys as single-stream serve plus batching counters.
  std::printf("streams=%lld\n", static_cast<long long>(cluster.streams()));
  std::printf("replicas=%lld\n", static_cast<long long>(cluster.replicas()));
  std::printf("final_mode=%s\n", serving::serving_mode_name(aggregate.mode));
  std::printf("breaker_state=%s\n", serving::breaker_state_name(aggregate.breaker_state));
  print_counter(aggregate, &serving::HealthSnapshot::frames_total);
  print_counter(aggregate, &serving::HealthSnapshot::frames_scored);
  std::printf("novel_frames=%lld\n", static_cast<long long>(novel_total));
  print_counter(aggregate, &serving::HealthSnapshot::deadline_overruns);
  // Batching and failure-domain counters (the latter all zero without a
  // watchdog / fault schedule).
  for (const auto& row : serving::kClusterCounters) {
    std::printf("%s=%lld\n", row.name, static_cast<long long>(stats.*row.member));
  }
  for (const serving::ClusterEvent& event : cluster.take_events()) {
    std::printf("cluster_event kind=%s at_us=%lld replica=%lld stream=%lld detail=%lld\n",
                serving::cluster_event_kind_name(event.kind),
                static_cast<long long>(event.at_ns / 1000), static_cast<long long>(event.replica),
                static_cast<long long>(event.stream), static_cast<long long>(event.detail));
  }
  return 0;
}

int cmd_serve(const Args& args) {
  const std::string pipeline_path = args.get("pipeline");
  if (pipeline_path.empty()) return fail("serve: --pipeline is required");
  core::LoadedPipeline pipeline = core::PipelineIo::load_file(pipeline_path);
  const core::NoveltyDetector& detector = *pipeline.detector;

  const int64_t frames = args.get_int("frames", 200);
  if (frames < 1) return fail("serve: --frames must be >= 1");
  const std::string dataset = args.get("dataset", "outdoor");
  const auto generator = roadsim::make_scene_generator(dataset);
  if (!generator) return fail("serve: unknown dataset '" + dataset + "'");

  std::vector<faults::TimingFault> stalls;
  serving::SupervisorConfig config = parse_supervisor_flags(args, stalls);
  const std::string threshold_store = args.get("threshold-store");
  if (!threshold_store.empty()) config.calibration.store_path = threshold_store;
  faults::TimingFaultInjector injector;
  for (const faults::TimingFault& stall : stalls) injector.add(stall);
  if (!injector.empty()) config.timing_faults = &injector;

  // Under --fake-clock the only elapsed time is the injected stalls, so the
  // overrun/fallback trace is reproducible bit-for-bit across machines.
  serving::FakeClock fake_clock;
  serving::FakeClock* fake = args.has("fake-clock") ? &fake_clock : nullptr;
  serving::Clock* clock = fake;

  if (args.has("streams")) {
    if (!threshold_store.empty()) {
      return fail("serve: --threshold-store is single-stream only (one store per supervisor)");
    }
    return cmd_serve_cluster(args, pipeline, config, clock, fake, dataset, frames);
  }

  serving::Supervisor supervisor(detector, pipeline.steering_model.get(), config, clock);

  // Crash recovery: an earlier run's swap that completed its atomic rename
  // (even if the process died immediately after) is picked up here.
  if (!threshold_store.empty() && std::filesystem::exists(threshold_store)) {
    auto recovered =
        std::make_shared<calib::ThresholdSet>(calib::ThresholdSet::load_file(threshold_store));
    std::printf("recovered threshold store %s (epoch %lld)\n", threshold_store.c_str(),
                static_cast<long long>(recovered->epoch));
    supervisor.install_thresholds(std::move(recovered));
  }

  Rng rng(static_cast<uint64_t>(args.get_int("seed", 1)));
  int64_t novel_frames = 0;
  for (int64_t i = 0; i < frames; ++i) {
    const roadsim::Sample sample = generator->generate(rng);
    Image view = resize_bilinear(sample.rgb.to_grayscale(), detector.config().height,
                                 detector.config().width);
    const serving::ServeResult result = supervisor.process(view);
    novel_frames += (result.scored && result.novel) ? 1 : 0;
  }

  const serving::HealthSnapshot health = supervisor.health();
  const std::string json = health.to_json();
  const std::string health_out = args.get("health-out");
  if (!health_out.empty()) {
    std::ofstream out(health_out);
    if (!out) return fail("serve: cannot write " + health_out);
    out << json << '\n';
  }
  std::printf("%s\n", json.c_str());
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

// --- record / replay ------------------------------------------------------------

std::optional<faults::CameraFault> parse_camera_fault(const std::string& name) {
  using faults::CameraFault;
  for (const CameraFault fault :
       {CameraFault::kFrozenFrame, CameraFault::kDroppedFrame, CameraFault::kSaltPepper,
        CameraFault::kBandTearing, CameraFault::kOverExposure, CameraFault::kUnderExposure,
        CameraFault::kOcclusion, CameraFault::kGaussianBlur}) {
    if (name == faults::camera_fault_name(fault)) return fault;
  }
  return std::nullopt;
}

/// Applies --kernel scalar|simd (no flag = ambient dispatch). Returns false
/// with a message on an unknown or unsupported kernel.
bool apply_kernel_flag(const Args& args, std::string& error) {
  if (!args.has("kernel")) return true;
  const std::string kernel = args.get("kernel");
  if (kernel == "scalar") {
    set_gemm_kernel(GemmKernel::kScalar);
  } else if (kernel == "simd") {
    if (!gemm_simd_available()) {
      error = "SIMD kernel not available on this CPU";
      return false;
    }
    set_gemm_kernel(GemmKernel::kSimd);
  } else {
    error = "unknown kernel '" + kernel + "' (scalar|simd)";
    return false;
  }
  return true;
}

int cmd_record(const Args& args) {
  const std::string pipeline_path = args.get("pipeline");
  const std::string out_path = args.get("out");
  if (pipeline_path.empty() || out_path.empty()) {
    return fail("record: --pipeline and --out are required");
  }
  std::string kernel_error;
  if (!apply_kernel_flag(args, kernel_error)) return fail("record: " + kernel_error);
  core::LoadedPipeline pipeline = core::PipelineIo::load_file(pipeline_path);

  trace::TraceRunSpec spec;
  spec.dataset = args.get("dataset", "outdoor");
  spec.frame_seed = static_cast<uint64_t>(args.get_int("frame-seed", 1));
  spec.fault_seed = static_cast<uint64_t>(args.get_int("fault-seed", 77));
  spec.frames = args.get_int("frames", 100);
  // The scenario runs at the pipeline's own resolution — a trace is only
  // meaningful against the detector it was recorded with.
  spec.height = pipeline.detector->config().height;
  spec.width = pipeline.detector->config().width;

  spec.supervisor = parse_supervisor_flags(args, spec.stalls);
  if (args.has("camera-fault")) {
    const auto fault = parse_camera_fault(args.get("camera-fault"));
    if (!fault) return fail("record: unknown camera fault '" + args.get("camera-fault") + "'");
    trace::TraceCameraFault scheduled;
    scheduled.fault = *fault;
    scheduled.severity = std::stod(args.get("fault-severity", "1.0"));
    scheduled.first_frame = args.get_int("fault-first", 0);
    scheduled.last_frame = args.get_int("fault-last", scheduled.last_frame);
    scheduled.period = args.get_int("fault-period", 1);
    spec.camera_faults.push_back(scheduled);
  }

  // Multi-stream cluster scenario: --frames becomes frames PER stream and
  // arrivals are round-robin every --arrival-us (see TraceClusterSpec).
  spec.cluster.streams = args.get_int("streams", 0);
  spec.cluster.replicas = args.get_int("replicas", spec.cluster.replicas);
  if (args.has("batch-window-us")) {
    spec.cluster.gather_window_ns = args.get_int("batch-window-us", 2000) * 1000;
  }
  spec.cluster.max_batch = args.get_int("max-batch", spec.cluster.max_batch);
  if (args.has("arrival-us")) {
    spec.cluster.arrival_period_ns = args.get_int("arrival-us", 1000) * 1000;
  }
  std::string fd_error;
  if (!apply_failure_domain_flags(args, spec.cluster.watchdog, spec.cluster.admission_credits,
                                  spec.cluster.replica_faults, fd_error)) {
    return fail("record: " + fd_error);
  }

  // Bind the trace to the exact pipeline bytes it was recorded against.
  const std::string payload = load_file_checked(pipeline_path);
  spec.pipeline_crc = crc32(payload.data(), payload.size());
  spec.pipeline_bytes = static_cast<int64_t>(payload.size());
  spec.validate();

  const trace::Trace trace =
      trace::TraceRecorder::record(spec, *pipeline.detector, pipeline.steering_model.get());
  trace.save_file(out_path);
  std::printf("recorded %lld frames (%lld scored, %lld sensor-bad, %lld abandoned) to %s\n",
              static_cast<long long>(trace.health.frames_total),
              static_cast<long long>(trace.health.frames_scored),
              static_cast<long long>(trace.health.frames_sensor_bad),
              static_cast<long long>(trace.health.frames_abandoned), out_path.c_str());
  return 0;
}

int cmd_replay(const Args& args) {
  const std::string pipeline_path = args.get("pipeline");
  const std::string trace_path = args.get("trace");
  if (pipeline_path.empty() || trace_path.empty()) {
    return fail("replay: --pipeline and --trace are required");
  }
  std::string kernel_error;
  if (!apply_kernel_flag(args, kernel_error)) return fail("replay: " + kernel_error);
  if (args.has("threads")) {
    parallel::set_num_threads(static_cast<int>(args.get_int("threads", 0)));
  }

  const trace::Trace trace = trace::Trace::load_file(trace_path);
  if (trace.spec.pipeline_crc != 0) {
    const std::string payload = load_file_checked(pipeline_path);
    if (trace.spec.pipeline_crc != crc32(payload.data(), payload.size()) ||
        trace.spec.pipeline_bytes != static_cast<int64_t>(payload.size())) {
      return fail("replay: " + pipeline_path +
                  " is not the pipeline this trace was recorded against (CRC mismatch)");
    }
  }
  core::LoadedPipeline pipeline = core::PipelineIo::load_file(pipeline_path);

  trace::ReplayOptions options;
  options.score_tolerance = std::stod(args.get("tolerance", "0"));
  const trace::ReplayReport report = trace::TraceReplayer::replay(
      trace, *pipeline.detector, pipeline.steering_model.get(), options);

  const std::string line = report.format();
  std::printf("%s\n", line.c_str());
  const std::string report_path = args.get("report");
  if (!report_path.empty()) {
    std::ofstream out(report_path);
    if (!out) return fail("replay: cannot write " + report_path);
    out << line << '\n';
  }
  return report.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    if (args.command == "generate") return cmd_generate(args);
    if (args.command == "train-steering") return cmd_train_steering(args);
    if (args.command == "fit") return cmd_fit(args);
    if (args.command == "classify") return cmd_classify(args);
    if (args.command == "saliency") return cmd_saliency(args);
    if (args.command == "serve") return cmd_serve(args);
    if (args.command == "record") return cmd_record(args);
    if (args.command == "replay") return cmd_replay(args);
  } catch (const TruncatedFileError& e) {
    return fail(std::string(e.what()) +
                " (file is incomplete — re-run the fit/train step that produced it)");
  } catch (const CorruptFileError& e) {
    return fail(std::string(e.what()) +
                " (file is damaged — restore it from backup or re-create it)");
  } catch (const SerializationError& e) {
    return fail(std::string("cannot read file: ") + e.what());
  } catch (const std::exception& e) {
    return fail(e.what());
  }
  return usage();
}
