// Failure-injection tests for every serialized format in the library:
// model files, pipeline files, traces, calibration files, and PNM images. A
// loader must never crash or silently accept corrupted input — every
// injected fault must surface as a typed exception, and a corrupt count must
// fail before it sizes any allocation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <new>
#include <sstream>
#include <streambuf>
#include <vector>

#include "calib/threshold_set.hpp"
#include "core/novelty_detector.hpp"
#include "core/threshold.hpp"
#include "core/pipeline_io.hpp"
#include "driving/pilotnet.hpp"
#include "image/image_io.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/flatten.hpp"
#include "nn/model_io.hpp"
#include "prop.hpp"
#include "tensor/rng.hpp"
#include "tensor/serialize.hpp"
#include "trace/trace.hpp"

// Allocation probe: this binary replaces the global operator new so a test
// can ask for the largest single allocation made while a loader ran. A
// corrupt count must fail typed *before* it sizes a container.
namespace {
std::atomic<bool> g_track_allocations{false};
std::atomic<size_t> g_largest_allocation{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_track_allocations.load(std::memory_order_relaxed)) {
    size_t seen = g_largest_allocation.load(std::memory_order_relaxed);
    while (size > seen && !g_largest_allocation.compare_exchange_weak(seen, size)) {
    }
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// GCC pairs the inlined free() with new-expressions and warns; the pairing
// is correct because operator new above allocates with malloc.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace salnov {
namespace {

std::string serialized_model() {
  Rng rng(1);
  nn::Sequential model;
  nn::Conv2dConfig cfg{1, 2, 3, 3, 1, 0};
  model.emplace<nn::Conv2d>(cfg, rng);
  model.emplace<nn::ReLU>();
  std::stringstream ss;
  nn::save_model(ss, model);
  return ss.str();
}

std::string serialized_pipeline() {
  core::NoveltyDetectorConfig config;
  config.height = 16;
  config.width = 20;
  config.preprocessing = core::Preprocessing::kRaw;
  config.score = core::ReconstructionScore::kMse;
  config.autoencoder = core::AutoencoderConfig::tiny(16, 20);
  config.train_epochs = 2;
  core::NoveltyDetector detector(config);
  Rng rng(2);
  std::vector<Image> images;
  for (int i = 0; i < 6; ++i) images.emplace_back(16, 20, rng.uniform_tensor({320}, 0.0, 1.0));
  detector.fit(images, rng);
  std::stringstream ss;
  core::PipelineIo::save(ss, detector, nullptr);
  return ss.str();
}

// ---------------------------------------------------------------------------
// Targeted corruption.

TEST(ModelCorruption, FlippedMagicByteRejected) {
  std::string data = serialized_model();
  data[5] ^= 0x40;  // inside the magic string
  std::stringstream ss(data);
  EXPECT_THROW(nn::load_model(ss), SerializationError);
}

TEST(ModelCorruption, BumpedVersionRejected) {
  std::string data = serialized_model();
  // Header layout: u32 strlen, magic bytes, u32 version.
  const size_t version_offset = 4 + std::string("salnov-model").size();
  data[version_offset] = 99;
  std::stringstream ss(data);
  EXPECT_THROW(nn::load_model(ss), SerializationError);
}

TEST(ModelCorruption, UnknownLayerTypeRejected) {
  Rng rng(3);
  std::stringstream ss;
  write_header(ss, "salnov-model", 1);
  write_u32(ss, 1);
  write_string(ss, "not-a-layer");
  EXPECT_THROW(nn::load_model(ss), SerializationError);
}

TEST(ModelCorruption, ParameterNameMismatchRejected) {
  Rng rng(4);
  std::stringstream ss;
  write_header(ss, "salnov-model", 1);
  write_u32(ss, 1);
  write_string(ss, "dense");
  write_i64(ss, 2);  // in
  write_i64(ss, 2);  // out
  write_u32(ss, 2);  // param count
  write_string(ss, "weight-wrong-name");
  write_tensor(ss, Tensor::zeros({2, 2}));
  write_string(ss, "bias");
  write_tensor(ss, Tensor::zeros({2}));
  EXPECT_THROW(nn::load_model(ss), SerializationError);
}

TEST(ModelCorruption, ParameterShapeMismatchRejected) {
  std::stringstream ss;
  write_header(ss, "salnov-model", 1);
  write_u32(ss, 1);
  write_string(ss, "dense");
  write_i64(ss, 2);
  write_i64(ss, 2);
  write_u32(ss, 2);
  write_string(ss, "weight");
  write_tensor(ss, Tensor::zeros({3, 3}));  // wrong shape
  write_string(ss, "bias");
  write_tensor(ss, Tensor::zeros({2}));
  EXPECT_THROW(nn::load_model(ss), SerializationError);
}

TEST(ModelCorruption, WrongParameterCountRejected) {
  std::stringstream ss;
  write_header(ss, "salnov-model", 1);
  write_u32(ss, 1);
  write_string(ss, "relu");
  write_u32(ss, 3);  // ReLU has zero parameters
  EXPECT_THROW(nn::load_model(ss), SerializationError);
}

// ---------------------------------------------------------------------------
// Quantized pipeline blocks: the act-scale blocks for the autoencoder and
// steering model sit at the very end of the stream, so tail-targeted
// corruption exercises them precisely (every truncation point is covered by
// LoaderFuzz below).

/// A fitted VBP+steering pipeline so both quant scale blocks are non-empty.
struct QuantPipelineBytes {
  std::string bytes;
  size_t steer_scales = 0;  ///< f32 count in the final (steering) block
};

const QuantPipelineBytes& serialized_quant_pipeline() {
  static const QuantPipelineBytes cached = [] {
    Rng rng(9);
    static nn::Sequential steering =
        driving::build_pilotnet(driving::PilotNetConfig::tiny(16, 20), rng);
    core::NoveltyDetectorConfig config;
    config.height = 16;
    config.width = 20;
    config.preprocessing = core::Preprocessing::kVbp;
    config.score = core::ReconstructionScore::kSsim;
    config.autoencoder = core::AutoencoderConfig::tiny(16, 20);
    config.train_epochs = 2;
    core::NoveltyDetector detector(config);
    detector.attach_steering_model(&steering);
    std::vector<Image> images;
    for (int i = 0; i < 6; ++i) images.emplace_back(16, 20, rng.uniform_tensor({320}, 0.0, 1.0));
    detector.fit(images, rng);
    EXPECT_TRUE(detector.has_quant_calibrations());
    std::stringstream ss;
    core::PipelineIo::save(ss, detector, &steering);
    QuantPipelineBytes out;
    out.bytes = ss.str();
    out.steer_scales = static_cast<size_t>(nn::QuantizedForward::count_quantizable(steering));
    EXPECT_GT(out.steer_scales, 0u);
    return out;
  }();
  return cached;
}

TEST(QuantBlockCorruption, NonFiniteScaleRejected) {
  const QuantPipelineBytes& pipeline = serialized_quant_pipeline();
  std::string data = pipeline.bytes;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::memcpy(&data[data.size() - sizeof(float)], &nan, sizeof(float));
  std::stringstream ss(data);
  EXPECT_THROW(core::PipelineIo::load(ss), SerializationError);
}

TEST(QuantBlockCorruption, NonPositiveScaleRejected) {
  const QuantPipelineBytes& pipeline = serialized_quant_pipeline();
  std::string data = pipeline.bytes;
  const float negative = -1.0f;
  std::memcpy(&data[data.size() - sizeof(float)], &negative, sizeof(float));
  std::stringstream ss(data);
  EXPECT_THROW(core::PipelineIo::load(ss), SerializationError);
}

TEST(QuantBlockCorruption, ImplausibleScaleCountRejected) {
  const QuantPipelineBytes& pipeline = serialized_quant_pipeline();
  std::string data = pipeline.bytes;
  // The steering count u32 sits right before its f32 scales, at the tail.
  const size_t count_offset = data.size() - pipeline.steer_scales * sizeof(float) - 4;
  const uint32_t huge = 1u << 20;
  std::memcpy(&data[count_offset], &huge, sizeof(uint32_t));
  std::stringstream ss(data);
  EXPECT_THROW(core::PipelineIo::load(ss), SerializationError);
}

TEST(QuantBlockCorruption, MismatchedScaleCountRejected) {
  const QuantPipelineBytes& pipeline = serialized_quant_pipeline();
  std::string data = pipeline.bytes;
  // A plausible-but-wrong count (one short, under the 4096 cap) must fail
  // the per-model count check, not load a half-quantized pipeline.
  const size_t count_offset = data.size() - pipeline.steer_scales * sizeof(float) - 4;
  const uint32_t short_count = static_cast<uint32_t>(pipeline.steer_scales - 1);
  std::memcpy(&data[count_offset], &short_count, sizeof(uint32_t));
  data.resize(data.size() - sizeof(float));  // keep the stream length consistent
  std::stringstream ss(data);
  EXPECT_THROW(core::PipelineIo::load(ss), SerializationError);
}

TEST(QuantBlockCorruption, FutureVersionRejected) {
  std::string data = serialized_quant_pipeline().bytes;
  const size_t version_offset = 4 + std::string("salnov-pipeline").size();
  data[version_offset] = 4;
  std::stringstream ss(data);
  EXPECT_THROW(core::PipelineIo::load(ss), SerializationError);
}

TEST(QuantLegacyFormat, CurrentWriteRoundTripsQuantizedScoresBitExactly) {
  // v3 round-trip: the reloaded quantized rung must score bit-identically —
  // scales travel exactly (f32 in, f32 out), weights quantize from the same
  // reloaded floats.
  std::stringstream ss(serialized_quant_pipeline().bytes);
  core::LoadedPipeline loaded = core::PipelineIo::load(ss);
  ASSERT_TRUE(loaded.detector->has_quant_calibrations());
  ASSERT_NE(nullptr, loaded.detector->quant_autoencoder());
  ASSERT_NE(nullptr, loaded.detector->quant_steering());

  std::stringstream again;
  core::PipelineIo::save(again, *loaded.detector, loaded.steering_model.get());
  core::LoadedPipeline second = core::PipelineIo::load(again);
  Rng probe_rng(18);
  const Image probe(16, 20, probe_rng.uniform_tensor({320}, 0.0, 1.0));
  EXPECT_EQ(loaded.detector->score_variant(core::DetectorVariant::kPrimaryQ8, probe),
            second.detector->score_variant(core::DetectorVariant::kPrimaryQ8, probe));
}

TEST(PipelineCorruption, UnknownPreprocessingTagRejected) {
  std::string data = serialized_pipeline();
  // Config layout after header("salnov-pipeline", v1): i64 height, i64
  // width, u32 preprocessing tag.
  const size_t offset = (4 + std::string("salnov-pipeline").size() + 4) + 8 + 8;
  data[offset] = 17;
  std::stringstream ss(data);
  EXPECT_THROW(core::PipelineIo::load(ss), SerializationError);
}

TEST(PipelineCorruption, UnknownScoreTagRejected) {
  std::string data = serialized_pipeline();
  // Config layout after the header: i64 height, i64 width, u32
  // preprocessing tag, u32 score tag (0 = MSE, 1 = SSIM).
  const size_t offset = (4 + std::string("salnov-pipeline").size() + 4) + 8 + 8 + 4;
  data[offset] = 2;
  std::stringstream ss(data);
  EXPECT_THROW(core::PipelineIo::load(ss), SerializationError);
}

TEST(PipelineCorruption, SteeringFlagOutOfRangeRejected) {
  std::string data = serialized_pipeline();
  int64_t ae_scales = 0;
  {
    std::stringstream ss(data);
    core::LoadedPipeline loaded = core::PipelineIo::load(ss);
    ae_scales = nn::QuantizedForward::count_quantizable(loaded.detector->autoencoder());
  }
  // A raw pipeline ends with the steering presence flag, the autoencoder
  // scale block (u32 count + f32 scales) and an empty steering block.
  const size_t offset = data.size() - 4 - (4 + 4 * static_cast<size_t>(ae_scales)) - 4;
  data[offset] = 2;
  std::stringstream ss(data);
  EXPECT_THROW(core::PipelineIo::load(ss), SerializationError);
}

/// A raw 16x20 pipeline saved with `autoencoder` in place of the fitted one
/// (when non-null) and with `steering` as its steering model.
std::string pipeline_with_models(nn::Sequential* autoencoder, nn::Sequential* steering) {
  core::NoveltyDetectorConfig config;
  config.height = 16;
  config.width = 20;
  config.preprocessing = core::Preprocessing::kRaw;
  config.score = core::ReconstructionScore::kMse;
  config.autoencoder = core::AutoencoderConfig::tiny(16, 20);
  config.train_epochs = 1;
  core::NoveltyDetector detector(config);
  Rng rng(2);
  std::vector<Image> images;
  for (int i = 0; i < 6; ++i) images.emplace_back(16, 20, rng.uniform_tensor({320}, 0.0, 1.0));
  detector.fit(images, rng);
  if (autoencoder != nullptr) detector.autoencoder() = std::move(*autoencoder);
  std::stringstream ss;
  core::PipelineIo::save(ss, detector, steering);
  return ss.str();
}

/// conv 3x3 (1 -> 2) + ReLU + flatten over a 16x20 frame (2 x 14 x 18 = 504
/// features), then a dense head of the given shape.
nn::Sequential steering_with_head(int64_t in_features, int64_t outputs) {
  Rng rng(3);
  nn::Sequential model;
  model.emplace<nn::Conv2d>(nn::Conv2dConfig{1, 2, 3, 3, 1, 0}, rng);
  model.emplace<nn::ReLU>();
  model.emplace<nn::Flatten>();
  model.emplace<nn::Dense>(in_features, outputs, rng);
  return model;
}

TEST(ModelShapeCheck, BareSteeringModelFileChecksItsLayerChain) {
  // A steering model loaded from its own file (salnov fit/saliency
  // --steering, the bench cache) parses layer by layer, so a dense head
  // whose width disagrees with the conv output only shows up in the chain
  // check, typed.
  const std::string path =
      (std::filesystem::temp_directory_path() / "salnov_steering_chain.model").string();
  nn::Sequential mismatched = steering_with_head(500, 1);
  nn::save_model_file(path, mismatched);
  const nn::Sequential loaded = nn::load_model_file(path);
  EXPECT_THROW(nn::require_model_shape(loaded, {1, 1, 16, 20}, {1, 1}, "steering model"),
               SerializationError);
  nn::Sequential well_formed = steering_with_head(504, 1);
  nn::save_model_file(path, well_formed);
  EXPECT_NO_THROW(
      nn::require_model_shape(nn::load_model_file(path), {1, 1, 16, 20}, {1, 1}, "steering model"));
  std::remove(path.c_str());
}

TEST(PipelineCorruption, WellFormedSteeringModelLoads) {
  nn::Sequential steering = steering_with_head(504, 1);
  std::stringstream ss(pipeline_with_models(nullptr, &steering));
  EXPECT_NE(nullptr, core::PipelineIo::load(ss).steering_model);
}

TEST(PipelineCorruption, AutoencoderDenseWidthMismatchRejected) {
  Rng rng(4);
  nn::Sequential autoencoder;
  autoencoder.emplace<nn::Dense>(300, 320, rng);  // the frame has 320 pixels
  autoencoder.emplace<nn::Sigmoid>();
  std::stringstream ss(pipeline_with_models(&autoencoder, nullptr));
  EXPECT_THROW(core::PipelineIo::load(ss), SerializationError);
}

TEST(PipelineCorruption, AutoencoderOutputWidthMismatchRejected) {
  Rng rng(4);
  nn::Sequential autoencoder;
  autoencoder.emplace<nn::Dense>(320, 300, rng);
  autoencoder.emplace<nn::Sigmoid>();
  std::stringstream ss(pipeline_with_models(&autoencoder, nullptr));
  EXPECT_THROW(core::PipelineIo::load(ss), SerializationError);
}

TEST(PipelineCorruption, SteeringDenseWidthMismatchRejected) {
  nn::Sequential steering = steering_with_head(500, 1);
  std::stringstream ss(pipeline_with_models(nullptr, &steering));
  EXPECT_THROW(core::PipelineIo::load(ss), SerializationError);
}

TEST(PipelineCorruption, TwoOutputSteeringHeadRejected) {
  nn::Sequential steering = steering_with_head(504, 2);
  std::stringstream ss(pipeline_with_models(nullptr, &steering));
  EXPECT_THROW(core::PipelineIo::load(ss), SerializationError);
}

TEST(PipelineCorruption, ImplausibleHiddenLayerCountRejected) {
  std::stringstream ss;
  write_header(ss, "salnov-pipeline", 1);
  write_i64(ss, 16);
  write_i64(ss, 20);
  write_u32(ss, 0);      // raw
  write_u32(ss, 0);      // mse
  write_u32(ss, 70000);  // absurd hidden layer count
  EXPECT_THROW(core::PipelineIo::load(ss), SerializationError);
}

// ---------------------------------------------------------------------------
// Online-calibration format: ThresholdSet.

std::string temp_file_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string serialized_threshold_set() {
  calib::ThresholdSet set;
  set.epoch = 3;
  for (int v = 0; v < core::kDetectorVariantCount; ++v) {
    set.thresholds[static_cast<size_t>(v)] =
        core::NoveltyThreshold(0.5 + v, core::ScoreOrientation::kHighIsNovel);
  }
  std::stringstream ss;
  set.save(ss);
  return ss.str();
}

TEST(ThresholdSetCorruption, TruncatedFileReportsTruncation) {
  const std::string path = temp_file_path("salnov_thresholds_trunc.bin");
  calib::ThresholdSet set;
  set.epoch = 1;
  set.save_file(path);
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  EXPECT_THROW(calib::ThresholdSet::load_file(path), TruncatedFileError);
  std::remove(path.c_str());
}

TEST(ThresholdSetCorruption, BadOrientationTagRejected) {
  std::string data = serialized_threshold_set();
  // Layout after header("salnov-thresholds", v1): i64 epoch, then the first
  // rung's NoveltyThreshold (f64 threshold, u32 orientation tag).
  const size_t offset = (4 + std::string("salnov-thresholds").size() + 4) + 8 + 8;
  data[offset] = 9;
  std::stringstream ss(data);
  EXPECT_THROW(calib::ThresholdSet::load(ss), SerializationError);
}

// ---------------------------------------------------------------------------
// Structure-aware fuzzing of the loaders the runtime persists through:
// Trace, model files, PipelineIo (quantized VBP+SSIM and float raw+MSE),
// and ThresholdSet. Every prefix of each payload is cut, so no
// fixed-fraction truncation sweep is needed. Fields are located by
// replaying a valid payload through a logging stream buffer, so every scalar
// the loader reads gets mutated without the test restating any layout.

enum class Outcome { kLoaded, kTypedError, kOtherError };

struct LoadResult {
  Outcome outcome = Outcome::kLoaded;
  std::string what;
  size_t largest_allocation = 0;
};

/// A loader under test: parses one payload from a stream.
using Loader = std::function<void(std::istream&)>;

/// Runs `load` on `bytes` from a seekable stream (as the checked-file
/// loaders do) and classifies how it ended.
LoadResult try_load(const std::string& bytes, const Loader& load) {
  std::istringstream is(bytes, std::ios::binary);
  LoadResult result;
  g_largest_allocation.store(0);
  g_track_allocations.store(true);
  try {
    load(is);
  } catch (const SerializationError& err) {
    result.outcome = Outcome::kTypedError;
    result.what = err.what();
  } catch (const std::exception& err) {
    result.outcome = Outcome::kOtherError;
    result.what = err.what();
  }
  g_track_allocations.store(false);
  result.largest_allocation = g_largest_allocation.load();
  return result;
}

/// No loader may allocate more than a few times its payload at once.
size_t allocation_bound(const std::string& bytes) { return (size_t{1} << 20) + 4 * bytes.size(); }

/// One read the loader made: byte offset and size in the payload.
struct Field {
  size_t offset = 0;
  size_t size = 0;
};

/// Read-only buffer over a payload that logs each sgetn. Every scalar,
/// string body and tensor block arrives as one read, so the log is the
/// format's field layout as the loader walks it.
class ReadLog : public std::streambuf {
 public:
  explicit ReadLog(std::string bytes) : bytes_(std::move(bytes)) {
    setg(bytes_.data(), bytes_.data(), bytes_.data() + bytes_.size());
  }
  std::vector<Field> reads;

 protected:
  std::streamsize xsgetn(char* s, std::streamsize n) override {
    reads.push_back({static_cast<size_t>(gptr() - eback()), static_cast<size_t>(n)});
    return std::streambuf::xsgetn(s, n);
  }

 private:
  std::string bytes_;
};

/// The 4- and 8-byte reads a loader makes on a valid payload.
std::vector<Field> scalar_fields(const std::string& bytes, const Loader& load) {
  ReadLog log(bytes);
  std::istream is(&log);
  load(is);
  std::vector<Field> fields;
  for (const Field& f : log.reads) {
    if (f.size == 4 || f.size == 8) fields.push_back(f);
  }
  return fields;
}

std::string with_field(std::string bytes, const Field& field, uint64_t value) {
  std::memcpy(&bytes[field.offset], &value, field.size);
  return bytes;
}

/// Extreme values every scalar field is overwritten with: all-ones (a u32
/// 0xFFFFFFFF count, an i64 -1), INT64_MAX / INT32_MAX, the sign bit, zero.
std::vector<uint64_t> extreme_values(size_t size) {
  if (size == 4) return {0xFFFFFFFFull, 0x7FFFFFFFull, 0x80000000ull, 0};
  return {~uint64_t{0}, static_cast<uint64_t>(std::numeric_limits<int64_t>::max()),
          uint64_t{1} << 63, 0};
}

/// Checks one load of a damaged payload: a typed error or a clean load, and
/// no allocation beyond the bound. Returns false (with a failure) otherwise.
bool typed_and_bounded(const std::string& bytes, const Loader& load, const std::string& where) {
  const LoadResult result = try_load(bytes, load);
  if (result.outcome == Outcome::kOtherError) {
    ADD_FAILURE() << where << ": untyped error '" << result.what << "'";
    return false;
  }
  if (result.largest_allocation > allocation_bound(bytes)) {
    ADD_FAILURE() << where << ": allocated " << result.largest_allocation << " bytes at once for a "
                  << bytes.size() << "-byte payload";
    return false;
  }
  return true;
}

struct FuzzTarget {
  const char* name;
  std::string bytes;
  Loader load;
};

/// A trace with every repeated block non-empty, so every count field exists.
trace::Trace sample_trace() {
  trace::Trace t;
  t.spec.frames = 2;
  t.spec.stalls.push_back({static_cast<int>(serving::Stage::kSaliency), 1000, 0, 1, 1});
  t.spec.camera_faults.push_back(trace::TraceCameraFault{});
  t.spec.supervisor.calibration.forced_swap_frames = {1};
  t.spec.cluster.streams = 2;
  faults::ReplicaFault fault;
  fault.kind = faults::ReplicaFaultKind::kSlow;
  fault.end_ns = 10;
  t.spec.cluster.replica_faults.push_back(fault);
  t.frames.resize(2);
  t.frames[1].frame_index = 1;
  t.events.resize(1);
  return t;
}

std::string serialized(const trace::Trace& t) {
  std::stringstream ss;
  t.save(ss);
  return ss.str();
}

const std::vector<FuzzTarget>& fuzz_targets() {
  static const std::vector<FuzzTarget> targets = [] {
    std::vector<FuzzTarget> out;
    out.push_back({"trace", serialized(sample_trace()),
                   [](std::istream& is) { (void)trace::Trace::load(is); }});
    out.push_back({"model", serialized_model(),
                   [](std::istream& is) { (void)nn::load_model(is); }});
    out.push_back({"pipeline", serialized_quant_pipeline().bytes,
                   [](std::istream& is) { (void)core::PipelineIo::load(is); }});
    out.push_back({"pipeline-raw-mse", serialized_pipeline(),
                   [](std::istream& is) { (void)core::PipelineIo::load(is); }});
    out.push_back({"threshold-set", serialized_threshold_set(),
                   [](std::istream& is) { (void)calib::ThresholdSet::load(is); }});
    return out;
  }();
  return targets;
}

TEST(LoaderFuzz, EveryPrefixTruncationIsTyped) {
  for (const FuzzTarget& target : fuzz_targets()) {
    ASSERT_EQ(try_load(target.bytes, target.load).outcome, Outcome::kLoaded) << target.name;
    for (size_t keep = 0; keep < target.bytes.size(); ++keep) {
      const std::string cut = target.bytes.substr(0, keep);
      const LoadResult result = try_load(cut, target.load);
      ASSERT_EQ(result.outcome, Outcome::kTypedError)
          << target.name << " cut to " << keep << "/" << target.bytes.size()
          << " bytes: " << result.what;
      ASSERT_LE(result.largest_allocation, allocation_bound(cut)) << target.name << " cut to " << keep;
    }
  }
}

TEST(LoaderFuzz, ExtremeValueInEveryFieldIsTypedOrLoads) {
  for (const FuzzTarget& target : fuzz_targets()) {
    const std::vector<Field> fields = scalar_fields(target.bytes, target.load);
    ASSERT_FALSE(fields.empty()) << target.name;
    for (const Field& field : fields) {
      for (const uint64_t value : extreme_values(field.size)) {
        const std::string where = std::string(target.name) + " field @" +
                                  std::to_string(field.offset) + " = " + std::to_string(value);
        if (!typed_and_bounded(with_field(target.bytes, field, value), target.load, where)) return;
      }
    }
  }
}

/// One seeded mutation: a target, one of its fields, and the bits written.
struct FieldMutation {
  size_t target = 0;
  Field field;
  uint64_t value = 0;
};

std::string describe(const FieldMutation& m) {
  return std::string(fuzz_targets()[m.target].name) + " field @" + std::to_string(m.field.offset) +
         " (" + std::to_string(m.field.size) + " bytes) = " + std::to_string(m.value);
}

TEST(LoaderFuzz, SeededFieldMutationsAreTypedOrLoad) {
  std::vector<std::vector<Field>> fields;
  for (const FuzzTarget& target : fuzz_targets()) {
    fields.push_back(scalar_fields(target.bytes, target.load));
  }
  const auto gen = [&](Rng& rng) {
    FieldMutation m;
    m.target = static_cast<size_t>(rng.uniform_int(0, static_cast<int64_t>(fields.size()) - 1));
    const std::vector<Field>& pool = fields[m.target];
    m.field = pool[static_cast<size_t>(rng.uniform_int(0, static_cast<int64_t>(pool.size()) - 1))];
    // Half the draws are large magnitudes (the oversized-count regime), half
    // are small, so enum tags and flags see near-range values too.
    const uint64_t bits = rng.next_u64();
    m.value = rng.uniform_int(0, 1) == 0 ? bits : bits % 64;
    if (m.field.size == 4) m.value &= 0xFFFFFFFFull;
    return m;
  };
  const auto holds = [&](const FieldMutation& m) {
    const FuzzTarget& target = fuzz_targets()[m.target];
    return typed_and_bounded(with_field(target.bytes, m.field, m.value), target.load, describe(m));
  };
  prop::for_all<FieldMutation>("damaged field is typed or loads", gen, holds, {400, 0x5a17});
}

// ---------------------------------------------------------------------------
// Named count, length and enum fields must reject out-of-range values. Each
// field is located by serializing the object twice with only that field
// changed: the payloads first differ at the field.

size_t first_difference(const std::string& a, const std::string& b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return i;
  }
  return n;
}

struct NamedField {
  const char* name;
  std::function<void(trace::Trace&)> edit;  ///< moves only this field
  size_t size;                             ///< 4 (u32) or 8 (i64)
};

TEST(LoaderFuzz, TraceCountAndEnumFieldsRejectOutOfRangeValues) {
  const trace::Trace base = sample_trace();
  const std::string bytes = serialized(base);
  const Loader load = [](std::istream& is) { (void)trace::Trace::load(is); };
  const std::vector<NamedField> named = {
      {"dataset length", [](trace::Trace& t) { t.spec.dataset = "indoor"; }, 4},
      {"stall count", [](trace::Trace& t) { t.spec.stalls.push_back(t.spec.stalls[0]); }, 4},
      {"camera-fault count",
       [](trace::Trace& t) { t.spec.camera_faults.push_back(t.spec.camera_faults[0]); }, 4},
      {"camera-fault kind",
       [](trace::Trace& t) { t.spec.camera_faults[0].fault = faults::CameraFault::kOcclusion; }, 4},
      {"detect_frozen_frames",
       [](trace::Trace& t) {
         t.spec.supervisor.monitor.detect_frozen_frames =
             !t.spec.supervisor.monitor.detect_frozen_frames;
       },
       4},
      {"calibration enabled", [](trace::Trace& t) { t.spec.supervisor.calibration.enabled = true; }, 4},
      {"forced-swap count",
       [](trace::Trace& t) { t.spec.supervisor.calibration.forced_swap_frames.push_back(2); }, 4},
      {"watchdog enabled", [](trace::Trace& t) { t.spec.cluster.watchdog.enabled = true; }, 4},
      {"replica-fault count",
       [](trace::Trace& t) {
         t.spec.cluster.replica_faults.push_back(t.spec.cluster.replica_faults[0]);
       },
       4},
      {"replica-fault kind",
       [](trace::Trace& t) {
         t.spec.cluster.replica_faults[0].kind = faults::ReplicaFaultKind::kHang;
       },
       4},
      {"quant-rungs flag", [](trace::Trace& t) { t.spec.supervisor.enable_quant_rungs = true; }, 4},
      {"frame-record count", [](trace::Trace& t) { t.frames.push_back(t.frames[0]); }, 8},
      {"frame mode", [](trace::Trace& t) { t.frames[0].mode = serving::ServingMode::kRawMse; }, 4},
      {"frame flags", [](trace::Trace& t) { t.frames[0].scored = true; }, 4},
      {"monitor state",
       [](trace::Trace& t) { t.frames[0].monitor_state = core::MonitorState::kAlert; }, 4},
      {"fallback path",
       [](trace::Trace& t) { t.frames[0].fallback_path = core::FallbackPath::kNovelty; }, 4},
      {"mode after", [](trace::Trace& t) { t.frames[0].mode_after = serving::ServingMode::kRawMse; },
       4},
      {"breaker after",
       [](trace::Trace& t) { t.frames[0].breaker_after = serving::BreakerState::kOpen; }, 4},
      {"event count", [](trace::Trace& t) { t.events.push_back(t.events[0]); }, 8},
      {"event kind",
       [](trace::Trace& t) { t.events[0].kind = serving::ClusterEventKind::kShed; }, 4},
  };
  const auto gen = [](Rng& rng) {
    // Out of range for every count and enum in the format: at least 2^32.
    return static_cast<uint64_t>(
        rng.uniform_int(int64_t{1} << 32, std::numeric_limits<int64_t>::max()));
  };
  for (const NamedField& f : named) {
    trace::Trace edited = base;
    f.edit(edited);
    const Field field{first_difference(bytes, serialized(edited)), f.size};
    ASSERT_LT(field.offset, bytes.size()) << f.name;
    std::vector<uint64_t> values = extreme_values(f.size);
    values.pop_back();  // zero is in range for most of these
    for (const uint64_t value : values) {
      const LoadResult result = try_load(with_field(bytes, field, value), load);
      EXPECT_EQ(result.outcome, Outcome::kTypedError) << f.name << " = " << value;
      EXPECT_LE(result.largest_allocation, allocation_bound(bytes)) << f.name << " = " << value;
    }
    if (f.size == 4) continue;  // u32 fields: every all-ones/INT_MAX/sign value is covered
    prop::for_all<uint64_t>(
        f.name, gen,
        [&](uint64_t value) {
          return try_load(with_field(bytes, field, value), load).outcome == Outcome::kTypedError;
        },
        {50, 0x7ace});
  }
}

TEST(TraceCorruption, OversizedScheduleCountFailsTypedWithoutAllocating) {
  // A v5 trace cut right after its stall count, which claims 2^32 - 1 (and,
  // separately, 20 million) stall records: the loader must reject the count
  // against the bytes left instead of sizing a vector from it.
  for (const uint32_t n_stalls : {0xFFFFFFFFu, 20'000'000u}) {
    std::stringstream ss;
    write_header(ss, "salnov-trace", 5);
    write_string(ss, "outdoor");
    for (int i = 0; i < 5; ++i) write_i64(ss, 1);  // seeds, frames, height, width
    write_u32(ss, n_stalls);
    const std::string payload = ss.str();
    const LoadResult result =
        try_load(payload, [](std::istream& is) { (void)trace::Trace::load(is); });
    EXPECT_EQ(result.outcome, Outcome::kTypedError) << n_stalls << ": " << result.what;
    EXPECT_NE(result.what.find("stall count"), std::string::npos) << result.what;
    EXPECT_LE(result.largest_allocation, allocation_bound(payload)) << n_stalls;
  }
}

// ---------------------------------------------------------------------------
// Removed format versions: each loader accepts only its current version and
// names the rejected one.

std::string with_version(std::string bytes, const std::string& magic, uint32_t version) {
  std::memcpy(&bytes[4 + magic.size()], &version, sizeof version);
  return bytes;
}

void expect_version_rejected(const std::string& bytes, const Loader& load, uint32_t version) {
  const LoadResult result = try_load(bytes, load);
  EXPECT_EQ(result.outcome, Outcome::kTypedError) << "version " << version;
  EXPECT_NE(result.what.find("version " + std::to_string(version)), std::string::npos)
      << result.what;
}

TEST(RemovedFormatVersions, TraceV1ToV4Rejected) {
  const std::string bytes = serialized(sample_trace());
  for (uint32_t version = 1; version <= 4; ++version) {
    expect_version_rejected(with_version(bytes, "salnov-trace", version),
                            [](std::istream& is) { (void)trace::Trace::load(is); }, version);
  }
}

TEST(RemovedFormatVersions, PipelineV2Rejected) {
  expect_version_rejected(with_version(serialized_pipeline(), "salnov-pipeline", 2),
                          [](std::istream& is) { (void)core::PipelineIo::load(is); }, 2);
}

TEST(RemovedFormatVersions, ThresholdSetV1Rejected) {
  expect_version_rejected(with_version(serialized_threshold_set(), "salnov-thresholds", 1),
                          [](std::istream& is) { (void)calib::ThresholdSet::load(is); }, 1);
}

// ---------------------------------------------------------------------------
// Byte pins: each format written from a record whose fields hold distinct
// values, checked against the CRC32 and size of the bytes the format wrote
// when the pin was recorded. The goldens leave many spec fields at their
// defaults, where two swapped fields of equal value would not show; here a
// swapped pair, a dropped field or a reordered block moves the bytes.

/// A trace whose every spec field, schedule entry, frame field, event field
/// and traced counter holds a value no other field of its kind holds. The
/// three frames' flag words give each of the six flag bits a distinct
/// 3-frame pattern.
trace::Trace distinct_trace() {
  int64_t next = 1001;
  const auto i = [&next] { return next++; };
  const auto f = [&next] { return static_cast<double>(next++) + 0.125; };
  trace::Trace t;
  trace::TraceRunSpec& spec = t.spec;
  spec.dataset = "indoor";
  spec.frame_seed = static_cast<uint64_t>(i());
  spec.fault_seed = static_cast<uint64_t>(i());
  spec.frames = i();
  spec.height = i();
  spec.width = i();
  spec.stalls.push_back({static_cast<int>(i()), i(), i(), i(), i()});
  spec.stalls.push_back({static_cast<int>(i()), i(), i(), i(), i()});
  spec.camera_faults.push_back({faults::CameraFault::kBandTearing, f(), i(), i(), i()});
  spec.camera_faults.push_back({faults::CameraFault::kOcclusion, f(), i(), i(), i()});
  serving::SupervisorConfig& sup = spec.supervisor;
  for (int64_t& budget : sup.stage_budget_ns) budget = i();
  sup.frame_budget_ns = i();
  sup.breaker.failure_threshold = static_cast<int>(i());
  sup.breaker.open_frames = i();
  sup.demote_after_bad_frames = static_cast<int>(i());
  sup.promote_after_healthy_frames = static_cast<int>(i());
  sup.monitor.trigger_frames = i();
  sup.monitor.release_frames = i();
  sup.monitor.score_smoothing = f();
  sup.monitor.sensor_trigger_frames = i();
  sup.monitor.sensor_release_frames = i();
  sup.monitor.detect_frozen_frames = false;
  sup.calibration.enabled = true;
  sup.calibration.auto_swap = false;
  sup.calibration.percentile = f();
  sup.calibration.warmup = i();
  sup.calibration.min_samples = i();
  sup.calibration.drift_tolerance = f();
  sup.calibration.check_every_frames = i();
  sup.calibration.trigger_checks = i();
  sup.calibration.release_checks = i();
  sup.calibration.forced_swap_frames = {i(), i()};
  sup.calibration.store_path = "never-serialized";
  spec.cluster.streams = i();
  spec.cluster.replicas = i();
  spec.cluster.gather_window_ns = i();
  spec.cluster.max_batch = i();
  spec.cluster.arrival_period_ns = i();
  serving::WatchdogConfig& wd = spec.cluster.watchdog;
  wd.enabled = true;
  wd.batch_deadline_ns = i();
  wd.heartbeat_timeout_ns = i();
  wd.missed_deadlines_to_quarantine = static_cast<int>(i());
  wd.canary_period_ns = i();
  wd.canary_failures_to_quarantine = static_cast<int>(i());
  wd.probe_backoff_ns = i();
  wd.max_probe_backoff_ns = i();
  wd.max_redispatches = i();
  wd.canary_epsilon = f();
  spec.cluster.admission_credits = i();
  spec.cluster.replica_faults.push_back({i(), faults::ReplicaFaultKind::kSlow, i(), i(), i(), i(),
                                         static_cast<uint64_t>(i())});
  spec.cluster.replica_faults.push_back({i(), faults::ReplicaFaultKind::kWeightCorrupt, i(), i(),
                                         i(), i(), static_cast<uint64_t>(i())});
  sup.enable_quant_rungs = true;
  spec.pipeline_crc = 0x9e3779b9u;
  spec.pipeline_bytes = i();

  const serving::ServingMode modes[] = {serving::ServingMode::kVbpMse,
                                        serving::ServingMode::kRawMse,
                                        serving::ServingMode::kSensorHold};
  const serving::ServingMode modes_after[] = {serving::ServingMode::kVbpSsimQ8,
                                              serving::ServingMode::kVbpMseQ8,
                                              serving::ServingMode::kVbpSsim};
  for (int k = 0; k < 3; ++k) {
    trace::TraceFrame frame;
    frame.frame_index = i();
    frame.mode = modes[k];
    // Bit b of the flag word is set on frame k when bit k of (b + 1) is.
    const auto bit = [k](int b) { return (((b + 1) >> k) & 1) != 0; };
    frame.scored = bit(0);
    frame.abandoned = bit(1);
    frame.deadline_overrun = bit(2);
    frame.sensor_bad = bit(3);
    frame.novel = bit(4);
    frame.threshold_swapped = bit(5);
    frame.score = f();
    frame.steering = f();
    frame.monitor_state = static_cast<core::MonitorState>(k + 1);
    frame.fallback_path = static_cast<core::FallbackPath>(2 - k);
    for (int64_t& ns : frame.stage_ns) ns = i();
    frame.mode_after = modes_after[k];
    frame.breaker_after = static_cast<serving::BreakerState>((k + 1) % 3);
    frame.threshold_epoch = i();
    frame.stream_id = i();
    t.frames.push_back(frame);
  }
  for (const auto& row : serving::kHealthCounters) {
    if (row.traced) t.health.*row.member = i();
  }
  t.events.push_back({serving::ClusterEventKind::kRedispatch, i(), i(), i(), i()});
  t.events.push_back({serving::ClusterEventKind::kShed, i(), i(), i(), i()});
  for (const auto& row : serving::kClusterCounters) {
    if (row.traced) t.cluster_health.*row.member = i();
  }
  return t;
}

void expect_pinned(const std::string& bytes, uint32_t crc, size_t size) {
  EXPECT_EQ(crc32(bytes.data(), bytes.size()), crc);
  EXPECT_EQ(bytes.size(), size);
}

TEST(FormatBytes, TraceWithDistinctFieldsIsPinned) {
  expect_pinned(serialized(distinct_trace()), 2754608412u, 1286u);
}

TEST(FormatBytes, ThresholdSetIsPinned) {
  calib::ThresholdSet set;
  set.epoch = 41;
  for (int v = 0; v < core::kDetectorVariantCount; ++v) {
    const size_t at = static_cast<size_t>(v);
    set.thresholds[at] = core::NoveltyThreshold(
        0.25 + v, v % 2 == 0 ? core::ScoreOrientation::kLowIsNovel
                             : core::ScoreOrientation::kHighIsNovel);
    set.shadow_samples[at] = 500 + v;
    set.rebuilt[at] = static_cast<uint8_t>(v % 3 == 0 ? 1 : 0);
  }
  std::stringstream ss;
  set.save(ss);
  expect_pinned(ss.str(), 3253811760u, 153u);
}

// ---------------------------------------------------------------------------
// PNM robustness.

std::string temp_file(const std::string& name, const std::string& contents) {
  const std::string path = (std::filesystem::temp_directory_path() / name).string();
  std::ofstream os(path, std::ios::binary);
  os << contents;
  return path;
}

TEST(PnmCorruption, TruncatedPixelDataRejected) {
  const std::string path = temp_file("salnov_trunc.pgm", "P5\n4 4\n255\nab");
  EXPECT_THROW(read_pgm(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(PnmCorruption, NonNumericDimensionsRejected) {
  const std::string path = temp_file("salnov_dims.pgm", "P5\nxx yy\n255\n");
  EXPECT_ANY_THROW(read_pgm(path));
  std::remove(path.c_str());
}

TEST(PnmCorruption, ZeroDimensionsRejected) {
  const std::string path = temp_file("salnov_zero.pgm", "P5\n0 5\n255\n");
  EXPECT_THROW(read_pgm(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(PnmCorruption, SixteenBitDepthRejected) {
  const std::string path = temp_file("salnov_depth.pgm", "P5\n2 2\n65535\n");
  EXPECT_THROW(read_pgm(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(PnmCorruption, CommentsInHeaderAccepted) {
  std::string contents = "P5\n# a comment line\n2 1\n255\n";
  contents.push_back(static_cast<char>(10));
  contents.push_back(static_cast<char>(200));
  const std::string path = temp_file("salnov_comment.pgm", contents);
  const Image img = read_pgm(path);
  EXPECT_EQ(img.width(), 2);
  EXPECT_NEAR(img(0, 1), 200.0f / 255.0f, 1e-6f);
  std::remove(path.c_str());
}

TEST(PnmCorruption, EmptyFileRejected) {
  const std::string path = temp_file("salnov_empty.pgm", "");
  EXPECT_ANY_THROW(read_pgm(path));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Round-trip invariants under repeated save/load cycles.

TEST(RoundTripStability, ModelSurvivesRepeatedCycles) {
  Rng rng(5);
  nn::Sequential model;
  model.emplace<nn::Dense>(4, 3, rng);
  model.emplace<nn::Tanh>();
  const Tensor probe = rng.uniform_tensor({2, 4}, -1.0, 1.0);
  const Tensor reference = model.forward(probe, nn::Mode::kInfer);

  std::string blob;
  {
    std::stringstream ss;
    nn::save_model(ss, model);
    blob = ss.str();
  }
  for (int cycle = 0; cycle < 3; ++cycle) {
    std::stringstream in(blob);
    nn::Sequential loaded = nn::load_model(in);
    std::stringstream out;
    nn::save_model(out, loaded);
    EXPECT_EQ(out.str(), blob) << "byte-stability broken at cycle " << cycle;
    EXPECT_EQ(loaded.forward(probe, nn::Mode::kInfer), reference);
    blob = out.str();
  }
}

TEST(RoundTripStability, PipelineSurvivesRepeatedCycles) {
  const std::string blob = serialized_pipeline();
  std::stringstream in(blob);
  core::LoadedPipeline first = core::PipelineIo::load(in);
  std::stringstream out;
  core::PipelineIo::save(out, *first.detector, nullptr);
  EXPECT_EQ(out.str(), blob);
}

}  // namespace
}  // namespace salnov
