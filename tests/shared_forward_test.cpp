// One steering forward per frame: the steering angle and the VisualBackProp
// mask come from the same pass.
//
// Sequential::forward_stages (and its quantized counterpart) runs the fused
// inference chain once and keeps each conv stage's post-ReLU output;
// VisualBackProp::mask builds the mask from those. The reference here is
// written independently of that code: an unfused layer-by-layer
// forward_collect, channel averages and the relevance chain spelled out
// with the public deconv_ones. The pass must match it bit for bit at every
// batch size, GEMM kernel, thread count and precision, on the compact and
// the paper-size PilotNet.
//
// The serving cases check the reuse rules: a Supervisor whose steer stage
// throws, or whose steering model is not the detector's, still serves the
// two-forward bits, and a cluster batch that mixes float and q8 streams
// serves exactly what solo supervisors and score_variant serve.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/novelty_detector.hpp"
#include "driving/pilotnet.hpp"
#include "driving/steering_trainer.hpp"
#include "faults/timing_faults.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/flatten.hpp"
#include "nn/quantized.hpp"
#include "parallel/parallel_for.hpp"
#include "saliency/visual_backprop.hpp"
#include "serving/clock.hpp"
#include "serving/cluster.hpp"
#include "serving/supervisor.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_int8.hpp"

namespace salnov {
namespace {

constexpr int64_t kMs = 1'000'000;  // ns

/// Restores kernel and thread selections on scope exit.
struct BackendGuard {
  GemmKernel kernel = active_gemm_kernel();
  GemmInt8Kernel int8_kernel = active_gemm_int8_kernel();
  ~BackendGuard() {
    set_gemm_kernel(kernel);
    set_gemm_int8_kernel(int8_kernel);
    parallel::set_num_threads(0);
  }
};

Image random_frame(Rng& rng, int64_t h, int64_t w) {
  return Image(h, w, rng.uniform_tensor({h, w}, 0.0, 1.0));
}

std::vector<const Image*> pointers(const std::vector<Image>& frames) {
  std::vector<const Image*> out;
  for (const Image& frame : frames) out.push_back(&frame);
  return out;
}

bool bitexact(const Image& a, const Image& b) { return a.tensor() == b.tensor(); }

bool same_bits(double a, double b) { return (std::isnan(a) && std::isnan(b)) || a == b; }

// --- Reference VisualBackProp ------------------------------------------------

void normalize_by_max(Tensor& map) {
  float peak = 0.0f;
  for (int64_t i = 0; i < map.numel(); ++i) peak = std::max(peak, map.data()[i]);
  if (peak > 0.0f) map *= 1.0f / peak;
}

/// Mask of sample `n` from `activations`, one output per layer of `model`
/// (forward_collect): a conv stage's output is its ReLU's when one follows.
Image reference_mask(const nn::Sequential& model, const std::vector<Tensor>& activations,
                     int64_t n, int64_t h, int64_t w) {
  std::vector<const nn::Conv2d*> convs;
  std::vector<Tensor> averaged;
  for (size_t i = 0; i < model.size(); ++i) {
    const auto* conv = dynamic_cast<const nn::Conv2d*>(&model.layer(i));
    if (conv == nullptr) continue;
    const bool relu = i + 1 < model.size() && model.layer(i + 1).type_name() == "relu";
    const Tensor& act = activations[relu ? i + 1 : i];
    const int64_t channels = act.dim(1);
    const int64_t plane = act.dim(2) * act.dim(3);
    Tensor avg({act.dim(2), act.dim(3)});
    for (int64_t c = 0; c < channels; ++c) {
      for (int64_t p = 0; p < plane; ++p) {
        avg.data()[p] += act.data()[(n * channels + c) * plane + p];
      }
    }
    avg *= 1.0f / static_cast<float>(channels);
    convs.push_back(conv);
    averaged.push_back(std::move(avg));
  }
  Tensor cur = averaged.back();
  normalize_by_max(cur);
  for (size_t s = convs.size() - 1; s-- > 0;) {
    const nn::Conv2dConfig& geo = convs[s + 1]->config();
    Tensor up = saliency::deconv_ones(cur, geo.kernel_h, geo.kernel_w, geo.stride, geo.padding,
                                      averaged[s].dim(0), averaged[s].dim(1));
    for (int64_t j = 0; j < up.numel(); ++j) up.data()[j] *= averaged[s].data()[j];
    normalize_by_max(up);
    cur = std::move(up);
  }
  const nn::Conv2dConfig& first = convs.front()->config();
  Image mask(h, w,
             saliency::deconv_ones(cur, first.kernel_h, first.kernel_w, first.stride,
                                   first.padding, h, w));
  mask.normalize_minmax();
  return mask;
}

// --- The pass vs the reference ----------------------------------------------

struct NetCase {
  const char* name;
  driving::PilotNetConfig config;
};

class SharedForwardSweep : public ::testing::TestWithParam<int> {
 protected:
  static NetCase net_case(int index) {
    return index == 0 ? NetCase{"compact", driving::PilotNetConfig::compact()}
                      : NetCase{"paper", driving::PilotNetConfig::paper()};
  }
};

TEST_P(SharedForwardSweep, AngleAndMaskMatchTheUnfusedReference) {
  const NetCase net = net_case(GetParam());
  const int64_t h = net.config.input_height;
  const int64_t w = net.config.input_width;
  Rng rng(77);
  nn::Sequential model = driving::build_pilotnet(net.config, rng);
  std::vector<Image> frames;
  for (int i = 0; i < 16; ++i) frames.push_back(random_frame(rng, h, w));
  const std::vector<const Image*> all = pointers(frames);
  const Tensor stacked = stack_nchw(all);
  const nn::QuantizedForward quant(model, nn::QuantizedForward::calibrate(model, {&stacked}));
  saliency::VisualBackProp vbp;

  BackendGuard guard;
  for (const bool simd : {false, true}) {
    if (simd && (!gemm_simd_available() || !gemm_int8_simd_available())) continue;
    set_gemm_kernel(simd ? GemmKernel::kSimd : GemmKernel::kScalar);
    set_gemm_int8_kernel(simd ? GemmInt8Kernel::kSimd : GemmInt8Kernel::kScalar);
    for (const int threads : {1, 4}) {
      parallel::set_num_threads(threads);
      for (const bool q8 : {false, true}) {
        for (const size_t batch : {1, 2, 7, 16}) {
          SCOPED_TRACE(std::string(net.name) + (simd ? " simd" : " scalar") + " threads=" +
                       std::to_string(threads) + (q8 ? " q8" : " float") +
                       " B=" + std::to_string(batch));
          const std::vector<const Image*> in(all.begin(), all.begin() + batch);
          const Tensor x = stack_nchw(in);
          const std::vector<Tensor> acts = q8 ? quant.forward_collect(x) : model.forward_collect(x);
          const nn::StagedForward pass = q8 ? quant.forward_stages(x) : model.forward_stages(x);

          const std::vector<double> angles =
              driving::steering_angles(pass.output, static_cast<int64_t>(batch));
          std::vector<int64_t> rows(batch);
          for (size_t i = 0; i < batch; ++i) rows[i] = static_cast<int64_t>(i);
          const std::vector<Image> masks = vbp.masks(model, pass.conv_stages, rows, h, w);
          ASSERT_EQ(masks.size(), batch);
          for (size_t i = 0; i < batch; ++i) {
            ASSERT_EQ(angles[i], static_cast<double>(acts.back().data()[i])) << "frame " << i;
            ASSERT_TRUE(bitexact(masks[i], reference_mask(model, acts, static_cast<int64_t>(i), h, w)))
                << "frame " << i;
          }
          // The public entry points are wrappers over the same pass.
          const std::vector<double> wrapped = q8 ? driving::predict_steering_q8_batch(quant, in)
                                                 : driving::predict_steering_batch(model, in);
          const std::vector<Image> wrapped_masks =
              q8 ? vbp.compute_batch_quantized(quant, in) : vbp.compute_batch(model, in);
          for (size_t i = 0; i < batch; ++i) {
            ASSERT_EQ(wrapped[i], angles[i]);
            ASSERT_TRUE(bitexact(wrapped_masks[i], masks[i]));
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PilotNet, SharedForwardSweep, ::testing::Values(0, 1),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::string(info.param == 0 ? "Compact" : "Paper");
                         });

// --- Serving -----------------------------------------------------------------

constexpr int64_t kH = 16;
constexpr int64_t kW = 24;

core::NoveltyDetectorConfig tiny_vbp_config() {
  core::NoveltyDetectorConfig config;
  config.height = kH;
  config.width = kW;
  config.preprocessing = core::Preprocessing::kVbp;
  config.score = core::ReconstructionScore::kSsim;
  config.autoencoder = core::AutoencoderConfig::tiny(kH, kW);
  config.train_epochs = 4;
  return config;
}

Image familiar_frame(Rng& rng) {
  Image img(kH, kW);
  const double slope = rng.uniform(0.8, 1.2);
  for (int64_t y = 0; y < kH; ++y) {
    for (int64_t x = 0; x < kW; ++x) {
      img(y, x) = static_cast<float>(slope * (y + x) / static_cast<double>(kH + kW));
    }
  }
  img.clamp01();
  return img;
}

std::vector<Image> frame_script(uint64_t seed, int count) {
  Rng rng(seed);
  std::vector<Image> frames;
  for (int i = 0; i < count; ++i) {
    frames.push_back(i % 3 == 2 ? random_frame(rng, kH, kW) : familiar_frame(rng));
  }
  return frames;
}

TEST(SharedForwardServing, ThrowingSteerStageStillServesTheTwoForwardBits) {
  // A two-output head: the forward runs, but the steering angle is not a
  // scalar, so the steer stage throws and the saliency stage must compute
  // its own mask — VBP reads only the conv stages, so it still works.
  Rng rng(5);
  nn::Sequential steering;
  steering.emplace<nn::Conv2d>(nn::Conv2dConfig{1, 4, 3, 3, 2, 0}, rng);  // -> 4 x 7 x 11
  steering.emplace<nn::ReLU>();
  steering.emplace<nn::Conv2d>(nn::Conv2dConfig{4, 6, 3, 3, 1, 0}, rng);  // -> 6 x 5 x 9
  steering.emplace<nn::ReLU>();
  steering.emplace<nn::Flatten>();
  steering.emplace<nn::Dense>(6 * 5 * 9, 2, rng);

  core::NoveltyDetector detector(tiny_vbp_config());
  detector.attach_steering_model(&steering);
  std::vector<Image> train;
  for (int i = 0; i < 16; ++i) train.push_back(familiar_frame(rng));
  detector.fit(train, rng);

  serving::SupervisorConfig config;
  config.demote_after_bad_frames = 1000;  // stay on the VBP rung despite the throws
  serving::FakeClock clock;
  serving::Supervisor supervisor(detector, &steering, config, &clock);
  const std::vector<Image> frames = frame_script(9, 6);
  for (const Image& frame : frames) {
    const serving::ServeResult r = supervisor.process(frame);
    ASSERT_EQ(r.mode, serving::ServingMode::kVbpSsim);
    ASSERT_TRUE(r.scored);
    EXPECT_TRUE(std::isnan(r.steering));
    EXPECT_EQ(r.score, detector.score_variant(core::DetectorVariant::kPrimary, frame));
  }
  EXPECT_EQ(supervisor.health().scoring_failures, static_cast<int64_t>(frames.size()));
}

TEST(SharedForwardServing, SupervisorSteeringWithAnotherModelKeepsTheDetectorsMask) {
  // The steer stage runs the Supervisor's model; the mask is the detector's.
  // When the two differ, the steer stage's pass must not feed the mask.
  Rng rng(6);
  nn::Sequential detector_steering =
      driving::build_pilotnet(driving::PilotNetConfig::tiny(kH, kW), rng);
  nn::Sequential other_steering =
      driving::build_pilotnet(driving::PilotNetConfig::tiny(kH, kW), rng);
  core::NoveltyDetector detector(tiny_vbp_config());
  detector.attach_steering_model(&detector_steering);
  std::vector<Image> train;
  for (int i = 0; i < 16; ++i) train.push_back(familiar_frame(rng));
  detector.fit(train, rng);

  serving::FakeClock clock;
  serving::Supervisor supervisor(detector, &other_steering, {}, &clock);
  for (const Image& frame : frame_script(11, 6)) {
    const serving::ServeResult r = supervisor.process(frame);
    ASSERT_EQ(r.mode, serving::ServingMode::kVbpSsim);
    EXPECT_EQ(r.steering, driving::predict_steering(other_steering, frame));
    EXPECT_EQ(r.score, detector.score_variant(core::DetectorVariant::kPrimary, frame));
  }
}

TEST(SharedForwardServing, ClusterBatchMixingFloatAndQ8StreamsMatchesSoloServing) {
  Rng rng(41);
  nn::Sequential steering = driving::build_pilotnet(driving::PilotNetConfig::tiny(kH, kW), rng);
  core::NoveltyDetector detector(tiny_vbp_config());
  detector.attach_steering_model(&steering);
  std::vector<Image> train;
  for (int i = 0; i < 24; ++i) train.push_back(familiar_frame(rng));
  detector.fit(train, rng);
  ASSERT_NE(nullptr, detector.quant_steering());

  // Reconstruct-stage stalls on each stream's frames 0-3 demote it one rung
  // per frame (kVbpSsim -> kVbpSsimQ8 -> kVbpMse -> kVbpMseQ8 -> kRawMse),
  // and promotion needs 1000 healthy frames. Serving stream 0's first four
  // frames and stream 2's first frame alone leaves the next batch with
  // stream 0 on raw+MSE (an angle but no mask), stream 1 on float VBP and
  // stream 2 on q8 VBP. Stream 0's frame goes first, so the float masks sit
  // at rows 1 and 2 of the float steering pass.
  faults::TimingFaultInjector stalls;
  stalls.add({/*stage=*/3, /*stall_ns=*/10 * kMs, /*first_frame=*/0, /*last_frame=*/3,
              /*period=*/1});
  serving::SupervisorConfig sup;
  sup.stage_budget_ns = {kMs, kMs, kMs, kMs, kMs};
  sup.frame_budget_ns = 1000 * kMs;
  sup.demote_after_bad_frames = 1;
  sup.promote_after_healthy_frames = 1000;
  sup.enable_quant_rungs = true;
  sup.timing_faults = &stalls;

  const std::vector<std::vector<Image>> scripts = {frame_script(100, 5), frame_script(101, 2),
                                                   frame_script(102, 3)};
  std::vector<std::vector<serving::ServeResult>> solo(scripts.size());
  for (size_t s = 0; s < scripts.size(); ++s) {
    serving::FakeClock clock;
    serving::Supervisor supervisor(detector, &steering, sup, &clock);
    for (const Image& frame : scripts[s]) solo[s].push_back(supervisor.process(frame));
  }

  BackendGuard guard;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    parallel::set_num_threads(threads);
    serving::FakeClock clock;
    serving::ClusterConfig config;
    config.streams = 3;
    config.replicas = 1;
    config.gather_window_ns = 100 * kMs;
    config.supervisor = sup;
    serving::ServingCluster cluster(detector, &steering, config, &clock);
    const auto submit_alone = [&](int64_t stream, const Image& frame) {
      cluster.pause();
      cluster.submit(stream, frame);
      cluster.drain();
    };
    for (size_t i = 0; i < 4; ++i) submit_alone(0, scripts[0][i]);
    submit_alone(2, scripts[2][0]);
    ASSERT_EQ(cluster.stream_supervisor(0).mode(), serving::ServingMode::kRawMse);
    ASSERT_EQ(cluster.stream_supervisor(1).mode(), serving::ServingMode::kVbpSsim);
    ASSERT_EQ(cluster.stream_supervisor(2).mode(), serving::ServingMode::kVbpSsimQ8);
    const serving::ClusterStats before = cluster.stats();

    cluster.pause();
    cluster.submit(0, scripts[0][4]);
    cluster.submit(2, scripts[2][1]);
    cluster.submit(1, scripts[1][0]);
    cluster.submit(1, scripts[1][1]);
    cluster.submit(2, scripts[2][2]);
    cluster.drain();
    const std::vector<serving::ClusterResult> results = cluster.take_results();
    const serving::ClusterStats stats = cluster.stats();
    cluster.stop();

    ASSERT_EQ(results.size(), 10u);
    EXPECT_EQ(results.back().batch_size, 5) << "scenario requires one mixed batch";
    // Every frame of the mixed batch got a batched angle, and all but
    // stream 0's raw-rung frame a batched mask.
    EXPECT_EQ(stats.provided_steer - before.provided_steer, 5);
    EXPECT_EQ(stats.provided_saliency - before.provided_saliency, 4);

    std::vector<size_t> next(scripts.size(), 0);
    for (const serving::ClusterResult& cr : results) {
      const size_t s = static_cast<size_t>(cr.stream_id);
      const serving::ServeResult& want = solo[s][next[s]];
      const Image& frame = scripts[s][next[s]];
      ++next[s];
      const serving::ServeResult& got = cr.result;
      EXPECT_EQ(got.mode, want.mode);
      EXPECT_EQ(got.scored, want.scored);
      EXPECT_EQ(got.novel, want.novel);
      EXPECT_TRUE(same_bits(got.score, want.score)) << got.score << " vs " << want.score;
      EXPECT_TRUE(same_bits(got.steering, want.steering));
      // And both are what the two-forward entry points compute.
      const core::DetectorVariant variant = serving::Supervisor::variant_for(got.mode);
      EXPECT_EQ(got.score, detector.score_variant(variant, frame));
      EXPECT_EQ(got.steering, serving::serving_mode_quantized(got.mode)
                                  ? driving::predict_steering_q8(*detector.quant_steering(), frame)
                                  : driving::predict_steering(steering, frame));
    }
  }
}

}  // namespace
}  // namespace salnov
