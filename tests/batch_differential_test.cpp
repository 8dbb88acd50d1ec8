// Batch-1 vs batch-B differential property suite.
//
// The serving cluster's whole correctness argument is that batching is
// invisible: a frame scored inside ANY batch — any size, any position, any
// companions — produces bit-identical outputs to scoring it alone. These
// properties drive randomized frame sets through both paths and demand
// exact equality at every level of the stack:
//
//   * driving::predict_steering_batch row i  ==  predict_steering solo
//   * SaliencyMethod::compute_batch mask i   ==  compute solo (pixel bits)
//   * NoveltyDetector::reconstruct_batch i   ==  reconstruct solo
//   * NoveltyDetector::score_batch i         ==  score_variant solo
//   * ServingCluster decision stream         ==  bare-Supervisor stream
//     (scores, verdicts, monitor transitions, ladder positions)
//
// Failures echo SALNOV_PROP_SEED for one-variable reproduction (see
// tests/prop.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/novelty_detector.hpp"
#include "driving/pilotnet.hpp"
#include "driving/steering_trainer.hpp"
#include "prop.hpp"
#include "serving/clock.hpp"
#include "serving/cluster.hpp"
#include "serving/supervisor.hpp"

namespace salnov {

/// Counterexample printer for frame batches (found by ADL from
/// prop::for_all; pixel dumps would be noise — the replay seed is the
/// reproduction path).
std::string describe(const std::vector<Image>& frames) {
  std::string text = "<";
  return text.append(std::to_string(frames.size())).append(" frames>");
}

namespace {

using core::DetectorVariant;
using core::NoveltyDetector;
using core::NoveltyDetectorConfig;
using core::Preprocessing;
using core::ReconstructionScore;

constexpr int64_t kH = 16;
constexpr int64_t kW = 24;

class BatchDifferentialFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(41);
    steering_ = new nn::Sequential(
        driving::build_pilotnet(driving::PilotNetConfig::tiny(kH, kW), rng));

    NoveltyDetectorConfig config;
    config.height = kH;
    config.width = kW;
    config.preprocessing = Preprocessing::kVbp;
    config.score = ReconstructionScore::kSsim;
    config.autoencoder = core::AutoencoderConfig::tiny(kH, kW);
    config.train_epochs = 10;
    detector_ = new NoveltyDetector(config);
    detector_->attach_steering_model(steering_);

    std::vector<Image> train;
    for (int i = 0; i < 24; ++i) train.push_back(random_frame(rng, /*smooth=*/true));
    detector_->fit(train, rng);
  }

  static void TearDownTestSuite() {
    delete detector_;
    detector_ = nullptr;
    delete steering_;
    steering_ = nullptr;
  }

  /// Smooth gradient (familiar) or uniform noise (novel), random parameters.
  static Image random_frame(Rng& rng, bool smooth) {
    Image img(kH, kW);
    if (smooth) {
      const double slope = rng.uniform(0.5, 1.5);
      const double offset = rng.uniform(0.0, 0.3);
      for (int64_t y = 0; y < kH; ++y) {
        for (int64_t x = 0; x < kW; ++x) {
          img(y, x) =
              static_cast<float>(offset + slope * (y + x) / static_cast<double>(kH + kW));
        }
      }
    } else {
      for (int64_t y = 0; y < kH; ++y) {
        for (int64_t x = 0; x < kW; ++x) img(y, x) = static_cast<float>(rng.uniform(0.0, 1.0));
      }
    }
    img.clamp01();
    return img;
  }

  static std::vector<Image> random_batch(Rng& rng) {
    const int64_t n = rng.uniform_int(1, 12);
    std::vector<Image> frames;
    frames.reserve(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      frames.push_back(random_frame(rng, rng.uniform(0.0, 1.0) < 0.7));
    }
    return frames;
  }

  static std::vector<const Image*> pointers(const std::vector<Image>& frames) {
    std::vector<const Image*> out;
    out.reserve(frames.size());
    for (const Image& frame : frames) out.push_back(&frame);
    return out;
  }

  static bool images_bitexact(const Image& a, const Image& b) {
    return a.tensor() == b.tensor();
  }

  static NoveltyDetector* detector_;
  static nn::Sequential* steering_;
};

NoveltyDetector* BatchDifferentialFixture::detector_ = nullptr;
nn::Sequential* BatchDifferentialFixture::steering_ = nullptr;

TEST_F(BatchDifferentialFixture, SteeringBatchRowsMatchSolo) {
  prop::for_all<std::vector<Image>>(
      "predict_steering_batch row i == predict_steering(frame i)",
      [](Rng& rng) { return random_batch(rng); },
      [&](const std::vector<Image>& frames) {
        const std::vector<double> batched =
            driving::predict_steering_batch(*steering_, pointers(frames));
        if (batched.size() != frames.size()) return false;
        for (size_t i = 0; i < frames.size(); ++i) {
          if (batched[i] != driving::predict_steering(*steering_, frames[i])) return false;
        }
        return true;
      },
      {/*trials=*/20, /*seed=*/71});
}

TEST_F(BatchDifferentialFixture, SaliencyBatchMasksMatchSolo) {
  prop::for_all<std::vector<Image>>(
      "variant_preprocess_batch mask i == variant_preprocess(frame i)",
      [](Rng& rng) { return random_batch(rng); },
      [&](const std::vector<Image>& frames) {
        const std::vector<Image> batched =
            detector_->variant_preprocess_batch(DetectorVariant::kPrimary, pointers(frames));
        if (batched.size() != frames.size()) return false;
        for (size_t i = 0; i < frames.size(); ++i) {
          const Image solo = detector_->variant_preprocess(DetectorVariant::kPrimary, frames[i]);
          if (!images_bitexact(batched[i], solo)) return false;
        }
        return true;
      },
      {/*trials=*/10, /*seed=*/72});
}

TEST_F(BatchDifferentialFixture, ReconstructionBatchRowsMatchSolo) {
  prop::for_all<std::vector<Image>>(
      "reconstruct_batch row i == reconstruct(frame i)",
      [](Rng& rng) { return random_batch(rng); },
      [&](const std::vector<Image>& frames) {
        const std::vector<Image> batched = detector_->reconstruct_batch(pointers(frames));
        if (batched.size() != frames.size()) return false;
        for (size_t i = 0; i < frames.size(); ++i) {
          if (!images_bitexact(batched[i], detector_->reconstruct(frames[i]))) return false;
        }
        return true;
      },
      {/*trials=*/20, /*seed=*/73});
}

TEST_F(BatchDifferentialFixture, ScoreBatchMatchesSoloAcrossVariants) {
  for (const DetectorVariant variant :
       {DetectorVariant::kPrimary, DetectorVariant::kPreprocessedMse, DetectorVariant::kRawMse}) {
    prop::for_all<std::vector<Image>>(
        "score_batch element i == score_variant(frame i)",
        [](Rng& rng) { return random_batch(rng); },
        [&](const std::vector<Image>& frames) {
          const std::vector<double> batched = detector_->score_batch(variant, pointers(frames));
          if (batched.size() != frames.size()) return false;
          for (size_t i = 0; i < frames.size(); ++i) {
            if (batched[i] != detector_->score_variant(variant, frames[i])) return false;
          }
          return true;
        },
        {/*trials=*/8, /*seed=*/74});
  }
}

TEST_F(BatchDifferentialFixture, BatchPositionAndCompositionAreInvisible) {
  // The same frame scored at different positions inside different random
  // batches must produce the identical bits every time.
  prop::for_all<std::vector<Image>>(
      "score is invariant to batch position and companions",
      [](Rng& rng) { return random_batch(rng); },
      [&](const std::vector<Image>& frames) {
        const Image& probe = frames.front();
        const double solo = detector_->score_variant(DetectorVariant::kPrimary, probe);
        // Probe alone, probe leading, probe trailing.
        std::vector<const Image*> alone = {&probe};
        std::vector<const Image*> leading = pointers(frames);
        std::vector<const Image*> trailing = pointers(frames);
        std::rotate(trailing.begin(), trailing.begin() + 1, trailing.end());
        const double in_alone =
            detector_->score_batch(DetectorVariant::kPrimary, alone).front();
        const double in_lead =
            detector_->score_batch(DetectorVariant::kPrimary, leading).front();
        const double in_trail =
            detector_->score_batch(DetectorVariant::kPrimary, trailing).back();
        return in_alone == solo && in_lead == solo && in_trail == solo;
      },
      {/*trials=*/10, /*seed=*/75});
}

TEST_F(BatchDifferentialFixture, ClusterDecisionStreamMatchesBareSupervisor) {
  // End-to-end: scores, novelty verdicts, monitor transitions, and ladder
  // verdicts out of a batching cluster equal a bare supervisor's, frame by
  // frame, on a randomized familiar/novel mix.
  prop::for_all<std::vector<Image>>(
      "cluster decision stream == solo supervisor stream",
      [](Rng& rng) {
        const int64_t n = rng.uniform_int(4, 14);
        std::vector<Image> frames;
        for (int64_t i = 0; i < n; ++i) {
          frames.push_back(random_frame(rng, rng.uniform(0.0, 1.0) < 0.6));
        }
        return frames;
      },
      [&](const std::vector<Image>& frames) {
        serving::SupervisorConfig sup;
        sup.monitor.trigger_frames = 2;  // make monitor transitions reachable

        std::vector<serving::ServeResult> solo;
        {
          serving::FakeClock clock;
          serving::Supervisor supervisor(*detector_, steering_, sup, &clock);
          for (const Image& frame : frames) solo.push_back(supervisor.process(frame));
        }

        serving::FakeClock clock;
        serving::ClusterConfig config;
        config.streams = 1;
        config.gather_window_ns = 1'000'000'000;  // everything in as few batches as possible
        config.max_batch = 5;                     // ...split at an awkward boundary
        config.supervisor = sup;
        serving::ServingCluster cluster(*detector_, steering_, config, &clock);
        cluster.pause();
        for (const Image& frame : frames) cluster.submit(0, frame);
        cluster.drain();
        const std::vector<serving::ClusterResult> results = cluster.take_results();
        cluster.stop();

        if (results.size() != solo.size()) return false;
        for (size_t i = 0; i < solo.size(); ++i) {
          const serving::ServeResult& a = solo[i];
          const serving::ServeResult& b = results[i].result;
          const bool scores_equal = (std::isnan(a.score) && std::isnan(b.score)) ||
                                    a.score == b.score;
          const bool steer_equal = (std::isnan(a.steering) && std::isnan(b.steering)) ||
                                   a.steering == b.steering;
          if (!scores_equal || !steer_equal || a.novel != b.novel || a.scored != b.scored ||
              a.sensor_bad != b.sensor_bad || a.mode != b.mode ||
              a.monitor_state != b.monitor_state || a.fallback_path != b.fallback_path) {
            return false;
          }
        }
        return true;
      },
      {/*trials=*/6, /*seed=*/76});
}

}  // namespace
}  // namespace salnov
