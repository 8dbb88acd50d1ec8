// Property tests for EmpiricalCdf quantiles, aimed at the duplicate-heavy
// regime: calibrated thresholds are conservative order statistics, so they
// must be monotone in q, idempotent against cdf(), and must never flag more
// than the configured fraction of their own training set — even when the
// score distribution is mostly ties.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/threshold.hpp"
#include "metrics/ecdf.hpp"
#include "prop.hpp"

namespace salnov {
namespace {

TEST(EcdfProperty, QuantilesMonotoneInQ) {
  prop::for_all_shrink<double>(
      "upper/lower/interpolating quantiles monotone in q", prop::gen_duplicate_heavy(1, 60),
      [](const std::vector<double>& samples) {
        const EmpiricalCdf cdf(samples);
        double prev_upper = -std::numeric_limits<double>::infinity();
        double prev_lower = prev_upper;
        double prev_interp = prev_upper;
        for (double q = 0.0; q <= 1.0; q += 0.01) {
          const double upper = cdf.upper_quantile(q);
          const double lower = cdf.lower_quantile(q);
          const double interp = cdf.quantile(q);
          if (upper < prev_upper || lower < prev_lower || interp < prev_interp) return false;
          prev_upper = upper;
          prev_lower = lower;
          prev_interp = interp;
        }
        return true;
      },
      {200, 41});
}

TEST(EcdfProperty, UpperQuantileIdempotentAgainstCdf) {
  // For every sample x, upper_quantile(cdf(x)) must return x itself — the
  // property the interpolating quantile() violates on tie-heavy inputs
  // (e.g. {1, 2, 2, 3}: cdf(2) = 0.75 but quantile(0.75) = 2.25).
  prop::for_all_shrink<double>(
      "upper_quantile(cdf(x)) == x for every sample x", prop::gen_duplicate_heavy(1, 60),
      [](const std::vector<double>& samples) {
        const EmpiricalCdf cdf(samples);
        for (double x : cdf.samples()) {
          if (cdf.upper_quantile(cdf.cdf(x)) != x) return false;
        }
        return true;
      },
      {200, 42});
}

TEST(EcdfProperty, QuantilesAlwaysReturnASample) {
  prop::for_all_shrink<double>(
      "upper/lower quantiles are order statistics", prop::gen_duplicate_heavy(1, 40),
      [](const std::vector<double>& samples) {
        const EmpiricalCdf cdf(samples);
        for (double q = 0.0; q <= 1.0; q += 0.037) {
          const auto& s = cdf.samples();
          if (std::find(s.begin(), s.end(), cdf.upper_quantile(q)) == s.end()) return false;
          if (std::find(s.begin(), s.end(), cdf.lower_quantile(q)) == s.end()) return false;
        }
        return true;
      },
      {100, 43});
}

TEST(EcdfProperty, CalibrationNeverOverflagsTrainingSet) {
  // The paper's contract: a threshold at percentile p flags at most a
  // (1 - p) fraction of the very scores it was calibrated on. Checked for
  // both orientations over duplicate-heavy score vectors.
  prop::for_all_shrink<double>(
      "calibrated threshold flags <= (1 - p) of training", prop::gen_duplicate_heavy(2, 80),
      [](const std::vector<double>& scores) {
        for (const double p : {0.9, 0.95, 0.99}) {
          for (const auto orientation :
               {core::ScoreOrientation::kHighIsNovel, core::ScoreOrientation::kLowIsNovel}) {
            const core::NoveltyThreshold threshold =
                core::VariantCalibration::calibrate(scores, orientation, p).threshold;
            int64_t flagged = 0;
            for (double s : scores) flagged += threshold.is_novel(s) ? 1 : 0;
            const double fraction =
                static_cast<double>(flagged) / static_cast<double>(scores.size());
            if (fraction > (1.0 - p) + 1e-9) return false;
          }
        }
        return true;
      },
      {150, 44});
}

TEST(EcdfProperty, DuplicateBlockRegression) {
  // The concrete shrunk counterexample that motivated the fix: with scores
  // {0, 0, 0, 1} the interpolating 99th percentile lands at 0.97, flagging
  // the whole {1} block — 25% of the training set. The conservative
  // threshold is the top order statistic and flags nothing.
  const std::vector<double> scores = {0.0, 0.0, 0.0, 1.0};
  const core::NoveltyThreshold threshold =
      core::VariantCalibration::calibrate(scores, core::ScoreOrientation::kHighIsNovel, 0.99)
          .threshold;
  EXPECT_EQ(threshold.threshold(), 1.0);
  for (double s : scores) EXPECT_FALSE(threshold.is_novel(s));
  EXPECT_TRUE(threshold.is_novel(1.5));
}

TEST(EcdfProperty, EndpointsAndErrors) {
  const EmpiricalCdf cdf({3.0, 1.0, 2.0, 2.0});
  EXPECT_EQ(cdf.upper_quantile(0.0), 1.0);
  EXPECT_EQ(cdf.upper_quantile(1.0), 3.0);
  EXPECT_EQ(cdf.lower_quantile(0.0), 1.0);
  EXPECT_EQ(cdf.lower_quantile(1.0), 3.0);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(cdf.quantile(nan), std::invalid_argument);
  EXPECT_THROW(cdf.upper_quantile(nan), std::invalid_argument);
  EXPECT_THROW(cdf.lower_quantile(nan), std::invalid_argument);
  EXPECT_THROW(cdf.upper_quantile(1.5), std::invalid_argument);
  EXPECT_THROW(cdf.lower_quantile(-0.5), std::invalid_argument);
}

TEST(EcdfProperty, LowerIsMirrorOfUpper) {
  prop::for_all_shrink<double>(
      "lower_quantile(q)(S) == -upper_quantile(1-q)(-S)", prop::gen_duplicate_heavy(1, 50),
      [](const std::vector<double>& samples) {
        std::vector<double> negated;
        negated.reserve(samples.size());
        for (double s : samples) negated.push_back(-s);
        const EmpiricalCdf cdf(samples);
        const EmpiricalCdf mirror(negated);
        for (double q = 0.0; q <= 1.0; q += 0.043) {
          if (cdf.lower_quantile(q) != -mirror.upper_quantile(1.0 - q)) return false;
        }
        return true;
      },
      {100, 45});
}

}  // namespace
}  // namespace salnov
