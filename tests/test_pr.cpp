// Tests for precision-recall metrics.

#include <gtest/gtest.h>

#include "metrics/pr.hpp"
#include "util/rng.hpp"

namespace sm = streambrain::metrics;
namespace su = streambrain::util;

TEST(PrCurve, PerfectRankingEndsAtFullRecallFullPrecisionPrefix) {
  const auto curve = sm::pr_curve({0.9, 0.8, 0.2, 0.1}, {1, 1, 0, 0});
  ASSERT_GE(curve.size(), 2u);
  // First point: 1 selected, 1 TP.
  EXPECT_DOUBLE_EQ(curve.front().precision, 1.0);
  EXPECT_DOUBLE_EQ(curve.front().recall, 0.5);
  // Last point: everything selected.
  EXPECT_DOUBLE_EQ(curve.back().recall, 1.0);
  EXPECT_DOUBLE_EQ(curve.back().precision, 0.5);
}

TEST(PrCurve, RecallIsNonDecreasing) {
  su::Rng rng(3);
  std::vector<double> scores(200);
  std::vector<int> labels(200);
  for (std::size_t i = 0; i < 200; ++i) {
    scores[i] = rng.uniform();
    labels[i] = rng.bernoulli(0.3) ? 1 : 0;
  }
  const auto curve = sm::pr_curve(scores, labels);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].recall, curve[i - 1].recall);
  }
}

TEST(AveragePrecision, PerfectRankingIsOne) {
  EXPECT_DOUBLE_EQ(sm::average_precision({0.9, 0.8, 0.2, 0.1}, {1, 1, 0, 0}),
                   1.0);
}

TEST(AveragePrecision, UninformativeApproachesBaseRate) {
  su::Rng rng(7);
  std::vector<double> scores(5000);
  std::vector<int> labels(5000);
  for (std::size_t i = 0; i < scores.size(); ++i) {
    scores[i] = rng.uniform();  // independent of label
    labels[i] = rng.bernoulli(0.2) ? 1 : 0;
  }
  EXPECT_NEAR(sm::average_precision(scores, labels), 0.2, 0.03);
}

TEST(AveragePrecision, InvertedRankingNearZeroForRarePositives) {
  // All positives ranked last: AP ~ positives-weighted tail precision.
  std::vector<double> scores = {0.9, 0.8, 0.7, 0.2, 0.1};
  std::vector<int> labels = {0, 0, 0, 1, 1};
  EXPECT_LT(sm::average_precision(scores, labels), 0.45);
}
