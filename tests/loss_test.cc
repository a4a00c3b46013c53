#include "losses/loss.h"

#include <gtest/gtest.h>

#include <vector>

namespace crh {
namespace {

TEST(ZeroOneLossTest, MatchesIsZero) { EXPECT_DOUBLE_EQ(ZeroOneLoss(2, 2), 0.0); }

TEST(ZeroOneLossTest, MismatchIsOne) { EXPECT_DOUBLE_EQ(ZeroOneLoss(2, 3), 1.0); }

TEST(ZeroOneLossTest, IgnoresScale) {
  // Eq 8 takes no entry scale: a mismatch costs 1 however dispersed the
  // entry's claims are.
  EXPECT_DOUBLE_EQ(ZeroOneLoss(0, 1), 1.0);
}

TEST(NormalizedSquaredLossTest, QuadraticInDistance) {
  EXPECT_DOUBLE_EQ(NormalizedSquaredLoss(10.0, 10.0, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(NormalizedSquaredLoss(10.0, 12.0, 2.0), 4.0 / 2.0);
  EXPECT_DOUBLE_EQ(NormalizedSquaredLoss(10.0, 14.0, 2.0), 16.0 / 2.0);
}

TEST(NormalizedSquaredLossTest, SymmetricInArguments) {
  EXPECT_DOUBLE_EQ(NormalizedSquaredLoss(3, 7, 1.5), NormalizedSquaredLoss(7, 3, 1.5));
}

TEST(NormalizedAbsoluteLossTest, LinearInDistance) {
  EXPECT_DOUBLE_EQ(NormalizedAbsoluteLoss(10.0, 14.0, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(NormalizedAbsoluteLoss(10.0, 6.0, 2.0), 2.0);
}

TEST(NormalizedAbsoluteLossTest, ScaleDividesLoss) {
  const double base = NormalizedAbsoluteLoss(0, 8, 1.0);
  EXPECT_DOUBLE_EQ(NormalizedAbsoluteLoss(0, 8, 4.0), base / 4.0);
}

double ProbVectorLoss(const std::vector<double>& dist, CategoryId obs) {
  return ProbVectorSquaredLoss(dist.data(), dist.size(), obs);
}

TEST(ProbVectorSquaredLossTest, PerfectOneHotIsZero) {
  EXPECT_DOUBLE_EQ(ProbVectorLoss({0.0, 1.0, 0.0}, 1), 0.0);
}

TEST(ProbVectorSquaredLossTest, FullyWrongOneHotIsTwo) {
  // ||e_0 - e_2||^2 = 2.
  EXPECT_DOUBLE_EQ(ProbVectorLoss({1.0, 0.0, 0.0}, 2), 2.0);
}

TEST(ProbVectorSquaredLossTest, UniformDistribution) {
  // ||u - e_l||^2 = sum u_i^2 - 2 u_l + 1 = 1/3 - 2/3 + 1 = 2/3 for L = 3.
  EXPECT_NEAR(ProbVectorLoss({1.0 / 3, 1.0 / 3, 1.0 / 3}, 0), 2.0 / 3, 1e-12);
}

TEST(ProbVectorSquaredLossTest, HigherTruthMassGivesLowerLoss) {
  EXPECT_LT(ProbVectorLoss({0.1, 0.9}, 1), ProbVectorLoss({0.4, 0.6}, 1));
  EXPECT_LT(ProbVectorLoss({0.4, 0.6}, 1), ProbVectorLoss({0.6, 0.4}, 1));
}

/// Property sweep: all losses are non-negative and vanish iff the
/// observation equals the truth (identity of indiscernibles).
class ContinuousLossProperty : public ::testing::TestWithParam<double> {};

TEST_P(ContinuousLossProperty, NonNegativeAndZeroAtTruth) {
  const double v = GetParam();
  for (double delta : {-7.5, -0.1, 0.0, 0.3, 12.0}) {
    const double obs = v + delta;
    for (double scale : {0.5, 1.0, 10.0}) {
      const double lsq = NormalizedSquaredLoss(v, obs, scale);
      const double labs = NormalizedAbsoluteLoss(v, obs, scale);
      EXPECT_GE(lsq, 0.0);
      EXPECT_GE(labs, 0.0);
      if (delta == 0.0) {
        EXPECT_DOUBLE_EQ(lsq, 0.0);
        EXPECT_DOUBLE_EQ(labs, 0.0);
      } else {
        EXPECT_GT(lsq, 0.0);
        EXPECT_GT(labs, 0.0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ContinuousLossProperty,
                         ::testing::Values(-100.0, -1.0, 0.0, 0.25, 42.0, 1e6));

/// Property sweep: the absolute loss is monotone in |deviation| while the
/// squared loss penalizes large deviations more than proportionally.
class LossGrowthProperty : public ::testing::TestWithParam<double> {};

TEST_P(LossGrowthProperty, SquaredGrowsFasterThanAbsolute) {
  const double d = GetParam();
  const double r_abs =
      NormalizedAbsoluteLoss(0.0, 2 * d, 1.0) / NormalizedAbsoluteLoss(0.0, d, 1.0);
  const double r_sq = NormalizedSquaredLoss(0.0, 2 * d, 1.0) / NormalizedSquaredLoss(0.0, d, 1.0);
  EXPECT_NEAR(r_abs, 2.0, 1e-9);
  EXPECT_NEAR(r_sq, 4.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, LossGrowthProperty, ::testing::Values(0.5, 1.0, 3.0, 50.0));

}  // namespace
}  // namespace crh
