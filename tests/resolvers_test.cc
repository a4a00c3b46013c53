#include "losses/resolvers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "core/crh.h"

namespace crh {
namespace {

// Vector adapters over the span kernels: each sizes fresh scratch for one
// call, so the cases below read like the formulas they check.

CategoryId Vote(const std::vector<CategoryId>& labels, const std::vector<double>& weights) {
  ResolverScratch scratch;
  scratch.Reserve(labels.size());
  return WeightedVoteLabelsSpan(labels.data(), weights.data(), labels.size(), scratch);
}

double Mean(const std::vector<double>& values, const std::vector<double>& weights) {
  return WeightedMeanSpan(values.data(), weights.data(), values.size());
}

double Median(const std::vector<double>& values, const std::vector<double>& weights) {
  ResolverScratch scratch;
  scratch.Reserve(values.size());
  return WeightedMedianSpan(values.data(), weights.data(), values.size(), scratch);
}

std::vector<double> LabelDistribution(const std::vector<CategoryId>& labels,
                                      const std::vector<double>& weights, size_t num_labels) {
  std::vector<double> dist(num_labels, -1.0);
  WeightedLabelDistributionSpan(labels.data(), weights.data(), labels.size(), dist.data(),
                                num_labels);
  return dist;
}

// ---------------------------------------------------------------------------
// WeightedVoteLabelsSpan (Eq 9)
// ---------------------------------------------------------------------------

TEST(WeightedVoteTest, EmptyClaimsGiveMissing) { EXPECT_EQ(Vote({}, {}), kInvalidCategory); }

TEST(WeightedVoteTest, MajorityWinsWithUniformWeights) {
  EXPECT_EQ(Vote({1, 2, 1}, {1, 1, 1}), CategoryId{1});
}

TEST(WeightedVoteTest, HighWeightMinorityWins) {
  EXPECT_EQ(Vote({1, 1, 2}, {0.4, 0.4, 1.0}), CategoryId{2});
}

TEST(WeightedVoteTest, TieBreaksTowardSmallestCategory) {
  EXPECT_EQ(Vote({5, 2}, {1.0, 1.0}), CategoryId{2});
}

TEST(WeightedVoteTest, SkipsMissingClaims) {
  // Missing claims never reach the kernel: the claim index holds present
  // claims only, so a heavy source silent on the entry casts no vote.
  Schema schema;
  ASSERT_TRUE(schema.AddCategorical("y").ok());
  Dataset data(std::move(schema), {"o"}, {"heavy", "light"});
  data.SetObservation(1, 0, 0, data.InternCategorical(0, "c"));
  const ValueTable truths = ComputeTruthsGivenWeights(data, {100.0, 0.1}, CrhOptions{});
  EXPECT_EQ(truths.Get(0, 0), data.InternCategorical(0, "c"));
}

TEST(WeightedVoteTest, AllZeroWeightsStillDeterministic) {
  EXPECT_EQ(Vote({4, 1}, {0.0, 0.0}), CategoryId{1});
}

// ---------------------------------------------------------------------------
// WeightedMeanSpan (Eq 14)
// ---------------------------------------------------------------------------

TEST(WeightedMeanTest, UniformWeightsGiveArithmeticMean) {
  EXPECT_DOUBLE_EQ(Mean({1, 2, 3}, {1, 1, 1}), 2.0);
}

TEST(WeightedMeanTest, WeightsShiftTheMean) {
  EXPECT_DOUBLE_EQ(Mean({0, 10}, {3, 1}), 2.5);
}

TEST(WeightedMeanTest, ZeroTotalWeightGivesNaN) {
  EXPECT_TRUE(std::isnan(Mean({1, 2}, {0, 0})));
}

TEST(WeightedMeanTest, SingleClaim) { EXPECT_DOUBLE_EQ(Mean({7}, {0.3}), 7.0); }

// ---------------------------------------------------------------------------
// WeightedMedianSpan (Eq 16)
// ---------------------------------------------------------------------------

TEST(WeightedMedianTest, EmptyGivesNaN) { EXPECT_TRUE(std::isnan(Median({}, {}))); }

TEST(WeightedMedianTest, UniformWeightsGiveLowerMedian) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}, {1, 1, 1}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}, {1, 1, 1, 1}), 2.0);
}

TEST(WeightedMedianTest, HeavyWeightDominates) {
  EXPECT_DOUBLE_EQ(Median({1, 2, 100}, {0.1, 0.1, 10.0}), 100.0);
}

TEST(WeightedMedianTest, SatisfiesEq16Definition) {
  const std::vector<double> values = {5, 1, 3, 9, 7};
  const std::vector<double> weights = {0.2, 0.5, 1.0, 0.4, 0.3};
  const double median = Median(values, weights);
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  double below = 0, above = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i] < median) below += weights[i];
    if (values[i] > median) above += weights[i];
  }
  EXPECT_LT(below, total / 2);
  EXPECT_LE(above, total / 2);
}

TEST(WeightedMedianTest, RobustToOneHugeOutlier) {
  // The paper motivates the weighted median as outlier-robust (Eq 15/16).
  const std::vector<double> values = {10, 11, 12, 1e9};
  const double median = Median(values, {1, 1, 1, 1});
  EXPECT_LE(median, 12.0);
  EXPECT_GE(median, 10.0);
}

TEST(WeightedMedianTest, NonPositiveWeightsFallBackToUniform) {
  EXPECT_DOUBLE_EQ(Median({5, 1, 3}, {0, 0, 0}), 3.0);
  EXPECT_DOUBLE_EQ(Median({5, 1, 3}, {-1, -1, -1}), 3.0);
}

TEST(WeightedMedianTest, DuplicateValuesAggregateWeight) {
  // 2 appears twice with total weight 2.0 vs 9 with 1.5.
  EXPECT_DOUBLE_EQ(Median({2, 9, 2}, {1.0, 1.5, 1.0}), 2.0);
}

TEST(WeightedMedianTest, ReturnsOneOfTheClaims) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> values, weights;
    const int n = static_cast<int>(rng.UniformInt(1, 12));
    for (int i = 0; i < n; ++i) {
      values.push_back(std::round(rng.Uniform(-50, 50)));
      weights.push_back(rng.Uniform(0.01, 2.0));
    }
    const double median = Median(values, weights);
    EXPECT_NE(std::find(values.begin(), values.end(), median), values.end());
  }
}

/// Property sweep over random claim sets: the weighted median minimizes the
/// weighted absolute deviation (it solves Eq 3 under the absolute loss),
/// checked against every claimed value as candidate.
class WeightedMedianOptimalityProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WeightedMedianOptimalityProperty, MinimizesWeightedAbsoluteDeviation) {
  Rng rng(GetParam());
  const int n = static_cast<int>(rng.UniformInt(1, 15));
  std::vector<double> values, weights;
  for (int i = 0; i < n; ++i) {
    values.push_back(rng.Uniform(-100, 100));
    weights.push_back(rng.Uniform(0.01, 3.0));
  }
  const double median = Median(values, weights);
  const auto objective = [&](double v) {
    double total = 0;
    for (int i = 0; i < n; ++i) total += weights[static_cast<size_t>(i)] *
                                          std::abs(v - values[static_cast<size_t>(i)]);
    return total;
  };
  const double best = objective(median);
  for (double candidate : values) {
    EXPECT_LE(best, objective(candidate) + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomClaims, WeightedMedianOptimalityProperty,
                         ::testing::Range<uint64_t>(0, 25));

/// Property: the weighted mean minimizes the weighted squared deviation.
class WeightedMeanOptimalityProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WeightedMeanOptimalityProperty, MinimizesWeightedSquaredDeviation) {
  Rng rng(GetParam() + 1000);
  const int n = static_cast<int>(rng.UniformInt(1, 15));
  std::vector<double> values, weights;
  for (int i = 0; i < n; ++i) {
    values.push_back(rng.Uniform(-100, 100));
    weights.push_back(rng.Uniform(0.01, 3.0));
  }
  const double mean = Mean(values, weights);
  const auto objective = [&](double v) {
    double total = 0;
    for (int i = 0; i < n; ++i) {
      const double d = v - values[static_cast<size_t>(i)];
      total += weights[static_cast<size_t>(i)] * d * d;
    }
    return total;
  };
  const double best = objective(mean);
  EXPECT_LE(best, objective(mean + 0.01) + 1e-12);
  EXPECT_LE(best, objective(mean - 0.01) + 1e-12);
  for (double candidate : values) EXPECT_LE(best, objective(candidate) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomClaims, WeightedMeanOptimalityProperty,
                         ::testing::Range<uint64_t>(0, 25));

/// Property: on random claim sets with duplicates, ties and zero weights,
/// the kernel agrees with a sort-based reference of Eq 16 written out here
/// (stable-sort the claims, walk the groups of equal value). Spans of up
/// to 40 claims cover both of the kernel's sort paths: insertion sort up to
/// 32 claims, std::sort above.
class WeightedMedianEquivalenceProperty : public ::testing::TestWithParam<uint64_t> {};

double ReferenceMedian(std::vector<double> values, std::vector<double> weights) {
  double total = 0.0;
  for (double& w : weights) total += (w = std::max(w, 0.0));
  if (total <= 0.0) {
    std::fill(weights.begin(), weights.end(), 1.0);
    total = static_cast<double>(values.size());
  }
  std::vector<size_t> order(values.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return values[a] < values[b]; });
  double below = 0.0;
  for (size_t pos = 0; pos < order.size();) {
    double group = 0.0;
    size_t end = pos;
    while (end < order.size() && values[order[end]] == values[order[pos]]) {
      group += weights[order[end++]];
    }
    if (below < total / 2 && total - below - group <= total / 2) return values[order[pos]];
    below += group;
    pos = end;
  }
  return values[order.back()];
}

TEST_P(WeightedMedianEquivalenceProperty, AgreesWithSortBased) {
  Rng rng(GetParam() + 5000);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = static_cast<int>(rng.UniformInt(1, 40));
    std::vector<double> values, weights;
    for (int i = 0; i < n; ++i) {
      // Coarse values force duplicates.
      values.push_back(std::round(rng.Uniform(-5, 5)));
      weights.push_back(rng.Bernoulli(0.1) ? 0.0 : rng.Uniform(0.01, 2.0));
    }
    EXPECT_DOUBLE_EQ(Median(values, weights), ReferenceMedian(values, weights))
        << "seed " << GetParam() << " trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomClaims, WeightedMedianEquivalenceProperty,
                         ::testing::Range<uint64_t>(0, 10));

// ---------------------------------------------------------------------------
// WeightedLabelDistributionSpan (Eq 12)
// ---------------------------------------------------------------------------

TEST(WeightedLabelDistributionTest, NormalizedWeightedMeanOfOneHots) {
  const std::vector<CategoryId> labels = {0, 1, 0};
  const auto dist = LabelDistribution(labels, {1, 2, 1}, 3);
  ASSERT_EQ(dist.size(), 3u);
  EXPECT_DOUBLE_EQ(dist[0], 0.5);
  EXPECT_DOUBLE_EQ(dist[1], 0.5);
  EXPECT_DOUBLE_EQ(dist[2], 0.0);
}

TEST(WeightedLabelDistributionTest, SumsToOne) {
  const auto dist = LabelDistribution({2, 2, 1}, {0.3, 0.5, 0.9}, 4);
  EXPECT_NEAR(std::accumulate(dist.begin(), dist.end(), 0.0), 1.0, 1e-12);
}

TEST(WeightedLabelDistributionTest, ZeroWeightsGiveUniformOverClaimedLabels) {
  // Mass stays on the labels somebody claimed; spreading it over the whole
  // dictionary would let the mode escape the observed candidate set.
  const auto dist = LabelDistribution({0, 1}, {0, 0}, 4);
  EXPECT_DOUBLE_EQ(dist[0], 0.5);
  EXPECT_DOUBLE_EQ(dist[1], 0.5);
  EXPECT_DOUBLE_EQ(dist[2], 0.0);
  EXPECT_DOUBLE_EQ(dist[3], 0.0);
}

TEST(ArgMaxTest, FirstLargest) {
  const std::vector<double> tied = {1.0, 3.0, 3.0, 2.0};
  EXPECT_EQ(ArgMaxSpan(tied.data(), tied.size()), 1u);
  const double single = 5.0;
  EXPECT_EQ(ArgMaxSpan(&single, 1), 0u);
}

// ---------------------------------------------------------------------------
// Scratch reuse: the solver reuses one scratch per shard across every entry
// of a pass, while the MapReduce truth reducer sizes fresh scratch per
// entry. Serial and MapReduce CRH agree bitwise only if no kernel's result
// depends on what an earlier call left in its scratch.
// ---------------------------------------------------------------------------

// Exact comparison that also accepts bitwise-equal NaNs (zero-total-weight
// mean results).
void ExpectSameDouble(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return;
  EXPECT_EQ(a, b);
}

class SpanEquivalenceProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SpanEquivalenceProperty, AllResolversBitIdentical) {
  Rng rng(GetParam() + 9000);
  const size_t num_labels = 6;
  constexpr size_t kMaxClaims = 30;
  ResolverScratch reused;  // dirtied by every earlier trial
  reused.Reserve(kMaxClaims);
  const auto label_gap = [](CategoryId a, CategoryId b) {
    return std::abs(static_cast<double>(a) - static_cast<double>(b));
  };
  for (int trial = 0; trial < 25; ++trial) {
    const size_t n = static_cast<size_t>(rng.UniformInt(1, kMaxClaims));
    ResolverScratch fresh;
    fresh.Reserve(n);
    std::vector<CategoryId> labels;
    std::vector<double> cont, weights;
    for (size_t i = 0; i < n; ++i) {
      labels.push_back(static_cast<CategoryId>(rng.UniformInt(0, num_labels - 1)));
      cont.push_back(std::round(rng.Uniform(-4, 4)));  // coarse -> duplicates
      weights.push_back(rng.Bernoulli(0.15) ? 0.0 : rng.Uniform(0.01, 2.0));
    }

    EXPECT_EQ(WeightedVoteLabelsSpan(labels.data(), weights.data(), n, reused),
              WeightedVoteLabelsSpan(labels.data(), weights.data(), n, fresh));
    ExpectSameDouble(WeightedMedianSpan(cont.data(), weights.data(), n, reused),
                     WeightedMedianSpan(cont.data(), weights.data(), n, fresh));
    // A null weight span is the uniform fallback.
    ExpectSameDouble(WeightedMedianSpan(cont.data(), nullptr, n, reused),
                     WeightedMedianSpan(cont.data(), nullptr, n, fresh));
    EXPECT_EQ(WeightedMedoidLabelsSpan(labels.data(), weights.data(), n, reused, label_gap),
              WeightedMedoidLabelsSpan(labels.data(), weights.data(), n, fresh, label_gap));

    // The distribution kernel owns its output row: a row holding an
    // earlier entry's distribution is fully overwritten.
    const auto dist = LabelDistribution(labels, weights, num_labels);
    std::vector<double> dirty_row(num_labels, 0.5);
    WeightedLabelDistributionSpan(labels.data(), weights.data(), n, dirty_row.data(),
                                  num_labels);
    for (size_t l = 0; l < num_labels; ++l) ExpectSameDouble(dirty_row[l], dist[l]);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomClaims, SpanEquivalenceProperty,
                         ::testing::Range<uint64_t>(0, 10));

}  // namespace
}  // namespace crh
