#include "mapreduce/parallel_crh.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "common/rng.h"
#include "datagen/noise.h"
#include "eval/metrics.h"

namespace crh {
namespace {

Dataset MakeMixedDataset(size_t n = 150, uint64_t seed = 61, double missing = 0.0) {
  Schema schema;
  EXPECT_TRUE(schema.AddContinuous("x", 0.0).ok());
  EXPECT_TRUE(schema.AddCategorical("y").ok());
  std::vector<std::string> objects;
  for (size_t i = 0; i < n; ++i) objects.push_back("o" + std::to_string(i));
  Dataset truth_data(std::move(schema), std::move(objects), {});
  for (const char* l : {"a", "b", "c", "d"}) truth_data.mutable_dict(1).GetOrAdd(l);
  Rng rng(seed);
  ValueTable truth(n, 2);
  for (size_t i = 0; i < n; ++i) {
    truth.Set(i, 0, Value::Continuous(std::round(rng.Uniform(0, 100))));
    truth.Set(i, 1, Value::Categorical(static_cast<CategoryId>(rng.UniformInt(0, 3))));
  }
  truth_data.set_ground_truth(std::move(truth));
  NoiseOptions noise;
  noise.gammas = {0.1, 0.6, 1.2, 1.8};
  noise.missing_rate = missing;
  noise.seed = seed;
  auto noisy = MakeNoisyDataset(truth_data, noise);
  EXPECT_TRUE(noisy.ok());
  return std::move(noisy).ValueOrDie();
}

TEST(TuplesTest, FlattensNonMissingObservations) {
  Dataset data = MakeMixedDataset(20, 5, 0.3);
  const auto tuples = DatasetToTuples(data);
  EXPECT_EQ(tuples.size(), data.num_observations());
  for (const ObservationTuple& t : tuples) {
    EXPECT_LT(t.entry_id, data.num_entries());
    EXPECT_LT(t.source_id, data.num_sources());
    EXPECT_FALSE(t.value.is_missing());
    // The tuple must reproduce the table cell.
    const size_t i = t.entry_id / data.num_properties();
    const size_t m = t.entry_id % data.num_properties();
    EXPECT_EQ(data.observations(t.source_id).Get(i, m), t.value);
  }
}

TEST(ParallelCrhTest, RejectsSoftModel) {
  Dataset data = MakeMixedDataset(10);
  ParallelCrhOptions options;
  options.base.categorical_model = CategoricalModel::kSoftProbability;
  EXPECT_EQ(RunParallelCrh(data, options).status().code(), StatusCode::kNotImplemented);
}

TEST(ParallelCrhTest, RejectsSupervision) {
  // The MapReduce formulation has no supervision clamping; a supervised
  // caller must not silently get an unsupervised run.
  Dataset data = MakeMixedDataset(10);
  const ValueTable labels(data.num_objects(), data.num_properties());
  ParallelCrhOptions options;
  options.base.supervision = &labels;
  EXPECT_EQ(RunParallelCrh(data, options).status().code(), StatusCode::kNotImplemented);
}

TEST(ParallelCrhTest, RejectsFineGrainedWeights) {
  // The weight job learns one global weight per source.
  Dataset data = MakeMixedDataset(10);
  for (WeightGranularity granularity :
       {WeightGranularity::kPerType, WeightGranularity::kPerProperty}) {
    ParallelCrhOptions options;
    options.base.weight_granularity = granularity;
    EXPECT_EQ(RunParallelCrh(data, options).status().code(), StatusCode::kNotImplemented);
  }
}

TEST(ParallelCrhTest, RejectsNoSources) {
  Schema schema;
  ASSERT_TRUE(schema.AddContinuous("x").ok());
  Dataset data(schema, {"o"}, {});
  EXPECT_FALSE(RunParallelCrh(data, {}).ok());
}

/// The central property: parallel CRH is an execution strategy, not a
/// different algorithm. With the same options and iteration budget it must
/// produce the serial solver's truths and weights. The only difference the
/// MapReduce form may show is the order in which the weight job sums claim
/// losses: with one map split (and a dataset of one serial shard) that order
/// is the serial pass's, and everything is bitwise equal; with several
/// splits the combiner adds per-split partials, so the weights may differ
/// in the last bits (within 1e-12). The weighted median and the vote select
/// a claim, so their truths stay exactly equal; the weighted mean carries
/// the weights' last bits into the truth (within 1e-12 relative).
void ExpectParallelMatchesSerial(const Dataset& data, CrhOptions serial_options,
                                 int iterations, int num_mappers) {
  serial_options.max_iterations = iterations;
  serial_options.convergence_tolerance = 0.0;
  auto serial = RunCrh(data, serial_options);
  ASSERT_TRUE(serial.ok());

  ParallelCrhOptions parallel_options;
  parallel_options.base = serial_options;
  parallel_options.max_iterations = iterations;
  parallel_options.convergence_tolerance = 0.0;
  parallel_options.mr.num_mappers = num_mappers;
  parallel_options.mr.num_reducers = 4;
  auto parallel = RunParallelCrh(data, parallel_options);
  ASSERT_TRUE(parallel.ok());

  const bool same_sum_order = num_mappers == 1;
  for (size_t k = 0; k < data.num_sources(); ++k) {
    if (same_sum_order) {
      EXPECT_EQ(serial->source_weights[k], parallel->source_weights[k]) << "k=" << k;
    } else {
      EXPECT_NEAR(serial->source_weights[k], parallel->source_weights[k], 1e-12) << "k=" << k;
    }
  }
  const bool exact_truths =
      same_sum_order || serial_options.continuous_model == ContinuousModel::kMedian;
  for (size_t i = 0; i < data.num_objects(); ++i) {
    for (size_t m = 0; m < data.num_properties(); ++m) {
      const Value& want = serial->truths.Get(i, m);
      const Value& got = parallel->truths.Get(i, m);
      if (exact_truths || !want.is_continuous() || !got.is_continuous()) {
        EXPECT_EQ(want, got) << "entry (" << i << "," << m << ")";
      } else {
        EXPECT_NEAR(want.continuous(), got.continuous(), 1e-12 * std::abs(want.continuous()))
            << "entry (" << i << "," << m << ")";
      }
    }
  }
}

class ParallelEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ParallelEquivalence, MatchesSerialCrhExactly) {
  ExpectParallelMatchesSerial(MakeMixedDataset(200, 17, 0.2), CrhOptions{}, GetParam(),
                              /*num_mappers=*/3);
}

INSTANTIATE_TEST_SUITE_P(IterationBudgets, ParallelEquivalence, ::testing::Values(1, 3, 8));

/// The same equivalence across every option the shared steps read: the
/// continuous model (the median, and the mean with its zero-weight median
/// fallback), the per-property normalization and the observation-count
/// normalization (NormalizeLossMatrix), at one and at three map splits.
using LossOptions = std::tuple<ContinuousModel, PropertyLossNormalization, bool>;

class ParallelEquivalenceOverOptions : public ::testing::TestWithParam<LossOptions> {};

TEST_P(ParallelEquivalenceOverOptions, MatchesSerialCrhExactly) {
  CrhOptions options;
  options.continuous_model = std::get<0>(GetParam());
  options.property_normalization = std::get<1>(GetParam());
  options.normalize_by_observation_count = std::get<2>(GetParam());
  const Dataset data = MakeMixedDataset(200, 17, 0.2);
  for (int num_mappers : {1, 3}) {
    SCOPED_TRACE("num_mappers=" + std::to_string(num_mappers));
    ExpectParallelMatchesSerial(data, options, 5, num_mappers);
  }
}

std::string LossOptionsName(const ::testing::TestParamInfo<LossOptions>& info) {
  const char* model =
      std::get<0>(info.param) == ContinuousModel::kMedian ? "median" : "mean";
  const char* norm = "none";
  if (std::get<1>(info.param) == PropertyLossNormalization::kSum) norm = "sum";
  if (std::get<1>(info.param) == PropertyLossNormalization::kMax) norm = "max";
  return std::string(model) + "_" + norm + (std::get<2>(info.param) ? "_count" : "_nocount");
}

INSTANTIATE_TEST_SUITE_P(
    LossOptionGrid, ParallelEquivalenceOverOptions,
    ::testing::Combine(::testing::Values(ContinuousModel::kMedian, ContinuousModel::kMean),
                       ::testing::Values(PropertyLossNormalization::kNone,
                                         PropertyLossNormalization::kSum,
                                         PropertyLossNormalization::kMax),
                       ::testing::Bool()),
    LossOptionsName);

TEST(ParallelCrhTest, ResultIndependentOfClusterGeometry) {
  Dataset data = MakeMixedDataset(120, 23, 0.1);
  ParallelCrhOptions reference;
  reference.max_iterations = 5;
  auto ref = RunParallelCrh(data, reference);
  ASSERT_TRUE(ref.ok());
  for (int mappers : {1, 7}) {
    for (int reducers : {1, 2, 13}) {
      ParallelCrhOptions options;
      options.max_iterations = 5;
      options.mr.num_mappers = mappers;
      options.mr.num_reducers = reducers;
      auto out = RunParallelCrh(data, options);
      ASSERT_TRUE(out.ok());
      for (size_t k = 0; k < data.num_sources(); ++k) {
        EXPECT_NEAR(out->source_weights[k], ref->source_weights[k], 1e-12);
      }
      for (size_t i = 0; i < data.num_objects(); ++i) {
        for (size_t m = 0; m < data.num_properties(); ++m) {
          EXPECT_EQ(out->truths.Get(i, m), ref->truths.Get(i, m));
        }
      }
    }
  }
}

TEST(ParallelCrhTest, ConvergesAndReportsStats) {
  Dataset data = MakeMixedDataset(150, 29);
  ParallelCrhOptions options;
  options.convergence_tolerance = 1e-9;
  auto result = RunParallelCrh(data, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  // Jobs: 1 stats + iterations x 2 + final truth job.
  EXPECT_EQ(result->job_stats.size(),
            1u + 2u * static_cast<size_t>(result->iterations) + 1u);
  EXPECT_GT(result->wall_seconds, 0.0);
  EXPECT_GT(result->simulated_cluster_seconds, options.cost_model.job_setup_seconds);
  // Every job consumed the full tuple stream.
  for (const JobStats& stats : result->job_stats) {
    EXPECT_EQ(stats.input_records, data.num_observations());
  }
}

TEST(ParallelCrhTest, RecoversTruthsOnSkewedSources) {
  Dataset data = MakeMixedDataset(400, 41);
  auto result = RunParallelCrh(data, {});
  ASSERT_TRUE(result.ok());
  auto eval = Evaluate(data, result->truths);
  ASSERT_TRUE(eval.ok());
  EXPECT_LT(eval->error_rate, 0.1);
  EXPECT_LT(eval->mnad, 0.5);
}

TEST(ParallelCrhTest, WeightJobUsesCombinerEffectively) {
  Dataset data = MakeMixedDataset(300, 43);
  ParallelCrhOptions options;
  options.max_iterations = 1;
  options.mr.num_mappers = 4;
  auto result = RunParallelCrh(data, options);
  ASSERT_TRUE(result.ok());
  // Weight job is job index 2 (stats, truth, weight, final truth). Its
  // combiner folds each mapper's claims to at most K * M records.
  const JobStats& weight_job = result->job_stats[2];
  EXPECT_EQ(weight_job.map_output_records, data.num_observations());
  EXPECT_LE(weight_job.shuffle_records,
            4u * data.num_sources() * data.num_properties());
  EXPECT_LT(weight_job.shuffle_records, weight_job.map_output_records);
}

}  // namespace
}  // namespace crh
