/// \file bench_micro.cc
/// google-benchmark microbenchmarks for the core primitives, including the
/// paper's complexity claim (Section 2.5): one CRH iteration is linear in
/// the total number of observations K*N*M.

#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.h"
#include "core/crh.h"
#include "losses/resolvers.h"
#include "data/stats.h"
#include "datagen/noise.h"
#include "datagen/uci_like.h"
#include "losses/loss.h"
#include "weights/weight_scheme.h"

namespace crh {
namespace {

std::vector<double> RandomValues(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (double& v : out) v = rng.Uniform(0, 100);
  return out;
}

void BM_WeightedMedian(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<double> values = RandomValues(n, 1);
  const std::vector<double> weights = RandomValues(n, 2);
  ResolverScratch scratch;
  scratch.Reserve(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(WeightedMedianSpan(values.data(), weights.data(), n, scratch));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_WeightedMedian)->Range(8, 8 << 10)->Complexity(benchmark::oNLogN);

void BM_WeightedMean(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<double> values = RandomValues(n, 1);
  const std::vector<double> weights = RandomValues(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(WeightedMeanSpan(values.data(), weights.data(), n));
  }
}
BENCHMARK(BM_WeightedMean)->Range(8, 8 << 10);

void BM_WeightedVote(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(3);
  std::vector<CategoryId> labels;
  std::vector<double> weights;
  for (size_t i = 0; i < n; ++i) {
    labels.push_back(static_cast<CategoryId>(rng.UniformInt(0, 9)));
    weights.push_back(rng.Uniform(0, 1));
  }
  ResolverScratch scratch;
  scratch.Reserve(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(WeightedVoteLabelsSpan(labels.data(), weights.data(), n, scratch));
  }
}
BENCHMARK(BM_WeightedVote)->Range(8, 8 << 10);

void BM_ComputeSourceWeights(benchmark::State& state) {
  const std::vector<double> losses = RandomValues(static_cast<size_t>(state.range(0)), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeSourceWeights(losses));
  }
}
BENCHMARK(BM_ComputeSourceWeights)->Range(8, 1024);

void BM_ProbVectorLoss(benchmark::State& state) {
  const size_t labels = static_cast<size_t>(state.range(0));
  std::vector<double> dist(labels, 1.0 / static_cast<double>(labels));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ProbVectorSquaredLoss(dist.data(), labels, 0));
  }
}
BENCHMARK(BM_ProbVectorLoss)->Range(2, 256);

/// Shared noisy dataset cache so each size is generated once.
const Dataset& CachedDataset(size_t records) {
  static std::map<size_t, Dataset> cache;
  auto it = cache.find(records);
  if (it == cache.end()) {
    UciLikeOptions uci;
    uci.num_records = records;
    NoiseOptions noise;
    noise.gammas = PaperSimulationGammas();
    auto noisy = MakeNoisyDataset(MakeAdultGroundTruth(uci), noise);
    it = cache.emplace(records, std::move(noisy).ValueOrDie()).first;
  }
  return it->second;
}

/// The linear-time claim: one full CRH iteration over K*N*M observations.
void BM_CrhIterationLinearTime(benchmark::State& state) {
  const Dataset& data = CachedDataset(static_cast<size_t>(state.range(0)));
  CrhOptions options;
  options.max_iterations = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunCrh(data, options));
  }
  state.SetComplexityN(static_cast<int64_t>(data.num_observations()));
  state.counters["observations"] = static_cast<double>(data.num_observations());
}
BENCHMARK(BM_CrhIterationLinearTime)
    ->Arg(250)
    ->Arg(500)
    ->Arg(1000)
    ->Arg(2000)
    ->Arg(4000)
    ->Complexity(benchmark::oN);

void BM_EntryStats(benchmark::State& state) {
  const Dataset& data = CachedDataset(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeEntryStats(data));
  }
}
BENCHMARK(BM_EntryStats)->Arg(500)->Arg(2000);

void BM_FullCrhToConvergence(benchmark::State& state) {
  const Dataset& data = CachedDataset(1000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunCrh(data));
  }
}
BENCHMARK(BM_FullCrhToConvergence);

}  // namespace
}  // namespace crh

BENCHMARK_MAIN();
