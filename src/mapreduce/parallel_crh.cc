#include "mapreduce/parallel_crh.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "analysis/invariants.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "data/stats.h"
#include "losses/loss.h"
#include "losses/resolvers.h"
#include "losses/text_distance.h"
#include "weights/weight_scheme.h"

namespace crh {

std::vector<ObservationTuple> DatasetToTuples(const Dataset& data) {
  std::vector<ObservationTuple> tuples;
  tuples.reserve(data.num_observations());
  const uint64_t m_props = data.num_properties();
  for (size_t k = 0; k < data.num_sources(); ++k) {
    const ValueTable& table = data.observations(k);
    for (size_t i = 0; i < data.num_objects(); ++i) {
      for (size_t m = 0; m < m_props; ++m) {
        const Value& v = table.Get(i, m);
        if (v.is_missing()) continue;
        tuples.push_back({static_cast<uint64_t>(i) * m_props + m,
                          static_cast<uint32_t>(k), v});
      }
    }
  }
  return tuples;
}

namespace {

/// The "external files" all tasks can read (Section 2.7.2): source weights
/// and, after each truth job, the current truths plus entry scales.
struct DistributedCache {
  std::vector<double> weights;
  std::unordered_map<uint64_t, Value> truths;
  std::unordered_map<uint64_t, double> scales;  // continuous entries only
};

double CacheScale(const DistributedCache& cache, uint64_t entry_id) {
  const auto it = cache.scales.find(entry_id);
  return it == cache.scales.end() ? 1.0 : it->second;
}

}  // namespace

Result<ParallelCrhResult> RunParallelCrh(const Dataset& data,
                                         const ParallelCrhOptions& options) {
  if (options.base.categorical_model == CategoricalModel::kSoftProbability) {
    return Status::NotImplemented(
        "the soft categorical model is not supported by parallel CRH");
  }
  if (options.base.supervision != nullptr) {
    return Status::NotImplemented("supervision is not supported by parallel CRH");
  }
  if (options.base.weight_granularity != WeightGranularity::kGlobal) {
    return Status::NotImplemented(
        "per-type and per-property source weights are not supported by parallel CRH");
  }
  if (data.num_sources() == 0) {
    return Status::InvalidArgument("dataset has no sources");
  }
  CRH_RETURN_NOT_OK(ValidateMapReduceConfig(options.mr));

  Stopwatch watch;
  const size_t k_sources = data.num_sources();
  const uint64_t m_props = data.num_properties();
  const std::vector<ObservationTuple> tuples = DatasetToTuples(data);

  ParallelCrhResult result;
  DistributedCache cache;
  cache.weights.assign(k_sources, 1.0 / static_cast<double>(k_sources));

  const auto property_of = [m_props](uint64_t entry_id) {
    return static_cast<size_t>(entry_id % m_props);
  };
  const auto property_type = [&](uint64_t entry_id) {
    return data.schema().property(property_of(entry_id)).type;
  };
  const size_t max_label_len = data.MaxTextLabelLength();

  // --- Statistics job: per-entry claim dispersion for continuous losses.
  {
    MapReduceSpec<ObservationTuple, uint64_t, double, std::pair<uint64_t, double>> spec;
    spec.map = [&](const ObservationTuple& t,
                   std::vector<std::pair<uint64_t, double>>* out) {
      if (property_type(t.entry_id) == PropertyType::kContinuous) {
        out->emplace_back(t.entry_id, t.value.continuous());
      }
    };
    spec.reduce = [](const uint64_t& entry, std::vector<double>&& values,
                     std::vector<std::pair<uint64_t, double>>* out) {
      double sum = 0, sum_sq = 0;
      for (double v : values) {
        sum += v;
        sum_sq += v * v;
      }
      const double sd = ClaimDispersion(values.size(), sum, sum_sq);
      if (sd > 1e-12) out->emplace_back(entry, sd);
    };
    auto job = RunMapReduce(tuples, spec, options.mr);
    if (!job.ok()) return job.status();
    for (const auto& [entry, scale] : job->records) cache.scales.emplace(entry, scale);
    result.job_stats.push_back(job->stats);
  }

  // --- Per-iteration jobs.
  const auto run_truth_job = [&]() -> Status {
    MapReduceSpec<ObservationTuple, uint64_t, std::pair<uint32_t, Value>,
                  std::pair<uint64_t, Value>> spec;
    spec.map = [](const ObservationTuple& t,
                  std::vector<std::pair<uint64_t, std::pair<uint32_t, Value>>>* out) {
      out->emplace_back(t.entry_id, std::make_pair(t.source_id, t.value));
    };
    // Gathers the entry's claims into the lanes RunCrh reads from its
    // ClaimIndex and resolves them with the solver's own per-entry kernel.
    // Reduce calls run concurrently, so each owns its lanes and scratch.
    spec.reduce = [&](const uint64_t& entry, std::vector<std::pair<uint32_t, Value>>&& claims,
                      std::vector<std::pair<uint64_t, Value>>* out) {
      const size_t m = property_of(entry);
      const size_t n = claims.size();
      const PropertyType type = property_type(entry);
      const bool continuous = type == PropertyType::kContinuous;
      std::vector<double> claim_weights(n);
      std::vector<double> numeric(continuous ? n : 0);
      std::vector<CategoryId> labels(continuous ? 0 : n);
      for (size_t c = 0; c < n; ++c) {
        const auto& [source, value] = claims[c];
        // Splits are contiguous runs of DatasetToTuples' source-major
        // stream and the engine concatenates them in split order, so the
        // claims arrive in ascending source order: the order RunCrh sums
        // in, on which bit-identity with it rests.
        CRH_DCHECK(c == 0 || claims[c - 1].first < source);
        claim_weights[c] = cache.weights[source];
        if (continuous) {
          numeric[c] = value.continuous();
        } else {
          labels[c] = value.category();
        }
      }
      ResolverScratch scratch;
      scratch.Reserve(n);
      EditDistanceScratch edit;
      if (type == PropertyType::kText) edit.Reserve(max_label_len);
      ClaimSpan span;
      span.numeric = numeric.data();
      span.labels = labels.data();
      span.size = n;
      out->emplace_back(entry, ResolveHardTruth(data, m, options.base.continuous_model, span,
                                                claim_weights.data(), scratch, edit));
    };
    auto job = RunMapReduce(tuples, spec, options.mr);
    if (!job.ok()) return job.status();
    cache.truths.clear();
    for (const auto& [entry, truth] : job->records) cache.truths.emplace(entry, truth);
    result.job_stats.push_back(job->stats);
    return Status::OK();
  };

  const auto run_weight_job = [&]() -> Result<std::vector<double>> {
    // Key: source * M + property, the row-major cell of the K x M loss
    // matrix the wrapper normalizes. Value: (partial error, claim count).
    using ErrAndCount = std::pair<double, uint64_t>;
    MapReduceSpec<ObservationTuple, uint64_t, ErrAndCount, std::pair<uint64_t, ErrAndCount>>
        spec;
    spec.map = [&](const ObservationTuple& t,
                   std::vector<std::pair<uint64_t, ErrAndCount>>* out) {
      const auto truth_it = cache.truths.find(t.entry_id);
      if (truth_it == cache.truths.end()) return;
      const Value& truth = truth_it->second;
      const size_t m = property_of(t.entry_id);
      const PropertyType type = property_type(t.entry_id);
      double loss;
      if (type == PropertyType::kCategorical) {
        loss = ZeroOneLoss(truth.category(), t.value.category());
      } else if (type == PropertyType::kText) {
        // Map calls run concurrently, so each sizes its own rows.
        EditDistanceScratch edit;
        edit.Reserve(max_label_len);
        loss = NormalizedEditDistanceSpan(data.dict(m).label(truth.category()),
                                          data.dict(m).label(t.value.category()), edit);
      } else if (options.base.continuous_model == ContinuousModel::kMedian) {
        loss = NormalizedAbsoluteLoss(truth.continuous(), t.value.continuous(),
                                      CacheScale(cache, t.entry_id));
      } else {
        loss = NormalizedSquaredLoss(truth.continuous(), t.value.continuous(),
                                     CacheScale(cache, t.entry_id));
      }
      out->emplace_back(t.source_id * m_props + m, std::make_pair(loss, uint64_t{1}));
    };
    spec.combine = [](const uint64_t&, std::vector<ErrAndCount>&& values) {
      ErrAndCount total{0.0, 0};
      for (const ErrAndCount& v : values) {
        total.first += v.first;
        total.second += v.second;
      }
      return total;
    };
    spec.reduce = [](const uint64_t& key, std::vector<ErrAndCount>&& values,
                     std::vector<std::pair<uint64_t, ErrAndCount>>* out) {
      ErrAndCount total{0.0, 0};
      for (const ErrAndCount& v : values) {
        total.first += v.first;
        total.second += v.second;
      }
      out->emplace_back(key, total);
    };
    auto job = RunMapReduce(tuples, spec, options.mr);
    if (!job.ok()) return job.status();
    result.job_stats.push_back(job->stats);

    // Wrapper: the solver's own normalization of the loss matrix, then
    // deviations to weights.
    std::vector<double> loss(k_sources * m_props, 0.0);
    std::vector<size_t> count(k_sources * m_props, 0);
    for (const auto& [key, err_count] : job->records) {
      loss[key] = err_count.first;
      count[key] = err_count.second;
    }
    NormalizeLossMatrix(options.base, k_sources, m_props, count.data(), loss.data());
    std::vector<double> totals(k_sources, 0.0);
    for (size_t k = 0; k < k_sources; ++k) {
      for (size_t m = 0; m < m_props; ++m) totals[k] += loss[k * m_props + m];
    }
    return ComputeSourceWeights(totals, options.base.weight_scheme);
  };

  IterationObserver* observer = options.base.observer;
#ifdef CRH_VERIFY_BUILD
  InvariantVerifier default_verifier;
  if (observer == nullptr) observer = &default_verifier;
#endif
  // Objective evaluation and the dense truth table are only materialized
  // when somebody is watching; the plain run never pays for them.
  EntryStats observer_stats;
  if (observer != nullptr) observer_stats = ComputeEntryStats(data);
  // Materializes cache.truths as a dense table by *probing* the map in
  // entry order — never iterating it — so the table fill order (and with it
  // any downstream serialization) is independent of hash-bucket layout
  // (scripts/crh_analyzer.py, unordered-iteration).
  const auto cache_truth_table = [&]() {
    ValueTable table(data.num_objects(), data.num_properties());
    for (size_t i = 0; i < data.num_objects(); ++i) {
      for (uint64_t m = 0; m < m_props; ++m) {
        const auto it = cache.truths.find(static_cast<uint64_t>(i) * m_props + m);
        if (it != cache.truths.end()) {
          table.Set(i, static_cast<size_t>(m), it->second);
        }
      }
    }
    return table;
  };

  // --- Wrapper: iterate truth + weight jobs until the weights settle.
  ValueTable prev_truth_table;  // observer-only: the previous iteration's truths
  bool have_prev_truths = false;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    CRH_RETURN_NOT_OK(run_truth_job());
    // Descent certificates. The truth job minimized the weighted loss at the
    // pre-update weights (still in cache.weights here), so its certificate
    // compares the previous and new truth tables at those weights; the first
    // iteration has no previous truths and emits none. The weight job's
    // certificate is evaluated on the aggregated deviations it minimized,
    // recomputed serially — observer-only cost, like the truth table.
    ValueTable truth_table;
    double truth_step_before = std::numeric_limits<double>::quiet_NaN();
    double truth_step_after = std::numeric_limits<double>::quiet_NaN();
    double weight_step_before = std::numeric_limits<double>::quiet_NaN();
    double weight_step_after = std::numeric_limits<double>::quiet_NaN();
    std::vector<double> cert_totals;
    if (observer != nullptr) {
      truth_table = cache_truth_table();
      if (have_prev_truths) {
        truth_step_before =
            CrhObjective(data, prev_truth_table, cache.weights, observer_stats, options.base);
        truth_step_after =
            CrhObjective(data, truth_table, cache.weights, observer_stats, options.base);
      }
      cert_totals = ComputeSourceDeviations(data, truth_table, observer_stats, options.base);
      weight_step_before =
          WeightStepObjective(cache.weights, cert_totals, options.base.weight_scheme);
    }
    auto weights = run_weight_job();
    if (!weights.ok()) return weights.status();
    CRH_VERIFY_OR_RETURN(weights->size() == k_sources,
                         "weight job returned a wrong-sized weight vector");
    double max_change = 0.0;
    for (size_t k = 0; k < k_sources; ++k) {
      max_change = std::max(max_change, std::abs((*weights)[k] - cache.weights[k]));
    }
    cache.weights = std::move(*weights);
    result.iterations = iter + 1;
    if (observer != nullptr) {
      weight_step_after =
          WeightStepObjective(cache.weights, cert_totals, options.base.weight_scheme);
      IterationSnapshot snapshot;
      snapshot.engine = "parallel";
      snapshot.iteration = iter + 1;
      snapshot.data = &data;
      snapshot.truths = &truth_table;
      snapshot.weights = &cache.weights;
      snapshot.weight_scheme = &options.base.weight_scheme;
      // The MapReduce formulation has no supervision clamping, so the
      // domain check runs unsupervised.
      snapshot.objective =
          CrhObjective(data, truth_table, cache.weights, observer_stats, options.base);
      snapshot.weight_step_before = weight_step_before;
      snapshot.weight_step_after = weight_step_after;
      snapshot.truth_step_before = truth_step_before;
      snapshot.truth_step_after = truth_step_after;
      CRH_RETURN_NOT_OK(observer->OnIteration(snapshot));
      prev_truth_table = std::move(truth_table);
      have_prev_truths = true;
    }
    if (max_change < options.convergence_tolerance) {
      result.converged = true;
      break;
    }
  }
  // Final truth job so the reported truths reflect the final weights.
  CRH_RETURN_NOT_OK(run_truth_job());

  result.truths = cache_truth_table();
  result.source_weights = cache.weights;
  result.wall_seconds = watch.ElapsedSeconds();
  result.simulated_cluster_seconds = options.cost_model.job_setup_seconds;
  for (const JobStats& stats : result.job_stats) {
    result.simulated_cluster_seconds += options.cost_model.EstimatePassSeconds(
        static_cast<double>(stats.input_records), options.mr.num_reducers);
  }
  return result;
}

}  // namespace crh
