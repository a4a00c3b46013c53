#include <vector>

#include "baselines/baselines.h"
#include "losses/resolvers.h"

namespace crh {

namespace {

/// Applies an unweighted per-entry aggregate to one property type. The
/// aggregate gets the entry's claims in ascending source order as the
/// unboxed lane of their type (numeric values, or CategoryIds) with unit
/// weights and resolver scratch, so it can call the solver's span kernels.
template <typename Aggregate>
ResolverOutput AggregateByType(const Dataset& data, PropertyType type, Aggregate aggregate) {
  ResolverOutput out;
  out.truths = ValueTable(data.num_objects(), data.num_properties());
  out.source_scores.assign(data.num_sources(), 1.0);
  const size_t k_sources = data.num_sources();
  const std::vector<double> ones(k_sources, 1.0);
  std::vector<double> numeric(k_sources);
  std::vector<CategoryId> labels(k_sources);
  ResolverScratch scratch;
  scratch.Reserve(k_sources);
  for (size_t m = 0; m < data.num_properties(); ++m) {
    if (data.schema().property(m).type != type) continue;
    for (size_t i = 0; i < data.num_objects(); ++i) {
      size_t n = 0;
      for (size_t k = 0; k < k_sources; ++k) {
        const Value& v = data.observations(k).Get(i, m);
        if (v.is_missing()) continue;
        if (v.is_continuous()) {
          numeric[n++] = v.continuous();
        } else {
          labels[n++] = v.category();
        }
      }
      if (n > 0) {
        out.truths.Set(i, m, aggregate(numeric.data(), labels.data(), ones.data(), n, scratch));
      }
    }
  }
  return out;
}

}  // namespace

Result<ResolverOutput> MeanResolver::Run(const Dataset& data) const {
  return AggregateByType(data, PropertyType::kContinuous,
                         [](const double* values, const CategoryId*, const double* ones,
                            size_t n, ResolverScratch&) {
                           return Value::Continuous(WeightedMeanSpan(values, ones, n));
                         });
}

Result<ResolverOutput> MedianResolver::Run(const Dataset& data) const {
  // Null weights: the uniform median.
  return AggregateByType(data, PropertyType::kContinuous,
                         [](const double* values, const CategoryId*, const double*, size_t n,
                            ResolverScratch& scratch) {
                           return Value::Continuous(
                               WeightedMedianSpan(values, nullptr, n, scratch));
                         });
}

Result<ResolverOutput> VotingResolver::Run(const Dataset& data) const {
  return AggregateByType(data, PropertyType::kCategorical,
                         [](const double*, const CategoryId* labels, const double* ones,
                            size_t n, ResolverScratch& scratch) {
                           return Value::Categorical(
                               WeightedVoteLabelsSpan(labels, ones, n, scratch));
                         });
}

std::vector<std::unique_ptr<ConflictResolver>> MakeAllBaselines() {
  std::vector<std::unique_ptr<ConflictResolver>> out;
  out.push_back(std::make_unique<MeanResolver>());
  out.push_back(std::make_unique<MedianResolver>());
  out.push_back(std::make_unique<GtmResolver>());
  out.push_back(std::make_unique<VotingResolver>());
  out.push_back(std::make_unique<InvestmentResolver>());
  out.push_back(std::make_unique<PooledInvestmentResolver>());
  out.push_back(std::make_unique<TwoEstimatesResolver>());
  out.push_back(std::make_unique<ThreeEstimatesResolver>());
  out.push_back(std::make_unique<TruthFinderResolver>());
  out.push_back(std::make_unique<AccuSimResolver>());
  return out;
}

}  // namespace crh
