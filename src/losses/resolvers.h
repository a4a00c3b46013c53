#ifndef CRH_LOSSES_RESOLVERS_H_
#define CRH_LOSSES_RESOLVERS_H_

/// \file resolvers.h
/// Per-entry truth computation primitives (Section 2.4 of the paper).
///
/// Each loss function induces a closed-form (or efficiently computable)
/// minimizer for the truth-update step (Eq 3):
///
///  * 0-1 loss            -> weighted vote        (Eq 9)
///  * prob-vector sq loss -> weighted distribution (Eq 12), truth = argmax
///  * normalized squared  -> weighted mean        (Eq 14)
///  * normalized absolute -> weighted median      (Eq 16)
///  * text edit distance  -> weighted medoid
///
/// These are the only implementations: the serial solver's truth kernel
/// (core/crh.h, ResolveHardTruth), the MapReduce truth reducer, the simple
/// baselines and the benches all call them. They are CRH_HOT and
/// allocation-free: they read raw claim spans (the unboxed lanes of
/// data/claim_index.h, or a caller's gather into the same shape), write
/// results through caller-owned buffers, and size nothing themselves.
/// Callers pass only the non-missing claims on an entry. Tie-breaking is
/// deterministic (smallest value / label id, or first claim for the medoid)
/// so runs are reproducible; results depend on the claim order only
/// through floating-point association, so callers that must agree bitwise
/// pass claims in the same (ascending source) order.

#include <cstddef>
#include <limits>

#include "common/arena.h"
#include "common/check.h"
#include "common/hot.h"
#include "common/value.h"

namespace crh {

/// Caller-owned scratch for the span resolvers, carved out of a bump arena
/// (common/arena.h). One instance serves one thread. Two sizing modes:
/// standalone callers Reserve() against the scratch's own arena; the solver
/// embeds it in a larger workspace and CarveFrom()s a shared arena, so the
/// whole workspace is one allocation. Size to the largest claim count an
/// entry can have (ClaimIndex::max_span_size(), at most the source count).
struct ResolverScratch {
  /// Standalone sizing: one allocation into the owned arena. Cold path.
  void Reserve(size_t max_claims) {
    owned_.Reserve(BytesNeeded(max_claims));
    CarveFrom(owned_, max_claims);
  }

  /// Carves the buffers from \p arena (which must have BytesNeeded(
  /// max_claims) headroom reserved). Cold path; pointers are invalidated by
  /// the arena's next Reserve/Reset.
  void CarveFrom(Arena& arena, size_t max_claims) {
    labels = arena.Carve<CategoryId>(max_claims);
    tally = arena.Carve<double>(max_claims);
    order = arena.Carve<size_t>(max_claims);
    capacity = max_claims;
  }

  /// Worst-case arena bytes CarveFrom(_, max_claims) consumes.
  static constexpr size_t BytesNeeded(size_t max_claims) {
    return Arena::BytesFor<CategoryId>(max_claims) + Arena::BytesFor<double>(max_claims) +
           Arena::BytesFor<size_t>(max_claims);
  }

  CategoryId* labels = nullptr;  // vote candidates / medoid distinct labels
  double* tally = nullptr;       // vote tallies / medoid masses
  size_t* order = nullptr;       // median sort permutation
  size_t capacity = 0;           // claim capacity of each buffer above

 private:
  Arena owned_;  // backs the buffers only in Reserve() mode
};

/// Eq (9): the label with the largest total weight among the first \p n
/// claims (candidates scanned in first-claim order). Ties break toward the
/// smallest CategoryId. Returns kInvalidCategory when n == 0.
/// Precondition: scratch.Reserve(n).
CRH_HOT CategoryId WeightedVoteLabelsSpan(const CategoryId* labels, const double* weights,
                                          size_t n, ResolverScratch& scratch);

/// Eq (14): weighted arithmetic mean of the claims, summed left to right.
/// Returns NaN when the total weight is zero (callers fall back to the
/// unweighted median).
CRH_HOT double WeightedMeanSpan(const double* values, const double* weights, size_t n);

/// Eq (16): weighted median. Given claims v^k with weights w_k, returns the
/// claim v^j such that the total weight strictly below it is < W/2 and the
/// total weight strictly above it is <= W/2, where W is the total weight.
/// With uniform weights this is the classical (lower) median. Claims with
/// non-positive weight are ignored; if all weights are non-positive, or
/// \p weights is null, the unweighted median is returned. NaN on n == 0.
/// Sort-based: O(n log n) over at most K claims. Precondition:
/// scratch.Reserve(n).
CRH_HOT double WeightedMedianSpan(const double* values, const double* weights, size_t n,
                                  ResolverScratch& scratch);

/// Eq (12): the weighted mean of one-hot claim vectors, i.e. the truth
/// probability distribution over the \p num_labels labels of a categorical
/// property, written into dist[0 .. num_labels) (zeroed first). It sums to 1
/// when any claims are given (uniform over the claimed labels when the
/// total weight is zero, so the mode always stays in the observed
/// candidate set).
CRH_HOT void WeightedLabelDistributionSpan(const CategoryId* labels, const double* weights,
                                           size_t n, double* dist, size_t num_labels);

/// Index of the largest of xs[0 .. n), smallest index on ties.
CRH_HOT size_t ArgMaxSpan(const double* xs, size_t n);

/// Weighted medoid: the claimed label minimizing the weighted total
/// distance to all claims — the truth update induced by an arbitrary
/// metric loss (text properties with edit distance). Duplicate claims are
/// grouped so distances are evaluated once per distinct pair; ties break
/// toward the first-claimed label. The distance is keyed by id pairs and
/// is a template parameter (no std::function type erasure on the hot
/// path). Returns kInvalidCategory on no claims. Precondition:
/// scratch.Reserve(n).
template <typename DistanceFn>
CRH_HOT CategoryId WeightedMedoidLabelsSpan(const CategoryId* labels, const double* weights,
                                            size_t n, ResolverScratch& scratch,
                                            const DistanceFn& dist_fn) {
  CRH_DCHECK_GE(scratch.capacity, n);
  CategoryId* distinct = scratch.labels;
  double* mass = scratch.tally;
  size_t num_distinct = 0;
  for (size_t k = 0; k < n; ++k) {
    bool found = false;
    for (size_t d = 0; d < num_distinct; ++d) {
      if (distinct[d] == labels[k]) {
        mass[d] += weights[k];
        found = true;
        break;
      }
    }
    if (!found) {
      distinct[num_distinct] = labels[k];
      mass[num_distinct] = weights[k];
      ++num_distinct;
    }
  }
  if (num_distinct == 0) return kInvalidCategory;

  CategoryId best = distinct[0];
  double best_cost = std::numeric_limits<double>::infinity();
  for (size_t c = 0; c < num_distinct; ++c) {
    double cost = 0.0;
    for (size_t d = 0; d < num_distinct; ++d) {
      if (d != c) cost += mass[d] * dist_fn(distinct[c], distinct[d]);
    }
    if (cost < best_cost) {
      best_cost = cost;
      best = distinct[c];
    }
  }
  return best;
}

}  // namespace crh

#endif  // CRH_LOSSES_RESOLVERS_H_
