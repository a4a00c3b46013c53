#include "losses/resolvers.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace crh {

namespace {

/// The Eq-16 ordering: sorts \p order (a 0..n-1 permutation) by ascending
/// value. Ties feed the group weight sums, so the tie permutation is
/// load-bearing for bit-identity. Small spans — the common case at low
/// density — use a stable insertion sort, skipping std::sort's dispatch
/// overhead; larger ones fall through to std::sort, whose final insertion
/// pass makes it equivalent for n <= 16 anyway.
CRH_HOT inline void SortOrderByValue(size_t* order, size_t n, const double* values) {
  constexpr size_t kInsertionThreshold = 32;
  if (n <= kInsertionThreshold) {
    for (size_t i = 1; i < n; ++i) {
      const size_t key = order[i];
      const double v = values[key];
      size_t j = i;
      while (j > 0 && v < values[order[j - 1]]) {
        order[j] = order[j - 1];
        --j;
      }
      order[j] = key;
    }
    return;
  }
  std::sort(order, order + n, [&](size_t a, size_t b) { return values[a] < values[b]; });
}

}  // namespace

CRH_HOT CategoryId WeightedVoteLabelsSpan(const CategoryId* labels, const double* weights,
                                          size_t n, ResolverScratch& scratch) {
  CRH_DCHECK_GE(scratch.capacity, n);
  CategoryId* candidates = scratch.labels;
  double* tally = scratch.tally;
  size_t num_candidates = 0;
  for (size_t k = 0; k < n; ++k) {
    size_t c = 0;
    while (c < num_candidates && candidates[c] != labels[k]) ++c;
    if (c == num_candidates) {
      candidates[num_candidates] = labels[k];
      tally[num_candidates] = 0.0;
      ++num_candidates;
    }
    tally[c] += weights[k];
  }
  if (num_candidates == 0) return kInvalidCategory;
  CategoryId best = kInvalidCategory;
  double best_weight = -std::numeric_limits<double>::infinity();
  for (size_t c = 0; c < num_candidates; ++c) {
    if (tally[c] > best_weight ||
        (tally[c] == best_weight && candidates[c] < best)) {
      best = candidates[c];
      best_weight = tally[c];
    }
  }
  return best;
}

CRH_HOT double WeightedMeanSpan(const double* values, const double* weights, size_t n) {
  double total = 0.0, total_weight = 0.0;
  for (size_t k = 0; k < n; ++k) {
    total += weights[k] * values[k];
    total_weight += weights[k];
  }
  if (total_weight <= 0.0) return std::numeric_limits<double>::quiet_NaN();
  return total / total_weight;
}

CRH_HOT double WeightedMedianSpan(const double* values, const double* weights, size_t n,
                                  ResolverScratch& scratch) {
  if (n == 0) return std::numeric_limits<double>::quiet_NaN();
  CRH_DCHECK_GE(scratch.capacity, n);
  // Non-positive weights are dropped at use; a weight total of zero (or a
  // null weights pointer) selects the uniform fallback.
  double total = 0.0;
  if (weights != nullptr) {
    for (size_t k = 0; k < n; ++k) total += std::max(weights[k], 0.0);
  }
  bool uniform = false;
  if (weights == nullptr || total <= 0.0) {
    uniform = true;
    total = static_cast<double>(n);
  }

  size_t* order = scratch.order;
  for (size_t k = 0; k < n; ++k) order[k] = k;
  SortOrderByValue(order, n, values);

  // Walk the sorted claims grouped by equal value; pick the first group
  // whose strictly-below weight is < total/2 and strictly-above weight is
  // <= total/2 (Eq 16).
  const double half = total / 2.0;
  double below = 0.0;
  size_t pos = 0;
  while (pos < n) {
    const double v = values[order[pos]];
    double group = 0.0;
    size_t end = pos;
    while (end < n && values[order[end]] == v) {
      group += uniform ? 1.0 : std::max(weights[order[end]], 0.0);
      ++end;
    }
    const double above = total - below - group;
    if (below < half && above <= half) return v;
    below += group;
    pos = end;
  }
  // Numerically unreachable, but return the largest claim as a safe answer.
  return values[order[n - 1]];
}

CRH_HOT void WeightedLabelDistributionSpan(const CategoryId* labels, const double* weights,
                                           size_t n, double* dist, size_t num_labels) {
  std::fill(dist, dist + num_labels, 0.0);
  double total = 0.0;
  for (size_t k = 0; k < n; ++k) {
    dist[static_cast<size_t>(labels[k])] += weights[k];
    total += weights[k];
  }
  if (total <= 0.0) {
    // Zero total weight: every claim is equally credible. The uniform
    // fallback covers only the *claimed* labels — spreading mass over the
    // whole dictionary would let the mode land on a label no source ever
    // claimed, violating the Eq-3 domain invariant.
    for (size_t k = 0; k < n; ++k) dist[static_cast<size_t>(labels[k])] = 1.0;
    double claimed = 0.0;
    for (size_t i = 0; i < num_labels; ++i) claimed += dist[i];
    if (claimed > 0.0) {
      for (size_t i = 0; i < num_labels; ++i) dist[i] /= claimed;
    }
    return;
  }
  for (size_t i = 0; i < num_labels; ++i) dist[i] /= total;
}

CRH_HOT size_t ArgMaxSpan(const double* xs, size_t n) {
  size_t best = 0;
  for (size_t i = 1; i < n; ++i) {
    if (xs[i] > xs[best]) best = i;
  }
  return best;
}

}  // namespace crh
