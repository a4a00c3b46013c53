#ifndef CRH_DATA_STATS_H_
#define CRH_DATA_STATS_H_

/// \file stats.h
/// Per-entry dispersion statistics across sources.
///
/// The paper's continuous loss functions (Eq 13 and Eq 15) and the MNAD
/// metric normalize each entry's deviation by the standard deviation of
/// the K sources' claims on that entry, so that properties measured on
/// different scales (temperatures vs trading volumes) contribute
/// comparably to the weight update (Section 2.5, "Normalization").

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/check.h"
#include "data/dataset.h"

namespace crh {

/// Per-entry normalization scales, row-major over (object, property).
struct EntryStats {
  size_t num_properties = 0;
  /// scale[i*M + m] is the standard deviation of the non-missing claims on
  /// entry (i, m) for continuous properties. Entries with no dispersion of
  /// their own (fewer than two claims, or all sources agreeing) fall back
  /// to the property's mean claim dispersion — otherwise a lone glitched
  /// claim would be charged in raw units and dominate every aggregate.
  /// Categorical entries get scale 1.
  std::vector<double> scale;
  /// count[i*M + m] is the number of sources with a claim on entry (i, m).
  std::vector<int> count;

  double scale_at(size_t i, size_t m) const {
    CRH_DCHECK_LT(i * num_properties + m, scale.size());
    return scale[i * num_properties + m];
  }
  int count_at(size_t i, size_t m) const {
    CRH_DCHECK_LT(i * num_properties + m, count.size());
    return count[i * num_properties + m];
  }
};

/// Population standard deviation of \p count claims from their sum and sum
/// of squares: the paper's std(v^1..v^K) over one entry's claims. 0 when
/// there are fewer than two claims (no dispersion available). Shared by
/// ComputeEntryStats and the MapReduce statistics reducer.
inline double ClaimDispersion(size_t count, double sum, double sum_sq) {
  if (count < 2) return 0.0;
  const double mean = sum / static_cast<double>(count);
  double var = sum_sq / static_cast<double>(count) - mean * mean;
  if (var < 0) var = 0;  // numerical guard
  return std::sqrt(var);
}

/// Computes per-entry scales and observation counts for a dataset.
EntryStats ComputeEntryStats(const Dataset& data);

}  // namespace crh

#endif  // CRH_DATA_STATS_H_
