#ifndef CRH_LOSSES_LOSS_H_
#define CRH_LOSSES_LOSS_H_

/// \file loss.h
/// Per-claim losses d_m(truth, observation) for heterogeneous data types.
///
/// The CRH objective (Eq 1) sums, per source, per-entry losses between the
/// current truth estimate and that source's claim. The loss is the hook by
/// which each data type's notion of "closeness" enters the framework. Each
/// one is defined once here and read by both the serial solver's loss
/// kernels (core/crh.cc) and the MapReduce weight map
/// (mapreduce/parallel_crh.cc):
///
///  * ZeroOneLoss            — Eq (8), categorical hard loss.
///  * NormalizedSquaredLoss  — Eq (13), continuous, squared deviation over
///    the entry's claim dispersion (std across sources).
///  * NormalizedAbsoluteLoss — Eq (15), continuous, absolute deviation over
///    dispersion; robust to outliers.
///  * ProbVectorSquaredLoss  — Eq (11), the soft categorical loss against a
///    truth distribution.
///
/// The text loss, normalized edit distance, is in losses/text_distance.h.
/// \p scale is the entry's normalization factor (see data/stats.h).

#include <cmath>
#include <cstddef>

#include "common/value.h"

namespace crh {

/// Eq (8): 1 if the claimed label differs from the truth, else 0.
inline double ZeroOneLoss(CategoryId truth, CategoryId obs) { return truth == obs ? 0.0 : 1.0; }

/// Eq (13): (v* - v^k)^2 / std of claims on the entry.
inline double NormalizedSquaredLoss(double truth, double obs, double scale) {
  const double diff = truth - obs;
  return diff * diff / scale;
}

/// Eq (15): |v* - v^k| / std of claims on the entry.
inline double NormalizedAbsoluteLoss(double truth, double obs, double scale) {
  return std::abs(truth - obs) / scale;
}

/// Eq (11): squared Euclidean distance between the truth probability vector
/// I* stored at truth_dist[0 .. num_labels) and the one-hot claim vector of
/// label \p obs:
///
///   ||I* - e_obs||^2 = ||I*||^2 - 2 * I*[obs] + 1.
///
/// Per-claim callers point straight into a property's soft block instead of
/// copying the entry's row. \p obs must be a valid CategoryId in
/// [0, num_labels).
double ProbVectorSquaredLoss(const double* truth_dist, size_t num_labels, CategoryId obs);

}  // namespace crh

#endif  // CRH_LOSSES_LOSS_H_
