#ifndef CRH_MAPREDUCE_PARALLEL_CRH_H_
#define CRH_MAPREDUCE_PARALLEL_CRH_H_

/// \file parallel_crh.h
/// Parallel CRH under the MapReduce model (Section 2.7 of the paper).
///
/// The input is the claim-tuple stream (eID, v, sID). Each iteration runs
/// two jobs:
///
///  * Truth job — map groups claims by entry; reduce computes each entry's
///    truth (Eq 3) reading the shared source-weight "file" (distributed
///    cache).
///  * Weight job — map emits each claim's partial error against the shared
///    truths; a Combiner pre-sums errors mapper-side; reduce aggregates per
///    source, and the wrapper turns normalized errors into weights (Eq 5).
///
/// A one-off statistics job computes the per-entry claim dispersion that
/// the continuous losses normalize by. The wrapper iterates to convergence
/// (Section 2.7.4). The reducers, the weight map and the wrapper run the
/// serial solver's own steps (ResolveHardTruth, the losses/loss.h losses,
/// NormalizeLossMatrix, ClaimDispersion). With the same options and a
/// fixed iteration budget the weights agree with serial RunCrh's within
/// 1e-12: the weight job's combiner sums claim losses per map split, so
/// with more than one split the last bits may differ. The median and the
/// vote select a claim, so those truths are exactly equal; the weighted
/// mean carries the weights' last bits into its truths. Supervision,
/// per-type or per-property weights and the soft categorical model are
/// rejected with NotImplemented.

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/crh.h"
#include "data/dataset.h"
#include "mapreduce/cost_model.h"
#include "mapreduce/engine.h"

namespace crh {

/// One claim of the tuple stream: entry_id = object * M + property.
struct ObservationTuple {
  uint64_t entry_id = 0;
  uint32_t source_id = 0;
  Value value;
};

/// Flattens a dataset into the (eID, v, sID) tuple stream.
std::vector<ObservationTuple> DatasetToTuples(const Dataset& data);

/// Configuration for RunParallelCrh.
struct ParallelCrhOptions {
  /// Loss models, weight scheme and normalizations. The soft categorical
  /// model, supervision and non-global weight granularity are not supported
  /// in the MapReduce formulation.
  CrhOptions base;
  /// Engine configuration (mappers, reducers, threads).
  MapReduceConfig mr;
  /// Iteration cap for the wrapper.
  int max_iterations = 20;
  /// Stop when the max source-weight change falls below this.
  double convergence_tolerance = 1e-9;
  /// Cost model used to report simulated cluster seconds.
  ClusterCostModel cost_model;
};

/// Output of RunParallelCrh.
struct ParallelCrhResult {
  ValueTable truths;
  std::vector<double> source_weights;
  int iterations = 0;
  bool converged = false;
  /// Stats of every executed job, in execution order.
  std::vector<JobStats> job_stats;
  /// Measured wall-clock of the whole fusion on this machine.
  double wall_seconds = 0.0;
  /// Simulated cluster time under the calibrated cost model: job setup +
  /// one pass estimate per executed job.
  double simulated_cluster_seconds = 0.0;
};

/// Runs the MapReduce formulation of CRH over the dataset.
[[nodiscard]] Result<ParallelCrhResult> RunParallelCrh(const Dataset& data,
                                                       const ParallelCrhOptions& options = {});

}  // namespace crh

#endif  // CRH_MAPREDUCE_PARALLEL_CRH_H_
