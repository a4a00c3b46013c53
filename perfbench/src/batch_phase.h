#ifndef PERFBENCH_BATCH_PHASE_H_
#define PERFBENCH_BATCH_PHASE_H_

/// \file batch_phase.h
/// The offline half of a workload: RunCrh and RunParallelCrh over the
/// universe claims loaded from the CSV, with fixed work per solve.

#include <vector>

#include "common/status.h"
#include "core/crh.h"
#include "data/dataset.h"
#include "mapreduce/parallel_crh.h"
#include "report.h"
#include "workload.h"

namespace perfbench {

/// Solver options of every timed solve: a fixed iteration budget and a
/// convergence tolerance of 0, so each solve does the same work.
crh::CrhOptions BatchCrhOptions(const WorkloadSpec& spec);
crh::ParallelCrhOptions BatchParallelOptions(const WorkloadSpec& spec);

/// Times both solvers, spread over the run in steps after one warm-up
/// solve each, then checks that they agree and scores RunCrh against the
/// ground truth attached to `universe`.
class BatchRun {
 public:
  BatchRun(const WorkloadSpec& spec, const crh::Dataset& universe, Report* report);

  [[nodiscard]] crh::Status WarmUp();
  /// One RunCrh solve, plus a RunParallelCrh solve every second step.
  [[nodiscard]] crh::Status Step();
  void Finish();

 private:
  [[nodiscard]] crh::Status SolveCrh(bool timed);
  [[nodiscard]] crh::Status SolveMapReduce(bool timed);

  const WorkloadSpec& spec_;
  const crh::Dataset& universe_;
  Report* report_;
  std::vector<double> crh_s_;
  std::vector<double> mapreduce_s_;
  int steps_ = 0;
  crh::Result<crh::CrhResult> crh_ = crh::Status::Internal("not run");
  crh::Result<crh::ParallelCrhResult> mapreduce_ = crh::Status::Internal("not run");
};

}  // namespace perfbench

#endif  // PERFBENCH_BATCH_PHASE_H_
