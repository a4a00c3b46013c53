#include "batch_phase.h"

#include <cmath>
#include <cstdio>

#include "eval/metrics.h"

namespace perfbench {

crh::CrhOptions BatchCrhOptions(const WorkloadSpec& spec) {
  crh::CrhOptions options;
  options.max_iterations = spec.batch_iterations;
  options.convergence_tolerance = 0.0;
  options.num_threads = 1;
  return options;
}

crh::ParallelCrhOptions BatchParallelOptions(const WorkloadSpec& spec) {
  crh::ParallelCrhOptions options;
  options.base = BatchCrhOptions(spec);
  options.max_iterations = spec.batch_iterations;
  options.convergence_tolerance = 0.0;
  options.mr.num_threads = 1;
  return options;
}

BatchRun::BatchRun(const WorkloadSpec& spec, const crh::Dataset& universe, Report* report)
    : spec_(spec), universe_(universe), report_(report) {}

crh::Status BatchRun::SolveCrh(bool timed) {
  const double t0 = Now();
  crh_ = crh::RunCrh(universe_, BatchCrhOptions(spec_));
  const double t1 = Now();
  ++report_->attempted;
  if (!crh_.ok()) return crh_.status();
  if (timed) crh_s_.push_back(t1 - t0);
  return crh::Status::OK();
}

crh::Status BatchRun::SolveMapReduce(bool timed) {
  const double t0 = Now();
  mapreduce_ = crh::RunParallelCrh(universe_, BatchParallelOptions(spec_));
  const double t1 = Now();
  ++report_->attempted;
  if (!mapreduce_.ok()) return mapreduce_.status();
  if (timed) mapreduce_s_.push_back(t1 - t0);
  return crh::Status::OK();
}

// The first solve of each kind runs measurably slower, so it is not timed.
crh::Status BatchRun::WarmUp() {
  CRH_RETURN_NOT_OK(SolveCrh(/*timed=*/false));
  return SolveMapReduce(/*timed=*/false);
}

crh::Status BatchRun::Step() {
  CRH_RETURN_NOT_OK(SolveCrh(/*timed=*/true));
  if (steps_++ % 2 == 0) return SolveMapReduce(/*timed=*/true);
  return crh::Status::OK();
}

void BatchRun::Finish() {
  if (!crh_.ok() || !mapreduce_.ok()) {
    report_->Failure("batch solves did not complete");
    report_->correct = false;
    return;
  }
  // Both formulations must agree: truths exactly, weights within 1e-12.
  if (crh_->iterations != spec_.batch_iterations ||
      mapreduce_->iterations != spec_.batch_iterations) {
    report_->Mismatch("a solver did not run the fixed iteration budget");
  }
  size_t truth_diffs = 0;
  for (size_t i = 0; i < universe_.num_objects(); ++i) {
    for (size_t m = 0; m < universe_.num_properties(); ++m) {
      if (!(crh_->truths.Get(i, m) == mapreduce_->truths.Get(i, m))) ++truth_diffs;
    }
  }
  size_t weight_diffs = 0;
  for (size_t k = 0; k < universe_.num_sources(); ++k) {
    if (!(std::abs(crh_->source_weights[k] - mapreduce_->source_weights[k]) <= 1e-12)) {
      ++weight_diffs;
    }
  }
  std::printf("check RunParallelCrh vs RunCrh: %zu truth entries differ, %zu weights off "
              "by more than 1e-12\n",
              truth_diffs, weight_diffs);
  if (truth_diffs > 0 || weight_diffs > 0) report_->Mismatch("RunParallelCrh vs RunCrh");

  auto scored = crh::Evaluate(universe_, crh_->truths);
  ++report_->attempted;
  if (!scored.ok()) {
    report_->Failure("Evaluate: " + scored.status().ToString());
    report_->correct = false;
    return;
  }
  const double claims = static_cast<double>(universe_.num_observations());
  std::printf("batch solves (%d iterations, tolerance 0, %.0f claims):\n",
              spec_.batch_iterations, claims);
  PrintSamples("RunCrh solves (s)", crh_s_);
  PrintSamples("RunParallelCrh solves (s)", mapreduce_s_);
  std::printf("end-to-end (batch):\n");
  report_->EndToEnd("batch_claims_per_s", claims / Median(crh_s_), "claims/s");
  report_->EndToEnd("error_rate", scored->error_rate, "ratio");
  report_->EndToEnd("mnad", scored->mnad, "ratio");
  // Too unsteady on a shared host to gate (its spread over ten runs reached
  // the largest bound), so it is a per-layer figure of the end-to-end run.
  std::printf("per-layer (batch, from the end-to-end run):\n");
  report_->Layer("mapreduce.claims_per_s", claims / Median(mapreduce_s_), "claims/s");
}

}  // namespace perfbench
