#ifndef PERFBENCH_SERVE_PHASE_H_
#define PERFBENCH_SERVE_PHASE_H_

/// \file serve_phase.h
/// The end-to-end serving measurement: cold starts, the workload's ingest
/// and query traffic against a live crh_serve, output checks against an
/// in-process reference, and kill/resume recovery cycles.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "report.h"
#include "stream/incremental_crh.h"
#include "workload.h"

namespace perfbench {

enum class QueryKind { kTruth = 0, kSource = 1, kWeights = 2 };
inline constexpr const char* kQueryKindNames[] = {"truth", "source", "weights"};

struct QueryRequest {
  QueryKind kind;
  std::string line;
};

/// A reader's request sequence: 60% truth, 30% source, 10% weights, with
/// objects and sources drawn NURand-skewed and properties uniformly.
std::vector<QueryRequest> MakeQueryRequests(const crh::Dataset& universe, uint64_t seed,
                                            size_t count);

/// The solver options crh_serve runs with under the flags the benchmark
/// pins (window 1, decay 0.5, one thread, default truth mode); every
/// in-process reference and replay uses them.
crh::IncrementalCrhOptions ServedSolverOptions();

/// The chunk a round sends as `seq`: rounds take consecutive slices of the
/// stream, so each object is sent once per pass over it.
inline const std::string& RoundPayload(const WorkloadData& data, uint64_t chunks_per_round,
                                       int round, uint64_t seq) {
  return data.payloads[(static_cast<uint64_t>(round) * chunks_per_round + seq) %
                       data.payloads.size()];
}

/// What the serve phase hands to the traced replay.
struct ServeOutcome {
  int rounds = 0;
  /// Each round's daemon applied seq 0 .. chunks_per_round - 1 in its
  /// timed stream, then one more chunk per recovery cycle.
  uint64_t chunks_per_round = 0;
  /// Median ack and visible latency, for the traced run's attribution.
  double ack_p50_ms = 0.0;
  double visible_p50_ms = 0.0;
};

struct ServeSettings {
  std::string binary;         ///< crh_serve executable
  std::string schema_spec;
  std::string universe_path;  ///< relative to the work directory
  double seconds = 10.0;
  uint64_t seed = 0;
};

/// The serving half of a workload, measured in rounds so that every metric
/// samples the whole run rather than one stretch of it. Each round is one
/// identical daemon lifecycle: cold start, its slice of the stream under
/// the workload's query traffic, kill/resume cycles, a graceful drain.
/// The last round also compares every answer the workload checks with an
/// in-process reference.
class ServeRun {
 public:
  ServeRun(const WorkloadSpec& spec, const WorkloadData& data, const crh::Dataset& universe,
           const ServeSettings& settings, Report* report);
  ~ServeRun();
  ServeRun(const ServeRun&) = delete;
  ServeRun& operator=(const ServeRun&) = delete;

  /// One round; `round` selects its slice of the stream. `interlude` runs
  /// between the round's phases, while no traffic is in flight (main.cc
  /// spreads the batch solves over the run this way).
  [[nodiscard]] crh::Status Round(int round, const std::function<crh::Status()>& interlude);
  /// Adds the end-to-end metrics (and the e2e-run per-layer counts) to
  /// the report.
  ServeOutcome Finish();

 private:
  struct State;
  std::unique_ptr<State> state_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_PHASE_H_
