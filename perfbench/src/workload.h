#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

/// \file workload.h
/// The benchmark's workloads: their fixed shapes and traffic settings, and
/// the seeded generator of their inputs (the universe claim CSV the daemon
/// loads, the chunk payloads it ingests, and the ground truth the batch
/// solve is scored against).

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

/// Sources of every universe: the paper's eight gammas tiled four times,
/// source k keeping a claim with probability proportional to 1/(k+1) at a
/// mean density of kDensity.
inline constexpr size_t kSources = 32;
inline constexpr double kDensity = 0.10;
/// Kill/resume cycles per round; each applies one more chunk.
inline constexpr int kRecoveriesPerRound = 2;

/// Everything that defines one workload. Sizes and rates are fixed here so
/// the `--workload` name alone selects them.
struct WorkloadSpec {
  std::string name;
  /// Adult-schema objects of the universe.
  size_t objects = 0;
  /// Chunks the universe is cut into; each object sits in exactly one.
  size_t chunks = 0;
  // -- Ingest traffic.
  /// Chunks per run: chunk_rate x seconds, whatever the daemon's speed,
  /// split evenly over the rounds (at 10 s, one pass of the stream each).
  double chunk_rate = 0.0;
  /// > 0: closed loop keeping this many chunks sent but not yet applied;
  /// 0: open loop sending feed_rate chunks per second (looping the stream).
  int in_flight = 0;
  double feed_rate = 0.0;
  /// `status` poll interval while a chunk is in flight, far below the
  /// visible latency it resolves.
  double poll_interval_ms = 0.0;
  // -- Query traffic.
  /// Unpaced readers running for as long as each round's stream.
  int readers = 0;
  // -- Repeats. Every measurement is spread over `rounds` rounds.
  int rounds = 0;
  int cold_starts_per_round = 0;
  /// Truth entries compared against the in-process reference; 0 = all.
  size_t check_sample = 0;
  /// Iteration budget of every batch solve (tolerance 0: fixed work).
  int batch_iterations = 0;
  int trace_queries = 0;
};

/// The named workload, or InvalidArgument.
crh::Result<WorkloadSpec> GetWorkload(const std::string& name);

/// The generated inputs of one run.
struct WorkloadData {
  /// crh_serve --schema value for the Adult schema.
  std::string schema_spec;
  /// Universe claim CSV, written into the run's work directory.
  std::string universe_path;
  /// Ground-truth CSV text (object_id,property,value).
  std::string truth_csv;
  /// Chunk claim CSV payloads; seq s carries payloads[s % size()].
  std::vector<std::string> payloads;
  std::vector<uint64_t> payload_claims;
  uint64_t total_claims = 0;
};

/// Generates the inputs of `spec` from `seed` (same seed, same bytes) and
/// writes the universe CSV to `universe_path`.
crh::Result<WorkloadData> MakeWorkloadData(const WorkloadSpec& spec, uint64_t seed,
                                           const std::string& universe_path);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
