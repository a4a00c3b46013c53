#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "data/csv.h"
#include "datagen/noise.h"
#include "datagen/uci_like.h"
#include "stream/chunks.h"

namespace perfbench {
namespace {

/// splitmix64: the per-cell hash that thins coverage per source.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::string SchemaSpec(const crh::Schema& schema) {
  std::string spec;
  for (size_t m = 0; m < schema.num_properties(); ++m) {
    const crh::Property& p = schema.property(m);
    if (!spec.empty()) spec += ",";
    if (p.type == crh::PropertyType::kContinuous) {
      char unit[64];
      std::snprintf(unit, sizeof(unit), "%.17g", p.rounding_unit);
      spec += p.name + ":continuous:" + unit;
    } else {
      spec += p.name + ":categorical";
    }
  }
  return spec;
}

}  // namespace

crh::Result<WorkloadSpec> GetWorkload(const std::string& name) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "ingest") {
    // Write-heavy capacity: every chunk pays O(universe) checkpoint and
    // snapshot work on a 20k-object universe; one reader runs alongside.
    spec.objects = 20000;
    spec.chunks = 1000;
    spec.chunk_rate = 300;
    spec.in_flight = 4;
    spec.poll_interval_ms = 1.0;
    spec.readers = 1;
    spec.rounds = 3;
    spec.cold_starts_per_round = 3;
    spec.check_sample = 2000;
    spec.batch_iterations = 1;
    spec.trace_queries = 20000;
    return spec;
  }
  if (name == "query") {
    // Read-heavy: two unpaced readers on a 4k-object universe while a
    // fixed-rate feed swaps epochs under them.
    spec.objects = 4000;
    spec.chunks = 200;
    spec.chunk_rate = 160;
    spec.feed_rate = 100;
    spec.poll_interval_ms = 0.25;
    spec.readers = 2;
    spec.rounds = 8;
    spec.cold_starts_per_round = 4;
    spec.check_sample = 0;
    spec.batch_iterations = 5;
    spec.trace_queries = 50000;
    return spec;
  }
  return crh::Status::InvalidArgument("unknown workload '" + name +
                                      "' (want ingest or query)");
}

crh::Result<WorkloadData> MakeWorkloadData(const WorkloadSpec& spec, uint64_t seed,
                                           const std::string& universe_path) {
  crh::UciLikeOptions truth_options;
  truth_options.num_records = spec.objects;
  truth_options.seed = Mix(seed);
  const crh::Dataset truth = crh::MakeAdultGroundTruth(truth_options);

  crh::NoiseOptions noise;
  const std::vector<double> gammas = crh::PaperSimulationGammas();
  for (size_t k = 0; k < kSources; ++k) noise.gammas.push_back(gammas[k % gammas.size()]);
  noise.seed = seed;
  auto noisy = crh::MakeNoisyDataset(truth, noise);
  if (!noisy.ok()) return noisy.status();
  crh::Dataset data = std::move(noisy).ValueOrDie();

  // Coverage skew: source k keeps a claim with probability proportional
  // to 1/(k+1), scaled so the mean over sources is kDensity.
  std::vector<double> keep(kSources);
  double harmonic = 0.0;
  for (size_t k = 0; k < kSources; ++k) harmonic += 1.0 / static_cast<double>(k + 1);
  for (size_t k = 0; k < kSources; ++k) {
    keep[k] = std::min(1.0, kDensity * static_cast<double>(kSources) /
                                (static_cast<double>(k + 1) * harmonic));
  }
  for (size_t k = 0; k < kSources; ++k) {
    crh::ValueTable& table = data.mutable_observations(k);
    for (size_t i = 0; i < data.num_objects(); ++i) {
      for (size_t m = 0; m < data.num_properties(); ++m) {
        const uint64_t h = Mix(seed ^ (static_cast<uint64_t>(k) << 42) ^
                               (static_cast<uint64_t>(i) << 10) ^ m);
        const double u = static_cast<double>(h >> 11) / static_cast<double>(1ull << 53);
        if (u >= keep[k]) table.Clear(i, m);
      }
    }
  }
  std::vector<int64_t> timestamps(data.num_objects());
  for (size_t i = 0; i < data.num_objects(); ++i) {
    timestamps[i] = static_cast<int64_t>(i % spec.chunks);
  }
  CRH_RETURN_NOT_OK(data.set_timestamps(std::move(timestamps)));

  WorkloadData out;
  out.schema_spec = SchemaSpec(data.schema());
  out.universe_path = universe_path;
  CRH_RETURN_NOT_OK(crh::WriteObservationsCsv(data, universe_path));
  std::ostringstream truth_csv;
  CRH_RETURN_NOT_OK(crh::WriteGroundTruthCsv(data, truth_csv));
  out.truth_csv = truth_csv.str();

  auto chunks = crh::SplitByWindow(data, 1);
  if (!chunks.ok()) return chunks.status();
  for (const crh::DataChunk& chunk : *chunks) {
    std::ostringstream payload;
    CRH_RETURN_NOT_OK(crh::WriteObservationsCsv(chunk.data, payload));
    out.payloads.push_back(payload.str());
    out.payload_claims.push_back(chunk.data.num_observations());
    out.total_claims += out.payload_claims.back();
  }
  return out;
}

}  // namespace perfbench
