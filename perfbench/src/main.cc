/// \file main.cc
/// perfbench_client: one benchmark run of one workload.
///
///   perfbench_client --workload ingest|query --seed N --seconds S --trace 0|1
///                    --serve-binary PATH --workdir DIR
///
/// Generates the workload's inputs from the seed inside DIR, drives the
/// crh_serve binary over its Unix socket, solves the same claims offline,
/// checks every output against a reference, and prints a human-readable
/// report followed, as the last line, by one JSON object with the fields
/// correct, attempted, failed and metrics (the end-to-end metrics, or with
/// --trace 1 the per-layer metrics of a traced in-process replay). Exits
/// nonzero without a JSON line when the run cannot complete.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>

#include "batch_phase.h"
#include "data/csv.h"
#include "helpers.h"
#include "report.h"
#include "serve_phase.h"
#include "tools/cli.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string serve_binary;
  std::string workdir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--serve-binary") {
      args->serve_binary = value;
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         !args->serve_binary.empty() && !args->workdir.empty();
}

void AppendMetrics(const std::vector<Metric>& metrics, std::string* json, bool* finite) {
  char buf[128];
  for (size_t n = 0; n < metrics.size(); ++n) {
    const Metric& m = metrics[n];
    if (std::isfinite(m.value)) {
      std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
      *finite = false;
    }
    *json += (n > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             m.unit + "\"}";
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_client --workload W --seed N --seconds S --trace 0|1 "
                 "--serve-binary PATH --workdir DIR\n");
    return 2;
  }
  auto spec = GetWorkload(args.workload);
  if (!spec.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", spec.status().ToString().c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  if (ec || ::chdir(args.workdir.c_str()) != 0) {
    std::fprintf(stderr, "perfbench: cannot enter %s\n", args.workdir.c_str());
    return 1;
  }
  setvbuf(stdout, nullptr, _IOLBF, 0);
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n", spec->name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  std::printf("calibration_ns_per_op: %.4f (start)\n", CalibrationNsPerOp());

  const double t_gen = Now();
  auto data = MakeWorkloadData(*spec, args.seed, "universe.csv");
  if (!data.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", data.status().ToString().c_str());
    return 1;
  }
  auto schema = crh::cli::ParseSchemaSpec(data->schema_spec);
  if (!schema.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", schema.status().ToString().c_str());
    return 1;
  }
  auto read = crh::ReadObservationsCsv(*schema, data->universe_path);
  if (!read.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", read.status().ToString().c_str());
    return 1;
  }
  crh::Dataset universe = std::move(read).ValueOrDie();
  std::istringstream truth_csv(data->truth_csv);
  if (auto s = crh::ReadGroundTruthCsv(truth_csv, &universe); !s.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("inputs: %zu objects x %zu properties x %zu sources, %zu claims, %zu chunks "
              "(%.1f claims/chunk), generated in %.2f s\n",
              universe.num_objects(), universe.num_properties(), universe.num_sources(),
              universe.num_observations(), data->payloads.size(),
              static_cast<double>(data->total_claims) /
                  static_cast<double>(data->payloads.size()),
              Now() - t_gen);

  Report report;
  ServeSettings settings;
  settings.binary = args.serve_binary;
  settings.schema_spec = data->schema_spec;
  settings.universe_path = data->universe_path;
  settings.seconds = args.seconds;
  settings.seed = args.seed;
  // Every measurement is spread over the rounds, so a slow stretch of the
  // machine touches a few samples of each metric rather than all of one.
  ServeRun serve(*spec, *data, universe, settings, &report);
  BatchRun batch(*spec, universe, &report);
  crh::Status status = batch.WarmUp();
  for (int r = 0; r < spec->rounds && status.ok(); ++r) {
    status = serve.Round(r, [&batch] { return batch.Step(); });
  }
  if (!status.ok()) {
    report.Failure(status.ToString());
    report.correct = false;
  }
  const ServeOutcome outcome = serve.Finish();
  batch.Finish();
  if (args.trace) {
    RunTracedReplay(*spec, *data, universe, settings, outcome,
                    "../trace-" + spec->name + "-" + std::to_string(args.seed) + ".tsv",
                    &report);
  }
  std::printf("calibration_ns_per_op: %.4f (end)\n", CalibrationNsPerOp());
  std::printf("operations: %llu attempted, %llu failed, failed share %.6f; outputs %s\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              report.attempted > 0 ? static_cast<double>(report.failed) /
                                         static_cast<double>(report.attempted)
                                   : 1.0,
              report.correct ? "correct" : "NOT correct");

  std::string metrics;
  bool finite = true;
  AppendMetrics(args.trace ? report.per_layer : report.end_to_end, &metrics, &finite);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              report.correct && finite ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
