#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

/// \file report.h
/// What one run measured: named metrics with units, the operation counts
/// behind the failed share, and whether every output check passed.

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "helpers.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;

  void EndToEnd(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
    std::printf("  %-26s %14.6g %s\n", name.c_str(), value, unit.c_str());
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
    std::printf("  %-34s %14.6g %s\n", name.c_str(), value, unit.c_str());
  }
  /// Counts `n` operations, `bad` of which failed.
  void Count(uint64_t n, uint64_t bad) {
    attempted += n;
    failed += bad;
  }
  /// An operation failed (shed, error reply, timeout).
  void Failure(const std::string& what) {
    ++attempted;
    ++failed;
    std::printf("FAILED: %s\n", what.c_str());
  }
  /// An output differed from its reference: the run is not correct.
  void Mismatch(const std::string& what) {
    ++failed;
    correct = false;
    std::printf("MISMATCH: %s\n", what.c_str());
  }
};

/// Prints one timing distribution line: count, median and supported tail.
inline void PrintDistribution(const char* label, const std::vector<double>& samples,
                              const char* unit) {
  const Distribution d = Summarize(samples);
  if (d.tail_percentile > 0) {
    std::printf("  %-26s n=%zu p50=%.4g %s p%g=%.4g %s\n", label, d.count, d.p50, unit,
                d.tail_percentile, d.tail_value, unit);
  } else {
    std::printf("  %-26s n=%zu p50=%.4g %s (too few samples for a tail)\n", label, d.count,
                d.p50, unit);
  }
}

/// Prints every sample of a short series (repeats inside one run).
inline void PrintSamples(const char* label, const std::vector<double>& values) {
  std::printf("  %s:", label);
  for (const double v : values) std::printf(" %.4f", v);
  std::printf("\n");
}

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
