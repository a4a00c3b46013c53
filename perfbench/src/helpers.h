#ifndef PERFBENCH_HELPERS_H_
#define PERFBENCH_HELPERS_H_

/// \file helpers.h
/// Small, separately tested pieces of the benchmark client: the NURand
/// skew generator, the percentile rule every timing is reported with, the
/// ingest request encoder, the daemon's readiness-line parser, and the
/// machine-speed calibration loop.

#include <chrono>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Seconds on a monotonic clock; the one time source of the benchmark.
inline double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Non-uniform random integers in [x, y], after TPC-C's NURand(A, x, y):
/// OR-ing a draw from [0, a] into a draw from [x, y] biases the result
/// towards values with many set bits, and adding the run constant `c`
/// moves the hot values to a seed-dependent place in the range.
class NuRand {
 public:
  NuRand(uint64_t a, uint64_t x, uint64_t y, uint64_t seed);

  uint64_t Next();

 private:
  uint64_t a_;
  uint64_t x_;
  uint64_t y_;
  uint64_t c_;
  std::mt19937_64 rng_;
};

/// A timing distribution as the report prints it: the sample count, the
/// median, and the highest percentile of a fixed ladder (50, 90, 99, 99.9,
/// 99.99) that has at least ten samples beyond it.
struct Distribution {
  size_t count = 0;
  double p50 = 0.0;
  double tail_percentile = 0.0;  ///< 0 when fewer than 20 samples
  double tail_value = 0.0;
};

/// The highest ladder percentile with at least ten of `count` samples
/// strictly beyond it; 0 when even the median has fewer than ten.
double HighestSupportedPercentile(size_t count);

/// Nearest-rank percentile `p` (0 < p <= 100) of `sorted` (ascending,
/// non-empty).
double PercentileOfSorted(const std::vector<double>& sorted, double p);

/// Sorts a copy of `samples` and summarises it.
Distribution Summarize(std::vector<double> samples);

/// Median of `samples` (NaN when empty).
double Median(std::vector<double> samples);

/// One `ingest` request line (no trailing newline): the chunk's claim CSV
/// travels JSON-escaped in the "csv" field.
std::string IngestLine(uint64_t seq, int64_t window_start, std::string_view csv);

/// Parses the daemon's readiness line, "crh_serve: listening on PATH".
/// Returns false for any other line.
bool ParseReadinessLine(std::string_view line, std::string* socket_path);

/// Removes the `"epoch":N,` field from a reply line, so replies from two
/// processes (whose epoch counters differ) compare byte for byte.
std::string StripEpoch(std::string_view reply);

/// Nanoseconds per iteration of a fixed integer loop timed over about
/// 0.2 s: a record of the machine's speed during a run. No metric is
/// divided by it.
double CalibrationNsPerOp();

}  // namespace perfbench

#endif  // PERFBENCH_HELPERS_H_
