#include "helpers.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "serve/protocol.h"

namespace perfbench {

NuRand::NuRand(uint64_t a, uint64_t x, uint64_t y, uint64_t seed)
    : a_(a), x_(x), y_(y), rng_(seed) {
  c_ = std::uniform_int_distribution<uint64_t>(0, a_)(rng_);
}

uint64_t NuRand::Next() {
  const uint64_t hot = std::uniform_int_distribution<uint64_t>(0, a_)(rng_);
  const uint64_t flat = std::uniform_int_distribution<uint64_t>(x_, y_)(rng_);
  return ((hot | flat) + c_) % (y_ - x_ + 1) + x_;
}

double HighestSupportedPercentile(size_t count) {
  static constexpr double kLadder[] = {99.99, 99.9, 99.0, 90.0, 50.0};
  for (const double p : kLadder) {
    // Samples strictly beyond the nearest-rank position of p.
    const auto rank =
        static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(count) - 1e-9));
    if (count >= rank && count - rank >= 10) return p;
  }
  return 0.0;
}

double PercentileOfSorted(const std::vector<double>& sorted, double p) {
  auto rank =
      static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(sorted.size()) - 1e-9));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

Distribution Summarize(std::vector<double> samples) {
  Distribution d;
  d.count = samples.size();
  if (samples.empty()) return d;
  std::sort(samples.begin(), samples.end());
  d.p50 = PercentileOfSorted(samples, 50.0);
  d.tail_percentile = HighestSupportedPercentile(samples.size());
  if (d.tail_percentile > 0) d.tail_value = PercentileOfSorted(samples, d.tail_percentile);
  return d;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::string IngestLine(uint64_t seq, int64_t window_start, std::string_view csv) {
  std::string line = "{\"cmd\":\"ingest\",\"seq\":" + std::to_string(seq) +
                     ",\"window_start\":" + std::to_string(window_start) + ",\"csv\":";
  crh::AppendJsonString(&line, csv);
  line.push_back('}');
  return line;
}

bool ParseReadinessLine(std::string_view line, std::string* socket_path) {
  static constexpr std::string_view kPrefix = "crh_serve: listening on ";
  if (line.substr(0, kPrefix.size()) != kPrefix) return false;
  std::string_view path = line.substr(kPrefix.size());
  while (!path.empty() && (path.back() == '\n' || path.back() == '\r')) path.remove_suffix(1);
  if (path.empty()) return false;
  *socket_path = std::string(path);
  return true;
}

std::string StripEpoch(std::string_view reply) {
  static constexpr std::string_view kKey = "\"epoch\":";
  const size_t at = reply.find(kKey);
  if (at == std::string_view::npos) return std::string(reply);
  size_t end = at + kKey.size();
  while (end < reply.size() && reply[end] >= '0' && reply[end] <= '9') ++end;
  if (end < reply.size() && reply[end] == ',') ++end;
  std::string out(reply.substr(0, at));
  out.append(reply.substr(end));
  return out;
}

double CalibrationNsPerOp() {
  constexpr int kIters = 1 << 24;
  uint64_t s = 0x9e3779b97f4a7c15ull;
  double x = 1.0;
  const double start = Now();
  for (int i = 0; i < kIters; ++i) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    x += static_cast<double>(s >> 40) * 1e-12;
  }
  const double seconds = Now() - start;
  if (x == 0.0) std::printf("unreachable\n");
  return seconds * 1e9 / kIters;
}

}  // namespace perfbench
