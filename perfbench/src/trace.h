#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

/// \file trace.h
/// The traced run: an in-memory span recorder, and a replay of one
/// workload's exact inputs through the layers' public functions that turns
/// the spans into per-layer self times.

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "report.h"
#include "serve_phase.h"
#include "workload.h"

namespace perfbench {

/// Spans kept in memory: name, start, end, parent and request id. A span's
/// self time is its duration minus the time its child spans cover.
class Tracer {
 public:
  /// Opens a span under the innermost open one; returns its id.
  size_t Begin(const char* name, uint64_t request);
  /// Closes span `id` (must be the innermost open span).
  void End(size_t id);

  /// Self times, in seconds, of every closed span called `name`.
  std::vector<double> SelfSeconds(const std::string& name) const;

  /// Writes one tab-separated line per span.
  crh::Status Write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    uint64_t request;
    int64_t parent;
    double start;
    double end;
    double children;
  };
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// Opens a span for the lifetime of the object.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, uint64_t request)
      : tracer_(tracer), id_(tracer.Begin(name, request)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  size_t id_;
};

/// Replays the workload's inputs in process and in order — the chunks the
/// end-to-end run ingested, reader 0's query sequence, and the batch solve
/// — and adds the per-layer metrics to `report`. Spans go to `trace_path`.
void RunTracedReplay(const WorkloadSpec& spec, const WorkloadData& data,
                     const crh::Dataset& universe, const ServeSettings& settings,
                     const ServeOutcome& outcome, const std::string& trace_path,
                     Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
