#include "trace.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <thread>

#include "batch_phase.h"
#include "core/crh.h"
#include "data/claim_index.h"
#include "data/csv.h"
#include "data/stats.h"
#include "mapreduce/parallel_crh.h"
#include "serve/chunk_codec.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "stream/checkpoint.h"
#include "stream/stream_engine.h"
#include "tools/cli.h"
#include "weights/weight_scheme.h"

namespace {
/// Bytes requested from the global operator new on this thread. The traced
/// replay reads it around SnapshotFromEngine, so snapshot.bytes is what the
/// snapshot copy allocates, whatever the snapshot holds.
thread_local uint64_t t_allocated_bytes = 0;
}  // namespace

void* operator new(std::size_t size) {
  t_allocated_bytes += size;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
// The replacement pair allocates with malloc and frees with free; GCC's
// check does not know that the two belong together.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace perfbench {

size_t Tracer::Begin(const char* name, uint64_t request) {
  const int64_t parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
  spans_.push_back({name, request, parent, Now(), 0.0, 0.0});
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::End(size_t id) {
  Span& span = spans_[id];
  span.end = Now();
  open_.pop_back();
  if (span.parent >= 0) spans_[static_cast<size_t>(span.parent)].children += span.end - span.start;
}

std::vector<double> Tracer::SelfSeconds(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.end > 0 && name == span.name) out.push_back(span.end - span.start - span.children);
  }
  return out;
}

crh::Status Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  out << "id\tname\trequest\tparent\tstart_s\tend_s\tself_s\n";
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  char buf[256];
  for (size_t id = 0; id < spans_.size(); ++id) {
    const Span& s = spans_[id];
    std::snprintf(buf, sizeof(buf), "%zu\t%s\t%llu\t%lld\t%.9f\t%.9f\t%.9f\n", id, s.name,
                  static_cast<unsigned long long>(s.request), static_cast<long long>(s.parent),
                  s.start - origin, s.end - origin, s.end - s.start - s.children);
    out << buf;
  }
  out.close();
  if (!out) return crh::Status::IOError("cannot write " + path);
  return crh::Status::OK();
}

namespace {

namespace fs = std::filesystem;

double MedianSelf(const Tracer& tracer, const char* name, double scale) {
  return Median(tracer.SelfSeconds(name)) * scale;
}

/// The stream half: every chunk of the last round (the rounds send the
/// same stream) through parse, decode, the engine step and the epoch
/// snapshot, plus the public calls that the engine step is made of, timed
/// on identical inputs.
crh::Status ReplayStream(const WorkloadData& data, const crh::Dataset& universe,
                         const ServeOutcome& outcome, Tracer& tracer,
                         std::vector<double>* cells_per_claim,
                         std::vector<double>* checkpoint_bytes,
                         std::vector<double>* snapshot_bytes) {
  const crh::IncrementalCrhOptions options = ServedSolverOptions();
  const uint64_t fingerprint =
      crh::CheckpointFingerprint(options, universe.num_sources(), &universe);
  crh::ChunkCodec codec(universe);
  const int round = outcome.rounds - 1;
  {
    for (const char* dir : {"trace_ckpt", "trace_ckpt_parts"}) {
      fs::remove_all(dir);
      fs::create_directory(dir);
    }
    crh::StreamResilienceOptions resilience;
    resilience.checkpoint_dir = "trace_ckpt";
    resilience.checkpoint_every = 1;
    auto engine = crh::StreamEngine::Open(universe, options, resilience);
    if (!engine.ok()) return engine.status();
    auto bare = crh::StreamEngine::Open(universe, options, crh::StreamResilienceOptions{});
    if (!bare.ok()) return bare.status();
    crh::IncrementalCrhProcessor parts(universe.num_sources(), options);
    crh::CheckpointManagerOptions manager_options;
    manager_options.dir = "trace_ckpt_parts";
    crh::CheckpointManager parts_manager(manager_options);
    crh::ServeSnapshot snapshot;

    const uint64_t chunks =
        outcome.chunks_per_round + static_cast<uint64_t>(kRecoveriesPerRound);
    for (uint64_t seq = 0; seq < chunks; ++seq) {
      const uint64_t request = seq;
      const std::string line =
          IngestLine(seq, static_cast<int64_t>(seq),
                     RoundPayload(data, outcome.chunks_per_round, round, seq));
      crh::Result<crh::DataChunk> chunk = crh::Status::Internal("not decoded");
      {
        ScopedSpan root(tracer, "ingest.chunk", request);
        std::string csv;
        {
          ScopedSpan span(tracer, "protocol.parse_ingest", request);
          auto parsed = crh::ParseJsonObject(line, crh::kMaxProtocolStringBytes);
          if (!parsed.ok()) return parsed.status();
          auto field = parsed->GetString("csv");
          if (!field.ok()) return field.status();
          csv = std::move(field).ValueOrDie();
        }
        {
          ScopedSpan span(tracer, "chunk_codec.decode", request);
          chunk = codec.Decode(csv, static_cast<int64_t>(seq), false);
        }
        if (!chunk.ok()) return chunk.status();
        {
          ScopedSpan span(tracer, "stream_engine.apply", request);
          CRH_RETURN_NOT_OK((*engine)->ApplyChunk(*chunk, false));
        }
        {
          ScopedSpan span(tracer, "snapshot.build", request);
          const uint64_t allocated = t_allocated_bytes;
          snapshot = crh::SnapshotFromEngine(**engine, seq + 1);
          snapshot_bytes->push_back(static_cast<double>(t_allocated_bytes - allocated));
        }
      }
      const crh::Dataset& d = chunk->data;
      cells_per_claim->push_back(static_cast<double>(d.num_sources() * d.num_objects() *
                                                     d.num_properties()) /
                                 static_cast<double>(d.num_observations()));

      // The parts of the engine step, on the same chunk and the same state.
      ScopedSpan root(tracer, "apply.parts", request);
      {
        ScopedSpan span(tracer, "stream_engine.apply_no_checkpoint", request);
        CRH_RETURN_NOT_OK((*bare)->ApplyChunk(*chunk, false));
      }
      const std::vector<double> weights = parts.source_weights();
      crh::ClaimIndex index;
      {
        ScopedSpan span(tracer, "claim_index.build", request);
        index = crh::ClaimIndex::Build(d);
      }
      crh::ValueTable truths(0, 0);
      {
        ScopedSpan span(tracer, "crh.truth_pass", request);
        truths = crh::ComputeTruthsGivenWeights(d, index, weights, options.base, nullptr);
      }
      {
        ScopedSpan span(tracer, "crh.deviation_pass", request);
        const crh::EntryStats stats = crh::ComputeEntryStats(d);
        const std::vector<double> deviations =
            crh::ComputeSourceDeviations(d, index, truths, stats, options.base, nullptr);
        (void)deviations;
      }
      {
        ScopedSpan span(tracer, "incremental_crh.process_chunk", request);
        auto processed = parts.ProcessChunk(d);
        if (!processed.ok()) return processed.status();
      }
      crh::CheckpointState state;
      state.fingerprint = fingerprint;
      state.processor = parts.ExportState();
      state.has_driver_state = true;
      state.truths = (*engine)->truths();
      state.weight_history = (*engine)->weight_history();
      state.chunk_starts = (*engine)->chunk_starts();
      {
        ScopedSpan span(tracer, "checkpoint.encode", request);
        checkpoint_bytes->push_back(static_cast<double>(crh::EncodeCheckpoint(state).size()));
      }
      {
        ScopedSpan span(tracer, "checkpoint.save", request);
        CRH_RETURN_NOT_OK(parts_manager.Save(state));
      }
    }

    crh::CheckpointManagerOptions load_options;
    load_options.dir = "trace_ckpt";
    crh::CheckpointManager loader(load_options);
    for (uint64_t r = 0; r < 3; ++r) {
      ScopedSpan span(tracer, "checkpoint.load", r);
      auto loaded = loader.LoadLatest(fingerprint);
      if (!loaded.ok()) return loaded.status();
    }
  }
  return crh::Status::OK();
}

/// The query half: reader 0's request sequence through an in-process
/// server holding the state of the last round's daemon.
crh::Status ReplayQueries(const WorkloadSpec& spec, const WorkloadData& data,
                          const crh::Dataset& universe, const ServeSettings& settings,
                          const ServeOutcome& outcome, Tracer& tracer,
                          double* weights_reply_bytes) {
  const uint64_t chunks =
      outcome.chunks_per_round + static_cast<uint64_t>(kRecoveriesPerRound);
  crh::ServeOptions serve;
  serve.socket_path = "t.sock";
  serve.ingest_queue_capacity = static_cast<size_t>(chunks) + 1;
  crh::CrhServer server(universe, ServedSolverOptions(), crh::StreamResilienceOptions{}, serve);
  CRH_RETURN_NOT_OK(server.Start());
  for (uint64_t seq = 0; seq < chunks; ++seq) {
    const std::string reply = server.HandleRequestLine(
        IngestLine(seq, static_cast<int64_t>(seq),
                   RoundPayload(data, outcome.chunks_per_round, outcome.rounds - 1, seq)));
    if (reply.rfind("{\"ok\":true", 0) != 0) {
      return crh::Status::Internal("in-process ingest failed: " + reply);
    }
  }
  while (true) {
    auto status = crh::ParseJsonObject(server.HandleRequestLine("{\"cmd\":\"status\"}"),
                                       size_t{1} << 20);
    if (!status.ok()) return status.status();
    auto solved = status->GetUint("chunks_solved");
    if (!solved.ok()) return solved.status();
    if (*solved >= chunks) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::vector<QueryRequest> requests = MakeQueryRequests(
      universe, settings.seed * 1000003u, static_cast<size_t>(spec.trace_queries));
  static const char* const kSpanNames[] = {"server.truth", "server.source", "server.weights"};
  for (size_t n = 0; n < requests.size(); ++n) {
    const QueryRequest& q = requests[n];
    ScopedSpan root(tracer, "query", n);
    {
      ScopedSpan span(tracer, "protocol.parse_query", n);
      auto parsed = crh::ParseJsonObject(q.line, crh::kMaxProtocolStringBytes);
      if (!parsed.ok()) return parsed.status();
    }
    std::string reply;
    {
      ScopedSpan span(tracer, kSpanNames[static_cast<int>(q.kind)], n);
      reply = server.HandleRequestLine(q.line);
    }
    if (reply.rfind("{\"ok\":true", 0) != 0) return crh::Status::Internal("query: " + reply);
    if (q.kind == QueryKind::kWeights) *weights_reply_bytes = static_cast<double>(reply.size());
  }
  server.RequestDrain();
  return server.Wait();
}

/// The batch half: the passes RunCrh is made of, on the universe claims.
crh::Status ReplayBatch(const WorkloadSpec& spec, const crh::Dataset& universe,
                        Tracer& tracer, Report* report) {
  const crh::CrhOptions options = BatchCrhOptions(spec);
  crh::Result<crh::CrhResult> solved = crh::Status::Internal("not run");
  {
    ScopedSpan span(tracer, "crh.run", 0);
    solved = crh::RunCrh(universe, options);
  }
  if (!solved.ok()) return solved.status();
  crh::ClaimIndex index;
  for (uint64_t r = 0; r < 3; ++r) {
    ScopedSpan span(tracer, "claim_index.batch_build", r);
    index = crh::ClaimIndex::Build(universe);
  }
  crh::SolverWorkspace workspace;
  const crh::EntryStats stats = crh::ComputeEntryStats(universe);
  crh::ValueTable truths = crh::ComputeTruthsGivenWeights(
      universe, index, solved->source_weights, options, nullptr, workspace);  // warm-up
  std::vector<double> deviations =
      crh::ComputeSourceDeviations(universe, index, truths, stats, options, nullptr, workspace);
  for (uint64_t r = 0; r < 3; ++r) {
    {
      ScopedSpan span(tracer, "crh.batch_truth_pass", r);
      truths = crh::ComputeTruthsGivenWeights(universe, index, solved->source_weights,
                                              options, nullptr, workspace);
    }
    ScopedSpan span(tracer, "crh.batch_deviation_pass", r);
    deviations = crh::ComputeSourceDeviations(universe, index, truths, stats, options,
                                              nullptr, workspace);
  }
  for (uint64_t r = 0; r < 101; ++r) {
    ScopedSpan span(tracer, "weights.update", r);
    auto weights = crh::ComputeSourceWeights(deviations, options.weight_scheme);
    if (!weights.ok()) return weights.status();
  }

  crh::Result<crh::ParallelCrhResult> parallel = crh::Status::Internal("not run");
  {
    ScopedSpan span(tracer, "mapreduce.run", 0);
    parallel = crh::RunParallelCrh(universe, BatchParallelOptions(spec));
  }
  if (!parallel.ok()) return parallel.status();
  // Job order: the statistics job, then a truth and a weight job per
  // iteration, then a final truth job.
  std::vector<double> truth_jobs;
  std::vector<double> weight_jobs;
  double shuffled = 0;
  for (size_t j = 0; j < parallel->job_stats.size(); ++j) {
    const crh::JobStats& job = parallel->job_stats[j];
    shuffled += static_cast<double>(job.shuffle_records);
    if (j == 0) continue;
    (j % 2 == 1 ? truth_jobs : weight_jobs).push_back(job.wall_seconds);
  }

  std::printf("per-layer (batch):\n");
  report->Layer("claim_index.batch_build_ms", MedianSelf(tracer, "claim_index.batch_build", 1e3),
                "ms");
  report->Layer("crh.batch_truth_pass_ms", MedianSelf(tracer, "crh.batch_truth_pass", 1e3),
                "ms");
  report->Layer("crh.batch_deviation_pass_ms",
                MedianSelf(tracer, "crh.batch_deviation_pass", 1e3), "ms");
  report->Layer("weights.update_us", MedianSelf(tracer, "weights.update", 1e6), "us");
  report->Layer("crh.iterations", solved->iterations, "count");
  report->Layer("mapreduce.truth_job_ms", Median(truth_jobs) * 1e3, "ms");
  report->Layer("mapreduce.weight_job_ms", Median(weight_jobs) * 1e3, "ms");
  report->Layer("mapreduce.shuffle_records", shuffled, "count");
  return crh::Status::OK();
}

}  // namespace

void RunTracedReplay(const WorkloadSpec& spec, const WorkloadData& data,
                     const crh::Dataset& universe, const ServeSettings& settings,
                     const ServeOutcome& outcome, const std::string& trace_path,
                     Report* report) {
  Tracer tracer;
  const auto fail = [&](const crh::Status& status) {
    report->Failure("traced replay: " + status.ToString());
    report->correct = false;
  };

  auto schema = crh::cli::ParseSchemaSpec(data.schema_spec);
  if (!schema.ok()) return fail(schema.status());
  for (uint64_t r = 0; r < 3; ++r) {
    ScopedSpan span(tracer, "csv.read", r);
    auto read = crh::ReadObservationsCsv(*schema, data.universe_path);
    if (!read.ok()) return fail(read.status());
  }

  std::vector<double> cells_per_claim;
  std::vector<double> checkpoint_bytes;
  std::vector<double> snapshot_bytes;
  if (auto s = ReplayStream(data, universe, outcome, tracer, &cells_per_claim,
                            &checkpoint_bytes, &snapshot_bytes);
      !s.ok()) {
    return fail(s);
  }
  double weights_reply_bytes = 0;
  if (auto s = ReplayQueries(spec, data, universe, settings, outcome, tracer,
                             &weights_reply_bytes);
      !s.ok()) {
    return fail(s);
  }

  const double parse_ms = MedianSelf(tracer, "protocol.parse_ingest", 1e3);
  const double decode_ms = MedianSelf(tracer, "chunk_codec.decode", 1e3);
  const double apply_ms = MedianSelf(tracer, "stream_engine.apply", 1e3);
  const double snapshot_ms = MedianSelf(tracer, "snapshot.build", 1e3);
  std::printf("traced ingest path, median per chunk over the last round's chunks:\n");
  std::printf("  parse %.4f ms + decode %.4f ms + ApplyChunk %.4f ms + snapshot %.4f ms = "
              "%.4f ms\n",
              parse_ms, decode_ms, apply_ms, snapshot_ms,
              parse_ms + decode_ms + apply_ms + snapshot_ms);
  std::printf("  ApplyChunk parts: no checkpoint %.4f ms | ProcessChunk %.4f ms "
              "(index %.4f + truth pass %.4f + deviation pass %.4f) | EncodeCheckpoint %.4f "
              "ms | CheckpointManager::Save %.4f ms\n",
              MedianSelf(tracer, "stream_engine.apply_no_checkpoint", 1e3),
              MedianSelf(tracer, "incremental_crh.process_chunk", 1e3),
              MedianSelf(tracer, "claim_index.build", 1e3),
              MedianSelf(tracer, "crh.truth_pass", 1e3),
              MedianSelf(tracer, "crh.deviation_pass", 1e3),
              MedianSelf(tracer, "checkpoint.encode", 1e3),
              MedianSelf(tracer, "checkpoint.save", 1e3));
  const double measured = outcome.ack_p50_ms + outcome.visible_p50_ms;
  const double parts = parse_ms + decode_ms + apply_ms + snapshot_ms;
  std::printf("  measured ack_p50 %.4f ms + visible_p50 %.4f ms = %.4f ms; unattributed "
              "rest %.4f ms (queue wait behind in-flight chunks, socket, thread "
              "hand-off, poll interval)\n",
              outcome.ack_p50_ms, outcome.visible_p50_ms, measured, measured - parts);

  std::printf("per-layer (traced replay, median self time per call):\n");
  report->Layer("protocol.parse_ingest_us", parse_ms * 1e3, "us");
  report->Layer("chunk_codec.decode_ms", decode_ms, "ms");
  report->Layer("chunk_codec.cells_per_claim", Median(cells_per_claim), "count");
  report->Layer("stream_engine.apply_ms", apply_ms, "ms");
  report->Layer("incremental_crh.process_chunk_ms",
                MedianSelf(tracer, "incremental_crh.process_chunk", 1e3), "ms");
  report->Layer("claim_index.build_ms", MedianSelf(tracer, "claim_index.build", 1e3), "ms");
  report->Layer("crh.truth_pass_ms", MedianSelf(tracer, "crh.truth_pass", 1e3), "ms");
  report->Layer("crh.deviation_pass_ms", MedianSelf(tracer, "crh.deviation_pass", 1e3), "ms");
  report->Layer("checkpoint.save_ms", MedianSelf(tracer, "checkpoint.save", 1e3), "ms");
  report->Layer("checkpoint.encode_ms", MedianSelf(tracer, "checkpoint.encode", 1e3), "ms");
  report->Layer("checkpoint.bytes", Median(checkpoint_bytes), "count");
  report->Layer("checkpoint.load_ms", MedianSelf(tracer, "checkpoint.load", 1e3), "ms");
  report->Layer("snapshot.build_ms", snapshot_ms, "ms");
  report->Layer("snapshot.bytes", Median(snapshot_bytes), "count");
  report->Layer("csv.read_s", MedianSelf(tracer, "csv.read", 1.0), "s");
  report->Layer("protocol.parse_query_us", MedianSelf(tracer, "protocol.parse_query", 1e6),
                "us");
  report->Layer("server.truth_us", MedianSelf(tracer, "server.truth", 1e6), "us");
  report->Layer("server.source_us", MedianSelf(tracer, "server.source", 1e6), "us");
  report->Layer("server.weights_us", MedianSelf(tracer, "server.weights", 1e6), "us");
  report->Layer("server.weights_reply_bytes", weights_reply_bytes, "count");

  if (auto s = ReplayBatch(spec, universe, tracer, report); !s.ok()) return fail(s);
  if (auto s = tracer.Write(trace_path); !s.ok()) return fail(s);
  std::printf("spans written to %s\n", trace_path.c_str());
}

}  // namespace perfbench
