#include "serve_phase.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <random>
#include <thread>

#include "daemon.h"
#include "serve/chunk_codec.h"
#include "serve/protocol.h"
#include "stream/stream_engine.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr double kRequestTimeoutS = 10.0;
constexpr double kReadyTimeoutS = 60.0;
constexpr double kDrainTimeoutS = 60.0;
constexpr int kPings = 2000;
constexpr size_t kRecoveryTruthSample = 256;
constexpr size_t kRequestsPerReader = 200000;
/// Requests per window of the tail metric: p99 has 200 samples beyond it.
constexpr size_t kTailWindow = 20000;
constexpr size_t kMaxProtocolLine = size_t{1} << 20;
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
const char* const kSocket = "d.sock";
const char* const kCheckpointDir = "ckpt";

const char* const kColdSocket = "c.sock";
const char* const kColdCheckpointDir = "ckpt_cold";

std::vector<std::string> DaemonArgs(const ServeSettings& s, const char* socket,
                                    const char* checkpoint_dir, bool resume) {
  // The flags whose defaults decide the work are pinned explicitly; the
  // truth mode stays at its default.
  std::vector<std::string> args = {
      "--socket",         socket,           "--schema",           s.schema_spec,
      "--universe",       s.universe_path,  "--checkpoint-dir",   checkpoint_dir,
      "--checkpoint-every", "1",            "--queue-capacity",   "8",
      "--threads",        "1"};
  if (resume) args.push_back("--resume");
  return args;
}

void ResetDir(const char* dir) {
  fs::remove_all(dir);
  fs::create_directory(dir);
}

void SleepUntil(double t) {
  const double left = t - Now();
  if (left > 0) std::this_thread::sleep_for(std::chrono::duration<double>(left));
}

bool ReplyOk(const std::string& reply) { return reply.rfind("{\"ok\":true", 0) == 0; }

/// Polls `status` on its own connection every `interval_s` while a sent
/// chunk is not yet applied, and records, per sequence number, when the
/// chunk was first reported solved.
class StatusPoller {
 public:
  explicit StatusPoller(double interval_s) : interval_s_(interval_s) {}
  ~StatusPoller() { Stop(); }
  StatusPoller(const StatusPoller&) = delete;
  StatusPoller& operator=(const StatusPoller&) = delete;

  crh::Status Start() {
    auto conn = Connection::Open(kSocket, kRequestTimeoutS);
    if (!conn.ok()) return conn.status();
    conn_ = std::move(conn).ValueOrDie();
    thread_ = std::thread([this] { Loop(); });
    return crh::Status::OK();
  }

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    if (thread_.joinable()) thread_.join();
  }

  /// Called before seq is sent: polling runs until it is applied.
  void Sent(uint64_t seq) {
    std::lock_guard<std::mutex> lock(mu_);
    sent_ = std::max(sent_, seq + 1);
  }

  /// Blocks until the daemon has applied `target` chunks (next_seq) or
  /// `deadline` passes; false on timeout or a broken poll connection.
  bool WaitApplied(uint64_t target, double deadline) {
    return WaitFor([&] { return applied_ >= target; }, deadline);
  }
  /// Same for chunks_solved (what queries already reflect).
  bool WaitSolved(uint64_t target, double deadline) {
    return WaitFor([&] { return solved_ >= target; }, deadline);
  }

  /// When seq was first seen solved (NaN if not yet).
  double visible_at(uint64_t seq) {
    std::lock_guard<std::mutex> lock(mu_);
    return seq < visible_at_.size() ? visible_at_[seq] : kNaN;
  }
  uint64_t polls() const { return polls_; }
  uint64_t failures() const { return failures_; }

 private:
  template <typename Pred>
  bool WaitFor(Pred pred, double deadline) {
    std::unique_lock<std::mutex> lock(mu_);
    while (!pred()) {
      if (broken_ || Now() >= deadline) return false;
      cv_.wait_for(lock, std::chrono::milliseconds(5));
    }
    return true;
  }

  void Loop() {
    static const std::string kStatus = "{\"cmd\":\"status\"}";
    bool first = true;
    while (true) {
      bool idle = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (stop_) return;
        idle = !first && sent_ <= applied_;
      }
      if (idle) {
        // Nothing in flight: wait one interval without a request.
        SleepUntil(Now() + interval_s_);
        continue;
      }
      first = false;
      auto reply = conn_->Request(kStatus);
      const double t = Now();
      crh::Result<crh::JsonObject> parsed =
          reply.ok() ? crh::ParseJsonObject(*reply, kMaxProtocolLine)
                     : crh::Result<crh::JsonObject>(reply.status());
      uint64_t solved = 0;
      uint64_t applied = 0;
      bool good = parsed.ok();
      if (good) {
        auto s = parsed->GetUint("chunks_solved");
        auto a = parsed->GetUint("next_seq");
        good = s.ok() && a.ok();
        if (good) {
          solved = *s;
          applied = *a;
        }
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++polls_;
        if (!good) {
          ++failures_;
          std::printf("FAILED: status poll: %s\n", parsed.status().ToString().c_str());
          broken_ = true;
          cv_.notify_all();
          return;
        }
        if (visible_at_.size() < solved) visible_at_.resize(solved, kNaN);
        for (uint64_t s = solved_; s < solved; ++s) visible_at_[s] = t;
        solved_ = std::max(solved_, solved);
        applied_ = applied;
      }
      cv_.notify_all();
      SleepUntil(t + interval_s_);
    }
  }

  const double interval_s_;
  std::unique_ptr<Connection> conn_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool broken_ = false;
  uint64_t sent_ = 0;
  uint64_t solved_ = 0;
  uint64_t applied_ = 0;
  uint64_t polls_ = 0;
  uint64_t failures_ = 0;
  std::vector<double> visible_at_;
  std::thread thread_;  // last: joined before the members it uses go away
};

/// Ack samples of one ingest stream.
struct IngestLog {
  std::vector<double> ack_ms;
  std::vector<double> ack_time;  ///< by seq
  std::vector<double> queue_depth;
  std::vector<double> late_ms;
  uint64_t sent = 0;
  uint64_t failed = 0;
  uint64_t claims = 0;
};

/// Sends one prebuilt ingest line; the ack sample runs from `t_from` (the
/// send, or in an open loop the due time). A shed, error reply, duplicate
/// or timeout is a failed operation and is never retried.
bool Ingest(Connection& conn, const std::string& line, uint64_t seq, uint64_t claims,
            double t_from, IngestLog* log) {
  auto reply = conn.Request(line);
  const double t = Now();
  ++log->sent;
  if (!reply.ok() || !ReplyOk(*reply) || reply->find("\"duplicate\"") != std::string::npos) {
    ++log->failed;
    std::printf("FAILED: ingest seq %llu: %s\n", static_cast<unsigned long long>(seq),
                reply.ok() ? reply->c_str() : reply.status().ToString().c_str());
    return false;
  }
  log->ack_ms.push_back((t - t_from) * 1e3);
  if (log->ack_time.size() <= seq) log->ack_time.resize(seq + 1, kNaN);
  log->ack_time[seq] = t;
  log->claims += claims;
  auto parsed = crh::ParseJsonObject(*reply, kMaxProtocolLine);
  if (parsed.ok()) {
    auto depth = parsed->GetUint("queue_depth");
    if (depth.ok()) log->queue_depth.push_back(static_cast<double>(*depth));
  }
  return true;
}

struct ReaderLog {
  std::vector<double> us[3];
  /// Every sample in completion order, all commands pooled.
  std::vector<double> pooled;
  uint64_t sent = 0;
  uint64_t failed = 0;
};

/// A closed loop without think time over `requests`, continuing at
/// `*cursor`, until `stop` is set.
void RunReader(const std::vector<QueryRequest>& requests, size_t* cursor,
               const std::atomic<bool>& stop, ReaderLog* log) {
  auto conn = Connection::Open(kSocket, kRequestTimeoutS);
  if (!conn.ok()) {
    ++log->sent;
    ++log->failed;
    return;
  }
  while (!stop.load(std::memory_order_acquire)) {
    const QueryRequest& q = requests[(*cursor)++ % requests.size()];
    const double t0 = Now();
    auto reply = (*conn)->Request(q.line);
    const double t1 = Now();
    ++log->sent;
    if (!reply.ok() || !ReplyOk(*reply)) {
      ++log->failed;
      std::printf("FAILED: %s -> %s\n", q.line.c_str(),
                  reply.ok() ? reply->c_str() : reply.status().ToString().c_str());
      if (!reply.ok()) return;
      continue;
    }
    log->us[static_cast<int>(q.kind)].push_back((t1 - t0) * 1e6);
    log->pooled.push_back((t1 - t0) * 1e6);
  }
}

// -- Expected replies, formatted exactly as serve/server.cc formats them,
//    minus the epoch field.

std::string TruthRequest(const crh::Dataset& u, size_t i, size_t m) {
  crh::JsonWriter w;
  w.AddString("cmd", "truth");
  w.AddString("object", u.object_id(i));
  w.AddString("property", u.schema().property(m).name);
  return std::move(w).Finish();
}

std::string SourceRequest(const crh::Dataset& u, size_t k) {
  crh::JsonWriter w;
  w.AddString("cmd", "source");
  w.AddString("source", u.source_id(k));
  return std::move(w).Finish();
}

const char* const kWeightsRequest = "{\"cmd\":\"weights\"}";

std::string ExpectedTruth(const crh::Dataset& u, const crh::ValueTable& truths, size_t i,
                          size_t m) {
  const crh::Value& value = truths.Get(i, m);
  crh::JsonWriter w;
  w.AddBool("ok", true);
  if (value.is_missing() || (!value.is_continuous() && value.category() == crh::kInvalidCategory)) {
    w.AddNull("value");
  } else if (value.is_continuous()) {
    w.AddDouble("value", value.continuous());
  } else {
    w.AddString("value", u.dict(m).label(value.category()));
  }
  return std::move(w).Finish();
}

std::string ExpectedWeights(const crh::Dataset& u, const std::vector<double>& weights) {
  std::vector<std::string> sources;
  for (size_t k = 0; k < u.num_sources(); ++k) sources.push_back(u.source_id(k));
  crh::JsonWriter w;
  w.AddBool("ok", true);
  w.AddStringArray("sources", sources);
  w.AddDoubleArray("weights", weights);
  return std::move(w).Finish();
}

std::string ExpectedSource(const crh::StreamEngine& engine, size_t k) {
  const std::vector<double>& weights = engine.source_weights();
  double total = 0;
  for (const double x : weights) total += x;
  crh::JsonWriter w;
  w.AddBool("ok", true);
  w.AddDouble("weight", weights[k]);
  w.AddDouble("confidence", total > 0 ? weights[k] / total : 0.0);
  w.AddDouble("accumulated_deviation", engine.accumulated_deviations()[k]);
  w.AddUint("quarantined", engine.quarantined_per_source()[k]);
  return std::move(w).Finish();
}

/// Entries to compare: all of them (sample == 0) or a seeded sample.
std::vector<std::pair<size_t, size_t>> CheckEntries(const crh::Dataset& u, size_t sample,
                                                    uint64_t seed) {
  std::vector<std::pair<size_t, size_t>> entries;
  if (sample == 0) {
    for (size_t i = 0; i < u.num_objects(); ++i) {
      for (size_t m = 0; m < u.num_properties(); ++m) entries.emplace_back(i, m);
    }
    return entries;
  }
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<size_t> obj(0, u.num_objects() - 1);
  std::uniform_int_distribution<size_t> prop(0, u.num_properties() - 1);
  for (size_t n = 0; n < sample; ++n) entries.emplace_back(obj(rng), prop(rng));
  return entries;
}

/// Sends each request and returns the replies with the epoch stripped
/// (empty string for a failed request).
std::vector<std::string> Capture(Connection& conn, const std::vector<std::string>& requests,
                                 Report* report) {
  std::vector<std::string> replies;
  replies.reserve(requests.size());
  uint64_t bad = 0;
  for (const std::string& request : requests) {
    auto reply = conn.Request(request);
    if (!reply.ok() || !ReplyOk(*reply)) {
      ++bad;
      std::printf("FAILED: %s -> %s\n", request.c_str(),
                  reply.ok() ? reply->c_str() : reply.status().ToString().c_str());
      replies.emplace_back();
      continue;
    }
    replies.push_back(StripEpoch(*reply));
  }
  report->Count(requests.size(), bad);
  return replies;
}

/// Compares replies one by one; every difference is a mismatch.
void Compare(const std::vector<std::string>& requests, const std::vector<std::string>& got,
             const std::vector<std::string>& want, const char* what, Report* report) {
  size_t mismatches = 0;
  for (size_t n = 0; n < requests.size(); ++n) {
    if (got[n] != want[n]) {
      if (mismatches++ < 3) {
        report->Mismatch(std::string(what) + ": " + requests[n] + " -> " + got[n] +
                         " (want " + want[n] + ")");
      } else {
        report->Mismatch(what);
      }
    }
  }
  std::printf("check %s: %zu replies, %zu differ\n", what, requests.size(), mismatches);
}

double NewestCheckpointMb() {
  std::string newest;
  uintmax_t size = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(kCheckpointDir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("ckpt-", 0) != 0 || name.size() < 8 ||
        name.substr(name.size() - 8) != ".crhckpt") {
      continue;
    }
    if (name > newest) {
      newest = name;
      size = entry.file_size();
    }
  }
  return newest.empty() ? kNaN : static_cast<double>(size) / (1024.0 * 1024.0);
}

struct Spawned {
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<Connection> conn;
};

/// Starts a daemon and waits for its readiness line and first ping reply.
crh::Result<Spawned> StartDaemon(const ServeSettings& settings, const char* socket,
                                 const char* checkpoint_dir, bool resume) {
  Spawned s;
  auto daemon = Daemon::Spawn(settings.binary,
                              DaemonArgs(settings, socket, checkpoint_dir, resume),
                              "daemon.log", kReadyTimeoutS);
  if (!daemon.ok()) return daemon.status();
  s.daemon = std::move(daemon).ValueOrDie();
  auto conn = Connection::Open(s.daemon->socket_path(), kRequestTimeoutS);
  if (!conn.ok()) return conn.status();
  s.conn = std::move(conn).ValueOrDie();
  auto pong = s.conn->Request("{\"cmd\":\"ping\"}");
  if (!pong.ok()) return pong.status();
  if (!ReplyOk(*pong)) return crh::Status::IOError("ping failed: " + *pong);
  return s;
}

}  // namespace

crh::IncrementalCrhOptions ServedSolverOptions() {
  crh::IncrementalCrhOptions options;
  options.base.num_threads = 1;
  return options;
}

std::vector<QueryRequest> MakeQueryRequests(const crh::Dataset& universe, uint64_t seed,
                                            size_t count) {
  NuRand objects(1023, 0, universe.num_objects() - 1, seed);
  NuRand sources(7, 0, universe.num_sources() - 1, seed ^ 0x5bd1e995u);
  std::mt19937_64 rng(seed ^ 0x2545f4914f6cdd1dull);
  std::uniform_int_distribution<size_t> prop(0, universe.num_properties() - 1);
  // A fixed 60/30/10 truth/source/weights mix, chosen rather than measured;
  // truth_p50_us depends on it (README.md).
  std::uniform_int_distribution<int> mix(0, 9);
  std::vector<QueryRequest> requests;
  requests.reserve(count);
  for (size_t n = 0; n < count; ++n) {
    const int pick = mix(rng);
    if (pick < 6) {
      const size_t i = objects.Next();
      requests.push_back({QueryKind::kTruth, TruthRequest(universe, i, prop(rng))});
    } else if (pick < 9) {
      requests.push_back({QueryKind::kSource, SourceRequest(universe, sources.Next())});
    } else {
      requests.push_back({QueryKind::kWeights, kWeightsRequest});
    }
  }
  return requests;
}

struct ServeRun::State {
  State(const WorkloadSpec& spec_in, const WorkloadData& data_in,
        const crh::Dataset& universe_in, const ServeSettings& settings_in, Report* report_in)
      : spec(spec_in),
        data(data_in),
        universe(universe_in),
        settings(settings_in),
        report(report_in),
        per_round(std::max<uint64_t>(
            1, static_cast<uint64_t>(std::llround(settings.seconds * spec.chunk_rate)) /
                   static_cast<uint64_t>(spec.rounds))) {}

  const WorkloadSpec& spec;
  const WorkloadData& data;
  const crh::Dataset& universe;
  const ServeSettings settings;
  Report* report;
  /// Chunks each round streams (each recovery cycle then adds one).
  const uint64_t per_round;

  // The round's daemon, with its visibility poller.
  Spawned live;
  std::unique_ptr<StatusPoller> poller;
  /// The round's ingest lines by seq, encoded before the round starts.
  std::vector<std::string> lines;
  std::vector<std::vector<QueryRequest>> reader_requests;
  std::vector<size_t> reader_cursors;
  std::vector<std::string> recovery_requests;

  // Samples, pooled over the rounds.
  std::vector<double> setup_s, recover_s, replay_from, rss_mb, checkpoint_mb, ping_us;
  std::vector<double> ack_ms, visible_ms, late_ms, queue_depth;
  std::vector<double> query_us[3];
  std::vector<double> window_p99_us;
  double stream_seconds = 0.0;
  uint64_t stream_claims = 0;
  uint64_t shed = 0;

  uint64_t Claims(int round, uint64_t seq) const {
    return data.payload_claims[(static_cast<uint64_t>(round) * per_round + seq) %
                               data.payload_claims.size()];
  }

  /// Spawns the round's daemon (cold, or resuming its checkpoint) and
  /// returns once it answered its first ping; the poller starts after.
  crh::Status StartLive(bool resume) {
    auto started = StartDaemon(settings, kSocket, kCheckpointDir, resume);
    ++report->attempted;
    if (!started.ok()) return started.status();
    live = std::move(started).ValueOrDie();
    return crh::Status::OK();
  }
  crh::Status StartPoller() {
    poller = std::make_unique<StatusPoller>(spec.poll_interval_ms * 1e-3);
    return poller->Start();
  }
  void StopPoller() {
    if (poller == nullptr) return;
    poller->Stop();
    report->Count(poller->polls(), poller->failures());
    poller.reset();
  }

  /// Sends seq [0, per_round) in the workload's loop, with the readers
  /// running alongside.
  crh::Status StreamSlice(int round) {
    IngestLog log;
    std::atomic<bool> stop{false};
    std::vector<ReaderLog> logs(reader_requests.size());
    std::vector<std::thread> readers;
    for (size_t j = 0; j < reader_requests.size(); ++j) {
      readers.emplace_back(RunReader, std::cref(reader_requests[j]), &reader_cursors[j],
                           std::cref(stop), &logs[j]);
    }
    const double start = Now();
    if (spec.in_flight > 0) {
      // Closed loop: never more than in_flight chunks sent but not applied,
      // which keeps the queue below its capacity of 8, so nothing is shed.
      const auto window = static_cast<uint64_t>(spec.in_flight);
      for (uint64_t seq = 0; seq < per_round; ++seq) {
        if (seq >= window && !poller->WaitApplied(seq - window + 1, Now() + 60.0)) break;
        poller->Sent(seq);
        if (!Ingest(*live.conn, lines[seq], seq, Claims(round, seq), Now(), &log)) break;
      }
    } else {
      // Open loop at a fixed rate; each ack is timed from its due time.
      for (uint64_t seq = 0; seq < per_round; ++seq) {
        const double due = start + static_cast<double>(seq) / spec.feed_rate;
        SleepUntil(due);
        log.late_ms.push_back((Now() - due) * 1e3);
        poller->Sent(seq);
        if (!Ingest(*live.conn, lines[seq], seq, Claims(round, seq), due, &log)) break;
      }
    }
    stop.store(true, std::memory_order_release);
    for (std::thread& t : readers) t.join();
    AddReaders(logs);
    report->Count(log.sent, log.failed);
    if (log.failed > 0 || log.sent < per_round) {
      return crh::Status::IOError("ingest failed in the timed stream");
    }
    if (!poller->WaitSolved(per_round, Now() + 120.0)) {
      return crh::Status::IOError("ingested chunks never became visible");
    }
    for (uint64_t seq = 0; seq < per_round; ++seq) {
      const double shown = poller->visible_at(seq);
      const double acked = log.ack_time[seq];
      if (!std::isnan(shown) && !std::isnan(acked)) {
        visible_ms.push_back(std::max(0.0, shown - acked) * 1e3);
      }
    }
    stream_seconds += poller->visible_at(per_round - 1) - start;
    stream_claims += log.claims;
    ack_ms.insert(ack_ms.end(), log.ack_ms.begin(), log.ack_ms.end());
    late_ms.insert(late_ms.end(), log.late_ms.begin(), log.late_ms.end());
    queue_depth.insert(queue_depth.end(), log.queue_depth.begin(), log.queue_depth.end());
    return crh::Status::OK();
  }

  /// Pools the readers' samples. The tail metric is taken per window of
  /// kTailWindow consecutive requests of one reader.
  void AddReaders(const std::vector<ReaderLog>& logs) {
    for (const ReaderLog& log : logs) {
      report->Count(log.sent, log.failed);
      for (int k = 0; k < 3; ++k) {
        query_us[k].insert(query_us[k].end(), log.us[k].begin(), log.us[k].end());
      }
      for (size_t at = 0; at + kTailWindow <= log.pooled.size(); at += kTailWindow) {
        std::vector<double> window(log.pooled.begin() + static_cast<long>(at),
                                   log.pooled.begin() + static_cast<long>(at + kTailWindow));
        std::sort(window.begin(), window.end());
        window_p99_us.push_back(PercentileOfSorted(window, 99.0));
      }
    }
  }

  /// One `status` request on the live daemon's connection, parsed.
  crh::Result<crh::JsonObject> StatusReply() {
    auto reply = live.conn->Request("{\"cmd\":\"status\"}");
    ++report->attempted;
    if (!reply.ok()) return reply.status();
    return crh::ParseJsonObject(*reply, kMaxProtocolLine);
  }

  /// Reads the live daemon's counters: nothing may have been shed, and
  /// ingest must not have failed.
  crh::Status CheckCounters() {
    auto parsed = StatusReply();
    if (!parsed.ok()) return parsed.status();
    auto daemon_shed = parsed->GetUint("shed");
    if (!daemon_shed.ok()) return daemon_shed.status();
    shed += *daemon_shed;
    const crh::JsonValue* failed = parsed->Find("ingest_failed");
    if (failed == nullptr || failed->bool_value) {
      return crh::Status::Internal("the daemon reports ingest_failed");
    }
    return crh::Status::OK();
  }

  /// Compares the daemon's answers with an in-process StreamEngine fed the
  /// same chunks: the weights and every source, and every truth entry or a
  /// seeded sample of them.
  crh::Status CheckAgainstReference(int round) {
    auto engine = crh::StreamEngine::Open(universe, ServedSolverOptions(),
                                          crh::StreamResilienceOptions{});
    if (!engine.ok()) return engine.status();
    crh::ChunkCodec codec(universe);
    for (uint64_t seq = 0; seq < per_round; ++seq) {
      auto chunk = codec.Decode(RoundPayload(data, per_round, round, seq),
                                static_cast<int64_t>(seq), false);
      if (!chunk.ok()) return chunk.status();
      CRH_RETURN_NOT_OK((*engine)->ApplyChunk(*chunk, false));
    }
    std::vector<std::string> requests = {kWeightsRequest};
    std::vector<std::string> expected = {ExpectedWeights(universe, (*engine)->source_weights())};
    for (size_t k = 0; k < universe.num_sources(); ++k) {
      requests.push_back(SourceRequest(universe, k));
      expected.push_back(ExpectedSource(**engine, k));
    }
    for (const auto& [i, m] : CheckEntries(universe, spec.check_sample, settings.seed)) {
      requests.push_back(TruthRequest(universe, i, m));
      expected.push_back(ExpectedTruth(universe, (*engine)->truths(), i, m));
    }
    Compare(requests, Capture(*live.conn, requests, report), expected,
            "daemon vs in-process StreamEngine", report);
    return crh::Status::OK();
  }

  /// SIGKILL, restart with --resume, compare answers with the ones before
  /// the kill, replay the stream from the next_seq the resumed daemon
  /// reports and apply one new chunk (seq `applied`). The sample leaves out
  /// the comparison between its two timed stretches.
  crh::Status Recover(int round, uint64_t applied) {
    const std::vector<std::string> before = Capture(*live.conn, recovery_requests, report);
    CRH_RETURN_NOT_OK(CheckCounters());
    StopPoller();
    live.conn.reset();
    const double t0 = Now();
    live.daemon->Kill();
    live.daemon.reset();
    CRH_RETURN_NOT_OK(StartLive(/*resume=*/true));
    const double t1 = Now();
    Compare(recovery_requests, Capture(*live.conn, recovery_requests, report), before,
            "resumed daemon vs daemon before the kill", report);
    CRH_RETURN_NOT_OK(StartPoller());
    const double t2 = Now();
    // Chunks below next_seq survived the kill and would be acked as
    // duplicates; a daemon that does not keep its ingest position reports 0.
    auto status = StatusReply();
    if (!status.ok()) return status.status();
    auto next_seq = status->GetUint("next_seq");
    if (!next_seq.ok()) return next_seq.status();
    if (*next_seq > applied) {
      return crh::Status::Internal("the resumed daemon reports next_seq " +
                                   std::to_string(*next_seq) + " past the new chunk");
    }
    const uint64_t first = *next_seq;
    replay_from.push_back(static_cast<double>(first));
    IngestLog replay;
    // Replays keep 6 chunks in flight, still below the queue capacity of 8.
    constexpr uint64_t window = 6;
    bool ok = true;
    for (uint64_t seq = first; seq <= applied && ok; ++seq) {
      ok = seq < first + window || poller->WaitApplied(seq - window + 1, Now() + 60.0);
      if (ok) poller->Sent(seq);
      ok = ok && Ingest(*live.conn, lines[seq], seq, Claims(round, seq), Now(), &replay);
    }
    ok = ok && poller->WaitSolved(applied + 1, Now() + 60.0);
    const double t3 = Now();
    report->Count(replay.sent, replay.failed);
    if (!ok) return crh::Status::IOError("recovery replay did not complete");
    recover_s.push_back((t1 - t0) + (t3 - t2));
    return crh::Status::OK();
  }

  /// Drains the resumed daemon; its VmHWM just before and its final
  /// checkpoint are the ones measured.
  crh::Status Drain() {
    CRH_RETURN_NOT_OK(CheckCounters());
    StopPoller();
    live.conn.reset();
    rss_mb.push_back(live.daemon->PeakRssMb());
    auto exit_code = live.daemon->Terminate(kDrainTimeoutS);
    ++report->attempted;
    live.daemon.reset();
    if (!exit_code.ok()) return exit_code.status();
    if (*exit_code != 0) return crh::Status::Internal("drain exited nonzero");
    checkpoint_mb.push_back(NewestCheckpointMb());
    return crh::Status::OK();
  }

  /// Extra cold starts on a second socket and checkpoint directory.
  crh::Status ColdStarts(int count) {
    for (int n = 0; n < count; ++n) {
      ResetDir(kColdCheckpointDir);
      const double t0 = Now();
      auto started = StartDaemon(settings, kColdSocket, kColdCheckpointDir, false);
      const double t1 = Now();
      ++report->attempted;
      if (!started.ok()) return started.status();
      setup_s.push_back(t1 - t0);
    }
    return crh::Status::OK();
  }

  void Pings(int count) {
    uint64_t failed = 0;
    for (int n = 0; n < count; ++n) {
      const double t0 = Now();
      auto pong = live.conn->Request("{\"cmd\":\"ping\"}");
      const double t1 = Now();
      if (!pong.ok() || !ReplyOk(*pong)) {
        ++failed;
        std::printf("FAILED: ping -> %s\n",
                    pong.ok() ? pong->c_str() : pong.status().ToString().c_str());
        continue;
      }
      ping_us.push_back((t1 - t0) * 1e6);
    }
    report->Count(static_cast<uint64_t>(count), failed);
  }
};

ServeRun::ServeRun(const WorkloadSpec& spec, const WorkloadData& data,
                   const crh::Dataset& universe, const ServeSettings& settings, Report* report)
    : state_(std::make_unique<State>(spec, data, universe, settings, report)) {
  State& s = *state_;
  for (int j = 0; j < spec.readers; ++j) {
    s.reader_requests.push_back(MakeQueryRequests(
        universe, settings.seed * 1000003u + static_cast<uint64_t>(j), kRequestsPerReader));
  }
  s.reader_cursors.assign(s.reader_requests.size(), 0);
  s.recovery_requests.push_back(kWeightsRequest);
  for (size_t k = 0; k < universe.num_sources(); ++k) {
    s.recovery_requests.push_back(SourceRequest(universe, k));
  }
  for (const auto& [i, m] : CheckEntries(universe, kRecoveryTruthSample, settings.seed + 1)) {
    s.recovery_requests.push_back(TruthRequest(universe, i, m));
  }
}

ServeRun::~ServeRun() = default;

crh::Status ServeRun::Round(int round, const std::function<crh::Status()>& interlude) {
  State& s = *state_;
  s.lines.clear();
  constexpr auto recoveries = static_cast<uint64_t>(kRecoveriesPerRound);
  for (uint64_t seq = 0; seq < s.per_round + recoveries; ++seq) {
    s.lines.push_back(IngestLine(seq, static_cast<int64_t>(seq),
                                 RoundPayload(s.data, s.per_round, round, seq)));
  }
  ResetDir(kCheckpointDir);
  const double t0 = Now();
  CRH_RETURN_NOT_OK(s.StartLive(/*resume=*/false));
  s.setup_s.push_back(Now() - t0);
  CRH_RETURN_NOT_OK(s.ColdStarts(s.spec.cold_starts_per_round - 1));
  CRH_RETURN_NOT_OK(interlude());
  CRH_RETURN_NOT_OK(s.StartPoller());
  s.Pings(kPings / s.spec.rounds);
  CRH_RETURN_NOT_OK(s.StreamSlice(round));
  if (round + 1 == s.spec.rounds) CRH_RETURN_NOT_OK(s.CheckAgainstReference(round));
  for (uint64_t n = 0; n < recoveries; ++n) {
    CRH_RETURN_NOT_OK(interlude());
    CRH_RETURN_NOT_OK(s.Recover(round, s.per_round + n));
  }
  CRH_RETURN_NOT_OK(s.Drain());
  return interlude();
}

ServeOutcome ServeRun::Finish() {
  State& s = *state_;
  Report* report = s.report;
  ServeOutcome outcome;
  outcome.rounds = s.spec.rounds;
  outcome.chunks_per_round = s.per_round;
  if (s.live.daemon != nullptr) s.live.daemon->Kill();  // a failed round's daemon

  std::vector<double> all_queries_us;
  for (const auto& samples : s.query_us) {
    all_queries_us.insert(all_queries_us.end(), samples.begin(), samples.end());
  }
  PrintSamples("cold starts (s)", s.setup_s);
  PrintSamples("recovery cycles (s)", s.recover_s);
  PrintSamples("recovery replays start at next_seq", s.replay_from);
  PrintSamples("VmHWM before each drain (MB)", s.rss_mb);
  std::printf("serve timings over %d rounds of %llu chunks (status poll interval %.3f ms; "
              "%d unpaced reader(s) during the stream):\n",
              s.spec.rounds, static_cast<unsigned long long>(s.per_round),
              s.spec.poll_interval_ms, s.spec.readers);
  PrintDistribution("ack_ms", s.ack_ms, "ms");
  PrintDistribution("visible_ms", s.visible_ms, "ms");
  for (int k = 0; k < 3; ++k) {
    PrintDistribution((std::string(kQueryKindNames[k]) + "_us").c_str(), s.query_us[k], "us");
  }
  PrintDistribution("query_us (pooled)", all_queries_us, "us");
  PrintSamples("query p99 per window of 20000 requests (us)", s.window_p99_us);
  PrintDistribution("ping_us", s.ping_us, "us");
  if (!s.late_ms.empty()) PrintDistribution("generator_late_ms", s.late_ms, "ms");
  std::printf("  timed stream: %llu claims in %.3f s\n",
              static_cast<unsigned long long>(s.stream_claims), s.stream_seconds);

  outcome.ack_p50_ms = Summarize(s.ack_ms).p50;
  outcome.visible_p50_ms = Summarize(s.visible_ms).p50;
  std::printf("end-to-end (serve):\n");
  report->EndToEnd("setup_s", Median(s.setup_s), "s");
  report->EndToEnd("ingest_claims_per_s",
                   static_cast<double>(s.stream_claims) / s.stream_seconds, "claims/s");
  report->EndToEnd("ack_p50_ms", outcome.ack_p50_ms, "ms");
  report->EndToEnd("visible_p50_ms", outcome.visible_p50_ms, "ms");
  report->EndToEnd("recover_s", Median(s.recover_s), "s");
  report->EndToEnd("rss_peak_mb", Median(s.rss_mb), "MB");
  report->EndToEnd("checkpoint_mb", Median(s.checkpoint_mb), "MB");
  for (int k = 0; k < 3; ++k) {
    report->EndToEnd(std::string(kQueryKindNames[k]) + "_p50_us", Summarize(s.query_us[k]).p50,
                     "us");
  }
  std::printf("per-layer (serve, from the end-to-end run):\n");
  // The tail is robust to a few slow stretches of the machine (the median
  // of the pooled p99 of every window of kTailWindow requests), but not to
  // a slow phase of the whole host, so it is not gated.
  report->Layer("query.p99_us", Median(s.window_p99_us), "us");
  report->Layer("admission.queue_depth_p50", Summarize(s.queue_depth).p50, "count");
  report->Layer("admission.shed", static_cast<double>(s.shed), "count");
  report->Layer("transport.ping_rtt_us", Summarize(s.ping_us).p50, "us");
  return outcome;
}

}  // namespace perfbench
