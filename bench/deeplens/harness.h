// Shared machinery of the end-to-end benchmark driver: the workload
// interface, in-memory span recording, per-client request logs, the
// closed-loop load loop, counter snapshots of the library's public Stats()
// accessors, and the derivation of every reported metric from them.
//
// Everything here observes the library from outside: spans time the
// driver's own calls into a layer, and counters are deltas of public
// accessors taken around the measured phase.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "core/planner.h"
#include "core/session.h"
#include "exec/scheduler.h"

namespace deeplens {
namespace e2e {

// --- Order statistics and digests ------------------------------------------

/// Linear-interpolated percentile `p` in [0, 100]; 0 for an empty sample.
double Percentile(std::vector<double> values, double p);

/// a / b, or 0 when b is 0 (metrics must stay finite).
double Ratio(double a, double b);

/// Order-sensitive FNV-1a digest of a sequence of 64-bit words. Answers
/// are compared with the oracle by digest, so a request never copies its
/// result just to be checked. A row set digests as its ids in order
/// followed by its row count; a pair list as each pair's two ids followed
/// by the pair count.
class Digest {
 public:
  void Add(uint64_t word);
  void Add(const std::string& s);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

uint64_t DigestIds(const PatchCollection& rows);
uint64_t DigestPairs(const std::vector<PatchTuple>& pairs);
uint64_t DigestGroups(const std::map<std::string, uint64_t>& groups);

/// Deterministic 64-bit seed for sub-stream `stream` of run seed `seed`.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

// --- Spans -----------------------------------------------------------------

/// One timed interval. `parent` indexes the enclosing span in the same
/// log (-1 for a request root); `request` numbers the request it belongs
/// to, so all spans of one request share it.
struct Span {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
  int32_t parent;
  uint32_t request;
};

/// Spans of one client thread, kept in memory until the run ends. A
/// disabled log records nothing and costs one branch per call.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span starting now as a child of the innermost open span (a
  /// new request root when none is open). Returns its index, or -1 when
  /// disabled.
  int32_t Open(const char* name);
  void Close(int32_t index);

  /// Records an already-finished child of the innermost open span.
  void Add(const char* name, uint64_t start_ns, uint64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  uint32_t requests_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), index_(log != nullptr ? log->Open(name) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) log_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int32_t index_;
};

// --- Requests --------------------------------------------------------------

/// What one load thread saw: its spans, its per-request latencies and
/// its failures. Owned by that thread while the load runs.
struct ClientLog {
  explicit ClientLog(bool trace) : spans(trace) {}

  /// Records a finished request whose latency counts from `from_ns`.
  void Record(uint64_t from_ns, uint64_t end_ns, const Status& status);
  /// Records an answer that disagrees with the oracle.
  void Wrong(const std::string& what);

  SpanLog spans;
  std::vector<double> latency_ms;
  uint64_t attempted = 0;
  uint64_t errors = 0;
  uint64_t saturated = 0;
  uint64_t wrong = 0;
  std::string first_problem;
};

/// Runs `query` (returning Status) as one admitted query of `session`:
/// the request root span covers the Session::Run call, with a
/// "serving.admit" child from the call to the query starting.
template <typename Fn>
Status RunAdmitted(Session* session, SpanLog* spans, Fn&& query) {
  ScopedSpan request(spans, "request");
  const uint64_t called = NowNanos();
  return session->Run([&]() -> Status {
    spans->Add("serving.admit", called, NowNanos());
    return query();
  });
}

/// Accumulates what the planner reported for the requests of one client.
struct PlanTally {
  void AddPlan(const PlanExplanation& plan);
  /// A scan that returned `rows` after fetching `plan.candidates`.
  void AddRows(const PlanExplanation& plan, uint64_t rows);
  void AddJoin(const JoinStats& stats);
  void Merge(const PlanTally& other);

  uint64_t plans = 0;
  uint64_t index_paths = 0;
  uint64_t reordered = 0;
  uint64_t candidates = 0;
  uint64_t result_rows = 0;
  uint64_t columnar_scans = 0;
  uint64_t chunks_total = 0;
  uint64_t chunks_pruned = 0;
  uint64_t chunks_read = 0;
  uint64_t bytes_decoded = 0;
  uint64_t consumer_waits = 0;
  uint64_t budget_waits = 0;
  uint64_t joins = 0;
  JoinStats join_sums;
};

/// Public counters of one database and the process-wide planner and
/// scheduler, read at one instant.
struct CounterSnapshot {
  static CounterSnapshot Take(Database* db);

  CacheStats inference;
  CacheStats segment;
  InflightStats inflight;
  ServingStats serving;
  Planner::PlanCacheStats plans;
  SchedulerStats scheduler;
};

// --- Reports -----------------------------------------------------------------

/// Outcome of one run: request accounting plus every metric by name.
struct Report {
  void Absorb(const ClientLog& log);
  /// Records a failed post-run check (an oracle mismatch).
  void Problem(const std::string& what);
  uint64_t failed() const { return errors + saturated + wrong; }

  uint64_t attempted = 0;
  uint64_t errors = 0;
  uint64_t saturated = 0;
  uint64_t wrong = 0;
  std::vector<std::string> problems;
  std::map<std::string, double> metrics;
};

/// The measured phase of one workload, reduced to what the metrics need.
/// Fields a workload does not exercise stay empty or zero, and so do
/// the metrics derived from them.
struct Measurement {
  // End to end.
  double requests_per_s = 0.0;
  std::vector<double> latency_ms;
  double accuracy_f1 = 0.0;
  // Per layer.
  std::vector<SpanLog> spans;  // one per load thread
  CounterSnapshot before;
  CounterSnapshot after;
  PlanTally plans;
  uint64_t requests = 0;
  uint64_t frames = 0;  // ETL frames processed
  uint64_t clips = 0;   // ETL clips processed
  double elapsed_s = 0.0;
  uint64_t stored_bytes = 0;
  uint64_t stored_rows = 0;
  double scan_rows_per_s = 0.0;
  double index_build_ms = 0.0;
  std::vector<double> generator_lag_ms;
  // Effective configuration of the database under load.
  uint64_t cache_budget_bytes = 0;
};

/// Folds a finished load thread into the run: its accounting into
/// `report`, its attempts into `m->requests`, its spans into `m->spans`
/// and, when `latencies` is set, its latencies into `m->latency_ms`.
void Collect(ClientLog log, bool latencies, Report* report, Measurement* m);

/// Runs `clients` closed-loop load threads for `seconds`, each with its
/// own Session, over a list of `list_size` requests. Client c starts at
/// entry c * list_size / clients and calls `request(i, &session, &log,
/// &tally)` for successive entries i, wrapping around, until the
/// deadline; `request` issues entry i and records it in `log`. Fills the
/// counters, elapsed time, request rate, latencies, plan tallies and
/// spans of `m`.
template <typename Fn>
void RunClosedLoop(Database* db, int clients, size_t list_size,
                   double seconds, bool trace, Fn&& request, Report* report,
                   Measurement* m) {
  std::vector<ClientLog> logs;
  for (int c = 0; c < clients; ++c) logs.emplace_back(trace);
  std::vector<PlanTally> tallies(logs.size());
  m->before = CounterSnapshot::Take(db);
  const uint64_t start = NowNanos();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < logs.size(); ++c) {
    threads.emplace_back([&, c] {
      Session session = db->CreateSession();
      for (size_t i = c * list_size / logs.size(); NowNanos() < deadline;
           ++i) {
        request(i % list_size, &session, &logs[c], &tallies[c]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  m->elapsed_s = static_cast<double>(NowNanos() - start) / 1e9;
  m->after = CounterSnapshot::Take(db);
  m->cache_budget_bytes = db->cache_config().budget_bytes;
  for (size_t c = 0; c < logs.size(); ++c) {
    m->plans.Merge(tallies[c]);
    Collect(std::move(logs[c]), /*latencies=*/true, report, m);
  }
  m->requests_per_s = static_cast<double>(m->requests) / m->elapsed_s;
}

/// Fills the end-to-end metrics except setup_s and peak_rss_mb, which
/// the driver measures around the workload.
void FillEndToEnd(const Measurement& m, Report* report);

/// Fills every per-layer metric (0 where the workload has no such work).
/// `span_cost_ns` is the measured cost of recording one span.
void FillLayers(const Measurement& m, double span_cost_ns, Report* report);

/// Measures the cost of opening and closing one span.
double MeasureSpanCostNs();

/// Writes every span of `m` to `path`, one JSON object per line with the
/// keys client, request, span, parent, name, start_ns and end_ns. `span`
/// and `parent` index the client's spans (parent -1 for a request root).
Status WriteSpans(const Measurement& m, const std::string& path);

// --- Workloads -------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the database and its inputs under `dir` and warms it up. The
  /// driver times this call as set-up and repeats it on fresh instances.
  virtual Status SetUp(const std::string& dir) = 0;

  /// Computes the oracle's answers on the naive path (untimed).
  virtual Status PrepareOracle() = 0;

  /// Runs the load for `seconds`, checks every answer and fills `m`.
  virtual Status Measure(double seconds, bool trace, Report* report,
                         Measurement* m) = 0;
};

/// The workload named `name` for run seed `seed`; null for unknown names.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed);

std::unique_ptr<Workload> MakeEtlIngest(uint64_t seed);
std::unique_ptr<Workload> MakeMetaMix(uint64_t seed);
std::unique_ptr<Workload> MakeUdfMix(uint64_t seed);
std::unique_ptr<Workload> MakeColumnarScan(uint64_t seed);

}  // namespace e2e
}  // namespace deeplens
