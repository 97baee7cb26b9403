#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

namespace deeplens {
namespace e2e {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - std::floor(rank));
}

double Ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

void Digest::Add(uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (word >> (8 * i)) & 0xff;
    h_ *= 0x100000001b3ull;
  }
}

void Digest::Add(const std::string& s) {
  Add(s.size());
  for (unsigned char c : s) {
    h_ ^= c;
    h_ *= 0x100000001b3ull;
  }
}

uint64_t DigestIds(const PatchCollection& rows) {
  Digest d;
  for (const Patch& p : rows) d.Add(p.id());
  d.Add(rows.size());
  return d.value();
}

uint64_t DigestPairs(const std::vector<PatchTuple>& pairs) {
  Digest d;
  for (const PatchTuple& t : pairs) {
    for (const Patch& p : t) d.Add(p.id());
  }
  d.Add(pairs.size());
  return d.value();
}

uint64_t DigestGroups(const std::map<std::string, uint64_t>& groups) {
  Digest d;
  for (const auto& [key, count] : groups) {
    d.Add(key);
    d.Add(count);
  }
  return d.value();
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// --- Spans -----------------------------------------------------------------

int32_t SpanLog::Open(const char* name) {
  if (!enabled_) return -1;
  const int32_t parent = open_.empty() ? -1 : open_.back();
  if (parent < 0) ++requests_;
  const int32_t index = static_cast<int32_t>(spans_.size());
  spans_.push_back(Span{name, NowNanos(), 0, parent, requests_});
  open_.push_back(index);
  return index;
}

void SpanLog::Close(int32_t index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNanos();
  open_.pop_back();
}

void SpanLog::Add(const char* name, uint64_t start_ns, uint64_t end_ns) {
  if (!enabled_) return;
  const int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, start_ns, end_ns, parent, requests_});
}

// --- Requests --------------------------------------------------------------

void ClientLog::Record(uint64_t from_ns, uint64_t end_ns,
                       const Status& status) {
  ++attempted;
  if (status.ok()) {
    latency_ms.push_back(static_cast<double>(end_ns - from_ns) / 1e6);
    return;
  }
  if (status.IsSaturated()) {
    ++saturated;
  } else {
    ++errors;
  }
  if (first_problem.empty()) first_problem = status.ToString();
}

void ClientLog::Wrong(const std::string& what) {
  ++wrong;
  if (first_problem.empty()) first_problem = "wrong answer: " + what;
}

void PlanTally::AddPlan(const PlanExplanation& plan) {
  ++plans;
  if (plan.path == AccessPath::kHashLookup ||
      plan.path == AccessPath::kBTreeLookup ||
      plan.path == AccessPath::kBTreeRange) {
    ++index_paths;
  }
  if (plan.reordered) ++reordered;
  if (plan.columnar.used) {
    ++columnar_scans;
    chunks_total += plan.columnar.chunks_total;
    chunks_pruned += plan.columnar.chunks_pruned;
    chunks_read += plan.columnar.chunks_read;
    bytes_decoded += plan.columnar.bytes_decoded;
    consumer_waits += plan.columnar.consumer_waits;
    budget_waits += plan.columnar.budget_waits;
  }
}

void PlanTally::AddRows(const PlanExplanation& plan, uint64_t rows) {
  candidates += plan.candidates;
  result_rows += rows;
}

void PlanTally::AddJoin(const JoinStats& stats) {
  ++joins;
  join_sums.index_build_millis += stats.index_build_millis;
  join_sums.partition_millis += stats.partition_millis;
  join_sums.probe_millis += stats.probe_millis;
  join_sums.merge_millis += stats.merge_millis;
  join_sums.max_partition_skew += stats.max_partition_skew;
}

void PlanTally::Merge(const PlanTally& o) {
  plans += o.plans;
  index_paths += o.index_paths;
  reordered += o.reordered;
  candidates += o.candidates;
  result_rows += o.result_rows;
  columnar_scans += o.columnar_scans;
  chunks_total += o.chunks_total;
  chunks_pruned += o.chunks_pruned;
  chunks_read += o.chunks_read;
  bytes_decoded += o.bytes_decoded;
  consumer_waits += o.consumer_waits;
  budget_waits += o.budget_waits;
  joins += o.joins;
  join_sums.index_build_millis += o.join_sums.index_build_millis;
  join_sums.partition_millis += o.join_sums.partition_millis;
  join_sums.probe_millis += o.join_sums.probe_millis;
  join_sums.merge_millis += o.join_sums.merge_millis;
  join_sums.max_partition_skew += o.join_sums.max_partition_skew;
}

CounterSnapshot CounterSnapshot::Take(Database* db) {
  CounterSnapshot s;
  s.inference = db->inference_cache()->Stats();
  s.segment = db->segment_cache()->Stats();
  s.inflight = db->inflight_table()->Stats();
  s.serving = db->admission_gate()->Stats();
  s.plans = Planner::GetPlanCacheStats();
  s.scheduler = MorselScheduler::Global().Stats();
  return s;
}

// --- Reports -----------------------------------------------------------------

void Report::Absorb(const ClientLog& log) {
  attempted += log.attempted;
  errors += log.errors;
  saturated += log.saturated;
  wrong += log.wrong;
  if (!log.first_problem.empty()) problems.push_back(log.first_problem);
}

void Report::Problem(const std::string& what) {
  ++wrong;
  problems.push_back(what);
}

void Collect(ClientLog log, bool latencies, Report* report, Measurement* m) {
  report->Absorb(log);
  m->requests += log.attempted;
  if (latencies) {
    m->latency_ms.insert(m->latency_ms.end(), log.latency_ms.begin(),
                         log.latency_ms.end());
  }
  m->spans.push_back(std::move(log.spans));
}

void FillEndToEnd(const Measurement& m, Report* report) {
  auto& out = report->metrics;
  out["requests_per_s"] = m.requests_per_s;
  out["latency_p50_ms"] = Percentile(m.latency_ms, 50);
  out["latency_p95_ms"] = Percentile(m.latency_ms, 95);
  out["accuracy_f1"] = m.accuracy_f1;
}

namespace {

// Durations (ms) of every span called `name`.
std::vector<double> SpanMs(const Measurement& m, const std::string& name) {
  std::vector<double> out;
  for (const SpanLog& log : m.spans) {
    for (const Span& s : log.spans()) {
      if (name == s.name) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
      }
    }
  }
  return out;
}

double SumMs(const Measurement& m, const std::string& name) {
  double total = 0.0;
  for (double v : SpanMs(m, name)) total += v;
  return total;
}

// Durations of the one exec-layer call each query request makes.
std::vector<double> ExecCallMs(const Measurement& m) {
  std::vector<double> out;
  for (const SpanLog& log : m.spans) {
    for (const Span& s : log.spans()) {
      if (std::string(s.name).rfind("exec.", 0) == 0) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
      }
    }
  }
  return out;
}

// Share of request time covered by the request's top-level child spans.
double Coverage(const Measurement& m) {
  double roots = 0.0;
  double children = 0.0;
  for (const SpanLog& log : m.spans) {
    const std::vector<Span>& spans = log.spans();
    for (const Span& s : spans) {
      const double ns = static_cast<double>(s.end_ns - s.start_ns);
      if (s.parent < 0) {
        roots += ns;
      } else if (spans[static_cast<size_t>(s.parent)].parent < 0) {
        children += ns;
      }
    }
  }
  return Ratio(children, roots);
}

}  // namespace

void FillLayers(const Measurement& m, double span_cost_ns, Report* report) {
  auto& out = report->metrics;
  const double requests = static_cast<double>(m.requests);
  const CounterSnapshot& a = m.before;
  const CounterSnapshot& b = m.after;

  // serving
  out["serving.admit_wait_p99_ms"] = Percentile(SpanMs(m, "serving.admit"), 99);
  out["serving.rejected"] = static_cast<double>(
      b.serving.rejected_saturated - a.serving.rejected_saturated);

  // planner + index
  const double plan_hits = static_cast<double>(b.plans.hits - a.plans.hits);
  const double plan_misses =
      static_cast<double>(b.plans.misses - a.plans.misses);
  out["planner.plan_cache_hit_rate"] =
      Ratio(plan_hits, plan_hits + plan_misses);
  const PlanTally& t = m.plans;
  out["planner.index_path_fraction"] = Ratio(t.index_paths, t.plans);
  out["planner.reordered_fraction"] = Ratio(t.reordered, t.plans);
  out["index.candidates_per_result"] = Ratio(t.candidates, t.result_rows);
  out["index.build_ms"] = m.index_build_ms;

  // exec
  const std::vector<double> calls = ExecCallMs(m);
  out["exec.call_ms_p50"] = Percentile(calls, 50);
  out["exec.call_ms_p99"] = Percentile(calls, 99);
  const double joins = static_cast<double>(t.joins);
  out["exec.join_build_ms"] = Ratio(t.join_sums.index_build_millis, joins);
  out["exec.join_partition_ms"] = Ratio(t.join_sums.partition_millis, joins);
  out["exec.join_probe_ms"] = Ratio(t.join_sums.probe_millis, joins);
  out["exec.join_merge_ms"] = Ratio(t.join_sums.merge_millis, joins);
  out["exec.join_skew"] = Ratio(t.join_sums.max_partition_skew, joins);
  out["exec.morsel_tasks_per_request"] = Ratio(
      static_cast<double>(b.scheduler.tasks - a.scheduler.tasks), requests);
  out["exec.peak_active_sets"] =
      static_cast<double>(b.scheduler.peak_active_sets);

  // cache + nn
  const double hits = static_cast<double>(b.inference.hits - a.inference.hits);
  const double misses =
      static_cast<double>(b.inference.misses - a.inference.misses);
  out["cache.inference_hit_rate"] = Ratio(hits, hits + misses);
  out["cache.evictions_per_request"] = Ratio(
      static_cast<double>(b.inference.evictions - a.inference.evictions),
      requests);
  out["cache.admission_denied_per_request"] =
      Ratio(static_cast<double>(b.inference.admission_denied -
                                a.inference.admission_denied),
            requests);
  out["cache.inflight_joined_per_request"] = Ratio(
      static_cast<double>(b.inflight.joined - a.inflight.joined), requests);
  const double seg_hits = static_cast<double>(b.segment.hits - a.segment.hits);
  const double seg_misses =
      static_cast<double>(b.segment.misses - a.segment.misses);
  out["cache.segment_hit_rate"] = Ratio(seg_hits, seg_hits + seg_misses);
  out["nn.model_runs_per_request"] = Ratio(
      static_cast<double>(b.inflight.leaders - a.inflight.leaders), requests);
  out["nn.detect_ms_per_frame"] =
      Ratio(SumMs(m, "nn.detect"), static_cast<double>(m.frames));

  // storage
  const double scans = static_cast<double>(t.columnar_scans);
  out["storage.chunks_pruned_fraction"] =
      Ratio(t.chunks_pruned, t.chunks_total);
  out["storage.chunks_read_per_request"] = Ratio(t.chunks_read, scans);
  out["storage.bytes_decoded_per_request"] = Ratio(t.bytes_decoded, scans);
  out["storage.consumer_waits_per_request"] = Ratio(t.consumer_waits, scans);
  out["storage.budget_waits_per_request"] = Ratio(t.budget_waits, scans);
  const double clips = static_cast<double>(m.clips);
  out["storage.ingest_ms_per_clip"] = Ratio(SumMs(m, "storage.ingest"), clips);
  out["storage.persist_ms_per_clip"] =
      Ratio(SumMs(m, "storage.persist"), clips);
  out["storage.bytes_per_row"] = Ratio(m.stored_bytes, m.stored_rows);
  out["storage.scan_rows_per_s"] = m.scan_rows_per_s;

  // etl
  const double frames = static_cast<double>(m.frames);
  out["etl.decode_ms_per_frame"] = Ratio(SumMs(m, "etl.decode"), frames);
  out["etl.featurize_ms_per_frame"] =
      Ratio(SumMs(m, "etl.featurize"), frames);
  out["etl.depth_ms_per_frame"] = Ratio(SumMs(m, "etl.depth"), frames);
  out["etl.register_ms_per_clip"] = Ratio(SumMs(m, "etl.register"), clips);
  out["etl.frames_per_s"] = Ratio(frames, m.elapsed_s);

  // trace validity
  size_t spans = 0;
  double request_ns = 0.0;
  for (const SpanLog& log : m.spans) {
    spans += log.spans().size();
    for (const Span& s : log.spans()) {
      if (s.parent < 0) request_ns += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  out["trace.coverage"] = Coverage(m);
  out["trace.overhead_fraction"] =
      Ratio(static_cast<double>(spans) * span_cost_ns, request_ns);
  out["driver.generator_lag_p99_ms"] = Percentile(m.generator_lag_ms, 99);
}

double MeasureSpanCostNs() {
  constexpr int kSpans = 100000;
  SpanLog log(true);
  const uint64_t start = NowNanos();
  for (int i = 0; i < kSpans; ++i) {
    ScopedSpan span(&log, "calibration");
  }
  return static_cast<double>(NowNanos() - start) / kSpans;
}

Status WriteSpans(const Measurement& m, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  for (size_t client = 0; client < m.spans.size(); ++client) {
    const std::vector<Span>& spans = m.spans[client].spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "{\"client\": %zu, \"request\": %u, \"span\": %zu, "
                   "\"parent\": %d, \"name\": \"%s\", \"start_ns\": %llu, "
                   "\"end_ns\": %llu}\n",
                   client, s.request, i, s.parent, s.name,
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
  }
  const bool failed = std::ferror(f) != 0;
  if (std::fclose(f) != 0 || failed) {
    return Status::IOError("cannot write " + path);
  }
  return Status::OK();
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "etl_ingest") return MakeEtlIngest(seed);
  if (name == "meta_mix") return MakeMetaMix(seed);
  if (name == "udf_mix") return MakeUdfMix(seed);
  if (name == "columnar_scan") return MakeColumnarScan(seed);
  return nullptr;
}

}  // namespace e2e
}  // namespace deeplens
