// End-to-end DeepLens benchmark driver: one workload per process.
//
//   bench_deeplens --workload NAME --seed N --duration_s S --scratch DIR
//                  [--trace FILE]
//
// Builds the workload's database three times from the seed (the median
// of those set-ups is `setup_s`), computes the oracle's answers on a
// naive path, runs the load for S seconds while checking every answer,
// and prints one JSON object as the last line of stdout:
//
//   {"correct": true, "attempted": N, "failed": N, "config": {...},
//    "metrics": {"name": value, ...}}
//
// With --trace the load threads also record spans around every call into
// a library layer; the spans are kept in memory, written to FILE as JSON
// lines at exit, and the per-layer metrics are added. The database lives
// under DIR, which the driver removes before exiting. Exits 1 when any
// answer disagrees with the oracle or the run cannot complete.
// bench/deeplens/run.py builds this binary and is the benchmark's entry
// point; see bench/deeplens/README.md.
#include <sys/resource.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/serving.h"
#include "harness.h"
#include "storage/columnar/format.h"

namespace deeplens {
namespace e2e {
namespace {

// Set-up runs this many times per process; setup_s is their median.
constexpr int kSetupRounds = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace_file;  // empty: untraced run
  std::string scratch;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--duration_s") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      args->trace_file = value;
    } else if (flag == "--scratch") {
      args->scratch = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->scratch.empty();
}

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// The knob values the run actually used, resolved the way the library
// resolves them.
std::string EffectiveConfig(const Measurement& m) {
  const ServingConfig serving = ServingConfig::FromEnv();
  std::string out = "{";
  out += "\"pool_threads\": " +
         std::to_string(ThreadPool::Global().num_threads());
  out += ", \"cache_budget_bytes\": " + std::to_string(m.cache_budget_bytes);
  out += ", \"max_concurrent_queries\": " +
         std::to_string(serving.max_concurrent_queries);
  out += ", \"device_batch_size\": " +
         std::to_string(serving.device_batch_size);
  out += ", \"plan_cache_entries\": " +
         std::to_string(PlanCacheEntriesFromEnv());
  out += ", \"cascade_threshold\": " + Number(CascadeThresholdFromEnv());
  out += ", \"columnar_chunk_rows\": " +
         std::to_string(columnar::ColumnarChunkRowsFromEnv());
  out += ", \"prefetch_depth\": " +
         std::to_string(columnar::PrefetchDepthFromEnv());
  out += "}";
  return out;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --duration_s S "
                 "--scratch DIR [--trace FILE]\n",
                 argv[0]);
    return 2;
  }
  if (MakeWorkload(args.workload, args.seed) == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  namespace fs = std::filesystem;
  fs::remove_all(args.scratch);
  fs::create_directories(args.scratch);

  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  for (int round = 0; round < kSetupRounds; ++round) {
    // Only the last instance is kept; earlier ones are torn down first so
    // their memory and files never overlap the next set-up.
    workload.reset();
    if (round > 0) {
      fs::remove_all(args.scratch + "/setup" + std::to_string(round - 1));
    }
    const std::string dir = args.scratch + "/setup" + std::to_string(round);
    fs::create_directories(dir);
    workload = MakeWorkload(args.workload, args.seed);
    Stopwatch timer;
    const Status st = workload->SetUp(dir);
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return 1;
    }
    setup_s.push_back(timer.ElapsedSeconds());
  }
  Status st = workload->PrepareOracle();
  if (!st.ok()) {
    std::fprintf(stderr, "oracle failed: %s\n", st.ToString().c_str());
    return 1;
  }

  const bool trace = !args.trace_file.empty();
  const double span_cost_ns = trace ? MeasureSpanCostNs() : 0.0;
  Report report;
  Measurement m;
  st = workload->Measure(args.seconds, trace, &report, &m);
  if (!st.ok()) {
    std::fprintf(stderr, "run failed: %s\n", st.ToString().c_str());
    return 1;
  }
  FillEndToEnd(m, &report);
  report.metrics["setup_s"] = Percentile(setup_s, 50);
  report.metrics["peak_rss_mb"] = PeakRssMb();
  if (trace) {
    FillLayers(m, span_cost_ns, &report);
    st = WriteSpans(m, args.trace_file);
    if (!st.ok()) {
      std::fprintf(stderr, "writing spans failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  workload.reset();
  fs::remove_all(args.scratch);

  for (const std::string& problem : report.problems) {
    std::fprintf(stderr, "problem: %s\n", problem.c_str());
  }
  const bool correct = report.wrong == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed());
  json += ", \"config\": " + EffectiveConfig(m);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : report.metrics) {
    json += first ? "" : ", ";
    json += "\"" + name + "\": " + Number(value);
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e
}  // namespace deeplens

int main(int argc, char** argv) { return deeplens::e2e::Main(argc, argv); }
