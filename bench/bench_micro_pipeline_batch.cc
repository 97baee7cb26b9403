// Microbenchmark: the tuple-at-a-time streaming operators vs. the morsel
// driver (serial and parallel), on (1) a filter+map pipeline over a
// 100k-patch synthetic view and (2) a hash join + group-by aggregate,
// serial vs. morsel-parallel. Results are checked for equality across
// engines before timing is reported, and all timings are emitted to
// BENCH_pipeline.json for the perf trajectory.
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "cache/inference_cache.h"
#include "cache/inflight.h"
#include "common/clock.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "exec/aggregates.h"
#include "exec/batch_former.h"
#include "exec/expression.h"
#include "exec/joins.h"
#include "exec/operators.h"
#include "exec/pipeline.h"
#include "exec/scheduler.h"
#include "nn/device.h"
#include "nn/models.h"
#include "sim/scene.h"

namespace deeplens {
namespace bench {
namespace {

constexpr size_t kBaseRows = 100000;
constexpr int kReps = 3;
constexpr size_t kFeatureDim = 64;

PatchCollection SyntheticView(size_t n) {
  Rng rng(0xbadc5eed);
  static const char* kLabels[] = {"car", "person", "bus"};
  PatchCollection out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Patch p;
    p.set_id(static_cast<PatchId>(i + 1));
    const int frameno = static_cast<int>(i / 16);
    p.set_ref(ImgRef{"synthetic", frameno, kInvalidPatchId});
    p.set_bbox(nn::BBox{0, 0, 32, 32});
    p.mutable_meta().Set(meta_keys::kLabel, kLabels[i % 3]);
    p.mutable_meta().Set(meta_keys::kFrameNo, int64_t{frameno});
    p.mutable_meta().Set(meta_keys::kScore, rng.NextDouble());
    p.mutable_meta().Set(meta_keys::kPatchId, static_cast<int64_t>(i + 1));
    std::vector<float> f(kFeatureDim);
    for (auto& v : f) v = rng.NextFloat();
    p.set_features(Tensor::FromVector(std::move(f)));
    out.push_back(std::move(p));
  }
  return out;
}

Result<PatchTuple> Annotate(PatchTuple t) {
  t[0].mutable_meta().Set(
      "brightness_ok", t[0].meta().Get(meta_keys::kScore).AsFloat().value() *
                               2.0 <
                           1.9);
  return t;
}

// Rewrites the join keys of a synthetic view to follow a Zipf-ish
// distribution (P(k) ∝ 1/(k+1)) over [0, num_keys): a few hot framenos
// hold most of the rows. Key range matters for comparability — every key
// still matches the uniform left side, so the skewed join examines the
// same number of candidate pairs as the uniform one; only their spread
// across radix partitions changes.
PatchCollection WithZipfKeys(PatchCollection rows, size_t num_keys) {
  Rng rng(0x5eedca11);
  std::vector<double> cdf(num_keys);
  double total = 0.0;
  for (size_t k = 0; k < num_keys; ++k) {
    total += 1.0 / static_cast<double>(k + 1);
    cdf[k] = total;
  }
  for (double& c : cdf) c /= total;
  for (Patch& p : rows) {
    const double u = rng.NextDouble();
    const size_t key = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    p.mutable_meta().Set(meta_keys::kFrameNo,
                         static_cast<int64_t>(std::min(key, num_keys - 1)));
  }
  return rows;
}

uint64_t Checksum(const PatchCollection& rows) {
  uint64_t sum = 0;
  for (const Patch& p : rows) sum += p.id();
  return sum;
}

struct Timing {
  double best_ms = 1e300;
  uint64_t rows_out = 0;
  uint64_t checksum = 0;
};

template <typename Fn>
Timing Measure(const Fn& run) {
  Timing timing;
  for (int rep = 0; rep < kReps; ++rep) {
    Stopwatch timer;
    PatchCollection out = run();
    const double ms = timer.ElapsedMillis();
    timing.best_ms = ms < timing.best_ms ? ms : timing.best_ms;
    timing.rows_out = out.size();
    timing.checksum = Checksum(out);
  }
  return timing;
}

// Times a join/aggregate runner that reports (rows_out, checksum) itself.
template <typename Fn>
Timing MeasureCounted(const Fn& run) {
  Timing timing;
  for (int rep = 0; rep < kReps; ++rep) {
    Stopwatch timer;
    const std::pair<uint64_t, uint64_t> out = run();
    const double ms = timer.ElapsedMillis();
    timing.best_ms = ms < timing.best_ms ? ms : timing.best_ms;
    timing.rows_out = out.first;
    timing.checksum = out.second;
  }
  return timing;
}

struct JsonCase {
  const char* name;
  Timing timing;
  size_t workers;  // resolved worker count the case actually ran with
};

void WriteJson(const std::vector<JsonCase>& cases, size_t rows,
               size_t join_left, size_t join_right,
               double serving_dedup_rate) {
  std::FILE* f = std::fopen("BENCH_pipeline.json", "w");
  if (f == nullptr) {
    std::printf("WARNING: could not open BENCH_pipeline.json for writing\n");
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"micro_pipeline_batch\",\n");
  std::fprintf(f, "  \"scan_rows\": %zu,\n", rows);
  std::fprintf(f, "  \"join_rows\": [%zu, %zu],\n", join_left, join_right);
  std::fprintf(f, "  \"serving_dedup_rate\": %.4f,\n", serving_dedup_rate);
  std::fprintf(f, "  \"workers\": %zu,\n  \"cases\": [\n",
               ThreadPool::Global().num_threads());
  for (size_t i = 0; i < cases.size(); ++i) {
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"ms\": %.3f, \"rows_out\": %" PRIu64
                 ", \"workers\": %zu}%s\n",
                 cases[i].name, cases[i].timing.best_ms,
                 cases[i].timing.rows_out, cases[i].workers,
                 i + 1 == cases.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote BENCH_pipeline.json (%zu cases)\n", cases.size());
}

int Run() {
  PrintHeader("micro: pipeline engines (tuple vs batch vs batch+parallel)",
              "the §5 execution-model refactor; no paper figure");

  const size_t n = kBaseRows * static_cast<size_t>(BenchScale());
  const PatchCollection view = SyntheticView(n);
  const ExprPtr predicate = And(Eq(Attr(meta_keys::kLabel), Lit("car")),
                                Ge(Attr(meta_keys::kScore), Lit(0.5)));

  std::printf("rows: %zu, filter: label=='car' && score>=0.5, then map\n",
              n);
  std::printf("workers: %zu, batch size: %zu\n\n",
              ThreadPool::Global().num_threads(), kDefaultBatchSize);

  // 1. Tuple-at-a-time streaming operators (exec/operators.h).
  const Timing tuple_t = Measure([&]() {
    auto plan =
        MakeMap(MakeFilter(MakeVectorSource(view), predicate), Annotate);
    auto out = CollectPatches(plan.get());
    DL_CHECK_OK(out.status());
    return std::move(out).value();
  });

  // 2. Morsel driver, serial (one thread, one morsel per stage pass).
  const Timing batch_t = Measure([&]() {
    BatchPipeline pipeline;
    pipeline.Filter(predicate).Map(Annotate);
    MorselOptions options;
    options.num_threads = 1;
    auto out = pipeline.RunOnPatches(view, options);
    DL_CHECK_OK(out.status());
    return std::move(out).value();
  });

  // 3. Morsel driver, parallel. Worker counts are pinned per case (the
  // pool may be wider) so recorded timings stay comparable across
  // machines and pool configurations.
  MorselOptions two_workers;
  two_workers.num_threads = 2;
  const Timing parallel_t = Measure([&]() {
    BatchPipeline pipeline;
    pipeline.Filter(predicate).Map(Annotate);
    auto out = pipeline.RunOnPatches(view, two_workers);
    DL_CHECK_OK(out.status());
    return std::move(out).value();
  });

  if (tuple_t.rows_out != batch_t.rows_out ||
      tuple_t.rows_out != parallel_t.rows_out ||
      tuple_t.checksum != batch_t.checksum ||
      tuple_t.checksum != parallel_t.checksum) {
    std::printf("ENGINE MISMATCH: tuple=%" PRIu64 "/%" PRIu64
                " batch=%" PRIu64 "/%" PRIu64 " parallel=%" PRIu64
                "/%" PRIu64 "\n",
                tuple_t.rows_out, tuple_t.checksum, batch_t.rows_out,
                batch_t.checksum, parallel_t.rows_out, parallel_t.checksum);
    return 1;
  }

  const double tuple_rate = static_cast<double>(n) / tuple_t.best_ms * 1e3;
  const double batch_rate = static_cast<double>(n) / batch_t.best_ms * 1e3;
  const double par_rate = static_cast<double>(n) / parallel_t.best_ms * 1e3;

  std::printf("%-24s %10s %14s %9s\n", "engine", "ms", "rows/s", "speedup");
  std::printf("%-24s %10.2f %14.0f %8.2fx\n", "tuple-at-a-time",
              tuple_t.best_ms, tuple_rate, 1.0);
  std::printf("%-24s %10.2f %14.0f %8.2fx\n", "batch (serial)",
              batch_t.best_ms, batch_rate, batch_rate / tuple_rate);
  std::printf("%-24s %10.2f %14.0f %8.2fx\n", "batch+parallel",
              parallel_t.best_ms, par_rate, par_rate / tuple_rate);
  std::printf("\nselected rows: %" PRIu64 " (%.1f%%), identical across all "
              "three runs\n",
              tuple_t.rows_out,
              100.0 * static_cast<double>(tuple_t.rows_out) /
                  static_cast<double>(n));

  // --- Join + pre-merge aggregate: serial core vs morsel-parallel ------
  const size_t join_left = n / 2;
  const size_t join_right = n / 8;
  const PatchCollection left_view = SyntheticView(join_left);
  const PatchCollection right_view = SyntheticView(join_right);
  const ExprPtr join_residual =
      Lt(Attr(0, meta_keys::kScore), Attr(1, meta_keys::kScore));

  auto join_checksum = [](const std::vector<PatchTuple>& tuples) {
    uint64_t sum = 0;
    for (const PatchTuple& t : tuples) sum += t[0].id() * 31 + t[1].id();
    return std::make_pair(static_cast<uint64_t>(tuples.size()), sum);
  };
  MorselOptions serial_opts;
  serial_opts.num_threads = 1;
  MorselOptions four_workers;
  four_workers.num_threads = 4;
  const Timing join_serial_t = MeasureCounted([&]() {
    auto out = HashEqualityJoin(left_view, right_view, meta_keys::kFrameNo,
                                join_residual, nullptr, serial_opts);
    DL_CHECK_OK(out.status());
    return join_checksum(*out);
  });
  const Timing join_parallel_t = MeasureCounted([&]() {
    auto out = HashEqualityJoin(left_view, right_view, meta_keys::kFrameNo,
                                join_residual, nullptr, two_workers);
    DL_CHECK_OK(out.status());
    return join_checksum(*out);
  });
  const Timing join_parallel_4w_t = MeasureCounted([&]() {
    auto out = HashEqualityJoin(left_view, right_view, meta_keys::kFrameNo,
                                join_residual, nullptr, four_workers);
    DL_CHECK_OK(out.status());
    return join_checksum(*out);
  });

  // Skewed-key join: same left side and the same number of candidate
  // pairs, but the right side's keys follow a Zipf distribution, so a few
  // radix partitions hold most of the probe work. Measures that the
  // chunk-level probe dispatch actually balances skew.
  const size_t num_join_keys = (join_right + 15) / 16;
  const PatchCollection skew_right = WithZipfKeys(right_view, num_join_keys);
  const Timing join_skew_serial_t = MeasureCounted([&]() {
    auto out = HashEqualityJoin(left_view, skew_right, meta_keys::kFrameNo,
                                join_residual, nullptr, serial_opts);
    DL_CHECK_OK(out.status());
    return join_checksum(*out);
  });
  const Timing join_skew_t = MeasureCounted([&]() {
    auto out = HashEqualityJoin(left_view, skew_right, meta_keys::kFrameNo,
                                join_residual, nullptr, two_workers);
    DL_CHECK_OK(out.status());
    return join_checksum(*out);
  });

  auto group_checksum = [](const std::map<std::string, uint64_t>& groups) {
    uint64_t sum = 0;
    for (const auto& [k, v] : groups) sum += k.size() * 131 + v;
    return std::make_pair(static_cast<uint64_t>(groups.size()), sum);
  };
  const Timing agg_serial_t = MeasureCounted([&]() {
    auto out = ParallelGroupByCount(view, meta_keys::kLabel, predicate,
                                    serial_opts);
    DL_CHECK_OK(out.status());
    return group_checksum(*out);
  });
  const Timing agg_parallel_t = MeasureCounted([&]() {
    auto out = ParallelGroupByCount(view, meta_keys::kLabel, predicate,
                                    two_workers);
    DL_CHECK_OK(out.status());
    return group_checksum(*out);
  });
  const Timing agg_parallel_4w_t = MeasureCounted([&]() {
    auto out = ParallelGroupByCount(view, meta_keys::kLabel, predicate,
                                    four_workers);
    DL_CHECK_OK(out.status());
    return group_checksum(*out);
  });

  const bool join_mismatch =
      join_serial_t.rows_out != join_parallel_t.rows_out ||
      join_serial_t.checksum != join_parallel_t.checksum ||
      join_serial_t.rows_out != join_parallel_4w_t.rows_out ||
      join_serial_t.checksum != join_parallel_4w_t.checksum ||
      join_skew_serial_t.rows_out != join_skew_t.rows_out ||
      join_skew_serial_t.checksum != join_skew_t.checksum;
  const bool agg_mismatch =
      agg_serial_t.rows_out != agg_parallel_t.rows_out ||
      agg_serial_t.checksum != agg_parallel_t.checksum ||
      agg_serial_t.rows_out != agg_parallel_4w_t.rows_out ||
      agg_serial_t.checksum != agg_parallel_4w_t.checksum;
  if (join_mismatch || agg_mismatch) {
    std::printf("PARALLEL MISMATCH: join %" PRIu64 "/%" PRIu64
                " vs %" PRIu64 "/%" PRIu64 " vs %" PRIu64 "/%" PRIu64
                " (skew %" PRIu64 "/%" PRIu64 " vs %" PRIu64 "/%" PRIu64
                "), agg %" PRIu64 "/%" PRIu64 " vs %" PRIu64 "/%" PRIu64
                " vs %" PRIu64 "/%" PRIu64 "\n",
                join_serial_t.rows_out, join_serial_t.checksum,
                join_parallel_t.rows_out, join_parallel_t.checksum,
                join_parallel_4w_t.rows_out, join_parallel_4w_t.checksum,
                join_skew_serial_t.rows_out, join_skew_serial_t.checksum,
                join_skew_t.rows_out, join_skew_t.checksum,
                agg_serial_t.rows_out, agg_serial_t.checksum,
                agg_parallel_t.rows_out, agg_parallel_t.checksum,
                agg_parallel_4w_t.rows_out, agg_parallel_4w_t.checksum);
    return 1;
  }

  std::printf("\nhash join %zu x %zu on frameno (+score residual), "
              "group-by over %zu rows:\n",
              join_left, join_right, n);
  std::printf("%-24s %10.2f %8.2fx\n", "join (serial)", join_serial_t.best_ms,
              1.0);
  std::printf("%-24s %10.2f %8.2fx\n", "join (parallel 2w)",
              join_parallel_t.best_ms,
              join_serial_t.best_ms / join_parallel_t.best_ms);
  std::printf("%-24s %10.2f %8.2fx\n", "join (parallel 4w)",
              join_parallel_4w_t.best_ms,
              join_serial_t.best_ms / join_parallel_4w_t.best_ms);
  std::printf("%-24s %10.2f %8.2fx  (zipf keys, serial %.2f ms)\n",
              "join (skew 2w)", join_skew_t.best_ms,
              join_skew_serial_t.best_ms / join_skew_t.best_ms,
              join_skew_serial_t.best_ms);
  std::printf("%-24s %10.2f %8.2fx\n", "group-by (serial)",
              agg_serial_t.best_ms, 1.0);
  std::printf("%-24s %10.2f %8.2fx\n", "group-by (parallel 2w)",
              agg_parallel_t.best_ms,
              agg_serial_t.best_ms / agg_parallel_t.best_ms);
  std::printf("%-24s %10.2f %8.2fx\n", "group-by (parallel 4w)",
              agg_parallel_4w_t.best_ms,
              agg_serial_t.best_ms / agg_parallel_4w_t.best_ms);

  // --- Serving phase: concurrent sessions through the fair-share -------
  // --- scheduler: throughput scaling, tail-latency isolation, dedup ----
  constexpr size_t kServeRows = 20000;  // ~20 morsels/unit at batch 1024
  constexpr int kServeUnits = 16;
  constexpr int kServeSessions = 4;
  const PatchCollection serve_view = SyntheticView(kServeRows);
  MorselOptions serve_opts;
  serve_opts.num_threads = 4;
  auto serve_unit = [&]() -> uint64_t {
    BatchPipeline pipeline;
    pipeline.Filter(predicate).Map(Annotate);
    auto out = pipeline.RunOnPatches(serve_view, serve_opts);
    DL_CHECK_OK(out.status());
    return out->size();
  };

  // Aggregate throughput: the same 16 work units, issued by one session
  // vs spread over four concurrent sessions. The gate is a *floor* on
  // concurrent/solo: the serving layer's locking and interleaving must
  // not make concurrency lose; on multi-core machines the ratio rises
  // above 1 for free.
  Timing serving_solo_t;
  Timing serving_concurrent_t;
  uint64_t solo_rows = 0;
  std::atomic<uint64_t> concurrent_rows{0};
  for (int rep = 0; rep < kReps; ++rep) {
    Stopwatch solo_timer;
    {
      ScopedSchedulingContext scope(SchedulingContext{"solo", 1});
      solo_rows = 0;
      for (int u = 0; u < kServeUnits; ++u) solo_rows += serve_unit();
    }
    const double solo_ms = solo_timer.ElapsedMillis();
    serving_solo_t.best_ms = std::min(serving_solo_t.best_ms, solo_ms);
    serving_solo_t.rows_out = solo_rows;

    concurrent_rows = 0;
    std::vector<std::thread> sessions;
    Stopwatch concurrent_timer;
    for (int s = 0; s < kServeSessions; ++s) {
      sessions.emplace_back([&, s]() {
        ScopedSchedulingContext scope(
            SchedulingContext{"tenant" + std::to_string(s), 1});
        uint64_t rows = 0;
        for (int u = 0; u < kServeUnits / kServeSessions; ++u) {
          rows += serve_unit();
        }
        concurrent_rows += rows;
      });
    }
    for (auto& t : sessions) t.join();
    const double conc_ms = concurrent_timer.ElapsedMillis();
    serving_concurrent_t.best_ms =
        std::min(serving_concurrent_t.best_ms, conc_ms);
    serving_concurrent_t.rows_out = concurrent_rows.load();
  }
  if (serving_solo_t.rows_out != serving_concurrent_t.rows_out) {
    std::printf("SERVING MISMATCH: solo rows %" PRIu64
                " != concurrent rows %" PRIu64 "\n",
                serving_solo_t.rows_out, serving_concurrent_t.rows_out);
    return 1;
  }

  // Tail-latency isolation: p95 of a short query alone vs under a
  // long-running scan that keeps ~100 morsels queued. Stride scheduling
  // caps how far the short query's morsels sink behind the scan's; FIFO
  // dispatch would push loaded p95 toward the full scan duration.
  constexpr size_t kShortRows = 6000;  // ~6 morsels: parallel, but short
  constexpr int kShortIters = 40;
  const PatchCollection short_view = SyntheticView(kShortRows);
  auto short_query = [&]() {
    BatchPipeline pipeline;
    pipeline.Filter(predicate).Map(Annotate);
    auto out = pipeline.RunOnPatches(short_view, serve_opts);
    DL_CHECK_OK(out.status());
    return out->size();
  };
  auto p95_of = [](std::vector<double> samples) {
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() * 95 / 100];
  };
  std::vector<double> solo_lat;
  {
    ScopedSchedulingContext scope(SchedulingContext{"dash", 1});
    for (int i = 0; i < kShortIters; ++i) {
      Stopwatch timer;
      short_query();
      solo_lat.push_back(timer.ElapsedMillis());
    }
  }
  std::atomic<bool> stop_scan{false};
  std::thread long_scan([&]() {
    ScopedSchedulingContext scope(SchedulingContext{"batch", 1});
    while (!stop_scan.load(std::memory_order_relaxed)) {
      BatchPipeline pipeline;
      pipeline.Filter(predicate).Map(Annotate);
      DL_CHECK_OK(pipeline.RunOnPatches(view, serve_opts).status());
    }
  });
  std::vector<double> loaded_lat;
  {
    ScopedSchedulingContext scope(SchedulingContext{"dash", 1});
    for (int i = 0; i < kShortIters; ++i) {
      Stopwatch timer;
      short_query();
      loaded_lat.push_back(timer.ElapsedMillis());
    }
  }
  stop_scan = true;
  long_scan.join();
  Timing short_solo_t;
  short_solo_t.best_ms = p95_of(solo_lat);
  short_solo_t.rows_out = kShortIters;
  Timing short_loaded_t;
  short_loaded_t.best_ms = p95_of(loaded_lat);
  short_loaded_t.rows_out = kShortIters;

  // In-flight dedup: 4 sessions race the same OCR predicate over the
  // same panels. With the singleflight table wired into the cache, each
  // distinct panel is inferred exactly once (one leader); everyone else
  // joins the flight or hits the cache behind it.
  constexpr int kDedupPanels = 32;
  constexpr int kDedupSessions = 4;
  const PatchCollection panels = [&]() {
    Rng rng(0xd11b0001);
    PatchCollection out;
    for (int i = 0; i < kDedupPanels; ++i) {
      Image panel(64, 64, 3);
      for (auto& b : panel.bytes()) {
        b = static_cast<uint8_t>(10 + rng.NextU64Below(20));
      }
      sim::DrawDigits(&panel, nn::BBox{4, 20, 60, 44},
                      std::to_string(100 + rng.NextU64Below(900)));
      Patch p;
      p.set_id(static_cast<PatchId>(i + 1));
      p.set_ref(ImgRef{"panels", i, kInvalidPatchId});
      p.set_pixels(std::move(panel));
      p.set_bbox(nn::BBox{0, 0, 64, 64});
      out.push_back(std::move(p));
    }
    return out;
  }();
  InferenceCache dedup_cache(8 << 20, /*num_shards=*/2, CacheAdmission::kLru);
  InflightTable inflight;
  dedup_cache.set_inflight(&inflight);
  nn::TinyOcr serving_ocr;
  nn::Device* serving_device = nn::GetDevice(nn::DeviceKind::kCpuVector);
  {
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> racers;
    for (int s = 0; s < kDedupSessions; ++s) {
      racers.emplace_back([&, s]() {
        ++ready;
        while (!go.load(std::memory_order_acquire)) {}
        // Each session walks the panels from a different offset so the
        // flights overlap instead of forming a convoy.
        for (int i = 0; i < kDedupPanels; ++i) {
          const Patch& p =
              panels[static_cast<size_t>((i + s * 8) % kDedupPanels)];
          auto text = CachedOcrText(serving_ocr, p.pixels(), p.Fingerprint(),
                                    serving_device, &dedup_cache);
          DL_CHECK_OK(text.status());
        }
      });
    }
    while (ready.load() < kDedupSessions) {}
    go.store(true, std::memory_order_release);
    for (auto& t : racers) t.join();
  }
  const InflightStats dedup_stats = inflight.Stats();
  const uint64_t dedup_evals =
      static_cast<uint64_t>(kDedupSessions) * kDedupPanels;
  const double serving_dedup_rate =
      1.0 - static_cast<double>(dedup_stats.leaders) /
                static_cast<double>(dedup_evals);

  // --- Cross-query device batch formation: 4 sessions, all-distinct ---
  // --- panels, GpuSim backend; batch former off vs on ------------------
  // Each session OCRs its own quarter of the panels, so singleflight
  // dedup never fires and every patch must be inferred. Unbatched, every
  // glyph's forward pass pays the simulated kernel-launch overhead; with
  // the former installed, concurrent sessions' patches flush as one
  // device invocation (one launch, host-vectorized per-item math) — the
  // amortization this gate measures. Results are verified equal between
  // the two runs before timing is reported.
  constexpr int kFormPanels = 64;
  constexpr int kFormSessions = 4;
  const PatchCollection form_panels = [&]() {
    Rng rng(0xba7c4001);
    PatchCollection out;
    for (int i = 0; i < kFormPanels; ++i) {
      Image panel(64, 64, 3);
      for (auto& b : panel.bytes()) {
        b = static_cast<uint8_t>(10 + rng.NextU64Below(20));
      }
      sim::DrawDigits(&panel, nn::BBox{4, 20, 60, 44},
                      std::to_string(1000 + i));
      Patch p;
      p.set_id(static_cast<PatchId>(i + 1));
      p.set_ref(ImgRef{"form_panels", i, kInvalidPatchId});
      p.set_pixels(std::move(panel));
      p.set_bbox(nn::BBox{0, 0, 64, 64});
      out.push_back(std::move(p));
    }
    return out;
  }();
  nn::Device* sim_gpu = nn::GetDevice(nn::DeviceKind::kGpuSim);
  auto ocr_wave = [&](BatchFormer* former,
                      std::vector<std::string>* texts) -> double {
    InferenceCache wave_cache(8 << 20, /*num_shards=*/2,
                              CacheAdmission::kLru);
    InflightTable wave_inflight;
    wave_cache.set_inflight(&wave_inflight);
    wave_cache.set_batch_former(former);
    texts->assign(kFormPanels, std::string());
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> sessions;
    for (int s = 0; s < kFormSessions; ++s) {
      sessions.emplace_back([&, s]() {
        ++ready;
        while (!go.load(std::memory_order_acquire)) {}
        const int per = kFormPanels / kFormSessions;
        for (int i = s * per; i < (s + 1) * per; ++i) {
          const Patch& p = form_panels[static_cast<size_t>(i)];
          auto text = CachedOcrText(serving_ocr, p.pixels(), p.Fingerprint(),
                                    sim_gpu, &wave_cache);
          DL_CHECK_OK(text.status());
          (*texts)[static_cast<size_t>(i)] = *std::move(text);
        }
      });
    }
    while (ready.load() < kFormSessions) {}
    Stopwatch wave_timer;
    go.store(true, std::memory_order_release);
    for (auto& t : sessions) t.join();
    return wave_timer.ElapsedMillis();
  };

  BatchFormer former;
  former.Configure(BatchFormerConfig{/*batch_size=*/kFormSessions,
                                     /*wait_us=*/2000});
  Timing form_unbatched_t;
  Timing form_batched_t;
  std::vector<std::string> unbatched_texts;
  std::vector<std::string> batched_texts;
  for (int rep = 0; rep < kReps; ++rep) {
    form_unbatched_t.best_ms = std::min(form_unbatched_t.best_ms,
                                        ocr_wave(nullptr, &unbatched_texts));
    form_batched_t.best_ms =
        std::min(form_batched_t.best_ms, ocr_wave(&former, &batched_texts));
    if (batched_texts != unbatched_texts) {
      std::printf("BATCHED OCR MISMATCH: batched texts differ from "
                  "unbatched on rep %d\n", rep);
      return 1;
    }
  }
  form_unbatched_t.rows_out = kFormPanels;
  form_batched_t.rows_out = kFormPanels;
  const BatchFormerStats former_stats = former.Stats();
  if (former_stats.batched_items !=
          static_cast<uint64_t>(kFormPanels) * kReps ||
      former_stats.invocations == 0 ||
      former_stats.invocations >= former_stats.batched_items) {
    std::printf("BATCH FORMER DID NOT BATCH: %" PRIu64 " invocations / %"
                PRIu64 " items\n",
                former_stats.invocations, former_stats.batched_items);
    return 1;
  }

  std::printf("\nserving: %d work units (%zu rows each), 1 vs %d sessions; "
              "short query %zu rows under 100k scan:\n",
              kServeUnits, kServeRows, kServeSessions, kShortRows);
  std::printf("%-24s %10.2f\n", "serving (1 session)", serving_solo_t.best_ms);
  std::printf("%-24s %10.2f %8.2fx\n", "serving (4 sessions)",
              serving_concurrent_t.best_ms,
              serving_solo_t.best_ms / serving_concurrent_t.best_ms);
  std::printf("%-24s %10.2f\n", "short p95 (solo)", short_solo_t.best_ms);
  std::printf("%-24s %10.2f %8.2fx slower\n", "short p95 (under scan)",
              short_loaded_t.best_ms,
              short_loaded_t.best_ms / short_solo_t.best_ms);
  std::printf("%-24s %9.1f%%  (%" PRIu64 " leaders / %" PRIu64
              " evals, %" PRIu64 " joined in-flight)\n",
              "inference dedup", 100.0 * serving_dedup_rate,
              dedup_stats.leaders, dedup_evals, dedup_stats.joined);
  std::printf("\ndevice batching: %d sessions x %d distinct panels on "
              "gpu_sim, batch<=%d:\n",
              kFormSessions, kFormPanels / kFormSessions, kFormSessions);
  std::printf("%-24s %10.2f\n", "ocr 4s (unbatched)",
              form_unbatched_t.best_ms);
  std::printf("%-24s %10.2f %8.2fx  (%" PRIu64 " invocations / %" PRIu64
              " patches, %.1f patches/batch)\n",
              "ocr 4s (batched)", form_batched_t.best_ms,
              form_unbatched_t.best_ms / form_batched_t.best_ms,
              former_stats.invocations, former_stats.batched_items,
              static_cast<double>(former_stats.batched_items) /
                  static_cast<double>(former_stats.invocations));

  const auto resolved = [](size_t requested) {
    MorselOptions o;
    o.num_threads = requested;
    return ResolveMorselWorkers(o);
  };
  WriteJson({{"filter_map_tuple", tuple_t, 1},
             {"filter_map_batch_serial", batch_t, 1},
             {"filter_map_batch_parallel", parallel_t, resolved(2)},
             {"hash_join_serial", join_serial_t, 1},
             {"hash_join_parallel", join_parallel_t, resolved(2)},
             {"hash_join_parallel_4w", join_parallel_4w_t, resolved(4)},
             {"hash_join_skew_serial", join_skew_serial_t, 1},
             {"hash_join_parallel_skew", join_skew_t, resolved(2)},
             {"group_by_serial", agg_serial_t, 1},
             {"group_by_parallel", agg_parallel_t, resolved(2)},
             {"group_by_parallel_4w", agg_parallel_4w_t, resolved(4)},
             {"serving_solo_1s", serving_solo_t, resolved(4)},
             {"serving_concurrent_4s", serving_concurrent_t, resolved(4)},
             {"serving_short_p95_solo", short_solo_t, resolved(4)},
             {"serving_short_p95_loaded", short_loaded_t, resolved(4)},
             {"serving_ocr_unbatched_4s", form_unbatched_t, kFormSessions},
             {"serving_ocr_batched_4s", form_batched_t, kFormSessions}},
            n, join_left, join_right, serving_dedup_rate);

  const double speedup = par_rate / tuple_rate;
  if (speedup < 2.0) {
    std::printf("\nWARNING: batch+parallel speedup %.2fx is below the 2x "
                "target\n", speedup);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace deeplens

int main() {
  // A 4-worker pool must exist before ThreadPool::Global() is first
  // touched for the 4-worker cases to be real; an explicit
  // DEEPLENS_NUM_THREADS from the operator still wins (no overwrite), and
  // the per-case "workers" fields record what each case actually got.
  setenv("DEEPLENS_NUM_THREADS", "4", /*overwrite=*/0);
  return deeplens::bench::Run();
}
