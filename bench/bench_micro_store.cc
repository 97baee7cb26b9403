// Microbenchmark: the materialized-view storage layer (chunked columnar
// format, storage/columnar/). Phases: (1) bulk write of a bucketed patch
// dataset, (2) repeated full scans (LoadAll) of the file, (3) the
// headline selective scan — a 10%-selectivity range predicate on a
// monotone meta key, run through the planner's columnar path, which
// prunes the non-matching chunks with zone maps and never touches their
// bytes, against the same decode path over every chunk (the predicate
// still pushed into the reader as a row filter), so the ratio isolates
// what zone-map pruning saves. Results are verified byte-identical (the
// round-trip against the dataset, both selective scans against a
// resident planner scan) before any timing is reported; (4) a whole-view
// group count, once as a plain FoldChunk loop on the calling thread and
// once through the planner, whose fold fans the chunks out over the
// morsel pool, both checked against a resident group count. All timings
// land in BENCH_store.json and the run fails unless the pruned scan
// beats the unpruned one by 2x with zone maps pruning at least half the
// chunks. The fold ratio is reported, not gated: a flat floor on a
// parallel speedup flakes on a shared host.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/clock.h"
#include "common/rng.h"
#include "core/database.h"
#include "core/planner.h"
#include "etl/materialize.h"
#include "exec/expression.h"
#include "storage/columnar/async_loader.h"
#include "storage/columnar/columnar_file.h"
#include "storage/columnar/format.h"

namespace deeplens {
namespace bench {
namespace {

constexpr int kRowsBase = 20000;
constexpr int kChunkRows = 500;
constexpr int kFullScanReps = 3;
constexpr int kSelectiveReps = 9;  // odd: the median is one rep
// Acceptance floors enforced by the bench itself (the CI gate in
// scripts/check_bench.py carries slightly higher blessed baselines).
constexpr double kRequiredPrunedSpeedup = 2.0;
constexpr double kRequiredPruneRatio = 0.5;

struct CaseTiming {
  const char* name;
  double ms = 0.0;
  uint64_t rows_out = 0;
};

// Bucketed dataset: "bucket" ascends with the row id (the natural shape
// of frame-ordered video metadata), so a range predicate on it is
// clustered and zone maps can prune. Labels come from a small alphabet
// (dictionary-encoded), and a fraction of rows carry pixels/features so
// per-row decode cost is realistic rather than meta-only.
PatchCollection BucketedDataset(int n) {
  static const char* kLabels[] = {"car", "person", "bus", "bicycle"};
  Rng rng(0x57073);
  PatchCollection out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    Patch p;
    p.set_id(static_cast<PatchId>(i + 1));
    p.set_ref(ImgRef{"cam0", i, kInvalidPatchId});
    p.set_bbox(nn::BBox{static_cast<int>(rng.NextU64Below(64)),
                        static_cast<int>(rng.NextU64Below(64)), 96, 96});
    p.mutable_meta().Set("bucket", static_cast<int64_t>(i / 100));
    p.mutable_meta().Set("label",
                         std::string(kLabels[rng.NextU64Below(4)]));
    p.mutable_meta().Set(
        "score", static_cast<double>(rng.NextU64Below(1000)) / 1000.0);
    p.mutable_meta().Set(meta_keys::kFrameNo, static_cast<int64_t>(i));
    if (i % 16 == 0) {
      Image img(24, 24, 3);
      for (auto& b : img.bytes()) {
        b = static_cast<uint8_t>(rng.NextU64Below(256));
      }
      p.set_pixels(std::move(img));
    }
    if (i % 32 == 0) {
      p.set_features(Tensor::FromVector(
          {static_cast<float>(i), 0.5f, -1.0f, 2.25f}));
    }
    out.push_back(std::move(p));
  }
  return out;
}

bool SamePatches(const PatchCollection& a, const PatchCollection& b,
                 const char* what) {
  if (a.size() != b.size()) {
    std::printf("FAIL: %s row count mismatch (%zu vs %zu)\n", what, a.size(),
                b.size());
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    ByteBuffer ba, bb;
    a[i].SerializeInto(&ba);
    b[i].SerializeInto(&bb);
    const Slice sa = ba.AsSlice();
    const Slice sb = bb.AsSlice();
    if (sa.size() != sb.size() ||
        std::memcmp(sa.data(), sb.data(), sa.size()) != 0) {
      std::printf("FAIL: %s differs at row %zu (id %" PRIu64 ")\n", what, i,
                  static_cast<uint64_t>(a[i].id()));
      return false;
    }
  }
  return true;
}

double TimedWrite(const std::string& path, const PatchCollection& rows,
                  uint64_t* bytes) {
  Stopwatch sw;
  auto view = MaterializedView::Open(path);
  DL_CHECK_OK(view.status());
  for (const Patch& p : rows) {
    DL_CHECK_OK((*view)->Append(p));
  }
  DL_CHECK_OK((*view)->Flush());
  const double ms = sw.ElapsedMillis();
  *bytes = (*view)->storage_bytes();
  return ms;
}

// The planner's columnar scan (DriveColumnarScan) minus zone maps: every
// chunk goes through the decode-ahead loader with the predicate's
// sargable conjuncts as the row filter. `predicate` must be fully
// sargable, so no residual re-check is needed.
PatchCollection UnprunedScan(
    const std::shared_ptr<columnar::ColumnarReader>& reader,
    const ExprPtr& predicate) {
  std::vector<size_t> all_chunks(reader->num_chunks());
  for (size_t i = 0; i < all_chunks.size(); ++i) all_chunks[i] = i;
  columnar::ChunkReadOptions options;
  options.row_filter = columnar::ExtractPushdown(predicate).preds;
  columnar::AsyncChunkLoader loader(reader, std::move(all_chunks),
                                    std::move(options));
  PatchCollection out;
  while (true) {
    auto rows = loader.Next();
    DL_CHECK_OK(rows.status());
    if (!rows->has_value()) break;
    for (Patch& p : **rows) out.push_back(std::move(p));
  }
  return out;
}

// The planner's columnar fold (FoldColumnarScan) without its fan-out:
// every chunk the zone maps keep, folded in order on the calling thread.
std::map<std::string, uint64_t> SerialGroupCount(
    const columnar::ColumnarReader& reader, const std::string& key,
    const ExprPtr& predicate) {
  const std::vector<columnar::ColumnPredicate> preds =
      columnar::ExtractPushdown(predicate).preds;
  std::map<std::string, uint64_t> groups;
  for (size_t index : reader.SelectChunks(preds)) {
    auto chunk = reader.FoldChunk(index, preds, &key);
    DL_CHECK_OK(chunk.status());
    for (const columnar::KeyCount& group : chunk->keys) {
      groups[group.value.ToDisplayString()] += group.rows;
    }
  }
  return groups;
}

double Median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

void WriteJson(const std::vector<CaseTiming>& cases, double pruned_speedup,
               double fold_speedup, double prune_ratio, uint64_t file_bytes,
               int rows, int chunks_total, int chunks_pruned) {
  std::FILE* f = std::fopen("BENCH_store.json", "w");
  if (f == nullptr) {
    std::printf("WARNING: could not open BENCH_store.json for writing\n");
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"micro_store\",\n");
  std::fprintf(f, "  \"rows\": %d,\n  \"chunk_rows\": %d,\n", rows,
               kChunkRows);
  std::fprintf(f, "  \"chunks_total\": %d,\n  \"chunks_pruned\": %d,\n",
               chunks_total, chunks_pruned);
  std::fprintf(f, "  \"columnar_scan_speedup\": %.2f,\n", pruned_speedup);
  std::fprintf(f, "  \"columnar_fold_parallel_speedup\": %.2f,\n",
               fold_speedup);
  std::fprintf(f, "  \"zonemap_prune_ratio\": %.3f,\n", prune_ratio);
  std::fprintf(f, "  \"file_bytes\": %" PRIu64 ",\n", file_bytes);
  std::fprintf(f, "  \"cases\": [\n");
  for (size_t i = 0; i < cases.size(); ++i) {
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"ms\": %.3f, \"rows_out\": "
                 "%" PRIu64 "}%s\n",
                 cases[i].name, cases[i].ms, cases[i].rows_out,
                 i + 1 == cases.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote BENCH_store.json (%zu cases)\n", cases.size());
}

int Run() {
  PrintHeader("micro: materialized-view storage (zone-map pruned vs "
              "unpruned columnar scans)",
              "the §4.1 Materialize path; no paper figure");

  // Pin the chunk geometry so prune ratios are reproducible across
  // machines.
  setenv("DEEPLENS_COLUMNAR_CHUNK_ROWS", std::to_string(kChunkRows).c_str(),
         1);

  const int rows = kRowsBase * BenchScale();
  ScratchDir scratch("dl_bench_store");
  const PatchCollection dataset = BucketedDataset(rows);
  std::vector<CaseTiming> cases;

  // --- Phase 1: bulk write ----------------------------------------------
  uint64_t file_bytes = 0;
  const double write_ms =
      TimedWrite(scratch.path() + "/view", dataset, &file_bytes);
  cases.push_back({"write_columnar", write_ms, static_cast<uint64_t>(rows)});
  std::printf("write   %8.1f ms (%8" PRIu64 " B)\n", write_ms, file_bytes);

  auto view = MaterializedView::Open(scratch.path() + "/view");
  DL_CHECK_OK(view.status());

  // Correctness before speed: the file must round-trip the dataset
  // byte-identically, or the timings measure different work.
  {
    auto loaded = (*view)->LoadAll();
    DL_CHECK_OK(loaded.status());
    if (!SamePatches(*loaded, dataset, "columnar round-trip")) return 1;
  }

  // --- Phase 2: full scans ----------------------------------------------
  double full_ms = 0.0;
  for (int rep = 0; rep < kFullScanReps; ++rep) {
    Stopwatch sw;
    auto loaded = (*view)->LoadAll();
    DL_CHECK_OK(loaded.status());
    full_ms += sw.ElapsedMillis();
  }
  full_ms /= kFullScanReps;
  cases.push_back({"full_scan_columnar", full_ms,
                   static_cast<uint64_t>(rows)});
  std::printf("full    %8.1f ms\n", full_ms);

  // --- Phase 3: selective scan (the zone-map headline) ------------------
  // Range predicate over the middle 2.5% of the monotone bucket key.
  const int64_t lo_bucket = static_cast<int64_t>(rows / 2 / 100);
  const int64_t hi_bucket =
      static_cast<int64_t>((rows / 2 + rows / 40) / 100);
  const ExprPtr predicate = And(Ge(Attr("bucket"), Lit(lo_bucket)),
                                Lt(Attr("bucket"), Lit(hi_bucket)));

  // Columnar side goes through the Database attach path so the scan runs
  // the real planner pipeline (pushdown extraction, chunk selection,
  // async decode-ahead), not a hand-rolled reader loop.
  auto db_or = Database::Open(scratch.path() + "/db");
  DL_CHECK_OK(db_or.status());
  Database* db = db_or->get();
  DL_CHECK_OK(db->RegisterView("store_bench", dataset));
  DL_CHECK_OK(db->PersistView("store_bench"));
  DL_CHECK_OK(db->AttachPersistedView("store_bench"));
  auto attached = db->GetView("store_bench");
  DL_CHECK_OK(attached.status());

  // The unpruned scan reads the same file through the same reader.
  const std::shared_ptr<columnar::ColumnarReader>& reader =
      (*attached)->columnar;

  // Warm both paths once and check they agree byte-for-byte with a
  // resident planner scan.
  PlanExplanation plan;
  uint64_t selected_rows = 0;
  {
    auto pruned = Planner::ExecuteScan(**attached, predicate, &plan);
    DL_CHECK_OK(pruned.status());
    ViewCache resident;
    resident.patches = dataset;
    PlanExplanation oracle_plan;
    auto oracle = Planner::ExecuteScan(resident, predicate, &oracle_plan);
    DL_CHECK_OK(oracle.status());
    if (!SamePatches(*pruned, *oracle, "pruned selective scan") ||
        !SamePatches(UnprunedScan(reader, predicate), *oracle,
                     "unpruned selective scan")) {
      return 1;
    }
    selected_rows = pruned->size();
  }
  const int chunks_total = static_cast<int>(plan.columnar.chunks_total);
  const int chunks_pruned = static_cast<int>(plan.columnar.chunks_pruned);
  const double prune_ratio =
      chunks_total > 0 ? static_cast<double>(chunks_pruned) /
                             static_cast<double>(chunks_total)
                       : 0.0;

  // Interleaved reps, medians: one slow rep (a page fault, a descheduled
  // loader thread) moves a mean of millisecond scans, not a median.
  std::vector<double> unpruned_ms;
  std::vector<double> pruned_ms;
  for (int rep = 0; rep < kSelectiveReps; ++rep) {
    // Without zone maps every chunk is read, checksummed and filtered.
    Stopwatch sw;
    const PatchCollection unpruned = UnprunedScan(reader, predicate);
    unpruned_ms.push_back(sw.ElapsedMillis());

    sw.Reset();
    auto pruned = Planner::ExecuteScan(**attached, predicate, &plan);
    DL_CHECK_OK(pruned.status());
    pruned_ms.push_back(sw.ElapsedMillis());
  }
  const double unpruned_sel_ms = Median(std::move(unpruned_ms));
  const double pruned_sel_ms = Median(std::move(pruned_ms));
  cases.push_back({"selective_scan_columnar_unpruned", unpruned_sel_ms,
                   selected_rows});
  cases.push_back({"selective_scan_columnar_pruned", pruned_sel_ms,
                   selected_rows});
  const double pruned_speedup =
      pruned_sel_ms > 0.0 ? unpruned_sel_ms / pruned_sel_ms : 0.0;
  std::printf("select  unpruned %8.1f ms   pruned %8.1f ms "
              "(%.2fx, pruned %d/%d chunks)\n",
              unpruned_sel_ms, pruned_sel_ms, pruned_speedup, chunks_pruned,
              chunks_total);

  // --- Phase 4: whole-view group count, serial vs parallel fold --------
  const std::string key = "label";
  const ExprPtr score_at_least = Ge(Attr("score"), Lit(0.5));
  uint64_t grouped_rows = 0;
  {
    ViewCache resident;
    resident.patches = dataset;
    auto oracle = Planner::ExecuteScanGroupCount(resident, key,
                                                 score_at_least, nullptr);
    DL_CHECK_OK(oracle.status());
    auto parallel = Planner::ExecuteScanGroupCount(**attached, key,
                                                   score_at_least, &plan);
    DL_CHECK_OK(parallel.status());
    if (*parallel != *oracle ||
        SerialGroupCount(*reader, key, score_at_least) != *oracle) {
      std::printf("FAIL: columnar group counts differ from the resident "
                  "group count\n");
      return 1;
    }
    for (const auto& [label, count] : *oracle) grouped_rows += count;
  }
  std::vector<double> serial_fold_ms;
  std::vector<double> parallel_fold_ms;
  for (int rep = 0; rep < kSelectiveReps; ++rep) {
    Stopwatch sw;
    const auto serial = SerialGroupCount(*reader, key, score_at_least);
    serial_fold_ms.push_back(sw.ElapsedMillis());

    sw.Reset();
    auto parallel = Planner::ExecuteScanGroupCount(**attached, key,
                                                   score_at_least, &plan);
    DL_CHECK_OK(parallel.status());
    parallel_fold_ms.push_back(sw.ElapsedMillis());
  }
  const double serial_group_ms = Median(std::move(serial_fold_ms));
  const double parallel_group_ms = Median(std::move(parallel_fold_ms));
  cases.push_back(
      {"group_count_columnar_serial", serial_group_ms, grouped_rows});
  cases.push_back({"group_count_columnar", parallel_group_ms, grouped_rows});
  const double fold_speedup =
      parallel_group_ms > 0.0 ? serial_group_ms / parallel_group_ms : 0.0;
  std::printf("group   serial   %8.2f ms   parallel %8.2f ms (%.2fx)\n",
              serial_group_ms, parallel_group_ms, fold_speedup);

  WriteJson(cases, pruned_speedup, fold_speedup, prune_ratio, file_bytes,
            rows, chunks_total, chunks_pruned);

  if (pruned_speedup < kRequiredPrunedSpeedup) {
    std::printf("\nFAIL: pruned columnar scan speedup %.2fx is below the "
                "%.1fx target\n",
                pruned_speedup, kRequiredPrunedSpeedup);
    return 1;
  }
  if (prune_ratio < kRequiredPruneRatio) {
    std::printf("\nFAIL: zone maps pruned only %d/%d chunks (%.2f < %.2f)\n",
                chunks_pruned, chunks_total, prune_ratio,
                kRequiredPruneRatio);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace deeplens

int main() { return deeplens::bench::Run(); }
