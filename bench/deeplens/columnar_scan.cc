// columnar_scan: the disk path, and whether a short query stays fast
// under a long scan.
//
// Set-up writes 200,000 seeded detection-like rows sorted by frameno
// (label, score, bbox, 32-d features, and a `tp` truth flag drawn with
// probability equal to the score), persists them as a columnar view and
// attaches it disk-backed. Then, concurrently:
//   client A    runs whole-view ExecuteScanGroupCount(label) with
//               score >= t in a closed loop (requests_per_s counts these);
//   generator B issues frameno in [f, f + 20) lookups open-loop at 60/s,
//               each timed from when it was due (the latency metrics).
// A lookup decodes the one or two columnar chunks (8,192 rows by default)
// its frames fall in. At 20 frames about 2% of lookups span two chunks,
// well inside the 5% tail, so p95 measures contention with the scan
// rather than how many two-chunk lookups a seed happened to draw.
// It skips the nn, cache and join layers. The OS page cache serves the
// reads, so latencies are this machine's, not a disk's.
#include <filesystem>
#include <thread>

#include "common/rng.h"
#include "harness.h"
#include "sim/accuracy.h"

namespace deeplens {
namespace e2e {
namespace {

constexpr int kRows = 200000;
constexpr int kRowsPerFrame = 8;
constexpr int kFrames = kRows / kRowsPerFrame;
constexpr int kFeatureDim = 32;
constexpr int kGenerateBlock = 8192;
constexpr int64_t kLookupFrames = 20;
constexpr int kLookups = 256;
constexpr double kLookupsPerSecond = 60.0;
constexpr double kThresholds[] = {0.2, 0.4, 0.6, 0.8};
constexpr int kNumThresholds = 4;
const char* const kLabels[] = {"car", "person", "bus", "bicycle"};
const char* const kTruth = "tp";
const char* const kView = "detections";

ExprPtr ScoreAtLeast(double t) { return Ge(Attr(meta_keys::kScore), Lit(t)); }

ExprPtr FrameRange(int64_t lo) {
  return And(Ge(Attr(meta_keys::kFrameNo), Lit(lo)),
             Lt(Attr(meta_keys::kFrameNo), Lit(lo + kLookupFrames)));
}

// Streams the seeded rows in blocks, so the oracle never holds them all.
class RowGenerator {
 public:
  explicit RowGenerator(uint64_t seed) : rng_(seed) {}

  PatchCollection Next(int n) {
    PatchCollection out;
    out.reserve(static_cast<size_t>(n));
    for (int k = 0; k < n && row_ < kRows; ++k, ++row_) {
      const int64_t frame = row_ / kRowsPerFrame;
      const double score = rng_.NextDouble();
      const int x0 = static_cast<int>(rng_.NextU64Below(100));
      const int y0 = static_cast<int>(rng_.NextU64Below(60));
      Patch p;
      p.set_id(static_cast<PatchId>(row_ + 1));
      p.set_ref(ImgRef{"cam", frame, kInvalidPatchId});
      p.set_bbox(nn::BBox{x0, y0, x0 + 8 + static_cast<int>(rng_.NextU64Below(20)),
                          y0 + 8 + static_cast<int>(rng_.NextU64Below(12))});
      MetaDict& meta = p.mutable_meta();
      meta.Set(meta_keys::kFrameNo, frame);
      meta.Set(meta_keys::kLabel, std::string(kLabels[rng_.NextU64Below(4)]));
      meta.Set(meta_keys::kScore, score);
      meta.Set(kTruth, int64_t{rng_.NextDouble() < score});
      std::vector<float> features(kFeatureDim);
      for (float& f : features) f = rng_.NextFloat();
      p.set_features(Tensor::FromVector(std::move(features)));
      out.push_back(std::move(p));
    }
    return out;
  }

 private:
  Rng rng_;
  int row_ = 0;
};

class ColumnarScan : public Workload {
 public:
  explicit ColumnarScan(uint64_t seed) : seed_(seed) {
    Rng rng(SubSeed(seed, 1));
    for (int i = 0; i < kLookups; ++i) {
      lookups_.push_back(rng.NextInt(0, kFrames - kLookupFrames));
    }
  }

  Status SetUp(const std::string& dir) override {
    dir_ = dir;
    DL_ASSIGN_OR_RETURN(db_, Database::Open(dir + "/db"));
    RowGenerator rows(SubSeed(seed_, 0));
    DL_RETURN_NOT_OK(db_->RegisterView(kView, rows.Next(kRows)));
    DL_RETURN_NOT_OK(db_->PersistView(kView));
    DL_RETURN_NOT_OK(db_->AttachPersistedView(kView));
    DL_ASSIGN_OR_RETURN(view_, db_->GetView(kView));
    // Warm-up: every scan threshold and every lookup once.
    PlanTally ignored;
    for (double t : kThresholds) {
      DL_RETURN_NOT_OK(GroupCount(t, &ignored, nullptr).status());
    }
    for (int64_t lo : lookups_) {
      DL_RETURN_NOT_OK(Lookup(lo, &ignored, nullptr).status());
    }
    return Status::OK();
  }

  // Serial ParallelSelect over the regenerated rows, block by block.
  Status PrepareOracle() override {
    MorselOptions serial;
    serial.num_threads = 1;
    std::vector<std::map<std::string, uint64_t>> groups(kNumThresholds);
    std::vector<Digest> lookup_ids(kLookups);
    std::vector<uint64_t> lookup_rows(kLookups, 0);
    RowGenerator gen(SubSeed(seed_, 0));
    for (int done = 0; done < kRows; done += kGenerateBlock) {
      const PatchCollection block = gen.Next(kGenerateBlock);
      const int64_t first_frame = done / kRowsPerFrame;
      const int64_t last_frame = (done + kGenerateBlock - 1) / kRowsPerFrame;
      for (int t = 0; t < kNumThresholds; ++t) {
        DL_ASSIGN_OR_RETURN(
            PatchCollection hits,
            ParallelSelect(block, ScoreAtLeast(kThresholds[t]), serial));
        // Keyed as ExecuteScanGroupCount keys its groups.
        for (const Patch& p : hits) {
          ++groups[static_cast<size_t>(t)]
                  [p.meta().Get(meta_keys::kLabel).ToDisplayString()];
        }
      }
      for (int i = 0; i < kLookups; ++i) {
        const int64_t lo = lookups_[static_cast<size_t>(i)];
        if (lo > last_frame || lo + kLookupFrames <= first_frame) continue;
        DL_ASSIGN_OR_RETURN(PatchCollection hits,
                            ParallelSelect(block, FrameRange(lo), serial));
        for (const Patch& p : hits) lookup_ids[static_cast<size_t>(i)].Add(p.id());
        lookup_rows[static_cast<size_t>(i)] += hits.size();
      }
    }
    for (int t = 0; t < kNumThresholds; ++t) {
      scan_expect_.push_back(DigestGroups(groups[static_cast<size_t>(t)]));
      selected_.push_back(groups[static_cast<size_t>(t)]);
    }
    for (int i = 0; i < kLookups; ++i) {
      lookup_ids[static_cast<size_t>(i)].Add(lookup_rows[static_cast<size_t>(i)]);
      lookup_expect_.push_back(lookup_ids[static_cast<size_t>(i)].value());
    }
    return Status::OK();
  }

  Status Measure(double seconds, bool trace, Report* report,
                 Measurement* m) override {
    ClientLog scans(trace);
    ClientLog lookups(trace);
    PlanTally scan_tally;
    PlanTally lookup_tally;
    m->before = CounterSnapshot::Take(db_.get());
    const uint64_t start = NowNanos();
    const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
    uint64_t last_scan_end = start;
    std::thread client_a([&] {
      Session session = db_->CreateSession();
      for (size_t i = 0; NowNanos() < deadline; ++i) {
        const size_t t = i % kNumThresholds;
        std::map<std::string, uint64_t> answer;
        const uint64_t t0 = NowNanos();
        const Status st = RunAdmitted(&session, &scans.spans, [&]() -> Status {
          DL_ASSIGN_OR_RETURN(
              answer, GroupCount(kThresholds[t], &scan_tally, &scans.spans));
          return Status::OK();
        });
        last_scan_end = NowNanos();
        scans.Record(t0, last_scan_end, st);
        if (st.ok() && DigestGroups(answer) != scan_expect_[t]) {
          scans.Wrong("group count at score >= " +
                      std::to_string(kThresholds[t]));
        }
      }
    });
    std::thread generator_b([&] {
      Session session = db_->CreateSession();
      const double period_ns = 1e9 / kLookupsPerSecond;
      for (size_t k = 0;; ++k) {
        const uint64_t due =
            start + static_cast<uint64_t>(static_cast<double>(k) * period_ns);
        if (due >= deadline) break;
        for (uint64_t now = NowNanos(); now < due; now = NowNanos()) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        }
        m->generator_lag_ms.push_back(
            static_cast<double>(NowNanos() - due) / 1e6);
        const size_t i = k % kLookups;
        PatchCollection answer;
        const Status st =
            RunAdmitted(&session, &lookups.spans, [&]() -> Status {
              DL_ASSIGN_OR_RETURN(answer, Lookup(lookups_[i], &lookup_tally,
                                                 &lookups.spans));
              return Status::OK();
            });
        lookups.Record(due, NowNanos(), st);
        if (st.ok() && DigestIds(answer) != lookup_expect_[i]) {
          lookups.Wrong("lookup from frame " + std::to_string(lookups_[i]));
        }
      }
    });
    client_a.join();
    generator_b.join();
    m->elapsed_s = static_cast<double>(NowNanos() - start) / 1e9;
    m->after = CounterSnapshot::Take(db_.get());
    m->cache_budget_bytes = db_->cache_config().budget_bytes;

    const double scan_s = static_cast<double>(last_scan_end - start) / 1e9;
    const double completed = static_cast<double>(scans.latency_ms.size());
    m->requests_per_s = completed / scan_s;
    m->scan_rows_per_s = completed * kRows / scan_s;
    m->plans.Merge(scan_tally);
    m->plans.Merge(lookup_tally);
    Collect(std::move(scans), /*latencies=*/false, report, m);
    Collect(std::move(lookups), /*latencies=*/true, report, m);
    m->stored_rows = kRows;
    m->stored_bytes = std::filesystem::file_size(dir_ + "/db/views/" + kView);
    DL_ASSIGN_OR_RETURN(m->accuracy_f1, ThresholdF1());
    return Status::OK();
  }

 private:
  Result<std::map<std::string, uint64_t>> GroupCount(double threshold,
                                                     PlanTally* tally,
                                                     SpanLog* spans) const {
    PlanExplanation plan;
    auto groups = [&] {
      ScopedSpan span(spans, "exec.group_count");
      return Planner::ExecuteScanGroupCount(*view_, meta_keys::kLabel,
                                            ScoreAtLeast(threshold), &plan);
    }();
    if (groups.ok()) tally->AddPlan(plan);
    return groups;
  }

  Result<PatchCollection> Lookup(int64_t lo, PlanTally* tally,
                                 SpanLog* spans) const {
    PlanExplanation plan;
    auto rows = [&] {
      ScopedSpan span(spans, "exec.scan");
      return Planner::ExecuteScan(*view_, FrameRange(lo), &plan);
    }();
    if (rows.ok()) {
      tally->AddPlan(plan);
      tally->AddRows(plan, rows->size());
    }
    return rows;
  }

  // Post-run pass: per threshold, how well "score >= t" selects the rows
  // the generator flagged true, counted by the scan path itself.
  Result<double> ThresholdF1() const {
    PlanExplanation plan;
    const ExprPtr is_true = Eq(Attr(kTruth), Lit(int64_t{1}));
    DL_ASSIGN_OR_RETURN(auto truth, Planner::ExecuteScanGroupCount(
                                        *view_, meta_keys::kLabel, is_true,
                                        &plan));
    sim::PrecisionRecall pr;
    for (int t = 0; t < kNumThresholds; ++t) {
      DL_ASSIGN_OR_RETURN(
          auto hits, Planner::ExecuteScanGroupCount(
                         *view_, meta_keys::kLabel,
                         And(ScoreAtLeast(kThresholds[t]), is_true), &plan));
      for (const auto& [label, selected] : selected_[static_cast<size_t>(t)]) {
        const int tp = static_cast<int>(hits[label]);
        pr.tp += tp;
        pr.fp += static_cast<int>(selected) - tp;
        pr.fn += static_cast<int>(truth[label]) - tp;
      }
    }
    return pr.f1();
  }

  uint64_t seed_;
  std::string dir_;
  std::unique_ptr<Database> db_;
  ViewCache* view_ = nullptr;
  std::vector<int64_t> lookups_;
  std::vector<uint64_t> scan_expect_;
  std::vector<std::map<std::string, uint64_t>> selected_;  // oracle groups
  std::vector<uint64_t> lookup_expect_;
};

}  // namespace

std::unique_ptr<Workload> MakeColumnarScan(uint64_t seed) {
  return std::make_unique<ColumnarScan>(seed);
}

}  // namespace e2e
}  // namespace deeplens
