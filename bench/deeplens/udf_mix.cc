// udf_mix: the NN-UDF path, with a working set larger than the cache.
//
// Set-up registers 4,096 distinct seeded 48x48 panels (60% carry a
// 2-digit string) in buckets of 32 rows, with the inference cache at
// 256 KB total: 128 KB for inference results, about 18% of the ~720 KB
// of distinct OCR results. Two closed-loop clients cycle through a seeded
// list of 1,000 requests from their own offsets:
//   98%  OcrTextUdf == literal AND bucket in [b, b + 16), with b Zipf(0.9)
//        over the 113 possible starts,
//    2%  OcrTextUdf == literal over the whole view (a scan).
// The predicate names the UDF first, so the optimizer must reorder the
// cheap bucket conjuncts ahead of it. It exercises conjunct reordering,
// the inference cache with TinyLFU under scans, and singleflight, and
// skips storage and joins.
#include <algorithm>
#include <cmath>
#include <set>

#include "common/rng.h"
#include "exec/nn_udf.h"
#include "harness.h"
#include "sim/accuracy.h"
#include "sim/scene.h"

namespace deeplens {
namespace e2e {
namespace {

constexpr int kPanels = 4096;
constexpr int kSide = 48;
constexpr int kBucketRows = 32;
constexpr int kBuckets = kPanels / kBucketRows;
constexpr int64_t kWidth = 16;  // buckets per narrow request
constexpr int kStarts = kBuckets - static_cast<int>(kWidth) + 1;
constexpr double kZipf = 0.9;
constexpr size_t kCacheBudgetBytes = 256 << 10;
constexpr int kLiterals = 16;
constexpr int kNarrowRequests = 980;
constexpr int kScanRequests = 20;
constexpr int kWarmupRequests = 200;
constexpr int kClients = 2;
const char* const kBucket = "bucket";

struct Request {
  std::string literal;
  int64_t lo = -1;  // first bucket; -1 scans the whole view
  uint64_t expect = 0;
};

class UdfMix : public Workload {
 public:
  explicit UdfMix(uint64_t seed) : seed_(seed) {}

  Status SetUp(const std::string& dir) override {
    DL_ASSIGN_OR_RETURN(db_, Database::Open(dir + "/db"));
    CacheConfig config;
    config.budget_bytes = kCacheBudgetBytes;
    db_->ConfigureCaches(config);
    DL_RETURN_NOT_OK(db_->RegisterView("panels", MakePanels()));
    DL_ASSIGN_OR_RETURN(view_, db_->GetView("panels"));
    requests_ = MakeRequests();
    Session session = db_->CreateSession();
    PlanTally ignored;
    for (int i = 0; i < kWarmupRequests; ++i) {
      DL_RETURN_NOT_OK(
          Execute(requests_[static_cast<size_t>(i)], session, &ignored, nullptr)
              .status());
    }
    return Status::OK();
  }

  // TinyOcr called directly on every panel, no cache, no planner.
  Status PrepareOracle() override {
    nn::Device* cpu = nn::GetDevice(nn::DeviceKind::kCpuVector);
    read_.clear();
    for (const Patch& p : view_->patches) {
      DL_ASSIGN_OR_RETURN(std::string text,
                          db_->ocr()->RecognizeText(p.pixels(), cpu));
      read_.push_back(std::move(text));
    }
    for (Request& r : requests_) r.expect = Expected(r);
    return Status::OK();
  }

  Status Measure(double seconds, bool trace, Report* report,
                 Measurement* m) override {
    auto request = [&](size_t i, Session* session, ClientLog* log,
                       PlanTally* tally) {
      const Request& r = requests_[i];
      // Digested and freed after the latency is recorded.
      PatchCollection answer;
      const uint64_t t0 = NowNanos();
      const Status st = RunAdmitted(session, &log->spans, [&]() -> Status {
        DL_ASSIGN_OR_RETURN(answer, Execute(r, *session, tally, &log->spans));
        return Status::OK();
      });
      log->Record(t0, NowNanos(), st);
      if (st.ok() && DigestIds(answer) != r.expect) {
        log->Wrong("literal " + r.literal + " from bucket " +
                   std::to_string(r.lo));
      }
    };
    RunClosedLoop(db_.get(), kClients, requests_.size(), seconds, trace,
                  request, report, m);
    DL_ASSIGN_OR_RETURN(m->accuracy_f1, LiteralF1(report));
    return Status::OK();
  }

 private:
  PatchCollection MakePanels() {
    Rng rng(SubSeed(seed_, 0));
    drawn_.assign(kPanels, "");
    PatchCollection panels;
    panels.reserve(kPanels);
    for (int i = 0; i < kPanels; ++i) {
      // Distinct background noise per panel keeps every fingerprint, and
      // so every cache key, distinct.
      Image panel(kSide, kSide, 3);
      for (auto& b : panel.bytes()) {
        b = static_cast<uint8_t>(10 + rng.NextU64Below(20));
      }
      if (rng.NextU64Below(100) < 60) {
        drawn_[static_cast<size_t>(i)] =
            std::to_string(10 + rng.NextU64Below(90));
        sim::DrawDigits(&panel, nn::BBox{4, 14, 44, 34},
                        drawn_[static_cast<size_t>(i)]);
      }
      Patch p;
      p.set_id(static_cast<PatchId>(i + 1));
      p.set_ref(ImgRef{"panels", i, kInvalidPatchId});
      p.set_pixels(std::move(panel));
      p.set_bbox(nn::BBox{0, 0, kSide, kSide});
      p.mutable_meta().Set(kBucket, int64_t{i / kBucketRows});
      p.mutable_meta().Set(meta_keys::kFrameNo, int64_t{i});
      panels.push_back(std::move(p));
    }
    return panels;
  }

  std::vector<Request> MakeRequests() {
    Rng rng(SubSeed(seed_, 1));
    std::set<std::string> vocabulary;
    while (static_cast<int>(vocabulary.size()) < kLiterals) {
      vocabulary.insert(std::to_string(10 + rng.NextU64Below(90)));
    }
    literals_.assign(vocabulary.begin(), vocabulary.end());
    // Zipf(kZipf) over popularity ranks; a seeded permutation scatters
    // the hot ranks over the bucket range.
    std::vector<double> cdf(kStarts);
    double total = 0.0;
    for (int r = 0; r < kStarts; ++r) {
      total += 1.0 / std::pow(r + 1.0, kZipf);
      cdf[static_cast<size_t>(r)] = total;
    }
    std::vector<int64_t> start_of_rank(kStarts);
    for (int r = 0; r < kStarts; ++r) start_of_rank[static_cast<size_t>(r)] = r;
    for (size_t i = start_of_rank.size() - 1; i > 0; --i) {
      std::swap(start_of_rank[i], start_of_rank[rng.NextU64Below(i + 1)]);
    }
    std::vector<Request> out;
    for (int i = 0; i < kNarrowRequests; ++i) {
      Request r;
      r.literal = literals_[rng.NextU64Below(kLiterals)];
      const double u = rng.NextDouble() * total;
      const size_t rank = static_cast<size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      r.lo = start_of_rank[std::min(rank, start_of_rank.size() - 1)];
      out.push_back(r);
    }
    for (int i = 0; i < kScanRequests; ++i) {
      Request r;
      r.literal = literals_[static_cast<size_t>(i % kLiterals)];
      out.push_back(r);
    }
    for (size_t i = out.size() - 1; i > 0; --i) {
      std::swap(out[i], out[rng.NextU64Below(i + 1)]);
    }
    return out;
  }

  ExprPtr Predicate(const Request& r, InferenceCache* cache) const {
    ExprPtr ocr = Eq(OcrTextUdf(0, db_->ocr(), cache), Lit(r.literal));
    if (r.lo < 0) return ocr;
    return And(ocr, And(Ge(Attr(kBucket), Lit(r.lo)),
                        Lt(Attr(kBucket), Lit(r.lo + kWidth))));
  }

  Result<PatchCollection> Execute(const Request& r, const Session& session,
                                  PlanTally* tally, SpanLog* spans) const {
    const ExprPtr predicate = Predicate(r, session.inference_cache());
    PlanExplanation plan;
    auto rows = [&] {
      ScopedSpan span(spans, "exec.scan");
      return Planner::ExecuteScan(*view_, predicate, &plan);
    }();
    DL_RETURN_NOT_OK(rows.status());
    tally->AddPlan(plan);
    tally->AddRows(plan, rows->size());
    return rows;
  }

  uint64_t Expected(const Request& r) const {
    Digest ids;
    uint64_t count = 0;
    for (int i = 0; i < kPanels; ++i) {
      const int64_t bucket = i / kBucketRows;
      if (r.lo >= 0 && (bucket < r.lo || bucket >= r.lo + kWidth)) continue;
      if (read_[static_cast<size_t>(i)] != r.literal) continue;
      ids.Add(view_->patches[static_cast<size_t>(i)].id());
      ++count;
    }
    ids.Add(count);
    return ids.value();
  }

  // Post-run pass: one whole-view query per literal, checked against the
  // oracle and scored against the strings actually drawn.
  Result<double> LiteralF1(Report* report) const {
    Session session = db_->CreateSession();
    sim::PrecisionRecall pr;
    for (const std::string& literal : literals_) {
      Request r;
      r.literal = literal;
      PlanExplanation plan;
      DL_ASSIGN_OR_RETURN(
          PatchCollection rows,
          Planner::ExecuteScan(
              *view_, Predicate(r, session.inference_cache()), &plan));
      if (DigestIds(rows) != Expected(r)) {
        report->Problem("whole-view scan for literal " + literal);
      }
      std::set<PatchId> found;
      for (const Patch& p : rows) found.insert(p.id());
      for (int i = 0; i < kPanels; ++i) {
        const bool reported = found.count(static_cast<PatchId>(i + 1)) > 0;
        const bool present = drawn_[static_cast<size_t>(i)] == literal;
        pr.tp += present && reported;
        pr.fp += !present && reported;
        pr.fn += present && !reported;
      }
    }
    return pr.f1();
  }

  uint64_t seed_;
  std::unique_ptr<Database> db_;
  ViewCache* view_ = nullptr;
  std::vector<std::string> drawn_;     // string drawn on each panel
  std::vector<std::string> read_;      // oracle: TinyOcr on each panel
  std::vector<std::string> literals_;  // query vocabulary
  std::vector<Request> requests_;
};

}  // namespace

std::unique_ptr<Workload> MakeUdfMix(uint64_t seed) {
  return std::make_unique<UdfMix>(seed);
}

}  // namespace e2e
}  // namespace deeplens
