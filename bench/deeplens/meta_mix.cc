// meta_mix: the paper's metadata queries, with no NN at query time.
//
// Set-up runs the benchmark ETL (core/benchmark_queries.h) over 2,400
// TrafficCam frames and builds the hand-tuned DL index set. Two
// closed-loop clients then cycle through a seeded list of 50 requests,
// each client from its own offset, so every run sees exactly this mix:
//   20% q2  count distinct frames by label (hash index),
//   20%     50-frame range selections (B+tree),
//   40% q4  person filters at 4 score thresholds (hash + residual),
//   20% q6  same-frame person pairs, radix HashEqualityJoin with the
//           depth residual.
// The mix is weighted so that the median request is a q4 and the 95th
// percentile a q6: requests under 2 ms drifted 20-50% between runs on a
// shared 4-vCPU host, the heavier ones about half as much.
// It exercises the planner, plan cache, indexes, morsel pipeline, radix
// join and aggregates, and skips the cache, nn and storage layers.
#include <algorithm>
#include <set>

#include "common/rng.h"
#include "core/benchmark_queries.h"
#include "harness.h"

namespace deeplens {
namespace e2e {
namespace {

constexpr int kFrames = 2400;
constexpr int64_t kRangeFrames = 50;
constexpr int kClients = 2;
const char* const kLabels[] = {"car", "person"};
constexpr double kMinScores[] = {0.2, 0.3, 0.4, 0.5};

enum class Kind { kCountFrames, kRange, kPersons, kPairs };

struct Request {
  Kind kind;
  std::string label;   // kCountFrames
  int64_t lo = 0;      // kRange: frameno in [lo, lo + kRangeFrames)
  double min_score = 0.0;  // kPersons
  uint64_t expect = 0;     // oracle digest
};

// A request's result as the client receives it. The client digests and
// frees it after the request's latency is recorded.
struct Answer {
  uint64_t count = 0;              // kCountFrames
  PatchCollection rows;            // kRange, kPersons
  std::vector<PatchTuple> pairs;   // kPairs
};

uint64_t DigestOf(const Request& r, const Answer& a) {
  switch (r.kind) {
    case Kind::kCountFrames:
      return a.count;
    case Kind::kPairs:
      return DigestPairs(a.pairs);
    case Kind::kRange:
    case Kind::kPersons:
      break;
  }
  return DigestIds(a.rows);
}

ExprPtr Predicate(const Request& r) {
  switch (r.kind) {
    case Kind::kCountFrames:
      return Eq(Attr(meta_keys::kLabel), Lit(r.label));
    case Kind::kRange:
      return And(Ge(Attr(meta_keys::kFrameNo), Lit(r.lo)),
                 Lt(Attr(meta_keys::kFrameNo), Lit(r.lo + kRangeFrames)));
    case Kind::kPersons:
      return And(Eq(Attr(meta_keys::kLabel), Lit("person")),
                 Ge(Attr(meta_keys::kScore), Lit(r.min_score)));
    case Kind::kPairs:
      break;
  }
  return nullptr;
}

// q6's residual over (p1, p2), as BenchmarkWorkload::RunQ6 writes it.
ExprPtr PairResidual(double depth_margin) {
  ExprPtr persons = And(Eq(Attr(0, meta_keys::kLabel), Lit("person")),
                        Eq(Attr(1, meta_keys::kLabel), Lit("person")));
  ExprPtr behind = Gt(Attr(0, meta_keys::kDepth),
                      Add(Attr(1, meta_keys::kDepth), Lit(depth_margin)));
  ExprPtr distinct =
      Ne(Attr(0, meta_keys::kPatchId), Attr(1, meta_keys::kPatchId));
  return And(And(persons, behind), distinct);
}

uint64_t CountDistinctFrames(const PatchCollection& rows) {
  std::set<int64_t> frames;
  for (const Patch& p : rows) {
    frames.insert(p.meta().Get(meta_keys::kFrameNo).AsInt().ValueOr(-1));
  }
  return frames.size();
}

class MetaMix : public Workload {
 public:
  explicit MetaMix(uint64_t seed) : seed_(seed) {
    config_.traffic.num_frames = kFrames;
    config_.traffic.num_pedestrians = kFrames / 50;
    config_.traffic.seed = SubSeed(seed, 0);
    // The other two datasets only need to exist.
    config_.football.num_videos = 1;
    config_.football.frames_per_video = 4;
    config_.pc.num_images = 8;
    config_.pc.num_duplicates = 1;
    config_.pc.num_text_images = 2;
  }

  Status SetUp(const std::string& dir) override {
    DL_ASSIGN_OR_RETURN(workload_,
                        bench::BenchmarkWorkload::Create(dir, config_));
    DL_RETURN_NOT_OK(workload_->RunEtl());
    DL_ASSIGN_OR_RETURN(index_build_ms_, workload_->BuildOptimizedIndexes());
    DL_ASSIGN_OR_RETURN(view_, workload_->db()->GetView("traffic_dets"));
    requests_ = MakeRequests();
    residual_ = PairResidual(config_.q6_depth_margin);
    // Warm-up: every distinct request once.
    PlanTally ignored;
    for (const Request& r : requests_) {
      DL_RETURN_NOT_OK(Execute(r, &ignored, nullptr).status());
    }
    return Status::OK();
  }

  Status PrepareOracle() override {
    MorselOptions serial;
    serial.num_threads = 1;
    for (Request& r : requests_) {
      if (r.kind == Kind::kPairs) {
        r.expect = NaiveJoinDigest();
        continue;
      }
      DL_ASSIGN_OR_RETURN(PatchCollection rows,
                          ParallelSelect(view_->patches, Predicate(r), serial));
      r.expect = r.kind == Kind::kCountFrames ? CountDistinctFrames(rows)
                                              : DigestIds(rows);
    }
    return Status::OK();
  }

  Status Measure(double seconds, bool trace, Report* report,
                 Measurement* m) override {
    auto request = [&](size_t i, Session* session, ClientLog* log,
                       PlanTally* tally) {
      const Request& r = requests_[i];
      Answer answer;
      const uint64_t t0 = NowNanos();
      const Status st = RunAdmitted(session, &log->spans, [&]() -> Status {
        DL_ASSIGN_OR_RETURN(answer, Execute(r, tally, &log->spans));
        return Status::OK();
      });
      log->Record(t0, NowNanos(), st);
      if (st.ok() && DigestOf(r, answer) != r.expect) log->Wrong(Describe(r));
    };
    RunClosedLoop(workload_->db(), kClients, requests_.size(), seconds, trace,
                  request, report, m);
    m->index_build_ms = index_build_ms_;
    DL_ASSIGN_OR_RETURN(m->accuracy_f1, FrameF1());
    return Status::OK();
  }

 private:
  // 50 requests in the mix's exact proportions, then shuffled.
  std::vector<Request> MakeRequests() const {
    Rng rng(SubSeed(seed_, 1));
    std::vector<Request> out;
    for (int i = 0; i < 10; ++i) {
      out.push_back({Kind::kCountFrames, kLabels[i % 2]});
    }
    for (int i = 0; i < 10; ++i) {
      Request r{Kind::kRange, ""};
      r.lo = rng.NextInt(0, kFrames - kRangeFrames);
      out.push_back(r);
    }
    for (int i = 0; i < 20; ++i) {
      Request r{Kind::kPersons, ""};
      r.min_score = kMinScores[i % 4];
      out.push_back(r);
    }
    for (int i = 0; i < 10; ++i) out.push_back({Kind::kPairs, ""});
    for (size_t i = out.size() - 1; i > 0; --i) {
      std::swap(out[i], out[rng.NextU64Below(i + 1)]);
    }
    return out;
  }

  static std::string Describe(const Request& r) {
    switch (r.kind) {
      case Kind::kCountFrames:
        return "q2 label=" + r.label;
      case Kind::kRange:
        return "range lo=" + std::to_string(r.lo);
      case Kind::kPersons:
        return "q4 min_score=" + std::to_string(r.min_score);
      case Kind::kPairs:
        break;
    }
    return "q6";
  }

  // One request's single call into the exec layer.
  Result<Answer> Execute(const Request& r, PlanTally* tally,
                         SpanLog* spans) const {
    const ExprPtr predicate = Predicate(r);
    PlanExplanation plan;
    Answer answer;
    switch (r.kind) {
      case Kind::kCountFrames: {
        auto frames = [&] {
          ScopedSpan span(spans, "exec.count_distinct");
          return Planner::ExecuteScanCountDistinct(
              *view_, meta_keys::kFrameNo, predicate, &plan);
        }();
        DL_ASSIGN_OR_RETURN(answer.count, std::move(frames));
        tally->AddPlan(plan);
        return answer;
      }
      case Kind::kRange:
      case Kind::kPersons: {
        auto rows = [&] {
          ScopedSpan span(spans, "exec.scan");
          return Planner::ExecuteScan(*view_, predicate, &plan);
        }();
        DL_ASSIGN_OR_RETURN(answer.rows, std::move(rows));
        tally->AddPlan(plan);
        tally->AddRows(plan, answer.rows.size());
        return answer;
      }
      case Kind::kPairs:
        break;
    }
    JoinStats stats;
    auto pairs = [&] {
      ScopedSpan span(spans, "exec.join");
      return HashEqualityJoin(view_->patches, view_->patches,
                              meta_keys::kFrameNo, residual_, &stats);
    }();
    DL_ASSIGN_OR_RETURN(answer.pairs, std::move(pairs));
    tally->AddJoin(stats);
    return answer;
  }

  // q6 by hand: every same-frame pair in the join's canonical order (left
  // rows in view order, each one's matches in view order).
  uint64_t NaiveJoinDigest() const {
    const PatchCollection& rows = view_->patches;
    std::map<int64_t, std::vector<size_t>> by_frame;
    for (size_t i = 0; i < rows.size(); ++i) {
      const MetaValue& f = rows[i].meta().Get(meta_keys::kFrameNo);
      if (!f.is_null()) by_frame[*f.AsInt()].push_back(i);
    }
    Digest pairs;
    uint64_t count = 0;
    for (const Patch& left : rows) {
      const MetaValue& f = left.meta().Get(meta_keys::kFrameNo);
      if (f.is_null()) continue;
      for (size_t j : by_frame[*f.AsInt()]) {
        if (residual_->EvalBool({left, rows[j]}).ValueOr(false)) {
          pairs.Add(left.id());
          pairs.Add(rows[j].id());
          ++count;
        }
      }
    }
    pairs.Add(count);
    return pairs.value();
  }

  // Post-run pass: per label, the frames the view's detections put it in
  // against the frames the simulation put it in.
  Result<double> FrameF1() const {
    int tp = 0, fp = 0, fn = 0;
    for (const char* label : kLabels) {
      PlanExplanation plan;
      DL_ASSIGN_OR_RETURN(
          PatchCollection rows,
          Planner::ExecuteScan(*view_, Eq(Attr(meta_keys::kLabel), Lit(label)),
                               &plan));
      std::set<int64_t> found;
      for (const Patch& p : rows) {
        found.insert(p.meta().Get(meta_keys::kFrameNo).AsInt().ValueOr(-1));
      }
      for (int f = 0; f < kFrames; ++f) {
        bool present = false;
        for (const sim::SceneObject& o : workload_->traffic().TruthAt(f).objects) {
          present |= std::string(nn::ObjectClassName(o.cls)) == label;
        }
        const bool reported = found.count(f) > 0;
        tp += present && reported;
        fp += !present && reported;
        fn += present && !reported;
      }
    }
    sim::PrecisionRecall pr;
    pr.tp = tp;
    pr.fp = fp;
    pr.fn = fn;
    return pr.f1();
  }

  uint64_t seed_;
  bench::WorkloadConfig config_;
  std::unique_ptr<bench::BenchmarkWorkload> workload_;
  ViewCache* view_ = nullptr;
  double index_build_ms_ = 0.0;
  std::vector<Request> requests_;
  ExprPtr residual_;
};

}  // namespace

std::unique_ptr<Workload> MakeMetaMix(uint64_t seed) {
  return std::make_unique<MetaMix>(seed);
}

}  // namespace e2e
}  // namespace deeplens
