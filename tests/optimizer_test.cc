// Cost-based UDF optimizer tests: conjunct reordering must never change
// results (differential against the unoptimized evaluator), plan
// memoization must hit/miss/invalidate on the right events, and proxy
// cascades must account for their accuracy honestly. Labeled `parallel`
// in CMake so TSan exercises the shared cost-model/plan-cache counters
// under the morsel driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "core/cost_model.h"
#include "core/database.h"
#include "core/planner.h"
#include "core/query.h"
#include "exec/nn_udf.h"
#include "exec/operators.h"
#include "exec/pipeline.h"
#include "sim/accuracy.h"
#include "sim/scene.h"

namespace deeplens {
namespace {

Image DigitPanel(int digit) {
  Image panel(30, 30, 3);
  for (auto& b : panel.bytes()) b = 25;
  sim::DrawDigits(&panel, nn::BBox{0, 0, 30, 30}, std::to_string(digit));
  return panel;
}

Image NoisePanel(Rng* rng) {
  Image panel(30, 30, 3);
  for (auto& b : panel.bytes()) {
    b = static_cast<uint8_t>(rng->NextU64Below(40));
  }
  return panel;
}

// Mixed view: digit panels (OCR finds text), noise panels (no legible
// text, but some ink above threshold), blank panels (inkless — the OCR
// proxy's confident-reject case), and a few pixel-less rows (UDF null).
PatchCollection MixedView(Rng* rng, int n) {
  PatchCollection patches;
  patches.reserve(n);
  for (int i = 0; i < n; ++i) {
    Patch p;
    p.set_id(static_cast<PatchId>(i + 1));
    p.set_ref(ImgRef{"opt", i, kInvalidPatchId});
    p.set_bbox(nn::BBox{0, 10, 30, 10 + 10 + static_cast<int>(
                                                 rng->NextU64Below(60))});
    const uint64_t kind = rng->NextU64Below(100);
    if (kind < 10) {
      // pixel-less
    } else if (kind < 45) {
      p.set_pixels(DigitPanel(static_cast<int>(rng->NextU64Below(10))));
    } else if (kind < 70) {
      p.set_pixels(NoisePanel(rng));
    } else {
      Image blank(30, 30, 3);
      for (auto& b : blank.bytes()) b = 20;
      p.set_pixels(blank);
    }
    p.mutable_meta().Set(meta_keys::kFrameNo, int64_t{i});
    p.mutable_meta().Set("bucket",
                         static_cast<int64_t>(rng->NextU64Below(4)));
    patches.push_back(std::move(p));
  }
  return patches;
}

std::vector<uint8_t> SerializeAll(const PatchCollection& patches) {
  ByteBuffer buf;
  buf.PutU64(patches.size());
  for (const Patch& p : patches) p.SerializeInto(&buf);
  return buf.data();
}

class OptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    unsetenv("DEEPLENS_CASCADE_THRESHOLD");
    unsetenv("DEEPLENS_PLAN_CACHE_ENTRIES");
    CostModel::Global()->Clear();
    Planner::ResetPlanCacheForTest();
    root_ = (std::filesystem::temp_directory_path() /
             ("dl_optimizer_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                .string();
    std::filesystem::remove_all(root_);
    auto db = Database::Open(root_);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    CacheConfig config;
    config.budget_bytes = 16 << 20;
    db_->ConfigureCaches(config);
  }
  void TearDown() override {
    db_.reset();
    std::filesystem::remove_all(root_);
    unsetenv("DEEPLENS_CASCADE_THRESHOLD");
    unsetenv("DEEPLENS_PLAN_CACHE_ENTRIES");
    CostModel::Global()->Clear();
    Planner::ResetPlanCacheForTest();
  }

  std::string root_;
  std::unique_ptr<Database> db_;
};

// --- Reordering: results must be byte-identical ---------------------------

TEST_F(OptimizerTest, RandomizedDifferentialAgainstUnoptimizedEvaluator) {
  // Random predicates over a hand-built view (version 0: no plan cache in
  // the loop); the optimized ExecuteScan must return byte-identical rows
  // to a plain ordered ParallelSelect of the predicate as written — on
  // cold cost profiles and on profiles warmed by the earlier iterations.
  Rng rng(0x0517);
  for (int round = 0; round < 12; ++round) {
    Rng view_rng(1000 + static_cast<uint64_t>(round));
    ViewCache view;
    view.patches = MixedView(&view_rng, 24);

    std::vector<ExprPtr> pool;
    pool.push_back(Eq(Attr("bucket"),
                      Lit(static_cast<int64_t>(rng.NextU64Below(4)))));
    pool.push_back(Lt(Attr(meta_keys::kFrameNo),
                      Lit(static_cast<int64_t>(4 + rng.NextU64Below(20)))));
    pool.push_back(
        Eq(OcrTextUdf(0, db_->ocr(), db_->inference_cache()),
           Lit(std::to_string(rng.NextU64Below(10)))));
    pool.push_back(Gt(DepthUdf(0, db_->depth_model(), 240),
                      Lit(2.0 + static_cast<double>(rng.NextU64Below(40)))));

    // 2-4 random conjuncts, any order, duplicates allowed.
    ExprPtr pred;
    const size_t n = 2 + rng.NextU64Below(3);
    for (size_t i = 0; i < n; ++i) {
      ExprPtr c = pool[rng.NextU64Below(pool.size())];
      pred = pred ? And(pred, c) : c;
    }

    auto oracle = ParallelSelect(view.patches, pred);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    PlanExplanation plan;
    auto optimized = Planner::ExecuteScan(view, pred, &plan);
    ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
    EXPECT_EQ(SerializeAll(*optimized), SerializeAll(*oracle))
        << "round " << round << ": " << plan.description;
    EXPECT_FALSE(plan.cascade.used);  // threshold defaults to 1.0
  }
}

TEST_F(OptimizerTest, DeterministicUnderRepetition) {
  // Selectivity observations accumulate between runs and may legally flip
  // the executed order — the result bytes must not move.
  Rng view_rng(7);
  ViewCache view;
  view.patches = MixedView(&view_rng, 30);
  ExprPtr pred =
      And(Eq(OcrTextUdf(0, db_->ocr(), db_->inference_cache()), Lit("3")),
          Lt(Attr(meta_keys::kFrameNo), Lit(int64_t{25})));
  std::vector<uint8_t> first;
  for (int i = 0; i < 3; ++i) {
    auto got = Planner::ExecuteScan(view, pred, nullptr);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    if (i == 0) {
      first = SerializeAll(*got);
    } else {
      EXPECT_EQ(SerializeAll(*got), first) << "run " << i;
    }
  }
}

TEST_F(OptimizerTest, ExpensiveUdfWrittenFirstRunsLast) {
  // Written expensive-first: the uncached OCR conjunct costs ~1ms/row by
  // the cold-start default while the attr comparison costs ~0.1us, so the
  // executed order must flip them — and Explain() must say so, with the
  // UDF list reflecting the *executed* order.
  Rng view_rng(11);
  ViewCache view;
  view.patches = MixedView(&view_rng, 10);
  ExprPtr pred = And(Eq(OcrTextUdf(0, db_->ocr()), Lit("7")),
                     Eq(Attr("bucket"), Lit(int64_t{1})));
  PlanExplanation plan = Planner::PlanScan(view, pred).explanation;
  EXPECT_TRUE(plan.reordered);
  ASSERT_EQ(plan.conjunct_costs.size(), 2u);
  EXPECT_TRUE(plan.conjunct_costs[0].sargable);
  EXPECT_TRUE(plan.conjunct_costs[0].udfs.empty());
  EXPECT_EQ(plan.conjunct_costs[0].source_index, 1u);
  ASSERT_EQ(plan.conjunct_costs[1].udfs.size(), 1u);
  EXPECT_EQ(plan.conjunct_costs[1].udfs[0], model_names::kOcr);
  EXPECT_GT(plan.conjunct_costs[1].cost_ms,
            plan.conjunct_costs[0].cost_ms);
  // The plan-wide UDF annotation reflects the executed predicate.
  ASSERT_EQ(plan.udfs.size(), 1u);
  EXPECT_EQ(plan.udfs[0].model, model_names::kOcr);
  EXPECT_NE(plan.description.find("reordered"), std::string::npos);
  EXPECT_NE(plan.description.find("conjunct costs"), std::string::npos);
}

TEST_F(OptimizerTest, ObservedRuntimesOutrankColdDefaults) {
  // Feed the cost model hand-made runtime profiles: make the depth model
  // look 100x cheaper than OCR. A two-UDF predicate must then run depth
  // first regardless of written order.
  CostModel* cm = CostModel::Global();
  for (int i = 0; i < 64; ++i) {
    cm->RecordUdfEval(model_names::kOcr, /*cache_hit=*/false, 10.0);
    cm->RecordUdfEval(model_names::kDepth, /*cache_hit=*/false, 0.1);
  }
  Rng view_rng(13);
  ViewCache view;
  view.patches = MixedView(&view_rng, 8);
  ExprPtr pred = And(Ne(OcrTextUdf(0, db_->ocr()), Lit("")),
                     Gt(DepthUdf(0, db_->depth_model(), 240), Lit(5.0)));
  PlanExplanation plan = Planner::PlanScan(view, pred).explanation;
  ASSERT_EQ(plan.conjunct_costs.size(), 2u);
  ASSERT_EQ(plan.conjunct_costs[0].udfs.size(), 1u);
  EXPECT_EQ(plan.conjunct_costs[0].udfs[0], model_names::kDepth);
  EXPECT_TRUE(plan.reordered);
}

// --- Plan memoization -----------------------------------------------------

TEST_F(OptimizerTest, PlanCacheHitsOnRepeatMissesOnViewSwap) {
  Rng view_rng(17);
  ASSERT_TRUE(db_->RegisterView("opt", MixedView(&view_rng, 16)).ok());
  const auto base = Planner::GetPlanCacheStats();

  Query q1(db_.get(), "opt");
  q1.Where(Eq(Attr("bucket"), Lit(int64_t{2})));
  auto plan1 = q1.Explain();
  ASSERT_TRUE(plan1.ok());
  EXPECT_FALSE(plan1->plan_cache_hit);

  Query q2(db_.get(), "opt");
  q2.Where(Eq(Attr("bucket"), Lit(int64_t{3})));  // same shape, new literal
  auto plan2 = q2.Explain();
  ASSERT_TRUE(plan2.ok());
  EXPECT_TRUE(plan2->plan_cache_hit);
  EXPECT_NE(plan2->description.find("plan cache hit"), std::string::npos);

  auto after = Planner::GetPlanCacheStats();
  EXPECT_EQ(after.hits, base.hits + 1);
  EXPECT_EQ(after.misses, base.misses + 1);

  // Re-registering the view bumps its version: same shape must re-plan.
  Rng swap_rng(18);
  ASSERT_TRUE(db_->RegisterView("opt", MixedView(&swap_rng, 16)).ok());
  auto plan3 = Query(db_.get(), "opt")
                   .Where(Eq(Attr("bucket"), Lit(int64_t{2})))
                   .Explain();
  ASSERT_TRUE(plan3.ok());
  EXPECT_FALSE(plan3->plan_cache_hit);
}

TEST_F(OptimizerTest, HandBuiltViewsAreNeverMemoized) {
  Rng view_rng(19);
  ViewCache view;  // version 0
  view.patches = MixedView(&view_rng, 8);
  const auto base = Planner::GetPlanCacheStats();
  ExprPtr pred = Eq(Attr("bucket"), Lit(int64_t{0}));
  (void)Planner::PlanScan(view, pred);
  (void)Planner::PlanScan(view, pred);
  const auto after = Planner::GetPlanCacheStats();
  EXPECT_EQ(after.hits, base.hits);
  EXPECT_EQ(after.misses, base.misses);
}

TEST_F(OptimizerTest, CostDriftInvalidatesMemoizedPlan) {
  Rng view_rng(23);
  ASSERT_TRUE(db_->RegisterView("opt", MixedView(&view_rng, 12)).ok());
  ExprPtr pred =
      And(Gt(DepthUdf(0, db_->depth_model(), 240), Lit(4.0)),
          Eq(Attr("bucket"), Lit(int64_t{1})));
  Query q(db_.get(), "opt");
  q.Where(pred);
  ASSERT_TRUE(q.Explain().ok());  // memoize (cold defaults snapshot ~1ms)

  // Shift the depth model's observed runtime far beyond the 2x drift
  // band: the memoized break-even no longer holds.
  for (int i = 0; i < 128; ++i) {
    CostModel::Global()->RecordUdfEval(model_names::kDepth,
                                       /*cache_hit=*/false, 50.0);
  }
  const auto before = Planner::GetPlanCacheStats();
  auto plan = Query(db_.get(), "opt").Where(pred).Explain();
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->plan_cache_hit);
  const auto after = Planner::GetPlanCacheStats();
  EXPECT_EQ(after.invalidations, before.invalidations + 1);
}

TEST_F(OptimizerTest, PlanCacheDisabledByKnob) {
  setenv("DEEPLENS_PLAN_CACHE_ENTRIES", "0", 1);
  Rng view_rng(29);
  ASSERT_TRUE(db_->RegisterView("opt", MixedView(&view_rng, 8)).ok());
  const auto base = Planner::GetPlanCacheStats();
  for (int i = 0; i < 2; ++i) {
    auto plan = Query(db_.get(), "opt")
                    .Where(Eq(Attr("bucket"), Lit(int64_t{1})))
                    .Explain();
    ASSERT_TRUE(plan.ok());
    EXPECT_FALSE(plan->plan_cache_hit);
  }
  const auto after = Planner::GetPlanCacheStats();
  EXPECT_EQ(after.hits, base.hits);
  EXPECT_EQ(after.entries, base.entries);
}

// --- Proxy cascades -------------------------------------------------------

TEST_F(OptimizerTest, CascadeOffAtThresholdOneMatchesExactResults) {
  // threshold 1.0 (explicit) must behave exactly like unset: no cascade,
  // byte-identical rows.
  Rng view_rng(31);
  ViewCache view;
  view.patches = MixedView(&view_rng, 24);
  ExprPtr pred = Ne(OcrTextUdf(0, db_->ocr(), db_->inference_cache()),
                    Lit(""));
  auto baseline = ParallelSelect(view.patches, pred);
  ASSERT_TRUE(baseline.ok());
  setenv("DEEPLENS_CASCADE_THRESHOLD", "1.0", 1);
  PlanExplanation plan;
  auto got = Planner::ExecuteScan(view, pred, &plan);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(plan.cascade.used);
  EXPECT_EQ(SerializeAll(*got), SerializeAll(*baseline));
}

TEST_F(OptimizerTest, CascadeSkipsInklessPanelsAndAccountsForIt) {
  setenv("DEEPLENS_CASCADE_THRESHOLD", "0.3", 1);
  Rng view_rng(37);
  ViewCache view;
  view.patches = MixedView(&view_rng, 40);
  // Eq(ocr, "7"): on inkless panels the proxy estimates "" with 0.95
  // confidence — a confident reject the full model would agree with, so
  // the cascade is exact on this workload.
  ExprPtr pred = Eq(OcrTextUdf(0, db_->ocr(), db_->inference_cache()),
                    Lit("7"));
  auto oracle = ParallelSelect(view.patches, pred);
  ASSERT_TRUE(oracle.ok());
  // The oracle pass profiled the (fast, simulated) OCR model; forget those
  // observations so the plan costs the conjunct at the cold default, which
  // is what a freshly attached expensive model looks like.
  CostModel::Global()->Clear();
  PlanExplanation plan;
  auto got = Planner::ExecuteScan(view, pred, &plan);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(SerializeAll(*got), SerializeAll(*oracle));
  EXPECT_TRUE(plan.cascade.used);
  EXPECT_EQ(plan.cascade.threshold, 0.3);
  EXPECT_GT(plan.cascade.proxy_evals, 0u);
  EXPECT_GT(plan.cascade.proxy_skips, 0u);
  EXPECT_GT(plan.cascade.full_evals, 0u);
  // Precision is 1.0 by construction (the proxy only rejects) and the
  // audit slice found no disagreement on this workload.
  EXPECT_EQ(plan.cascade.est_precision, 1.0);
  EXPECT_EQ(plan.cascade.audit_overturns, 0u);
  EXPECT_EQ(plan.cascade.est_recall, 1.0);
  EXPECT_NE(plan.description.find("proxy cascade"), std::string::npos);
}

TEST_F(OptimizerTest, CascadeAccuracyEstimateScalesOverturns) {
  // The accuracy estimator itself: 2 overturns in a 10-row audit slice
  // over 100 skips extrapolates to 20 lost matches.
  const auto pr = sim::EstimateCascadeAccuracy(/*passes=*/80, /*skips=*/100,
                                               /*audits=*/10,
                                               /*audit_overturns=*/2);
  EXPECT_EQ(pr.tp, 80);
  EXPECT_EQ(pr.fp, 0);
  EXPECT_EQ(pr.fn, 20);
  EXPECT_EQ(pr.precision(), 1.0);
  EXPECT_NEAR(pr.recall(), 0.8, 1e-9);
  // No audits → conservatively lossless.
  EXPECT_EQ(sim::EstimateCascadeAccuracy(5, 50, 0, 0).fn, 0);
}

// --- Cost model plumbing --------------------------------------------------

TEST_F(OptimizerTest, UdfEvalsFeedRuntimeProfiles) {
  Rng view_rng(41);
  ViewCache view;
  view.patches = MixedView(&view_rng, 10);
  ExprPtr pred = Ne(OcrTextUdf(0, db_->ocr(), db_->inference_cache()),
                    Lit(""));
  ASSERT_TRUE(Planner::ExecuteScan(view, pred, nullptr).ok());
  const auto profile = CostModel::Global()->UdfProfile(model_names::kOcr);
  ASSERT_TRUE(profile.has_value());
  EXPECT_GT(profile->miss_samples, 0u);
  EXPECT_GT(profile->miss_ms, 0.0);
  // Second run: the warm cache turns evaluations into hits.
  ASSERT_TRUE(Planner::ExecuteScan(view, pred, nullptr).ok());
  const auto warm = CostModel::Global()->UdfProfile(model_names::kOcr);
  ASSERT_TRUE(warm.has_value());
  EXPECT_GT(warm->hit_samples, 0u);
}

TEST_F(OptimizerTest, SelectivityObservationsSharpenEstimates) {
  Rng view_rng(43);
  ViewCache view;
  view.patches = MixedView(&view_rng, 64);
  // "bucket == 0" passes ~1/4 of rows; after one observed scan the
  // estimate must beat the 0.1 equality prior.
  ExprPtr pred = Eq(Attr("bucket"), Lit(int64_t{0}));
  ASSERT_TRUE(Planner::ExecuteScan(view, pred, nullptr).ok());
  const uint64_t fp = ConjunctShapeFingerprint(pred);
  const double sel = CostModel::Global()->Selectivity(fp, /*fallback=*/-1.0);
  ASSERT_NE(sel, -1.0) << "no observation recorded";
  EXPECT_GT(sel, 0.05);
  EXPECT_LT(sel, 0.6);
}

// --- Index probes: intersected B+tree ranges, NaN literals ----------------

// 200 frames with 1-6 rows each; every fifth frame also has a row at
// frameno f + 0.5 (float keys interleave with int keys), and every
// seventh frame a row with no frameno at all. `extra` framenos come first,
// as rows of frame 0. Row order equals index key order as long as no
// `extra` key sorts above 0; a B+tree range returns rows in key order.
ViewCache FrameView(bool hash_index, const std::vector<MetaValue>& extra = {}) {
  ViewCache view;
  PatchId id = 1;
  auto add = [&](int64_t f, MetaValue frameno) {
    Patch p;
    p.set_id(id++);
    p.set_ref(ImgRef{"frames", f, kInvalidPatchId});
    if (!frameno.is_null()) {
      p.mutable_meta().Set(meta_keys::kFrameNo, std::move(frameno));
    }
    p.mutable_meta().Set("bucket", f % 4);
    view.patches.push_back(std::move(p));
  };
  for (const MetaValue& frameno : extra) add(0, frameno);
  for (int64_t f = 0; f < 200; ++f) {
    for (int64_t r = 0; r <= f % 6; ++r) add(f, MetaValue(f));
    if (f % 5 == 0) add(f, MetaValue(static_cast<double>(f) + 0.5));
    if (f % 7 == 0) add(f, MetaValue());
  }
  auto fill = [&](auto* index) {
    for (size_t i = 0; i < view.patches.size(); ++i) {
      const MetaValue& f = view.patches[i].meta().Get(meta_keys::kFrameNo);
      index->Insert(Slice(f.ToIndexKey()), static_cast<RowId>(i));
    }
  };
  if (hash_index) {
    fill(&view.hash_indexes[meta_keys::kFrameNo]);
  } else {
    fill(&view.btree_indexes[meta_keys::kFrameNo]);
  }
  return view;
}

PatchCollection SerialOracle(const ViewCache& view, const ExprPtr& pred) {
  MorselOptions serial;
  serial.num_threads = 1;
  auto out = ParallelSelect(view.patches, pred, serial);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out.ok() ? std::move(out).value() : PatchCollection{};
}

// Rows whose frameno lies in the closed interval [lo, hi].
uint64_t RowsInClosedRange(const ViewCache& view, const MetaValue& lo,
                           const MetaValue& hi) {
  uint64_t n = 0;
  for (const Patch& p : view.patches) {
    const MetaValue& f = p.meta().Get(meta_keys::kFrameNo);
    if (!f.is_null() && f.Compare(lo) >= 0 && f.Compare(hi) <= 0) ++n;
  }
  return n;
}

ExprPtr Frame() { return Attr(meta_keys::kFrameNo); }

TEST_F(OptimizerTest, IntersectedRangeProbesMatchOracle) {
  const ViewCache view = FrameView(/*hash_index=*/false);
  struct Case {
    const char* label;
    ExprPtr pred;
    MetaValue lo;  // the intersected closed range
    MetaValue hi;
  };
  const std::vector<Case> cases = {
      {"two-sided", And(Ge(Frame(), Lit(40)), Lt(Frame(), Lit(60))), 40, 60},
      {"redundant",
       And(And(And(Ge(Frame(), Lit(10)), Ge(Frame(), Lit(20))),
               Lt(Frame(), Lit(30))),
           Le(Frame(), Lit(25))),
       20, 25},
      {"bounds written hi-first",
       And(Le(Frame(), Lit(150)), Gt(Frame(), Lit(140))), 140, 150},
      {"mixed int/float",
       And(And(Gt(Frame(), Lit(10.5)), Le(Frame(), Lit(20))),
           Lt(Frame(), Lit(19.75))),
       10.5, 19.75},
      {"float lo beats int lo",
       And(Ge(Frame(), Lit(int64_t{5})), Ge(Frame(), Lit(5.5))), 5.5, 1e9},
      {"range under an opaque conjunct",
       And(Ne(Attr("bucket"), Lit(2)),
           And(Ge(Frame(), Lit(100)), Le(Frame(), Lit(110)))),
       100, 110},
      {"equality inside a range",
       And(And(Ge(Frame(), Lit(30)), Lt(Frame(), Lit(90))),
           Eq(Frame(), Lit(45))),
       45, 45},
      {"empty intersection",
       And(Ge(Frame(), Lit(50)), Le(Frame(), Lit(40))), 50, 40},
  };
  for (const Case& c : cases) {
    PlanExplanation plan;
    auto rows = Planner::ExecuteScan(view, c.pred, &plan);
    ASSERT_TRUE(rows.ok()) << c.label << ": " << rows.status().ToString();
    EXPECT_EQ(SerializeAll(*rows), SerializeAll(SerialOracle(view, c.pred)))
        << c.label;
    EXPECT_TRUE(plan.path == AccessPath::kBTreeRange ||
                plan.path == AccessPath::kBTreeLookup)
        << c.label << ": " << plan.description;
    EXPECT_EQ(plan.candidates, RowsInClosedRange(view, c.lo, c.hi))
        << c.label;
  }
  // The empty intersection fetches nothing; the two-sided range fetches
  // a small slice of the tree, not everything from its lower bound on.
  PlanExplanation plan;
  ASSERT_TRUE(Planner::ExecuteScan(
                  view, And(Ge(Frame(), Lit(40)), Lt(Frame(), Lit(60))),
                  &plan)
                  .ok());
  EXPECT_LT(plan.candidates, view.patches.size() / 4);
}

TEST_F(OptimizerTest, NaNLiteralNeverNarrowsAnIndexProbe) {
  const double nan = std::nan("");
  for (bool hash : {false, true}) {
    const ViewCache view = FrameView(hash);
    const std::vector<ExprPtr> preds = {
        Ge(Frame(), Lit(nan)),
        Eq(Frame(), Lit(nan)),
        Le(Frame(), Lit(nan)),
        And(Eq(Attr("bucket"), Lit(1)), Eq(Frame(), Lit(nan))),
    };
    for (const ExprPtr& pred : preds) {
      const PatchCollection oracle = SerialOracle(view, pred);
      PlanExplanation plan;
      auto rows = Planner::ExecuteScan(view, pred, &plan);
      ASSERT_TRUE(rows.ok()) << pred->ToString();
      EXPECT_EQ(SerializeAll(*rows), SerializeAll(oracle))
          << (hash ? "hash: " : "b+tree: ") << pred->ToString();
      EXPECT_GT(rows->size(), 0u) << pred->ToString();
      EXPECT_EQ(plan.path, AccessPath::kFullScan) << plan.description;
      auto count = Planner::ExecuteScanCount(view, pred, nullptr);
      ASSERT_TRUE(count.ok());
      EXPECT_EQ(*count, oracle.size()) << pred->ToString();
    }
  }
  // The oracle's view of NaN: equal to every number, so both predicates
  // keep every row that has a frameno.
  const ViewCache view = FrameView(false);
  uint64_t numeric = 0;
  for (const Patch& p : view.patches) {
    numeric += p.meta().Contains(meta_keys::kFrameNo) ? 1 : 0;
  }
  EXPECT_EQ(SerialOracle(view, Ge(Frame(), Lit(nan))).size(), numeric);
  EXPECT_EQ(SerialOracle(view, Eq(Frame(), Lit(nan))).size(), numeric);

  // A NaN bound beside a real one: the real bound alone shapes the probe,
  // which runs from the start of the tree (rows without a frameno hold
  // the lowest key) up to 30.
  const ExprPtr pred = And(Ge(Frame(), Lit(nan)), Lt(Frame(), Lit(30)));
  PlanExplanation plan;
  auto rows = Planner::ExecuteScan(view, pred, &plan);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(SerializeAll(*rows), SerializeAll(SerialOracle(view, pred)));
  EXPECT_EQ(plan.path, AccessPath::kBTreeRange) << plan.description;
  EXPECT_EQ(plan.candidates,
            (view.patches.size() - numeric) +
                RowsInClosedRange(view, MetaValue(-1e9), MetaValue(30)));
}

TEST_F(OptimizerTest, BoolKeysProbeLikeTheOracle) {
  // Compare orders numbers below strings below bools, so a bool bound on
  // a B+tree probe must take in every number and string on its low side.
  const std::vector<MetaValue> extra = {MetaValue(true), MetaValue("cam"),
                                        MetaValue(false)};
  const ViewCache view = FrameView(/*hash_index=*/false, extra);
  uint64_t keyed = 0;
  for (const Patch& p : view.patches) {
    keyed += p.meta().Contains(meta_keys::kFrameNo) ? 1 : 0;
  }
  const struct {
    ExprPtr pred;
    uint64_t rows;  // oracle size
  } cases[] = {
      {Le(Frame(), Lit(MetaValue(true))), keyed},
      {Ge(Frame(), Lit(MetaValue(false))), 2},
      {Lt(Frame(), Lit(MetaValue(false))), keyed - 2},
      {And(Ge(Frame(), Lit(MetaValue("cam"))),
           Le(Frame(), Lit(MetaValue(true)))),
       3},
  };
  // The extra keys sort above frame 0's, so a B+tree range returns rows
  // in key order, not row order: compare in id order.
  auto by_id = [](PatchCollection rows) {
    std::sort(rows.begin(), rows.end(),
              [](const Patch& a, const Patch& b) { return a.id() < b.id(); });
    return SerializeAll(rows);
  };
  for (const auto& c : cases) {
    const PatchCollection oracle = SerialOracle(view, c.pred);
    EXPECT_EQ(oracle.size(), c.rows) << c.pred->ToString();
    PlanExplanation plan;
    auto rows = Planner::ExecuteScan(view, c.pred, &plan);
    ASSERT_TRUE(rows.ok()) << c.pred->ToString();
    EXPECT_EQ(by_id(*rows), by_id(oracle)) << c.pred->ToString();
    EXPECT_EQ(plan.path, AccessPath::kBTreeRange) << plan.description;
    auto count = Planner::ExecuteScanCount(view, c.pred, nullptr);
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(*count, oracle.size()) << c.pred->ToString();
  }
}

TEST_F(OptimizerTest, SignedZeroKeysProbeLikeTheOracle) {
  // -0.0 == 0.0 under Compare, so an index probe for 0 must find the -0.0
  // rows beside the float 0.0 and frame 0's int 0, in row order.
  const std::vector<MetaValue> zeros = {MetaValue(-0.0), MetaValue(0.0),
                                        MetaValue(-0.0)};
  for (bool hash : {false, true}) {
    const ViewCache view = FrameView(hash, zeros);
    struct Case {
      ExprPtr pred;
      AccessPath path;  // on this view's index
    };
    const std::vector<Case> cases = {
        {Eq(Frame(), Lit(0)),
         hash ? AccessPath::kHashLookup : AccessPath::kBTreeLookup},
        {Eq(Frame(), Lit(-0.0)),
         hash ? AccessPath::kHashLookup : AccessPath::kBTreeLookup},
        {Ge(Frame(), Lit(0)),
         hash ? AccessPath::kFullScan : AccessPath::kBTreeRange},
        {And(Ge(Frame(), Lit(-0.0)), Le(Frame(), Lit(0.0))),
         hash ? AccessPath::kFullScan : AccessPath::kBTreeRange},
    };
    for (const Case& c : cases) {
      const PatchCollection oracle = SerialOracle(view, c.pred);
      PlanExplanation plan;
      auto rows = Planner::ExecuteScan(view, c.pred, &plan);
      ASSERT_TRUE(rows.ok()) << c.pred->ToString();
      EXPECT_EQ(SerializeAll(*rows), SerializeAll(oracle))
          << (hash ? "hash: " : "b+tree: ") << c.pred->ToString();
      EXPECT_EQ(plan.path, c.path) << plan.description;
      auto count = Planner::ExecuteScanCount(view, c.pred, nullptr);
      ASSERT_TRUE(count.ok());
      EXPECT_EQ(*count, oracle.size()) << c.pred->ToString();
    }
    // The three extra zeros plus frame 0's int 0.
    EXPECT_EQ(SerialOracle(view, Eq(Frame(), Lit(0))).size(), 4u);
  }
}

TEST_F(OptimizerTest, StoredNaNKeysProbeLikeTheOracle) {
  // A stored NaN compares equal to every number but encodes above +inf,
  // so no probe of an index holding it would find it. BuildIndex records
  // the NaN and the planner full-scans instead, on both index kinds.
  const double nan = std::nan("");
  const PatchCollection rows = FrameView(false, {MetaValue(nan)}).patches;
  for (bool hash : {false, true}) {
    const std::string name = hash ? "nan_hash" : "nan_btree";
    ASSERT_TRUE(db_->RegisterView(name, rows).ok());
    ASSERT_TRUE(db_->BuildIndex(name,
                                hash ? IndexKind::kHash
                                     : IndexKind::kBPlusTree,
                                meta_keys::kFrameNo)
                    .ok());
    const ViewCache& view = *db_->GetView(name).value();
    const struct {
      ExprPtr pred;
      bool probes_index;  // without the NaN, this index serves the plan
    } cases[] = {
        {Le(Frame(), Lit(5)), !hash},
        {Ge(Frame(), Lit(190)), !hash},
        {Eq(Frame(), Lit(5)), true},
        {And(Ge(Frame(), Lit(40)), Le(Frame(), Lit(60))), !hash},
    };
    for (const auto& c : cases) {
      const std::string label =
          (hash ? "hash: " : "b+tree: ") + c.pred->ToString();
      const PatchCollection oracle = SerialOracle(view, c.pred);
      // The NaN row (row 0) passes every numeric comparison.
      ASSERT_FALSE(oracle.empty()) << label;
      EXPECT_EQ(oracle.front().id(), rows.front().id()) << label;
      PlanExplanation plan;
      auto scanned = Planner::ExecuteScan(view, c.pred, &plan);
      ASSERT_TRUE(scanned.ok()) << label;
      EXPECT_EQ(SerializeAll(*scanned), SerializeAll(oracle)) << label;
      EXPECT_EQ(plan.path, AccessPath::kFullScan) << plan.description;
      EXPECT_EQ(plan.description.find("NaN key") != std::string::npos,
                c.probes_index)
          << plan.description;
      auto count = Planner::ExecuteScanCount(view, c.pred, nullptr);
      ASSERT_TRUE(count.ok()) << label;
      EXPECT_EQ(*count, oracle.size()) << label;
    }
  }
}

// --- Attached views plan like resident ones ------------------------------

// The MakeFilter/EvalBool oracle: `pred` evaluated tuple by tuple over the
// rows as written.
PatchCollection FilterOracle(const PatchCollection& rows, const ExprPtr& pred) {
  auto filter = MakeFilter(MakeVectorSource(rows), pred);
  auto out = CollectPatches(filter.get());
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out.ok() ? std::move(out).value() : PatchCollection{};
}

TEST_F(OptimizerTest, ColumnarResidualGoesThroughTheOptimizer) {
  // A disk-backed view goes through the same optimizer as a resident one:
  // its conjuncts are costed and reordered, the plan is memoized, each
  // query's literals get their own zone-map prune count, and an expensive
  // proxy-capable conjunct gets a cascade. 48 rows at 8 rows per chunk;
  // frameno equals the row index, so "frameno < hi" keeps ceil(hi / 8)
  // chunks.
  setenv("DEEPLENS_COLUMNAR_CHUNK_ROWS", "8", 1);
  Rng view_rng(41);
  const PatchCollection rows = MixedView(&view_rng, 48);
  ASSERT_TRUE(db_->RegisterView("attached", rows).ok());
  const Status persisted = db_->PersistView("attached");
  unsetenv("DEEPLENS_COLUMNAR_CHUNK_ROWS");
  ASSERT_TRUE(persisted.ok()) << persisted.ToString();
  ASSERT_TRUE(db_->AttachPersistedView("attached").ok());
  ASSERT_TRUE(db_->RegisterView("resident", rows).ok());
  const ViewCache& attached = *db_->GetView("attached").value();
  const ViewCache& resident = *db_->GetView("resident").value();
  ASSERT_TRUE(attached.disk_backed());
  ASSERT_EQ(attached.columnar->num_chunks(), 6u);

  // Written costly-first: an opaque uncached OCR conjunct, then a
  // sargable frame bound.
  auto costly_first = [&](int64_t hi) {
    return And(Ne(OcrTextUdf(0, db_->ocr()), Lit("")),
               Lt(Attr(meta_keys::kFrameNo), Lit(hi)));
  };
  const struct {
    int64_t hi;
    uint64_t chunks_pruned;
    bool plan_cache_hit;
  } kRuns[] = {{12, 4, false}, {36, 1, true}};
  for (const auto& run : kRuns) {
    SCOPED_TRACE("frameno < " + std::to_string(run.hi));
    const ExprPtr pred = costly_first(run.hi);
    const PatchCollection oracle = FilterOracle(rows, pred);
    ASSERT_FALSE(oracle.empty());
    auto resident_rows = Planner::ExecuteScan(resident, pred, nullptr);
    ASSERT_TRUE(resident_rows.ok()) << resident_rows.status().ToString();
    // The passes above profiled the (fast, simulated) OCR model; forget
    // that so the memoized plan's cold-cost snapshot stays valid.
    CostModel::Global()->Clear();

    PlanExplanation plan;
    auto got = Planner::ExecuteScan(attached, pred, &plan);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(SerializeAll(*got), SerializeAll(oracle));
    EXPECT_EQ(SerializeAll(*got), SerializeAll(*resident_rows));
    EXPECT_EQ(plan.path, AccessPath::kColumnarScan) << plan.description;
    EXPECT_TRUE(plan.reordered) << plan.description;
    ASSERT_EQ(plan.conjunct_costs.size(), 2u);
    EXPECT_TRUE(plan.conjunct_costs[0].sargable);
    EXPECT_EQ(plan.conjunct_costs[0].source_index, 1u);
    EXPECT_EQ(plan.plan_cache_hit, run.plan_cache_hit) << plan.description;
    EXPECT_EQ(plan.columnar.chunks_total, 6u);
    EXPECT_EQ(plan.columnar.chunks_pruned, run.chunks_pruned);
    EXPECT_EQ(plan.columnar.chunks_read, 6u - run.chunks_pruned);
    EXPECT_EQ(plan.columnar.sargable_conjuncts, 1u);
    EXPECT_FALSE(plan.columnar.fully_sargable);
    // The reader took the frame bound, so the residual above it runs the
    // OCR conjunct alone: the bound's selectivity (which would read 1.0
    // on rows that already passed it) is never observed.
    const uint64_t bound_shape = ConjunctShapeFingerprint(
        Lt(Attr(meta_keys::kFrameNo), Lit(run.hi)));
    EXPECT_EQ(CostModel::Global()->Selectivity(bound_shape, -1.0), -1.0);
    CostModel::Global()->Clear();
  }

  // Cascades: the OCR conjunct costs its cold default, so at threshold
  // 0.3 it is wrapped, and its report is filled after the scan. Eq(ocr,
  // "7") rejects inkless panels confidently and correctly (see
  // CascadeSkipsInklessPanelsAndAccountsForIt), so rows stay exact.
  const ExprPtr pred =
      And(Eq(OcrTextUdf(0, db_->ocr(), db_->inference_cache()), Lit("7")),
          Lt(Attr(meta_keys::kFrameNo), Lit(int64_t{48})));
  const PatchCollection oracle = FilterOracle(rows, pred);
  CostModel::Global()->Clear();
  setenv("DEEPLENS_CASCADE_THRESHOLD", "0.3", 1);
  PlanExplanation plan;
  auto got = Planner::ExecuteScan(attached, pred, &plan);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(SerializeAll(*got), SerializeAll(oracle));
  EXPECT_EQ(plan.path, AccessPath::kColumnarScan);
  EXPECT_TRUE(plan.cascade.used) << plan.description;
  EXPECT_EQ(plan.cascade.threshold, 0.3);
  EXPECT_GT(plan.cascade.proxy_evals, 0u);
  EXPECT_GT(plan.cascade.proxy_skips, 0u);
  EXPECT_GT(plan.cascade.full_evals, 0u);
  EXPECT_EQ(plan.cascade.est_precision, 1.0);
  EXPECT_EQ(plan.cascade.audit_overturns, 0u);
  EXPECT_NE(plan.description.find("proxy cascade"), std::string::npos);
}

}  // namespace
}  // namespace deeplens
