// Unit tests for exec/: expression evaluation & validation, streaming
// operators, all join strategies (equivalence against nested-loop), and
// aggregation/dedup operators.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "exec/aggregates.h"
#include "exec/expression_patterns.h"
#include "exec/joins.h"
#include "exec/operators.h"

namespace deeplens {
namespace {

Patch MakePatch(PatchId id, int frameno, const std::string& label,
                double score = 1.0) {
  Patch p;
  p.set_id(id);
  p.set_ref(ImgRef{"ds", frameno, kInvalidPatchId});
  p.set_bbox(nn::BBox{0, 0, 10, 10});
  p.mutable_meta().Set(meta_keys::kPatchId, static_cast<int64_t>(id));
  p.mutable_meta().Set(meta_keys::kFrameNo, int64_t{frameno});
  p.mutable_meta().Set(meta_keys::kLabel, label);
  p.mutable_meta().Set(meta_keys::kScore, score);
  return p;
}

Patch WithFeature(Patch p, std::vector<float> f) {
  p.set_features(Tensor::FromVector(std::move(f)));
  return p;
}

PatchCollection SampleCollection() {
  return {MakePatch(1, 0, "car", 0.9), MakePatch(2, 0, "person", 0.8),
          MakePatch(3, 1, "car", 0.7), MakePatch(4, 2, "person", 0.4),
          MakePatch(5, 2, "car", 0.95)};
}

TEST(ExpressionTest, AttrAndLiteralComparisons) {
  PatchTuple t{MakePatch(1, 5, "car", 0.9)};
  EXPECT_TRUE(Eq(Attr("label"), Lit("car"))->EvalBool(t).value());
  EXPECT_FALSE(Eq(Attr("label"), Lit("person"))->EvalBool(t).value());
  EXPECT_TRUE(Ge(Attr("score"), Lit(0.5))->EvalBool(t).value());
  EXPECT_TRUE(Lt(Attr("frameno"), Lit(int64_t{6}))->EvalBool(t).value());
  EXPECT_TRUE(Ne(Attr("label"), Lit("dog"))->EvalBool(t).value());
}

TEST(ExpressionTest, NumericCoercionIntFloat) {
  PatchTuple t{MakePatch(1, 5, "car", 0.9)};
  // frameno is int; compare against float literal.
  EXPECT_TRUE(Le(Attr("frameno"), Lit(5.0))->EvalBool(t).value());
  EXPECT_FALSE(Lt(Attr("frameno"), Lit(5.0))->EvalBool(t).value());
}

TEST(ExpressionTest, MissingAttributeIsNullAndFalse) {
  PatchTuple t{MakePatch(1, 0, "car")};
  EXPECT_FALSE(Eq(Attr("nope"), Lit(1))->EvalBool(t).value());
}

TEST(ExpressionTest, BooleanLogicShortCircuits) {
  PatchTuple t{MakePatch(1, 0, "car")};
  auto true_expr = Eq(Attr("label"), Lit("car"));
  auto false_expr = Eq(Attr("label"), Lit("x"));
  EXPECT_TRUE(Or(true_expr, false_expr)->EvalBool(t).value());
  EXPECT_FALSE(And(true_expr, false_expr)->EvalBool(t).value());
  EXPECT_TRUE(Not(false_expr)->EvalBool(t).value());
}

TEST(ExpressionTest, Arithmetic) {
  PatchTuple t{MakePatch(1, 10, "car", 0.5)};
  auto sum = Add(Attr("frameno"), Lit(int64_t{5}))->Eval(t);
  EXPECT_EQ(sum.value().AsInt().value(), 15);
  auto mixed = MulE(Attr("score"), Lit(2.0))->Eval(t);
  EXPECT_DOUBLE_EQ(mixed.value().AsFloat().value(), 1.0);
  auto diff = Sub(Lit(int64_t{3}), Attr("frameno"))->Eval(t);
  EXPECT_EQ(diff.value().AsInt().value(), -7);
}

TEST(ExpressionTest, GeometryAccessors) {
  Patch p = MakePatch(1, 0, "car");
  p.set_bbox(nn::BBox{2, 3, 12, 23});
  PatchTuple t{p};
  EXPECT_EQ(Geom(0, "width")->Eval(t).value().AsInt().value(), 10);
  EXPECT_EQ(Geom(0, "height")->Eval(t).value().AsInt().value(), 20);
  EXPECT_EQ(Geom(0, "area")->Eval(t).value().AsInt().value(), 200);
  EXPECT_EQ(Geom(0, "cx")->Eval(t).value().AsInt().value(), 7);
  EXPECT_FALSE(Geom(0, "bogus")->Eval(t).ok());
}

TEST(ExpressionTest, MultiSlotAccess) {
  PatchTuple t{MakePatch(1, 0, "car"), MakePatch(2, 1, "person")};
  EXPECT_TRUE(
      Lt(Attr(0, "frameno"), Attr(1, "frameno"))->EvalBool(t).value());
  EXPECT_FALSE(Attr(2, "frameno")->Eval(t).ok());  // slot out of range
}

TEST(ExpressionTest, FeatureDistanceAndIou) {
  Patch a = WithFeature(MakePatch(1, 0, "car"), {0, 0});
  Patch b = WithFeature(MakePatch(2, 0, "car"), {3, 4});
  PatchTuple t{a, b};
  EXPECT_NEAR(FeatureDistance(0, 1)->Eval(t).value().AsFloat().value(),
              5.0, 1e-4);
  EXPECT_NEAR(BoxIou(0, 1)->Eval(t).value().AsFloat().value(), 1.0, 1e-5);
  PatchTuple no_features{MakePatch(1, 0, "car"), MakePatch(2, 0, "car")};
  EXPECT_FALSE(FeatureDistance(0, 1)->Eval(no_features).ok());
}

TEST(ExpressionTest, SchemaValidationCatchesBadPredicates) {
  PatchSchema schema;
  AttributeSpec label;
  label.name = "label";
  label.type = ValueType::kString;
  label.domain = {"car", "person"};
  schema.AddAttribute(label).AddAttribute("score", ValueType::kFloat);

  EXPECT_TRUE(Eq(Attr("label"), Lit("car"))->Validate({schema}).ok());
  // Unknown attribute.
  EXPECT_TRUE(Eq(Attr("depth"), Lit(1.0))
                  ->Validate({schema})
                  .IsTypeError());
  // Label outside the closed domain can never match (paper §4.2).
  EXPECT_TRUE(
      Eq(Attr("label"), Lit("dog"))->Validate({schema}).IsTypeError());
  // Type mismatch.
  EXPECT_TRUE(
      Eq(Attr("score"), Lit("high"))->Validate({schema}).IsTypeError());
}

TEST(ExpressionPatternTest, ConjunctsAndEqualityPatterns) {
  ExprPtr pred = And(Eq(Attr("label"), Lit("car")),
                     Ge(Attr("score"), Lit(0.5)));
  std::vector<ExprPtr> conjuncts;
  CollectConjuncts(pred, &conjuncts);
  ASSERT_EQ(conjuncts.size(), 2u);
  auto eq = MatchAttrEqLit(conjuncts[0]);
  ASSERT_TRUE(eq.has_value());
  EXPECT_EQ(eq->key, "label");
  EXPECT_EQ(*eq->value.AsString().value(), "car");
  EXPECT_FALSE(MatchAttrEqLit(conjuncts[1]).has_value());
  auto range = MatchAttrRange(conjuncts[1]);
  ASSERT_TRUE(range.has_value());
  EXPECT_TRUE(range->lo.has_value());
  EXPECT_FALSE(range->hi.has_value());
}

TEST(ExpressionPatternTest, SwappedOperandsNormalize) {
  // 5 >= frameno means frameno <= 5.
  auto range = MatchAttrRange(Ge(Lit(int64_t{5}), Attr("frameno")));
  ASSERT_TRUE(range.has_value());
  ASSERT_TRUE(range->hi.has_value());
  EXPECT_EQ(range->hi->AsInt().value(), 5);
  EXPECT_FALSE(range->lo.has_value());
}

TEST(OperatorTest, FilterKeepsMatching) {
  auto source = MakeVectorSource(SampleCollection());
  auto filter =
      MakeFilter(std::move(source), Eq(Attr("label"), Lit("car")));
  auto rows = CollectPatches(filter.get());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);
}

TEST(OperatorTest, MapTransforms) {
  auto source = MakeVectorSource(SampleCollection());
  auto map = MakeMap(std::move(source), [](PatchTuple t) -> Result<PatchTuple> {
    t[0].mutable_meta().Set("doubled",
                            t[0].meta().Get("frameno").AsInt().value() * 2);
    return t;
  });
  auto rows = CollectPatches(map.get());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ((*rows)[4].meta().Get("doubled").AsInt().value(), 4);
}

TEST(OperatorTest, GeneratorSourceEnds) {
  int remaining = 3;
  auto gen = MakeGeneratorSource(
      [&remaining]() -> Result<std::optional<PatchTuple>> {
        if (remaining == 0) return std::optional<PatchTuple>();
        --remaining;
        return std::optional<PatchTuple>(PatchTuple{MakePatch(1, 0, "x")});
      });
  EXPECT_EQ(Drain(gen.get()).value(), 3u);
}

// --- Joins ------------------------------------------------------------------

PatchCollection FeatureCollection(int n, uint64_t seed, size_t dim = 8) {
  Rng rng(seed);
  PatchCollection out;
  for (int i = 0; i < n; ++i) {
    std::vector<float> f(dim);
    for (auto& v : f) v = static_cast<float>(rng.NextUniform(0, 1));
    out.push_back(WithFeature(
        MakePatch(static_cast<PatchId>(1000 + i), i, "obj"), std::move(f)));
  }
  return out;
}

std::set<std::pair<PatchId, PatchId>> PairIds(
    const std::vector<PatchTuple>& tuples) {
  std::set<std::pair<PatchId, PatchId>> out;
  for (const auto& t : tuples) out.emplace(t[0].id(), t[1].id());
  return out;
}

TEST(JoinTest, NestedLoopThetaJoin) {
  auto collection = SampleCollection();
  // Same frame, different patches.
  ExprPtr pred = And(Eq(Attr(0, "frameno"), Attr(1, "frameno")),
                     Ne(Attr(0, "pid"), Attr(1, "pid")));
  JoinStats stats;
  auto result = NestedLoopJoin(collection, collection, pred, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 4u);  // frames 0 and 2 each have 2 patches
  EXPECT_EQ(stats.pairs_examined, 25u);
}

TEST(JoinTest, HashJoinMatchesNestedLoop) {
  auto collection = SampleCollection();
  ExprPtr eq = Eq(Attr(0, "frameno"), Attr(1, "frameno"));
  auto nl = NestedLoopJoin(collection, collection, eq);
  ASSERT_TRUE(nl.ok());
  auto hj = HashEqualityJoin(collection, collection, "frameno");
  ASSERT_TRUE(hj.ok());
  EXPECT_EQ(PairIds(*nl), PairIds(*hj));
}

TEST(JoinTest, HashJoinResidualFilters) {
  auto collection = SampleCollection();
  auto result = HashEqualityJoin(collection, collection, "frameno",
                                 Ne(Attr(0, "pid"), Attr(1, "pid")));
  ASSERT_TRUE(result.ok());
  for (const auto& t : *result) EXPECT_NE(t[0].id(), t[1].id());
}

TEST(JoinTest, BallTreeJoinMatchesNestedLoopSet) {
  auto a = FeatureCollection(60, 42);
  auto b = FeatureCollection(40, 43);
  const float threshold = 0.4f;
  ExprPtr pred = Le(FeatureDistance(0, 1),
                    Lit(static_cast<double>(threshold)));
  auto nl = NestedLoopJoin(a, b, pred);
  ASSERT_TRUE(nl.ok());

  SimilarityJoinOptions options;
  options.max_distance = threshold;
  options.skip_identical_ids = false;
  JoinStats stats;
  auto bt = BallTreeSimilarityJoin(a, b, options, nullptr, &stats);
  ASSERT_TRUE(bt.ok());
  EXPECT_EQ(PairIds(*nl), PairIds(*bt));
  EXPECT_GT(stats.index_build_millis, 0.0);
}

TEST(JoinTest, BallTreeJoinIndexesSmallerSide) {
  // Output tuple order must stay (left, right) regardless of which side
  // was indexed.
  auto small = FeatureCollection(5, 1);
  auto large = FeatureCollection(50, 2);
  SimilarityJoinOptions options;
  options.max_distance = 10.0f;  // everything matches
  options.skip_identical_ids = false;
  auto result = BallTreeSimilarityJoin(large, small, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 250u);
  for (const auto& t : *result) {
    EXPECT_GE(t[0].meta().Get("frameno").AsInt().value(), 0);
    // Left side came from `large`, whose ids start at 1000.
    EXPECT_GE(t[0].id(), 1000u);
  }
}

TEST(JoinTest, AllPairsMatchesBallTree) {
  auto a = FeatureCollection(30, 7);
  auto b = FeatureCollection(25, 8);
  SimilarityJoinOptions options;
  options.max_distance = 0.35f;
  options.skip_identical_ids = false;
  auto bt = BallTreeSimilarityJoin(a, b, options);
  ASSERT_TRUE(bt.ok());
  auto ap = AllPairsSimilarityJoin(a, b, options.max_distance,
                                   nn::GetDevice(nn::DeviceKind::kCpuVector));
  ASSERT_TRUE(ap.ok());
  EXPECT_EQ(PairIds(*bt), PairIds(*ap));
}

TEST(JoinTest, SimilarityJoinRequiresFeatures) {
  auto collection = SampleCollection();
  SimilarityJoinOptions options;
  auto result = BallTreeSimilarityJoin(collection, collection, options);
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(JoinTest, RTreeSpatialJoinMatchesBruteForce) {
  Rng rng(11);
  PatchCollection a, b;
  for (int i = 0; i < 40; ++i) {
    Patch p = MakePatch(static_cast<PatchId>(i + 1), i, "box");
    const int x = static_cast<int>(rng.NextInt(0, 80));
    const int y = static_cast<int>(rng.NextInt(0, 80));
    p.set_bbox(nn::BBox{x, y, x + static_cast<int>(rng.NextInt(2, 15)),
                        y + static_cast<int>(rng.NextInt(2, 15))});
    (i % 2 == 0 ? a : b).push_back(p);
  }
  auto joined = RTreeSpatialJoin(a, b);
  ASSERT_TRUE(joined.ok());
  std::set<std::pair<PatchId, PatchId>> want;
  for (const Patch& pa : a) {
    for (const Patch& pb : b) {
      Rect ra{static_cast<float>(pa.bbox().x0),
              static_cast<float>(pa.bbox().y0),
              static_cast<float>(pa.bbox().x1),
              static_cast<float>(pa.bbox().y1)};
      Rect rb{static_cast<float>(pb.bbox().x0),
              static_cast<float>(pb.bbox().y0),
              static_cast<float>(pb.bbox().x1),
              static_cast<float>(pb.bbox().y1)};
      if (ra.Intersects(rb)) want.emplace(pa.id(), pb.id());
    }
  }
  EXPECT_EQ(PairIds(*joined), want);
}

// --- Aggregates --------------------------------------------------------------

TEST(AggregateTest, CountsAndDistinct) {
  auto collection = SampleCollection();
  EXPECT_EQ(ParallelCount(collection).value(), 5u);
  EXPECT_EQ(ParallelCountDistinctKey(collection, "frameno").value(), 3u);
  EXPECT_EQ(ParallelCountDistinctKey(collection, "label").value(), 2u);
}

TEST(AggregateTest, GroupByCount) {
  auto groups = ParallelGroupByCount(SampleCollection(), "label");
  ASSERT_TRUE(groups.ok());
  EXPECT_EQ((*groups)["'car'"], 3u);
  EXPECT_EQ((*groups)["'person'"], 2u);
}

TEST(AggregateTest, SortByKey) {
  auto sorted = SortByKey({{MakePatch(1, 9, "a")},
                           {MakePatch(2, 3, "b")},
                           {MakePatch(3, 5, "c")}},
                          "frameno");
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0][0].id(), 2u);
  EXPECT_EQ(sorted[1][0].id(), 3u);
  EXPECT_EQ(sorted[2][0].id(), 1u);
}

TEST(AggregateTest, SortByKeyOrdersJoinOutputByLeftPatch) {
  auto collection = SampleCollection();
  auto joined = HashEqualityJoin(collection, collection, "frameno");
  ASSERT_TRUE(joined.ok());
  // An empty tuple sorts first wherever it starts.
  std::vector<PatchTuple> tuples = *joined;
  tuples.push_back(PatchTuple{});
  auto sorted = SortByKey(std::move(tuples), "score");
  // Ascending by the left patch's score (4: 0.4, 3: 0.7, 2: 0.8, 1: 0.9,
  // 5: 0.95); ties keep the join's right-input order (stable sort).
  const std::vector<std::pair<PatchId, PatchId>> want{
      {4, 4}, {4, 5}, {3, 3}, {2, 1}, {2, 2},
      {1, 1}, {1, 2}, {5, 4}, {5, 5}};
  ASSERT_EQ(sorted.size(), want.size() + 1);
  EXPECT_TRUE(sorted.front().empty());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(sorted[i + 1].size(), 2u);
    EXPECT_EQ(std::make_pair(sorted[i + 1][0].id(), sorted[i + 1][1].id()),
              want[i])
        << "position " << i;
  }
}

class DedupStrategies
    : public ::testing::TestWithParam<DedupOptions::Strategy> {};

TEST_P(DedupStrategies, ClustersPlantedIdentities) {
  // Three well-separated identity centers with 10 noisy observations each.
  Rng rng(21);
  PatchCollection patches;
  PatchId next = 1;
  for (int identity = 0; identity < 3; ++identity) {
    for (int obs = 0; obs < 10; ++obs) {
      std::vector<float> f(6);
      for (size_t d = 0; d < f.size(); ++d) {
        f[d] = static_cast<float>(identity) * 5.0f +
               0.01f * static_cast<float>(rng.NextGaussian());
      }
      patches.push_back(
          WithFeature(MakePatch(next++, obs, "obj"), std::move(f)));
    }
  }
  DedupOptions options;
  options.max_distance = 1.0f;
  options.strategy = GetParam();
  auto result = SimilarityDedup(patches, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_clusters, 3u);
  EXPECT_EQ(result->representatives.size(), 3u);
  EXPECT_EQ(result->cluster_of.size(), 30u);
  // All observations of an identity share a cluster id.
  for (int identity = 0; identity < 3; ++identity) {
    for (int obs = 1; obs < 10; ++obs) {
      EXPECT_EQ(result->cluster_of[identity * 10],
                result->cluster_of[identity * 10 + obs]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Strategies, DedupStrategies,
                         ::testing::Values(
                             DedupOptions::Strategy::kBallTree,
                             DedupOptions::Strategy::kAllPairs));

TEST(DedupTest, EmptyInput) {
  auto result = SimilarityDedup(PatchCollection{}, DedupOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_clusters, 0u);
}

TEST(DedupTest, RequiresFeatures) {
  EXPECT_TRUE(SimilarityDedup(SampleCollection(), DedupOptions{})
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace deeplens
