// Unit tests for the morsel-driven execution layer: batched predicate
// evaluation (EvalBatch / CompiledPredicate) must agree with scalar
// Expr::EvalBool, the morsel-parallel pipeline driver must be
// deterministic (ordered merge) and equal to the tuple-at-a-time
// streaming operators, and those operators must deliver every tuple
// produced before an error ahead of the error itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "exec/expression.h"
#include "exec/operators.h"
#include "exec/pipeline.h"

namespace deeplens {
namespace {

Patch RandomPatch(Rng* rng, PatchId id) {
  Patch p;
  p.set_id(id);
  const int frameno = static_cast<int>(rng->NextInt(0, 50));
  p.set_ref(ImgRef{"ds", frameno, kInvalidPatchId});
  p.set_bbox(nn::BBox{static_cast<int>(rng->NextInt(0, 10)),
                      static_cast<int>(rng->NextInt(0, 10)),
                      static_cast<int>(rng->NextInt(11, 30)),
                      static_cast<int>(rng->NextInt(11, 30))});
  static const char* kLabels[] = {"car", "person", "bus", "bike"};
  p.mutable_meta().Set(meta_keys::kLabel,
                       kLabels[rng->NextU64Below(4)]);
  p.mutable_meta().Set(meta_keys::kFrameNo, int64_t{frameno});
  p.mutable_meta().Set(meta_keys::kScore, rng->NextDouble());
  p.mutable_meta().Set(meta_keys::kPatchId, static_cast<int64_t>(id));
  if (rng->NextBool(0.5)) {
    std::vector<float> f(8);
    for (auto& v : f) v = rng->NextFloat();
    p.set_features(Tensor::FromVector(std::move(f)));
  }
  return p;
}

PatchCollection RandomCollection(uint64_t seed, size_t n) {
  Rng rng(seed);
  PatchCollection out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(RandomPatch(&rng, static_cast<PatchId>(i + 1)));
  }
  return out;
}

std::string BytesOfTuple(const PatchTuple& tuple) {
  ByteBuffer buf;
  for (const Patch& p : tuple) p.SerializeInto(&buf);
  const std::vector<uint8_t>& raw = buf.data();
  return std::string(raw.begin(), raw.end());
}

std::vector<std::string> BytesOfPatches(const PatchCollection& patches) {
  std::vector<std::string> out;
  out.reserve(patches.size());
  for (const Patch& p : patches) out.push_back(BytesOfTuple(PatchTuple{p}));
  return out;
}

ExprPtr TestPredicate(int which) {
  switch (which % 5) {
    case 0:
      return Eq(Attr("label"), Lit("car"));
    case 1:
      return Ge(Attr("score"), Lit(0.5));
    case 2:
      return And(Eq(Attr("label"), Lit("person")),
                 Lt(Attr("frameno"), Lit(int64_t{25})));
    case 3:
      // Not index-sargable: exercises the fallback conjunct path.
      return Or(Eq(Attr("label"), Lit("bus")), Gt(Attr("score"), Lit(0.9)));
    default:
      return And(Ge(Attr("frameno"), Lit(int64_t{10})),
                 And(Le(Attr("frameno"), Lit(int64_t{40})),
                     Ne(Attr("label"), Lit("bike"))));
  }
}

// --- Streaming operators: error ordering ------------------------------------

TEST(StreamingOperatorTest, MidStreamErrorIsDeliveredAfterBufferedTuples) {
  // A child erroring on tuple 4 must still deliver tuples 1-3 first,
  // through a filter and through a map alike.
  auto make_gen = []() {
    auto calls = std::make_shared<int>(0);
    return MakeGeneratorSource(
        [calls]() -> Result<std::optional<PatchTuple>> {
          if (++*calls >= 4) return Status::IOError("stream broke");
          Patch p;
          p.set_id(static_cast<PatchId>(*calls));
          return std::optional<PatchTuple>(PatchTuple{std::move(p)});
        });
  };
  auto identity = [](PatchTuple t) -> Result<PatchTuple> { return t; };
  PatchIteratorPtr streams[] = {
      MakeFilter(make_gen(), Lit(MetaValue(true))),
      MakeMap(make_gen(), identity),
  };
  for (PatchIteratorPtr& stream : streams) {
    for (int i = 1; i <= 3; ++i) {
      auto t = stream->Next();
      ASSERT_TRUE(t.ok()) << t.status().ToString();
      ASSERT_TRUE(t->has_value());
      EXPECT_EQ((**t)[0].id(), static_cast<PatchId>(i));
    }
    auto err = stream->Next();
    ASSERT_FALSE(err.ok());
    EXPECT_TRUE(err.status().IsIOError());
  }
}

TEST(StreamingOperatorTest, FilterDeliversPassingTuplesBeforePredicateError) {
  // Rows 1 and 3 pass, row 2 is filtered, row 4 makes the predicate
  // error ("flag" holds an int): the filter yields [1, 3] and only then
  // the error.
  PatchCollection input;
  for (int i = 1; i <= 4; ++i) {
    Patch p;
    p.set_id(static_cast<PatchId>(i));
    if (i == 4) {
      p.mutable_meta().Set("flag", int64_t{5});
    } else {
      p.mutable_meta().Set("flag", i != 2);
    }
    input.push_back(std::move(p));
  }
  auto filter = MakeFilter(MakeVectorSource(std::move(input)), Attr("flag"));
  std::vector<PatchId> seen;
  Status error;
  while (true) {
    auto t = filter->Next();
    if (!t.ok()) {
      error = t.status();
      break;
    }
    if (!t->has_value()) break;
    seen.push_back((**t)[0].id());
  }
  EXPECT_EQ(seen, (std::vector<PatchId>{1, 3}));
  EXPECT_TRUE(error.IsTypeError());
}

TEST(StreamingOperatorTest, MapDeliversMappedTuplesBeforeError) {
  PatchCollection input = RandomCollection(55, 10);
  auto poisoned = [](PatchTuple t) -> Result<PatchTuple> {
    if (t[0].id() == 7) return Status::Internal("poisoned");
    return t;
  };
  auto map = MakeMap(MakeVectorSource(input), poisoned);
  size_t seen = 0;
  Status error;
  while (true) {
    auto t = map->Next();
    if (!t.ok()) {
      error = t.status();
      break;
    }
    if (!t->has_value()) break;
    ++seen;
  }
  EXPECT_EQ(seen, 6u);  // ids 1-6 delivered before id 7 errors
  EXPECT_EQ(error.code(), StatusCode::kInternal);
}

// --- EvalBatch / CompiledPredicate ------------------------------------------

TEST(EvalBatchTest, MatchesScalarEvalRowWise) {
  PatchCollection input = RandomCollection(61, 512);
  std::vector<PatchTuple> rows;
  for (const Patch& p : input) rows.push_back(PatchTuple{p});

  for (int which = 0; which < 5; ++which) {
    ExprPtr pred = TestPredicate(which);
    std::vector<MetaValue> batch_out(rows.size());
    ASSERT_TRUE(
        pred->EvalBatch(rows.data(), rows.size(), batch_out.data()).ok());
    std::vector<uint8_t> bool_out(rows.size());
    ASSERT_TRUE(
        pred->EvalBoolBatch(rows.data(), rows.size(), bool_out.data()).ok());

    for (size_t i = 0; i < rows.size(); ++i) {
      auto scalar = pred->Eval(rows[i]);
      ASSERT_TRUE(scalar.ok());
      EXPECT_EQ(batch_out[i].Compare(*scalar), 0) << "row " << i;
      auto scalar_bool = pred->EvalBool(rows[i]);
      ASSERT_TRUE(scalar_bool.ok());
      EXPECT_EQ(bool_out[i] != 0, *scalar_bool) << "row " << i;
    }
  }
}

TEST(CompiledPredicateTest, MatchesEvalBoolOnTuplesAndPatches) {
  PatchCollection input = RandomCollection(71, 800);
  std::vector<PatchTuple> rows;
  for (const Patch& p : input) rows.push_back(PatchTuple{p});

  for (int which = 0; which < 5; ++which) {
    ExprPtr pred = TestPredicate(which);
    const CompiledPredicate compiled(pred);

    std::vector<uint8_t> on_tuples(rows.size());
    ASSERT_TRUE(
        compiled.EvalTupleRows(rows.data(), rows.size(), on_tuples.data())
            .ok());
    std::vector<uint8_t> on_patches(input.size());
    ASSERT_TRUE(
        compiled.EvalPatchRows(input.data(), input.size(), on_patches.data())
            .ok());

    for (size_t i = 0; i < rows.size(); ++i) {
      auto scalar = pred->EvalBool(rows[i]);
      ASSERT_TRUE(scalar.ok());
      EXPECT_EQ(on_tuples[i] != 0, *scalar) << "row " << i;
      EXPECT_EQ(on_patches[i] != 0, *scalar) << "row " << i;
    }
  }
}

TEST(CompiledPredicateTest, NullPredicatePassesEverything) {
  const CompiledPredicate compiled;
  EXPECT_TRUE(compiled.always_true());
  Patch p;
  EXPECT_TRUE(compiled.EvalOnePatch(p).value());
}

TEST(CompiledPredicateTest, EmptyConjunctListSelectsEveryRow) {
  // A null expression compiles to the empty conjunct list; row-wise
  // evaluation must select everything on both entry points, including
  // over an empty input.
  const CompiledPredicate compiled(nullptr);
  ASSERT_TRUE(compiled.always_true());

  PatchCollection input = RandomCollection(111, 300);
  std::vector<PatchTuple> rows;
  for (const Patch& p : input) rows.push_back(PatchTuple{p});
  std::vector<uint8_t> selection(rows.size(), 0);
  ASSERT_TRUE(
      compiled.EvalTupleRows(rows.data(), rows.size(), selection.data()).ok());
  EXPECT_EQ(std::count(selection.begin(), selection.end(), 1),
            static_cast<ptrdiff_t>(rows.size()));
  std::fill(selection.begin(), selection.end(), 0);
  ASSERT_TRUE(
      compiled.EvalPatchRows(input.data(), input.size(), selection.data())
          .ok());
  EXPECT_EQ(std::count(selection.begin(), selection.end(), 1),
            static_cast<ptrdiff_t>(input.size()));
  EXPECT_TRUE(compiled.EvalTupleRows(nullptr, 0, nullptr).ok());
}

TEST(CompiledPredicateTest, AllFalseBatchCompactsToEmpty) {
  PatchCollection input = RandomCollection(113, 2048);
  const ExprPtr never = Lt(Attr("score"), Lit(-5.0));  // scores are in [0,1)
  const CompiledPredicate compiled(never);
  std::vector<uint8_t> selection(input.size(), 1);
  ASSERT_TRUE(
      compiled.EvalPatchRows(input.data(), input.size(), selection.data())
          .ok());
  EXPECT_EQ(std::count(selection.begin(), selection.end(), 0),
            static_cast<ptrdiff_t>(input.size()));

  // End-to-end: the streaming filter must drain to an empty stream, and
  // the morsel driver must report zero output rows.
  auto filtered = MakeFilter(MakeVectorSource(input), never);
  auto drained = CollectPatches(filtered.get());
  ASSERT_TRUE(drained.ok());
  EXPECT_TRUE(drained->empty());
  PipelineStats stats;
  auto selected = ParallelSelect(input, never, {}, &stats);
  ASSERT_TRUE(selected.ok());
  EXPECT_TRUE(selected->empty());
  EXPECT_EQ(stats.output_rows, 0u);
}

TEST(CompiledPredicateTest, BatchSizeOneMatchesDefaultGeometry) {
  // Forcing 1-row morsels through the driver must not change any result.
  PatchCollection input = RandomCollection(115, 257);
  for (int which = 0; which < 5; ++which) {
    ExprPtr pred = TestPredicate(which);
    auto reference = MakeFilter(MakeVectorSource(input), pred);
    auto expected = CollectPatches(reference.get());
    ASSERT_TRUE(expected.ok());

    MorselOptions options;
    options.batch_size = 1;
    options.morsel_size = 1;
    auto parallel = ParallelSelect(input, pred, options);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(BytesOfPatches(*parallel), BytesOfPatches(*expected))
        << "pred " << which;
  }
}

TEST(CompiledPredicateTest, LastPartialBatchIsFullyEvaluated) {
  // Input sizes straddling the morsel-size floor: the final short morsel
  // must be evaluated row-for-row like every full one before it.
  for (size_t n : {kDefaultBatchSize - 1, kDefaultBatchSize,
                   kDefaultBatchSize + 1, 2 * kDefaultBatchSize + 17}) {
    PatchCollection input = RandomCollection(117, n);
    // Make the very last row the only survivor so a dropped tail is loud.
    ExprPtr pred = Eq(Attr("pid"), Lit(static_cast<int64_t>(n)));
    auto filtered = MakeFilter(MakeVectorSource(input), pred);
    auto out = CollectPatches(filtered.get());
    ASSERT_TRUE(out.ok());
    ASSERT_EQ(out->size(), 1u) << "n " << n;
    EXPECT_EQ((*out)[0].id(), static_cast<PatchId>(n)) << "n " << n;

    auto parallel = ParallelSelect(input, pred);
    ASSERT_TRUE(parallel.ok());
    ASSERT_EQ(parallel->size(), 1u) << "n " << n;
    EXPECT_EQ((*parallel)[0].id(), static_cast<PatchId>(n)) << "n " << n;
  }
}

// --- Morsel pipeline --------------------------------------------------------

TEST(BatchPipelineTest, ParallelRunMatchesSerialAndVolcano) {
  PatchCollection input = RandomCollection(81, 10000);
  ExprPtr pred = TestPredicate(0);
  auto annotate = [](PatchTuple t) -> Result<PatchTuple> {
    t[0].mutable_meta().Set(
        "flag", t[0].meta().Get("frameno").AsInt().value() + 1);
    return t;
  };

  auto volcano =
      MakeMap(MakeFilter(MakeVectorSource(input), pred), annotate);
  auto expected = CollectPatches(volcano.get());
  ASSERT_TRUE(expected.ok());

  BatchPipeline pipeline;
  pipeline.Filter(pred).Map(annotate);

  // Serial (forced single thread).
  MorselOptions serial;
  serial.num_threads = 1;
  auto serial_out = pipeline.RunOnPatches(input, serial);
  ASSERT_TRUE(serial_out.ok());
  EXPECT_EQ(BytesOfPatches(*serial_out), BytesOfPatches(*expected));

  // Parallel, multiple morsel geometries: ordered merge must make every
  // run identical to the reference regardless of scheduling.
  for (size_t morsel_size : {size_t{0}, size_t{128}, size_t{1024},
                             size_t{4096}, size_t{100000}}) {
    MorselOptions options;
    options.morsel_size = morsel_size;
    PipelineStats stats;
    auto out = pipeline.RunOnPatches(input, options, &stats);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(BytesOfPatches(*out), BytesOfPatches(*expected))
        << "morsel_size " << morsel_size;
    EXPECT_EQ(stats.input_rows, input.size());
    EXPECT_EQ(stats.output_rows, expected->size());
  }
}

TEST(BatchPipelineTest, RepeatedParallelRunsAreDeterministic) {
  PatchCollection input = RandomCollection(91, 8000);
  BatchPipeline pipeline;
  pipeline.Filter(TestPredicate(4));

  auto first = pipeline.RunOnPatches(input);
  ASSERT_TRUE(first.ok());
  for (int i = 0; i < 4; ++i) {
    auto again = pipeline.RunOnPatches(input);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(BytesOfPatches(*again), BytesOfPatches(*first)) << "run " << i;
  }
}

TEST(BatchPipelineTest, MapErrorsPropagate) {
  PatchCollection input = RandomCollection(97, 5000);
  BatchPipeline pipeline;
  pipeline.Map([](PatchTuple t) -> Result<PatchTuple> {
    if (t[0].id() == 4321) return Status::Internal("poisoned tuple");
    return t;
  });
  auto out = pipeline.RunOnPatches(input);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInternal);
}

TEST(ParallelSelectTest, MatchesSequentialFilter) {
  PatchCollection input = RandomCollection(99, 6000);
  for (int which = 0; which < 5; ++which) {
    ExprPtr pred = TestPredicate(which);
    auto volcano = MakeFilter(MakeVectorSource(input), pred);
    auto expected = CollectPatches(volcano.get());
    ASSERT_TRUE(expected.ok());

    auto actual = ParallelSelect(input, pred);
    ASSERT_TRUE(actual.ok());
    EXPECT_EQ(BytesOfPatches(*actual), BytesOfPatches(*expected)) << "pred " << which;
  }
  // Null predicate: identity copy.
  auto all = ParallelSelect(input, nullptr);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(BytesOfPatches(*all), BytesOfPatches(input));
}

}  // namespace
}  // namespace deeplens
