// Differential harness for the morsel-parallel join and pre-merge
// aggregation paths. Every parallel operator must produce byte-identical
// results to (a) its own single-threaded core (MorselOptions.num_threads
// = 1) and (b) a tuple-at-a-time oracle built from the streaming
// MakeFilter operator (Expr::EvalBool per tuple), across randomized
// inputs that vary batch geometry, key skew, NULL density, and the
// empty/one-row edge shapes — plus determinism under repetition for the
// ordered merge. The rounds below cover well
// over 100 distinct randomized inputs (24 hash-join pairs, 8 nested-loop
// pairs, 8 ball-tree inputs, 96 aggregate rounds, plus the edge-shape and
// planner sweeps).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/database.h"
#include "core/planner.h"
#include "exec/aggregates.h"
#include "exec/expression.h"
#include "exec/joins.h"
#include "exec/operators.h"
#include "exec/pipeline.h"
#include "exec/radix.h"

namespace deeplens {
namespace {

// --- Randomized inputs ------------------------------------------------------

struct InputSpec {
  uint64_t seed = 1;
  size_t n = 0;
  /// Join/group key cardinality; small values force heavy duplication.
  int num_keys = 8;
  /// Probability mass concentrated on key 0 (skewed-key workloads).
  double skew = 0.0;
  /// Fraction of rows with the "k"/"g"/"v" columns entirely absent
  /// (reads surface as typed NULLs).
  double null_fraction = 0.0;
  /// Fraction of keyed rows whose "k" is an int64 instead of a string —
  /// exercises the type-tagged key encoding.
  double int_key_fraction = 0.0;
  bool with_features = false;
};

PatchCollection MakeInput(const InputSpec& spec) {
  Rng rng(spec.seed);
  PatchCollection out;
  out.reserve(spec.n);
  for (size_t i = 0; i < spec.n; ++i) {
    Patch p;
    p.set_id(static_cast<PatchId>(i + 1));
    p.set_ref(ImgRef{"diff", static_cast<int64_t>(i), kInvalidPatchId});
    p.set_bbox(nn::BBox{0, 0, 8, 8});
    p.mutable_meta().Set(meta_keys::kScore, rng.NextDouble());
    if (!rng.NextBool(spec.null_fraction)) {
      const int key = rng.NextBool(spec.skew)
                          ? 0
                          : static_cast<int>(rng.NextU64Below(
                                static_cast<uint64_t>(spec.num_keys)));
      if (rng.NextBool(spec.int_key_fraction)) {
        p.mutable_meta().Set("k", int64_t{key});
      } else {
        p.mutable_meta().Set("k", "k" + std::to_string(key));
      }
      p.mutable_meta().Set("g", "g" + std::to_string(key % 5));
      p.mutable_meta().Set("v", rng.NextInt(-1000, 1000));
    }
    if (spec.with_features) {
      std::vector<float> f(6);
      for (auto& v : f) v = rng.NextFloat();
      p.set_features(Tensor::FromVector(std::move(f)));
    }
    out.push_back(std::move(p));
  }
  return out;
}

std::string BytesOfTuple(const PatchTuple& tuple) {
  ByteBuffer buf;
  for (const Patch& p : tuple) p.SerializeInto(&buf);
  const std::vector<uint8_t>& raw = buf.data();
  return std::string(raw.begin(), raw.end());
}

std::vector<std::string> BytesOf(const std::vector<PatchTuple>& tuples) {
  std::vector<std::string> out;
  out.reserve(tuples.size());
  for (const PatchTuple& t : tuples) out.push_back(BytesOfTuple(t));
  return out;
}

// --- Volcano oracles --------------------------------------------------------

// Enumerates the full cross product (left-major, both sides ascending) as
// 2-tuples; feeding it through MakeFilter is the θ-join oracle.
PatchIteratorPtr MakePairSource(const PatchCollection& lhs,
                                const PatchCollection& rhs) {
  auto i = std::make_shared<size_t>(0);
  auto j = std::make_shared<size_t>(0);
  return MakeGeneratorSource(
      [&lhs, &rhs, i, j]() -> Result<std::optional<PatchTuple>> {
        if (rhs.empty() || *i >= lhs.size()) {
          return std::optional<PatchTuple>();
        }
        PatchTuple t{lhs[*i], rhs[*j]};
        if (++*j == rhs.size()) {
          *j = 0;
          ++*i;
        }
        return std::optional<PatchTuple>(std::move(t));
      });
}

Result<std::vector<PatchTuple>> OracleJoin(const PatchCollection& lhs,
                                           const PatchCollection& rhs,
                                           const ExprPtr& predicate) {
  auto plan = MakeFilter(MakePairSource(lhs, rhs), predicate);
  return Collect(plan.get());
}

// Filters through the Volcano oracle, returning the surviving patches in
// input order (the reference row stream every aggregate oracle reduces).
PatchCollection OracleSurvivors(const PatchCollection& rows,
                                const ExprPtr& predicate) {
  auto plan = predicate ? MakeFilter(MakeVectorSource(rows), predicate)
                        : MakeVectorSource(rows);
  auto out = CollectPatches(plan.get());
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out.ok() ? std::move(out).value() : PatchCollection{};
}

// Rotating predicate pool for the aggregate rounds; index 0 is the null
// (keep-everything) predicate and index 4 is unsatisfiable (all-false).
ExprPtr ScanPredicate(int which) {
  switch (which % 6) {
    case 0:
      return nullptr;
    case 1:
      return Ge(Attr(meta_keys::kScore), Lit(0.5));
    case 2:
      return Eq(Attr("g"), Lit("g1"));
    case 3:
      // NULL-sensitive: rows missing "v" evaluate NULL < 0 by type tag.
      return Lt(Attr("v"), Lit(int64_t{0}));
    case 4:
      return Lt(Attr(meta_keys::kScore), Lit(-1.0));  // all-false
    default:
      return Or(Eq(Attr("k"), Lit("k0")), Gt(Attr(meta_keys::kScore),
                                             Lit(0.9)));
  }
}

// Join residuals (evaluated over the concatenated 2-tuple).
ExprPtr JoinResidual(int which) {
  switch (which % 3) {
    case 0:
      return nullptr;
    case 1:
      return Lt(Attr(0, meta_keys::kScore), Attr(1, meta_keys::kScore));
    default:
      return Ne(Attr(0, "g"), Attr(1, "g"));
  }
}

// --- Hash equality join -----------------------------------------------------

TEST(ParallelHashJoinTest, MatchesSerialCoreAndVolcanoOracle) {
  // 24 randomized input pairs: both build sides (left smaller / right
  // smaller / equal), heavy skew, NULL-heavy keys, mixed-type keys.
  const size_t sizes[][2] = {{0, 0},   {0, 40},  {40, 0},  {1, 1},
                             {1, 200}, {200, 1}, {37, 37}, {250, 900},
                             {900, 250}, {513, 514}, {1200, 300}, {64, 2048}};
  int round = 0;
  for (const auto& sz : sizes) {
    for (int variant = 0; variant < 2; ++variant, ++round) {
      InputSpec left_spec;
      left_spec.seed = 1000 + static_cast<uint64_t>(round);
      left_spec.n = sz[0];
      left_spec.num_keys = variant == 0 ? 11 : 3;
      left_spec.skew = variant == 0 ? 0.0 : 0.6;
      left_spec.null_fraction = variant == 0 ? 0.0 : 0.3;
      left_spec.int_key_fraction = variant == 0 ? 0.0 : 0.25;
      InputSpec right_spec = left_spec;
      right_spec.seed += 7777;
      right_spec.n = sz[1];
      const PatchCollection lhs = MakeInput(left_spec);
      const PatchCollection rhs = MakeInput(right_spec);
      const ExprPtr residual = JoinResidual(round);

      const ExprPtr key_eq = Eq(Attr(0, "k"), Attr(1, "k"));
      auto expected = OracleJoin(
          lhs, rhs, residual ? And(key_eq, residual) : key_eq);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();

      MorselOptions serial;
      serial.num_threads = 1;
      auto serial_out = HashEqualityJoin(lhs, rhs, "k", residual, nullptr,
                                         serial);
      ASSERT_TRUE(serial_out.ok()) << serial_out.status().ToString();
      EXPECT_EQ(BytesOf(*serial_out), BytesOf(*expected))
          << "serial, round " << round;

      for (size_t morsel_size : {size_t{0}, size_t{13}, size_t{256}}) {
        MorselOptions options;
        options.morsel_size = morsel_size;
        JoinStats stats;
        auto parallel_out =
            HashEqualityJoin(lhs, rhs, "k", residual, &stats, options);
        ASSERT_TRUE(parallel_out.ok()) << parallel_out.status().ToString();
        EXPECT_EQ(BytesOf(*parallel_out), BytesOf(*expected))
            << "round " << round << " morsel_size " << morsel_size;
        EXPECT_EQ(stats.tuples_emitted, expected->size());
      }
    }
  }
}

TEST(ParallelHashJoinTest, RepeatedRunsAreDeterministic) {
  InputSpec spec;
  spec.seed = 42;
  spec.n = 1500;
  spec.num_keys = 4;
  spec.skew = 0.5;
  const PatchCollection lhs = MakeInput(spec);
  spec.seed = 43;
  spec.n = 600;
  const PatchCollection rhs = MakeInput(spec);

  auto first = HashEqualityJoin(lhs, rhs, "k", JoinResidual(1));
  ASSERT_TRUE(first.ok());
  ASSERT_GT(first->size(), 0u);
  for (int rep = 0; rep < 4; ++rep) {
    auto again = HashEqualityJoin(lhs, rhs, "k", JoinResidual(1));
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(BytesOf(*again), BytesOf(*first)) << "rep " << rep;
  }
}

// --- Radix-partitioned hash join --------------------------------------------

// Restores (or clears) an env var on scope exit so the radix override
// cannot leak into other tests. Mirrors the guard in cache_test.cc.
class EnvGuard {
 public:
  explicit EnvGuard(const char* name) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_value_ = old != nullptr;
  }
  ~EnvGuard() {
    if (had_value_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  void Set(const char* value) { ::setenv(name_, value, 1); }

 private:
  const char* name_;
  std::string saved_;
  bool had_value_ = false;
};

TEST(RadixHashJoinTest, EnvForcedRadixMatchesOracleAcrossPartitionEdges) {
  // DEEPLENS_JOIN_PARTITIONS fans inputs small enough for the oracle out
  // to a pinned partition count. Partition counts cover the degenerate
  // edges: 1 (everything in one partition) and 256 (more partitions than
  // rows — most partitions empty).
  struct Variant {
    const char* label;
    InputSpec spec;
  };
  std::vector<Variant> variants;
  {
    InputSpec uniform;
    uniform.n = 180;
    uniform.num_keys = 13;
    variants.push_back({"uniform", uniform});
    InputSpec skewed = uniform;
    skewed.skew = 0.85;
    skewed.num_keys = 4;
    variants.push_back({"skewed", skewed});
    InputSpec null_heavy = uniform;
    null_heavy.null_fraction = 0.6;
    variants.push_back({"null_heavy", null_heavy});
    InputSpec all_dup = uniform;
    all_dup.num_keys = 1;  // every keyed row joins every keyed row
    all_dup.n = 120;
    variants.push_back({"all_duplicate", all_dup});
  }

  EnvGuard guard("DEEPLENS_JOIN_PARTITIONS");
  const size_t workers = ResolveMorselWorkers(MorselOptions{});
  int round = 0;
  for (const Variant& v : variants) {
    InputSpec left_spec = v.spec;
    left_spec.seed = 42000 + static_cast<uint64_t>(round);
    InputSpec right_spec = left_spec;
    right_spec.seed += 991;
    right_spec.n = left_spec.n / 2 + 1;
    const PatchCollection lhs = MakeInput(left_spec);
    const PatchCollection rhs = MakeInput(right_spec);
    const ExprPtr residual = JoinResidual(round);

    const ExprPtr key_eq = Eq(Attr(0, "k"), Attr(1, "k"));
    auto expected =
        OracleJoin(lhs, rhs, residual ? And(key_eq, residual) : key_eq);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();

    for (const char* parts : {"1", "4", "256"}) {
      guard.Set(parts);
      JoinStats stats;
      auto radix_out = HashEqualityJoin(lhs, rhs, "k", residual, &stats);
      ASSERT_TRUE(radix_out.ok()) << radix_out.status().ToString();
      EXPECT_EQ(BytesOf(*radix_out), BytesOf(*expected))
          << v.label << " partitions " << parts;
      // A one-worker pool makes every plan serial, forced or not.
      EXPECT_EQ(stats.partitions_used,
                workers > 1 ? std::strtoull(parts, nullptr, 10) : 1u)
          << v.label;
      EXPECT_EQ(stats.tuples_emitted, expected->size()) << v.label;
    }
    ++round;
  }
}

TEST(RadixHashJoinTest, SerialAndInWorkerPlansUseOnePartition) {
  // Without the env override a serial plan, and a join started from
  // inside a pool worker, both run the radix core at one partition; a
  // parallel plan fans out by the heuristic. All three must equal the
  // Volcano oracle. Skew concentrates ~half of each side on one key.
  EnvGuard guard("DEEPLENS_JOIN_PARTITIONS");
  ::unsetenv("DEEPLENS_JOIN_PARTITIONS");
  InputSpec spec;
  spec.seed = 4242;
  spec.n = 600;
  spec.num_keys = 64;
  spec.skew = 0.5;
  spec.null_fraction = 0.1;
  const PatchCollection lhs = MakeInput(spec);
  spec.seed = 4243;
  spec.n = 300;
  const PatchCollection rhs = MakeInput(spec);
  const ExprPtr residual = JoinResidual(1);
  auto expected =
      OracleJoin(lhs, rhs, And(Eq(Attr(0, "k"), Attr(1, "k")), residual));
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  MorselOptions serial;
  serial.num_threads = 1;
  JoinStats serial_stats;
  auto serial_out =
      HashEqualityJoin(lhs, rhs, "k", residual, &serial_stats, serial);
  ASSERT_TRUE(serial_out.ok()) << serial_out.status().ToString();
  EXPECT_EQ(BytesOf(*serial_out), BytesOf(*expected));
  EXPECT_EQ(serial_stats.partitions_used, 1u);
  EXPECT_EQ(serial_stats.tuples_emitted, expected->size());

  JoinStats worker_stats;
  Result<std::vector<PatchTuple>> worker_out =
      Status::Internal("join did not run");
  ThreadPool::Global()
      .Submit([&] {
        worker_out = HashEqualityJoin(lhs, rhs, "k", residual, &worker_stats);
      })
      .get();
  ASSERT_TRUE(worker_out.ok()) << worker_out.status().ToString();
  EXPECT_EQ(BytesOf(*worker_out), BytesOf(*expected));
  EXPECT_EQ(worker_stats.partitions_used, 1u);

  MorselOptions parallel;
  parallel.num_threads = 4;
  JoinStats stats;
  auto parallel_out =
      HashEqualityJoin(lhs, rhs, "k", residual, &stats, parallel);
  ASSERT_TRUE(parallel_out.ok()) << parallel_out.status().ToString();
  EXPECT_EQ(BytesOf(*parallel_out), BytesOf(*expected));
  const size_t workers = ResolveMorselWorkers(parallel);
  if (workers > 1) {  // a one-worker pool makes every plan serial
    EXPECT_EQ(stats.partitions_used, ChooseJoinPartitions(rhs.size(), workers));
    EXPECT_GT(stats.partitions_used, 1u);
  }
  EXPECT_GE(stats.max_partition_skew, 1.0);
}

TEST(RadixHashJoinTest, RepeatedRunsAreDeterministic) {
  // The chunked probe dispatches work in a scheduling-dependent order;
  // the canonical-slot stitch must erase that from the output.
  EnvGuard guard("DEEPLENS_JOIN_PARTITIONS");
  guard.Set("8");
  InputSpec spec;
  spec.seed = 606;
  spec.n = 900;
  spec.num_keys = 5;
  spec.skew = 0.6;
  spec.null_fraction = 0.2;
  const PatchCollection lhs = MakeInput(spec);
  spec.seed = 607;
  spec.n = 400;
  const PatchCollection rhs = MakeInput(spec);

  auto first = HashEqualityJoin(lhs, rhs, "k", JoinResidual(1));
  ASSERT_TRUE(first.ok());
  ASSERT_GT(first->size(), 0u);
  for (int rep = 0; rep < 4; ++rep) {
    auto again = HashEqualityJoin(lhs, rhs, "k", JoinResidual(1));
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(BytesOf(*again), BytesOf(*first)) << "rep " << rep;
  }
}

// --- Signed-zero keys ---------------------------------------------------------

// -0.0 and 0.0 compare equal (MetaValue::Compare), so key-hashing operators
// must treat them as one key, exactly as the expression-engine oracles do.
PatchCollection SignedZeroRows() {
  const MetaValue keys[] = {MetaValue(0.0),          MetaValue(-0.0),
                            MetaValue(0.0),          MetaValue(-0.0),
                            MetaValue(int64_t{0}),   MetaValue(2.0),
                            MetaValue(int64_t{2}),   MetaValue(-3.5)};
  PatchCollection rows;
  for (const MetaValue& k : keys) {
    Patch p;
    p.set_id(static_cast<PatchId>(rows.size() + 1));
    p.mutable_meta().Set("k", k);
    rows.push_back(std::move(p));
  }
  return rows;
}

TEST(SignedZeroKeyTest, HashJoinMatchesNestedLoopOracle) {
  const PatchCollection rows = SignedZeroRows();
  auto expected = OracleJoin(rows, rows, Eq(Attr(0, "k"), Attr(1, "k")));
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_EQ(expected->size(), 5u * 5u + 2u * 2u + 1u);

  MorselOptions serial;
  serial.num_threads = 1;
  for (const MorselOptions& options : {serial, MorselOptions{}}) {
    auto heuristic =
        HashEqualityJoin(rows, rows, "k", nullptr, nullptr, options);
    ASSERT_TRUE(heuristic.ok()) << heuristic.status().ToString();
    EXPECT_EQ(BytesOf(*heuristic), BytesOf(*expected))
        << "threads " << options.num_threads;
  }
  EnvGuard guard("DEEPLENS_JOIN_PARTITIONS");
  for (const char* parts : {"1", "4"}) {
    guard.Set(parts);
    auto radix = HashEqualityJoin(rows, rows, "k");
    ASSERT_TRUE(radix.ok()) << radix.status().ToString();
    EXPECT_EQ(BytesOf(*radix), BytesOf(*expected)) << "partitions " << parts;
  }
}

TEST(SignedZeroKeyTest, DistinctCountMatchesCompareOracle) {
  const PatchCollection rows = SignedZeroRows();
  // Oracle: a value is new unless it compares equal to an earlier one.
  uint64_t want = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    bool seen = false;
    for (size_t j = 0; j < i && !seen; ++j) {
      seen = rows[i].meta().Get("k").Compare(rows[j].meta().Get("k")) == 0;
    }
    if (!seen) ++want;
  }
  ASSERT_EQ(want, 3u);
  MorselOptions serial;
  serial.num_threads = 1;
  for (const MorselOptions& options : {serial, MorselOptions{}}) {
    auto got = ParallelCountDistinctKey(rows, "k", nullptr, options);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, want) << "threads " << options.num_threads;
  }
}

// --- Join-side residual pushdown ---------------------------------------------

// Rows for the pushdown differential: join key "k" (few values, some NULL,
// some int), single-side filter columns "g"/score/"v", and "e", an int on
// most rows but a string on ~4% — arithmetic over it raises a TypeError
// only on those rows.
PatchCollection MakePushdownInput(uint64_t seed, size_t n) {
  Rng rng(seed);
  PatchCollection out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Patch p;
    p.set_id(static_cast<PatchId>(i + 1));
    p.set_ref(ImgRef{"push", static_cast<int64_t>(i), kInvalidPatchId});
    MetaDict& meta = p.mutable_meta();
    const int key = static_cast<int>(rng.NextU64Below(6));
    if (!rng.NextBool(0.1)) {
      if (rng.NextBool(0.2)) {
        meta.Set("k", int64_t{key});
      } else {
        meta.Set("k", "k" + std::to_string(key));
      }
    }
    meta.Set("g", "g" + std::to_string(rng.NextU64Below(4)));
    meta.Set(meta_keys::kScore, rng.NextDouble());
    if (!rng.NextBool(0.15)) meta.Set("v", rng.NextInt(-100, 100));
    if (rng.NextBool(0.04)) {
      meta.Set("e", "oops");
    } else {
      meta.Set("e", rng.NextInt(0, 50));
    }
    out.push_back(std::move(p));
  }
  return out;
}

// One residual conjunct and whether HashEqualityJoin may push it to a
// side (an attr-vs-literal comparison on slot 0 or 1).
struct PushConjunct {
  ExprPtr expr;
  bool pushable = false;
};

PushConjunct RandomPushConjunct(Rng* rng) {
  const size_t s = rng->NextU64Below(2);
  const std::string g = "g" + std::to_string(rng->NextU64Below(4));
  switch (rng->NextU64Below(11)) {
    case 0:
      return {Eq(Attr(s, "g"), Lit(g)), true};
    case 1:
      return {Ge(Attr(s, meta_keys::kScore), Lit(0.2 + 0.1 * s)), true};
    case 2:
      return {Lt(Attr(s, "v"), Lit(rng->NextInt(-50, 80))), true};
    case 3:
      return {Ne(Lit(g), Attr(s, "g")), false};  // != is never pushed
    case 4:
      return {Le(Lit(g), Attr(s, "g")), true};  // literal written first
    case 5:
      return {Lt(Attr(0, meta_keys::kScore), Attr(1, meta_keys::kScore)),
              false};
    case 6:
      return {Ne(Attr(0, "g"), Attr(1, "g")), false};
    case 7:
      return {Or(Eq(Attr(s, "g"), Lit(g)),
                 Gt(Attr(1 - s, meta_keys::kScore), Lit(0.5))),
              false};
    case 8:
    case 9:
      // TypeError on rows whose "e" is a string.
      return {Gt(Add(Attr(s, "e"), Lit(1)), Lit(-1)), false};
    default:
      // Attr-vs-literal shape, but slot 2 of a 2-tuple: OutOfRange on
      // every pair that reaches it.
      return {Eq(Attr(2, "g"), Lit(g)), false};
  }
}

ExprPtr AndAll(const std::vector<PushConjunct>& conjuncts, size_t n) {
  ExprPtr out;
  for (size_t i = 0; i < n; ++i) {
    out = out ? And(out, conjuncts[i].expr) : conjuncts[i].expr;
  }
  return out;
}

TEST(JoinPushdownTest, SideFiltersMatchNestedLoopOracleIncludingErrors) {
  // Randomized residuals mixing pushable and non-pushable conjuncts in
  // every order, at the heuristic partition count and at 4 forced
  // partitions, at 1, 2 and 4 workers, for distinct inputs
  // and for a self-join over one collection. Outputs — or the error
  // status — must equal the nested-loop oracle, and pairs_examined must
  // count exactly the key-equal pairs that pass the leading pushable run.
  EnvGuard guard("DEEPLENS_JOIN_PARTITIONS");
  Rng rng(0x9a5d);
  const ExprPtr key_eq = Eq(Attr(0, "k"), Attr(1, "k"));
  MorselOptions serial;
  serial.num_threads = 1;
  int errors = 0;
  int successes = 0;
  int pushed_rounds = 0;
  for (int round = 0; round < 40; ++round) {
    std::vector<PushConjunct> conjuncts;
    if (round == 0) {
      // Pushable prefix, then the erroring fallback, then more.
      conjuncts = {{Eq(Attr(0, "g"), Lit("g1")), true},
                   {Ge(Attr(1, meta_keys::kScore), Lit(0.3)), true},
                   {Gt(Add(Attr(0, "e"), Lit(1)), Lit(-1)), false},
                   {Lt(Attr(1, "v"), Lit(0)), true}};
    } else if (round == 1) {
      // The erroring conjunct leads: nothing may be pushed.
      conjuncts = {{Gt(Add(Attr(1, "e"), Lit(1)), Lit(-1)), false},
                   {Eq(Attr(0, "g"), Lit("g2")), true}};
    } else {
      const size_t n = 1 + rng.NextU64Below(5);
      for (size_t i = 0; i < n; ++i) {
        conjuncts.push_back(RandomPushConjunct(&rng));
      }
    }
    size_t prefix = 0;
    while (prefix < conjuncts.size() && conjuncts[prefix].pushable) ++prefix;
    if (prefix > 0) ++pushed_rounds;
    const ExprPtr residual = AndAll(conjuncts, conjuncts.size());

    const PatchCollection lhs =
        MakePushdownInput(7100 + static_cast<uint64_t>(round), 90);
    const PatchCollection other =
        MakePushdownInput(9100 + static_cast<uint64_t>(round), 130);
    for (bool self_join : {false, true}) {
      const PatchCollection& rhs = self_join ? lhs : other;
      auto expected =
          NestedLoopJoin(lhs, rhs, And(key_eq, residual), nullptr, serial);
      auto examined = NestedLoopJoin(
          lhs, rhs, prefix > 0 ? And(key_eq, AndAll(conjuncts, prefix))
                               : key_eq,
          nullptr, serial);
      ASSERT_TRUE(examined.ok()) << examined.status().ToString();
      (expected.ok() ? successes : errors) += 1;

      for (const char* parts : {"", "4"}) {
        if (*parts == '\0') {
          ::unsetenv("DEEPLENS_JOIN_PARTITIONS");
        } else {
          guard.Set(parts);
        }
        for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
          MorselOptions options;
          options.num_threads = threads;
          options.morsel_size = 16;
          JoinStats stats;
          auto got = HashEqualityJoin(lhs, rhs, "k", residual, &stats,
                                      options);
          const std::string where =
              "round " + std::to_string(round) + (self_join ? " self" : "") +
              " partitions '" + parts + "' threads " +
              std::to_string(threads) + ": " + residual->ToString();
          ASSERT_EQ(got.ok(), expected.ok())
              << where << " got " << got.status().ToString()
              << " expected " << expected.status().ToString();
          if (!expected.ok()) {
            EXPECT_EQ(got.status().ToString(),
                      expected.status().ToString())
                << where;
            continue;
          }
          EXPECT_EQ(BytesOf(*got), BytesOf(*expected)) << where;
          EXPECT_EQ(stats.tuples_emitted, expected->size()) << where;
          EXPECT_EQ(stats.pairs_examined, examined->size()) << where;
        }
      }
    }
  }
  // The rounds must exercise both outcomes and the pushdown itself.
  EXPECT_GT(errors, 4);
  EXPECT_GT(successes, 10);
  EXPECT_GT(pushed_rounds, 10);
}

// --- Nested-loop θ-join -----------------------------------------------------

TEST(ParallelNestedLoopJoinTest, MatchesSerialCoreAndVolcanoOracle) {
  const size_t sizes[][2] = {{0, 25}, {1, 1}, {30, 90}, {128, 17},
                             {75, 75}, {300, 40}, {2, 500}, {41, 0}};
  int round = 0;
  for (const auto& sz : sizes) {
    InputSpec spec;
    spec.seed = 5000 + static_cast<uint64_t>(round);
    spec.n = sz[0];
    spec.null_fraction = 0.2;
    const PatchCollection lhs = MakeInput(spec);
    spec.seed += 333;
    spec.n = sz[1];
    const PatchCollection rhs = MakeInput(spec);
    const ExprPtr pred = Lt(Attr(0, meta_keys::kScore),
                            Attr(1, meta_keys::kScore));

    auto expected = OracleJoin(lhs, rhs, pred);
    ASSERT_TRUE(expected.ok());

    MorselOptions serial;
    serial.num_threads = 1;
    auto serial_out = NestedLoopJoin(lhs, rhs, pred, nullptr, serial);
    ASSERT_TRUE(serial_out.ok());
    EXPECT_EQ(BytesOf(*serial_out), BytesOf(*expected)) << "round " << round;

    MorselOptions tiny;
    tiny.batch_size = 1;
    tiny.morsel_size = 1;  // one outer row per morsel
    for (const MorselOptions& options : {MorselOptions{}, tiny}) {
      JoinStats stats;
      auto parallel_out = NestedLoopJoin(lhs, rhs, pred, &stats, options);
      ASSERT_TRUE(parallel_out.ok());
      EXPECT_EQ(BytesOf(*parallel_out), BytesOf(*expected))
          << "round " << round;
      EXPECT_EQ(stats.pairs_examined,
                static_cast<uint64_t>(lhs.size()) * rhs.size());
    }
    ++round;
  }
}

// --- Ball-tree similarity join ----------------------------------------------

TEST(ParallelBallTreeJoinTest, MatchesSerialCoreAndOracleAsMultiset) {
  // The tree probe emits matches in traversal order, so the oracle
  // comparison is order-normalized; serial-vs-parallel stays byte-exact
  // (ordered merge) and is checked unsorted.
  for (int round = 0; round < 8; ++round) {
    InputSpec spec;
    spec.seed = 9000 + static_cast<uint64_t>(round);
    spec.n = static_cast<size_t>(40 + round * 55);
    spec.with_features = true;
    const PatchCollection lhs = MakeInput(spec);
    spec.seed += 11;
    spec.n = static_cast<size_t>(25 + round * 70);
    const PatchCollection rhs = MakeInput(spec);

    SimilarityJoinOptions join_options;
    join_options.max_distance = 0.55f;

    MorselOptions serial;
    serial.num_threads = 1;
    auto serial_out =
        BallTreeSimilarityJoin(lhs, rhs, join_options, nullptr, nullptr,
                               serial);
    ASSERT_TRUE(serial_out.ok()) << serial_out.status().ToString();
    auto parallel_out =
        BallTreeSimilarityJoin(lhs, rhs, join_options, nullptr, nullptr);
    ASSERT_TRUE(parallel_out.ok());
    EXPECT_EQ(BytesOf(*parallel_out), BytesOf(*serial_out))
        << "round " << round;

    // Oracle: brute-force pairs within the threshold, skipping id-equal
    // pairs, as a multiset.
    const ExprPtr pred = Le(FeatureDistance(0, 1), Lit(0.55));
    auto oracle = OracleJoin(lhs, rhs, pred);
    ASSERT_TRUE(oracle.ok());
    std::vector<std::string> expected;
    for (const PatchTuple& t : *oracle) {
      if (t[0].id() == t[1].id()) continue;
      expected.push_back(BytesOfTuple(t));
    }
    std::vector<std::string> actual = BytesOf(*parallel_out);
    std::sort(expected.begin(), expected.end());
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(actual, expected) << "round " << round;
  }
}

// --- Pre-merge aggregation --------------------------------------------------

TEST(ParallelAggregateTest, MatchesVolcanoOracleOnRandomizedInputs) {
  // 16 input shapes × 6 predicates = 96 randomized aggregate rounds, each
  // checking all six parallel aggregates against reductions of the
  // Volcano-filtered survivor stream.
  const size_t sizes[] = {0, 1, 2, 63, 64, 65, 500, 1000,
                          1023, 1024, 1025, 2000, 3000, 4096, 5000, 8000};
  int round = 0;
  for (size_t n : sizes) {
    for (int which = 0; which < 6; ++which, ++round) {
      InputSpec spec;
      spec.seed = 20000 + static_cast<uint64_t>(round);
      spec.n = n;
      spec.num_keys = 6;
      spec.skew = (round % 3 == 0) ? 0.7 : 0.0;
      spec.null_fraction = (round % 2 == 0) ? 0.35 : 0.0;
      const PatchCollection rows = MakeInput(spec);
      const ExprPtr pred = ScanPredicate(which);
      const PatchCollection survivors = OracleSurvivors(rows, pred);

      MorselOptions tiny;
      tiny.batch_size = 1;
      tiny.morsel_size = 7;
      for (const MorselOptions& options : {MorselOptions{}, tiny}) {
        // COUNT(*)
        auto count = ParallelCount(rows, pred, options);
        ASSERT_TRUE(count.ok()) << count.status().ToString();
        EXPECT_EQ(*count, survivors.size()) << "round " << round;

        // COUNT(DISTINCT k)
        std::unordered_set<std::string> distinct;
        for (const Patch& p : survivors) {
          distinct.insert(p.meta().Get("k").ToIndexKey());
        }
        auto distinct_count = ParallelCountDistinctKey(rows, "k", pred,
                                                       options);
        ASSERT_TRUE(distinct_count.ok());
        EXPECT_EQ(*distinct_count, distinct.size()) << "round " << round;

        // GROUP BY g → COUNT
        std::map<std::string, uint64_t> group_counts;
        for (const Patch& p : survivors) {
          ++group_counts[p.meta().Get("g").ToDisplayString()];
        }
        auto groups = ParallelGroupByCount(rows, "g", pred, options);
        ASSERT_TRUE(groups.ok());
        EXPECT_EQ(*groups, group_counts) << "round " << round;

        // FirstBy-style argmin over "v" (earliest row wins ties).
        const Patch* best = nullptr;
        for (const Patch& p : survivors) {
          if (best == nullptr ||
              p.meta().Get("v").Compare(best->meta().Get("v")) < 0) {
            best = &p;
          }
        }
        auto min_by = ParallelMinBy(rows, "v", pred, options);
        ASSERT_TRUE(min_by.ok());
        ASSERT_EQ(min_by->has_value(), best != nullptr) << "round " << round;
        if (best != nullptr) {
          EXPECT_EQ(BytesOfTuple(PatchTuple{**min_by}),
                    BytesOfTuple(PatchTuple{*best}))
              << "round " << round;
        }
      }
    }
  }
}

TEST(ParallelAggregateTest, PartitionedMergeHighCardinalityMatchesSerial) {
  // Enough distinct groups that the summed per-morsel partials clear the
  // partitioned-merge gate (kPartitionedMergeMinEntries), forcing the
  // radix scatter + partition-wise fold instead of the serial map merge.
  Rng rng(0xcafe);
  PatchCollection rows;
  rows.reserve(12000);
  for (size_t i = 0; i < 12000; ++i) {
    Patch p;
    p.set_id(static_cast<PatchId>(i + 1));
    p.set_ref(ImgRef{"hicard", static_cast<int64_t>(i), kInvalidPatchId});
    p.set_bbox(nn::BBox{0, 0, 8, 8});
    p.mutable_meta().Set("g", "grp" + std::to_string(rng.NextU64Below(6000)));
    p.mutable_meta().Set("v", rng.NextInt(-1000, 1000));
    rows.push_back(std::move(p));
  }

  MorselOptions serial;
  serial.num_threads = 1;
  auto serial_counts = ParallelGroupByCount(rows, "g", nullptr, serial);
  auto serial_distinct =
      ParallelCountDistinctKey(rows, "g", nullptr, serial);
  ASSERT_TRUE(serial_counts.ok() && serial_distinct.ok());
  EXPECT_GT(serial_counts->size(), 4096u)
      << "cardinality must clear the partitioned-merge gate";

  for (int rep = 0; rep < 3; ++rep) {
    auto counts = ParallelGroupByCount(rows, "g");
    auto distinct = ParallelCountDistinctKey(rows, "g");
    ASSERT_TRUE(counts.ok() && distinct.ok());
    EXPECT_EQ(*counts, *serial_counts) << "rep " << rep;
    EXPECT_EQ(*distinct, *serial_distinct) << "rep " << rep;
  }
}

TEST(ParallelAggregateTest, RepeatedRunsAreDeterministic) {
  InputSpec spec;
  spec.seed = 77;
  spec.n = 6000;
  spec.num_keys = 9;
  spec.null_fraction = 0.1;
  const PatchCollection rows = MakeInput(spec);
  const ExprPtr pred = ScanPredicate(1);

  auto first_groups = ParallelGroupByCount(rows, "g", pred);
  auto first_min = ParallelMinBy(rows, "v", pred);
  ASSERT_TRUE(first_groups.ok() && first_min.ok());
  for (int rep = 0; rep < 4; ++rep) {
    auto groups = ParallelGroupByCount(rows, "g", pred);
    auto min_by = ParallelMinBy(rows, "v", pred);
    ASSERT_TRUE(groups.ok() && min_by.ok());
    EXPECT_EQ(*groups, *first_groups) << "rep " << rep;
    EXPECT_EQ(BytesOfTuple(PatchTuple{**min_by}),
              BytesOfTuple(PatchTuple{**first_min}))
        << "rep " << rep;
  }
}

TEST(ParallelAggregateTest, PredicateErrorsPropagateFromWorkers) {
  PatchCollection rows;
  for (int i = 0; i < 4000; ++i) {
    Patch p;
    p.set_id(static_cast<PatchId>(i + 1));
    // Row 3170 carries a string where the predicate expects a flag.
    p.mutable_meta().Set("flag", i == 3170 ? MetaValue("oops")
                                           : MetaValue(i % 2 == 0));
    rows.push_back(std::move(p));
  }
  auto count = ParallelCount(rows, Attr("flag"));
  ASSERT_FALSE(count.ok());
  EXPECT_TRUE(count.status().IsTypeError());
}

// --- Planner pushdown -------------------------------------------------------

TEST(PlannerAggregatePushdownTest, FullScanAndIndexPathsAgree) {
  InputSpec spec;
  spec.seed = 321;
  spec.n = 2500;
  spec.num_keys = 7;
  spec.null_fraction = 0.15;

  ViewCache unindexed;
  unindexed.patches = MakeInput(spec);
  ViewCache indexed;
  indexed.patches = unindexed.patches;
  HashIndex& g_index = indexed.hash_indexes["g"];
  for (size_t i = 0; i < indexed.patches.size(); ++i) {
    g_index.Insert(Slice(indexed.patches[i].meta().Get("g").ToIndexKey()),
                   static_cast<RowId>(i));
  }

  // Sargable predicate: the indexed view takes the hash-lookup path, the
  // bare view the parallel full scan; every aggregate must agree, and
  // both must match reducing the materialized scan.
  const ExprPtr pred =
      And(Eq(Attr("g"), Lit("g2")), Ge(Attr(meta_keys::kScore), Lit(0.25)));
  for (const ViewCache* view : {&unindexed, &indexed}) {
    PlanExplanation plan;
    auto scan = Planner::ExecuteScan(*view, pred, &plan);
    ASSERT_TRUE(scan.ok());
    if (view == &indexed) {
      EXPECT_EQ(plan.path, AccessPath::kHashLookup);
    } else {
      EXPECT_EQ(plan.path, AccessPath::kFullScan);
    }

    auto count = Planner::ExecuteScanCount(*view, pred, nullptr);
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(*count, scan->size());

    std::unordered_set<std::string> distinct;
    std::map<std::string, uint64_t> group_counts;
    const Patch* best = nullptr;
    for (const Patch& p : *scan) {
      distinct.insert(p.meta().Get("k").ToIndexKey());
      ++group_counts[p.meta().Get("k").ToDisplayString()];
      if (best == nullptr ||
          p.meta().Get("v").Compare(best->meta().Get("v")) < 0) {
        best = &p;
      }
    }
    auto distinct_count =
        Planner::ExecuteScanCountDistinct(*view, "k", pred, nullptr);
    ASSERT_TRUE(distinct_count.ok());
    EXPECT_EQ(*distinct_count, distinct.size());

    auto groups = Planner::ExecuteScanGroupCount(*view, "k", pred, nullptr);
    ASSERT_TRUE(groups.ok());
    EXPECT_EQ(*groups, group_counts);

    auto min_by = Planner::ExecuteScanMinBy(*view, "v", pred, nullptr);
    ASSERT_TRUE(min_by.ok());
    ASSERT_EQ(min_by->has_value(), best != nullptr);
    if (best != nullptr) {
      EXPECT_EQ(BytesOfTuple(PatchTuple{**min_by}),
                BytesOfTuple(PatchTuple{*best}));
    }
  }
}

}  // namespace
}  // namespace deeplens
