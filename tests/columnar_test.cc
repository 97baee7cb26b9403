// Unit tests for storage/columnar/: stream-vbyte codec framing, the
// chunked writer/reader round-trip (byte-identical to a resident
// last-write-wins oracle across randomized, NULL-heavy, empty, one-chunk
// and out-of-order/overwritten views), rejection of pre-columnar view
// files, zone-map pruning equivalence against unpruned scans, torn-tail
// and corrupt-chunk recovery to typed Corruption, the chunk-parallel
// aggregate fold (equal to a serial FoldChunk loop, its first error
// included, and under concurrent tenants), the async decode-ahead loader
// (concurrent readers, byte budget, depth knob) and the view's streaming
// Scan().
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <thread>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/database.h"
#include "core/planner.h"
#include "core/session.h"
#include "etl/materialize.h"
#include "exec/expression.h"
#include "exec/scheduler.h"
#include "storage/columnar/async_loader.h"
#include "storage/columnar/columnar_file.h"
#include "storage/columnar/encoding.h"
#include "storage/columnar/format.h"
#include "storage/record_store.h"

namespace deeplens {
namespace {

class ColumnarTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("dl_columnar_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    unsetenv("DEEPLENS_COLUMNAR_CHUNK_ROWS");
    unsetenv("DEEPLENS_PREFETCH_DEPTH");
    std::filesystem::remove_all(dir_);
  }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

std::string SerializePatch(const Patch& p) {
  ByteBuffer buf;
  p.SerializeInto(&buf);
  const Slice s = buf.AsSlice();
  return std::string(reinterpret_cast<const char*>(s.data()), s.size());
}

// Byte-identical equality: the strongest round-trip check the format can
// offer, covering every field including float bit patterns.
void ExpectSamePatches(const PatchCollection& a, const PatchCollection& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(SerializePatch(a[i]), SerializePatch(b[i]))
        << "patch " << i << " (id " << a[i].id() << ")";
  }
}

// Flips one bit of the byte at `offset`, in place.
void FlipByte(const std::string& path, uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&byte, 1);
}

Image NoisyImage(int w, int h, uint64_t seed) {
  Image img(w, h, 3);
  Rng rng(seed);
  for (auto& b : img.bytes()) b = static_cast<uint8_t>(rng.NextU64());
  return img;
}

// A randomized patch exercising every column encoder: int/float/string
// meta (some keys missing, some explicitly null, one key mixed-type),
// pixels and features present on a subset of rows.
Patch RandomPatch(PatchId id, Rng* rng, bool null_heavy = false) {
  Patch p;
  p.set_id(id);
  p.set_ref(ImgRef{"cam" + std::to_string(rng->NextU64Below(3)),
                   static_cast<int>(rng->NextInt(0, 5000)),
                   kInvalidPatchId});
  p.set_bbox(nn::BBox{static_cast<int>(rng->NextInt(-50, 50)),
                      static_cast<int>(rng->NextInt(-50, 50)),
                      static_cast<int>(rng->NextInt(51, 600)),
                      static_cast<int>(rng->NextInt(51, 600))});
  const uint64_t missing_bias = null_heavy ? 2 : 8;
  if (rng->NextU64Below(10) < missing_bias) {
    p.mutable_meta().Set("label", std::string(rng->NextU64Below(2) == 0
                                                  ? "car"
                                                  : "person"));
  }
  if (rng->NextU64Below(10) < missing_bias) {
    p.mutable_meta().Set("score", rng->NextDouble());
  }
  if (rng->NextU64Below(10) < missing_bias) {
    p.mutable_meta().Set("frameno", rng->NextInt(0, 100));
  }
  if (rng->NextU64Below(8) == 0) {
    p.mutable_meta().Set("odd", MetaValue());  // explicit null
  } else if (rng->NextU64Below(8) == 0) {
    // Mixed-type column: int rows and string rows force the kTagMixed
    // row-serialized fallback.
    if (rng->NextU64Below(2) == 0) {
      p.mutable_meta().Set("odd", rng->NextInt(-10, 10));
    } else {
      p.mutable_meta().Set("odd", std::string("str"));
    }
  }
  if (rng->NextU64Below(4) == 0) {
    p.set_pixels(NoisyImage(static_cast<int>(3 + rng->NextU64Below(6)),
                            static_cast<int>(3 + rng->NextU64Below(6)),
                            rng->NextU64()));
  }
  if (rng->NextU64Below(3) == 0) {
    std::vector<float> f(4 + rng->NextU64Below(5));
    for (auto& v : f) v = static_cast<float>(rng->NextDouble());
    p.set_features(Tensor::FromVector(std::move(f)));
  }
  return p;
}

PatchCollection RandomPatches(size_t n, uint64_t seed,
                              bool null_heavy = false) {
  Rng rng(seed);
  PatchCollection out;
  PatchId id = 0;
  for (size_t i = 0; i < n; ++i) {
    id += 1 + rng.NextU64Below(7);  // gaps between ids
    out.push_back(RandomPatch(id, &rng, null_heavy));
  }
  return out;
}

// --- Stream-vbyte codec ---------------------------------------------------

TEST(SvbCodecTest, U32RoundTripAllMagnitudes) {
  Rng rng(11);
  std::vector<uint32_t> values;
  for (int i = 0; i < 4097; ++i) {  // odd count: exercises the tail group
    const int bytes = static_cast<int>(rng.NextU64Below(4)) + 1;
    values.push_back(static_cast<uint32_t>(
        rng.NextU64() & ((1ull << (8 * bytes)) - 1)));
  }
  ByteBuffer buf;
  columnar::SvbEncodeU32Block(values.data(), values.size(), &buf);
  ByteReader reader(buf.AsSlice());
  std::vector<uint32_t> decoded;
  ASSERT_TRUE(columnar::SvbDecodeU32Block(&reader, values.size(), &decoded)
                  .ok());
  EXPECT_EQ(decoded, values);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(SvbCodecTest, U64RoundTripAndEmpty) {
  Rng rng(12);
  std::vector<uint64_t> values;
  for (int i = 0; i < 1000; ++i) {
    values.push_back(rng.NextU64() >> rng.NextU64Below(64));
  }
  ByteBuffer buf;
  columnar::SvbEncodeU64Block(values.data(), values.size(), &buf);
  ByteReader reader(buf.AsSlice());
  std::vector<uint64_t> decoded;
  ASSERT_TRUE(columnar::SvbDecodeU64Block(&reader, values.size(), &decoded)
                  .ok());
  EXPECT_EQ(decoded, values);

  ByteBuffer empty;
  columnar::SvbEncodeU64Block(nullptr, 0, &empty);
  ByteReader er(empty.AsSlice());
  std::vector<uint64_t> none;
  ASSERT_TRUE(columnar::SvbDecodeU64Block(&er, 0, &none).ok());
  EXPECT_TRUE(none.empty());
}

TEST(SvbCodecTest, CorruptFramingIsTypedCorruption) {
  std::vector<uint32_t> values{1, 300, 70000, 0x01020304};
  ByteBuffer buf;
  columnar::SvbEncodeU32Block(values.data(), values.size(), &buf);

  // Truncated data stream.
  ByteReader truncated(Slice(buf.AsSlice().data(), buf.size() - 2));
  std::vector<uint32_t> out;
  Status st = columnar::SvbDecodeU32Block(&truncated, 4, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCorruption);

  // Count exceeding the caller's bound: a fuzz-bomb header must not
  // drive an allocation.
  ByteReader bounded(buf.AsSlice());
  st = columnar::SvbDecodeU32Block(&bounded, 3, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
}

// --- Writer / reader round-trip -------------------------------------------

TEST_F(ColumnarTest, MultiChunkRoundTripIsByteIdentical) {
  const PatchCollection patches = RandomPatches(333, 42);
  columnar::ColumnarWriterOptions options;
  options.chunk_rows = 64;  // 6 chunks
  auto writer =
      columnar::ColumnarWriter::Open(Path("v.col"), options).value();
  for (const Patch& p : patches) ASSERT_TRUE(writer->Append(p).ok());
  ASSERT_TRUE(writer->Commit().ok());

  auto reader = columnar::ColumnarReader::Open(Path("v.col")).value();
  EXPECT_EQ(reader->total_rows(), patches.size());
  EXPECT_EQ(reader->num_chunks(), (patches.size() + 63) / 64);
  ExpectSamePatches(reader->ReadAll().value(), patches);
}

TEST_F(ColumnarTest, AppendAfterReopenKeepsOldRows) {
  const PatchCollection patches = RandomPatches(100, 7);
  columnar::ColumnarWriterOptions options;
  options.chunk_rows = 16;
  {
    auto writer =
        columnar::ColumnarWriter::Open(Path("v.col"), options).value();
    for (size_t i = 0; i < 50; ++i) ASSERT_TRUE(writer->Append(patches[i]).ok());
    ASSERT_TRUE(writer->Commit().ok());
  }
  {
    auto writer =
        columnar::ColumnarWriter::Open(Path("v.col"), options).value();
    for (size_t i = 50; i < patches.size(); ++i) {
      ASSERT_TRUE(writer->Append(patches[i]).ok());
    }
    ASSERT_TRUE(writer->Commit().ok());
  }
  auto reader = columnar::ColumnarReader::Open(Path("v.col")).value();
  ExpectSamePatches(reader->ReadAll().value(), patches);
}

TEST_F(ColumnarTest, NonAscendingIdIsRejected) {
  auto writer = columnar::ColumnarWriter::Open(Path("v.col")).value();
  Rng rng(1);
  ASSERT_TRUE(writer->Append(RandomPatch(10, &rng)).ok());
  Status st = writer->Append(RandomPatch(10, &rng));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(writer->Append(RandomPatch(3, &rng)).ok());
}

TEST_F(ColumnarTest, EmptyFileIsValidAndEmpty) {
  {
    auto writer = columnar::ColumnarWriter::Open(Path("v.col")).value();
    ASSERT_TRUE(writer->Commit().ok());
  }
  auto reader = columnar::ColumnarReader::Open(Path("v.col")).value();
  EXPECT_EQ(reader->total_rows(), 0u);
  EXPECT_EQ(reader->num_chunks(), 0u);
  EXPECT_TRUE(reader->ReadAll().value().empty());
}

// --- Differential vs a resident oracle -------------------------------------

// What a view must hold after `appended` went through Append in order:
// one row per id, ascending, the last write of each id winning.
PatchCollection ResidentOracle(const PatchCollection& appended) {
  std::map<PatchId, Patch> by_id;
  for (const Patch& p : appended) by_id[p.id()] = p;
  PatchCollection out;
  out.reserve(by_id.size());
  for (auto& [id, p] : by_id) out.push_back(std::move(p));
  return out;
}

TEST_F(ColumnarTest, DifferentialAgainstResidentOracleRandomized) {
  setenv("DEEPLENS_COLUMNAR_CHUNK_ROWS", "32", 1);
  for (uint64_t seed : {3u, 17u, 99u}) {
    const PatchCollection patches = RandomPatches(211, seed);
    auto col = MaterializedView::Open(Path("col_" + std::to_string(seed)))
                   .value();
    for (const Patch& p : patches) ASSERT_TRUE(col->Append(p).ok());
    ASSERT_TRUE(col->Flush().ok());
    const PatchCollection expected = ResidentOracle(patches);
    EXPECT_EQ(col->size(), expected.size());
    ExpectSamePatches(col->LoadAll().value(), expected);
  }
}

TEST_F(ColumnarTest, DifferentialEdgeCases) {
  // Empty view, single-chunk view, and NULL-heavy view must all match
  // the resident oracle row for row.
  const struct {
    const char* name;
    PatchCollection patches;
  } kCases[] = {
      {"empty", {}},
      {"one_chunk", RandomPatches(20, 5)},  // < default chunk_rows
      {"null_heavy", RandomPatches(150, 6, /*null_heavy=*/true)},
  };
  for (const auto& c : kCases) {
    auto col = MaterializedView::Open(Path(std::string("c_") + c.name))
                   .value();
    for (const Patch& p : c.patches) ASSERT_TRUE(col->Append(p).ok());
    ASSERT_TRUE(col->Flush().ok());
    ExpectSamePatches(col->LoadAll().value(), ResidentOracle(c.patches));
  }
}

TEST_F(ColumnarTest, OutOfOrderAndOverwritingAppendsMatchOracle) {
  setenv("DEEPLENS_COLUMNAR_CHUNK_ROWS", "16", 1);
  auto col = MaterializedView::Open(Path("col")).value();
  Rng rng(123);
  PatchCollection appended;
  // Shuffled ids, then overwrite a third of them with fresh content.
  std::vector<PatchId> ids;
  for (PatchId id = 1; id <= 90; ++id) ids.push_back(id);
  for (size_t i = ids.size(); i > 1; --i) {
    std::swap(ids[i - 1], ids[rng.NextU64Below(i)]);
  }
  for (PatchId id : ids) appended.push_back(RandomPatch(id, &rng));
  for (PatchId id = 2; id <= 90; id += 3) {
    appended.push_back(RandomPatch(id, &rng));
  }
  for (const Patch& p : appended) ASSERT_TRUE(col->Append(p).ok());
  ASSERT_TRUE(col->Flush().ok());
  ExpectSamePatches(col->LoadAll().value(), ResidentOracle(appended));
  // The merge-rewrite must leave a clean strictly-ascending file behind.
  auto reader = col->OpenReader().value();
  EXPECT_EQ(reader->total_rows(), 90u);
}

// --- Pre-columnar view files -------------------------------------------------

std::string FileBytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>());
}

TEST_F(ColumnarTest, RecordStoreLogAtViewPathIsRejectedUntouched) {
  // A view file in the pre-columnar RecordStore log format must fail to
  // open with a typed error on every entry point, and none of them may
  // rewrite or append to it.
  auto db = Database::Open(Path("db")).value();
  const std::string view_path = db->root() + "/views/old";
  {
    auto store = RecordStore::Open(view_path).value();
    for (const Patch& p : RandomPatches(12, 8)) {
      ByteBuffer buf;
      p.SerializeInto(&buf);
      ASSERT_TRUE(
          store->Put(Slice(EncodeKeyU64(p.id())), buf.AsSlice()).ok());
    }
    ASSERT_TRUE(store->Flush().ok());
  }
  const std::string before = FileBytes(view_path);
  ASSERT_GT(before.size(), columnar::kHeaderSize);

  auto opened = MaterializedView::Open(view_path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(FileBytes(view_path), before);

  const Status attached = db->AttachPersistedView("old");
  EXPECT_FALSE(attached.ok());
  EXPECT_EQ(FileBytes(view_path), before);

  const Status loaded = db->LoadPersistedView("old");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(FileBytes(view_path), before);
  EXPECT_FALSE(db->GetView("old").ok());
}

// --- Zone-map pruning vs unpruned scans ------------------------------------

// Patches whose "bucket" meta key is monotone in the id, so a range
// predicate on it prunes a contiguous chunk prefix/suffix via zone maps.
PatchCollection BucketedPatches(size_t n) {
  Rng rng(77);
  PatchCollection out;
  for (size_t i = 0; i < n; ++i) {
    Patch p = RandomPatch(static_cast<PatchId>(i + 1), &rng);
    p.mutable_meta().Set("bucket", static_cast<int64_t>(i / 10));
    p.mutable_meta().Set("label",
                         std::string(i % 3 == 0 ? "car" : "person"));
    out.push_back(std::move(p));
  }
  return out;
}

TEST_F(ColumnarTest, ZoneMapPrunedScanMatchesUnprunedScan) {
  setenv("DEEPLENS_COLUMNAR_CHUNK_ROWS", "20", 1);
  const PatchCollection patches = BucketedPatches(200);

  auto db = Database::Open(Path("db")).value();
  ASSERT_TRUE(db->RegisterView("v", patches).ok());
  ASSERT_TRUE(db->PersistView("v").ok());

  // Resident scan (full collection in RAM) is the oracle.
  ViewCache resident;
  resident.patches = patches;

  ASSERT_TRUE(db->AttachPersistedView("v").ok());
  ViewCache* attached = db->GetView("v").value();
  ASSERT_TRUE(attached->disk_backed());

  const struct {
    const char* name;
    ExprPtr predicate;
    bool expect_pruning;
  } kCases[] = {
      {"range", And(Ge(Attr("bucket"), Lit(int64_t{4})),
                    Lt(Attr("bucket"), Lit(int64_t{7}))),
       true},
      {"eq_plus_residual",
       And(Eq(Attr("bucket"), Lit(int64_t{2})),
           Eq(Attr("label"), Lit("car"))),
       true},
      {"unsargable_arith",
       Gt(Add(Attr("bucket"), Lit(int64_t{0})), Lit(int64_t{15})), false},
      {"no_predicate", nullptr, false},
      {"empty_result", Gt(Attr("bucket"), Lit(int64_t{1000})), true},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.name);
    PlanExplanation oracle_plan;
    auto expected =
        Planner::ExecuteScan(resident, c.predicate, &oracle_plan).value();
    PlanExplanation plan;
    auto got = Planner::ExecuteScan(*attached, c.predicate, &plan).value();
    EXPECT_EQ(plan.path, AccessPath::kColumnarScan);
    EXPECT_TRUE(plan.columnar.used);
    EXPECT_EQ(plan.columnar.chunks_total, 10u);
    if (c.expect_pruning) {
      EXPECT_GT(plan.columnar.chunks_pruned, 0u);
    } else {
      EXPECT_EQ(plan.columnar.chunks_pruned, 0u);
    }
    EXPECT_EQ(plan.columnar.chunks_read,
              plan.columnar.chunks_total - plan.columnar.chunks_pruned);
    ExpectSamePatches(got, expected);
  }
}

// Rows for the aggregate differential: typed columns the fold reads
// directly (string "label", float "score" with NaNs, int "frameno", bool
// "flag"), the mixed-tag "odd" column it falls back on, and a "zone" key
// that only every third 20-row chunk carries.
PatchCollection AggregatePatches(size_t n, uint64_t seed, bool null_heavy) {
  Rng rng(seed);
  PatchCollection out;
  for (size_t i = 0; i < n; ++i) {
    Patch p = RandomPatch(static_cast<PatchId>(i + 1), &rng, null_heavy);
    MetaDict& meta = p.mutable_meta();
    meta.Set("bucket", static_cast<int64_t>(i / 10));
    if (rng.NextU64Below(8) == 0) meta.Set("score", std::nan(""));
    if (rng.NextU64Below(3) == 0) meta.Set("flag", rng.NextU64Below(2) == 0);
    if ((i / 20) % 3 == 1) {
      meta.Set("zone", std::string(i % 2 == 0 ? "north" : "south"));
    }
    out.push_back(std::move(p));
  }
  return out;
}

TEST_F(ColumnarTest, AggregatesOnAttachedViewMatchResident) {
  setenv("DEEPLENS_COLUMNAR_CHUNK_ROWS", "20", 1);
  const struct {
    const char* name;
    ExprPtr predicate;
  } kPredicates[] = {
      {"none", nullptr},
      {"int_column_float_literal", Lt(Attr("frameno"), Lit(50.5))},
      {"float_column_int_literal", Ge(Attr("score"), Lit(int64_t{0}))},
      {"nan_scores", And(Gt(Attr("score"), Lit(0.25)),
                         Le(Attr("score"), Lit(0.75)))},
      {"string_eq", Eq(Attr("label"), Lit("car"))},
      {"string_range",
       And(Ge(Attr("label"), Lit("d")), Lt(Attr("label"), Lit("q")))},
      {"string_vs_int", Lt(Attr("label"), Lit(int64_t{5}))},
      {"mixed_tag", Eq(Attr("odd"), Lit(int64_t{3}))},
      {"mixed_tag_range", Ge(Attr("odd"), Lit("a"))},
      {"bool_column", Eq(Attr("flag"), Lit(true))},
      {"key_in_some_chunks", Eq(Attr("zone"), Lit("north"))},
      {"null_literal", Eq(Attr("label"), Lit(MetaValue()))},
      {"every_row_filtered", Eq(Attr("frameno"), Lit(50.5))},
      {"every_chunk_pruned", Gt(Attr("bucket"), Lit(int64_t{1000}))},
      {"residual", Gt(Add(Attr("frameno"), Lit(int64_t{0})),
                      Lit(int64_t{40}))},
  };
  const char* const kKeys[] = {"label", "score", "frameno", "flag",
                               "odd",   "zone",  "absent"};
  for (const bool null_heavy : {false, true}) {
    SCOPED_TRACE(null_heavy ? "null-heavy" : "dense");
    const PatchCollection patches =
        AggregatePatches(300, null_heavy ? 8 : 9, null_heavy);
    auto db = Database::Open(Path(null_heavy ? "sparse" : "dense")).value();
    ASSERT_TRUE(db->RegisterView("v", patches).ok());
    ASSERT_TRUE(db->PersistView("v").ok());
    ASSERT_TRUE(db->AttachPersistedView("v").ok());
    const ViewCache* attached = db->GetView("v").value();
    ViewCache resident;
    resident.patches = patches;

    for (const auto& c : kPredicates) {
      SCOPED_TRACE(c.name);
      const ExprPtr& pred = c.predicate;
      EXPECT_EQ(Planner::ExecuteScanCount(*attached, pred, nullptr).value(),
                Planner::ExecuteScanCount(resident, pred, nullptr).value());
      for (const char* key : kKeys) {
        SCOPED_TRACE(key);
        EXPECT_EQ(
            Planner::ExecuteScanCountDistinct(*attached, key, pred, nullptr)
                .value(),
            Planner::ExecuteScanCountDistinct(resident, key, pred, nullptr)
                .value());
        EXPECT_EQ(
            Planner::ExecuteScanGroupCount(*attached, key, pred, nullptr)
                .value(),
            Planner::ExecuteScanGroupCount(resident, key, pred, nullptr)
                .value());
      }
      auto got =
          Planner::ExecuteScanMinBy(*attached, "bucket", pred, nullptr)
              .value();
      auto expected =
          Planner::ExecuteScanMinBy(resident, "bucket", pred, nullptr)
              .value();
      ASSERT_EQ(got.has_value(), expected.has_value());
      if (got.has_value()) {
        EXPECT_EQ(SerializePatch(*got), SerializePatch(*expected));
      }
    }
  }
}

TEST_F(ColumnarTest, AggregatesOverFlippedChunkByteAreTypedCorruption) {
  setenv("DEEPLENS_COLUMNAR_CHUNK_ROWS", "20", 1);
  auto db = Database::Open(Path("db")).value();
  ASSERT_TRUE(db->RegisterView("v", AggregatePatches(100, 3, false)).ok());
  ASSERT_TRUE(db->PersistView("v").ok());
  ASSERT_TRUE(db->AttachPersistedView("v").ok());
  const ViewCache* attached = db->GetView("v").value();
  FlipByte(attached->columnar->path(), attached->columnar->chunk(2).offset + 3);

  // Fold, fully sargable row path and residual row path all reach chunk
  // 2: each must report the damage, never count the chunks that verify.
  const ExprPtr kPredicates[] = {
      nullptr, Ge(Attr("bucket"), Lit(int64_t{0})),
      Gt(Add(Attr("bucket"), Lit(int64_t{0})), Lit(int64_t{-1}))};
  for (const ExprPtr& pred : kPredicates) {
    EXPECT_EQ(Planner::ExecuteScanCount(*attached, pred, nullptr)
                  .status()
                  .code(),
              StatusCode::kCorruption);
    EXPECT_EQ(Planner::ExecuteScanCountDistinct(*attached, "label", pred,
                                                nullptr)
                  .status()
                  .code(),
              StatusCode::kCorruption);
    EXPECT_EQ(Planner::ExecuteScanGroupCount(*attached, "label", pred,
                                             nullptr)
                  .status()
                  .code(),
              StatusCode::kCorruption);
  }
}

// The fold's answer computed chunk by chunk on the calling thread: the
// reference the planner's parallel fold must equal.
struct SerialFold {
  uint64_t count = 0;
  std::set<std::string> distinct;
  std::map<std::string, uint64_t> groups;
  ColumnarScanStats stats;
  Status status;
};

SerialFold FoldSerially(const columnar::ColumnarReader& reader,
                        const ExprPtr& predicate, const std::string* key) {
  SerialFold out;
  const columnar::PredicatePushdown pushdown =
      columnar::ExtractPushdown(predicate);
  for (size_t index : reader.SelectChunks(pushdown.preds)) {
    auto chunk = reader.FoldChunk(index, pushdown.preds, key);
    if (!chunk.ok()) {
      out.status = chunk.status();
      return out;
    }
    ++out.stats.chunks_read;
    out.stats.rows_decoded += chunk->rows;
    out.stats.bytes_decoded += chunk->bytes_decoded;
    for (const columnar::KeyCount& group : chunk->keys) {
      out.count += group.rows;
      out.distinct.insert(group.value.ToIndexKey());
      out.groups[group.value.ToDisplayString()] += group.rows;
    }
  }
  return out;
}

void ExpectFoldStats(const PlanExplanation& plan, const SerialFold& serial) {
  EXPECT_TRUE(plan.columnar.fully_sargable);
  EXPECT_EQ(plan.columnar.chunks_read, serial.stats.chunks_read);
  EXPECT_EQ(plan.columnar.rows_decoded, serial.stats.rows_decoded);
  EXPECT_EQ(plan.columnar.bytes_decoded, serial.stats.bytes_decoded);
}

std::vector<ExprPtr> FoldPredicates() {
  return {nullptr, Ge(Attr("score"), Lit(0.25)),
          Eq(Attr("label"), Lit("car")),
          And(Ge(Attr("bucket"), Lit(int64_t{4})),
              Lt(Attr("bucket"), Lit(int64_t{15})))};
}

// With ten 20-row chunks the fold fans out over the morsel pool (serially
// on a one-worker pool); answers and stats must equal a FoldChunk loop
// and the resident view.
TEST_F(ColumnarTest, ParallelFoldMatchesSerialFoldAndResident) {
  setenv("DEEPLENS_COLUMNAR_CHUNK_ROWS", "20", 1);
  const PatchCollection patches = AggregatePatches(200, 12, false);
  auto db = Database::Open(Path("db")).value();
  ASSERT_TRUE(db->RegisterView("v", patches).ok());
  ASSERT_TRUE(db->PersistView("v").ok());
  ASSERT_TRUE(db->AttachPersistedView("v").ok());
  const ViewCache* attached = db->GetView("v").value();
  ASSERT_GE(attached->columnar->num_chunks(), 8u);
  ViewCache resident;
  resident.patches = patches;

  for (const ExprPtr& pred : FoldPredicates()) {
    SCOPED_TRACE(pred == nullptr ? "no predicate" : pred->ToString());
    const SerialFold all = FoldSerially(*attached->columnar, pred, nullptr);
    ASSERT_TRUE(all.status.ok()) << all.status.ToString();
    PlanExplanation plan;
    EXPECT_EQ(Planner::ExecuteScanCount(*attached, pred, &plan).value(),
              all.count);
    ExpectFoldStats(plan, all);
    EXPECT_EQ(all.count,
              Planner::ExecuteScanCount(resident, pred, nullptr).value());
    for (const std::string key : {"label", "score", "zone"}) {
      SCOPED_TRACE(key);
      const SerialFold serial = FoldSerially(*attached->columnar, pred, &key);
      ASSERT_TRUE(serial.status.ok()) << serial.status.ToString();
      EXPECT_EQ(Planner::ExecuteScanCountDistinct(*attached, key, pred, &plan)
                    .value(),
                serial.distinct.size());
      ExpectFoldStats(plan, serial);
      EXPECT_EQ(
          Planner::ExecuteScanGroupCount(*attached, key, pred, &plan).value(),
          serial.groups);
      ExpectFoldStats(plan, serial);
      EXPECT_EQ(serial.distinct.size(),
                Planner::ExecuteScanCountDistinct(resident, key, pred, nullptr)
                    .value());
      EXPECT_EQ(serial.groups,
                Planner::ExecuteScanGroupCount(resident, key, pred, nullptr)
                    .value());
    }
  }
}

// Chunks 2 and 5 are damaged and every chunk is folded at once, yet the
// error is chunk 2's, word for word the serial loop's.
TEST_F(ColumnarTest, ParallelFoldReportsTheFirstDamagedChunk) {
  setenv("DEEPLENS_COLUMNAR_CHUNK_ROWS", "20", 1);
  auto db = Database::Open(Path("db")).value();
  ASSERT_TRUE(db->RegisterView("v", AggregatePatches(200, 13, false)).ok());
  ASSERT_TRUE(db->PersistView("v").ok());
  ASSERT_TRUE(db->AttachPersistedView("v").ok());
  const ViewCache* attached = db->GetView("v").value();
  ASSERT_GE(attached->columnar->num_chunks(), 8u);
  const std::string path = attached->columnar->path();
  FlipByte(path, attached->columnar->chunk(2).offset + 3);
  FlipByte(path, attached->columnar->chunk(5).offset + 3);
  const std::string chunk2 =
      "offset " + std::to_string(attached->columnar->chunk(2).offset);

  const std::string key = "label";
  for (const ExprPtr& pred : FoldPredicates()) {
    SCOPED_TRACE(pred == nullptr ? "no predicate" : pred->ToString());
    const bool reaches_chunk2 =
        attached->columnar->SelectChunks(columnar::ExtractPushdown(pred).preds)
            .front() <= 2;
    const SerialFold serial = FoldSerially(*attached->columnar, pred, &key);
    const Status statuses[] = {
        Planner::ExecuteScanCount(*attached, pred, nullptr).status(),
        Planner::ExecuteScanCountDistinct(*attached, key, pred, nullptr)
            .status(),
        Planner::ExecuteScanGroupCount(*attached, key, pred, nullptr)
            .status(),
    };
    for (const Status& st : statuses) {
      EXPECT_EQ(st.code(), StatusCode::kCorruption);
      EXPECT_EQ(st.ToString(), serial.status.ToString());
      if (reaches_chunk2) {
        EXPECT_NE(st.ToString().find(chunk2), std::string::npos)
            << st.ToString();
      }
    }
  }
}

// Two weighted tenants fold the same view while a third thread runs
// range lookups over it: every answer stays oracle-equal, and the
// scheduler counts one task per folded chunk for each tenant.
TEST_F(ColumnarTest, WeightedTenantsFoldBesideLookups) {
  setenv("DEEPLENS_COLUMNAR_CHUNK_ROWS", "20", 1);
  const PatchCollection patches = AggregatePatches(240, 14, false);
  auto db = Database::Open(Path("db")).value();
  ASSERT_TRUE(db->RegisterView("v", patches).ok());
  ASSERT_TRUE(db->PersistView("v").ok());
  ASSERT_TRUE(db->AttachPersistedView("v").ok());
  ServingConfig serving;
  serving.tenant_weights = {{"fold_light", 1}, {"fold_heavy", 4}};
  db->ConfigureServing(serving);
  const ViewCache* attached = db->GetView("v").value();
  const size_t chunks = attached->columnar->num_chunks();
  ASSERT_GE(chunks, 8u);
  ViewCache resident;
  resident.patches = patches;

  const std::string key = "label";
  const std::map<std::string, uint64_t> expected_groups =
      Planner::ExecuteScanGroupCount(resident, key, nullptr, nullptr).value();
  auto lookup = [](int64_t lo) {
    return And(Ge(Attr("bucket"), Lit(lo)), Lt(Attr("bucket"), Lit(lo + 3)));
  };
  auto serialized = [](const PatchCollection& rows) {
    std::string bytes;
    for (const Patch& p : rows) bytes += SerializePatch(p);
    return bytes;
  };
  std::vector<std::string> expected_lookups;
  for (int64_t lo = 0; lo < 24; ++lo) {
    expected_lookups.push_back(serialized(
        Planner::ExecuteScan(resident, lookup(lo), nullptr).value()));
  }

  auto tenant_tasks = [](const std::string& tenant) {
    const SchedulerStats stats = MorselScheduler::Global().Stats();
    auto it = stats.tasks_by_tenant.find(tenant);
    return it == stats.tasks_by_tenant.end() ? uint64_t{0} : it->second;
  };
  const uint64_t light_before = tenant_tasks("fold_light");
  const uint64_t heavy_before = tenant_tasks("fold_heavy");
  constexpr int kFolds = 12;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (const char* tenant : {"fold_light", "fold_heavy"}) {
    threads.emplace_back([&, tenant] {
      Session session = db->CreateSession(tenant);
      for (int i = 0; i < kFolds; ++i) {
        auto groups = session.Run([&] {
          return Planner::ExecuteScanGroupCount(*attached, key, nullptr,
                                                nullptr);
        });
        if (!groups.ok() || *groups != expected_groups) ++mismatches;
      }
    });
  }
  threads.emplace_back([&] {
    for (int round = 0; round < 2; ++round) {
      for (int64_t lo = 0; lo < 24; ++lo) {
        auto rows = Planner::ExecuteScan(*attached, lookup(lo), nullptr);
        if (!rows.ok() ||
            serialized(*rows) != expected_lookups[static_cast<size_t>(lo)]) {
          ++mismatches;
        }
      }
    }
  });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  if (ThreadPool::Global().num_threads() > 1) {
    EXPECT_EQ(tenant_tasks("fold_light") - light_before, kFolds * chunks);
    EXPECT_EQ(tenant_tasks("fold_heavy") - heavy_before, kFolds * chunks);
  }
}

// --- Corruption recovery ---------------------------------------------------

TEST_F(ColumnarTest, TornTailIsTypedCorruption) {
  {
    columnar::ColumnarWriterOptions options;
    options.chunk_rows = 16;
    auto writer =
        columnar::ColumnarWriter::Open(Path("v.col"), options).value();
    for (const Patch& p : RandomPatches(64, 9)) {
      ASSERT_TRUE(writer->Append(p).ok());
    }
    ASSERT_TRUE(writer->Commit().ok());
  }
  // A crash mid-commit leaves a truncated tail.
  const auto full = std::filesystem::file_size(Path("v.col"));
  std::filesystem::resize_file(Path("v.col"), full - 5);
  auto opened = columnar::ColumnarReader::Open(Path("v.col"));
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
}

TEST_F(ColumnarTest, FlippedChunkByteIsTypedCorruption) {
  {
    columnar::ColumnarWriterOptions options;
    options.chunk_rows = 16;
    auto writer =
        columnar::ColumnarWriter::Open(Path("v.col"), options).value();
    for (const Patch& p : RandomPatches(64, 10)) {
      ASSERT_TRUE(writer->Append(p).ok());
    }
    ASSERT_TRUE(writer->Commit().ok());
  }
  // Footer stays valid, so Open succeeds; the damaged chunk's CRC check
  // fires at read time.
  auto reader = columnar::ColumnarReader::Open(Path("v.col")).value();
  ASSERT_GT(reader->num_chunks(), 1u);
  FlipByte(Path("v.col"), reader->chunk(1).offset + 3);
  auto damaged = columnar::ColumnarReader::Open(Path("v.col")).value();
  auto read = damaged->ReadChunk(1, columnar::ChunkReadOptions{});
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kCorruption);
  // Undamaged chunks still read fine.
  EXPECT_TRUE(damaged->ReadChunk(0, columnar::ChunkReadOptions{}).ok());
}

TEST_F(ColumnarTest, GarbageFileIsTypedCorruption) {
  {
    std::ofstream f(Path("v.col"), std::ios::binary);
    f << "DLCOLV1\nnot really a footer at all";
  }
  auto opened = columnar::ColumnarReader::Open(Path("v.col"));
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
}

// --- Async decode-ahead loader ---------------------------------------------

TEST_F(ColumnarTest, ConcurrentPrefetchScansAreDeterministic) {
  setenv("DEEPLENS_COLUMNAR_CHUNK_ROWS", "16", 1);
  const PatchCollection patches = RandomPatches(160, 21);
  auto view = MaterializedView::Open(Path("v")).value();
  for (const Patch& p : patches) ASSERT_TRUE(view->Append(p).ok());
  ASSERT_TRUE(view->Flush().ok());
  auto reader = view->OpenReader().value();

  // Many threads, each with its own decode-ahead loader over the shared
  // reader; every scan must produce the identical byte sequence.
  constexpr int kThreads = 4;
  std::vector<PatchCollection> results(kThreads);
  std::vector<Status> statuses(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<size_t> chunks(reader->num_chunks());
      for (size_t i = 0; i < chunks.size(); ++i) chunks[i] = i;
      columnar::PrefetchOptions prefetch;
      prefetch.depth = 1 + static_cast<size_t>(t);  // vary the knob
      columnar::AsyncChunkLoader loader(reader, chunks,
                                        columnar::ChunkReadOptions{},
                                        prefetch);
      while (true) {
        auto rows = loader.Next();
        if (!rows.ok()) {
          statuses[t] = rows.status();
          return;
        }
        if (!rows.value().has_value()) break;
        for (Patch& p : *rows.value()) {
          results[t].push_back(std::move(p));
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(statuses[t].ok()) << statuses[t].ToString();
    ExpectSamePatches(results[t], patches);
  }
}

TEST_F(ColumnarTest, ViewScanStreamsEveryRowAcrossChunks) {
  setenv("DEEPLENS_COLUMNAR_CHUNK_ROWS", "8", 1);
  const PatchCollection patches = RandomPatches(30, 23);
  auto view = MaterializedView::Open(Path("v")).value();
  for (const Patch& p : patches) ASSERT_TRUE(view->Append(p).ok());
  ASSERT_GE(view->OpenReader().value()->num_chunks(), 3u);

  // Every id, in order, across the chunk boundaries.
  auto scan = view->Scan();
  auto rows = CollectPatches(scan.get());
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ExpectSamePatches(*rows, patches);
}

TEST_F(ColumnarTest, ViewScanOfUnopenableFileReturnsTheOpenError) {
  auto view = MaterializedView::Open(Path("v")).value();
  Patch p;
  p.set_id(1);
  ASSERT_TRUE(view->Append(p).ok());
  std::filesystem::remove(Path("v"));
  const Status open_error = view->OpenReader().status();
  ASSERT_FALSE(open_error.ok());

  auto scan = view->Scan();
  for (int i = 0; i < 2; ++i) {
    auto t = scan->Next();
    ASSERT_FALSE(t.ok());
    EXPECT_EQ(t.status().ToString(), open_error.ToString());
  }
}

TEST_F(ColumnarTest, ByteBudgetBoundsTheQueue) {
  const PatchCollection patches = RandomPatches(240, 31);
  columnar::ColumnarWriterOptions options;
  options.chunk_rows = 16;
  auto writer =
      columnar::ColumnarWriter::Open(Path("v.col"), options).value();
  for (const Patch& p : patches) ASSERT_TRUE(writer->Append(p).ok());
  ASSERT_TRUE(writer->Commit().ok());
  auto reader = columnar::ColumnarReader::Open(Path("v.col")).value();

  std::vector<size_t> chunks(reader->num_chunks());
  size_t max_chunk_bytes = 0;
  for (size_t i = 0; i < chunks.size(); ++i) {
    chunks[i] = i;
    size_t bytes = 0;
    const PatchCollection chunk_rows =
        reader->ReadChunk(i, columnar::ChunkReadOptions{}).value();
    for (const Patch& p : chunk_rows) {
      bytes += columnar::ApproxPatchBytes(p);
    }
    max_chunk_bytes = std::max(max_chunk_bytes, bytes);
  }
  columnar::PrefetchOptions prefetch;
  prefetch.depth = 8;
  prefetch.byte_budget = 1;  // every queued chunk overshoots
  columnar::AsyncChunkLoader loader(reader, chunks,
                                    columnar::ChunkReadOptions{}, prefetch);
  // Don't consume yet: with nothing draining, the worker enqueues chunk 0
  // (empty-queue exemption), then must hit the budget wait on chunk 1.
  // Polling instead of asserting after the drain keeps this deterministic
  // — a fast consumer can otherwise empty the queue before the worker
  // ever observes it over budget.
  while (loader.stats().budget_waits == 0) {
    std::this_thread::yield();
  }
  PatchCollection all;
  while (true) {
    auto rows = loader.Next().value();
    if (!rows.has_value()) break;
    for (Patch& p : *rows) all.push_back(std::move(p));
  }
  ExpectSamePatches(all, patches);
  const columnar::PrefetchStats stats = loader.stats();
  EXPECT_EQ(stats.chunks_loaded, reader->num_chunks());
  EXPECT_EQ(stats.rows_loaded, patches.size());
  EXPECT_GT(stats.budget_waits, 0u);
  // The empty-queue exemption admits one oversized chunk at a time, so
  // the high-water mark is a single chunk, never depth * chunk.
  EXPECT_LE(stats.peak_queued_bytes, max_chunk_bytes);
}

TEST_F(ColumnarTest, DepthZeroIsSynchronous) {
  const PatchCollection patches = RandomPatches(60, 41);
  columnar::ColumnarWriterOptions options;
  options.chunk_rows = 16;
  auto writer =
      columnar::ColumnarWriter::Open(Path("v.col"), options).value();
  for (const Patch& p : patches) ASSERT_TRUE(writer->Append(p).ok());
  ASSERT_TRUE(writer->Commit().ok());
  auto reader = columnar::ColumnarReader::Open(Path("v.col")).value();
  std::vector<size_t> chunks(reader->num_chunks());
  for (size_t i = 0; i < chunks.size(); ++i) chunks[i] = i;
  columnar::PrefetchOptions prefetch;
  prefetch.depth = 0;
  columnar::AsyncChunkLoader loader(reader, chunks,
                                    columnar::ChunkReadOptions{}, prefetch);
  PatchCollection all;
  while (true) {
    auto rows = loader.Next().value();
    if (!rows.has_value()) break;
    for (Patch& p : *rows) all.push_back(std::move(p));
  }
  ExpectSamePatches(all, patches);
  EXPECT_EQ(loader.stats().depth, 0u);
  EXPECT_EQ(loader.stats().consumer_waits, 0u);
}

TEST_F(ColumnarTest, SingleChunkLoadRunsWithoutWorker) {
  const PatchCollection patches = RandomPatches(40, 43);
  columnar::ColumnarWriterOptions options;
  options.chunk_rows = 16;
  auto writer =
      columnar::ColumnarWriter::Open(Path("v.col"), options).value();
  for (const Patch& p : patches) ASSERT_TRUE(writer->Append(p).ok());
  ASSERT_TRUE(writer->Commit().ok());
  auto reader = columnar::ColumnarReader::Open(Path("v.col")).value();

  auto drain = [&](size_t chunk, size_t depth, PatchCollection* rows) {
    columnar::PrefetchOptions prefetch;
    prefetch.depth = depth;
    columnar::AsyncChunkLoader loader(reader, {chunk},
                                      columnar::ChunkReadOptions{}, prefetch);
    while (true) {
      auto next = loader.Next().value();
      if (!next.has_value()) break;
      for (Patch& p : *next) rows->push_back(std::move(p));
    }
    return loader.stats();
  };
  for (size_t chunk = 0; chunk < reader->num_chunks(); ++chunk) {
    SCOPED_TRACE(chunk);
    PatchCollection prefetched, synchronous;
    const columnar::PrefetchStats a = drain(chunk, 4, &prefetched);
    const columnar::PrefetchStats b = drain(chunk, 0, &synchronous);
    ExpectSamePatches(prefetched, synchronous);
    EXPECT_EQ(a.depth, 4u);
    EXPECT_EQ(a.chunks_loaded, 1u);
    EXPECT_EQ(a.chunks_loaded, b.chunks_loaded);
    EXPECT_EQ(a.rows_loaded, b.rows_loaded);
    EXPECT_EQ(a.bytes_decoded, b.bytes_decoded);
    EXPECT_EQ(a.consumer_waits, b.consumer_waits);
    EXPECT_EQ(a.budget_waits, b.budget_waits);
    // Only a worker queues chunks: no queue high-water mark means the
    // chunk was loaded on the calling thread.
    EXPECT_EQ(a.peak_queued_bytes, 0u);
    EXPECT_EQ(b.peak_queued_bytes, 0u);
  }
}

TEST_F(ColumnarTest, ProjectionSkipsUnrequestedColumns) {
  const PatchCollection patches = BucketedPatches(50);
  auto writer = columnar::ColumnarWriter::Open(Path("v.col")).value();
  for (const Patch& p : patches) ASSERT_TRUE(writer->Append(p).ok());
  ASSERT_TRUE(writer->Commit().ok());
  auto reader = columnar::ColumnarReader::Open(Path("v.col")).value();

  columnar::ChunkReadOptions options;
  options.projection.pixels = false;
  options.projection.features = false;
  options.projection.all_meta = false;
  options.projection.meta_keys = {"bucket"};
  auto rows = reader->ReadChunk(0, options).value();
  ASSERT_EQ(rows.size(), patches.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].id(), patches[i].id());
    EXPECT_FALSE(rows[i].has_pixels());
    EXPECT_FALSE(rows[i].has_features());
    EXPECT_EQ(rows[i].meta().Get("bucket").Compare(
                  patches[i].meta().Get("bucket")),
              0);
    EXPECT_TRUE(rows[i].meta().Get("label").is_null());  // not projected
  }
}

TEST_F(ColumnarTest, ChunkRowsKnobShapesTheFile) {
  setenv("DEEPLENS_COLUMNAR_CHUNK_ROWS", "25", 1);
  auto writer = columnar::ColumnarWriter::Open(Path("v.col")).value();
  for (const Patch& p : RandomPatches(100, 51)) {
    ASSERT_TRUE(writer->Append(p).ok());
  }
  ASSERT_TRUE(writer->Commit().ok());
  auto reader = columnar::ColumnarReader::Open(Path("v.col")).value();
  EXPECT_EQ(reader->num_chunks(), 4u);
  for (size_t c = 0; c < reader->num_chunks(); ++c) {
    EXPECT_EQ(reader->chunk(c).rows, 25u);
  }
}

}  // namespace
}  // namespace deeplens
