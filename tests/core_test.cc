// Unit tests for core/: MetaValue/MetaDict, Patch serialization, the type
// system, the Database facade (views, indexes, ingest), the Query builder,
// and the planner's access-path / join-strategy decisions.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/benchmark_queries.h"
#include "core/database.h"
#include "core/planner.h"
#include "core/query.h"

namespace deeplens {
namespace {

TEST(MetaValueTest, TypesAndAccessors) {
  EXPECT_EQ(MetaValue().type(), ValueType::kNull);
  EXPECT_EQ(MetaValue(5).type(), ValueType::kInt);
  EXPECT_EQ(MetaValue(2.5).type(), ValueType::kFloat);
  EXPECT_EQ(MetaValue("s").type(), ValueType::kString);
  EXPECT_EQ(MetaValue(true).type(), ValueType::kBool);
  EXPECT_EQ(MetaValue(int64_t{7}).AsInt().value(), 7);
  EXPECT_TRUE(MetaValue(7).AsString().status().IsTypeError());
  EXPECT_DOUBLE_EQ(MetaValue(7).AsNumeric().value(), 7.0);
}

TEST(MetaValueTest, ComparisonTotalOrder) {
  EXPECT_LT(MetaValue(1).Compare(MetaValue(2)), 0);
  EXPECT_EQ(MetaValue(2).Compare(MetaValue(2.0)), 0);  // numeric coercion
  EXPECT_GT(MetaValue(2.5).Compare(MetaValue(2)), 0);
  EXPECT_LT(MetaValue("a").Compare(MetaValue("b")), 0);
  EXPECT_EQ(MetaValue("x").Compare(MetaValue("x")), 0);
  EXPECT_LT(MetaValue(false).Compare(MetaValue(true)), 0);
  // Cross-type: ordered by type tag, deterministic.
  EXPECT_NE(MetaValue(1).Compare(MetaValue("1")), 0);
}

TEST(MetaValueTest, IndexKeysPreserveOrder) {
  EXPECT_LT(MetaValue(-5).ToIndexKey(), MetaValue(3).ToIndexKey());
  EXPECT_LT(MetaValue(3).ToIndexKey(), MetaValue(3.5).ToIndexKey());
  EXPECT_LT(MetaValue("abc").ToIndexKey(), MetaValue("abd").ToIndexKey());
  // Ints and floats interleave in one numeric key space.
  EXPECT_EQ(MetaValue(2).ToIndexKey(), MetaValue(2.0).ToIndexKey());
}

TEST(MetaValueTest, SerializationRoundTrip) {
  for (const MetaValue& v :
       {MetaValue(), MetaValue(-42), MetaValue(3.75), MetaValue("hello"),
        MetaValue(true)}) {
    ByteBuffer buf;
    v.SerializeInto(&buf);
    ByteReader reader(buf.AsSlice());
    auto back = MetaValue::Deserialize(&reader);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->Compare(v), 0);
    EXPECT_EQ(back->type(), v.type());
  }
}

TEST(MetaDictTest, SetGetSerialize) {
  MetaDict dict;
  dict.Set("a", 1);
  dict.Set("b", "two");
  dict.Set("a", 10);  // overwrite
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.Get("a").AsInt().value(), 10);
  EXPECT_TRUE(dict.Get("missing").is_null());
  ByteBuffer buf;
  dict.SerializeInto(&buf);
  ByteReader reader(buf.AsSlice());
  auto back = MetaDict::Deserialize(&reader);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->Get("b").ToDisplayString(), "'two'");
}

// Keys in ascending byte order, as MetaDict iterates them.
std::vector<std::string> KeysOf(const MetaDict& dict) {
  std::vector<std::string> keys;
  for (const auto& [key, value] : dict) keys.push_back(key);
  return keys;
}

TEST(MetaDictTest, OutOfOrderSetsIterateSorted) {
  MetaDict dict;
  dict.Set("m", 1);
  dict.Set("c", 2);     // insert before the only key
  dict.Set("x", 3);     // append
  dict.Set("a", 4);     // insert at the front
  dict.Set("e", 5);     // insert in the middle
  dict.Set("c", "two");  // overwrite in place
  dict.Set("x", 3.5);    // overwrite the last key
  dict.Set("", true);    // the empty key sorts first
  dict.Set("B", 6);      // upper case sorts before lower case
  EXPECT_EQ(KeysOf(dict),
            (std::vector<std::string>{"", "B", "a", "c", "e", "m", "x"}));
  EXPECT_EQ(dict.size(), 7u);
  EXPECT_EQ(dict.Get("c").ToDisplayString(), "'two'");
  EXPECT_EQ(dict.Get("x").AsFloat().value(), 3.5);
  EXPECT_EQ(dict.Get("").AsBool().value(), true);

  // Against std::map over random keys, including bytes >= 0x80 (sorted
  // unsigned, as std::string compares).
  Rng rng(0xd1c7);
  MetaDict random;
  std::map<std::string, int64_t> oracle;
  for (int i = 0; i < 500; ++i) {
    std::string key(1 + rng.NextU64Below(3), 'a');
    for (char& c : key) c = static_cast<char>(rng.NextU64Below(256));
    const int64_t v = static_cast<int64_t>(i);
    random.Set(key, v);
    oracle[key] = v;
    ASSERT_EQ(random.size(), oracle.size());
  }
  auto it = oracle.begin();
  for (const auto& [key, value] : random) {
    ASSERT_NE(it, oracle.end());
    EXPECT_EQ(key, it->first);
    EXPECT_EQ(value.AsInt().value(), it->second);
    ++it;
  }
  for (const auto& [key, value] : oracle) {
    EXPECT_EQ(random.Get(key).AsInt().value(), value);
  }
}

TEST(MetaDictTest, MissingKeysReadNull) {
  MetaDict dict;
  EXPECT_TRUE(dict.Get("label").is_null());  // empty dict
  dict.Set(meta_keys::kLabel, "car");
  dict.Set(std::string("score"), 0.5);
  const char* missing = "depth";
  const std::string missing_str = "frameno";
  EXPECT_TRUE(dict.Get(missing).is_null());
  EXPECT_TRUE(dict.Get(missing_str).is_null());
  EXPECT_TRUE(dict.Get("labe").is_null());    // a prefix of a key
  EXPECT_TRUE(dict.Get("labels").is_null());  // a key plus a suffix
  EXPECT_TRUE(dict.Get("zzz").is_null());     // past the last key
  EXPECT_FALSE(dict.Contains(missing));
  EXPECT_FALSE(dict.Contains(missing_str));
  EXPECT_TRUE(dict.Contains(meta_keys::kLabel));
  EXPECT_TRUE(dict.Contains(std::string("score")));
  EXPECT_EQ(*dict.Get(std::string(meta_keys::kLabel)).AsString().value(),
            "car");
  EXPECT_EQ(dict.Get(meta_keys::kScore).AsFloat().value(), 0.5);
}

TEST(MetaDictTest, DeserializeKeepsLastDuplicate) {
  // Hand-encoded: 4 entries, "b" twice (int 1, then string), unsorted.
  ByteBuffer buf;
  buf.PutVarint(4);
  auto put = [&](const char* key, const MetaValue& v) {
    buf.PutLengthPrefixed(Slice(key));
    v.SerializeInto(&buf);
  };
  put("b", MetaValue(1));
  put("a", MetaValue(2.5));
  put("b", MetaValue("last"));
  put("c", MetaValue());
  ByteReader reader(buf.AsSlice());
  auto dict = MetaDict::Deserialize(&reader);
  ASSERT_TRUE(dict.ok()) << dict.status().ToString();
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_EQ(KeysOf(*dict), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(dict->Get("b").ToDisplayString(), "'last'");
  EXPECT_TRUE(dict->Contains("c"));
  EXPECT_TRUE(dict->Get("c").is_null());

  // Re-serializing writes the deduplicated dict in key order.
  ByteBuffer again;
  dict->SerializeInto(&again);
  ByteBuffer expected;
  expected.PutVarint(3);
  expected.PutLengthPrefixed(Slice("a"));
  MetaValue(2.5).SerializeInto(&expected);
  expected.PutLengthPrefixed(Slice("b"));
  MetaValue("last").SerializeInto(&expected);
  expected.PutLengthPrefixed(Slice("c"));
  MetaValue().SerializeInto(&expected);
  EXPECT_EQ(again.data(), expected.data());

  // A count larger than the bytes can hold is corruption, not a huge
  // allocation.
  ByteBuffer lying;
  lying.PutVarint(uint64_t{1} << 40);
  lying.PutLengthPrefixed(Slice("a"));
  MetaValue(1).SerializeInto(&lying);
  ByteReader lying_reader(lying.AsSlice());
  EXPECT_FALSE(MetaDict::Deserialize(&lying_reader).ok());
}

TEST(MetaDictTest, DetectionRowSerializesToPinnedBytes) {
  // A detection row as the ETL writes it, keys set out of order. The
  // expected bytes pin the on-disk encoding (count, then per key in
  // ascending order: length-prefixed key, type tag, payload) that
  // persisted views and the record store depend on.
  MetaDict dict;
  dict.Set(meta_keys::kLabel, "person");
  dict.Set(meta_keys::kScore, 0.875);
  dict.Set(meta_keys::kFrameNo, int64_t{1234});
  dict.Set(meta_keys::kDataset, "traffic");
  dict.Set(meta_keys::kPatchId, int64_t{98765});
  dict.Set(meta_keys::kBoxX0, int64_t{12});
  dict.Set(meta_keys::kBoxY0, int64_t{-3});
  dict.Set(meta_keys::kBoxX1, int64_t{140});
  dict.Set(meta_keys::kBoxY1, int64_t{96});
  dict.Set(meta_keys::kDepth, 17.25);
  ByteBuffer buf;
  dict.SerializeInto(&buf);
  static const char kGolden[] =
      "0a"                                          // 10 entries
      "0764617461736574" "03" "0774726166666963"    // dataset 'traffic'
      "056465707468" "02" "0000000000403140"        // depth 17.25
      "076672616d656e6f" "01" "a413"                // frameno 1234
      "056c6162656c" "03" "06706572736f6e"          // label 'person'
      "03706964" "01" "9a870c"                      // pid 98765
      "0573636f7265" "02" "000000000000ec3f"        // score 0.875
      "027830" "01" "18"                            // x0 12
      "027831" "01" "9802"                          // x1 140
      "027930" "01" "05"                            // y0 -3
      "027931" "01" "c001";                         // y1 96
  std::string hex;
  for (uint8_t b : buf.data()) {
    static const char kDigits[] = "0123456789abcdef";
    hex += kDigits[b >> 4];
    hex += kDigits[b & 15];
  }
  EXPECT_EQ(hex, kGolden);

  ByteReader reader(buf.AsSlice());
  auto back = MetaDict::Deserialize(&reader);
  ASSERT_TRUE(back.ok());
  ByteBuffer again;
  back->SerializeInto(&again);
  EXPECT_EQ(again.data(), buf.data());
}

TEST(PatchTest, SerializationRoundTripFull) {
  Patch p;
  p.set_id(77);
  p.set_ref(ImgRef{"traffic", 123, 55});
  p.set_bbox(nn::BBox{1, 2, 30, 40});
  p.mutable_meta().Set("label", "car");
  p.mutable_meta().Set("score", 0.87);
  Image pixels(8, 6, 3);
  pixels.At(3, 3, 1) = 200;
  p.set_pixels(pixels);
  p.set_features(Tensor::FromVector({1.5f, -2.5f, 3.5f}));

  ByteBuffer buf;
  p.SerializeInto(&buf);
  ByteReader reader(buf.AsSlice());
  auto back = Patch::Deserialize(&reader);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->id(), 77u);
  EXPECT_EQ(back->ref().dataset, "traffic");
  EXPECT_EQ(back->ref().frameno, 123);
  EXPECT_EQ(back->ref().parent, 55u);
  EXPECT_EQ(back->bbox().x1, 30);
  EXPECT_EQ(*back->meta().Get("label").AsString().value(), "car");
  EXPECT_EQ(back->pixels().At(3, 3, 1), 200);
  EXPECT_FLOAT_EQ(back->features()[1], -2.5f);
}

TEST(PatchTest, SerializationWithoutPayloads) {
  Patch p;
  p.set_id(1);
  ByteBuffer buf;
  p.SerializeInto(&buf);
  ByteReader reader(buf.AsSlice());
  auto back = Patch::Deserialize(&reader);
  ASSERT_TRUE(back.ok());
  EXPECT_FALSE(back->has_pixels());
  EXPECT_FALSE(back->has_features());
}

TEST(SchemaTest, ConsumerValidation) {
  PatchSchema producer;
  producer.AddAttribute("label", ValueType::kString)
      .AddAttribute("score", ValueType::kFloat);
  PatchSchema consumer;
  consumer.AddAttribute("label", ValueType::kString);
  EXPECT_TRUE(producer.ValidateConsumer(consumer).ok());
  consumer.AddAttribute("depth", ValueType::kFloat);
  EXPECT_TRUE(producer.ValidateConsumer(consumer).IsTypeError());
}

TEST(SchemaTest, ResolutionConstraint) {
  PatchSchema producer;
  producer.SetResolution(64, 64);
  PatchSchema consumer;
  consumer.SetResolution(32, 32);
  EXPECT_TRUE(producer.ValidateConsumer(consumer).IsTypeError());
  consumer.SetResolution(64, 64);
  EXPECT_TRUE(producer.ValidateConsumer(consumer).ok());
}

TEST(SchemaTest, JoinMergesAttributes) {
  PatchSchema a, b;
  a.AddAttribute("x", ValueType::kInt);
  b.AddAttribute("y", ValueType::kString);
  auto joined = PatchSchema::Join(a, b);
  ASSERT_TRUE(joined.ok());
  EXPECT_TRUE(joined->HasAttribute("x"));
  EXPECT_TRUE(joined->HasAttribute("y"));
  PatchSchema conflicting;
  conflicting.AddAttribute("x", ValueType::kString);
  EXPECT_TRUE(PatchSchema::Join(a, conflicting).status().IsTypeError());
}

class DatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (std::filesystem::temp_directory_path() /
             ("dl_core_test_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                .string();
    std::filesystem::remove_all(root_);
    auto db = Database::Open(root_);
    ASSERT_TRUE(db.ok());
    db_ = std::move(db).value();
  }
  void TearDown() override {
    db_.reset();
    std::filesystem::remove_all(root_);
  }

  PatchCollection LabeledPatches() {
    PatchCollection out;
    for (int i = 0; i < 100; ++i) {
      Patch p;
      p.set_id(static_cast<PatchId>(i + 1));
      p.set_bbox(nn::BBox{i % 10, i / 10, i % 10 + 5, i / 10 + 5});
      p.mutable_meta().Set(meta_keys::kLabel,
                           i % 3 == 0 ? "car" : "person");
      p.mutable_meta().Set(meta_keys::kFrameNo, int64_t{i / 4});
      p.mutable_meta().Set(meta_keys::kScore, 0.5 + 0.005 * i);
      p.set_features(Tensor::FromVector(
          {static_cast<float>(i % 7), static_cast<float>(i % 11)}));
      out.push_back(p);
    }
    return out;
  }

  std::string root_;
  std::unique_ptr<Database> db_;
};

TEST_F(DatabaseTest, ViewsRegisterAndFetch) {
  ASSERT_TRUE(db_->RegisterView("v", LabeledPatches()).ok());
  auto view = db_->GetView("v");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ((*view)->patches.size(), 100u);
  EXPECT_TRUE(db_->GetView("missing").status().IsNotFound());
}

TEST_F(DatabaseTest, IndexLifecycle) {
  ASSERT_TRUE(db_->RegisterView("v", LabeledPatches()).ok());
  auto stats = db_->BuildIndex("v", IndexKind::kHash, meta_keys::kLabel);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->num_entries, 100u);
  ASSERT_TRUE(
      db_->BuildIndex("v", IndexKind::kBPlusTree, meta_keys::kFrameNo).ok());
  ASSERT_TRUE(db_->BuildIndex("v", IndexKind::kBallTree).ok());
  ASSERT_TRUE(db_->BuildIndex("v", IndexKind::kRTree).ok());
  auto view = db_->GetView("v");
  EXPECT_EQ((*view)->hash_indexes.size(), 1u);
  EXPECT_NE((*view)->feature_index, nullptr);
  ASSERT_TRUE(db_->DropIndexes("v").ok());
  EXPECT_EQ((*view)->hash_indexes.size(), 0u);
  EXPECT_EQ((*view)->feature_index, nullptr);
}

TEST_F(DatabaseTest, IndexValidation) {
  ASSERT_TRUE(db_->RegisterView("v", LabeledPatches()).ok());
  EXPECT_TRUE(db_->BuildIndex("v", IndexKind::kHash, "")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(db_->BuildIndex("nope", IndexKind::kHash, "k")
                  .status()
                  .IsNotFound());
}

TEST_F(DatabaseTest, PersistAndReloadView) {
  ASSERT_TRUE(db_->RegisterView("v", LabeledPatches()).ok());
  ASSERT_TRUE(db_->PersistView("v").ok());
  EXPECT_TRUE(db_->HasPersistedView("v"));
  // Clobber the in-memory copy, then reload from disk.
  ASSERT_TRUE(db_->RegisterView("v", PatchCollection{}).ok());
  ASSERT_TRUE(db_->LoadPersistedView("v").ok());
  auto view = db_->GetView("v");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ((*view)->patches.size(), 100u);
  EXPECT_TRUE((*view)->patches[5].has_features());
}

TEST_F(DatabaseTest, VideoIngestAndLoad) {
  std::vector<Image> frames;
  for (int f = 0; f < 10; ++f) {
    Image img(16, 12, 3);
    for (auto& b : img.bytes()) b = static_cast<uint8_t>(f * 10);
    frames.push_back(img);
  }
  VideoStoreOptions options;
  options.format = VideoFormat::kSegmented;
  options.clip_frames = 4;
  ASSERT_TRUE(db_->IngestVideo("clip", FramesFromVector(frames), options,
                               "test clip")
                  .ok());
  auto reader = db_->LoadVideo("clip");
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->num_frames(), 10);
  auto frame = (*reader)->ReadFrame(7);
  ASSERT_TRUE(frame.ok());
  EXPECT_NEAR(frame->At(3, 3, 0), 70, 4);
  EXPECT_TRUE(db_->LoadVideo("missing").status().IsNotFound());
  EXPECT_TRUE(db_->catalog()->Contains("clip"));
}

TEST_F(DatabaseTest, QueryFullScanVsIndexSameResult) {
  ASSERT_TRUE(db_->RegisterView("v", LabeledPatches()).ok());
  auto without_index = Query(db_.get(), "v")
                           .Where(Eq(Attr(meta_keys::kLabel), Lit("car")))
                           .Count();
  ASSERT_TRUE(without_index.ok());
  ASSERT_TRUE(db_->BuildIndex("v", IndexKind::kHash, meta_keys::kLabel).ok());
  auto with_index = Query(db_.get(), "v")
                        .Where(Eq(Attr(meta_keys::kLabel), Lit("car")))
                        .Count();
  ASSERT_TRUE(with_index.ok());
  EXPECT_EQ(*without_index, *with_index);
  EXPECT_EQ(*with_index, 34u);  // i % 3 == 0 for 0..99
}

TEST_F(DatabaseTest, QueryPlansReflectIndexes) {
  ASSERT_TRUE(db_->RegisterView("v", LabeledPatches()).ok());
  auto plan = Query(db_.get(), "v")
                  .Where(Eq(Attr(meta_keys::kLabel), Lit("car")))
                  .Explain();
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->path, AccessPath::kFullScan);
  ASSERT_TRUE(db_->BuildIndex("v", IndexKind::kHash, meta_keys::kLabel).ok());
  plan = Query(db_.get(), "v")
             .Where(Eq(Attr(meta_keys::kLabel), Lit("car")))
             .Explain();
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->path, AccessPath::kHashLookup);
}

TEST_F(DatabaseTest, QueryRangeUsesBTree) {
  ASSERT_TRUE(db_->RegisterView("v", LabeledPatches()).ok());
  ASSERT_TRUE(
      db_->BuildIndex("v", IndexKind::kBPlusTree, meta_keys::kFrameNo).ok());
  Query query(db_.get(), "v");
  query.Where(Le(Attr(meta_keys::kFrameNo), Lit(int64_t{5})));
  auto plan = query.Explain();
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->path, AccessPath::kBTreeRange);
  auto count = query.Count();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 24u);  // frames 0..5, 4 patches each
}

TEST_F(DatabaseTest, QueryConjunctionUsesIndexPlusResidual) {
  ASSERT_TRUE(db_->RegisterView("v", LabeledPatches()).ok());
  ASSERT_TRUE(db_->BuildIndex("v", IndexKind::kHash, meta_keys::kLabel).ok());
  Query query(db_.get(), "v");
  query.Where(Eq(Attr(meta_keys::kLabel), Lit("car")));
  query.Where(Ge(Attr(meta_keys::kScore), Lit(0.8)));
  auto result = query.Execute();
  ASSERT_TRUE(result.ok());
  for (const Patch& p : *result) {
    EXPECT_EQ(*p.meta().Get(meta_keys::kLabel).AsString().value(), "car");
    EXPECT_GE(p.meta().Get(meta_keys::kScore).AsNumeric().value(), 0.8);
  }
}

TEST_F(DatabaseTest, QuerySchemaValidationRejectsBadLabel) {
  ASSERT_TRUE(db_->RegisterView("v", LabeledPatches()).ok());
  Query query(db_.get(), "v");
  query.CheckSchema(DetectorSchema());
  query.Where(Eq(Attr(meta_keys::kLabel), Lit("unicorn")));
  EXPECT_TRUE(query.Count().status().IsTypeError());
}

TEST_F(DatabaseTest, QueryTerminals) {
  ASSERT_TRUE(db_->RegisterView("v", LabeledPatches()).ok());
  auto distinct = Query(db_.get(), "v").CountDistinct(meta_keys::kFrameNo);
  ASSERT_TRUE(distinct.ok());
  EXPECT_EQ(*distinct, 25u);
  auto groups = Query(db_.get(), "v").GroupCount(meta_keys::kLabel);
  ASSERT_TRUE(groups.ok());
  EXPECT_EQ((*groups)["'car'"], 34u);
  auto first = Query(db_.get(), "v")
                   .Where(Eq(Attr(meta_keys::kLabel), Lit("person")))
                   .FirstBy(meta_keys::kFrameNo);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->has_value());
  EXPECT_EQ((**first).id(), 2u);  // i=1 is the first person
  auto limited = Query(db_.get(), "v").Limit(7).Execute();
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(limited->size(), 7u);
}

TEST_F(DatabaseTest, LimitedAggregateTerminalsMatchOracle) {
  // A Limit() caps the rows every aggregate terminal reduces to the first
  // `limit` matches in row order. Checked on a resident view and on a
  // disk-backed copy of the same rows, with the limit below, at and above
  // the match count. "rank" is not monotone in row order, so FirstBy has
  // a real argmin to find; "frameno" repeats, so distinct < count.
  PatchCollection rows = LabeledPatches();
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i].mutable_meta().Set("rank", static_cast<int64_t>((i * 37) % 100));
  }
  ASSERT_TRUE(db_->RegisterView("resident", rows).ok());
  ASSERT_TRUE(db_->RegisterView("disk", rows).ok());
  ASSERT_TRUE(db_->PersistView("disk").ok());
  ASSERT_TRUE(db_->AttachPersistedView("disk").ok());
  ASSERT_TRUE(db_->GetView("disk").value()->disk_backed());

  const ExprPtr car = Eq(Attr(meta_keys::kLabel), Lit("car"));
  const ExprPtr opaque = And(
      Gt(Add(Attr(meta_keys::kFrameNo), Lit(int64_t{0})), Lit(int64_t{3})),
      car);
  for (const ExprPtr& pred : {car, opaque, ExprPtr{}}) {
    PatchCollection matches;
    for (const Patch& p : rows) {
      if (!pred || pred->EvalBool(PatchTuple{p}).value()) matches.push_back(p);
    }
    ASSERT_FALSE(matches.empty());
    for (size_t limit : {matches.size() / 2, matches.size(),
                         matches.size() + 9}) {
      const PatchCollection head(
          matches.begin(),
          matches.begin() + static_cast<ptrdiff_t>(
                                std::min(limit, matches.size())));
      std::set<std::string> distinct;
      std::map<std::string, uint64_t> groups;
      const Patch* first = nullptr;
      for (const Patch& p : head) {
        distinct.insert(p.meta().Get(meta_keys::kFrameNo).ToIndexKey());
        ++groups[p.meta().Get(meta_keys::kFrameNo).ToDisplayString()];
        if (first == nullptr ||
            p.meta().Get("rank").Compare(first->meta().Get("rank")) < 0) {
          first = &p;
        }
      }
      for (const char* view : {"resident", "disk"}) {
        SCOPED_TRACE(std::string(view) + " limit " + std::to_string(limit) +
                     " pred " + (pred ? pred->ToString() : "none"));
        auto query = [&] {
          Query q(db_.get(), view);
          if (pred) q.Where(pred);
          q.Limit(limit);
          return q;
        };
        auto count = query().Count();
        ASSERT_TRUE(count.ok()) << count.status().ToString();
        EXPECT_EQ(*count, head.size());
        auto distinct_count = query().CountDistinct(meta_keys::kFrameNo);
        ASSERT_TRUE(distinct_count.ok());
        EXPECT_EQ(*distinct_count, distinct.size());
        auto group_count = query().GroupCount(meta_keys::kFrameNo);
        ASSERT_TRUE(group_count.ok());
        EXPECT_EQ(*group_count, groups);
        auto first_by = query().FirstBy("rank");
        ASSERT_TRUE(first_by.ok());
        ASSERT_TRUE(first_by->has_value());
        EXPECT_EQ((**first_by).id(), first->id());
      }
    }
  }
}

TEST(PlannerTest, SimJoinCostModelPrefersIndexForLargeInputs) {
  // Large symmetric join in low dimension: ball-tree should win.
  EXPECT_EQ(Planner::ChooseSimilarityJoin(20000, 20000, 3, false),
            SimJoinStrategy::kBallTree);
  // Tiny join: the dense kernel's fixed overhead is not worth paying and
  // tree construction dominates; nested loop or all-pairs must win.
  EXPECT_NE(Planner::ChooseSimilarityJoin(5, 5, 8, false),
            SimJoinStrategy::kBallTree);
}

TEST(PlannerTest, CostsGrowWithSizeAndDim) {
  for (auto strategy :
       {SimJoinStrategy::kNestedLoop, SimJoinStrategy::kBallTree,
        SimJoinStrategy::kAllPairs}) {
    EXPECT_LT(Planner::EstimateSimJoinCost(strategy, 100, 100, 8),
              Planner::EstimateSimJoinCost(strategy, 1000, 1000, 8));
    EXPECT_LE(Planner::EstimateSimJoinCost(strategy, 500, 500, 4),
              Planner::EstimateSimJoinCost(strategy, 500, 500, 64));
  }
}

TEST(PlannerTest, GpuDiscountsDenseKernel) {
  // Pick sizes where the ball-tree wins on CPU in a moderate dimension;
  // the GPU's dense-kernel discount should flip at least one of them.
  bool flipped = false;
  for (size_t n : {500, 1000, 3000, 8000, 20000}) {
    auto cpu = Planner::ChooseSimilarityJoin(n, n, 8, false);
    auto gpu = Planner::ChooseSimilarityJoin(n, n, 8, true);
    if (cpu == SimJoinStrategy::kBallTree &&
        gpu == SimJoinStrategy::kAllPairs) {
      flipped = true;
    }
  }
  EXPECT_TRUE(flipped);
}

}  // namespace
}  // namespace deeplens
