// Unit tests for common/: Status, Result, byte serialization, checksums,
// RNG determinism, string helpers, and the thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/checksum.h"
#include "common/env.h"
#include "common/rng.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "storage/columnar/format.h"

namespace deeplens {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_TRUE(s.message().empty());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, CopiesShareState) {
  Status a = Status::IOError("disk on fire");
  Status b = a;
  EXPECT_TRUE(b.IsIOError());
  EXPECT_EQ(b.message(), "disk on fire");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= 10; ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(StatusTest, SaturatedIsTyped) {
  Status s = Status::Saturated("pool full");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsSaturated());
  EXPECT_EQ(s.ToString(), "Saturated: pool full");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(ResultTest, MoveOnlyTypes) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

Result<std::vector<std::string>> Words() {
  // Long enough to live on the heap, so a use after free shows under ASan.
  return std::vector<std::string>{"a first word longer than SSO",
                                  "a second word longer than SSO"};
}

TEST(ResultTest, RangeForOverTemporaryValue) {
  // The range-init's temporary Result dies before the loop body runs; the
  // rvalue value() must hand back an object that outlives it.
  std::vector<std::string> seen;
  for (const std::string& w : Words().value()) seen.push_back(w);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], "a first word longer than SSO");
  EXPECT_EQ(seen[1], "a second word longer than SSO");
}

Result<int> HalveEven(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> UseMacros(int x) {
  DL_ASSIGN_OR_RETURN(int half, HalveEven(x));
  return half + 1;
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto ok = UseMacros(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 5);
  auto err = UseMacros(7);
  EXPECT_TRUE(err.status().IsInvalidArgument());
}

TEST(SliceTest, ComparisonIsLexicographic) {
  EXPECT_LT(Slice("abc").Compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abd").Compare(Slice("abc")), 0);
  EXPECT_EQ(Slice("abc").Compare(Slice("abc")), 0);
  EXPECT_LT(Slice("ab").Compare(Slice("abc")), 0);
  EXPECT_TRUE(Slice("") == Slice(""));
}

TEST(SliceTest, StartsWithAndPrefixRemoval) {
  Slice s("hello world");
  EXPECT_TRUE(s.StartsWith(Slice("hello")));
  EXPECT_FALSE(s.StartsWith(Slice("world")));
  s.RemovePrefix(6);
  EXPECT_EQ(s.ToString(), "world");
}

TEST(BytesTest, FixedWidthRoundTrip) {
  ByteBuffer buf;
  buf.PutU8(0xAB);
  buf.PutU16(0xBEEF);
  buf.PutU32(0xDEADBEEF);
  buf.PutU64(0x0123456789ABCDEFull);
  buf.PutF32(3.25f);
  buf.PutF64(-1.5e300);
  ByteReader r(buf.AsSlice());
  EXPECT_EQ(r.GetU8().value(), 0xAB);
  EXPECT_EQ(r.GetU16().value(), 0xBEEF);
  EXPECT_EQ(r.GetU32().value(), 0xDEADBEEFu);
  EXPECT_EQ(r.GetU64().value(), 0x0123456789ABCDEFull);
  EXPECT_FLOAT_EQ(r.GetF32().value(), 3.25f);
  EXPECT_DOUBLE_EQ(r.GetF64().value(), -1.5e300);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, UnderflowIsCorruption) {
  ByteBuffer buf;
  buf.PutU8(1);
  ByteReader r(buf.AsSlice());
  EXPECT_TRUE(r.GetU32().status().IsCorruption());
}

class VarintRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VarintRoundTrip, EncodesAndDecodes) {
  ByteBuffer buf;
  buf.PutVarint(GetParam());
  ByteReader r(buf.AsSlice());
  EXPECT_EQ(r.GetVarint().value(), GetParam());
  EXPECT_TRUE(r.AtEnd());
}

INSTANTIATE_TEST_SUITE_P(
    Values, VarintRoundTrip,
    ::testing::Values(0ull, 1ull, 127ull, 128ull, 300ull, 16383ull,
                      16384ull, (1ull << 32), ~0ull));

class SignedVarintRoundTrip : public ::testing::TestWithParam<int64_t> {};

TEST_P(SignedVarintRoundTrip, EncodesAndDecodes) {
  ByteBuffer buf;
  buf.PutSignedVarint(GetParam());
  ByteReader r(buf.AsSlice());
  EXPECT_EQ(r.GetSignedVarint().value(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Values, SignedVarintRoundTrip,
    ::testing::Values(0, 1, -1, 63, -64, 64, -65, 1000000, -1000000,
                      INT64_MAX, INT64_MIN));

TEST(BytesTest, LengthPrefixedRoundTrip) {
  ByteBuffer buf;
  buf.PutLengthPrefixed(Slice("hello"));
  buf.PutLengthPrefixed(Slice(""));
  buf.PutLengthPrefixed(Slice("world!"));
  ByteReader r(buf.AsSlice());
  EXPECT_EQ(r.GetLengthPrefixed().value().ToString(), "hello");
  EXPECT_EQ(r.GetLengthPrefixed().value().ToString(), "");
  EXPECT_EQ(r.GetLengthPrefixed().value().ToString(), "world!");
}

TEST(KeyEncodingTest, U64OrderPreserved) {
  std::vector<uint64_t> values = {0, 1, 255, 256, 1ull << 40, ~0ull};
  for (size_t i = 0; i + 1 < values.size(); ++i) {
    EXPECT_LT(EncodeKeyU64(values[i]), EncodeKeyU64(values[i + 1]));
  }
  EXPECT_EQ(DecodeKeyU64(Slice(EncodeKeyU64(1ull << 40))).value(),
            1ull << 40);
}

TEST(KeyEncodingTest, I64OrderPreservedAcrossSign) {
  std::vector<int64_t> values = {INT64_MIN, -1000, -1, 0, 1, 1000,
                                 INT64_MAX};
  for (size_t i = 0; i + 1 < values.size(); ++i) {
    EXPECT_LT(EncodeKeyI64(values[i]), EncodeKeyI64(values[i + 1]))
        << values[i] << " vs " << values[i + 1];
  }
  for (int64_t v : values) {
    EXPECT_EQ(DecodeKeyI64(Slice(EncodeKeyI64(v))).value(), v);
  }
}

TEST(KeyEncodingTest, F64OrderPreservedAcrossSign) {
  std::vector<double> values = {-1e300, -2.5, -1e-10, 0.0,
                                1e-10,  1.0,  2.5,    1e300};
  for (size_t i = 0; i + 1 < values.size(); ++i) {
    EXPECT_LT(EncodeKeyF64(values[i]), EncodeKeyF64(values[i + 1]))
        << values[i] << " vs " << values[i + 1];
  }
  for (double v : values) {
    EXPECT_EQ(DecodeKeyF64(Slice(EncodeKeyF64(v))).value(), v);
  }
}

TEST(ChecksumTest, Crc32cKnownValue) {
  // CRC32C("123456789") is the classic check value.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32cPortable("123456789", 9), 0xE3069283u);
}

TEST(ChecksumTest, DispatchedKernelMatchesTablePath) {
  // Every length 0..1024 at start offsets 0..15 covers each alignment of
  // the kernel's 8-byte loop and of its byte tail.
  RecordProperty("crc32c_path",
                 Crc32cHardwareAvailable() ? "sse4.2" : "table");
  Rng rng(3720);
  std::vector<uint8_t> buf(1024 + 15);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.NextU64());
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t len = 0; len <= 1024; ++len) {
      ASSERT_EQ(Crc32c(buf.data() + offset, len),
                Crc32cPortable(buf.data() + offset, len))
          << "offset " << offset << ", length " << len;
    }
  }
}

TEST(ChecksumTest, ThreeStreamKernelMatchesTablePath) {
  // The SSE4.2 kernel runs three interleaved 4 KiB streams per 12 KiB
  // round from 12,288 bytes up and joins them with a zero-block shift;
  // the remainder runs on one stream. Lengths straddle one and two
  // rounds, and ~1.3 MB with an odd tail is a columnar chunk's size.
  RecordProperty("crc32c_path",
                 Crc32cHardwareAvailable() ? "sse4.2" : "table");
  constexpr size_t kRound = 3 * 4096;
  const size_t kLengths[] = {kRound - 8,     kRound - 1,      kRound,
                             kRound + 1,     kRound + 8,      kRound + 4095,
                             2 * kRound - 1, 2 * kRound,      2 * kRound + 7,
                             1300007};
  Rng rng(4410);
  std::vector<uint8_t> buf(1300007 + 15);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.NextU64());
  for (size_t len : kLengths) {
    for (size_t offset : {0, 1, 7, 13}) {
      const uint8_t* p = buf.data() + offset;
      for (uint32_t seed : {0u, 0x9e3779b9u, 0xffffffffu}) {
        ASSERT_EQ(Crc32c(p, len, seed), Crc32cPortable(p, len, seed))
            << "offset " << offset << ", length " << len << ", seed "
            << seed;
      }
      // Chained calls that cut a round in two, or hand a whole round to
      // the second call.
      const uint32_t whole = Crc32cPortable(p, len);
      for (size_t split :
           {size_t{5}, kRound / 2, len >= kRound ? len - kRound : len}) {
        ASSERT_EQ(Crc32c(p + split, len - split, Crc32c(p, split)), whole)
            << "offset " << offset << ", length " << len << ", split "
            << split;
      }
    }
  }
}

TEST(ChecksumTest, SeededAndChainedCallsCompose) {
  Rng rng(9);
  std::vector<uint8_t> data(1000);
  for (uint8_t& b : data) b = static_cast<uint8_t>(rng.NextU64());
  const uint32_t whole = Crc32cPortable(data.data(), data.size());
  for (size_t split : {0, 1, 7, 8, 9, 500, 999, 1000}) {
    const uint8_t* tail = data.data() + split;
    const size_t tail_len = data.size() - split;
    EXPECT_EQ(Crc32c(tail, tail_len, Crc32c(data.data(), split)), whole)
        << "split " << split;
    EXPECT_EQ(Crc32cPortable(tail, tail_len,
                             Crc32cPortable(data.data(), split)),
              whole)
        << "split " << split;
  }
  for (uint32_t seed : {1u, 0x12345678u, 0xffffffffu}) {
    EXPECT_EQ(Crc32c(data.data(), data.size(), seed),
              Crc32cPortable(data.data(), data.size(), seed));
  }
}

TEST(ChecksumTest, LargeRandomBufferMatchesTablePath) {
  Rng rng(20);
  std::vector<uint8_t> data(1 << 20);
  for (uint8_t& b : data) b = static_cast<uint8_t>(rng.NextU64());
  EXPECT_EQ(Crc32c(data.data(), data.size()),
            Crc32cPortable(data.data(), data.size()));
}

TEST(ChecksumTest, DetectsCorruption) {
  std::string data = "the quick brown fox";
  const uint32_t good = Crc32c(data.data(), data.size());
  data[3] ^= 1;
  EXPECT_NE(Crc32c(data.data(), data.size()), good);
}

TEST(ChecksumTest, Fnv1aSpreadsBits) {
  std::set<uint64_t> hashes;
  for (int i = 0; i < 1000; ++i) {
    std::string key = "key" + std::to_string(i);
    hashes.insert(Fnv1a64(key.data(), key.size()));
  }
  EXPECT_EQ(hashes.size(), 1000u);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    const int64_t v = rng.NextInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(99);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(StringUtilTest, SplitAndJoin) {
  auto parts = SplitString("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(JoinStrings(parts, ","), "a,b,,c");
  EXPECT_EQ(SplitString("", ',').size(), 1u);
}

TEST(StringUtilTest, CaseAndAffixes) {
  EXPECT_EQ(ToLowerAscii("MiXeD123"), "mixed123");
  EXPECT_TRUE(StartsWith("deeplens", "deep"));
  EXPECT_TRUE(EndsWith("deeplens", "lens"));
  EXPECT_FALSE(EndsWith("x", "lens"));
}

TEST(StringUtilTest, FormatAndHumanBytes) {
  EXPECT_EQ(StringFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(HumanBytes(512), "512.00 B");
  EXPECT_EQ(HumanBytes(2048), "2.00 KB");
  EXPECT_EQ(HumanBytes(3ull * 1024 * 1024 * 1024), "3.00 GB");
}

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 100; ++i) {
    futs.push_back(pool.Submit([&counter] { counter++; }));
  }
  for (auto& f : futs) f.wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(0, 1000, [&](size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool ran = false;
  pool.ParallelFor(5, 5, [&](size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

// Every worker calls ParallelFor at once. Submitting and waiting from
// inside a worker would leave no worker to run the chunks; the nested
// loop must run serially instead, so all tasks finish.
TEST(ThreadPoolTest, NestedParallelForFromEveryWorkerCompletes) {
  // Leaked on purpose: if the tasks deadlock, destroying the pool would
  // hang joining its workers instead of failing the test.
  auto* pool = new ThreadPool(3);
  const size_t workers = pool->num_threads();
  std::atomic<size_t> arrived{0};
  std::atomic<int> hits{0};
  std::vector<std::future<void>> futs;
  for (size_t t = 0; t < workers; ++t) {
    futs.push_back(pool->Submit([&] {
      // Hold every worker inside a task before any of them nests.
      arrived.fetch_add(1);
      while (arrived.load() < workers) std::this_thread::yield();
      pool->ParallelFor(0, 64, [&](size_t) { hits.fetch_add(1); });
    }));
  }
  bool all_done = true;
  for (auto& f : futs) {
    all_done = all_done && f.wait_for(std::chrono::seconds(30)) ==
                               std::future_status::ready;
  }
  ASSERT_TRUE(all_done) << "nested ParallelFor deadlocked the pool";
  EXPECT_EQ(hits.load(), static_cast<int>(workers) * 64);
  delete pool;
}

// --- Serving env knobs ----------------------------------------------------
// The tenant priority map is all-or-nothing: one malformed entry rejects
// the whole spec (a half-applied map silently misweights tenants), and
// rejection must fall back to the default, never crash or half-parse.

class WeightMapEnvTest : public ::testing::Test {
 protected:
  static constexpr const char* kVar = "DEEPLENS_TEST_WEIGHT_MAP";
  void TearDown() override { unsetenv(kVar); }

  std::map<std::string, uint64_t> Parse(const char* value) {
    setenv(kVar, value, 1);
    return WeightMapFromEnv(kVar, /*max_weight=*/1000,
                            {{"fallback", 7}});
  }
  bool Rejected(const char* value) {
    auto parsed = Parse(value);
    return parsed.size() == 1 && parsed.count("fallback") == 1 &&
           parsed.at("fallback") == 7;
  }
};

TEST_F(WeightMapEnvTest, UnsetUsesFallback) {
  unsetenv(kVar);
  const auto parsed =
      WeightMapFromEnv(kVar, 1000, {{"fallback", 7}});
  EXPECT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed.at("fallback"), 7u);
}

TEST_F(WeightMapEnvTest, ValidSpecParses) {
  const auto parsed = Parse("dash=4,batch=1,archive=32");
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed.at("dash"), 4u);
  EXPECT_EQ(parsed.at("batch"), 1u);
  EXPECT_EQ(parsed.at("archive"), 32u);
}

TEST_F(WeightMapEnvTest, SingleEntryAndMaxWeight) {
  const auto parsed = Parse("solo=1000");
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed.at("solo"), 1000u);
}

TEST_F(WeightMapEnvTest, RejectionMatrix) {
  EXPECT_TRUE(Rejected(""));                  // empty spec
  EXPECT_TRUE(Rejected("dash"));              // no '='
  EXPECT_TRUE(Rejected("=4"));                // empty key
  EXPECT_TRUE(Rejected("dash="));             // empty weight
  EXPECT_TRUE(Rejected("dash=4,"));           // trailing comma = empty entry
  EXPECT_TRUE(Rejected(",dash=4"));           // leading comma
  EXPECT_TRUE(Rejected("dash=4,,batch=1"));   // empty middle entry
  EXPECT_TRUE(Rejected("dash=0"));            // zero weight
  EXPECT_TRUE(Rejected("dash=-4"));           // negative weight
  EXPECT_TRUE(Rejected("dash=4.5"));          // non-integer weight
  EXPECT_TRUE(Rejected("dash=1001"));         // exceeds max_weight
  EXPECT_TRUE(Rejected("dash=99999999999999999999"));  // overflow
  EXPECT_TRUE(Rejected("dash=4,dash=8"));     // duplicate key
  EXPECT_TRUE(Rejected("da sh=4"));           // whitespace in key
  EXPECT_TRUE(Rejected("dash\t=4"));          // control byte in key
  EXPECT_TRUE(Rejected("dash=4=8"));          // stray '=' lands in weight
  EXPECT_TRUE(Rejected(" dash=4"));           // leading space in key
}

TEST_F(WeightMapEnvTest, GoodEntriesDoNotSurviveABadOne) {
  // All-or-nothing: the valid "dash=4" must not leak through when a
  // later entry is malformed.
  const auto parsed = Parse("dash=4,batch=zero");
  EXPECT_EQ(parsed.count("dash"), 0u);
  EXPECT_EQ(parsed.at("fallback"), 7u);
}

class ServingKnobTest : public ::testing::Test {
 protected:
  void TearDown() override {
    unsetenv("DEEPLENS_MAX_CONCURRENT_QUERIES");
    unsetenv("DEEPLENS_ADMISSION_WAIT_MS");
    unsetenv("DEEPLENS_TENANT_PRIORITY");
    unsetenv("DEEPLENS_DEVICE_BATCH_SIZE");
    unsetenv("DEEPLENS_BATCH_WAIT_US");
  }
};

TEST_F(ServingKnobTest, MaxConcurrentQueriesMatrix) {
  const uint64_t kDefault = 6;
  const struct {
    const char* value;
    uint64_t expected;
  } kCases[] = {
      {"8", 8},          // plain valid
      {"0", 0},          // zero allowed: disables the gate
      {"-3", kDefault},  // negative rejected
      {"8q", kDefault},  // trailing garbage rejected
      {"", kDefault},    // empty rejected
      {" 8", kDefault},  // leading whitespace rejected (bare decimal only)
      {"0x8", kDefault},
  };
  for (const auto& c : kCases) {
    setenv("DEEPLENS_MAX_CONCURRENT_QUERIES", c.value, 1);
    EXPECT_EQ(PositiveIntFromEnv("DEEPLENS_MAX_CONCURRENT_QUERIES", kDefault,
                                 1u << 20, /*allow_zero=*/true),
              c.expected)
        << "value='" << c.value << "'";
  }
}

TEST_F(ServingKnobTest, AdmissionWaitMsMatrix) {
  const uint64_t kDefault = 10000;
  setenv("DEEPLENS_ADMISSION_WAIT_MS", "0", 1);  // fail-fast is legal
  EXPECT_EQ(PositiveIntFromEnv("DEEPLENS_ADMISSION_WAIT_MS", kDefault,
                               86400000ull, /*allow_zero=*/true),
            0u);
  setenv("DEEPLENS_ADMISSION_WAIT_MS", "250", 1);
  EXPECT_EQ(PositiveIntFromEnv("DEEPLENS_ADMISSION_WAIT_MS", kDefault,
                               86400000ull, /*allow_zero=*/true),
            250u);
  // Beyond a day is a typo, not a policy.
  setenv("DEEPLENS_ADMISSION_WAIT_MS", "86400001", 1);
  EXPECT_EQ(PositiveIntFromEnv("DEEPLENS_ADMISSION_WAIT_MS", kDefault,
                               86400000ull, /*allow_zero=*/true),
            kDefault);
}

TEST_F(ServingKnobTest, DeviceBatchSizeMatrix) {
  const uint64_t kDefault = 0;  // batching off
  const struct {
    const char* value;
    uint64_t expected;
  } kCases[] = {
      {"16", 16},          // plain valid
      {"0", 0},            // zero allowed: disables the former
      {"4096", 4096},      // at the cap
      {"4097", kDefault},  // beyond the cap rejected
      {"-4", kDefault},    // negative rejected
      {"4x", kDefault},    // trailing garbage rejected
      {"", kDefault},      // empty rejected
  };
  for (const auto& c : kCases) {
    setenv("DEEPLENS_DEVICE_BATCH_SIZE", c.value, 1);
    EXPECT_EQ(PositiveIntFromEnv("DEEPLENS_DEVICE_BATCH_SIZE", kDefault, 4096,
                                 /*allow_zero=*/true),
              c.expected)
        << "value='" << c.value << "'";
  }
}

TEST_F(ServingKnobTest, BatchWaitUsMatrix) {
  const uint64_t kDefault = 2000;
  const struct {
    const char* value;
    uint64_t expected;
  } kCases[] = {
      {"500", 500},          // plain valid
      {"0", 0},              // zero allowed: flush immediately
      {"60000000", 60000000},  // at the one-minute cap
      {"60000001", kDefault},  // a "deadline" past a minute is a hang
      {"2ms", kDefault},       // units rejected (bare microseconds only)
      {"", kDefault},
  };
  for (const auto& c : kCases) {
    setenv("DEEPLENS_BATCH_WAIT_US", c.value, 1);
    EXPECT_EQ(PositiveIntFromEnv("DEEPLENS_BATCH_WAIT_US", kDefault,
                                 60000000ull, /*allow_zero=*/true),
              c.expected)
        << "value='" << c.value << "'";
  }
}

// --- Columnar storage knobs ----------------------------------------------
// The chunk-size and prefetch knobs size buffers directly, so a garbage
// value must fall back, never size a zero-row chunk or an unbounded
// queue.

class ColumnarKnobTest : public ::testing::Test {
 protected:
  void TearDown() override {
    unsetenv("DEEPLENS_COLUMNAR_CHUNK_ROWS");
    unsetenv("DEEPLENS_PREFETCH_DEPTH");
  }
};

TEST_F(ColumnarKnobTest, ChunkRowsMatrix) {
  const struct {
    const char* value;
    size_t expected;
  } kCases[] = {
      {"1", 1},            // minimum legal chunk
      {"8192", 8192},      // the default, spelled out
      {"65536", 65536},    // max
      {"0", columnar::kDefaultChunkRows},      // zero-row chunks illegal
      {"65537", columnar::kDefaultChunkRows},  // beyond kMaxChunkRows
      {"-1", columnar::kDefaultChunkRows},
      {"4k", columnar::kDefaultChunkRows},     // no suffixes
      {"", columnar::kDefaultChunkRows},
      {"  16", columnar::kDefaultChunkRows},   // bare decimal only
  };
  for (const auto& c : kCases) {
    setenv("DEEPLENS_COLUMNAR_CHUNK_ROWS", c.value, 1);
    EXPECT_EQ(columnar::ColumnarChunkRowsFromEnv(), c.expected)
        << "value='" << c.value << "'";
  }
  unsetenv("DEEPLENS_COLUMNAR_CHUNK_ROWS");
  EXPECT_EQ(columnar::ColumnarChunkRowsFromEnv(),
            columnar::kDefaultChunkRows);
}

TEST_F(ColumnarKnobTest, PrefetchDepthMatrix) {
  const struct {
    const char* value;
    size_t expected;
  } kCases[] = {
      {"0", 0},   // legal: disables the I/O thread (synchronous loads)
      {"1", 1},
      {"64", 64},  // kMaxPrefetchDepth
      {"65", columnar::kDefaultPrefetchDepth},  // beyond the cap
      {"-2", columnar::kDefaultPrefetchDepth},
      {"two", columnar::kDefaultPrefetchDepth},
      {"4 ", columnar::kDefaultPrefetchDepth},  // trailing garbage
      {"", columnar::kDefaultPrefetchDepth},
  };
  for (const auto& c : kCases) {
    setenv("DEEPLENS_PREFETCH_DEPTH", c.value, 1);
    EXPECT_EQ(columnar::PrefetchDepthFromEnv(), c.expected)
        << "value='" << c.value << "'";
  }
  unsetenv("DEEPLENS_PREFETCH_DEPTH");
  EXPECT_EQ(columnar::PrefetchDepthFromEnv(),
            columnar::kDefaultPrefetchDepth);
}

// --- Optimizer knobs ------------------------------------------------------
// DEEPLENS_CASCADE_THRESHOLD is the repo's first float knob: a garbage or
// out-of-range value must fall back to 1.0 (cascades off), because a
// half-parsed threshold silently trades accuracy. The plan-cache size
// knob goes through the standard integer path with 0 = disabled.

class OptimizerKnobTest : public ::testing::Test {
 protected:
  void TearDown() override {
    unsetenv("DEEPLENS_CASCADE_THRESHOLD");
    unsetenv("DEEPLENS_PLAN_CACHE_ENTRIES");
  }
};

TEST_F(OptimizerKnobTest, CascadeThresholdMatrix) {
  const double kDefault = 1.0;
  const struct {
    const char* value;
    double expected;
  } kCases[] = {
      {"0.25", 0.25},      // plain valid
      {"1.0", 1.0},        // upper bound inclusive
      {"0", 0.0},          // lower bound inclusive, integer form
      {"1", 1.0},          // integer form
      {"0.", 0.0},         // trailing dot is a bare decimal
      {"", kDefault},      // empty rejected
      {" 0.5", kDefault},  // leading whitespace rejected
      {"0.5 ", kDefault},  // trailing whitespace rejected
      {"0.5x", kDefault},  // trailing garbage rejected
      {"-0.1", kDefault},  // below range rejected
      {"1.5", kDefault},   // above range rejected
      {"nan", kDefault},   // not a bare decimal
      {"inf", kDefault},
      {"1e-1", kDefault},  // scientific notation rejected
      {"0x1p-1", kDefault},  // hex float rejected
      {"0,5", kDefault},   // locale comma rejected
      {".5", kDefault},    // leading dot: digits required before '.'
      {"0..5", kDefault},  // double dot
  };
  for (const auto& c : kCases) {
    setenv("DEEPLENS_CASCADE_THRESHOLD", c.value, 1);
    EXPECT_EQ(BoundedDoubleFromEnv("DEEPLENS_CASCADE_THRESHOLD", kDefault,
                                   0.0, 1.0),
              c.expected)
        << "value='" << c.value << "'";
  }
  unsetenv("DEEPLENS_CASCADE_THRESHOLD");
  EXPECT_EQ(
      BoundedDoubleFromEnv("DEEPLENS_CASCADE_THRESHOLD", kDefault, 0.0, 1.0),
      kDefault);
}

TEST_F(OptimizerKnobTest, PlanCacheEntriesMatrix) {
  const uint64_t kDefault = 128;
  const struct {
    const char* value;
    uint64_t expected;
  } kCases[] = {
      {"64", 64},        // plain valid
      {"1", 1},          // minimum useful capacity
      {"0", 0},          // zero allowed: disables memoization
      {"-1", kDefault},  // negative rejected
      {"8q", kDefault},  // trailing garbage rejected
      {"", kDefault},    // empty rejected
      {" 8", kDefault},  // leading whitespace rejected
      {"0x8", kDefault},
      {"99999999999999999999", kDefault},  // overflow
      {"2097152", kDefault},               // beyond the 2^20 cap
  };
  for (const auto& c : kCases) {
    setenv("DEEPLENS_PLAN_CACHE_ENTRIES", c.value, 1);
    EXPECT_EQ(PositiveIntFromEnv("DEEPLENS_PLAN_CACHE_ENTRIES", kDefault,
                                 1u << 20, /*allow_zero=*/true),
              c.expected)
        << "value='" << c.value << "'";
  }
}

}  // namespace
}  // namespace deeplens
