// Multi-tenant serving harness: N session threads push a randomized mix
// of queries (full scans, radix hash joins, group-bys, cached NN UDF
// predicates) through the fair-share morsel scheduler concurrently, and
// every result must be byte-identical to the same query run alone — the
// scheduler may only reorder *when* a morsel runs, never what a query
// returns. On top of the differential battery: admission control
// (bounded concurrency, typed Saturated, blocked-then-admitted),
// fair-share interleaving (a long task set cannot starve a short one;
// weights bias the interleave), in-flight inference dedup (K concurrent
// identical UDF queries cost exactly one model invocation per distinct
// patch), and per-tenant cache partition isolation.
//
// Runs under the TSan CI stage (label: parallel) — the scheduler,
// admission gate, inflight table and per-tenant caches are all hit from
// many threads here.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "cache/inflight.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/database.h"
#include "core/query.h"
#include "core/session.h"
#include "exec/joins.h"
#include "exec/nn_udf.h"
#include "exec/pipeline.h"
#include "exec/scheduler.h"
#include "sim/scene.h"

namespace deeplens {
namespace {

// --- Inputs -----------------------------------------------------------------

PatchCollection MakeMetaView(uint64_t seed, size_t n) {
  Rng rng(seed);
  PatchCollection out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Patch p;
    p.set_id(static_cast<PatchId>(i + 1));
    p.set_ref(ImgRef{"serving", static_cast<int64_t>(i), kInvalidPatchId});
    p.set_bbox(nn::BBox{0, 0, 8, 8});
    p.mutable_meta().Set(meta_keys::kScore, rng.NextDouble());
    p.mutable_meta().Set("k", "k" + std::to_string(rng.NextU64Below(60)));
    p.mutable_meta().Set("g", "g" + std::to_string(rng.NextU64Below(4)));
    p.mutable_meta().Set("v", rng.NextInt(-1000, 1000));
    out.push_back(std::move(p));
  }
  return out;
}

// Digit panels with unique background noise (distinct fingerprints), most
// containing a drawn digit string OCR can recognize.
PatchCollection MakePanelView(uint64_t seed, int n) {
  Rng rng(seed);
  PatchCollection out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    Image panel(64, 64, 3);
    for (auto& b : panel.bytes()) {
      b = static_cast<uint8_t>(10 + rng.NextU64Below(20));
    }
    if (rng.NextU64Below(100) < 70) {
      sim::DrawDigits(&panel, nn::BBox{4, 20, 60, 44},
                      std::to_string(100 + rng.NextU64Below(900)));
    }
    Patch p;
    p.set_id(static_cast<PatchId>(i + 1));
    p.set_ref(ImgRef{"panels", i, kInvalidPatchId});
    p.set_pixels(std::move(panel));
    p.set_bbox(nn::BBox{0, 0, 64, 64});
    p.mutable_meta().Set(meta_keys::kFrameNo, int64_t{i});
    out.push_back(std::move(p));
  }
  return out;
}

// --- Byte-level result canonicalization -------------------------------------

std::vector<uint8_t> SerializePatches(const PatchCollection& patches) {
  ByteBuffer buf;
  buf.PutU64(patches.size());
  for (const Patch& p : patches) p.SerializeInto(&buf);
  return buf.data();
}

std::vector<uint8_t> SerializeTuples(const std::vector<PatchTuple>& tuples) {
  ByteBuffer buf;
  buf.PutU64(tuples.size());
  for (const PatchTuple& t : tuples) {
    buf.PutU64(t.size());
    for (const Patch& p : t) p.SerializeInto(&buf);
  }
  return buf.data();
}

std::vector<uint8_t> SerializeGroups(const std::map<std::string, uint64_t>& groups) {
  ByteBuffer buf;
  buf.PutU64(groups.size());
  for (const auto& entry : groups) {
    buf.PutLengthPrefixed(Slice(entry.first));
    buf.PutU64(entry.second);
  }
  return buf.data();
}

// --- The randomized query mix -----------------------------------------------

constexpr int kNumOps = 6;

class ServingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (std::filesystem::temp_directory_path() /
             ("dl_serving_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                .string();
    std::filesystem::remove_all(root_);
    auto db = Database::Open(root_);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    CacheConfig cache_config;
    cache_config.budget_bytes = 32 << 20;
    // LRU admission: TinyLFU's cold-miss denials would make first-touch
    // insertion timing-dependent, which the dedup accounting below
    // (leaders == distinct panels) must not be.
    cache_config.admission = CacheAdmission::kLru;
    db_->ConfigureCaches(cache_config);
  }
  void TearDown() override {
    db_.reset();
    std::filesystem::remove_all(root_);
  }

  void RegisterViews() {
    // Past the 1024-row morsel threshold: scans, aggregates and the
    // join all plan multiple morsels and go through the scheduler.
    ASSERT_TRUE(db_->RegisterView("left", MakeMetaView(0xa11ce, 3000)).ok());
    ASSERT_TRUE(db_->RegisterView("right", MakeMetaView(0xb0b, 2400)).ok());
    ASSERT_TRUE(db_->RegisterView("panels", MakePanelView(0xd161, 12)).ok());
  }

  // Runs one op of the mix and returns its canonical bytes. `cache` is
  // the inference cache the UDF op builds its predicate against (each
  // session passes its own partition; results must not depend on it).
  std::vector<uint8_t> RunOp(int op, InferenceCache* cache) {
    switch (op % kNumOps) {
      case 0: {
        Query q(db_.get(), "left");
        q.Where(Ge(Attr(meta_keys::kScore), Lit(0.5)));
        auto r = q.Execute();
        EXPECT_TRUE(r.ok()) << r.status().ToString();
        return r.ok() ? SerializePatches(*r) : std::vector<uint8_t>{0xff};
      }
      case 1: {
        Query q(db_.get(), "left");
        q.Where(Lt(Attr("v"), Lit(int64_t{0})));
        auto r = q.Count();
        EXPECT_TRUE(r.ok()) << r.status().ToString();
        if (!r.ok()) return std::vector<uint8_t>{0xff};
        ByteBuffer buf;
        buf.PutU64(*r);
        return buf.data();
      }
      case 2: {
        Query q(db_.get(), "right");
        auto r = q.GroupCount("g");
        EXPECT_TRUE(r.ok()) << r.status().ToString();
        return r.ok() ? SerializeGroups(*r) : std::vector<uint8_t>{0xff};
      }
      case 3: {
        // Big enough combined input for the radix-partitioned core when
        // the morsel plan is parallel.
        auto left = db_->GetView("left");
        auto right = db_->GetView("right");
        EXPECT_TRUE(left.ok() && right.ok());
        auto r = HashEqualityJoin(
            (*left)->patches, (*right)->patches, "k",
            Lt(Attr(0, meta_keys::kScore), Attr(1, meta_keys::kScore)));
        EXPECT_TRUE(r.ok()) << r.status().ToString();
        return r.ok() ? SerializeTuples(*r) : std::vector<uint8_t>{0xff};
      }
      case 4: {
        Query q(db_.get(), "panels");
        q.Where(Ne(OcrTextUdf(0, db_->ocr(), cache), Lit("")));
        auto r = q.Execute();
        EXPECT_TRUE(r.ok()) << r.status().ToString();
        return r.ok() ? SerializePatches(*r) : std::vector<uint8_t>{0xff};
      }
      default: {
        Query q(db_.get(), "left");
        auto r = q.CountDistinct("k");
        EXPECT_TRUE(r.ok()) << r.status().ToString();
        if (!r.ok()) return std::vector<uint8_t>{0xff};
        ByteBuffer buf;
        buf.PutU64(*r);
        return buf.data();
      }
    }
  }

  std::string root_;
  std::unique_ptr<Database> db_;
};

// Concurrent randomized mix == solo execution, byte for byte, and the
// whole battery is deterministic under repetition.
TEST_F(ServingTest, ConcurrentMixByteIdenticalToSolo) {
  RegisterViews();

  // Solo reference for every op, computed before any concurrency.
  std::vector<std::vector<uint8_t>> reference(kNumOps);
  for (int op = 0; op < kNumOps; ++op) {
    reference[op] = RunOp(op, db_->TenantInferenceCache("ref"));
  }

  constexpr int kThreads = 6;
  constexpr int kItersPerThread = 6;
  for (int rep = 0; rep < 2; ++rep) {
    std::atomic<int> mismatches{0};
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t, rep] {
        Session session =
            db_->CreateSession("tenant" + std::to_string(t));
        Rng rng(0x5e551 + static_cast<uint64_t>(t) * 131 +
                static_cast<uint64_t>(rep));
        for (int i = 0; i < kItersPerThread; ++i) {
          const int op = static_cast<int>(rng.NextU64Below(kNumOps));
          Status st = session.Run([&]() -> Status {
            if (RunOp(op, session.inference_cache()) != reference[op]) {
              mismatches.fetch_add(1);
            }
            return Status::OK();
          });
          if (!st.ok()) failures.fetch_add(1);
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(mismatches.load(), 0) << "rep " << rep;
    EXPECT_EQ(failures.load(), 0) << "rep " << rep;
  }

  // The battery really did run task sets concurrently through the
  // scheduler (not serialized end to end). A one-worker pool makes every
  // plan serial, so no task set reaches the scheduler.
  if (ResolveMorselWorkers(MorselOptions{}) > 1) {
    EXPECT_GE(MorselScheduler::Global().Stats().peak_active_sets, 2u);
  }
}

// A long task set cannot starve a short one: the short set, submitted
// while the long one is mid-flight, finishes long before it.
TEST(MorselSchedulerTest, ShortTaskSetNotStarvedByLongOne) {
  constexpr int kLongTasks = 160;
  constexpr int kShortTasks = 8;
  const auto work = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  };

  std::atomic<bool> long_started{false};
  double long_ms = 0, short_ms = 0;
  std::thread long_thread([&] {
    const auto t0 = std::chrono::steady_clock::now();
    MorselScheduler::Global().Run(
        kLongTasks,
        [&](size_t) {
          long_started.store(true);
          work();
        },
        SchedulingContext{"long", 1});
    long_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  });
  while (!long_started.load()) std::this_thread::yield();

  const auto t0 = std::chrono::steady_clock::now();
  MorselScheduler::Global().Run(
      kShortTasks, [&](size_t) { work(); }, SchedulingContext{"short", 1});
  short_ms = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - t0)
                 .count();
  long_thread.join();

  // Under the old pool-FIFO dispatch the short set would wait for all
  // 160 long tasks (~short_ms == long_ms). Fair interleaving bounds the
  // short set near its fair share; 1/2 is a deliberately loose bound
  // that still fails the FIFO behavior by a wide margin.
  EXPECT_LT(short_ms, long_ms / 2)
      << "short=" << short_ms << "ms long=" << long_ms << "ms";

  const SchedulerStats stats = MorselScheduler::Global().Stats();
  EXPECT_GE(stats.tasks_by_tenant.at("long"), 160u);
  EXPECT_GE(stats.tasks_by_tenant.at("short"), 8u);
}

// The caller drains its own set: with every pool worker blocked (as
// workers waiting on a batch the caller is about to compute would be),
// Run still completes on the calling thread alone.
TEST(MorselSchedulerTest, CallerFinishesItsSetWhileWorkersAreBlocked) {
  const size_t workers = ThreadPool::Global().num_threads();
  std::atomic<size_t> parked{0};
  std::atomic<bool> release{false};
  std::vector<std::future<void>> blockers;
  for (size_t i = 0; i < workers; ++i) {
    blockers.push_back(ThreadPool::Global().Submit([&] {
      parked.fetch_add(1);
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }));
  }
  while (parked.load() < workers) std::this_thread::yield();

  std::atomic<bool> finished{false};
  std::atomic<int> ran{0};
  std::thread caller([&] {
    MorselScheduler::Global().Run(
        16, [&](size_t) { ran.fetch_add(1); },
        SchedulingContext{"blocked-pool", 1});
    finished.store(true);
  });
  const auto t0 = std::chrono::steady_clock::now();
  while (!finished.load() &&
         std::chrono::steady_clock::now() - t0 < std::chrono::seconds(30)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool finished_while_blocked = finished.load();
  release.store(true);  // unblock the pool either way, so the test ends
  caller.join();
  for (auto& b : blockers) b.wait();
  EXPECT_TRUE(finished_while_blocked)
      << "Run waited on pool workers that were all blocked";
  EXPECT_EQ(ran.load(), 16);
}

// Weights bias the interleave: with equal-size task sets racing, the
// weight-8 tenant drains first.
TEST(MorselSchedulerTest, WeightBiasesInterleaving) {
  constexpr int kTasks = 48;
  const auto work = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };

  std::atomic<bool> light_started{false};
  double light_ms = 0, heavy_ms = 0;
  std::thread light_thread([&] {
    const auto t0 = std::chrono::steady_clock::now();
    MorselScheduler::Global().Run(
        kTasks,
        [&](size_t) {
          light_started.store(true);
          work();
        },
        SchedulingContext{"light", 1});
    light_ms = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
  });
  while (!light_started.load()) std::this_thread::yield();

  const auto t0 = std::chrono::steady_clock::now();
  MorselScheduler::Global().Run(
      kTasks, [&](size_t) { work(); }, SchedulingContext{"heavy", 8});
  heavy_ms = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - t0)
                 .count();
  light_thread.join();

  // Weight 8 vs 1 claims ~8 of every 9 slots while both are active, so
  // the heavy set (submitted second!) must still finish first.
  EXPECT_LT(heavy_ms, light_ms)
      << "heavy=" << heavy_ms << "ms light=" << light_ms << "ms";
}

// --- Admission control ------------------------------------------------------

TEST_F(ServingTest, SaturationReturnsTypedStatusAndRecovers) {
  ServingConfig config;
  config.max_concurrent_queries = 1;
  config.admission_wait_ms = 0;  // fail fast
  db_->ConfigureServing(config);

  Session a = db_->CreateSession("a");
  Session b = db_->CreateSession("b");

  std::atomic<bool> release{false};
  std::atomic<bool> a_running{false};
  std::thread holder([&] {
    Status st = a.Run([&]() -> Status {
      a_running.store(true);
      while (!release.load()) std::this_thread::yield();
      return Status::OK();
    });
    EXPECT_TRUE(st.ok());
  });
  while (!a_running.load()) std::this_thread::yield();

  // Pool full, zero wait: typed rejection, and the query never ran.
  bool b_ran = false;
  Status saturated = b.Run([&]() -> Status {
    b_ran = true;
    return Status::OK();
  });
  EXPECT_TRUE(saturated.IsSaturated()) << saturated.ToString();
  EXPECT_FALSE(b_ran);

  release.store(true);
  holder.join();

  // Slot freed: the same session is admitted now.
  Status ok = b.Run([]() -> Status { return Status::OK(); });
  EXPECT_TRUE(ok.ok()) << ok.ToString();

  const ServingStats stats = db_->admission_gate()->Stats();
  EXPECT_GE(stats.rejected_saturated, 1u);
  EXPECT_GE(stats.admitted, 2u);
  EXPECT_EQ(stats.in_flight, 0u);
}

TEST_F(ServingTest, AdmissionBlocksUntilSlotFrees) {
  ServingConfig config;
  config.max_concurrent_queries = 1;
  config.admission_wait_ms = 10000;
  db_->ConfigureServing(config);

  Session a = db_->CreateSession("a");
  Session b = db_->CreateSession("b");

  std::atomic<bool> a_running{false};
  std::thread holder([&] {
    Status st = a.Run([&]() -> Status {
      a_running.store(true);
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      return Status::OK();
    });
    EXPECT_TRUE(st.ok());
  });
  while (!a_running.load()) std::this_thread::yield();

  // B queues behind A's slot and gets admitted when A finishes, well
  // inside the 10s budget.
  Status st = b.Run([]() -> Status { return Status::OK(); });
  EXPECT_TRUE(st.ok()) << st.ToString();
  holder.join();

  EXPECT_EQ(db_->admission_gate()->Stats().peak_in_flight, 1u);
}

TEST_F(ServingTest, UnlimitedGateAdmitsEverything) {
  ServingConfig config;
  config.max_concurrent_queries = 0;
  db_->ConfigureServing(config);
  Session s = db_->CreateSession("any");
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(s.Run([]() -> Status { return Status::OK(); }).ok());
  }
}

// --- In-flight inference dedup ----------------------------------------------

// K concurrent identical UDF queries cost exactly one model invocation
// per distinct panel: every miss-path inference goes through the
// singleflight table, so invocations == leaders, and leaders must equal
// the number of distinct fingerprints — not K times that.
TEST_F(ServingTest, ConcurrentIdenticalUdfQueriesRunEachInferenceOnce) {
  constexpr int kPanels = 12;
  constexpr int kThreads = 8;
  ASSERT_TRUE(
      db_->RegisterView("panels", MakePanelView(0xfade, kPanels)).ok());

  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      // Anonymous sessions: all K queries share the database cache, the
      // worst case for redundant inference without the inflight table.
      Session session = db_->CreateSession();
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      Status st = session.Run([&]() -> Status {
        Query q(db_.get(), "panels");
        q.Where(Ne(OcrTextUdf(0, db_->ocr(), session.inference_cache()),
                   Lit("")));
        auto r = q.Execute();
        return r.status();
      });
      if (!st.ok()) failures.fetch_add(1);
    });
  }
  while (ready.load() < kThreads) std::this_thread::yield();
  go.store(true);
  for (auto& th : threads) th.join();
  ASSERT_EQ(failures.load(), 0);

  const InflightStats inflight = db_->inflight_table()->Stats();
  const CacheStats cache = db_->inference_cache()->Stats();
  // Exactly one inference per distinct panel across all K queries.
  EXPECT_EQ(inflight.leaders, static_cast<uint64_t>(kPanels));
  EXPECT_EQ(inflight.failures, 0u);
  // Every one of the K*kPanels evaluations is accounted for: led the
  // flight, joined one in progress, or hit the already-published entry.
  EXPECT_EQ(inflight.leaders + inflight.joined + cache.hits,
            static_cast<uint64_t>(kThreads) * kPanels);
}

TEST_F(ServingTest, ExplainReportsSchedulingClassAndDedup) {
  RegisterViews();
  ServingConfig config;
  config.tenant_weights = {{"dash", 4}};
  db_->ConfigureServing(config);

  Session session = db_->CreateSession("dash");
  EXPECT_EQ(session.weight(), 4u);

  Query q(db_.get(), "panels");
  q.Where(Ne(OcrTextUdf(0, db_->ocr(), session.inference_cache()),
             Lit("")));
  auto plan = session.Explain(q);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->scheduling_class.find("dash"), std::string::npos);
  EXPECT_NE(plan->scheduling_class.find("weight 4"), std::string::npos);
  EXPECT_EQ(plan->inflight_dedup_hits,
            db_->inflight_table()->Stats().joined);

  // Plain Query::Explain stays serving-agnostic.
  auto bare = q.Explain();
  ASSERT_TRUE(bare.ok());
  EXPECT_TRUE(bare->scheduling_class.empty());
}

// --- Per-tenant cache partitions --------------------------------------------

TEST_F(ServingTest, TenantCacheBudgetsPartitionByWeight) {
  ServingConfig config;
  config.tenant_weights = {{"big", 8}, {"small", 2}};
  db_->ConfigureServing(config);

  Session big = db_->CreateSession("big");
  Session small = db_->CreateSession("small");
  Session anon = db_->CreateSession();

  // Distinct partitions; the anonymous session uses the shared cache.
  EXPECT_NE(big.inference_cache(), small.inference_cache());
  EXPECT_EQ(anon.inference_cache(), db_->inference_cache());

  // Budgets split the shared inference budget in weight proportion.
  const uint64_t total = db_->cache_config().inference_budget();
  EXPECT_EQ(big.inference_cache()->Stats().budget_bytes, total * 8 / 10);
  EXPECT_EQ(small.inference_cache()->Stats().budget_bytes, total * 2 / 10);

  // Isolation: flooding one tenant's partition cannot evict another's
  // entries.
  const std::string key = InferenceCache::KeyFor("m", 42);
  small.inference_cache()->Put(key, InferenceValue{std::string("kept")});
  for (int i = 0; i < 1000; ++i) {
    big.inference_cache()->Put(InferenceCache::KeyFor("m", 1000 + i),
                               InferenceValue{std::string(4096, 'x')});
  }
  EXPECT_NE(small.inference_cache()->Get(key), nullptr);
}

TEST(ServingConfigTest, TenantCacheBudgetMath) {
  ServingConfig config;
  config.tenant_weights = {{"big", 8}, {"small", 1}};
  // Configured tenants split by weight over the configured sum.
  EXPECT_EQ(config.TenantCacheBudget("big", 900000), 800000u);
  EXPECT_EQ(config.TenantCacheBudget("small", 900000), 100000u);
  // Unconfigured tenants compete as weight 1 on top of the sum.
  EXPECT_EQ(config.TenantCacheBudget("other", 900000), 90000u);
  // No weights at all: the sole tenant competes only with itself.
  ServingConfig empty;
  EXPECT_EQ(empty.TenantCacheBudget("t", 500000), 500000u);
  // Zero total stays zero (cache disabled).
  EXPECT_EQ(config.TenantCacheBudget("big", 0), 0u);
  // Tiny shares clamp up to a usable floor instead of disabling.
  EXPECT_EQ(config.TenantCacheBudget("small", 9000), 4096u);
}

// The container may expose a single core; the serving battery needs
// real worker parallelism. Static-init so it lands before the global
// pool's first construction (an explicit override still wins).
const bool kForceWorkers = [] {
  setenv("DEEPLENS_NUM_THREADS", "4", /*overwrite=*/0);
  return true;
}();

}  // namespace
}  // namespace deeplens
