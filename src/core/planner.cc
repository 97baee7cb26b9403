#include "core/planner.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iomanip>
#include <list>
#include <mutex>
#include <numeric>
#include <sstream>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>

#include "common/env.h"
#include "core/cost_model.h"
#include "exec/aggregates.h"
#include "exec/pipeline.h"
#include "exec/scheduler.h"
#include "sim/accuracy.h"
#include "storage/columnar/async_loader.h"
#include "storage/columnar/format.h"

namespace deeplens {

const char* AccessPathName(AccessPath path) {
  switch (path) {
    case AccessPath::kFullScan:
      return "full-scan";
    case AccessPath::kHashLookup:
      return "hash-lookup";
    case AccessPath::kBTreeLookup:
      return "b+tree-lookup";
    case AccessPath::kBTreeRange:
      return "b+tree-range";
    case AccessPath::kColumnarScan:
      return "columnar-scan";
  }
  return "?";
}

const char* SimJoinStrategyName(SimJoinStrategy strategy) {
  switch (strategy) {
    case SimJoinStrategy::kNestedLoop:
      return "nested-loop";
    case SimJoinStrategy::kBallTree:
      return "ball-tree";
    case SimJoinStrategy::kAllPairs:
      return "all-pairs";
  }
  return "?";
}

double CascadeThresholdFromEnv() {
  return BoundedDoubleFromEnv("DEEPLENS_CASCADE_THRESHOLD", /*fallback=*/1.0,
                              /*min_value=*/0.0, /*max_value=*/1.0);
}

uint64_t PlanCacheEntriesFromEnv() {
  return PositiveIntFromEnv("DEEPLENS_PLAN_CACHE_ENTRIES", /*fallback=*/128,
                            /*max_value=*/1u << 20, /*allow_zero=*/true);
}

namespace {

// Reports the NN UDFs a predicate will run per evaluated row — and
// whether the inference cache memoizes them — so Explain() stays honest
// about the plan's compute/cache interaction. Called with the *executed*
// predicate, so the UDF list reflects the order they actually run in
// after any conjunct reordering.
PlanExplanation AnnotateUdfUse(PlanExplanation plan,
                               const ExprPtr& predicate) {
  if (!predicate) return plan;
  predicate->CollectUdfUse(&plan.udfs);
  if (plan.udfs.empty()) return plan;
  bool all_cached = true;
  bool all_persistent = true;
  for (const UdfUse& u : plan.udfs) {
    if (u.cached) {
      plan.uses_inference_cache = true;
    } else {
      all_cached = false;
    }
    if (!u.persistent) all_persistent = false;
  }
  const bool mixed = plan.uses_inference_cache && !all_cached;
  std::string list;
  for (const UdfUse& u : plan.udfs) {
    if (!list.empty()) list += ",";
    list += u.model;
    // Per-model markers only when the models disagree; the trailing
    // clause covers the uniform cases.
    if (mixed) list += u.cached ? "(cached)" : "(uncached)";
  }
  // "persistent" is reported only when every UDF's results survive a
  // restart — memory-vs-disk hit provenance for the run itself lives in
  // CacheStats.
  plan.description +=
      "; nn-udfs per row: " + list +
      (!plan.uses_inference_cache
           ? " (uncached)"
           : !all_cached
                 ? " (partially memoized by inference cache)"
                 : all_persistent
                       ? " (memoized by persistent inference cache)"
                       : " (memoized by inference cache)");

  // Cross-query device batching: report the configured batch shape and,
  // once the cost model has profiled real flushes, the expected
  // amortization (overhead + marginal decomposition).
  uint64_t batch_size = 0;
  for (const UdfUse& u : plan.udfs) {
    batch_size = std::max(batch_size, u.device_batch_size);
  }
  if (batch_size > 0) {
    plan.device_batching.enabled = true;
    plan.device_batching.batch_size = batch_size;
    std::string note = "; device batching: <=" + std::to_string(batch_size) +
                       " patches/invocation";
    for (const UdfUse& u : plan.udfs) {
      if (u.device_batch_size == 0) continue;
      auto est = CostModel::Global()->EstimateBatchCost(u.model);
      if (!est) continue;
      plan.device_batching.overhead_ms = est->overhead_ms;
      plan.device_batching.marginal_ms = est->marginal_ms;
      plan.device_batching.mean_items = est->mean_items;
      plan.device_batching.amortized_speedup = est->amortized_speedup;
      std::ostringstream os;
      os << std::fixed << std::setprecision(3) << " (" << u.model << ": ~"
         << est->overhead_ms << " ms/invocation + " << est->marginal_ms
         << " ms/patch" << std::setprecision(1) << ", ~"
         << est->amortized_speedup << "x amortized at " << est->mean_items
         << " patches/batch)";
      note += os.str();
      break;  // one model's figures suffice; the former is shared
    }
    plan.description += note;
  }
  return plan;
}

// --- Conjunct cost estimation -------------------------------------------

// Base per-row costs (ms) for predicate shapes with no UDFs: a direct
// metadata comparison vs a tree-walked opaque conjunct. Only the relative
// magnitudes matter — any NN UDF dwarfs both.
constexpr double kSargableCostMs = 0.0001;
constexpr double kOpaqueCostMs = 0.0005;
// A cascade's proxy evaluation is not free; below this estimated cost the
// full conjunct is cheap enough that skipping it cannot pay.
constexpr double kCascadeMinCostMs = 0.05;

struct RankedConjunct {
  ExprPtr expr;
  size_t source_index = 0;
  uint64_t shape_fp = 0;
  double cost_ms = 0.0;
  double selectivity = 1.0;
  bool sargable = false;
  std::vector<UdfUse> udfs;
};

RankedConjunct EstimateConjunct(const ExprPtr& c, size_t source_index) {
  RankedConjunct rc;
  rc.expr = c;
  rc.source_index = source_index;
  rc.shape_fp = ConjunctShapeFingerprint(c);
  c->CollectUdfUse(&rc.udfs);
  int op = 0;
  size_t slot = 0;
  std::string key;
  MetaValue value;
  rc.sargable = c->AsAttrCmpLit(&op, &slot, &key, &value);
  // Textbook selectivity priors until observation takes over: equality
  // is the most selective, ranges moderate, opaque trees unknown.
  const double fallback_sel =
      rc.sargable ? (op == 0 ? 0.1 : 0.33) : 0.5;
  rc.cost_ms = rc.sargable ? kSargableCostMs : kOpaqueCostMs;
  CostModel* cm = CostModel::Global();
  for (const UdfUse& u : rc.udfs) {
    rc.cost_ms += cm->ExpectedUdfMs(u.model, u.cache_hit_rate);
  }
  rc.selectivity = cm->Selectivity(rc.shape_fp, fallback_sel);
  return rc;
}

// The classic optimal ordering for independent conjuncts: ascending
// cost / (1 - selectivity), i.e. cost per *eliminated* row. A conjunct
// that passes everything (selectivity → 1) eliminates nothing and sorts
// last however cheap it is. Ties (identical shapes, no observations)
// keep source order via stable_sort, so an unprofiled predicate executes
// exactly as written.
double RankKey(const RankedConjunct& rc) {
  return rc.cost_ms / std::max(1e-6, 1.0 - rc.selectivity);
}

// Shape key of the whole predicate: conjunct shape fingerprints in
// written order plus the cascade threshold (the threshold changes what
// the planner would decide, so plans for different thresholds must not
// alias). FNV-1a over the parts.
uint64_t PredicateShapeKey(const std::vector<RankedConjunct>& conjuncts,
                           double threshold) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const RankedConjunct& c : conjuncts) mix(c.shape_fp);
  uint64_t threshold_bits = 0;
  static_assert(sizeof(threshold_bits) == sizeof(threshold));
  std::memcpy(&threshold_bits, &threshold, sizeof(threshold_bits));
  mix(threshold_bits);
  return h;
}

// --- Plan memoization ----------------------------------------------------

// Expected per-row cost of one model at memoization time; a later lookup
// re-derives the live value and discards the plan when it has drifted
// beyond 2x (the break-even points that picked this order no longer
// hold).
struct UdfCostSnapshot {
  std::string model;
  double expected_ms = 0.0;
};

// One memoized planning decision. Everything needed to rebuild the
// executed predicate from a fresh conjunct decomposition — never the
// expression pointers themselves, which belong to the query that planned.
struct PlanCacheEntry {
  std::vector<size_t> order;    // executed order as source indices
  std::vector<char> cascade;    // per executed position: wrap in cascade?
  AccessPath path = AccessPath::kFullScan;
  std::string index_key;
  std::string base_description;
  bool reordered = false;
  std::vector<UdfCostSnapshot> udf_costs;
};

// Process-global LRU of memoized plans keyed by (view version, predicate
// shape). View versions are never reused (core/database.cc), so stale
// entries can never match; they age out of the LRU instead.
class PlanCache {
 public:
  static PlanCache* Global() {
    // Leaky singleton: queries may plan during static destruction of
    // test fixtures; a destructed cache would be UB, a leaked one is not.
    static PlanCache* cache = new PlanCache();
    return cache;
  }

  bool Lookup(uint64_t version, uint64_t shape, PlanCacheEntry* out) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(Key{version, shape});
    if (it == entries_.end()) return false;
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    *out = it->second.entry;
    return true;
  }

  void RecordHit() {
    std::lock_guard<std::mutex> lock(mu_);
    ++hits_;
  }

  void RecordMiss() {
    std::lock_guard<std::mutex> lock(mu_);
    ++misses_;
  }

  // Drift eviction: the entry is gone and the probe counts as a miss.
  void Invalidate(uint64_t version, uint64_t shape) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(Key{version, shape});
    if (it != entries_.end()) {
      lru_.erase(it->second.lru_pos);
      entries_.erase(it);
    }
    ++invalidations_;
    ++misses_;
  }

  void Insert(uint64_t version, uint64_t shape, PlanCacheEntry entry,
              uint64_t max_entries) {
    std::lock_guard<std::mutex> lock(mu_);
    const Key key{version, shape};
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      it->second.entry = std::move(entry);
      return;
    }
    lru_.push_front(key);
    entries_.emplace(key, Slot{std::move(entry), lru_.begin()});
    while (entries_.size() > max_entries && !lru_.empty()) {
      entries_.erase(lru_.back());
      lru_.pop_back();
    }
  }

  Planner::PlanCacheStats Stats() {
    std::lock_guard<std::mutex> lock(mu_);
    Planner::PlanCacheStats stats;
    stats.hits = hits_;
    stats.misses = misses_;
    stats.invalidations = invalidations_;
    stats.entries = entries_.size();
    return stats;
  }

  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
    lru_.clear();
    hits_ = misses_ = invalidations_ = 0;
  }

 private:
  struct Key {
    uint64_t version = 0;
    uint64_t shape = 0;
    bool operator==(const Key& o) const {
      return version == o.version && shape == o.shape;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return static_cast<size_t>(k.shape ^ (k.version * 0x9e3779b97f4a7c15ull));
    }
  };
  struct Slot {
    PlanCacheEntry entry;
    std::list<Key>::iterator lru_pos;
  };

  std::mutex mu_;
  std::unordered_map<Key, Slot, KeyHash> entries_;
  std::list<Key> lru_;  // front = most recent
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t invalidations_ = 0;
};

// Fresh expected cost of `model` given the hit rates observed in the
// fresh conjunct decomposition (first use of the model wins; a predicate
// runs each model under one cache).
double FreshExpectedMs(const std::string& model,
                       const std::vector<RankedConjunct>& conjuncts) {
  for (const RankedConjunct& rc : conjuncts) {
    for (const UdfUse& u : rc.udfs) {
      if (u.model == model) {
        return CostModel::Global()->ExpectedUdfMs(model, u.cache_hit_rate);
      }
    }
  }
  return CostModel::Global()->ExpectedUdfMs(model, 0.0);
}

// A memoized plan is replayable when it still describes the fresh
// decomposition (permutation of the same conjunct count — the shape key
// all but guarantees this; the check makes cache corruption impossible
// to act on) and no UDF's live expected cost has drifted beyond 2x from
// the memoized snapshot. The absolute floor keeps sub-0.05ms jitter
// (cache warm-up on an already-cheap model) from churning plans that
// would not change anyway.
bool EntryStillValid(const PlanCacheEntry& entry,
                     const std::vector<RankedConjunct>& conjuncts) {
  if (entry.order.size() != conjuncts.size() ||
      entry.cascade.size() != conjuncts.size()) {
    return false;
  }
  std::vector<char> seen(conjuncts.size(), 0);
  for (size_t pos : entry.order) {
    if (pos >= conjuncts.size() || seen[pos]) return false;
    seen[pos] = 1;
  }
  for (const UdfCostSnapshot& snap : entry.udf_costs) {
    const double fresh = FreshExpectedMs(snap.model, conjuncts);
    const double drift = std::fabs(fresh - snap.expected_ms);
    if (drift > 0.05 && (fresh > 2.0 * snap.expected_ms ||
                         fresh < 0.5 * snap.expected_ms)) {
      return false;
    }
  }
  return true;
}

// Access-path selection over the source conjuncts: a disk-backed view
// streams its chunks (it holds no resident rows and no indexes); otherwise
// equality-on-hash, then equality-on-btree, then btree range; only slot-0
// patterns are sargable on a single-view scan. Fills
// path/index_key/description.
void ChooseAccessPath(const ViewCache& view,
                      const std::vector<ExprPtr>& conjuncts,
                      PlanCacheEntry* entry) {
  if (view.disk_backed()) {
    entry->path = AccessPath::kColumnarScan;
    entry->base_description = "columnar chunk scan";
    return;
  }
  entry->path = AccessPath::kFullScan;
  entry->base_description = conjuncts.empty() ? "full scan (no predicate)"
                                              : "full scan (no usable index)";
  for (const ExprPtr& c : conjuncts) {
    auto eq = MatchAttrEqLit(c);
    if (eq.has_value() && eq->slot == 0) {
      if (view.hash_indexes.count(eq->key)) {
        entry->path = AccessPath::kHashLookup;
        entry->index_key = eq->key;
        entry->base_description =
            "hash index lookup on '" + eq->key + "', residual filter";
        return;
      }
      if (view.btree_indexes.count(eq->key)) {
        entry->path = AccessPath::kBTreeLookup;
        entry->index_key = eq->key;
        entry->base_description =
            "b+tree lookup on '" + eq->key + "', residual filter";
        return;
      }
    }
  }
  for (const ExprPtr& c : conjuncts) {
    auto range = MatchAttrRange(c);
    if (range.has_value() && range->slot == 0 &&
        view.btree_indexes.count(range->key)) {
      entry->path = AccessPath::kBTreeRange;
      entry->index_key = range->key;
      entry->base_description =
          "b+tree range scan on '" + range->key + "', residual filter";
      return;
    }
  }
}

// Fresh planning decision: access path + cost-ranked order + cascade
// eligibility per executed position.
PlanCacheEntry DecidePlan(const ViewCache& view,
                          const std::vector<RankedConjunct>& conjuncts,
                          double threshold) {
  PlanCacheEntry entry;
  std::vector<ExprPtr> source;
  source.reserve(conjuncts.size());
  for (const RankedConjunct& rc : conjuncts) source.push_back(rc.expr);
  ChooseAccessPath(view, source, &entry);

  entry.order.resize(conjuncts.size());
  std::iota(entry.order.begin(), entry.order.end(), size_t{0});
  std::stable_sort(entry.order.begin(), entry.order.end(),
                   [&](size_t a, size_t b) {
                     return RankKey(conjuncts[a]) < RankKey(conjuncts[b]);
                   });
  for (size_t i = 0; i < entry.order.size(); ++i) {
    entry.reordered = entry.reordered || entry.order[i] != i;
  }

  entry.cascade.assign(conjuncts.size(), 0);
  if (threshold < 1.0) {
    for (size_t i = 0; i < entry.order.size(); ++i) {
      const RankedConjunct& rc = conjuncts[entry.order[i]];
      if (rc.expr->has_proxy() && rc.cost_ms >= kCascadeMinCostMs) {
        entry.cascade[i] = 1;
      }
    }
  }

  std::unordered_set<std::string> snapped;
  for (const RankedConjunct& rc : conjuncts) {
    for (const UdfUse& u : rc.udfs) {
      if (!snapped.insert(u.model).second) continue;
      entry.udf_costs.push_back(UdfCostSnapshot{
          u.model,
          CostModel::Global()->ExpectedUdfMs(u.model, u.cache_hit_rate)});
    }
  }
  return entry;
}

// The per-query half of a columnar plan: the sargable conjuncts of the
// executed predicate pushed into the reader (run during decode, below the
// expression layer), the residual of its other conjuncts in ranked
// order, the chunks whose footer zone maps admit the pushdown (known
// before any I/O) and the static scan stats. Returns the description's
// prune clause.
std::string PlanColumnarScan(const ViewCache& view, ScanPlan* plan) {
  plan->pushdown = columnar::ExtractPushdown(plan->exec_predicate);
  plan->chunks = view.columnar->SelectChunks(plan->pushdown.preds);
  ColumnarScanStats& stats = plan->explanation.columnar;
  stats.used = true;
  stats.chunks_total = view.columnar->num_chunks();
  stats.chunks_pruned = stats.chunks_total - plan->chunks.size();
  stats.sargable_conjuncts = plan->pushdown.preds.size();
  stats.fully_sargable = plan->pushdown.residual == nullptr;
  stats.prefetch_depth = columnar::PrefetchDepthFromEnv();
  plan->explanation.candidates = view.columnar->total_rows();
  std::ostringstream desc;
  desc << ": zone maps pruned " << stats.chunks_pruned << "/"
       << stats.chunks_total << " chunks, " << stats.sargable_conjuncts
       << " pushed conjunct(s)";
  if (plan->exec_predicate != nullptr) {
    desc << (stats.fully_sargable ? " (fully sargable)"
                                  : " + residual filter");
  }
  desc << ", prefetch depth " << stats.prefetch_depth;
  return desc.str();
}

// Realizes a planning decision (fresh or replayed) against the fresh
// conjunct decomposition: builds the executed predicate and the full
// explanation.
ScanPlan BuildScanPlan(const ViewCache& view, const ExprPtr& predicate,
                       const std::vector<RankedConjunct>& conjuncts,
                       const PlanCacheEntry& entry, double threshold,
                       bool from_cache) {
  ScanPlan plan;
  PlanExplanation& ex = plan.explanation;
  ex.path = entry.path;
  ex.index_key = entry.index_key;
  ex.reordered = entry.reordered;
  ex.plan_cache_hit = from_cache;
  ex.cascade.threshold = threshold;

  bool any_cascade = false;
  for (char c : entry.cascade) any_cascade = any_cascade || c != 0;
  if (any_cascade) plan.telemetry = std::make_shared<CascadeTelemetry>();

  std::ostringstream costs;
  costs << std::scientific << std::setprecision(2);
  ExprPtr exec;
  std::string cascaded_texts;
  for (size_t i = 0; i < entry.order.size(); ++i) {
    const RankedConjunct& rc = conjuncts[entry.order[i]];
    ConjunctCost cc;
    cc.text = rc.expr->ToString();
    cc.source_index = rc.source_index;
    cc.cost_ms = rc.cost_ms;
    cc.selectivity = rc.selectivity;
    cc.sargable = rc.sargable;
    cc.cascade = entry.cascade[i] != 0;
    for (const UdfUse& u : rc.udfs) cc.udfs.push_back(u.model);
    ex.conjunct_costs.push_back(cc);

    if (i > 0) costs << ", ";
    costs << cc.text << " cost=" << cc.cost_ms << "ms sel=" << std::fixed
          << std::setprecision(2) << cc.selectivity << std::scientific
          << std::setprecision(2);

    ExprPtr c = rc.expr;
    if (entry.cascade[i] != 0) {
      if (!cascaded_texts.empty()) cascaded_texts += ", ";
      cascaded_texts += cc.text;
      c = MakeCascade(c, threshold, plan.telemetry);
    }
    exec = exec ? And(std::move(exec), std::move(c)) : std::move(c);
  }
  // Nothing changed → execute the predicate exactly as written (same
  // tree, same short-circuit error order).
  plan.exec_predicate =
      (!entry.reordered && !any_cascade) ? predicate : exec;

  ex.description = entry.base_description;
  if (entry.path == AccessPath::kColumnarScan) {
    ex.description += PlanColumnarScan(view, &plan);
  }

  if (!ex.conjunct_costs.empty()) {
    ex.description += "; conjunct costs [" + costs.str() + "]";
  }
  if (entry.reordered) {
    ex.description += "; conjuncts reordered by cost-per-eliminated-row";
  }
  if (any_cascade) {
    ex.cascade.used = true;
    ex.cascade.conjuncts = cascaded_texts;
    std::ostringstream t;
    t << std::fixed << std::setprecision(2) << threshold;
    ex.description += "; proxy cascade on [" + cascaded_texts +
                      "] at confidence >= " + t.str();
  }
  if (from_cache) {
    ex.description +=
        "; plan cache hit (view v" + std::to_string(view.version) + ")";
  }
  ex = AnnotateUdfUse(std::move(ex), plan.exec_predicate);
  return plan;
}

}  // namespace

ScanPlan Planner::PlanScan(const ViewCache& view, const ExprPtr& predicate) {
  std::vector<ExprPtr> source;
  CollectConjuncts(predicate, &source);
  std::vector<RankedConjunct> conjuncts;
  conjuncts.reserve(source.size());
  for (size_t i = 0; i < source.size(); ++i) {
    conjuncts.push_back(EstimateConjunct(source[i], i));
  }

  const double threshold = CascadeThresholdFromEnv();
  const uint64_t max_entries = PlanCacheEntriesFromEnv();
  // Hand-built ViewCaches (version 0) have no invalidation signal, so
  // their plans are never memoized; nor is a scan with no predicate,
  // which leaves nothing to decide.
  const bool memoizable =
      predicate != nullptr && view.version != 0 && max_entries > 0;
  const uint64_t shape = PredicateShapeKey(conjuncts, threshold);

  PlanCache* cache = PlanCache::Global();
  if (memoizable) {
    PlanCacheEntry cached;
    if (cache->Lookup(view.version, shape, &cached)) {
      if (EntryStillValid(cached, conjuncts)) {
        cache->RecordHit();
        return BuildScanPlan(view, predicate, conjuncts, cached, threshold,
                             /*from_cache=*/true);
      }
      cache->Invalidate(view.version, shape);
    } else {
      cache->RecordMiss();
    }
  }

  PlanCacheEntry entry = DecidePlan(view, conjuncts, threshold);
  if (memoizable) {
    cache->Insert(view.version, shape, entry, max_entries);
  }
  return BuildScanPlan(view, predicate, conjuncts, entry, threshold,
                       /*from_cache=*/false);
}

void Planner::FinalizeScanPlan(ScanPlan* plan) {
  if (plan->telemetry == nullptr) return;
  const CascadeTelemetry& tel = *plan->telemetry;
  CascadeReport& report = plan->explanation.cascade;
  report.proxy_evals = tel.proxy_evals.load(std::memory_order_relaxed);
  report.proxy_skips = tel.proxy_skips.load(std::memory_order_relaxed);
  report.full_evals = tel.full_evals.load(std::memory_order_relaxed);
  report.audits = tel.audits.load(std::memory_order_relaxed);
  report.audit_overturns =
      tel.audit_overturns.load(std::memory_order_relaxed);
  const sim::PrecisionRecall pr = sim::EstimateCascadeAccuracy(
      tel.passes.load(std::memory_order_relaxed), report.proxy_skips,
      report.audits, report.audit_overturns);
  report.est_precision = pr.precision();
  report.est_recall = pr.recall();
}

Planner::PlanCacheStats Planner::GetPlanCacheStats() {
  return PlanCache::Global()->Stats();
}

void Planner::ResetPlanCacheForTest() { PlanCache::Global()->Reset(); }

namespace {

// Fetches the candidate row ids for an index-backed plan; returns false
// when the plan is a full scan (no index consulted). Matches against the
// *source* predicate — the index conjunct's position in the executed
// order is irrelevant to which rows the index returns.
//
// A B+tree plan folds every slot-0 range or equality conjunct on the
// index key into one [max lo, min hi] probe over the encoded keys, so the
// candidates are the intersection of what each conjunct alone would
// fetch; strict bounds widen to inclusive ones and the compiled predicate
// re-checks every candidate. A NaN literal never narrows a probe (it
// compares equal to every number): with no other bound on the key the
// plan falls back to a full scan, recorded in `plan`. So does a probe of
// an index holding a stored NaN key, which no probe would find.
bool CollectIndexCandidates(const ViewCache& view, const ExprPtr& predicate,
                            PlanExplanation* plan,
                            std::vector<RowId>* candidates) {
  if (plan->path != AccessPath::kHashLookup &&
      plan->path != AccessPath::kBTreeLookup &&
      plan->path != AccessPath::kBTreeRange) {
    return false;
  }
  if (view.nan_index_keys.count(plan->index_key) != 0) {
    plan->path = AccessPath::kFullScan;
    plan->description += "; index holds a NaN key, full scan";
    return false;
  }
  std::vector<ExprPtr> conjuncts;
  CollectConjuncts(predicate, &conjuncts);
  bool probed = false;
  if (plan->path == AccessPath::kHashLookup) {
    for (const ExprPtr& c : conjuncts) {
      auto eq = MatchAttrEqLit(c);
      if (!eq.has_value() || eq->slot != 0 || eq->key != plan->index_key ||
          IsUnorderedValue(eq->value)) {
        continue;
      }
      view.hash_indexes.at(plan->index_key)
          .Lookup(Slice(eq->value.ToIndexKey()), candidates);
      probed = true;
      break;
    }
  } else {
    std::optional<std::string> lo;
    std::optional<std::string> hi;
    for (const ExprPtr& c : conjuncts) {
      auto range = MatchAttrRange(c);
      if (!range.has_value() || range->slot != 0 ||
          range->key != plan->index_key) {
        continue;
      }
      if (range->lo.has_value() && !IsUnorderedValue(*range->lo)) {
        std::string key = range->lo->ToIndexKey();
        if (!lo.has_value() || key > *lo) lo = std::move(key);
      }
      if (range->hi.has_value() && !IsUnorderedValue(*range->hi)) {
        std::string key = range->hi->ToIndexKey();
        if (!hi.has_value() || key < *hi) hi = std::move(key);
      }
    }
    probed = lo.has_value() || hi.has_value();
    if (probed) {
      const BPlusTree& tree = view.btree_indexes.at(plan->index_key);
      const Slice from = lo.has_value() ? Slice(*lo) : Slice();
      if (hi.has_value()) {
        tree.RangeScan(from, Slice(*hi), candidates);
      } else {
        tree.ScanFrom(from, candidates);
      }
    }
  }
  if (!probed) {
    plan->path = AccessPath::kFullScan;
    plan->description += "; index not probed (NaN literal), full scan";
  }
  return probed;
}

// Streams the zone-map-surviving chunks of a disk-backed view through the
// decode-ahead loader and hands every passing row to `row_fn`
// (Patch&& argument). The pushed conjuncts are applied inside the reader
// during decode (the same early-elimination the index paths perform);
// the executed predicate's other conjuncts (ranked, possibly cascaded)
// run over the materialized rows. Fills the runtime half of
// `plan->explanation.columnar` from the loader's counters.
template <typename RowFn>
Status DriveColumnarScan(const ViewCache& view, ScanPlan* plan,
                         const RowFn& row_fn) {
  columnar::ChunkReadOptions options;
  options.row_filter = plan->pushdown.preds;
  // A fully sargable plan has a null residual, which compiles to
  // always-true: no per-row check above the reader.
  const CompiledPredicate residual(plan->pushdown.residual);

  columnar::AsyncChunkLoader loader(view.columnar, plan->chunks,
                                    std::move(options));
  while (true) {
    DL_ASSIGN_OR_RETURN(auto rows, loader.Next());
    if (!rows.has_value()) break;
    for (Patch& p : *rows) {
      if (!residual.always_true()) {
        DL_ASSIGN_OR_RETURN(bool pass, residual.EvalOnePatch(p));
        if (!pass) continue;
      }
      row_fn(std::move(p));
    }
  }

  const columnar::PrefetchStats pf = loader.stats();
  ColumnarScanStats& stats = plan->explanation.columnar;
  stats.chunks_read = pf.chunks_loaded;
  stats.rows_decoded = pf.rows_loaded;
  stats.bytes_decoded = pf.bytes_decoded;
  stats.prefetch_depth = pf.depth;
  stats.prefetch_peak_bytes = pf.peak_queued_bytes;
  stats.consumer_waits = pf.consumer_waits;
  stats.budget_waits = pf.budget_waits;
  plan->explanation.candidates = pf.rows_loaded;  // before the residual
  return Status::OK();
}

// The aggregate fold over a disk-backed view whose pushdown alone decides
// membership: each zone-map-surviving chunk is filtered and counted per
// value of `key` straight off its encoded columns
// (ColumnarReader::FoldChunk), with no Patch rows and no loader queue.
// The chunks fold in parallel through RunTasks, under the caller's
// SchedulingContext, each into its own slot; the slots then merge in
// chunk order, stopping at the first failed chunk, so groups, stats and
// the error match a serial loop. `fold_fn` gets (key value, rows) per
// group; a null `key` gives one null group per chunk. Fills the runtime
// half of the columnar stats.
template <typename FoldFn>
Status FoldColumnarScan(const ViewCache& view, const std::string* key,
                        ScanPlan* plan, const FoldFn& fold_fn) {
  const std::vector<size_t>& chunks = plan->chunks;
  std::vector<Result<columnar::ChunkFold>> folds(chunks.size(),
                                                 columnar::ChunkFold{});
  RunTasks(chunks.size(), [&](size_t i) {
    folds[i] = view.columnar->FoldChunk(chunks[i], plan->pushdown.preds, key);
  });
  ColumnarScanStats& stats = plan->explanation.columnar;
  for (Result<columnar::ChunkFold>& fold : folds) {
    DL_ASSIGN_OR_RETURN(columnar::ChunkFold chunk, std::move(fold));
    ++stats.chunks_read;
    stats.rows_decoded += chunk.rows;
    stats.bytes_decoded += chunk.bytes_decoded;
    for (const columnar::KeyCount& group : chunk.keys) {
      fold_fn(group.value, group.rows);
    }
  }
  plan->explanation.candidates = stats.rows_decoded;
  return Status::OK();
}

// The one scan loop every terminal runs on. Plans the scan, then:
// columnar plans whose pushdown covers the predicate fold each chunk's
// per-key counts via `fold` (no rows built), other columnar plans
// accumulate the streamed chunk rows (moved, not copied); index-backed
// plans accumulate the candidates that pass the executed predicate; full
// scans delegate to `full_scan`, a pre-merge parallel run over the
// *executed* (reordered/cascaded) predicate it receives as its argument.
// `accumulate` is (State*, Patch&&) — a `const Patch&` parameter binds it
// too; `fold` is (State*, const MetaValue& value of `fold_key`, uint64_t
// rows), or nullptr for a terminal that needs whole rows; `finalize` is
// State -> Result<Out>, `full_scan` is (const ExprPtr&) -> Result<Out>.
// Cascade telemetry reaches the explanation on every path.
template <typename State, typename AccumulateFn, typename FoldFn,
          typename FinalizeFn, typename FullScanFn>
auto ExecuteAggregateScan(const ViewCache& view, const ExprPtr& predicate,
                          PlanExplanation* explanation,
                          [[maybe_unused]] const std::string* fold_key,
                          State state, const AccumulateFn& accumulate,
                          [[maybe_unused]] const FoldFn& fold,
                          const FinalizeFn& finalize,
                          const FullScanFn& full_scan)
    -> decltype(full_scan(predicate)) {
  ScanPlan plan = Planner::PlanScan(view, predicate);
  PlanExplanation& local = plan.explanation;
  auto result = [&]() -> decltype(full_scan(predicate)) {
    if (local.path == AccessPath::kColumnarScan) {
      if constexpr (!std::is_null_pointer_v<FoldFn>) {
        if (local.columnar.fully_sargable) {
          DL_RETURN_NOT_OK(FoldColumnarScan(
              view, fold_key, &plan,
              [&](const MetaValue& value, uint64_t rows) {
                fold(&state, value, rows);
              }));
          return finalize(std::move(state));
        }
      }
      DL_RETURN_NOT_OK(DriveColumnarScan(view, &plan, [&](Patch&& p) {
        accumulate(&state, std::move(p));
      }));
      return finalize(std::move(state));
    }
    std::vector<RowId> candidates;
    if (CollectIndexCandidates(view, predicate, &local, &candidates)) {
      local.candidates = candidates.size();
      const CompiledPredicate compiled(plan.exec_predicate);
      for (RowId r : candidates) {
        const Patch& p = view.patches[static_cast<size_t>(r)];
        DL_ASSIGN_OR_RETURN(bool pass, compiled.EvalOnePatch(p));
        if (pass) accumulate(&state, p);
      }
      return finalize(std::move(state));
    }
    local.candidates = view.patches.size();
    return full_scan(plan.exec_predicate);
  }();
  Planner::FinalizeScanPlan(&plan);
  if (explanation != nullptr) *explanation = local;
  return result;
}

}  // namespace

Result<PatchCollection> Planner::ExecuteScan(const ViewCache& view,
                                             const ExprPtr& predicate,
                                             PlanExplanation* explanation) {
  return ExecuteAggregateScan(
      view, predicate, explanation, /*fold_key=*/nullptr, PatchCollection{},
      [](PatchCollection* out, Patch p) { out->push_back(std::move(p)); },
      /*fold=*/nullptr,
      [](PatchCollection out) {
        return Result<PatchCollection>(std::move(out));
      },
      [&](const ExprPtr& pred) { return ParallelSelect(view.patches, pred); });
}

Result<uint64_t> Planner::ExecuteScanCount(const ViewCache& view,
                                           const ExprPtr& predicate,
                                           PlanExplanation* explanation) {
  return ExecuteAggregateScan(
      view, predicate, explanation, /*fold_key=*/nullptr, uint64_t{0},
      [](uint64_t* count, const Patch&) { ++*count; },
      [](uint64_t* count, const MetaValue&, uint64_t rows) { *count += rows; },
      [](uint64_t count) -> Result<uint64_t> { return count; },
      [&](const ExprPtr& pred) { return ParallelCount(view.patches, pred); });
}

Result<uint64_t> Planner::ExecuteScanCountDistinct(
    const ViewCache& view, const std::string& key, const ExprPtr& predicate,
    PlanExplanation* explanation) {
  return ExecuteAggregateScan(
      view, predicate, explanation, &key, std::unordered_set<std::string>{},
      [&](std::unordered_set<std::string>* seen, const Patch& p) {
        seen->insert(p.meta().Get(key).ToIndexKey());
      },
      [](std::unordered_set<std::string>* seen, const MetaValue& value,
         uint64_t) { seen->insert(value.ToIndexKey()); },
      [](std::unordered_set<std::string> seen) -> Result<uint64_t> {
        return static_cast<uint64_t>(seen.size());
      },
      [&](const ExprPtr& pred) {
        return ParallelCountDistinctKey(view.patches, key, pred);
      });
}

Result<std::map<std::string, uint64_t>> Planner::ExecuteScanGroupCount(
    const ViewCache& view, const std::string& key, const ExprPtr& predicate,
    PlanExplanation* explanation) {
  using Groups = std::map<std::string, uint64_t>;
  return ExecuteAggregateScan(
      view, predicate, explanation, &key, Groups{},
      [&](Groups* groups, const Patch& p) {
        ++(*groups)[p.meta().Get(key).ToDisplayString()];
      },
      [](Groups* groups, const MetaValue& value, uint64_t rows) {
        (*groups)[value.ToDisplayString()] += rows;
      },
      [](Groups groups) -> Result<Groups> { return groups; },
      [&](const ExprPtr& pred) {
        return ParallelGroupByCount(view.patches, key, pred);
      });
}

Result<std::optional<Patch>> Planner::ExecuteScanMinBy(
    const ViewCache& view, const std::string& order_key,
    const ExprPtr& predicate, PlanExplanation* explanation) {
  using Best = std::optional<Patch>;
  // MinBy returns the whole winning patch, so it needs full row content.
  return ExecuteAggregateScan(
      view, predicate, explanation, /*fold_key=*/nullptr, Best{},
      [&](Best* best, const Patch& p) {
        if (!best->has_value() ||
            p.meta().Get(order_key).Compare(
                (*best)->meta().Get(order_key)) < 0) {
          *best = p;
        }
      },
      /*fold=*/nullptr,
      [](Best best) -> Result<Best> { return best; },
      [&](const ExprPtr& pred) {
        return ParallelMinBy(view.patches, order_key, pred);
      });
}

PlanExplanation Planner::ExplainJoin(const std::string& key,
                                     const ExprPtr& residual,
                                     const JoinStats& stats) {
  PlanExplanation plan;
  plan.index_key = key;
  plan.candidates = stats.pairs_examined;
  std::ostringstream desc;
  desc << std::fixed << std::setprecision(2);
  desc << "radix hash join on '" << key << "': " << stats.partitions_used
       << " partitions, max skew " << stats.max_partition_skew
       << "x; phase ms partition=" << stats.partition_millis
       << " build=" << stats.index_build_millis
       << " probe=" << stats.probe_millis
       << " merge=" << stats.merge_millis;
  plan.description = desc.str();
  return AnnotateUdfUse(std::move(plan), residual);
}

double Planner::EstimateSimJoinCost(SimJoinStrategy strategy,
                                    size_t left_size, size_t right_size,
                                    size_t dim, size_t workers) {
  const double n = static_cast<double>(left_size);
  const double m = static_cast<double>(right_size);
  const double d = static_cast<double>(dim);
  const double w = static_cast<double>(std::max<size_t>(1, workers));
  switch (strategy) {
    case SimJoinStrategy::kNestedLoop:
      // Every pair pays a full distance plus iterator overhead; the outer
      // loop is morsel-parallel.
      return n * m * (d + 8.0) / w;
    case SimJoinStrategy::kBallTree: {
      // Build: a fixed setup constant plus m log m centroid work; probe:
      // n log m with an effectiveness factor that degrades with
      // dimensionality (the curse of dimensionality behind Figure 7's
      // non-linearity). Build and probe both run on pool workers (the
      // build parallelizes over subtrees), so they scale with w; only the
      // setup constant doesn't.
      const double logm = std::log2(std::max(2.0, m));
      const double prune = std::min(1.0, 0.15 + d / 96.0);
      return 2e3 + (m * logm * d + n * (logm + prune * m) * d * 0.5) / w;
    }
    case SimJoinStrategy::kAllPairs:
      // Dense kernel: great constants, quadratic growth. Device-bound,
      // not pool-bound — extra pool workers don't help it.
      return n * m * d * 0.25 + 5e4;  // fixed launch/setup overhead
  }
  return 0.0;
}

SimJoinStrategy Planner::ChooseSimilarityJoin(size_t left_size,
                                              size_t right_size, size_t dim,
                                              bool gpu_available,
                                              size_t workers) {
  SimJoinStrategy best = SimJoinStrategy::kNestedLoop;
  double best_cost =
      EstimateSimJoinCost(best, left_size, right_size, dim, workers);
  for (SimJoinStrategy s :
       {SimJoinStrategy::kBallTree, SimJoinStrategy::kAllPairs}) {
    double cost = EstimateSimJoinCost(s, left_size, right_size, dim, workers);
    // A GPU discounts the dense kernel but not tree traversal.
    if (s == SimJoinStrategy::kAllPairs && gpu_available) cost *= 0.3;
    if (cost < best_cost) {
      best_cost = cost;
      best = s;
    }
  }
  return best;
}

}  // namespace deeplens
