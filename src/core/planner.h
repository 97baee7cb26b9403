// Rule/cost-based physical planning (paper §5 "Future Work: Visual Query
// Optimizer" — prototyped here): selects access paths from available
// indexes, reorders AND conjuncts by observed cost-per-surviving-row so
// cheap/cached predicates run before expensive models, inserts
// proxy-model cascades around expensive UDF conjuncts, memoizes plan
// decisions per (view version, predicate shape), picks similarity-join
// strategies from relation sizes and dimensionality, and exposes its
// reasoning via PlanExplanation so benchmarks can report which plan ran.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/database.h"
#include "exec/expression_patterns.h"
#include "exec/joins.h"
#include "exec/nn_udf.h"
#include "storage/columnar/format.h"

namespace deeplens {

/// Physical access path for a filtered view scan.
enum class AccessPath {
  kFullScan = 0,
  kHashLookup = 1,
  kBTreeLookup = 2,
  kBTreeRange = 3,
  kColumnarScan = 4,  // disk-backed view: zone-map pruned chunk stream
};

const char* AccessPathName(AccessPath path);

/// Execution report of a columnar chunk scan: how much the zone maps
/// pruned without I/O, what the decode-ahead loader actually did, and how
/// far the pushdown reached. Static fields (totals, pruned count, depth)
/// are known at plan time — per query, since they follow the literals —
/// and the runtime counters fill in after execution.
struct ColumnarScanStats {
  bool used = false;
  uint64_t chunks_total = 0;
  uint64_t chunks_pruned = 0;       // zone-map rejected: never read/decoded
  uint64_t chunks_read = 0;
  uint64_t rows_decoded = 0;        // surviving the pushed row filter
  uint64_t bytes_decoded = 0;       // ApproxPatchBytes over decoded rows;
                                    // an aggregate fold charges the column
                                    // buffers it decoded instead
  size_t sargable_conjuncts = 0;    // conjuncts pushed into the reader
  bool fully_sargable = false;      // row filter alone decides membership
  size_t prefetch_depth = 0;        // resolved DEEPLENS_PREFETCH_DEPTH
  uint64_t prefetch_peak_bytes = 0; // high-water mark of the decode queue
  uint64_t consumer_waits = 0;      // consumer stalled on an empty queue
  uint64_t budget_waits = 0;        // worker stalled on depth/byte budget
};

/// Cost-model estimate for one AND conjunct, reported in *executed*
/// order (after any reordering).
struct ConjunctCost {
  std::string text;           // conjunct expression, as executed
  size_t source_index = 0;    // position in the predicate as written
  double cost_ms = 0.0;       // estimated per-row evaluation cost
  double selectivity = 1.0;   // estimated pass fraction
  bool sargable = false;      // attr-vs-literal shape
  bool cascade = false;       // wrapped in a proxy cascade
  std::vector<std::string> udfs;  // models this conjunct runs per row
};

/// Execution report of the proxy cascades a plan inserted (exec/nn_udf.h).
/// Static fields are known at plan time; the row counters fill in after
/// execution. Precision/recall are the audit-slice estimate from
/// sim::EstimateCascadeAccuracy — precision is 1.0 by construction (the
/// cascade only ever *rejects* on the proxy; every emitted row was
/// confirmed by the full model).
struct CascadeReport {
  bool used = false;
  double threshold = 1.0;      // resolved DEEPLENS_CASCADE_THRESHOLD
  std::string conjuncts;       // which conjunct(s) were cascaded
  uint64_t proxy_evals = 0;    // rows where the proxy had an opinion
  uint64_t proxy_skips = 0;    // full-model evaluations avoided
  uint64_t full_evals = 0;     // rows that ran the full conjunct
  uint64_t audits = 0;         // would-be skips run in full as an audit
  uint64_t audit_overturns = 0;  // audits where the full model disagreed
  double est_precision = 1.0;
  double est_recall = 1.0;
};

/// What the planner decided and why.
struct PlanExplanation {
  AccessPath path = AccessPath::kFullScan;
  std::string index_key;
  std::string description;
  uint64_t candidates = 0;  // tuples fetched before residual filtering
  /// NN UDFs the predicate runs per evaluated row, in conjunct order,
  /// each flagged with whether an InferenceCache memoizes it — so
  /// Explain() reports the plan's expected cache interaction honestly.
  std::vector<UdfUse> udfs;
  /// True when at least one UDF will be served by the inference cache.
  bool uses_inference_cache = false;
  /// Filled when `path` is kColumnarScan (disk-backed view).
  ColumnarScanStats columnar;
  /// Per-conjunct cost estimates in executed order; empty only when the
  /// scan has no predicate.
  std::vector<ConjunctCost> conjunct_costs;
  /// True when the executed conjunct order differs from the written one.
  bool reordered = false;
  /// Proxy-cascade decisions and (post-execution) accuracy accounting.
  CascadeReport cascade;
  /// True when this plan was replayed from the plan cache instead of
  /// being re-derived.
  bool plan_cache_hit = false;
  /// Fair-share class the query runs under ("tenant 'dash' weight 4");
  /// filled by Session::Explain, empty for plain Query::Explain.
  std::string scheduling_class;
  /// Inferences the serving layer deduplicated by joining an identical
  /// in-flight computation (database-wide running total; filled by
  /// Session::Explain).
  uint64_t inflight_dedup_hits = 0;
  /// Cross-query device batching (exec/batch_former.h). `enabled` is set
  /// when any UDF in this plan stages misses into the former; the cost
  /// figures come from the cost model's batch profile and stay zero
  /// until a batch has been profiled.
  struct DeviceBatchingInfo {
    bool enabled = false;
    uint64_t batch_size = 0;       // configured DEEPLENS_DEVICE_BATCH_SIZE
    double overhead_ms = 0.0;      // fixed per-invocation cost
    double marginal_ms = 0.0;      // per-patch marginal cost
    double mean_items = 0.0;       // observed batch occupancy
    double amortized_speedup = 0.0;  // single-item / per-patch batched
  };
  DeviceBatchingInfo device_batching;
  /// Whole-batch device invocations the former has flushed and the
  /// patches they covered (database-wide running totals; filled by
  /// Session::Explain).
  uint64_t device_batches_formed = 0;
  uint64_t device_batched_patches = 0;
};

/// Similarity-join strategies (paper §5/§7.4).
enum class SimJoinStrategy {
  kNestedLoop = 0,  // baseline
  kBallTree = 1,    // on-the-fly index join
  kAllPairs = 2,    // dense device kernel (GPU/AVX)
};

const char* SimJoinStrategyName(SimJoinStrategy strategy);

/// Resolved DEEPLENS_CASCADE_THRESHOLD: minimum proxy-reject confidence
/// at which the planner's cascades skip the full model, in [0, 1].
/// 1.0 (the default) disables cascades entirely — results are then
/// byte-identical to the exact plan.
double CascadeThresholdFromEnv();

/// Resolved DEEPLENS_PLAN_CACHE_ENTRIES: LRU capacity of the memoized
/// plan cache. 0 disables memoization. Default 128.
uint64_t PlanCacheEntriesFromEnv();

/// A fully planned scan: the explanation plus the predicate to actually
/// execute (conjuncts reordered by estimated cost-per-surviving-row,
/// expensive proxy-capable conjuncts optionally wrapped in cascades).
/// Resident and disk-backed views plan alike; a disk-backed view's plan
/// also carries the reader pushdown and the chunks it keeps.
/// Reordering never changes the result set — AND is commutative and both
/// the index path and the morsel driver's ordered merge preserve source
/// row order — though when several conjuncts would *error* on the same
/// row, which error surfaces first follows the executed order.
struct ScanPlan {
  PlanExplanation explanation;
  /// Predicate to evaluate (null when the scan has none). Equals the
  /// source predicate when the optimizer changed nothing.
  ExprPtr exec_predicate;
  /// Shared counters of every cascade in exec_predicate; null when no
  /// cascade was inserted. Execution fills them; FinalizeScanPlan copies
  /// them into the explanation.
  std::shared_ptr<CascadeTelemetry> telemetry;
  /// Disk-backed views only: exec_predicate split into the sargable
  /// conjuncts pushed into the chunk reader and the residual that runs
  /// above it, and the chunks (in order) whose zone maps admit the
  /// pushdown. They depend on the literals, so they are computed per
  /// query, also when the rest of the plan is replayed from the plan
  /// cache.
  columnar::PredicatePushdown pushdown;
  std::vector<size_t> chunks;
};

/// \brief The planner. Its only state is the process-wide memoized-plan
/// cache (and the CostModel it reads); every other input is explicit.
class Planner {
 public:
  /// Plans a scan of `view`: access path (a disk-backed view streams its
  /// chunks; a resident one picks from the indexes that exist on it) +
  /// cost-ranked conjunct order + cascade insertion + plan memoization.
  /// Plans for Database-registered views (version != 0) are memoized per
  /// (view version, predicate shape, cascade threshold) and replayed until
  /// the view changes or a UDF's observed runtime drifts beyond 2x from
  /// the memoized snapshot.
  static ScanPlan PlanScan(const ViewCache& view, const ExprPtr& predicate);

  /// Copies a finished scan's cascade telemetry into its explanation and
  /// computes the audit-slice accuracy estimate.
  static void FinalizeScanPlan(ScanPlan* plan);

  /// Observability for the memoized-plan cache (process-wide totals).
  struct PlanCacheStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t invalidations = 0;  // drift-evicted entries
    uint64_t entries = 0;        // currently resident
  };
  static PlanCacheStats GetPlanCacheStats();

  /// Drops all memoized plans and zeroes the stats (test isolation).
  static void ResetPlanCacheForTest();

  // --- Scan terminals ----------------------------------------------------
  // Every terminal runs on one scan loop over the plan: index-driven plans
  // reduce the candidate rows that pass the executed predicate, full scans
  // run the reduction below the morsel pipeline's ordered merge
  // (exec/aggregates.h), and columnar scans reduce the rows the chunk
  // loader streams, with the executed predicate's unpushed conjuncts as
  // the residual above the reader. Count / CountDistinct / GroupCount
  // over an attached view whose pushdown covers the predicate fold each
  // chunk off its encoded columns (ColumnarReader::FoldChunk), the chunks
  // in parallel on the morsel pool and merged in chunk order, so no path
  // materializes the surviving patches just to reduce them.

  /// The matching patches, in row order.
  static Result<PatchCollection> ExecuteScan(const ViewCache& view,
                                             const ExprPtr& predicate,
                                             PlanExplanation* explanation);

  /// COUNT(*) of the rows matching `predicate`.
  static Result<uint64_t> ExecuteScanCount(const ViewCache& view,
                                           const ExprPtr& predicate,
                                           PlanExplanation* explanation);

  /// COUNT(DISTINCT key) of the rows matching `predicate`.
  static Result<uint64_t> ExecuteScanCountDistinct(
      const ViewCache& view, const std::string& key, const ExprPtr& predicate,
      PlanExplanation* explanation);

  /// Group-by `key` → count of the rows matching `predicate`.
  static Result<std::map<std::string, uint64_t>> ExecuteScanGroupCount(
      const ViewCache& view, const std::string& key, const ExprPtr& predicate,
      PlanExplanation* explanation);

  /// Earliest matching row with the minimal `order_key` value (the
  /// Query::FirstBy argmin).
  static Result<std::optional<Patch>> ExecuteScanMinBy(
      const ViewCache& view, const std::string& order_key,
      const ExprPtr& predicate, PlanExplanation* explanation);

  /// Explains an executed equality join from its stats: the radix
  /// core's per-phase timing breakdown, partition fan-out and skew — with
  /// the residual's NN-UDF/cache usage annotated like every other plan.
  /// Lets benchmarks and queries report *why* a parallel join was fast or
  /// slow without rebuilding the bench.
  static PlanExplanation ExplainJoin(const std::string& key,
                                     const ExprPtr& residual,
                                     const JoinStats& stats);

  /// Cost-model choice of similarity-join strategy. The Ball-Tree wins
  /// when the indexed side is large and dimensionality moderate; dense
  /// all-pairs wins on small inputs (index build overhead) or on a GPU
  /// with very large batches (paper §7.4.1-2: non-linear, data-dependent
  /// costs make this genuinely hard).
  /// `workers` discounts the pool-parallel strategies (tree build and
  /// probe are both morsel-parallel now; the dense device kernel is not
  /// pool-bound). The default of 1 keeps the historical single-threaded
  /// estimate; pass the live worker count for a plan-time choice.
  static SimJoinStrategy ChooseSimilarityJoin(size_t left_size,
                                              size_t right_size, size_t dim,
                                              bool gpu_available,
                                              size_t workers = 1);

  /// Estimated cost (abstract units) used by ChooseSimilarityJoin;
  /// exposed for the cost-model tests and Figure 7 analysis.
  static double EstimateSimJoinCost(SimJoinStrategy strategy,
                                    size_t left_size, size_t right_size,
                                    size_t dim, size_t workers = 1);
};

}  // namespace deeplens
