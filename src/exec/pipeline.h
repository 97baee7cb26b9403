// Morsel-driven parallel pipeline driver over materialized collections.
//
// A BatchPipeline is a compiled chain of embarrassingly-parallel stages —
// Filter / Map — run over a materialized input: the input is split into
// contiguous morsels, each morsel is processed as one unit per stage by a
// ThreadPool::Global() worker, and the per-morsel outputs are merged back
// in input order, so results are deterministic regardless of scheduling.
// Streaming (tuple-at-a-time) operators live in exec/operators.h.
//
// Filters over bare patch collections are evaluated against the source
// rows in place (late materialization): rows the predicate rejects are
// never copied, which is where most of the driver's scan speedup comes
// from.
#pragma once

#include <functional>
#include <vector>

#include "common/status.h"
#include "exec/expression.h"
#include "exec/operators.h"

namespace deeplens {

/// Default rows per unit of work: the morsel-size floor, and the number of
/// buffered pairs at which a join flushes its output.
inline constexpr size_t kDefaultBatchSize = 1024;

struct MorselOptions {
  /// Floor for the auto-computed morsel size. Each morsel is processed as
  /// one unit per stage (no finer sub-batching), so this only guards
  /// against morsels too small to amortize scheduling overhead.
  size_t batch_size = kDefaultBatchSize;
  /// Rows per scheduled work unit; 0 = auto (≈ input / (4 × workers),
  /// never below batch_size).
  size_t morsel_size = 0;
  /// Worker cap; 0 = the global pool's width, 1 = force serial.
  size_t num_threads = 0;
};

struct PipelineStats {
  uint64_t input_rows = 0;
  uint64_t output_rows = 0;
  uint64_t morsels = 0;
  double millis = 0.0;
};

/// \brief Morsel geometry resolved against the global pool: how many
/// contiguous work units an input of `n` rows splits into and whether they
/// may run on pool workers. Shared by the pipeline driver, the parallel
/// join probes (exec/joins.cc) and pre-merge aggregation
/// (exec/aggregates.cc) so every parallel operator slices inputs the same
/// way.
struct MorselPlan {
  size_t morsel_size = 0;
  size_t num_morsels = 0;
  bool parallel = false;
};

MorselPlan PlanMorsels(size_t n, const MorselOptions& options);

/// Effective worker count `options` resolves to against the global pool
/// (>= 1; 1 means forced-serial). The radix join uses this to size its
/// partition fan-out, and the bench harness to report per-case worker
/// counts.
size_t ResolveMorselWorkers(const MorselOptions& options);

/// Plan for dispatching `n` explicitly pre-sliced work units (e.g. one
/// radix partition, or one probe chunk of a partition) rather than
/// contiguous row ranges: every unit is its own morsel. Parallel under
/// the same rules as PlanMorsels (worker cap, nested-invocation
/// degradation).
MorselPlan PlanUnitTasks(size_t n, const MorselOptions& options);

/// Runs worker(morsel_index, lo, hi) over every morsel of an n-row input,
/// on the global pool when the plan allows, serially otherwise. Each
/// worker owns its morsel's output slot, so merging per-morsel results in
/// morsel-index order yields a deterministic, input-ordered stream.
/// Returns the error of the earliest failing morsel.
Status DispatchMorsels(
    size_t n, const MorselPlan& plan,
    const std::function<Status(size_t, size_t, size_t)>& worker);

/// \brief Compiled chain of filter/map stages.
///
/// Map functions must be thread-safe: the morsel driver invokes them
/// concurrently from pool workers. Order-sensitive operators (a limit) are
/// deliberately not expressible here.
class BatchPipeline {
 public:
  BatchPipeline& Filter(ExprPtr predicate);
  BatchPipeline& Map(std::function<Result<PatchTuple>(PatchTuple)> fn);

  size_t num_stages() const { return stages_.size(); }

  /// Morsel-parallel execution over bare patches treated as 1-tuple rows;
  /// the output preserves input order (ordered merge by morsel index).
  /// Errors report the earliest failing morsel. A leading Filter stage
  /// runs against `rows` in place, so rejected rows are never copied.
  /// Every output tuple must still be a 1-tuple (maps that widen tuples
  /// are an error on this path).
  Result<PatchCollection> RunOnPatches(const PatchCollection& rows,
                                       const MorselOptions& options = {},
                                       PipelineStats* stats = nullptr) const;

 private:
  struct Stage {
    enum class Kind { kFilter, kMap };
    Kind kind = Kind::kFilter;
    CompiledPredicate predicate;   // kFilter (compiled once, shared)
    std::function<Result<PatchTuple>(PatchTuple)> map_fn;  // kMap
  };

  // Applies stages [first_stage..] to `working` in place.
  Status RunStagesOnTuples(std::vector<PatchTuple>* working,
                           size_t first_stage) const;

  std::vector<Stage> stages_;
};

/// Morsel-parallel predicate scan over a collection: the planner's
/// full-scan fast path. A null predicate copies everything.
Result<PatchCollection> ParallelSelect(const PatchCollection& rows,
                                       const ExprPtr& predicate,
                                       const MorselOptions& options = {},
                                       PipelineStats* stats = nullptr);

}  // namespace deeplens
