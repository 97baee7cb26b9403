// Join operators (paper §5): nested-loop θ-join, index equality join,
// R-Tree spatial join, and the on-the-fly Ball-Tree similarity join that
// the paper highlights for image matching. Join outputs concatenate the
// input tuples (left ++ right).
#pragma once

#include <memory>
#include <string>

#include "exec/pipeline.h"
#include "index/balltree.h"
#include "index/rtree.h"
#include "nn/device.h"

namespace deeplens {

/// Counters the benchmarks report (pairs examined vs emitted), plus the
/// radix join's per-phase breakdown so a parallel-join regression is
/// diagnosable from query output (Explain) instead of a bench rebuild.
struct JoinStats {
  /// Candidate pairs the join tested. For HashEqualityJoin: key-equal
  /// pairs whose rows both survived the residual's pushed side filters
  /// (not every key-equal pair when the residual leads with single-side
  /// conjuncts).
  uint64_t pairs_examined = 0;
  uint64_t tuples_emitted = 0;
  /// Index/table build time. For HashEqualityJoin this is the
  /// per-partition table-build phase.
  double index_build_millis = 0.0;
  /// HashEqualityJoin's other phases (zero for the other joins).
  double partition_millis = 0.0;
  double probe_millis = 0.0;
  double merge_millis = 0.0;
  /// Partitions HashEqualityJoin's radix pass fanned out to: at least 1
  /// after every hash join, 0 for the other joins.
  uint64_t partitions_used = 0;
  /// max partition size / mean partition size over both inputs' non-NULL
  /// rows; 1.0 is perfectly uniform. Large values mean key skew
  /// concentrated work in few partitions (probe chunking still balances
  /// it, but the partition pass can't).
  double max_partition_skew = 0.0;
};

// Every join takes both inputs as materialized collections; pair
// predicates/residuals are evaluated batch-wise through CompiledPredicate.
//
// The probe phases are morsel-parallel (exec/pipeline.h): an index is
// built once (per partition for the hash join), then probe morsels run on
// pool workers with per-worker output batches that are merged back in
// probe order. Output is therefore byte-identical to single-threaded
// execution regardless of scheduling; pass MorselOptions{.num_threads =
// 1} to force a serial run (the differential tests do).

/// \brief Nested-loop θ-join: every pair is tested against `predicate`.
/// The baseline all plans are compared to (Figure 4's "no index" bars).
/// Outer-loop morsels run in parallel.
Result<std::vector<PatchTuple>> NestedLoopJoin(
    const PatchCollection& left, const PatchCollection& right,
    const ExprPtr& predicate,
    JoinStats* stats = nullptr, const MorselOptions& options = {});

/// \brief Radix-partitioned hash equality join on a metadata key. Both
/// inputs are hashed into 2^k partitions, each partition gets its own
/// local build table with zero shared state, probes run chunk-parallel
/// within partitions, and the output is stitched back into canonical
/// order by a counts/prefix-sum/scatter pass keyed on the left row id —
/// no global sort. A serial plan (`MorselOptions{.num_threads = 1}`, or
/// a call from inside a pool worker) uses one partition; a parallel plan
/// takes k from DEEPLENS_JOIN_PARTITIONS or from worker count and build
/// cardinality (ChooseJoinPartitions), which drops to one partition for
/// small builds.
///
/// An optional `residual` predicate filters matched pairs. Its leading
/// run of attr-vs-literal conjuncts on slot 0 or 1 (e.g. `a.label ==
/// 'person' AND b.label == 'person'`) is pushed down as per-side row
/// filters (JoinSideSplit), applied inside the partition pass before any
/// pair is formed. The rest runs per key-equal pair. Outputs and error
/// statuses are those of evaluating the whole residual per pair. NULL
/// keys never match (SQL equality, like Eq(attr, attr) through the
/// expression engine). Output order is canonical regardless of build
/// side — left input order, with each left row's matches in right input
/// order — so results are byte-identical across worker counts and
/// partition counts.
Result<std::vector<PatchTuple>> HashEqualityJoin(
    const PatchCollection& left, const PatchCollection& right,
    const std::string& key,
    const ExprPtr& residual = nullptr, JoinStats* stats = nullptr,
    const MorselOptions& options = {});

/// \brief On-the-fly Ball-Tree similarity join (paper §5 "On-The-Fly
/// Index Similarity Join"): loads the smaller relation into an in-memory
/// Ball-Tree over patch features, probes with the other side, and emits
/// pairs within `max_distance`. `residual` optionally filters pairs.
struct SimilarityJoinOptions {
  float max_distance = 0.25f;
  /// Build the index over the right side even if it is larger.
  bool force_index_right = false;
  /// Skip self-pairs (same patch id) — needed for self-joins (q1).
  bool skip_identical_ids = true;
};
Result<std::vector<PatchTuple>> BallTreeSimilarityJoin(
    const PatchCollection& left, const PatchCollection& right,
    const SimilarityJoinOptions& options, const ExprPtr& residual = nullptr,
    JoinStats* stats = nullptr, const MorselOptions& morsels = {});

/// \brief All-pairs similarity join on a Device: computes the full
/// pairwise distance matrix with the device's matching kernel (the GPU /
/// AVX comparison of §7.4.2), then filters by threshold.
Result<std::vector<PatchTuple>> AllPairsSimilarityJoin(
    const PatchCollection& left, const PatchCollection& right,
    float max_distance,
    nn::Device* device, const ExprPtr& residual = nullptr,
    JoinStats* stats = nullptr);

/// \brief R-Tree spatial join: emits pairs whose bounding boxes intersect
/// (containment/intersection queries of §3.2). Builds the R-Tree over the
/// right side.
Result<std::vector<PatchTuple>> RTreeSpatialJoin(
    const PatchCollection& left, const PatchCollection& right,
    const ExprPtr& residual = nullptr, JoinStats* stats = nullptr,
    const MorselOptions& options = {});

}  // namespace deeplens
