// Aggregation and deduplication operators, each with one entry point over
// a materialized collection: morsel-parallel count, distinct count,
// group-by and argmin; similarity-based deduplication (the hard part of q4
// "count distinct pedestrians": near-duplicate detections of the same
// physical object must collapse into one); and a sort by key.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "exec/pipeline.h"
#include "nn/device.h"

namespace deeplens {

// --- Pre-merge parallel aggregation ---------------------------------------
//
// Each Parallel* function evaluates `predicate` (null = keep everything)
// against the source rows inside the morsel workers — late
// materialization, survivors are never copied — accumulates per-morsel
// partials, and combines the partials in morsel-index order. Every
// reduction here combines associatively, so results are identical to a
// serial scan for any morsel geometry.

/// COUNT(*) over the rows passing `predicate`.
Result<uint64_t> ParallelCount(const PatchCollection& rows,
                               const ExprPtr& predicate = nullptr,
                               const MorselOptions& options = {});

/// COUNT(DISTINCT key) over the rows passing `predicate`.
Result<uint64_t> ParallelCountDistinctKey(const PatchCollection& rows,
                                          const std::string& key,
                                          const ExprPtr& predicate = nullptr,
                                          const MorselOptions& options = {});

/// Group-by `key` → count over the rows passing `predicate`.
Result<std::map<std::string, uint64_t>> ParallelGroupByCount(
    const PatchCollection& rows, const std::string& key,
    const ExprPtr& predicate = nullptr, const MorselOptions& options = {});

/// The earliest surviving row with the minimal `order_key` value (ties
/// break to the earliest input row — Query::FirstBy's argmin, pushed below
/// the merge). Missing keys compare as nulls, which order before every
/// typed value.
Result<std::optional<Patch>> ParallelMinBy(const PatchCollection& rows,
                                           const std::string& order_key,
                                           const ExprPtr& predicate = nullptr,
                                           const MorselOptions& options = {});

/// \brief Similarity dedup options. Two patches are duplicates when their
/// feature distance is <= max_distance; dedup is single-linkage clustering
/// (connected components of the duplicate graph).
struct DedupOptions {
  float max_distance = 0.25f;
  /// kBallTree builds the on-the-fly index; kAllPairs runs the dense
  /// distance matrix on `device` (the Figure 8 query-time comparison).
  enum class Strategy { kBallTree, kAllPairs } strategy = Strategy::kBallTree;
  nn::Device* device = nullptr;  // kAllPairs only; null = vector CPU
};

/// Result of similarity dedup: cluster count plus one representative
/// patch per cluster.
struct DedupResult {
  uint64_t num_clusters = 0;
  PatchCollection representatives;
  uint64_t pairs_examined = 0;
  /// Cluster id per input patch, in input order (ids are arbitrary but
  /// equal within a cluster).
  std::vector<uint32_t> cluster_of;
};

/// Collapses near-duplicates into clusters (q4's distinct qualifier).
Result<DedupResult> SimilarityDedup(const PatchCollection& patches,
                                    const DedupOptions& options);

/// Stable-sorts tuples by their first patch's `key` value (ascending);
/// empty tuples sort first.
std::vector<PatchTuple> SortByKey(std::vector<PatchTuple> tuples,
                                  const std::string& key);

}  // namespace deeplens
