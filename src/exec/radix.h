// Radix partitioning for the equality join (a serial plan runs it at one
// partition) and the parallel aggregation path. The partition pass hashes
// every row's join key once and classifies it into one of 2^k partitions
// using the *high* bits of the hash (the low bits index buckets inside
// the per-partition tables, so using them for partition selection would
// leave every partition-local table with a degenerate bucket
// distribution). Rows whose key is NULL
// are dropped during partitioning — SQL equality semantics, like
// Eq(attr, attr) through the expression engine — and so are rows the
// join's pushed side filter rejects (exec/expression.h JoinSideSplit).
//
// Each partition ends up holding its rows in ascending source-row order
// (per-morsel classification is concatenated partition-wise in morsel
// order), which is what lets the join stitch its output back into
// canonical left-major order without a global sort.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/patch.h"
#include "exec/expression.h"
#include "exec/pipeline.h"

namespace deeplens {

/// One row classified into a radix partition: the source row id, the full
/// 64-bit key hash (reused by the partition-local tables so keys are
/// hashed exactly once), and the order-preserving encoded key bytes.
struct RadixRow {
  uint32_t row = 0;
  uint64_t hash = 0;
  std::string key;
};

/// Output of a partition pass over one input relation.
struct RadixPartitions {
  std::vector<std::vector<RadixRow>> parts;
  /// Rows with a non-NULL key (what actually landed in `parts`).
  size_t rows_kept = 0;
  /// Largest single partition, for skew diagnostics.
  size_t max_partition = 0;
};

/// FNV-1a over the encoded key bytes (same family as HashIndex, but the
/// full 64-bit state is kept so partition id and bucket id draw from
/// independent bit ranges).
uint64_t RadixHashKey(const std::string& encoded);

/// Partition id for a hash given log2(partition count): the top
/// `log2_parts` bits.
inline size_t RadixPartitionOf(uint64_t hash, size_t log2_parts) {
  return log2_parts == 0 ? 0
                         : static_cast<size_t>(hash >> (64 - log2_parts));
}

/// The DEEPLENS_JOIN_PARTITIONS override (power of two, validated by
/// PowerOfTwoFromEnv) for parallel plans; 0 means unset → use the
/// heuristic. The differential tests use it to fan small inputs out to
/// many partitions.
uint64_t JoinPartitionOverride();

/// Partition-count heuristic: ~4 partitions per worker rounded up to a
/// power of two, shrunk while the average build partition would fall
/// under ~64 rows (tiny partitions pay more dispatch than they save),
/// capped at 1024.
size_t ChooseJoinPartitions(size_t build_rows, size_t workers);

/// Morsel-parallel partition pass: hashes `rows[*].meta().Get(key)` and
/// scatters the rows whose key is non-NULL and that pass `row_filter` (a
/// slot-0 predicate over the bare row; always-true keeps every row) into
/// 2^log2_parts partitions. Every partition lists its rows in ascending
/// source-row order regardless of scheduling.
Status RadixPartitionByKey(const PatchCollection& rows,
                           const std::string& key,
                           const CompiledPredicate& row_filter,
                           size_t log2_parts, const MorselOptions& options,
                           RadixPartitions* out);

/// \brief Partition-local chained multimap over precomputed hashes.
///
/// Built over one partition's RadixRows; Lookup returns matching build
/// rows in ascending source-row order (the join needs each probe row's
/// matches right-ascending). Borrows the row vector — the partition must
/// outlive the table. No shared state: one table per partition, built and
/// probed by whichever worker owns that partition.
class LocalKeyTable {
 public:
  void Build(const std::vector<RadixRow>& rows);

  /// Appends the source-row ids of all build rows whose key equals
  /// (hash, key) to `out`, ascending.
  void Lookup(uint64_t hash, const std::string& key,
              std::vector<uint32_t>* out) const;

 private:
  const std::vector<RadixRow>* rows_ = nullptr;
  std::vector<int32_t> heads_;  // bucket → first row index, -1 empty
  std::vector<int32_t> next_;   // chain links, ascending row order
  uint64_t mask_ = 0;
};

}  // namespace deeplens
