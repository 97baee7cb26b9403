// Batch-at-a-time (vectorized) execution layer. A PatchBatch carries up to
// a configurable number of tuples per Next() call, amortizing virtual
// dispatch and enabling batched predicate evaluation (EvalBatch /
// CompiledPredicate) and morsel-driven parallelism (exec/pipeline.h).
// BatchToTuple / TupleToBatch adapt between this engine and the legacy
// tuple-at-a-time Volcano iterators so either API can drive the other.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/status.h"
#include "core/patch.h"
#include "exec/operators.h"

namespace deeplens {

/// Default number of tuples per batch. Large enough to amortize per-batch
/// overheads, small enough that a batch of pixel-carrying patches stays
/// cache/memory friendly.
inline constexpr size_t kDefaultBatchSize = 1024;

/// \brief A vector of tuples flowing through the batch engine. Operators
/// own the batches they emit and are free to mutate tuples in place
/// (filters compact, maps transform, projects shrink).
struct PatchBatch {
  std::vector<PatchTuple> tuples;

  size_t size() const { return tuples.size(); }
  bool empty() const { return tuples.empty(); }
  PatchTuple& operator[](size_t i) { return tuples[i]; }
  const PatchTuple& operator[](size_t i) const { return tuples[i]; }
  void clear() { tuples.clear(); }
  void reserve(size_t n) { tuples.reserve(n); }
};

/// \brief Pull-based batch iterator. Next() yields non-empty batches until
/// nullopt. Implementations never emit empty batches.
class BatchIterator {
 public:
  virtual ~BatchIterator() = default;

  /// Yields the next batch, nullopt at end, or an error status.
  virtual Result<std::optional<PatchBatch>> Next() = 0;
};

using BatchIteratorPtr = std::unique_ptr<BatchIterator>;

// --- Sources ---------------------------------------------------------------

/// Emits a materialized collection as batches of 1-tuples. The source owns
/// the collection and moves patches into the emitted batches.
BatchIteratorPtr MakeBatchVectorSource(PatchCollection patches,
                                       size_t batch_size = kDefaultBatchSize);

// --- Streaming operators ---------------------------------------------------

/// Batch Select: compacts each child batch down to the tuples passing
/// `predicate`, evaluated batch-at-a-time (no per-tuple virtual dispatch
/// for attr-vs-literal conjunctions).
BatchIteratorPtr MakeBatchFilter(BatchIteratorPtr child, ExprPtr predicate);

/// Batch Map: applies `fn` to every tuple of every batch.
BatchIteratorPtr MakeBatchMap(
    BatchIteratorPtr child, std::function<Result<PatchTuple>(PatchTuple)> fn);

/// Stops after `limit` tuples, truncating the final batch.
BatchIteratorPtr MakeBatchLimit(BatchIteratorPtr child, size_t limit);

/// Concatenates children in order.
BatchIteratorPtr MakeBatchUnion(std::vector<BatchIteratorPtr> children);

/// Batch projection (see ProjectSpec in exec/operators.h).
BatchIteratorPtr MakeBatchProject(BatchIteratorPtr child, ProjectSpec spec);

// --- Adapters --------------------------------------------------------------

/// Wraps a batch iterator as a tuple-at-a-time iterator (legacy API).
PatchIteratorPtr BatchToTuple(BatchIteratorPtr child);

/// Wraps a tuple iterator as a batch iterator, pulling up to `batch_size`
/// tuples per batch. If the child errors mid-batch, the tuples pulled so
/// far are delivered first and the error surfaces on the following Next(),
/// preserving tuple-at-a-time error ordering across the adapter.
BatchIteratorPtr TupleToBatch(PatchIteratorPtr child,
                              size_t batch_size = kDefaultBatchSize);

/// Non-owning variant for draining a caller-owned iterator batch-wise.
BatchIteratorPtr TupleToBatch(PatchIterator* child,
                              size_t batch_size = kDefaultBatchSize);

// --- Drain helpers ---------------------------------------------------------

/// Pulls everything into a flat vector of tuples.
Result<std::vector<PatchTuple>> CollectBatches(BatchIterator* it);

/// Pulls everything, asserting 1-tuples, into a flat collection.
Result<PatchCollection> CollectBatchPatches(BatchIterator* it);

}  // namespace deeplens
