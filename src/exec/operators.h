// Tuple-at-a-time iterator API over Tuple<Patch> (paper §2.2, §5). Every
// operator is closed algebra: patch tuples in, patch tuples out. Sources
// wrap materialized collections or generator callbacks; Select and Map
// stream one tuple per Next().
//
// This is the one streaming interface: ETL generators and transformers
// yield and map patches through it. Scans, joins and aggregates over
// materialized collections run on the morsel-parallel driver in
// exec/pipeline.h instead. MakeFilter evaluates Expr::EvalBool per tuple,
// independently of the driver's CompiledPredicate, so it doubles as the
// oracle the parallel paths are tested against.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/status.h"
#include "core/patch.h"
#include "exec/expression.h"

namespace deeplens {

/// \brief Pull-based iterator. Next() yields tuples until nullopt.
class PatchIterator {
 public:
  virtual ~PatchIterator() = default;

  /// Yields the next tuple, nullopt at end, or an error status.
  virtual Result<std::optional<PatchTuple>> Next() = 0;
};

using PatchIteratorPtr = std::unique_ptr<PatchIterator>;

// --- Sources -------------------------------------------------------------

/// Iterates a materialized collection as 1-tuples.
PatchIteratorPtr MakeVectorSource(PatchCollection patches);

/// Iterates tuples produced by a generator callback (nullopt ends).
PatchIteratorPtr MakeGeneratorSource(
    std::function<Result<std::optional<PatchTuple>>()> fn);

// --- Streaming operators ---------------------------------------------------

/// Select: keeps tuples where `predicate` evaluates true (paper §5).
PatchIteratorPtr MakeFilter(PatchIteratorPtr child, ExprPtr predicate);

/// Map: arbitrary tuple transform (featurize, annotate, reshape).
PatchIteratorPtr MakeMap(
    PatchIteratorPtr child,
    std::function<Result<PatchTuple>(PatchTuple)> fn);

// --- Drain helpers ---------------------------------------------------------

/// Pulls everything into a vector of tuples.
Result<std::vector<PatchTuple>> Collect(PatchIterator* it);

/// Pulls everything, asserting 1-tuples, into a flat collection.
Result<PatchCollection> CollectPatches(PatchIterator* it);

/// Counts tuples without materializing them.
Result<uint64_t> Drain(PatchIterator* it);

}  // namespace deeplens
