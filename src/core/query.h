// Fluent query API over Database views: the declarative surface a
// DeepLens application programs against. Plans are produced by the
// Planner; Explain() exposes the chosen physical plan.
#pragma once

#include <map>
#include <optional>
#include <string>

#include "core/database.h"
#include "core/planner.h"

namespace deeplens {

/// \brief One relational query over a view.
///
///   auto n = Query(db, "traffic")
///                .Where(Eq(Attr("label"), Lit("car")))
///                .CountDistinct("frameno");
class Query {
 public:
  Query(Database* db, std::string view);

  /// Adds a conjunct to the WHERE clause.
  Query& Where(ExprPtr predicate);

  /// Validates predicates against this schema before execution
  /// (paper §4.2); errors surface from the terminal call.
  Query& CheckSchema(PatchSchema schema);

  /// Caps the result size.
  Query& Limit(size_t limit);

  // --- Terminals --------------------------------------------------------

  /// Runs the plan and returns matching patches.
  Result<PatchCollection> Execute();

  // Aggregate terminals are pushed into the scan: on a full-scan plan the
  // reduction runs below the morsel driver's ordered merge (per-worker
  // partial aggregates), so matching patches are never materialized.
  Result<uint64_t> Count();
  Result<uint64_t> CountDistinct(const std::string& key);
  Result<std::map<std::string, uint64_t>> GroupCount(const std::string& key);

  /// First match when ordered ascending by `order_key` (q5's "first image
  /// containing the string").
  Result<std::optional<Patch>> FirstBy(const std::string& order_key);

  /// The physical plan the planner would choose right now.
  Result<PlanExplanation> Explain();

 private:
  /// The view and predicate an aggregate terminal reduces; `scratch`
  /// holds a limited query's matches.
  Result<const ViewCache*> Source(ViewCache* scratch, ExprPtr* predicate);
  Status ValidatePredicate() const;

  Database* db_;
  std::string view_;
  ExprPtr predicate_;  // conjunction of all Where() calls
  std::optional<PatchSchema> schema_;
  std::optional<size_t> limit_;
};

}  // namespace deeplens
