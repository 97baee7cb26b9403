#include "core/query.h"

namespace deeplens {

Query::Query(Database* db, std::string view)
    : db_(db), view_(std::move(view)) {}

Query& Query::Where(ExprPtr predicate) {
  predicate_ = predicate_ ? And(std::move(predicate_), std::move(predicate))
                          : std::move(predicate);
  return *this;
}

Query& Query::CheckSchema(PatchSchema schema) {
  schema_ = std::move(schema);
  return *this;
}

Query& Query::Limit(size_t limit) {
  limit_ = limit;
  return *this;
}

Status Query::ValidatePredicate() const {
  if (schema_.has_value() && predicate_) {
    DL_RETURN_NOT_OK(predicate_->Validate({*schema_}));
  }
  return Status::OK();
}

Result<PatchCollection> Query::Execute() {
  DL_RETURN_NOT_OK(ValidatePredicate());
  DL_ASSIGN_OR_RETURN(ViewCache * view, db_->GetView(view_));
  DL_ASSIGN_OR_RETURN(PatchCollection out,
                      Planner::ExecuteScan(*view, predicate_, nullptr));
  if (limit_.has_value() && out.size() > *limit_) {
    out.resize(*limit_);
  }
  return out;
}

// The aggregate terminals push the reduction into the scan
// (Planner::ExecuteScan* → exec/aggregates.h), so full scans aggregate
// below the morsel driver's merge and never materialize survivors. A
// Limit() changes which rows the aggregate sees: a limited query
// materializes its first `limit` matches into `scratch`, a hand-built
// view, and the terminal reduces all of it with no predicate.
Result<const ViewCache*> Query::Source(ViewCache* scratch,
                                       ExprPtr* predicate) {
  if (limit_.has_value()) {
    DL_ASSIGN_OR_RETURN(scratch->patches, Execute());
    predicate->reset();
    return scratch;
  }
  DL_RETURN_NOT_OK(ValidatePredicate());
  *predicate = predicate_;
  DL_ASSIGN_OR_RETURN(ViewCache * view, db_->GetView(view_));
  return view;
}

Result<uint64_t> Query::Count() {
  ViewCache scratch;
  ExprPtr predicate;
  DL_ASSIGN_OR_RETURN(const ViewCache* view, Source(&scratch, &predicate));
  return Planner::ExecuteScanCount(*view, predicate, nullptr);
}

Result<uint64_t> Query::CountDistinct(const std::string& key) {
  ViewCache scratch;
  ExprPtr predicate;
  DL_ASSIGN_OR_RETURN(const ViewCache* view, Source(&scratch, &predicate));
  return Planner::ExecuteScanCountDistinct(*view, key, predicate, nullptr);
}

Result<std::map<std::string, uint64_t>> Query::GroupCount(
    const std::string& key) {
  ViewCache scratch;
  ExprPtr predicate;
  DL_ASSIGN_OR_RETURN(const ViewCache* view, Source(&scratch, &predicate));
  return Planner::ExecuteScanGroupCount(*view, key, predicate, nullptr);
}

Result<std::optional<Patch>> Query::FirstBy(const std::string& order_key) {
  ViewCache scratch;
  ExprPtr predicate;
  DL_ASSIGN_OR_RETURN(const ViewCache* view, Source(&scratch, &predicate));
  return Planner::ExecuteScanMinBy(*view, order_key, predicate, nullptr);
}

Result<PlanExplanation> Query::Explain() {
  DL_ASSIGN_OR_RETURN(ViewCache * view, db_->GetView(view_));
  return Planner::PlanScan(*view, predicate_).explanation;
}

}  // namespace deeplens
