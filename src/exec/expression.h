// Typed expression trees over patch-tuple metadata: the predicate language
// of Select / θ-Join operators. Expressions evaluate against a PatchTuple
// (joins bind multiple patches; attribute references carry a tuple slot).
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/patch.h"
#include "core/types.h"

namespace deeplens {

class Expr;
using ExprPtr = std::shared_ptr<Expr>;

/// One NN UDF occurrence inside an expression tree: which model the
/// predicate will run at evaluation time and whether an InferenceCache
/// will memoize it. Collected by the planner so Explain() reports the
/// expected cache interaction of a plan.
struct UdfUse {
  std::string model;
  bool cached = false;
  /// True when the memoizing cache also persists results to disk (they
  /// survive process restarts).
  bool persistent = false;
  /// Live hit rate of the memoizing cache at collection time (0 when
  /// uncached) — the cost model's mixing weight between the hit-path and
  /// full-model EWMAs.
  double cache_hit_rate = 0.0;
  /// True when the use sits behind a proxy cascade: most rows are
  /// expected to never reach the model, so eager per-row work keyed on
  /// "this predicate runs an NN UDF" (e.g. fingerprint priming) should
  /// not fire for it.
  bool cascaded = false;
  /// Nonzero when cache misses for this use stage into the cross-query
  /// device batch former (exec/batch_former.h); the value is the
  /// configured DEEPLENS_DEVICE_BATCH_SIZE.
  uint64_t device_batch_size = 0;
};

/// Cheap-proxy estimate of an expression's value (nn_udf proxy models).
/// `rel_error` bounds the estimate's relative error; `confidence` is the
/// producer's trust in that bound, in [0, 1].
struct ProxyValue {
  MetaValue estimate;
  double rel_error = 0.0;
  double confidence = 0.0;
};

/// Cheap-proxy verdict for a boolean predicate node. `confidence` = 0
/// means "no opinion — run the full predicate".
struct ProxyVerdict {
  bool pass = true;
  double confidence = 0.0;
};

/// \brief Expression node. Eval returns a MetaValue; predicates are
/// expressions evaluating to bool.
class Expr {
 public:
  virtual ~Expr() = default;

  virtual Result<MetaValue> Eval(const PatchTuple& tuple) const = 0;
  virtual std::string ToString() const = 0;

  /// Batch entry point: fills out[i] = Eval(rows[i]) for i < n, stopping at
  /// the first row that errors. The default loops over Eval; comparison
  /// nodes override it with fused loops that skip per-tuple virtual
  /// dispatch and MetaValue temporaries for attr-vs-literal forms.
  virtual Status EvalBatch(const PatchTuple* rows, size_t n,
                           MetaValue* out) const;

  /// Batch predicate evaluation, row-wise identical to EvalBool (null →
  /// false, non-bool → TypeError). out[i] is 1 for passing rows, else 0.
  Status EvalBoolBatch(const PatchTuple* rows, size_t n, uint8_t* out) const;

  /// Static type/domain validation against per-slot schemas (paper §4.2).
  virtual Status Validate(const std::vector<PatchSchema>& schemas) const {
    (void)schemas;
    return Status::OK();
  }

  /// Convenience: evaluate as a boolean predicate (null → false).
  Result<bool> EvalBool(const PatchTuple& tuple) const;

  // --- Planner introspection hooks (default: opaque) -------------------

  /// If this node is an AND, fills both children and returns true.
  virtual bool AsConjunction(ExprPtr* left, ExprPtr* right) const {
    (void)left;
    (void)right;
    return false;
  }

  /// Appends every NN UDF this node (or any descendant) would run at
  /// evaluation time. Compound nodes recurse; leaves default to none.
  virtual void CollectUdfUse(std::vector<UdfUse>* out) const { (void)out; }

  /// If this node compares attr(slot, key) against a literal, fills the
  /// normalized comparison (op: -2 '<', -1 '<=', 0 '==', 1 '>=', 2 '>',
  /// with the attribute on the left) and returns true.
  virtual bool AsAttrCmpLit(int* op, size_t* slot, std::string* key,
                            MetaValue* value) const {
    (void)op;
    (void)slot;
    (void)key;
    (void)value;
    return false;
  }

  // --- Proxy-cascade hooks (default: no proxy) -------------------------

  /// True when this *value* node can produce a cheap estimate of its
  /// result (a proxy model exists for the UDF).
  virtual bool has_proxy_value() const { return false; }

  /// Fills a cheap estimate of this node's value for `tuple`. Returning
  /// false means the proxy has no opinion for this row (the full model
  /// must run); it is not an error.
  virtual bool EvalProxyValue(const PatchTuple& tuple,
                              ProxyValue* out) const {
    (void)tuple;
    (void)out;
    return false;
  }

  /// True when this *predicate* node can render cheap verdicts (a
  /// comparison over a proxy-capable value against a literal).
  virtual bool has_proxy() const { return false; }

  /// Cheap verdict for `tuple`. The default has no opinion; comparison
  /// nodes over proxy-capable values derive confidence from the margin
  /// between the estimate and the literal relative to the proxy's error
  /// bound.
  virtual Result<ProxyVerdict> EvalProxy(const PatchTuple& tuple) const {
    (void)tuple;
    return ProxyVerdict{};
  }
};

// --- Leaf nodes ---------------------------------------------------------

/// Reference to a metadata attribute of tuple slot `slot`.
ExprPtr Attr(size_t slot, std::string key);
/// Reference to an attribute of slot 0 (the common single-relation case).
ExprPtr Attr(std::string key);
/// Constant.
ExprPtr Lit(MetaValue value);
/// Built-in geometric accessors on the patch itself (not the meta dict):
/// "width", "height", "area", "cx", "cy", "x0", "y0", "x1", "y1".
ExprPtr Geom(size_t slot, std::string what);

// --- Comparisons & logic -------------------------------------------------

ExprPtr Eq(ExprPtr a, ExprPtr b);
ExprPtr Ne(ExprPtr a, ExprPtr b);
ExprPtr Lt(ExprPtr a, ExprPtr b);
ExprPtr Le(ExprPtr a, ExprPtr b);
ExprPtr Gt(ExprPtr a, ExprPtr b);
ExprPtr Ge(ExprPtr a, ExprPtr b);
ExprPtr And(ExprPtr a, ExprPtr b);
ExprPtr Or(ExprPtr a, ExprPtr b);
ExprPtr Not(ExprPtr a);

// --- Arithmetic ----------------------------------------------------------

ExprPtr Add(ExprPtr a, ExprPtr b);
ExprPtr Sub(ExprPtr a, ExprPtr b);
ExprPtr MulE(ExprPtr a, ExprPtr b);

// --- Vision-specific -----------------------------------------------------

/// Euclidean distance between the feature vectors of two tuple slots.
ExprPtr FeatureDistance(size_t slot_a, size_t slot_b);
/// IoU between the bounding boxes of two tuple slots.
ExprPtr BoxIou(size_t slot_a, size_t slot_b);

// --- Batch predicate compilation ----------------------------------------

struct JoinSideSplit;

/// \brief A predicate lowered to a flat conjunct list for batch execution.
///
/// Attr-vs-literal comparisons (the planner-sargable AsAttrCmpLit shape)
/// are evaluated directly against the metadata dictionaries — no virtual
/// dispatch, no MetaValue temporaries per row. Conjuncts that don't match
/// that shape keep their expression tree and are evaluated per row.
/// Conjuncts preserve their original left-to-right order, so short-circuit
/// behaviour — including which error surfaces first — matches
/// Expr::EvalBool exactly.
///
/// Compiled predicates are immutable after construction and safe to share
/// across threads (the morsel driver evaluates one per worker).
class CompiledPredicate {
 public:
  /// Always-true predicate (no-op filter).
  CompiledPredicate() = default;
  /// Compiles `pred`; a null pred means always-true.
  explicit CompiledPredicate(ExprPtr pred);

  bool always_true() const { return steps_.empty(); }

  /// Row-wise evaluation over tuples: out[i] = 1 iff rows[i] passes.
  Status EvalTupleRows(const PatchTuple* rows, size_t n, uint8_t* out) const;

  /// Row-wise evaluation over bare patches treated as 1-tuples, without
  /// materializing the tuples (late materialization for scans). Rows
  /// rejected by a fast conjunct are never copied.
  Status EvalPatchRows(const Patch* rows, size_t n, uint8_t* out) const;

  /// Single-row conveniences.
  Result<bool> EvalOne(const PatchTuple& row) const;
  Result<bool> EvalOnePatch(const Patch& row) const;

  /// Splits a 2-tuple (join) predicate for side pushdown; see
  /// JoinSideSplit.
  JoinSideSplit SplitJoinSides() const;

 private:
  struct Step {
    // Fast conjunct: attr(slot, key) <op> value with op one of
    // -2 '<', -1 '<=', 0 '==', 1 '>=', 2 '>'.
    int op = 0;
    size_t slot = 0;
    std::string key;
    MetaValue value;
    // Non-null → this conjunct is tree-evaluated instead.
    ExprPtr fallback;
    // Shape fingerprint for selectivity observation (core/cost_model.h).
    uint64_t shape_fp = 0;
  };

  // Per-step evaluated/passed counters shared by every copy of this
  // predicate (morsel workers copy the predicate per stage). Eval loops
  // accumulate batch-locally and flush once per call; the last owner's
  // destructor publishes the totals to the global cost model, so the
  // next query over the same conjunct shapes ranks them by observed
  // selectivity.
  struct SelectivityCounters {
    explicit SelectivityCounters(std::vector<uint64_t> fps);
    ~SelectivityCounters();  // publishes to CostModel::Global()

    std::vector<uint64_t> shape_fps;
    std::vector<std::atomic<uint64_t>> evaluated;
    std::vector<std::atomic<uint64_t>> passed;
  };

  explicit CompiledPredicate(std::vector<Step> steps);
  // Sets up the selectivity counters and the fingerprint-priming flag
  // from steps_.
  void InitFromSteps();

  static bool StepPasses(const Step& step, const MetaValue& attr);

  std::vector<Step> steps_;  // empty = always true
  std::shared_ptr<SelectivityCounters> counters_;
  // True when a conjunct runs a *cache-backed* NN UDF. EvalPatchRows
  // then primes the source row's fingerprint memo before materializing
  // the scratch tuple, so the memo persists in the view across repeated
  // queries instead of dying with the per-row copy. (Uncached UDFs never
  // hash, so priming for them would be pure waste.)
  bool has_nn_udf_ = false;
};

/// \brief A join predicate over (left, right) 2-tuples split into per-side
/// row filters plus the rest.
///
/// `left` and `right` hold the *leading run* of the predicate's
/// attr-vs-literal conjuncts whose slot is 0 or 1, each rebound to slot 0
/// so it filters bare patches (CompiledPredicate::EvalPatchRows); `rest`
/// holds every conjunct after that run, in order. A pair passes the
/// original predicate iff its left row passes `left`, its right row
/// passes `right` and the pair passes `rest`. Only the leading run moves:
/// those conjuncts never error, and a pair failing one of them
/// short-circuited before any later conjunct could run, so the pairs that
/// reach `rest` — and the errors it can raise — are exactly those of the
/// original.
struct JoinSideSplit {
  CompiledPredicate left;
  CompiledPredicate right;
  CompiledPredicate rest;
};

}  // namespace deeplens
