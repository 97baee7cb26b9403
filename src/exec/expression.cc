#include "exec/expression.h"

#include <algorithm>
#include <cmath>

#include "core/cost_model.h"
#include "tensor/ops.h"

namespace deeplens {

Result<bool> Expr::EvalBool(const PatchTuple& tuple) const {
  DL_ASSIGN_OR_RETURN(MetaValue v, Eval(tuple));
  if (v.is_null()) return false;
  if (v.type() == ValueType::kBool) return v.AsBool();
  return Status::TypeError("predicate did not evaluate to bool: " +
                           ToString());
}

Status Expr::EvalBatch(const PatchTuple* rows, size_t n,
                       MetaValue* out) const {
  for (size_t i = 0; i < n; ++i) {
    DL_ASSIGN_OR_RETURN(out[i], Eval(rows[i]));
  }
  return Status::OK();
}

Status Expr::EvalBoolBatch(const PatchTuple* rows, size_t n,
                           uint8_t* out) const {
  std::vector<MetaValue> scratch(n);
  const Status st = EvalBatch(rows, n, scratch.data());
  if (!st.ok()) {
    // EvalBatch stopped at the first row whose Eval failed — but a row
    // before it may have produced a non-bool value, and the scalar
    // EvalBool loop would surface *that* TypeError first. Re-run
    // row-at-a-time so the earliest failing row wins either way.
    for (size_t i = 0; i < n; ++i) {
      DL_ASSIGN_OR_RETURN(bool pass, EvalBool(rows[i]));
      out[i] = pass ? 1 : 0;
    }
    return st;  // every row passed scalar eval: report the batch error
  }
  for (size_t i = 0; i < n; ++i) {
    const MetaValue& v = scratch[i];
    if (v.is_null()) {
      out[i] = 0;
    } else if (v.type() == ValueType::kBool) {
      out[i] = v.AsBool().value() ? 1 : 0;
    } else {
      return Status::TypeError("predicate did not evaluate to bool: " +
                               ToString());
    }
  }
  return Status::OK();
}

namespace {

Status CheckSlot(size_t slot, const PatchTuple& tuple) {
  if (slot >= tuple.size()) {
    return Status::OutOfRange("expression references tuple slot " +
                              std::to_string(slot) + " of " +
                              std::to_string(tuple.size()));
  }
  return Status::OK();
}

class AttrExpr : public Expr {
 public:
  AttrExpr(size_t slot, std::string key)
      : slot_(slot), key_(std::move(key)) {}

  Result<MetaValue> Eval(const PatchTuple& tuple) const override {
    DL_RETURN_NOT_OK(CheckSlot(slot_, tuple));
    return tuple[slot_].meta().Get(key_);
  }
  std::string ToString() const override {
    return "$" + std::to_string(slot_) + "." + key_;
  }
  Status Validate(const std::vector<PatchSchema>& schemas) const override {
    if (slot_ < schemas.size() && !schemas[slot_].HasAttribute(key_)) {
      return Status::TypeError("attribute '" + key_ +
                               "' is not in the slot " +
                               std::to_string(slot_) + " schema");
    }
    return Status::OK();
  }
  const std::string& key() const { return key_; }
  size_t slot() const { return slot_; }

 private:
  size_t slot_;
  std::string key_;
};

class LitExpr : public Expr {
 public:
  explicit LitExpr(MetaValue v) : v_(std::move(v)) {}
  Result<MetaValue> Eval(const PatchTuple&) const override { return v_; }
  std::string ToString() const override { return v_.ToDisplayString(); }
  const MetaValue& value() const { return v_; }

 private:
  MetaValue v_;
};

class GeomExpr : public Expr {
 public:
  GeomExpr(size_t slot, std::string what)
      : slot_(slot), what_(std::move(what)) {}

  Result<MetaValue> Eval(const PatchTuple& tuple) const override {
    DL_RETURN_NOT_OK(CheckSlot(slot_, tuple));
    const nn::BBox& b = tuple[slot_].bbox();
    if (what_ == "width") return MetaValue(int64_t{b.Width()});
    if (what_ == "height") return MetaValue(int64_t{b.Height()});
    if (what_ == "area") return MetaValue(int64_t{b.Area()});
    if (what_ == "cx") return MetaValue(int64_t{b.CenterX()});
    if (what_ == "cy") return MetaValue(int64_t{b.CenterY()});
    if (what_ == "x0") return MetaValue(int64_t{b.x0});
    if (what_ == "y0") return MetaValue(int64_t{b.y0});
    if (what_ == "x1") return MetaValue(int64_t{b.x1});
    if (what_ == "y1") return MetaValue(int64_t{b.y1});
    return Status::InvalidArgument("unknown geometry accessor: " + what_);
  }
  std::string ToString() const override {
    return "$" + std::to_string(slot_) + ".@" + what_;
  }

 private:
  size_t slot_;
  std::string what_;
};

enum class CmpKind { kEq, kNe, kLt, kLe, kGt, kGe };

class CmpExpr : public Expr {
 public:
  CmpExpr(CmpKind kind, ExprPtr a, ExprPtr b)
      : kind_(kind), a_(std::move(a)), b_(std::move(b)) {}

  Result<MetaValue> Eval(const PatchTuple& tuple) const override {
    DL_ASSIGN_OR_RETURN(MetaValue va, a_->Eval(tuple));
    DL_ASSIGN_OR_RETURN(MetaValue vb, b_->Eval(tuple));
    if (va.is_null() || vb.is_null()) return MetaValue();  // SQL-ish null
    const int c = va.Compare(vb);
    switch (kind_) {
      case CmpKind::kEq:
        return MetaValue(c == 0);
      case CmpKind::kNe:
        return MetaValue(c != 0);
      case CmpKind::kLt:
        return MetaValue(c < 0);
      case CmpKind::kLe:
        return MetaValue(c <= 0);
      case CmpKind::kGt:
        return MetaValue(c > 0);
      case CmpKind::kGe:
        return MetaValue(c >= 0);
    }
    return Status::Internal("bad comparison kind");
  }
  std::string ToString() const override {
    const char* op = "?";
    switch (kind_) {
      case CmpKind::kEq: op = "=="; break;
      case CmpKind::kNe: op = "!="; break;
      case CmpKind::kLt: op = "<"; break;
      case CmpKind::kLe: op = "<="; break;
      case CmpKind::kGt: op = ">"; break;
      case CmpKind::kGe: op = ">="; break;
    }
    return "(" + a_->ToString() + " " + op + " " + b_->ToString() + ")";
  }
  Status Validate(const std::vector<PatchSchema>& schemas) const override {
    DL_RETURN_NOT_OK(a_->Validate(schemas));
    DL_RETURN_NOT_OK(b_->Validate(schemas));
    // Domain check: attr == string-literal against a closed domain.
    auto* attr = dynamic_cast<const AttrExpr*>(a_.get());
    auto* lit = dynamic_cast<const LitExpr*>(b_.get());
    if (attr != nullptr && lit != nullptr &&
        attr->slot() < schemas.size()) {
      DL_ASSIGN_OR_RETURN(MetaValue v, lit->Eval({}));
      return schemas[attr->slot()].ValidatePredicate(attr->key(), v);
    }
    return Status::OK();
  }

  Status EvalBatch(const PatchTuple* rows, size_t n,
                   MetaValue* out) const override {
    // Fused loop for the attr-vs-literal shape: one metadata lookup and one
    // comparison per row, no virtual dispatch, no MetaValue temporaries.
    const auto* attr = dynamic_cast<const AttrExpr*>(a_.get());
    const auto* lit = dynamic_cast<const LitExpr*>(b_.get());
    bool swapped = false;
    if (attr == nullptr || lit == nullptr) {
      attr = dynamic_cast<const AttrExpr*>(b_.get());
      lit = dynamic_cast<const LitExpr*>(a_.get());
      swapped = true;
    }
    if (attr == nullptr || lit == nullptr) {
      return Expr::EvalBatch(rows, n, out);
    }
    const MetaValue& litv = lit->value();
    const size_t slot = attr->slot();
    const std::string& key = attr->key();
    for (size_t i = 0; i < n; ++i) {
      DL_RETURN_NOT_OK(CheckSlot(slot, rows[i]));
      const MetaValue& v = rows[i][slot].meta().Get(key);
      if (v.is_null() || litv.is_null()) {
        out[i] = MetaValue();
        continue;
      }
      int c = v.Compare(litv);
      if (swapped) c = -c;
      switch (kind_) {
        case CmpKind::kEq: out[i] = MetaValue(c == 0); break;
        case CmpKind::kNe: out[i] = MetaValue(c != 0); break;
        case CmpKind::kLt: out[i] = MetaValue(c < 0); break;
        case CmpKind::kLe: out[i] = MetaValue(c <= 0); break;
        case CmpKind::kGt: out[i] = MetaValue(c > 0); break;
        case CmpKind::kGe: out[i] = MetaValue(c >= 0); break;
      }
    }
    return Status::OK();
  }

  bool AsAttrCmpLit(int* op, size_t* slot, std::string* key,
                    MetaValue* value) const override {
    const auto* attr = dynamic_cast<const AttrExpr*>(a_.get());
    const auto* lit = dynamic_cast<const LitExpr*>(b_.get());
    bool swapped = false;
    if (attr == nullptr || lit == nullptr) {
      attr = dynamic_cast<const AttrExpr*>(b_.get());
      lit = dynamic_cast<const LitExpr*>(a_.get());
      swapped = true;
    }
    if (attr == nullptr || lit == nullptr) return false;
    int raw;
    switch (kind_) {
      case CmpKind::kEq: raw = 0; break;
      case CmpKind::kLt: raw = -2; break;
      case CmpKind::kLe: raw = -1; break;
      case CmpKind::kGt: raw = 2; break;
      case CmpKind::kGe: raw = 1; break;
      default: return false;  // != is not index-accelerable
    }
    *op = swapped ? -raw : raw;
    *slot = attr->slot();
    *key = attr->key();
    *value = lit->Eval({}).value();
    return true;
  }

  void CollectUdfUse(std::vector<UdfUse>* out) const override {
    a_->CollectUdfUse(out);
    b_->CollectUdfUse(out);
  }

  bool has_proxy() const override {
    const Expr* value_side = nullptr;
    const LitExpr* lit = nullptr;
    bool swapped = false;
    return MatchProxySides(&value_side, &lit, &swapped);
  }

  Result<ProxyVerdict> EvalProxy(const PatchTuple& tuple) const override {
    const Expr* value_side = nullptr;
    const LitExpr* lit = nullptr;
    bool swapped = false;
    if (!MatchProxySides(&value_side, &lit, &swapped)) {
      return ProxyVerdict{};
    }
    ProxyValue pv;
    if (!value_side->EvalProxyValue(tuple, &pv)) return ProxyVerdict{};
    const MetaValue& litv = lit->value();
    if (pv.estimate.is_null() || litv.is_null()) {
      // The full comparison over a null side evaluates to null, which a
      // predicate treats as non-matching — the proxy can assert that
      // with its own confidence.
      return ProxyVerdict{false, pv.confidence};
    }
    const auto est_num = pv.estimate.AsNumeric();
    const auto lit_num = litv.AsNumeric();
    int c = pv.estimate.Compare(litv);
    if (swapped) c = -c;
    bool pass = false;
    switch (kind_) {
      case CmpKind::kEq: pass = c == 0; break;
      case CmpKind::kNe: pass = c != 0; break;
      case CmpKind::kLt: pass = c < 0; break;
      case CmpKind::kLe: pass = c <= 0; break;
      case CmpKind::kGt: pass = c > 0; break;
      case CmpKind::kGe: pass = c >= 0; break;
    }
    if (!est_num.ok() || !lit_num.ok()) {
      // Non-numeric (e.g. OCR text): only exact-match comparisons carry
      // proxy meaning; ordering a guessed string is noise.
      if (kind_ == CmpKind::kEq || kind_ == CmpKind::kNe) {
        return ProxyVerdict{pass, pv.confidence};
      }
      return ProxyVerdict{};
    }
    // Numeric: confidence grows with the estimate-vs-literal margin
    // relative to the proxy's error bound. An estimate within the band
    // of an equality literal is "maybe equal" — no confidence either way.
    const double est = est_num.value();
    const double lv = lit_num.value();
    const double denom = std::max(std::max(std::fabs(est), std::fabs(lv)),
                                  1e-9);
    const double margin = std::fabs(est - lv) / denom;
    const double rel = std::max(pv.rel_error, 1e-6);
    double confidence;
    if (kind_ == CmpKind::kEq || kind_ == CmpKind::kNe) {
      confidence = margin <= rel
                       ? 0.0
                       : pv.confidence *
                             std::min(1.0, (margin - rel) / (3.0 * rel));
    } else {
      confidence = pv.confidence * std::min(1.0, margin / (4.0 * rel));
    }
    return ProxyVerdict{pass, confidence};
  }

 private:
  // Matches the (proxy-capable value) <op> (literal) shape, either side.
  bool MatchProxySides(const Expr** value_side, const LitExpr** lit,
                       bool* swapped) const {
    *value_side = a_.get();
    *lit = dynamic_cast<const LitExpr*>(b_.get());
    *swapped = false;
    if (*lit == nullptr || !(*value_side)->has_proxy_value()) {
      *value_side = b_.get();
      *lit = dynamic_cast<const LitExpr*>(a_.get());
      *swapped = true;
    }
    return *lit != nullptr && (*value_side)->has_proxy_value();
  }

  CmpKind kind_;
  ExprPtr a_, b_;
};

enum class BoolKind { kAnd, kOr, kNot };

class BoolExpr : public Expr {
 public:
  BoolExpr(BoolKind kind, ExprPtr a, ExprPtr b)
      : kind_(kind), a_(std::move(a)), b_(std::move(b)) {}

  Result<MetaValue> Eval(const PatchTuple& tuple) const override {
    DL_ASSIGN_OR_RETURN(bool va, a_->EvalBool(tuple));
    if (kind_ == BoolKind::kNot) return MetaValue(!va);
    if (kind_ == BoolKind::kAnd && !va) return MetaValue(false);
    if (kind_ == BoolKind::kOr && va) return MetaValue(true);
    DL_ASSIGN_OR_RETURN(bool vb, b_->EvalBool(tuple));
    return MetaValue(kind_ == BoolKind::kAnd ? (va && vb) : (va || vb));
  }
  std::string ToString() const override {
    switch (kind_) {
      case BoolKind::kNot:
        return "!" + a_->ToString();
      case BoolKind::kAnd:
        return "(" + a_->ToString() + " && " + b_->ToString() + ")";
      case BoolKind::kOr:
        return "(" + a_->ToString() + " || " + b_->ToString() + ")";
    }
    return "?";
  }
  Status Validate(const std::vector<PatchSchema>& schemas) const override {
    DL_RETURN_NOT_OK(a_->Validate(schemas));
    if (b_) DL_RETURN_NOT_OK(b_->Validate(schemas));
    return Status::OK();
  }

  bool AsConjunction(ExprPtr* left, ExprPtr* right) const override {
    if (kind_ != BoolKind::kAnd) return false;
    *left = a_;
    *right = b_;
    return true;
  }

  void CollectUdfUse(std::vector<UdfUse>* out) const override {
    a_->CollectUdfUse(out);
    if (b_) b_->CollectUdfUse(out);
  }

 private:
  BoolKind kind_;
  ExprPtr a_, b_;
};

enum class ArithKind { kAdd, kSub, kMul };

class ArithExpr : public Expr {
 public:
  ArithExpr(ArithKind kind, ExprPtr a, ExprPtr b)
      : kind_(kind), a_(std::move(a)), b_(std::move(b)) {}

  Result<MetaValue> Eval(const PatchTuple& tuple) const override {
    DL_ASSIGN_OR_RETURN(MetaValue va, a_->Eval(tuple));
    DL_ASSIGN_OR_RETURN(MetaValue vb, b_->Eval(tuple));
    if (va.is_null() || vb.is_null()) return MetaValue();
    // Integer arithmetic stays integral; anything else widens to double.
    if (va.type() == ValueType::kInt && vb.type() == ValueType::kInt) {
      const int64_t x = va.AsInt().value();
      const int64_t y = vb.AsInt().value();
      switch (kind_) {
        case ArithKind::kAdd: return MetaValue(x + y);
        case ArithKind::kSub: return MetaValue(x - y);
        case ArithKind::kMul: return MetaValue(x * y);
      }
    }
    DL_ASSIGN_OR_RETURN(double x, va.AsNumeric());
    DL_ASSIGN_OR_RETURN(double y, vb.AsNumeric());
    switch (kind_) {
      case ArithKind::kAdd: return MetaValue(x + y);
      case ArithKind::kSub: return MetaValue(x - y);
      case ArithKind::kMul: return MetaValue(x * y);
    }
    return Status::Internal("bad arithmetic kind");
  }
  std::string ToString() const override {
    const char* op = kind_ == ArithKind::kAdd
                         ? "+"
                         : (kind_ == ArithKind::kSub ? "-" : "*");
    return "(" + a_->ToString() + " " + op + " " + b_->ToString() + ")";
  }
  Status Validate(const std::vector<PatchSchema>& schemas) const override {
    DL_RETURN_NOT_OK(a_->Validate(schemas));
    return b_->Validate(schemas);
  }

  void CollectUdfUse(std::vector<UdfUse>* out) const override {
    a_->CollectUdfUse(out);
    b_->CollectUdfUse(out);
  }

 private:
  ArithKind kind_;
  ExprPtr a_, b_;
};

class FeatureDistanceExpr : public Expr {
 public:
  FeatureDistanceExpr(size_t a, size_t b) : a_(a), b_(b) {}

  Result<MetaValue> Eval(const PatchTuple& tuple) const override {
    DL_RETURN_NOT_OK(CheckSlot(a_, tuple));
    DL_RETURN_NOT_OK(CheckSlot(b_, tuple));
    const Tensor& fa = tuple[a_].features();
    const Tensor& fb = tuple[b_].features();
    if (fa.empty() || fb.empty()) {
      return Status::InvalidArgument(
          "FeatureDistance on a patch without features (run a Transformer "
          "first)");
    }
    return MetaValue(static_cast<double>(ops::L2Distance(fa, fb)));
  }
  std::string ToString() const override {
    return "dist($" + std::to_string(a_) + ", $" + std::to_string(b_) + ")";
  }

 private:
  size_t a_, b_;
};

class BoxIouExpr : public Expr {
 public:
  BoxIouExpr(size_t a, size_t b) : a_(a), b_(b) {}

  Result<MetaValue> Eval(const PatchTuple& tuple) const override {
    DL_RETURN_NOT_OK(CheckSlot(a_, tuple));
    DL_RETURN_NOT_OK(CheckSlot(b_, tuple));
    return MetaValue(
        static_cast<double>(tuple[a_].bbox().Iou(tuple[b_].bbox())));
  }
  std::string ToString() const override {
    return "iou($" + std::to_string(a_) + ", $" + std::to_string(b_) + ")";
  }

 private:
  size_t a_, b_;
};

}  // namespace

ExprPtr Attr(size_t slot, std::string key) {
  return std::make_shared<AttrExpr>(slot, std::move(key));
}
ExprPtr Attr(std::string key) { return Attr(0, std::move(key)); }
ExprPtr Lit(MetaValue value) {
  return std::make_shared<LitExpr>(std::move(value));
}
ExprPtr Geom(size_t slot, std::string what) {
  return std::make_shared<GeomExpr>(slot, std::move(what));
}

ExprPtr Eq(ExprPtr a, ExprPtr b) {
  return std::make_shared<CmpExpr>(CmpKind::kEq, std::move(a), std::move(b));
}
ExprPtr Ne(ExprPtr a, ExprPtr b) {
  return std::make_shared<CmpExpr>(CmpKind::kNe, std::move(a), std::move(b));
}
ExprPtr Lt(ExprPtr a, ExprPtr b) {
  return std::make_shared<CmpExpr>(CmpKind::kLt, std::move(a), std::move(b));
}
ExprPtr Le(ExprPtr a, ExprPtr b) {
  return std::make_shared<CmpExpr>(CmpKind::kLe, std::move(a), std::move(b));
}
ExprPtr Gt(ExprPtr a, ExprPtr b) {
  return std::make_shared<CmpExpr>(CmpKind::kGt, std::move(a), std::move(b));
}
ExprPtr Ge(ExprPtr a, ExprPtr b) {
  return std::make_shared<CmpExpr>(CmpKind::kGe, std::move(a), std::move(b));
}
ExprPtr And(ExprPtr a, ExprPtr b) {
  return std::make_shared<BoolExpr>(BoolKind::kAnd, std::move(a),
                                    std::move(b));
}
ExprPtr Or(ExprPtr a, ExprPtr b) {
  return std::make_shared<BoolExpr>(BoolKind::kOr, std::move(a),
                                    std::move(b));
}
ExprPtr Not(ExprPtr a) {
  return std::make_shared<BoolExpr>(BoolKind::kNot, std::move(a), nullptr);
}

ExprPtr Add(ExprPtr a, ExprPtr b) {
  return std::make_shared<ArithExpr>(ArithKind::kAdd, std::move(a),
                                     std::move(b));
}
ExprPtr Sub(ExprPtr a, ExprPtr b) {
  return std::make_shared<ArithExpr>(ArithKind::kSub, std::move(a),
                                     std::move(b));
}
ExprPtr MulE(ExprPtr a, ExprPtr b) {
  return std::make_shared<ArithExpr>(ArithKind::kMul, std::move(a),
                                     std::move(b));
}

ExprPtr FeatureDistance(size_t slot_a, size_t slot_b) {
  return std::make_shared<FeatureDistanceExpr>(slot_a, slot_b);
}
ExprPtr BoxIou(size_t slot_a, size_t slot_b) {
  return std::make_shared<BoxIouExpr>(slot_a, slot_b);
}

// --- CompiledPredicate ----------------------------------------------------

namespace {

// Appends `expr`'s top-level conjuncts to `out` in left-to-right order.
void FlattenConjuncts(const ExprPtr& expr, std::vector<ExprPtr>* out) {
  ExprPtr left, right;
  if (expr->AsConjunction(&left, &right)) {
    FlattenConjuncts(left, out);
    FlattenConjuncts(right, out);
    return;
  }
  out->push_back(expr);
}

}  // namespace

// Selectivity is only observed for the first kMaxTrackedSteps conjuncts:
// the batch-local counters live on the eval loops' stack, so the bound
// keeps them fixed-size (predicates beyond it still execute correctly,
// their tail conjuncts just keep their plan-time estimates).
constexpr size_t kMaxTrackedSteps = 16;

CompiledPredicate::SelectivityCounters::SelectivityCounters(
    std::vector<uint64_t> fps)
    : shape_fps(std::move(fps)),
      evaluated(shape_fps.size()),
      passed(shape_fps.size()) {}

CompiledPredicate::SelectivityCounters::~SelectivityCounters() {
  CostModel* model = CostModel::Global();
  for (size_t i = 0; i < shape_fps.size(); ++i) {
    model->RecordSelectivity(shape_fps[i],
                             evaluated[i].load(std::memory_order_relaxed),
                             passed[i].load(std::memory_order_relaxed));
  }
}

CompiledPredicate::CompiledPredicate(ExprPtr pred) {
  if (!pred) return;
  std::vector<ExprPtr> conjuncts;
  FlattenConjuncts(pred, &conjuncts);
  steps_.reserve(conjuncts.size());
  for (const ExprPtr& c : conjuncts) {
    Step step;
    step.shape_fp = ConjunctShapeFingerprint(c);
    if (!c->AsAttrCmpLit(&step.op, &step.slot, &step.key, &step.value)) {
      step.fallback = c;
    }
    steps_.push_back(std::move(step));
  }
  InitFromSteps();
}

CompiledPredicate::CompiledPredicate(std::vector<Step> steps)
    : steps_(std::move(steps)) {
  InitFromSteps();
}

void CompiledPredicate::InitFromSteps() {
  std::vector<uint64_t> fps;
  fps.reserve(std::min(steps_.size(), kMaxTrackedSteps));
  for (size_t i = 0; i < steps_.size() && i < kMaxTrackedSteps; ++i) {
    fps.push_back(steps_[i].shape_fp);
  }
  if (!fps.empty()) {
    counters_ = std::make_shared<SelectivityCounters>(std::move(fps));
  }
  // Attr-vs-literal steps run no UDF, so the fallbacks hold them all.
  std::vector<UdfUse> udfs;
  for (const Step& step : steps_) {
    if (step.fallback) step.fallback->CollectUdfUse(&udfs);
  }
  for (const UdfUse& u : udfs) {
    // Priming only pays off when a cache will consume the fingerprint —
    // and not through a cascade, whose skip path exists precisely to
    // avoid touching the pixels of most rows.
    if (u.cached && !u.cascaded) has_nn_udf_ = true;
  }
}

JoinSideSplit CompiledPredicate::SplitJoinSides() const {
  std::vector<Step> sides[2];
  size_t s = 0;
  for (; s < steps_.size(); ++s) {
    const Step& step = steps_[s];
    if (step.fallback || step.slot > 1) break;
    Step pushed = step;
    pushed.slot = 0;
    sides[step.slot].push_back(std::move(pushed));
  }
  JoinSideSplit split;
  split.left = CompiledPredicate(std::move(sides[0]));
  split.right = CompiledPredicate(std::move(sides[1]));
  split.rest = CompiledPredicate(std::vector<Step>(
      steps_.begin() + static_cast<ptrdiff_t>(s), steps_.end()));
  return split;
}

bool CompiledPredicate::StepPasses(const Step& step, const MetaValue& attr) {
  if (attr.is_null() || step.value.is_null()) return false;
  const int c = attr.Compare(step.value);
  switch (step.op) {
    case -2: return c < 0;
    case -1: return c <= 0;
    case 0: return c == 0;
    case 1: return c >= 0;
    case 2: return c > 0;
  }
  return false;
}

Status CompiledPredicate::EvalTupleRows(const PatchTuple* rows, size_t n,
                                        uint8_t* out) const {
  // Batch-local selectivity tallies, flushed with one atomic add per
  // step after the loop, so morsel workers don't contend per row.
  uint32_t eval_local[kMaxTrackedSteps] = {0};
  uint32_t pass_local[kMaxTrackedSteps] = {0};
  const size_t tracked =
      counters_ ? std::min(steps_.size(), kMaxTrackedSteps) : 0;
  for (size_t i = 0; i < n; ++i) {
    const PatchTuple& row = rows[i];
    uint8_t pass = 1;
    for (size_t s = 0; s < steps_.size(); ++s) {
      const Step& step = steps_[s];
      bool ok;
      if (step.fallback) {
        DL_ASSIGN_OR_RETURN(ok, step.fallback->EvalBool(row));
      } else {
        DL_RETURN_NOT_OK(CheckSlot(step.slot, row));
        ok = StepPasses(step, row[step.slot].meta().Get(step.key));
      }
      if (s < tracked) {
        ++eval_local[s];
        if (ok) ++pass_local[s];
      }
      if (!ok) {
        pass = 0;
        break;
      }
    }
    out[i] = pass;
  }
  for (size_t s = 0; s < tracked; ++s) {
    counters_->evaluated[s].fetch_add(eval_local[s],
                                      std::memory_order_relaxed);
    counters_->passed[s].fetch_add(pass_local[s], std::memory_order_relaxed);
  }
  return Status::OK();
}

Status CompiledPredicate::EvalPatchRows(const Patch* rows, size_t n,
                                        uint8_t* out) const {
  PatchTuple scratch;  // materialized lazily, only for fallback conjuncts
  uint32_t eval_local[kMaxTrackedSteps] = {0};
  uint32_t pass_local[kMaxTrackedSteps] = {0};
  const size_t tracked =
      counters_ ? std::min(steps_.size(), kMaxTrackedSteps) : 0;
  for (size_t i = 0; i < n; ++i) {
    uint8_t pass = 1;
    bool materialized = false;
    for (size_t s = 0; s < steps_.size(); ++s) {
      const Step& step = steps_[s];
      bool ok;
      if (step.fallback) {
        if (!materialized) {
          // Prime the fingerprint on the source row first: the memo is
          // carried into the copy AND persists in the view, so repeated
          // NN-UDF queries never re-hash the pixels.
          if (has_nn_udf_) rows[i].Fingerprint();
          // Assign into the existing slot where possible: same-shape
          // image buffers are reused instead of reallocated per row.
          if (scratch.empty()) {
            scratch.push_back(rows[i]);
          } else {
            scratch[0] = rows[i];
          }
          materialized = true;
        }
        DL_ASSIGN_OR_RETURN(ok, step.fallback->EvalBool(scratch));
      } else {
        if (step.slot != 0) {
          return Status::OutOfRange("expression references tuple slot " +
                                    std::to_string(step.slot) + " of 1");
        }
        ok = StepPasses(step, rows[i].meta().Get(step.key));
      }
      if (s < tracked) {
        ++eval_local[s];
        if (ok) ++pass_local[s];
      }
      if (!ok) {
        pass = 0;
        break;
      }
    }
    out[i] = pass;
  }
  for (size_t s = 0; s < tracked; ++s) {
    counters_->evaluated[s].fetch_add(eval_local[s],
                                      std::memory_order_relaxed);
    counters_->passed[s].fetch_add(pass_local[s], std::memory_order_relaxed);
  }
  return Status::OK();
}

Result<bool> CompiledPredicate::EvalOne(const PatchTuple& row) const {
  uint8_t out = 0;
  DL_RETURN_NOT_OK(EvalTupleRows(&row, 1, &out));
  return out != 0;
}

Result<bool> CompiledPredicate::EvalOnePatch(const Patch& row) const {
  uint8_t out = 0;
  DL_RETURN_NOT_OK(EvalPatchRows(&row, 1, &out));
  return out != 0;
}

}  // namespace deeplens
