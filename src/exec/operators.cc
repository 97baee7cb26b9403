#include "exec/operators.h"

namespace deeplens {

namespace {

class VectorSource : public PatchIterator {
 public:
  explicit VectorSource(PatchCollection patches)
      : patches_(std::move(patches)) {}

  Result<std::optional<PatchTuple>> Next() override {
    if (pos_ >= patches_.size()) return std::optional<PatchTuple>();
    PatchTuple t{patches_[pos_++]};
    return std::optional<PatchTuple>(std::move(t));
  }

 private:
  PatchCollection patches_;
  size_t pos_ = 0;
};

class GeneratorSource : public PatchIterator {
 public:
  explicit GeneratorSource(
      std::function<Result<std::optional<PatchTuple>>()> fn)
      : fn_(std::move(fn)) {}

  Result<std::optional<PatchTuple>> Next() override { return fn_(); }

 private:
  std::function<Result<std::optional<PatchTuple>>()> fn_;
};

class FilterOp : public PatchIterator {
 public:
  FilterOp(PatchIteratorPtr child, ExprPtr predicate)
      : child_(std::move(child)), predicate_(std::move(predicate)) {}

  Result<std::optional<PatchTuple>> Next() override {
    while (true) {
      DL_ASSIGN_OR_RETURN(auto tuple, child_->Next());
      if (!tuple.has_value()) return std::optional<PatchTuple>();
      DL_ASSIGN_OR_RETURN(bool pass, predicate_->EvalBool(*tuple));
      if (pass) return tuple;
    }
  }

 private:
  PatchIteratorPtr child_;
  ExprPtr predicate_;
};

class MapOp : public PatchIterator {
 public:
  MapOp(PatchIteratorPtr child,
        std::function<Result<PatchTuple>(PatchTuple)> fn)
      : child_(std::move(child)), fn_(std::move(fn)) {}

  Result<std::optional<PatchTuple>> Next() override {
    DL_ASSIGN_OR_RETURN(auto tuple, child_->Next());
    if (!tuple.has_value()) return std::optional<PatchTuple>();
    DL_ASSIGN_OR_RETURN(PatchTuple mapped, fn_(std::move(*tuple)));
    return std::optional<PatchTuple>(std::move(mapped));
  }

 private:
  PatchIteratorPtr child_;
  std::function<Result<PatchTuple>(PatchTuple)> fn_;
};

}  // namespace

PatchIteratorPtr MakeVectorSource(PatchCollection patches) {
  return std::make_unique<VectorSource>(std::move(patches));
}

PatchIteratorPtr MakeGeneratorSource(
    std::function<Result<std::optional<PatchTuple>>()> fn) {
  return std::make_unique<GeneratorSource>(std::move(fn));
}

PatchIteratorPtr MakeFilter(PatchIteratorPtr child, ExprPtr predicate) {
  return std::make_unique<FilterOp>(std::move(child), std::move(predicate));
}

PatchIteratorPtr MakeMap(PatchIteratorPtr child,
                         std::function<Result<PatchTuple>(PatchTuple)> fn) {
  return std::make_unique<MapOp>(std::move(child), std::move(fn));
}

Result<std::vector<PatchTuple>> Collect(PatchIterator* it) {
  std::vector<PatchTuple> out;
  while (true) {
    DL_ASSIGN_OR_RETURN(auto tuple, it->Next());
    if (!tuple.has_value()) break;
    out.push_back(std::move(*tuple));
  }
  return out;
}

Result<PatchCollection> CollectPatches(PatchIterator* it) {
  PatchCollection out;
  while (true) {
    DL_ASSIGN_OR_RETURN(auto tuple, it->Next());
    if (!tuple.has_value()) break;
    if (tuple->size() != 1) {
      return Status::InvalidArgument(
          "CollectPatches on a multi-patch tuple stream");
    }
    out.push_back(std::move((*tuple)[0]));
  }
  return out;
}

Result<uint64_t> Drain(PatchIterator* it) {
  uint64_t n = 0;
  while (true) {
    DL_ASSIGN_OR_RETURN(auto tuple, it->Next());
    if (!tuple.has_value()) break;
    ++n;
  }
  return n;
}

}  // namespace deeplens
