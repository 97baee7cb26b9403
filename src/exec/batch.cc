#include "exec/batch.h"

#include <algorithm>

namespace deeplens {

namespace {

class BatchVectorSource : public BatchIterator {
 public:
  BatchVectorSource(PatchCollection patches, size_t batch_size)
      : patches_(std::move(patches)), batch_size_(std::max<size_t>(1, batch_size)) {}

  Result<std::optional<PatchBatch>> Next() override {
    if (pos_ >= patches_.size()) return std::optional<PatchBatch>();
    const size_t n = std::min(batch_size_, patches_.size() - pos_);
    PatchBatch batch;
    batch.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      PatchTuple t;
      t.push_back(std::move(patches_[pos_ + i]));
      batch.tuples.push_back(std::move(t));
    }
    pos_ += n;
    return std::optional<PatchBatch>(std::move(batch));
  }

 private:
  PatchCollection patches_;
  size_t batch_size_;
  size_t pos_ = 0;
};

class BatchToTupleAdapter : public PatchIterator {
 public:
  explicit BatchToTupleAdapter(BatchIteratorPtr child)
      : child_(std::move(child)) {}

  Result<std::optional<PatchTuple>> Next() override {
    while (pos_ >= current_.size()) {
      DL_ASSIGN_OR_RETURN(auto batch, child_->Next());
      if (!batch.has_value()) return std::optional<PatchTuple>();
      current_ = std::move(*batch);
      pos_ = 0;
    }
    return std::optional<PatchTuple>(std::move(current_.tuples[pos_++]));
  }

 private:
  BatchIteratorPtr child_;
  PatchBatch current_;
  size_t pos_ = 0;
};

// Shared by the owning and non-owning TupleToBatch variants.
class TupleToBatchAdapter : public BatchIterator {
 public:
  TupleToBatchAdapter(PatchIteratorPtr owned, PatchIterator* child,
                      size_t batch_size)
      : owned_(std::move(owned)),
        child_(child),
        batch_size_(std::max<size_t>(1, batch_size)) {}

  Result<std::optional<PatchBatch>> Next() override {
    if (pending_error_.has_value()) {
      Status st = std::move(*pending_error_);
      pending_error_.reset();
      done_ = true;
      return st;
    }
    if (done_) return std::optional<PatchBatch>();
    PatchBatch batch;
    batch.reserve(batch_size_);
    while (batch.size() < batch_size_) {
      auto tuple = child_->Next();
      if (!tuple.ok()) {
        // Deliver what we already pulled; the error surfaces on the next
        // call, matching tuple-at-a-time ordering.
        if (batch.empty()) {
          done_ = true;
          return tuple.status();
        }
        pending_error_ = tuple.status();
        break;
      }
      if (!tuple->has_value()) {
        done_ = true;
        break;
      }
      batch.tuples.push_back(std::move(**tuple));
    }
    if (batch.empty()) return std::optional<PatchBatch>();
    return std::optional<PatchBatch>(std::move(batch));
  }

 private:
  PatchIteratorPtr owned_;  // may be null for the non-owning variant
  PatchIterator* child_;
  size_t batch_size_;
  bool done_ = false;
  std::optional<Status> pending_error_;
};

}  // namespace

BatchIteratorPtr MakeBatchVectorSource(PatchCollection patches,
                                       size_t batch_size) {
  return std::make_unique<BatchVectorSource>(std::move(patches), batch_size);
}

PatchIteratorPtr BatchToTuple(BatchIteratorPtr child) {
  return std::make_unique<BatchToTupleAdapter>(std::move(child));
}

BatchIteratorPtr TupleToBatch(PatchIteratorPtr child, size_t batch_size) {
  PatchIterator* raw = child.get();
  return std::make_unique<TupleToBatchAdapter>(std::move(child), raw,
                                               batch_size);
}

BatchIteratorPtr TupleToBatch(PatchIterator* child, size_t batch_size) {
  return std::make_unique<TupleToBatchAdapter>(nullptr, child, batch_size);
}

Result<std::vector<PatchTuple>> CollectBatches(BatchIterator* it) {
  std::vector<PatchTuple> out;
  while (true) {
    DL_ASSIGN_OR_RETURN(auto batch, it->Next());
    if (!batch.has_value()) break;
    for (PatchTuple& t : batch->tuples) out.push_back(std::move(t));
  }
  return out;
}

Result<PatchCollection> CollectBatchPatches(BatchIterator* it) {
  PatchCollection out;
  while (true) {
    DL_ASSIGN_OR_RETURN(auto batch, it->Next());
    if (!batch.has_value()) break;
    for (PatchTuple& t : batch->tuples) {
      if (t.size() != 1) {
        return Status::InvalidArgument(
            "CollectPatches on a multi-patch tuple stream");
      }
      out.push_back(std::move(t[0]));
    }
  }
  return out;
}

}  // namespace deeplens
