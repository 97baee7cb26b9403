#include "etl/materialize.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <numeric>

#include "storage/columnar/async_loader.h"
#include "storage/file_io.h"

namespace deeplens {

Result<std::unique_ptr<MaterializedView>> MaterializedView::Open(
    const std::string& path) {
  DL_ASSIGN_OR_RETURN(auto writer, columnar::ColumnarWriter::Open(path));
  return std::unique_ptr<MaterializedView>(
      new MaterializedView(path, std::move(writer)));
}

Status MaterializedView::Append(const Patch& patch) {
  // The file wants strictly ascending ids. The common ETL case (fresh ids
  // from the database counter) streams straight into chunks; out-of-order
  // or overwriting appends park in the pending buffer and merge at the
  // next sync.
  if (pending_.empty() &&
      (!writer_->has_rows() || patch.id() > writer_->last_id())) {
    return writer_->Append(patch);
  }
  pending_[patch.id()] = patch;
  return Status::OK();
}

Status MaterializedView::SyncColumnar() const {
  if (pending_.empty()) return writer_->Commit();
  if (!writer_->has_rows() ||
      pending_.begin()->first > writer_->last_id()) {
    // Everything pending lands after the last stored row: append in order.
    for (const auto& [id, patch] : pending_) {
      DL_RETURN_NOT_OK(writer_->Append(patch));
    }
    pending_.clear();
    return writer_->Commit();
  }
  // Ids collide or interleave with stored rows: merge-rewrite the whole
  // file through a temp + atomic rename (the RecordStore::Compact
  // pattern). Readers holding the old file keep their snapshot via the
  // open descriptor.
  DL_RETURN_NOT_OK(writer_->Commit());
  DL_ASSIGN_OR_RETURN(auto reader, columnar::ColumnarReader::Open(path_));
  const std::string tmp_path = path_ + ".rewrite";
  DL_RETURN_NOT_OK(RemoveFileIfExists(tmp_path));
  {
    DL_ASSIGN_OR_RETURN(auto rewriter,
                        columnar::ColumnarWriter::Open(tmp_path));
    auto it = pending_.begin();
    columnar::ChunkReadOptions full;
    for (size_t c = 0; c < reader->num_chunks(); ++c) {
      DL_ASSIGN_OR_RETURN(PatchCollection rows, reader->ReadChunk(c, full));
      for (Patch& p : rows) {
        while (it != pending_.end() && it->first < p.id()) {
          DL_RETURN_NOT_OK(rewriter->Append(it->second));
          ++it;
        }
        if (it != pending_.end() && it->first == p.id()) {
          DL_RETURN_NOT_OK(rewriter->Append(it->second));  // overwrite
          ++it;
        } else {
          DL_RETURN_NOT_OK(rewriter->Append(p));
        }
      }
    }
    for (; it != pending_.end(); ++it) {
      DL_RETURN_NOT_OK(rewriter->Append(it->second));
    }
    DL_RETURN_NOT_OK(rewriter->Commit());
  }
  writer_.reset();  // close our handle before swapping the files
  if (::rename(tmp_path.c_str(), path_.c_str()) != 0) {
    const Status rename_status = Status::IOError(
        "rename '" + tmp_path + "' -> '" + path_ + "': " +
        std::strerror(errno));
    auto reopened = columnar::ColumnarWriter::Open(path_);
    if (reopened.ok()) writer_ = std::move(reopened).value();
    return rename_status;
  }
  DL_ASSIGN_OR_RETURN(writer_, columnar::ColumnarWriter::Open(path_));
  pending_.clear();
  return Status::OK();
}

Result<uint64_t> MaterializedView::Write(PatchIterator* it) {
  uint64_t written = 0;
  while (true) {
    DL_ASSIGN_OR_RETURN(auto tuple, it->Next());
    if (!tuple.has_value()) break;
    for (const Patch& p : *tuple) {
      DL_RETURN_NOT_OK(Append(p));
      ++written;
    }
  }
  DL_RETURN_NOT_OK(Flush());
  return written;
}

Result<PatchCollection> MaterializedView::LoadAll() const {
  DL_RETURN_NOT_OK(SyncColumnar());
  DL_ASSIGN_OR_RETURN(auto reader, columnar::ColumnarReader::Open(path_));
  return reader->ReadAll();
}

Result<std::shared_ptr<columnar::ColumnarReader>>
MaterializedView::OpenReader() const {
  DL_RETURN_NOT_OK(SyncColumnar());
  return columnar::ColumnarReader::Open(path_);
}

namespace {

// Streams a columnar file row-at-a-time through the decode-ahead loader,
// popping rows off the current decoded chunk. The loader owns the reader
// snapshot, so the scan survives the view and never sees later appends.
class ColumnarScan : public PatchIterator {
 public:
  explicit ColumnarScan(
      std::shared_ptr<const columnar::ColumnarReader> reader) {
    std::vector<size_t> all_chunks(reader->num_chunks());
    std::iota(all_chunks.begin(), all_chunks.end(), size_t{0});
    loader_ = std::make_unique<columnar::AsyncChunkLoader>(
        std::move(reader), std::move(all_chunks),
        columnar::ChunkReadOptions{});
  }

  Result<std::optional<PatchTuple>> Next() override {
    while (pos_ >= chunk_.size()) {
      DL_ASSIGN_OR_RETURN(auto rows, loader_->Next());
      if (!rows.has_value()) return std::optional<PatchTuple>();
      chunk_ = std::move(*rows);
      pos_ = 0;
    }
    return std::optional<PatchTuple>(PatchTuple{std::move(chunk_[pos_++])});
  }

 private:
  std::unique_ptr<columnar::AsyncChunkLoader> loader_;
  PatchCollection chunk_;
  size_t pos_ = 0;
};

}  // namespace

PatchIteratorPtr MaterializedView::Scan() const {
  auto reader = OpenReader();
  if (!reader.ok()) {
    return MakeGeneratorSource(
        [status = reader.status()]() -> Result<std::optional<PatchTuple>> {
          return status;
        });
  }
  return std::make_unique<ColumnarScan>(std::move(reader).value());
}

uint64_t MaterializedView::size() const {
  if (SyncColumnar().ok()) return writer_->rows();
  // Sync failed (e.g. I/O error): report the upper bound we know of.
  return writer_->rows() + pending_.size();
}

uint64_t MaterializedView::storage_bytes() const {
  (void)SyncColumnar();
  return writer_->file_bytes();
}

Status MaterializedView::Flush() { return SyncColumnar(); }

}  // namespace deeplens
