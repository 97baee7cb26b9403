// Materialization (paper §4.1 "Materialize"): any stage of the patch
// dataflow can be persisted to disk and reloaded, so expensive ETL (neural
// inference) amortizes across queries — the ETL-vs-Query-time separation
// of §7.2.
//
// Views are stored in the chunked columnar format (storage/columnar/).
// Write() drains and Scan() yields the streaming PatchIterator
// (exec/operators.h); OpenReader() hands the planner a footer snapshot,
// so scans get zone-map pruning, projection pushdown and async
// decode-ahead instead of a full materialize. A file in any other format
// (e.g. a pre-columnar RecordStore log) fails to open with the reader's
// typed Corruption and is left as is.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "core/patch.h"
#include "exec/operators.h"
#include "storage/columnar/columnar_file.h"

namespace deeplens {

/// \brief A named, persisted patch collection (keys are patch ids; a
/// re-appended id overwrites the stored row).
class MaterializedView {
 public:
  /// Opens (or creates) the view's columnar backing file. A non-empty
  /// file that is not a valid columnar view is a Corruption and is not
  /// modified.
  static Result<std::unique_ptr<MaterializedView>> Open(
      const std::string& path);

  /// Drains a tuple iterator into the store and flushes. Returns the
  /// number of patches written.
  Result<uint64_t> Write(PatchIterator* it);

  /// Appends a single patch (buffered until Flush/scan when it arrives
  /// out of id order or overwrites an existing id).
  Status Append(const Patch& patch);

  /// Loads every stored patch (ordered by id).
  Result<PatchCollection> LoadAll() const;

  /// Tuple source over the stored patches, in id order. The iterator is a
  /// snapshot taken at call time: it survives the view and never sees
  /// later appends. It streams chunk-at-a-time through the async
  /// decode-ahead loader instead of materializing everything eagerly. If
  /// the file cannot be opened, every Next() returns the open error.
  PatchIteratorPtr Scan() const;

  /// A footer snapshot handle for planner-side chunk-pruned scans.
  Result<std::shared_ptr<columnar::ColumnarReader>> OpenReader() const;

  uint64_t size() const;
  uint64_t storage_bytes() const;
  Status Flush();

 private:
  MaterializedView(std::string path,
                   std::unique_ptr<columnar::ColumnarWriter> writer)
      : path_(std::move(path)), writer_(std::move(writer)) {}

  /// Drains the pending reorder/overwrite buffer into the file
  /// (merge-rewriting when ids collide or interleave) and commits the
  /// footer, so readers opened afterwards see every append. Const because
  /// every read path must observe pending appends (mutable backend).
  Status SyncColumnar() const;

  std::string path_;
  mutable std::unique_ptr<columnar::ColumnarWriter> writer_;
  // Out-of-order / overwriting appends park here until SyncColumnar().
  mutable std::map<PatchId, Patch> pending_;
};

}  // namespace deeplens
