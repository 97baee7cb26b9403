// ColumnarWriter / ColumnarReader: the chunked columnar view file
// (format.h documents the layout). The writer streams strictly-id-ordered
// patches into per-column-encoded chunks and commits a footer catalog;
// the reader prunes chunks against pushed-down conjuncts using footer
// zone maps alone, then decodes only the columns a projection asks for —
// pruned chunks are never read and unprojected pixel/feature blobs are
// never materialized. Aggregates (FoldChunk) count straight off the
// encoded columns and build no rows at all.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/patch.h"
#include "storage/columnar/format.h"
#include "storage/file_io.h"

namespace deeplens {
namespace columnar {

struct ColumnarWriterOptions {
  /// Rows per chunk; 0 means DEEPLENS_COLUMNAR_CHUNK_ROWS (default 8192).
  size_t chunk_rows = 0;
};

/// \brief Append-side of the format. Not thread-safe. Rows must arrive in
/// strictly increasing id order (the file-wide invariant zone-map id
/// pruning and the reader's merge logic rely on); MaterializedView owns
/// the reorder/overwrite buffering above this layer. Nothing is visible
/// to readers until Commit() writes the footer tail.
class ColumnarWriter {
 public:
  /// Opens `path` for append, creating it (with the header magic) when
  /// absent or empty. An existing file must carry a valid footer — a torn
  /// or corrupt file surfaces as typed Corruption, never silent loss.
  static Result<std::unique_ptr<ColumnarWriter>> Open(
      const std::string& path, const ColumnarWriterOptions& options = {});

  /// Buffers one patch; seals a chunk to disk every chunk_rows rows.
  /// InvalidArgument when `patch.id()` does not exceed the last id.
  Status Append(const Patch& patch);

  /// Seals the open chunk (if any) and writes the footer tail; the commit
  /// point after which a reader sees every appended row. Idempotent.
  Status Commit();

  uint64_t rows() const { return footer_.total_rows + open_rows_.size(); }
  bool has_rows() const { return has_last_; }
  PatchId last_id() const { return last_id_; }
  uint64_t file_bytes() const { return file_->size(); }
  const std::string& path() const { return path_; }

 private:
  ColumnarWriter(std::string path, std::unique_ptr<AppendOnlyFile> file,
                 size_t chunk_rows)
      : path_(std::move(path)), file_(std::move(file)),
        chunk_rows_(chunk_rows) {}

  Status SealChunk();

  std::string path_;
  std::unique_ptr<AppendOnlyFile> file_;
  size_t chunk_rows_;
  ColumnarFooter footer_;       // chunks sealed so far (this + prior opens)
  std::vector<Patch> open_rows_;
  bool has_last_ = false;
  PatchId last_id_ = 0;
  bool dirty_ = false;          // sealed chunks not yet covered by a tail
};

/// Column subset + row filter for one chunk read.
struct ChunkReadOptions {
  ColumnarProjection projection;
  /// Conjuncts applied row-wise during decode (StepPasses semantics).
  /// Only sound as the *sole* filter when the pushdown was fully
  /// sargable; residual predicates re-run above the reader.
  std::vector<ColumnPredicate> row_filter;
};

/// Selected rows of one chunk that share one value of a fold's key.
struct KeyCount {
  MetaValue value;  // null for rows without the key (and for every row
                    // when the fold has no key)
  uint64_t rows = 0;
};

/// FoldChunk's result for one chunk.
struct ChunkFold {
  uint64_t rows = 0;           // rows passing the row filter
  std::vector<KeyCount> keys;  // those rows by key value; sums to `rows`
  uint64_t bytes_decoded = 0;  // every buffer the fold decoded
};

/// \brief Read-side of the format. Immutable snapshot of the footer taken
/// at Open(); safe for concurrent ReadChunk calls from many threads (all
/// I/O is positional pread). Holding the reader keeps the snapshot alive
/// across later appends and even a merge-rewrite rename of the path.
class ColumnarReader {
 public:
  static Result<std::shared_ptr<ColumnarReader>> Open(
      const std::string& path);

  uint64_t total_rows() const { return footer_.total_rows; }
  size_t num_chunks() const { return footer_.chunks.size(); }
  const ChunkMeta& chunk(size_t index) const {
    return footer_.chunks[index];
  }
  const ColumnarFooter& footer() const { return footer_; }
  uint64_t file_bytes() const { return file_->size(); }
  const std::string& path() const { return path_; }

  /// Chunk indexes (in order) whose zone maps admit `preds`; the
  /// complement is pruned without any chunk I/O.
  std::vector<size_t> SelectChunks(
      const std::vector<ColumnPredicate>& preds) const;

  /// Reads + decodes one chunk: CRC-verified, filter applied to the typed
  /// column values, rows built only for survivors and only from projected
  /// columns. Corruption on any mismatch with the footer catalog.
  Result<PatchCollection> ReadChunk(size_t index,
                                    const ChunkReadOptions& options) const;

  /// The aggregate read: verifies, parses and filters one chunk with the
  /// same steps as ReadChunk, then counts the surviving rows per value of
  /// metadata column `key` (one group when `key` is null) without
  /// building a row; only the filter and key columns are decoded. Fails
  /// exactly where ReadChunk fails under a meta-only projection of the
  /// filter and key columns.
  Result<ChunkFold> FoldChunk(size_t index,
                              const std::vector<ColumnPredicate>& row_filter,
                              const std::string* key) const;

  /// Every row of every chunk, full projection (the LoadAll path).
  Result<PatchCollection> ReadAll() const;

 private:
  ColumnarReader(std::string path, std::unique_ptr<RandomAccessFile> file,
                 ColumnarFooter footer)
      : path_(std::move(path)), file_(std::move(file)),
        footer_(std::move(footer)) {}

  std::string path_;
  std::unique_ptr<RandomAccessFile> file_;
  ColumnarFooter footer_;
};

}  // namespace columnar
}  // namespace deeplens
