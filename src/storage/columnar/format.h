// On-disk layout contract of the chunked columnar view format, shared by
// ColumnarWriter/ColumnarReader, the planner's pushdown path, and the
// fuzz/corruption tests.
//
//   [u64 header magic]
//   [chunk 0 bytes][chunk 1 bytes]...
//   [footer][u32 footer_len][u32 crc32c(footer)][u64 tail magic]
//
// Re-opening a file for append writes new chunks after the previous tail
// and commits a fresh footer at the new end; stale tails become dead
// bytes addressed by nothing. The reader trusts only the trailing
// footer, whose catalog carries per-chunk offset/length/CRC, the row
// count, the id range, and a zone map (min/max under MetaValue::Compare,
// null count) per metadata column — enough to prune chunks against
// sargable conjuncts without reading a single chunk byte. A torn tail or
// a CRC mismatch is a typed Corruption, never a wrong answer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "core/patch.h"
#include "core/value.h"
#include "exec/expression.h"

namespace deeplens {
namespace columnar {

// "DLCOLV1\n" little-endian; a view file starting with anything else is
// rejected as Corruption.
inline constexpr uint64_t kColumnarMagic = 0x0a31564c4f434c44ull;
inline constexpr size_t kHeaderSize = 8;
inline constexpr size_t kTailSize = 16;  // after footer: len + crc + magic
inline constexpr uint8_t kFormatVersion = 1;

// Column tag inside a chunk / footer. Values 1..4 mirror ValueType; a
// column whose present entries mix types (or hold explicit nulls) falls
// back to row-serialized MetaValues.
inline constexpr uint8_t kTagMixed = 0xff;

// Zone-map min/max entries larger than this (long strings) are dropped
// from the footer rather than bloating it; the chunk just stops being
// prunable on that column.
inline constexpr size_t kMaxZoneMapValueBytes = 128;

/// DEEPLENS_COLUMNAR_CHUNK_ROWS: rows per chunk, [1, 65536], default 8192.
size_t ColumnarChunkRowsFromEnv();
inline constexpr size_t kDefaultChunkRows = 8192;
inline constexpr size_t kMaxChunkRows = 65536;

/// DEEPLENS_PREFETCH_DEPTH: decoded chunks the AsyncChunkLoader may queue
/// ahead of the consumer, [0, 64]; 0 disables the I/O thread (synchronous
/// loads). Default 4.
size_t PrefetchDepthFromEnv();
inline constexpr size_t kDefaultPrefetchDepth = 4;
inline constexpr size_t kMaxPrefetchDepth = 64;

/// Per-column zone map: enough footer-resident state to decide
/// ChunkMayMatch without touching the chunk.
struct ZoneMap {
  uint64_t null_count = 0;  // rows where meta.Get(name).is_null()
  bool has_minmax = false;  // false: all-null column, oversized values, or
                            // a NaN (see IsUnorderedValue)
  MetaValue min;            // min/max under MetaValue::Compare over the
  MetaValue max;            // non-null values (cross-type by type tag)
};

struct ChunkColumnMeta {
  std::string name;
  uint8_t tag = kTagMixed;
  ZoneMap zone;
};

struct ChunkMeta {
  uint64_t offset = 0;  // absolute file offset of the chunk bytes
  uint64_t length = 0;
  uint32_t crc = 0;     // crc32c over the chunk bytes
  uint64_t rows = 0;
  PatchId id_min = 0;
  PatchId id_max = 0;
  std::vector<ChunkColumnMeta> columns;  // sorted by name (MetaDict order)

  const ChunkColumnMeta* FindColumn(const std::string& name) const;
};

struct ColumnarFooter {
  uint8_t version = kFormatVersion;
  uint64_t total_rows = 0;
  std::vector<ChunkMeta> chunks;

  void SerializeInto(ByteBuffer* out) const;
  static Result<ColumnarFooter> Deserialize(ByteReader* reader);
};

/// Column subset to materialize from a chunk. Blocks outside the
/// projection are skipped at decode time (their bytes are never parsed,
/// their values never allocated).
struct ColumnarProjection {
  bool pixels = true;
  bool features = true;
  bool all_meta = true;
  std::vector<std::string> meta_keys;  // consulted when !all_meta

  bool WantsMeta(const std::string& key) const;
};

/// One sargable conjunct pushed into the reader. `op` uses the
/// CompiledPredicate convention: -2 '<', -1 '<=', 0 '==', 1 '>=', 2 '>',
/// attribute on the left.
struct ColumnPredicate {
  int op = 0;
  std::string key;
  MetaValue value;
};

/// The pushdown the planner extracted from a predicate tree: every
/// top-level conjunct of the slot-0 attr-vs-literal shape. `residual` —
/// the other conjuncts, ANDed in their order — must still run over the
/// materialized rows; when it is null the conjuncts are the whole
/// predicate and the reader's row filter alone decides membership.
struct PredicatePushdown {
  std::vector<ColumnPredicate> preds;
  ExprPtr residual;
};

PredicatePushdown ExtractPushdown(const ExprPtr& predicate);

/// Row-level semantics of a pushed conjunct — exactly
/// CompiledPredicate::StepPasses: a null attribute or null literal never
/// passes; otherwise MetaValue::Compare decides.
bool ValuePassesPredicate(const MetaValue& attr, const ColumnPredicate& pred);

/// Whether a three-way comparison result `c` (attribute vs literal)
/// satisfies the ColumnPredicate op `op`; false for an unknown op.
bool OpAccepts(int op, int c);

/// Zone-map test: false only when *no* row in the chunk can pass every
/// conjunct. Conservative in both directions the format needs: a column
/// absent from the chunk (or all-null) fails any conjunct on it, and a
/// column without min/max stats never prunes.
bool ChunkMayMatch(const ChunkMeta& chunk,
                   const std::vector<ColumnPredicate>& preds);

/// Decoded heap footprint of a patch (pixel bytes, feature floats,
/// strings, dict nodes) — the unit the AsyncChunkLoader's byte budget is
/// charged in. Deliberately counts capacity-style costs, not just
/// payload, so prefetch cannot balloon memory on wide columns.
size_t ApproxPatchBytes(const Patch& patch);

}  // namespace columnar
}  // namespace deeplens
