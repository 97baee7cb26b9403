#include "storage/columnar/format.h"

#include <algorithm>

#include "common/env.h"
#include "exec/expression_patterns.h"

namespace deeplens {
namespace columnar {

size_t ColumnarChunkRowsFromEnv() {
  return static_cast<size_t>(PositiveIntFromEnv(
      "DEEPLENS_COLUMNAR_CHUNK_ROWS", kDefaultChunkRows, kMaxChunkRows));
}

size_t PrefetchDepthFromEnv() {
  return static_cast<size_t>(
      PositiveIntFromEnv("DEEPLENS_PREFETCH_DEPTH", kDefaultPrefetchDepth,
                         kMaxPrefetchDepth, /*allow_zero=*/true));
}

bool ColumnarProjection::WantsMeta(const std::string& key) const {
  if (all_meta) return true;
  return std::find(meta_keys.begin(), meta_keys.end(), key) !=
         meta_keys.end();
}

const ChunkColumnMeta* ChunkMeta::FindColumn(const std::string& name) const {
  for (const ChunkColumnMeta& col : columns) {
    if (col.name == name) return &col;
  }
  return nullptr;
}

void ColumnarFooter::SerializeInto(ByteBuffer* out) const {
  out->PutU8(version);
  out->PutVarint(total_rows);
  out->PutVarint(chunks.size());
  for (const ChunkMeta& chunk : chunks) {
    out->PutVarint(chunk.offset);
    out->PutVarint(chunk.length);
    out->PutU32(chunk.crc);
    out->PutVarint(chunk.rows);
    out->PutVarint(chunk.id_min);
    out->PutVarint(chunk.id_max);
    out->PutVarint(chunk.columns.size());
    for (const ChunkColumnMeta& col : chunk.columns) {
      out->PutLengthPrefixed(Slice(col.name));
      out->PutU8(col.tag);
      out->PutVarint(col.zone.null_count);
      out->PutU8(col.zone.has_minmax ? 1 : 0);
      if (col.zone.has_minmax) {
        col.zone.min.SerializeInto(out);
        col.zone.max.SerializeInto(out);
      }
    }
  }
}

Result<ColumnarFooter> ColumnarFooter::Deserialize(ByteReader* reader) {
  ColumnarFooter footer;
  DL_ASSIGN_OR_RETURN(footer.version, reader->GetU8());
  if (footer.version == 0 || footer.version > kFormatVersion) {
    return Status::Corruption("columnar footer: unsupported version " +
                              std::to_string(footer.version));
  }
  DL_ASSIGN_OR_RETURN(footer.total_rows, reader->GetVarint());
  uint64_t num_chunks = 0;
  DL_ASSIGN_OR_RETURN(num_chunks, reader->GetVarint());
  // Each chunk entry costs >= 7 bytes; an absurd count cannot outrun the
  // footer bytes that are actually present.
  if (num_chunks > reader->remaining()) {
    return Status::Corruption("columnar footer: chunk count overflows");
  }
  uint64_t rows_seen = 0;
  footer.chunks.reserve(static_cast<size_t>(num_chunks));
  for (uint64_t i = 0; i < num_chunks; ++i) {
    ChunkMeta chunk;
    DL_ASSIGN_OR_RETURN(chunk.offset, reader->GetVarint());
    DL_ASSIGN_OR_RETURN(chunk.length, reader->GetVarint());
    DL_ASSIGN_OR_RETURN(chunk.crc, reader->GetU32());
    DL_ASSIGN_OR_RETURN(chunk.rows, reader->GetVarint());
    DL_ASSIGN_OR_RETURN(chunk.id_min, reader->GetVarint());
    DL_ASSIGN_OR_RETURN(chunk.id_max, reader->GetVarint());
    if (chunk.rows == 0 || chunk.rows > kMaxChunkRows) {
      return Status::Corruption("columnar footer: chunk row count " +
                                std::to_string(chunk.rows) + " out of range");
    }
    if (chunk.id_min > chunk.id_max) {
      return Status::Corruption("columnar footer: inverted chunk id range");
    }
    if (!footer.chunks.empty() &&
        chunk.id_min <= footer.chunks.back().id_max) {
      return Status::Corruption(
          "columnar footer: chunk id ranges not ascending");
    }
    uint64_t num_cols = 0;
    DL_ASSIGN_OR_RETURN(num_cols, reader->GetVarint());
    if (num_cols > reader->remaining()) {
      return Status::Corruption("columnar footer: column count overflows");
    }
    chunk.columns.reserve(static_cast<size_t>(num_cols));
    for (uint64_t c = 0; c < num_cols; ++c) {
      ChunkColumnMeta col;
      Slice name;
      DL_ASSIGN_OR_RETURN(name, reader->GetLengthPrefixed());
      col.name = name.ToString();
      DL_ASSIGN_OR_RETURN(col.tag, reader->GetU8());
      DL_ASSIGN_OR_RETURN(col.zone.null_count, reader->GetVarint());
      if (col.zone.null_count > chunk.rows) {
        return Status::Corruption("columnar footer: null count exceeds rows");
      }
      uint8_t has_minmax = 0;
      DL_ASSIGN_OR_RETURN(has_minmax, reader->GetU8());
      col.zone.has_minmax = has_minmax != 0;
      if (col.zone.has_minmax) {
        DL_ASSIGN_OR_RETURN(col.zone.min, MetaValue::Deserialize(reader));
        DL_ASSIGN_OR_RETURN(col.zone.max, MetaValue::Deserialize(reader));
        if (col.zone.max.Compare(col.zone.min) < 0) {
          return Status::Corruption("columnar footer: inverted zone map");
        }
      }
      if (!chunk.columns.empty() && !(chunk.columns.back().name < col.name)) {
        return Status::Corruption(
            "columnar footer: column names not strictly sorted");
      }
      chunk.columns.push_back(std::move(col));
    }
    rows_seen += chunk.rows;
    footer.chunks.push_back(std::move(chunk));
  }
  if (rows_seen != footer.total_rows) {
    return Status::Corruption("columnar footer: chunk rows sum " +
                              std::to_string(rows_seen) +
                              " != total_rows " +
                              std::to_string(footer.total_rows));
  }
  if (!reader->AtEnd()) {
    return Status::Corruption("columnar footer: trailing bytes");
  }
  return footer;
}

PredicatePushdown ExtractPushdown(const ExprPtr& predicate) {
  PredicatePushdown down;
  if (!predicate) return down;  // always-true: no conjuncts, fully sargable
  std::vector<ExprPtr> conjuncts;
  CollectConjuncts(predicate, &conjuncts);
  for (const ExprPtr& conjunct : conjuncts) {
    int op = 0;
    size_t slot = 0;
    std::string key;
    MetaValue value;
    if (conjunct && conjunct->AsAttrCmpLit(&op, &slot, &key, &value) &&
        slot == 0) {
      down.preds.push_back(ColumnPredicate{op, std::move(key),
                                           std::move(value)});
    } else {
      down.residual = down.residual ? And(std::move(down.residual), conjunct)
                                    : conjunct;
    }
  }
  return down;
}

bool OpAccepts(int op, int c) {
  switch (op) {
    case -2: return c < 0;
    case -1: return c <= 0;
    case 0: return c == 0;
    case 1: return c >= 0;
    case 2: return c > 0;
  }
  return false;
}

bool ValuePassesPredicate(const MetaValue& attr, const ColumnPredicate& pred) {
  if (attr.is_null() || pred.value.is_null()) return false;
  return OpAccepts(pred.op, attr.Compare(pred.value));
}

bool ChunkMayMatch(const ChunkMeta& chunk,
                   const std::vector<ColumnPredicate>& preds) {
  for (const ColumnPredicate& pred : preds) {
    // A null literal fails every row regardless of the column's content.
    if (pred.value.is_null()) return false;
    const ChunkColumnMeta* col = chunk.FindColumn(pred.key);
    // Column absent, or present but null on every row: Get() yields null
    // for each row, and null never passes a comparison.
    if (col == nullptr || col->zone.null_count >= chunk.rows) return false;
    // No stats, or NaN bounds from a writer that let one in: can't prune.
    if (!col->zone.has_minmax || IsUnorderedValue(col->zone.min) ||
        IsUnorderedValue(col->zone.max)) {
      continue;
    }
    const int min_cmp = col->zone.min.Compare(pred.value);
    const int max_cmp = col->zone.max.Compare(pred.value);
    bool possible = true;
    switch (pred.op) {
      case -2: possible = min_cmp < 0; break;   // some value < lit
      case -1: possible = min_cmp <= 0; break;  // some value <= lit
      case 0: possible = min_cmp <= 0 && max_cmp >= 0; break;
      case 1: possible = max_cmp >= 0; break;   // some value >= lit
      case 2: possible = max_cmp > 0; break;    // some value > lit
      default: possible = true; break;          // unknown op: never prune
    }
    if (!possible) return false;
  }
  return true;
}

size_t ApproxPatchBytes(const Patch& patch) {
  size_t bytes = sizeof(Patch);
  bytes += patch.ref().dataset.capacity();
  bytes += patch.pixels().size_bytes();
  bytes += static_cast<size_t>(patch.features().size()) * sizeof(float);
  for (const auto& [key, value] : patch.meta()) {
    bytes += 64;  // map-node + key/value inline overhead
    bytes += key.capacity();
    if (value.type() == ValueType::kString) {
      auto s = value.AsString();
      if (s.ok()) bytes += (*s.value()).capacity();
    }
  }
  return bytes;
}

}  // namespace columnar
}  // namespace deeplens
