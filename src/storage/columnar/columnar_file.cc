#include "storage/columnar/columnar_file.h"

#include <cstring>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>

#include "codec/image_codec.h"
#include "common/checksum.h"
#include "storage/columnar/encoding.h"

namespace deeplens {
namespace columnar {
namespace {

constexpr uint8_t kTagInt = static_cast<uint8_t>(ValueType::kInt);
constexpr uint8_t kTagFloat = static_cast<uint8_t>(ValueType::kFloat);
constexpr uint8_t kTagString = static_cast<uint8_t>(ValueType::kString);
constexpr uint8_t kTagBool = static_cast<uint8_t>(ValueType::kBool);

// TypedColumn::rank of a row that lacks the column's key.
constexpr uint32_t kAbsent = UINT32_MAX;

inline uint32_t ZigZag32(int32_t v) {
  return (static_cast<uint32_t>(v) << 1) ^ static_cast<uint32_t>(v >> 31);
}
inline int32_t UnZigZag32(uint32_t v) {
  return static_cast<int32_t>(v >> 1) ^ -static_cast<int32_t>(v & 1);
}

inline uint64_t DoubleBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}
inline double BitsDouble(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}
inline uint64_t LoadLe64(const uint8_t* p) {
  uint64_t v = 0;
  for (int b = 0; b < 8; ++b) v |= static_cast<uint64_t>(p[b]) << (8 * b);
  return v;
}

void PutPackedBits(const std::vector<uint8_t>& bits, ByteBuffer* out) {
  std::vector<uint8_t> packed((bits.size() + 7) / 8, 0);
  for (size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) packed[i / 8] |= static_cast<uint8_t>(1u << (i % 8));
  }
  out->PutLengthPrefixed(Slice(packed.data(), packed.size()));
}

Status GetPackedBits(ByteReader* reader, size_t nbits,
                     std::vector<uint8_t>* bits) {
  Slice packed;
  DL_ASSIGN_OR_RETURN(packed, reader->GetLengthPrefixed());
  if (packed.size() != (nbits + 7) / 8) {
    return Status::Corruption("columnar chunk: bitmap size mismatch");
  }
  bits->assign(nbits, 0);
  const uint8_t* p = reinterpret_cast<const uint8_t*>(packed.data());
  for (size_t i = 0; i < nbits; ++i) {
    (*bits)[i] = (p[i / 8] >> (i % 8)) & 1;
  }
  return Status::OK();
}

void EncodeStringDict(const std::vector<const std::string*>& values,
                      ByteBuffer* out) {
  std::map<std::string, uint32_t> dict;
  for (const std::string* s : values) dict.emplace(*s, 0);
  uint32_t next = 0;
  for (auto& [str, code] : dict) code = next++;
  out->PutVarint(dict.size());
  for (const auto& [str, code] : dict) out->PutLengthPrefixed(Slice(str));
  std::vector<uint32_t> codes;
  codes.reserve(values.size());
  for (const std::string* s : values) codes.push_back(dict.find(*s)->second);
  SvbEncodeU32Block(codes.data(), codes.size(), out);
}

// Parses a block written by EncodeStringDict. The entries stay slices into
// the chunk bytes; every code is checked against the dictionary size.
Status ParseStringDict(ByteReader* reader, size_t expected,
                       std::vector<Slice>* dict,
                       std::vector<uint32_t>* codes) {
  uint64_t dict_n = 0;
  DL_ASSIGN_OR_RETURN(dict_n, reader->GetVarint());
  if (dict_n > reader->remaining()) {
    return Status::Corruption("columnar chunk: dictionary count overflows");
  }
  dict->clear();
  dict->reserve(static_cast<size_t>(dict_n));
  for (uint64_t i = 0; i < dict_n; ++i) {
    Slice s;
    DL_ASSIGN_OR_RETURN(s, reader->GetLengthPrefixed());
    dict->push_back(s);
  }
  DL_RETURN_NOT_OK(SvbDecodeU32Block(reader, expected, codes));
  if (codes->size() != expected) {
    return Status::Corruption("columnar chunk: dictionary code count");
  }
  for (uint32_t code : *codes) {
    if (code >= dict->size()) {
      return Status::Corruption("columnar chunk: dictionary code range");
    }
  }
  return Status::OK();
}

// Decides the physical encoding of a metadata column: a single non-null
// value type gets the typed layout, anything else (mixed types, explicit
// nulls) stores row-serialized MetaValues.
uint8_t ColumnTag(const std::vector<const MetaValue*>& values) {
  uint8_t tag = 0;
  for (const MetaValue* v : values) {
    if (v->is_null()) return kTagMixed;
    const uint8_t t = static_cast<uint8_t>(v->type());
    if (tag == 0) {
      tag = t;
    } else if (tag != t) {
      return kTagMixed;
    }
  }
  return tag == 0 ? kTagMixed : tag;
}

void EncodeColumnPayload(uint8_t tag,
                         const std::vector<const MetaValue*>& values,
                         ByteBuffer* payload) {
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kInt: {
      std::vector<uint64_t> zz;
      zz.reserve(values.size());
      for (const MetaValue* v : values) {
        zz.push_back(ZigZag64(v->AsInt().value()));
      }
      SvbEncodeU64Block(zz.data(), zz.size(), payload);
      return;
    }
    case ValueType::kFloat: {
      for (const MetaValue* v : values) {
        payload->PutU64(DoubleBits(v->AsFloat().value()));
      }
      return;
    }
    case ValueType::kString: {
      std::vector<const std::string*> strings;
      strings.reserve(values.size());
      for (const MetaValue* v : values) {
        strings.push_back(v->AsString().value());
      }
      EncodeStringDict(strings, payload);
      return;
    }
    case ValueType::kBool: {
      std::vector<uint8_t> bits;
      bits.reserve(values.size());
      for (const MetaValue* v : values) {
        bits.push_back(v->AsBool().value() ? 1 : 0);
      }
      PutPackedBits(bits, payload);
      return;
    }
    default: {  // kTagMixed
      for (const MetaValue* v : values) v->SerializeInto(payload);
      return;
    }
  }
}

// Serializes `rows` (ids strictly ascending) into `out` and fills the
// footer entry. Layout: varint rows, then length-prefixed blocks in fixed
// order — ids, dataset, frameno, parent, bbox, meta, pixels, features —
// so the decoder can skip any block without parsing its interior.
Status EncodeChunk(const std::vector<Patch>& rows, ByteBuffer* out,
                   ChunkMeta* meta) {
  const size_t n = rows.size();
  out->PutVarint(n);
  ByteBuffer block;
  auto emit = [&] {
    out->PutLengthPrefixed(block.AsSlice());
    block.Clear();
  };

  {  // ids, delta-encoded against the ascending invariant
    std::vector<uint64_t> deltas(n);
    uint64_t prev = 0;
    for (size_t i = 0; i < n; ++i) {
      deltas[i] = rows[i].id() - prev;
      prev = rows[i].id();
    }
    SvbEncodeU64Block(deltas.data(), n, &block);
    emit();
  }
  {  // ref.dataset, dictionary-coded
    std::vector<const std::string*> datasets;
    datasets.reserve(n);
    for (const Patch& p : rows) datasets.push_back(&p.ref().dataset);
    EncodeStringDict(datasets, &block);
    emit();
  }
  {  // ref.frameno
    std::vector<uint64_t> zz(n);
    for (size_t i = 0; i < n; ++i) zz[i] = ZigZag64(rows[i].ref().frameno);
    SvbEncodeU64Block(zz.data(), n, &block);
    emit();
  }
  {  // ref.parent
    std::vector<uint64_t> parents(n);
    for (size_t i = 0; i < n; ++i) parents[i] = rows[i].ref().parent;
    SvbEncodeU64Block(parents.data(), n, &block);
    emit();
  }
  {  // bbox: x0 y0 x1 y1 as four consecutive planes in one block
    std::vector<uint32_t> plane(n);
    auto encode_plane = [&](auto getter) {
      for (size_t i = 0; i < n; ++i) {
        plane[i] = ZigZag32(getter(rows[i].bbox()));
      }
      SvbEncodeU32Block(plane.data(), n, &block);
    };
    encode_plane([](const nn::BBox& b) { return b.x0; });
    encode_plane([](const nn::BBox& b) { return b.y0; });
    encode_plane([](const nn::BBox& b) { return b.x1; });
    encode_plane([](const nn::BBox& b) { return b.y1; });
    emit();
  }
  {  // metadata columns (MetaDict order → sorted, unique names)
    struct ColBuild {
      std::vector<uint8_t> present;
      std::vector<const MetaValue*> values;  // present rows, row order
    };
    std::map<std::string, ColBuild> cols;
    for (size_t i = 0; i < n; ++i) {
      for (const auto& [key, value] : rows[i].meta()) {
        ColBuild& col = cols[key];
        if (col.present.empty()) col.present.assign(n, 0);
        col.present[i] = 1;
        col.values.push_back(&value);
      }
    }
    block.PutVarint(cols.size());
    for (const auto& [name, col] : cols) {
      const uint8_t tag = ColumnTag(col.values);
      block.PutLengthPrefixed(Slice(name));
      block.PutU8(tag);
      PutPackedBits(col.present, &block);
      ByteBuffer payload;
      EncodeColumnPayload(tag, col.values, &payload);
      block.PutLengthPrefixed(payload.AsSlice());

      ChunkColumnMeta cm;
      cm.name = name;
      cm.tag = tag;
      uint64_t nonnull = 0;
      bool unordered = false;
      const MetaValue* min = nullptr;
      const MetaValue* max = nullptr;
      for (const MetaValue* v : col.values) {
        if (v->is_null()) continue;
        ++nonnull;
        unordered = unordered || IsUnorderedValue(*v);
        if (min == nullptr || v->Compare(*min) < 0) min = v;
        if (max == nullptr || v->Compare(*max) > 0) max = v;
      }
      cm.zone.null_count = n - nonnull;
      if (nonnull > 0 && !unordered) {
        ByteBuffer probe;
        min->SerializeInto(&probe);
        max->SerializeInto(&probe);
        if (probe.size() <= 2 * kMaxZoneMapValueBytes) {
          cm.zone.has_minmax = true;
          cm.zone.min = *min;
          cm.zone.max = *max;
        }
      }
      meta->columns.push_back(std::move(cm));
    }
    emit();
  }
  {  // pixels: presence, blob lengths, concatenated raw-image blobs
    std::vector<uint8_t> present(n, 0);
    std::vector<uint32_t> lengths;
    std::vector<uint8_t> blobs;
    for (size_t i = 0; i < n; ++i) {
      if (!rows[i].has_pixels()) continue;
      present[i] = 1;
      const std::vector<uint8_t> raw = codec::SerializeRawImage(
          rows[i].pixels());
      if (raw.size() > UINT32_MAX) {
        return Status::InvalidArgument("columnar chunk: pixel blob too big");
      }
      lengths.push_back(static_cast<uint32_t>(raw.size()));
      blobs.insert(blobs.end(), raw.begin(), raw.end());
    }
    PutPackedBits(present, &block);
    SvbEncodeU32Block(lengths.data(), lengths.size(), &block);
    block.PutBytes(blobs.data(), blobs.size());
    emit();
  }
  {  // features: presence, float counts, raw f32 bytes
    std::vector<uint8_t> present(n, 0);
    std::vector<uint32_t> counts;
    std::vector<uint8_t> floats;
    for (size_t i = 0; i < n; ++i) {
      if (!rows[i].has_features()) continue;
      present[i] = 1;
      const Tensor& t = rows[i].features();
      counts.push_back(static_cast<uint32_t>(t.size()));
      const uint8_t* data = reinterpret_cast<const uint8_t*>(t.data());
      floats.insert(floats.end(), data,
                    data + static_cast<size_t>(t.size()) * sizeof(float));
    }
    PutPackedBits(present, &block);
    SvbEncodeU32Block(counts.data(), counts.size(), &block);
    block.PutBytes(floats.data(), floats.size());
    emit();
  }

  meta->rows = n;
  meta->id_min = rows.front().id();
  meta->id_max = rows.back().id();
  return Status::OK();
}

// Parses the trailing footer of an already-open file. The validation
// ladder distinguishes "valid but empty" (header-only file) from every
// torn-tail shape, which all surface as typed Corruption.
Result<ColumnarFooter> ReadFooter(const RandomAccessFile& file) {
  const uint64_t size = file.size();
  if (size < kHeaderSize) {
    return Status::Corruption("columnar file: shorter than header");
  }
  std::vector<uint8_t> head;
  DL_RETURN_NOT_OK(file.ReadAt(0, kHeaderSize, &head));
  uint64_t magic = 0;
  std::memcpy(&magic, head.data(), sizeof(magic));
  if (magic != kColumnarMagic) {
    return Status::Corruption("columnar file: bad header magic");
  }
  if (size == kHeaderSize) return ColumnarFooter{};  // created, no commits
  if (size < kHeaderSize + kTailSize) {
    return Status::Corruption("columnar file: torn tail");
  }
  std::vector<uint8_t> tail;
  DL_RETURN_NOT_OK(file.ReadAt(size - kTailSize, kTailSize, &tail));
  ByteReader tr(Slice(tail.data(), tail.size()));
  uint32_t footer_len = 0;
  uint32_t footer_crc = 0;
  uint64_t tail_magic = 0;
  DL_ASSIGN_OR_RETURN(footer_len, tr.GetU32());
  DL_ASSIGN_OR_RETURN(footer_crc, tr.GetU32());
  DL_ASSIGN_OR_RETURN(tail_magic, tr.GetU64());
  if (tail_magic != kColumnarMagic) {
    return Status::Corruption("columnar file: torn tail (bad magic)");
  }
  if (footer_len > size - kHeaderSize - kTailSize) {
    return Status::Corruption("columnar file: footer length out of range");
  }
  const uint64_t footer_start = size - kTailSize - footer_len;
  std::vector<uint8_t> footer_bytes;
  DL_RETURN_NOT_OK(file.ReadAt(footer_start, footer_len, &footer_bytes));
  if (Crc32c(footer_bytes.data(), footer_bytes.size()) != footer_crc) {
    return Status::Corruption("columnar file: footer checksum mismatch");
  }
  ByteReader fr(Slice(footer_bytes.data(), footer_bytes.size()));
  ColumnarFooter footer;
  DL_ASSIGN_OR_RETURN(footer, ColumnarFooter::Deserialize(&fr));
  for (const ChunkMeta& chunk : footer.chunks) {
    if (chunk.offset < kHeaderSize || chunk.length == 0 ||
        chunk.offset + chunk.length < chunk.offset ||
        chunk.offset + chunk.length > footer_start) {
      return Status::Corruption("columnar file: chunk extent out of range");
    }
  }
  return footer;
}

// --- Chunk reading, shared by ReadChunk and FoldChunk ---------------------

// One metadata column decoded into its physical type. `rank` maps each
// row to its value's index among the present values (kAbsent where the
// row lacks the key); the vector matching `tag` holds those values.
struct TypedColumn {
  uint8_t tag = kTagMixed;
  std::vector<uint32_t> rank;
  std::vector<int64_t> ints;
  std::vector<double> floats;
  std::vector<Slice> dict;      // kTagString entries, into the chunk bytes
  std::vector<uint32_t> codes;  // kTagString: dictionary index per value
  std::vector<uint8_t> bools;
  std::vector<MetaValue> mixed;

  MetaValue ValueAt(uint32_t r) const {
    switch (tag) {
      case kTagInt: return MetaValue(ints[r]);
      case kTagFloat: return MetaValue(floats[r]);
      case kTagString: return MetaValue(dict[codes[r]].ToString());
      case kTagBool: return MetaValue(bools[r] != 0);
      default: return mixed[r];
    }
  }

  size_t DecodedBytes() const {
    return rank.size() * sizeof(uint32_t) + ints.size() * sizeof(int64_t) +
           floats.size() * sizeof(double) + dict.size() * sizeof(Slice) +
           codes.size() * sizeof(uint32_t) + bools.size() +
           mixed.size() * sizeof(MetaValue);
  }
};

// Decodes one column payload against its presence bitmap (whose size the
// directory walk has checked). This is the column's whole validation:
// value counts, stream framing, dictionary ranges, the tag, and trailing
// bytes.
Status DecodeTypedColumn(uint8_t tag, Slice present, Slice payload,
                         size_t rows, TypedColumn* out) {
  out->tag = tag;
  out->rank.assign(rows, kAbsent);
  const uint8_t* bits = present.data();
  uint32_t present_count = 0;
  for (size_t i = 0; i < rows; ++i) {
    if ((bits[i / 8] >> (i % 8)) & 1) out->rank[i] = present_count++;
  }
  ByteReader reader(payload);
  switch (tag) {
    case kTagInt: {
      std::vector<uint64_t> zz;
      DL_RETURN_NOT_OK(SvbDecodeU64Block(&reader, present_count, &zz));
      if (zz.size() != present_count) {
        return Status::Corruption("columnar chunk: int column count");
      }
      out->ints.reserve(zz.size());
      for (uint64_t v : zz) out->ints.push_back(UnZigZag64(v));
      break;
    }
    case kTagFloat: {
      Slice raw;
      DL_ASSIGN_OR_RETURN(
          raw, reader.GetBytes(present_count * sizeof(uint64_t)));
      out->floats.reserve(present_count);
      for (size_t k = 0; k < present_count; ++k) {
        out->floats.push_back(
            BitsDouble(LoadLe64(raw.data() + k * sizeof(uint64_t))));
      }
      break;
    }
    case kTagString:
      DL_RETURN_NOT_OK(ParseStringDict(&reader, present_count, &out->dict,
                                       &out->codes));
      break;
    case kTagBool:
      DL_RETURN_NOT_OK(GetPackedBits(&reader, present_count, &out->bools));
      break;
    case kTagMixed:
      out->mixed.reserve(present_count);
      for (uint32_t k = 0; k < present_count; ++k) {
        MetaValue v;
        DL_ASSIGN_OR_RETURN(v, MetaValue::Deserialize(&reader));
        out->mixed.push_back(std::move(v));
      }
      break;
    default:
      return Status::Corruption("columnar chunk: unknown column tag " +
                                std::to_string(tag));
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("columnar chunk: column payload trailing bytes");
  }
  return Status::OK();
}

// A metadata column's directory entry; `typed` fills on first use.
struct ChunkColumn {
  std::string name;
  uint8_t tag = 0;
  Slice present;
  Slice payload;
  std::optional<TypedColumn> typed;
};

// Largest chunk read buffer a thread keeps for its next chunk. A chunk
// with pixel blobs can run to hundreds of MB; its buffer is freed rather
// than pinned to the thread.
constexpr size_t kKeptReadBufferBytes = size_t{16} << 20;

// The calling thread's spare chunk read buffer. Reusing it spares each
// chunk a fresh allocation and most of the zero-fill of ReadAt's resize,
// which then touches only growth past the previous chunk's size.
thread_local std::vector<uint8_t> spare_read_buffer;

// A chunk that passed the validation ladder both read paths share: CRC,
// agreement with its footer entry (row count, id range, column
// directory), strictly ascending ids, the dataset dictionary, and the
// framing of every fixed-column block. Slices point into `bytes`, which
// takes the thread's spare buffer and hands it back on destruction.
struct ParsedChunk {
  ParsedChunk() = default;
  ~ParsedChunk() {
    if (bytes.capacity() <= kKeptReadBufferBytes) {
      spare_read_buffer = std::move(bytes);
    }
  }
  ParsedChunk(const ParsedChunk&) = delete;
  ParsedChunk& operator=(const ParsedChunk&) = delete;

  std::vector<uint8_t> bytes = std::exchange(spare_read_buffer, {});
  size_t rows = 0;
  std::vector<uint64_t> ids;
  std::vector<Slice> datasets;          // dictionary entries
  std::vector<uint32_t> dataset_codes;  // one per row
  Slice frameno_block;
  Slice parent_block;
  Slice bbox_block;
  Slice pixels_block;
  Slice features_block;
  std::vector<ChunkColumn> columns;

  ChunkColumn* Find(const std::string& name) {
    for (ChunkColumn& col : columns) {
      if (col.name == name) return &col;
    }
    return nullptr;
  }

  size_t DecodedBytes() const {
    size_t bytes = ids.size() * sizeof(uint64_t) +
                   datasets.size() * sizeof(Slice) +
                   dataset_codes.size() * sizeof(uint32_t);
    for (const ChunkColumn& col : columns) {
      if (col.typed.has_value()) bytes += col.typed->DecodedBytes();
    }
    return bytes;
  }
};

Result<const TypedColumn*> Typed(ChunkColumn* col, size_t rows) {
  if (!col->typed.has_value()) {
    TypedColumn typed;
    DL_RETURN_NOT_OK(DecodeTypedColumn(col->tag, col->present, col->payload,
                                       rows, &typed));
    col->typed = std::move(typed);
  }
  return &*col->typed;
}

// The parse/validate step. Metadata payloads stay encoded until Typed()
// asks for them; frameno, parent and bbox are only framing-checked here
// (ReadChunk decodes them for surviving rows).
Status ParseChunk(const RandomAccessFile& file, const ChunkMeta& cm,
                  ParsedChunk* chunk) {
  DL_RETURN_NOT_OK(
      file.ReadAt(cm.offset, static_cast<size_t>(cm.length), &chunk->bytes));
  if (Crc32c(chunk->bytes.data(), chunk->bytes.size()) != cm.crc) {
    return Status::Corruption("columnar chunk: checksum mismatch at offset " +
                              std::to_string(cm.offset));
  }
  ByteReader reader(Slice(chunk->bytes.data(), chunk->bytes.size()));
  uint64_t rows = 0;
  DL_ASSIGN_OR_RETURN(rows, reader.GetVarint());
  if (rows != cm.rows) {
    return Status::Corruption(
        "columnar chunk: row count disagrees with footer");
  }
  const size_t n = static_cast<size_t>(rows);
  chunk->rows = n;
  Slice ids_block, dataset_block, meta_block;
  DL_ASSIGN_OR_RETURN(ids_block, reader.GetLengthPrefixed());
  DL_ASSIGN_OR_RETURN(dataset_block, reader.GetLengthPrefixed());
  DL_ASSIGN_OR_RETURN(chunk->frameno_block, reader.GetLengthPrefixed());
  DL_ASSIGN_OR_RETURN(chunk->parent_block, reader.GetLengthPrefixed());
  DL_ASSIGN_OR_RETURN(chunk->bbox_block, reader.GetLengthPrefixed());
  DL_ASSIGN_OR_RETURN(meta_block, reader.GetLengthPrefixed());
  DL_ASSIGN_OR_RETURN(chunk->pixels_block, reader.GetLengthPrefixed());
  DL_ASSIGN_OR_RETURN(chunk->features_block, reader.GetLengthPrefixed());
  if (!reader.AtEnd()) {
    return Status::Corruption("columnar chunk: trailing bytes");
  }

  {  // ids: always decoded (row identity)
    std::vector<uint64_t>& ids = chunk->ids;
    ByteReader ir(ids_block);
    DL_RETURN_NOT_OK(SvbDecodeU64Block(&ir, n, &ids));
    if (ids.size() != n || !ir.AtEnd()) {
      return Status::Corruption("columnar chunk: id column count");
    }
    for (size_t i = 1; i < n; ++i) {
      const uint64_t prev = ids[i - 1];
      ids[i] += prev;
      if (ids[i] <= prev) {
        return Status::Corruption("columnar chunk: ids not ascending");
      }
    }
    if (ids.front() != cm.id_min || ids.back() != cm.id_max) {
      return Status::Corruption(
          "columnar chunk: id range disagrees with footer");
    }
  }
  {  // dataset: dictionary and codes; strings are built per surviving row
    ByteReader dr(dataset_block);
    DL_RETURN_NOT_OK(
        ParseStringDict(&dr, n, &chunk->datasets, &chunk->dataset_codes));
    if (!dr.AtEnd()) {
      return Status::Corruption("columnar chunk: dataset trailing bytes");
    }
  }
  {
    ByteReader fr(chunk->frameno_block);
    DL_ASSIGN_OR_RETURN(const size_t framenos, SvbSkipU64Block(&fr, n));
    if (framenos != n || !fr.AtEnd()) {
      return Status::Corruption("columnar chunk: frameno column count");
    }
    ByteReader pr(chunk->parent_block);
    DL_ASSIGN_OR_RETURN(const size_t parents, SvbSkipU64Block(&pr, n));
    if (parents != n || !pr.AtEnd()) {
      return Status::Corruption("columnar chunk: parent column count");
    }
    ByteReader br(chunk->bbox_block);
    for (int plane = 0; plane < 4; ++plane) {
      DL_ASSIGN_OR_RETURN(const size_t values, SvbSkipU32Block(&br, n));
      if (values != n) {
        return Status::Corruption("columnar chunk: bbox plane count");
      }
    }
    if (!br.AtEnd()) {
      return Status::Corruption("columnar chunk: bbox trailing bytes");
    }
  }
  {  // metadata column directory
    ByteReader mr(meta_block);
    uint64_t ncols = 0;
    DL_ASSIGN_OR_RETURN(ncols, mr.GetVarint());
    if (ncols != cm.columns.size()) {
      return Status::Corruption(
          "columnar chunk: column count disagrees with footer");
    }
    chunk->columns.resize(static_cast<size_t>(ncols));
    for (size_t c = 0; c < chunk->columns.size(); ++c) {
      ChunkColumn& col = chunk->columns[c];
      Slice name;
      DL_ASSIGN_OR_RETURN(name, mr.GetLengthPrefixed());
      col.name = name.ToString();
      if (col.name != cm.columns[c].name) {
        return Status::Corruption(
            "columnar chunk: column name disagrees with footer");
      }
      DL_ASSIGN_OR_RETURN(col.tag, mr.GetU8());
      DL_ASSIGN_OR_RETURN(col.present, mr.GetLengthPrefixed());
      if (col.present.size() != (n + 7) / 8) {
        return Status::Corruption("columnar chunk: presence bitmap size");
      }
      DL_ASSIGN_OR_RETURN(col.payload, mr.GetLengthPrefixed());
    }
    if (!mr.AtEnd()) {
      return Status::Corruption("columnar chunk: meta block trailing bytes");
    }
  }
  return Status::OK();
}

// Clears keep[i] for every row whose value fails `pred`, giving exactly
// ValuePassesPredicate's answer: a row without the key reads null and
// fails. Numbers meet a numeric literal as doubles, as MetaValue::Compare
// compares them (so a NaN equals every number); against any other
// literal Compare orders by type tag alone, so one answer holds for the
// whole column. String and bool columns decide once per distinct value.
void NarrowBy(const TypedColumn& col, const ColumnPredicate& pred,
              std::vector<uint8_t>* keep) {
  auto narrow = [&](const auto& passes) {
    for (size_t i = 0; i < keep->size(); ++i) {
      if (!(*keep)[i]) continue;
      const uint32_t r = col.rank[i];
      if (r == kAbsent || !passes(r)) (*keep)[i] = 0;
    }
  };
  const ValueType lit_type = pred.value.type();
  const bool numeric_lit =
      lit_type == ValueType::kInt || lit_type == ValueType::kFloat;
  switch (col.tag) {
    case kTagInt:
    case kTagFloat: {
      if (!numeric_lit) {
        const MetaValue sample =
            col.tag == kTagInt ? MetaValue(int64_t{0}) : MetaValue(0.0);
        const bool pass = ValuePassesPredicate(sample, pred);
        narrow([pass](uint32_t) { return pass; });
        break;
      }
      const double b = pred.value.AsNumeric().value();
      const bool lt = OpAccepts(pred.op, -1);
      const bool eq = OpAccepts(pred.op, 0);
      const bool gt = OpAccepts(pred.op, 1);
      auto passes = [&](double a) { return a < b ? lt : (a > b ? gt : eq); };
      if (col.tag == kTagInt) {
        narrow([&](uint32_t r) {
          return passes(static_cast<double>(col.ints[r]));
        });
      } else {
        narrow([&](uint32_t r) { return passes(col.floats[r]); });
      }
      break;
    }
    case kTagString: {
      std::vector<uint8_t> pass(col.dict.size());
      for (size_t k = 0; k < col.dict.size(); ++k) {
        pass[k] =
            ValuePassesPredicate(MetaValue(col.dict[k].ToString()), pred);
      }
      narrow([&](uint32_t r) { return pass[col.codes[r]] != 0; });
      break;
    }
    case kTagBool: {
      const bool pass_false = ValuePassesPredicate(MetaValue(false), pred);
      const bool pass_true = ValuePassesPredicate(MetaValue(true), pred);
      narrow([&](uint32_t r) {
        return col.bools[r] ? pass_true : pass_false;
      });
      break;
    }
    default:
      narrow([&](uint32_t r) {
        return ValuePassesPredicate(col.mixed[r], pred);
      });
      break;
  }
}

// The typed filter step: runs each pushed conjunct over its column's
// decoded values and returns the surviving rows, in order.
Status SelectRows(ParsedChunk* chunk,
                  const std::vector<ColumnPredicate>& preds,
                  std::vector<uint32_t>* sel) {
  const size_t n = chunk->rows;
  std::vector<uint8_t> keep(n, 1);
  for (const ColumnPredicate& pred : preds) {
    // A null literal, or a column absent from the chunk (every row reads
    // null): no row passes.
    ChunkColumn* col = pred.value.is_null() ? nullptr : chunk->Find(pred.key);
    if (col == nullptr) {
      keep.assign(n, 0);
      break;
    }
    DL_ASSIGN_OR_RETURN(const TypedColumn* typed, Typed(col, n));
    NarrowBy(*typed, pred, &keep);
  }
  sel->clear();
  for (size_t i = 0; i < n; ++i) {
    if (keep[i]) sel->push_back(static_cast<uint32_t>(i));
  }
  return Status::OK();
}

// Counts the selected rows per distinct value of `col`, by exact value
// identity (float bits, not Compare equality, so -0.0 and 0.0 stay apart
// as ToDisplayString keeps them), plus one null group for rows without
// the key.
void GroupByValue(const TypedColumn& col, const std::vector<uint32_t>& sel,
                  std::vector<KeyCount>* out) {
  uint64_t nulls = 0;
  switch (col.tag) {
    case kTagString:
    case kTagBool: {
      const bool strings = col.tag == kTagString;
      std::vector<uint64_t> counts(strings ? col.dict.size() : 2, 0);
      for (uint32_t row : sel) {
        const uint32_t r = col.rank[row];
        if (r == kAbsent) {
          ++nulls;
        } else {
          ++counts[strings ? col.codes[r] : col.bools[r]];
        }
      }
      for (size_t k = 0; k < counts.size(); ++k) {
        if (counts[k] == 0) continue;
        out->push_back(KeyCount{strings ? MetaValue(col.dict[k].ToString())
                                        : MetaValue(k != 0),
                                counts[k]});
      }
      break;
    }
    case kTagInt:
    case kTagFloat: {
      const bool ints = col.tag == kTagInt;
      std::unordered_map<uint64_t, uint64_t> counts;  // value bits -> rows
      for (uint32_t row : sel) {
        const uint32_t r = col.rank[row];
        if (r == kAbsent) {
          ++nulls;
        } else {
          ++counts[ints ? static_cast<uint64_t>(col.ints[r])
                        : DoubleBits(col.floats[r])];
        }
      }
      for (const auto& [bits, rows] : counts) {
        out->push_back(KeyCount{ints ? MetaValue(static_cast<int64_t>(bits))
                                     : MetaValue(BitsDouble(bits)),
                                rows});
      }
      break;
    }
    default:
      for (uint32_t row : sel) {
        const uint32_t r = col.rank[row];
        if (r == kAbsent) {
          ++nulls;
        } else {
          out->push_back(KeyCount{col.mixed[r], 1});
        }
      }
      break;
  }
  if (nulls > 0) out->push_back(KeyCount{MetaValue(), nulls});
}

}  // namespace

// --- ColumnarWriter -----------------------------------------------------

Result<std::unique_ptr<ColumnarWriter>> ColumnarWriter::Open(
    const std::string& path, const ColumnarWriterOptions& options) {
  size_t chunk_rows = options.chunk_rows;
  if (chunk_rows == 0) chunk_rows = ColumnarChunkRowsFromEnv();
  if (chunk_rows > kMaxChunkRows) chunk_rows = kMaxChunkRows;

  ColumnarFooter footer;
  const bool existing = FileExists(path) && FileSize(path).ValueOr(0) > 0;
  if (existing) {
    DL_ASSIGN_OR_RETURN(auto probe, RandomAccessFile::Open(path));
    DL_ASSIGN_OR_RETURN(footer, ReadFooter(*probe));
  }
  DL_ASSIGN_OR_RETURN(auto file, AppendOnlyFile::Open(path));
  auto writer = std::unique_ptr<ColumnarWriter>(
      new ColumnarWriter(path, std::move(file), chunk_rows));
  if (existing) {
    writer->footer_ = std::move(footer);
    if (!writer->footer_.chunks.empty()) {
      writer->has_last_ = true;
      writer->last_id_ = writer->footer_.chunks.back().id_max;
    }
  } else {
    ByteBuffer header;
    header.PutU64(kColumnarMagic);
    DL_RETURN_NOT_OK(writer->file_->Append(header.AsSlice()).status());
    // Flush now: a header-only file is the valid empty state, and readers
    // opened before the first Commit() must see it (not a 0-byte file).
    DL_RETURN_NOT_OK(writer->file_->Flush());
  }
  return writer;
}

Status ColumnarWriter::Append(const Patch& patch) {
  if (has_last_ && patch.id() <= last_id_) {
    return Status::InvalidArgument(
        "columnar writer: ids must be strictly increasing (got " +
        std::to_string(patch.id()) + " after " + std::to_string(last_id_) +
        ")");
  }
  open_rows_.push_back(patch);
  has_last_ = true;
  last_id_ = patch.id();
  if (open_rows_.size() >= chunk_rows_) return SealChunk();
  return Status::OK();
}

Status ColumnarWriter::SealChunk() {
  if (open_rows_.empty()) return Status::OK();
  ByteBuffer chunk;
  ChunkMeta meta;
  DL_RETURN_NOT_OK(EncodeChunk(open_rows_, &chunk, &meta));
  meta.length = chunk.size();
  meta.crc = Crc32c(chunk.AsSlice());
  DL_ASSIGN_OR_RETURN(meta.offset, file_->Append(chunk.AsSlice()));
  footer_.total_rows += meta.rows;
  footer_.chunks.push_back(std::move(meta));
  open_rows_.clear();
  dirty_ = true;
  return Status::OK();
}

Status ColumnarWriter::Commit() {
  DL_RETURN_NOT_OK(SealChunk());
  if (!dirty_) return Status::OK();
  ByteBuffer footer_bytes;
  footer_.SerializeInto(&footer_bytes);
  ByteBuffer tail;
  tail.PutBytes(footer_bytes.data().data(), footer_bytes.size());
  tail.PutU32(static_cast<uint32_t>(footer_bytes.size()));
  tail.PutU32(Crc32c(footer_bytes.AsSlice()));
  tail.PutU64(kColumnarMagic);
  DL_RETURN_NOT_OK(file_->Append(tail.AsSlice()).status());
  DL_RETURN_NOT_OK(file_->Flush());
  dirty_ = false;
  return Status::OK();
}

// --- ColumnarReader -----------------------------------------------------

Result<std::shared_ptr<ColumnarReader>> ColumnarReader::Open(
    const std::string& path) {
  DL_ASSIGN_OR_RETURN(auto file, RandomAccessFile::Open(path));
  DL_ASSIGN_OR_RETURN(ColumnarFooter footer, ReadFooter(*file));
  return std::shared_ptr<ColumnarReader>(
      new ColumnarReader(path, std::move(file), std::move(footer)));
}

std::vector<size_t> ColumnarReader::SelectChunks(
    const std::vector<ColumnPredicate>& preds) const {
  std::vector<size_t> selected;
  selected.reserve(footer_.chunks.size());
  for (size_t i = 0; i < footer_.chunks.size(); ++i) {
    if (ChunkMayMatch(footer_.chunks[i], preds)) selected.push_back(i);
  }
  return selected;
}

Result<PatchCollection> ColumnarReader::ReadChunk(
    size_t index, const ChunkReadOptions& options) const {
  if (index >= footer_.chunks.size()) {
    return Status::InvalidArgument("columnar reader: chunk index " +
                                   std::to_string(index) + " out of range");
  }
  ParsedChunk chunk;
  DL_RETURN_NOT_OK(ParseChunk(*file_, footer_.chunks[index], &chunk));
  std::vector<uint32_t> sel;
  DL_RETURN_NOT_OK(SelectRows(&chunk, options.row_filter, &sel));
  PatchCollection out;
  if (sel.empty()) return out;
  out.reserve(sel.size());
  const size_t n = chunk.rows;

  // Fixed columns; ParseChunk proved each block holds exactly n values.
  std::vector<uint64_t> framenos, parents;
  std::vector<uint32_t> bbox_planes[4];
  {
    ByteReader fr(chunk.frameno_block);
    DL_RETURN_NOT_OK(SvbDecodeU64Block(&fr, n, &framenos));
    ByteReader pr(chunk.parent_block);
    DL_RETURN_NOT_OK(SvbDecodeU64Block(&pr, n, &parents));
    ByteReader br(chunk.bbox_block);
    for (std::vector<uint32_t>& plane : bbox_planes) {
      DL_RETURN_NOT_OK(SvbDecodeU32Block(&br, n, &plane));
    }
  }
  for (uint32_t row : sel) {
    Patch p;
    p.set_id(chunk.ids[row]);
    ImgRef ref;
    ref.dataset = chunk.datasets[chunk.dataset_codes[row]].ToString();
    ref.frameno = UnZigZag64(framenos[row]);
    ref.parent = parents[row];
    p.set_ref(std::move(ref));
    p.set_bbox(nn::BBox{UnZigZag32(bbox_planes[0][row]),
                        UnZigZag32(bbox_planes[1][row]),
                        UnZigZag32(bbox_planes[2][row]),
                        UnZigZag32(bbox_planes[3][row])});
    out.push_back(std::move(p));
  }

  // Projected metadata columns.
  for (ChunkColumn& col : chunk.columns) {
    if (!options.projection.WantsMeta(col.name)) continue;
    DL_ASSIGN_OR_RETURN(const TypedColumn* typed, Typed(&col, n));
    for (size_t k = 0; k < sel.size(); ++k) {
      const uint32_t r = typed->rank[sel[k]];
      if (r != kAbsent) out[k].mutable_meta().Set(col.name, typed->ValueAt(r));
    }
  }

  // Pixels (skipped entirely — bytes unparsed — unless projected).
  if (options.projection.pixels) {
    ByteReader pr(chunk.pixels_block);
    std::vector<uint8_t> present;
    DL_RETURN_NOT_OK(GetPackedBits(&pr, n, &present));
    size_t present_count = 0;
    for (uint8_t b : present) present_count += b;
    std::vector<uint32_t> lengths;
    DL_RETURN_NOT_OK(SvbDecodeU32Block(&pr, present_count, &lengths));
    if (lengths.size() != present_count) {
      return Status::Corruption("columnar chunk: pixel length count");
    }
    uint64_t total = 0;
    for (uint32_t len : lengths) total += len;
    if (total != pr.remaining()) {
      return Status::Corruption("columnar chunk: pixel blob size mismatch");
    }
    Slice blobs;
    DL_ASSIGN_OR_RETURN(blobs, pr.GetBytes(pr.remaining()));
    // Per-row blob offsets via presence rank.
    std::vector<uint64_t> offsets(present_count + 1, 0);
    for (size_t k = 0; k < present_count; ++k) {
      offsets[k + 1] = offsets[k] + lengths[k];
    }
    std::vector<uint32_t> rank(n, 0);
    uint32_t seen = 0;
    for (size_t i = 0; i < n; ++i) {
      if (present[i]) rank[i] = seen++;
    }
    for (size_t k = 0; k < sel.size(); ++k) {
      const uint32_t row = sel[k];
      if (!present[row]) continue;
      const uint32_t pr_rank = rank[row];
      Slice blob(reinterpret_cast<const uint8_t*>(blobs.data()) +
                     offsets[pr_rank],
                 static_cast<size_t>(lengths[pr_rank]));
      DL_ASSIGN_OR_RETURN(Image img, codec::DeserializeRawImage(blob));
      out[k].set_pixels(std::move(img));
    }
  }

  // Features (same skip rule).
  if (options.projection.features) {
    ByteReader fr(chunk.features_block);
    std::vector<uint8_t> present;
    DL_RETURN_NOT_OK(GetPackedBits(&fr, n, &present));
    size_t present_count = 0;
    for (uint8_t b : present) present_count += b;
    std::vector<uint32_t> counts;
    DL_RETURN_NOT_OK(SvbDecodeU32Block(&fr, present_count, &counts));
    if (counts.size() != present_count) {
      return Status::Corruption("columnar chunk: feature count column");
    }
    uint64_t total_floats = 0;
    for (uint32_t c : counts) total_floats += c;
    if (total_floats * sizeof(float) != fr.remaining()) {
      return Status::Corruption("columnar chunk: feature bytes mismatch");
    }
    Slice raw;
    DL_ASSIGN_OR_RETURN(raw, fr.GetBytes(fr.remaining()));
    std::vector<uint64_t> offsets(present_count + 1, 0);
    for (size_t k = 0; k < present_count; ++k) {
      offsets[k + 1] = offsets[k] + counts[k];
    }
    std::vector<uint32_t> rank(n, 0);
    uint32_t seen = 0;
    for (size_t i = 0; i < n; ++i) {
      if (present[i]) rank[i] = seen++;
    }
    for (size_t k = 0; k < sel.size(); ++k) {
      const uint32_t row = sel[k];
      if (!present[row]) continue;
      const uint32_t fr_rank = rank[row];
      const size_t count = counts[fr_rank];
      std::vector<float> values(count);
      std::memcpy(values.data(),
                  reinterpret_cast<const uint8_t*>(raw.data()) +
                      offsets[fr_rank] * sizeof(float),
                  count * sizeof(float));
      out[k].set_features(
          Tensor({static_cast<int64_t>(count)}, std::move(values)));
    }
  }

  return out;
}

Result<ChunkFold> ColumnarReader::FoldChunk(
    size_t index, const std::vector<ColumnPredicate>& row_filter,
    const std::string* key) const {
  if (index >= footer_.chunks.size()) {
    return Status::InvalidArgument("columnar reader: chunk index " +
                                   std::to_string(index) + " out of range");
  }
  ParsedChunk chunk;
  DL_RETURN_NOT_OK(ParseChunk(*file_, footer_.chunks[index], &chunk));
  std::vector<uint32_t> sel;
  DL_RETURN_NOT_OK(SelectRows(&chunk, row_filter, &sel));
  ChunkFold fold;
  fold.rows = sel.size();
  if (!sel.empty()) {
    ChunkColumn* col = key == nullptr ? nullptr : chunk.Find(*key);
    if (col == nullptr) {
      fold.keys.push_back(KeyCount{MetaValue(), fold.rows});
    } else {
      DL_ASSIGN_OR_RETURN(const TypedColumn* typed, Typed(col, chunk.rows));
      GroupByValue(*typed, sel, &fold.keys);
    }
  }
  fold.bytes_decoded = chunk.DecodedBytes();
  return fold;
}

Result<PatchCollection> ColumnarReader::ReadAll() const {
  PatchCollection out;
  out.reserve(static_cast<size_t>(footer_.total_rows));
  ChunkReadOptions options;  // full projection, no filter
  for (size_t i = 0; i < footer_.chunks.size(); ++i) {
    DL_ASSIGN_OR_RETURN(PatchCollection rows, ReadChunk(i, options));
    for (Patch& p : rows) out.push_back(std::move(p));
  }
  return out;
}

}  // namespace columnar
}  // namespace deeplens
