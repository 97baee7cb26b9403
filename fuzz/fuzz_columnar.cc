// Fuzz target: the columnar view file decoder — footer catalog parsing
// plus the per-column chunk decoders, the path that turns arbitrary
// on-disk bytes back into patches. The input IS the file. Invariants:
//
//  1. Open never crashes, never trips a sanitizer, and never allocates
//     proportionally to a fuzzed length field — corrupt footers and
//     chunks degrade to typed Corruption, not UB or OOM.
//  2. Whatever the footer accepted must decode consistently: chunk row
//     counts match the catalog, ids are strictly ascending within the
//     footer-declared range, and a second read returns the same rows.
//  3. Scans with a row filter / projection over accepted files never
//     return rows a full read would not (the filter can only shrink).
//  4. The aggregate fold agrees with the row path: FoldChunk's count and
//     per-key group counts equal grouping the rows ReadChunk builds for
//     the same filter under the planner's meta-only projection, and a
//     chunk either path rejects, the other rejects too.
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/patch.h"
#include "storage/columnar/columnar_file.h"
#include "storage/columnar/format.h"

namespace {

using deeplens::MetaValue;
using deeplens::columnar::ColumnarReader;
using deeplens::columnar::ColumnPredicate;

// Exact value identity (type tag + payload bytes).
std::string Identity(const MetaValue& v) {
  deeplens::ByteBuffer buf;
  v.SerializeInto(&buf);
  return buf.AsSlice().ToString();
}

void CheckFoldParity(const ColumnarReader& reader, size_t chunk,
                     const std::vector<ColumnPredicate>& preds,
                     const std::string* key) {
  deeplens::columnar::ChunkReadOptions options;
  options.projection.pixels = false;
  options.projection.features = false;
  options.projection.all_meta = false;
  for (const ColumnPredicate& p : preds) {
    options.projection.meta_keys.push_back(p.key);
  }
  if (key != nullptr) options.projection.meta_keys.push_back(*key);
  options.row_filter = preds;
  auto rows = reader.ReadChunk(chunk, options);
  auto fold = reader.FoldChunk(chunk, preds, key);
  if (rows.ok() != fold.ok()) std::abort();
  if (!rows.ok()) return;
  if (fold->rows != rows->size()) std::abort();
  std::map<std::string, uint64_t> from_rows;
  std::map<std::string, uint64_t> from_fold;
  for (const deeplens::Patch& p : *rows) {
    ++from_rows[Identity(key == nullptr ? MetaValue() : p.meta().Get(*key))];
  }
  for (const auto& group : fold->keys) {
    from_fold[Identity(group.value)] += group.rows;
  }
  if (from_rows != from_fold) std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using deeplens::Patch;
  using deeplens::PatchCollection;

  static uint64_t counter = 0;
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("dl_fuzz_columnar_" + std::to_string(::getpid()) + "_" +
        std::to_string(counter++)))
          .string();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(data),
              static_cast<std::streamsize>(size));
  }

  auto opened = deeplens::columnar::ColumnarReader::Open(path);
  if (!opened.ok()) {
    // Garbage must fail typed, never crash.
    std::filesystem::remove(path);
    return 0;
  }
  auto reader = *opened;

  // Full read: every accepted chunk either decodes or fails typed.
  uint64_t decoded_rows = 0;
  uint64_t last_id = 0;
  bool any = false;
  const std::string label = "label";
  const std::string score = "score";
  const ColumnPredicate any_label{1, "label", MetaValue(std::string())};
  const ColumnPredicate high_score{1, "score", MetaValue(0.5)};
  const ColumnPredicate score_below_one{-2, "score", MetaValue(int64_t{1})};
  for (size_t c = 0; c < reader->num_chunks(); ++c) {
    CheckFoldParity(*reader, c, {}, &label);
    CheckFoldParity(*reader, c, {any_label}, &label);
    CheckFoldParity(*reader, c, {high_score}, &score);
    CheckFoldParity(*reader, c, {score_below_one, any_label}, nullptr);

    auto rows = reader->ReadChunk(c, deeplens::columnar::ChunkReadOptions{});
    if (!rows.ok()) continue;  // CRC/decode corruption is acceptable
    const auto& meta = reader->chunk(c);
    if (rows->size() != meta.rows) std::abort();
    for (const Patch& p : *rows) {
      if (any && p.id() <= last_id) std::abort();  // ascending ids
      if (p.id() < meta.id_min || p.id() > meta.id_max) std::abort();
      last_id = p.id();
      any = true;
    }
    decoded_rows += rows->size();

    // Determinism: decoding the same chunk twice agrees.
    auto again =
        reader->ReadChunk(c, deeplens::columnar::ChunkReadOptions{});
    if (!again.ok() || again->size() != rows->size()) std::abort();

    // A filtered + projected read returns a subset of the full read.
    deeplens::columnar::ChunkReadOptions filtered;
    filtered.projection.pixels = false;
    filtered.projection.features = false;
    filtered.projection.all_meta = false;
    filtered.projection.meta_keys = {"label"};
    deeplens::columnar::ColumnPredicate pred;
    pred.op = 1;  // label >= ""
    pred.key = "label";
    pred.value = deeplens::MetaValue(std::string());
    filtered.row_filter = {pred};
    auto subset = reader->ReadChunk(c, filtered);
    if (subset.ok() && subset->size() > rows->size()) std::abort();
  }
  if (decoded_rows > reader->total_rows()) std::abort();

  std::filesystem::remove(path);
  return 0;
}
