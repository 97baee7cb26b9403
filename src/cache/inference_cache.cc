#include "cache/inference_cache.h"

#include "cache/cache_key.h"
#include "cache/inflight.h"
#include "common/clock.h"
#include "core/cost_model.h"
#include "exec/batch_former.h"
#include "nn/device.h"

namespace deeplens {

namespace {

// Payload tags in the wire encoding. Append-only: reusing a retired tag
// would let an old spill log parse as the wrong type.
enum PayloadTag : uint8_t {
  kTagString = 0,
  kTagDouble = 1,
  kTagTensor = 2,
  kTagDetections = 3,
};

// Heap bytes held by each payload alternative, charged by capacity so
// the budget tracks what the allocator really committed (a string or
// vector routinely holds more than size() bytes). The inline object
// itself lives in the variant and is covered by sizeof(InferenceValue).
struct HeapSizeVisitor {
  size_t operator()(const std::string& s) const { return s.capacity(); }
  size_t operator()(double) const { return 0; }
  size_t operator()(const Tensor& t) const {
    // Element buffer + shape vector + the shared buffer's control block.
    return static_cast<size_t>(t.size()) * sizeof(float) +
           t.shape().capacity() * sizeof(int64_t) + kSharedBufferOverhead;
  }
  size_t operator()(const std::vector<nn::Detection>& d) const {
    return d.capacity() * sizeof(nn::Detection);
  }

  static constexpr size_t kSharedBufferOverhead = 48;
};

struct SerializeVisitor {
  ByteBuffer* buf;

  void operator()(const std::string& s) const {
    buf->PutU8(kTagString);
    buf->PutLengthPrefixed(Slice(s));
  }
  void operator()(double d) const {
    buf->PutU8(kTagDouble);
    buf->PutF64(d);
  }
  void operator()(const Tensor& t) const {
    buf->PutU8(kTagTensor);
    buf->PutVarint(t.rank());
    for (int64_t dim : t.shape()) buf->PutI64(dim);
    // Element count is written explicitly: rank 0 is ambiguous between
    // the default (empty, 0 elements) tensor and a scalar (1 element),
    // so the shape alone cannot tell the parser how much data follows.
    buf->PutVarint(static_cast<uint64_t>(t.size()));
    const float* data = t.data();
    for (int64_t i = 0; i < t.size(); ++i) {
      buf->PutF32(data[static_cast<size_t>(i)]);
    }
  }
  void operator()(const std::vector<nn::Detection>& dets) const {
    buf->PutU8(kTagDetections);
    buf->PutVarint(dets.size());
    for (const nn::Detection& d : dets) {
      buf->PutSignedVarint(d.bbox.x0);
      buf->PutSignedVarint(d.bbox.y0);
      buf->PutSignedVarint(d.bbox.x1);
      buf->PutSignedVarint(d.bbox.y1);
      buf->PutU8(static_cast<uint8_t>(d.label));
      buf->PutF32(d.score);
    }
  }
};

Result<Tensor> ParseTensor(ByteReader* reader) {
  DL_ASSIGN_OR_RETURN(uint64_t rank, reader->GetVarint());
  // No model emits high-rank tensors; a huge rank means a torn or alien
  // record, and rejecting it here keeps the shape loop bounded.
  if (rank > 8) {
    return Status::Corruption("inference value: implausible tensor rank");
  }
  std::vector<int64_t> shape;
  shape.reserve(static_cast<size_t>(rank));
  uint64_t volume = 1;
  for (uint64_t i = 0; i < rank; ++i) {
    DL_ASSIGN_OR_RETURN(int64_t dim, reader->GetI64());
    if (dim < 0) {
      return Status::Corruption("inference value: negative tensor dim");
    }
    // Overflow-safe cap check (divide before multiplying): dims like
    // [2^30, 2^34] would wrap a plain running product back under the
    // cap and smuggle an implausible shape through.
    if (dim != 0 &&
        volume > (1ull << 30) / static_cast<uint64_t>(dim)) {
      return Status::Corruption("inference value: implausible tensor size");
    }
    volume *= static_cast<uint64_t>(dim);
    shape.push_back(dim);
  }
  DL_ASSIGN_OR_RETURN(uint64_t count, reader->GetVarint());
  // The declared count must match the shape (rank 0 legitimately holds
  // either 0 elements — the default empty tensor — or 1, a scalar).
  const bool count_ok =
      rank == 0 ? count <= 1 : count == volume;
  if (!count_ok) {
    return Status::Corruption("inference value: tensor count/shape mismatch");
  }
  if (rank == 0 && count == 0) return Tensor();
  // Every element must actually be present in the record; checking up
  // front turns a truncated buffer into one Corruption instead of 2^30
  // underflow probes.
  if (reader->remaining() < count * sizeof(float)) {
    return Status::Corruption("inference value: truncated tensor data");
  }
  std::vector<float> data(static_cast<size_t>(count));
  for (auto& f : data) {
    DL_ASSIGN_OR_RETURN(f, reader->GetF32());
  }
  return Tensor(std::move(shape), std::move(data));
}

Result<std::vector<nn::Detection>> ParseDetections(ByteReader* reader) {
  DL_ASSIGN_OR_RETURN(uint64_t count, reader->GetVarint());
  // Each detection is at least 7 bytes on the wire; a count beyond what
  // the buffer could hold is corruption, not a big result.
  if (count > reader->remaining() / 7) {
    return Status::Corruption("inference value: implausible detection count");
  }
  std::vector<nn::Detection> dets(static_cast<size_t>(count));
  for (auto& d : dets) {
    DL_ASSIGN_OR_RETURN(int64_t x0, reader->GetSignedVarint());
    DL_ASSIGN_OR_RETURN(int64_t y0, reader->GetSignedVarint());
    DL_ASSIGN_OR_RETURN(int64_t x1, reader->GetSignedVarint());
    DL_ASSIGN_OR_RETURN(int64_t y1, reader->GetSignedVarint());
    d.bbox = nn::BBox{static_cast<int>(x0), static_cast<int>(y0),
                      static_cast<int>(x1), static_cast<int>(y1)};
    DL_ASSIGN_OR_RETURN(uint8_t label, reader->GetU8());
    if (label >= nn::kNumClasses) {
      return Status::Corruption("inference value: unknown detection class");
    }
    d.label = static_cast<nn::ObjectClass>(label);
    DL_ASSIGN_OR_RETURN(d.score, reader->GetF32());
  }
  return dets;
}

// The batch former engages only for a keyed miss (enabled cache) on a
// former that is installed and configured on — otherwise the wrappers
// keep their inline eval path, which is also the byte-identity oracle.
BatchFormer* ActiveFormer(InferenceCache* cache, const std::string& key) {
  if (cache == nullptr || key.empty()) return nullptr;
  BatchFormer* former = cache->batch_former();
  return (former != nullptr && former->enabled()) ? former : nullptr;
}

std::vector<BatchFormer::ItemOutcome> ReplicatedError(size_t n,
                                                      const Status& status) {
  return std::vector<BatchFormer::ItemOutcome>(
      n, BatchFormer::ItemOutcome(status));
}

BatchFormer::BatchFn OcrBatchFn(const nn::TinyOcr* ocr, nn::Device* device) {
  return [ocr, device](const std::vector<const BatchFormer::Item*>& items)
             -> std::vector<BatchFormer::ItemOutcome> {
    std::vector<const Image*> patches;
    patches.reserve(items.size());
    for (const BatchFormer::Item* item : items) {
      patches.push_back(item->pixels);
    }
    Stopwatch sw;
    auto texts = ocr->RecognizeTextBatch(patches, device);
    if (!texts.ok()) return ReplicatedError(items.size(), texts.status());
    CostModel::Global()->RecordDeviceBatch(model_names::kOcr, items.size(),
                                           sw.ElapsedMillis());
    std::vector<BatchFormer::ItemOutcome> out;
    out.reserve(items.size());
    for (std::string& text : *texts) {
      out.emplace_back(InferenceValue{std::move(text)});
    }
    return out;
  };
}

BatchFormer::BatchFn DepthBatchFn(const nn::TinyDepth* model,
                                  nn::Device* device) {
  return [model, device](const std::vector<const BatchFormer::Item*>& items)
             -> std::vector<BatchFormer::ItemOutcome> {
    // Pre-validate per item (the exact check — and message — PredictDepth
    // applies) so one degenerate patch fails only its own callers and the
    // rest of the batch stays byte-identical to unbatched execution.
    std::vector<BatchFormer::ItemOutcome> out(
        items.size(), BatchFormer::ItemOutcome(
                          Status::Internal("depth batch: item not evaluated")));
    std::vector<const Image*> patches;
    std::vector<nn::BBox> bboxes;
    std::vector<int> frame_hs;
    std::vector<size_t> slots;
    for (size_t i = 0; i < items.size(); ++i) {
      const BatchFormer::Item& item = *items[i];
      if (item.pixels == nullptr || item.pixels->empty() ||
          item.bbox.Height() <= 0) {
        out[i] = BatchFormer::ItemOutcome(
            Status::InvalidArgument("TinyDepth needs a non-degenerate patch"));
        continue;
      }
      patches.push_back(item.pixels);
      bboxes.push_back(item.bbox);
      frame_hs.push_back(item.frame_h);
      slots.push_back(i);
    }
    if (patches.empty()) return out;
    Stopwatch sw;
    auto depths = model->PredictDepthBatch(patches, bboxes, frame_hs, device);
    if (!depths.ok()) {
      for (size_t slot : slots) {
        out[slot] = BatchFormer::ItemOutcome(depths.status());
      }
      return out;
    }
    CostModel::Global()->RecordDeviceBatch(model_names::kDepth, patches.size(),
                                           sw.ElapsedMillis());
    for (size_t j = 0; j < slots.size(); ++j) {
      out[slots[j]] = BatchFormer::ItemOutcome(
          InferenceValue{static_cast<double>((*depths)[j])});
    }
    return out;
  };
}

}  // namespace

size_t InferenceValue::ByteSize() const {
  return sizeof(InferenceValue) + std::visit(HeapSizeVisitor{}, payload);
}

void InferenceValue::SerializeInto(ByteBuffer* buf) const {
  buf->PutU8(kFormatVersion);
  std::visit(SerializeVisitor{buf}, payload);
}

Result<InferenceValue> InferenceValue::Parse(const Slice& data) {
  ByteReader reader(data);
  DL_ASSIGN_OR_RETURN(uint8_t version, reader.GetU8());
  if (version != kFormatVersion) {
    return Status::Corruption("inference value: unsupported format version " +
                              std::to_string(version));
  }
  DL_ASSIGN_OR_RETURN(uint8_t tag, reader.GetU8());
  InferenceValue value;
  switch (tag) {
    case kTagString: {
      DL_ASSIGN_OR_RETURN(Slice s, reader.GetLengthPrefixed());
      value.payload = s.ToString();
      break;
    }
    case kTagDouble: {
      DL_ASSIGN_OR_RETURN(double d, reader.GetF64());
      value.payload = d;
      break;
    }
    case kTagTensor: {
      DL_ASSIGN_OR_RETURN(Tensor t, ParseTensor(&reader));
      value.payload = std::move(t);
      break;
    }
    case kTagDetections: {
      DL_ASSIGN_OR_RETURN(auto dets, ParseDetections(&reader));
      value.payload = std::move(dets);
      break;
    }
    default:
      return Status::Corruption("inference value: unknown payload tag " +
                                std::to_string(tag));
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("inference value: trailing bytes");
  }
  return value;
}

std::string InferenceCache::KeyFor(const std::string& model,
                                   uint64_t fingerprint, uint64_t variant) {
  std::string key;
  key.reserve(model.size() + 48);
  AppendKeyPart(&key, model);
  key += '#';
  key += std::to_string(fingerprint);
  // Always encoded — a variant of 0 is a real parameter value (e.g.
  // frame height 0), not "no variant", and must not alias anything.
  key += '@';
  key += std::to_string(variant);
  return key;
}

std::string InferenceCache::ModelOnDevice(const char* model,
                                          nn::Device* device) {
  std::string key;
  AppendKeyPart(&key, model);
  key += '@';
  AppendKeyPart(&key, device != nullptr ? device->name() : "default");
  return key;
}

void InferenceCache::Put(const std::string& key, InferenceValue value) {
  const size_t charge = value.ByteSize();
  cache_.Put(key, std::make_shared<const InferenceValue>(std::move(value)),
             charge);
}

Result<std::string> CachedOcrText(const nn::TinyOcr& ocr,
                                  const Image& pixels, uint64_t fingerprint,
                                  nn::Device* device, InferenceCache* cache,
                                  bool* computed) {
  if (computed != nullptr) *computed = false;
  std::string key;
  // The cache the singleflight probe may answer from; not one holding a
  // wrong-typed entry for this key.
  const InferenceCache* probe = cache;
  if (cache != nullptr && cache->enabled() && fingerprint != 0) {
    key = InferenceCache::KeyFor(
        InferenceCache::ModelOnDevice(model_names::kOcr, device),
        fingerprint);
    if (auto hit = cache->Get(key)) {
      // A wrong-typed payload (conceivable only via a spill log written
      // by a build that changed a model's output type without bumping
      // the format version) degrades to a miss, never a crash.
      if (const auto* text = std::get_if<std::string>(&hit->payload)) {
        return *text;
      }
      probe = nullptr;
    }
  }
  BatchFormer* former = ActiveFormer(cache, key);
  // Miss-path compute, shared by the singleflight and standalone paths.
  // With a former installed, the patch stages into the cross-query batch
  // (the former Puts on our behalf before resolving the flight);
  // otherwise it evaluates inline — the pre-batching behavior and the
  // differential tests' oracle.
  const auto compute = [&]() -> Result<InferenceValue> {
    if (former != nullptr) {
      bool led = false;
      DL_ASSIGN_OR_RETURN(
          auto shared,
          former->Run(
              InferenceCache::ModelOnDevice(model_names::kOcr, device), key,
              BatchFormer::Item{&pixels, nn::BBox{}, 0}, cache,
              OcrBatchFn(&ocr, device), &led));
      if (led && computed != nullptr) *computed = true;
      return InferenceValue(*shared);
    }
    if (computed != nullptr) *computed = true;  // flight leader
    DL_ASSIGN_OR_RETURN(std::string text, ocr.RecognizeText(pixels, device));
    InferenceValue value{text};
    cache->Put(key, value);
    return value;
  };
  if (!key.empty() && cache->inflight() != nullptr) {
    // Singleflight the miss: under concurrent serving, K identical
    // misses in flight at once cost one model call. The leader Puts
    // before the flight resolves, so a caller arriving after it finds
    // the value through Do's cache probe.
    DL_ASSIGN_OR_RETURN(auto shared,
                        cache->inflight()->Do(key, probe, compute));
    if (const auto* text = std::get_if<std::string>(&shared->payload)) {
      return *text;
    }
    return Status::Internal("in-flight OCR value has non-string payload");
  }
  if (former != nullptr) {
    // No singleflight table installed: the former's own staged map
    // dedups identical concurrent misses.
    DL_ASSIGN_OR_RETURN(InferenceValue value, compute());
    if (const auto* text = std::get_if<std::string>(&value.payload)) {
      return *text;
    }
    return Status::Internal("batched OCR value has non-string payload");
  }
  if (computed != nullptr) *computed = true;
  DL_ASSIGN_OR_RETURN(std::string text, ocr.RecognizeText(pixels, device));
  if (!key.empty()) {
    cache->Put(key, InferenceValue{text});
  }
  return text;
}

Result<double> CachedDepth(const nn::TinyDepth& model, const Image& pixels,
                           const nn::BBox& bbox, int frame_h,
                           uint64_t fingerprint, nn::Device* device,
                           InferenceCache* cache, bool* computed) {
  if (computed != nullptr) *computed = false;
  std::string key;
  const InferenceCache* probe = cache;  // as in CachedOcrText
  if (cache != nullptr && cache->enabled() && fingerprint != 0) {
    // The geometry cue depends on the source-frame height, so it is part
    // of the key (the bbox is already folded into the fingerprint).
    key = InferenceCache::KeyFor(
        InferenceCache::ModelOnDevice(model_names::kDepth, device),
        fingerprint, static_cast<uint64_t>(frame_h));
    if (auto hit = cache->Get(key)) {
      // Wrong-typed hit (alien spill log): recompute instead of crash.
      if (const double* depth = std::get_if<double>(&hit->payload)) {
        return *depth;
      }
      probe = nullptr;
    }
  }
  BatchFormer* former = ActiveFormer(cache, key);
  const auto compute = [&]() -> Result<InferenceValue> {
    if (former != nullptr) {
      bool led = false;
      DL_ASSIGN_OR_RETURN(
          auto shared,
          former->Run(
              InferenceCache::ModelOnDevice(model_names::kDepth, device), key,
              BatchFormer::Item{&pixels, bbox, frame_h}, cache,
              DepthBatchFn(&model, device), &led));
      if (led && computed != nullptr) *computed = true;
      return InferenceValue(*shared);
    }
    if (computed != nullptr) *computed = true;  // flight leader
    DL_ASSIGN_OR_RETURN(float predicted,
                        model.PredictDepth(pixels, bbox, frame_h, device));
    InferenceValue value{static_cast<double>(predicted)};
    cache->Put(key, value);
    return value;
  };
  if (!key.empty() && cache->inflight() != nullptr) {
    DL_ASSIGN_OR_RETURN(auto shared,
                        cache->inflight()->Do(key, probe, compute));
    if (const double* depth = std::get_if<double>(&shared->payload)) {
      return *depth;
    }
    return Status::Internal("in-flight depth value has non-double payload");
  }
  if (former != nullptr) {
    DL_ASSIGN_OR_RETURN(InferenceValue value, compute());
    if (const double* depth = std::get_if<double>(&value.payload)) {
      return *depth;
    }
    return Status::Internal("batched depth value has non-double payload");
  }
  if (computed != nullptr) *computed = true;
  DL_ASSIGN_OR_RETURN(float depth,
                      model.PredictDepth(pixels, bbox, frame_h, device));
  const double value = static_cast<double>(depth);
  if (!key.empty()) {
    cache->Put(key, InferenceValue{value});
  }
  return value;
}

}  // namespace deeplens
