#include "codec/image_codec.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "codec/dct.h"
#include "codec/entropy.h"
#include "exec/scheduler.h"

namespace deeplens {
namespace codec {

namespace {

constexpr uint16_t kLjpgMagic = 0xD11E;
constexpr uint16_t kRawMagic = 0xD1AA;

// Loads one 8×8 block of channel `c` starting at (bx*8, by*8); out-of-
// bounds pixels replicate the edge. Intra blocks (`pred` null) are
// centered to [-128, 127]; predicted blocks hold the signed residual
// img - pred.
void ExtractBlock(const Image& img, const Image* pred, int c, int bx, int by,
                  float* block) {
  const int w = img.width();
  const int h = img.height();
  for (int y = 0; y < kBlockSize; ++y) {
    const int sy = std::min(by * kBlockSize + y, h - 1);
    for (int x = 0; x < kBlockSize; ++x) {
      const int sx = std::min(bx * kBlockSize + x, w - 1);
      const float base =
          pred != nullptr ? static_cast<float>(pred->At(sx, sy, c)) : 128.0f;
      block[y * kBlockSize + x] = static_cast<float>(img.At(sx, sy, c)) - base;
    }
  }
}

// Inverse of ExtractBlock: adds the block back onto its base (128, or
// `pred`) and stores the in-bounds pixels, clamped to [0, 255].
void StoreBlock(Image* img, const Image* pred, int c, int bx, int by,
                const float* block) {
  const int w = img->width();
  const int h = img->height();
  for (int y = 0; y < kBlockSize; ++y) {
    const int dy = by * kBlockSize + y;
    if (dy >= h) break;
    for (int x = 0; x < kBlockSize; ++x) {
      const int dx = bx * kBlockSize + x;
      if (dx >= w) break;
      const float base =
          pred != nullptr ? static_cast<float>(pred->At(dx, dy, c)) : 128.0f;
      const float v = block[y * kBlockSize + x] + base;
      img->At(dx, dy, c) =
          static_cast<uint8_t>(std::clamp(v, 0.0f, 255.0f));
    }
  }
}

int BlocksAlong(int extent) {
  return (extent + kBlockSize - 1) / kBlockSize;
}

}  // namespace

void EncodeBlocksInto(const Image& img, const Image* pred, Quality q,
                      ByteBuffer* out, Image* reconstructed) {
  const int bw = BlocksAlong(img.width());
  const int bh = BlocksAlong(img.height());
  if (reconstructed != nullptr) {
    *reconstructed = Image(img.width(), img.height(), img.channels());
  }
  // Blocks are coded independently (no DC prediction across blocks), so
  // each (channel, block-row) task owns its slice of the stream and of
  // the reconstruction.
  std::vector<ByteBuffer> rows(static_cast<size_t>(img.channels()) *
                               static_cast<size_t>(bh));
  RunTasks(rows.size(), [&](size_t task) {
    const int c = static_cast<int>(task / static_cast<size_t>(bh));
    const int by = static_cast<int>(task % static_cast<size_t>(bh));
    float block[kBlockArea];
    float coeffs[kBlockArea];
    int32_t qcoeffs[kBlockArea];
    for (int bx = 0; bx < bw; ++bx) {
      ExtractBlock(img, pred, c, bx, by, block);
      ForwardDct8x8(block, coeffs);
      QuantizeBlock(coeffs, q, qcoeffs);
      EncodeBlock(qcoeffs, &rows[task]);
      if (reconstructed != nullptr) {
        // The decoder rebuilds from these same coefficients.
        DequantizeBlock(qcoeffs, q, coeffs);
        InverseDct8x8(coeffs, block);
        StoreBlock(reconstructed, pred, c, bx, by, block);
      }
    }
  });
  for (const ByteBuffer& row : rows) {
    out->PutBytes(row.data().data(), row.size());
  }
}

Result<Image> DecodeBlocks(ByteReader* reader, const Image* pred, int width,
                           int height, int channels, Quality q) {
  Image img(width, height, channels);
  const int bw = BlocksAlong(width);
  const int bh = BlocksAlong(height);
  int32_t qcoeffs[kBlockArea];
  float coeffs[kBlockArea];
  float block[kBlockArea];
  for (int c = 0; c < channels; ++c) {
    for (int by = 0; by < bh; ++by) {
      for (int bx = 0; bx < bw; ++bx) {
        DL_RETURN_NOT_OK(DecodeBlock(reader, qcoeffs));
        DequantizeBlock(qcoeffs, q, coeffs);
        InverseDct8x8(coeffs, block);
        StoreBlock(&img, pred, c, bx, by, block);
      }
    }
  }
  return img;
}

std::vector<uint8_t> EncodeImage(const Image& img, Quality q) {
  ByteBuffer out;
  out.PutU16(kLjpgMagic);
  out.PutU32(static_cast<uint32_t>(img.width()));
  out.PutU32(static_cast<uint32_t>(img.height()));
  out.PutU8(static_cast<uint8_t>(img.channels()));
  out.PutU8(static_cast<uint8_t>(q));
  EncodeBlocksInto(img, /*pred=*/nullptr, q, &out);
  return out.Release();
}

Status ValidateDecodedImageHeader(uint32_t w, uint32_t h, uint32_t c) {
  if (w > kMaxDecodeDimension || h > kMaxDecodeDimension) {
    return Status::Corruption("decoded image dimensions out of range");
  }
  if (c < 1 || c > kMaxDecodeChannels) {
    return Status::Corruption("decoded image channel count out of range");
  }
  return Status::OK();
}

Result<Image> DecodeImage(const Slice& bytes) {
  ByteReader reader(bytes);
  DL_ASSIGN_OR_RETURN(uint16_t magic, reader.GetU16());
  if (magic != kLjpgMagic) {
    return Status::Corruption("not an LJPG stream");
  }
  DL_ASSIGN_OR_RETURN(uint32_t w, reader.GetU32());
  DL_ASSIGN_OR_RETURN(uint32_t h, reader.GetU32());
  DL_ASSIGN_OR_RETURN(uint8_t c, reader.GetU8());
  DL_ASSIGN_OR_RETURN(uint8_t q, reader.GetU8());
  if (q > 2) return Status::Corruption("bad quality byte");
  DL_RETURN_NOT_OK(ValidateDecodedImageHeader(w, h, c));
  // Every 8×8 block costs at least one encoded byte, so a genuine stream
  // can't claim vastly more blocks than it has bytes — reject before the
  // frame allocation instead of zero-filling gigabytes.
  const uint64_t min_blocks = static_cast<uint64_t>(BlocksAlong(
                                  static_cast<int>(w))) *
                              BlocksAlong(static_cast<int>(h)) * c;
  if (min_blocks > reader.remaining()) {
    return Status::Corruption("LJPG stream shorter than its block count");
  }
  return DecodeBlocks(&reader, /*pred=*/nullptr, static_cast<int>(w),
                      static_cast<int>(h), static_cast<int>(c),
                      static_cast<Quality>(q));
}

std::vector<uint8_t> SerializeRawImage(const Image& img) {
  ByteBuffer out;
  out.PutU16(kRawMagic);
  out.PutU32(static_cast<uint32_t>(img.width()));
  out.PutU32(static_cast<uint32_t>(img.height()));
  out.PutU8(static_cast<uint8_t>(img.channels()));
  out.PutBytes(img.data(), img.size_bytes());
  return out.Release();
}

Result<Image> DeserializeRawImage(const Slice& bytes) {
  ByteReader reader(bytes);
  DL_ASSIGN_OR_RETURN(uint16_t magic, reader.GetU16());
  if (magic != kRawMagic) {
    return Status::Corruption("not a RAW image record");
  }
  DL_ASSIGN_OR_RETURN(uint32_t w, reader.GetU32());
  DL_ASSIGN_OR_RETURN(uint32_t h, reader.GetU32());
  DL_ASSIGN_OR_RETURN(uint8_t c, reader.GetU8());
  DL_RETURN_NOT_OK(ValidateDecodedImageHeader(w, h, c));
  // Raw is verbatim: the stream must actually hold the pixels the header
  // promises. Checked before the allocation so a truncated record costs
  // nothing.
  const uint64_t pixel_bytes = static_cast<uint64_t>(w) * h * c;
  if (pixel_bytes > reader.remaining()) {
    return Status::Corruption("RAW image record shorter than its header");
  }
  Image img(static_cast<int>(w), static_cast<int>(h), static_cast<int>(c));
  DL_ASSIGN_OR_RETURN(Slice pixels, reader.GetBytes(img.size_bytes()));
  std::memcpy(img.data(), pixels.data(), img.size_bytes());
  return img;
}

}  // namespace codec
}  // namespace deeplens
