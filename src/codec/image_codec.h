// LJPG: the DeepLens intra-frame (single image) lossy codec. JPEG-shaped:
// per-channel 8×8 block DCT → quantize → zigzag-RLE entropy code. Also
// provides lossless raw serialization for the RAW storage format.
#pragma once

#include <cstdint>
#include <vector>

#include "codec/quant.h"
#include "common/bytes.h"
#include "common/status.h"
#include "tensor/tensor.h"

namespace deeplens {
namespace codec {

/// Encodes `img` at the given quality. Output layout:
///   magic(u16) w(u32) h(u32) c(u8) quality(u8) blocks...
std::vector<uint8_t> EncodeImage(const Image& img, Quality q);

/// Decodes an LJPG byte stream produced by EncodeImage.
Result<Image> DecodeImage(const Slice& bytes);

/// Lossless raw serialization: header + verbatim pixels.
std::vector<uint8_t> SerializeRawImage(const Image& img);
Result<Image> DeserializeRawImage(const Slice& bytes);

/// Codes `img`'s 8×8 blocks (no header) into `out`. With `pred` null the
/// blocks are intra-coded (I-frames, EncodeImage); otherwise the signed
/// residual against `pred`, which must share `img`'s dimensions, is coded
/// (P-frames). The blocks are coded in (channel, block-row) tasks on the
/// morsel pool, each into its own buffer, and the buffers are appended in
/// task order, so the bytes equal a serial raster-order encode. When
/// `reconstructed` is non-null it receives the frame DecodeBlocks will
/// rebuild from these bytes, computed from the quantized coefficients
/// without entropy-decoding them back. `reconstructed` must not alias
/// `img` or `pred`.
void EncodeBlocksInto(const Image& img, const Image* pred, Quality q,
                      ByteBuffer* out, Image* reconstructed = nullptr);

/// Decodes what EncodeBlocksInto wrote for a (width × height × channels)
/// frame: intra blocks when `pred` is null, else residuals applied on top
/// of `pred`.
Result<Image> DecodeBlocks(ByteReader* reader, const Image* pred, int width,
                           int height, int channels, Quality q);

/// Plausibility bounds on decoded image headers. The header fields come
/// from untrusted bytes (spill logs, fuzzed streams); the decoder must
/// reject implausible dimensions *before* allocating the frame, or a
/// 14-byte stream can demand a petabyte image.
inline constexpr uint32_t kMaxDecodeDimension = 1u << 15;  // 32768 px/side
inline constexpr uint32_t kMaxDecodeChannels = 4;

/// Returns Corruption unless (w, h, c) describes an image the decoders
/// are willing to allocate: every side ≤ kMaxDecodeDimension, channel
/// count in [1, kMaxDecodeChannels]. Zero-area images are allowed (their
/// allocation is empty).
Status ValidateDecodedImageHeader(uint32_t w, uint32_t h, uint32_t c);

}  // namespace codec
}  // namespace deeplens
