// Stream-vbyte-style group varint codec for the columnar chunk format.
//
// 32-bit values are split into a control stream (2 bits per value encoding
// the byte length 1..4) and a dense data stream, so decode is a
// table-driven shuffle instead of a per-byte branch chain. The hot decode
// loop has a SIMD path (SSSE3 pshufb, runtime-dispatched) and a scalar
// fallback that produces bit-identical output on any hardware. 64-bit
// values ride the same codec as interleaved lo/hi u32 lanes — the high
// lane of ids/deltas/row numbers is almost always zero and costs one byte.
//
// Block framing is self-describing and fully validated on decode:
// [varint n][varint data_len][control: ceil(n/4) bytes][data: data_len
// bytes], where data_len must equal the byte count the control stream
// implies — any mismatch is a typed Corruption, never UB or an unbounded
// allocation (callers pass the row-derived max_values bound).
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace deeplens {
namespace columnar {

/// True when the SSSE3 shuffle kernel will run on this machine (the
/// scalar fallback is used otherwise). Exposed so tests and benches can
/// report which decode path they exercised.
bool SvbSimdAvailable();

/// Appends `n` values as a framed stream-vbyte block.
void SvbEncodeU32Block(const uint32_t* values, size_t n, ByteBuffer* out);

/// Decodes a block written by SvbEncodeU32Block into `out` (resized).
/// Corruption when the frame is truncated, the value count exceeds
/// `max_values`, or the control/data streams disagree.
Status SvbDecodeU32Block(ByteReader* reader, size_t max_values,
                         std::vector<uint32_t>* out);

/// Checks a block's framing exactly as SvbDecodeU32Block does and steps
/// past it without decoding; returns the value count.
Result<size_t> SvbSkipU32Block(ByteReader* reader, size_t max_values);

/// 64-bit variants: each value contributes a lo and a hi u32 lane.
void SvbEncodeU64Block(const uint64_t* values, size_t n, ByteBuffer* out);
Status SvbDecodeU64Block(ByteReader* reader, size_t max_values,
                         std::vector<uint64_t>* out);
Result<size_t> SvbSkipU64Block(ByteReader* reader, size_t max_values);

/// Zigzag maps signed values to unsigned so small negatives stay small.
inline uint64_t ZigZag64(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t UnZigZag64(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

}  // namespace columnar
}  // namespace deeplens
