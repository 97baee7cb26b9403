#include "storage/columnar/encoding.h"

#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#define DEEPLENS_SVB_X86 1
#include <tmmintrin.h>
#else
#define DEEPLENS_SVB_X86 0
#endif

namespace deeplens {
namespace columnar {
namespace {

// Per-control-byte decode tables. shuffle[c] is the pshufb mask that
// expands one 16-byte group load into four little-endian u32 lanes
// (0x80 lanes zero-fill); length[c] is the total data bytes the group
// consumes. The scalar path shares length[] so both paths agree on
// framing byte-for-byte.
struct SvbTables {
  alignas(16) uint8_t shuffle[256][16];
  uint8_t length[256];
};

const SvbTables& Tables() {
  static const SvbTables tables = [] {
    SvbTables t{};
    for (int c = 0; c < 256; ++c) {
      int pos = 0;
      for (int lane = 0; lane < 4; ++lane) {
        const int len = ((c >> (lane * 2)) & 3) + 1;
        for (int b = 0; b < 4; ++b) {
          t.shuffle[c][lane * 4 + b] =
              b < len ? static_cast<uint8_t>(pos + b) : 0x80;
        }
        pos += len;
      }
      t.length[c] = static_cast<uint8_t>(pos);
    }
    return t;
  }();
  return tables;
}

inline uint32_t ScalarLoadLane(const uint8_t* p, int len) {
  uint32_t v = 0;
  for (int b = 0; b < len; ++b) v |= static_cast<uint32_t>(p[b]) << (8 * b);
  return v;
}

// Decodes `n` values; the caller has already proven that the control and
// data slices are exactly large enough, so no bounds checks remain here.
void DecodeScalar(const uint8_t* control, const uint8_t* data, size_t n,
                  uint32_t* out) {
  const SvbTables& t = Tables();
  size_t i = 0;
  while (i + 4 <= n) {
    const uint8_t c = control[i / 4];
    const uint8_t* p = data;
    for (int lane = 0; lane < 4; ++lane) {
      const int len = ((c >> (lane * 2)) & 3) + 1;
      out[i + lane] = ScalarLoadLane(p, len);
      p += len;
    }
    data += t.length[c];
    i += 4;
  }
  for (; i < n; ++i) {
    const int len = ((control[i / 4] >> ((i % 4) * 2)) & 3) + 1;
    out[i] = ScalarLoadLane(data, len);
    data += len;
  }
}

#if DEEPLENS_SVB_X86
// SSSE3 kernel: one 16-byte load + pshufb per group of four values.
// Compiled with a per-function target attribute so the rest of the
// binary keeps the baseline ISA; only entered after a cpuid check.
// Groups whose 16-byte load would read past the data slice fall through
// to the scalar tail (each group consumes at most 16 bytes, so
// `data_left >= 16` guarantees the load is in bounds).
__attribute__((target("ssse3"))) void DecodeSsse3(const uint8_t* control,
                                                  const uint8_t* data,
                                                  size_t data_len, size_t n,
                                                  uint32_t* out) {
  const SvbTables& t = Tables();
  size_t i = 0;
  size_t data_pos = 0;
  while (i + 4 <= n && data_pos + 16 <= data_len) {
    const uint8_t c = control[i / 4];
    const __m128i in =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + data_pos));
    const __m128i mask =
        _mm_load_si128(reinterpret_cast<const __m128i*>(t.shuffle[c]));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm_shuffle_epi8(in, mask));
    data_pos += t.length[c];
    i += 4;
  }
  if (i < n) DecodeScalar(control + i / 4, data + data_pos, n - i, out + i);
}

bool DetectSsse3() { return __builtin_cpu_supports("ssse3") != 0; }
#endif  // DEEPLENS_SVB_X86

// Total data bytes the control stream implies for exactly `n` values.
uint64_t ControlledLength(const uint8_t* control, size_t n) {
  const SvbTables& t = Tables();
  uint64_t total = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) total += t.length[control[i / 4]];
  for (; i < n; ++i) total += ((control[i / 4] >> ((i % 4) * 2)) & 3) + 1;
  return total;
}

// One block's streams, after its framing checked out: `n` values whose
// control stream accounts for exactly the `data_len` data bytes present.
struct SvbFrame {
  size_t n = 0;
  const uint8_t* control = nullptr;
  const uint8_t* data = nullptr;
  size_t data_len = 0;
};

Result<SvbFrame> ReadFrame(ByteReader* reader, size_t max_values) {
  uint64_t n = 0;
  uint64_t data_len = 0;
  DL_ASSIGN_OR_RETURN(n, reader->GetVarint());
  DL_ASSIGN_OR_RETURN(data_len, reader->GetVarint());
  if (n > max_values) {
    return Status::Corruption("svb block: value count " + std::to_string(n) +
                              " exceeds bound " + std::to_string(max_values));
  }
  const size_t control_len = (static_cast<size_t>(n) + 3) / 4;
  Slice control;
  Slice data;
  DL_ASSIGN_OR_RETURN(control, reader->GetBytes(control_len));
  DL_ASSIGN_OR_RETURN(data, reader->GetBytes(data_len));
  SvbFrame frame;
  frame.n = static_cast<size_t>(n);
  frame.control = control.data();
  frame.data = data.data();
  frame.data_len = data.size();
  if (ControlledLength(frame.control, frame.n) != data_len) {
    return Status::Corruption("svb block: control/data length mismatch");
  }
  return frame;
}

}  // namespace

bool SvbSimdAvailable() {
#if DEEPLENS_SVB_X86
  static const bool available = DetectSsse3();
  return available;
#else
  return false;
#endif
}

void SvbEncodeU32Block(const uint32_t* values, size_t n, ByteBuffer* out) {
  std::vector<uint8_t> control((n + 3) / 4, 0);
  std::vector<uint8_t> data;
  data.reserve(n * 2);
  for (size_t i = 0; i < n; ++i) {
    uint32_t v = values[i];
    const uint8_t len = v < (1u << 8) ? 1 : v < (1u << 16) ? 2
                        : v < (1u << 24)                   ? 3
                                                           : 4;
    control[i / 4] |= static_cast<uint8_t>((len - 1) << ((i % 4) * 2));
    for (uint8_t b = 0; b < len; ++b) {
      data.push_back(static_cast<uint8_t>(v & 0xff));
      v >>= 8;
    }
  }
  out->PutVarint(n);
  out->PutVarint(data.size());
  out->PutBytes(control.data(), control.size());
  out->PutBytes(data.data(), data.size());
}

Status SvbDecodeU32Block(ByteReader* reader, size_t max_values,
                         std::vector<uint32_t>* out) {
  DL_ASSIGN_OR_RETURN(const SvbFrame frame, ReadFrame(reader, max_values));
  out->resize(frame.n);
  if (frame.n == 0) return Status::OK();
#if DEEPLENS_SVB_X86
  if (SvbSimdAvailable()) {
    DecodeSsse3(frame.control, frame.data, frame.data_len, frame.n,
                out->data());
    return Status::OK();
  }
#endif
  DecodeScalar(frame.control, frame.data, frame.n, out->data());
  return Status::OK();
}

Result<size_t> SvbSkipU32Block(ByteReader* reader, size_t max_values) {
  DL_ASSIGN_OR_RETURN(const SvbFrame frame, ReadFrame(reader, max_values));
  return frame.n;
}

void SvbEncodeU64Block(const uint64_t* values, size_t n, ByteBuffer* out) {
  std::vector<uint32_t> lanes(n * 2);
  for (size_t i = 0; i < n; ++i) {
    lanes[2 * i] = static_cast<uint32_t>(values[i]);
    lanes[2 * i + 1] = static_cast<uint32_t>(values[i] >> 32);
  }
  SvbEncodeU32Block(lanes.data(), lanes.size(), out);
}

Status SvbDecodeU64Block(ByteReader* reader, size_t max_values,
                         std::vector<uint64_t>* out) {
  if (max_values > SIZE_MAX / 2) max_values = SIZE_MAX / 2;
  std::vector<uint32_t> lanes;
  DL_RETURN_NOT_OK(SvbDecodeU32Block(reader, max_values * 2, &lanes));
  if (lanes.size() % 2 != 0) {
    return Status::Corruption("svb u64 block: odd lane count");
  }
  out->resize(lanes.size() / 2);
  for (size_t i = 0; i < out->size(); ++i) {
    (*out)[i] = static_cast<uint64_t>(lanes[2 * i]) |
                (static_cast<uint64_t>(lanes[2 * i + 1]) << 32);
  }
  return Status::OK();
}

Result<size_t> SvbSkipU64Block(ByteReader* reader, size_t max_values) {
  if (max_values > SIZE_MAX / 2) max_values = SIZE_MAX / 2;
  DL_ASSIGN_OR_RETURN(const size_t lanes,
                      SvbSkipU32Block(reader, max_values * 2));
  if (lanes % 2 != 0) {
    return Status::Corruption("svb u64 block: odd lane count");
  }
  return lanes / 2;
}

}  // namespace columnar
}  // namespace deeplens
