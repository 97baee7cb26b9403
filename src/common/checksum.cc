#include "common/checksum.h"

#include <cstring>

#if defined(__x86_64__)
#define DEEPLENS_CRC_X86 1
#include <nmmintrin.h>
#else
#define DEEPLENS_CRC_X86 0
#endif

namespace deeplens {

namespace {
// Lazily-built CRC32C (Castagnoli polynomial, reflected) lookup table.
struct Crc32cTable {
  uint32_t t[256];
  Crc32cTable() {
    constexpr uint32_t kPoly = 0x82f63b78u;
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
      t[i] = c;
    }
  }
};
const Crc32cTable& Table() {
  static const Crc32cTable table;
  return table;
}

#if DEEPLENS_CRC_X86
// SSE4.2 kernel: the crc32 instruction computes this same reflected
// Castagnoli CRC, so folding eight bytes per instruction agrees with the
// table loop bit for bit. Compiled with a per-function target attribute
// so the rest of the binary keeps the baseline ISA; only entered after a
// cpuid check.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const uint8_t* p,
                                                       size_t n,
                                                       uint32_t seed) {
  uint64_t c = seed ^ 0xffffffffu;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    c = _mm_crc32_u64(c, word);
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  for (; n > 0; ++p, --n) c32 = _mm_crc32_u8(c32, *p);
  return c32 ^ 0xffffffffu;
}

bool DetectSse42() { return __builtin_cpu_supports("sse4.2") != 0; }
#endif  // DEEPLENS_CRC_X86

}  // namespace

bool Crc32cHardwareAvailable() {
#if DEEPLENS_CRC_X86
  static const bool available = DetectSse42();
  return available;
#else
  return false;
#endif
}

uint32_t Crc32cPortable(const void* data, size_t n, uint32_t seed) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  const Crc32cTable& tab = Table();
  uint32_t c = seed ^ 0xffffffffu;
  for (size_t i = 0; i < n; ++i) {
    c = tab.t[(c ^ p[i]) & 0xff] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

uint32_t Crc32c(const void* data, size_t n, uint32_t seed) {
#if DEEPLENS_CRC_X86
  if (Crc32cHardwareAvailable()) {
    return Crc32cSse42(static_cast<const uint8_t*>(data), n, seed);
  }
#endif
  return Crc32cPortable(data, n, seed);
}

uint64_t Fnv1a64(const void* data, size_t n, uint64_t seed) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace deeplens
