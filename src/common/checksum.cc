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
// Bytes per stream in one round of the three-stream kernel, and the
// round; inputs of at least one round take it.
constexpr size_t kStreamBlock = 4096;
constexpr size_t kRound = 3 * kStreamBlock;

// a * b mod P over GF(2), in the reflected bit order the CRC register
// uses (bit 31 holds x^0); zlib's multmodp.
uint32_t MultModP(uint32_t a, uint32_t b) {
  constexpr uint32_t kPoly = 0x82f63b78u;
  uint32_t product = 0;
  for (uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if (a & m) product ^= b;
    b = (b & 1) ? (b >> 1) ^ kPoly : b >> 1;
  }
  return product;
}

// Appending kStreamBlock zero bytes to a raw CRC register multiplies it
// by x^(8 * kStreamBlock) mod P. The multiplication is linear, so it is
// tabled per register byte: Shift(c) is four lookups.
struct ZeroBlockShift {
  uint32_t t[4][256];
  ZeroBlockShift() {
    uint32_t x_pow = 1u << 31;   // x^0
    uint32_t square = 1u << 23;  // x^8
    for (size_t n = kStreamBlock; n != 0; n >>= 1) {
      if (n & 1) x_pow = MultModP(square, x_pow);
      square = MultModP(square, square);
    }
    for (uint32_t k = 0; k < 4; ++k) {
      for (uint32_t v = 0; v < 256; ++v) {
        t[k][v] = MultModP(x_pow, v << (8 * k));
      }
    }
  }
  uint32_t Shift(uint32_t c) const {
    return t[0][c & 0xff] ^ t[1][(c >> 8) & 0xff] ^ t[2][(c >> 16) & 0xff] ^
           t[3][c >> 24];
  }
};

// SSE4.2 kernel: the crc32 instruction computes this same reflected
// Castagnoli CRC, so folding eight bytes per instruction agrees with the
// table loop bit for bit. Compiled with a per-function target attribute
// so the rest of the binary keeps the baseline ISA; only entered after a
// cpuid check.
//
// One crc32 chain is latency-bound (each instruction waits on the last),
// so large inputs run three independent chains over adjacent blocks of a
// round and join them as zlib's crc32_combine does: the register after
// A‖B is Shift(crc(A)) ^ crc(B) when B's chain starts from zero. The
// remainder runs on the single chain.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const uint8_t* p,
                                                       size_t n,
                                                       uint32_t seed) {
  uint64_t c = seed ^ 0xffffffffu;
  if (n >= kRound) {
    static const ZeroBlockShift zeros;
    for (; n >= kRound; p += kRound, n -= kRound) {
      uint64_t c1 = 0;
      uint64_t c2 = 0;
      for (size_t i = 0; i < kStreamBlock; i += 8) {
        uint64_t w0, w1, w2;
        std::memcpy(&w0, p + i, sizeof(w0));
        std::memcpy(&w1, p + kStreamBlock + i, sizeof(w1));
        std::memcpy(&w2, p + 2 * kStreamBlock + i, sizeof(w2));
        c = _mm_crc32_u64(c, w0);
        c1 = _mm_crc32_u64(c1, w1);
        c2 = _mm_crc32_u64(c2, w2);
      }
      c = zeros.Shift(static_cast<uint32_t>(c)) ^ c1;
      c = zeros.Shift(static_cast<uint32_t>(c)) ^ c2;
    }
  }
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
