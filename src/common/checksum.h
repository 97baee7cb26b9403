// CRC32C checksum used to detect page / record corruption in the storage
// layer. Crc32c runs an SSE4.2 crc32-instruction kernel where the CPU has
// one (checked once at runtime), three interleaved streams wide on large
// inputs, and a byte-at-a-time table loop elsewhere; all produce the
// same values, so files verify on either.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/slice.h"

namespace deeplens {

/// Computes CRC32C over `data`, seeded with `seed` (0 for a fresh CRC).
/// Chaining composes: Crc32c(b, Crc32c(a)) == Crc32c(a ‖ b).
uint32_t Crc32c(const void* data, size_t n, uint32_t seed = 0);

inline uint32_t Crc32c(const Slice& s, uint32_t seed = 0) {
  return Crc32c(s.data(), s.size(), seed);
}

/// The table-driven path Crc32c falls back to without SSE4.2; the
/// reference the kernel is tested against.
uint32_t Crc32cPortable(const void* data, size_t n, uint32_t seed = 0);

/// True when Crc32c runs the SSE4.2 kernel on this machine. Exposed so
/// tests can report which path they exercised.
bool Crc32cHardwareAvailable();

/// 64-bit FNV-1a hash, used by the hash index and hash join.
uint64_t Fnv1a64(const void* data, size_t n, uint64_t seed = 14695981039346656037ull);

inline uint64_t Fnv1a64(const Slice& s) { return Fnv1a64(s.data(), s.size()); }

}  // namespace deeplens
