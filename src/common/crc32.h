// CRC-32 (IEEE 802.3 polynomial, the zlib variant) for integrity checks
// on durable state — notably journal records, where a torn write must be
// distinguishable from a valid short record during crash recovery — and
// for the content addresses of shipped chunks (common/chunk.h).
// Header-only; the lookup tables are built at compile time.
//
// Slice-by-8: eight tables, where table k advances the CRC of a byte by k
// further zero bytes, let one step fold eight input bytes with eight
// independent lookups instead of eight dependent ones. The polynomial and
// reflection are unchanged, so every result equals the bytewise loop's
// (chunk ids and journal files stay bit-compatible).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace cwc {

namespace detail {
using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

inline constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
    tables[0][i] = crc;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}
inline constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

inline std::uint32_t load_u32le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}
}  // namespace detail

/// CRC-32 of `data`, optionally chained via `seed` (pass a previous
/// result to continue over split buffers).
inline std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t seed = 0) {
  const detail::Crc32Tables& t = detail::kCrc32Tables;
  std::uint32_t crc = ~seed;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ detail::load_u32le(p);
    const std::uint32_t hi = detail::load_u32le(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
          t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xFFu];
  }
  return ~crc;
}

}  // namespace cwc
