// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), dependency-free.
//
// Used as the integrity footer on governor snapshots (the last field of the
// v7 format): the encoder appends crc32(bytes[0..n)) and the parser refuses
// any blob whose footer does not match, so a torn write or bit flip can
// never decode into a plausible-but-wrong governor state.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace djvm {

namespace detail {
inline constexpr std::array<std::uint32_t, 256> make_crc32_table() noexcept {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}
inline constexpr auto kCrc32Table = make_crc32_table();
}  // namespace detail

/// CRC of `size` bytes starting at `data`, continuing from `seed` (pass the
/// previous return value to checksum a buffer in chunks; default starts a
/// fresh checksum).
[[nodiscard]] inline std::uint32_t crc32(const void* data, std::size_t size,
                                         std::uint32_t seed = 0) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c = detail::kCrc32Table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace djvm
