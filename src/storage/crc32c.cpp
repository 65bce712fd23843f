#include "storage/crc32c.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace dedicore::storage {

namespace {

// Table for the reflected Castagnoli polynomial, generated once at first
// use (constant-initialized would also work but constexpr loops of 256*8
// iterations cost compile time for no runtime benefit).
const std::array<std::uint32_t, 256>& table() noexcept {
  static const std::array<std::uint32_t, 256> t = [] {
    std::array<std::uint32_t, 256> out{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
      out[i] = c;
    }
    return out;
  }();
  return t;
}

using Crc32cFn = std::uint32_t (*)(std::uint32_t,
                                   std::span<const std::byte>) noexcept;

#if defined(__x86_64__)
// Compiled for SSE4.2 whatever the build's target flags; reached only
// through dispatch() below, after the CPU has reported the instruction.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    std::uint32_t crc, std::span<const std::byte> bytes) noexcept {
  const std::byte* p = bytes.data();
  std::size_t n = bytes.size();
  std::uint64_t c = crc ^ 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, sizeof word);  // spans carry no alignment
    c = _mm_crc32_u64(c, word);
  }
  auto c32 = static_cast<std::uint32_t>(c);
  for (; n > 0; ++p, --n)
    c32 = _mm_crc32_u8(c32, static_cast<std::uint8_t>(*p));
  return c32 ^ 0xFFFFFFFFu;
}
#endif

Crc32cFn dispatch() noexcept {
#if defined(__x86_64__)
  __builtin_cpu_init();  // safe even if a static constructor calls us first
  if (__builtin_cpu_supports("sse4.2")) return crc32c_sse42;
#endif
  return crc32c_extend_portable;
}

}  // namespace

std::uint32_t crc32c_extend_portable(std::uint32_t crc,
                                     std::span<const std::byte> bytes) noexcept {
  const auto& t = table();
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  for (const std::byte b : bytes)
    c = t[(c ^ static_cast<std::uint32_t>(b)) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::uint32_t crc32c_extend(std::uint32_t crc,
                            std::span<const std::byte> bytes) noexcept {
  static const Crc32cFn impl = dispatch();
  return impl(crc, bytes);
}

}  // namespace dedicore::storage
