// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78) — the
// checksum the integrity layer stores alongside every chunk.  Chosen over
// plain CRC32 for its better burst-error detection and because it is the
// de-facto storage checksum (iSCSI, ext4 metadata, LevelDB/RocksDB block
// trailers), so on-disk artifacts stay recognizable to external tooling.
//
// Dispatch rule: crc32c_extend() picks its implementation once per
// process.  On x86-64 CPUs that report SSE4.2 it runs the `crc32`
// instruction eight bytes per step; everywhere else it runs the portable
// byte-at-a-time table, crc32c_extend_portable().  No build flag selects
// the path: the same binary runs on CPUs with and without SSE4.2, and
// both paths return identical values, so manifests do not depend on the
// host that wrote them.  The speed matters because the sharded backend
// checksums every chunk at plan time (inside the dedicated core's store
// step) and again on every verified read.  The incremental form lets
// callers checksum scatter/gather data without concatenating.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace dedicore::storage {

/// CRC of the empty string is 0; crc32c(crc32c(0, a), b) == crc32c(0, a+b).
/// Runs the hardware path when the CPU has one (see the dispatch rule).
std::uint32_t crc32c_extend(std::uint32_t crc,
                            std::span<const std::byte> bytes) noexcept;

/// The byte-at-a-time table implementation, with crc32c_extend()'s
/// contract.  Two roles: the fallback crc32c_extend() runs on CPUs without
/// SSE4.2, and the reference the tests compare the hardware path against.
std::uint32_t crc32c_extend_portable(std::uint32_t crc,
                                     std::span<const std::byte> bytes) noexcept;

inline std::uint32_t crc32c(std::span<const std::byte> bytes) noexcept {
  return crc32c_extend(0, bytes);
}

}  // namespace dedicore::storage
