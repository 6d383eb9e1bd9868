#ifndef INSTANTDB_UTIL_CRC32C_H_
#define INSTANTDB_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace instantdb::crc32c {

/// CRC-32C (Castagnoli) of data[0, n); `init` extends a running checksum.
/// On an x86-64 CPU with SSE4.2 it runs on the crc32 instruction (chosen
/// once, at static initialisation); elsewhere it is ValuePortable. Both
/// return the same value for every input, so no stored checksum byte
/// depends on which CPU wrote it.
uint32_t Value(const char* data, size_t n, uint32_t init = 0);

/// The byte-at-a-time table kernel Value falls back to.
uint32_t ValuePortable(const char* data, size_t n, uint32_t init = 0);

/// True when Value runs on the CPU's crc32 instruction.
bool UsesHardware();

/// Masked CRC stored in files, so that a CRC of bytes that themselves
/// contain an embedded CRC does not degenerate (LevelDB trick).
uint32_t Mask(uint32_t crc);
uint32_t Unmask(uint32_t masked);

}  // namespace instantdb::crc32c

#endif  // INSTANTDB_UTIL_CRC32C_H_
