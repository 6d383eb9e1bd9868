#include "util/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace instantdb::crc32c {

namespace {

constexpr uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli polynomial

constexpr std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int j = 0; j < 8; ++j) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kTable = MakeTable();

#if defined(__x86_64__)
// SSE4.2's crc32 instruction computes the same reflected Castagnoli CRC as
// the table, eight bytes per step. Words are loaded with memcpy, so `data`
// may have any alignment.
__attribute__((target("sse4.2"))) uint32_t ValueSse42(const char* data,
                                                      size_t n,
                                                      uint32_t init) {
  uint64_t crc = ~init;
  for (; n >= 8; data += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, data, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; ++data, --n) {
    crc32 = _mm_crc32_u8(crc32, static_cast<unsigned char>(*data));
  }
  return ~crc32;
}
#endif

using Kernel = uint32_t (*)(const char*, size_t, uint32_t);

Kernel ChooseKernel() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("sse4.2")) return ValueSse42;
#endif
  return ValuePortable;
}

// Chosen during static initialisation, so Value must not be called from
// another file's static initialiser (none does).
const Kernel kKernel = ChooseKernel();

}  // namespace

uint32_t Value(const char* data, size_t n, uint32_t init) {
  return kKernel(data, n, init);
}

uint32_t ValuePortable(const char* data, size_t n, uint32_t init) {
  uint32_t crc = ~init;
  for (size_t i = 0; i < n; ++i) {
    crc = kTable[(crc ^ static_cast<unsigned char>(data[i])) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

bool UsesHardware() { return kKernel != ValuePortable; }

uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xA282EAD8u;
}

uint32_t Unmask(uint32_t masked) {
  const uint32_t rot = masked - 0xA282EAD8u;
  return (rot << 15) | (rot >> 17);
}

}  // namespace instantdb::crc32c
