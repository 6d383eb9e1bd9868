#ifndef INSTANTDB_UTIL_CODING_H_
#define INSTANTDB_UTIL_CODING_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace instantdb {

/// Byte-range view used across storage, WAL and index code.
using Slice = std::string_view;

// ---------------------------------------------------------------------------
// Fixed-width little-endian encodings (record/page internals).
// ---------------------------------------------------------------------------

inline void EncodeFixed32(char* dst, uint32_t v) { std::memcpy(dst, &v, 4); }
inline void EncodeFixed64(char* dst, uint64_t v) { std::memcpy(dst, &v, 8); }

inline uint32_t DecodeFixed32(const char* src) {
  uint32_t v;
  std::memcpy(&v, src, 4);
  return v;
}
inline uint64_t DecodeFixed64(const char* src) {
  uint64_t v;
  std::memcpy(&v, src, 8);
  return v;
}

void PutFixed32(std::string* dst, uint32_t v);
void PutFixed64(std::string* dst, uint64_t v);

// ---------------------------------------------------------------------------
// Varints (LEB128), as in LevelDB/RocksDB.
// ---------------------------------------------------------------------------

void PutVarint32(std::string* dst, uint32_t v);
void PutVarint64(std::string* dst, uint64_t v);

/// Parses the varint at `p` (bytes before `limit`) into `*value` and returns
/// the byte after it, or nullptr on truncated/overlong input (more than
/// kMaxBytes bytes). Inline: record walks call it once per field.
template <typename T, int kMaxBytes>
inline const char* GetVarintPtr(const char* p, const char* limit, T* value) {
  T result = 0;
  for (int shift = 0, i = 0; i < kMaxBytes && p < limit; ++i, shift += 7) {
    const auto byte = static_cast<unsigned char>(*p++);
    if (byte & 0x80) {
      result |= static_cast<T>(byte & 0x7F) << shift;
    } else {
      result |= static_cast<T>(byte) << shift;
      *value = result;
      return p;
    }
  }
  return nullptr;
}
inline const char* GetVarint32Ptr(const char* p, const char* limit,
                                  uint32_t* value) {
  return GetVarintPtr<uint32_t, 5>(p, limit, value);
}
inline const char* GetVarint64Ptr(const char* p, const char* limit,
                                  uint64_t* value) {
  return GetVarintPtr<uint64_t, 10>(p, limit, value);
}

/// Parses a varint from the front of `*input`, advancing it. Returns false
/// on truncated/overlong input.
bool GetVarint32(Slice* input, uint32_t* value);
bool GetVarint64(Slice* input, uint64_t* value);

/// Appends varint length + bytes.
void PutLengthPrefixed(std::string* dst, Slice value);
/// Parses a length-prefixed slice from the front of `*input`, advancing it.
bool GetLengthPrefixed(Slice* input, Slice* value);

/// Reads fixed-width values from the front of `*input`, advancing it.
bool GetFixed32(Slice* input, uint32_t* value);
bool GetFixed64(Slice* input, uint64_t* value);

}  // namespace instantdb

#endif  // INSTANTDB_UTIL_CODING_H_
