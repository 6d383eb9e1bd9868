#include "util/coding.h"

#include <cmath>

namespace instantdb {

void PutFixed32(std::string* dst, uint32_t v) {
  char buf[4];
  EncodeFixed32(buf, v);
  dst->append(buf, 4);
}

void PutFixed64(std::string* dst, uint64_t v) {
  char buf[8];
  EncodeFixed64(buf, v);
  dst->append(buf, 8);
}

void PutVarint32(std::string* dst, uint32_t v) {
  unsigned char buf[5];
  int n = 0;
  while (v >= 0x80) {
    buf[n++] = static_cast<unsigned char>(v) | 0x80;
    v >>= 7;
  }
  buf[n++] = static_cast<unsigned char>(v);
  dst->append(reinterpret_cast<char*>(buf), n);
}

void PutVarint64(std::string* dst, uint64_t v) {
  unsigned char buf[10];
  int n = 0;
  while (v >= 0x80) {
    buf[n++] = static_cast<unsigned char>(v) | 0x80;
    v >>= 7;
  }
  buf[n++] = static_cast<unsigned char>(v);
  dst->append(reinterpret_cast<char*>(buf), n);
}

namespace {

template <typename T, int kMaxBytes>
bool GetVarintImpl(Slice* input, T* value) {
  const char* const limit = input->data() + input->size();
  const char* p = GetVarintPtr<T, kMaxBytes>(input->data(), limit, value);
  if (p == nullptr) return false;
  input->remove_prefix(static_cast<size_t>(p - input->data()));
  return true;
}

}  // namespace

bool GetVarint32(Slice* input, uint32_t* value) {
  return GetVarintImpl<uint32_t, 5>(input, value);
}

bool GetVarint64(Slice* input, uint64_t* value) {
  return GetVarintImpl<uint64_t, 10>(input, value);
}

void PutLengthPrefixed(std::string* dst, Slice value) {
  PutVarint32(dst, static_cast<uint32_t>(value.size()));
  dst->append(value.data(), value.size());
}

bool GetLengthPrefixed(Slice* input, Slice* value) {
  uint32_t len = 0;
  if (!GetVarint32(input, &len)) return false;
  if (input->size() < len) return false;
  *value = input->substr(0, len);
  input->remove_prefix(len);
  return true;
}

bool GetFixed32(Slice* input, uint32_t* value) {
  if (input->size() < 4) return false;
  *value = DecodeFixed32(input->data());
  input->remove_prefix(4);
  return true;
}

bool GetFixed64(Slice* input, uint64_t* value) {
  if (input->size() < 8) return false;
  *value = DecodeFixed64(input->data());
  input->remove_prefix(8);
  return true;
}

// --- order-preserving encodings --------------------------------------------

void PutOrderedInt64(std::string* dst, int64_t v) {
  // Flip the sign bit so negatives sort before positives, then big-endian.
  const uint64_t u = static_cast<uint64_t>(v) ^ (1ULL << 63);
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>(u >> (56 - 8 * i));
  dst->append(buf, 8);
}

bool GetOrderedInt64(Slice* input, int64_t* v) {
  if (input->size() < 8) return false;
  uint64_t u = 0;
  for (int i = 0; i < 8; ++i) {
    u = (u << 8) | static_cast<unsigned char>((*input)[i]);
  }
  input->remove_prefix(8);
  *v = static_cast<int64_t>(u ^ (1ULL << 63));
  return true;
}

void PutOrderedDouble(std::string* dst, double v) {
  // IEEE-754 total order: positive values get the sign bit set; negative
  // values are bitwise complemented.
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  if (bits & (1ULL << 63)) {
    bits = ~bits;
  } else {
    bits |= (1ULL << 63);
  }
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>(bits >> (56 - 8 * i));
  dst->append(buf, 8);
}

bool GetOrderedDouble(Slice* input, double* v) {
  if (input->size() < 8) return false;
  uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits = (bits << 8) | static_cast<unsigned char>((*input)[i]);
  }
  input->remove_prefix(8);
  if (bits & (1ULL << 63)) {
    bits &= ~(1ULL << 63);
  } else {
    bits = ~bits;
  }
  std::memcpy(v, &bits, 8);
  return true;
}

void PutOrderedString(std::string* dst, Slice v) {
  // Escape embedded 0x00 as 0x00 0x01 and terminate with 0x00 0x00 so the
  // encoding is prefix-free and memcmp order equals string order.
  for (char c : v) {
    if (c == '\0') {
      dst->push_back('\0');
      dst->push_back('\x01');
    } else {
      dst->push_back(c);
    }
  }
  dst->push_back('\0');
  dst->push_back('\0');
}

bool GetOrderedString(Slice* input, std::string* v) {
  v->clear();
  size_t i = 0;
  while (i < input->size()) {
    const char c = (*input)[i];
    if (c != '\0') {
      v->push_back(c);
      ++i;
      continue;
    }
    if (i + 1 >= input->size()) return false;
    const char next = (*input)[i + 1];
    if (next == '\0') {
      input->remove_prefix(i + 2);
      return true;
    }
    if (next == '\x01') {
      v->push_back('\0');
      i += 2;
      continue;
    }
    return false;  // invalid escape
  }
  return false;
}

}  // namespace instantdb
