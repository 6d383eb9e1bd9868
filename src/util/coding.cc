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

}  // namespace instantdb
