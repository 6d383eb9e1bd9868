#include "storage/record.h"

#include <algorithm>

namespace instantdb {

void EncodeHeapTuple(const HeapTuple& tuple, std::string* dst) {
  PutVarint64(dst, tuple.row_id);
  PutVarint64(dst, static_cast<uint64_t>(tuple.insert_time));
  for (const Value& v : tuple.stable) v.EncodeTo(dst);
}

Status DecodeHeapTuple(const Schema& schema, Slice input, HeapTuple* out,
                       const std::vector<bool>* stable_needed) {
  uint64_t row_id, insert_time;
  if (!GetVarint64(&input, &row_id) || !GetVarint64(&input, &insert_time)) {
    return Status::Corruption("bad heap tuple header");
  }
  out->row_id = row_id;
  out->insert_time = static_cast<Micros>(insert_time);
  out->stable.resize(schema.stable_columns().size());
  for (size_t i = 0; i < out->stable.size(); ++i) {
    Value& v = out->stable[i];
    const bool needed = stable_needed == nullptr || (*stable_needed)[i];
    if (!needed) v = Value::Null();
    if (!Value::DecodeFrom(&input, needed ? &v : nullptr)) {
      return Status::Corruption("bad stable value");
    }
  }
  if (!input.empty()) return Status::Corruption("trailing bytes in tuple");
  return Status::OK();
}

size_t DecodeStableValues(const Schema& schema, Slice input,
                          const std::vector<bool>& stable_needed,
                          HeapTuple* out) {
  uint64_t skipped;
  GetVarint64(&input, &skipped);  // row id
  GetVarint64(&input, &skipped);  // insert time
  // Values after the last flagged one are never walked.
  const size_t wanted = static_cast<size_t>(
      std::count(stable_needed.begin(), stable_needed.end(), true));
  size_t decoded = 0;
  for (size_t i = 0; decoded < wanted && i < schema.stable_columns().size();
       ++i) {
    const bool needed = stable_needed[i];
    Value::DecodeFrom(&input, needed ? &out->stable[i] : nullptr);
    decoded += needed ? 1 : 0;
  }
  return decoded;
}

}  // namespace instantdb
