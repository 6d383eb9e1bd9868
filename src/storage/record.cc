#include "storage/record.h"

namespace instantdb {

void EncodeHeapTuple(const HeapTuple& tuple, std::string* dst) {
  PutVarint64(dst, tuple.row_id);
  PutVarint64(dst, static_cast<uint64_t>(tuple.insert_time));
  for (const Value& v : tuple.stable) v.EncodeTo(dst);
}

Status DecodeHeapTuple(const Schema& schema, Slice input, HeapTuple* out) {
  out->stable.resize(schema.stable_columns().size());
  const bool ok = WalkHeapRecord(
      input, out->stable.size(), &out->row_id, &out->insert_time,
      [out](size_t i, const FieldView& field) {
        out->stable[i] = field.ToValue();
      });
  return ok ? Status::OK() : Status::Corruption("malformed heap record");
}

}  // namespace instantdb
