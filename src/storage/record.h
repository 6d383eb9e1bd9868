#ifndef INSTANTDB_STORAGE_RECORD_H_
#define INSTANTDB_STORAGE_RECORD_H_

#include <vector>

#include "catalog/schema.h"
#include "catalog/value.h"
#include "common/clock.h"
#include "common/result.h"
#include "storage/page.h"

/// \file
/// \brief Heap record codec. A record is the varint row id, the varint
/// insertion time, then one type-tagged value per stable column
/// (Value::EncodeTo), and nothing after. WalkHeapRecord is the one walk
/// over that layout, and it runs in three places: a heap scan walks a
/// record into borrowed FieldViews, unless the page's decoded image
/// (storage/page_image.h) already holds them; the image builder walks each
/// record of a page once; and DecodeHeapTuple builds a HeapTuple through
/// it. Scans build Values only for the survivors' read columns, and read a
/// survivor's insertion time with ParseHeapHeader.

namespace instantdb {

/// \brief Decoded heap record: the stable part of a tuple plus its
/// insertion timestamp, which fixes the whole degradation schedule. The
/// degradable values live in the per-(attribute, phase) state stores.
struct HeapTuple {
  RowId row_id = kInvalidRowId;
  Micros insert_time = 0;
  /// Aligned with Schema::stable_columns().
  std::vector<Value> stable;
};

void EncodeHeapTuple(const HeapTuple& tuple, std::string* dst);

/// Walks an encoded heap record once: its header into `*row_id` and
/// `*insert_time`, then each of the `stable_count` stable values as a
/// FieldView borrowing from `input`, handed to `on_field(ordinal, view)`.
/// Allocation-free. Every framing check of the codec runs — the header
/// varints, each type tag, each string length and no trailing bytes — so
/// false means the record is corrupt, whatever the caller keeps: a record
/// with bytes past its last stable value (inline degradable images, say) is
/// refused.
/// Reads a heap record's header, its row id and insertion time, and
/// returns the byte after it, or nullptr when a varint is truncated.
inline const char* ParseHeapHeader(Slice input, RowId* row_id,
                                   Micros* insert_time) {
  const char* p = input.data();
  const char* const limit = p + input.size();
  uint64_t id = 0;
  uint64_t time = 0;
  if ((p = GetVarint64Ptr(p, limit, &id)) == nullptr ||
      (p = GetVarint64Ptr(p, limit, &time)) == nullptr) {
    return nullptr;
  }
  *row_id = id;
  *insert_time = static_cast<Micros>(time);
  return p;
}

template <typename OnField>
inline bool WalkHeapRecord(Slice input, size_t stable_count, RowId* row_id,
                           Micros* insert_time, OnField&& on_field) {
  const char* p = ParseHeapHeader(input, row_id, insert_time);
  if (p == nullptr) return false;
  const char* const limit = input.data() + input.size();
  for (size_t i = 0; i < stable_count; ++i) {
    FieldView field;
    if ((p = FieldView::Parse(p, limit, &field)) == nullptr) return false;
    on_field(i, field);
  }
  return p == limit;
}

/// Decodes a heap record with WalkHeapRecord, building every stable Value
/// (the reference decode tests compare the scans with). A malformed record
/// is Corruption.
Status DecodeHeapTuple(const Schema& schema, Slice input, HeapTuple* out);

}  // namespace instantdb

#endif  // INSTANTDB_STORAGE_RECORD_H_
