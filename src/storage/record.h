#ifndef INSTANTDB_STORAGE_RECORD_H_
#define INSTANTDB_STORAGE_RECORD_H_

#include <vector>

#include "catalog/schema.h"
#include "catalog/value.h"
#include "common/clock.h"
#include "common/result.h"
#include "storage/page.h"

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

/// Decodes a heap record. With `stable_needed` (one flag per stable
/// ordinal), only the flagged stable values are materialized; the others
/// are skipped and left NULL. Framing is checked either way, so a truncated
/// record or trailing bytes are Corruption whatever the mask — which is
/// also how a record carrying inline degradable images, as an older build
/// wrote them, is refused.
Status DecodeHeapTuple(const Schema& schema, Slice input, HeapTuple* out,
                       const std::vector<bool>* stable_needed = nullptr);

/// Second pass of a late-materializing scan: decodes the flagged stable
/// values of a record DecodeHeapTuple already checked into `out->stable`
/// and leaves every other slot as it is. Returns the number of values
/// decoded.
size_t DecodeStableValues(const Schema& schema, Slice input,
                          const std::vector<bool>& stable_needed,
                          HeapTuple* out);

}  // namespace instantdb

#endif  // INSTANTDB_STORAGE_RECORD_H_
