#ifndef INSTANTDB_STORAGE_RECORD_H_
#define INSTANTDB_STORAGE_RECORD_H_

#include <vector>

#include "catalog/schema.h"
#include "catalog/value.h"
#include "common/clock.h"
#include "common/options.h"
#include "common/result.h"
#include "storage/page.h"

namespace instantdb {

/// Degradable attribute image stored inline in the heap record under
/// DegradableLayout::kInPlace. `phase == lcp.num_phases()` means removed.
struct InlineDegradable {
  int32_t phase = 0;
  Value value;

  bool operator==(const InlineDegradable& other) const {
    return phase == other.phase && value == other.value;
  }
};

/// \brief Decoded heap record.
///
/// Under kStateStores the heap holds only the stable part plus the
/// insertion timestamp (which fixes the whole degradation schedule); the
/// degradable values live in the per-(attribute, phase) state stores. Under
/// kInPlace the degradable images ride along inline.
struct HeapTuple {
  RowId row_id = kInvalidRowId;
  Micros insert_time = 0;
  /// Aligned with Schema::stable_columns().
  std::vector<Value> stable;
  /// Aligned with Schema::degradable_columns(); used by kInPlace only.
  std::vector<InlineDegradable> degradable;
};

void EncodeHeapTuple(const Schema& schema, DegradableLayout layout,
                     const HeapTuple& tuple, std::string* dst);

/// Decodes a heap record. With `stable_needed` (one flag per stable
/// ordinal), only the flagged stable values are materialized; the others
/// are skipped and left NULL. Framing is checked either way, so a truncated
/// record or trailing bytes are Corruption whatever the mask.
Status DecodeHeapTuple(const Schema& schema, DegradableLayout layout,
                       Slice input, HeapTuple* out,
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
