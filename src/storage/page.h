#ifndef INSTANTDB_STORAGE_PAGE_H_
#define INSTANTDB_STORAGE_PAGE_H_

#include <cstdint>

namespace instantdb {

using PageId = uint32_t;
inline constexpr PageId kInvalidPageId = UINT32_MAX;

/// Dense table identifier assigned by the catalog; storage paths and WAL
/// records are keyed by it.
using TableId = uint32_t;

/// Engine-assigned, monotonically increasing tuple identifier. Row ids are
/// the join key between the stable heap record and the per-attribute state
/// stores, and they are what the paper's "keeping the identity of the donor
/// intact" refers to at the physical level.
using RowId = uint64_t;
inline constexpr RowId kInvalidRowId = UINT64_MAX;

/// Physical record locator inside a heap file.
struct Rid {
  PageId page = kInvalidPageId;
  uint16_t slot = 0;

  bool valid() const { return page != kInvalidPageId; }
  bool operator==(const Rid& other) const {
    return page == other.page && slot == other.slot;
  }
};

/// Live entries of some in-memory structures (state-store mirrors,
/// multi-resolution indexes) and the heap bytes they hold, summed.
struct MemoryUsage {
  uint64_t entries = 0;
  uint64_t bytes = 0;

  MemoryUsage& operator+=(const MemoryUsage& other) {
    entries += other.entries;
    bytes += other.bytes;
    return *this;
  }
};

}  // namespace instantdb

#endif  // INSTANTDB_STORAGE_PAGE_H_
