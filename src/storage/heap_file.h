#ifndef INSTANTDB_STORAGE_HEAP_FILE_H_
#define INSTANTDB_STORAGE_HEAP_FILE_H_

#include <functional>
#include <vector>

#include "common/result.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace instantdb {

/// \brief Slotted-page heap file holding the stable part of each tuple and
/// its insertion time (the degradable values live in the state stores).
///
/// Page layout:
///   [0..2)  uint16 slot count
///   [2..4)  uint16 data_start — records grow downward from the page end
///   [8..)   slot array, 4 bytes each: uint16 offset (0 = empty), uint16 len
///
/// Deletes are *secure*: record bytes are zeroed in the page image before
/// the slot is freed, so no accurate value survives in the data space
/// (paper §III, "every trace of deleted data must be physically cleaned
/// up"). The same zeroing runs on every in-place shrink.
class HeapFile {
 public:
  explicit HeapFile(BufferPool* pool);

  /// Rebuilds the in-memory free-space map by scanning page headers.
  Status Open();

  Result<Rid> Insert(Slice record);
  Result<std::string> Get(Rid rid) const;

  /// Frees the slot; record bytes are always zeroed first.
  Status Delete(Rid rid);

  /// Rewrites the record. Stays at `rid` when it fits (possibly after page
  /// compaction); otherwise relocates and returns the new rid in `*out`.
  Status Update(Rid rid, Slice record, Rid* out);

  /// Calls `fn` for every live record. Stops early if `fn` returns false.
  Status Scan(
      const std::function<bool(Rid, Slice)>& fn) const;

  /// Resumable variant for cursors: scans live records in (page, slot)
  /// order starting at `start` (inclusive). `Rid{0, 0}` scans everything.
  Status ScanFrom(Rid start, const std::function<bool(Rid, Slice)>& fn) const;

  /// Page-range-bounded ScanFrom: stops before `end_page` (exclusive) — the
  /// morsel scan primitive. `kInvalidPageId` means "to the end of the heap",
  /// making ScanFrom the open-ended special case.
  Status ScanRange(Rid start, PageId end_page,
                   const std::function<bool(Rid, Slice)>& fn) const;

  /// Number of live records (maintained incrementally).
  uint64_t live_records() const { return live_records_; }

  size_t max_record_size() const;

 private:
  struct PageHeader {
    uint16_t num_slots;
    uint16_t data_start;
  };

  static PageHeader ReadHeader(const char* page);
  static void WriteHeader(char* page, PageHeader header);
  size_t FreeSpace(const char* page) const;
  /// Compacts the data region of a pinned page, preserving slot numbers.
  void CompactPage(char* page) const;
  Result<Rid> InsertIntoPage(PageGuard& guard, Slice record);

  BufferPool* const pool_;
  const size_t page_size_;
  std::vector<uint16_t> free_space_;  // per page, approximate
  /// Reusable (freed) slots per page: 0 means InsertIntoPage can append a
  /// fresh slot without scanning the slot array (the append-only hot path).
  std::vector<uint16_t> freed_slots_;
  uint64_t live_records_ = 0;
};

}  // namespace instantdb

#endif  // INSTANTDB_STORAGE_HEAP_FILE_H_
