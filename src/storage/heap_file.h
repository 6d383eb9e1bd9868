#ifndef INSTANTDB_STORAGE_HEAP_FILE_H_
#define INSTANTDB_STORAGE_HEAP_FILE_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "common/result.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "util/coding.h"

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

  /// Calls `fn(Slice)` with the record at `rid`, read in place while its
  /// page is pinned (valid only inside the call). NotFound for a free or
  /// out-of-range slot.
  template <typename Fn>
  Status Read(Rid rid, Fn&& fn) const {
    IDB_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(rid.page));
    const char* page = guard.data();
    if (rid.slot >= ReadHeader(page).num_slots ||
        SlotOffset(page, rid.slot) == 0) {
      return Status::NotFound("no record at rid");
    }
    fn(Slice(page + SlotOffset(page, rid.slot), SlotLen(page, rid.slot)));
    return Status::OK();
  }

  /// Frees the slot; record bytes are always zeroed first.
  Status Delete(Rid rid);

  /// Rewrites the record. Stays at `rid` when it fits (possibly after page
  /// compaction); otherwise relocates and returns the new rid in `*out`.
  Status Update(Rid rid, Slice record, Rid* out);

  /// Calls `fn(Rid, Slice)` for every live record in (page, slot) order
  /// from `start` (inclusive; `Rid{0, 0}` scans everything), stopping
  /// before `end_page` (exclusive; kInvalidPageId = to the end of the heap)
  /// or as soon as `fn` returns false — the morsel scan primitive. A record
  /// is valid only inside its call, while its page is pinned.
  template <typename Fn>
  Status ScanRange(Rid start, PageId end_page, Fn&& fn) const {
    const PageId n = std::min<PageId>(end_page, pool_->disk()->num_pages());
    for (PageId p = start.page; p < n; ++p) {
      IDB_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(p));
      const char* page = guard.data();
      const PageHeader header = ReadHeader(page);
      for (uint16_t s = p == start.page ? start.slot : 0;
           s < header.num_slots; ++s) {
        const uint16_t offset = SlotOffset(page, s);
        if (offset == 0) continue;
        if (!fn(Rid{p, s}, Slice(page + offset, SlotLen(page, s)))) {
          return Status::OK();
        }
      }
    }
    return Status::OK();
  }

  /// ScanRange over the whole heap.
  template <typename Fn>
  Status Scan(Fn&& fn) const {
    return ScanRange(Rid{0, 0}, kInvalidPageId, std::forward<Fn>(fn));
  }

  /// Number of live records (maintained incrementally).
  uint64_t live_records() const { return live_records_; }

  size_t max_record_size() const;

 private:
  struct PageHeader {
    uint16_t num_slots;
    uint16_t data_start;
  };

  static constexpr size_t kHeaderBytes = 8;
  static constexpr size_t kSlotBytes = 4;

  static PageHeader ReadHeader(const char* page) {
    const uint32_t word = DecodeFixed32(page);
    return PageHeader{static_cast<uint16_t>(word & 0xFFFF),
                      static_cast<uint16_t>(word >> 16)};
  }
  static uint16_t SlotOffset(const char* page, uint16_t slot) {
    return DecodeFixed32(page + kHeaderBytes + slot * kSlotBytes) & 0xFFFF;
  }
  static uint16_t SlotLen(const char* page, uint16_t slot) {
    return DecodeFixed32(page + kHeaderBytes + slot * kSlotBytes) >> 16;
  }
  static void SetSlot(char* page, uint16_t slot, uint16_t offset,
                      uint16_t len);
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
