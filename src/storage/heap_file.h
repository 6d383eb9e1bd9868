#ifndef INSTANTDB_STORAGE_HEAP_FILE_H_
#define INSTANTDB_STORAGE_HEAP_FILE_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "common/result.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "storage/page_image.h"
#include "storage/record.h"
#include "util/coding.h"

namespace instantdb {

/// \brief The state one batch of HeapFile::ScanFields / ReadFields calls
/// share: which stable fields the caller reads and where their views go,
/// the record the views describe, and the physical work done.
struct FieldScan {
  /// One view per stable field; the callback's `fields` point here.
  FieldView* fields = nullptr;
  /// Fields every record needs before the callback (a filter's columns),
  /// and fields needed only for the records the caller keeps, which
  /// CompleteFields fills. A walked record has every field anyway.
  const std::vector<uint32_t>* first = nullptr;
  const std::vector<uint32_t>* rest = nullptr;
  /// Records walked with WalkHeapRecord, image builds included, and page
  /// images built.
  uint64_t records_walked = 0;
  uint64_t images_built = 0;

  /// Only a scan that reads fields counts toward, and builds, page images;
  /// a page image still serves the others' records, filling no view.
  bool reads_fields() const { return !first->empty() || !rest->empty(); }

  /// Fills the `rest` views of the record the callback is looking at.
  void CompleteFields() {
    if (image == nullptr) return;
    for (uint32_t i : *rest) image->Field(*layout, page, entry, i, &fields[i]);
  }

  /// Set by HeapFile: the image and entry of the current record, or a null
  /// image for a walked record.
  const PageImage* image = nullptr;
  const PageImage::Layout* layout = nullptr;
  const char* page = nullptr;
  size_t entry = 0;
};

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
///
/// Space that deletes and shrinks free is reused. A page's free figure is
/// its contiguous gap plus its holes (bytes freed inside the data region).
/// Insert takes the lowest page whose figure has room, found in O(log
/// pages) by a max-tree over the figures, and compacts that page first
/// when the gap alone is too small. Compaction zeroes the whole data
/// region, so reuse leaves no residue. Without deletes, holes stay zero
/// and the layout is the append-only one.
class HeapFile {
 public:
  /// `field_types`: the stable column types of the heap's records
  /// (Schema::stable_columns() order), which ScanFields and ReadFields
  /// decode and page images lay out. Empty for a heap of raw records.
  explicit HeapFile(BufferPool* pool,
                    const std::vector<ValueType>& field_types = {});

  /// Rebuilds the in-memory free-space map (gaps and holes, from the page
  /// headers and slot lengths) by scanning every page.
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

  /// ScanRange with each record's row id and stable fields decoded: calls
  /// `fn(Rid, RowId, Slice record, const FieldView* fields)`. A page whose
  /// frame has a page image is read from the image, filling the views of
  /// `scan->first` (CompleteFields fills the rest); any other page's
  /// records are walked with WalkHeapRecord, every view filled. A scan that
  /// reads fields counts each page fetch toward its frame's image and
  /// builds the image when the fetch says so (see BufferPool). A malformed
  /// record is Corruption.
  template <typename Fn>
  Status ScanFields(Rid start, PageId end_page, FieldScan* scan,
                    Fn&& fn) const {
    const PageId n = std::min<PageId>(end_page, pool_->disk()->num_pages());
    const bool reads_fields = scan->reads_fields();
    for (PageId p = start.page; p < n; ++p) {
      IDB_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(p, reads_fields));
      const char* page = guard.data();
      const uint16_t first = p == start.page ? start.slot : 0;
      const PageImage* image = guard.image();
      if (image == nullptr && guard.build_image()) {
        image = BuildImage(&guard, scan);
      }
      scan->image = image;
      scan->layout = &layout_;
      scan->page = page;
      if (image != nullptr) {
        for (size_t k = image->LowerBound(first); k < image->size(); ++k) {
          const uint16_t s = image->slot(k);
          scan->entry = k;
          for (uint32_t i : *scan->first) {
            image->Field(layout_, page, k, i, &scan->fields[i]);
          }
          if (!fn(Rid{p, s}, image->row_id(k),
                  Slice(page + SlotOffset(page, s), SlotLen(page, s)),
                  static_cast<const FieldView*>(scan->fields))) {
            return Status::OK();
          }
        }
        continue;
      }
      const PageHeader header = ReadHeader(page);
      for (uint16_t s = first; s < header.num_slots; ++s) {
        const uint16_t offset = SlotOffset(page, s);
        if (offset == 0) continue;
        const Slice record(page + offset, SlotLen(page, s));
        RowId row_id = kInvalidRowId;
        IDB_RETURN_IF_ERROR(Walk(record, scan, &row_id));
        if (!fn(Rid{p, s}, row_id, record,
                static_cast<const FieldView*>(scan->fields))) {
          return Status::OK();
        }
      }
    }
    return Status::OK();
  }

  /// ScanFields for the one record at `rid` (NotFound for a free or
  /// out-of-range slot). A point read uses the frame's page image when it
  /// has one and never counts toward building one.
  template <typename Fn>
  Status ReadFields(Rid rid, FieldScan* scan, Fn&& fn) const {
    IDB_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(rid.page));
    const char* page = guard.data();
    if (rid.slot >= ReadHeader(page).num_slots ||
        SlotOffset(page, rid.slot) == 0) {
      return Status::NotFound("no record at rid");
    }
    const Slice record(page + SlotOffset(page, rid.slot),
                       SlotLen(page, rid.slot));
    const PageImage* image = guard.image();
    const size_t k = image == nullptr ? 0 : image->LowerBound(rid.slot);
    RowId row_id = kInvalidRowId;
    scan->layout = &layout_;
    scan->page = page;
    scan->entry = k;
    if (image != nullptr && k < image->size() && image->slot(k) == rid.slot) {
      scan->image = image;
      row_id = image->row_id(k);
      for (uint32_t i : *scan->first) {
        image->Field(layout_, page, k, i, &scan->fields[i]);
      }
    } else {
      scan->image = nullptr;
      IDB_RETURN_IF_ERROR(Walk(record, scan, &row_id));
    }
    fn(rid, row_id, record, static_cast<const FieldView*>(scan->fields));
    return Status::OK();
  }

  /// Number of live records (maintained incrementally).
  uint64_t live_records() const { return live_records_; }

  size_t max_record_size() const;

  /// Bytes an insert can claim on page `p`: the contiguous gap plus the
  /// holes, which compaction folds into the gap.
  size_t page_free(PageId p) const { return free_.Get(p); }

 private:
  /// \brief Max-tree over per-page values: the lowest page at or after a
  /// given one whose value reaches a bound, in O(log pages).
  class MaxTree {
   public:
    /// Replaces the values with `values`.
    void Assign(const std::vector<uint16_t>& values);
    /// Appends one page with value `value`.
    void Push(uint16_t value);
    void Set(size_t i, uint16_t value);
    uint16_t Get(size_t i) const { return nodes_[leaves_ + i]; }
    /// Lowest i >= `from` with Get(i) >= `bound`, or kInvalidPageId.
    PageId FirstAtLeast(size_t from, size_t bound) const;

   private:
    /// nodes_[1] is the root, node k's children are 2k and 2k + 1, and page
    /// i's leaf is nodes_[leaves_ + i]; leaves past the last page hold 0.
    std::vector<uint16_t> nodes_;
    size_t leaves_ = 0;  // a power of two, or 0 when there is no page
    size_t size_ = 0;    // pages
  };

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
  /// The contiguous gap between the slot array and the data region.
  size_t FreeSpace(const char* page) const;
  /// Recomputes the free figure of a pinned page.
  void RefreshFree(const PageGuard& guard);
  /// Compacts the data region of a pinned page, preserving slot numbers:
  /// its holes join the gap.
  void CompactPage(PageGuard& guard);
  Result<Rid> InsertIntoPage(PageGuard& guard, Slice record);
  /// Walks `record` into scan->fields and `*row_id`; Corruption when the
  /// codec's framing checks refuse it.
  Status Walk(Slice record, FieldScan* scan, RowId* row_id) const;
  /// Builds the page image of the pinned page and publishes it to its
  /// frame. nullptr (the caller walks) when a record does not fit the
  /// image: malformed, or a field's type is not its column's.
  const PageImage* BuildImage(PageGuard* guard, FieldScan* scan) const;

  BufferPool* const pool_;
  const size_t page_size_;
  const PageImage::Layout layout_;
  /// Per page: gap + holes, the figure first fit reads.
  MaxTree free_;
  /// Per page: bytes of the data region that no live record holds, freed by
  /// deletes. Zero again after CompactPage.
  std::vector<uint16_t> holes_;
  /// Reusable (freed) slots per page: 0 means InsertIntoPage can append a
  /// fresh slot without scanning the slot array (the append-only hot path).
  std::vector<uint16_t> freed_slots_;
  uint64_t live_records_ = 0;
};

}  // namespace instantdb

#endif  // INSTANTDB_STORAGE_HEAP_FILE_H_
