#ifndef INSTANTDB_STORAGE_PAGE_IMAGE_H_
#define INSTANTDB_STORAGE_PAGE_IMAGE_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "catalog/value.h"
#include "storage/page.h"

namespace instantdb {

/// \brief Decoded image of one heap page: each live record's slot, row id
/// and stable fields, decoded once with WalkHeapRecord (storage/record.h),
/// so that a scan of a cached page reads fixed-width arrays instead of
/// re-walking every record's varint framing.
///
/// One exact-size allocation, column by column: a uint64 row id per record;
/// per stable field a fixed width by column type — 8 bytes for int64,
/// timestamp and double, 1 for bool, and for a string a uint16 offset and a
/// uint16 length into the page, so a string view is valid only while the
/// page stays pinned; a uint16 slot per record; and a null bit per field.
/// There is no insert time: a scan decodes it from the record header of the
/// rows it keeps. Entries ascend by slot.
///
/// The buffer pool owns an image with its frame (storage/buffer_pool.h) and
/// drops it on any write to the page, on eviction and on reload. The
/// destructor zeroes the arrays first: after a delete, the image still
/// holds the stable values the heap just zeroed.
class PageImage {
 public:
  /// The column layout of the images of one heap's records, from the stable
  /// column types (Schema::stable_columns() order).
  class Layout {
   public:
    explicit Layout(const std::vector<ValueType>& types);
    size_t fields() const { return columns_.size(); }

   private:
    friend class PageImage;
    struct Column {
      ValueType type;
      uint32_t width;   ///< bytes per entry
      uint32_t before;  ///< bytes per entry of the columns before this one
    };
    std::vector<Column> columns_;
    uint32_t entry_bytes_ = 0;  ///< row id, fields and slot
  };

  /// An image with room for `records` entries.
  PageImage(const Layout& layout, size_t records);
  ~PageImage();
  PageImage(const PageImage&) = delete;
  PageImage& operator=(const PageImage&) = delete;

  /// Decodes the record at `slot` of the pinned `page` into the next entry.
  /// False when the record is malformed, a field's type is not its
  /// column's, or the image is full: the caller then keeps no image.
  bool Append(const Layout& layout, const char* page, uint16_t slot,
              Slice record);

  size_t size() const { return size_; }
  uint16_t slot(size_t k) const {
    return Load<uint16_t>(data_.get() + slots_offset_ + k * sizeof(uint16_t));
  }
  RowId row_id(size_t k) const {
    return Load<RowId>(data_.get() + k * sizeof(RowId));
  }
  /// Entry k's stable field i as a view (`layout` is the image's); a string
  /// view points into `page`.
  void Field(const Layout& layout, const char* page, size_t k, size_t i,
             FieldView* out) const {
    const Layout::Column& column = layout.columns_[i];
    if (has_nulls_ && IsNull(k, i)) {
      out->type = ValueType::kNull;
      return;
    }
    out->type = column.type;
    const char* p = data_.get() + capacity_ * column.before + k * column.width;
    switch (column.type) {
      case ValueType::kInt64:
      case ValueType::kTimestamp:
        out->i = Load<int64_t>(p);
        break;
      case ValueType::kDouble:
        out->d = Load<double>(p);
        break;
      case ValueType::kBool:
        out->i = *p;
        break;
      case ValueType::kString:
        out->s = std::string_view(page + Load<uint16_t>(p),
                                  Load<uint16_t>(p + 2));
        break;
      case ValueType::kNull:
        break;
    }
  }
  /// The first entry whose slot is at least `slot` (size() when none).
  size_t LowerBound(uint16_t slot) const;
  /// Heap bytes the image holds, the object included.
  size_t bytes() const { return sizeof(PageImage) + data_bytes_; }

  /// Testing: `hook` sees every image's arrays just after they are zeroed
  /// and before they are freed (null turns it off).
  using ReleaseHook = void (*)(const void* region, size_t bytes);
  static void SetReleaseHookForTesting(ReleaseHook hook);

 private:
  template <typename T>
  static T Load(const char* p) {
    T value;
    std::memcpy(&value, p, sizeof(T));
    return value;
  }
  bool IsNull(size_t k, size_t i) const {
    const size_t bit = k * fields_ + i;
    return (data_[nulls_offset_ + bit / 8] >> (bit % 8)) & 1;
  }

  /// data_ holds, for capacity_ entries: the row ids at 0, each field's
  /// column in field order, the slots at slots_offset_ and the null bitmap
  /// (bit k × fields_ + i) at nulls_offset_.
  const size_t capacity_;
  const size_t fields_;
  size_t size_ = 0;
  size_t slots_offset_ = 0;
  size_t nulls_offset_ = 0;
  size_t data_bytes_ = 0;
  bool has_nulls_ = false;
  std::unique_ptr<char[]> data_;
};

}  // namespace instantdb

#endif  // INSTANTDB_STORAGE_PAGE_IMAGE_H_
