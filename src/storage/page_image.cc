#include "storage/page_image.h"

#include <atomic>

#include "storage/record.h"

namespace instantdb {

namespace {

std::atomic<PageImage::ReleaseHook> release_hook{nullptr};

/// Bytes one entry of a field of type `type` takes in its column.
uint32_t Width(ValueType type) {
  switch (type) {
    case ValueType::kInt64:
    case ValueType::kTimestamp:
    case ValueType::kDouble:
      return 8;
    case ValueType::kBool:
      return 1;
    case ValueType::kString:
      return 4;  // uint16 offset into the page, uint16 length
    case ValueType::kNull:
      break;
  }
  return 0;
}

template <typename T>
void Store(char* p, T value) {
  std::memcpy(p, &value, sizeof(T));
}

}  // namespace

PageImage::Layout::Layout(const std::vector<ValueType>& types) {
  uint32_t before = sizeof(RowId);
  for (ValueType type : types) {
    columns_.push_back(Column{type, Width(type), before});
    before += Width(type);
  }
  entry_bytes_ = before + sizeof(uint16_t);
}

PageImage::PageImage(const Layout& layout, size_t records)
    : capacity_(records), fields_(layout.fields()) {
  slots_offset_ = capacity_ * (layout.entry_bytes_ - sizeof(uint16_t));
  nulls_offset_ = slots_offset_ + capacity_ * sizeof(uint16_t);
  data_bytes_ = nulls_offset_ + (capacity_ * fields_ + 7) / 8;
  data_ = std::make_unique<char[]>(data_bytes_);  // zeroed: no null bit set
}

PageImage::~PageImage() {
  explicit_bzero(data_.get(), data_bytes_);
  if (const auto hook = release_hook.load(std::memory_order_relaxed)) {
    hook(data_.get(), data_bytes_);
  }
}

void PageImage::SetReleaseHookForTesting(ReleaseHook hook) {
  release_hook.store(hook, std::memory_order_relaxed);
}

bool PageImage::Append(const Layout& layout, const char* page, uint16_t slot,
                       Slice record) {
  if (size_ == capacity_) return false;
  const size_t k = size_;
  bool typed = true;
  RowId row_id = kInvalidRowId;
  Micros insert_time = 0;
  const bool framed = WalkHeapRecord(
      record, fields_, &row_id, &insert_time,
      [&](size_t i, const FieldView& field) {
        const Layout::Column& column = layout.columns_[i];
        char* p = data_.get() + capacity_ * column.before + k * column.width;
        if (field.is_null()) {
          const size_t bit = k * fields_ + i;
          data_[nulls_offset_ + bit / 8] |= static_cast<char>(1 << (bit % 8));
          has_nulls_ = true;
          return;
        }
        if (field.type != column.type) {
          typed = false;
          return;
        }
        switch (column.type) {
          case ValueType::kInt64:
          case ValueType::kTimestamp:
            Store<int64_t>(p, field.i);
            break;
          case ValueType::kDouble:
            Store<double>(p, field.d);
            break;
          case ValueType::kBool:
            *p = field.i != 0 ? 1 : 0;
            break;
          case ValueType::kString:
            Store<uint16_t>(p, static_cast<uint16_t>(
                                   field.s.empty() ? 0 : field.s.data() - page));
            Store<uint16_t>(p + 2, static_cast<uint16_t>(field.s.size()));
            break;
          case ValueType::kNull:
            break;
        }
      });
  if (!framed || !typed) return false;
  Store<RowId>(data_.get() + k * sizeof(RowId), row_id);
  Store<uint16_t>(data_.get() + slots_offset_ + k * sizeof(uint16_t), slot);
  ++size_;
  return true;
}

size_t PageImage::LowerBound(uint16_t target) const {
  size_t lo = 0;
  size_t hi = size_;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (slot(mid) < target) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace instantdb
