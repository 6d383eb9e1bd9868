#include "storage/heap_file.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "util/coding.h"

namespace instantdb {

void HeapFile::SetSlot(char* page, uint16_t slot, uint16_t offset,
                       uint16_t len) {
  EncodeFixed32(page + kHeaderBytes + slot * kSlotBytes,
                static_cast<uint32_t>(offset) |
                    (static_cast<uint32_t>(len) << 16));
}

HeapFile::HeapFile(BufferPool* pool, const std::vector<ValueType>& field_types)
    : pool_(pool),
      page_size_(pool->disk()->page_size()),
      layout_(field_types) {}

Status HeapFile::Walk(Slice record, FieldScan* scan, RowId* row_id) const {
  ++scan->records_walked;
  Micros insert_time = 0;
  FieldView* const fields = scan->fields;
  if (!WalkHeapRecord(record, layout_.fields(), row_id, &insert_time,
                      [fields](size_t i, const FieldView& field) {
                        fields[i] = field;
                      })) {
    return Status::Corruption("malformed heap record");
  }
  return Status::OK();
}

const PageImage* HeapFile::BuildImage(PageGuard* guard,
                                      FieldScan* scan) const {
  const char* page = guard->data();
  const PageHeader header = ReadHeader(page);
  size_t live = 0;
  for (uint16_t s = 0; s < header.num_slots; ++s) {
    live += SlotOffset(page, s) != 0 ? 1 : 0;
  }
  auto image = std::make_unique<PageImage>(layout_, live);
  for (uint16_t s = 0; s < header.num_slots; ++s) {
    const uint16_t offset = SlotOffset(page, s);
    if (offset == 0) continue;
    ++scan->records_walked;
    if (!image->Append(layout_, page, s,
                       Slice(page + offset, SlotLen(page, s)))) {
      return nullptr;
    }
  }
  ++scan->images_built;
  return guard->PublishImage(std::move(image));
}

void HeapFile::WriteHeader(char* page, PageHeader header) {
  EncodeFixed32(page, static_cast<uint32_t>(header.num_slots) |
                          (static_cast<uint32_t>(header.data_start) << 16));
}

size_t HeapFile::FreeSpace(const char* page) const {
  const PageHeader header = ReadHeader(page);
  const size_t data_start =
      header.data_start == 0 ? page_size_ : header.data_start;
  const size_t slots_end = kHeaderBytes + header.num_slots * kSlotBytes;
  return data_start > slots_end ? data_start - slots_end : 0;
}

size_t HeapFile::max_record_size() const {
  return page_size_ - kHeaderBytes - kSlotBytes;
}

void HeapFile::MaxTree::Assign(const std::vector<uint16_t>& values) {
  size_ = values.size();
  leaves_ = size_ == 0 ? 0 : 1;
  while (leaves_ < size_) leaves_ *= 2;
  nodes_.assign(2 * leaves_, 0);
  std::copy(values.begin(), values.end(), nodes_.begin() + leaves_);
  for (size_t k = leaves_; k-- > 1;) {
    nodes_[k] = std::max(nodes_[2 * k], nodes_[2 * k + 1]);
  }
}

void HeapFile::MaxTree::Push(uint16_t value) {
  if (size_ == leaves_) {
    // Full: double the leaves (amortized O(1) per page).
    std::vector<uint16_t> values(nodes_.begin() + leaves_, nodes_.end());
    values.push_back(value);
    Assign(values);
    return;
  }
  ++size_;
  Set(size_ - 1, value);
}

void HeapFile::MaxTree::Set(size_t i, uint16_t value) {
  size_t k = leaves_ + i;
  nodes_[k] = value;
  for (k /= 2; k > 0; k /= 2) {
    const uint16_t max = std::max(nodes_[2 * k], nodes_[2 * k + 1]);
    if (nodes_[k] == max) break;  // no ancestor changes either
    nodes_[k] = max;
  }
}

PageId HeapFile::MaxTree::FirstAtLeast(size_t from, size_t bound) const {
  if (from >= size_) return kInvalidPageId;
  // Climb from `from`'s leaf to the first subtree to its right (or itself)
  // whose maximum reaches the bound, then descend to its leftmost such leaf.
  size_t k = leaves_ + from;
  while (nodes_[k] < bound) {
    while (k & 1) {  // a right child: its right neighbour is an uncle's
      k /= 2;
      if (k == 0) return kInvalidPageId;  // climbed past the root
    }
    ++k;
  }
  while (k < leaves_) {
    k *= 2;
    if (nodes_[k] < bound) ++k;
  }
  return static_cast<PageId>(k - leaves_);
}

Status HeapFile::Open() {
  const PageId n = pool_->disk()->num_pages();
  std::vector<uint16_t> free(n, 0);
  holes_.assign(n, 0);
  freed_slots_.assign(n, 0);
  live_records_ = 0;
  for (PageId p = 0; p < n; ++p) {
    IDB_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(p));
    const char* page = guard.data();
    const PageHeader header = ReadHeader(page);
    size_t live_bytes = 0;
    for (uint16_t s = 0; s < header.num_slots; ++s) {
      if (SlotOffset(page, s) != 0) {
        ++live_records_;
        live_bytes += SlotLen(page, s);
      } else {
        ++freed_slots_[p];
      }
    }
    // The data region is [data_start, page end); what no live record holds
    // of it is a hole.
    const size_t data_start =
        header.data_start == 0 ? page_size_ : header.data_start;
    const size_t region = page_size_ - data_start;
    holes_[p] = static_cast<uint16_t>(region > live_bytes ? region - live_bytes
                                                          : 0);
    free[p] = static_cast<uint16_t>(FreeSpace(page) + holes_[p]);
  }
  free_.Assign(free);
  return Status::OK();
}

void HeapFile::RefreshFree(const PageGuard& guard) {
  free_.Set(guard.id(), static_cast<uint16_t>(FreeSpace(guard.data()) +
                                              holes_[guard.id()]));
}

void HeapFile::CompactPage(PageGuard& guard) {
  char* page = guard.data();
  PageHeader header = ReadHeader(page);
  std::string buffer(page_size_, '\0');
  size_t write_end = page_size_;
  std::vector<std::pair<uint16_t, uint16_t>> new_slots(header.num_slots,
                                                       {0, 0});
  for (uint16_t s = 0; s < header.num_slots; ++s) {
    const uint16_t offset = SlotOffset(page, s);
    const uint16_t len = SlotLen(page, s);
    if (offset == 0) continue;
    write_end -= len;
    std::memcpy(buffer.data() + write_end, page + offset, len);
    new_slots[s] = {static_cast<uint16_t>(write_end), len};
  }
  // Zero the whole data region, then lay the compacted image back down —
  // this also scrubs any residue between records.
  std::memset(page + kHeaderBytes + header.num_slots * kSlotBytes, 0,
              page_size_ - kHeaderBytes - header.num_slots * kSlotBytes);
  std::memcpy(page + write_end, buffer.data() + write_end,
              page_size_ - write_end);
  for (uint16_t s = 0; s < header.num_slots; ++s) {
    SetSlot(page, s, new_slots[s].first, new_slots[s].second);
  }
  header.data_start = static_cast<uint16_t>(write_end);
  WriteHeader(page, header);
  guard.MarkDirty();
  holes_[guard.id()] = 0;
  RefreshFree(guard);
}

Result<Rid> HeapFile::InsertIntoPage(PageGuard& guard, Slice record) {
  char* page = guard.data();
  PageHeader header = ReadHeader(page);
  size_t data_start = header.data_start == 0 ? page_size_ : header.data_start;

  // Reuse an empty slot if any, else extend the slot array. The in-memory
  // freed-slot count makes the append-only common case O(1) instead of a
  // full slot scan per insert.
  uint16_t slot = header.num_slots;
  if (freed_slots_[guard.id()] > 0) {
    for (uint16_t s = 0; s < header.num_slots; ++s) {
      if (SlotOffset(page, s) == 0) {
        slot = s;
        break;
      }
    }
  }
  const bool new_slot = slot == header.num_slots;
  const size_t slots_end =
      kHeaderBytes + (header.num_slots + (new_slot ? 1 : 0)) * kSlotBytes;
  if (data_start < slots_end + record.size()) {
    return Status::Busy("page full");
  }
  data_start -= record.size();
  std::memcpy(page + data_start, record.data(), record.size());
  if (new_slot) {
    ++header.num_slots;
  } else {
    --freed_slots_[guard.id()];
  }
  header.data_start = static_cast<uint16_t>(data_start);
  WriteHeader(page, header);
  SetSlot(page, slot, static_cast<uint16_t>(data_start),
          static_cast<uint16_t>(record.size()));
  guard.MarkDirty();
  RefreshFree(guard);
  ++live_records_;
  return Rid{guard.id(), slot};
}

Result<Rid> HeapFile::Insert(Slice record) {
  if (record.size() > max_record_size()) {
    return Status::InvalidArgument("record larger than page");
  }
  const size_t needed = record.size() + kSlotBytes;
  // First fit: the lowest page whose gap + holes has room. A page whose gap
  // alone is too small is compacted, which folds its holes into the gap; a
  // page still too full after that is passed over.
  for (PageId p = free_.FirstAtLeast(0, needed); p != kInvalidPageId;
       p = free_.FirstAtLeast(p + 1, needed)) {
    IDB_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(p));
    auto rid = InsertIntoPage(guard, record);
    if (rid.ok() || !rid.status().IsBusy()) return rid;
    CompactPage(guard);
    rid = InsertIntoPage(guard, record);
    if (rid.ok() || !rid.status().IsBusy()) return rid;
  }
  IDB_ASSIGN_OR_RETURN(PageGuard guard, pool_->NewPage());
  PageHeader header{0, static_cast<uint16_t>(page_size_)};
  WriteHeader(guard.data(), header);
  holes_.push_back(0);
  freed_slots_.push_back(0);
  free_.Push(static_cast<uint16_t>(FreeSpace(guard.data())));
  return InsertIntoPage(guard, record);
}

Status HeapFile::Delete(Rid rid) {
  IDB_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(rid.page));
  char* page = guard.data();
  const PageHeader header = ReadHeader(page);
  if (rid.slot >= header.num_slots || SlotOffset(page, rid.slot) == 0) {
    return Status::NotFound("no record at rid");
  }
  // Physically clean the record bytes before freeing the slot.
  const uint16_t len = SlotLen(page, rid.slot);
  std::memset(page + SlotOffset(page, rid.slot), 0, len);
  SetSlot(page, rid.slot, 0, 0);
  guard.MarkDirty();
  holes_[rid.page] += len;
  ++freed_slots_[rid.page];
  RefreshFree(guard);
  --live_records_;
  return Status::OK();
}

}  // namespace instantdb
