#include "storage/buffer_pool.h"

#include <cassert>
#include <cstring>

namespace instantdb {

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    id_ = other.id_;
    frame_ = other.frame_;
    data_ = other.data_;
    image_ = other.image_;
    build_image_ = other.build_image_;
    other.pool_ = nullptr;
    other.data_ = nullptr;
    other.image_ = nullptr;
  }
  return *this;
}

PageGuard::~PageGuard() { Release(); }

void PageGuard::MarkDirty() {
  assert(valid());
  pool_->MarkDirtyFrame(frame_);
  image_ = nullptr;
}

const PageImage* PageGuard::PublishImage(std::unique_ptr<PageImage> image) {
  assert(valid());
  image_ = pool_->PublishImage(frame_, std::move(image));
  return image_;
}

void PageGuard::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_);
    pool_ = nullptr;
    data_ = nullptr;
    image_ = nullptr;
  }
}

BufferPool::BufferPool(DiskManager* disk, size_t capacity)
    : disk_(disk),
      capacity_(capacity == 0 ? 1 : capacity),
      page_size_(disk->page_size()),
      frames_(capacity_),
      memory_(new char[capacity_ * disk->page_size()]) {
  // Popped from the back, so the lowest frame is used first.
  for (size_t i = capacity_; i > 0; --i) free_frames_.push_back(i - 1);
}

BufferPool::~BufferPool() { FlushAll().ok(); }

void BufferPool::UnlinkLocked(size_t frame) {
  Frame& f = frames_[frame];
  (f.lru_prev == kNoFrame ? lru_head_ : frames_[f.lru_prev].lru_next) =
      f.lru_next;
  (f.lru_next == kNoFrame ? lru_tail_ : frames_[f.lru_next].lru_prev) =
      f.lru_prev;
  f.lru_prev = kNoFrame;
  f.lru_next = kNoFrame;
}

void BufferPool::TouchLocked(size_t frame) {
  if (lru_head_ == frame) return;
  Frame& f = frames_[frame];
  // Off the list, a frame has no predecessor; on it, only the head has none.
  if (f.lru_prev != kNoFrame) UnlinkLocked(frame);
  const auto index = static_cast<uint32_t>(frame);
  f.lru_next = lru_head_;
  if (lru_head_ != kNoFrame) frames_[lru_head_].lru_prev = index;
  lru_head_ = index;
  if (lru_tail_ == kNoFrame) lru_tail_ = index;
}

std::unique_ptr<PageImage> BufferPool::TakeImageLocked(Frame& f) {
  if (f.image != nullptr) {
    --images_.entries;
    images_.bytes -= f.image->bytes();
  }
  return std::move(f.image);
}

Result<size_t> BufferPool::GetFreeFrameLocked() {
  if (!free_frames_.empty()) {
    const size_t frame = free_frames_.back();
    free_frames_.pop_back();
    return frame;
  }
  // Evict the least-recently-used unpinned frame.
  for (uint32_t frame = lru_tail_; frame != kNoFrame;
       frame = frames_[frame].lru_prev) {
    Frame& victim = frames_[frame];
    if (victim.pins > 0) continue;
    if (victim.dirty) {
      IDB_RETURN_IF_ERROR(
          disk_->WritePage(victim.page, memory_.get() + frame * page_size_));
      ++stats_.dirty_writebacks;
    }
    table_.erase(victim.page);
    UnlinkLocked(frame);
    TakeImageLocked(victim);
    victim = Frame{};
    ++stats_.evictions;
    return frame;
  }
  return Status::Busy("buffer pool exhausted: all frames pinned");
}

Result<PageGuard> BufferPool::PinExistingLocked(size_t frame,
                                                bool for_field_scan) {
  Frame& f = frames_[frame];
  ++f.pins;
  TouchLocked(frame);
  bool build = false;
  if (for_field_scan && f.image == nullptr && f.scan_fetches < 2) {
    build = ++f.scan_fetches == 2;
  }
  return PageGuard(this, f.page, frame, memory_.get() + frame * page_size_,
                   f.image.get(), build);
}

Result<PageGuard> BufferPool::FetchPage(PageId id, bool for_field_scan) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = table_.find(id);
  if (it != table_.end()) {
    ++stats_.hits;
    return PinExistingLocked(it->second, for_field_scan);
  }
  ++stats_.misses;
  IDB_ASSIGN_OR_RETURN(size_t frame, GetFreeFrameLocked());
  Status read = disk_->ReadPage(id, memory_.get() + frame * page_size_);
  if (!read.ok()) {
    free_frames_.push_back(frame);
    return read;
  }
  frames_[frame].page = id;
  table_[id] = frame;
  return PinExistingLocked(frame, for_field_scan);
}

Result<PageGuard> BufferPool::NewPage() {
  std::lock_guard<std::mutex> lock(mu_);
  IDB_ASSIGN_OR_RETURN(PageId id, disk_->AllocatePage());
  IDB_ASSIGN_OR_RETURN(size_t frame, GetFreeFrameLocked());
  std::memset(memory_.get() + frame * page_size_, 0, page_size_);
  frames_[frame].page = id;
  table_[id] = frame;
  return PinExistingLocked(frame, false);
}

Status BufferPool::FlushAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < frames_.size(); ++i) {
    Frame& f = frames_[i];
    if (f.dirty) {
      IDB_RETURN_IF_ERROR(
          disk_->WritePage(f.page, memory_.get() + i * page_size_));
      f.dirty = false;
    }
  }
  return disk_->Sync();
}

void BufferPool::Unpin(size_t frame) {
  std::lock_guard<std::mutex> lock(mu_);
  assert(frames_[frame].pins > 0);
  --frames_[frame].pins;
}

void BufferPool::MarkDirtyFrame(size_t frame) {
  std::unique_ptr<PageImage> dropped;  // wiped after the lock is released
  std::lock_guard<std::mutex> lock(mu_);
  Frame& f = frames_[frame];
  f.dirty = true;
  f.scan_fetches = 0;
  dropped = TakeImageLocked(f);
}

const PageImage* BufferPool::PublishImage(size_t frame,
                                          std::unique_ptr<PageImage> image) {
  std::lock_guard<std::mutex> lock(mu_);
  Frame& f = frames_[frame];
  if (f.image == nullptr) {
    images_ += MemoryUsage{1, image->bytes()};
    f.image = std::move(image);
  }
  return f.image.get();
}

BufferPool::Stats BufferPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

MemoryUsage BufferPool::frame_memory() const {
  std::lock_guard<std::mutex> lock(mu_);
  return MemoryUsage{table_.size(), table_.size() * page_size_};
}

MemoryUsage BufferPool::image_memory() const {
  std::lock_guard<std::mutex> lock(mu_);
  return images_;
}

}  // namespace instantdb
