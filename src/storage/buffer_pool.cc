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
    other.pool_ = nullptr;
    other.data_ = nullptr;
  }
  return *this;
}

PageGuard::~PageGuard() { Release(); }

void PageGuard::MarkDirty() {
  assert(valid());
  pool_->MarkDirtyFrame(frame_);
}

void PageGuard::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_);
    pool_ = nullptr;
    data_ = nullptr;
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

void BufferPool::TouchLocked(size_t frame) {
  auto it = lru_pos_.find(frame);
  if (it != lru_pos_.end()) lru_.erase(it->second);
  lru_.push_front(frame);
  lru_pos_[frame] = lru_.begin();
}

Result<size_t> BufferPool::GetFreeFrameLocked() {
  if (!free_frames_.empty()) {
    const size_t frame = free_frames_.back();
    free_frames_.pop_back();
    return frame;
  }
  // Evict the least-recently-used unpinned frame.
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    const size_t frame = *it;
    if (frames_[frame].pins > 0) continue;
    Frame& victim = frames_[frame];
    if (victim.dirty) {
      IDB_RETURN_IF_ERROR(
          disk_->WritePage(victim.page, memory_.get() + frame * page_size_));
      ++stats_.dirty_writebacks;
    }
    table_.erase(victim.page);
    lru_.erase(lru_pos_[frame]);
    lru_pos_.erase(frame);
    victim = Frame{};
    ++stats_.evictions;
    return frame;
  }
  return Status::Busy("buffer pool exhausted: all frames pinned");
}

Result<PageGuard> BufferPool::PinExistingLocked(size_t frame) {
  Frame& f = frames_[frame];
  ++f.pins;
  TouchLocked(frame);
  return PageGuard(this, f.page, frame, memory_.get() + frame * page_size_);
}

Result<PageGuard> BufferPool::FetchPage(PageId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = table_.find(id);
  if (it != table_.end()) {
    ++stats_.hits;
    return PinExistingLocked(it->second);
  }
  ++stats_.misses;
  IDB_ASSIGN_OR_RETURN(size_t frame, GetFreeFrameLocked());
  Status read = disk_->ReadPage(id, memory_.get() + frame * page_size_);
  if (!read.ok()) {
    free_frames_.push_back(frame);
    return read;
  }
  frames_[frame] = Frame{id, 0, false};
  table_[id] = frame;
  return PinExistingLocked(frame);
}

Result<PageGuard> BufferPool::NewPage() {
  std::lock_guard<std::mutex> lock(mu_);
  IDB_ASSIGN_OR_RETURN(PageId id, disk_->AllocatePage());
  IDB_ASSIGN_OR_RETURN(size_t frame, GetFreeFrameLocked());
  std::memset(memory_.get() + frame * page_size_, 0, page_size_);
  frames_[frame] = Frame{id, 0, false};
  table_[id] = frame;
  return PinExistingLocked(frame);
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
  std::lock_guard<std::mutex> lock(mu_);
  frames_[frame].dirty = true;
}

BufferPool::Stats BufferPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace instantdb
