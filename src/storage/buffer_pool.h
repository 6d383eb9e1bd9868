#ifndef INSTANTDB_STORAGE_BUFFER_POOL_H_
#define INSTANTDB_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace instantdb {

class BufferPool;

/// \brief Pinned page handle. The frame stays in memory (and is never
/// evicted) while a guard exists; the guard unpins on destruction.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(PageGuard&& other) noexcept { *this = std::move(other); }
  PageGuard& operator=(PageGuard&& other) noexcept;
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  ~PageGuard();

  bool valid() const { return pool_ != nullptr; }
  PageId id() const { return id_; }
  char* data() { return data_; }
  const char* data() const { return data_; }

  /// Marks the frame dirty so eviction/flush writes it back.
  void MarkDirty();

  /// Explicit early release.
  void Release();

 private:
  friend class BufferPool;
  PageGuard(BufferPool* pool, PageId id, size_t frame, char* data)
      : pool_(pool), id_(id), frame_(frame), data_(data) {}

  BufferPool* pool_ = nullptr;
  PageId id_ = kInvalidPageId;
  size_t frame_ = 0;
  char* data_ = nullptr;
};

/// \brief Fixed-capacity LRU buffer pool over one DiskManager.
///
/// Uncommitted work never reaches a page: a transaction applies its records
/// only after their log append (deferred apply), so the WAL needs only redo
/// records. A page can still hold a committed record whose log is not yet
/// synced, and eviction writes such a page back without syncing the WAL.
/// Only Database::Checkpoint syncs the log before it flushes pages.
class BufferPool {
 public:
  BufferPool(DiskManager* disk, size_t capacity);
  ~BufferPool();
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins page `id`, reading it from disk on a miss.
  Result<PageGuard> FetchPage(PageId id);

  /// Allocates a fresh zeroed page and pins it.
  Result<PageGuard> NewPage();

  /// Writes back every dirty frame (checkpoint path) and syncs the file.
  Status FlushAll();

  DiskManager* disk() const { return disk_; }

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t dirty_writebacks = 0;
  };
  Stats stats() const;

 private:
  friend class PageGuard;

  /// A frame on free_frames_ holds Frame{}.
  struct Frame {
    PageId page = kInvalidPageId;
    int pins = 0;
    bool dirty = false;
  };

  void Unpin(size_t frame);
  void MarkDirtyFrame(size_t frame);
  /// Returns a usable frame index: a free one, else an evicted unpinned LRU
  /// victim. The caller puts it back on free_frames_ if it does not fill
  /// it. Requires mu_ held.
  Result<size_t> GetFreeFrameLocked();
  void TouchLocked(size_t frame);
  Result<PageGuard> PinExistingLocked(size_t frame);

  DiskManager* const disk_;
  const size_t capacity_;
  const size_t page_size_;

  mutable std::mutex mu_;
  std::vector<Frame> frames_;
  std::vector<size_t> free_frames_;  // frames holding no page
  std::unique_ptr<char[]> memory_;
  std::unordered_map<PageId, size_t> table_;
  std::list<size_t> lru_;  // front = most recently used
  std::unordered_map<size_t, std::list<size_t>::iterator> lru_pos_;
  Stats stats_;
};

}  // namespace instantdb

#endif  // INSTANTDB_STORAGE_BUFFER_POOL_H_
