#ifndef INSTANTDB_STORAGE_BUFFER_POOL_H_
#define INSTANTDB_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "storage/disk_manager.h"
#include "storage/page.h"
#include "storage/page_image.h"

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

  /// Marks the frame dirty so eviction/flush writes it back, and drops its
  /// page image: every write to a page calls this.
  void MarkDirty();

  /// The frame's page image when the fetch found one, else nullptr. Valid
  /// while the guard is held and no writer can reach MarkDirty, which the
  /// heap's owner ensures with its latch.
  const PageImage* image() const { return image_; }
  /// This fetch should build the frame's page image (BufferPool::FetchPage).
  bool build_image() const { return build_image_; }
  /// Attaches `image` to the frame unless another fetch attached one first,
  /// and returns the frame's image.
  const PageImage* PublishImage(std::unique_ptr<PageImage> image);

  /// Explicit early release.
  void Release();

 private:
  friend class BufferPool;
  PageGuard(BufferPool* pool, PageId id, size_t frame, char* data,
            const PageImage* image, bool build_image)
      : pool_(pool),
        id_(id),
        frame_(frame),
        data_(data),
        image_(image),
        build_image_(build_image) {}

  BufferPool* pool_ = nullptr;
  PageId id_ = kInvalidPageId;
  size_t frame_ = 0;
  char* data_ = nullptr;
  const PageImage* image_ = nullptr;
  bool build_image_ = false;
};

/// \brief Fixed-capacity LRU buffer pool over one DiskManager.
///
/// Uncommitted work never reaches a page: a transaction applies its records
/// only after their log append (deferred apply), so the WAL needs only redo
/// records. A page can still hold a committed record whose log is not yet
/// synced, and eviction writes such a page back without syncing the WAL.
/// Only Database::Checkpoint syncs the log before it flushes pages.
///
/// A frame may carry a decoded page image (storage/page_image.h), which
/// heap range scans read instead of walking the page's records:
///  - Build rule: a fetch for a field-reading range scan counts toward the
///    frame, and the second such fetch since the page was loaded or last
///    modified builds the image (build_image()). A page split across two
///    batches of one scan counts twice. Point reads and scans that read no
///    field use an image when there is one and never count.
///  - Invalidation: MarkDirty drops the image; eviction and reload reset
///    the frame, image included. Heap writes hold their owner's exclusive
///    latch and readers its shared latch, so no reader holds an image while
///    it is dropped.
///  - Memory: at most one image per frame, each the size of its page's
///    live records (about 23 bytes per record for two stable columns).
///  - Wipe: an image zeroes its arrays when it is released.
///
/// The LRU order is an intrusive doubly linked list over frame indices, so
/// a hit allocates nothing.
class BufferPool {
 public:
  BufferPool(DiskManager* disk, size_t capacity);
  ~BufferPool();
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins page `id`, reading it from disk on a miss. A fetch
  /// `for_field_scan` counts toward the frame's page image (see the class
  /// comment): its guard says build_image() on the second such fetch since
  /// the page was loaded or last modified, when the frame has no image.
  Result<PageGuard> FetchPage(PageId id, bool for_field_scan = false);

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

  /// Frames holding a page, and their bytes.
  MemoryUsage frame_memory() const;
  /// Page images attached to frames, and the heap bytes they hold.
  MemoryUsage image_memory() const;

 private:
  friend class PageGuard;

  static constexpr uint32_t kNoFrame = UINT32_MAX;

  /// A frame on free_frames_ holds Frame{}. 24 bytes: every pool has one
  /// per page of capacity, most of them never used.
  struct Frame {
    PageId page = kInvalidPageId;
    /// LRU neighbours: lru_prev is more recently used. kNoFrame at the
    /// ends and while the frame is off the list.
    uint32_t lru_prev = kNoFrame;
    uint32_t lru_next = kNoFrame;
    uint16_t pins = 0;  ///< guards held now
    bool dirty = false;
    /// Field-scan fetches since the page was loaded or last modified,
    /// saturating at 2.
    uint8_t scan_fetches = 0;
    std::unique_ptr<PageImage> image;
  };

  void Unpin(size_t frame);
  void MarkDirtyFrame(size_t frame);
  const PageImage* PublishImage(size_t frame, std::unique_ptr<PageImage> image);
  /// Detaches `f`'s image (null if none) from the frame and from images_.
  /// Requires mu_ held.
  std::unique_ptr<PageImage> TakeImageLocked(Frame& f);
  /// Returns a usable frame index: a free one, else an evicted unpinned LRU
  /// victim. The caller puts it back on free_frames_ if it does not fill
  /// it. Requires mu_ held.
  Result<size_t> GetFreeFrameLocked();
  /// Moves `frame` to the LRU front, linking it in if it is off the list.
  void TouchLocked(size_t frame);
  void UnlinkLocked(size_t frame);
  Result<PageGuard> PinExistingLocked(size_t frame, bool for_field_scan);

  DiskManager* const disk_;
  const size_t capacity_;
  const size_t page_size_;

  mutable std::mutex mu_;
  std::vector<Frame> frames_;
  std::vector<size_t> free_frames_;  // frames holding no page
  std::unique_ptr<char[]> memory_;
  std::unordered_map<PageId, size_t> table_;
  uint32_t lru_head_ = kNoFrame;  // most recently used
  uint32_t lru_tail_ = kNoFrame;  // least recently used
  MemoryUsage images_;
  Stats stats_;
};

}  // namespace instantdb

#endif  // INSTANTDB_STORAGE_BUFFER_POOL_H_
