#ifndef INSTANTDB_STORAGE_DISK_MANAGER_H_
#define INSTANTDB_STORAGE_DISK_MANAGER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "io/env.h"
#include "storage/page.h"
#include "util/file.h"

namespace instantdb {

/// \brief Page-granular I/O over a single file (one heap file per table).
/// Thread-safe; the buffer pool serializes logical access above it.
///
/// Every written page is stamped with a masked CRC32C in the page's
/// reserved word (bytes [4..8), unused by the heap layout) and every read
/// verifies it, so a torn page write surfaces as Corruption instead of
/// silently decoding garbage. The only page read without a matching CRC is
/// an all-zero one, which AllocatePage writes before any stamp; a zero word
/// over nonzero bytes is Corruption.
class DiskManager {
 public:
  static Result<std::unique_ptr<DiskManager>> Open(const std::string& path,
                                                   size_t page_size,
                                                   Env* env = nullptr);

  size_t page_size() const { return page_size_; }
  PageId num_pages() const { return num_pages_.load(std::memory_order_acquire); }
  const std::string& path() const { return path_; }

  /// Extends the file by one zeroed page.
  Result<PageId> AllocatePage();

  Status ReadPage(PageId id, char* out) const;
  Status WritePage(PageId id, const char* data);
  Status Sync();

 private:
  DiskManager(std::string path, size_t page_size,
              std::unique_ptr<RandomRWFile> file, PageId num_pages)
      : path_(std::move(path)),
        page_size_(page_size),
        file_(std::move(file)),
        num_pages_(num_pages) {}

  /// CRC32C over the page with the checksum word treated as zero.
  uint32_t PageCrc(const char* page) const;
  bool IsZeroPage(const char* page) const;

  std::string path_;
  size_t page_size_;
  std::unique_ptr<RandomRWFile> file_;
  std::atomic<PageId> num_pages_;
  std::mutex alloc_mu_;
};

}  // namespace instantdb

#endif  // INSTANTDB_STORAGE_DISK_MANAGER_H_
