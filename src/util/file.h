#ifndef INSTANTDB_UTIL_FILE_H_
#define INSTANTDB_UTIL_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "util/coding.h"

namespace instantdb {

/// \brief Append-only file handle (WAL segments, state-store segments).
class WritableFile {
 public:
  virtual ~WritableFile() = default;
  virtual Status Append(Slice data) = 0;
  virtual Status Flush() = 0;
  /// Durably persists all appended data (fsync).
  virtual Status Sync() = 0;
  /// Reserves `bytes` of backing store up front (posix_fallocate). Appends
  /// within the reservation then change no file metadata, which lets
  /// SyncData skip the filesystem journal. Callers must Sync once after
  /// reserving to make the size durable, and truncate to the logical end
  /// when done. Best-effort: NotSupported on filesystems without it.
  virtual Status Preallocate(uint64_t bytes) {
    (void)bytes;
    return Status::NotSupported("preallocation not supported");
  }
  /// Durably persists appended data without forcing a metadata commit
  /// (fdatasync). Only equivalent to Sync for data durability when the
  /// bytes lie inside a preallocated, size-durable region; defaults to
  /// Sync() otherwise.
  virtual Status SyncData() { return Sync(); }
  virtual Status Close() = 0;
  virtual uint64_t size() const = 0;
};

/// \brief Positional-read file handle.
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;
  /// Reads up to `n` bytes at `offset` into `scratch`; `*out` points into
  /// scratch and is shorter than `n` only at end-of-file.
  virtual Status Read(uint64_t offset, size_t n, std::string* scratch,
                      Slice* out) const = 0;
  virtual uint64_t Size() const = 0;
};

/// \brief Read/write file handle used by the page-based DiskManager and by
/// secure overwrite erasure.
class RandomRWFile {
 public:
  virtual ~RandomRWFile() = default;
  virtual Status Write(uint64_t offset, Slice data) = 0;
  virtual Status Read(uint64_t offset, size_t n, std::string* scratch,
                      Slice* out) const = 0;
  virtual Status Sync() = 0;
  virtual uint64_t Size() const = 0;
};

Result<std::unique_ptr<WritableFile>> NewWritableFile(const std::string& path,
                                                      bool truncate = true);
Result<std::unique_ptr<WritableFile>> NewAppendableFile(const std::string& path);
Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
    const std::string& path);
Result<std::unique_ptr<RandomRWFile>> NewRandomRWFile(const std::string& path);

// --- filesystem helpers ------------------------------------------------------

Status CreateDirIfMissing(const std::string& path);
/// Recursively creates all missing components of `path`.
Status CreateDirs(const std::string& path);
bool FileExists(const std::string& path);
Result<uint64_t> GetFileSize(const std::string& path);
Status RemoveFile(const std::string& path);
Status RemoveDirRecursive(const std::string& path);
Result<std::vector<std::string>> ListDir(const std::string& path);
Status RenameFile(const std::string& from, const std::string& to);
Status WriteStringToFile(const std::string& path, Slice contents, bool sync);
Result<std::string> ReadFileToString(const std::string& path);

/// Truncates `path` to exactly `size` bytes (drops a torn tail after crash).
Status TruncateFile(const std::string& path, uint64_t size);

/// Drops the file's clean pages from the OS page cache (posix_fadvise
/// DONTNEED after an fdatasync). Cold-read benchmarks use this to measure
/// scans that actually hit the device instead of the page cache.
Status EvictFromOsCache(const std::string& path);
/// Recursively evicts every regular file under `path`.
Status EvictDirFromOsCache(const std::string& path);

}  // namespace instantdb

#endif  // INSTANTDB_UTIL_FILE_H_
