#ifndef INSTANTDB_IO_ENV_H_
#define INSTANTDB_IO_ENV_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "util/file.h"

namespace instantdb {

/// Snapshot of an Env's I/O activity, surfaced through `Database::stats().io`.
struct IoCounters {
  /// File write operations issued (appends + positional writes), including
  /// the ones a fault injector failed.
  uint64_t writes = 0;
  /// fsync/fdatasync operations issued, including failed ones.
  uint64_t syncs = 0;
  /// Syncs that returned an error. Invariant (asserted by the fault tests):
  /// sync_failures > 0 ⇒ the WAL is poisoned or a consumer retried
  /// the failed operation to success (stats().io.retries > 0).
  uint64_t sync_failures = 0;
  /// Faults injected by a FaultInjectionEnv; always 0 on the default Env.
  uint64_t injected_faults = 0;
};

/// \brief The filesystem seam every durability-bearing component routes
/// through (LevelDB/RocksDB idiom).
///
/// `DiskManager`, `WalManager`, `StateStore`, `KeyManager`, `Catalog`, and the
/// table/partition directory management all take an `Env*` and perform every
/// open/read/write/fsync/rename through it, so a test can substitute a
/// `FaultInjectionEnv` (io/fault_env.h) and exercise the recovery paths
/// against short writes, fsync EIO, ENOSPC, and simulated crashes without
/// touching the consumers. The default Env (`Env::Default()`) delegates to
/// the POSIX helpers in util/file.h and only adds counting.
///
/// The composite helpers (`WriteStringToFile`, `ReadFileToString`,
/// `OverwriteRange`) are implemented on top of the virtual primitives, so a
/// wrapping Env automatically sees — and can fail — every physical operation
/// they perform.
class Env {
 public:
  virtual ~Env() = default;

  /// Process-wide POSIX environment. Never deleted.
  static Env* Default();

  virtual Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate = true) = 0;
  virtual Result<std::unique_ptr<WritableFile>> NewAppendableFile(
      const std::string& path) = 0;
  virtual Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) = 0;
  virtual Result<std::unique_ptr<RandomRWFile>> NewRandomRWFile(
      const std::string& path) = 0;

  virtual Status CreateDirIfMissing(const std::string& path) = 0;
  virtual Status CreateDirs(const std::string& path) = 0;
  virtual bool FileExists(const std::string& path) = 0;
  virtual Result<uint64_t> GetFileSize(const std::string& path) = 0;
  virtual Status RemoveFile(const std::string& path) = 0;
  virtual Status RemoveDirRecursive(const std::string& path) = 0;
  virtual Result<std::vector<std::string>> ListDir(const std::string& path) = 0;
  virtual Status RenameFile(const std::string& from, const std::string& to) = 0;
  virtual Status TruncateFile(const std::string& path, uint64_t size) = 0;

  // --- composites over the primitives above ---------------------------------

  /// Writes `contents` to a fresh `path` (truncating), optionally syncing.
  Status WriteStringToFile(const std::string& path, Slice contents, bool sync);
  Result<std::string> ReadFileToString(const std::string& path);
  /// Zero-overwrites `[offset, offset+len)` of `path` and syncs — the
  /// physical erase primitive behind EraseMode::kOverwrite.
  Status OverwriteRange(const std::string& path, uint64_t offset, uint64_t len);

  IoCounters io_counters() const {
    IoCounters c;
    c.writes = writes_.load(std::memory_order_relaxed);
    c.syncs = syncs_.load(std::memory_order_relaxed);
    c.sync_failures = sync_failures_.load(std::memory_order_relaxed);
    c.injected_faults = injected_faults_.load(std::memory_order_relaxed);
    return c;
  }

  void CountWrite() { writes_.fetch_add(1, std::memory_order_relaxed); }
  void CountSync(bool ok) {
    syncs_.fetch_add(1, std::memory_order_relaxed);
    if (!ok) sync_failures_.fetch_add(1, std::memory_order_relaxed);
  }
  void CountInjectedFault() {
    injected_faults_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> syncs_{0};
  std::atomic<uint64_t> sync_failures_{0};
  std::atomic<uint64_t> injected_faults_{0};
};

/// Wraps file handles so the owning Env's counters see every write and sync.
/// Shared by PosixEnv and FaultInjectionEnv (which layers fault checks on
/// top before delegating).
std::unique_ptr<WritableFile> CountWritable(std::unique_ptr<WritableFile> file,
                                            Env* env);
std::unique_ptr<RandomRWFile> CountRandomRW(std::unique_ptr<RandomRWFile> file,
                                            Env* env);

}  // namespace instantdb

#endif  // INSTANTDB_IO_ENV_H_
