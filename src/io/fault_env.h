#ifndef INSTANTDB_IO_FAULT_ENV_H_
#define INSTANTDB_IO_FAULT_ENV_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "io/env.h"

namespace instantdb {

/// Which physical operation a programmed fault fires on.
enum class FaultOp {
  kAppend,   // WritableFile::Append
  kWrite,    // RandomRWFile::Write
  kSync,     // WritableFile::Sync/SyncData, RandomRWFile::Sync
  kRename,   // Env::RenameFile
  kAllocate, // WritableFile::Preallocate
  kRemove,   // Env::RemoveFile
};

/// \brief Env wrapper that injects filesystem faults and simulates crashes.
///
/// Capabilities (ISSUE 8):
///  - fail the N-th matching op with an arbitrary status (fsync EIO, ...);
///  - return short writes (a prefix of the data reaches the file, then EIO);
///  - simulate ENOSPC for every write/sync under a directory prefix;
///  - track which bytes are durable (synced) per file and produce a crash
///    image (`SimulateCrashTo`) in which all unsynced data is gone:
///    appendable files are truncated back to their last synced size and
///    unsynced random-access writes are rolled back to their pre-images.
///
/// Metadata operations (rename, remove, truncate, dir creation) are treated
/// as immediately durable — the simulation's focus is losing unsynced *data*
/// (WAL tails, store tails, dirty pages), which is where the durability and
/// privacy contracts are actually at risk. `WriteStringToFile(sync=true)`
/// composites inherit tracking automatically since they run on the wrapped
/// primitives.
///
/// Thread-safe; faults can be armed while a database is live.
class FaultInjectionEnv final : public Env {
 public:
  /// `base` must outlive this env (typically Env::Default()).
  explicit FaultInjectionEnv(Env* base);
  ~FaultInjectionEnv() override;

  // --- fault programming -----------------------------------------------------

  /// Arms a one-shot fault: the `countdown`-th future op of kind `op` whose
  /// path contains `path_substr` (empty = any) fails with `error`.
  /// countdown == 1 means the very next matching op.
  void FailOnce(FaultOp op, int countdown, Status error,
                std::string path_substr = "");

  /// Arms a one-shot short write: the `countdown`-th future append/write
  /// persists only the first half of its payload, then returns EIO.
  void ShortWriteOnce(int countdown, std::string path_substr = "");

  /// Sticky ENOSPC for every append/write/sync/preallocate on paths under
  /// `dir_prefix` until cleared with `ClearDiskFull`.
  void SetDiskFull(const std::string& dir_prefix);
  void ClearDiskFull();

  /// Disarms all one-shot faults (disk-full state is kept).
  void ClearFaults();

  // --- crash simulation ------------------------------------------------------

  /// Copies the tree rooted at `src_dir` to `clone_dir`, then destroys all
  /// unsynced data in the clone: files opened for append are truncated to
  /// their last synced size, unsynced RandomRW writes are reverted to their
  /// pre-images. The live database keeps running — this is the
  /// "power failure on a parallel universe" a recovery test reopens.
  Status SimulateCrashTo(const std::string& src_dir,
                         const std::string& clone_dir);

  // --- Env interface ---------------------------------------------------------

  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override;
  Result<std::unique_ptr<WritableFile>> NewAppendableFile(
      const std::string& path) override;
  Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override;
  Result<std::unique_ptr<RandomRWFile>> NewRandomRWFile(
      const std::string& path) override;

  Status CreateDirIfMissing(const std::string& path) override;
  Status CreateDirs(const std::string& path) override;
  bool FileExists(const std::string& path) override;
  Result<uint64_t> GetFileSize(const std::string& path) override;
  Status RemoveFile(const std::string& path) override;
  Status RemoveDirRecursive(const std::string& path) override;
  Result<std::vector<std::string>> ListDir(const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status TruncateFile(const std::string& path, uint64_t size) override;

 private:
  friend class FaultWritableFile;
  friend class FaultRandomRWFile;

  struct Fault {
    FaultOp op;
    int countdown;        // fires when it reaches 0
    bool short_write;     // persist half the payload, then fail
    Status error;
    std::string path_substr;
  };

  /// One unsynced RandomRW write: what the region held before it.
  struct RWUndo {
    uint64_t offset;
    std::string pre_image;   // bytes previously at [offset, offset+n)
    uint64_t pre_size;       // file size before the write
  };

  /// Durability tracking for one path.
  struct FileState {
    bool tracked_appends = false;  // opened via NewWritable/NewAppendableFile
    uint64_t size = 0;             // logical size after all appends
    uint64_t synced_size = 0;      // bytes guaranteed to survive a crash
    std::vector<RWUndo> rw_undo;   // unsynced RandomRW writes, oldest first
  };

  /// Decides the fate of one op. Returns OK to pass through; a non-OK
  /// status to inject a failure. `*short_bytes` is set to the number of
  /// payload bytes to persist before failing (SIZE_MAX = none / n.a.).
  Status CheckFault(FaultOp op, const std::string& path, size_t payload_len,
                    size_t* short_bytes);

  // FileState hooks called by the wrapper files (take mu_).
  void OnAppend(const std::string& path, uint64_t new_size);
  void OnSync(const std::string& path);
  void OnRWWrite(const std::string& path, uint64_t offset, size_t len);
  void OnRWSync(const std::string& path);

  Env* const base_;
  std::mutex mu_;
  std::vector<Fault> faults_;
  std::string disk_full_prefix_;  // empty = disk not full
  std::map<std::string, FileState> files_;
};

}  // namespace instantdb

#endif  // INSTANTDB_IO_FAULT_ENV_H_
