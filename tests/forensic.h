// Test-only forensic reads: what an attacker holding the disk finds of a
// value. `FilesUnder` and `CopiesUnder` read every live file under a
// directory (recycled segments, the keystore and subdirectories included);
// `FreedBlocksEnv` keeps what a database unlinked, truncated away or
// replaced, which stays in unallocated disk blocks until it is overwritten,
// and on a copy-on-write medium also what every in-place write replaced.

#ifndef INSTANTDB_TESTS_FORENSIC_H_
#define INSTANTDB_TESTS_FORENSIC_H_

#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "io/env.h"

namespace instantdb {

/// Every regular file under `dir`, recursively, keyed by its path relative
/// to `dir`. A missing directory yields no files.
inline std::map<std::string, std::string> FilesUnder(const std::string& dir) {
  std::map<std::string, std::string> files;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string path = entry.path().string();
    auto contents = ReadFileToString(path);
    if (contents.ok()) files[path.substr(dir.size())] = std::move(*contents);
  }
  return files;
}

/// Occurrences of `needle` in `bytes`.
inline size_t CountCopies(const std::string& bytes, const std::string& needle) {
  size_t copies = 0;
  for (size_t pos = bytes.find(needle); pos != std::string::npos;
       pos = bytes.find(needle, pos + 1)) {
    ++copies;
  }
  return copies;
}

/// Occurrences in `bytes` of any of `needles`, which all have the same
/// length: one pass over the bytes, however many needles there are.
inline size_t CountCopies(const std::string& bytes,
                          const std::set<std::string>& needles) {
  if (needles.empty()) return 0;
  const size_t len = needles.begin()->size();
  bool first[256] = {};
  for (const std::string& needle : needles) {
    first[static_cast<unsigned char>(needle[0])] = true;
  }
  size_t copies = 0;
  for (size_t pos = 0; pos + len <= bytes.size(); ++pos) {
    if (first[static_cast<unsigned char>(bytes[pos])]) {
      copies += needles.count(bytes.substr(pos, len));
    }
  }
  return copies;
}

/// Files outside the attacker's reach. The CATALOG holds the
/// generalization trees, which are public domain metadata: a label in it
/// associates no tuple with the value. The KEYSTORE stands for the trusted
/// key storage a deployment keeps keys in (see the substitution note in
/// storage/key_manager.h): a key destroyed there stays destroyed, whatever
/// a copy-on-write medium kept of the file standing in for it.
inline bool IsOutOfScope(const std::string& path) {
  const std::filesystem::path name = std::filesystem::path(path).filename();
  return name == "CATALOG" || name == "KEYSTORE";
}

/// Copies of `needle` (a string, or a set of same-length strings) in the
/// files under `dir`, counted file by file, out-of-scope files excluded.
template <typename Needle>
size_t CopiesUnder(const std::string& dir, const Needle& needle) {
  size_t copies = 0;
  for (const auto& [path, bytes] : FilesUnder(dir)) {
    if (!IsOutOfScope(path)) copies += CountCopies(bytes, needle);
  }
  return copies;
}

/// \brief Env wrapper that models the blocks a filesystem frees.
///
/// Every byte the database gives back to the filesystem without
/// overwriting it first — an unlinked file, a truncated tail, the old
/// contents of a file replaced by a rename or a truncating open — is kept,
/// because a raw read of the device still finds it. Secure erase shows up
/// as zeros here, a plain unlink as the old plaintext.
///
/// With `copy_on_write`, every in-place write (RandomRWFile::Write, which
/// Env::OverwriteRange and so every secure-erase overwrite runs on) also
/// keeps the bytes it replaced: the medium writes the new bytes elsewhere,
/// as a log-structured filesystem or a flash translation layer does, so an
/// overwrite erases nothing.
class FreedBlocksEnv final : public Env {
 public:
  /// `base` must outlive this env.
  explicit FreedBlocksEnv(Env* base, bool copy_on_write = false)
      : base_(base), copy_on_write_(copy_on_write) {}

  /// Copies of `needle` (as for CopiesUnder) in the freed bytes, the
  /// out-of-scope files' excluded.
  template <typename Needle>
  size_t Copies(const Needle& needle) {
    std::lock_guard<std::mutex> lock(mu_);
    size_t copies = 0;
    for (const auto& [path, bytes] : freed_) {
      if (!IsOutOfScope(path)) copies += CountCopies(bytes, needle);
    }
    return copies;
  }

  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override {
    if (truncate) Free(path, 0);
    return base_->NewWritableFile(path, truncate);
  }
  Result<std::unique_ptr<WritableFile>> NewAppendableFile(
      const std::string& path) override {
    return base_->NewAppendableFile(path);
  }
  Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override {
    return base_->NewRandomAccessFile(path);
  }
  Result<std::unique_ptr<RandomRWFile>> NewRandomRWFile(
      const std::string& path) override {
    auto file = base_->NewRandomRWFile(path);
    if (!file.ok() || !copy_on_write_) return file;
    return std::unique_ptr<RandomRWFile>(
        new KeepingRWFile(this, path, std::move(*file)));
  }
  Status CreateDirIfMissing(const std::string& path) override {
    return base_->CreateDirIfMissing(path);
  }
  Status CreateDirs(const std::string& path) override {
    return base_->CreateDirs(path);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  Result<uint64_t> GetFileSize(const std::string& path) override {
    return base_->GetFileSize(path);
  }
  Status RemoveFile(const std::string& path) override {
    Free(path, 0);
    return base_->RemoveFile(path);
  }
  Status RemoveDirRecursive(const std::string& path) override {
    for (const auto& [name, bytes] : FilesUnder(path)) Keep(path + name, bytes);
    return base_->RemoveDirRecursive(path);
  }
  Result<std::vector<std::string>> ListDir(const std::string& path) override {
    return base_->ListDir(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    Free(to, 0);
    return base_->RenameFile(from, to);
  }
  Status TruncateFile(const std::string& path, uint64_t size) override {
    Free(path, size);
    return base_->TruncateFile(path, size);
  }

 private:
  /// Copy-on-write: keeps what each write replaces, then writes.
  class KeepingRWFile final : public RandomRWFile {
   public:
    KeepingRWFile(FreedBlocksEnv* env, std::string path,
                  std::unique_ptr<RandomRWFile> file)
        : env_(env), path_(std::move(path)), file_(std::move(file)) {}
    Status Write(uint64_t offset, Slice data) override {
      std::string scratch;
      Slice replaced;
      if (file_->Read(offset, data.size(), &scratch, &replaced).ok() &&
          !replaced.empty()) {
        env_->Keep(path_, std::string(replaced));
      }
      return file_->Write(offset, data);
    }
    Status Read(uint64_t offset, size_t n, std::string* scratch,
                Slice* out) const override {
      return file_->Read(offset, n, scratch, out);
    }
    Status Sync() override { return file_->Sync(); }
    uint64_t Size() const override { return file_->Size(); }

   private:
    FreedBlocksEnv* const env_;
    const std::string path_;
    const std::unique_ptr<RandomRWFile> file_;
  };

  /// Keeps the bytes of `path` past `from`, if the file exists.
  void Free(const std::string& path, uint64_t from) {
    if (!base_->FileExists(path)) return;
    auto bytes = base_->ReadFileToString(path);
    if (bytes.ok() && bytes->size() > from) Keep(path, bytes->substr(from));
  }
  void Keep(const std::string& path, std::string bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    freed_.emplace_back(path, std::move(bytes));
  }

  Env* const base_;
  const bool copy_on_write_;
  std::mutex mu_;
  std::vector<std::pair<std::string, std::string>> freed_;
};

}  // namespace instantdb

#endif  // INSTANTDB_TESTS_FORENSIC_H_
