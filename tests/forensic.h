// Test-only forensic reads: what an attacker holding the disk finds of a
// value. `FilesUnder` and `CopiesUnder` read every live file under a
// directory (recycled segments, the keystore and subdirectories included);
// `FreedBlocksEnv` keeps what a database unlinked, truncated away or
// replaced, which stays in unallocated disk blocks until it is overwritten.

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

/// The CATALOG holds the generalization trees, which are public domain
/// metadata: a label in it associates no tuple with the value.
inline bool IsCatalog(const std::string& path) {
  return std::filesystem::path(path).filename() == "CATALOG";
}

/// Copies of `needle` (a string, or a set of same-length strings) in the
/// files under `dir`, counted file by file, the CATALOG excluded.
template <typename Needle>
size_t CopiesUnder(const std::string& dir, const Needle& needle) {
  size_t copies = 0;
  for (const auto& [path, bytes] : FilesUnder(dir)) {
    if (!IsCatalog(path)) copies += CountCopies(bytes, needle);
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
class FreedBlocksEnv final : public Env {
 public:
  /// `base` must outlive this env.
  explicit FreedBlocksEnv(Env* base) : base_(base) {}

  /// Copies of `needle` (as for CopiesUnder) in the freed bytes, the
  /// CATALOG's excluded.
  template <typename Needle>
  size_t Copies(const Needle& needle) {
    std::lock_guard<std::mutex> lock(mu_);
    size_t copies = 0;
    for (const auto& [path, bytes] : freed_) {
      if (!IsCatalog(path)) copies += CountCopies(bytes, needle);
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
    return base_->NewRandomRWFile(path);
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
  std::mutex mu_;
  std::vector<std::pair<std::string, std::string>> freed_;
};

}  // namespace instantdb

#endif  // INSTANTDB_TESTS_FORENSIC_H_
