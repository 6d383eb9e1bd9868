#include "io/fault_env.h"

#include <algorithm>
#include <filesystem>
#include <utility>

namespace instantdb {

namespace {
constexpr size_t kNoShortWrite = static_cast<size_t>(-1);

bool PathMatches(const std::string& path, const std::string& substr) {
  return substr.empty() || path.find(substr) != std::string::npos;
}
}  // namespace

/// WritableFile wrapper: consults the env's fault table before every op and
/// feeds the per-path durability tracking that SimulateCrashTo consumes.
class FaultWritableFile final : public WritableFile {
 public:
  FaultWritableFile(std::unique_ptr<WritableFile> base, FaultInjectionEnv* env,
                    std::string path)
      : base_(std::move(base)), env_(env), path_(std::move(path)) {}

  Status Append(Slice data) override {
    env_->CountWrite();
    size_t short_bytes = kNoShortWrite;
    Status fault = env_->CheckFault(FaultOp::kAppend, path_, data.size(),
                                    &short_bytes);
    if (!fault.ok()) {
      if (short_bytes != kNoShortWrite && short_bytes > 0) {
        // A torn write: a prefix reaches the file, then the error surfaces.
        if (base_->Append(data.substr(0, short_bytes)).ok()) {
          env_->OnAppend(path_, short_bytes);
        }
      }
      return fault;
    }
    IDB_RETURN_IF_ERROR(base_->Append(data));
    env_->OnAppend(path_, data.size());
    return Status::OK();
  }
  Status Flush() override { return base_->Flush(); }
  Status Sync() override { return DoSync(/*data_only=*/false); }
  Status SyncData() override { return DoSync(/*data_only=*/true); }
  Status Preallocate(uint64_t bytes) override {
    size_t ignored = kNoShortWrite;
    IDB_RETURN_IF_ERROR(
        env_->CheckFault(FaultOp::kAllocate, path_, 0, &ignored));
    return base_->Preallocate(bytes);
  }
  Status Close() override { return base_->Close(); }
  uint64_t size() const override { return base_->size(); }

 private:
  Status DoSync(bool data_only) {
    size_t ignored = kNoShortWrite;
    Status fault = env_->CheckFault(FaultOp::kSync, path_, 0, &ignored);
    if (!fault.ok()) {
      env_->CountSync(/*ok=*/false);
      return fault;
    }
    Status status = data_only ? base_->SyncData() : base_->Sync();
    env_->CountSync(status.ok());
    if (status.ok()) env_->OnSync(path_);
    return status;
  }

  std::unique_ptr<WritableFile> base_;
  FaultInjectionEnv* env_;
  const std::string path_;
};

/// RandomRWFile wrapper: captures pre-images of every write so a simulated
/// crash can roll unsynced page writes back.
class FaultRandomRWFile final : public RandomRWFile {
 public:
  FaultRandomRWFile(std::unique_ptr<RandomRWFile> base, FaultInjectionEnv* env,
                    std::string path)
      : base_(std::move(base)), env_(env), path_(std::move(path)) {}

  Status Write(uint64_t offset, Slice data) override {
    env_->CountWrite();
    size_t short_bytes = kNoShortWrite;
    Status fault =
        env_->CheckFault(FaultOp::kWrite, path_, data.size(), &short_bytes);
    // Pre-image capture and the write itself are one atomic step so the undo
    // log's order matches the order writes actually hit the file.
    std::lock_guard<std::mutex> lock(write_mu_);
    if (!fault.ok()) {
      if (short_bytes != kNoShortWrite && short_bytes > 0) {
        Slice prefix = data.substr(0, short_bytes);
        env_->OnRWWrite(path_, offset, prefix.size());
        (void)base_->Write(offset, prefix);
      }
      return fault;
    }
    env_->OnRWWrite(path_, offset, data.size());
    return base_->Write(offset, data);
  }
  Status Read(uint64_t offset, size_t n, std::string* scratch,
              Slice* out) const override {
    return base_->Read(offset, n, scratch, out);
  }
  Status Sync() override {
    size_t ignored = kNoShortWrite;
    Status fault = env_->CheckFault(FaultOp::kSync, path_, 0, &ignored);
    if (!fault.ok()) {
      env_->CountSync(/*ok=*/false);
      return fault;
    }
    Status status = base_->Sync();
    env_->CountSync(status.ok());
    if (status.ok()) env_->OnRWSync(path_);
    return status;
  }
  uint64_t Size() const override { return base_->Size(); }

 private:
  std::unique_ptr<RandomRWFile> base_;
  FaultInjectionEnv* env_;
  const std::string path_;
  std::mutex write_mu_;
};

FaultInjectionEnv::FaultInjectionEnv(Env* base) : base_(base) {}
FaultInjectionEnv::~FaultInjectionEnv() = default;

void FaultInjectionEnv::FailOnce(FaultOp op, int countdown, Status error,
                                 std::string path_substr) {
  std::lock_guard<std::mutex> lock(mu_);
  faults_.push_back(Fault{op, countdown, /*short_write=*/false,
                          std::move(error), std::move(path_substr)});
}

void FaultInjectionEnv::ShortWriteOnce(int countdown, std::string path_substr) {
  std::lock_guard<std::mutex> lock(mu_);
  faults_.push_back(Fault{FaultOp::kAppend, countdown, /*short_write=*/true,
                          Status::IOError("injected short write"),
                          std::move(path_substr)});
  // The same countdown also arms positional writes: whichever write kind the
  // workload issues first at that count gets torn.
  faults_.push_back(Fault{FaultOp::kWrite, countdown, /*short_write=*/true,
                          Status::IOError("injected short write"),
                          faults_.back().path_substr});
}

void FaultInjectionEnv::SetDiskFull(const std::string& dir_prefix) {
  std::lock_guard<std::mutex> lock(mu_);
  disk_full_prefix_ = dir_prefix;
}

void FaultInjectionEnv::ClearDiskFull() {
  std::lock_guard<std::mutex> lock(mu_);
  disk_full_prefix_.clear();
}

void FaultInjectionEnv::ClearFaults() {
  std::lock_guard<std::mutex> lock(mu_);
  faults_.clear();
}

Status FaultInjectionEnv::CheckFault(FaultOp op, const std::string& path,
                                     size_t payload_len, size_t* short_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  // Sticky disk-full beats one-shot faults: every data-bearing op under the
  // prefix reports ENOSPC until the "disk" is cleared. Syncs pass — with the
  // write already refused there is nothing new to make durable, and the
  // caller's sticky-error handling is driven by the write failure — and so
  // do unlinks, which free space.
  if (!disk_full_prefix_.empty() && op != FaultOp::kSync &&
      op != FaultOp::kRemove &&
      path.compare(0, disk_full_prefix_.size(), disk_full_prefix_) == 0) {
    CountInjectedFault();
    return Status::IOError("no space left on device (injected ENOSPC)");
  }
  for (auto it = faults_.begin(); it != faults_.end(); ++it) {
    if (it->op != op || !PathMatches(path, it->path_substr)) continue;
    if (--it->countdown > 0) continue;
    Fault fired = std::move(*it);
    faults_.erase(it);
    CountInjectedFault();
    if (fired.short_write) *short_bytes = payload_len / 2;
    return fired.error;
  }
  return Status::OK();
}

void FaultInjectionEnv::OnAppend(const std::string& path, uint64_t appended) {
  std::lock_guard<std::mutex> lock(mu_);
  files_[path].size += appended;
}

void FaultInjectionEnv::OnSync(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  FileState& st = files_[path];
  st.synced_size = st.size;
}

void FaultInjectionEnv::OnRWWrite(const std::string& path, uint64_t offset,
                                  size_t len) {
  // Capture what the region holds now so a simulated crash can restore it.
  RWUndo undo;
  undo.offset = offset;
  std::string scratch;
  Slice out;
  uint64_t pre_size = 0;
  if (auto file = base_->NewRandomAccessFile(path); file.ok()) {
    pre_size = (*file)->Size();
    if (offset < pre_size &&
        (*file)->Read(offset, len, &scratch, &out).ok()) {
      undo.pre_image.assign(out.data(), out.size());
    }
  }
  undo.pre_size = pre_size;
  std::lock_guard<std::mutex> lock(mu_);
  files_[path].rw_undo.push_back(std::move(undo));
}

void FaultInjectionEnv::OnRWSync(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  files_[path].rw_undo.clear();
}

Status FaultInjectionEnv::SimulateCrashTo(const std::string& src_dir,
                                          const std::string& clone_dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::remove_all(clone_dir, ec);
  fs::create_directories(fs::path(clone_dir).parent_path(), ec);
  fs::copy(src_dir, clone_dir,
           fs::copy_options::recursive | fs::copy_options::copy_symlinks, ec);
  if (ec) {
    return Status::IOError("crash clone copy failed: " + ec.message());
  }
  // Snapshot tracking state, then destroy unsynced data in the clone.
  std::map<std::string, FileState> files;
  {
    std::lock_guard<std::mutex> lock(mu_);
    files = files_;
  }
  const std::string prefix = src_dir + "/";
  for (const auto& [path, st] : files) {
    if (path.compare(0, prefix.size(), prefix) != 0) continue;
    const std::string clone_path = clone_dir + "/" + path.substr(prefix.size());
    if (!base_->FileExists(clone_path)) continue;
    // Unsynced appends: the tail past the last successful sync is gone.
    // (This also drops any preallocated-but-unwritten region, which a real
    // crash would leave as garbage the CRC check rejects anyway.)
    if (st.size > st.synced_size) {
      IDB_ASSIGN_OR_RETURN(const uint64_t clone_size,
                           base_->GetFileSize(clone_path));
      if (clone_size > st.synced_size) {
        IDB_RETURN_IF_ERROR(base_->TruncateFile(clone_path, st.synced_size));
      }
    }
    // Unsynced positional writes: roll back newest-first to the pre-images.
    for (auto it = st.rw_undo.rbegin(); it != st.rw_undo.rend(); ++it) {
      IDB_ASSIGN_OR_RETURN(const uint64_t clone_size,
                           base_->GetFileSize(clone_path));
      if (clone_size > it->pre_size) {
        IDB_RETURN_IF_ERROR(base_->TruncateFile(clone_path, it->pre_size));
      }
      if (!it->pre_image.empty()) {
        IDB_ASSIGN_OR_RETURN(auto file, base_->NewRandomRWFile(clone_path));
        IDB_RETURN_IF_ERROR(file->Write(it->offset, it->pre_image));
        IDB_RETURN_IF_ERROR(file->Sync());
      }
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<WritableFile>> FaultInjectionEnv::NewWritableFile(
    const std::string& path, bool truncate) {
  IDB_ASSIGN_OR_RETURN(auto file, base_->NewWritableFile(path, truncate));
  {
    std::lock_guard<std::mutex> lock(mu_);
    FileState& st = files_[path];
    st.tracked_appends = true;
    if (truncate) {
      // O_TRUNC is metadata, treated as immediately durable.
      st.size = 0;
      st.synced_size = 0;
      st.rw_undo.clear();
    } else {
      const uint64_t existing = file->size();
      if (st.size == 0 && st.synced_size == 0) st.synced_size = existing;
      st.size = existing;
      st.synced_size = std::min(st.synced_size, st.size);
    }
  }
  return std::unique_ptr<WritableFile>(
      std::make_unique<FaultWritableFile>(std::move(file), this, path));
}

Result<std::unique_ptr<WritableFile>> FaultInjectionEnv::NewAppendableFile(
    const std::string& path) {
  IDB_ASSIGN_OR_RETURN(auto file, base_->NewAppendableFile(path));
  {
    std::lock_guard<std::mutex> lock(mu_);
    FileState& st = files_[path];
    st.tracked_appends = true;
    const uint64_t existing = file->size();
    if (st.size == 0 && st.synced_size == 0) st.synced_size = existing;
    st.size = existing;
    st.synced_size = std::min(st.synced_size, st.size);
  }
  return std::unique_ptr<WritableFile>(
      std::make_unique<FaultWritableFile>(std::move(file), this, path));
}

Result<std::unique_ptr<RandomAccessFile>> FaultInjectionEnv::NewRandomAccessFile(
    const std::string& path) {
  return base_->NewRandomAccessFile(path);
}

Result<std::unique_ptr<RandomRWFile>> FaultInjectionEnv::NewRandomRWFile(
    const std::string& path) {
  IDB_ASSIGN_OR_RETURN(auto file, base_->NewRandomRWFile(path));
  return std::unique_ptr<RandomRWFile>(
      std::make_unique<FaultRandomRWFile>(std::move(file), this, path));
}

Status FaultInjectionEnv::CreateDirIfMissing(const std::string& path) {
  return base_->CreateDirIfMissing(path);
}

Status FaultInjectionEnv::CreateDirs(const std::string& path) {
  return base_->CreateDirs(path);
}

bool FaultInjectionEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

Result<uint64_t> FaultInjectionEnv::GetFileSize(const std::string& path) {
  return base_->GetFileSize(path);
}

Status FaultInjectionEnv::RemoveFile(const std::string& path) {
  size_t ignored = kNoShortWrite;
  IDB_RETURN_IF_ERROR(CheckFault(FaultOp::kRemove, path, 0, &ignored));
  IDB_RETURN_IF_ERROR(base_->RemoveFile(path));
  std::lock_guard<std::mutex> lock(mu_);
  files_.erase(path);
  return Status::OK();
}

Status FaultInjectionEnv::RemoveDirRecursive(const std::string& path) {
  IDB_RETURN_IF_ERROR(base_->RemoveDirRecursive(path));
  std::lock_guard<std::mutex> lock(mu_);
  const std::string prefix = path + "/";
  for (auto it = files_.begin(); it != files_.end();) {
    if (it->first == path || it->first.compare(0, prefix.size(), prefix) == 0) {
      it = files_.erase(it);
    } else {
      ++it;
    }
  }
  return Status::OK();
}

Result<std::vector<std::string>> FaultInjectionEnv::ListDir(
    const std::string& path) {
  return base_->ListDir(path);
}

Status FaultInjectionEnv::RenameFile(const std::string& from,
                                     const std::string& to) {
  size_t ignored = kNoShortWrite;
  IDB_RETURN_IF_ERROR(CheckFault(FaultOp::kRename, to, 0, &ignored));
  IDB_RETURN_IF_ERROR(base_->RenameFile(from, to));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(from);
  if (it != files_.end()) {
    files_[to] = std::move(it->second);
    files_.erase(it);
  } else {
    files_.erase(to);
  }
  return Status::OK();
}

Status FaultInjectionEnv::TruncateFile(const std::string& path, uint64_t size) {
  IDB_RETURN_IF_ERROR(base_->TruncateFile(path, size));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it != files_.end()) {
    it->second.size = size;
    it->second.synced_size = std::min(it->second.synced_size, size);
  }
  return Status::OK();
}

}  // namespace instantdb
