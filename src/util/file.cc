#include "util/file.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/strings.h"

namespace instantdb {

namespace {

Status PosixError(const std::string& context, int err) {
  return Status::IOError(context + ": " + std::strerror(err));
}

class PosixWritableFile final : public WritableFile {
 public:
  PosixWritableFile(std::string path, int fd, uint64_t size)
      : path_(std::move(path)), fd_(fd), size_(size) {}

  ~PosixWritableFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(Slice data) override {
    const char* p = data.data();
    size_t left = data.size();
    while (left > 0) {
      const ssize_t n = ::write(fd_, p, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        return PosixError("write " + path_, errno);
      }
      p += n;
      left -= static_cast<size_t>(n);
    }
    size_ += data.size();
    return Status::OK();
  }

  Status Flush() override { return Status::OK(); }  // no user-space buffer

  Status Sync() override {
    if (::fsync(fd_) != 0) return PosixError("fsync " + path_, errno);
    return Status::OK();
  }

  Status Preallocate(uint64_t bytes) override {
#if defined(__linux__)
    const int err = ::posix_fallocate(fd_, 0, static_cast<off_t>(bytes));
    if (err != 0) return PosixError("fallocate " + path_, err);
    return Status::OK();
#else
    (void)bytes;
    return Status::NotSupported("preallocation not supported");
#endif
  }

  Status SyncData() override {
#if defined(__linux__)
    if (::fdatasync(fd_) != 0) return PosixError("fdatasync " + path_, errno);
    return Status::OK();
#else
    return Sync();
#endif
  }

  Status Close() override {
    if (fd_ >= 0 && ::close(fd_) != 0) {
      fd_ = -1;
      return PosixError("close " + path_, errno);
    }
    fd_ = -1;
    return Status::OK();
  }

  uint64_t size() const override { return size_; }

 private:
  std::string path_;
  int fd_;
  uint64_t size_;
};

class PosixRandomAccessFile final : public RandomAccessFile {
 public:
  PosixRandomAccessFile(std::string path, int fd)
      : path_(std::move(path)), fd_(fd) {}

  ~PosixRandomAccessFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Read(uint64_t offset, size_t n, std::string* scratch,
              Slice* out) const override {
    scratch->resize(n);
    size_t got = 0;
    while (got < n) {
      const ssize_t r = ::pread(fd_, scratch->data() + got, n - got,
                                static_cast<off_t>(offset + got));
      if (r < 0) {
        if (errno == EINTR) continue;
        return PosixError("pread " + path_, errno);
      }
      if (r == 0) break;  // EOF
      got += static_cast<size_t>(r);
    }
    *out = Slice(scratch->data(), got);
    return Status::OK();
  }

  uint64_t Size() const override {
    struct stat st;
    if (::fstat(fd_, &st) != 0) return 0;
    return static_cast<uint64_t>(st.st_size);
  }

 private:
  std::string path_;
  int fd_;
};

class PosixRandomRWFile final : public RandomRWFile {
 public:
  PosixRandomRWFile(std::string path, int fd)
      : path_(std::move(path)), fd_(fd) {}

  ~PosixRandomRWFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Write(uint64_t offset, Slice data) override {
    const char* p = data.data();
    size_t left = data.size();
    uint64_t off = offset;
    while (left > 0) {
      const ssize_t n = ::pwrite(fd_, p, left, static_cast<off_t>(off));
      if (n < 0) {
        if (errno == EINTR) continue;
        return PosixError("pwrite " + path_, errno);
      }
      p += n;
      off += static_cast<uint64_t>(n);
      left -= static_cast<size_t>(n);
    }
    return Status::OK();
  }

  Status Read(uint64_t offset, size_t n, std::string* scratch,
              Slice* out) const override {
    scratch->resize(n);
    size_t got = 0;
    while (got < n) {
      const ssize_t r = ::pread(fd_, scratch->data() + got, n - got,
                                static_cast<off_t>(offset + got));
      if (r < 0) {
        if (errno == EINTR) continue;
        return PosixError("pread " + path_, errno);
      }
      if (r == 0) break;
      got += static_cast<size_t>(r);
    }
    *out = Slice(scratch->data(), got);
    return Status::OK();
  }

  Status Sync() override {
    if (::fsync(fd_) != 0) return PosixError("fsync " + path_, errno);
    return Status::OK();
  }

  uint64_t Size() const override {
    struct stat st;
    if (::fstat(fd_, &st) != 0) return 0;
    return static_cast<uint64_t>(st.st_size);
  }

 private:
  std::string path_;
  int fd_;
};

}  // namespace

Result<std::unique_ptr<WritableFile>> NewWritableFile(const std::string& path,
                                                      bool truncate) {
  const int flags = O_WRONLY | O_CREAT | (truncate ? O_TRUNC : 0);
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) return PosixError("open " + path, errno);
  uint64_t size = 0;
  if (!truncate) {
    struct stat st;
    if (::fstat(fd, &st) == 0) size = static_cast<uint64_t>(st.st_size);
    ::lseek(fd, 0, SEEK_END);
  }
  return std::unique_ptr<WritableFile>(
      new PosixWritableFile(path, fd, size));
}

Result<std::unique_ptr<WritableFile>> NewAppendableFile(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return PosixError("open " + path, errno);
  struct stat st;
  uint64_t size = 0;
  if (::fstat(fd, &st) == 0) size = static_cast<uint64_t>(st.st_size);
  return std::unique_ptr<WritableFile>(
      new PosixWritableFile(path, fd, size));
}

Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return PosixError("open " + path, errno);
  return std::unique_ptr<RandomAccessFile>(
      new PosixRandomAccessFile(path, fd));
}

Result<std::unique_ptr<RandomRWFile>> NewRandomRWFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) return PosixError("open " + path, errno);
  return std::unique_ptr<RandomRWFile>(new PosixRandomRWFile(path, fd));
}

Status CreateDirIfMissing(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
    return PosixError("mkdir " + path, errno);
  }
  return Status::OK();
}

Status CreateDirs(const std::string& path) {
  std::string cur;
  for (const std::string& part : Split(path, '/')) {
    if (part.empty()) {
      if (cur.empty()) cur.push_back('/');
      continue;
    }
    if (!cur.empty() && cur.back() != '/') cur += '/';
    cur += part;
    IDB_RETURN_IF_ERROR(CreateDirIfMissing(cur));
  }
  return Status::OK();
}

bool FileExists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

Result<uint64_t> GetFileSize(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return PosixError("stat " + path, errno);
  return static_cast<uint64_t>(st.st_size);
}

Status RemoveFile(const std::string& path) {
  if (::unlink(path.c_str()) != 0) return PosixError("unlink " + path, errno);
  return Status::OK();
}

Status RemoveDirRecursive(const std::string& path) {
  DIR* dir = ::opendir(path.c_str());
  if (dir == nullptr) {
    if (errno == ENOENT) return Status::OK();
    return PosixError("opendir " + path, errno);
  }
  struct dirent* entry;
  Status status;
  while ((entry = ::readdir(dir)) != nullptr) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    const std::string child = path + "/" + name;
    struct stat st;
    if (::lstat(child.c_str(), &st) != 0) continue;
    if (S_ISDIR(st.st_mode)) {
      status = RemoveDirRecursive(child);
    } else {
      ::unlink(child.c_str());
    }
    if (!status.ok()) break;
  }
  ::closedir(dir);
  if (status.ok() && ::rmdir(path.c_str()) != 0 && errno != ENOENT) {
    return PosixError("rmdir " + path, errno);
  }
  return status;
}

Result<std::vector<std::string>> ListDir(const std::string& path) {
  DIR* dir = ::opendir(path.c_str());
  if (dir == nullptr) return PosixError("opendir " + path, errno);
  std::vector<std::string> names;
  struct dirent* entry;
  while ((entry = ::readdir(dir)) != nullptr) {
    const std::string name = entry->d_name;
    if (name != "." && name != "..") names.push_back(name);
  }
  ::closedir(dir);
  return names;
}

Status RenameFile(const std::string& from, const std::string& to) {
  if (::rename(from.c_str(), to.c_str()) != 0) {
    return PosixError("rename " + from + " -> " + to, errno);
  }
  return Status::OK();
}

Status WriteStringToFile(const std::string& path, Slice contents, bool sync) {
  IDB_ASSIGN_OR_RETURN(auto file, NewWritableFile(path, /*truncate=*/true));
  IDB_RETURN_IF_ERROR(file->Append(contents));
  if (sync) IDB_RETURN_IF_ERROR(file->Sync());
  return file->Close();
}

Result<std::string> ReadFileToString(const std::string& path) {
  IDB_ASSIGN_OR_RETURN(auto file, NewRandomAccessFile(path));
  const uint64_t size = file->Size();
  std::string scratch;
  Slice out;
  IDB_RETURN_IF_ERROR(file->Read(0, size, &scratch, &out));
  scratch.resize(out.size());
  return scratch;
}

Status TruncateFile(const std::string& path, uint64_t size) {
  if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
    return PosixError("truncate " + path, errno);
  }
  return Status::OK();
}

Status EvictFromOsCache(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return PosixError("open " + path, errno);
  // Dirty pages would survive the advice: flush first so the whole file is
  // clean and evictable.
  Status status;
  if (::fdatasync(fd) != 0) {
    status = PosixError("fdatasync " + path, errno);
  } else if (::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED) != 0) {
    status = PosixError("posix_fadvise " + path, errno);
  }
  ::close(fd);
  return status;
}

Status EvictDirFromOsCache(const std::string& path) {
  IDB_ASSIGN_OR_RETURN(auto names, ListDir(path));
  for (const std::string& name : names) {
    const std::string child = path + "/" + name;
    struct ::stat st;
    if (::stat(child.c_str(), &st) != 0) continue;
    if (S_ISDIR(st.st_mode)) {
      IDB_RETURN_IF_ERROR(EvictDirFromOsCache(child));
    } else if (S_ISREG(st.st_mode)) {
      IDB_RETURN_IF_ERROR(EvictFromOsCache(child));
    }
  }
  return Status::OK();
}

}  // namespace instantdb
