#include "storage/disk_manager.h"

#include <cstring>
#include <vector>

#include "util/coding.h"
#include "util/crc32c.h"

namespace instantdb {

namespace {
/// Byte offset of the page checksum word — the heap page header's reserved
/// word (heap_file.cc keeps bytes [4..8) unused).
constexpr size_t kPageCrcOffset = 4;
}  // namespace

Result<std::unique_ptr<DiskManager>> DiskManager::Open(const std::string& path,
                                                       size_t page_size,
                                                       Env* env) {
  if (env == nullptr) env = Env::Default();
  IDB_ASSIGN_OR_RETURN(auto file, env->NewRandomRWFile(path));
  const uint64_t size = file->Size();
  if (size % page_size != 0) {
    return Status::Corruption("heap file size is not page-aligned: " + path);
  }
  return std::unique_ptr<DiskManager>(
      new DiskManager(path, page_size, std::move(file),
                      static_cast<PageId>(size / page_size)));
}

uint32_t DiskManager::PageCrc(const char* page) const {
  static const char kZeros[4] = {0, 0, 0, 0};
  uint32_t crc = crc32c::Value(page, kPageCrcOffset);
  crc = crc32c::Value(kZeros, sizeof(kZeros), crc);
  crc = crc32c::Value(page + kPageCrcOffset + 4,
                      page_size_ - kPageCrcOffset - 4, crc);
  return crc32c::Mask(crc);
}

bool DiskManager::IsZeroPage(const char* page) const {
  return page[0] == 0 && std::memcmp(page, page + 1, page_size_ - 1) == 0;
}

Result<PageId> DiskManager::AllocatePage() {
  std::lock_guard<std::mutex> lock(alloc_mu_);
  const PageId id = num_pages_.load(std::memory_order_relaxed);
  const std::string zeros(page_size_, '\0');
  IDB_RETURN_IF_ERROR(
      file_->Write(static_cast<uint64_t>(id) * page_size_, zeros));
  num_pages_.store(id + 1, std::memory_order_release);
  return id;
}

Status DiskManager::ReadPage(PageId id, char* out) const {
  if (id >= num_pages()) return Status::InvalidArgument("page out of range");
  std::string scratch;
  Slice data;
  IDB_RETURN_IF_ERROR(file_->Read(static_cast<uint64_t>(id) * page_size_,
                                  page_size_, &scratch, &data));
  if (data.size() != page_size_) {
    return Status::Corruption("short page read");
  }
  std::memcpy(out, data.data(), page_size_);
  // The one unstamped page is AllocatePage's all-zero one; a zero word over
  // any other bytes is a torn write, not an exemption.
  if (DecodeFixed32(out + kPageCrcOffset) != PageCrc(out) &&
      !IsZeroPage(out)) {
    return Status::Corruption("heap page checksum mismatch: " + path_ +
                              " page " + std::to_string(id));
  }
  return Status::OK();
}

Status DiskManager::WritePage(PageId id, const char* data) {
  if (id >= num_pages()) return Status::InvalidArgument("page out of range");
  std::string stamped(data, page_size_);
  EncodeFixed32(stamped.data() + kPageCrcOffset, PageCrc(stamped.data()));
  return file_->Write(static_cast<uint64_t>(id) * page_size_, stamped);
}

Status DiskManager::Sync() { return file_->Sync(); }

}  // namespace instantdb
