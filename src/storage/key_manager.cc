#include "storage/key_manager.h"

#include <random>

#include "util/coding.h"
#include "util/crc32c.h"
#include "io/env.h"

namespace instantdb {

namespace {

uint64_t SeedFromSystem() {
  std::random_device rd;
  return (static_cast<uint64_t>(rd()) << 32) ^ rd();
}

}  // namespace

ChaCha20::Nonce NonceForSequence(uint64_t seqno) {
  ChaCha20::Nonce nonce{};
  for (int i = 0; i < 8; ++i) {
    nonce[i] = static_cast<uint8_t>(seqno >> (8 * i));
  }
  return nonce;
}

KeyManager::KeyManager(std::string path, Env* env)
    : path_(std::move(path)),
      env_(env != nullptr ? env : Env::Default()),
      rng_(SeedFromSystem()) {}

Status KeyManager::Open() {
  std::lock_guard<std::mutex> lock(mu_);
  keys_.clear();
  if (!env_->FileExists(path_)) return Status::OK();
  IDB_ASSIGN_OR_RETURN(std::string contents, env_->ReadFileToString(path_));
  Slice input = contents;
  uint32_t masked;
  if (!GetFixed32(&input, &masked) ||
      crc32c::Unmask(masked) != crc32c::Value(input.data(), input.size())) {
    return Status::Corruption("keystore checksum mismatch: " + path_);
  }
  uint32_t live;
  if (!GetVarint32(&input, &live)) {
    return Status::Corruption("bad keystore header");
  }
  for (uint32_t i = 0; i < live; ++i) {
    Slice id;
    if (!GetLengthPrefixed(&input, &id) ||
        input.size() < ChaCha20::kKeyBytes) {
      return Status::Corruption("bad keystore entry");
    }
    ChaCha20::Key key;
    std::memcpy(key.data(), input.data(), ChaCha20::kKeyBytes);
    input.remove_prefix(ChaCha20::kKeyBytes);
    keys_[std::string(id)] = key;
  }
  return Status::OK();
}

Status KeyManager::PersistLocked() {
  std::string body;
  PutVarint32(&body, static_cast<uint32_t>(keys_.size()));
  for (const auto& [id, key] : keys_) {
    PutLengthPrefixed(&body, id);
    body.append(reinterpret_cast<const char*>(key.data()), key.size());
  }
  std::string file;
  PutFixed32(&file, crc32c::Mask(crc32c::Value(body.data(), body.size())));
  file += body;

  const std::string tmp = path_ + ".new";
  IDB_RETURN_IF_ERROR(env_->WriteStringToFile(tmp, file, /*sync=*/true));
  // Scrub the previous image before it is replaced so old key bytes do not
  // linger in the superseded file's blocks.
  if (env_->FileExists(path_)) {
    auto old_size = env_->GetFileSize(path_);
    if (old_size.ok()) {
      IDB_RETURN_IF_ERROR(env_->OverwriteRange(path_, 0, *old_size));
    }
  }
  return env_->RenameFile(tmp, path_);
}

Result<ChaCha20::Key> KeyManager::Mint(const std::string& key_id) {
  std::lock_guard<std::mutex> lock(mu_);
  // A key left under this id is overwritten, never handed out again.
  ChaCha20::Key& key = keys_[key_id];
  for (size_t i = 0; i < key.size(); i += 8) {
    const uint64_t r = rng_.NextU64();
    std::memcpy(key.data() + i, &r, 8);
  }
  const Status persisted = PersistLocked();
  if (!persisted.ok()) {
    // A key handed out must be durable, or a crash loses what it sealed:
    // forget it, so the next call mints and persists one afresh.
    key.fill(0);
    keys_.erase(key_id);
    return persisted;
  }
  return key;
}

Result<ChaCha20::Key> KeyManager::Get(const std::string& key_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = keys_.find(key_id);
  if (it == keys_.end()) {
    return Status::NotFound("key absent or destroyed: " + key_id);
  }
  return it->second;
}

Status KeyManager::Destroy(const std::string& key_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = keys_.find(key_id);
  if (it == keys_.end()) return Status::OK();
  // Zero the in-memory copy before dropping it.
  it->second.fill(0);
  keys_.erase(it);
  ++keys_destroyed_;
  return PersistLocked();
}

size_t KeyManager::live_keys() const {
  std::lock_guard<std::mutex> lock(mu_);
  return keys_.size();
}

uint64_t KeyManager::keys_destroyed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return keys_destroyed_;
}

}  // namespace instantdb
