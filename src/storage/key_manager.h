#ifndef INSTANTDB_STORAGE_KEY_MANAGER_H_
#define INSTANTDB_STORAGE_KEY_MANAGER_H_

#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>

#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "util/chacha20.h"

namespace instantdb {

/// \brief Keystore backing crypto-erasure (EraseMode::kCryptoErase and
/// WalPrivacyMode::kEncryptedEpoch).
///
/// Every state-store segment and WAL epoch encrypts its payloads under a
/// key identified by a string id. *Destroying* the key is the erase
/// operation: all at-rest copies of the ciphertext become unreadable at
/// once, which is how degradation reaches index pages, log archives and
/// file-system slack that physical overwrite cannot reach (paper §III).
///
/// Substitution note (DESIGN.md §2): a production system would hold this
/// table in tamper-resistant storage (TPM/enclave/SED). Here the keystore
/// is a file that is rewritten without the destroyed key and the previous
/// image is zero-overwritten before being unlinked.
class Env;

class KeyManager {
 public:
  /// `env` == nullptr uses Env::Default().
  explicit KeyManager(std::string path, Env* env = nullptr);

  /// Loads the keystore if it exists.
  Status Open();

  /// Returns the key for `key_id`, minting (and persisting) a fresh random
  /// key on first use. A destroyed id may be reused for *new* data — the
  /// old ciphertext remains unreadable because the old key bytes are gone.
  Result<ChaCha20::Key> GetOrCreate(const std::string& key_id);

  /// Key lookup without minting; NotFound if absent or destroyed.
  Result<ChaCha20::Key> Get(const std::string& key_id) const;

  /// Irreversibly forgets the key: removes it from the in-memory table,
  /// rewrites the keystore without it, and scrubs the old file image.
  Status Destroy(const std::string& key_id);

  bool IsDestroyed(const std::string& key_id) const;

  /// Calls `fn` with every live (present, not destroyed) key id starting
  /// with `prefix`, in id order. The deletion-assurance audit uses this to
  /// count epoch keys that outlived their destruction deadline — bounded by
  /// the live key count, not by elapsed epochs.
  void ForEachLiveKeyId(const std::string& prefix,
                        const std::function<void(const std::string&)>& fn) const;

  size_t live_keys() const;
  uint64_t keys_destroyed() const;

 private:
  Status PersistLocked();

  const std::string path_;
  Env* const env_;
  mutable std::mutex mu_;
  std::map<std::string, ChaCha20::Key> keys_;
  std::set<std::string> destroyed_;
  Random rng_;
  uint64_t keys_destroyed_ = 0;
};

/// Deterministic nonce for a sequence number — a store segment's seqno or
/// a WAL record's LSN: neither repeats under one key, so (key, seqno) pairs
/// are unique.
ChaCha20::Nonce NonceForSequence(uint64_t seqno);

}  // namespace instantdb

#endif  // INSTANTDB_STORAGE_KEY_MANAGER_H_
