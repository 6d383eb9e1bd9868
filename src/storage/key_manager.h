#ifndef INSTANTDB_STORAGE_KEY_MANAGER_H_
#define INSTANTDB_STORAGE_KEY_MANAGER_H_

#include <map>
#include <mutex>
#include <string>

#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "util/chacha20.h"

namespace instantdb {

/// \brief Keystore backing crypto-erasure (EraseMode::kCryptoErase and
/// WalPrivacyMode::kCryptoErase).
///
/// One key per segment file, state store and WAL alike: the key is minted
/// when the file is created and identified by a string id naming the file.
/// *Destroying* the key is the erase operation: all at-rest copies of the
/// ciphertext become unreadable at once, which is how degradation reaches
/// index pages, log archives and file-system slack that physical overwrite
/// cannot reach (paper §III). The keystore holds live keys only, so every
/// rewrite of it is as small as the live segment count allows.
///
/// Substitution note: a production system would hold this table in
/// tamper-resistant storage (TPM/enclave/SED), which is what lets a
/// destroyed key stay destroyed whatever the medium does with an overwrite.
/// Here the keystore is a file that is rewritten without the destroyed key
/// and the previous image is zero-overwritten before being unlinked; the
/// forensic tests treat it as that trusted storage.
class Env;

class KeyManager {
 public:
  /// `env` == nullptr uses Env::Default().
  explicit KeyManager(std::string path, Env* env = nullptr);

  /// Loads the keystore if it exists.
  Status Open();

  /// Mints a fresh random key for `key_id`, persists it, and returns it.
  /// Never hands out an existing key: one a crash left behind under the
  /// same id (a segment file recreated at the same name) is replaced, so no
  /// key seals two byte streams at one nonce.
  Result<ChaCha20::Key> Mint(const std::string& key_id);

  /// Key lookup without minting; NotFound if absent or destroyed.
  Result<ChaCha20::Key> Get(const std::string& key_id) const;

  /// Irreversibly forgets the key: removes it from the in-memory table,
  /// rewrites the keystore without it, and scrubs the old file image. An
  /// absent key is already destroyed: OK, nothing is rewritten.
  Status Destroy(const std::string& key_id);

  size_t live_keys() const;
  uint64_t keys_destroyed() const;

 private:
  Status PersistLocked();

  const std::string path_;
  Env* const env_;
  mutable std::mutex mu_;
  std::map<std::string, ChaCha20::Key> keys_;
  Random rng_;
  uint64_t keys_destroyed_ = 0;
};

/// Deterministic nonce for a sequence number — a store segment's seqno or
/// a WAL record's LSN: neither repeats under one key, so (key, seqno) pairs
/// are unique.
ChaCha20::Nonce NonceForSequence(uint64_t seqno);

}  // namespace instantdb

#endif  // INSTANTDB_STORAGE_KEY_MANAGER_H_
