#ifndef INSTANTDB_WAL_WAL_MANAGER_H_
#define INSTANTDB_WAL_WAL_MANAGER_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/options.h"
#include "storage/key_manager.h"
#include "util/file.h"
#include "wal/log_record.h"
#include "wal/wal_stream.h"

namespace instantdb {

/// \brief The redo log: one WalStream plus the checkpoint manifest, the
/// epoch keys and the deletion-assurance probes.
///
/// The paper (§III, citing Stahlberg et al.) observes that traditional WALs
/// keep every inserted value recoverable long after deletion. Accurate
/// degradable values enter the log exactly once, inside kInsert records;
/// three strategies (WalPrivacyMode) bound their lifetime:
///
///  - kPlain: retired segments are renamed to `*.recycled` and left on disk.
///    This models the unintended retention of real systems (log archives,
///    recycled-but-unscrubbed segments) and is the unsafe baseline the
///    forensic experiments scan.
///  - kScrub: retired segments are zero-overwritten, synced, and unlinked.
///  - kEncryptedEpoch: each insert's degradable payload is encrypted under
///    a per-(table, epoch) key. Destroying the key makes every log copy of
///    the epoch unreadable at once.
///
/// Checkpoints: the CHECKPOINT manifest records the LSN replay starts from;
/// fuzzy checkpoints and segment retirement proceed against it.
///
/// Layout: segments `wal_<start-lsn>.log` and the manifest sit directly in
/// the log directory.
class Env;

class WalManager {
 public:
  /// `env` == nullptr uses Env::Default(); all physical log I/O funnels
  /// through it.
  WalManager(std::string dir, const WalOptions& options, KeyManager* keys,
             Env* env = nullptr);
  ~WalManager();
  WalManager(const WalManager&) = delete;
  WalManager& operator=(const WalManager&) = delete;

  /// Opens the log, truncating a torn tail.
  Status Open();

  /// Group append: every record as one buffered write, so a torn tail that
  /// loses any record loses the ones after it too (a transaction's COMMIT
  /// marker goes last). When `sync` (or WalOptions::sync_on_commit) it
  /// blocks until the synced watermark covers the records' bytes — at most
  /// one sync, and under concurrency usually a *shared* one: the
  /// group-commit leader absorbs every committer parked on the watermark.
  /// Returns the LSN of the first record.
  Result<Lsn> AppendBatch(const std::vector<const WalRecord*>& records,
                          bool sync);

  /// Syncs everything appended so far.
  Status Sync();

  /// End of the log: the LSN the next record will get. The commit barrier
  /// (TransactionManager::CheckpointBeginLsn) reads it with no commit in
  /// flight, so no transaction straddles the returned position.
  Lsn next_lsn() const { return stream_->next_lsn(); }

  /// Durable checkpoint: appends a kCheckpoint record and rotates, writes
  /// the CHECKPOINT manifest, then retires fully-covered segments per the
  /// privacy mode. `replay_from` must be captured BEFORE flushing the
  /// storage state the checkpoint covers (the fuzzy-checkpoint begin LSN);
  /// WalStream::kLogEnd means no writes are in flight (quiescent form:
  /// cover everything logged so far). Returns the LSN replay must start
  /// from after a crash.
  Result<Lsn> LogCheckpoint(Lsn replay_from = WalStream::kLogEnd);

  /// Replay start recorded by the last completed checkpoint; 0 if none.
  Result<Lsn> ReadCheckpointLsn() const;

  /// Replays the log in order from `from`.
  Status Replay(Lsn from,
                const std::function<Status(const WalRecord&, Lsn)>& fn) const;

  /// Two-pass recovery from `from`. Pass 1 collects the transactions whose
  /// commit marker survived (a torn tail that cut the marker voids the
  /// transaction, even when some of its records survived). Pass 2 redoes
  /// the data records of those transactions in log order.
  ///
  /// `max_txn_id` (when non-null) receives the largest transaction id seen,
  /// torn transactions included, so the transaction manager can resume
  /// above it: a reused id would attach a new commit marker to an older
  /// torn transaction's surviving records on the next recovery.
  Status RecoverCommitted(Lsn from,
                          const std::function<Status(const WalRecord&)>& redo,
                          uint64_t* max_txn_id = nullptr);

  /// kEncryptedEpoch: destroys the keys of every epoch of `table` that ends
  /// at or before `safe_time` (all its tuples have left phase 0).
  Status DestroyEpochKeysThrough(TableId table, Micros safe_time);

  uint64_t EpochOf(Micros t) const {
    return static_cast<uint64_t>(t) / static_cast<uint64_t>(options_.epoch_micros);
  }

  /// Deletion-assurance probes (maintain/audit.h). `ExposureAudit` covers
  /// what plaintext-readable log bytes may still hold an accurate value past
  /// its phase-0 deadline:
  ///  - `exposed_segments`: live segments whose per-segment payload-deadline
  ///    minimum is at or before `horizon` (kPlain, kScrub — under
  ///    kEncryptedEpoch live payloads are ciphertext and exposure is the
  ///    epoch keys' problem, so the count is 0 by construction).
  ///  - `unscrubbed_recycled`: segments retired by renaming to `*.recycled`
  ///    and left on disk (kPlain only). These were never scanned again, so
  ///    every one is assumed to hold formerly-accurate bytes — the unsafe
  ///    baseline the audit exists to flag.
  struct ExposureAudit {
    uint64_t exposed_segments = 0;
    uint64_t unscrubbed_recycled = 0;
  };
  ExposureAudit AuditExposure(Micros horizon) const;

  /// Earliest phase-0 payload deadline still held by any live segment;
  /// kForever when the log holds no degradable payload. Drives
  /// the maintenance daemon's adaptive checkpoint cadence: a checkpoint at
  /// this instant rotates + retires the segment before its payload becomes
  /// an exposure finding. Deadlines are tracked in every privacy mode (under
  /// kEncryptedEpoch an early checkpoint still shrinks the decryptable
  /// window between epoch-key destructions).
  Micros EarliestPayloadDeadline() const;

  /// kEncryptedEpoch: number of live (undestroyed) epoch keys of `table`
  /// whose epoch ends at or before `safe_time` — keys DestroyEpochKeysThrough
  /// should already have destroyed. Non-zero means accurate log payloads are
  /// still decryptable past their deadline. 0 in the other privacy modes.
  /// Bounded by the keystore's live key count (it enumerates live keys with
  /// the table's prefix rather than walking all elapsed epochs).
  uint64_t LingeringEpochKeys(TableId table, Micros safe_time) const;

  /// True when epoch keys exist to destroy (kEncryptedEpoch). Lets callers
  /// skip computing the safe-time bound — which walks live phase-0 state —
  /// in the other privacy modes.
  bool epoch_keys_enabled() const {
    return options_.privacy_mode == WalPrivacyMode::kEncryptedEpoch;
  }

  struct Stats {
    uint64_t records_appended = 0;
    uint64_t bytes_appended = 0;
    uint64_t segments_created = 0;
    uint64_t segments_retired = 0;
    uint64_t scrub_bytes = 0;
    uint64_t epoch_keys_destroyed = 0;
    /// Commit pipeline (see WalStream::Stats): fdatasyncs actually issued,
    /// durability demands, and demands absorbed by another leader's sync.
    uint64_t syncs = 0;
    uint64_t sync_requests = 0;
    uint64_t commits_absorbed = 0;
    /// 1 when a sync failed and the log now fails every append/sync fast
    /// (see WalStream::poisoned()): the log has lost its durability
    /// guarantee until reopen.
    uint64_t poisoned = 0;
  };
  Stats stats() const;

  /// Committers currently parked on the group-commit sync watermark
  /// (WalStream::sync_waiters). The service front end's WAL backpressure
  /// signal.
  size_t SyncWaiters() const { return stream_->sync_waiters(); }

  const std::string& dir() const { return dir_; }

 private:
  Status WriteManifest(Lsn lsn);

  const std::string dir_;
  const WalOptions options_;
  KeyManager* const keys_;
  Env* const env_;

  std::unique_ptr<WalStream> stream_;

  /// Serializes whole checkpoints (rotate → manifest → retire). Multiple
  /// drivers checkpoint concurrently (the maintenance daemon's cadence vs.
  /// caller-driven Database::Checkpoint): unserialized, both would write
  /// CHECKPOINT.tmp and race the rename — and an interleaving could stamp
  /// an older LSN over a newer manifest, regressing the durable replay
  /// pointer. Appends/syncs never take this.
  std::mutex checkpoint_mu_;

  /// Guards the epoch watermark map.
  mutable std::mutex epoch_mu_;
  std::map<TableId, uint64_t> epoch_watermark_;  // first not-yet-destroyed
  std::atomic<uint64_t> epoch_keys_destroyed_{0};
};

}  // namespace instantdb

#endif  // INSTANTDB_WAL_WAL_MANAGER_H_
