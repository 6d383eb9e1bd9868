#ifndef INSTANTDB_WAL_WAL_MANAGER_H_
#define INSTANTDB_WAL_WAL_MANAGER_H_

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/options.h"
#include "storage/key_manager.h"
#include "util/file.h"
#include "wal/log_record.h"

namespace instantdb {

class Env;

/// Id of a segment's key in the KeyManager (WalPrivacyMode::kCryptoErase):
/// `wal.s<start-lsn>`.
std::string WalSegmentKeyId(Lsn start);

/// \brief The redo log: segment files, writer, group-commit sync watermark,
/// checkpoint manifest, privacy-mode retirement and the deletion-assurance
/// probes.
///
/// The paper (§III, citing Stahlberg et al.) observes that traditional WALs
/// keep every inserted value recoverable long after deletion. Accurate
/// degradable values enter the log exactly once, inside kInsert records.
/// In every mode a checkpoint retires the segments fully below its replay
/// position, and the checkpoint cadence pulls a checkpoint in to the
/// earliest phase-0 deadline in the live log; three strategies
/// (WalPrivacyMode) decide what retirement does to the bytes:
///
///  - kPlain: retired segments are renamed to `*.recycled` and left on disk.
///    This models the unintended retention of real systems (log archives,
///    recycled-but-unscrubbed segments) and is the unsafe baseline the
///    forensic experiments scan.
///  - kScrub: retired segments are zero-overwritten, synced, and unlinked.
///  - kCryptoErase: a segment file gets its own key when it is created
///    (KeyManager::Mint, WalSegmentKeyId), and each insert's degradable
///    payload is sealed under it with the nonce NonceForSequence(lsn).
///    Retirement destroys the key, then unlinks the file, so every copy of
///    the segment's payloads the medium kept becomes unreadable at once —
///    the state stores' EraseMode::kCryptoErase rule. A reopened log never
///    appends to a segment an earlier process wrote: the crash may have lost
///    records whose ciphertext under that key and LSN the medium still
///    holds.
///
/// Layout: LSNs are byte offsets in the logical log. Segments
/// `wal_<start-lsn>.log` and the CHECKPOINT manifest (the LSN replay starts
/// from) sit directly in the log directory. Framing:
/// [u32 masked CRC32C(body)] [u32 len] [body]; recovery tolerates a torn
/// tail frame.
///
/// Commit pipeline: append and sync are split around two watermarks.
/// Appends advance the *appended* LSN (`next_lsn_`) under the mutex, but
/// frames are encoded and checksummed BEFORE the mutex is taken (for
/// kCryptoErase inserts, serialization happens outside and only the
/// LSN-derived blob seal + CRC run under it — the LSN-reservation path).
/// Durability runs OUTSIDE the mutex behind the *synced* LSN watermark
/// (`synced_lsn_`): a committer wanting durability parks until the
/// watermark covers its bytes. A waiter that finds no sync in flight leads:
/// it issues one fdatasync for everything appended so far (`next_lsn_`, not
/// just its own demand) with the mutex released, so its sync absorbs every
/// parked committer at once, whichever of them leads. The `sync_requests`/
/// `syncs`/`commits_absorbed` counters expose how well the absorption works
/// (sync_requests == syncs + commits_absorbed always).
///
/// Thread-safety: all public methods are safe to call concurrently; shared
/// state is guarded by the log mutex, and the only code that runs outside
/// it while logically in progress is the leader's fdatasync (segment
/// rotation waits for an in-flight sync before closing the writer).
class WalManager {
 public:
  /// `env` == nullptr uses Env::Default(); all physical log I/O funnels
  /// through it.
  WalManager(std::string dir, const WalOptions& options, KeyManager* keys,
             Env* env = nullptr);
  ~WalManager();
  WalManager(const WalManager&) = delete;
  WalManager& operator=(const WalManager&) = delete;

  /// Scans existing segments, truncating a torn tail, and positions the
  /// writer at the end of the log. kCryptoErase: finishes a retirement a
  /// crash cut between destroying a segment's key and unlinking its file,
  /// and leaves the writer closed, so the first append opens a fresh
  /// segment.
  Status Open();

  /// Group append: every record as ONE buffered write, so a torn tail that
  /// loses any record loses the ones after it too (a transaction's COMMIT
  /// marker goes last). Frames are encoded outside the log mutex. Returns
  /// the LSN of the first record; `*end_lsn` (when non-null) receives the
  /// post-batch appended LSN. With `sync` the call blocks until the synced
  /// watermark covers the records' bytes — at most one sync, and under
  /// concurrency usually a *shared* one: the group-commit leader absorbs
  /// every committer parked on the watermark.
  Result<Lsn> AppendBatch(const std::vector<const WalRecord*>& records,
                          bool sync, Lsn* end_lsn = nullptr);

  /// Durably persists every record appended at or below `lsn`: returns
  /// immediately when the synced watermark already covers it, parks behind
  /// an in-flight leader sync when one is running, and otherwise leads one
  /// sync (issued with the mutex released) whose watermark advance wakes
  /// every parked committer it absorbed.
  Status SyncThrough(Lsn lsn);

  /// Syncs everything appended so far.
  Status Sync();

  /// Appended watermark: the LSN the next record will get. The commit
  /// barrier (TransactionManager::CheckpointBeginLsn) reads it with no
  /// commit in flight, so no transaction straddles the returned position.
  Lsn next_lsn() const {
    std::lock_guard<std::mutex> lock(mu_);
    return next_lsn_;
  }

  /// Synced watermark: everything below it is durable.
  Lsn synced_lsn() const {
    std::lock_guard<std::mutex> lock(mu_);
    return synced_lsn_;
  }

  /// Committers currently inside SyncThrough whose demand the synced
  /// watermark did not already cover (group-commit depth: leaders plus
  /// parked followers). Instantaneous — the service front end's WAL
  /// backpressure signal, not an accounting counter: a sustained non-zero
  /// depth means durability demand is outrunning the device.
  size_t SyncWaiters() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sync_parked_;
  }

  /// Durable checkpoint, three steps in order: append a kCheckpoint record
  /// and rotate to a fresh segment (the rotation's seal fsync makes the
  /// record durable), write the CHECKPOINT manifest, then retire the
  /// segments fully below the new replay position per the privacy mode —
  /// retirement never outruns the durable record of that position.
  /// `begin` is the fuzzy-checkpoint begin LSN, captured BEFORE flushing
  /// the storage state the checkpoint covers. Returns the LSN replay must
  /// start from after a crash.
  Result<Lsn> LogCheckpoint(Lsn begin);

  /// Replay start recorded by the last completed checkpoint; 0 if none.
  Result<Lsn> ReadCheckpointLsn() const;

  /// Replays records with LSN >= `from` in log order, opening sealed
  /// payloads with the key of the segment holding them; a sealed payload in
  /// a segment with no key is Corruption. `fn` returning non-OK aborts the
  /// replay with that status.
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

  /// Deletion-assurance probes (maintain/audit.h). `ExposureAudit` covers
  /// what readable log bytes may still hold an accurate value past its
  /// phase-0 deadline:
  ///  - `exposed_segments`: live segments (the active one included) whose
  ///    per-segment payload-deadline minimum is at or before `horizon`, in
  ///    every mode: under kCryptoErase a live segment's key is live too.
  ///    The minima are folded in at append time; segments already on disk
  ///    at Open count as exposed until retirement proves otherwise.
  ///  - `unscrubbed_recycled`: segments retired by renaming to `*.recycled`
  ///    and left on disk (kPlain only), by this process or found at Open.
  ///    These were never scanned again, so every one is assumed to hold
  ///    formerly-accurate bytes — the unsafe baseline the audit exists to
  ///    flag.
  struct ExposureAudit {
    uint64_t exposed_segments = 0;
    uint64_t unscrubbed_recycled = 0;
  };
  ExposureAudit AuditExposure(Micros horizon) const;

  /// Earliest phase-0 payload deadline still held by any live segment;
  /// kForever when the log holds no degradable payload. Drives
  /// the background loop's adaptive checkpoint cadence: a checkpoint at
  /// this instant rotates + retires the segment before its payload becomes
  /// an exposure finding, in every privacy mode.
  Micros EarliestPayloadDeadline() const;

  struct Stats {
    uint64_t records_appended = 0;
    uint64_t bytes_appended = 0;
    uint64_t segments_created = 0;
    /// Segments this process retired (a reopened log starts at 0).
    uint64_t segments_retired = 0;
    uint64_t scrub_bytes = 0;
    /// fdatasync/fsync calls actually issued on the commit path.
    uint64_t syncs = 0;
    /// Durability demands (SyncThrough calls): every durable commit makes
    /// one.
    uint64_t sync_requests = 0;
    /// Requests satisfied without issuing their own sync — parked behind a
    /// leader whose fdatasync covered them, or already below the watermark
    /// on arrival. syncs + commits_absorbed == sync_requests on a healthy
    /// log; a poisoned log's waiters return with the sticky error
    /// and count in neither bucket.
    uint64_t commits_absorbed = 0;
    /// 1 once an append or sync failed and the log fails every later
    /// append/sync fast (see PoisonLocked): the log has lost its
    /// durability guarantee until reopen.
    uint64_t poisoned = 0;
  };
  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  /// One frame prepared outside the log mutex: header + body bytes, plus
  /// the blob seal left for the LSN-reservation step (kCryptoErase inserts:
  /// the key is the segment's and the nonce derives from the record's LSN,
  /// and both only exist once the mutex assigns them).
  struct PendingFrame {
    std::string bytes;       // [u32 crc (0 until sealed)][u32 len][body]
    size_t blob_offset = 0;  // into `bytes`; meaningful when blob_length > 0
    size_t blob_length = 0;  // 0 = frame final (CRC already computed)
    /// Earliest phase-0 deadline of the payload (WalRecord carry-through);
    /// min-merged into the segment the frame lands in.
    Micros payload_deadline = kForever;
  };

  struct SegmentInfo {
    Lsn start = 0;
    Lsn end = 0;  // exclusive
    /// Earliest phase-0 deadline over the accurate degradable payloads
    /// appended into this segment; kForever when it holds none. Segments
    /// found on disk at Open get 0 ("unknown — assume exposed"): the audit
    /// must not vouch for bytes it never saw appended.
    Micros min_payload_deadline = kForever;
  };

  bool crypto_erase() const {
    return options_.privacy_mode == WalPrivacyMode::kCryptoErase;
  }
  /// `<dir>/wal_<start>.log`: the segment whose first record has LSN
  /// `start`.
  std::string SegmentPath(Lsn start) const;
  /// Encodes + checksums `record` into a frame. Plaintext frames come out
  /// final; kCryptoErase inserts carry their blob in plaintext with the
  /// seal deferred to AppendFramesLocked. Called outside the mutex.
  PendingFrame PrepareFrame(const WalRecord& record) const;
  /// Assigns LSNs, seals deferred blobs, and appends every frame as
  /// buffered writes (one per segment touched), rotating segments at
  /// frame boundaries. Shared state (next_lsn_, segment end, stats) only
  /// advances once bytes are on the file, so a failed write cannot desync
  /// LSNs from the physical log (the LSN-derived nonces depend on this).
  /// Returns the first frame's LSN. Caller holds `lock`.
  Result<Lsn> AppendFramesLocked(std::unique_lock<std::mutex>& lock,
                                 std::vector<PendingFrame>& frames);
  /// Seals + closes the active segment and opens a fresh one: creates the
  /// file, then (kCryptoErase) mints its key, and only then may frames land
  /// in it. Waits out an in-flight leader sync first (it holds the writer's
  /// fd), and advances the synced watermark to the sealed end. Caller holds
  /// `lock`.
  Status OpenNewSegmentLocked(std::unique_lock<std::mutex>& lock);
  Status PreallocateActiveLocked();
  /// Marks the log sticky-failed (first failure wins) and wakes every
  /// parked committer so they observe the poison. Returns the sticky status.
  Status PoisonLocked(const Status& cause);

  /// Checkpoint step 1: appends the kCheckpoint record and rotates. Returns
  /// the LSN replay must start from.
  Result<Lsn> AppendCheckpointAndRotate(Lsn begin);
  /// Checkpoint step 2: durably records `lsn` in the CHECKPOINT manifest.
  Status WriteManifest(Lsn lsn);
  /// Checkpoint step 3: retires every segment fully below `lsn` per the
  /// privacy mode.
  Status RetireThrough(Lsn lsn);

  const std::string dir_;
  const WalOptions options_;
  KeyManager* const keys_;
  Env* const env_;

  /// Serializes whole checkpoints (rotate → manifest → retire). Multiple
  /// drivers checkpoint concurrently (the background checkpoint cadence vs.
  /// caller-driven Database::Checkpoint): unserialized, both would write
  /// CHECKPOINT.tmp and race the rename — and an interleaving could stamp
  /// an older LSN over a newer manifest, regressing the durable replay
  /// pointer. Appends and syncs never take this.
  std::mutex checkpoint_mu_;
  /// Serializes appenders for the WHOLE append — including the rotation
  /// wait inside OpenNewSegmentLocked, which releases `mu_` while an
  /// in-flight leader sync drains. Without this outer lock a second
  /// appender could slip in through that window and interleave with a
  /// half-done rotation (stale local LSNs, double-sealed segments). Lock
  /// order: checkpoint_mu_, then append_mu_, then mu_; SyncThrough takes
  /// only mu_, so the sync leader never needs append_mu_ to finish.
  std::mutex append_mu_;
  /// Guards writer state, the segment list, both watermarks, the poison
  /// status, the recycled count and stats.
  mutable std::mutex mu_;
  /// Waits: committers parked on the synced watermark; rotation parked on
  /// an in-flight sync. Notified when either condition can have changed.
  std::condition_variable sync_cv_;

  std::vector<SegmentInfo> segments_;  // sorted by start
  std::unique_ptr<WritableFile> writer_;
  /// kCryptoErase: the active segment's key, sealing every insert payload
  /// appended to it.
  ChaCha20::Key active_key_{};
  /// Appended watermark: everything below is written (buffered) to the
  /// active segment.
  Lsn next_lsn_ = 0;
  /// Synced watermark: everything below is durable. Advanced by the sync
  /// leader and by segment rotation (which fsyncs the sealed segment).
  Lsn synced_lsn_ = 0;
  /// True while a leader's fdatasync runs with the mutex released. At most
  /// one sync is ever in flight; rotation waits on it.
  bool sync_in_flight_ = false;
  /// Committers inside SyncThrough not yet covered by the watermark (the
  /// SyncWaiters() depth signal).
  size_t sync_parked_ = 0;
  /// Active segment preallocation state: when `preallocated_`, the file's
  /// size is durable through `prealloc_end_`, so commit syncs may use
  /// fdatasync for appends below it.
  bool preallocated_ = false;
  Lsn prealloc_end_ = 0;
  /// OK until the first append/sync failure; sticky thereafter. A failed
  /// fdatasync may have left the kernel's dirty-page state (and so what a
  /// later fsync would cover) unknowable, and a failed append leaves the
  /// positional writer's offset ahead of `next_lsn_`, which would desync
  /// the LSN-derived nonces from the physical bytes. Every later append,
  /// sync and checkpoint fails fast with it; recovery is reopening the
  /// database (replaying only what a clean sync acknowledged).
  Status poisoned_;
  /// kPlain: `*.recycled` segments on disk — found at Open plus those this
  /// process renamed.
  uint64_t recycled_segments_ = 0;
  Stats stats_;
};

}  // namespace instantdb

#endif  // INSTANTDB_WAL_WAL_MANAGER_H_
