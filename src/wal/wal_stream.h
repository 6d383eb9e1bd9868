#ifndef INSTANTDB_WAL_WAL_STREAM_H_
#define INSTANTDB_WAL_WAL_STREAM_H_

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

/// Id of the per-(table, epoch) key in the KeyManager
/// (WalPrivacyMode::kEncryptedEpoch). Destroying it makes every logged copy
/// of the epoch's inserts unreadable at once.
std::string WalEpochKeyId(TableId table, uint64_t epoch);

/// \brief The redo log's segment files, writer, mutex and leader-based
/// group-commit sync watermark.
///
/// LSNs are byte offsets in the logical log, segments are named
/// `wal_<start-lsn>.log` inside the log directory, and the three privacy
/// modes (WalPrivacyMode) decide how a retired segment dies. Under
/// kEncryptedEpoch an insert's payload is sealed with its epoch key and
/// the nonce NonceForSequence(lsn): LSNs never repeat within a log, so
/// neither do (key, nonce) pairs.
///
/// Commit pipeline: append and sync are split around two watermarks.
/// Appends advance the *appended* LSN (`next_lsn_`) under the mutex, but
/// frames are encoded and checksummed BEFORE the mutex is taken (for
/// kEncryptedEpoch inserts, serialization happens outside and only the
/// LSN-derived blob seal + CRC run under it — the LSN-reservation path).
/// Durability runs OUTSIDE the mutex behind the *synced* LSN watermark
/// (`synced_lsn_`): a committer wanting durability parks until the
/// watermark covers its bytes; leadership is commit-latency-aware — among
/// the committers waiting while no sync is in flight, the one demanding the
/// LARGEST covered LSN (the newest arrival, since appends serialize) leads,
/// issues one fdatasync for everything appended so far with the mutex
/// released, and its sync absorbs every parked committer at once. Handing
/// the sync to the largest demand instead of first-through-the-gate shaves
/// the tail: the biggest outstanding commit never waits behind a sync led
/// on its behalf by a smaller one. The `sync_requests`/`syncs`/
/// `commits_absorbed` counters expose how well the absorption works
/// (sync_requests == syncs + commits_absorbed always).
///
/// Framing: [u32 masked CRC32C(body)] [u32 len] [body]. Recovery tolerates
/// a torn tail frame.
///
/// Thread-safety: all public methods are safe to call concurrently; shared
/// state is guarded by the stream mutex, and the only code that runs
/// outside it while logically in progress is the leader's fdatasync
/// (segment rotation waits for an in-flight sync before closing the
/// writer).
class WalStream {
 public:
  /// Sentinel for BeginCheckpoint: "cover everything logged so far".
  static constexpr Lsn kLogEnd = UINT64_MAX;

  struct Stats {
    uint64_t records_appended = 0;
    uint64_t bytes_appended = 0;
    uint64_t segments_created = 0;
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
  };

  /// `env` == nullptr uses Env::Default().
  WalStream(std::string dir, const WalOptions& options, KeyManager* keys,
            Env* env = nullptr);
  ~WalStream();
  WalStream(const WalStream&) = delete;
  WalStream& operator=(const WalStream&) = delete;

  /// Scans existing segments, truncating a torn tail, and positions the
  /// writer at the end of the log.
  Status Open();

  /// Appends one record; returns its LSN.
  Result<Lsn> Append(const WalRecord& record, bool sync);

  /// Group commit: appends all records as ONE buffered file write. Frames
  /// are encoded outside the stream mutex. Returns the LSN of the first
  /// record; `*end_lsn` (when non-null) receives the post-batch appended
  /// LSN — the watermark a caller passes to SyncThrough to make exactly
  /// this batch durable. With `sync` the call blocks on the watermark
  /// before returning (at most one sync, possibly another leader's).
  Result<Lsn> AppendBatch(const std::vector<const WalRecord*>& records,
                          bool sync, Lsn* end_lsn = nullptr);

  /// Durably persists every record appended at or below `lsn`: returns
  /// immediately when the synced watermark already covers it, parks behind
  /// an in-flight leader sync when one is running, and otherwise leads one
  /// sync (issued with the mutex released) whose watermark advance wakes
  /// every parked committer it absorbed.
  Status SyncThrough(Lsn lsn);

  /// Syncs everything appended so far (SyncThrough the appended end).
  Status Sync();

  /// Appended watermark: the LSN the next record will get.
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
  /// parked followers). Instantaneous — a backpressure signal, not an
  /// accounting counter: a sustained non-zero depth means durability
  /// demand is outrunning the device and admission should shed writes
  /// first.
  size_t sync_waiters() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sync_parked_;
  }

  /// First half of a checkpoint: appends a kCheckpoint record carrying
  /// `replay_from` (kLogEnd = the post-record end of the stream, for
  /// callers that know no writes are in flight) and rotates to a fresh
  /// segment so the pre-checkpoint segments become retirable (the rotation
  /// fsync makes the record durable). Returns the LSN replay must start
  /// from. The caller persists the manifest and then calls RetireThrough —
  /// retirement must not outrun the durable record of the new replay
  /// position.
  Result<Lsn> BeginCheckpoint(Lsn replay_from);

  /// Retires every segment fully below `lsn` per the privacy mode.
  Status RetireThrough(Lsn lsn);

  /// Deletion-assurance probe: how many live segments (including the active
  /// one) may still hold an accurate degradable payload whose phase-0
  /// deadline is at or before `horizon`. Per-segment minima are folded in at
  /// append time from WalRecord::payload_deadline; segments already on disk
  /// at Open are counted conservatively (their contents were never scanned,
  /// so they are assumed exposed until retirement proves otherwise). A
  /// checkpoint rotates + retires, so a non-zero count is the audit signal
  /// that WAL retirement is lagging the degradation deadlines.
  uint64_t ExposedPayloadSegments(Micros horizon) const;

  /// Earliest phase-0 payload deadline over every live segment (the time at
  /// which the first still-logged accurate value becomes overdue), kForever
  /// when no live segment holds a degradable payload. The maintenance
  /// daemon's adaptive cadence checkpoints just before this instant instead
  /// of waiting out a fixed interval.
  Micros EarliestPayloadDeadline() const;

  /// Replays records with LSN >= `from` in log order. `fn` returning
  /// non-OK aborts the replay with that status.
  Status Replay(Lsn from,
                const std::function<Status(const WalRecord&, Lsn)>& fn) const;

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

  /// Sticky-failure state (fsyncgate semantics): once an append or sync on
  /// this stream fails, the stream is permanently poisoned — the failed
  /// operation may have left the kernel's dirty-page state (and therefore
  /// what a later fsync would actually cover) unknowable, and a failed
  /// append leaves the positional writer's offset ahead of `next_lsn_`,
  /// which would desync LSN-derived encryption nonces from the physical
  /// bytes. Every subsequent Append/AppendBatch/SyncThrough/BeginCheckpoint
  /// fails fast with the sticky status; parked group-commit waiters are
  /// woken with it. Recovery is re-opening the database (replaying only
  /// what a clean sync acknowledged).
  bool poisoned() const {
    std::lock_guard<std::mutex> lock(mu_);
    return !poisoned_.ok();
  }
  /// OK, or the sticky poison status.
  Status health() const {
    std::lock_guard<std::mutex> lock(mu_);
    return poisoned_;
  }

 private:
  /// One frame prepared outside the stream mutex: header + body bytes,
  /// plus the blob seal left for the LSN-reservation step (kEncryptedEpoch
  /// inserts: the nonce derives from the record's LSN, which only exists
  /// once the mutex assigns it).
  struct PendingFrame {
    std::string bytes;       // [u32 crc (0 until sealed)][u32 len][body]
    size_t blob_offset = 0;  // into `bytes`; meaningful when blob_length > 0
    size_t blob_length = 0;  // 0 = frame final (CRC already computed)
    ChaCha20::Key key{};     // epoch key for the deferred seal
    /// Earliest phase-0 deadline of the payload (WalRecord carry-through);
    /// min-merged into the segment the frame lands in.
    Micros payload_deadline = kForever;
  };

  /// `<dir>/wal_<start>.log`: the segment whose first record has LSN
  /// `start`.
  std::string SegmentPath(Lsn start) const;
  /// Encodes + checksums `record` into a frame. Plaintext frames come out
  /// final; kEncryptedEpoch inserts carry their blob in plaintext with the
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
  /// Seals + closes the active segment and opens a fresh one. Waits out an
  /// in-flight leader sync first (it holds the writer's fd), and advances
  /// the synced watermark to the sealed end. Caller holds `lock`.
  Status OpenNewSegmentLocked(std::unique_lock<std::mutex>& lock);
  Status PreallocateActiveLocked();
  WalBlobCipher MakeDecryptor(Lsn lsn) const;
  /// Marks the stream sticky-failed (first failure wins) and wakes every
  /// parked committer so they observe the poison. Returns the sticky status.
  Status PoisonLocked(const Status& cause);

  const std::string dir_;
  const WalOptions options_;
  KeyManager* const keys_;
  Env* const env_;

  /// Serializes appenders for the WHOLE append — including the rotation
  /// wait inside OpenNewSegmentLocked, which releases `mu_` while an
  /// in-flight leader sync drains. Without this outer lock a second
  /// appender could slip in through that window and interleave with a
  /// half-done rotation (stale local LSNs, double-sealed segments). Lock
  /// order: append_mu_ before mu_; SyncThrough takes only mu_, so the
  /// sync leader never needs append_mu_ to finish.
  std::mutex append_mu_;
  /// Guards writer state, the segment list, both watermarks and stats.
  mutable std::mutex mu_;
  /// Waits: committers parked on the synced watermark; rotation parked on
  /// an in-flight sync. Notified when either condition can have changed.
  std::condition_variable sync_cv_;

  struct SegmentInfo {
    Lsn start = 0;
    Lsn end = 0;  // exclusive
    /// Earliest phase-0 deadline over the accurate degradable payloads
    /// appended into this segment; kForever when it holds none. Segments
    /// found on disk at Open get 0 ("unknown — assume exposed"): the audit
    /// must not vouch for bytes it never saw appended.
    Micros min_payload_deadline = kForever;
  };
  std::vector<SegmentInfo> segments_;  // sorted by start
  std::unique_ptr<WritableFile> writer_;
  /// Appended watermark: everything below is written (buffered) to the
  /// active segment.
  Lsn next_lsn_ = 0;
  /// Synced watermark: everything below is durable. Advanced by the sync
  /// leader and by segment rotation (which fsyncs the sealed segment).
  Lsn synced_lsn_ = 0;
  /// True while a leader's fdatasync runs with the mutex released. At most
  /// one sync is ever in flight; rotation waits on it.
  bool sync_in_flight_ = false;
  /// Largest LSN any still-waiting committer demands, and how many waiters
  /// demand exactly it. A waiter below the target parks instead of leading
  /// (the target's holder leads and covers it); the last holder to leave
  /// resets the target so smaller demands can lead after an error. The
  /// generation counter advances whenever the target is raised or cleared:
  /// deregistration is generation-checked, so a waiter whose registration
  /// was superseded cannot decrement a later registration that reuses its
  /// LSN.
  Lsn pending_target_ = 0;
  size_t pending_target_holders_ = 0;
  uint64_t pending_generation_ = 0;
  /// Committers inside SyncThrough not yet covered by the watermark (the
  /// sync_waiters() depth signal).
  size_t sync_parked_ = 0;
  /// Active segment preallocation state: when `preallocated_`, the file's
  /// size is durable through `prealloc_end_`, so commit syncs may use
  /// fdatasync for appends below it.
  bool preallocated_ = false;
  Lsn prealloc_end_ = 0;
  /// OK until the first append/sync failure; sticky thereafter (see
  /// poisoned()). Guarded by mu_.
  Status poisoned_;
  Stats stats_;
};

}  // namespace instantdb

#endif  // INSTANTDB_WAL_WAL_STREAM_H_
