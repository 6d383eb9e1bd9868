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
#include "util/worker_pool.h"
#include "wal/log_record.h"
#include "wal/wal_stream.h"

namespace instantdb {

/// \brief Sharded redo log: a router over N independent WalStreams with
/// global commit ordering and degradation-aware retirement.
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
///  - kScrub: retired segments are zero-overwritten, synced, and unlinked —
///    per stream, so retirement proceeds stream-by-stream.
///  - kEncryptedEpoch: each insert's degradable payload is encrypted under
///    a per-(table, epoch) key shared by every stream. Destroying the key
///    makes all log copies in all streams unreadable at once.
///
/// Sharding: records route to stream `row_id % N` — the same hash the
/// tables use for partitioning — so a partition's redo lives in exactly one
/// stream whenever the stream count divides the partition count. Commits
/// serialize only on the streams they touch; their syncs overlap in the
/// I/O layer instead of queueing behind one file. `WalOptions::wal_streams`
/// picks N at creation; the count is persisted in `<dir>/STREAMS` and a
/// reopen keeps the on-disk count (re-routing would strand old records).
/// N = 1 stores segments directly under the log directory — byte-for-byte
/// the pre-sharding layout — while N > 1 gives stream k the subdirectory
/// `s<k>`.
///
/// Commit ordering: AppendCommit stamps every commit frame with a global
/// commit sequence number (CSN) plus the number of records the transaction
/// appended to each stream. Recovery scans streams in parallel, accepts a
/// transaction only when its commit frame AND all its per-stream records
/// survived (a torn tail in one stream atomically voids a cross-stream
/// commit that was never acknowledged), and replays either stream-parallel
/// (when partitions map wholly into streams) or merged in CSN order.
///
/// Checkpoints: one CHECKPOINT manifest records the per-stream vector of
/// replay-start LSNs; fuzzy checkpoints and segment retirement proceed
/// stream-by-stream against it.
class Env;

class WalManager {
 public:
  /// `env` == nullptr uses Env::Default(); the same env is handed to every
  /// stream, so all physical log I/O funnels through one seam.
  WalManager(std::string dir, const WalOptions& options, KeyManager* keys,
             Env* env = nullptr);
  ~WalManager();
  WalManager(const WalManager&) = delete;
  WalManager& operator=(const WalManager&) = delete;

  /// Resolves the stream count (persisted STREAMS file wins; a legacy
  /// single-stream layout pins 1) and opens every stream, truncating torn
  /// tails.
  Status Open();

  uint32_t num_streams() const {
    return static_cast<uint32_t>(streams_.size());
  }

  /// Stream a record routes to: row records by `row_id % N`, degradation
  /// steps by their first entry's row id (all entries of one step share a
  /// partition), everything else by transaction id.
  uint32_t StreamOf(const WalRecord& record) const;

  /// Appends one record to its stream; returns its stream-local LSN.
  Result<Lsn> Append(const WalRecord& record, bool sync);

  /// Group append: routes each record to its stream and appends each
  /// stream's run as one buffered write + at most one sync. Returns the
  /// stream-local LSN of the first record. (Transactions commit through
  /// AppendCommit instead, which adds the cross-stream atomicity metadata.)
  Result<Lsn> AppendBatch(const std::vector<const WalRecord*>& records,
                          bool sync);

  /// Transaction commit: routes `ops` to their streams, stamps `commit`
  /// with the next global commit sequence number and the per-stream record
  /// counts, appends it to the stream of the first op (so a stream-local
  /// transaction costs one write on one stream), and when `sync` (or
  /// WalOptions::sync_on_commit) blocks until every touched stream's synced
  /// watermark covers this transaction's bytes — at most one sync per
  /// stream, and under concurrency usually a *shared* one: the stream's
  /// group-commit leader absorbs every committer parked on the watermark.
  /// With one stream this degenerates to exactly the unsharded group
  /// commit: ops and the unstamped commit marker in one buffered write,
  /// byte-identical to the pre-sharding log.
  Status AppendCommit(const std::vector<const WalRecord*>& ops,
                      WalRecord* commit, bool sync);

  /// Syncs every stream.
  Status Sync();

  /// End of stream 0 (the whole log when unsharded; tests and single-stream
  /// tools).
  Lsn next_lsn() const { return streams_[0]->next_lsn(); }

  /// Per-stream end-of-log vector, indexed by stream id. The commit barrier
  /// (TransactionManager::CheckpointBeginPositions) snapshots this with no
  /// commit in flight, so no transaction straddles the returned positions.
  std::vector<Lsn> StreamEnds() const;

  /// Durably checkpoints every stream: appends a kCheckpoint record and
  /// rotates per stream, writes the CHECKPOINT manifest carrying the whole
  /// replay-start vector, then retires fully-covered segments per the
  /// privacy mode, stream by stream. `replay_from` must be captured BEFORE
  /// flushing the storage state the checkpoint covers (fuzzy-checkpoint
  /// begin positions — with incremental checkpointing, the element-wise
  /// minimum of the per-partition low-water marks); pass an empty vector
  /// when no writes are in flight (quiescent form: each stream covers
  /// everything logged so far). Returns the vector replay must start from
  /// after a crash. The on-disk CHECKPOINT format is unchanged: one-stream
  /// manifests keep the legacy single-LSN layout.
  Result<std::vector<Lsn>> LogCheckpointAll(const std::vector<Lsn>& replay_from);

  /// Replay-start vector recorded by the last completed checkpoint; zeros
  /// if none.
  Result<std::vector<Lsn>> ReadCheckpointPositions() const;

  /// Replays stream 0 (the whole log when unsharded) in stream order.
  Status Replay(Lsn from,
                const std::function<Status(const WalRecord&, Lsn)>& fn) const;

  /// Replays one stream in stream order from `from`.
  Status ReplayStream(uint32_t stream, Lsn from,
                      const std::function<Status(const WalRecord&, Lsn)>& fn) const;

  /// Two-pass sharded recovery. Pass 1 scans every stream from its
  /// checkpoint position (one thread per stream) and derives the committed
  /// transaction set: a commit frame must be present and, when it carries
  /// per-stream record counts, every counted record must have survived its
  /// stream's torn-tail truncation — so a cross-stream commit that lost
  /// records in one stream is voided atomically. Pass 2 redoes the data
  /// records of committed transactions: when `stream_local_apply` (every
  /// table partition maps wholly into one stream, so all conflicting
  /// records share a stream) streams replay in parallel, one task each;
  /// otherwise records are merged and applied globally in commit-sequence
  /// order. Both passes run their per-stream tasks on `pool`
  /// (WorkerPool::Run, the caller participating). `redo` must be
  /// thread-safe in the parallel case.
  ///
  /// Recovery also advances the global commit sequence past everything
  /// scanned (a reopened log must never mint CSNs that collide with live
  /// pre-crash frames, or a second crash would mis-order the merge), and
  /// reports the largest transaction id seen via `max_txn_id` (when
  /// non-null) so the transaction manager can resume above it — a reused
  /// txn id could satisfy a torn transaction's record counts with a prior
  /// generation's records.
  Status RecoverCommitted(const std::vector<Lsn>& from, bool stream_local_apply,
                          WorkerPool& pool,
                          const std::function<Status(const WalRecord&)>& redo,
                          uint64_t* max_txn_id = nullptr);

  /// kEncryptedEpoch: destroys the keys of every epoch of `table` that ends
  /// at or before `safe_time` (all its tuples have left phase 0). Keys are
  /// shared across streams, so this kills every stream's copies at once.
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

  /// Earliest phase-0 payload deadline still held by any live segment of
  /// any stream; kForever when the log holds no degradable payload. Drives
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
    /// Streams whose sync failed and that now fail every append/sync fast
    /// (see WalStream::poisoned()). Non-zero means the log has lost its
    /// durability guarantee until reopen.
    uint64_t poisoned_streams = 0;
  };
  /// Aggregated over streams.
  Stats stats() const;

  /// Committers currently parked on any stream's group-commit sync
  /// watermark (Σ WalStream::sync_waiters). The service front end's WAL
  /// backpressure signal.
  size_t SyncWaiters() const {
    size_t waiters = 0;
    for (const auto& stream : streams_) waiters += stream->sync_waiters();
    return waiters;
  }
  WalStream::Stats stream_stats(uint32_t stream) const {
    return streams_[stream]->stats();
  }

  const std::string& dir() const { return dir_; }

 private:
  std::string StreamDir(uint32_t stream) const;
  std::string StreamCountPath() const { return dir_ + "/STREAMS"; }
  Result<uint32_t> ResolveStreamCount() const;
  Status WriteManifest(const std::vector<Lsn>& lsns);

  const std::string dir_;
  const WalOptions options_;
  KeyManager* const keys_;
  Env* const env_;

  std::vector<std::unique_ptr<WalStream>> streams_;

  /// Global commit sequence: stamped into commit frames when sharded so
  /// recovery can order commits across streams. 0 marks "unstamped"
  /// (single-stream and legacy logs, ordered by the log itself).
  std::atomic<uint64_t> next_commit_seq_{1};

  /// Serializes whole checkpoints (rotate → manifest → retire). Multiple
  /// drivers checkpoint concurrently (the maintenance daemon's cadence vs.
  /// caller-driven Database::Checkpoint): unserialized, both would write
  /// CHECKPOINT.tmp and race the rename — and an interleaving could stamp
  /// an older LSN vector over a newer manifest, regressing the durable
  /// replay pointer. Appends/syncs never take this.
  std::mutex checkpoint_mu_;

  /// Guards the epoch watermark map (keys are shared across streams).
  mutable std::mutex epoch_mu_;
  std::map<TableId, uint64_t> epoch_watermark_;  // first not-yet-destroyed
  std::atomic<uint64_t> epoch_keys_destroyed_{0};
};

}  // namespace instantdb

#endif  // INSTANTDB_WAL_WAL_MANAGER_H_
