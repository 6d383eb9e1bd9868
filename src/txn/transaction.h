#ifndef INSTANTDB_TXN_TRANSACTION_H_
#define INSTANTDB_TXN_TRANSACTION_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "common/status.h"
#include "wal/log_record.h"
#include "wal/wal_manager.h"

namespace instantdb {

enum class TxnState : uint8_t { kActive, kCommitted, kAborted };

/// \brief Transaction context under a deferred-apply, redo-only protocol.
///
/// Statements validate and enqueue WAL records; nothing touches shared
/// storage until Commit, which logs every record followed by a COMMIT
/// record and only then applies the records it logged, through the same
/// function crash recovery replays them with. Consequences:
///  - Abort simply drops the queue — no undo log is ever needed, which
///    matters because undoing a degradation step would mean *resurrecting*
///    an accurate value the engine has promised to forget (paper §III on
///    transaction atomicity vs. degradation).
///  - Crash recovery replays the WAL in two passes: collect committed txn
///    ids, then redo only their records (all redo is idempotent).
///  - The logged record is the whole truth about a commit, so a failed
///    apply can be retried in place: the retry is that idempotent redo.
///
/// The paper's observation that an inserting transaction "generates effects
/// all along the lifetime of the degradation process" needs no transaction
/// here: each degradation step is an in-memory move that writes no log
/// record, because recovery recomputes every value's phase from its insert
/// time (TablePartition::Reconcile).
class Transaction {
 public:
  explicit Transaction(uint64_t id) : id_(id) {}
  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  uint64_t id() const { return id_; }
  TxnState state() const { return state_; }

  /// Queues one logical write for commit time.
  void AddOp(WalRecord record) { ops_.push_back(std::move(record)); }

  /// Partition this transaction's inserts into `table` route to, chosen
  /// once per (transaction, table) by `pick` on first use. Batch-affine
  /// allocation: every row a WriteBatch inserts into one table lands in one
  /// partition, so the commit's apply takes one partition latch instead of
  /// one per partition. Tables rotate the pick across transactions to keep
  /// partitions balanced.
  uint32_t InsertPartition(TableId table,
                           const std::function<uint32_t()>& pick) {
    auto it = insert_partition_.find(table);
    if (it == insert_partition_.end()) {
      it = insert_partition_.emplace(table, pick()).first;
    }
    return it->second;
  }

  bool read_only() const { return ops_.empty(); }

 private:
  friend class TransactionManager;

  const uint64_t id_;
  TxnState state_ = TxnState::kActive;
  std::vector<WalRecord> ops_;
  std::map<TableId, uint32_t> insert_partition_;  // batch-affine inserts
};

/// \brief Allocates transaction ids, drives commit (log → sync → apply) and
/// abort (drop).
///
/// Commit appends under the log mutex and applies outside it, so two
/// commits can apply in the opposite order to their log records. Only one
/// pair of writes cares, and it takes no row lock:
///  - An insert names an id no other transaction can see before the apply.
///  - A delete commutes with every other write of its row: the row is gone
///    whichever applies first, live and in redo, and row ids are never
///    reused. A later apply that finds the row gone changes nothing.
///  - Two stable updates of one row do not commute. A commit that carries
///    any kUpdateStable holds `update_order_mu_` from before its append to
///    the end of its apply, so those commits apply in log order.
class TransactionManager {
 public:
  /// Applies one logged record to storage. The database passes the table
  /// dispatch its WAL redo also runs, so a commit and a recovery apply a
  /// record the same way.
  using ApplyFn = std::function<Status(const WalRecord&)>;

  TransactionManager(WalManager* wal, ApplyFn apply)
      : wal_(wal), apply_(std::move(apply)) {}

  std::unique_ptr<Transaction> Begin();

  /// Raises the id allocator above `txn_id` (crash recovery: a reused id
  /// could attach a new commit marker to a prior generation's torn
  /// transaction, resurrecting its surviving records on the next replay).
  void EnsureTxnIdsAbove(uint64_t txn_id) {
    uint64_t expect = next_txn_id_.load(std::memory_order_relaxed);
    while (txn_id + 1 > expect &&
           !next_txn_id_.compare_exchange_weak(expect, txn_id + 1,
                                               std::memory_order_relaxed)) {
    }
  }

  /// Logs the queued records + COMMIT and applies the records in order.
  /// With `sync` (WriteOptions::sync) it returns only once the log holds
  /// the commit durably; without it a crash can lose the commit until the
  /// next sync or checkpoint. The transaction ends on every path: a failed
  /// log append aborts it. A failed apply is re-run once, from the failing
  /// record on (applies are idempotent); if that fails too the transaction
  /// stays committed, Commit returns the error, and the commit is pending
  /// until CheckpointBeginLsn finishes it.
  Status Commit(Transaction* txn, bool sync = false);

  /// Drops queued work. Always succeeds.
  void Abort(Transaction* txn);

  /// Fuzzy-checkpoint begin LSN: waits for every in-flight commit to
  /// finish its apply phase, then reads the end of the WAL. Guarantees
  /// that every record below the returned LSN has been applied (so a
  /// subsequent storage flush covers it) and every record at or above it
  /// will be replayed on recovery — Commit appends to the WAL before
  /// applying, and without this barrier a checkpoint could slip between
  /// the two and lose a durably committed transaction.
  ///
  /// Pending commits (an apply that failed twice) are finished here first:
  /// the committed log from the oldest one's first LSN on is redone through
  /// the apply function, in log order, as recovery would. A re-apply of a
  /// kept copy out of log order could undo a later update of the same row
  /// or put back a value a later step removed; redo in log order cannot.
  /// While that redo still fails, the returned LSN is that first LSN, so no
  /// manifest moves past a commit storage does not fully hold.
  Lsn CheckpointBeginLsn();

  struct Stats {
    uint64_t started = 0;
    uint64_t committed = 0;
    uint64_t aborted = 0;
    /// Committed transactions whose apply failed twice and that no
    /// checkpoint has finished yet.
    uint64_t commits_pending = 0;
    /// Pending commits a checkpoint finished.
    uint64_t commits_reapplied = 0;
  };
  Stats stats() const;

 private:
  /// Moves `txn` to `state` and drops its queue.
  void End(Transaction* txn, TxnState state);

  WalManager* const wal_;
  const ApplyFn apply_;
  std::atomic<uint64_t> next_txn_id_{1};
  mutable std::mutex mu_;
  /// Held shared across a commit's append+apply window — including the
  /// group-commit durability wait, when the committer parks on the log's
  /// synced-LSN watermark; CheckpointBeginLsn takes it exclusively so
  /// "logged but not yet applied" is impossible at the instant the begin
  /// LSN is read. The park never holds the log mutex (the leader's
  /// fdatasync runs with it released), so commits draining under the
  /// barrier cannot deadlock against concurrent appenders.
  mutable std::shared_mutex commit_mu_;
  /// Held by a commit with a kUpdateStable record from before its append
  /// to the end of its apply, durability wait included, so those commits
  /// apply in log order. Taken before commit_mu_; CheckpointBeginLsn never
  /// takes it.
  std::mutex update_order_mu_;
  Stats stats_;
  /// First LSN of the oldest pending commit; meaningful while
  /// stats_.commits_pending > 0. Guarded by mu_.
  Lsn pending_lsn_ = 0;
};

}  // namespace instantdb

#endif  // INSTANTDB_TXN_TRANSACTION_H_
