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
#include "txn/lock_manager.h"
#include "wal/log_record.h"
#include "wal/wal_manager.h"

namespace instantdb {

enum class TxnState : uint8_t { kActive, kCommitted, kAborted };

/// \brief Transaction context under a deferred-apply, redo-only protocol.
///
/// Statements validate, acquire 2PL locks and enqueue (WAL record, apply
/// closure) pairs; nothing touches shared storage until Commit, which logs
/// every record followed by a COMMIT record and only then runs the apply
/// closures. Consequences:
///  - Abort (user abort or wait-die victim) simply drops the queue — no
///    undo log is ever needed, which matters because undoing a degradation
///    step would mean *resurrecting* an accurate value the engine has
///    promised to forget (paper §III on transaction atomicity vs.
///    degradation).
///  - Crash recovery replays the WAL in two passes: collect committed txn
///    ids, then redo only their records (all redo is idempotent).
///
/// The paper's observation that an inserting transaction "generates effects
/// all along the lifetime of the degradation process" shows up here as
/// system transactions: each degradation step commits separately, long
/// after the inserting transaction committed.
class Transaction {
 public:
  struct PendingOp {
    WalRecord record;
    std::function<Status()> apply;
  };

  Transaction(uint64_t id, LockManager* locks) : id_(id), locks_(locks) {}
  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  uint64_t id() const { return id_; }
  TxnState state() const { return state_; }

  /// 2PL lock acquisition (wait-die may return Aborted; the caller must
  /// then Abort() this transaction and retry with a fresh one).
  Status Lock(const LockKey& key, LockMode mode) {
    return locks_->Acquire(id_, key, mode);
  }

  /// Queues one logical write for commit time.
  void AddOp(WalRecord record, std::function<Status()> apply) {
    ops_.push_back({std::move(record), std::move(apply)});
  }

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

  const std::vector<PendingOp>& ops() const { return ops_; }
  bool read_only() const { return ops_.empty(); }

 private:
  friend class TransactionManager;

  const uint64_t id_;
  LockManager* const locks_;
  TxnState state_ = TxnState::kActive;
  std::vector<PendingOp> ops_;
  std::map<TableId, uint32_t> insert_partition_;  // batch-affine inserts
};

/// \brief Allocates transaction ids, drives commit (log → sync → apply →
/// release) and abort (drop → release).
class TransactionManager {
 public:
  TransactionManager(LockManager* locks, WalManager* wal)
      : locks_(locks), wal_(wal) {}

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

  /// Logs the queued records + COMMIT, optionally syncs, applies the
  /// closures in order, and releases all locks.
  Status Commit(Transaction* txn, bool sync = false);

  /// Drops queued work and releases locks. Always succeeds.
  void Abort(Transaction* txn);

  /// Fuzzy-checkpoint begin LSN: waits for every in-flight commit to
  /// finish its apply phase, then reads the end of the WAL. Guarantees
  /// that every record below the returned LSN has been applied (so a
  /// subsequent storage flush covers it) and every record at or above it
  /// will be replayed on recovery — Commit appends to the WAL before
  /// applying, and without this barrier a checkpoint could slip between
  /// the two and lose a durably committed transaction.
  Lsn CheckpointBeginLsn();

  struct Stats {
    uint64_t started = 0;
    uint64_t committed = 0;
    uint64_t aborted = 0;
  };
  Stats stats() const;

 private:
  LockManager* const locks_;
  WalManager* const wal_;
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
  Stats stats_;
};

}  // namespace instantdb

#endif  // INSTANTDB_TXN_TRANSACTION_H_
