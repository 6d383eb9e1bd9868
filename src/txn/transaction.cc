#include "txn/transaction.h"

#include <cassert>

namespace instantdb {

std::unique_ptr<Transaction> TransactionManager::Begin() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.started;
  }
  return std::make_unique<Transaction>(
      next_txn_id_.fetch_add(1, std::memory_order_relaxed), locks_);
}

Status TransactionManager::Commit(Transaction* txn, bool sync) {
  assert(txn->state_ == TxnState::kActive);
  if (!txn->ops_.empty()) {
    // The append+apply window must look atomic to CheckpointBeginLsn: a
    // checkpoint begin LSN captured between the two would exclude this
    // durably logged transaction from both the flush and the replay range.
    std::shared_lock<std::shared_mutex> commit_window(commit_mu_);
    // Group commit: every queued record plus the COMMIT marker goes to the
    // log as one buffered write (frames encoded before the log mutex is
    // taken), and durability is a wait on the synced-LSN watermark — at
    // most one sync, and under concurrency usually somebody else's: the
    // sync leader absorbs every committer parked on the watermark.
    WalRecord commit;
    commit.type = WalRecordType::kCommit;
    commit.txn_id = txn->id_;
    std::vector<const WalRecord*> records;
    records.reserve(txn->ops_.size());
    for (Transaction::PendingOp& op : txn->ops_) {
      op.record.txn_id = txn->id_;
      records.push_back(&op.record);
    }
    const Status logged = wal_->AppendCommit(records, commit, sync);
    if (!logged.ok()) {
      // The commit never became durable and nothing was applied: treat it
      // as an abort so a WAL failure cannot leak 2PL locks for the rest of
      // the process lifetime.
      txn->ops_.clear();
      txn->state_ = TxnState::kAborted;
      locks_->ReleaseAll(txn->id_);
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.aborted;
      return logged;
    }
    // Point of no return: the transaction is durable; now surface it.
    for (Transaction::PendingOp& op : txn->ops_) {
      IDB_RETURN_IF_ERROR(op.apply());
    }
  }
  txn->state_ = TxnState::kCommitted;
  locks_->ReleaseAll(txn->id_);
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.committed;
  return Status::OK();
}

Lsn TransactionManager::CheckpointBeginLsn() {
  // Exclusive acquisition drains every in-flight commit's append+apply
  // window; while held no new commit can log, so everything below the LSN
  // read here is fully applied and no transaction straddles it.
  std::unique_lock<std::shared_mutex> barrier(commit_mu_);
  return wal_->next_lsn();
}

void TransactionManager::Abort(Transaction* txn) {
  if (txn->state_ != TxnState::kActive) return;
  txn->ops_.clear();
  txn->state_ = TxnState::kAborted;
  locks_->ReleaseAll(txn->id_);
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.aborted;
}

TransactionManager::Stats TransactionManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace instantdb
