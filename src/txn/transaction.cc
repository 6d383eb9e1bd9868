#include "txn/transaction.h"

#include <cassert>

namespace instantdb {

std::unique_ptr<Transaction> TransactionManager::Begin() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.started;
  }
  return std::make_unique<Transaction>(
      next_txn_id_.fetch_add(1, std::memory_order_relaxed));
}

Status TransactionManager::Commit(Transaction* txn, bool sync) {
  assert(txn->state_ == TxnState::kActive);
  if (!txn->ops_.empty()) {
    // Stable updates apply in log order (see the class comment).
    std::unique_lock<std::mutex> update_order(update_order_mu_,
                                              std::defer_lock);
    for (const WalRecord& op : txn->ops_) {
      if (op.type == WalRecordType::kUpdateStable) {
        update_order.lock();
        break;
      }
    }
    // The append+apply window must look atomic to CheckpointBeginLsn: a
    // checkpoint begin LSN captured between the two would exclude this
    // durably logged transaction from both the flush and the replay range.
    std::shared_lock<std::shared_mutex> commit_window(commit_mu_);
    // Group commit: every queued record plus the COMMIT marker goes to the
    // log as one buffered write (frames encoded before the log mutex is
    // taken), and durability is a wait on the synced-LSN watermark — at
    // most one sync, and under concurrency usually somebody else's: the
    // sync leader absorbs every committer parked on the watermark.
    // The COMMIT marker joins the record list, so a torn tail that loses
    // any record loses the marker too.
    std::vector<WalRecord>& ops = txn->ops_;
    const size_t count = ops.size();
    ops.emplace_back().type = WalRecordType::kCommit;
    std::vector<const WalRecord*> records;
    records.reserve(ops.size());
    for (WalRecord& op : ops) {
      op.txn_id = txn->id_;
      records.push_back(&op);
    }
    const Result<Lsn> logged = wal_->AppendBatch(records, sync);
    if (!logged.ok()) {
      // The commit never became durable and nothing was applied: treat it
      // as an abort.
      End(txn, TxnState::kAborted);
      return logged.status();
    }
    // Point of no return: the transaction is durable; now surface it. A
    // failed apply is re-run once from the failing record: every apply is
    // the idempotent redo, so records already applied in part converge. A
    // failure that outlasts the retry still ends the transaction; the next
    // checkpoint finishes it (CheckpointBeginLsn).
    for (size_t i = 0; i < count; ++i) {
      if (apply_(ops[i]).ok()) continue;
      for (size_t j = i; j < count; ++j) {
        const Status applied = apply_(ops[j]);
        if (!applied.ok()) {
          {
            std::lock_guard<std::mutex> lock(mu_);
            if (stats_.commits_pending++ == 0 || *logged < pending_lsn_) {
              pending_lsn_ = *logged;
            }
          }
          End(txn, TxnState::kCommitted);
          return applied;
        }
      }
      break;
    }
  }
  End(txn, TxnState::kCommitted);
  return Status::OK();
}

Lsn TransactionManager::CheckpointBeginLsn() {
  // Exclusive acquisition drains every in-flight commit's append+apply
  // window; while held no new commit can log, so everything below the LSN
  // read here is fully applied and no transaction straddles it.
  std::unique_lock<std::shared_mutex> barrier(commit_mu_);
  uint64_t pending = 0;
  Lsn from = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending = stats_.commits_pending;
    from = pending_lsn_;
  }
  if (pending > 0) {
    if (!wal_->RecoverCommitted(from, apply_).ok()) return from;
    std::lock_guard<std::mutex> lock(mu_);
    stats_.commits_pending = 0;
    stats_.commits_reapplied += pending;
  }
  return wal_->next_lsn();
}

void TransactionManager::Abort(Transaction* txn) {
  if (txn->state_ != TxnState::kActive) return;
  End(txn, TxnState::kAborted);
}

void TransactionManager::End(Transaction* txn, TxnState state) {
  txn->ops_.clear();
  txn->state_ = state;
  std::lock_guard<std::mutex> lock(mu_);
  ++(state == TxnState::kCommitted ? stats_.committed : stats_.aborted);
}

TransactionManager::Stats TransactionManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace instantdb
