#include "txn/lock_manager.h"

namespace instantdb {

Status LockManager::LockRow(uint64_t txn_id, TableId table, RowId row) {
  const RowKey key{table, row};
  std::unique_lock<std::mutex> lock(mu_);
  bool waited = false;
  for (;;) {
    auto [it, granted] = owner_.try_emplace(key, txn_id);
    if (granted) {
      held_[txn_id].push_back(key);
      ++stats_.acquisitions;
      return Status::OK();
    }
    if (it->second == txn_id) return Status::OK();  // already held
    // Wait-die: die unless older than the holder.
    if (txn_id > it->second) {
      ++stats_.die_aborts;
      return Status::Aborted("wait-die: lock conflict with older txn");
    }
    if (!waited) {
      waited = true;
      ++stats_.waits;
    }
    cv_.wait(lock);
  }
}

void LockManager::ReleaseAll(uint64_t txn_id) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto held = held_.find(txn_id);
    if (held == held_.end()) return;
    for (const RowKey& key : held->second) owner_.erase(key);
    held_.erase(held);
  }
  cv_.notify_all();
}

LockManager::Stats LockManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace instantdb
