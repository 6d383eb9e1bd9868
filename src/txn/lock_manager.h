#ifndef INSTANTDB_TXN_LOCK_MANAGER_H_
#define INSTANTDB_TXN_LOCK_MANAGER_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/page.h"

namespace instantdb {

/// \brief Exclusive row locks for user writes, held until commit or abort,
/// with wait-die deadlock avoidance.
///
/// Only `Table::Delete` and `Table::UpdateStable` lock, one row each. The
/// lock orders writers of one row: Commit appends to the WAL and applies
/// afterwards, so without it two updates of one row could apply in the
/// opposite order to their log records and redo would diverge from the
/// live state. Nothing else locks: inserts mint ids no other transaction
/// can name, readers see one latch-consistent batch at a time, and
/// degradation is a system action serialized by the partition latch and
/// apply-time checks, so no user transaction can hold it back.
///
/// Wait-die: a requester older (smaller txn id) than the holder blocks; a
/// younger one is killed at once (Status::Aborted) and must restart.
class LockManager {
 public:
  LockManager() = default;
  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Locks `row` of `table` for `txn_id`. OK when granted (or already
  /// held), Aborted for a wait-die victim.
  Status LockRow(uint64_t txn_id, TableId table, RowId row);

  /// Releases everything `txn_id` holds (commit/abort).
  void ReleaseAll(uint64_t txn_id);

  struct Stats {
    uint64_t acquisitions = 0;
    uint64_t waits = 0;          // times a request blocked
    uint64_t die_aborts = 0;     // wait-die victims
  };
  Stats stats() const;

 private:
  using RowKey = std::pair<TableId, RowId>;
  struct RowKeyHash {
    size_t operator()(const RowKey& key) const {
      return std::hash<uint64_t>()(key.second) ^
             (std::hash<uint32_t>()(key.first) * 0x9e3779b97f4a7c15ULL);
    }
  };

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<RowKey, uint64_t, RowKeyHash> owner_;  // row → txn
  std::unordered_map<uint64_t, std::vector<RowKey>> held_;
  Stats stats_;
};

}  // namespace instantdb

#endif  // INSTANTDB_TXN_LOCK_MANAGER_H_
