#ifndef INSTANTDB_TXN_LOCK_MANAGER_H_
#define INSTANTDB_TXN_LOCK_MANAGER_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/page.h"

namespace instantdb {

enum class LockMode : uint8_t { kShared = 0, kExclusive = 1 };

/// Lockable resources. Degradation steps lock the *head* of one state store
/// (kStore), so a step conflicts only with readers of that store, not with
/// inserts (which append to phase 0's tail under their own row locks) nor
/// with readers of other accuracy levels.
struct LockKey {
  enum class Kind : uint8_t { kTable = 0, kRow = 1, kStore = 2 };

  TableId table = 0;
  Kind kind = Kind::kTable;
  uint64_t id = 0;  // row id, or (partition << 32)|(column << 16)|phase

  static LockKey Table(TableId table) { return {table, Kind::kTable, 0}; }
  static LockKey Row(TableId table, RowId row) {
    return {table, Kind::kRow, row};
  }
  /// Store keys carry the table partition so degradation steps on distinct
  /// partitions of the same (column, phase) never conflict — that is what
  /// lets the degradation worker pool run them concurrently.
  static LockKey Store(TableId table, int column, int phase,
                       uint32_t partition = 0) {
    return {table, Kind::kStore,
            (static_cast<uint64_t>(partition) << 32) |
                (static_cast<uint64_t>(column) << 16) |
                static_cast<uint64_t>(phase)};
  }

  bool operator==(const LockKey& other) const {
    return table == other.table && kind == other.kind && id == other.id;
  }
};

struct LockKeyHash {
  size_t operator()(const LockKey& key) const {
    size_t h = std::hash<uint64_t>()(key.id);
    h ^= std::hash<uint32_t>()(key.table) + 0x9e3779b97f4a7c15ULL + (h << 6);
    h ^= static_cast<size_t>(key.kind) * 0x100000001b3ULL;
    return h;
  }
};

/// \brief Strict two-phase locking with wait-die deadlock avoidance.
///
/// Wait-die: on conflict, a requester older (smaller txn id) than every
/// conflicting holder blocks; a younger requester is killed immediately
/// (Status::Aborted) and must restart. This guarantees no deadlock cycles
/// while letting the degrader (which runs many short system transactions)
/// coexist with long readers.
class LockManager {
 public:
  LockManager() = default;
  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Acquires (or upgrades to) `mode`. Returns OK when granted, Aborted for
  /// wait-die victims. Re-acquiring an already-held compatible lock is a
  /// no-op.
  Status Acquire(uint64_t txn_id, const LockKey& key, LockMode mode);

  /// Releases one lock (no-op if not held).
  void Release(uint64_t txn_id, const LockKey& key);

  /// Releases everything `txn_id` holds (commit/abort).
  void ReleaseAll(uint64_t txn_id);

  /// Locks currently held by `txn_id` (diagnostics/tests).
  std::vector<LockKey> HeldBy(uint64_t txn_id) const;

  struct Stats {
    uint64_t acquisitions = 0;
    uint64_t waits = 0;          // times a request blocked
    uint64_t die_aborts = 0;     // wait-die victims
  };
  Stats stats() const;

 private:
  struct LockState {
    std::map<uint64_t, LockMode> holders;

    bool CompatibleWith(uint64_t txn_id, LockMode mode) const;
  };

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<LockKey, LockState, LockKeyHash> locks_;
  std::unordered_map<uint64_t, std::vector<LockKey>> held_;
  Stats stats_;
};

}  // namespace instantdb

#endif  // INSTANTDB_TXN_LOCK_MANAGER_H_
