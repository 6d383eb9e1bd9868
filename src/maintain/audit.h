#ifndef INSTANTDB_MAINTAIN_AUDIT_H_
#define INSTANTDB_MAINTAIN_AUDIT_H_

#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "db/table.h"
#include "util/worker_pool.h"
#include "wal/wal_manager.h"

namespace instantdb {

/// Per-table slice of an AuditReport (the table-level attack-window view
/// surfaced through Database::stats().maintenance and the benches).
struct TableAuditFindings {
  TableId table = 0;
  std::string name;
  uint64_t rows_scanned = 0;
  /// Degradable values stored MORE accurately than their LCP allows at the
  /// audit horizon — the paper's exposure, counted value-by-value.
  uint64_t exposed_values = 0;
  /// Index postings claiming accuracy the data has lost / postings the
  /// index is missing (per-partition single-latch reconciliation).
  uint64_t stale_index_entries = 0;
  uint64_t missing_index_entries = 0;
  /// Tuples whose every degradable value reached ⊥ yet whose shell still
  /// occupies the heap (the LCP's disappearance step did not run).
  uint64_t overdue_tuples = 0;
  /// Worst attack window found: how long the most overdue value has been
  /// held past its transition deadline (0 when nothing is exposed).
  Micros max_exposure = 0;
  /// Partitions where in-store exposure was found (exposed values, overdue
  /// tuple shells, or stale index postings): their overdue heads put them
  /// first in the DegradationEngine's next, earliest-deadline-first pass.
  /// WAL findings are not partition work and never appear here.
  std::vector<uint32_t> exposed_partitions;
};

/// \brief Result of one deletion-assurance sweep: the *proof side* of timely
/// degradation (paper §V; ROADMAP item 5). Degradation executing is not the
/// deliverable — degradation being VERIFIABLY complete is. Every counter here
/// is a place accurate data could outlive its deadline:
///
///  - `exposed_values`:  live store/heap values more accurate than the LCP
///    permits at `at - grace`.
///  - `stale_index_entries`: multi-resolution index postings at accuracy
///    levels the underlying data has already left (an attacker with index
///    access learns what the store no longer holds).
///  - `overdue_tuples`: fully-degraded tuple shells that should have
///    disappeared.
///  - `exposed_wal_segments`: live WAL segments that may still hold an
///    accurate insert payload past its phase-0 deadline, in every privacy
///    mode (under kCryptoErase a live segment's key is live too).
///  - `unscrubbed_recycled_segments`: segments retired by rename and left
///    on disk (kPlain — the unsafe baseline, permanently flagged).
///
/// `clean()` is the subsystem's acceptance criterion; `Verify()` is the
/// hard-fail form for tests and operators.
struct AuditReport {
  Micros at = 0;     ///< audit instant (clock time the sweep ran at)
  Micros grace = 0;  ///< slack granted before lateness counts as exposure
  uint64_t rows_scanned = 0;
  uint64_t exposed_values = 0;
  uint64_t stale_index_entries = 0;
  uint64_t missing_index_entries = 0;
  uint64_t overdue_tuples = 0;
  uint64_t exposed_wal_segments = 0;
  uint64_t unscrubbed_recycled_segments = 0;
  Micros max_exposure = 0;
  std::vector<TableAuditFindings> tables;

  /// Everything that counts as "accurate data outliving its deadline".
  /// `missing_index_entries` is excluded: a missing posting is a
  /// completeness bug, not retention — it is still surfaced and ToString'd.
  uint64_t total_exposed() const {
    return exposed_values + stale_index_entries + overdue_tuples +
           exposed_wal_segments + unscrubbed_recycled_segments;
  }
  bool clean() const { return total_exposed() == 0 && missing_index_entries == 0; }

  /// Hard-fail API: OK when clean, a Corruption status carrying the counter
  /// breakdown otherwise (retention past a deadline IS corruption of the
  /// privacy contract).
  Status Verify() const;

  std::string ToString() const;
};

/// \brief Morsel-parallel deletion-assurance sweeper.
///
/// One Run() proves (or refutes) timely degradation across every layer that
/// holds sensitive bytes: table storage (page-range morsel sweeps over the
/// same MorselScheduler the parallel read path shards on — `workers` sweep
/// workers claim with partition affinity and steal from the busiest
/// partition, so one large partition is shared instead of serializing the
/// audit), the multi-resolution indexes (TablePartition::AuditIndexes —
/// one shared-latch acquisition per partition, so a live degrader is never
/// observed halfway) and the WAL segment set (WalManager::AuditExposure).
/// Read-only: sweeps take each partition's shared latch a batch at a time
/// and never block writers or the degrader for longer than a scan batch.
class DeletionAuditor {
 public:
  /// `pool` (not owned, must outlive the auditor) is the Database's shared
  /// worker pool the sweep borrows threads from.
  DeletionAuditor(WalManager* wal, size_t workers, WorkerPool& pool)
      : wal_(wal), workers_(workers == 0 ? 1 : workers), pool_(pool) {}

  /// Sweeps `tables` at `now`, granting `grace` of slack: a value is
  /// exposed only when it is still too accurate for the LCP phase expected
  /// at `now - grace`. Pass grace 0 on a VirtualClock where degradation is
  /// pumped; real deployments grant roughly one degradation-pass latency
  /// plus one checkpoint interval.
  AuditReport Run(const std::vector<Table*>& tables, Micros now,
                  Micros grace) const;

 private:
  WalManager* const wal_;
  const size_t workers_;
  WorkerPool& pool_;  // shared Database pool
};

}  // namespace instantdb

#endif  // INSTANTDB_MAINTAIN_AUDIT_H_
