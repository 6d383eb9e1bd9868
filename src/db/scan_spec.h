#ifndef INSTANTDB_DB_SCAN_SPEC_H_
#define INSTANTDB_DB_SCAN_SPEC_H_

#include <cstdint>
#include <vector>

#include "storage/record.h"
#include "storage/state_store.h"

/// \file
/// \brief Pushdown contract between the storage/db layer and the query
/// layer: what a scan may evaluate BELOW row assembly, and the compact
/// per-row state it hands up instead of assembled rows.
///
/// A heap scan decodes, per tuple, only the stable columns its filter
/// reads and tests the filter right there, while the record is still in
/// the buffer pool. Survivors then get their projected-only stable columns
/// decoded (a second pass over the same record) and one sorted state-store
/// merge per (degradable column, phase) that resolves each degradable cell
/// to its stored phase and leaf ordinal — never to the stored Value. The
/// query layer implements TupleFilter (it owns predicate semantics), runs
/// σ and f_k on the ordinals (DomainHierarchy::AncestorRange/AncestorValue)
/// and builds Values only for the qualifying cells that leave the scan;
/// this header keeps the db layer free of any query dependency.

namespace instantdb {

/// Row predicate over a decoded heap tuple's stable columns, evaluated
/// inside the scan before any state store is touched. Implementations live
/// in the query layer (query/predicate.h); the db layer only calls through
/// this interface.
class TupleFilter {
 public:
  virtual ~TupleFilter() = default;
  /// True when the tuple's STABLE columns satisfy the filter. Only the
  /// columns ScanSpec::filter_columns flags are decoded when it runs;
  /// degradable columns must not be consulted.
  virtual bool Matches(const HeapTuple& tuple) const = 0;
};

/// What a pushdown scan should compute per batch. Value-semantic and
/// read-only during the scan; the filter (when set) must outlive it.
struct ScanSpec {
  /// Stable-column filter; nullptr scans unfiltered (every tuple survives).
  const TupleFilter* filter = nullptr;
  /// When false the scan skips the state-store probes entirely and leaves
  /// the survivors' phases and ordinals unset — for statements that
  /// reference no degradable column.
  bool need_degradable = true;
  /// The consumer reads no column of a surviving row (COUNT(*) with
  /// stable-only or no predicates): the batch keeps no tuple and reports
  /// its survivors only through ScanDeltas (rows_scanned -
  /// rows_prefiltered). Implies no store probe.
  bool count_only = false;
  /// One flag per stable ordinal (Schema::stable_columns()). The columns
  /// the filter reads are decoded for every tuple examined; the columns
  /// that only leave the scan are decoded for survivors only. Unflagged
  /// columns stay NULL. Without a filter every tuple survives, so the
  /// output columns are decoded in the first pass.
  std::vector<bool> filter_columns;
  std::vector<bool> output_columns;
};

/// Per-scan counter deltas, filled by the partition while it holds its
/// latch (plain integers — the query layer folds them into the database's
/// atomic counters outside the latch). The accounting invariant, asserted
/// in tests: probes_issued + probes_skipped == rows_scanned × number of
/// degradable columns — every (row, degradable column) pair is either
/// probed or provably not needed.
struct ScanDeltas {
  uint64_t rows_scanned = 0;     ///< heap tuples examined
  uint64_t rows_prefiltered = 0; ///< rejected by the stable filter
  uint64_t probes_issued = 0;    ///< (row, column) store resolutions performed
  uint64_t probes_skipped = 0;   ///< (row, column) resolutions avoided
  uint64_t values_decoded = 0;   ///< stable values decoded, both passes
};

/// One pushdown batch's surviving rows plus the scratch that produced them,
/// owned by the consumer — one per scan worker — and refilled by every
/// batch, so a steady-state scan stops allocating. The surviving rows are
/// valid until the next batch; a consumer may move stable values out of
/// them (each slot is re-decoded before its next use).
struct ScanWorkspace {
  /// Survivors in heap order: tuples[0, count) hold the row id, insert time
  /// and decoded stable values. Slots past `count` keep their capacity.
  std::vector<HeapTuple> tuples;
  size_t count = 0;
  /// Survivor k's stored phase (lcp.num_phases() = removed) and leaf
  /// ordinal at that phase's level (-1 when removed or not a hierarchy
  /// node) of degradable column d, at [k * degradable columns + d]. Filled
  /// only under ScanSpec::need_degradable.
  std::vector<int> phases;
  std::vector<int64_t> ordinals;
  /// Probe scratch: survivor positions sorted by row id, their ids, and one
  /// column's per-survivor probe results.
  std::vector<uint32_t> order;
  std::vector<RowId> ids;
  std::vector<const StoreEntry*> entries;
};

}  // namespace instantdb

#endif  // INSTANTDB_DB_SCAN_SPEC_H_
