#ifndef INSTANTDB_DB_SCAN_SPEC_H_
#define INSTANTDB_DB_SCAN_SPEC_H_

#include <cstdint>
#include <vector>

#include "storage/record.h"
#include "storage/state_store.h"

/// \file
/// \brief Pushdown contract between the storage/db layer and the query
/// layer: what a scan may evaluate BELOW row assembly.
///
/// The dominant per-row scan cost is RowView assembly — one state-store
/// probe per degradable column — paid before σ ever runs. A ScanSpec lets
/// the consumer push the stable-column part of σ underneath that cost: the
/// partition decodes heap tuples, runs the filter batch-at-a-time on the
/// decoded stable values, and probes the state stores only for the
/// surviving rows (one sorted merge per store instead of one binary search
/// per row). The query layer implements TupleFilter (it owns predicate
/// semantics); this header keeps the db layer free of any query dependency.

namespace instantdb {

/// Batch predicate over decoded heap tuples, evaluated before any state
/// store is touched. Implementations live in the query layer
/// (query/predicate.h); the db layer only calls through this interface.
class TupleFilter {
 public:
  virtual ~TupleFilter() = default;
  /// Fills `*sel` (cleared by the caller) with the indexes, in ascending
  /// order, of the tuples in [tuples, tuples + n) whose STABLE columns
  /// satisfy the filter. Degradable columns must not be consulted — under
  /// the kStateStores layout they are not present in the tuple at all.
  virtual void SelectStable(const HeapTuple* tuples, size_t n,
                            std::vector<uint32_t>* sel) const = 0;
};

/// What a pushdown scan should compute per batch. Value-semantic and
/// read-only during the scan; the filter (when set) must outlive it.
struct ScanSpec {
  /// Stable-column pre-filter; nullptr scans unfiltered (every decoded
  /// tuple survives to assembly).
  const TupleFilter* filter = nullptr;
  /// When false the scan skips the state-store probes entirely and leaves
  /// every degradable value NULL at phase 0 — the COUNT(*) fast path for
  /// queries that reference no degradable column. The caller asserts that
  /// no consumer reads the degradable part of the emitted rows.
  bool need_degradable = true;
  /// One flag per stable ordinal (Schema::stable_columns()): the stable
  /// values the consumer reads, through the filter or in the emitted rows.
  /// The decoder skips the others and leaves them NULL. Empty decodes every
  /// stable column.
  std::vector<bool> stable_needed;
};

/// Per-scan counter deltas, filled by the partition while it holds its
/// latch (plain integers — the query layer folds them into the database's
/// atomic counters outside the latch). The accounting invariant, asserted
/// in tests: probes_issued + probes_skipped == rows_scanned × number of
/// degradable columns — every (row, degradable column) pair is either
/// probed or provably not needed.
struct ScanDeltas {
  uint64_t rows_scanned = 0;     ///< heap tuples decoded
  uint64_t rows_prefiltered = 0; ///< rejected by the stable filter pre-assembly
  uint64_t probes_issued = 0;    ///< (row, column) store resolutions performed
  uint64_t probes_skipped = 0;   ///< (row, column) resolutions avoided
  uint64_t values_decoded = 0;   ///< stable values materialized by decode
};

/// Scratch a pushdown scan reuses across batches (decoded-tuple slots,
/// selection vectors, probe arrays): owned by the consumer — one per scan
/// worker — so a steady-state scan stops allocating. Contents are
/// meaningless between calls.
struct ScanWorkspace {
  /// Decoded tuple slots; the valid prefix is [0, count). Kept instead of
  /// cleared so the per-tuple value vectors keep their capacity.
  std::vector<HeapTuple> tuples;
  size_t count = 0;
  std::vector<uint32_t> selection;  ///< surviving tuple indexes (heap order)
  std::vector<uint32_t> order;      ///< survivor positions sorted by row id
  std::vector<RowId> ids;           ///< survivor row ids, ascending
  std::vector<const StoreEntry*> entries;  ///< per-survivor probe results
  std::vector<int> phases;                 ///< per-survivor resolved phases
};

}  // namespace instantdb

#endif  // INSTANTDB_DB_SCAN_SPEC_H_
