#ifndef INSTANTDB_DB_SCAN_SPEC_H_
#define INSTANTDB_DB_SCAN_SPEC_H_

#include <cstdint>
#include <vector>

#include "storage/record.h"

/// \file
/// \brief Pushdown contract between the storage/db layer and the query
/// layer: what a scan may evaluate BELOW row assembly, and the compact
/// per-row state it hands up instead of assembled rows.
///
/// A heap scan reads each record while it is still in the buffer pool, as
/// a row id plus the worker's FieldView array — borrowed integers, doubles
/// and string views, nothing allocated — and the stable filter runs on
/// those views. The views come from one of two sources
/// (HeapFile::ScanFields): the frame's decoded page image
/// (storage/page_image.h), which a page gets on its second field-reading
/// range-scan fetch since it was loaded or last written, or else a walk of
/// the record with WalkHeapRecord (storage/record.h). So between two writes
/// to a cached page, field-reading range scans walk its records at most
/// twice, however many read it. Only a survivor gets Values, and only for
/// the stable columns its consumer reads, built from the same views; only
/// a survivor's insertion time is read from its record header. Then one
/// sorted merge per (degradable column, phase) over that state store's
/// contiguous row-id array resolves each of its degradable cells to the
/// stored phase and leaf ordinal — all a store keeps of a value in memory
/// (storage/state_store.h). The query layer implements TupleFilter (it owns
/// predicate semantics), runs σ and f_k on the ordinals
/// (DomainHierarchy::AncestorRange/AncestorValue) and builds degradable
/// Values only for the qualifying cells that leave the scan; this header
/// keeps the db layer free of any query dependency.

namespace instantdb {

/// Row predicate over a heap record's stable fields, evaluated inside the
/// scan on the record's FieldViews, before any Value is built or state
/// store touched. Implementations live in the query layer
/// (query/predicate.h); the db layer only calls through this interface.
class TupleFilter {
 public:
  virtual ~TupleFilter() = default;
  /// True when the record's STABLE fields satisfy the filter. `fields`
  /// holds one view per stable ordinal (Schema::stable_columns()), valid
  /// only during the call; degradable columns must not be consulted.
  virtual bool Matches(const FieldView* fields) const = 0;
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
  /// One flag per stable ordinal (Schema::stable_columns()).
  /// `filter_columns`: the columns the filter reads — the only views the
  /// filter may read when the record comes from a page image (an empty
  /// vector lets it read every view). `output_columns`: the columns the
  /// consumer reads from a survivor — the only ones it gets Values for;
  /// unflagged slots stay NULL. The flags also drive the decode accounting
  /// (ScanDeltas), and a range scan that reads any of these columns counts
  /// toward the page images (storage/buffer_pool.h).
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
  /// Stable fields σ and π read: the filter's columns for every tuple
  /// examined plus the other output columns for every survivor.
  uint64_t values_decoded = 0;
  uint64_t values_built = 0;     ///< stable Values constructed (survivors)
  /// Physical work below σ: heap records walked with WalkHeapRecord (page
  /// image builds included; a record read from an image is not walked),
  /// and page images built.
  uint64_t records_walked = 0;
  uint64_t page_images_built = 0;
};

/// One pushdown batch's surviving rows plus the scratch that produced them,
/// owned by the consumer — one per scan worker — and refilled by every
/// batch, so a steady-state scan stops allocating. The surviving rows are
/// valid until the next batch; a consumer may move stable values out of
/// them (each output slot is rebuilt before its next use).
struct ScanWorkspace {
  /// Survivors in heap order: tuples[0, count) hold the row id, insert time
  /// and the stable Values of ScanSpec::output_columns. Slots past `count`
  /// keep their capacity. A count-only batch leaves them untouched.
  std::vector<HeapTuple> tuples;
  size_t count = 0;
  /// The record being examined, one view per stable ordinal: every field
  /// of a walked record; from a page image, the fields σ reads, and for a
  /// survivor its output fields too.
  std::vector<FieldView> fields;
  /// Stable ordinals whose views every record examined needs (the
  /// filter's; the outputs when no filter runs), and those only a survivor
  /// needs (its other outputs).
  std::vector<uint32_t> every_record_fields;
  std::vector<uint32_t> survivor_fields;
  /// Survivor k's stored phase (lcp.num_phases() = removed) and leaf
  /// ordinal at that phase's level (-1 when removed) of degradable column
  /// d, at [k * degradable columns + d] — all a scan learns of a stored
  /// value. Filled only under ScanSpec::need_degradable.
  std::vector<int> phases;
  std::vector<int64_t> ordinals;
  /// Probe scratch: survivor positions sorted by row id, their ids, and the
  /// leaf ordinals StateStore::FindMany writes for one column's phase chain
  /// (-1 until a phase's store holds the row), in that sorted order.
  std::vector<uint32_t> order;
  std::vector<RowId> ids;
  std::vector<int64_t> probe;
};

}  // namespace instantdb

#endif  // INSTANTDB_DB_SCAN_SPEC_H_
