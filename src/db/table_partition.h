#ifndef INSTANTDB_DB_TABLE_PARTITION_H_
#define INSTANTDB_DB_TABLE_PARTITION_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "common/clock.h"
#include "common/options.h"
#include "db/row_map.h"
#include "db/scan_spec.h"
#include "index/multires_index.h"
#include "storage/heap_file.h"
#include "storage/record.h"
#include "storage/state_store.h"
#include "txn/transaction.h"
#include "util/histogram.h"
#include "util/morsel.h"
#include "wal/log_record.h"

namespace instantdb {

/// Options shared by every table of a database (subset of DbOptions the
/// table layer needs).
struct TableRuntime {
  StorageOptions storage;
  /// Number of hash-partitions of the row-id space per table; partition k
  /// lives under `<table-dir>/p<k>`.
  uint32_t partitions = 1;
  KeyManager* keys = nullptr;
  Clock* clock = nullptr;
  /// All table storage I/O routes through this seam; nullptr = Env::Default().
  Env* env = nullptr;
};

/// \brief The physical state of one hash-partition of a table: slotted heap
/// for the stable part, FIFO state stores per (degradable attribute, phase),
/// multi-resolution indexes, the row-id map, and the degradation stepping
/// logic.
///
/// `Table` (db/table.h) routes every row id to exactly one partition via a
/// deterministic hash, so partitions never share rows: each owns its own
/// reader-writer latch, and a degradation step touches only its own
/// partition. That is what lets the degradation worker pool run steps on
/// distinct partitions concurrently.
///
/// The physical footprint tracks the live rows: the heap reuses the space
/// deletes and expiry free (storage/heap_file.h), and the row map is a
/// row-id-sorted array whose head FIFO expiry pops (db/row_map.h).
///
/// Thread-safety: no write takes a logical lock (rows are insert-only, so
/// every pair of writes commutes; see TransactionManager). Physical
/// structures are protected by the per-partition latch (scans share it;
/// applies and degradation steps take it exclusive). Statistics are mutated
/// under the exclusive latch and read under the shared latch.
///
/// A degradation step writes no log record: recovery redoes inserts at
/// their mandated phase and then Reconciles. One write order keeps a moved
/// value durable: its to-phase frame is durable before the last trace of
/// its from-phase copy can vanish (segment erase, checkpoint META, WAL
/// segment retirement).
class TablePartition {
 public:
  TablePartition(const TableDef* def, std::string dir,
                 const TableRuntime& runtime, uint32_t index);
  ~TablePartition();
  TablePartition(const TablePartition&) = delete;
  TablePartition& operator=(const TablePartition&) = delete;

  /// Opens storage, rebuilds the row-id map from the heap, opens the state
  /// stores. Indexes are rebuilt separately (RebuildIndexes) after WAL
  /// replay so they reflect the recovered state.
  Status Open();
  /// Recovery, after WAL redo: an id in two phases of one column keeps the
  /// later one and the earlier frame is scrubbed, as is a store entry with
  /// no heap row; a heap row no store holds has expired and is removed.
  Status Reconcile();
  Status RebuildIndexes();
  /// Unconditional flush of state stores, in descending phase order (a META
  /// makes pops durable), then heap pages. Prefer CheckpointIfDirty.
  Status Checkpoint();
  /// Incremental checkpoint: flushes only when a mutation applied since the
  /// last flush. On success the partition's durable state covers every WAL
  /// record below the fuzzy begin LSN the caller captured under the commit
  /// barrier (TransactionManager::CheckpointBeginLsn) BEFORE any flushing.
  /// Correctness of the skip: every record below that LSN was fully applied
  /// when the barrier returned, and an applied-but-unflushed mutation
  /// leaves the partition dirty — so a clean partition's durable state
  /// already covers it. Returns true when a flush ran, false when the
  /// partition was clean.
  Result<bool> CheckpointIfDirty();
  /// Securely drops all storage of this partition.
  Status Drop();

  const TableDef& def() const { return *def_; }
  const Schema& schema() const { return def_->schema; }
  TableId id() const { return def_->id; }

  /// Largest row id seen in this partition's heap at Open() time (0 when
  /// empty); the router derives the table-wide row-id counter from it.
  RowId max_row_id() const { return max_row_id_; }

  /// Mints the next row id owned by this partition (id ≡ index mod
  /// partitions, so PartitionOf routes it straight back here). Partition-
  /// affine allocation is what lets a batch's inserts — and their WAL redo
  /// — land in a single partition and a single log stream.
  RowId AllocateRowId();
  /// Raises the allocator above a replayed row id (recovery redo).
  void EnsureRowAllocatorAbove(RowId row_id);

  // --- apply (commit-time and redo alike, idempotent; see Table::Apply) -----

  /// Appends each value at the phase its LCP mandates now (0 for a live
  /// commit), unless some phase holds the row; nothing at ⊥, and no row at
  /// all when every value is at ⊥. Uses the record's phase-0 `ordinals`
  /// when the live insert carried them.
  Status ApplyInsert(const WalRecord& record);
  /// The delete of a row that is gone (deleted, or expired by the LCP since
  /// the statement found it) changes nothing and counts in
  /// Stats::applies_without_row.
  Status ApplyDelete(RowId row_id);

  // --- read path -------------------------------------------------------------

  /// Splits this partition's heap into page-range morsels of
  /// `pages_per_morsel` pages (0 = kDefaultMorselPages), the unit the
  /// morsel scheduler hands to scan/degrade/audit workers. The last morsel
  /// is open-ended (end_page == kInvalidPageId) so rows appended after
  /// planning are still observed; an empty partition yields one open-ended
  /// morsel for the same reason. Each morsel carries its own resume
  /// position through ScanBatchFiltered below.
  std::vector<Morsel> MorselPlan(uint32_t pages_per_morsel) const;

  /// Cursor support: examines up to `limit` heap tuples starting at heap
  /// position `*pos` (`Rid{0, 0}` to start), advancing `*pos` to the resume
  /// position and setting `*done` once [*pos, end_page) is exhausted
  /// (end_page == kInvalidPageId: to the end of the heap). Per tuple only
  /// the stable columns `spec.filter` reads are decoded and tested on the
  /// spot; survivors get their output-only columns decoded from the same
  /// record, then one sorted merge per state store (StateStore::FindMany)
  /// resolves their degradable cells to (phase, leaf ordinal). Everything
  /// happens under a single shared-latch acquisition (snapshot-per-batch
  /// semantics). The survivors REPLACE `ws`'s batch (see ScanWorkspace);
  /// `limit` bounds tuples examined, not rows kept — a selective batch
  /// comes out short rather than holding the latch until it fills. `deltas`
  /// accumulates the pushdown accounting (see ScanDeltas). Every heap scan
  /// of the query layer and of the deletion-assurance sweep pulls this
  /// batch.
  Status ScanBatchFiltered(Rid* pos, PageId end_page, size_t limit,
                           const ScanSpec& spec, ScanWorkspace* ws, bool* done,
                           ScanDeltas* deltas) const;

  /// The same batch over a row-id list instead of a page range (index
  /// probes): reads the rows of up to `limit` ids from `ids[*next]` on,
  /// each record in place on its pinned page, through the same per-record
  /// body and accounting, under one shared-latch acquisition. Advances
  /// `*next` and sets `*done` once every id was visited. An id with no row
  /// (deleted or expired since the probe) is skipped and not counted as
  /// examined. `ids` are ascending, so the store merge needs no sort.
  Status ReadRowsFiltered(const std::vector<RowId>& ids, size_t* next,
                          size_t limit, const ScanSpec& spec,
                          ScanWorkspace* ws, bool* done,
                          ScanDeltas* deltas) const;

  /// Calls `fn(Rid, Slice)` for every live heap record under the shared
  /// latch, read raw from its pinned page: never from a page image, and
  /// without the scan path's accounting. The test oracle's heap read.
  template <typename Fn>
  Status ForEachRecordForTesting(Fn&& fn) const {
    std::shared_lock<std::shared_mutex> latch(latch_);
    return heap_->Scan(std::forward<Fn>(fn));
  }

  /// True if the row id currently lives in this partition.
  bool Contains(RowId row_id) const;

  uint64_t live_rows() const;
  /// Live entries and mirror bytes of this partition's state stores.
  MemoryUsage store_memory() const;
  /// Entries and heap bytes of this partition's multi-resolution indexes.
  MemoryUsage index_memory() const;
  /// Live rows and the heap bytes of the row map's arrays.
  MemoryUsage row_memory() const;

  /// Row ids matching an equality/range predicate on a degradable column
  /// at accuracy `level`, appended to `*out` and sorted ascending.
  Status IndexLookupEqual(int column, const Value& value, int level,
                          std::vector<RowId>* out) const;
  Status IndexLookupRange(int column, const Value& lo, const Value& hi,
                          int level, std::vector<RowId>* out) const;

  // --- degradation -----------------------------------------------------------

  /// Earliest pending transition deadline across this partition's stores
  /// (kForever if nothing is pending).
  Micros NextDeadline() const;

  /// Runs ONE degradation step, an in-memory move under the exclusive
  /// latch: the overdue prefix (up to `batch_limit`) of the most overdue
  /// (column, phase) store goes to the next phase's store (nothing at ⊥),
  /// index postings included. Returns the number of values moved.
  Result<size_t> RunDegradationStep(Micros now, size_t batch_limit);

  struct Stats {
    uint64_t inserts = 0;
    uint64_t deletes = 0;
    uint64_t degrade_steps = 0;
    uint64_t values_degraded = 0;
    uint64_t values_removed = 0;
    uint64_t tuples_expired = 0;  // whole-tuple removals by the LCP
    /// Deletes applied to a row already gone: a delete or expiry between
    /// the statement and its commit, or a redo.
    uint64_t applies_without_row = 0;

    void MergeFrom(const Stats& other) {
      inserts += other.inserts;
      deletes += other.deletes;
      degrade_steps += other.degrade_steps;
      values_degraded += other.values_degraded;
      values_removed += other.values_removed;
      tuples_expired += other.tuples_expired;
      applies_without_row += other.applies_without_row;
    }
  };
  /// True when a mutation applied since the last CheckpointIfDirty flush.
  /// Latch-free (two relaxed atomic loads): the checkpoint cadence polls
  /// every partition each cadence point. May transiently read dirty for a
  /// partition a concurrent checkpoint is flushing right now — the cadence's
  /// extra checkpoint then finds it clean, which is benign.
  bool dirty() const {
    return mutation_seq_.load(std::memory_order_acquire) !=
           flushed_seq_.load(std::memory_order_acquire);
  }

  /// Deletion-assurance probe (maintain/audit.h): per-phase index-vs-storage
  /// reconciliation under ONE shared-latch acquisition, so a concurrent
  /// degrade step (which moves store entries and index postings together
  /// under the exclusive latch) can never be observed halfway. For every
  /// (degradable column, phase): `stale` counts index entries above what the
  /// phase's store actually holds — postings still claiming accuracy the
  /// data has lost — and `missing` the opposite.
  struct IndexAuditCounts {
    uint64_t stale = 0;
    uint64_t missing = 0;
  };
  IndexAuditCounts AuditIndexes() const;

  /// Snapshot under the shared latch (safe against a concurrent degrader).
  Stats stats() const;
  /// Copy of the lateness histogram under the shared latch.
  Histogram lateness_histogram() const;

  BufferPool* heap_pool() const { return heap_pool_.get(); }
  /// State store of (schema column, phase); nullptr when the column is not
  /// degradable or the phase is out of range.
  const StateStore* store(int column, int phase) const;

 private:
  struct PendingDegrade {
    int column = -1;  // schema column index
    int phase = -1;
    Micros deadline = kForever;
  };

  std::string HeapPath() const { return dir_ + "/heap.db"; }
  std::string StoreDir(int column, int phase) const;

  /// Deadline of the head entry of (column, phase), kForever if empty.
  Micros StoreHeadDeadline(int column, int phase) const;
  PendingDegrade MostOverdue() const;

  /// After a value of `row_id` reached ⊥: if every degradable attribute of
  /// the tuple is gone, remove the whole tuple (paper: disappearance).
  /// Caller holds the exclusive latch.
  Status MaybeExpireTupleLocked(RowId row_id);


  /// One pushdown batch under a single shared-latch acquisition:
  /// `for_each_record(&scan, take)` reads heap records through the
  /// HeapFile's FieldScan primitives and hands each one to
  /// `take(row id, record, field views)`, with the record and views
  /// borrowed from its pinned page (walked, or read from the page image).
  /// `take` runs spec.filter on the views and appends a survivor, with
  /// Values for its output columns only, to ws's batch. Then the ScanDeltas
  /// accounting and the survivors' degradable cells. The body of
  /// ScanBatchFiltered and ReadRowsFiltered, instantiated once for each.
  template <typename ForEachRecord>
  Status FillBatch(const ScanSpec& spec, ScanWorkspace* ws,
                   ScanDeltas* deltas, ForEachRecord&& for_each_record) const;

  /// Resolves the (phase, ordinal) of every degradable column of the
  /// survivors ws->tuples[0, count) into ws->phases/ordinals with one
  /// FindMany merge per state store. Caller holds the shared latch.
  void ResolveDegradableLocked(ScanWorkspace* ws) const;

  const TableDef* const def_;
  const std::string dir_;
  TableRuntime runtime_;
  const uint32_t index_;

  std::unique_ptr<DiskManager> heap_disk_;
  std::unique_ptr<BufferPool> heap_pool_;
  std::unique_ptr<HeapFile> heap_;

  /// stores_[degradable_ordinal][phase].
  std::vector<std::vector<std::unique_ptr<StateStore>>> stores_;
  std::vector<std::unique_ptr<MultiResolutionIndex>> multires_;

  mutable std::shared_mutex latch_;
  /// Serializes checkpoints and store syncs of this partition and guards
  /// the incremental-checkpoint bookkeeping (flushed_seq_).
  mutable std::mutex ckpt_mu_;
  /// Monotone count of applied mutations (inserts, deletes, degrade moves),
  /// bumped under the exclusive latch. The dirty test is `mutation_seq_ !=
  /// flushed_seq_`.
  std::atomic<uint64_t> mutation_seq_{0};
  /// Written under ckpt_mu_; atomic so dirty() can poll it latch-free (the
  /// checkpoint cadence's test must not contend with checkpoints).
  std::atomic<uint64_t> flushed_seq_{0};
  /// Where each live row's heap record is.
  RowMap row_map_;
  RowId max_row_id_ = 0;
  /// Row-id allocator multiplier: the next id minted is
  /// `next_multiplier_ * partitions + index`.
  std::atomic<RowId> next_multiplier_{0};

  Stats stats_;
  Histogram lateness_;
};

}  // namespace instantdb

#endif  // INSTANTDB_DB_TABLE_PARTITION_H_
