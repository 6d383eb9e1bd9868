#ifndef INSTANTDB_DB_TABLE_H_
#define INSTANTDB_DB_TABLE_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "db/table_partition.h"

namespace instantdb {

/// Upper bound on DbOptions::partitions (sanity limit: one partition per
/// core is the useful range; this also caps what a corrupt PARTITIONS file
/// can make Open() attempt).
inline constexpr uint32_t kMaxPartitions = 1024;

class WorkerPool;

/// \brief Cursor over one partition's rows: a morsel's page range
/// (Table::OpenMorselCursor) or an index probe's row ids
/// (Table::OpenRowIdCursor).
///
/// Morsels are the unit scans shard on: the query layer's morsel readers and
/// the deletion-assurance sweep open one cursor per claimed morsel and
/// drain them on distinct workers. Either source yields the same pushdown
/// batches. Each NextBatch holds the partition's shared latch only while
/// producing that batch (snapshot-per-batch semantics). Value-semantic and
/// independent of sibling cursors; the Table must outlive it.
class PartitionCursor {
 public:
  PartitionCursor() = default;

  /// Examines up to `limit` heap tuples (page range) or row ids (id list),
  /// advancing the cursor (TablePartition::ScanBatchFiltered,
  /// TablePartition::ReadRowsFiltered): stable predicates run on the
  /// walked records and state stores are probed only for the survivors,
  /// which REPLACE `ws`'s batch, so a selective batch comes out short.
  /// `ws` and `deltas` are the caller's per-worker batch and counter
  /// accumulator. `*done` is set once the source is exhausted; subsequent
  /// calls return no rows with `*done` true.
  Status NextBatch(size_t limit, const ScanSpec& spec, ScanWorkspace* ws,
                   bool* done, ScanDeltas* deltas);

  uint32_t partition_index() const { return index_; }

 private:
  friend class Table;
  PartitionCursor(const TablePartition* partition, uint32_t index,
                  PageId begin_page, PageId end_page)
      : partition_(partition),
        index_(index),
        pos_{begin_page, 0},
        end_page_(end_page) {}
  PartitionCursor(const TablePartition* partition, uint32_t index,
                  std::vector<RowId> ids)
      : partition_(partition),
        index_(index),
        by_id_(true),
        ids_(std::move(ids)) {}

  const TablePartition* partition_ = nullptr;
  uint32_t index_ = 0;
  Rid pos_{0, 0};
  /// Exclusive page bound (kInvalidPageId = whole partition): a morsel
  /// cursor reports done at its range's end, not the heap's.
  PageId end_page_ = kInvalidPageId;
  /// Id-list source: ids_[next_id_, end) are still to be read.
  bool by_id_ = false;
  std::vector<RowId> ids_;
  size_t next_id_ = 0;
  bool done_ = false;
};

/// \brief One table: a router over N hash-partitions of the row-id space.
///
/// Every physical structure (heap file + buffer pool, per-(attribute, phase)
/// state stores, multi-resolution indexes, latch, row map) lives in a
/// `TablePartition`; the table routes each row id to its owning partition
/// with the deterministic hash `row_id % N`.
/// Recovery reuses the same hash — WAL records carry row ids, so redo needs
/// no partition-aware record types. Partition k lives under
/// `<table-dir>/p<k>`, a single partition included. The partition count is
/// persisted in `<table-dir>/PARTITIONS` so a reopen with a different
/// DbOptions::partitions cannot mis-route recovered rows; a lost file is
/// recovered from contiguous `p<k>` directories.
///
/// Partitioning is what lets throughput scale with cores: scans take one
/// partition latch at a time (writers and the degrader on other partitions
/// proceed unimpeded), and the degradation worker pool runs overdue steps
/// on distinct partitions concurrently — the paper's timeliness machinery
/// scales with the data volume it polices instead of running as one global
/// sequential sweep.
class Table {
 public:
  Table(const TableDef* def, std::string dir, const TableRuntime& runtime);
  ~Table();
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  /// Opens every partition (creating the directory layout on first open).
  /// Recovery finishes separately (FinishRecovery) after WAL redo.
  Status Open();
  /// After WAL redo: reconciles every partition's stores and heap
  /// (TablePartition::Reconcile) and rebuilds its indexes. Partitions are
  /// independent, so they run on the database's shared worker pool
  /// (WorkerPool::Run, the caller participating) — this is what cuts
  /// recovery time on multi-partition tables.
  Status FinishRecovery(WorkerPool& pool);
  /// Securely drops all storage (DROP TABLE).
  Status Drop();

  const TableDef& def() const { return *def_; }
  const Schema& schema() const { return def_->schema; }
  TableId id() const { return def_->id; }

  uint32_t num_partitions() const {
    return static_cast<uint32_t>(partitions_.size());
  }
  const TablePartition* partition(uint32_t i) const {
    return partitions_[i].get();
  }
  /// Mutable access for the database's incremental checkpoint fan-out
  /// (TablePartition::CheckpointIfDirty): partitions are the unit of
  /// checkpoint scheduling, exactly as they are for degradation steps.
  TablePartition* partition(uint32_t i) { return partitions_[i].get(); }
  /// Owning partition of a row id (deterministic; recovery routes WAL
  /// records with the same function).
  uint32_t PartitionOf(RowId row_id) const {
    return static_cast<uint32_t>(row_id % partitions_.size());
  }

  // --- DML (deferred-apply; effects run at txn commit) ----------------------

  /// Validates the full-accuracy row, assigns a row id and queues the
  /// insert. Paper §II: inserts are granted only in the most
  /// accurate state. Row ids are allocated partition-affine: every insert
  /// of one transaction into this table draws from the same partition's
  /// allocator (partitions rotate across transactions), so a WriteBatch's
  /// rows — and their WAL redo — land in one partition and one log stream.
  Result<RowId> Insert(Transaction* txn, const std::vector<Value>& row);

  /// Queues the removal of one tuple (stable + degradable parts). No lock:
  /// a delete commutes with every other write of its row (see
  /// TransactionManager), so concurrent deletes of one row all commit.
  Status Delete(Transaction* txn, RowId row_id);

  // --- read path -------------------------------------------------------------

  /// Morsel-grained sharding (util/morsel.h): per-partition page-range
  /// plans for the work-stealing scheduler. `plan[p]` is partition p's
  /// queue; Σ plan sizes is the claim total the scan counters assert
  /// against. `pages_per_morsel` 0 = kDefaultMorselPages
  /// (ScanOptions::morsel_pages plumbs through here).
  std::vector<std::vector<Morsel>> MorselPlan(uint32_t pages_per_morsel) const {
    std::vector<std::vector<Morsel>> plan;
    plan.reserve(partitions_.size());
    for (const auto& partition : partitions_) {
      plan.push_back(partition->MorselPlan(pages_per_morsel));
    }
    return plan;
  }

  /// Cursor over ONE morsel's page range — each claimed morsel gets its own
  /// resume position, so many workers share a partition without sharing
  /// cursor state. An out-of-range partition yields an empty cursor
  /// (NextBatch reports done immediately) rather than undefined behavior.
  PartitionCursor OpenMorselCursor(const Morsel& morsel) const {
    if (morsel.partition >= partitions_.size()) return PartitionCursor();
    return PartitionCursor(partitions_[morsel.partition].get(),
                           morsel.partition, morsel.begin_page,
                           morsel.end_page);
  }

  /// Cursor over the rows of `ids` in `partition` — ascending ids that
  /// partition owns, as IndexLookupEqual/IndexLookupRange group them. An
  /// out-of-range partition yields an empty cursor.
  PartitionCursor OpenRowIdCursor(uint32_t partition,
                                  std::vector<RowId> ids) const {
    if (partition >= partitions_.size()) return PartitionCursor();
    return PartitionCursor(partitions_[partition].get(), partition,
                           std::move(ids));
  }

  uint64_t live_rows() const;

  /// Rows matching an equality/range predicate on a degradable column at
  /// accuracy `level`, probed in every partition's multi-resolution index:
  /// `(*out)[p]` holds partition p's row ids, ascending.
  Status IndexLookupEqual(int column, const Value& value, int level,
                          std::vector<std::vector<RowId>>* out) const;
  Status IndexLookupRange(int column, const Value& lo, const Value& hi,
                          int level,
                          std::vector<std::vector<RowId>>* out) const;

  // --- degradation -----------------------------------------------------------

  /// Earliest pending transition deadline across all partitions (kForever
  /// if nothing is pending).
  Micros NextDeadline() const;

  /// Runs ONE degradation step on `partition` (see
  /// TablePartition::RunDegradationStep). Distinct partitions may be
  /// stepped concurrently.
  Result<size_t> RunDegradationStep(Micros now, size_t batch_limit,
                                    uint32_t partition) {
    return partitions_[partition]->RunDegradationStep(now, batch_limit);
  }

  // --- apply ----------------------------------------------------------------

  /// Applies one committed record to the partition that owns its rows: the
  /// commit-time apply and WAL redo alike. Idempotent: applying a record
  /// again changes nothing.
  Status Apply(const WalRecord& record);

  using Stats = TablePartition::Stats;
  /// Aggregated over partitions; each partition snapshot is taken under its
  /// shared latch.
  Stats stats() const;
  /// Merged copy of every partition's lateness histogram (taken under each
  /// partition's shared latch).
  Histogram lateness_histogram() const;

 private:
  std::string PartitionCountPath() const { return dir_ + "/PARTITIONS"; }
  TablePartition* Route(RowId row_id) const {
    return partitions_[PartitionOf(row_id)].get();
  }

  const TableDef* const def_;
  const std::string dir_;
  TableRuntime runtime_;

  std::vector<std::unique_ptr<TablePartition>> partitions_;
  /// Rotates the partition assigned to each inserting transaction (the
  /// partitions own the actual row-id allocators).
  std::atomic<uint32_t> next_affine_{0};
};

}  // namespace instantdb

#endif  // INSTANTDB_DB_TABLE_H_
