#include "db/table.h"

#include <algorithm>
#include <cstdlib>

#include "common/logging.h"
#include "common/strings.h"
#include "io/env.h"
#include "util/worker_pool.h"

namespace instantdb {

Table::Table(const TableDef* def, std::string dir, const TableRuntime& runtime)
    : def_(def), dir_(std::move(dir)), runtime_(runtime) {
  if (runtime_.env == nullptr) runtime_.env = Env::Default();
}

Table::~Table() = default;

Status Table::Open() {
  if (runtime_.partitions == 0 || runtime_.partitions > kMaxPartitions) {
    return Status::InvalidArgument("bad partition count");
  }
  IDB_RETURN_IF_ERROR(runtime_.env->CreateDirs(dir_));

  // The partition count is a physical property of the table: row-id routing
  // must match whatever layout is on disk, so the count chosen at creation
  // wins over a later DbOptions change.
  if (runtime_.env->FileExists(PartitionCountPath())) {
    IDB_ASSIGN_OR_RETURN(std::string text,
                         runtime_.env->ReadFileToString(PartitionCountPath()));
    char* end = nullptr;
    const unsigned long persisted = std::strtoul(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || persisted == 0 ||
        persisted > kMaxPartitions) {
      return Status::Corruption("bad PARTITIONS file for table " +
                                def_->name);
    }
    runtime_.partitions = static_cast<uint32_t>(persisted);
  } else {
    // No PARTITIONS file: a fresh table, or one whose file was lost.
    if (runtime_.env->FileExists(dir_ + "/p0")) {
      // Partition dirs present: recover the count only if the dirs are
      // unambiguous (contiguous p0..pN-1). Guessing across a gap — a
      // partially restored table — would pin a wrong count and silently
      // mis-route rows forever; trusting DbOptions would orphan every
      // stored row.
      IDB_ASSIGN_OR_RETURN(auto names, runtime_.env->ListDir(dir_));
      uint32_t max_index = 0;
      uint32_t count = 0;
      for (const std::string& name : names) {
        if (name.size() < 2 || name[0] != 'p') continue;
        char* end = nullptr;
        const unsigned long index = std::strtoul(name.c_str() + 1, &end, 10);
        if (*end != '\0') continue;
        ++count;
        max_index = std::max(max_index, static_cast<uint32_t>(index));
      }
      if (count != max_index + 1 || count > kMaxPartitions) {
        return Status::Corruption(
            "PARTITIONS file missing and partition directories are "
            "ambiguous for table " + def_->name);
      }
      runtime_.partitions = count;
    }
    IDB_RETURN_IF_ERROR(runtime_.env->WriteStringToFile(
        PartitionCountPath(), std::to_string(runtime_.partitions),
        /*sync=*/true));
  }

  partitions_.clear();
  for (uint32_t i = 0; i < runtime_.partitions; ++i) {
    auto partition = std::make_unique<TablePartition>(
        def_, dir_ + StringPrintf("/p%u", i), runtime_, i);
    IDB_RETURN_IF_ERROR(partition->Open());
    partitions_.push_back(std::move(partition));
  }
  return Status::OK();
}

Status Table::RebuildIndexes(WorkerPool& pool) {
  // Partitions own disjoint physical state, so their rebuilds are
  // embarrassingly parallel.
  return pool.Run(pool.size(), partitions_.size(), [this](size_t i) {
    return partitions_[i]->RebuildIndexes();
  });
}

Status Table::Drop() {
  for (auto& partition : partitions_) {
    IDB_RETURN_IF_ERROR(partition->Drop());
  }
  partitions_.clear();
  return runtime_.env->RemoveDirRecursive(dir_);
}

// --- DML -------------------------------------------------------------------------

Result<RowId> Table::Insert(Transaction* txn, const std::vector<Value>& row) {
  std::vector<int64_t> ordinals;  // each degradable value's, at phase 0
  IDB_RETURN_IF_ERROR(schema().ValidateInsertRow(row, &ordinals));
  const Micros now = runtime_.clock->NowMicros();

  // Batch-affine allocation: every insert of this transaction draws from
  // one partition's allocator (rotating across transactions), so the whole
  // batch applies under one partition latch.
  const uint32_t affine = txn->InsertPartition(id(), [this] {
    return next_affine_.fetch_add(1, std::memory_order_relaxed) %
           static_cast<uint32_t>(partitions_.size());
  });
  TablePartition* partition = partitions_[affine].get();
  // No row lock: no other transaction can name an id before its insert
  // commits (Delete and UpdateStable return NotFound for it).
  const RowId row_id = partition->AllocateRowId();

  WalRecord record;
  record.type = WalRecordType::kInsert;
  record.table = id();
  record.row_id = row_id;
  record.insert_time = now;
  for (int idx : schema().stable_columns()) record.stable.push_back(row[idx]);
  for (size_t d = 0; d < schema().degradable_columns().size(); ++d) {
    // Inserts arrive at full accuracy, but a policy may start coarser than
    // leaf level ("never store exact addresses"): generalize immediately so
    // the accurate form never reaches storage or the WAL. The validation's
    // leaf ordinal gives the phase-0 value and its ordinal with no second
    // label lookup.
    const int idx = schema().degradable_columns()[d];
    const ColumnDef& col = schema().column(idx);
    const int first_level = col.lcp.phase(0).level;
    if (first_level > 0) {
      record.degradable.push_back(
          col.hierarchy->AncestorValue(ordinals[d], first_level));
      ordinals[d] = col.hierarchy->AncestorRange(ordinals[d], first_level).lo;
    } else {
      record.degradable.push_back(row[idx]);
    }
    // Earliest phase-0 deadline this record's payload carries: the WAL
    // folds it into a per-segment minimum for the deletion-assurance
    // audit ("does any live segment hold an accurate value past its
    // deadline?").
    const Micros phase0 = col.lcp.PhaseEndOffset(0);
    if (phase0 != kForever) {
      record.payload_deadline = std::min(record.payload_deadline, now + phase0);
    }
  }
  std::vector<Value> stable = record.stable;
  std::vector<Value> degradable = record.degradable;
  txn->AddOp(std::move(record),
             [partition, row_id, now, stable = std::move(stable),
              degradable = std::move(degradable),
              ordinals = std::move(ordinals)] {
               return partition->ApplyInsert(row_id, now, stable, degradable,
                                             /*degradable_available=*/true,
                                             &ordinals);
             });
  return row_id;
}

Status Table::Delete(Transaction* txn, RowId row_id) {
  IDB_RETURN_IF_ERROR(txn->LockRow(id(), row_id));
  TablePartition* partition = Route(row_id);
  if (!partition->Contains(row_id)) {
    return Status::NotFound("no such row");
  }
  // Degradation never waits for this transaction: the apply removes the
  // row from whichever store holds it at commit time, and a degrade step
  // applying later finds it gone.
  WalRecord record;
  record.type = WalRecordType::kDelete;
  record.table = id();
  record.row_id = row_id;
  txn->AddOp(std::move(record),
             [partition, row_id] { return partition->ApplyDelete(row_id); });
  return Status::OK();
}

Status Table::UpdateStable(Transaction* txn, RowId row_id,
                           const std::vector<Value>& stable) {
  if (stable.size() != schema().stable_columns().size()) {
    return Status::InvalidArgument("stable value count mismatch");
  }
  for (size_t i = 0; i < stable.size(); ++i) {
    const ColumnDef& col = schema().column(schema().stable_columns()[i]);
    if (!stable[i].is_null() && stable[i].type() != col.type) {
      return Status::InvalidArgument("stable type mismatch for " + col.name);
    }
  }
  IDB_RETURN_IF_ERROR(txn->LockRow(id(), row_id));
  TablePartition* partition = Route(row_id);
  if (!partition->Contains(row_id)) return Status::NotFound("no such row");
  WalRecord record;
  record.type = WalRecordType::kUpdateStable;
  record.table = id();
  record.row_id = row_id;
  record.stable = stable;
  txn->AddOp(std::move(record), [partition, row_id, stable] {
    return partition->ApplyUpdateStable(row_id, stable);
  });
  return Status::OK();
}

// --- read path ---------------------------------------------------------------------

Status PartitionCursor::NextBatch(size_t limit, const ScanSpec& spec,
                                  ScanWorkspace* ws, bool* done,
                                  ScanDeltas* deltas) {
  if (done_ || partition_ == nullptr) {
    ws->count = 0;
    *done = true;
    return Status::OK();
  }
  IDB_RETURN_IF_ERROR(
      by_id_ ? partition_->ReadRowsFiltered(ids_, &next_id_, limit, spec, ws,
                                            &done_, deltas)
             : partition_->ScanBatchFiltered(&pos_, end_page_, limit, spec,
                                             ws, &done_, deltas));
  *done = done_;
  return Status::OK();
}

uint64_t Table::live_rows() const {
  uint64_t total = 0;
  for (const auto& partition : partitions_) total += partition->live_rows();
  return total;
}

Status Table::IndexLookupEqual(
    int column, const Value& value, int level,
    std::vector<std::vector<RowId>>* out) const {
  out->assign(partitions_.size(), {});
  for (size_t p = 0; p < partitions_.size(); ++p) {
    IDB_RETURN_IF_ERROR(
        partitions_[p]->IndexLookupEqual(column, value, level, &(*out)[p]));
  }
  return Status::OK();
}

Status Table::IndexLookupRange(
    int column, const Value& lo, const Value& hi, int level,
    std::vector<std::vector<RowId>>* out) const {
  out->assign(partitions_.size(), {});
  for (size_t p = 0; p < partitions_.size(); ++p) {
    IDB_RETURN_IF_ERROR(
        partitions_[p]->IndexLookupRange(column, lo, hi, level, &(*out)[p]));
  }
  return Status::OK();
}

// --- degradation ----------------------------------------------------------------------

Micros Table::NextDeadline() const {
  Micros next = kForever;
  for (const auto& partition : partitions_) {
    next = std::min(next, partition->NextDeadline());
  }
  return next;
}

bool Table::HasWorkAt(Micros now) const { return NextDeadline() <= now; }

bool Table::PartitionHasWorkAt(uint32_t partition, Micros now) const {
  return partitions_[partition]->HasWorkAt(now);
}

Result<size_t> Table::RunDegradationStep(TransactionManager* tm, Micros now,
                                         size_t batch_limit,
                                         uint32_t partition) {
  bool stepped_phase0 = false;
  IDB_ASSIGN_OR_RETURN(const size_t moved,
                       partitions_[partition]->RunDegradationStep(
                           tm, now, batch_limit, &stepped_phase0));
  if (moved > 0 && stepped_phase0 && runtime_.wal != nullptr &&
      runtime_.wal->epoch_keys_enabled()) {
    // Epoch keys are table-wide: a key is destroyable only once every
    // partition's phase-0 head has moved past the epoch. SafeEpochTime
    // takes every partition's latch (O(1) per store), so it only runs when
    // there are keys to destroy.
    IDB_RETURN_IF_ERROR(
        runtime_.wal->DestroyEpochKeysThrough(id(), SafeEpochTime()));
  }
  return moved;
}

Micros Table::SafeEpochTime() const {
  Micros safe = kForever;
  for (const auto& partition : partitions_) {
    safe = std::min(safe, partition->SafeEpochTime());
  }
  return safe;
}

// --- recovery redo -----------------------------------------------------------------

Status Table::RedoInsert(const WalRecord& record) {
  // Replayed inserts carry committed row ids: keep the owning partition's
  // allocator above the recovered id space.
  TablePartition* partition = Route(record.row_id);
  partition->EnsureRowAllocatorAbove(record.row_id);
  return partition->ApplyInsert(record.row_id, record.insert_time,
                                record.stable, record.degradable,
                                !record.degradable_unavailable,
                                /*ordinals=*/nullptr);
}

Status Table::RedoDegrade(const WalRecord& record) {
  // A degradation step drains one partition's store: every entry hashes to
  // the same partition, so the first row id routes the whole record.
  if (record.entries.empty()) return Status::OK();
  return Route(record.entries[0].row_id)
      ->ApplyDegrade(record.column, record.from_phase, record.to_phase,
                     record.up_to_row_id, record.entries,
                     /*old_ordinals=*/nullptr);
}

Status Table::RedoDelete(const WalRecord& record) {
  return Route(record.row_id)->ApplyDelete(record.row_id);
}

Status Table::RedoUpdateStable(const WalRecord& record) {
  return Route(record.row_id)->ApplyUpdateStable(record.row_id, record.stable);
}

Table::Stats Table::stats() const {
  Stats total;
  for (const auto& partition : partitions_) {
    total.MergeFrom(partition->stats());
  }
  return total;
}

Histogram Table::lateness_histogram() const {
  Histogram merged;
  for (const auto& partition : partitions_) {
    merged.Merge(partition->lateness_histogram());
  }
  return merged;
}

}  // namespace instantdb
