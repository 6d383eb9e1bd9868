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

Status Table::FinishRecovery(WorkerPool& pool) {
  // Partitions own disjoint physical state, so their recovery is
  // embarrassingly parallel.
  IDB_RETURN_IF_ERROR(
      pool.Run(pool.size(), partitions_.size(), [this](size_t i) {
        IDB_RETURN_IF_ERROR(partitions_[i]->Reconcile());
        return partitions_[i]->RebuildIndexes();
      }));
  // An epoch whose values all left phase 0 while its key survived (the
  // crash lost the step that would have destroyed it, or the inserts the
  // key sealed) has no phase-0 step left to destroy its key.
  return DestroyDueEpochKeys();
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
  // No row lock: no other transaction can name an id before its insert
  // commits (Delete and UpdateStable return NotFound for it).
  const RowId row_id = partitions_[affine]->AllocateRowId();

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
  record.ordinals = std::move(ordinals);
  txn->AddOp(std::move(record));
  return row_id;
}

Status Table::Delete(Transaction* txn, RowId row_id) {
  if (!Route(row_id)->Contains(row_id)) return Status::NotFound("no such row");
  // Degradation never waits for this transaction: the apply removes the
  // row from whichever store holds it at commit time.
  WalRecord record;
  record.type = WalRecordType::kDelete;
  record.table = id();
  record.row_id = row_id;
  txn->AddOp(std::move(record));
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
  if (!Route(row_id)->Contains(row_id)) return Status::NotFound("no such row");
  WalRecord record;
  record.type = WalRecordType::kUpdateStable;
  record.table = id();
  record.row_id = row_id;
  record.stable = stable;
  txn->AddOp(std::move(record));
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
  Micros next = epoch_keys_due_.load(std::memory_order_relaxed);
  for (const auto& partition : partitions_) {
    next = std::min(next, partition->NextDeadline());
  }
  return next;
}

Result<size_t> Table::RunDegradationStep(Micros now, size_t batch_limit,
                                         uint32_t partition) {
  bool stepped_phase0 = false;
  IDB_ASSIGN_OR_RETURN(const size_t moved,
                       partitions_[partition]->RunDegradationStep(
                           now, batch_limit, &stepped_phase0));
  if (moved > 0 && stepped_phase0) IDB_RETURN_IF_ERROR(ArmEpochKeyDeadline());
  return moved;
}

Status Table::ArmEpochKeyDeadline() {
  if (runtime_.wal == nullptr || !runtime_.wal->epoch_keys_enabled()) {
    return Status::OK();
  }
  // The current epoch's key may have lost its last phase-0 value too, but
  // it can still seal inserts until the epoch ends: arm a deadline there.
  const Micros epoch_end =
      runtime_.wal->EpochEnd(runtime_.clock->NowMicros());
  Micros armed = epoch_keys_due_.load(std::memory_order_relaxed);
  while ((armed == kForever || armed < epoch_end) &&
         !epoch_keys_due_.compare_exchange_weak(armed, epoch_end,
                                                std::memory_order_relaxed)) {
  }
  return DestroyDueEpochKeys();
}

Status Table::AfterDeleteCommit() {
  // Loaded first: every commit of every table passes here, and most
  // delete no phase-0 value.
  if (!phase0_deleted_.load(std::memory_order_relaxed) ||
      !phase0_deleted_.exchange(false, std::memory_order_relaxed)) {
    return Status::OK();
  }
  return ArmEpochKeyDeadline();
}

Status Table::RunEpochKeyDeadline() {
  Micros armed = epoch_keys_due_.load(std::memory_order_relaxed);
  if (armed > runtime_.clock->NowMicros()) return Status::OK();
  // A commit that re-armed a later deadline meanwhile keeps it.
  epoch_keys_due_.compare_exchange_strong(armed, kForever,
                                          std::memory_order_relaxed);
  const Status destroyed = DestroyDueEpochKeys();
  if (!destroyed.ok()) {
    // Retry at the next pass.
    Micros retry = kForever;
    epoch_keys_due_.compare_exchange_strong(retry, armed,
                                            std::memory_order_relaxed);
  }
  return destroyed;
}

Status Table::DestroyDueEpochKeys() {
  if (runtime_.wal == nullptr || !runtime_.wal->epoch_keys_enabled()) {
    return Status::OK();
  }
  // Epoch keys are table-wide: a key is destroyable only once every
  // partition's phase-0 head has moved past the epoch. SafeEpochTime takes
  // every partition's latch (O(1) per store), so it only runs when there
  // are keys to destroy. The key is the last trace of the values' accurate
  // copies in the log: their coarser copies are synced first.
  return runtime_.wal->DestroyEpochKeysThrough(id(), SafeEpochTime(), [this] {
    for (auto& partition : partitions_) {
      IDB_RETURN_IF_ERROR(partition->SyncStores());
    }
    return Status::OK();
  });
}

Micros Table::SafeEpochTime() const {
  Micros safe = kForever;
  for (const auto& partition : partitions_) {
    safe = std::min(safe, partition->SafeEpochTime());
  }
  return safe;
}

// --- apply ------------------------------------------------------------------------

Status Table::Apply(const WalRecord& record) {
  switch (record.type) {
    case WalRecordType::kInsert: {
      // Replayed inserts carry committed row ids: keep the owning
      // partition's allocator above the recovered id space.
      TablePartition* partition = Route(record.row_id);
      partition->EnsureRowAllocatorAbove(record.row_id);
      return partition->ApplyInsert(record);
    }
    case WalRecordType::kDelete: {
      bool removed_phase0 = false;
      IDB_RETURN_IF_ERROR(
          Route(record.row_id)->ApplyDelete(record.row_id, &removed_phase0));
      if (removed_phase0) phase0_deleted_.store(true, std::memory_order_relaxed);
      return Status::OK();
    }
    case WalRecordType::kUpdateStable:
      return Route(record.row_id)
          ->ApplyUpdateStable(record.row_id, record.stable);
    default:
      return Status::OK();
  }
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
