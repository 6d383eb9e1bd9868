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
  return pool.Run(pool.size(), partitions_.size(), [this](size_t i) {
    IDB_RETURN_IF_ERROR(partitions_[i]->Reconcile());
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
  // No row lock: no other transaction can name an id before its insert
  // commits (Delete returns NotFound for it).
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
    case WalRecordType::kDelete:
      return Route(record.row_id)->ApplyDelete(record.row_id);
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
