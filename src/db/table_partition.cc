#include "db/table_partition.h"

#include <algorithm>

#include "common/logging.h"
#include "common/strings.h"
#include "io/env.h"

namespace instantdb {

TablePartition::TablePartition(const TableDef* def, std::string dir,
                               const TableRuntime& runtime, uint32_t index)
    : def_(def), dir_(std::move(dir)), runtime_(runtime), index_(index) {
  if (runtime_.env == nullptr) runtime_.env = Env::Default();
}

TablePartition::~TablePartition() = default;

std::string TablePartition::StoreDir(int column, int phase) const {
  return dir_ + StringPrintf("/stores/c%d.p%d", column, phase);
}

const StateStore* TablePartition::store(int column, int phase) const {
  const int ordinal = schema().DegradableOrdinal(column);
  if (ordinal < 0 || static_cast<size_t>(ordinal) >= stores_.size() ||
      phase < 0 || static_cast<size_t>(phase) >= stores_[ordinal].size()) {
    return nullptr;
  }
  return stores_[ordinal][phase].get();
}

Status TablePartition::Open() {
  IDB_RETURN_IF_ERROR(runtime_.env->CreateDirs(dir_));
  IDB_ASSIGN_OR_RETURN(
      heap_disk_, DiskManager::Open(HeapPath(), runtime_.storage.page_size,
                                    runtime_.env));
  heap_pool_ = std::make_unique<BufferPool>(
      heap_disk_.get(), runtime_.storage.buffer_pool_pages);
  heap_ = std::make_unique<HeapFile>(heap_pool_.get());
  IDB_RETURN_IF_ERROR(heap_->Open());

  // Rebuild the row-id map from the heap, sorted once: pages the heap
  // reused hold newer rows before older ones. A record the codec's framing
  // checks refuse fails the open with Corruption.
  std::vector<std::pair<RowId, Rid>> rows;
  rows.reserve(heap_->live_records());
  RowId max_row = 0;
  bool corrupt = false;
  const size_t stable_count = schema().stable_columns().size();
  IDB_RETURN_IF_ERROR(heap_->Scan([&](Rid rid, Slice record) {
    RowId row_id = kInvalidRowId;
    Micros insert_time = 0;
    if (!WalkHeapRecord(record, stable_count, &row_id, &insert_time,
                        [](size_t, const FieldView&) {})) {
      corrupt = true;
      return false;
    }
    rows.emplace_back(row_id, rid);
    max_row = std::max(max_row, row_id);
    return true;
  }));
  if (corrupt) return Status::Corruption("malformed heap record");
  row_map_.Assign(std::move(rows));
  max_row_id_ = max_row;

  stores_.clear();
  for (int col_idx : schema().degradable_columns()) {
    const ColumnDef& col = schema().column(col_idx);
    std::vector<std::unique_ptr<StateStore>> per_phase;
    for (int p = 0; p < col.lcp.num_phases(); ++p) {
      auto store = std::make_unique<StateStore>(
          StoreDir(col_idx, p), id(), col_idx, p, col.hierarchy.get(),
          col.lcp.phase(p).level, runtime_.storage, runtime_.keys,
          runtime_.env);
      IDB_RETURN_IF_ERROR(store->Open());
      // Ids of fully degraded (expired) tuples have left the heap but
      // must never be re-allocated: an append of a reused id would be
      // mistaken for WAL redo of the popped value and dropped.
      if (store->LastAppendedRowId() != kInvalidRowId) {
        max_row_id_ = std::max(max_row_id_, store->LastAppendedRowId());
      }
      per_phase.push_back(std::move(store));
    }
    stores_.push_back(std::move(per_phase));
  }

  // Row-id allocator: this partition mints ids congruent to its index
  // (id = m * partitions + index), resuming above everything recovered.
  const RowId stride = runtime_.partitions == 0 ? 1 : runtime_.partitions;
  next_multiplier_.store(
      max_row_id_ == 0 ? (index_ == 0 ? 1 : 0) : max_row_id_ / stride + 1,
      std::memory_order_relaxed);
  return Status::OK();
}

RowId TablePartition::AllocateRowId() {
  const RowId stride = runtime_.partitions == 0 ? 1 : runtime_.partitions;
  const RowId m = next_multiplier_.fetch_add(1, std::memory_order_relaxed);
  return m * stride + index_;
}

void TablePartition::EnsureRowAllocatorAbove(RowId row_id) {
  const RowId stride = runtime_.partitions == 0 ? 1 : runtime_.partitions;
  const RowId next = row_id / stride + 1;
  RowId expect = next_multiplier_.load(std::memory_order_relaxed);
  while (next > expect &&
         !next_multiplier_.compare_exchange_weak(expect, next,
                                                 std::memory_order_relaxed)) {
  }
}

Status TablePartition::RebuildIndexes() {
  // Indexes are derived data, kept in memory: rebuild them from the stores.
  multires_.clear();
  for (size_t d = 0; d < stores_.size(); ++d) {
    multires_.push_back(std::make_unique<MultiResolutionIndex>(
        schema().column(schema().degradable_columns()[d])));
    for (size_t p = 0; p < stores_[d].size(); ++p) {
      stores_[d][p]->ForEach([&](const StoreEntryView& entry) {
        multires_[d]->OnInsert(entry.row_id, static_cast<int>(p),
                               entry.ordinal);
        return true;
      });
    }
  }
  return Status::OK();
}

Status TablePartition::Checkpoint() {
  std::shared_lock<std::shared_mutex> latch(latch_);
  // Write ordering: stores BEFORE heap. A durable heap row whose store
  // entries never reached disk is a shell with every degradable value at ⊥;
  // ApplyInsert's redo can repair one, but only while the insert record is
  // still replayed, so the flush must never advance the manifest past an
  // insert whose store entry it failed to persist. Syncing the heap only
  // after every store checkpoint succeeded makes "heap row durable ⟹ its
  // store entries durable" an invariant of every flush attempt, even one a
  // fault aborts halfway. (Buffer-pool eviction can still leak a heap page
  // early — that residual window is what the ApplyInsert repair path
  // covers.) Cross-store consistency needs no ordering: a failed attempt
  // fails the whole checkpoint before the WAL manifest advances, so the
  // WAL replays the affected records against whichever subset landed.
  for (auto& per_phase : stores_) {
    for (auto& store : per_phase) {
      IDB_RETURN_IF_ERROR(store->Checkpoint());
    }
  }
  return heap_pool_->FlushAll();
}

Result<bool> TablePartition::CheckpointIfDirty() {
  std::lock_guard<std::mutex> ckpt(ckpt_mu_);
  const uint64_t seq = mutation_seq_.load(std::memory_order_acquire);
  bool flushed = false;
  if (seq != flushed_seq_.load(std::memory_order_relaxed)) {
    IDB_RETURN_IF_ERROR(Checkpoint());
    // Mutations cannot land mid-flush (they need the exclusive latch), so
    // the flush covered everything through `seq`. A mutation applying
    // between the load above and the flush's latch acquisition is also on
    // disk now but stays conservatively unaccounted — the partition reads
    // as dirty again next time and re-flushes.
    flushed_seq_.store(seq, std::memory_order_release);
    flushed = true;
  }
  return flushed;
}

Status TablePartition::Drop() {
  std::unique_lock<std::shared_mutex> latch(latch_);
  for (auto& per_phase : stores_) {
    for (auto& store : per_phase) {
      IDB_RETURN_IF_ERROR(store->Drop());
    }
  }
  stores_.clear();
  heap_.reset();
  heap_pool_.reset();
  heap_disk_.reset();
  return runtime_.env->RemoveDirRecursive(dir_);
}

// --- apply closures ----------------------------------------------------------------

Status TablePartition::ApplyInsert(RowId row_id, Micros insert_time,
                                   const std::vector<Value>& stable,
                                   const std::vector<Value>& degradable,
                                   bool degradable_available,
                                   const std::vector<int64_t>* ordinals) {
  const auto ordinal_of = [ordinals](size_t d) {
    return ordinals != nullptr ? (*ordinals)[d] : int64_t{-1};
  };
  std::unique_lock<std::shared_mutex> latch(latch_);
  if (row_map_.Find(row_id) != nullptr) {
    // Idempotent redo over a row the heap already holds — but not a blind
    // skip. A heap page can reach disk through buffer-pool eviction at any
    // time, independent of Checkpoint, so after a crash the heap may hold a
    // row whose store entries never became durable; skipping here would
    // freeze that shell with every degradable value at ⊥ forever. Re-offer
    // the values to the phase-0 stores instead. If ANY phase still holds
    // the row, nothing was lost (possibly it already degraded — a later
    // degrade record in log order re-converges), so only a row absent from
    // every phase is repaired. Append and the index OnInsert hook are
    // idempotent, so a repeated redo stays a no-op.
    if (degradable_available) {
      for (size_t d = 0; d < schema().degradable_columns().size(); ++d) {
        bool present = false;
        for (const auto& store : stores_[d]) {
          if (store->Find(row_id)) {
            present = true;
            break;
          }
        }
        if (!present) {
          IDB_RETURN_IF_ERROR(InsertDegradableLocked(
              d, row_id, insert_time, degradable[d], ordinal_of(d)));
        }
      }
      mutation_seq_.fetch_add(1, std::memory_order_release);
    }
    return Status::OK();
  }
  HeapTuple tuple;
  tuple.row_id = row_id;
  tuple.insert_time = insert_time;
  tuple.stable = stable;
  std::string encoded;
  EncodeHeapTuple(tuple, &encoded);
  IDB_ASSIGN_OR_RETURN(Rid rid, heap_->Insert(encoded));
  row_map_.Insert(row_id, rid);
  max_row_id_ = std::max(max_row_id_, row_id);

  if (degradable_available) {
    for (size_t d = 0; d < schema().degradable_columns().size(); ++d) {
      IDB_RETURN_IF_ERROR(InsertDegradableLocked(d, row_id, insert_time,
                                                 degradable[d], ordinal_of(d)));
    }
  }
  ++stats_.inserts;
  mutation_seq_.fetch_add(1, std::memory_order_release);
  return Status::OK();
}

Status TablePartition::InsertDegradableLocked(size_t d, RowId row_id,
                                              Micros insert_time,
                                              const Value& value,
                                              int64_t ordinal) {
  // At most one label lookup (redo's) serves the store and the index.
  if (ordinal < 0) {
    IDB_ASSIGN_OR_RETURN(ordinal, stores_[d][0]->OrdinalOf(value));
  }
  IDB_RETURN_IF_ERROR(
      stores_[d][0]->Append({row_id, insert_time, value, ordinal}));
  if (!multires_.empty()) multires_[d]->OnInsert(row_id, 0, ordinal);
  return Status::OK();
}

Status TablePartition::ApplyDelete(RowId row_id) {
  std::unique_lock<std::shared_mutex> latch(latch_);
  const Rid* rid = row_map_.Find(row_id);
  if (rid == nullptr) return Status::OK();  // idempotent redo

  // Remove degradable values from stores + indexes.
  for (size_t d = 0; d < stores_.size(); ++d) {
    for (size_t p = 0; p < stores_[d].size(); ++p) {
      const std::optional<StoreEntryView> entry = stores_[d][p]->Find(row_id);
      if (!entry) continue;
      if (!multires_.empty()) {
        IDB_RETURN_IF_ERROR(multires_[d]->OnDelete(
            row_id, static_cast<int>(p), entry->ordinal));
      }
      IDB_RETURN_IF_ERROR(stores_[d][p]->SecureDeleteEntry(row_id));
      break;
    }
  }
  IDB_RETURN_IF_ERROR(heap_->Delete(*rid));
  row_map_.Erase(row_id);
  ++stats_.deletes;
  mutation_seq_.fetch_add(1, std::memory_order_release);
  return Status::OK();
}

Status TablePartition::ApplyUpdateStable(RowId row_id,
                                         const std::vector<Value>& stable) {
  std::unique_lock<std::shared_mutex> latch(latch_);
  Rid* rid = row_map_.Find(row_id);
  if (rid == nullptr) return Status::OK();  // idempotent redo
  HeapTuple tuple;
  Status decoded;
  IDB_RETURN_IF_ERROR(heap_->Read(*rid, [&](Slice record) {
    decoded = DecodeHeapTuple(schema(), record, &tuple);
  }));
  IDB_RETURN_IF_ERROR(decoded);
  tuple.stable = stable;
  std::string encoded;
  EncodeHeapTuple(tuple, &encoded);
  IDB_RETURN_IF_ERROR(heap_->Update(*rid, encoded, rid));
  mutation_seq_.fetch_add(1, std::memory_order_release);
  return Status::OK();
}

// --- read path ---------------------------------------------------------------------

std::vector<Morsel> TablePartition::MorselPlan(uint32_t pages_per_morsel) const {
  if (pages_per_morsel == 0) pages_per_morsel = kDefaultMorselPages;
  // num_pages is an atomic read; appends racing the plan land beyond the
  // snapshot and are covered by the open-ended last morsel.
  const PageId pages = heap_pool_->disk()->num_pages();
  std::vector<Morsel> plan;
  PageId begin = 0;
  do {
    Morsel m;
    m.partition = index_;
    m.begin_page = begin;
    begin += pages_per_morsel;
    m.end_page = begin < pages ? begin : kInvalidPageId;
    plan.push_back(m);
  } while (begin < pages);
  return plan;
}

template <typename ForEachRecord>
Status TablePartition::FillBatch(const ScanSpec& spec, ScanWorkspace* ws,
                                 ScanDeltas* deltas,
                                 ForEachRecord&& for_each_record) const {
  std::shared_lock<std::shared_mutex> latch(latch_);
  ws->count = 0;
  const size_t stable_count = schema().stable_columns().size();
  ws->fields.resize(stable_count);
  FieldView* const fields = ws->fields.data();
  size_t examined = 0;
  size_t survivors = 0;
  bool corrupt = false;
  // The per-record body, one inlined copy per record source.
  IDB_RETURN_IF_ERROR(for_each_record([&](Slice record) {
    ++examined;
    RowId row_id = kInvalidRowId;
    Micros insert_time = 0;
    const auto keep = [fields](size_t i, const FieldView& field) {
      fields[i] = field;
    };
    if (!WalkHeapRecord(record, stable_count, &row_id, &insert_time, keep)) {
      corrupt = true;
      return false;
    }
    // The views borrow the pinned page: σ runs on them right here, and only
    // a survivor's output columns become Values.
    if (spec.filter != nullptr && !spec.filter->Matches(fields)) return true;
    ++survivors;
    if (spec.count_only) return true;
    if (ws->count == ws->tuples.size()) ws->tuples.emplace_back();
    HeapTuple& slot = ws->tuples[ws->count++];
    slot.row_id = row_id;
    slot.insert_time = insert_time;
    slot.stable.resize(stable_count);
    for (size_t i = 0; i < stable_count; ++i) {
      if (spec.output_columns[i]) {
        slot.stable[i] = fields[i].ToValue();
      } else if (!slot.stable[i].is_null()) {
        slot.stable[i] = Value::Null();
      }
    }
    return true;
  }));
  if (corrupt) return Status::Corruption("malformed heap record");

  // Decode accounting: the filter's fields for every tuple examined, the
  // other output fields for every survivor.
  size_t filter_fields = 0;
  size_t output_only = 0;
  size_t outputs = 0;
  for (size_t i = 0; i < stable_count; ++i) {
    const bool filter_reads = spec.filter != nullptr &&
                              i < spec.filter_columns.size() &&
                              spec.filter_columns[i];
    filter_fields += filter_reads ? 1 : 0;
    outputs += spec.output_columns[i] ? 1 : 0;
    output_only += spec.output_columns[i] && !filter_reads ? 1 : 0;
  }
  const size_t dcols = schema().degradable_columns().size();
  const bool probe = spec.need_degradable && !spec.count_only;
  deltas->rows_scanned += examined;
  deltas->rows_prefiltered += examined - survivors;
  deltas->values_decoded += examined * filter_fields + survivors * output_only;
  deltas->values_built += ws->count * outputs;
  deltas->probes_skipped += (examined - survivors) * dcols;
  if (probe) {
    deltas->probes_issued += survivors * dcols;
    ResolveDegradableLocked(ws);
  } else {
    deltas->probes_skipped += survivors * dcols;
  }
  return Status::OK();
}

Status TablePartition::ScanBatchFiltered(Rid* pos, PageId end_page,
                                         size_t limit, const ScanSpec& spec,
                                         ScanWorkspace* ws, bool* done,
                                         ScanDeltas* deltas) const {
  *done = true;
  size_t taken = 0;
  return FillBatch(spec, ws, deltas, [&](const auto& take) {
    return heap_->ScanRange(*pos, end_page, [&](Rid rid, Slice record) {
      if (taken == limit) {
        *pos = rid;  // resume here: this record has not been consumed
        *done = false;
        return false;
      }
      ++taken;
      return take(record);
    });
  });
}

Status TablePartition::ReadRowsFiltered(const std::vector<RowId>& ids,
                                        size_t* next, size_t limit,
                                        const ScanSpec& spec,
                                        ScanWorkspace* ws, bool* done,
                                        ScanDeltas* deltas) const {
  return FillBatch(spec, ws, deltas, [&](const auto& take) {
    const size_t end = *next + std::min(limit, ids.size() - *next);
    bool ok = true;
    size_t cursor = 0;  // the ids ascend: each lookup gallops on from the last
    for (; ok && *next < end; ++*next) {
      const Rid* rid = row_map_.Seek(ids[*next], &cursor);
      if (rid == nullptr) continue;  // deleted or expired since the probe
      IDB_RETURN_IF_ERROR(
          heap_->Read(*rid, [&](Slice record) { ok = take(record); }));
    }
    *done = *next == ids.size();
    return Status::OK();
  });
}

void TablePartition::ResolveDegradableLocked(ScanWorkspace* ws) const {
  const size_t n = ws->count;
  const auto& degradable_cols = schema().degradable_columns();
  const size_t dcols = degradable_cols.size();
  ws->phases.resize(n * dcols);
  ws->ordinals.resize(n * dcols);
  if (dcols == 0 || n == 0) return;

  // One sorted merge per (column, phase) store over the survivors'
  // ascending row ids. Heap order is mostly — but not strictly —
  // ascending (updates relocate rows, and inserts fill the space deletes
  // and expiry freed), hence the sort when it is not.
  ws->order.resize(n);
  for (size_t k = 0; k < n; ++k) ws->order[k] = static_cast<uint32_t>(k);
  const auto by_row_id = [&](uint32_t a, uint32_t b) {
    return ws->tuples[a].row_id < ws->tuples[b].row_id;
  };
  if (!std::is_sorted(ws->order.begin(), ws->order.end(), by_row_id)) {
    std::sort(ws->order.begin(), ws->order.end(), by_row_id);
  }
  ws->ids.resize(n);
  for (size_t j = 0; j < n; ++j) ws->ids[j] = ws->tuples[ws->order[j]].row_id;
  for (size_t d = 0; d < dcols; ++d) {
    const int removed = schema().column(degradable_cols[d]).lcp.num_phases();
    ws->probe.assign(n, -1);
    for (size_t j = 0; j < n; ++j) {
      const size_t cell = ws->order[j] * dcols + d;
      ws->phases[cell] = removed;
      ws->ordinals[cell] = -1;
    }
    size_t found = 0;
    for (size_t p = 0; p < stores_[d].size() && found < n; ++p) {
      const size_t hits =
          stores_[d][p]->FindMany(ws->ids.data(), n, ws->probe.data());
      if (hits == 0) continue;
      found += hits;
      // Slots set by an earlier (more accurate) phase keep that phase.
      for (size_t j = 0; j < n; ++j) {
        const size_t cell = ws->order[j] * dcols + d;
        if (ws->phases[cell] == removed && ws->probe[j] >= 0) {
          ws->phases[cell] = static_cast<int>(p);
          ws->ordinals[cell] = ws->probe[j];
        }
      }
    }
  }
}

bool TablePartition::Contains(RowId row_id) const {
  std::shared_lock<std::shared_mutex> latch(latch_);
  return row_map_.Find(row_id) != nullptr;
}

uint64_t TablePartition::live_rows() const {
  std::shared_lock<std::shared_mutex> latch(latch_);
  return row_map_.size();
}

MemoryUsage TablePartition::row_memory() const {
  std::shared_lock<std::shared_mutex> latch(latch_);
  return MemoryUsage{row_map_.size(), row_map_.bytes()};
}

MemoryUsage TablePartition::index_memory() const {
  std::shared_lock<std::shared_mutex> latch(latch_);
  MemoryUsage memory;
  for (const auto& index : multires_) memory += index->memory();
  return memory;
}

MemoryUsage TablePartition::store_memory() const {
  std::shared_lock<std::shared_mutex> latch(latch_);
  MemoryUsage memory;
  for (const auto& per_phase : stores_) {
    for (const auto& store : per_phase) {
      memory += MemoryUsage{store->size(), store->mirror_bytes()};
    }
  }
  return memory;
}

Status TablePartition::IndexLookupEqual(int column, const Value& value,
                                        int level,
                                        std::vector<RowId>* out) const {
  std::shared_lock<std::shared_mutex> latch(latch_);
  const int ordinal = schema().DegradableOrdinal(column);
  if (ordinal < 0 || multires_.empty()) {
    return Status::InvalidArgument("no multi-resolution index on column");
  }
  IDB_RETURN_IF_ERROR(multires_[ordinal]->LookupEqual(value, level, [&](RowId rid) {
    out->push_back(rid);
    return true;
  }));
  std::sort(out->begin(), out->end());
  return Status::OK();
}

Status TablePartition::IndexLookupRange(int column, const Value& lo,
                                        const Value& hi, int level,
                                        std::vector<RowId>* out) const {
  std::shared_lock<std::shared_mutex> latch(latch_);
  const int ordinal = schema().DegradableOrdinal(column);
  if (ordinal < 0 || multires_.empty()) {
    return Status::InvalidArgument("no multi-resolution index on column");
  }
  IDB_RETURN_IF_ERROR(multires_[ordinal]->LookupRange(lo, hi, level, [&](RowId rid) {
    out->push_back(rid);
    return true;
  }));
  std::sort(out->begin(), out->end());
  return Status::OK();
}

// --- degradation ----------------------------------------------------------------------

Micros TablePartition::StoreHeadDeadline(int ordinal, int phase) const {
  const ColumnDef& col =
      schema().column(schema().degradable_columns()[ordinal]);
  if (stores_[ordinal][phase]->empty()) return kForever;
  const Micros head_insert = stores_[ordinal][phase]->Head().insert_time;
  const Micros offset = col.lcp.PhaseEndOffset(phase);
  if (offset == kForever) return kForever;
  return head_insert + offset;
}

TablePartition::PendingDegrade TablePartition::MostOverdue() const {
  PendingDegrade best;
  for (size_t d = 0; d < schema().degradable_columns().size(); ++d) {
    const ColumnDef& col = schema().column(schema().degradable_columns()[d]);
    for (int p = 0; p < col.lcp.num_phases(); ++p) {
      const Micros deadline = StoreHeadDeadline(static_cast<int>(d), p);
      if (deadline < best.deadline) {
        best = {schema().degradable_columns()[d], p, deadline};
      }
    }
  }
  return best;
}

Micros TablePartition::NextDeadline() const {
  std::shared_lock<std::shared_mutex> latch(latch_);
  return MostOverdue().deadline;
}

bool TablePartition::HasWorkAt(Micros now) const {
  return NextDeadline() <= now;
}

Result<size_t> TablePartition::RunDegradationStep(TransactionManager* tm,
                                                  Micros now,
                                                  size_t batch_limit,
                                                  bool* stepped_phase0) {
  *stepped_phase0 = false;
  // One step at a time per partition, from collect through apply. Two
  // passes collecting the same prefix could otherwise log a step after
  // another pass had carried its values further, and redo would replay it
  // over that move. The pass holding the partition drains it, so skip it.
  std::unique_lock<std::mutex> step(step_mu_, std::try_to_lock);
  if (!step.owns_lock()) return size_t{0};
  PendingDegrade target;
  {
    std::shared_lock<std::shared_mutex> latch(latch_);
    target = MostOverdue();
  }
  if (target.deadline > now) return size_t{0};

  const int col_idx = target.column;
  const int ordinal = schema().DegradableOrdinal(col_idx);
  const ColumnDef& col = schema().column(col_idx);
  const int from_phase = target.phase;
  const int to_phase = from_phase + 1;  // == num_phases means ⊥
  const bool removal = to_phase >= col.lcp.num_phases();

  // Collect the overdue prefix under the shared latch. f_k runs on the
  // stored leaf ordinal: the next phase's value and ordinal come from the
  // ancestor at its level, with no label lookup.
  std::vector<StoreEntry> moves;      // entries with generalized values
  std::vector<int64_t> old_ordinals;  // leaf ordinals at from_phase's level
  std::vector<Micros> deadlines;
  RowId up_to = 0;
  {
    std::shared_lock<std::shared_mutex> latch(latch_);
    const Micros offset = col.lcp.PhaseEndOffset(from_phase);
    const int to_level = removal ? 0 : col.lcp.phase(to_phase).level;
    stores_[ordinal][from_phase]->ForEach([&](const StoreEntryView& entry) {
      const Micros deadline = entry.insert_time + offset;
      if (deadline > now || moves.size() >= batch_limit) return false;
      StoreEntry moved{entry.row_id, entry.insert_time, Value::Null()};
      if (!removal) {
        moved.value = col.hierarchy->AncestorValue(entry.ordinal, to_level);
        moved.ordinal =
            col.hierarchy->AncestorRange(entry.ordinal, to_level).lo;
      }
      moves.push_back(std::move(moved));
      old_ordinals.push_back(entry.ordinal);
      deadlines.push_back(deadline);
      up_to = entry.row_id;
      return true;
    });
  }
  if (moves.empty()) return size_t{0};

  WalRecord record;
  record.type = WalRecordType::kDegradeStep;
  record.table = id();
  record.column = col_idx;
  record.from_phase = from_phase;
  record.to_phase = to_phase;
  record.up_to_row_id = up_to;
  // Removal steps log Null values: redo still needs the row ids to expire
  // tuples, and a NULL leaks nothing. Redo routes the record back to this
  // partition by hashing the row ids carried in `entries`.
  record.entries = moves;

  // No logical lock: a user delete that commits between collect and apply
  // leaves a row the apply finds gone, and skips.
  auto txn = tm->Begin();
  const size_t moved = moves.size();
  txn->AddOp(std::move(record),
             [this, col_idx, from_phase, to_phase, up_to, moves, old_ordinals] {
               return ApplyDegrade(col_idx, from_phase, to_phase, up_to, moves,
                                   &old_ordinals);
             });
  IDB_RETURN_IF_ERROR(tm->Commit(txn.get()));

  {
    std::unique_lock<std::shared_mutex> latch(latch_);
    for (size_t i = 0; i < deadlines.size(); ++i) {
      lateness_.Add(static_cast<double>(now - deadlines[i]));
    }
    ++stats_.degrade_steps;
    if (removal) {
      stats_.values_removed += moved;
    } else {
      stats_.values_degraded += moved;
    }
  }

  *stepped_phase0 = from_phase == 0;
  return moved;
}

Status TablePartition::ApplyDegrade(int col_idx, int from_phase, int to_phase,
                                    RowId up_to,
                                    const std::vector<StoreEntry>& moves,
                                    const std::vector<int64_t>* old_ordinals) {
  std::unique_lock<std::shared_mutex> latch(latch_);
  const int ordinal = schema().DegradableOrdinal(col_idx);
  const ColumnDef& col = schema().column(col_idx);
  const bool removal = to_phase >= col.lcp.num_phases();
  const bool update_indexes = old_ordinals != nullptr && !multires_.empty();

  // Pop exactly the collected entries. A prefix pop through `up_to` would
  // also destroy an out-of-order append that landed below `up_to` between
  // this step's collect and apply — that entry was never generalized and
  // must stay for a later step. (`up_to` remains in the WAL record for
  // observability; redo pops by the entry ids too.)
  (void)up_to;
  // Apply order: append and index updates FIRST, pops LAST. Every sub-step
  // can fail on an I/O error after the WAL record has already committed,
  // so the order is chosen to make any partial state self-healing: a fault
  // before the pop leaves the value in the from-phase store, where its
  // overdue deadline keeps it visible to the next degradation pass, which
  // re-collects and re-applies the step — Append of a present id, the
  // index OnDegrade hooks, and PopById of an absent id are all idempotent,
  // so the retry (or WAL redo after a crash) converges to the fully
  // applied state. Pop-first turned the same fault into permanent loss:
  // a popped-but-never-appended value vanished from every store, and no
  // later pass could find it again (the audit saw the heap shell with all
  // values at ⊥). The cost is a transient window where a value exists in
  // two stores at once — over-accurate, never under-durable — which the
  // retry erases.
  for (size_t i = 0; i < moves.size(); ++i) {
    const StoreEntry& move = moves[i];
    // A row deleted between collect and apply must not resurface.
    const bool row_live = row_map_.Find(move.row_id) != nullptr;
    if (!removal && row_live) {
      IDB_RETURN_IF_ERROR(stores_[ordinal][to_phase]->Append(move));
    }
    if (update_indexes && row_live) {
      multires_[ordinal]->OnDegrade(move.row_id, from_phase,
                                    (*old_ordinals)[i], to_phase,
                                    move.ordinal);
    }
  }
  for (const StoreEntry& move : moves) {
    IDB_RETURN_IF_ERROR(stores_[ordinal][from_phase]->PopById(move.row_id));
  }
  if (removal) {
    // Expiry last: MaybeExpireTupleLocked only removes the heap shell once
    // every store has dropped the row, so it must run after the pops.
    for (const StoreEntry& move : moves) {
      IDB_RETURN_IF_ERROR(MaybeExpireTupleLocked(move.row_id));
    }
  }
  mutation_seq_.fetch_add(1, std::memory_order_release);
  return Status::OK();
}

Status TablePartition::MaybeExpireTupleLocked(RowId row_id) {
  const Rid* rid = row_map_.Find(row_id);
  if (rid == nullptr) return Status::OK();
  for (const auto& per_phase : stores_) {
    for (const auto& store : per_phase) {
      if (store->Find(row_id)) return Status::OK();
    }
  }
  // Every degradable attribute reached ⊥: the tuple disappears, stable part
  // included (paper §II "up to disappearance from the database").
  IDB_RETURN_IF_ERROR(heap_->Delete(*rid));
  row_map_.Erase(row_id);
  ++stats_.tuples_expired;
  return Status::OK();
}

Micros TablePartition::SafeEpochTime() const {
  std::shared_lock<std::shared_mutex> latch(latch_);
  Micros safe = runtime_.clock->NowMicros();
  for (const auto& per_phase : stores_) {
    // Exact minimum, not Head(): the mirror is sorted by row id, and an
    // out-of-order commit can put an earlier insert_time behind the head.
    // Destroying an epoch key while such a value is still accurate would
    // make it unrecoverable after a crash.
    safe = std::min(safe, per_phase[0]->MinInsertTime());
  }
  return safe;
}

TablePartition::IndexAuditCounts TablePartition::AuditIndexes() const {
  IndexAuditCounts counts;
  if (multires_.empty()) return counts;
  // ONE shared-latch acquisition for the whole reconciliation: degrade
  // steps move store entries and index postings together under the
  // exclusive latch, so any two-acquisition scheme would race a live
  // degrader into false positives.
  std::shared_lock<std::shared_mutex> latch(latch_);
  for (size_t d = 0; d < stores_.size(); ++d) {
    for (size_t p = 0; p < stores_[d].size(); ++p) {
      const uint64_t actual = stores_[d][p]->size();
      const uint64_t indexed = multires_[d]->EntriesInPhase(static_cast<int>(p));
      if (indexed > actual) {
        // Postings claiming accuracy the data has lost: the privacy breach.
        counts.stale += indexed - actual;
      } else {
        counts.missing += actual - indexed;
      }
    }
  }
  return counts;
}

TablePartition::Stats TablePartition::stats() const {
  std::shared_lock<std::shared_mutex> latch(latch_);
  return stats_;
}

Histogram TablePartition::lateness_histogram() const {
  std::shared_lock<std::shared_mutex> latch(latch_);
  return lateness_;
}

}  // namespace instantdb
