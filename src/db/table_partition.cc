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
  std::vector<ValueType> stable_types;
  for (int idx : schema().stable_columns()) {
    stable_types.push_back(schema().column(idx).type);
  }
  heap_ = std::make_unique<HeapFile>(heap_pool_.get(), std::move(stable_types));
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
      if (p > 0) per_phase.back()->set_successor(store.get());
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
  // early — that residual window is what the ApplyInsert repair path and
  // Reconcile cover.) Across the stores of one column, phases go in
  // descending order: a META makes its store's pops durable, so the next
  // phase's copies of the popped values must be durable first. The shared
  // latch keeps degradation steps out for the whole flush.
  for (auto& per_phase : stores_) {
    for (auto store = per_phase.rbegin(); store != per_phase.rend(); ++store) {
      IDB_RETURN_IF_ERROR((*store)->Checkpoint());
    }
  }
  return heap_pool_->FlushAll();
}

Status TablePartition::Reconcile() {
  std::unique_lock<std::shared_mutex> latch(latch_);
  if (stores_.empty()) return Status::OK();
  // Stores first: a finer copy of a later phase's entry (its pop never
  // became durable), or an entry whose row is gone (the heap's expiry or
  // delete reached disk before the store's pop did).
  std::vector<RowId> scrub;
  for (auto& per_phase : stores_) {
    for (size_t p = 0; p < per_phase.size(); ++p) {
      per_phase[p]->ForEach([&](const StoreEntryView& entry) {
        if (row_map_.Find(entry.row_id) == nullptr ||
            std::any_of(per_phase.begin() + p + 1, per_phase.end(),
                        [&](const auto& s) { return s->Find(entry.row_id); })) {
          scrub.push_back(entry.row_id);
        }
        return true;
      });
      for (; !scrub.empty(); scrub.pop_back()) {
        IDB_RETURN_IF_ERROR(per_phase[p]->SecureDeleteEntry(scrub.back()));
        mutation_seq_.fetch_add(1, std::memory_order_release);
      }
    }
  }
  // Then the heap: a row no store holds has expired.
  std::vector<RowId> rows;
  row_map_.ForEach([&](RowId id) { rows.push_back(id); });
  const uint64_t expired = stats_.tuples_expired;
  for (const RowId id : rows) IDB_RETURN_IF_ERROR(MaybeExpireTupleLocked(id));
  if (stats_.tuples_expired != expired) {
    mutation_seq_.fetch_add(1, std::memory_order_release);
  }
  return Status::OK();
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

// --- apply -------------------------------------------------------------------------

Status TablePartition::ApplyInsert(const WalRecord& record) {
  const RowId row_id = record.row_id;
  // The phase each value's LCP mandates now: 0 for a live commit, whatever
  // the deadlines demand for redo, so recovery never writes a value back
  // more accurate than allowed. A row with every value at ⊥ has expired.
  const Micros age = runtime_.clock->NowMicros() - record.insert_time;
  const auto column = [&](size_t d) -> const ColumnDef& {
    return schema().column(schema().degradable_columns()[d]);
  };
  bool expired = !stores_.empty();
  for (size_t d = 0; d < stores_.size(); ++d) {
    expired &= column(d).lcp.PhaseAt(age) == column(d).lcp.num_phases();
  }
  std::unique_lock<std::shared_mutex> latch(latch_);
  // A re-apply over a row the heap already holds is not a blind skip. A
  // commit's apply can fail between the heap insert and a store append, and
  // a heap page can reach disk through buffer-pool eviction at any time,
  // independent of Checkpoint, so after a crash the heap may hold a row
  // whose store entries never became durable. So a value is appended
  // unless ANY phase holds the row (then nothing was lost: possibly it
  // already degraded). The insert counts once, when the apply that
  // completes it stores anything. Append and the index OnInsert hook are
  // idempotent.
  const bool fresh = row_map_.Find(row_id) == nullptr;
  if (fresh && expired) return Status::OK();
  if (fresh) {
    HeapTuple tuple;
    tuple.row_id = row_id;
    tuple.insert_time = record.insert_time;
    tuple.stable = record.stable;
    std::string encoded;
    EncodeHeapTuple(tuple, &encoded);
    IDB_ASSIGN_OR_RETURN(Rid rid, heap_->Insert(encoded));
    row_map_.Insert(row_id, rid);
    max_row_id_ = std::max(max_row_id_, row_id);
  }
  bool stored = fresh;
  for (size_t d = 0; d < stores_.size(); ++d) {
    const ColumnDef& col = column(d);
    const int phase = col.lcp.PhaseAt(age);
    if (phase == col.lcp.num_phases() ||
        (!fresh && std::any_of(stores_[d].begin(), stores_[d].end(),
                               [row_id](const auto& store) {
                                 return store->Find(row_id).has_value();
                               }))) {
      continue;
    }
    // At most one label lookup (redo's) serves the store and the index.
    int64_t ordinal = record.ordinals.empty() ? -1 : record.ordinals[d];
    if (ordinal < 0) {
      IDB_ASSIGN_OR_RETURN(ordinal,
                           stores_[d][0]->OrdinalOf(record.degradable[d]));
    }
    StoreEntry entry{row_id, record.insert_time, record.degradable[d],
                     ordinal};
    if (phase > 0) {
      const int level = col.lcp.phase(phase).level;
      entry.value = col.hierarchy->AncestorValue(ordinal, level);
      entry.ordinal = col.hierarchy->AncestorRange(ordinal, level).lo;
    }
    IDB_RETURN_IF_ERROR(stores_[d][phase]->Append(entry));
    if (!multires_.empty()) multires_[d]->OnInsert(row_id, phase, entry.ordinal);
    stored = true;
  }
  if (stored) {
    ++stats_.inserts;
    mutation_seq_.fetch_add(1, std::memory_order_release);
  }
  return Status::OK();
}

Status TablePartition::ApplyDelete(RowId row_id) {
  std::unique_lock<std::shared_mutex> latch(latch_);
  const Rid* rid = row_map_.Find(row_id);
  if (rid == nullptr) {
    ++stats_.applies_without_row;
    return Status::OK();
  }

  // Remove degradable values from stores, then indexes: the index follows
  // whatever the store did, so a failed scrub's retry finds them agreeing.
  for (size_t d = 0; d < stores_.size(); ++d) {
    for (size_t p = 0; p < stores_[d].size(); ++p) {
      const std::optional<StoreEntryView> entry = stores_[d][p]->Find(row_id);
      if (!entry) continue;
      const Status scrubbed = stores_[d][p]->SecureDeleteEntry(row_id);
      if (!multires_.empty() && !stores_[d][p]->Find(row_id)) {
        IDB_RETURN_IF_ERROR(multires_[d]->OnDelete(
            row_id, static_cast<int>(p), entry->ordinal));
      }
      IDB_RETURN_IF_ERROR(scrubbed);
      break;
    }
  }
  IDB_RETURN_IF_ERROR(heap_->Delete(*rid));
  row_map_.Erase(row_id);
  ++stats_.deletes;
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
  // The fields σ reads on every record (a filter with no column flags may
  // read any), then the output fields only a survivor needs. Without a
  // filter every record survives, so its outputs come first.
  ws->every_record_fields.clear();
  ws->survivor_fields.clear();
  for (uint32_t i = 0; i < stable_count; ++i) {
    const bool output = !spec.count_only && spec.output_columns[i];
    const bool filter_reads =
        spec.filter != nullptr &&
        (spec.filter_columns.empty() ||
         (i < spec.filter_columns.size() && spec.filter_columns[i]));
    if (filter_reads || (output && spec.filter == nullptr)) {
      ws->every_record_fields.push_back(i);
    } else if (output) {
      ws->survivor_fields.push_back(i);
    }
  }
  FieldScan scan;
  scan.fields = ws->fields.data();
  scan.first = &ws->every_record_fields;
  scan.rest = &ws->survivor_fields;
  size_t examined = 0;
  size_t survivors = 0;
  // The per-record body, one inlined copy per record source. The views
  // come from the page image or a walk of the record, and borrow the pinned
  // page: σ runs on them right here, and only a survivor's output columns
  // become Values.
  IDB_RETURN_IF_ERROR(for_each_record(
      &scan, [&](RowId row_id, Slice record, const FieldView* fields) {
        ++examined;
        if (spec.filter != nullptr && !spec.filter->Matches(fields)) {
          return true;
        }
        ++survivors;
        if (spec.count_only) return true;
        scan.CompleteFields();
        if (ws->count == ws->tuples.size()) ws->tuples.emplace_back();
        HeapTuple& slot = ws->tuples[ws->count++];
        slot.row_id = row_id;
        // The record passed the codec's checks when it was walked or
        // imaged, so its header parses.
        RowId header_id = kInvalidRowId;
        ParseHeapHeader(record, &header_id, &slot.insert_time);
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
  deltas->records_walked += scan.records_walked;
  deltas->page_images_built += scan.images_built;
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
  return FillBatch(spec, ws, deltas, [&](FieldScan* scan, const auto& take) {
    return heap_->ScanFields(
        *pos, end_page, scan,
        [&](Rid rid, RowId row_id, Slice record, const FieldView* fields) {
          if (taken == limit) {
            *pos = rid;  // resume here: this record has not been consumed
            *done = false;
            return false;
          }
          ++taken;
          return take(row_id, record, fields);
        });
  });
}

Status TablePartition::ReadRowsFiltered(const std::vector<RowId>& ids,
                                        size_t* next, size_t limit,
                                        const ScanSpec& spec,
                                        ScanWorkspace* ws, bool* done,
                                        ScanDeltas* deltas) const {
  return FillBatch(spec, ws, deltas, [&](FieldScan* scan, const auto& take) {
    const size_t end = *next + std::min(limit, ids.size() - *next);
    size_t cursor = 0;  // the ids ascend: each lookup gallops on from the last
    for (; *next < end; ++*next) {
      const Rid* rid = row_map_.Seek(ids[*next], &cursor);
      if (rid == nullptr) continue;  // deleted or expired since the probe
      IDB_RETURN_IF_ERROR(heap_->ReadFields(
          *rid, scan,
          [&](Rid, RowId row_id, Slice record, const FieldView* fields) {
            take(row_id, record, fields);
          }));
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
  // ascending (first fit places new rows in the holes deletes and expiry
  // freed, ahead of older rows), hence the sort when it is not.
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

Result<size_t> TablePartition::RunDegradationStep(Micros now,
                                                  size_t batch_limit) {
  // One in-memory move: nothing is logged, so collect and move happen under
  // one exclusive latch and no delete can slip between them.
  std::unique_lock<std::shared_mutex> latch(latch_);
  const PendingDegrade target = MostOverdue();
  if (target.deadline > now) return size_t{0};

  const int ordinal = schema().DegradableOrdinal(target.column);
  const ColumnDef& col = schema().column(target.column);
  const int from_phase = target.phase;
  const int to_phase = from_phase + 1;  // == num_phases means ⊥
  const bool removal = to_phase >= col.lcp.num_phases();
  StateStore* from = stores_[ordinal][from_phase].get();
  StateStore* to = removal ? nullptr : stores_[ordinal][to_phase].get();
  const Micros offset = col.lcp.PhaseEndOffset(from_phase);

  // The overdue prefix of the from-phase store, in store order.
  std::vector<StoreEntryView> due;
  from->ForEach([&](const StoreEntryView& entry) {
    if (entry.insert_time + offset > now || due.size() >= batch_limit) {
      return false;
    }
    due.push_back(entry);
    return true;
  });
  if (due.empty()) return size_t{0};

  // Append first, pop after: a failed append leaves the value and the ones
  // after it in the from-phase store, for the next step. f_k runs on the
  // stored leaf ordinal: the next level's value and ordinal are its
  // ancestor's, with no label lookup.
  Status status;
  std::vector<int64_t> to_ordinals(due.size(), -1);
  size_t moved = removal ? due.size() : 0;
  if (!removal) {
    const int to_level = col.lcp.phase(to_phase).level;
    for (; moved < due.size(); ++moved) {
      const StoreEntryView& entry = due[moved];
      to_ordinals[moved] =
          col.hierarchy->AncestorRange(entry.ordinal, to_level).lo;
      status = to->Append({entry.row_id, entry.insert_time,
                           col.hierarchy->AncestorValue(entry.ordinal, to_level),
                           to_ordinals[moved]});
      if (!status.ok()) break;
    }
  }
  // A pop that fails erasing a drained segment has still left the mirror;
  // the next pop retries the erase. So every moved value is popped, and a
  // removal expires the tuple once no store holds it.
  for (size_t i = 0; i < moved; ++i) {
    if (!multires_.empty()) {
      multires_[ordinal]->OnDegrade(due[i].row_id, from_phase, due[i].ordinal,
                                    to_phase, to_ordinals[i]);
    }
    Status done = from->PopById(due[i].row_id);
    if (done.ok() && removal) done = MaybeExpireTupleLocked(due[i].row_id);
    if (status.ok()) status = done;
    lateness_.Add(static_cast<double>(now - (due[i].insert_time + offset)));
  }
  ++stats_.degrade_steps;
  (removal ? stats_.values_removed : stats_.values_degraded) += moved;
  mutation_seq_.fetch_add(1, std::memory_order_release);
  IDB_RETURN_IF_ERROR(status);
  return moved;
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
