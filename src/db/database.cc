#include "db/database.h"

#include <algorithm>
#include <cstdlib>
#include <set>
#include <shared_mutex>

#include "common/strings.h"
#include "io/env.h"

namespace instantdb {

Result<std::unique_ptr<Database>> Database::Open(const DbOptions& options) {
  if (options.path.empty()) {
    return Status::InvalidArgument("DbOptions::path must be set");
  }
  if (options.partitions > kMaxPartitions) {
    return Status::InvalidArgument("DbOptions::partitions exceeds limit");
  }
  auto db = std::unique_ptr<Database>(new Database(options));
  const Status opened = db->OpenImpl();
  if (!opened.ok()) {
    // Half open: stop what started, but never run Close()'s checkpoint —
    // recovery may not have finished, and the manifest must not move past
    // redo that was never applied.
    db->closed_ = true;
    if (db->degrader_ != nullptr) db->degrader_->Stop();
    return opened;
  }
  return db;
}

Database::~Database() { Close().ok(); }

std::string Database::TableDir(TableId id) const {
  return options_.path + StringPrintf("/tables/t%u", id);
}

TableRuntime Database::MakeRuntime() const {
  TableRuntime runtime;
  runtime.storage = options_.storage;
  runtime.partitions = options_.partitions == 0 ? 1 : options_.partitions;
  runtime.keys = keys_.get();
  runtime.clock = clock_;
  runtime.env = env_;
  return runtime;
}

Status Database::CheckFormat() {
  const std::string& dir = options_.path;
  const std::string format_path = dir + "/FORMAT";
  std::vector<std::string> names;
  if (env_->FileExists(dir)) {
    IDB_ASSIGN_OR_RETURN(names, env_->ListDir(dir));
  }
  if (!names.empty()) {
    const bool stamped = env_->FileExists(format_path);
    std::string text;
    if (stamped) {
      IDB_ASSIGN_OR_RETURN(text, env_->ReadFileToString(format_path));
    }
    const bool parsed = !text.empty() && text.find_first_not_of(
                                             "0123456789") == std::string::npos;
    const unsigned long long version =
        parsed ? std::strtoull(text.c_str(), nullptr, 10) : 0;
    if (parsed && version == kFormatVersion) return Status::OK();
    // A FORMAT alone that does not parse is a crash during creation.
    if (parsed || names.size() != 1 || !stamped) {
      const std::string found =
          parsed ? "format " + std::to_string(version)
                 : stamped ? "an unreadable FORMAT stamp" : "no FORMAT stamp";
      return Status::NotSupported(StringPrintf(
          "%s has %s; this build reads only format %u and converts nothing",
          dir.c_str(), found.c_str(), kFormatVersion));
    }
  }
  IDB_RETURN_IF_ERROR(env_->CreateDirs(dir));
  return env_->WriteStringToFile(format_path, std::to_string(kFormatVersion),
                                 /*sync=*/true);
}

Status Database::OpenImpl() {
  env_ = options_.env != nullptr ? options_.env : Env::Default();
  IDB_RETURN_IF_ERROR(CheckFormat());
  IDB_RETURN_IF_ERROR(env_->CreateDirs(options_.path + "/tables"));

  if (options_.clock != nullptr) {
    clock_ = options_.clock;
  } else {
    owned_clock_ = std::make_unique<SystemClock>();
    clock_ = owned_clock_.get();
  }

  keys_ = std::make_unique<KeyManager>(options_.path + "/KEYSTORE", env_);
  IDB_RETURN_IF_ERROR(keys_->Open());

  const std::string catalog_path = options_.path + "/CATALOG";
  if (env_->FileExists(catalog_path)) {
    IDB_ASSIGN_OR_RETURN(catalog_, Catalog::LoadFrom(catalog_path, env_));
  } else {
    catalog_ = std::make_unique<Catalog>();
  }

  wal_ = std::make_unique<WalManager>(options_.path + "/wal", options_.wal,
                                      keys_.get(), env_);
  IDB_RETURN_IF_ERROR(wal_->Open());

  tm_ = std::make_unique<TransactionManager>(
      wal_.get(),
      [this](const WalRecord& record) { return Apply(record); });
  degrader_ = std::make_unique<DegradationEngine>(this);

  for (const TableDef* def : catalog_->tables()) {
    auto table = std::make_unique<Table>(def, TableDir(def->id), MakeRuntime());
    IDB_RETURN_IF_ERROR(table->Open());
    degrader_->RegisterTable(table.get());
    tables_[def->id] = std::move(table);
  }

  IDB_RETURN_IF_ERROR(Recover());

  // Partitions reconcile and rebuild their indexes on the worker pool —
  // partition-parallel recovery, like the degradation passes the pool was
  // sized for.
  for (auto& [id, table] : tables_) {
    IDB_RETURN_IF_ERROR(table->FinishRecovery(worker_pool_));
  }

  if (options_.degradation.background_thread || options_.maintenance.enabled) {
    IDB_RETURN_IF_ERROR(degrader_->Start());
  }
  return Status::OK();
}

Status Database::Recover() {
  IDB_ASSIGN_OR_RETURN(const Lsn checkpoint, wal_->ReadCheckpointLsn());

  // Two passes inside RecoverCommitted: committed transaction set (commit
  // markers that survived the torn-tail truncation), then idempotent redo
  // of committed work in log order.
  uint64_t max_txn_id = 0;
  IDB_RETURN_IF_ERROR(wal_->RecoverCommitted(
      checkpoint, [this](const WalRecord& record) { return Apply(record); },
      &max_txn_id));
  // Resume transaction ids above everything in the replay range: a reused
  // id would alias this generation's records on the next recovery.
  tm_->EnsureTxnIdsAbove(max_txn_id);
  return Status::OK();
}

Status Database::Apply(const WalRecord& record) {
  Table* table = GetTable(record.table);
  if (table == nullptr) return Status::OK();
  IDB_RETURN_IF_ERROR(table->Apply(record));
  // An insert's payload deadline is its values' earliest store deadline
  // and its WAL copy's: either may land before the loop's armed wake.
  degrader_->Publish(record.payload_deadline);
  return Status::OK();
}

Result<const TableDef*> Database::CreateTable(const std::string& name,
                                              Schema schema) {
  // Exclusive against the background loop's readers of tables_ (cadence
  // checkpoints, dirty polls, audit sweeps).
  std::unique_lock<std::shared_mutex> ddl(ddl_mu_);
  IDB_ASSIGN_OR_RETURN(const TableDef* def,
                       catalog_->CreateTable(name, std::move(schema)));
  IDB_RETURN_IF_ERROR(catalog_->SaveTo(options_.path + "/CATALOG", env_));
  auto table = std::make_unique<Table>(def, TableDir(def->id), MakeRuntime());
  IDB_RETURN_IF_ERROR(table->Open());
  IDB_RETURN_IF_ERROR(table->FinishRecovery(worker_pool_));
  // Into the map before the degrader sees it: every table it steps is
  // reachable by id.
  Table* created = table.get();
  {
    std::unique_lock<std::shared_mutex> map(tables_mu_);
    tables_[def->id] = std::move(table);
  }
  degrader_->RegisterTable(created);
  return def;
}

Status Database::DropTable(const std::string& name) {
  // Exclusive DDL lock: an in-progress audit sweep or cadence checkpoint
  // holds it shared, so the table cannot be destroyed under either.
  std::unique_lock<std::shared_mutex> ddl(ddl_mu_);
  const TableDef* def = catalog_->GetTable(name);
  if (def == nullptr) return Status::NotFound("no such table: " + name);
  const TableId id = def->id;
  degrader_->UnregisterTable(id);
  auto it = tables_.find(id);
  if (it != tables_.end()) {
    IDB_RETURN_IF_ERROR(it->second->Drop());
    std::unique_lock<std::shared_mutex> map(tables_mu_);
    tables_.erase(it);
  }
  IDB_RETURN_IF_ERROR(catalog_->DropTable(name));
  return catalog_->SaveTo(options_.path + "/CATALOG", env_);
}

Table* Database::GetTable(const std::string& name) const {
  const TableDef* def = catalog_->GetTable(name);
  return def == nullptr ? nullptr : GetTable(def->id);
}

Table* Database::GetTable(TableId id) const {
  std::shared_lock<std::shared_mutex> map(tables_mu_);
  auto it = tables_.find(id);
  return it == tables_.end() ? nullptr : it->second.get();
}

Status Database::Write(WriteBatch* batch, const WriteOptions& options) {
  batch->row_ids_.clear();
  if (batch->ops_.empty()) return Status::OK();
  batch->row_ids_.reserve(batch->ops_.size());
  auto txn = Begin();
  // Batches are overwhelmingly single-table: resolve the name once per run
  // of identical names instead of one catalog lookup per row.
  Table* table = nullptr;
  const std::string* resolved_name = nullptr;
  for (const WriteBatch::Op& op : batch->ops_) {
    if (resolved_name == nullptr || op.table != *resolved_name) {
      table = GetTable(op.table);
      resolved_name = &op.table;
    }
    if (table == nullptr) {
      Abort(txn.get());
      batch->row_ids_.clear();
      return Status::NotFound("no such table: " + op.table);
    }
    if (op.is_insert) {
      auto row_id = table->Insert(txn.get(), op.row);
      if (!row_id.ok()) {
        Abort(txn.get());
        batch->row_ids_.clear();
        return row_id.status();
      }
      batch->row_ids_.push_back(*row_id);
    } else {
      const Status status = table->Delete(txn.get(), op.row_id);
      if (!status.ok()) {
        Abort(txn.get());
        batch->row_ids_.clear();
        return status;
      }
      batch->row_ids_.push_back(kInvalidRowId);
    }
  }
  const Status status = Commit(txn.get(), options);
  if (!status.ok()) batch->row_ids_.clear();
  return status;
}

Result<RowId> Database::Insert(const std::string& table_name,
                               const std::vector<Value>& row,
                               const WriteOptions& options) {
  WriteBatch batch;
  batch.Insert(table_name, row);
  IDB_RETURN_IF_ERROR(Write(&batch, options));
  return batch.row_ids()[0];
}

Status Database::Delete(const std::string& table_name, RowId row_id,
                        const WriteOptions& options) {
  WriteBatch batch;
  batch.Delete(table_name, row_id);
  return Write(&batch, options);
}

Status Database::Checkpoint() {
  // Fuzzy checkpoint: capture the replay-start LSN BEFORE flushing
  // any table state, at a point where no commit is between its WAL append
  // and its apply. A transaction committing mid-flush (a concurrent
  // WriteBatch) may be only partially reflected in the flushed state;
  // starting replay at `begin` re-applies it idempotently instead of
  // silently excluding it. Degradation needs no log: each partition flushes
  // its stores in descending phase order (TablePartition::Checkpoint).
  const Lsn begin = tm_->CheckpointBeginLsn();

  // Write-ahead barrier: every record the partitions have already applied
  // is durable BEFORE any flush makes its effects durable. A transaction
  // that touched several partitions (inserts into two tables) may
  // otherwise have one partition's part flushed while its unsynced records
  // die with a crash: the other part is then lost for good, and the
  // transaction survives in part. With the log synced, redo completes it.
  IDB_RETURN_IF_ERROR(wal_->Sync());

  // Incremental flush: only partitions mutated since their last flush do
  // I/O, fanned out over the degradation pool size — so one large cold
  // table no longer stalls the retirement cadence scrubbing depends on.
  // The shared DDL lock pins the table set for the whole flush: the cadence
  // checkpoints from the background loop, and a concurrent DropTable must
  // not destroy a partition mid-flush.
  std::shared_lock<std::shared_mutex> ddl(ddl_mu_);
  std::vector<TablePartition*> units;
  for (auto& [id, table] : tables_) {
    for (uint32_t p = 0; p < table->num_partitions(); ++p) {
      units.push_back(table->partition(p));
    }
  }
  std::atomic<uint64_t> flushed{0};
  std::atomic<uint64_t> clean{0};
  IDB_RETURN_IF_ERROR(worker_pool_.Run(
      std::max<size_t>(options_.degradation.worker_threads, 1), units.size(),
      [&](size_t i) {
        IDB_ASSIGN_OR_RETURN(const bool ran, units[i]->CheckpointIfDirty());
        (ran ? flushed : clean).fetch_add(1, std::memory_order_relaxed);
        return Status::OK();
      }));
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  checkpoint_partitions_flushed_.fetch_add(flushed.load(),
                                           std::memory_order_relaxed);
  checkpoint_partitions_clean_.fetch_add(clean.load(),
                                         std::memory_order_relaxed);

  // Every partition flushed or was clean (a failure returned above), so
  // durable storage covers everything below `begin`.
  return wal_->LogCheckpoint(begin).status();
}

uint64_t Database::DirtyPartitions() const {
  std::shared_lock<std::shared_mutex> ddl(ddl_mu_);
  uint64_t dirty = 0;
  for (const auto& [id, table] : tables_) {
    for (uint32_t p = 0; p < table->num_partitions(); ++p) {
      if (table->partition(p)->dirty()) ++dirty;
    }
  }
  return dirty;
}

AuditReport Database::RunAuditSweep(const DeletionAuditor& auditor, Micros now,
                                    Micros grace) const {
  std::shared_lock<std::shared_mutex> ddl(ddl_mu_);
  std::vector<Table*> tables;
  tables.reserve(tables_.size());
  for (const auto& [id, table] : tables_) tables.push_back(table.get());
  return auditor.Run(tables, now, grace);
}

Database::Stats Database::stats() const {
  Stats stats;
  stats.wal = wal_->stats();
  stats.txn = tm_->stats();
  stats.degradation = degrader_->stats();
  stats.maintenance = degrader_->maintenance_stats();
  stats.scan.batches = scan_counters_.batches.load(std::memory_order_relaxed);
  stats.scan.rows = scan_counters_.rows.load(std::memory_order_relaxed);
  stats.scan.prefetch_stalls =
      scan_counters_.prefetch_stalls.load(std::memory_order_relaxed);
  stats.scan.rows_prefiltered =
      scan_counters_.rows_prefiltered.load(std::memory_order_relaxed);
  stats.scan.store_probes_issued =
      scan_counters_.store_probes_issued.load(std::memory_order_relaxed);
  stats.scan.store_probes_skipped =
      scan_counters_.store_probes_skipped.load(std::memory_order_relaxed);
  stats.scan.values_decoded =
      scan_counters_.values_decoded.load(std::memory_order_relaxed);
  stats.scan.values_built =
      scan_counters_.values_built.load(std::memory_order_relaxed);
  stats.scan.aggregate_partials_merged =
      scan_counters_.aggregate_partials_merged.load(std::memory_order_relaxed);
  stats.scan.morsels_claimed =
      scan_counters_.morsels_claimed.load(std::memory_order_relaxed);
  stats.scan.morsels_stolen =
      scan_counters_.morsels_stolen.load(std::memory_order_relaxed);
  stats.scan.steal_failures =
      scan_counters_.steal_failures.load(std::memory_order_relaxed);
  stats.scan.readers_lent =
      scan_counters_.readers_lent.load(std::memory_order_relaxed);
  stats.scan.readers_yielded =
      scan_counters_.readers_yielded.load(std::memory_order_relaxed);
  stats.scan.records_walked =
      scan_counters_.records_walked.load(std::memory_order_relaxed);
  stats.scan.page_images_built =
      scan_counters_.page_images_built.load(std::memory_order_relaxed);
  stats.checkpoints = checkpoints_.load(std::memory_order_relaxed);
  stats.checkpoint_partitions_flushed =
      checkpoint_partitions_flushed_.load(std::memory_order_relaxed);
  stats.checkpoint_partitions_clean =
      checkpoint_partitions_clean_.load(std::memory_order_relaxed);
  {
    std::shared_lock<std::shared_mutex> ddl(ddl_mu_);
    for (const auto& [id, table] : tables_) {
      for (uint32_t p = 0; p < table->num_partitions(); ++p) {
        stats.stores += table->partition(p)->store_memory();
        stats.index += table->partition(p)->index_memory();
        stats.rows += table->partition(p)->row_memory();
        stats.page_images += table->partition(p)->heap_pool()->image_memory();
        stats.heap_frames += table->partition(p)->heap_pool()->frame_memory();
      }
    }
  }
  stats.service.submitted =
      service_counters_.submitted.load(std::memory_order_relaxed);
  stats.service.admitted =
      service_counters_.admitted.load(std::memory_order_relaxed);
  stats.service.queued = service_counters_.queued.load(std::memory_order_relaxed);
  stats.service.rejected_overload =
      service_counters_.rejected_overload.load(std::memory_order_relaxed);
  stats.service.rejected_shutdown =
      service_counters_.rejected_shutdown.load(std::memory_order_relaxed);
  stats.service.rejected_deadline =
      service_counters_.rejected_deadline.load(std::memory_order_relaxed);
  stats.service.timeouts =
      service_counters_.timeouts.load(std::memory_order_relaxed);
  stats.service.cancelled =
      service_counters_.cancelled.load(std::memory_order_relaxed);
  stats.service.max_queue_depth =
      service_counters_.max_queue_depth.load(std::memory_order_relaxed);
  stats.service.degradation_reserved_dispatches = worker_pool_.reserved_grants();
  const IoCounters io = env_->io_counters();
  stats.io.writes = io.writes;
  stats.io.syncs = io.syncs;
  stats.io.sync_failures = io.sync_failures;
  stats.io.injected_faults = io.injected_faults;
  stats.io.retries = stats.degradation.io_retries;
  const Status first = degrader_->first_error();
  if (!first.ok()) stats.io.first_error = first.ToString();
  return stats;
}

Result<size_t> Database::RunDegradationOnce() {
  return degrader_->RunDue(clock_->NowMicros());
}

Status Database::Close() {
  if (closed_) return Status::OK();
  closed_ = true;
  // The service front end drains first — queued statements reject with
  // Shutdown, in-flight ones finish — so nothing new reaches the engine.
  std::function<void()> pre_close;
  {
    std::lock_guard<std::mutex> lock(pre_close_mu_);
    pre_close = pre_close_hook_;
  }
  if (pre_close) pre_close();
  degrader_->Stop();  // joins the loop, then waits out a pumped pass
  Status status = Checkpoint();
  // Surface the first sticky background error even when the final
  // checkpoint succeeded: a loop that hit (and maybe retried past) a disk
  // failure must not close with a silent OK.
  if (status.ok()) status = degrader_->first_error();
  return status;
}

}  // namespace instantdb
