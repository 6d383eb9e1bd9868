#ifndef INSTANTDB_DB_DATABASE_H_
#define INSTANTDB_DB_DATABASE_H_

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/options.h"
#include "db/table.h"
#include "db/write_batch.h"
#include "degrade/degradation_engine.h"
#include "txn/transaction.h"
#include "util/worker_pool.h"
#include "wal/wal_manager.h"

namespace instantdb {

/// Version of the on-disk layout, stamped as one decimal integer in
/// `<path>/FORMAT` when a database is created. Open refuses any other
/// version, and any non-empty directory without the stamp, with
/// NotSupported and touches nothing. A layout change bumps this number and
/// ships no converter.
inline constexpr uint32_t kFormatVersion = 4;

/// Top-level configuration of an InstantDB instance.
struct DbOptions {
  std::string path;
  StorageOptions storage;
  WalOptions wal;
  DegradationOptions degradation;
  /// Background checkpoint cadence + continuous deletion-assurance audits,
  /// run by the DegradationEngine's loop (degrade/degradation_engine.h).
  MaintenanceOptions maintenance;
  /// Hash-partitions of the row-id space per table (1 by default); higher
  /// values let scans, batched ingest and the degradation worker pool scale
  /// across cores. The count is persisted per table at creation — reopening
  /// with a different value keeps the on-disk count.
  uint32_t partitions = 1;
  /// External clock (a VirtualClock for tests/benchmarks). When null the
  /// database owns a SystemClock.
  Clock* clock = nullptr;
  /// Filesystem seam (io/env.h): every durability-bearing file operation of
  /// this instance routes through it. nullptr = Env::Default(). Tests pass a
  /// FaultInjectionEnv to exercise fsync EIO, short writes, ENOSPC and
  /// simulated crashes.
  Env* env = nullptr;
};

/// \brief The InstantDB engine facade: catalog + WAL + transactions +
/// tables + degrader, with crash recovery on open.
///
/// Typical embedded use:
/// \code
///   DbOptions options;
///   options.path = "/data/mydb";
///   auto db = Database::Open(options);
///   auto schema = Schema::Make({
///       ColumnDef::Stable("user", ValueType::kString),
///       ColumnDef::Degradable("location", LocationDomain(),
///                             Fig2LocationLcp())});
///   db->CreateTable("pings", *schema);
///   db->Insert("pings", {Value::String("alice"),
///                        Value::String("11 Rue Lepic")});
/// \endcode
///
/// SQL access (DECLARE PURPOSE / SELECT / INSERT / DELETE) is provided by
/// `Session` in query/session.h.
class Database {
 public:
  /// Opens (creating when missing or empty) the database at
  /// `options.path`; a directory of another format is NotSupported (see
  /// kFormatVersion).
  static Result<std::unique_ptr<Database>> Open(const DbOptions& options);
  ~Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Orderly shutdown, called by the destructor and safe to call twice:
  /// drains the attached service front end, stops the background loop and
  /// waits out any caller-pumped degradation pass, then runs a final
  /// checkpoint. Returns the first sticky background error when the
  /// checkpoint succeeds.
  Status Close();

  // --- DDL -------------------------------------------------------------------

  Result<const TableDef*> CreateTable(const std::string& name, Schema schema);
  /// Drops the table and securely erases all its storage.
  Status DropTable(const std::string& name);
  /// nullptr when absent.
  Table* GetTable(const std::string& name) const;
  Table* GetTable(TableId id) const;
  const Catalog& catalog() const { return *catalog_; }

  // --- transactions ------------------------------------------------------------

  std::unique_ptr<Transaction> Begin() { return tm_->Begin(); }
  /// Commits `txn` (TransactionManager::Commit).
  Status Commit(Transaction* txn, const WriteOptions& options = {}) {
    return tm_->Commit(txn, options.sync);
  }
  void Abort(Transaction* txn) { tm_->Abort(txn); }

  /// Applies every staged operation of `batch` atomically: one transaction,
  /// one WAL append/sync (group commit). On success the batch's `row_ids()`
  /// carry the assigned id of each staged insert. This is the scalable
  /// ingest path — per-row Insert/Delete pay the full commit overhead per
  /// row. A failure while staging or logging applies nothing; see
  /// TransactionManager::Commit for a failure after the log append.
  Status Write(WriteBatch* batch, const WriteOptions& options = {});

  /// Single-statement convenience: insert one row (schema order) in its own
  /// transaction. Returns the assigned row id. Thin wrapper over the same
  /// path WriteBatch uses with a batch of one.
  Result<RowId> Insert(const std::string& table, const std::vector<Value>& row,
                       const WriteOptions& options = {});
  /// Single-statement convenience: delete one row by id.
  Status Delete(const std::string& table, RowId row_id,
                const WriteOptions& options = {});

  // --- maintenance ---------------------------------------------------------------

  /// Incremental fuzzy checkpoint: captures the begin LSN under the commit
  /// barrier, flushes ONLY the partitions mutated since their last flush
  /// (fanned out over DegradationOptions::worker_threads workers — the same
  /// pool size the degrader uses), stamps the WAL CHECKPOINT manifest with
  /// the begin LSN once every partition succeeded, and retires fully-covered
  /// segments per the privacy mode. Clean partitions cost one atomic
  /// compare — a mostly-cold database checkpoints in O(dirty), which is what
  /// keeps the segment retirement cadence (and therefore the timeliness of
  /// kScrub and kCryptoErase) independent of total data volume.
  Status Checkpoint();

  /// Pumped degradation: run everything due at the clock's current time.
  Result<size_t> RunDegradationOnce();

  /// Partitions with mutations applied since their last checkpoint flush
  /// (latch-free poll; the checkpoint cadence's test). Taken under the shared
  /// DDL lock so a concurrent CreateTable/DropTable can't invalidate the
  /// table map mid-count.
  uint64_t DirtyPartitions() const;

  /// Runs `auditor` over every live table while holding the DDL lock
  /// shared, so a concurrent DropTable cannot destroy a table mid-sweep
  /// (the engine's audit entry point; tests go through Audit()).
  AuditReport RunAuditSweep(const DeletionAuditor& auditor, Micros now,
                            Micros grace) const;

  /// On-demand deletion-assurance sweep at the clock's current time
  /// (cadence-independent; DegradationEngine::RunAuditNow). The report's
  /// Verify() is the hard-fail form.
  AuditReport Audit() { return degrader_->RunAuditNow(); }

  // --- statistics ----------------------------------------------------------------

  /// Read-path counters (snapshot in Stats::scan). Benches read parallel
  /// scan efficiency from these instead of timing guesses: `rows` / elapsed
  /// is assembly throughput, `prefetch_stalls` counts how often a cursor's
  /// consumer, with no morsel left to read itself, waited for its producers,
  /// and `readers_lent` / `readers_yielded` show how elastic the fan-out
  /// was.
  struct ScanStats {
    /// Scan batches served to the operator pipeline (heap batches plus
    /// index-probe batches).
    uint64_t batches = 0;
    /// Rows pulled out of partition heaps / index probes before σ.
    uint64_t rows = 0;
    /// Times a streaming cursor's consumer had to wait: its own reader had
    /// found the morsel plan empty and the prefetch queue was empty while
    /// producers still read claimed morsels. A consumer that finds the
    /// queue empty otherwise scans a batch itself, so many stalls means the
    /// last morsels' reads are the bottleneck (smaller morsels help), zero
    /// means the consumer never ran out of work.
    uint64_t prefetch_stalls = 0;
    /// Pushdown accounting of the heap scans. Per scanned row and
    /// degradable column the read path either issues a store probe or
    /// provably skips it, so over the heap scan paths
    /// store_probes_issued + store_probes_skipped ==
    /// rows × degradable columns (asserted in tests).
    /// Rows rejected by the stable-column filter inside the scan, before
    /// any store probe or further decode:
    uint64_t rows_prefiltered = 0;
    /// (row, degradable column) store resolutions performed / avoided:
    uint64_t store_probes_issued = 0;
    uint64_t store_probes_skipped = 0;
    /// Stable values the heap scans decoded: the columns the stable filter
    /// reads for every row scanned, plus the projected-only ones for the
    /// filter's survivors. COUNT(*) decodes none.
    uint64_t values_decoded = 0;
    /// Stable Values the heap scans constructed: one per projected stable
    /// column of every survivor. The filter reads borrowed field views of
    /// the record instead, so COUNT(*) builds none.
    uint64_t values_built = 0;
    /// Per-worker aggregate partials (or group maps) merged into final
    /// results by heap-scan aggregates (index-probe aggregates merge none).
    uint64_t aggregate_partials_merged = 0;
    /// Page-range work units the query scans claimed (util/morsel.h).
    /// Invariant (asserted in tests): a fully-drained scan claims exactly
    /// its morsel-plan size — morsels_claimed grows by Σ per-partition plan
    /// sizes per scan.
    uint64_t morsels_claimed = 0;
    /// Always 0: one claim cursor has no home queue to steal from. Kept
    /// only for the benchmark's util.morsel_steal_ratio until that metric
    /// is retired.
    uint64_t morsels_stolen = 0;
    /// Elastic fan-out (util/worker_pool.h): scan readers the worker pool
    /// lent statements beside their callers' own readers, and how many of
    /// those stopped claiming morsels early to give their core back to a
    /// statement (WorkerPool::ShouldYield). A yield never loses a morsel:
    /// morsels_claimed still grows by the plan size per scan.
    uint64_t readers_lent = 0;
    uint64_t readers_yielded = 0;
    /// Physical decode work under the pushdown counters above: heap
    /// records walked with WalkHeapRecord (page image builds included; a
    /// record read from a page image is not walked), and page images
    /// built (storage/page_image.h). A range scan that reads a stable
    /// field builds a page's image on its second fetch since the page was
    /// loaded or last written; after that, scans of the page walk nothing.
    uint64_t records_walked = 0;
    uint64_t page_images_built = 0;
  };

  /// I/O-layer health (snapshot in Stats::io): physical-operation counters
  /// from the instance's Env plus the consumers' retry/error bookkeeping.
  /// Invariant (asserted by the fault-injection tests): sync_failures > 0 ⇒
  /// wal.poisoned > 0 OR retries > 0 — a failed sync is never
  /// silently retried-and-forgotten (fsyncgate).
  struct IoStats {
    /// File write operations issued (appends + positional writes).
    uint64_t writes = 0;
    /// fsync/fdatasync operations issued, and how many returned an error.
    uint64_t syncs = 0;
    uint64_t sync_failures = 0;
    /// Background steps that failed with IOError or Busy and were retried
    /// after a backoff (DegradationEngine::Stats::io_retries).
    uint64_t retries = 0;
    /// Faults injected by a FaultInjectionEnv (0 in production).
    uint64_t injected_faults = 0;
    /// First sticky background I/O error, empty when healthy (the same
    /// status Close() returns; recorded even after later retries succeed).
    std::string first_error;
  };

  /// Service front end accounting (service/service.h; zeros when none is
  /// attached). Every submission ends in exactly one terminal bucket, so
  /// admitted + rejected_overload + rejected_shutdown + rejected_deadline
  /// == submitted always (asserted in tests). `timeouts` is orthogonal: it
  /// counts every Status::Timeout returned — queue-expired (also in
  /// rejected_deadline) and mid-execution (also in admitted).
  struct ServiceStats {
    uint64_t submitted = 0;
    uint64_t admitted = 0;
    /// Submissions that had to park in an admission queue first (a subset
    /// of whatever terminal bucket they reached).
    uint64_t queued = 0;
    /// Shed with Status::Overloaded: class queue full, or a backpressure
    /// signal dropped the (class, read/write) combination.
    uint64_t rejected_overload = 0;
    /// Drained with Status::Shutdown by Database::Close.
    uint64_t rejected_shutdown = 0;
    /// Deadline expired before admission (at submission or while queued).
    uint64_t rejected_deadline = 0;
    uint64_t timeouts = 0;
    /// Statements that returned Aborted with their CancelToken tripped.
    uint64_t cancelled = 0;
    /// High-water mark of queued-but-unadmitted statements across classes.
    uint64_t max_queue_depth = 0;
    /// Degradation dispatches that dipped into the worker-pool reserve
    /// (WorkerPool::reserved_grants) — proof the priority floor engaged.
    uint64_t degradation_reserved_dispatches = 0;
  };

  /// One-stop engine counters, so benches and tests read the engine's
  /// behavior (sync absorption, scan fan-out efficiency, checkpoint
  /// dirty-skipping) instead of inferring it from file I/O or timing.
  struct Stats {
    /// WAL counters. The commit pipeline trio:
    /// `wal.syncs` (fdatasyncs issued), `wal.sync_requests` (durability
    /// demands), `wal.commits_absorbed` (demands satisfied by another
    /// leader's sync). syncs / sync_requests is the syncs-per-commit ratio
    /// group commit drives below 1 under concurrency.
    WalManager::Stats wal;
    TransactionManager::Stats txn;
    DegradationEngine::Stats degradation;
    /// Read path: batches served, rows scanned, prefetch-queue stalls.
    ScanStats scan;
    /// I/O-layer health: Env counters + background retry/error bookkeeping.
    IoStats io;
    /// Checkpoint pipeline: invocations, partitions flushed because they
    /// were dirty, and partitions skipped as clean.
    uint64_t checkpoints = 0;
    uint64_t checkpoint_partitions_flushed = 0;
    uint64_t checkpoint_partitions_clean = 0;
    /// Checkpoint and audit cadence: cadence checkpoints run/skipped/forced,
    /// audits run/failed, rows swept, worst attack window seen.
    DegradationEngine::MaintenanceStats maintenance;
    /// Service front end: admission/shedding/deadline accounting.
    ServiceStats service;
    /// State stores of every table: live entries and the heap bytes of
    /// their in-memory mirrors (row id, insert time, leaf ordinal and frame
    /// locator per entry — no Value), array capacity included.
    MemoryUsage stores;
    /// Multi-resolution indexes of every table: postings (one per live
    /// degradable value) and the heap bytes their maps and row-id arrays
    /// requested, array capacity included (malloc's overhead comes on top).
    /// Indexes live in memory only.
    MemoryUsage index;
    /// Row maps of every table partition (row id → heap Rid): live rows
    /// and the heap bytes of their sorted arrays, capacity included.
    MemoryUsage rows;
    /// Page images attached to heap buffer-pool frames (one per image) and
    /// the heap bytes they hold.
    MemoryUsage page_images;
    /// Heap buffer-pool frames holding a page, and their bytes (the pools'
    /// memory is allocated whole, but only these frames were written).
    MemoryUsage heap_frames;
  };
  Stats stats() const;

  /// Live scan counters the read path increments (internal plumbing for
  /// query/plan.cc and query/cursor.cc; read the snapshot via stats()).
  struct ScanCounters {
    std::atomic<uint64_t> batches{0};
    std::atomic<uint64_t> rows{0};
    std::atomic<uint64_t> prefetch_stalls{0};
    std::atomic<uint64_t> rows_prefiltered{0};
    std::atomic<uint64_t> store_probes_issued{0};
    std::atomic<uint64_t> store_probes_skipped{0};
    std::atomic<uint64_t> values_decoded{0};
    std::atomic<uint64_t> values_built{0};
    std::atomic<uint64_t> aggregate_partials_merged{0};
    std::atomic<uint64_t> morsels_claimed{0};
    std::atomic<uint64_t> readers_lent{0};
    std::atomic<uint64_t> readers_yielded{0};
    std::atomic<uint64_t> records_walked{0};
    std::atomic<uint64_t> page_images_built{0};
  };
  ScanCounters* scan_counters() const { return &scan_counters_; }

  /// Live service-layer counters a ServiceFrontEnd increments (atomics —
  /// admissions race across sessions; read the snapshot via stats()).
  /// Database-owned so stats().service works, as zeros, with no front end
  /// attached.
  struct ServiceCounters {
    std::atomic<uint64_t> submitted{0};
    std::atomic<uint64_t> admitted{0};
    std::atomic<uint64_t> queued{0};
    std::atomic<uint64_t> rejected_overload{0};
    std::atomic<uint64_t> rejected_shutdown{0};
    std::atomic<uint64_t> rejected_deadline{0};
    std::atomic<uint64_t> timeouts{0};
    std::atomic<uint64_t> cancelled{0};
    std::atomic<uint64_t> max_queue_depth{0};
  };
  ServiceCounters* service_counters() const { return &service_counters_; }

  /// Registers a hook Close() invokes FIRST — before the background loop
  /// stops — so an attached service front end can drain its
  /// queued-but-unadmitted statements with Status::Shutdown and wait out
  /// in-flight ones.
  /// nullptr clears. One hook at a time (the attaching component owns it
  /// and must clear it before dying).
  void set_pre_close_hook(std::function<void()> hook) {
    std::lock_guard<std::mutex> lock(pre_close_mu_);
    pre_close_hook_ = std::move(hook);
  }

  /// The shared lazily-started worker pool (util/worker_pool.h), sized by
  /// DegradationOptions::worker_threads: scans, aggregate drains,
  /// degradation passes, checkpoints and audit sweeps borrow these threads
  /// instead of spawning their own per call.
  WorkerPool* worker_pool() const { return &worker_pool_; }

  Clock* clock() const { return clock_; }
  Env* env() const { return env_; }
  WalManager* wal() const { return wal_.get(); }
  KeyManager* keys() const { return keys_.get(); }
  /// No write takes a row lock, so `stats().waits` is always 0. Kept only
  /// because perfbench reports it (txn.lock_waits_per_commit).
  struct RowLockStub {
    struct Stats {
      uint64_t waits = 0;
    };
    Stats stats() const { return {}; }
  };
  const RowLockStub* lock_manager() const {
    static constexpr RowLockStub kStub;
    return &kStub;
  }
  TransactionManager* txn_manager() const { return tm_.get(); }
  DegradationEngine* degradation() const { return degrader_.get(); }
  const DbOptions& options() const { return options_; }

 private:
  explicit Database(DbOptions options) : options_(std::move(options)) {}

  Status OpenImpl();
  /// The FORMAT gate, run before anything is created: stamps a missing or
  /// empty directory (or one whose only entry is a FORMAT torn during
  /// creation), passes the current version, and refuses the rest.
  Status CheckFormat();
  Status Recover();
  /// Applies one committed record through its table's Table::Apply: the
  /// transaction manager's commit-time apply and Recover's redo. A record
  /// of a dropped table is skipped.
  Status Apply(const WalRecord& record);
  TableRuntime MakeRuntime() const;
  std::string TableDir(TableId id) const;

  DbOptions options_;
  std::unique_ptr<Clock> owned_clock_;
  Clock* clock_ = nullptr;
  /// Resolved once in OpenImpl (options_.env or Env::Default()); every
  /// component below routes its file I/O through it.
  Env* env_ = nullptr;

  std::unique_ptr<KeyManager> keys_;
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<WalManager> wal_;
  std::unique_ptr<TransactionManager> tm_;
  std::unique_ptr<DegradationEngine> degrader_;
  /// Guards the table map against the background loop: DDL takes it
  /// exclusive, the cadence paths (Checkpoint's unit collection,
  /// DirtyPartitions, audit sweeps) take it shared.
  mutable std::shared_mutex ddl_mu_;
  /// Guards the map's structure for GetTable(TableId), which runs in every
  /// commit's Apply while DDL inserts or erases: DDL takes it exclusive
  /// around exactly that insert or erase. A leaf lock, never held while
  /// waiting for anything else.
  mutable std::shared_mutex tables_mu_;
  std::map<TableId, std::unique_ptr<Table>> tables_;
  /// Read-path counters (exposed via Stats::scan); atomics because scan
  /// workers and concurrent sessions bump them in parallel.
  mutable ScanCounters scan_counters_;
  /// Service-layer counters (exposed via Stats::service); atomics because
  /// concurrent submissions bump them from caller threads.
  mutable ServiceCounters service_counters_;
  /// Close() drains the attached service front end through this before
  /// stopping anything else; guarded so attach/detach can race Close.
  std::mutex pre_close_mu_;
  std::function<void()> pre_close_hook_;
  /// Shared worker pool; threads start on first use and park between
  /// borrows. Mutable: read paths (const) borrow workers too.
  mutable WorkerPool worker_pool_{
      std::max<size_t>(options_.degradation.worker_threads, 1)};
  /// Checkpoint counters (exposed via Stats); atomics because the worker
  /// pool bumps flushed/clean concurrently.
  std::atomic<uint64_t> checkpoints_{0};
  std::atomic<uint64_t> checkpoint_partitions_flushed_{0};
  std::atomic<uint64_t> checkpoint_partitions_clean_{0};
  bool closed_ = false;
};

}  // namespace instantdb

#endif  // INSTANTDB_DB_DATABASE_H_
