#ifndef INSTANTDB_COMMON_OPTIONS_H_
#define INSTANTDB_COMMON_OPTIONS_H_

#include <cstddef>
#include <cstdint>

#include "common/clock.h"

namespace instantdb {

class CancelToken;

/// How the WAL prevents accurate values from surviving in log files past
/// their degradation deadline. In every mode the checkpoint cadence pulls a
/// checkpoint in to the earliest phase-0 deadline in the live log, and that
/// checkpoint retires the segment holding it; the modes differ only in what
/// retirement does to the segment's bytes (README "Architecture: one redo
/// log").
enum class WalPrivacyMode {
  /// Traditional WAL: records are kept until segment recycling. Accurate
  /// values linger — this is the unsafe baseline the paper warns about.
  kPlain,
  /// A retired segment is zero-overwritten, synced and unlinked.
  kScrub,
  /// Each segment file seals its insert payloads under its own key, minted
  /// when the file is created; retirement destroys the key, then unlinks
  /// the file. Matches EraseMode::kCryptoErase for state stores.
  kCryptoErase,
};

/// How popped state-store segments are made unrecoverable.
enum class EraseMode {
  /// Overwrite the byte range with zeros, then sync.
  kOverwrite,
  /// Segments are encrypted with per-segment keys; erasing destroys the key.
  kCryptoErase,
};

struct StorageOptions {
  size_t page_size = 8192;
  size_t buffer_pool_pages = 4096;
  /// Capacity of one state-store segment in bytes.
  size_t segment_bytes = 64 * 1024;
  EraseMode erase_mode = EraseMode::kOverwrite;
};

struct WalOptions {
  WalPrivacyMode privacy_mode = WalPrivacyMode::kScrub;
  size_t segment_bytes = 1 * 1024 * 1024;
};

struct DegradationOptions {
  /// Run degradation passes on the engine's background thread (real
  /// deployments and the expiry_mix benchmark). Deterministic tests leave
  /// it off and pump `Database::RunDegradationOnce()` or
  /// `DegradationEngine::RunOnce()` on a VirtualClock instead.
  bool background_thread = false;
  /// Maximum values moved per degradation step, bounding the time one step
  /// holds its partition's exclusive latch.
  size_t step_batch_limit = 1024;
  /// Size of the Database's shared lazily-started worker pool
  /// (util/worker_pool.h): degradation passes, scans, aggregate drains,
  /// checkpoints and audit sweeps all borrow the same threads instead of
  /// spawning their own per call. Degradation steps take no lock and write
  /// no log record. 1 (the default) keeps the
  /// serial engine; raising it lets degradation and scan throughput scale
  /// on a multicore box.
  size_t worker_threads = 1;
};

struct ReadOptions {
  /// Paper §IV "future work" semantics: when true, selection predicates at
  /// accuracy k are also evaluated against tuples already degraded past k
  /// (matching iff the coarser stored value is consistent with the
  /// predicate). Default is the paper's strict, unambiguous semantics.
  bool include_coarser = false;
};

/// How a SELECT's heap scan fans out over a table (Session::scan_options).
/// The unit of read parallelism is the MORSEL — a page range of one
/// partition's heap (util/morsel.h) — not the whole partition: every
/// worker claims the next morsel from one shared cursor, so parallelism is
/// not capped by the partition count and a skewed partition is shared by
/// many workers. Every scan evaluates its stable WHERE terms inside the
/// heap scan and probes the state stores only for the survivors;
/// aggregates fold per-worker partials on the scan workers. Workers are borrowed from the database's shared pool, never
/// spawned. Per-batch snapshot semantics (one partition latch per batch)
/// hold at any parallelism.
struct ScanOptions {
  /// The MOST scan readers one statement runs, its caller's own reader
  /// included: a streaming cursor's consumer plus up to parallelism − 1
  /// producers, a materialized (Session::Execute) scan's caller plus up to
  /// parallelism − 1 lent readers. 0 (the default) means
  /// DegradationOptions::worker_threads — a database configured with a
  /// worker pool reads with it too — EXCEPT on tables a few scan batches
  /// long (under ~2k live rows), which stay sequential: fanning out costs
  /// more than such a scan. Set an explicit value to allow fan-out
  /// regardless of table size; it may exceed the partition count (workers
  /// share partitions at morsel granularity) and is clamped to the
  /// morsel-plan size. The fan-out a statement gets is elastic: the shared
  /// pool lends only cores no statement and no busy worker holds, and lent
  /// readers return theirs at the next morsel boundary once other
  /// statements need them (util/worker_pool.h), so under load a statement
  /// reads with fewer readers, down to its caller alone. 1 scans
  /// partitions sequentially inline on the caller's thread (no extra
  /// threads, rows in (partition, heap) order); with several readers a
  /// streaming scan interleaves rows across morsels in arrival order.
  size_t parallelism = 0;
  /// Heap pages per morsel. 0 (the default) = kDefaultMorselPages (16).
  /// Smaller morsels split work finer (better sharing on skew, more claim
  /// overhead); tests force 1 to exercise many morsels on tiny tables.
  uint32_t morsel_pages = 0;
  /// Capacity of the streaming cursor's prefetch queue, in batches. The
  /// queue is what lets scan I/O on one partition overlap σ/π evaluation of
  /// another partition's batch; it is bounded so a slow consumer
  /// backpressures the workers instead of buffering the table. The consumer
  /// scans a batch itself whenever the queue is empty. 0 means
  /// 2 × parallelism.
  size_t prefetch_batches = 0;
  /// Absolute statement deadline on the database's clock (0 = none). Every
  /// scan path checks it at morsel-claim and batch granularity and returns
  /// Status::Timeout — partial-safe: workers stop claiming, release their
  /// pool tokens, and the statement fails like any other error. The service
  /// front end sets it per statement from ServiceOptions::default_deadline
  /// (or a per-call override); embedders may set it directly.
  Micros deadline = 0;
  /// Cooperative cancellation handle (common/cancel.h), polled at the same
  /// granularity as `deadline`; a tripped token fails the statement with
  /// Status::Aborted. Not owned; must outlive the statement. nullptr = not
  /// cancellable.
  const CancelToken* cancel = nullptr;
};

/// Per-write durability. With `sync` a Write returns only once the log
/// holds its commit durably (group commit: at most one fdatasync, usually
/// shared with concurrent committers). Without it the commit is acked from
/// the log's buffers, and a crash can lose it, up to the next sync or
/// checkpoint. A commit that deletes is always synced: its apply erases
/// values from disk at once.
struct WriteOptions {
  bool sync = false;
};

/// Priority class of one service-layer statement. The paper's purpose model
/// meets QoS here: a deployment maps purposes to classes (an interactive
/// GEO lookup is kHigh, a marketing export kLow), and admission drains
/// queues weighted by class while backpressure sheds the low classes first.
enum class ServiceClass : uint8_t { kHigh = 0, kNormal = 1, kLow = 2 };
inline constexpr size_t kNumServiceClasses = 3;

/// Configuration of the overload-safe service front end
/// (service/service.h): admission control, per-class weighted queueing,
/// backpressure shedding, statement deadlines, and the degradation priority
/// floor.
struct ServiceOptions {
  /// Statements executing concurrently across all sessions. Beyond it new
  /// arrivals queue (per class, up to `queue_depth`) and then reject with
  /// Status::Overloaded — latency stays bounded instead of collapsing.
  size_t max_concurrent = 8;
  /// Queued-but-unadmitted statements tolerated PER CLASS before arrivals
  /// of that class reject with Status::Overloaded.
  size_t queue_depth = 16;
  /// Weighted fair queueing across classes, indexed by ServiceClass: a
  /// class's share of admissions under contention is proportional to its
  /// weight (must be > 0).
  double per_class_weights[kNumServiceClasses] = {4.0, 2.0, 1.0};
  /// Worker-pool tokens reserved for the degradation engine's priority
  /// dispatches (WorkerPool::SetReserved): normal borrowers (scans,
  /// aggregates, checkpoints) never take the last N free workers, so
  /// overdue privacy steps fan out even at 100% query load — the paper's
  /// timeliness guarantee must not bend to foreground pressure. Clamped to
  /// the pool size.
  size_t reserved_degradation_workers = 1;
  /// Default statement deadline, relative to admission (0 = none). A
  /// statement past it returns Status::Timeout — while queued or at the
  /// scan paths' morsel/batch checks once running.
  Micros default_deadline = 0;
  /// Backpressure thresholds. WAL pressure: committers parked on
  /// group-commit sync watermarks (WalManager::SyncWaiters) at or above
  /// this count.
  size_t wal_waiters_high = 4;
  /// Degradation pressure: overdue (table, partition) units
  /// (DegradationEngine::OverdueUnits) at or above this count.
  size_t degradation_backlog_high = 1;
  /// How long one PressureState sample stays cached before admission
  /// resamples the signals (OverdueUnits walks table partitions — not free
  /// per admission). 0 = resample every admission (deterministic tests).
  Micros pressure_refresh = 10 * kMicrosPerMilli;
};

/// Configuration of the checkpoint and audit cadences the DegradationEngine
/// runs (degrade/degradation_engine.h). They make the durability/privacy
/// loop autonomous — without them checkpoints (and therefore WAL segment
/// retirement, the scrub cadence) only happen when a caller asks.
struct MaintenanceOptions {
  /// Run both cadences on the engine's background thread, started at
  /// Database::Open. Off by default: tests and tools that assert exact
  /// checkpoint counts drive them explicitly (DegradationEngine::RunOnce)
  /// or not at all.
  bool enabled = false;
  /// Background checkpoint cadence FLOOR. Each cadence point checkpoints
  /// only when at least `checkpoint_dirty_threshold` partitions are dirty
  /// OR a live WAL segment holds a degradable payload past its phase-0
  /// deadline (retirement must not wait for new writes). The cadence is
  /// adaptive: at every step the next point is `interval` after the last
  /// one, pulled EARLIER to the earliest phase-0 deadline of any payload
  /// still in the live log (WalManager::EarliestPayloadDeadline) — so the
  /// interval need not sit below the shortest phase-0 duration; it only
  /// bounds the idle wake-up rate.
  Micros checkpoint_interval = kMicrosPerSecond;
  /// Minimum number of dirty partitions before a cadence checkpoint fires;
  /// below it the cadence point is recorded as skipped-clean. 0 makes every
  /// cadence point checkpoint unconditionally.
  uint64_t checkpoint_dirty_threshold = 1;
  /// Cadence of deletion-assurance audit sweeps (0 disables continuous
  /// audits; explicit Database::Audit always works).
  Micros audit_interval = 0;
  /// Slack an audit grants the background loop before a value past its
  /// deadline counts as exposed. 0 (exact) is right on a VirtualClock where
  /// degradation is pumped; real deployments set it to roughly one
  /// degradation-pass latency plus one checkpoint interval.
  Micros audit_grace = 0;
};

}  // namespace instantdb

#endif  // INSTANTDB_COMMON_OPTIONS_H_
