#ifndef INSTANTDB_DEGRADE_DEGRADATION_ENGINE_H_
#define INSTANTDB_DEGRADE_DEGRADATION_ENGINE_H_

#include <atomic>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <thread>
#include <utility>

#include "common/clock.h"
#include "common/options.h"
#include "db/table.h"
#include "maintain/audit.h"
#include "util/worker_pool.h"

namespace instantdb {

class Database;

/// \brief The one background loop that enforces every deadline: degradation
/// passes over the stores (the component that makes degradation *timely*,
/// paper §III), the checkpoint cadence that retires WAL segments holding
/// overdue payloads, and the deletion-assurance audits that prove both.
///
/// It is the only reader of the deadlines the database keeps: the FIFO
/// store heads (a store's head is its only deadline), each live WAL
/// segment's payload-deadline minimum and the two cadence points. A pass
/// collects every (table, partition) whose head deadline has passed and
/// drains them STEP-GRAINED, earliest deadline first, over the Database's
/// shared worker pool
/// (`DegradationOptions::worker_threads`): each claim runs one bounded step
/// and requeues the partition at its new head deadline while that is still
/// due. A partition an audit proves exposed holds the earliest head, so it
/// goes first by construction. A step takes no logical lock and writes no
/// log record, so no user transaction can hold it back; steps on one
/// partition serialize on its latch.
///
/// The checkpoint cadence runs Database::Checkpoint when at least
/// `checkpoint_dirty_threshold` partitions are dirty, and FORCES one when a
/// live WAL segment still holds an accurate payload past its phase-0
/// deadline (retirement must not wait for new writes). Its cadence point is
/// `MaintenanceOptions::checkpoint_interval` after the last one, pulled in
/// to the earliest payload deadline in the live log at every step. Every
/// `audit_interval` a DeletionAuditor sweep proves every value past its
/// deadline is degraded or destroyed.
///
/// Drive modes:
///  - pumped: tests call `RunDue(now)` (degradation only) or `RunOnce(now)`
///    (all three services) after advancing a VirtualClock; everything is
///    deterministic (workers join before either returns).
///  - background: `Start()` spawns one thread that loops on the same step
///    as RunOnce, running the services its flags enable
///    (`DegradationOptions::background_thread`,
///    `MaintenanceOptions::enabled`), and sleeps on the Clock until the
///    earliest deadline the step left. A deadline that appears meanwhile
///    (an insert, a new table) goes to `Publish`, which wakes the loop only
///    when it lands before that wake.
class DegradationEngine {
 public:
  /// `db` (not owned) must outlive the engine, and its WAL, clock and
  /// worker pool must already exist.
  explicit DegradationEngine(Database* db);
  ~DegradationEngine();
  DegradationEngine(const DegradationEngine&) = delete;
  DegradationEngine& operator=(const DegradationEngine&) = delete;

  void RegisterTable(Table* table);
  /// Removes the table from the schedule and waits for any in-flight RunDue
  /// pass to finish, so the caller may destroy the Table afterwards.
  void UnregisterTable(TableId id);

  /// Runs every step whose deadline has passed at `now`, earliest deadline
  /// first (fanning overdue partitions out over the worker pool); returns
  /// the total number of attribute values moved/removed.
  Result<size_t> RunDue(Micros now);

  /// One deterministic step at clock time `now`: the degradation pass, then
  /// the checkpoint cadence, then the audit cadence, each only when due.
  /// This is the body of the background loop; tests on a VirtualClock call
  /// it directly after Advance(). Returns the first failure of the step.
  Status RunOnce(Micros now);

  /// Unconditional deletion-assurance sweep at the clock's current time,
  /// cadence-independent. The returned report's Verify() is the hard-fail
  /// API the acceptance tests assert on.
  AuditReport RunAuditNow();

  /// Earliest pending deadline over all tables (kForever when idle).
  Micros NextDeadline() const;

  /// A new deadline exists: wakes the background loop when `deadline` lands
  /// before its armed wake, and lowers the armed wake to it. One atomic
  /// load when it does not (always, while no loop runs).
  void Publish(Micros deadline);

  /// Degradation backlog: (table, partition) units with overdue work at
  /// `now` — the same test RunDue schedules by. Non-zero means the engine
  /// is behind its deadlines; the service front end reads it as a
  /// backpressure signal (PressureState) and starts shedding foreground
  /// load so the floor holds. Walks every partition; callers cache it.
  size_t OverdueUnits(Micros now) const;

  /// Next checkpoint cadence point (see the class comment).
  Micros next_checkpoint_due() const {
    std::lock_guard<std::mutex> lock(cadence_mu_);
    return CheckpointDue();
  }

  /// Background-thread mode. Stop() joins the thread, then waits for any
  /// caller-pumped RunDue pass to finish.
  Status Start();
  void Stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Fault injection (tests only): while set, RunDue never schedules the
  /// (table, partition) unit, so its overdue values stay stale — the planted
  /// exposure a deletion-assurance audit must catch. Use with the pumped
  /// drive mode: a background loop would busy-spin on the skipped
  /// partition's permanently-overdue deadline.
  void TEST_FaultSkipPartition(TableId table, uint32_t partition, bool skip);

  struct Stats {
    uint64_t passes = 0;  // RunDue invocations that found due work
    uint64_t steps = 0;
    uint64_t values_moved = 0;
    /// Always 0: steps take no lock, so nothing aborts them. Kept only
    /// because perfbench reports it (degrade.lock_abort_ratio).
    uint64_t lock_aborts = 0;
    /// RunOnce steps in which a service failed with IOError or Busy; the
    /// background loop retries each after a capped exponential backoff
    /// instead of hot-spinning on the still-overdue deadline.
    uint64_t io_retries = 0;
  };
  Stats stats() const;

  struct MaintenanceStats {
    /// Cadence checkpoints that ran (dirty threshold met or forced).
    uint64_t checkpoints = 0;
    /// Cadence points skipped because too few partitions were dirty.
    uint64_t checkpoints_skipped_clean = 0;
    /// Checkpoints forced below the dirty threshold by WAL payload-deadline
    /// pressure (a live segment held an overdue accurate value).
    uint64_t forced_checkpoints = 0;
    /// Cadence points that fell due before the interval point because a
    /// live WAL payload's phase-0 deadline came first.
    uint64_t adaptive_checkpoint_pulls = 0;
    uint64_t audits = 0;
    uint64_t audits_failed = 0;
    uint64_t audit_rows_scanned = 0;
    /// Worst attack window any audit has seen (monotone high-water mark).
    Micros max_exposure_seen = 0;
    /// Clock instant of the most recent completed audit (0 = none yet).
    Micros last_audit = 0;
  };
  MaintenanceStats maintenance_stats() const;

  /// First failure other than Busy of any RunOnce step, from any service
  /// (OK before any). Sticky: Database::Close surfaces it even after later
  /// retries succeeded, so a disk that failed and recovered mid-run is never
  /// silently forgotten.
  Status first_error() const {
    std::lock_guard<std::mutex> lock(mu_);
    return first_error_;
  }

 private:
  /// RunOnce's body for the services `degrade` and `maintain` enable;
  /// returns the first failure and stores when the next step is due.
  Status Step(Micros now, bool degrade, bool maintain, Micros* wake);
  /// Cadence checkpoint decision + execution (see the class comment).
  Status CheckpointIfWorthwhile(Micros now);
  /// The checkpoint cadence point (see the class comment). Needs
  /// cadence_mu_.
  Micros CheckpointDue() const;
  /// Lowers `armed_` to `deadline` when that is earlier; returns the value
  /// it held before.
  Micros LowerArmed(Micros deadline);
  AuditReport RunAudit(Micros now);
  void BackgroundLoop();

  Database* const db_;
  Clock* const clock_;
  const DegradationOptions options_;
  const MaintenanceOptions maintenance_;
  WorkerPool& pool_;  // shared Database pool
  const DeletionAuditor auditor_;

  /// Guards the table map, the counters, the sticky error and the fault
  /// set. Never held across a step, a checkpoint or an audit, so stats()
  /// and OverdueUnits never wait behind I/O.
  mutable std::mutex mu_;
  std::map<TableId, Table*> tables_;
  Stats stats_;
  MaintenanceStats maintenance_stats_;
  Status first_error_;
  /// (table, partition) units RunDue must skip (TEST_FaultSkipPartition).
  std::set<std::pair<TableId, uint32_t>> fault_skip_;

  /// Serializes RunOnce steps (the background thread and pumped callers)
  /// and guards the cadence state below.
  mutable std::mutex cadence_mu_;
  /// The interval point, and the clock time of the last cadence point.
  Micros next_checkpoint_due_ = 0;
  Micros last_checkpoint_point_ = -1;
  Micros next_audit_due_ = 0;
  /// Current retry delay after a failed step; 0 after a clean one.
  Micros backoff_ = 0;
  /// A cadence checkpoint was due (dirty threshold or WAL pressure) but
  /// failed: the next attempt bypasses the skip-clean gate, because a
  /// partial flush may have left every partition clean while the manifest —
  /// and segment retirement — still lag.
  bool checkpoint_pressure_pending_ = false;

  /// Held shared for the duration of a RunDue pass (whose workers step raw
  /// Table* outside mu_); UnregisterTable and Stop acquire it exclusively
  /// to wait for in-flight passes.
  std::shared_mutex run_mu_;

  std::thread thread_;
  std::atomic<bool> running_{false};
  /// The background loop's armed wake: kForever while a step runs, then the
  /// step's wake lowered by every Publish since. kUnarmed, below every
  /// deadline, while no loop waits on it (none runs, or a failed step
  /// sleeps out its backoff), so Publish does nothing then.
  static constexpr Micros kUnarmed = std::numeric_limits<Micros>::min();
  std::atomic<Micros> armed_{kUnarmed};
};

}  // namespace instantdb

#endif  // INSTANTDB_DEGRADE_DEGRADATION_ENGINE_H_
