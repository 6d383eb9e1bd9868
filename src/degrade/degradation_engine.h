#ifndef INSTANTDB_DEGRADE_DEGRADATION_ENGINE_H_
#define INSTANTDB_DEGRADE_DEGRADATION_ENGINE_H_

#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/options.h"
#include "db/table.h"
#include "txn/transaction.h"
#include "util/worker_pool.h"

namespace instantdb {

/// \brief The partition-parallel degrader: tracks the earliest pending transition
/// deadline across every partition of every table and fires degradation
/// steps as system transactions — the component that makes degradation
/// *timely* (paper §III).
///
/// Scheduling is per (table, partition): one pass collects every partition
/// with overdue work and drains it STEP-GRAINED over the Database's shared
/// worker pool (`DegradationOptions::worker_threads`). Each claim runs one
/// bounded degradation step and requeues the unit at the back while it
/// still has work, so an urgent (audit-repair) unit at the front of the
/// queue gets its first step within one step latency even when another
/// partition holds a deep backlog — no worker is pinned to one partition
/// for the whole pass. Distinct partitions never share physical state or
/// store locks, so workers proceed without interfering; within a partition
/// the paper's B8 bounded-interference property holds exactly as in the
/// serial engine.
///
/// Two drive modes:
///  - pumped: tests/benchmarks call `RunDue(now)` after advancing a
///    VirtualClock; everything is deterministic (workers join before RunDue
///    returns).
///  - background: `Start()` spawns a coordinator thread that sleeps on the
///    Clock until the next deadline (woken early when the deadline set
///    changes) and runs RunDue passes.
///
/// Each step locks only the head of one partition's (attribute, phase)
/// store; wait-die aborts are retried on the next pass and surfaced in the
/// stats.
class DegradationEngine {
 public:
  /// `pool` (not owned, must outlive the engine) is the Database's shared
  /// worker pool passes borrow workers from.
  DegradationEngine(TransactionManager* tm, Clock* clock,
                    const DegradationOptions& options, WorkerPool& pool);
  ~DegradationEngine();
  DegradationEngine(const DegradationEngine&) = delete;
  DegradationEngine& operator=(const DegradationEngine&) = delete;

  void RegisterTable(Table* table);
  /// Removes the table from the schedule and waits for any in-flight RunDue
  /// pass to finish, so the caller may destroy the Table afterwards.
  void UnregisterTable(TableId id);

  /// Runs every step whose deadline has passed at `now` (fanning overdue
  /// partitions out over the worker pool); returns the total number of
  /// attribute values moved/removed.
  Result<size_t> RunDue(Micros now);

  /// Earliest pending deadline over all tables (kForever when idle).
  Micros NextDeadline() const;

  /// Degradation backlog: (table, partition) units with overdue work at
  /// `now` — the same test RunDue schedules by. Non-zero means the engine
  /// is behind its deadlines; the service front end reads it as a
  /// backpressure signal (PressureState) and starts shedding foreground
  /// load so the floor holds. Walks every partition; callers cache it.
  size_t OverdueUnits(Micros now) const;

  /// Audit-driven repair: marks one (table, partition) unit as urgent. The
  /// next RunDue pass (the background coordinator is woken immediately)
  /// schedules urgent units at the FRONT of its first round, ahead of the
  /// regular deadline order — a failed deletion-assurance audit turns its
  /// overdue findings into top-priority work instead of waiting for the
  /// partition's turn. Unknown tables and partitions without overdue work
  /// are ignored at drain time, so stale enqueues are harmless.
  void EnqueueUrgent(TableId table, uint32_t partition);

  /// Background-thread mode.
  Status Start();
  void Stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Bounded quiesce: waits up to `max_wait` for an in-flight RunDue pass
  /// (caller-pumped or background) to drain, returning true when the engine
  /// is quiescent and false on timeout. Database::Close uses it after
  /// stopping the background thread so the final checkpoint runs against a
  /// settled state; the close is safe either way (checkpoints are fuzzy).
  bool Quiesce(Micros max_wait);

  /// Fault injection (tests only): while set, RunDue never schedules the
  /// (table, partition) unit, so its overdue values stay stale — the planted
  /// exposure a deletion-assurance audit must catch. Use with the pumped
  /// drive mode: a background coordinator would busy-spin on the skipped
  /// partition's permanently-overdue deadline.
  void TEST_FaultSkipPartition(TableId table, uint32_t partition, bool skip);

  struct Stats {
    uint64_t passes = 0;  // RunDue invocations that found due work
    uint64_t steps = 0;
    uint64_t values_moved = 0;
    uint64_t lock_aborts = 0;  // wait-die victims, retried next pass
    /// Urgent (audit-repair) units drained ahead of the regular order.
    uint64_t urgent_units = 0;
    /// Background passes that failed transiently (IOError/Busy) and were
    /// retried after a capped exponential backoff instead of hot-spinning
    /// on the still-overdue deadline.
    uint64_t io_retries = 0;
  };
  Stats stats() const;

  /// First I/O error any background pass hit (OK before any). Sticky:
  /// Database::Close surfaces it even after later retries succeeded.
  Status first_error() const {
    std::lock_guard<std::mutex> lock(mu_);
    return first_error_;
  }

 private:
  void BackgroundLoop();

  TransactionManager* const tm_;
  Clock* const clock_;
  const DegradationOptions options_;
  WorkerPool& pool_;  // shared Database pool

  mutable std::mutex mu_;
  std::map<TableId, Table*> tables_;
  Stats stats_;
  Status first_error_;  // first background-pass I/O error, under mu_
  /// (table, partition) units RunDue must skip (TEST_FaultSkipPartition).
  std::set<std::pair<TableId, uint32_t>> fault_skip_;
  /// Audit-repair units to schedule ahead of the regular order; swapped out
  /// (and counted) by the next RunDue pass.
  std::set<std::pair<TableId, uint32_t>> urgent_;

  /// Held shared for the duration of a RunDue pass (whose workers step raw
  /// Table* outside mu_); UnregisterTable acquires it exclusively to
  /// quiesce before the table is destroyed (Quiesce does the same with a
  /// deadline, hence the _timed variant).
  mutable std::shared_timed_mutex run_mu_;

  std::thread thread_;
  std::atomic<bool> running_{false};
};

}  // namespace instantdb

#endif  // INSTANTDB_DEGRADE_DEGRADATION_ENGINE_H_
