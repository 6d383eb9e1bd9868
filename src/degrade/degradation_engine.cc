#include "degrade/degradation_engine.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "db/database.h"

namespace instantdb {

namespace {
/// Retry delays after a failed step: start at the floor, double per
/// consecutive failure, never exceed the cap. Without this the loop would
/// hot-spin on a still-overdue deadline while the disk stays broken.
constexpr Micros kBackoffFloor = 10'000;   // 10 ms
constexpr Micros kBackoffCap = 5'000'000;  // 5 s
}  // namespace

DegradationEngine::DegradationEngine(Database* db)
    : db_(db),
      clock_(db->clock()),
      options_(db->options().degradation),
      maintenance_(db->options().maintenance),
      pool_(*db->worker_pool()),
      auditor_(db->wal(), options_.worker_threads, pool_) {}

DegradationEngine::~DegradationEngine() { Stop(); }

void DegradationEngine::RegisterTable(Table* table) {
  std::lock_guard<std::mutex> lock(mu_);
  tables_[table->id()] = table;
  Publish(table->NextDeadline());
}

void DegradationEngine::UnregisterTable(TableId id) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tables_.erase(id);
  }
  // An in-flight RunDue pass snapshotted raw Table* before the erase; wait
  // for it to drain so the caller can safely destroy the table. (mu_ is
  // released first — RunDue acquires mu_ while holding run_mu_ shared, so
  // holding both here would deadlock.)
  std::unique_lock<std::shared_mutex> drained(run_mu_);
}

void DegradationEngine::TEST_FaultSkipPartition(TableId table,
                                                uint32_t partition, bool skip) {
  std::lock_guard<std::mutex> lock(mu_);
  if (skip) {
    fault_skip_.emplace(table, partition);
  } else {
    fault_skip_.erase({table, partition});
  }
}

size_t DegradationEngine::OverdueUnits(Micros now) const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t overdue = 0;
  for (const auto& [id, table] : tables_) {
    for (uint32_t p = 0; p < table->num_partitions(); ++p) {
      if (table->partition(p)->NextDeadline() <= now) ++overdue;
    }
  }
  return overdue;
}

Micros DegradationEngine::NextDeadline() const {
  std::lock_guard<std::mutex> lock(mu_);
  Micros next = kForever;
  for (const auto& [id, table] : tables_) {
    next = std::min(next, table->NextDeadline());
  }
  return next;
}

Micros DegradationEngine::LowerArmed(Micros deadline) {
  Micros armed = armed_.load();
  while (deadline < armed && !armed_.compare_exchange_weak(armed, deadline)) {
  }
  return armed;
}

void DegradationEngine::Publish(Micros deadline) {
  if (LowerArmed(deadline) > deadline) clock_->WakeAll();
}

Result<size_t> DegradationEngine::RunDue(Micros now) {
  // One unit of schedulable work: a table partition with an overdue store
  // head, keyed by that head's deadline. Units never share physical state,
  // so the worker pool drains them concurrently.
  struct Unit {
    Table* table;
    uint32_t partition;
    Micros deadline;
  };
  // Min-heap order: the earliest deadline is served first.
  const auto later = [](const Unit& a, const Unit& b) {
    return a.deadline > b.deadline;
  };

  // Tables snapshotted below stay alive for the whole pass: UnregisterTable
  // blocks on this until we return.
  std::shared_lock<std::shared_mutex> running(run_mu_);

  size_t total = 0;
  Stats delta;  // batched into stats_ once per RunDue, not per step
  Status error;

  // Keep collecting and draining until no partition has overdue work.
  for (;;) {
    // Step-grained work queue: a claim runs ONE bounded step on the unit
    // with the earliest deadline, then requeues it at its new head deadline
    // while that is still due, so the most overdue value always goes next.
    std::vector<Unit> queue;
    std::mutex queue_mu;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto& [id, table] : tables_) {
        for (uint32_t p = 0; p < table->num_partitions(); ++p) {
          if (!fault_skip_.empty() && fault_skip_.count({id, p}) != 0) {
            continue;  // injected fault: leave this unit's work stale
          }
          const Micros deadline = table->partition(p)->NextDeadline();
          if (deadline <= now) queue.push_back({table, p, deadline});
        }
      }
    }
    if (queue.empty()) break;
    delta.passes = 1;  // a pass only counts when some partition had due work
    std::make_heap(queue.begin(), queue.end(), later);

    std::atomic<uint64_t> steps{0};
    std::atomic<uint64_t> moved_round{0};
    std::mutex error_mu;

    auto drain = [&] {
      for (;;) {
        Unit unit;
        {
          std::lock_guard<std::mutex> lock(queue_mu);
          if (queue.empty()) return;
          std::pop_heap(queue.begin(), queue.end(), later);
          unit = queue.back();
          queue.pop_back();
        }
        auto moved = unit.table->RunDegradationStep(
            now, options_.step_batch_limit, unit.partition);
        if (!moved.ok()) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (error.ok()) error = moved.status();
          return;
        }
        // Nothing moved (another pass drained this partition first): drop,
        // re-collect next round.
        if (*moved == 0) continue;
        steps.fetch_add(1, std::memory_order_relaxed);
        moved_round.fetch_add(*moved, std::memory_order_relaxed);
        // May still have work past the step limit.
        unit.deadline = unit.table->partition(unit.partition)->NextDeadline();
        if (unit.deadline > now) continue;
        std::lock_guard<std::mutex> lock(queue_mu);
        queue.push_back(unit);
        std::push_heap(queue.begin(), queue.end(), later);
      }
    };

    const size_t workers = std::min<size_t>(
        std::max<size_t>(options_.worker_threads, 1), queue.size());
    if (workers <= 1) {
      drain();
    } else {
      // Borrow helpers from the shared pool (never blocks; a busy pool just
      // yields fewer helpers) and drain alongside them. Priority dispatch:
      // the pool's reserved tokens (WorkerPool::SetReserved, sized by
      // ServiceOptions::reserved_degradation_workers) are visible only
      // here, so overdue privacy steps fan out even when foreground scans
      // hold every normal token — the degradation priority floor.
      WorkerPool::Ticket ticket;
      pool_.TryDispatch(workers - 1, [&](size_t) { drain(); }, &ticket,
                        /*priority=*/true);
      drain();
      pool_.Wait(&ticket);
    }

    delta.steps += steps.load();
    delta.values_moved += moved_round.load();
    total += moved_round.load();
    if (!error.ok()) break;
    // No progress this round (only spurious wake-ups, or partitions another
    // pass drained): leave the remainder for the next RunDue rather than
    // spinning.
    if (moved_round.load() == 0) break;
  }

  if (delta.passes != 0) {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.passes += delta.passes;
    stats_.steps += delta.steps;
    stats_.values_moved += delta.values_moved;
  }
  if (!error.ok()) return error;
  return total;
}

Status DegradationEngine::RunOnce(Micros now) {
  Micros wake = kForever;
  return Step(now, /*degrade=*/true, /*maintain=*/true, &wake);
}

Status DegradationEngine::Step(Micros now, bool degrade, bool maintain,
                               Micros* wake) {
  std::lock_guard<std::mutex> step(cadence_mu_);
  // A pass drains only what is due at `now`, so a due checkpoint waits at
  // most one pass.
  Status status;
  if (degrade) status = RunDue(now).status();
  const bool checkpoints = maintain && maintenance_.checkpoint_interval > 0;
  const Micros checkpoint_point = checkpoints ? CheckpointDue() : kForever;
  const bool checkpoint_due = now >= checkpoint_point;
  Status checkpointed;
  if (checkpoint_due) {
    if (checkpoint_point < next_checkpoint_due_) {
      std::lock_guard<std::mutex> lock(mu_);
      ++maintenance_stats_.adaptive_checkpoint_pulls;
    }
    checkpointed = CheckpointIfWorthwhile(now);
    if (status.ok()) status = checkpointed;
  }
  if (maintain && maintenance_.audit_interval > 0 && now >= next_audit_due_) {
    next_audit_due_ = now + maintenance_.audit_interval;
    const AuditReport report = RunAudit(now);
    if (!report.clean()) {
      IDB_ERROR("audit found exposure: %s", report.ToString().c_str());
    }
  }

  // One backoff for every service: a failed step is retried after a capped
  // exponential delay. The first failure stays sticky unless it is Busy (a
  // resource momentarily exhausted, which loses nothing).
  if (status.ok()) {
    backoff_ = 0;
  } else {
    backoff_ = backoff_ == 0 ? kBackoffFloor
                             : std::min(backoff_ * 2, kBackoffCap);
    std::lock_guard<std::mutex> lock(mu_);
    if (first_error_.ok() && !status.IsBusy()) first_error_ = status;
    if (status.IsIOError() || status.IsBusy()) ++stats_.io_retries;
  }
  if (checkpoint_due) {
    // A failed checkpoint retries at the backoff and bypasses the
    // skip-clean gate then; a successful one waits for the next interval
    // point or payload deadline.
    checkpoint_pressure_pending_ = !checkpointed.ok();
    last_checkpoint_point_ = now;
    next_checkpoint_due_ = now + (checkpointed.ok()
                                      ? maintenance_.checkpoint_interval
                                      : backoff_);
  }

  if (!status.ok()) {
    *wake = now + backoff_;
    return status;
  }
  Micros next = degrade ? NextDeadline() : kForever;
  if (checkpoints) next = std::min(next, CheckpointDue());
  if (maintain && maintenance_.audit_interval > 0) {
    next = std::min(next, next_audit_due_);
  }
  *wake = next;
  return status;
}

Status DegradationEngine::CheckpointIfWorthwhile(Micros now) {
  const bool clean =
      db_->DirtyPartitions() < maintenance_.checkpoint_dirty_threshold;
  // WAL payload-deadline pressure: a live segment still holds an accurate
  // insert payload past its phase-0 deadline. Checkpointing rotates and
  // retires it (scrub/unlink per the privacy mode), which keeps log hygiene
  // tracking the deadlines when no new writes dirty a partition. A failed
  // last attempt counts as pressure too: it may have flushed every
  // partition clean while the manifest, and retirement, still lag.
  const bool wal_pressure =
      checkpoint_pressure_pending_ ||
      db_->wal()->AuditExposure(now).exposed_segments > 0;
  if (clean && !wal_pressure) {
    std::lock_guard<std::mutex> lock(mu_);
    ++maintenance_stats_.checkpoints_skipped_clean;
    return Status::OK();
  }
  IDB_RETURN_IF_ERROR(db_->Checkpoint());
  std::lock_guard<std::mutex> lock(mu_);
  ++maintenance_stats_.checkpoints;
  if (clean) ++maintenance_stats_.forced_checkpoints;
  return Status::OK();
}

Micros DegradationEngine::CheckpointDue() const {
  // `checkpoint_interval` is the floor, the guaranteed worst-case gap. A
  // live WAL payload whose phase-0 deadline comes first pulls the cadence
  // point in to it, so its segment retires the moment the payload turns
  // overdue. A deadline the last cadence point already saw (a segment a
  // commit in flight kept live, or a failed checkpoint's pressure, retried
  // at the backoff) cannot spin the loop.
  const Micros payload = db_->wal()->EarliestPayloadDeadline();
  return payload > last_checkpoint_point_
             ? std::min(next_checkpoint_due_, payload)
             : next_checkpoint_due_;
}

AuditReport DegradationEngine::RunAudit(Micros now) {
  AuditReport report =
      db_->RunAuditSweep(auditor_, now, maintenance_.audit_grace);
  std::lock_guard<std::mutex> lock(mu_);
  MaintenanceStats& stats = maintenance_stats_;
  ++stats.audits;
  if (!report.clean()) ++stats.audits_failed;
  stats.audit_rows_scanned += report.rows_scanned;
  stats.max_exposure_seen =
      std::max(stats.max_exposure_seen, report.max_exposure);
  stats.last_audit = now;
  return report;
}

AuditReport DegradationEngine::RunAuditNow() {
  return RunAudit(clock_->NowMicros());
}

Status DegradationEngine::Start() {
  if (running_.exchange(true)) return Status::OK();
  thread_ = std::thread([this] { BackgroundLoop(); });
  return Status::OK();
}

void DegradationEngine::Stop() {
  if (running_.exchange(false)) {
    clock_->WakeAll();
    thread_.join();
  }
  // Wait out a caller-pumped pass, as UnregisterTable does.
  std::unique_lock<std::shared_mutex> drained(run_mu_);
}

void DegradationEngine::BackgroundLoop() {
  // Only degradation and the checkpoint cadence serve published deadlines.
  const bool arms =
      options_.background_thread ||
      (maintenance_.enabled && maintenance_.checkpoint_interval > 0);
  while (running_.load(std::memory_order_acquire)) {
    // Armed before the step reads any deadline: a write applied after the
    // reads publishes below kForever and is folded into the wake below.
    if (arms) armed_.store(kForever);
    const Micros now = clock_->NowMicros();
    Micros wake = kForever;
    const Status status = Step(now, options_.background_thread,
                               maintenance_.enabled, &wake);
    if (!status.ok()) {
      IDB_ERROR("background step failed: %s", status.ToString().c_str());
    }
    // Token after the step, so the writes published during it do not
    // expire it, and before the running_ check: a Stop() or a Publish()
    // landing after this line expires it, so WaitUntil returns instead of
    // sleeping through the wake.
    const uint64_t token = clock_->WakeToken();
    if (!running_.load(std::memory_order_acquire)) break;
    if (!status.ok()) {
      armed_.store(kUnarmed);  // a failed step sleeps out its backoff
    } else if (arms) {
      wake = std::min(wake, LowerArmed(wake));
    }
    clock_->WaitUntil(wake == kForever ? now + kMicrosPerHour : wake, token);
  }
  armed_.store(kUnarmed);
}

DegradationEngine::Stats DegradationEngine::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

DegradationEngine::MaintenanceStats DegradationEngine::maintenance_stats()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return maintenance_stats_;
}

}  // namespace instantdb
