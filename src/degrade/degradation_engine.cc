#include "degrade/degradation_engine.h"

#include <algorithm>
#include <chrono>
#include <deque>

#include "common/logging.h"

namespace instantdb {

namespace {
/// Retry delays after a failed background pass: start at the floor, double
/// per consecutive failure, never exceed the cap. Without this the loop
/// would hot-spin on a still-overdue deadline while the disk stays broken.
constexpr Micros kPassBackoffFloor = 10'000;   // 10 ms
constexpr Micros kPassBackoffCap = 5'000'000;  // 5 s
}  // namespace

DegradationEngine::DegradationEngine(TransactionManager* tm, Clock* clock,
                                     const DegradationOptions& options,
                                     WorkerPool& pool)
    : tm_(tm), clock_(clock), options_(options), pool_(pool) {}

DegradationEngine::~DegradationEngine() { Stop(); }

void DegradationEngine::RegisterTable(Table* table) {
  std::lock_guard<std::mutex> lock(mu_);
  tables_[table->id()] = table;
  clock_->WakeAll();  // the new table may carry an earlier deadline
}

void DegradationEngine::UnregisterTable(TableId id) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tables_.erase(id);
  }
  // Quiesce: an in-flight RunDue pass snapshotted raw Table* before the
  // erase; wait for it to drain so the caller can safely destroy the table.
  // (mu_ is released first — RunDue acquires mu_ while holding run_mu_
  // shared, so holding both here would deadlock.)
  std::unique_lock<std::shared_timed_mutex> quiesce(run_mu_);
}

bool DegradationEngine::Quiesce(Micros max_wait) {
  std::unique_lock<std::shared_timed_mutex> quiesce(run_mu_, std::defer_lock);
  if (!quiesce.try_lock_for(std::chrono::microseconds(max_wait))) return false;
  return true;
}

void DegradationEngine::EnqueueUrgent(TableId table, uint32_t partition) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    urgent_.emplace(table, partition);
  }
  clock_->WakeAll();  // wake the background coordinator for the repair
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
      if (table->PartitionHasWorkAt(p, now)) ++overdue;
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

Result<size_t> DegradationEngine::RunDue(Micros now) {
  // One unit of schedulable work: a table partition with an overdue store
  // head. Units never share physical state or store locks, so the worker
  // pool drains them concurrently.
  struct Unit {
    Table* table;
    uint32_t partition;
  };
  constexpr int kMaxAbortRetries = 64;

  // Tables snapshotted below stay alive for the whole pass: UnregisterTable
  // blocks on this until we return.
  std::shared_lock<std::shared_timed_mutex> running(run_mu_);

  size_t total = 0;
  Stats delta;  // batched into stats_ once per RunDue, not per step
  std::atomic<int> abort_budget{kMaxAbortRetries};
  Status error;

  // Keep collecting and draining until no partition has overdue work.
  // Wait-die aborts are bounded-retried: a conflicting reader commits and
  // releases soon.
  for (;;) {
    std::vector<Unit> units;
    std::set<std::pair<TableId, uint32_t>> urgent;
    {
      std::lock_guard<std::mutex> lock(mu_);
      urgent.swap(urgent_);
      for (auto& [id, table] : tables_) {
        for (uint32_t p = 0; p < table->num_partitions(); ++p) {
          if (!fault_skip_.empty() && fault_skip_.count({id, p}) != 0) {
            continue;  // injected fault: leave this unit's work stale
          }
          if (table->PartitionHasWorkAt(p, now)) units.push_back({table, p});
        }
      }
    }
    if (!urgent.empty()) {
      // Audit-repair units jump the queue: workers claim units in order, so
      // moving them to the front of the round drains the proven-overdue
      // partitions before any merely-due one. Units not collected above
      // (no overdue work, unregistered table, injected fault) drop out of
      // the urgent set with the swap — stale repairs are self-cleaning.
      const auto urgent_end = std::stable_partition(
          units.begin(), units.end(), [&](const Unit& unit) {
            return urgent.count({unit.table->id(), unit.partition}) != 0;
          });
      delta.urgent_units +=
          static_cast<uint64_t>(urgent_end - units.begin());
    }
    if (units.empty()) break;
    delta.passes = 1;  // a pass only counts when some partition had due work

    std::atomic<uint64_t> steps{0};
    std::atomic<uint64_t> moved_round{0};
    std::atomic<uint64_t> aborts_round{0};
    std::mutex error_mu;

    // Step-grained work queue: a claim runs ONE bounded step, then requeues
    // the unit at the back while it still has work. Urgent units sit at the
    // front, so their first step is never stuck behind another partition's
    // deep backlog; aborted units also go to the back (the conflicting
    // reader gets time to commit before the retry).
    std::mutex queue_mu;
    std::deque<Unit> queue(units.begin(), units.end());

    auto drain = [&] {
      for (;;) {
        Unit unit;
        {
          std::lock_guard<std::mutex> lock(queue_mu);
          if (queue.empty()) return;
          unit = queue.front();
          queue.pop_front();
        }
        if (!unit.table->PartitionHasWorkAt(unit.partition, now)) continue;
        auto moved = unit.table->RunDegradationStep(
            tm_, now, options_.step_batch_limit, unit.partition);
        if (!moved.ok()) {
          if (moved.status().IsAborted() &&
              abort_budget.fetch_sub(1, std::memory_order_relaxed) > 0) {
            aborts_round.fetch_add(1, std::memory_order_relaxed);
            std::lock_guard<std::mutex> lock(queue_mu);
            queue.push_back(unit);  // retry after the rest of the round
            continue;
          }
          std::lock_guard<std::mutex> lock(error_mu);
          if (error.ok()) error = moved.status();
          return;
        }
        if (*moved == 0) continue;  // spurious wake-up: drop, re-collect next
        steps.fetch_add(1, std::memory_order_relaxed);
        moved_round.fetch_add(*moved, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(queue_mu);
        queue.push_back(unit);  // may still have work past the step limit
      }
    };

    const size_t workers = std::min<size_t>(
        std::max<size_t>(options_.worker_threads, 1), units.size());
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
    delta.lock_aborts += aborts_round.load();
    total += moved_round.load();
    if (!error.ok()) break;
    // No progress this round (only aborts or spurious wake-ups): leave the
    // remainder for the next RunDue rather than spinning.
    if (moved_round.load() == 0) break;
  }

  if (delta.passes != 0 || delta.lock_aborts != 0 || delta.urgent_units != 0) {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.passes += delta.passes;
    stats_.steps += delta.steps;
    stats_.values_moved += delta.values_moved;
    stats_.lock_aborts += delta.lock_aborts;
    stats_.urgent_units += delta.urgent_units;
  }
  if (!error.ok()) return error;
  return total;
}

Status DegradationEngine::Start() {
  if (running_.exchange(true)) return Status::OK();
  thread_ = std::thread([this] { BackgroundLoop(); });
  return Status::OK();
}

void DegradationEngine::Stop() {
  if (!running_.exchange(false)) return;
  clock_->WakeAll();
  if (thread_.joinable()) thread_.join();
}

void DegradationEngine::BackgroundLoop() {
  Micros backoff = 0;  // current retry delay; 0 while passes succeed
  for (;;) {
    // Token before the running_ check and the deadline computation: a
    // Stop() or a RegisterTable()'s earlier-deadline WakeAll landing after
    // this line expires the token, so WaitUntil returns immediately instead
    // of sleeping through the wake (the missed-wakeup window between
    // deciding to sleep and parking).
    const uint64_t token = clock_->WakeToken();
    if (!running_.load(std::memory_order_acquire)) break;
    const Micros now = clock_->NowMicros();
    const Micros deadline = NextDeadline();
    if (deadline <= now) {
      auto moved = RunDue(now);
      if (moved.ok()) {
        backoff = 0;
        continue;
      }
      IDB_ERROR("degrader pass failed: %s", moved.status().ToString().c_str());
      // A failed pass leaves the deadline overdue; looping straight back
      // would hot-spin against a broken disk. Retry with capped exponential
      // backoff — the deadline stays overdue, so the pass that finds the
      // disk recovered immediately drains the backlog.
      backoff = backoff == 0 ? kPassBackoffFloor
                             : std::min(backoff * 2, kPassBackoffCap);
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (first_error_.ok() && moved.status().IsIOError()) {
          first_error_ = moved.status();
        }
        if (moved.status().IsIOError() || moved.status().IsBusy()) {
          ++stats_.io_retries;
        }
      }
      clock_->WaitUntil(now + backoff, token);
      continue;
    }
    clock_->WaitUntil(deadline == kForever ? now + kMicrosPerHour : deadline,
                      token);
  }
}

DegradationEngine::Stats DegradationEngine::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace instantdb
