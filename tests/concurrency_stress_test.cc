#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "catalog/builtin_domains.h"
#include "db/database.h"
#include "gtest/gtest.h"
#include "io/fault_env.h"
#include "query/cursor.h"
#include "query/session.h"
#include "scan_oracle.h"
#include "util/file.h"

namespace instantdb {
namespace {

/// Stress: concurrent streaming cursors + WriteBatch ingest + background
/// degradation (worker pool over a partitioned table, driven by a
/// VirtualClock). Asserts that no row is ever lost and that every value
/// leaves phase 0 once its deadline has passed and the degrader has run.
///
/// This is the test meant to run under ThreadSanitizer (cmake
/// -DINSTANTDB_SANITIZE=thread, see scripts/verify.sh): it exercises every
/// cross-thread path the partitioned engine has — partition latches, the
/// degradation worker pool, WAL group commit.
class ConcurrencyStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/idb_stress_test";
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
  }
  void TearDown() override { RemoveDirRecursive(dir_).ok(); }

  /// The full stress body; `scan_parallelism` configures the readers'
  /// cursors (1 = sequential streaming scans, >1 = partition fan-out with
  /// prefetch workers racing the ingest threads and the degrader pool).
  void RunStress(size_t scan_parallelism);

  std::string dir_;
};

TEST_F(ConcurrencyStressTest, CursorsIngestAndDegraderInterleaveSafely) {
  RunStress(/*scan_parallelism=*/1);
}

// The parallel read path under fire: every reader fans its scan out over 4
// prefetch workers while 4 ingest threads commit and the 4-worker degrader
// drains deadlines — the TSan configuration that drives the bounded queue,
// batch recycling and worker shutdown across real interleavings.
TEST_F(ConcurrencyStressTest, ParallelCursorsIngestAndDegraderInterleaveSafely) {
  RunStress(/*scan_parallelism=*/4);
}

void ConcurrencyStressTest::RunStress(size_t scan_parallelism) {
  constexpr int kIngestThreads = 4;
  constexpr int kBatchesPerThread = 10;
  constexpr int kRowsPerBatch = 25;
  constexpr int kReaderThreads = 2;
  constexpr uint64_t kTotalRows =
      uint64_t{kIngestThreads} * kBatchesPerThread * kRowsPerBatch;

  VirtualClock clock(0);
  DbOptions options;
  options.path = dir_;
  options.clock = &clock;
  options.partitions = 4;
  options.degradation.background_thread = true;
  options.degradation.worker_threads = 4;
  options.degradation.step_batch_limit = 64;  // force many small steps
  auto opened = Database::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> db = std::move(*opened);

  // Two phases: address for an hour, then city forever — tuples never
  // expire, so "no lost rows" is exact.
  auto lcp = AttributeLcp::Make({{0, kMicrosPerHour}, {1, kForever}});
  ASSERT_TRUE(lcp.ok());
  auto schema = Schema::Make(
      {ColumnDef::Stable("user", ValueType::kString),
       ColumnDef::Degradable("location", LocationDomain(), *lcp)});
  ASSERT_TRUE(schema.ok());
  ASSERT_TRUE(db->CreateTable("stress", *schema).ok());

  std::atomic<int> errors{0};
  std::atomic<bool> stop_readers{false};

  // Ingest: each thread commits WriteBatches while the clock moves and the
  // degrader runs.
  std::vector<std::thread> ingest;
  for (int t = 0; t < kIngestThreads; ++t) {
    ingest.emplace_back([&, t] {
      for (int b = 0; b < kBatchesPerThread; ++b) {
        WriteBatch batch;
        for (int r = 0; r < kRowsPerBatch; ++r) {
          batch.Insert("stress",
                       {Value::String("u" + std::to_string(t) + "." +
                                      std::to_string(b) + "." +
                                      std::to_string(r)),
                        Value::String("11 Rue Lepic")});
        }
        // Inserts take no lock, so nothing can abort a pure-insert batch.
        if (!db->Write(&batch).ok()) {
          ++errors;
          return;
        }
      }
    });
  }

  // Readers: streaming cursors over the stable column (accuracy-neutral, so
  // every live row qualifies regardless of its degradation phase).
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaderThreads; ++t) {
    readers.emplace_back([&] {
      Session session(db.get());
      session.scan_options().parallelism = scan_parallelism;
      while (!stop_readers.load(std::memory_order_acquire)) {
        auto cursor = session.ExecuteCursor("SELECT user FROM stress");
        if (!cursor.ok()) {
          ++errors;
          return;
        }
        CursorRow row;
        uint64_t rows = 0;
        while (true) {
          auto more = (*cursor)->Next(&row);
          if (!more.ok()) {
            ++errors;
            return;
          }
          if (!*more) break;
          ++rows;
        }
        if (rows > kTotalRows) {
          ++errors;  // a row was observed that was never inserted
          return;
        }
      }
    });
  }

  // Drive time forward while ingest runs so deadlines spread out and the
  // background degrader wakes repeatedly mid-traffic. Checkpoint along the
  // way: a fuzzy checkpoint racing in-flight commits and degrade steps must
  // not lose or resurface anything at the final recovery check.
  for (int i = 0; i < 30; ++i) {
    clock.Advance(2 * kMicrosPerMinute);
    if (i % 10 == 9 && !db->Checkpoint().ok()) ++errors;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (std::thread& t : ingest) t.join();

  // Push every inserted row past its phase-0 deadline and let the worker
  // pool drain the backlog (NextDeadline() == kForever iff nothing is left
  // in phase 0, since phase 1 lasts forever).
  clock.Advance(kMicrosPerHour + kMicrosPerMinute);
  Table* table = db->GetTable("stress");
  for (int i = 0; i < 5000 && table->NextDeadline() != kForever; ++i) {
    clock.WakeAll();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop_readers.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  // NextDeadline() flips to kForever the instant the last step commits,
  // which can be slightly before that pass finishes updating statistics:
  // join the degrader before reading them.
  db->degradation()->Stop();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(table->NextDeadline(), kForever)
      << "degrader failed to drain phase 0 after the deadline";

  // No lost rows, and every value left phase 0 by its deadline plus one
  // pass of the worker pool.
  EXPECT_EQ(table->live_rows(), kTotalRows);
  // The degrader is stopped: the table is quiescent for the oracle.
  auto stored = oracle::StoredRows(*table);
  ASSERT_TRUE(stored.ok());
  for (const oracle::Stored& view : *stored) {
    EXPECT_GE(view.phases[0], 1) << "row " << view.row_id;
    EXPECT_EQ(view.values[1], Value::String("Paris"));
  }
  EXPECT_EQ(stored->size(), kTotalRows);
  const auto stats = table->stats();
  EXPECT_EQ(stats.inserts, kTotalRows);
  EXPECT_EQ(stats.values_degraded, kTotalRows);
  const auto engine_stats = db->degradation()->stats();
  EXPECT_EQ(engine_stats.values_moved, kTotalRows);
  EXPECT_GE(engine_stats.passes, 1u);

  // And the state survives recovery.
  db.reset();
  options.degradation.background_thread = false;
  auto reopened = Database::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->GetTable("stress")->live_rows(), kTotalRows);
}

/// Degradation takes no logical lock. Two passes are kept off one
/// partition only by its step mutex (the second skips it), and a pass and a
/// user delete only by the partition latch and the apply's live-row test.
/// Two threads call RunDue at once while a writer inserts and a mutator
/// deletes rows and updates their stable column, all under short phases.
/// Location reaches ⊥ long before salary, so a removed location leaves its
/// row in place (the case a replayed stale step would corrupt), and the
/// rows inserted first expire whole. Checked against the scan oracle, live
/// and again after recovery: every stored phase of both columns is exactly
/// the one the LCP gives at the final clock (never finer), no id sits in
/// two phases of a column or in a store without a heap row, no committed
/// delete comes back, and every update shows.
TEST_F(ConcurrencyStressTest, ConcurrentPassesDeletesAndUpdatesKeepPhasesExact) {
  constexpr int kBatches = 40;
  constexpr int kRowsPerBatch = 10;
  VirtualClock clock(0);
  DbOptions options;
  options.path = dir_;
  options.clock = &clock;
  options.partitions = 2;
  options.degradation.worker_threads = 2;
  options.degradation.step_batch_limit = 4;  // many small steps to race
  auto opened = Database::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> db = std::move(*opened);
  // Two 1 s phases, so one clock tick makes a value due in two phases at
  // once. Location then keeps its region for 30 s and is removed; salary
  // keeps its coarsest bucket for 60 s, and then the tuple expires.
  auto location_lcp = AttributeLcp::Make({{0, kMicrosPerSecond},
                                          {1, kMicrosPerSecond},
                                          {2, 30 * kMicrosPerSecond}});
  auto salary_lcp = AttributeLcp::Make({{0, kMicrosPerSecond},
                                        {1, kMicrosPerSecond},
                                        {2, 60 * kMicrosPerSecond}});
  ASSERT_TRUE(location_lcp.ok());
  ASSERT_TRUE(salary_lcp.ok());
  const std::vector<AttributeLcp> lcps = {*location_lcp, *salary_lcp};
  const Micros lifetime = salary_lcp->RemovalOffset();
  auto schema = Schema::Make(
      {ColumnDef::Stable("user", ValueType::kString),
       ColumnDef::Degradable("location", LocationDomain(), *location_lcp),
       ColumnDef::Degradable("salary", SalaryDomain(), *salary_lcp)});
  ASSERT_TRUE(schema.ok());
  ASSERT_TRUE(db->CreateTable("stress", *schema).ok());

  std::atomic<int> errors{0};
  std::atomic<bool> stop{false};
  std::mutex mu;  // guards the four records below
  std::vector<RowId> inserted;
  std::map<RowId, Micros> inserted_before;  // clock read before the Write
  std::set<RowId> deleted;                  // committed deletes
  std::map<RowId, std::string> updated;     // last committed user value

  // Paced, so the rows' insert times spread over the run.
  std::thread writer([&] {
    for (int b = 0; b < kBatches && errors.load() == 0; ++b) {
      WriteBatch batch;
      for (int r = 0; r < kRowsPerBatch; ++r) {
        batch.Insert("stress", {Value::String("u" + std::to_string(b) + "." +
                                              std::to_string(r)),
                                Value::String("11 Rue Lepic"),
                                Value::Int64((b * 137 + r) % 20000)});
      }
      const Micros before = clock.NowMicros();
      if (!db->Write(&batch).ok()) {
        ++errors;
        return;
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        for (RowId id : batch.row_ids()) {
          inserted.push_back(id);
          inserted_before[id] = before;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  // One transaction deletes a row and updates another, as a user would;
  // either may have expired meanwhile (NotFound), then the txn aborts.
  std::thread mutator([&] {
    std::mt19937_64 rng(7);
    Table* table = db->GetTable("stress");
    for (int n = 0; !stop.load(std::memory_order_acquire); ++n) {
      RowId victim;
      RowId target;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (inserted.size() < 2) continue;
        victim = inserted[rng() % inserted.size()];
        target = inserted[rng() % inserted.size()];
      }
      if (victim == target) continue;
      // Paced too, so rows outlive their location and the run ends with
      // some left.
      std::this_thread::sleep_for(std::chrono::microseconds(500));
      const std::string user = "upd" + std::to_string(n);
      auto txn = db->Begin();
      const Status deleting = table->Delete(txn.get(), victim);
      const Status updating =
          deleting.ok() ? table->UpdateStable(txn.get(), target,
                                              {Value::String(user)})
                        : deleting;
      if (!updating.ok()) {
        db->Abort(txn.get());
        if (!updating.IsNotFound()) ++errors;
        continue;
      }
      if (!db->Commit(txn.get()).ok()) {
        ++errors;
        return;
      }
      std::lock_guard<std::mutex> lock(mu);
      deleted.insert(victim);
      updated[target] = user;
    }
  });
  std::vector<std::thread> passes;
  for (int t = 0; t < 2; ++t) {
    passes.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        if (!db->degradation()->RunDue(clock.NowMicros()).ok()) ++errors;
      }
    });
  }
  for (int i = 0; i < 60; ++i) {
    clock.Advance(2 * kMicrosPerSecond);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  writer.join();
  stop.store(true, std::memory_order_release);
  mutator.join();
  for (std::thread& t : passes) t.join();
  ASSERT_EQ(errors.load(), 0);
  // Settle: whatever the racing passes left due at the final clock.
  const Micros now = clock.NowMicros();
  ASSERT_TRUE(db->degradation()->RunDue(now).ok());
  ASSERT_GT(deleted.size(), 0u);
  ASSERT_GT(updated.size(), 0u);

  auto check = [&](Database* checked, const std::string& when) {
    SCOPED_TRACE(when);
    Table* table = checked->GetTable("stress");
    const std::vector<int>& columns = table->schema().degradable_columns();
    auto stored = oracle::StoredRows(*table);
    ASSERT_TRUE(stored.ok());
    std::set<RowId> heap;
    for (const oracle::Stored& row : *stored) {
      heap.insert(row.row_id);
      EXPECT_EQ(deleted.count(row.row_id), 0u) << "deleted row came back";
      for (size_t d = 0; d < lcps.size(); ++d) {
        EXPECT_EQ(row.phases[d], lcps[d].PhaseAt(now - row.insert_time))
            << "row " << row.row_id << " column " << columns[d];
      }
      auto update = updated.find(row.row_id);
      const std::string user = row.values[0].ToString();
      if (update != updated.end()) {
        EXPECT_EQ(user, update->second) << "row " << row.row_id;
      } else {
        EXPECT_EQ(user.rfind("u", 0), 0u) << "row " << row.row_id;
      }
    }
    for (int col : columns) {
      std::map<RowId, int> holders;  // id -> phase stores holding it
      const int phases = table->schema().column(col).lcp.num_phases();
      for (uint32_t p = 0; p < table->num_partitions(); ++p) {
        for (int phase = 0; phase < phases; ++phase) {
          table->partition(p)->store(col, phase)->ForEach(
              [&](const StoreEntryView& entry) {
                ++holders[entry.row_id];
                return true;
              });
        }
      }
      for (const auto& [id, count] : holders) {
        EXPECT_EQ(count, 1) << "row " << id << " in " << count
                            << " phases of column " << col;
        EXPECT_EQ(heap.count(id), 1u) << "store entry without a row: " << id;
      }
    }
    // Every row not deleted and not yet due for removal is still there.
    for (const auto& [id, before] : inserted_before) {
      if (deleted.count(id) == 0 && before + lifetime > now) {
        EXPECT_EQ(heap.count(id), 1u) << "row " << id << " lost";
      }
    }
    const AuditReport audit = checked->Audit();
    EXPECT_EQ(audit.exposed_values, 0u) << audit.ToString();
    EXPECT_EQ(audit.stale_index_entries, 0u) << audit.ToString();
    EXPECT_EQ(audit.missing_index_entries, 0u) << audit.ToString();
  };
  check(db.get(), "live");

  // Redo replays every step to the same state.
  db.reset();
  auto reopened = Database::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  check(reopened->get(), "after recovery");
}

/// Racing writers of one row, redone from a crash image: four threads each
/// make durable commits that update the stable columns of one shared row
/// and delete a row of their own. No writer aborts. The live shared row
/// holds the update the log holds last, and redo of a crash image taken
/// with no checkpoint since the load rebuilds the same row, with every
/// deleted row gone.
TEST_F(ConcurrencyStressTest, RacingWritersOfOneRowRedoToTheLiveState) {
  constexpr int kThreads = 4;
  constexpr int kCommitsPerThread = 50;
  const std::string image = dir_ + "_crash";
  ASSERT_TRUE(RemoveDirRecursive(image).ok());
  VirtualClock clock(0);
  FaultInjectionEnv fault(Env::Default());
  DbOptions options;
  options.path = dir_;
  options.clock = &clock;
  options.env = &fault;
  options.partitions = 2;
  auto opened = Database::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> db = std::move(*opened);
  auto schema = Schema::Make(
      {ColumnDef::Stable("user", ValueType::kString),
       ColumnDef::Stable("n", ValueType::kInt64),
       ColumnDef::Degradable("location", LocationDomain(),
                             Fig2LocationLcp())});
  ASSERT_TRUE(schema.ok());
  ASSERT_TRUE(db->CreateTable("racing", *schema).ok());
  WriteBatch load;
  for (int i = 0; i <= kThreads * kCommitsPerThread; ++i) {
    load.Insert("racing", {Value::String("load"), Value::Int64(i),
                           Value::String("11 Rue Lepic")});
  }
  ASSERT_TRUE(db->Write(&load).ok());
  ASSERT_TRUE(db->Checkpoint().ok());
  const RowId shared = load.row_ids()[0];
  Table* table = db->GetTable("racing");

  std::atomic<int> errors{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kCommitsPerThread; ++i) {
        const RowId own = load.row_ids()[1 + t * kCommitsPerThread + i];
        auto txn = db->Begin();
        const Status staged =
            table->UpdateStable(txn.get(), shared,
                                {Value::String("t" + std::to_string(t)),
                                 Value::Int64(i)});
        if (!staged.ok() || !table->Delete(txn.get(), own).ok() ||
            !db->Commit(txn.get(), WriteOptions{.sync = true}).ok()) {
          ++errors;
          return;
        }
      }
    });
  }
  for (std::thread& w : writers) w.join();
  ASSERT_EQ(errors.load(), 0);
  EXPECT_EQ(table->live_rows(), 1u);

  auto live = oracle::StoredRow(*table, shared);
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(live->has_value());
  const std::vector<Value> live_stable = {(*live)->values[0],
                                          (*live)->values[1]};
  std::vector<Value> last_logged;
  auto keep_last_update = [&](const WalRecord& record) {
    if (record.type == WalRecordType::kUpdateStable && record.row_id == shared) {
      last_logged = record.stable;
    }
    return Status::OK();
  };
  ASSERT_TRUE(db->wal()->RecoverCommitted(0, keep_last_update).ok());
  EXPECT_EQ(last_logged, live_stable);

  ASSERT_TRUE(fault.SimulateCrashTo(dir_, image).ok());
  db.reset();
  options.path = image;
  options.env = nullptr;
  auto recovered = Database::Open(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  Table* redone = (*recovered)->GetTable("racing");
  auto stored = oracle::StoredRows(*redone);
  ASSERT_TRUE(stored.ok());
  ASSERT_EQ(stored->size(), 1u) << "a deleted row came back";
  EXPECT_EQ(stored->front().row_id, shared);
  EXPECT_EQ(stored->front().values[0], live_stable[0]);
  EXPECT_EQ(stored->front().values[1], live_stable[1]);
  recovered->reset();
  RemoveDirRecursive(image).ok();
}

}  // namespace
}  // namespace instantdb
