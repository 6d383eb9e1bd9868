#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "catalog/builtin_domains.h"
#include "db/database.h"
#include "gtest/gtest.h"
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
/// degradation worker pool, WAL group commit, wait-die locking.
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
        Status status = db->Write(&batch);
        // Wait-die can in principle abort a batch; retry preserves the
        // no-lost-rows invariant.
        for (int retry = 0; !status.ok() && status.IsAborted() && retry < 100;
             ++retry) {
          status = db->Write(&batch);
        }
        if (!status.ok()) {
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

}  // namespace
}  // namespace instantdb
