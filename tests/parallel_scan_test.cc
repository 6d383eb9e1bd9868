// Parallel read path: fanned-out scans must return exactly the row set of
// the test oracle (scan_oracle.h) at every parallelism — also when the
// shared pool lends no worker and the scan runs inline — preserve snapshot
// safety while the degrader runs, expose morsel cursors for consumers
// that shard a scan themselves, and account their work in
// Database::stats().scan. Statements share the pool elastically: each
// lends only the cores no statement holds, lent readers give theirs back at
// a morsel boundary, and answers stay exact whoever reads which morsel.
// This test runs under ThreadSanitizer in scripts/verify.sh --tsan: the
// prefetch workers, bounded queue, scanning consumer and concurrent
// sessions are exactly the cross-thread paths it exercises.

#include <algorithm>
#include <atomic>
#include <future>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "catalog/builtin_domains.h"
#include "common/random.h"
#include "db/database.h"
#include "degradable_mix.h"
#include "gtest/gtest.h"
#include "query/cursor.h"
#include "query/session.h"
#include "scan_oracle.h"
#include "util/file.h"
#include "util/worker_pool.h"

namespace instantdb {
namespace {

class ParallelScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/idb_parallel_scan_test";
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
  }
  void TearDown() override {
    db_.reset();
    RemoveDirRecursive(dir_).ok();
  }

  /// Fresh database with `partitions` partitions and a worker pool of the
  /// same size, holding `rows` pings with a mix of phase-0 and phase-1
  /// locations (the clock advances past the one-hour address deadline for
  /// the first half of the inserts).
  void BuildDb(uint32_t partitions, int rows) {
    db_.reset();
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
    clock_ = std::make_unique<VirtualClock>(0);
    DbOptions options;
    options.path = dir_;
    options.clock = clock_.get();
    options.partitions = partitions;
    options.degradation.worker_threads = partitions;
    auto opened = Database::Open(options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    db_ = std::move(*opened);

    auto schema = Schema::Make(
        {ColumnDef::Stable("user", ValueType::kString),
         ColumnDef::Degradable("location", LocationDomain(),
                               Fig2LocationLcp())});
    ASSERT_TRUE(schema.ok());
    ASSERT_TRUE(db_->CreateTable("pings", *schema).ok());

    const char* kAddresses[] = {"11 Rue Lepic", "3 Av Foch", "12 Rue Royale",
                                "4 Rue Breteuil", "8 Cours Mirabeau"};
    // Many small batches: WriteBatches are partition-affine (one batch lands
    // in one partition), so spreading the rows over batches populates every
    // partition.
    auto insert_range = [&](int from, int to) {
      for (int start = from; start < to; start += 25) {
        WriteBatch batch;
        for (int i = start; i < std::min(start + 25, to); ++i) {
          batch.Insert("pings", {Value::String("u" + std::to_string(i)),
                                 Value::String(kAddresses[i % 5])});
        }
        ASSERT_TRUE(db_->Write(&batch).ok());
      }
    };
    insert_range(0, rows / 2);
    // The first half crosses address -> city; the second half stays
    // accurate, so scans see mixed phases.
    clock_->Advance(kMicrosPerHour + kMicrosPerMinute);
    ASSERT_TRUE(db_->RunDegradationOnce().ok());
    insert_range(rows / 2, rows);
  }

  /// Drains `sql` through a streaming cursor at `parallelism` into
  /// user -> rendered-row, asserting no duplicate users.
  std::map<std::string, std::vector<std::string>> DrainCursor(
      Session* session, const std::string& sql, size_t parallelism) {
    session->scan_options().parallelism = parallelism;
    std::map<std::string, std::vector<std::string>> rows;
    auto cursor = session->ExecuteCursor(sql);
    EXPECT_TRUE(cursor.ok()) << cursor.status().ToString();
    if (!cursor.ok()) return rows;
    CursorRow row;
    while (true) {
      auto more = (*cursor)->Next(&row);
      EXPECT_TRUE(more.ok()) << more.status().ToString();
      if (!more.ok() || !*more) break;
      const auto [it, inserted] =
          rows.emplace(row.display()[0], row.display());
      EXPECT_TRUE(inserted) << "duplicate row for " << row.display()[0];
    }
    return rows;
  }

  /// The oracle's answer for `sql`.
  oracle::Answer Oracle(Session* session, const std::string& sql) {
    auto result = oracle::Execute(session, sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    return result.ok() ? *result : oracle::Answer{};
  }

  std::string dir_;
  std::unique_ptr<VirtualClock> clock_;
  std::unique_ptr<Database> db_;
};

TEST_F(ParallelScanTest, ParallelAndSequentialScansReturnTheSameRowSet) {
  constexpr int kRows = 900;  // several scan batches per partition at p=1
  for (uint32_t partitions : {1u, 4u, 8u}) {
    BuildDb(partitions, kRows);
    Session session(db_.get());
    // CITY accuracy makes every row computable (phase-0 generalizes, the
    // degraded half matches exactly), so the expected set is all rows.
    ASSERT_TRUE(session
                    .Execute("DECLARE PURPOSE GEO SET ACCURACY LEVEL CITY "
                             "FOR pings.location")
                    .ok());
    const oracle::Answer reference =
        Oracle(&session, "SELECT user, location FROM pings");
    const auto baseline = oracle::ByFirstColumn(reference);
    ASSERT_EQ(baseline.size(), static_cast<size_t>(kRows))
        << "partitions=" << partitions;
    for (size_t parallelism : {1u, 2u, 8u}) {
      const auto parallel =
          DrainCursor(&session, "SELECT user, location FROM pings",
                      parallelism);
      EXPECT_EQ(parallel, baseline)
          << "partitions=" << partitions << " parallelism=" << parallelism;
    }
    // The materialized path (Execute drains morsels on the pool) must
    // agree too, and in deterministic (partition, heap) order.
    session.scan_options().parallelism = 0;  // auto: match the worker pool
    auto materialized = session.Execute("SELECT user, location FROM pings");
    ASSERT_TRUE(materialized.ok());
    EXPECT_EQ(materialized->rows, reference.rows);
    EXPECT_EQ(oracle::Display(*materialized), reference.display);
  }
}

TEST_F(ParallelScanTest, PredicatesAndStableProjectionsAgreeAcrossParallelism) {
  BuildDb(4, 600);
  Session session(db_.get());
  // Stable-only projection: no degradable reference, every row qualifies.
  const auto all =
      oracle::ByFirstColumn(Oracle(&session, "SELECT user FROM pings"));
  EXPECT_EQ(all.size(), 600u);
  for (size_t parallelism : {1u, 8u}) {
    EXPECT_EQ(DrainCursor(&session, "SELECT user FROM pings", parallelism),
              all)
        << "parallelism=" << parallelism;
  }
  // Degradable predicate through the relaxed semantics (include_coarser):
  // the degraded half evaluates by containment.
  session.read_options().include_coarser = true;
  const auto paris = oracle::ByFirstColumn(Oracle(
      &session, "SELECT user, location FROM pings WHERE location = 'Paris'"));
  EXPECT_FALSE(paris.empty());
  for (size_t parallelism : {1u, 2u, 4u}) {
    EXPECT_EQ(
        DrainCursor(&session,
                    "SELECT user, location FROM pings WHERE location = 'Paris'",
                    parallelism),
        paris)
        << "parallelism=" << parallelism;
  }
}

/// A tree and an interval domain, node and non-node predicates,
/// include_coarser: every fan-out returns the oracle's values and display,
/// the materialized path in its exact order.
TEST_F(ParallelScanTest, DomainsAgreeAcrossParallelism) {
  db_.reset();
  ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
  clock_ = std::make_unique<VirtualClock>(0);
  DbOptions options;
  options.path = dir_;
  options.clock = clock_.get();
  options.partitions = 4;
  options.degradation.worker_threads = 4;
  auto opened = Database::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  db_ = std::move(*opened);
  mix::Populate(db_.get(), clock_.get(), 900);

  Session session(db_.get());
  ASSERT_TRUE(session.Execute(mix::kPurpose).ok());
  session.set_use_indexes(false);
  auto sorted = [](auto rows) {
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  for (bool coarser : {false, true}) {
    session.read_options().include_coarser = coarser;
    for (const std::string& sql : mix::Statements()) {
      const oracle::Answer reference = Oracle(&session, sql);
      for (size_t parallelism : {1u, 2u, 8u}) {
        session.scan_options().parallelism = parallelism;
        const std::string where = sql + " coarser=" + std::to_string(coarser) +
                                  " parallelism=" +
                                  std::to_string(parallelism);
        auto materialized = session.Execute(sql);
        ASSERT_TRUE(materialized.ok()) << where;
        EXPECT_EQ(materialized->rows, reference.rows) << where;
        EXPECT_EQ(oracle::Display(*materialized), reference.display) << where;
        auto cursor = session.ExecuteCursor(sql);
        ASSERT_TRUE(cursor.ok()) << where;
        std::vector<std::vector<Value>> values;
        std::vector<std::vector<std::string>> display;
        const CursorBatch* batch = nullptr;
        while (true) {
          auto more = (*cursor)->NextBatch(&batch);
          ASSERT_TRUE(more.ok()) << where;
          if (!*more) break;
          for (size_t i = 0; i < batch->size(); ++i) {
            values.push_back(batch->values(i));
            display.push_back(batch->display(i));
          }
        }
        EXPECT_EQ(sorted(values), sorted(reference.rows)) << where;
        EXPECT_EQ(sorted(display), sorted(reference.display)) << where;
      }
    }
  }
}

TEST_F(ParallelScanTest, CursorOpenDuringDegradationStaysSnapshotSafe) {
  constexpr int kRows = 800;
  BuildDb(8, kRows);
  Session session(db_.get());
  ASSERT_TRUE(session
                  .Execute("DECLARE PURPOSE GEO SET ACCURACY LEVEL CITY "
                           "FOR pings.location")
                  .ok());
  session.scan_options().parallelism = 4;
  auto cursor = session.ExecuteCursor("SELECT user, location FROM pings");
  ASSERT_TRUE(cursor.ok());

  const std::set<std::string> kCities = {"Paris", "Versailles", "Marseille",
                                         "Aix"};
  CursorRow row;
  std::set<std::string> seen;
  int pulled = 0;
  // Pull a slice, then degrade the remaining accurate half mid-scan.
  while (pulled < kRows / 4) {
    auto more = (*cursor)->Next(&row);
    ASSERT_TRUE(more.ok());
    ASSERT_TRUE(*more);
    EXPECT_TRUE(seen.insert(row.display()[0]).second);
    EXPECT_TRUE(kCities.count(row.display()[1]))
        << "torn location: " << row.display()[1];
    ++pulled;
  }
  clock_->Advance(kMicrosPerHour + kMicrosPerMinute);
  ASSERT_TRUE(db_->RunDegradationOnce().ok());
  while (true) {
    auto more = (*cursor)->Next(&row);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    EXPECT_TRUE(seen.insert(row.display()[0]).second);
    // Whether a row was read before or after its degradation step, the
    // value rendered at CITY accuracy is a city label — never a torn or
    // half-moved value.
    EXPECT_TRUE(kCities.count(row.display()[1]))
        << "torn location: " << row.display()[1];
  }
  // Degradation moves values between stores but never removes heap rows
  // (this LCP keeps city forever): no row may be lost or duplicated.
  EXPECT_EQ(seen.size(), static_cast<size_t>(kRows));
}

TEST_F(ParallelScanTest, PartitionCursorsShardTheTableExactly) {
  constexpr int kRows = 500;
  BuildDb(4, kRows);
  Table* table = db_->GetTable("pings");
  ASSERT_NE(table, nullptr);
  ScanSpec spec;
  spec.output_columns.assign(table->schema().stable_columns().size(), true);
  ScanWorkspace ws;
  ScanDeltas deltas;
  std::set<RowId> all;
  for (uint32_t p = 0; p < table->num_partitions(); ++p) {
    // One whole-partition morsel: page 0 to the end of the heap.
    Morsel whole;
    whole.partition = p;
    PartitionCursor cursor = table->OpenMorselCursor(whole);
    bool done = false;
    while (!done) {
      ASSERT_TRUE(cursor.NextBatch(64, spec, &ws, &done, &deltas).ok());
      for (size_t k = 0; k < ws.count; ++k) {
        const RowId row_id = ws.tuples[k].row_id;
        // Every row a partition cursor serves routes back to it.
        EXPECT_EQ(table->PartitionOf(row_id), p);
        EXPECT_TRUE(all.insert(row_id).second) << "row served twice: " << row_id;
      }
    }
    // A drained cursor stays drained.
    ASSERT_TRUE(cursor.NextBatch(64, spec, &ws, &done, &deltas).ok());
    EXPECT_TRUE(done);
    EXPECT_EQ(ws.count, 0u);
  }
  EXPECT_EQ(all.size(), static_cast<size_t>(kRows));

  // An out-of-range partition index yields a safe empty cursor.
  Morsel oob_morsel;
  oob_morsel.partition = table->num_partitions();
  PartitionCursor oob = table->OpenMorselCursor(oob_morsel);
  bool done = false;
  ASSERT_TRUE(oob.NextBatch(64, spec, &ws, &done, &deltas).ok());
  EXPECT_TRUE(done);
  EXPECT_EQ(ws.count, 0u);
  EXPECT_EQ(deltas.rows_scanned, static_cast<uint64_t>(kRows));
}

TEST_F(ParallelScanTest, ScanCountersAccountBatchesRowsAndStalls) {
  constexpr int kRows = 600;
  BuildDb(4, kRows);
  Session session(db_.get());

  const Database::Stats before = db_->stats();
  const auto rows = DrainCursor(&session, "SELECT user FROM pings", 1);
  EXPECT_EQ(rows.size(), static_cast<size_t>(kRows));
  const Database::Stats sequential = db_->stats();
  EXPECT_EQ(sequential.scan.rows - before.scan.rows,
            static_cast<uint64_t>(kRows));
  EXPECT_GE(sequential.scan.batches - before.scan.batches, 1u);
  // The inline path never touches the prefetch queue.
  EXPECT_EQ(sequential.scan.prefetch_stalls, before.scan.prefetch_stalls);

  const auto parallel = DrainCursor(&session, "SELECT user FROM pings", 4);
  EXPECT_EQ(parallel.size(), static_cast<size_t>(kRows));
  const Database::Stats fanned = db_->stats();
  EXPECT_EQ(fanned.scan.rows - sequential.scan.rows,
            static_cast<uint64_t>(kRows));
  EXPECT_GE(fanned.scan.batches - sequential.scan.batches, 4u);
  EXPECT_GE(fanned.scan.prefetch_stalls, sequential.scan.prefetch_stalls);
}

TEST_F(ParallelScanTest, ExplicitParallelismClampsToThePartitionCount) {
  BuildDb(1, 300);
  Session session(db_.get());
  // parallelism 8 on a 1-partition table degenerates safely.
  const auto wide = DrainCursor(&session, "SELECT user FROM pings", 8);
  const auto narrow = DrainCursor(&session, "SELECT user FROM pings", 1);
  EXPECT_EQ(wide, narrow);
  EXPECT_EQ(wide,
            oracle::ByFirstColumn(Oracle(&session, "SELECT user FROM pings")));
  EXPECT_EQ(wide.size(), 300u);
}

TEST_F(ParallelScanTest, SaturatedPoolRunsTheStreamingScanInline) {
  constexpr int kRows = 600;
  BuildDb(4, kRows);
  Session session(db_.get());
  ASSERT_TRUE(session
                  .Execute("DECLARE PURPOSE GEO SET ACCURACY LEVEL CITY "
                           "FOR pings.location")
                  .ok());
  const std::string sql = "SELECT user, location FROM pings";
  const auto expected = oracle::ByFirstColumn(Oracle(&session, sql));
  ASSERT_EQ(expected.size(), static_cast<size_t>(kRows));

  // Hold every normal pool token with blocked tasks: a parallelism-4
  // cursor now gets no producer and must drain on the consumer's thread.
  WorkerPool* pool = db_->worker_pool();
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  WorkerPool::Ticket ticket;
  const size_t taken = pool->TryDispatch(
      pool->size(), [released](size_t) { released.wait(); }, &ticket);
  ASSERT_EQ(taken, pool->size() - pool->reserved());
  ASSERT_EQ(pool->free_workers(), pool->reserved());

  const Database::Stats before = db_->stats();
  EXPECT_EQ(DrainCursor(&session, sql, 4), expected);
  const Database::Stats after = db_->stats();
  EXPECT_EQ(after.scan.rows - before.scan.rows, static_cast<uint64_t>(kRows));
  // Inline: the prefetch queue was never waited on.
  EXPECT_EQ(after.scan.prefetch_stalls, before.scan.prefetch_stalls);

  // The inline path observes the statement deadline like the producers do.
  session.scan_options().deadline = clock_->NowMicros() + kMicrosPerSecond;
  auto cursor = session.ExecuteCursor(sql);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  clock_->Advance(10 * kMicrosPerSecond);
  CursorRow row;
  auto next = (*cursor)->Next(&row);
  EXPECT_TRUE(next.status().IsTimeout()) << next.status().ToString();
  (*cursor)->Close();
  session.scan_options().deadline = 0;

  release.set_value();
  pool->Wait(&ticket);
  EXPECT_EQ(pool->free_workers(), pool->size());
}

// Page images under concurrent writes: four sessions scan one partition
// while a writer inserts and deletes in it, so images are built, read,
// dropped and rebuilt at once (scripts/verify.sh runs this under TSan).
// Every row a scan returns must be one the writer stored whole — its user
// names its score — and after the writer stops, every answer is the
// oracle's.
TEST_F(ParallelScanTest, PageImagesStayExactUnderConcurrentWrites) {
  BuildDb(1, 0);
  auto schema = Schema::Make({ColumnDef::Stable("user", ValueType::kString),
                              ColumnDef::Stable("score", ValueType::kInt64)});
  ASSERT_TRUE(schema.ok());
  ASSERT_TRUE(db_->CreateTable("scores", *schema).ok());
  Table* table = db_->GetTable("scores");
  std::vector<RowId> live;
  auto insert = [&](int from, int to) {
    WriteBatch batch;
    for (int i = from; i < to; ++i) {
      batch.Insert("scores", {Value::String("u" + std::to_string(i) +
                                            std::string(i % 13, '.')),
                              Value::Int64(i)});
    }
    ASSERT_TRUE(db_->Write(&batch).ok());
    live.insert(live.end(), batch.row_ids().begin(), batch.row_ids().end());
  };
  insert(0, 1500);

  const std::vector<std::string> kQueries = {
      "SELECT user, score FROM scores WHERE score >= 0",
      "SELECT score, user FROM scores WHERE user LIKE 'u1%'",
      "SELECT user, score FROM scores"};
  auto check_rows = [](const QueryResult& result, const std::string& sql) {
    for (const auto& row : result.rows) {
      const Value& user = row[sql.find("SELECT score") == 0 ? 1 : 0];
      const Value& score = row[sql.find("SELECT score") == 0 ? 0 : 1];
      const std::string expected = "u" + std::to_string(score.int64());
      ASSERT_EQ(user.str().substr(0, user.str().find('.')), expected) << sql;
    }
  };
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> statements{0};
  std::atomic<int> readers_done{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      Session session(db_.get());
      session.scan_options().parallelism = 1;
      for (size_t i = r; !stop.load(std::memory_order_acquire); ++i) {
        const std::string& sql = kQueries[i % kQueries.size()];
        auto result = session.Execute(sql);
        EXPECT_TRUE(result.ok()) << sql << " -> "
                                 << result.status().ToString();
        if (!result.ok()) break;
        check_rows(*result, sql);
        statements.fetch_add(1, std::memory_order_relaxed);
      }
      readers_done.fetch_add(1);
    });
  }
  // Each round waits for two more statements, so scans overlap writes.
  auto await_statements = [&](uint64_t count) {
    const uint64_t target = statements.load() + count;
    while (statements.load() < target && readers_done.load() == 0) {
      std::this_thread::yield();
    }
  };
  Random rng(7);
  int next = 1500;
  for (int round = 0; round < 20; ++round) {
    await_statements(2);
    insert(next, next + 25);
    next += 25;
    auto txn = db_->Begin();
    for (int k = 0; k < 20; ++k) {
      const size_t at = rng.Uniform(live.size());
      ASSERT_TRUE(table->Delete(txn.get(), live[at]).ok());
      live[at] = live.back();
      live.pop_back();
    }
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }
  // The readers see the final table a few times before they stop.
  await_statements(12);
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  EXPECT_GT(db_->stats().scan.page_images_built, 0u);

  Session session(db_.get());
  for (const std::string& sql : kQueries) {
    const oracle::Answer reference = Oracle(&session, sql);
    auto result = session.Execute(sql);
    ASSERT_TRUE(result.ok()) << sql;
    EXPECT_EQ(oracle::ByFirstColumn(*result), oracle::ByFirstColumn(reference))
        << sql;
    if (sql.find("LIKE") == std::string::npos) {
      EXPECT_EQ(result->rows.size(), live.size()) << sql;
    }
  }
}

/// The statements of the elastic fan-out cases and their oracle answers,
/// all at CITY accuracy (every row computable).
struct SharedMix {
  static constexpr const char* kPurpose =
      "DECLARE PURPOSE GEO SET ACCURACY LEVEL CITY FOR pings.location";
  static constexpr const char* kRows = "SELECT user, location FROM pings";
  static constexpr const char* kGroups =
      "SELECT location, COUNT(*) FROM pings GROUP BY location";
  oracle::Answer rows;
  oracle::Answer groups;
};

/// Every row `cursor` streams, sorted.
std::vector<std::vector<Value>> SortedValues(Cursor* cursor) {
  std::vector<std::vector<Value>> values;
  const CursorBatch* batch = nullptr;
  while (true) {
    auto more = cursor->NextBatch(&batch);
    EXPECT_TRUE(more.ok()) << more.status().ToString();
    if (!more.ok() || !*more) break;
    for (size_t i = 0; i < batch->size(); ++i) {
      values.push_back(batch->values(i));
    }
  }
  std::sort(values.begin(), values.end());
  return values;
}

std::vector<std::vector<Value>> Sorted(std::vector<std::vector<Value>> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

// Rows are insert-only, so a heap record never moves: a statement observes
// a row at most once. Fanned-out scans (one morsel per page) and cursor
// drains run while the writer deletes rows and inserts new ones, which
// first fit places in the freed holes, behind the scans' positions or
// ahead of them. Each statement must return every row at most once, each
// row whole (its user names its n), and after the writer stops the
// oracle's row set.
TEST_F(ParallelScanTest, ChurnNeverServesARowTwice) {
  BuildDb(4, 0);
  auto schema = Schema::Make({ColumnDef::Stable("user", ValueType::kString),
                              ColumnDef::Stable("n", ValueType::kInt64)});
  ASSERT_TRUE(schema.ok());
  ASSERT_TRUE(db_->CreateTable("churn", *schema).ok());
  Table* table = db_->GetTable("churn");
  std::vector<RowId> live;
  int next = 0;
  // 25 rows per batch: batches rotate over the partitions.
  auto insert = [&](int rows) {
    for (int done = 0; done < rows; done += 25) {
      WriteBatch batch;
      for (int i = 0; i < std::min(25, rows - done); ++i, ++next) {
        batch.Insert("churn", {Value::String("u" + std::to_string(next) +
                                             std::string(next % 17, '.')),
                               Value::Int64(next)});
      }
      ASSERT_TRUE(db_->Write(&batch).ok());
      live.insert(live.end(), batch.row_ids().begin(), batch.row_ids().end());
    }
  };
  insert(2000);

  const std::string sql = "SELECT n, user FROM churn";
  // Every row of one statement; false on a duplicate or a torn row.
  auto distinct = [](const std::vector<std::vector<Value>>& rows) {
    std::set<int64_t> seen;
    for (const std::vector<Value>& row : rows) {
      const std::string& user = row[1].str();
      EXPECT_EQ(user.substr(0, user.find('.')),
                "u" + std::to_string(row[0].int64()));
      if (!seen.insert(row[0].int64()).second) return false;
    }
    return true;
  };
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> statements{0};
  std::atomic<int> readers_done{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      Session session(db_.get());
      session.scan_options().parallelism = 4;
      session.scan_options().morsel_pages = 1;
      while (!stop.load(std::memory_order_acquire)) {
        std::vector<std::vector<Value>> rows;
        if (r == 0) {
          auto result = session.Execute(sql);
          EXPECT_TRUE(result.ok()) << result.status().ToString();
          if (!result.ok()) break;
          rows = std::move(result->rows);
        } else {
          auto cursor = session.ExecuteCursor(sql);
          EXPECT_TRUE(cursor.ok()) << cursor.status().ToString();
          if (!cursor.ok()) break;
          rows = SortedValues(cursor->get());
        }
        EXPECT_TRUE(distinct(rows)) << "a row served twice";
        statements.fetch_add(1, std::memory_order_relaxed);
      }
      readers_done.fetch_add(1);
    });
  }
  auto await_statements = [&](uint64_t count) {
    const uint64_t target = statements.load() + count;
    while (statements.load() < target && readers_done.load() == 0) {
      std::this_thread::yield();
    }
  };
  Random rng(11);
  for (int round = 0; round < 30; ++round) {
    await_statements(1);
    auto txn = db_->Begin();
    for (int k = 0; k < 25; ++k) {
      const size_t at = rng.Uniform(live.size());
      ASSERT_TRUE(table->Delete(txn.get(), live[at]).ok());
      live[at] = live.back();
      live.pop_back();
    }
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
    insert(25);
  }
  await_statements(4);
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(readers_done.load(), 2);

  Session session(db_.get());
  const oracle::Answer reference = Oracle(&session, sql);
  EXPECT_EQ(reference.rows.size(), live.size());
  for (size_t parallelism : {1u, 4u}) {
    session.scan_options().parallelism = parallelism;
    auto result = session.Execute(sql);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(oracle::ByFirstColumn(*result),
              oracle::ByFirstColumn(reference));
  }
}

/// Runs statement `kind` (0 materialized, 1 cursor, 2 aggregate) of `mix`
/// on a fresh session at parallelism 4 and checks it against the oracle.
void RunMixStatement(Database* db, const SharedMix& mix, int kind) {
  Session session(db);
  ASSERT_TRUE(session.Execute(SharedMix::kPurpose).ok());
  session.scan_options().parallelism = 4;
  session.scan_options().morsel_pages = 1;
  switch (kind) {
    case 0: {
      auto result = session.Execute(SharedMix::kRows);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->rows, mix.rows.rows);
      break;
    }
    case 1: {
      auto cursor = session.ExecuteCursor(SharedMix::kRows);
      ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
      EXPECT_EQ(SortedValues(cursor->get()), Sorted(mix.rows.rows));
      break;
    }
    default: {
      auto result = session.Execute(SharedMix::kGroups);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->rows, mix.groups.rows);
      break;
    }
  }
}

class ElasticFanoutTest : public ParallelScanTest {
 protected:
  static constexpr int kRows = 8000;

  void SetUp() override {
    ParallelScanTest::SetUp();
    BuildDb(4, kRows);
    Session session(db_.get());
    ASSERT_TRUE(session.Execute(SharedMix::kPurpose).ok());
    mix_.rows = Oracle(&session, SharedMix::kRows);
    mix_.groups = Oracle(&session, SharedMix::kGroups);
    ASSERT_EQ(mix_.rows.rows.size(), static_cast<size_t>(kRows));
    for (const auto& queue : db_->GetTable("pings")->MorselPlan(1)) {
      morsels_ += queue.size();
    }
  }

  SharedMix mix_;
  /// Morsels of one full scan at one page per morsel.
  uint64_t morsels_ = 0;
};

/// Eight sessions at parallelism 4 share a pool of four: every statement
/// lends only the cores no statement holds and lent readers yield as others
/// arrive, yet every materialized, streamed and aggregated answer is exact,
/// every morsel is claimed exactly once per scan, and every token comes
/// back.
TEST_F(ElasticFanoutTest, ConcurrentSessionsShareThePoolExactly) {
  constexpr int kClients = 8;
  constexpr int kRounds = 6;
  const Database::Stats before = db_->stats();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([this, c] {
      for (int round = 0; round < kRounds; ++round) {
        RunMixStatement(db_.get(), mix_, (c + round) % 3);
      }
    });
  }
  for (std::thread& client : clients) client.join();

  const Database::Stats after = db_->stats();
  constexpr uint64_t kScans = kClients * kRounds;
  EXPECT_EQ(after.scan.rows - before.scan.rows, kScans * kRows);
  EXPECT_EQ(after.scan.morsels_claimed - before.scan.morsels_claimed,
            kScans * morsels_);
  EXPECT_LE(after.scan.readers_yielded - before.scan.readers_yielded,
            after.scan.readers_lent - before.scan.readers_lent);
  WorkerPool* pool = db_->worker_pool();
  EXPECT_EQ(pool->statements_in_flight(), 0u);
  EXPECT_EQ(pool->free_workers(), pool->size());
}

/// Once statements outnumber the free cores, every lent reader stops at its
/// next morsel claim; the consumer's own reader never yields and reads every
/// morsel left, so the streamed answer is still exact.
TEST_F(ElasticFanoutTest, EveryLentReaderYieldsAndNoRowIsLost) {
  Session session(db_.get());
  ASSERT_TRUE(session.Execute(SharedMix::kPurpose).ok());
  session.scan_options().parallelism = 4;
  session.scan_options().morsel_pages = 1;
  session.scan_options().prefetch_batches = 1;
  WorkerPool* pool = db_->worker_pool();

  const Database::Stats before = db_->stats();
  auto cursor = session.ExecuteCursor(SharedMix::kRows);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  const uint64_t lent = db_->stats().scan.readers_lent - before.scan.readers_lent;
  // The cursor holds one core: the pool lends the other three.
  ASSERT_EQ(lent, pool->size() - 1);
  // Every producer holds a claimed morsel before the pool fills up. With a
  // one-batch queue and no pull yet, none can reach the end of the plan.
  while (db_->stats().scan.morsels_claimed - before.scan.morsels_claimed <
         lent) {
    std::this_thread::yield();
  }
  std::vector<WorkerPool::InFlight> arrivals;
  for (size_t i = 0; i < pool->size(); ++i) arrivals.emplace_back(pool);

  EXPECT_EQ(SortedValues(cursor->get()), Sorted(mix_.rows.rows));

  const Database::Stats after = db_->stats();
  EXPECT_EQ(after.scan.readers_yielded - before.scan.readers_yielded, lent);
  EXPECT_EQ(after.scan.morsels_claimed - before.scan.morsels_claimed,
            morsels_);
  (*cursor)->Close();
  arrivals.clear();
  EXPECT_EQ(pool->statements_in_flight(), 0u);
  EXPECT_EQ(pool->free_workers(), pool->size());
}

/// A statement may itself run on a pool worker. With every token taken by
/// such tasks the pool is oversubscribed (four statements on four busy
/// workers): each statement's caller reader — not lent, so it never
/// yields — drains its scan alone and answers exactly.
TEST_F(ElasticFanoutTest, StatementsOnPoolWorkersDrainAloneWhenThePoolIsFull) {
  WorkerPool* pool = db_->worker_pool();
  const Database::Stats before = db_->stats();
  WorkerPool::Ticket ticket;
  const size_t taken = pool->TryDispatch(
      pool->size(),
      [this](size_t slot) {
        RunMixStatement(db_.get(), mix_, static_cast<int>(slot % 3));
      },
      &ticket);
  ASSERT_EQ(taken, pool->size());
  pool->Wait(&ticket);

  const Database::Stats after = db_->stats();
  EXPECT_EQ(after.scan.readers_lent, before.scan.readers_lent);
  EXPECT_EQ(after.scan.rows - before.scan.rows, taken * kRows);
  EXPECT_EQ(pool->statements_in_flight(), 0u);
  EXPECT_EQ(pool->free_workers(), pool->size());
}

}  // namespace
}  // namespace instantdb
