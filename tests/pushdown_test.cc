// Pushdown execution: stable predicates evaluated inside the scan, σ and f_k
// on stored leaf ordinals, and aggregates folded worker-side must return
// exactly what the test oracle (scan_oracle.h: stored rows read with
// per-row store probes, σ and f_k on the stored Values) returns — across
// predicate shapes, heap scans and index probes, tree and interval
// domains, include_coarser, scan parallelism, partition counts and WAL
// privacy modes — while the scan counters prove the store probes and
// decodes were actually skipped. Also covers the batched store merge (the
// scan's per-survivor (phase, ordinal) vs a per-row StateStore::Find, with
// rows out of row-id order after new rows refill deleted ones' holes), the
// row-id cursor of index probes skipping deleted ids, the rule that
// no degradable value finer than the purpose's accuracy leaves the scan, the
// late stable decode (Values built only for survivors' projected columns),
// randomized stable predicates against the oracle, a corrupt heap record
// failing every scan shape with Corruption, the adaptive checkpoint
// cadence, and the earliest-deadline-first pass order with audit-then-
// repair. Runs under TSan/ASan in
// scripts/verify.sh: the aggregate fan-out and the degrade-while-aggregating
// test are real cross-thread paths.

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <limits>
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
#include "io/fault_env.h"
#include "query/cursor.h"
#include "query/parser.h"
#include "query/plan.h"
#include "query/session.h"
#include "scan_oracle.h"
#include "storage/page_image.h"
#include "util/file.h"

namespace instantdb {
namespace {

/// BuildDb gives the row with score i the address kAddresses[i % 5].
const char* const kAddresses[] = {"11 Rue Lepic", "3 Av Foch",
                                  "12 Rue Royale", "4 Rue Breteuil",
                                  "8 Cours Mirabeau"};

class PushdownTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/idb_pushdown_test";
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
  }
  void TearDown() override {
    db_.reset();
    RemoveDirRecursive(dir_).ok();
  }

  /// Fresh database: `rows` pings with a unique stable score (0..rows-1, so
  /// "score < K" selects exactly K rows), a mix of phase-0 and phase-1
  /// locations, spread over `partitions` partitions.
  void BuildDb(uint32_t partitions, int rows,
               WalPrivacyMode privacy = WalPrivacyMode::kScrub) {
    db_.reset();
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
    clock_ = std::make_unique<VirtualClock>(0);
    DbOptions options;
    options.path = dir_;
    options.clock = clock_.get();
    options.partitions = partitions;
    options.degradation.worker_threads = partitions;
    options.wal.privacy_mode = privacy;
    if (pool_pages_ > 0) options.storage.buffer_pool_pages = pool_pages_;
    if (fault_ != nullptr) options.env = fault_.get();
    auto opened = Database::Open(options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    db_ = std::move(*opened);
    options_ = options;

    auto schema = Schema::Make(
        {ColumnDef::Stable("user", ValueType::kString),
         ColumnDef::Stable("score", ValueType::kInt64),
         ColumnDef::Degradable("location", LocationDomain(),
                               Fig2LocationLcp())});
    ASSERT_TRUE(schema.ok());
    ASSERT_TRUE(db_->CreateTable("pings", *schema).ok());

    auto insert_range = [&](int from, int to) {
      for (int start = from; start < to; start += 25) {
        WriteBatch batch;
        for (int i = start; i < std::min(start + 25, to); ++i) {
          batch.Insert("pings", {Value::String("u" + std::to_string(i)),
                                 Value::Int64(i),
                                 Value::String(kAddresses[i % 5])});
        }
        ASSERT_TRUE(db_->Write(&batch).ok());
      }
    };
    insert_range(0, rows / 2);
    // First half degrades address -> city; second half stays accurate.
    clock_->Advance(kMicrosPerHour + kMicrosPerMinute);
    ASSERT_TRUE(db_->RunDegradationOnce().ok());
    insert_range(rows / 2, rows);
  }

  /// Deletes every `every`-th row (in row-id order), then inserts as many
  /// rows with the deleted rows' users and scores, 25 to a transaction so
  /// the batches rotate over the partitions. First fit places the new rows,
  /// whose ids are above every old one, in the holes the deletes freed,
  /// ahead of rows with lower ids. Asserts that some partition's heap is
  /// then out of ascending row-id order.
  void DeleteAndRefillEvery(size_t every) {
    Table* table = db_->GetTable("pings");
    auto stored = oracle::StoredRows(*table);
    ASSERT_TRUE(stored.ok());
    std::sort(stored->begin(), stored->end(),
              [](const oracle::Stored& a, const oracle::Stored& b) {
                return a.row_id < b.row_id;
              });
    auto txn = db_->Begin();
    for (size_t i = 0; i < stored->size(); i += every) {
      ASSERT_TRUE(table->Delete(txn.get(), (*stored)[i].row_id).ok());
    }
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
    const size_t per_batch = 25 * every;
    for (size_t start = 0; start < stored->size(); start += per_batch) {
      WriteBatch batch;
      const size_t end = std::min(start + per_batch, stored->size());
      for (size_t i = start; i < end; i += every) {
        const oracle::Stored& row = (*stored)[i];
        const int64_t score = row.values[1].int64();
        batch.Insert("pings", {row.values[0], row.values[1],
                               Value::String(kAddresses[score % 5])});
      }
      ASSERT_TRUE(db_->Write(&batch).ok());
    }
    auto heap = oracle::StoredRows(*table);  // (partition, heap) order
    ASSERT_TRUE(heap.ok());
    bool descends = false;
    for (size_t i = 1; i < heap->size(); ++i) {
      const RowId prev = (*heap)[i - 1].row_id;
      const RowId id = (*heap)[i].row_id;
      descends |=
          id < prev && table->PartitionOf(id) == table->PartitionOf(prev);
    }
    ASSERT_TRUE(descends) << "the refilled holes should put newer rows first";
  }

  /// The oracle's answer for `sql`.
  oracle::Answer Oracle(Session* session, const std::string& sql) {
    auto result = oracle::Execute(session, sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    return result.ok() ? *result : oracle::Answer{};
  }

  /// Streaming drain keyed by user (parallel scans interleave partitions).
  std::map<std::string, std::vector<std::string>> DrainCursor(
      Session* session, const std::string& sql, size_t parallelism) {
    session->scan_options().parallelism = parallelism;
    std::map<std::string, std::vector<std::string>> rows;
    auto cursor = session->ExecuteCursor(sql);
    EXPECT_TRUE(cursor.ok()) << sql << " -> " << cursor.status().ToString();
    if (!cursor.ok()) return rows;
    CursorRow row;
    while (true) {
      auto more = (*cursor)->Next(&row);
      EXPECT_TRUE(more.ok()) << more.status().ToString();
      if (!more.ok() || !*more) break;
      const auto [it, inserted] = rows.emplace(row.display()[0], row.display());
      EXPECT_TRUE(inserted) << "duplicate row for " << row.display()[0];
    }
    return rows;
  }

  std::string dir_;
  std::unique_ptr<VirtualClock> clock_;
  std::unique_ptr<FaultInjectionEnv> fault_;  // outlives db_
  /// BuildDb's heap buffer pools hold this many pages (0: the default).
  size_t pool_pages_ = 0;
  DbOptions options_;  // BuildDb's
  std::unique_ptr<Database> db_;
};

TEST_F(PushdownTest, EquivalenceAcrossPredicatesParallelismAndPrivacyModes) {
  constexpr int kRows = 600;
  // {statement, whether an index probe serves it when indexes are on}.
  const std::vector<std::pair<std::string, bool>> kQueries = {
      // No predicate, stable + degradable projection.
      {"SELECT user, location FROM pings", false},
      // Stable-only conjunction (the vector kernels do all the work).
      {"SELECT user, score FROM pings WHERE score < 60 AND score >= 6",
       false},
      // Degradable-only predicate (nothing to push; stores still probed).
      {"SELECT user, location FROM pings WHERE location = 'Paris'", true},
      // Mixed: the stable term runs below the heap fetch — inside the scan
      // batch or, on an index probe, inside the row-id batch — and the
      // degradable term above it.
      {"SELECT user, location FROM pings WHERE score < 300 AND "
       "location = 'Paris'",
       true},
      {"SELECT user, score, location FROM pings WHERE location LIKE "
       "'%Provence%' AND score >= 150",
       true},
      // Stable-only projection + predicate: no store probe at all.
      {"SELECT user FROM pings WHERE score < 6", false},
  };
  // Every WAL privacy mode, and 1, 4 and 8 partitions.
  const std::vector<std::pair<WalPrivacyMode, uint32_t>> kDatabases = {
      {WalPrivacyMode::kPlain, 1},
      {WalPrivacyMode::kScrub, 4},
      {WalPrivacyMode::kCryptoErase, 8}};
  for (const auto& [privacy, partitions] : kDatabases) {
    BuildDb(partitions, kRows, privacy);
    // Heap order no longer follows row id, on either read path.
    DeleteAndRefillEvery(7);
    Session session(db_.get());
    // CITY accuracy makes every row computable regardless of phase.
    ASSERT_TRUE(session
                    .Execute("DECLARE PURPOSE GEO SET ACCURACY LEVEL CITY "
                             "FOR pings.location")
                    .ok());
    for (const auto& [sql, indexed] : kQueries) {
      const oracle::Answer reference = Oracle(&session, sql);
      const auto baseline = oracle::ByFirstColumn(reference);
      ASSERT_FALSE(baseline.empty()) << sql;
      for (size_t parallelism : {1u, 4u, 8u}) {
        EXPECT_EQ(DrainCursor(&session, sql, parallelism), baseline)
            << sql << " parallelism=" << parallelism;
      }
      // Materialized path agrees too (index probes serve (partition, row
      // id) order). An index probe examines only the rows it fetched.
      session.scan_options().parallelism = 0;
      const Database::Stats before = db_->stats();
      auto materialized = session.Execute(sql);
      ASSERT_TRUE(materialized.ok()) << sql;
      const uint64_t examined = db_->stats().scan.rows - before.scan.rows;
      EXPECT_EQ(examined < static_cast<uint64_t>(kRows), indexed) << sql;
      EXPECT_EQ(materialized->rows.size(), reference.rows.size()) << sql;
      EXPECT_EQ(oracle::ByFirstColumn(*materialized), baseline) << sql;
      // Heap path forced even where an index probe would win; the
      // materialized heap scan merges in the oracle's (partition, heap)
      // order.
      session.set_use_indexes(false);
      EXPECT_EQ(DrainCursor(&session, sql, 4), baseline)
          << sql << " (indexes off)";
      materialized = session.Execute(sql);
      ASSERT_TRUE(materialized.ok()) << sql;
      EXPECT_EQ(materialized->rows, reference.rows) << sql << " (indexes off)";
      EXPECT_EQ(oracle::Display(*materialized), reference.display)
          << sql << " (indexes off)";
      session.set_use_indexes(true);
    }
  }
}

TEST_F(PushdownTest, StablePrefilterSkipsStoreProbesAndCountsThem) {
  constexpr int kRows = 600;
  BuildDb(4, kRows);
  Session session(db_.get());
  session.scan_options().parallelism = 1;

  // Stable-only projection + predicate: the scan never resolves a single
  // degradable value — every (row, column) probe is provably skipped.
  const Database::Stats s0 = db_->stats();
  EXPECT_EQ(
      DrainCursor(&session, "SELECT user FROM pings WHERE score < 6", 1).size(),
      6u);
  const Database::Stats s1 = db_->stats();
  EXPECT_EQ(s1.scan.rows - s0.scan.rows, static_cast<uint64_t>(kRows));
  EXPECT_EQ(s1.scan.rows_prefiltered - s0.scan.rows_prefiltered,
            static_cast<uint64_t>(kRows - 6));
  EXPECT_EQ(s1.scan.store_probes_issued, s0.scan.store_probes_issued);
  EXPECT_EQ(s1.scan.store_probes_skipped - s0.scan.store_probes_skipped,
            static_cast<uint64_t>(kRows));  // 1 degradable column

  // Same predicate with the degradable column projected: survivors (and
  // only survivors) are probed.
  ASSERT_TRUE(session
                  .Execute("DECLARE PURPOSE GEO SET ACCURACY LEVEL CITY "
                           "FOR pings.location")
                  .ok());
  EXPECT_EQ(DrainCursor(&session,
                        "SELECT user, location FROM pings WHERE score < 6", 1)
                .size(),
            6u);
  const Database::Stats s2 = db_->stats();
  EXPECT_EQ(s2.scan.rows - s1.scan.rows, static_cast<uint64_t>(kRows));
  EXPECT_EQ(s2.scan.store_probes_issued - s1.scan.store_probes_issued, 6u);
  EXPECT_EQ(s2.scan.store_probes_skipped - s1.scan.store_probes_skipped,
            static_cast<uint64_t>(kRows - 6));
}

TEST_F(PushdownTest, ProbeAccountingInvariantHoldsAcrossScanShapes) {
  constexpr int kRows = 480;
  BuildDb(4, kRows);
  Session session(db_.get());
  session.set_use_indexes(false);  // every shape scans all kRows
  ASSERT_TRUE(session
                  .Execute("DECLARE PURPOSE GEO SET ACCURACY LEVEL CITY "
                           "FOR pings.location")
                  .ok());
  const std::vector<std::pair<std::string, size_t>> kShapes = {
      {"SELECT user, location FROM pings", 1},
      {"SELECT user, location FROM pings WHERE score < 100", 4},
      {"SELECT user, location FROM pings WHERE location = 'Paris'", 4},
      {"SELECT user FROM pings WHERE score >= 240", 8},
  };
  for (const auto& [sql, parallelism] : kShapes) {
    const Database::Stats before = db_->stats();
    DrainCursor(&session, sql, parallelism);
    const Database::Stats after = db_->stats();
    const uint64_t rows = after.scan.rows - before.scan.rows;
    const uint64_t issued =
        after.scan.store_probes_issued - before.scan.store_probes_issued;
    const uint64_t skipped =
        after.scan.store_probes_skipped - before.scan.store_probes_skipped;
    EXPECT_EQ(rows, static_cast<uint64_t>(kRows)) << sql;
    // Per scanned row and degradable column (1 here), a probe is either
    // issued or provably skipped — never lost, never duplicated.
    EXPECT_EQ(issued + skipped, rows) << sql;
  }
  // Aggregate pushdown honors the same ledger.
  const Database::Stats before = db_->stats();
  auto agg = session.Execute("SELECT COUNT(*) FROM pings WHERE score < 100");
  ASSERT_TRUE(agg.ok());
  const Database::Stats after = db_->stats();
  EXPECT_EQ((after.scan.store_probes_issued - before.scan.store_probes_issued) +
                (after.scan.store_probes_skipped -
                 before.scan.store_probes_skipped),
            after.scan.rows - before.scan.rows);
}

TEST_F(PushdownTest, HotQueryShapesAgreeAndNeverExposeFinerValues) {
  constexpr int kRows = 600;
  BuildDb(4, kRows);
  Session session(db_.get());
  ASSERT_TRUE(session
                  .Execute("DECLARE PURPOSE GEO SET ACCURACY LEVEL CITY "
                           "FOR pings.location")
                  .ok());
  const auto domain = LocationDomain();
  // True for a finer-than-CITY (ADDRESS) label of the location domain.
  auto is_address = [&](const Value& v) {
    return v.type() == ValueType::kString &&
           domain->ValidateAtLevel(v, 0).ok();
  };

  // The five statement shapes of the hot read mix; `indexes` is whether
  // the shape runs with index probes allowed, `projected` whether location
  // leaves the scan.
  struct Shape {
    std::string sql;
    bool indexes;
    bool projected;
  };
  const std::vector<Shape> kShapes = {
      {"SELECT user, location FROM pings WHERE score = 42", true, true},
      {"SELECT user FROM pings WHERE location = 'Paris'", true, false},
      {"SELECT COUNT(*) FROM pings", true, false},
      {"SELECT COUNT(*), SUM(score) FROM pings WHERE location = 'Paris'",
       false, false},
      {"SELECT user, location FROM pings WHERE score BETWEEN 100 AND 159",
       true, true},
      // The same predicate-only column through an unindexed scan and a
      // label LIKE.
      {"SELECT user FROM pings WHERE location = 'Paris'", false, false},
      {"SELECT user, score FROM pings WHERE location LIKE '%France%'", false,
       false},
      // Projected and tested: generalized only after σ passes.
      {"SELECT user, location FROM pings WHERE location = 'Paris'", false,
       true},
      // A stable term pushed below the index probe's fetch.
      {"SELECT user, location FROM pings WHERE location = 'Paris' AND "
       "score < 300",
       true, true},
  };
  for (const Shape& shape : kShapes) {
    session.set_use_indexes(shape.indexes);
    const oracle::Answer reference = Oracle(&session, shape.sql);
    ASSERT_FALSE(reference.rows.empty()) << shape.sql;
    auto sorted = [](std::vector<std::vector<std::string>> rows) {
      std::sort(rows.begin(), rows.end());
      return rows;
    };
    for (size_t parallelism : {1u, 4u}) {
      session.scan_options().parallelism = parallelism;
      const std::string where = shape.sql + " parallelism=" +
                                std::to_string(parallelism);
      auto result = session.Execute(shape.sql);
      ASSERT_TRUE(result.ok()) << where;
      EXPECT_EQ(result->rows.size(), reference.rows.size()) << where;
      EXPECT_EQ(sorted(oracle::Display(*result)), sorted(reference.display))
          << where;

      // Streaming cursor: every value of every batch is at CITY or
      // coarser.
      auto cursor = session.ExecuteCursor(shape.sql);
      ASSERT_TRUE(cursor.ok()) << where;
      std::vector<std::vector<std::string>> streamed;
      const CursorBatch* batch = nullptr;
      while (true) {
        auto more = (*cursor)->NextBatch(&batch);
        ASSERT_TRUE(more.ok()) << where;
        if (!*more) break;
        for (size_t i = 0; i < batch->size(); ++i) {
          for (const Value& v : batch->values(i)) {
            EXPECT_FALSE(is_address(v)) << where << ": " << v.ToString();
          }
          streamed.push_back(batch->display(i));
        }
      }
      EXPECT_EQ(sorted(streamed), sorted(reference.display)) << where;

      // Below the cursor: location leaves the scan only when projected,
      // and no projected batch carries an ADDRESS value.
      auto statement = ParseStatement(shape.sql);
      ASSERT_TRUE(statement.ok()) << where;
      auto plan =
          plan::BindSelect(&session, std::get<SelectAst>(*statement));
      ASSERT_TRUE(plan.ok()) << where;
      EXPECT_EQ(std::any_of(plan->sources.begin(), plan->sources.end(),
                            [](const plan::CellSource& src) {
                              return src.degradable == 0;
                            }),
                shape.projected)
          << where;
      if (plan->has_aggregate) continue;
      for (const size_t batch_rows :
           {plan::kStreamingScanBatchRows, size_t{SIZE_MAX}}) {
        auto source = plan::MakeRowSource(&session, *plan, batch_rows);
        ASSERT_TRUE(source.ok()) << where;
        ProjectedRows rows;
        while (true) {
          auto more = (*source)->NextBatch(&rows);
          ASSERT_TRUE(more.ok()) << where;
          if (!*more) break;
          for (size_t r = 0; r < rows.size; ++r) {
            for (const Value& v : rows.values[r]) {
              EXPECT_FALSE(is_address(v)) << where << ": " << v.ToString();
            }
          }
        }
      }
    }
  }
}

TEST_F(PushdownTest, ScansDecodeOnlyTheStableColumnsTheyRead) {
  constexpr int kRows = 600;
  BuildDb(4, kRows);
  Session session(db_.get());
  session.set_use_indexes(false);
  ASSERT_TRUE(session
                  .Execute("DECLARE PURPOSE GEO SET ACCURACY LEVEL CITY "
                           "FOR pings.location")
                  .ok());
  // {statement, stable values decoded per scanned row, per stable-filter
  // survivor, stable-filter survivors, Values built per survivor} over the
  // two stable columns (user, score): the filter's columns are decoded for
  // every row, the projected-only ones for survivors only, and a survivor
  // gets a Value for each projected stable column and no other.
  struct Shape {
    std::string sql;
    uint64_t per_row;
    uint64_t per_survivor;
    uint64_t survivors;
    uint64_t built_per_survivor;
  };
  const std::vector<Shape> kShapes = {
      {"SELECT COUNT(*) FROM pings", 0, 0, kRows, 0},
      {"SELECT COUNT(*), SUM(score) FROM pings WHERE location = 'Paris'", 1,
       0, kRows, 1},
      {"SELECT COUNT(location) FROM pings", 0, 0, kRows, 0},
      {"SELECT user FROM pings WHERE location = 'Paris'", 1, 0, kRows, 1},
      {"SELECT user FROM pings WHERE score < 60", 1, 1, 60, 1},
      {"SELECT COUNT(*) FROM pings WHERE score < 60", 1, 0, 60, 0},
      {"SELECT user, score FROM pings WHERE score < 60", 1, 1, 60, 2},
      {"SELECT * FROM pings", 2, 0, kRows, 2},
  };
  for (const Shape& shape : kShapes) {
    for (size_t parallelism : {1u, 4u}) {
      session.scan_options().parallelism = parallelism;
      const Database::Stats before = db_->stats();
      ASSERT_TRUE(session.Execute(shape.sql).ok()) << shape.sql;
      DrainCursor(&session, shape.sql, parallelism);
      const Database::Stats after = db_->stats();
      const uint64_t rows = after.scan.rows - before.scan.rows;
      EXPECT_EQ(rows, 2u * kRows)
          << shape.sql << " parallelism=" << parallelism;
      EXPECT_EQ(after.scan.values_decoded - before.scan.values_decoded,
                shape.per_row * rows +
                    shape.per_survivor * 2 * shape.survivors)
          << shape.sql << " parallelism=" << parallelism;
      EXPECT_EQ(after.scan.values_built - before.scan.values_built,
                shape.built_per_survivor * 2 * shape.survivors)
          << shape.sql << " parallelism=" << parallelism;
    }
  }
}

TEST_F(PushdownTest, AggregatePushdownMatchesCursorAggregation) {
  constexpr int kRows = 960;
  BuildDb(8, kRows);
  Session session(db_.get());
  ASSERT_TRUE(session
                  .Execute("DECLARE PURPOSE GEO SET ACCURACY LEVEL CITY "
                           "FOR pings.location")
                  .ok());
  const std::vector<std::string> kAggregates = {
      "SELECT COUNT(*) FROM pings",
      "SELECT COUNT(*), MIN(score), MAX(score), SUM(score) FROM pings",
      "SELECT COUNT(*), SUM(score) FROM pings WHERE score < 96",
      "SELECT COUNT(location), COUNT(*) FROM pings WHERE score >= 480",
      // Degradable predicate: falls back to the row source when an index
      // probe is usable, pushes down when not — identical either way.
      "SELECT COUNT(*) FROM pings WHERE location = 'Paris'",
      // Empty result: pushdown must also yield zero output rows.
      "SELECT COUNT(*), MIN(score) FROM pings WHERE score < 0",
      // Grouped: the executor's row-at-a-time fold over a materialized scan.
      "SELECT location, COUNT(*), SUM(score) FROM pings GROUP BY location",
  };
  for (const std::string& sql : kAggregates) {
    const oracle::Answer reference = Oracle(&session, sql);
    for (size_t parallelism : {1u, 8u}) {
      session.scan_options().parallelism = parallelism;
      auto pushed = session.Execute(sql);
      ASSERT_TRUE(pushed.ok()) << sql;
      EXPECT_EQ(pushed->rows, reference.rows)
          << sql << " parallelism=" << parallelism;
      EXPECT_EQ(oracle::Display(*pushed), reference.display)
          << sql << " parallelism=" << parallelism;
    }
  }
  // The pushed runs above merged per-worker partials; the index-path and
  // grouped runs merged none.
  EXPECT_GT(db_->stats().scan.aggregate_partials_merged, 0u);
}

TEST_F(PushdownTest, AggregateMergeStaysExactUnderConcurrentDegradation) {
  constexpr int kRows = 800;
  BuildDb(8, kRows);
  Session session(db_.get());
  session.scan_options().parallelism = 8;

  // COUNT(*) over a stable predicate is invariant under degradation (this
  // LCP keeps city forever, so tuples never disappear): every merge of
  // per-partition partials racing a live degrader must still be exact.
  std::thread degrader([&] {
    for (int i = 0; i < 20; ++i) {
      clock_->Advance(10 * kMicrosPerMinute);
      ASSERT_TRUE(db_->RunDegradationOnce().ok());
    }
  });
  for (int i = 0; i < 30; ++i) {
    auto count = session.Execute("SELECT COUNT(*) FROM pings WHERE score >= 0");
    ASSERT_TRUE(count.ok());
    ASSERT_EQ(count->rows.size(), 1u);
    EXPECT_EQ(count->display(0)[0], std::to_string(kRows));
  }
  degrader.join();

  // Settled: pushed-down aggregation and the oracle agree on everything.
  const std::string sql =
      "SELECT COUNT(*), MIN(score), MAX(score), SUM(score) FROM pings";
  auto pushed = session.Execute(sql);
  ASSERT_TRUE(pushed.ok());
  const oracle::Answer reference = Oracle(&session, sql);
  EXPECT_EQ(pushed->rows, reference.rows);
  EXPECT_EQ(oracle::Display(*pushed), reference.display);
}

TEST_F(PushdownTest, LateDecodeAndCountOnlyCountersAreExact) {
  constexpr int kRows = 600;
  BuildDb(4, kRows);
  Session session(db_.get());
  ASSERT_TRUE(session
                  .Execute("DECLARE PURPOSE GEO SET ACCURACY LEVEL CITY "
                           "FOR pings.location")
                  .ok());
  // Rows whose location is in Paris, counted on the heap path.
  session.set_use_indexes(false);
  auto paris = session.Execute(
      "SELECT COUNT(*) FROM pings WHERE location = 'Paris'");
  ASSERT_TRUE(paris.ok());
  const uint64_t paris_rows = static_cast<uint64_t>(paris->rows[0][0].int64());
  ASSERT_GT(paris_rows, 0u);
  ASSERT_LT(paris_rows, static_cast<uint64_t>(kRows));
  const std::vector<std::pair<bool, size_t>> kRuns = {
      {false, 1}, {false, 4}, {true, 1}, {true, 4}};
  for (const auto& [indexes, parallelism] : kRuns) {
    session.set_use_indexes(indexes);
    session.scan_options().parallelism = parallelism;
    const std::string where = "parallelism=" + std::to_string(parallelism) +
                              " indexes=" + std::to_string(indexes);

    // A stable + degradable conjunction: on an index probe `score` is
    // decoded for every probed row and `user` built for the stable
    // survivors only, and only those are probed in the store — the same
    // ledger as the heap scan, over fewer rows.
    {
      const Database::Stats before = db_->stats();
      auto mixed = session.Execute(
          "SELECT user FROM pings WHERE location = 'Paris' AND score < 300");
      ASSERT_TRUE(mixed.ok()) << where;
      const Database::Stats after = db_->stats();
      const uint64_t scanned = after.scan.rows - before.scan.rows;
      const uint64_t survivors =
          scanned -
          (after.scan.rows_prefiltered - before.scan.rows_prefiltered);
      EXPECT_EQ(scanned, indexes ? paris_rows : uint64_t{kRows}) << where;
      EXPECT_LT(survivors, scanned) << where;
      EXPECT_GE(survivors, mixed->rows.size()) << where;
      if (indexes) EXPECT_EQ(survivors, mixed->rows.size()) << where;
      const uint64_t issued =
          after.scan.store_probes_issued - before.scan.store_probes_issued;
      const uint64_t skipped =
          after.scan.store_probes_skipped - before.scan.store_probes_skipped;
      EXPECT_EQ(issued, survivors) << where;
      EXPECT_EQ(issued + skipped, scanned) << where;
      EXPECT_EQ(after.scan.values_decoded - before.scan.values_decoded,
                scanned + survivors)
          << where;
      EXPECT_EQ(after.scan.values_built - before.scan.values_built, survivors)
          << where;
    }

    // The selective read: `score` is decoded for every scanned row, `user`
    // only for the one survivor (scores are unique).
    Database::Stats before = db_->stats();
    auto selective =
        session.Execute("SELECT user, location FROM pings WHERE score = 42");
    ASSERT_TRUE(selective.ok()) << where;
    ASSERT_EQ(selective->rows.size(), 1u) << where;
    EXPECT_EQ(selective->rows[0][0], Value::String("u42")) << where;
    Database::Stats after = db_->stats();
    uint64_t scanned = after.scan.rows - before.scan.rows;
    EXPECT_EQ(scanned, static_cast<uint64_t>(kRows)) << where;
    EXPECT_EQ(after.scan.values_decoded - before.scan.values_decoded,
              scanned + 1)
        << where;
    // `score` is only ever a field view: the one Value built is the
    // survivor's `user`.
    EXPECT_EQ(after.scan.values_built - before.scan.values_built, 1u) << where;

    // COUNT(*) reads no column: nothing decoded, nothing probed, and the
    // probe ledger still balances (one degradable column).
    for (const char* sql :
         {"SELECT COUNT(*) FROM pings", "SELECT COUNT(*) FROM pings WHERE "
                                        "score >= 100"}) {
      before = db_->stats();
      auto count = session.Execute(sql);
      ASSERT_TRUE(count.ok()) << sql << " " << where;
      after = db_->stats();
      scanned = after.scan.rows - before.scan.rows;
      EXPECT_EQ(scanned, static_cast<uint64_t>(kRows)) << sql << " " << where;
      const uint64_t issued =
          after.scan.store_probes_issued - before.scan.store_probes_issued;
      const uint64_t skipped =
          after.scan.store_probes_skipped - before.scan.store_probes_skipped;
      EXPECT_EQ(issued, 0u) << sql << " " << where;
      EXPECT_EQ(issued + skipped, scanned) << sql << " " << where;
      const uint64_t filter_decodes =
          std::string(sql).find("score") != std::string::npos ? scanned : 0;
      EXPECT_EQ(after.scan.values_decoded - before.scan.values_decoded,
                filter_decodes)
          << sql << " " << where;
      EXPECT_EQ(after.scan.values_built, before.scan.values_built)
          << sql << " " << where;
    }
    auto all = session.Execute("SELECT COUNT(*) FROM pings");
    ASSERT_TRUE(all.ok());
    EXPECT_EQ(all->rows[0][0], Value::Int64(kRows)) << where;
    auto some =
        session.Execute("SELECT COUNT(*) FROM pings WHERE score >= 100");
    ASSERT_TRUE(some.ok());
    EXPECT_EQ(some->rows[0][0], Value::Int64(kRows - 100)) << where;
  }
}

// Page images (storage/page_image.h) must read exactly what a walk of the
// heap reads after every kind of write: each step below changes the table,
// runs every query three times — the first two leave an image on every
// cached page — and compares each run with the oracle, which always walks.
// With the default pool the third run reads images only; with a 4-page pool
// every scan evicts and reloads pages.
TEST_F(PushdownTest, PageImagesAgreeWithTheOracleAfterEveryMutation) {
  const std::vector<std::string> kQueries = {
      "SELECT user, score, location FROM pings WHERE score >= 0",
      "SELECT score, user FROM pings WHERE user LIKE '%1%'",
      "SELECT user, score FROM pings",
      "SELECT COUNT(*) FROM pings WHERE score < 300",
  };
  const std::string image = dir_ + "_crash";
  for (size_t pool_pages : {size_t{0}, size_t{4}}) {
    SCOPED_TRACE("pool pages " + std::to_string(pool_pages));
    ASSERT_TRUE(RemoveDirRecursive(image).ok());
    db_.reset();
    pool_pages_ = pool_pages;
    fault_ = std::make_unique<FaultInjectionEnv>(Env::Default());
    BuildDb(2, 600);
    std::unique_ptr<Session> session;
    auto open_session = [&] {
      session = std::make_unique<Session>(db_.get());
      ASSERT_TRUE(session
                      ->Execute("DECLARE PURPOSE GEO SET ACCURACY LEVEL CITY "
                                "FOR pings.location")
                      .ok());
      session->set_use_indexes(false);
      session->scan_options().parallelism = 0;
    };
    open_session();
    auto check = [&](const std::string& after) {
      SCOPED_TRACE("after " + after);
      for (const std::string& sql : kQueries) {
        const oracle::Answer reference = Oracle(session.get(), sql);
        for (int run = 0; run < 3; ++run) {
          const Database::Stats before = db_->stats();
          auto result = session->Execute(sql);
          ASSERT_TRUE(result.ok()) << sql << " -> "
                                   << result.status().ToString();
          EXPECT_EQ(result->rows, reference.rows) << sql << " run " << run;
          if (run == 2 && pool_pages == 0) {
            EXPECT_EQ(db_->stats().scan.records_walked,
                      before.scan.records_walked)
                << sql;
          }
        }
      }
      if (pool_pages == 0) EXPECT_GT(db_->stats().page_images.entries, 0u);
    };
    // Every row in row-id order, as the oracle stores it.
    auto stored_rows = [&] {
      auto stored = oracle::StoredRows(*db_->GetTable("pings"));
      EXPECT_TRUE(stored.ok());
      std::vector<oracle::Stored> rows;
      if (stored.ok()) rows = std::move(*stored);
      std::sort(rows.begin(), rows.end(),
                [](const oracle::Stored& a, const oracle::Stored& b) {
                  return a.row_id < b.row_id;
                });
      return rows;
    };
    auto insert = [&](int from, int to, const WriteOptions& options) {
      WriteBatch batch;
      for (int i = from; i < to; ++i) {
        batch.Insert("pings", {Value::String("u" + std::to_string(i)),
                               Value::Int64(i), Value::String("3 Av Foch")});
      }
      ASSERT_TRUE(db_->Write(&batch, options).ok());
    };
    check("load");

    insert(600, 650, {});
    check("insert");

    Table* table = db_->GetTable("pings");
    {
      const std::vector<oracle::Stored> rows = stored_rows();
      auto txn = db_->Begin();
      for (size_t i = 0; i < rows.size(); i += 5) {
        ASSERT_TRUE(table->Delete(txn.get(), rows[i].row_id).ok());
      }
      ASSERT_TRUE(db_->Commit(txn.get()).ok());
    }
    check("delete");

    // New rows fill the holes deletes left: a page too full for one is
    // compacted first (every string an image pointed at moves).
    DeleteAndRefillEvery(7);
    check("refill and compaction");

    // The first half's values reach ⊥ (address, city, region, country:
    // 1h + 1d + 2 months after insertion) and their rows leave the heap;
    // the second half, inserted 1h + 1min later, stays.
    const uint64_t live = table->live_rows();
    clock_->Advance(kMicrosPerDay + 2 * kMicrosPerMonth - 30 * kMicrosPerSecond);
    for (int pass = 0; pass < 8; ++pass) {
      ASSERT_TRUE(db_->RunDegradationOnce().ok());
    }
    ASSERT_LT(table->live_rows(), live);
    ASSERT_GT(table->live_rows(), 0u);
    check("expiry at bottom");

    // Writes logged after a checkpoint are redone into the heap of a crash
    // image.
    ASSERT_TRUE(db_->Checkpoint().ok());
    WriteOptions sync;
    sync.sync = true;
    insert(700, 760, sync);
    {
      const std::vector<oracle::Stored> rows = stored_rows();
      auto txn = db_->Begin();
      for (size_t i = 0; i < rows.size(); i += 11) {
        ASSERT_TRUE(table->Delete(txn.get(), rows[i].row_id).ok());
      }
      ASSERT_TRUE(db_->Commit(txn.get(), sync).ok());
    }
    check("writes before the crash");
    ASSERT_TRUE(fault_->SimulateCrashTo(dir_, image).ok());
    session.reset();
    db_.reset();
    DbOptions options = options_;
    options.path = image;
    auto reopened = Database::Open(options);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    db_ = std::move(*reopened);
    open_session();
    check("redo of a crash image");
    session.reset();
    db_.reset();
  }
  RemoveDirRecursive(image).ok();
}

// The build rule: a page gets its image on the second field-reading range
// scan since it was loaded or written, and then scans of it walk nothing.
// COUNT(*) and index probes read images but never count toward one.
TEST_F(PushdownTest, PageImagesBuildOnTheSecondFieldReadingScan) {
  // One partition, and one materialized batch (1024 rows) per scan: no
  // page is split across two batches.
  constexpr uint64_t kRows = 1000;
  BuildDb(1, static_cast<int>(kRows));
  Session session(db_.get());
  ASSERT_TRUE(session
                  .Execute("DECLARE PURPOSE GEO SET ACCURACY LEVEL CITY "
                           "FOR pings.location")
                  .ok());
  const uint64_t pages =
      db_->GetTable("pings")->partition(0)->heap_pool()->disk()->num_pages();
  ASSERT_GT(pages, 2u);
  struct Work {
    uint64_t walked = 0;
    uint64_t built = 0;
  };
  auto run = [&](const std::string& sql) {
    const Database::Stats before = db_->stats();
    auto result = session.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    const Database::Stats after = db_->stats();
    return Work{after.scan.records_walked - before.scan.records_walked,
                after.scan.page_images_built - before.scan.page_images_built};
  };
  // score has no index: a heap scan that filters on it and outputs user.
  const std::string select = "SELECT user FROM pings WHERE score < 300";
  const std::string count = "SELECT COUNT(*) FROM pings";
  const std::string lookup = "SELECT user FROM pings WHERE location = 'Paris'";

  Work work = run(select);
  EXPECT_EQ(work.walked, kRows);
  EXPECT_EQ(work.built, 0u);
  // Neither counts toward an image; both walk what they read.
  work = run(count);
  EXPECT_EQ(work.walked, kRows);
  EXPECT_EQ(work.built, 0u);
  work = run(lookup);
  EXPECT_GT(work.walked, 0u);
  EXPECT_EQ(work.built, 0u);
  EXPECT_EQ(db_->stats().page_images.entries, 0u);

  // The second field-reading scan builds every page's image, walking each
  // record once to do so; from then on nothing is walked.
  work = run(select);
  EXPECT_EQ(work.built, pages);
  EXPECT_EQ(work.walked, kRows);
  EXPECT_EQ(db_->stats().page_images.entries, pages);
  for (const std::string& sql : {select, count, lookup}) {
    work = run(sql);
    EXPECT_EQ(work.walked, 0u) << sql;
    EXPECT_EQ(work.built, 0u) << sql;
  }

  // An insert drops one page's image: the next scan walks that page, the
  // one after rebuilds it, and the third walks nothing.
  WriteBatch batch;
  batch.Insert("pings",
               {Value::String("u-new"), Value::Int64(5),
                Value::String("3 Av Foch")});
  ASSERT_TRUE(db_->Write(&batch).ok());
  EXPECT_EQ(db_->stats().page_images.entries, pages - 1);
  const Work first = run(select);
  const Work second = run(select);
  EXPECT_EQ(first.built, 0u);
  EXPECT_EQ(second.built, 1u);
  EXPECT_GT(first.walked, 0u);
  EXPECT_LT(first.walked, kRows / 2);
  EXPECT_EQ(second.walked, first.walked);
  work = run(select);
  EXPECT_EQ(work.walked, 0u);
  EXPECT_EQ(work.built, 0u);
}

std::atomic<uint64_t> released_images{0};
std::atomic<uint64_t> released_image_bytes{0};

// stats() reports the heap buffer-pool frames that hold a page and the
// page images attached to them, byte for byte, and both return to zero
// when the table is dropped.
TEST_F(PushdownTest, StatsCountPageImagesAndHeapFrames) {
  BuildDb(2, 600);
  Table* table = db_->GetTable("pings");
  uint64_t pages = 0;
  for (uint32_t p = 0; p < table->num_partitions(); ++p) {
    pages += table->partition(p)->heap_pool()->disk()->num_pages();
  }
  const uint64_t page_size =
      table->partition(0)->heap_pool()->disk()->page_size();
  Database::Stats stats = db_->stats();
  EXPECT_EQ(stats.heap_frames.entries, pages);
  EXPECT_EQ(stats.heap_frames.bytes, pages * page_size);
  EXPECT_EQ(stats.page_images.entries, 0u);
  EXPECT_EQ(stats.page_images.bytes, 0u);

  Session session(db_.get());
  for (int run = 0; run < 2; ++run) {
    ASSERT_TRUE(session.Execute("SELECT user FROM pings WHERE score < 9").ok());
  }
  stats = db_->stats();
  EXPECT_EQ(stats.page_images.entries, pages);
  EXPECT_GT(stats.page_images.bytes, pages * sizeof(PageImage));

  // Each dropped image reports its arrays to the hook; the object itself
  // is sizeof(PageImage).
  released_images = 0;
  released_image_bytes = 0;
  PageImage::SetReleaseHookForTesting([](const void*, size_t bytes) {
    released_images.fetch_add(1);
    released_image_bytes.fetch_add(bytes + sizeof(PageImage));
  });
  ASSERT_TRUE(db_->DropTable("pings").ok());
  PageImage::SetReleaseHookForTesting(nullptr);
  EXPECT_EQ(released_images.load(), stats.page_images.entries);
  EXPECT_EQ(released_image_bytes.load(), stats.page_images.bytes);
  stats = db_->stats();
  EXPECT_EQ(stats.page_images.entries, 0u);
  EXPECT_EQ(stats.page_images.bytes, 0u);
  EXPECT_EQ(stats.heap_frames.entries, 0u);
  EXPECT_EQ(stats.heap_frames.bytes, 0u);
}

/// Keeps the rows whose score is not a multiple of three.
class ScoreNotMultipleOfThree : public TupleFilter {
 public:
  bool Matches(const FieldView* fields) const override {
    return fields[1].i % 3 != 0;
  }
};

TEST_F(PushdownTest, RandomStablePredicatesMatchTheOracle) {
  constexpr int kRows = 600;
  BuildDb(4, kRows);
  Session session(db_.get());
  session.set_use_indexes(false);
  ASSERT_TRUE(session
                  .Execute("DECLARE PURPOSE GEO SET ACCURACY LEVEL CITY "
                           "FOR pings.location")
                  .ok());
  Random rng(20261018);
  const char* const kOps[] = {"=", "<>", "<", "<=", ">", ">="};
  const char* const kProjections[] = {
      "user",     "score",           "user, location",
      "*",        "COUNT(*)",        "COUNT(*), SUM(score), MIN(user)",
      "score, user"};
  // A score literal: mostly inside the table's 0..kRows-1, sometimes just
  // outside it or at the int64 extremes.
  auto score = [&]() -> std::string {
    switch (rng.Uniform(8)) {
      case 0:
        return std::to_string(std::numeric_limits<int64_t>::min());
      case 1:
        return std::to_string(std::numeric_limits<int64_t>::max());
      default:
        return std::to_string(rng.UniformRange(-3, kRows + 3));
    }
  };
  auto user = [&]() {
    return "'u" + std::to_string(rng.UniformRange(0, kRows + 3)) + "'";
  };
  auto term = [&]() -> std::string {
    const bool on_score = rng.Uniform(2) == 0;
    switch (rng.Uniform(8)) {
      case 0:
        return on_score ? "score BETWEEN " + score() + " AND " + score()
                        : "user BETWEEN " + user() + " AND " + user();
      case 1: {
        // Prefix, suffix or infix LIKE on the string column.
        const std::string digits = std::to_string(rng.UniformRange(0, 99));
        switch (rng.Uniform(3)) {
          case 0:
            return "user LIKE 'U" + digits + "%'";
          case 1:
            return "user LIKE '%" + digits + "'";
          default:
            return "user LIKE '%" + digits + "%'";
        }
      }
      default:
        return std::string(on_score ? "score " : "user ") +
               kOps[rng.Uniform(6)] + " " + (on_score ? score() : user());
    }
  };
  auto sorted = [](auto rows) {
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  for (int i = 0; i < 150; ++i) {
    std::string sql = "SELECT " +
                      std::string(kProjections[rng.Uniform(7)]) +
                      " FROM pings WHERE " + term();
    for (uint64_t more = rng.Uniform(3); more > 0; --more) {
      sql += " AND " + term();
    }
    if (rng.Uniform(4) == 0) sql += " AND location = 'Paris'";
    const oracle::Answer reference = Oracle(&session, sql);
    for (size_t parallelism : {1u, 4u}) {
      session.scan_options().parallelism = parallelism;
      const std::string where =
          sql + " parallelism=" + std::to_string(parallelism);
      auto result = session.Execute(sql);
      ASSERT_TRUE(result.ok()) << where << " " << result.status().ToString();
      EXPECT_EQ(sorted(result->rows), sorted(reference.rows)) << where;
    }
  }
}

TEST_F(PushdownTest, CorruptRecordsFailEveryScanShape) {
  constexpr int kRows = 40;
  BuildDb(1, kRows);
  Table* table = db_->GetTable("pings");
  ASSERT_NE(table, nullptr);
  const Schema& schema = table->schema();
  const size_t stable = schema.stable_columns().size();

  // Page 0 of the only partition holds every record. Slot 1's record sits
  // just below slot 0's, so one byte past its end is slot 0's first byte.
  BufferPool* pool = table->partition(0)->heap_pool();
  auto guard = pool->FetchPage(0);
  ASSERT_TRUE(guard.ok());
  char* page = guard->data();
  const std::string pristine(page, pool->disk()->page_size());
  ASSERT_GE(DecodeFixed32(page) & 0xFFFF, 2u);
  char* const slot = page + 8 + 4;  // slot 1: uint16 offset, uint16 length
  const uint16_t offset = DecodeFixed32(slot) & 0xFFFF;
  const uint16_t length = DecodeFixed32(slot) >> 16;
  Slice rest(page + offset, length);
  uint64_t skipped;
  ASSERT_TRUE(GetVarint64(&rest, &skipped) && GetVarint64(&rest, &skipped));
  const size_t header = length - rest.size();
  auto set_length = [&](size_t n) {
    EncodeFixed32(slot, offset | static_cast<uint32_t>(n) << 16);
  };
  // The record is (row id, insert time, 'u<i>' string, score).
  const std::vector<std::pair<std::string, std::function<void()>>> kCases = {
      {"truncated header", [&] { set_length(1); }},
      {"bad tag", [&] { page[offset + header] = 0x7F; }},
      {"truncated string", [&] { set_length(header + 3); }},
      {"trailing bytes", [&] { set_length(length + 1); }},
  };

  ScoreNotMultipleOfThree filter;
  ScanSpec count_only;
  count_only.count_only = true;
  count_only.output_columns.assign(stable, false);
  ScanSpec filtered;
  filtered.filter = &filter;
  filtered.filter_columns = {false, true};
  filtered.output_columns = {true, true};
  ScanSpec unfiltered;
  unfiltered.output_columns.assign(stable, true);
  const std::vector<std::pair<std::string, const ScanSpec*>> kShapes = {
      {"count-only", &count_only},
      {"filtered", &filtered},
      {"unfiltered", &unfiltered}};

  Session session(db_.get());
  for (const auto& [name, corrupt] : kCases) {
    std::memcpy(page, pristine.data(), pristine.size());
    corrupt();
    HeapTuple tuple;
    const Slice record(page + offset, DecodeFixed32(slot) >> 16);
    EXPECT_TRUE(DecodeHeapTuple(schema, record, &tuple).IsCorruption())
        << name;
    for (const auto& [shape, spec] : kShapes) {
      PartitionCursor cursor = table->OpenMorselCursor(Morsel{});
      ScanWorkspace ws;
      ScanDeltas deltas;
      bool done = false;
      EXPECT_TRUE(cursor.NextBatch(1024, *spec, &ws, &done, &deltas)
                      .IsCorruption())
          << name << " " << shape;
    }
    for (const char* sql : {"SELECT COUNT(*) FROM pings",
                            "SELECT user FROM pings WHERE score < 10",
                            "SELECT * FROM pings"}) {
      EXPECT_TRUE(session.Execute(sql).status().IsCorruption())
          << name << " " << sql;
    }
  }

  // Restored, the same page scans whole again.
  std::memcpy(page, pristine.data(), pristine.size());
  auto count = session.Execute("SELECT COUNT(*) FROM pings");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count->rows[0][0], Value::Int64(kRows));
}

/// Oracle equivalence over a tree and an interval domain, node and non-node
/// predicates and include_coarser: values and rendered display of every
/// materialized and streamed path.
class PushdownMixTest : public PushdownTest {
 protected:
  void BuildMixDb(int rows) {
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
    mix::Populate(db_.get(), clock_.get(), rows);
  }
};

TEST_F(PushdownMixTest, OracleEquivalenceAcrossDomainsAndPredicateKinds) {
  BuildMixDb(600);
  Session session(db_.get());
  ASSERT_TRUE(session.Execute(mix::kPurpose).ok());
  auto sorted = [](auto rows) {
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  for (bool coarser : {false, true}) {
    session.read_options().include_coarser = coarser;
    for (const std::string& sql : mix::Statements()) {
      const oracle::Answer reference = Oracle(&session, sql);
      ASSERT_FALSE(reference.rows.empty()) << sql;
      for (size_t parallelism : {1u, 4u}) {
        session.scan_options().parallelism = parallelism;
        const std::string where = sql + " coarser=" + std::to_string(coarser) +
                                  " parallelism=" +
                                  std::to_string(parallelism);
        // Heap scan: the oracle's (partition, heap) order exactly.
        session.set_use_indexes(false);
        auto heap = session.Execute(sql);
        ASSERT_TRUE(heap.ok()) << where << " " << heap.status().ToString();
        EXPECT_EQ(heap->rows, reference.rows) << where;
        EXPECT_EQ(oracle::Display(*heap), reference.display) << where;
        // Index probes where a predicate allows them (row-id order).
        session.set_use_indexes(true);
        auto indexed = session.Execute(sql);
        ASSERT_TRUE(indexed.ok()) << where;
        EXPECT_EQ(sorted(indexed->rows), sorted(reference.rows)) << where;
        EXPECT_EQ(sorted(oracle::Display(*indexed)), sorted(reference.display))
            << where;
        // Streamed.
        auto cursor = session.ExecuteCursor(sql);
        ASSERT_TRUE(cursor.ok()) << where;
        std::vector<std::vector<Value>> values;
        std::vector<std::vector<std::string>> display;
        CursorRow row;
        while (true) {
          auto more = (*cursor)->Next(&row);
          ASSERT_TRUE(more.ok()) << where;
          if (!*more) break;
          values.push_back(row.values());
          display.push_back(row.display());
        }
        EXPECT_EQ(sorted(values), sorted(reference.rows)) << where;
        EXPECT_EQ(sorted(display), sorted(reference.display)) << where;
      }
    }
  }
}

// σ on degradable node predicates (Eq, Ne, label LIKE, BETWEEN) tests leaf
// containment when the row's effective level is at most the literal's,
// and walks to the row's ancestor only for coarser rows. Differential
// check against the walk — the row's node interval at its effective level —
// for every leaf × stored level × demanded level × literal node, with
// include_coarser off and on, on a tree and on an interval domain whose
// last buckets are cut short.
TEST(DegradableSigmaTest, LeafContainmentMatchesTheAncestorWalk) {
  using plan::BoundPredicate;
  using plan::BoundQuery;
  auto interval = IntervalHierarchy::Make("x", -7, 100, {4, 20, 100});
  ASSERT_TRUE(interval.ok());
  const std::vector<std::shared_ptr<const DomainHierarchy>> domains = {
      LocationDomain(), SyntheticLocationDomain(2, 2, 3, 3), *interval};
  for (const auto& domain : domains) {
    const int height = domain->height();
    const int64_t leaves = *domain->CardinalityAtLevel(0);
    const bool is_tree = domain->value_type() == ValueType::kString;
    // Every node as (level, leaf interval): the lo leaf's ancestors.
    std::vector<std::pair<int, LeafInterval>> nodes;
    for (int level = 0; level < height; ++level) {
      for (int64_t leaf = 0; leaf < leaves; ++leaf) {
        const LeafInterval node = domain->AncestorRange(leaf, level);
        if (node.lo == leaf) nodes.emplace_back(level, node);
      }
    }
    // Bound predicates: Eq/Ne (and label LIKE on the tree) on every node;
    // BETWEEN (interval domain) on pairs of nodes at one level.
    std::vector<BoundPredicate> predicates;
    for (const auto& [level, node] : nodes) {
      std::vector<ComparisonOp> ops = {ComparisonOp::kEq, ComparisonOp::kNe};
      if (is_tree) ops.push_back(ComparisonOp::kLike);
      for (ComparisonOp op : ops) {
        BoundPredicate pred;
        pred.degradable = true;
        pred.ordinal = 0;
        pred.op = op;
        pred.literal_level = level;
        pred.literal_interval = node;
        predicates.push_back(pred);
      }
      if (is_tree) continue;
      for (const auto& [level2, node2] : nodes) {
        if (level2 != level || node2.lo < node.lo ||
            (level == 0 && (node2.lo - node.lo) % 13 != 0)) {
          continue;
        }
        BoundPredicate pred;
        pred.degradable = true;
        pred.ordinal = 0;
        pred.op = ComparisonOp::kBetween;
        pred.literal_level = level;
        pred.literal_interval = node;
        pred.literal_interval2 = node2;
        predicates.push_back(pred);
      }
    }
    auto walk = [&](const BoundPredicate& pred, int64_t ordinal, int level) {
      const LeafInterval row = domain->AncestorRange(ordinal, level);
      switch (pred.op) {
        case ComparisonOp::kBetween:
          return row.lo >= pred.literal_interval.lo &&
                 row.hi <= pred.literal_interval2.hi;
        case ComparisonOp::kNe:
          return !pred.literal_interval.Contains(row);
        default:
          return pred.literal_interval.Contains(row);
      }
    };

    BoundQuery query;
    query.reads_degradable = true;
    query.degradable.resize(1);
    query.degradable[0].hierarchy = domain.get();
    for (int level = 0; level < height; ++level) {
      query.degradable[0].phase_levels.push_back(level);
    }
    query.predicates.resize(1);
    size_t checked = 0;
    size_t matched = 0;
    for (BoundPredicate pred : predicates) {
      // BETWEEN binds its literals at the demanded level.
      const bool between = pred.op == ComparisonOp::kBetween;
      const int first_k = between ? pred.literal_level : 0;
      const int last_k = between ? pred.literal_level : height - 1;
      for (int k = first_k; k <= last_k; ++k) {
        pred.level = k;
        query.predicates[0] = pred;
        query.degradable[0].accuracy = k;
        for (bool include_coarser : {false, true}) {
          ReadOptions read;
          read.include_coarser = include_coarser;
          for (int phase = 0; phase < height; ++phase) {
            for (int64_t leaf = 0; leaf < leaves; ++leaf) {
              const int64_t ordinal = domain->AncestorRange(leaf, phase).lo;
              int level = -1;
              const bool got = plan::QualifyDegradable(query, read, &phase,
                                                       &ordinal, &level);
              const bool computable = phase <= k || include_coarser;
              const bool want =
                  computable && walk(pred, ordinal, std::max(phase, k));
              ASSERT_EQ(got, want)
                  << domain->name() << " op " << static_cast<int>(pred.op)
                  << " literal [" << pred.literal_interval.lo << ","
                  << pred.literal_interval.hi << "]@" << pred.literal_level
                  << " k " << k << " stored@" << phase << " leaf " << leaf
                  << " coarser " << include_coarser;
              ++checked;
              matched += got ? 1 : 0;
            }
          }
        }
      }
    }
    EXPECT_GT(matched, 0u) << domain->name();
    EXPECT_LT(matched, checked) << domain->name();
  }
}

TEST_F(PushdownTest, BatchedStoreMergeAgreesWithPerRowFindOutOfRowIdOrder) {
  constexpr int kRows = 500;
  BuildDb(4, kRows);
  Table* table = db_->GetTable("pings");
  ASSERT_NE(table, nullptr);
  const std::vector<int>& degradable = table->schema().degradable_columns();
  const size_t dcols = degradable.size();
  DeleteAndRefillEvery(7);
  auto stored = oracle::StoredRows(*table);
  ASSERT_TRUE(stored.ok());
  std::map<RowId, Value> user_of;
  for (const oracle::Stored& row : *stored) user_of[row.row_id] = row.values[0];

  // The production merge: every survivor's (phase, ordinal) must be what a
  // per-row Find down the column's phase stores reports.
  ScoreNotMultipleOfThree filter;
  ScanSpec spec;
  spec.filter = &filter;
  spec.filter_columns = {false, true};
  spec.output_columns = {true, true};
  ScanWorkspace ws;
  ScanDeltas deltas;
  size_t checked = 0;
  size_t unordered_batches = 0;
  for (const std::vector<Morsel>& plan : table->MorselPlan(0)) {
    for (const Morsel& morsel : plan) {
      PartitionCursor cursor = table->OpenMorselCursor(morsel);
      const TablePartition* partition = table->partition(morsel.partition);
      bool done = false;
      while (!done) {
        ASSERT_TRUE(cursor.NextBatch(64, spec, &ws, &done, &deltas).ok());
        bool ascending = true;
        for (size_t k = 0; k < ws.count; ++k) {
          const HeapTuple& tuple = ws.tuples[k];
          if (k > 0 && tuple.row_id < ws.tuples[k - 1].row_id) {
            ascending = false;
          }
          EXPECT_NE(tuple.stable[1].int64() % 3, 0);
          EXPECT_EQ(tuple.stable[0], user_of.at(tuple.row_id));
          for (size_t d = 0; d < dcols; ++d) {
            const int col = degradable[d];
            const int phases = table->schema().column(col).lcp.num_phases();
            int phase = 0;
            int64_t ordinal = -1;
            for (; phase < phases; ++phase) {
              const auto entry =
                  partition->store(col, phase)->Find(tuple.row_id);
              if (entry) {
                ordinal = entry->ordinal;
                break;
              }
            }
            EXPECT_EQ(ws.phases[k * dcols + d], phase)
                << "row " << tuple.row_id;
            EXPECT_EQ(ws.ordinals[k * dcols + d], ordinal)
                << "row " << tuple.row_id;
          }
          ++checked;
        }
        if (!ascending) ++unordered_batches;
      }
    }
  }
  EXPECT_EQ(checked, static_cast<size_t>(kRows - (kRows + 2) / 3));
  EXPECT_GT(unordered_batches, 0u);

  // And end to end: a heap-scan SELECT agrees with the oracle.
  Session session(db_.get());
  ASSERT_TRUE(session
                  .Execute("DECLARE PURPOSE GEO SET ACCURACY LEVEL CITY "
                           "FOR pings.location")
                  .ok());
  session.set_use_indexes(false);
  const std::string sql =
      "SELECT user, score, location FROM pings WHERE score >= 100";
  const oracle::Answer reference = Oracle(&session, sql);
  ASSERT_FALSE(reference.rows.empty());
  for (size_t parallelism : {1u, 4u}) {
    session.scan_options().parallelism = parallelism;
    auto result = session.Execute(sql);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->rows, reference.rows) << parallelism;
    EXPECT_EQ(oracle::Display(*result), reference.display) << parallelism;
  }
}

TEST_F(PushdownTest, RowIdCursorSkipsDeletedIds) {
  constexpr int kRows = 200;
  BuildDb(4, kRows);
  Table* table = db_->GetTable("pings");
  ASSERT_NE(table, nullptr);
  // Partition 1's ids, ascending — the shape of an index probe's group —
  // and every third of them deleted after the "probe".
  auto stored = oracle::StoredRows(*table);
  ASSERT_TRUE(stored.ok());
  std::vector<RowId> ids;
  for (const oracle::Stored& row : *stored) {
    if (table->PartitionOf(row.row_id) == 1) ids.push_back(row.row_id);
  }
  std::sort(ids.begin(), ids.end());
  ASSERT_GT(ids.size(), 16u);
  std::vector<RowId> live;
  auto txn = db_->Begin();
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i % 3 == 0) {
      ASSERT_TRUE(table->Delete(txn.get(), ids[i]).ok());
    } else {
      live.push_back(ids[i]);
    }
  }
  ASSERT_TRUE(db_->Commit(txn.get()).ok());

  ScanSpec spec;
  spec.output_columns = {true, true};
  PartitionCursor cursor = table->OpenRowIdCursor(1, ids);
  EXPECT_EQ(cursor.partition_index(), 1u);
  ScanWorkspace ws;
  ScanDeltas deltas;
  std::vector<RowId> seen;
  size_t batches = 0;
  bool done = false;
  while (!done) {
    ASSERT_TRUE(cursor.NextBatch(8, spec, &ws, &done, &deltas).ok());
    ++batches;
    for (size_t k = 0; k < ws.count; ++k) {
      seen.push_back(ws.tuples[k].row_id);
      EXPECT_GE(ws.ordinals[k], 0) << ws.tuples[k].row_id;
    }
  }
  // The limit bounds the ids visited, deleted ones included; only live
  // rows are examined, probed and returned.
  EXPECT_EQ(batches, (ids.size() + 7) / 8);
  EXPECT_EQ(seen, live);
  EXPECT_EQ(deltas.rows_scanned, live.size());
  EXPECT_EQ(deltas.rows_prefiltered, 0u);
  EXPECT_EQ(deltas.probes_issued, live.size());
  EXPECT_EQ(deltas.probes_skipped, 0u);
  // Drained: further batches are empty.
  ASSERT_TRUE(cursor.NextBatch(8, spec, &ws, &done, &deltas).ok());
  EXPECT_TRUE(done);
  EXPECT_EQ(ws.count, 0u);
}

TEST_F(PushdownTest, AdaptiveCadencePullsCheckpointToPayloadDeadline) {
  // Interval far above the phase-0 duration; threshold high enough that a
  // plain cadence point skips clean. The adaptive pull alone must bring the
  // cadence back at the payload deadline.
  dir_ = ::testing::TempDir() + "/idb_pushdown_cadence_test";
  ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
  clock_ = std::make_unique<VirtualClock>(0);
  DbOptions options;
  options.path = dir_;
  options.clock = clock_.get();
  options.maintenance.checkpoint_interval = 24 * kMicrosPerHour;
  options.maintenance.checkpoint_dirty_threshold = 1000;
  auto opened = Database::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  db_ = std::move(*opened);
  auto schema = Schema::Make(
      {ColumnDef::Stable("user", ValueType::kString),
       ColumnDef::Degradable("location", LocationDomain(), Fig2LocationLcp())});
  ASSERT_TRUE(schema.ok());
  ASSERT_TRUE(db_->CreateTable("pings", *schema).ok());
  Session session(db_.get());
  ASSERT_TRUE(
      session.Execute("INSERT INTO pings VALUES ('u0', '11 Rue Lepic')").ok());

  DegradationEngine* engine = db_->degradation();
  // Cadence point at t=0: skips clean (1 dirty < 1000, payload not yet
  // overdue), but the next deadline is pulled from t+24h to the payload's
  // phase-0 deadline (insert at 0 + 1h address phase).
  ASSERT_TRUE(engine->RunOnce(clock_->NowMicros()).ok());
  EXPECT_EQ(engine->next_checkpoint_due(), kMicrosPerHour);
  EXPECT_EQ(engine->maintenance_stats().checkpoints, 0u);

  // At the pulled deadline the payload is overdue: WAL pressure forces the
  // checkpoint below the dirty threshold, retiring the segment — and with
  // the pressure gone the next deadline returns to the interval floor.
  clock_->Advance(kMicrosPerHour + kMicrosPerMinute);
  const Micros now = clock_->NowMicros();
  ASSERT_TRUE(engine->RunOnce(now).ok());
  EXPECT_EQ(engine->maintenance_stats().checkpoints, 1u);
  EXPECT_EQ(engine->maintenance_stats().forced_checkpoints, 1u);
  EXPECT_EQ(engine->maintenance_stats().adaptive_checkpoint_pulls, 1u);
  EXPECT_EQ(engine->next_checkpoint_due(),
            now + 24 * kMicrosPerHour);

  // A payload logged after that cadence point pulls the cadence in too,
  // although no checkpoint has rescheduled it since.
  clock_->Advance(kMicrosPerMinute);
  ASSERT_TRUE(
      session.Execute("INSERT INTO pings VALUES ('u1', '3 Av Foch')").ok());
  const Micros deadline = clock_->NowMicros() + kMicrosPerHour;
  EXPECT_EQ(engine->next_checkpoint_due(), deadline);
  clock_->AdvanceTo(deadline + kMicrosPerSecond);
  ASSERT_TRUE(engine->RunOnce(clock_->NowMicros()).ok());
  EXPECT_EQ(engine->maintenance_stats().checkpoints, 2u);
  EXPECT_EQ(engine->maintenance_stats().forced_checkpoints, 2u);
  EXPECT_EQ(engine->maintenance_stats().adaptive_checkpoint_pulls, 2u);
  EXPECT_EQ(db_->Audit().exposed_wal_segments, 0u);
}

/// A pass serves partitions earliest deadline first, whatever their order
/// in the table: partition 7's head is the oldest, behind deeper but later
/// backlogs on partitions 0-6. A fault on partition 0's first step stops
/// the pass there, so partition 7 must already have moved.
TEST_F(PushdownTest, PassServesOldestHeadFirstAndAuditedExposureRepairs) {
  fault_ = std::make_unique<FaultInjectionEnv>(Env::Default());
  clock_ = std::make_unique<VirtualClock>(0);
  DbOptions options;
  options.path = dir_;
  options.clock = clock_.get();
  options.env = fault_.get();
  options.partitions = 8;
  options.degradation.worker_threads = 1;
  options.degradation.step_batch_limit = 64;
  options.storage.segment_bytes = 512;
  auto opened = Database::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  db_ = std::move(*opened);
  auto schema = Schema::Make(
      {ColumnDef::Stable("user", ValueType::kString),
       ColumnDef::Stable("score", ValueType::kInt64),
       ColumnDef::Degradable("location", LocationDomain(), Fig2LocationLcp())});
  ASSERT_TRUE(schema.ok());
  ASSERT_TRUE(db_->CreateTable("pings", *schema).ok());
  Table* table = db_->GetTable("pings");
  auto row = [](int i) {
    return std::vector<Value>{Value::String("u" + std::to_string(i)),
                              Value::Int64(i), Value::String("3 Av Foch")};
  };

  // Each transaction inserts into the next partition in turn: seven
  // aborted ones pass partitions 0-6, so the first row lands in 7.
  for (int i = 0; i < 7; ++i) {
    auto txn = db_->Begin();
    ASSERT_TRUE(table->Insert(txn.get(), row(i)).ok());
    db_->Abort(txn.get());
  }
  WriteBatch oldest;
  oldest.Insert("pings", row(0));
  ASSERT_TRUE(db_->Write(&oldest).ok());
  ASSERT_EQ(table->PartitionOf(oldest.row_ids()[0]), 7u);
  clock_->Advance(kMicrosPerMinute);
  for (uint32_t p = 0; p < 7; ++p) {
    WriteBatch deep;
    for (int i = 0; i < 200; ++i) deep.Insert("pings", row(i));
    ASSERT_TRUE(db_->Write(&deep).ok());
    ASSERT_EQ(table->PartitionOf(deep.row_ids()[0]), p);
  }

  // No audit has run: the order comes from the deadlines alone.
  fault_->FailOnce(FaultOp::kAppend, 1, Status::IOError("injected"), "/p0/");
  clock_->Advance(kMicrosPerHour + kMicrosPerMinute);
  auto failed = db_->RunDegradationOnce();
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsIOError()) << failed.status().ToString();
  EXPECT_EQ(table->partition(7)->stats().values_degraded, 1u);
  EXPECT_EQ(table->partition(0)->stats().degrade_steps, 1u);

  const AuditReport exposed = db_->Audit();
  EXPECT_FALSE(exposed.clean());
  ASSERT_EQ(exposed.tables.size(), 1u);
  const std::vector<uint32_t>& partitions = exposed.tables[0].exposed_partitions;
  EXPECT_NE(std::find(partitions.begin(), partitions.end(), 0u),
            partitions.end());

  // The fault is gone: the next pass repairs every exposed partition.
  fault_->ClearFaults();
  ASSERT_TRUE(db_->RunDegradationOnce().ok());
  const AuditReport repaired = db_->Audit();
  EXPECT_EQ(repaired.exposed_values, 0u) << repaired.ToString();
  EXPECT_TRUE(repaired.tables[0].exposed_partitions.empty());
}

}  // namespace
}  // namespace instantdb
