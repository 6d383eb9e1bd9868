// Morsel-driven execution: page-range work units claimed from one shared
// cursor over a partition-interleaved plan (util/morsel.h). These tests pin
// down (a) the scheduler — claims interleave partitions while ordinals stay
// in (partition, page) order, and racing claimers get every morsel exactly
// once; (b) equivalence with the test oracle (scan_oracle.h) at any
// parallelism, including parallelism ABOVE the partition count; (c)
// range-bounded cursor resume exactness across morsel boundaries; (d) a
// skewed table scanned whole and a hot partition shared by every claimer;
// and (e) snapshot safety with a concurrent degrader. Runs under
// ThreadSanitizer in scripts/verify.sh --tsan: the scheduler's lock-free
// claim path and the shared worker pool are exactly the cross-thread code
// it exercises.

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "catalog/builtin_domains.h"
#include "db/database.h"
#include "gtest/gtest.h"
#include "query/cursor.h"
#include "query/session.h"
#include "scan_oracle.h"
#include "util/file.h"
#include "util/morsel.h"

namespace instantdb {
namespace {

TEST(MorselSchedulerTest, ClaimsInterleavePartitionsAndKeepOrdinals) {
  // A uniform 4×3 plan: begin_page is the morsel's index in its partition.
  constexpr uint32_t kPartitions = 4;
  constexpr PageId kPerPartition = 3;
  std::vector<std::vector<Morsel>> plan(kPartitions);
  for (uint32_t p = 0; p < kPartitions; ++p) {
    for (PageId i = 0; i < kPerPartition; ++i) {
      plan[p].push_back(Morsel{p, i, i + 1, 0});
    }
  }
  MorselScheduler sched(plan);
  ASSERT_EQ(sched.total(), size_t{kPartitions * kPerPartition});
  std::vector<Morsel> claimed;
  Morsel m;
  while (sched.Claim(&m)) claimed.push_back(m);
  ASSERT_EQ(claimed.size(), sched.total());
  // The first P claims cover P distinct partitions: readers claiming back
  // to back read from different partitions' buffer pools. A partition-major
  // claim array hands all of them partition 0.
  std::set<uint32_t> first;
  for (size_t k = 0; k < kPartitions; ++k) first.insert(claimed[k].partition);
  EXPECT_EQ(first.size(), size_t{kPartitions});
  // Every morsel keeps its ordinal in the flattened (partition, page)
  // order, the order the materializing path concatenates buckets in.
  for (const Morsel& c : claimed) {
    EXPECT_EQ(c.ordinal, c.partition * kPerPartition + c.begin_page);
  }
}

TEST(MorselSchedulerTest, ConcurrentClaimersGetEveryMorselExactlyOnce) {
  // Uneven partitions, claimed by racing threads until the cursor runs dry.
  std::vector<std::vector<Morsel>> plan(5);
  for (uint32_t p = 0; p < plan.size(); ++p) {
    for (PageId i = 0; i < 40 * p + 1; ++i) {
      plan[p].push_back(Morsel{p, i, i + 1, 0});
    }
  }
  MorselScheduler sched(plan);
  constexpr size_t kThreads = 4;
  std::vector<std::vector<size_t>> ordinals(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sched, &ordinals, t] {
      Morsel m;
      while (sched.Claim(&m)) ordinals[t].push_back(m.ordinal);
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::vector<size_t> all;
  for (const auto& mine : ordinals) {
    all.insert(all.end(), mine.begin(), mine.end());
  }
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), sched.total());
  for (size_t k = 0; k < all.size(); ++k) EXPECT_EQ(all[k], k);
  Morsel m;
  EXPECT_FALSE(sched.Claim(&m));  // a drained cursor stays drained
}

class MorselScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/idb_morsel_test";
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
  }
  void TearDown() override {
    db_.reset();
    RemoveDirRecursive(dir_).ok();
  }

  /// Fresh database with `partitions` partitions and a worker pool of 4,
  /// holding `rows` pings with mixed phases (first half degraded past the
  /// one-hour address deadline). `batch_rows` sets the WriteBatch size:
  /// batches are partition-affine, so 25 spreads rows over every partition
  /// while a `rows`-sized batch lands each half in ONE partition (two
  /// partitions hold every row, the others none).
  void BuildDb(uint32_t partitions, int rows, int batch_rows = 25) {
    db_.reset();
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
    clock_ = std::make_unique<VirtualClock>(0);
    DbOptions options;
    options.path = dir_;
    options.clock = clock_.get();
    options.partitions = partitions;
    options.degradation.worker_threads = 4;
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
    // Pad users to ~150-byte rows so a few hundred rows span several heap
    // pages — 1-page morsel plans need multi-page partitions to be
    // interesting.
    const std::string pad(120, 'x');
    auto insert_range = [&](int from, int to) {
      for (int start = from; start < to; start += batch_rows) {
        WriteBatch batch;
        for (int i = start; i < std::min(start + batch_rows, to); ++i) {
          batch.Insert("pings", {Value::String("u" + std::to_string(i) + pad),
                                 Value::String(kAddresses[i % 5])});
        }
        ASSERT_TRUE(db_->Write(&batch).ok());
      }
    };
    insert_range(0, rows / 2);
    clock_->Advance(kMicrosPerHour + kMicrosPerMinute);
    ASSERT_TRUE(db_->RunDegradationOnce().ok());
    insert_range(rows / 2, rows);
  }

  /// Total morsel count of the pings table's current plan at 1-page
  /// granularity (what the scans below are configured to use).
  size_t PlanTotal() {
    size_t total = 0;
    for (const auto& queue : db_->GetTable("pings")->MorselPlan(1)) {
      total += queue.size();
    }
    return total;
  }

  /// Drains `sql` through a streaming cursor at `parallelism` into
  /// user -> rendered-row, asserting no duplicate users. Forces 1-page
  /// morsels so even small test tables split into many work units.
  std::map<std::string, std::vector<std::string>> DrainCursor(
      Session* session, const std::string& sql, size_t parallelism) {
    session->scan_options().parallelism = parallelism;
    session->scan_options().morsel_pages = 1;
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

  /// Materialized (Session::Execute) scan: returns the rendered rows IN
  /// ORDER — the morsel-ordinal merge must reproduce the sequential order
  /// at any parallelism.
  std::vector<std::vector<std::string>> MaterializedRows(
      Session* session, const std::string& sql, size_t parallelism) {
    session->scan_options().parallelism = parallelism;
    session->scan_options().morsel_pages = 1;
    auto result = session->Execute(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return {};
    return oracle::Display(*result);
  }

  std::string dir_;
  std::unique_ptr<VirtualClock> clock_;
  std::unique_ptr<Database> db_;
};

TEST_F(MorselScanTest, EquivalentToTheOracleAtAnyParallelismAndPartitions) {
  constexpr int kRows = 900;
  for (uint32_t partitions : {1u, 4u}) {
    BuildDb(partitions, kRows);
    Session session(db_.get());
    ASSERT_TRUE(session
                    .Execute("DECLARE PURPOSE GEO SET ACCURACY LEVEL CITY "
                             "FOR pings.location")
                    .ok());
    const std::string sql = "SELECT user, location FROM pings";
    auto reference = oracle::Execute(&session, sql);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    // The oracle walks partitions in (partition, heap) order: the
    // sequential scan order.
    const auto& ordered = reference->display;
    ASSERT_EQ(ordered.size(), static_cast<size_t>(kRows));
    const auto baseline = oracle::ByFirstColumn(*reference);
    // 2×partitions exceeds the partition count: pre-morsel fan-out could
    // not even express this — workers must share partitions.
    for (size_t parallelism : {size_t{1}, size_t{4}, size_t{2 * partitions}}) {
      EXPECT_EQ(DrainCursor(&session, sql, parallelism), baseline)
          << "partitions=" << partitions << " parallelism=" << parallelism;
      // The materialized path must also preserve sequential ORDER, not
      // just the row set: buckets concatenate in morsel-ordinal order.
      EXPECT_EQ(MaterializedRows(&session, sql, parallelism), ordered)
          << "partitions=" << partitions << " parallelism=" << parallelism;
    }
  }
}

TEST_F(MorselScanTest, ClaimedCounterMatchesThePlanSizeExactly) {
  BuildDb(4, 800);
  Session session(db_.get());
  const size_t plan_total = PlanTotal();
  ASSERT_GT(plan_total, 4u);  // multiple morsels per partition at 1 page

  // Streaming scans: a fully drained scan claims every morsel exactly
  // once — the invariant the lock-free claim path must uphold. Inline
  // (parallelism 1) scans claim through the same scheduler.
  uint64_t streamed = db_->stats().scan.morsels_claimed;
  for (size_t parallelism : {1u, 4u}) {
    const uint64_t before = streamed;
    EXPECT_EQ(DrainCursor(&session, "SELECT user FROM pings", parallelism)
                  .size(),
              800u);
    streamed = db_->stats().scan.morsels_claimed;
    EXPECT_EQ(streamed - before, plan_total) << "parallelism=" << parallelism;
  }

  // Materialized path builds its own scheduler over the same plan.
  EXPECT_EQ(MaterializedRows(&session, "SELECT user FROM pings", 4).size(),
            800u);
  const uint64_t materialized = db_->stats().scan.morsels_claimed;
  EXPECT_EQ(materialized - streamed, plan_total);

  // Aggregate pushdown drains morsels too (per-worker partials).
  const uint64_t merges_before = db_->stats().scan.aggregate_partials_merged;
  auto count = session.Execute("SELECT COUNT(*) FROM pings");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->display(0)[0], "800");
  EXPECT_EQ(db_->stats().scan.morsels_claimed - materialized, plan_total);
  // One partial per WORKER now, not per partition.
  EXPECT_GT(db_->stats().scan.aggregate_partials_merged, merges_before);
}

TEST_F(MorselScanTest, SkewedPartitionIsSharedByEveryClaimer) {
  // Every row in two of the four partitions (each half is one
  // partition-affine WriteBatch); the other two plan one empty morsel each.
  constexpr int kRows = 4000;
  BuildDb(4, kRows, /*batch_rows=*/kRows);
  Session session(db_.get());
  // Queue capacity 1 maximizes backpressure: the first reader blocks after
  // a couple of morsels, so the others must scan the hot partitions.
  session.scan_options().prefetch_batches = 1;

  const auto plan = db_->GetTable("pings")->MorselPlan(1);
  size_t hot_partition = 0;
  for (size_t p = 0; p < plan.size(); ++p) {
    if (plan[p].size() > plan[hot_partition].size()) hot_partition = p;
  }
  const size_t hot = plan[hot_partition].size();
  ASSERT_GE(hot, 20u) << "skewed table did not materialize enough pages";

  const uint64_t before = db_->stats().scan.morsels_claimed;
  const auto rows = DrainCursor(&session, "SELECT user FROM pings", 4);
  EXPECT_EQ(rows.size(), static_cast<size_t>(kRows));
  EXPECT_EQ(db_->stats().scan.morsels_claimed - before, PlanTotal());

  // The proof that a hot partition is shared, deterministically: keep the
  // hottest partition's morsels and give every other partition one empty
  // morsel (the plan of a table whose rows all sit in one partition). Two
  // claimers taking turns on one cursor each receive about half of the hot
  // morsels.
  std::vector<std::vector<Morsel>> one_hot(plan.size());
  for (size_t p = 0; p < plan.size(); ++p) {
    if (p == hot_partition) {
      one_hot[p] = plan[p];
    } else {
      one_hot[p].push_back(
          Morsel{static_cast<uint32_t>(p), 0, kInvalidPageId, 0});
    }
  }
  MorselScheduler sched(std::move(one_hot));
  size_t hot_claims[2] = {0, 0};
  Morsel m;
  for (size_t turn = 0; sched.Claim(&m); ++turn) {
    if (m.partition == hot_partition) ++hot_claims[turn % 2];
  }
  EXPECT_EQ(hot_claims[0] + hot_claims[1], hot);
  EXPECT_GE(hot_claims[0], hot / 2 - 1);
  EXPECT_GE(hot_claims[1], hot / 2 - 1);
}

TEST_F(MorselScanTest, MorselCursorsResumeExactlyAcrossBoundaries) {
  constexpr int kRows = 500;
  BuildDb(4, kRows);
  Table* table = db_->GetTable("pings");
  ASSERT_NE(table, nullptr);

  // Full sequential sweep as ground truth.
  std::set<RowId> expected;
  auto stored = oracle::StoredRows(*table);
  ASSERT_TRUE(stored.ok());
  for (const oracle::Stored& view : *stored) expected.insert(view.row_id);
  ASSERT_EQ(expected.size(), static_cast<size_t>(kRows));

  // Drain every 1-page morsel with a tiny batch limit, forcing resume
  // positions INSIDE pages and at page (= morsel) boundaries. The union
  // must be exact: no row lost at a boundary, none served by two morsels.
  ScanSpec spec;
  spec.output_columns.assign(table->schema().stable_columns().size(), true);
  ScanWorkspace ws;
  ScanDeltas deltas;
  std::set<RowId> seen;
  for (const auto& queue : table->MorselPlan(1)) {
    for (const Morsel& morsel : queue) {
      PartitionCursor cursor = table->OpenMorselCursor(morsel);
      bool done = false;
      while (!done) {
        ASSERT_TRUE(cursor.NextBatch(7, spec, &ws, &done, &deltas).ok());
        EXPECT_LE(ws.count, 7u);
        for (size_t k = 0; k < ws.count; ++k) {
          const RowId row_id = ws.tuples[k].row_id;
          EXPECT_EQ(table->PartitionOf(row_id), morsel.partition);
          EXPECT_TRUE(seen.insert(row_id).second)
              << "row served by two morsels: " << row_id;
        }
      }
      // A drained morsel cursor stays drained.
      ASSERT_TRUE(cursor.NextBatch(7, spec, &ws, &done, &deltas).ok());
      EXPECT_TRUE(done);
      EXPECT_EQ(ws.count, 0u);
    }
  }
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(deltas.rows_scanned, static_cast<uint64_t>(kRows));
  EXPECT_EQ(deltas.rows_prefiltered, 0u);
}

TEST_F(MorselScanTest, ScanDuringDegradationStaysSnapshotSafe) {
  constexpr int kRows = 800;
  BuildDb(4, kRows);
  Session session(db_.get());
  ASSERT_TRUE(session
                  .Execute("DECLARE PURPOSE GEO SET ACCURACY LEVEL CITY "
                           "FOR pings.location")
                  .ok());
  // Parallelism above the partition count with 1-page morsels: several
  // workers inside one partition while the degrader moves values.
  session.scan_options().parallelism = 8;
  session.scan_options().morsel_pages = 1;
  auto cursor = session.ExecuteCursor("SELECT user, location FROM pings");
  ASSERT_TRUE(cursor.ok());

  const std::set<std::string> kCities = {"Paris", "Versailles", "Marseille",
                                         "Aix"};
  CursorRow row;
  std::set<std::string> seen;
  int pulled = 0;
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
    // Read before or after its degradation step, a CITY-rendered value is
    // a city label — never torn or half-moved.
    EXPECT_TRUE(kCities.count(row.display()[1]))
        << "torn location: " << row.display()[1];
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(kRows));
}

}  // namespace
}  // namespace instantdb
