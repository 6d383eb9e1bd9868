#include <algorithm>
#include <map>
#include <set>

#include "catalog/builtin_domains.h"
#include "db/database.h"
#include "gtest/gtest.h"
#include "scan_oracle.h"
#include "util/file.h"

namespace instantdb {
namespace {

Schema PingSchema() {
  return *Schema::Make(
      {ColumnDef::Stable("user", ValueType::kString),
       ColumnDef::Degradable("location", LocationDomain(), Fig2LocationLcp())});
}

/// Partitioned-table behavior, with the degradation worker
/// pool enabled: routing, scans, recovery and scheduling must be
/// indistinguishable from the single-partition engine (modulo speed).
class PartitionTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kPartitions = 4;

  void SetUp() override {
    dir_ = ::testing::TempDir() + "/idb_partition_test";
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
    clock_ = std::make_unique<VirtualClock>(0);
    ReopenDb(kPartitions);
  }
  void TearDown() override {
    db_.reset();
    RemoveDirRecursive(dir_).ok();
  }

  void ReopenDb(uint32_t partitions) {
    db_.reset();
    DbOptions options;
    options.path = dir_;
    options.clock = clock_.get();
    options.partitions = partitions;
    options.degradation.worker_threads = 4;
    options.storage.segment_bytes = 512;
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
  }

  RowId InsertPing(const std::string& user, const std::string& address) {
    auto row_id =
        db_->Insert("pings", {Value::String(user), Value::String(address)});
    EXPECT_TRUE(row_id.ok()) << row_id.status().ToString();
    return row_id.ok() ? *row_id : kInvalidRowId;
  }

  Value LocationOf(RowId row_id) {
    auto row = oracle::StoredRow(*db_->GetTable("pings"), row_id);
    EXPECT_TRUE(row.ok());
    if (!row.ok() || !row->has_value()) return Value::Null();
    return (*row)->values[1];
  }

  std::string dir_;
  std::unique_ptr<VirtualClock> clock_;
  std::unique_ptr<Database> db_;
};

TEST_F(PartitionTest, RowsRouteDeterministicallyToAllPartitions) {
  ASSERT_TRUE(db_->CreateTable("pings", PingSchema()).ok());
  Table* table = db_->GetTable("pings");
  ASSERT_EQ(table->num_partitions(), kPartitions);

  std::vector<RowId> rows;
  for (int i = 0; i < 40; ++i) {
    rows.push_back(InsertPing("u" + std::to_string(i), "11 Rue Lepic"));
  }
  EXPECT_EQ(table->live_rows(), 40u);
  // Sequential row ids round-robin over partitions, so every partition owns
  // exactly a quarter of the rows.
  for (uint32_t p = 0; p < kPartitions; ++p) {
    EXPECT_EQ(table->partition(p)->live_rows(), 10u) << "partition " << p;
  }
  for (RowId row : rows) {
    EXPECT_EQ(table->PartitionOf(row), row % kPartitions);
    auto view = oracle::StoredRow(*table, row);
    ASSERT_TRUE(view.ok());
    EXPECT_TRUE(view->has_value());
  }
}

TEST_F(PartitionTest, WorkerPoolDegradesEveryPartitionOnSchedule) {
  ASSERT_TRUE(db_->CreateTable("pings", PingSchema()).ok());
  std::vector<RowId> rows;
  for (int i = 0; i < 100; ++i) {
    rows.push_back(InsertPing("u" + std::to_string(i), "11 Rue Lepic"));
  }
  clock_->Advance(kMicrosPerHour);
  auto moved = db_->RunDegradationOnce();
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  EXPECT_EQ(*moved, 100u);
  for (RowId row : rows) {
    EXPECT_EQ(LocationOf(row), Value::String("Paris"));
  }
  // Aggregated table stats reflect every partition's steps.
  const auto stats = db_->GetTable("pings")->stats();
  EXPECT_EQ(stats.values_degraded, 100u);
  EXPECT_GE(stats.degrade_steps, kPartitions);  // at least one per partition
  EXPECT_EQ(db_->GetTable("pings")->lateness_histogram().count(), 100u);
}

TEST_F(PartitionTest, EngineCountsPassesOnlyWhenWorkWasDue) {
  ASSERT_TRUE(db_->CreateTable("pings", PingSchema()).ok());
  ASSERT_TRUE(db_->RunDegradationOnce().ok());  // nothing due: not a pass
  EXPECT_EQ(db_->degradation()->stats().passes, 0u);
  InsertPing("a", "11 Rue Lepic");
  ASSERT_TRUE(db_->RunDegradationOnce().ok());  // still before the deadline
  EXPECT_EQ(db_->degradation()->stats().passes, 0u);
  clock_->Advance(kMicrosPerHour);
  ASSERT_TRUE(db_->RunDegradationOnce().ok());
  const auto stats = db_->degradation()->stats();
  EXPECT_EQ(stats.passes, 1u);
  EXPECT_EQ(stats.values_moved, 1u);
}

TEST_F(PartitionTest, RecoveryRoutesRedoToOwningPartition) {
  ASSERT_TRUE(db_->CreateTable("pings", PingSchema()).ok());
  std::vector<RowId> rows;
  for (int i = 0; i < 20; ++i) {
    rows.push_back(InsertPing("u" + std::to_string(i), "11 Rue Lepic"));
  }
  clock_->Advance(kMicrosPerHour);
  ASSERT_TRUE(db_->RunDegradationOnce().ok());
  // Post-degradation inserts land in the WAL after the degrade steps.
  const RowId fresh = InsertPing("fresh", "4 Rue Breteuil");
  const RowId gone = InsertPing("gone", "3 Av Foch");
  ASSERT_TRUE(db_->Delete("pings", gone).ok());

  ReopenDb(kPartitions);
  Table* table = db_->GetTable("pings");
  ASSERT_EQ(table->num_partitions(), kPartitions);
  EXPECT_EQ(table->live_rows(), 21u);
  for (RowId row : rows) {
    EXPECT_EQ(LocationOf(row), Value::String("Paris"));
  }
  EXPECT_EQ(LocationOf(fresh), Value::String("4 Rue Breteuil"));
  EXPECT_TRUE(LocationOf(gone).is_null());
  // New row ids continue above every live row (ids of rows deleted before
  // the shutdown checkpoint may be reused; they collide with nothing).
  const RowId next = InsertPing("next", "8 Cours Mirabeau");
  EXPECT_GT(next, fresh);
  EXPECT_EQ(LocationOf(next), Value::String("8 Cours Mirabeau"));

  // Degradation continues on schedule after recovery.
  clock_->Advance(kMicrosPerDay);
  ASSERT_TRUE(db_->RunDegradationOnce().ok());
  EXPECT_EQ(LocationOf(rows[0]), Value::String("Ile-de-France"));
  EXPECT_EQ(LocationOf(fresh), Value::String("Marseille"));
}

TEST_F(PartitionTest, IndexLookupsGroupRowIdsByPartition) {
  ASSERT_TRUE(db_->CreateTable("pings", PingSchema()).ok());
  for (int i = 0; i < 12; ++i) {
    InsertPing("p" + std::to_string(i),
               i % 2 == 0 ? "11 Rue Lepic" : "4 Rue Breteuil");
  }
  clock_->Advance(kMicrosPerHour);
  ASSERT_TRUE(db_->RunDegradationOnce().ok());

  Table* table = db_->GetTable("pings");
  const int col = table->schema().FindColumn("location");
  // Every partition's ids come back in its own ascending group.
  auto probe = [&](const char* value, int level) {
    std::vector<std::vector<RowId>> rids;
    EXPECT_TRUE(
        table->IndexLookupEqual(col, Value::String(value), level, &rids).ok());
    EXPECT_EQ(rids.size(), table->num_partitions());
    size_t total = 0;
    for (uint32_t p = 0; p < rids.size(); ++p) {
      EXPECT_TRUE(std::is_sorted(rids[p].begin(), rids[p].end()));
      for (RowId id : rids[p]) EXPECT_EQ(table->PartitionOf(id), p);
      total += rids[p].size();
    }
    return total;
  };
  EXPECT_EQ(probe("Paris", 1), 6u);
  EXPECT_EQ(probe("France", 3), 12u);
}

TEST_F(PartitionTest, PartitionCountPersistsAcrossMismatchedReopen) {
  ASSERT_TRUE(db_->CreateTable("pings", PingSchema()).ok());
  std::vector<RowId> rows;
  for (int i = 0; i < 16; ++i) {
    rows.push_back(InsertPing("u" + std::to_string(i), "12 Rue Royale"));
  }
  // Reopening with a different DbOptions::partitions must not re-route
  // recovered rows: the on-disk count wins.
  ReopenDb(/*partitions=*/2);
  Table* table = db_->GetTable("pings");
  EXPECT_EQ(table->num_partitions(), kPartitions);
  EXPECT_EQ(table->live_rows(), 16u);
  for (RowId row : rows) {
    EXPECT_EQ(LocationOf(row), Value::String("12 Rue Royale"));
  }
}

/// PARTITIONS lost: the count is recovered from contiguous `p<k>`
/// directories, whatever DbOptions::partitions says on the reopen. A single
/// partition lives in `p0` too.
TEST_F(PartitionTest, LostPartitionCountIsRecoveredFromContiguousDirs) {
  for (const uint32_t created : {kPartitions, 1u}) {
    SCOPED_TRACE(created);
    db_.reset();
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
    ReopenDb(created);
    ASSERT_TRUE(db_->CreateTable("pings", PingSchema()).ok());
    std::vector<RowId> rows;
    for (int i = 0; i < 8; ++i) {
      rows.push_back(InsertPing("u" + std::to_string(i), "11 Rue Lepic"));
    }
    db_.reset();  // clean close (checkpoints)
    EXPECT_TRUE(FileExists(dir_ + "/tables/t1/p0/heap.db"));
    EXPECT_FALSE(FileExists(dir_ + "/tables/t1/heap.db"));
    EXPECT_EQ(FileExists(dir_ + "/tables/t1/p1"), created > 1);
    ASSERT_TRUE(RemoveFile(dir_ + "/tables/t1/PARTITIONS").ok());

    ASSERT_NO_FATAL_FAILURE(ReopenDb(created == 1 ? kPartitions : 2));
    Table* table = db_->GetTable("pings");
    EXPECT_EQ(table->num_partitions(), created);
    EXPECT_EQ(table->live_rows(), 8u);
    for (RowId row : rows) {
      EXPECT_EQ(LocationOf(row), Value::String("11 Rue Lepic"));
    }
  }
}

TEST_F(PartitionTest, LostPartitionCountWithAGapIsCorruption) {
  ASSERT_TRUE(db_->CreateTable("pings", PingSchema()).ok());
  for (int i = 0; i < 8; ++i) {
    InsertPing("u" + std::to_string(i), "11 Rue Lepic");
  }
  db_.reset();
  ASSERT_TRUE(RemoveFile(dir_ + "/tables/t1/PARTITIONS").ok());
  ASSERT_TRUE(RemoveDirRecursive(dir_ + "/tables/t1/p1").ok());
  ASSERT_TRUE(RemoveDirRecursive(dir_ + "/tables/t1/p3").ok());

  DbOptions options;
  options.path = dir_;
  options.clock = clock_.get();
  options.partitions = kPartitions;
  auto db = Database::Open(options);
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsCorruption()) << db.status().ToString();
}

TEST_F(PartitionTest, DropTableRemovesEveryPartition) {
  ASSERT_TRUE(db_->CreateTable("pings", PingSchema()).ok());
  InsertPing("a", "11 Rue Lepic");
  ASSERT_TRUE(db_->DropTable("pings").ok());
  EXPECT_EQ(db_->GetTable("pings"), nullptr);
  ASSERT_TRUE(db_->CreateTable("pings", PingSchema()).ok());
  EXPECT_EQ(db_->GetTable("pings")->live_rows(), 0u);
  EXPECT_EQ(db_->GetTable("pings")->num_partitions(), kPartitions);
}

}  // namespace
}  // namespace instantdb
