#include "db/write_batch.h"

#include "catalog/builtin_domains.h"
#include "db/database.h"
#include "gtest/gtest.h"
#include "query/session.h"
#include "scan_oracle.h"
#include "storage/key_manager.h"
#include "util/file.h"
#include "wal/wal_manager.h"

namespace instantdb {
namespace {

class WriteBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/idb_write_batch_test";
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
    clock_ = std::make_unique<VirtualClock>(0);
    DbOptions options;
    options.path = dir_;
    options.clock = clock_.get();
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);

    auto pings = Schema::Make(
        {ColumnDef::Stable("user", ValueType::kString),
         ColumnDef::Degradable("location", LocationDomain(),
                               Fig2LocationLcp())});
    ASSERT_TRUE(pings.ok());
    ASSERT_TRUE(db_->CreateTable("pings", *pings).ok());

    auto events = Schema::Make({ColumnDef::Stable("id", ValueType::kInt64)});
    ASSERT_TRUE(events.ok());
    ASSERT_TRUE(db_->CreateTable("events", *events).ok());
  }
  void TearDown() override {
    db_.reset();
    RemoveDirRecursive(dir_).ok();
  }

  std::string dir_;
  std::unique_ptr<VirtualClock> clock_;
  std::unique_ptr<Database> db_;
};

TEST_F(WriteBatchTest, CommitsAtomicallyAcrossTablesAndReturnsRowIds) {
  WriteBatch batch;
  batch.Insert("pings", {Value::String("alice"), Value::String("11 Rue Lepic")});
  batch.Insert("events", {Value::Int64(1)});
  batch.Insert("pings", {Value::String("bob"), Value::String("3 Av Foch")});
  ASSERT_EQ(batch.size(), 3u);
  ASSERT_TRUE(db_->Write(&batch).ok());

  ASSERT_EQ(batch.row_ids().size(), 3u);
  for (RowId row_id : batch.row_ids()) EXPECT_NE(row_id, kInvalidRowId);
  EXPECT_EQ(db_->GetTable("pings")->live_rows(), 2u);
  EXPECT_EQ(db_->GetTable("events")->live_rows(), 1u);

  auto row = oracle::StoredRow(*db_->GetTable("pings"), batch.row_ids()[0]);
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE(row->has_value());
  EXPECT_EQ((**row).values[0], Value::String("alice"));
}

TEST_F(WriteBatchTest, FailedOperationAbortsTheWholeBatch) {
  WriteBatch batch;
  batch.Insert("pings", {Value::String("alice"), Value::String("11 Rue Lepic")});
  batch.Insert("nosuch", {Value::Int64(1)});
  EXPECT_TRUE(db_->Write(&batch).IsNotFound());
  EXPECT_TRUE(batch.row_ids().empty());
  EXPECT_EQ(db_->GetTable("pings")->live_rows(), 0u);

  // Invalid row (coarse value in the most-accurate state) aborts too.
  WriteBatch bad_row;
  bad_row.Insert("pings", {Value::String("x"), Value::String("Paris")});
  bad_row.Insert("events", {Value::Int64(2)});
  EXPECT_FALSE(db_->Write(&bad_row).ok());
  EXPECT_EQ(db_->GetTable("events")->live_rows(), 0u);
}

TEST_F(WriteBatchTest, StagedDeletesApplyWithInserts) {
  WriteBatch seed;
  seed.Insert("events", {Value::Int64(1)});
  seed.Insert("events", {Value::Int64(2)});
  ASSERT_TRUE(db_->Write(&seed).ok());

  WriteBatch mixed;
  mixed.Delete("events", seed.row_ids()[0]);
  mixed.Insert("events", {Value::Int64(3)});
  ASSERT_TRUE(db_->Write(&mixed).ok());
  ASSERT_EQ(mixed.row_ids().size(), 2u);
  EXPECT_EQ(mixed.row_ids()[0], kInvalidRowId);  // delete slot
  EXPECT_NE(mixed.row_ids()[1], kInvalidRowId);
  EXPECT_EQ(db_->GetTable("events")->live_rows(), 2u);
}

TEST_F(WriteBatchTest, EmptyBatchIsANoOp) {
  WriteBatch batch;
  ASSERT_TRUE(db_->Write(&batch).ok());
  EXPECT_TRUE(batch.row_ids().empty());
  batch.Insert("events", {Value::Int64(1)});
  batch.Clear();
  ASSERT_TRUE(db_->Write(&batch).ok());
  EXPECT_EQ(db_->GetTable("events")->live_rows(), 0u);
}

/// The group-commit acceptance test: 1000 batched inserts with durability
/// requested must issue exactly ONE WAL sync, where the per-row path pays
/// one sync per row.
TEST_F(WriteBatchTest, ThousandInsertBatchIssuesExactlyOneWalSync) {
  const uint64_t syncs_before = db_->wal()->stats().syncs;

  WriteBatch batch;
  for (int i = 0; i < 1000; ++i) {
    batch.Insert("events", {Value::Int64(i)});
  }
  WriteOptions durable;
  durable.sync = true;
  ASSERT_TRUE(db_->Write(&batch, durable).ok());
  EXPECT_EQ(db_->wal()->stats().syncs - syncs_before, 1u);
  EXPECT_EQ(db_->GetTable("events")->live_rows(), 1000u);

  // Per-row baseline: N rows, N syncs.
  const uint64_t before_per_row = db_->wal()->stats().syncs;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db_->Insert("events", {Value::Int64(1000 + i)}, durable).ok());
  }
  EXPECT_EQ(db_->wal()->stats().syncs - before_per_row, 10u);
}

/// AppendBatch framing must be byte-compatible with record-at-a-time
/// appends: replay decodes every record in order across segment rotations.
TEST(WalAppendBatchTest, BatchedFramesReplayAcrossSegmentRotation) {
  const std::string dir = ::testing::TempDir() + "/idb_append_batch_test";
  ASSERT_TRUE(RemoveDirRecursive(dir).ok());
  ASSERT_TRUE(CreateDirs(dir).ok());
  KeyManager keys(dir + "/keystore");
  ASSERT_TRUE(keys.Open().ok());
  WalOptions options;
  options.segment_bytes = 256;  // force rotations mid-batch
  WalManager wal(dir + "/wal", options, &keys);
  ASSERT_TRUE(wal.Open().ok());

  std::vector<WalRecord> records;
  for (RowId r = 1; r <= 50; ++r) {
    WalRecord record;
    record.type = WalRecordType::kInsert;
    record.txn_id = 42;
    record.table = 1;
    record.row_id = r;
    record.insert_time = static_cast<Micros>(r) * kMicrosPerMinute;
    record.stable = {Value::Int64(static_cast<int64_t>(r))};
    record.degradable = {Value::String("addr-" + std::to_string(r))};
    records.push_back(std::move(record));
  }
  WalRecord commit;
  commit.type = WalRecordType::kCommit;
  commit.txn_id = 42;
  records.push_back(commit);

  std::vector<const WalRecord*> pointers;
  for (const WalRecord& r : records) pointers.push_back(&r);
  const uint64_t syncs_before = wal.stats().syncs;
  auto first_lsn = wal.AppendBatch(pointers, /*sync=*/true);
  ASSERT_TRUE(first_lsn.ok());
  EXPECT_EQ(wal.stats().syncs - syncs_before, 1u);
  EXPECT_EQ(wal.stats().records_appended, records.size());
  EXPECT_GT(wal.stats().segments_created, 1u);  // rotation happened

  size_t replayed = 0;
  ASSERT_TRUE(wal.Replay(0, [&](const WalRecord& record, Lsn) {
                   if (replayed < 50) {
                     EXPECT_EQ(record.type, WalRecordType::kInsert);
                     EXPECT_EQ(record.row_id, replayed + 1);
                     EXPECT_EQ(record.stable[0],
                               Value::Int64(static_cast<int64_t>(replayed + 1)));
                   } else {
                     EXPECT_EQ(record.type, WalRecordType::kCommit);
                   }
                   ++replayed;
                   return Status::OK();
                 }).ok());
  EXPECT_EQ(replayed, records.size());
  RemoveDirRecursive(dir).ok();
}

}  // namespace
}  // namespace instantdb
