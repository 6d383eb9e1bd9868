#include <atomic>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "storage/key_manager.h"
#include "txn/transaction.h"
#include "util/file.h"

namespace instantdb {
namespace {

// --- LockManager -----------------------------------------------------------------

TEST(LockManagerTest, ExclusiveConflictsYoungerDies) {
  LockManager lm;
  ASSERT_TRUE(lm.LockRow(1, 1, 42).ok());
  EXPECT_TRUE(lm.LockRow(1, 1, 42).ok());  // re-acquire: no-op
  // Younger transaction (larger id) requesting a held row dies.
  EXPECT_TRUE(lm.LockRow(2, 1, 42).IsAborted());
  EXPECT_EQ(lm.stats().die_aborts, 1u);
  lm.ReleaseAll(1);
  EXPECT_TRUE(lm.LockRow(2, 1, 42).ok());
  lm.ReleaseAll(2);
}

TEST(LockManagerTest, OlderWaitsForYounger) {
  LockManager lm;
  ASSERT_TRUE(lm.LockRow(5, 1, 7).ok());

  std::atomic<bool> granted{false};
  std::thread older([&] {
    // Txn 2 is older than holder 5: it must block, not die.
    EXPECT_TRUE(lm.LockRow(2, 1, 7).ok());
    granted = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(granted.load());
  lm.ReleaseAll(5);
  older.join();
  EXPECT_TRUE(granted.load());
  EXPECT_GE(lm.stats().waits, 1u);
  lm.ReleaseAll(2);
}

TEST(LockManagerTest, DistinctKeysDoNotConflict) {
  LockManager lm;
  EXPECT_TRUE(lm.LockRow(1, 1, 5).ok());
  EXPECT_TRUE(lm.LockRow(2, 1, 6).ok());
  EXPECT_TRUE(lm.LockRow(3, 2, 5).ok());  // same row id, other table
  for (uint64_t t = 1; t <= 3; ++t) lm.ReleaseAll(t);
}

TEST(LockManagerTest, MutualExclusionUnderContention) {
  LockManager lm;
  int counter = 0;
  std::atomic<uint64_t> next_id{1};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        // Retry loop: wait-die victims restart with a fresh (younger) id,
        // as a real transaction restart would.
        for (;;) {
          const uint64_t id = next_id.fetch_add(1);
          if (lm.LockRow(id, 1, 1).ok()) {
            ++counter;  // protected by the row lock
            lm.ReleaseAll(id);
            break;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, 800);
}

// --- TransactionManager ------------------------------------------------------------

class TxnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/idb_txn_test";
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
    ASSERT_TRUE(CreateDirs(dir_).ok());
    keys_ = std::make_unique<KeyManager>(dir_ + "/keystore");
    ASSERT_TRUE(keys_->Open().ok());
    wal_ = std::make_unique<WalManager>(dir_ + "/wal", WalOptions{},
                                        keys_.get());
    ASSERT_TRUE(wal_->Open().ok());
    tm_ = std::make_unique<TransactionManager>(&locks_, wal_.get());
  }
  void TearDown() override { RemoveDirRecursive(dir_).ok(); }

  WalRecord InsertRecord(RowId row) {
    WalRecord record;
    record.type = WalRecordType::kInsert;
    record.table = 1;
    record.row_id = row;
    record.stable = {Value::Int64(static_cast<int64_t>(row))};
    return record;
  }

  /// A fresh (younger) transaction locks the row at once: wait-die would
  /// abort it if any transaction still held the row.
  void ExpectRowFree(TableId table, RowId row) {
    auto other = tm_->Begin();
    EXPECT_TRUE(other->LockRow(table, row).ok());
    EXPECT_TRUE(tm_->Commit(other.get()).ok());
  }

  std::string dir_;
  std::unique_ptr<KeyManager> keys_;
  std::unique_ptr<WalManager> wal_;
  LockManager locks_;
  std::unique_ptr<TransactionManager> tm_;
};

TEST_F(TxnTest, CommitAppliesOpsInOrderAndLogs) {
  auto txn = tm_->Begin();
  std::vector<int> applied;
  txn->AddOp(InsertRecord(1), [&] {
    applied.push_back(1);
    return Status::OK();
  });
  txn->AddOp(InsertRecord(2), [&] {
    applied.push_back(2);
    return Status::OK();
  });
  ASSERT_TRUE(txn->LockRow(1, 1).ok());
  ASSERT_TRUE(tm_->Commit(txn.get()).ok());
  EXPECT_EQ(txn->state(), TxnState::kCommitted);
  EXPECT_EQ(applied, (std::vector<int>{1, 2}));
  ExpectRowFree(1, 1);

  // WAL contains the two ops followed by a COMMIT with the txn id.
  std::vector<WalRecordType> types;
  uint64_t commit_txn = 0;
  ASSERT_TRUE(wal_->Replay(0, [&](const WalRecord& r, Lsn) {
                   types.push_back(r.type);
                   if (r.type == WalRecordType::kCommit) commit_txn = r.txn_id;
                   return Status::OK();
                 }).ok());
  EXPECT_EQ(types, (std::vector<WalRecordType>{WalRecordType::kInsert,
                                               WalRecordType::kInsert,
                                               WalRecordType::kCommit}));
  EXPECT_EQ(commit_txn, txn->id());
}

TEST_F(TxnTest, AbortDropsOpsAndLogsNothing) {
  auto txn = tm_->Begin();
  bool applied = false;
  txn->AddOp(InsertRecord(1), [&] {
    applied = true;
    return Status::OK();
  });
  ASSERT_TRUE(txn->LockRow(1, 1).ok());
  tm_->Abort(txn.get());
  EXPECT_EQ(txn->state(), TxnState::kAborted);
  EXPECT_FALSE(applied);
  ExpectRowFree(1, 1);
  size_t records = 0;
  ASSERT_TRUE(wal_->Replay(0, [&](const WalRecord&, Lsn) {
                   ++records;
                   return Status::OK();
                 }).ok());
  EXPECT_EQ(records, 0u);
  EXPECT_EQ(tm_->stats().aborted, 1u);
}

TEST_F(TxnTest, ReadOnlyCommitWritesNoWal) {
  auto txn = tm_->Begin();
  EXPECT_TRUE(txn->read_only());
  ASSERT_TRUE(tm_->Commit(txn.get()).ok());
  EXPECT_EQ(wal_->stats().records_appended, 0u);
}

TEST_F(TxnTest, FailedApplyEndsTxnAndReleasesLocks) {
  // The apply runs after the WAL commit; an I/O error there must still end
  // the transaction, or its row lock would block every later writer.
  auto txn = tm_->Begin();
  ASSERT_TRUE(txn->LockRow(1, 1).ok());
  txn->AddOp(InsertRecord(1), [] { return Status::IOError("apply failed"); });
  const Status committed = tm_->Commit(txn.get());
  EXPECT_TRUE(committed.IsIOError()) << committed.ToString();
  EXPECT_NE(txn->state(), TxnState::kActive);
  ExpectRowFree(1, 1);
}

TEST_F(TxnTest, TxnIdsAreMonotone) {
  auto t1 = tm_->Begin();
  auto t2 = tm_->Begin();
  auto t3 = tm_->Begin();
  EXPECT_LT(t1->id(), t2->id());
  EXPECT_LT(t2->id(), t3->id());
  tm_->Abort(t1.get());
  tm_->Abort(t2.get());
  tm_->Abort(t3.get());
}

TEST_F(TxnTest, TwoPassRecoveryIgnoresUncommitted) {
  // Simulate the recovery protocol: a committed txn and an uncommitted one
  // both reach the log (the latter without its COMMIT record, as if the
  // crash hit between op logging and commit).
  auto committed = tm_->Begin();
  committed->AddOp(InsertRecord(1), [] { return Status::OK(); });
  ASSERT_TRUE(tm_->Commit(committed.get()).ok());

  WalRecord orphan = InsertRecord(2);
  orphan.txn_id = 999;
  ASSERT_TRUE(wal_->Append(orphan, true).ok());

  // Pass 1: committed set. Pass 2: apply filter.
  std::set<uint64_t> committed_ids;
  ASSERT_TRUE(wal_->Replay(0, [&](const WalRecord& r, Lsn) {
                   if (r.type == WalRecordType::kCommit) {
                     committed_ids.insert(r.txn_id);
                   }
                   return Status::OK();
                 }).ok());
  std::vector<RowId> redone;
  ASSERT_TRUE(wal_->Replay(0, [&](const WalRecord& r, Lsn) {
                   if (r.type == WalRecordType::kInsert &&
                       committed_ids.count(r.txn_id) != 0) {
                     redone.push_back(r.row_id);
                   }
                   return Status::OK();
                 }).ok());
  EXPECT_EQ(redone, (std::vector<RowId>{1}));
}

}  // namespace
}  // namespace instantdb
