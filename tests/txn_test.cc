#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "storage/key_manager.h"
#include "txn/transaction.h"
#include "util/file.h"

namespace instantdb {
namespace {

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
    // The apply seam: runs `on_apply_`, records the row id and txn id of
    // every record applied, and fails the applies whose (1-based) call
    // number is in `fail_calls_`.
    tm_ = std::make_unique<TransactionManager>(
        wal_.get(), [this](const WalRecord& record) {
          if (on_apply_) on_apply_(record);
          std::lock_guard<std::mutex> lock(applied_mu_);
          applied_.push_back(record.row_id);
          applied_txns_.push_back(record.txn_id);
          return fail_calls_.count(applied_.size()) != 0
                     ? Status::IOError("apply failed")
                     : Status::OK();
        });
  }
  void TearDown() override { RemoveDirRecursive(dir_).ok(); }

  WalRecord InsertRecord(RowId row) {
    return RowRecord(WalRecordType::kInsert, row);
  }

  WalRecord RowRecord(WalRecordType type, RowId row) {
    WalRecord record;
    record.type = type;
    record.table = 1;
    record.row_id = row;
    if (type != WalRecordType::kDelete) {
      record.stable = {Value::Int64(static_cast<int64_t>(row))};
    }
    return record;
  }

  /// Commits `first` on another thread and, once its apply has started,
  /// `second` on this one. The first commit's apply holds until the second
  /// commit returns or `hold` passes. Returns whether the second commit
  /// returned while the first was still applying.
  bool CommitWhileFirstApplies(Transaction* first, Transaction* second,
                               std::chrono::milliseconds hold) {
    std::mutex mu;
    std::condition_variable cv;
    bool first_applying = false;
    bool second_returned = false;
    bool overtaken = false;
    on_apply_ = [&, id = first->id()](const WalRecord& record) {
      if (record.txn_id != id) return;
      std::unique_lock<std::mutex> lock(mu);
      first_applying = true;
      cv.notify_all();
      cv.wait_for(lock, hold, [&] { return second_returned; });
      overtaken = second_returned;
    };
    std::thread committer([&] { EXPECT_TRUE(tm_->Commit(first).ok()); });
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return first_applying; });
    }
    EXPECT_TRUE(tm_->Commit(second).ok());
    {
      std::lock_guard<std::mutex> lock(mu);
      second_returned = true;
    }
    cv.notify_all();
    committer.join();
    on_apply_ = nullptr;
    return overtaken;
  }

  /// Txn ids of the logged data records, in log order.
  std::vector<uint64_t> LoggedTxns() {
    std::vector<uint64_t> txns;
    EXPECT_TRUE(wal_->Replay(0, [&](const WalRecord& r, Lsn) {
                       if (r.type != WalRecordType::kCommit) {
                         txns.push_back(r.txn_id);
                       }
                       return Status::OK();
                     }).ok());
    return txns;
  }

  std::string dir_;
  std::unique_ptr<KeyManager> keys_;
  std::unique_ptr<WalManager> wal_;
  std::unique_ptr<TransactionManager> tm_;
  std::function<void(const WalRecord&)> on_apply_;
  std::mutex applied_mu_;
  std::vector<RowId> applied_;
  std::vector<uint64_t> applied_txns_;
  std::set<size_t> fail_calls_;
};

TEST_F(TxnTest, CommitAppliesOpsInOrderAndLogs) {
  auto txn = tm_->Begin();
  txn->AddOp(InsertRecord(1));
  txn->AddOp(InsertRecord(2));
  ASSERT_TRUE(tm_->Commit(txn.get()).ok());
  EXPECT_EQ(txn->state(), TxnState::kCommitted);
  EXPECT_EQ(applied_, (std::vector<RowId>{1, 2}));

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
  txn->AddOp(InsertRecord(1));
  tm_->Abort(txn.get());
  EXPECT_EQ(txn->state(), TxnState::kAborted);
  EXPECT_TRUE(applied_.empty());
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

TEST_F(TxnTest, FailedApplyEndsTxn) {
  // The apply runs after the WAL commit; an I/O error there that outlasts
  // the retry must still end the transaction.
  auto txn = tm_->Begin();
  txn->AddOp(InsertRecord(1));
  fail_calls_ = {1, 2};
  const Status committed = tm_->Commit(txn.get());
  EXPECT_TRUE(committed.IsIOError()) << committed.ToString();
  EXPECT_EQ(applied_, (std::vector<RowId>{1, 1}));  // the apply and its retry
  EXPECT_NE(txn->state(), TxnState::kActive);
}

TEST_F(TxnTest, StableUpdatesOfOneRowApplyInLogOrder) {
  // Two stable updates of row 1 do not commute: the second may not apply
  // before the first, or redo (log order) would diverge from the live row.
  auto first = tm_->Begin();
  auto second = tm_->Begin();
  first->AddOp(RowRecord(WalRecordType::kUpdateStable, 1));
  second->AddOp(RowRecord(WalRecordType::kUpdateStable, 1));
  EXPECT_FALSE(CommitWhileFirstApplies(first.get(), second.get(),
                                       std::chrono::milliseconds(200)));
  EXPECT_EQ(LoggedTxns(), (std::vector<uint64_t>{first->id(), second->id()}));
  EXPECT_EQ(applied_txns_, LoggedTxns());
}

TEST_F(TxnTest, DeletesDoNotWaitForEarlierWritersOfTheRow) {
  // A delete commutes with a stable update of its row, so it commits while
  // the update is still applying.
  auto first = tm_->Begin();
  auto second = tm_->Begin();
  first->AddOp(RowRecord(WalRecordType::kUpdateStable, 1));
  second->AddOp(RowRecord(WalRecordType::kDelete, 1));
  EXPECT_TRUE(CommitWhileFirstApplies(first.get(), second.get(),
                                      std::chrono::seconds(30)));
  EXPECT_EQ(LoggedTxns(), (std::vector<uint64_t>{first->id(), second->id()}));
  EXPECT_EQ(applied_txns_, (std::vector<uint64_t>{second->id(), first->id()}));
  EXPECT_EQ(tm_->stats().committed, 2u);
}

TEST_F(TxnTest, FailedApplyIsRetriedOnceFromTheFailingRecord) {
  // Record 2's first apply fails: the commit re-runs it and the records
  // after it (never the ones before), and then succeeds.
  auto txn = tm_->Begin();
  txn->AddOp(InsertRecord(1));
  txn->AddOp(InsertRecord(2));
  txn->AddOp(InsertRecord(3));
  fail_calls_ = {2};
  ASSERT_TRUE(tm_->Commit(txn.get()).ok());
  EXPECT_EQ(txn->state(), TxnState::kCommitted);
  EXPECT_EQ(applied_, (std::vector<RowId>{1, 2, 2, 3}));
}

TEST_F(TxnTest, CheckpointBoundStaysAtAPendingCommitUntilItsRedoSucceeds) {
  auto before = tm_->Begin();
  before->AddOp(InsertRecord(1));
  ASSERT_TRUE(tm_->Commit(before.get()).ok());
  const Lsn first = wal_->next_lsn();
  // Record 2's apply and its retry fail: the commit is pending.
  auto failed = tm_->Begin();
  failed->AddOp(InsertRecord(2));
  failed->AddOp(InsertRecord(3));
  fail_calls_ = {2, 3};
  EXPECT_TRUE(tm_->Commit(failed.get()).IsIOError());
  EXPECT_EQ(tm_->stats().commits_pending, 1u);
  auto after = tm_->Begin();
  after->AddOp(InsertRecord(4));
  ASSERT_TRUE(tm_->Commit(after.get()).ok());
  EXPECT_EQ(applied_, (std::vector<RowId>{1, 2, 2, 4}));

  // The checkpoint's redo starts at the pending commit and fails on row 2
  // again: the bound stays at that commit's first record.
  applied_.clear();
  fail_calls_ = {1};
  EXPECT_EQ(tm_->CheckpointBeginLsn(), first);
  EXPECT_EQ(applied_, (std::vector<RowId>{2}));
  EXPECT_EQ(tm_->stats().commits_pending, 1u);

  // The redo succeeds in log order, every later commit included, and the
  // bound moves to the log end.
  applied_.clear();
  fail_calls_.clear();
  EXPECT_EQ(tm_->CheckpointBeginLsn(), wal_->next_lsn());
  EXPECT_EQ(applied_, (std::vector<RowId>{2, 3, 4}));
  EXPECT_EQ(tm_->stats().commits_pending, 0u);
  EXPECT_EQ(tm_->stats().commits_reapplied, 1u);
  applied_.clear();
  EXPECT_EQ(tm_->CheckpointBeginLsn(), wal_->next_lsn());
  EXPECT_TRUE(applied_.empty());
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
  committed->AddOp(InsertRecord(1));
  ASSERT_TRUE(tm_->Commit(committed.get()).ok());

  WalRecord orphan = InsertRecord(2);
  orphan.txn_id = 999;
  ASSERT_TRUE(wal_->AppendBatch({&orphan}, true).ok());

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
