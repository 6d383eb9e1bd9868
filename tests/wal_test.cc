#include <algorithm>
#include <cstdlib>
#include <vector>

#include "common/strings.h"
#include "forensic.h"
#include "gtest/gtest.h"
#include "storage/key_manager.h"
#include "util/file.h"
#include "wal/log_record.h"
#include "wal/wal_manager.h"

namespace instantdb {
namespace {

WalRecord MakeInsert(TableId table, RowId row, Micros t,
                     const std::string& secret) {
  WalRecord record;
  record.type = WalRecordType::kInsert;
  record.txn_id = 7;
  record.table = table;
  record.row_id = row;
  record.insert_time = t;
  record.stable = {Value::Int64(static_cast<int64_t>(row)),
                   Value::String("donor")};
  record.degradable = {Value::String(secret), Value::Int64(2000)};
  return record;
}

/// Appends one record as its own group append; returns its LSN.
Result<Lsn> Append(WalManager* wal, const WalRecord& record, bool sync) {
  return wal->AppendBatch({&record}, sync);
}

class WalTest : public ::testing::TestWithParam<WalPrivacyMode> {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/idb_wal_test";
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
    ASSERT_TRUE(CreateDirs(dir_).ok());
    keys_ = std::make_unique<KeyManager>(dir_ + "/keystore");
    ASSERT_TRUE(keys_->Open().ok());
  }
  void TearDown() override { RemoveDirRecursive(dir_).ok(); }

  WalOptions MakeOptions() {
    WalOptions options;
    options.privacy_mode = GetParam();
    options.segment_bytes = 512;  // tiny segments to exercise rollover
    options.epoch_micros = kMicrosPerHour;
    return options;
  }

  std::unique_ptr<WalManager> MakeWal() {
    return std::make_unique<WalManager>(dir_ + "/wal", MakeOptions(),
                                        keys_.get());
  }

  /// Copies of `needle` in the files under the WAL dir.
  size_t WalCopies(const std::string& needle) {
    return CopiesUnder(dir_ + "/wal", needle);
  }

  std::string dir_;
  std::unique_ptr<KeyManager> keys_;
};

TEST_P(WalTest, AppendAndReplayRoundTrip) {
  auto wal = MakeWal();
  ASSERT_TRUE(wal->Open().ok());
  std::vector<Lsn> lsns;
  for (RowId r = 1; r <= 20; ++r) {
    auto lsn = Append(
        wal.get(),
        MakeInsert(1, r, r * kMicrosPerMinute,
                   StringPrintf("addr-%llu",
                                static_cast<unsigned long long>(r))),
        false);
    ASSERT_TRUE(lsn.ok());
    lsns.push_back(*lsn);
  }
  ASSERT_TRUE(wal->Sync().ok());
  EXPECT_TRUE(std::is_sorted(lsns.begin(), lsns.end()));

  std::vector<WalRecord> seen;
  ASSERT_TRUE(wal->Replay(0, [&](const WalRecord& record, Lsn) {
                   seen.push_back(record);
                   return Status::OK();
                 }).ok());
  ASSERT_EQ(seen.size(), 20u);
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].row_id, i + 1);
    ASSERT_FALSE(seen[i].degradable_unavailable);
    ASSERT_EQ(seen[i].degradable.size(), 2u);
    EXPECT_EQ(seen[i].degradable[0],
              Value::String(StringPrintf("addr-%llu",
                                         static_cast<unsigned long long>(i + 1))));
  }
}

TEST_P(WalTest, ReplayFromMidpoint) {
  auto wal = MakeWal();
  ASSERT_TRUE(wal->Open().ok());
  Lsn mid = 0;
  for (RowId r = 1; r <= 10; ++r) {
    auto lsn = Append(wal.get(), MakeInsert(1, r, 0, "x"), false);
    ASSERT_TRUE(lsn.ok());
    if (r == 6) mid = *lsn;
  }
  size_t count = 0;
  RowId first = 0;
  ASSERT_TRUE(wal->Replay(mid, [&](const WalRecord& record, Lsn) {
                   if (count++ == 0) first = record.row_id;
                   return Status::OK();
                 }).ok());
  EXPECT_EQ(count, 5u);
  EXPECT_EQ(first, 6u);
}

TEST_P(WalTest, ReopenResumesAppendingAfterTornTail) {
  Lsn end_before;
  {
    auto wal = MakeWal();
    ASSERT_TRUE(wal->Open().ok());
    for (RowId r = 1; r <= 5; ++r) {
      ASSERT_TRUE(
          Append(wal.get(), MakeInsert(1, r, 0, "secret"), false).ok());
    }
    ASSERT_TRUE(wal->Sync().ok());
    end_before = wal->next_lsn();
  }
  // Corrupt the tail: append garbage that looks like a partial frame.
  {
    auto names = ListDir(dir_ + "/wal");
    ASSERT_TRUE(names.ok());
    std::string last;
    for (const auto& name : *names) {
      if (EndsWith(name, ".log") && name > last) last = name;
    }
    ASSERT_FALSE(last.empty());
    auto f = NewAppendableFile(dir_ + "/wal/" + last);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append("\xde\xad\xbe\xef partial").ok());
    ASSERT_TRUE((*f)->Close().ok());
  }
  auto wal = MakeWal();
  ASSERT_TRUE(wal->Open().ok());
  EXPECT_EQ(wal->next_lsn(), end_before);  // torn bytes dropped
  size_t count = 0;
  ASSERT_TRUE(wal->Replay(0, [&](const WalRecord&, Lsn) {
                   ++count;
                   return Status::OK();
                 }).ok());
  EXPECT_EQ(count, 5u);
  // New appends still replay correctly.
  ASSERT_TRUE(Append(wal.get(), MakeInsert(1, 6, 0, "after"), true).ok());
  count = 0;
  ASSERT_TRUE(wal->Replay(0, [&](const WalRecord&, Lsn) {
                   ++count;
                   return Status::OK();
                 }).ok());
  EXPECT_EQ(count, 6u);
}

TEST_P(WalTest, CheckpointRetiresSegments) {
  auto wal = MakeWal();
  ASSERT_TRUE(wal->Open().ok());
  for (RowId r = 1; r <= 50; ++r) {
    ASSERT_TRUE(
        Append(wal.get(), MakeInsert(1, r, 0, "payload-payload"), false).ok());
  }
  ASSERT_GT(wal->stats().segments_created, 2u);
  // Quiescent checkpoint: covers everything logged so far.
  auto checkpointed = wal->LogCheckpoint();
  ASSERT_TRUE(checkpointed.ok());
  const Lsn ckpt = *checkpointed;
  EXPECT_GT(wal->stats().segments_retired, 0u);
  auto read_back = wal->ReadCheckpointLsn();
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(*read_back, ckpt);
  // Replay from the checkpoint sees nothing: everything before it (incl.
  // the checkpoint record) is covered, and its segment was rotated out.
  size_t count = 0;
  ASSERT_TRUE(wal->Replay(ckpt, [&](const WalRecord&, Lsn) {
                   ++count;
                   return Status::OK();
                 }).ok());
  EXPECT_EQ(count, 0u);
  // New appends after the checkpoint do replay.
  ASSERT_TRUE(
      Append(wal.get(), MakeInsert(1, 99, 0, "post-ckpt"), true).ok());
  ASSERT_TRUE(wal->Replay(ckpt, [&](const WalRecord& record, Lsn) {
                   ++count;
                   EXPECT_EQ(record.row_id, 99u);
                   return Status::OK();
                 }).ok());
  EXPECT_EQ(count, 1u);
}

TEST_P(WalTest, DegradeStepAndDeleteRecordsRoundTrip) {
  auto wal = MakeWal();
  ASSERT_TRUE(wal->Open().ok());
  WalRecord step;
  step.type = WalRecordType::kDegradeStep;
  step.table = 3;
  step.column = 2;
  step.from_phase = 0;
  step.to_phase = 1;
  step.up_to_row_id = 17;
  step.entries = {{15, 100, Value::String("Paris")},
                  {17, 120, Value::String("Aix")}};
  ASSERT_TRUE(Append(wal.get(), step, false).ok());

  WalRecord del;
  del.type = WalRecordType::kDelete;
  del.table = 3;
  del.row_id = 15;
  ASSERT_TRUE(Append(wal.get(), del, false).ok());

  std::vector<WalRecord> seen;
  ASSERT_TRUE(wal->Replay(0, [&](const WalRecord& record, Lsn) {
                   seen.push_back(record);
                   return Status::OK();
                 }).ok());
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].type, WalRecordType::kDegradeStep);
  EXPECT_EQ(seen[0].column, 2);
  EXPECT_EQ(seen[0].up_to_row_id, 17u);
  ASSERT_EQ(seen[0].entries.size(), 2u);
  EXPECT_EQ(seen[0].entries[1].value, Value::String("Aix"));
  EXPECT_EQ(seen[1].type, WalRecordType::kDelete);
  EXPECT_EQ(seen[1].row_id, 15u);
}

TEST_P(WalTest, AccurateResidueMatchesPrivacyMode) {
  const std::string secret = "SECRET-STREET-ADDRESS-1234";
  auto wal = MakeWal();
  ASSERT_TRUE(wal->Open().ok());
  for (RowId r = 1; r <= 40; ++r) {
    ASSERT_TRUE(Append(wal.get(), MakeInsert(1, r, 0, secret), false).ok());
  }
  ASSERT_TRUE(wal->Sync().ok());

  if (GetParam() == WalPrivacyMode::kEncryptedEpoch) {
    // Even before retirement, the accurate value never hits the disk in
    // the clear.
    EXPECT_EQ(WalCopies(secret), 0u);
  } else {
    EXPECT_GT(WalCopies(secret), 0u);
  }

  ASSERT_TRUE(wal->LogCheckpoint().ok());
  const size_t copies = WalCopies(secret);
  switch (GetParam()) {
    case WalPrivacyMode::kPlain:
      // Recycled segments keep the accurate values around — the unsafe
      // baseline the paper warns about.
      EXPECT_GT(copies, 0u);
      break;
    case WalPrivacyMode::kScrub:
    case WalPrivacyMode::kEncryptedEpoch:
      EXPECT_EQ(copies, 0u);
      break;
  }
}

TEST_P(WalTest, EpochKeyDestructionMakesInsertsUnreadable) {
  if (GetParam() != WalPrivacyMode::kEncryptedEpoch) GTEST_SKIP();
  auto wal = MakeWal();
  ASSERT_TRUE(wal->Open().ok());
  // Epoch 0: t < 1h. Epoch 1: 1h <= t < 2h.
  ASSERT_TRUE(
      Append(wal.get(), MakeInsert(1, 1, 0, "old-epoch-addr"), false).ok());
  ASSERT_TRUE(Append(wal.get(),
                     MakeInsert(1, 2, kMicrosPerHour + 1, "new-epoch-addr"),
                     false)
                  .ok());
  ASSERT_TRUE(wal->Sync().ok());

  // Destroy epoch 0 (everything before 1h is fully degraded).
  ASSERT_TRUE(wal->DestroyEpochKeysThrough(1, kMicrosPerHour).ok());
  EXPECT_EQ(wal->stats().epoch_keys_destroyed, 1u);

  std::vector<WalRecord> seen;
  ASSERT_TRUE(wal->Replay(0, [&](const WalRecord& record, Lsn) {
                   seen.push_back(record);
                   return Status::OK();
                 }).ok());
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_TRUE(seen[0].degradable_unavailable);
  EXPECT_TRUE(seen[0].degradable.empty());
  EXPECT_FALSE(seen[1].degradable_unavailable);
  ASSERT_EQ(seen[1].degradable.size(), 2u);
  EXPECT_EQ(seen[1].degradable[0], Value::String("new-epoch-addr"));
  // Idempotent: destroying again is a no-op.
  ASSERT_TRUE(wal->DestroyEpochKeysThrough(1, kMicrosPerHour).ok());
  EXPECT_EQ(wal->stats().epoch_keys_destroyed, 1u);
}

TEST_P(WalTest, CorruptFrameStopsReplayCleanly) {
  Lsn logical_end = 0;
  auto wal = MakeWal();
  ASSERT_TRUE(wal->Open().ok());
  for (RowId r = 1; r <= 3; ++r) {
    ASSERT_TRUE(Append(wal.get(), MakeInsert(1, r, 0, "v"), false).ok());
  }
  ASSERT_TRUE(wal->Sync().ok());
  logical_end = wal->next_lsn();
  // Flip a byte inside the last record's body (segments are preallocated,
  // so the physical tail is zeros — corrupt at the *logical* end): CRC
  // rejects it and replay treats it as the end of the log.
  auto names = ListDir(dir_ + "/wal");
  ASSERT_TRUE(names.ok());
  for (const auto& name : *names) {
    if (!EndsWith(name, ".log")) continue;
    const std::string path = dir_ + "/wal/" + name;
    auto contents = ReadFileToString(path);
    ASSERT_TRUE(contents.ok());
    if (contents->size() < 20) continue;
    std::string mutated = *contents;
    const size_t start =
        std::strtoull(name.c_str() + 4, nullptr, 16);  // wal_<start-lsn>.log
    const size_t tail =
        logical_end > start ? std::min<size_t>(logical_end - start,
                                               mutated.size())
                            : mutated.size();
    if (tail < 20) continue;
    mutated[tail - 3] ^= 0x5A;
    ASSERT_TRUE(WriteStringToFile(path, mutated, false).ok());
  }
  auto reopened = MakeWal();
  ASSERT_TRUE(reopened->Open().ok());
  size_t count = 0;
  ASSERT_TRUE(reopened->Replay(0, [&](const WalRecord&, Lsn) {
                   ++count;
                   return Status::OK();
                 }).ok());
  EXPECT_LT(count, 3u);
}

INSTANTIATE_TEST_SUITE_P(AllPrivacyModes, WalTest,
                         ::testing::Values(WalPrivacyMode::kPlain,
                                           WalPrivacyMode::kScrub,
                                           WalPrivacyMode::kEncryptedEpoch),
                         [](const auto& info) {
                           switch (info.param) {
                             case WalPrivacyMode::kPlain:
                               return "Plain";
                             case WalPrivacyMode::kScrub:
                               return "Scrub";
                             case WalPrivacyMode::kEncryptedEpoch:
                               return "EncryptedEpoch";
                           }
                           return "?";
                         });

}  // namespace
}  // namespace instantdb
