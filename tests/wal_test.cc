#include <algorithm>
#include <cstdlib>
#include <map>
#include <vector>

#include "common/strings.h"
#include "forensic.h"
#include "gtest/gtest.h"
#include "storage/key_manager.h"
#include "util/coding.h"
#include "util/crc32c.h"
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

  /// Every file under the WAL dir, keyed by path relative to it.
  std::map<std::string, std::string> WalFiles() {
    return FilesUnder(dir_ + "/wal");
  }

  /// Copies of `needle` in the files under the WAL dir.
  size_t WalCopies(const std::string& needle) {
    return CopiesUnder(dir_ + "/wal", needle);
  }

  /// Hand-builds what a build that sharded the log over two streams left
  /// behind: a `STREAMS` count, stream k's segments in `s<k>/`, and a
  /// CHECKPOINT manifest with one replay position per stream. Both streams
  /// hold inserts of `needle` below their position. Stream 0 retired its
  /// covered segments (kPlain keeps them as `*.recycled`); stream 1 had
  /// not got that far. `dirty` adds an insert past stream 1's position.
  /// Returns the larger stream end.
  Lsn BuildShardedDir(const std::string& needle, bool dirty) {
    const std::string wal_dir = dir_ + "/wal";
    EXPECT_TRUE(CreateDirs(wal_dir).ok());
    EXPECT_TRUE(WriteStringToFile(wal_dir + "/STREAMS", "2", true).ok());
    std::string body;
    PutVarint32(&body, 2);
    Lsn max_end = 0;
    for (uint32_t k = 0; k < 2; ++k) {
      WalStream stream(wal_dir + "/s" + std::to_string(k), MakeOptions(),
                       keys_.get());
      EXPECT_TRUE(stream.Open().ok());
      for (RowId r = 1; r <= (k == 0 ? 20u : 6u); ++r) {
        EXPECT_TRUE(stream.Append(MakeInsert(1, 2 * r + k, 0, needle), false)
                        .ok());
      }
      auto position = stream.BeginCheckpoint(WalStream::kLogEnd);
      EXPECT_TRUE(position.ok());
      PutVarint64(&body, *position);
      if (k == 0) EXPECT_TRUE(stream.RetireThrough(*position).ok());
      if (k == 1 && dirty) {
        EXPECT_TRUE(stream.Append(MakeInsert(1, 99, 0, needle), true).ok());
      }
      max_end = std::max(max_end, stream.next_lsn());
    }
    std::string manifest;
    PutFixed32(&manifest,
               crc32c::Mask(crc32c::Value(body.data(), body.size())));
    manifest += body;
    EXPECT_TRUE(
        WriteStringToFile(wal_dir + "/CHECKPOINT", manifest, true).ok());
    return max_end;
  }

  std::string dir_;
  std::unique_ptr<KeyManager> keys_;
};

TEST_P(WalTest, AppendAndReplayRoundTrip) {
  auto wal = MakeWal();
  ASSERT_TRUE(wal->Open().ok());
  std::vector<Lsn> lsns;
  for (RowId r = 1; r <= 20; ++r) {
    auto lsn = wal->Append(MakeInsert(1, r, r * kMicrosPerMinute,
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
    auto lsn = wal->Append(MakeInsert(1, r, 0, "x"), false);
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
      ASSERT_TRUE(wal->Append(MakeInsert(1, r, 0, "secret"), false).ok());
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
  ASSERT_TRUE(wal->Append(MakeInsert(1, 6, 0, "after"), true).ok());
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
    ASSERT_TRUE(wal->Append(MakeInsert(1, r, 0, "payload-payload"), false).ok());
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
  ASSERT_TRUE(wal->Append(MakeInsert(1, 99, 0, "post-ckpt"), true).ok());
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
  ASSERT_TRUE(wal->Append(step, false).ok());

  WalRecord del;
  del.type = WalRecordType::kDelete;
  del.table = 3;
  del.row_id = 15;
  ASSERT_TRUE(wal->Append(del, false).ok());

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
    ASSERT_TRUE(wal->Append(MakeInsert(1, r, 0, secret), false).ok());
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
  ASSERT_TRUE(wal->Append(MakeInsert(1, 1, 0, "old-epoch-addr"), false).ok());
  ASSERT_TRUE(wal
                  ->Append(MakeInsert(1, 2, kMicrosPerHour + 1,
                                      "new-epoch-addr"),
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
    ASSERT_TRUE(wal->Append(MakeInsert(1, r, 0, "v"), false).ok());
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

TEST_P(WalTest, CleanShardedDirectoryConvertsOnOpen) {
  const std::string needle = "SHARDED-ERA-ADDRESS-0042";
  const Lsn old_end = BuildShardedDir(needle, /*dirty=*/false);
  const auto before = WalFiles();
  if (GetParam() != WalPrivacyMode::kEncryptedEpoch) {
    ASSERT_GT(WalCopies(needle), 0u);
  }
  if (GetParam() == WalPrivacyMode::kPlain) {
    ASSERT_TRUE(std::any_of(before.begin(), before.end(), [](const auto& f) {
      return EndsWith(f.first, ".recycled");
    }));
  }

  auto wal = MakeWal();
  const Status opened = wal->Open();
  ASSERT_TRUE(opened.ok()) << opened.ToString();
  EXPECT_FALSE(FileExists(dir_ + "/wal/STREAMS"));
  EXPECT_FALSE(FileExists(dir_ + "/wal/s0"));
  EXPECT_FALSE(FileExists(dir_ + "/wal/s1"));
  // Every legacy copy is scrubbed, whatever the privacy mode — kPlain's
  // recycled segment included.
  EXPECT_EQ(WalCopies(needle), 0u);

  // The single log starts at or past every old stream's end (old records
  // sat below it), so no (epoch key, nonce) pair repeats.
  auto checkpoint = wal->ReadCheckpointLsn();
  ASSERT_TRUE(checkpoint.ok());
  EXPECT_GE(*checkpoint, old_end);
  auto lsn = wal->Append(MakeInsert(1, 500, 0, "fresh"), true);
  ASSERT_TRUE(lsn.ok());
  EXPECT_GE(*lsn, old_end);

  // Converted once: a reopen is an ordinary single-stream open.
  wal = MakeWal();
  ASSERT_TRUE(wal->Open().ok());
  std::vector<WalRecord> seen;
  ASSERT_TRUE(wal->Replay(*checkpoint, [&](const WalRecord& record, Lsn) {
                   seen.push_back(record);
                   return Status::OK();
                 }).ok());
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].row_id, 500u);
  ASSERT_EQ(seen[0].degradable.size(), 2u);
  EXPECT_EQ(seen[0].degradable[0], Value::String("fresh"));
}

TEST_P(WalTest, UncleanShardedDirectoryIsRefusedUntouched) {
  BuildShardedDir("SHARDED-ERA-ADDRESS-0042", /*dirty=*/true);
  const auto before = WalFiles();
  auto wal = MakeWal();
  const Status opened = wal->Open();
  EXPECT_TRUE(opened.IsNotSupported()) << opened.ToString();
  EXPECT_NE(opened.ToString().find("earlier build"), std::string::npos)
      << opened.ToString();
  EXPECT_EQ(WalFiles(), before);
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
