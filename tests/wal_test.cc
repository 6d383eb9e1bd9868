#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "forensic.h"
#include "gtest/gtest.h"
#include "io/env.h"
#include "io/fault_env.h"
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

/// Appends one record as its own group append; returns its LSN.
Result<Lsn> Append(WalManager* wal, const WalRecord& record, bool sync) {
  return wal->AppendBatch({&record}, sync);
}

// --- golden bytes ------------------------------------------------------------

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (unsigned char c : bytes) {
    hex.push_back(kDigits[c >> 4]);
    hex.push_back(kDigits[c & 0xf]);
  }
  return hex;
}

/// The bytes of an even-length lowercase hex string.
std::string Unhex(const std::string& hex) {
  const auto nibble = [](char c) { return c <= '9' ? c - '0' : c - 'a' + 10; };
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(static_cast<char>(nibble(hex[i]) << 4 | nibble(hex[i + 1])));
  }
  return bytes;
}

/// The frames `[starts[i], starts[i + 1])` of the segment file at `path`.
std::vector<std::string> FramesOf(const std::string& path,
                                  const std::vector<Lsn>& starts) {
  auto raw = ReadFileToString(path);
  EXPECT_TRUE(raw.ok()) << path;
  std::vector<std::string> frames;
  for (size_t i = 0; raw.ok() && i + 1 < starts.size(); ++i) {
    frames.push_back(Hex(raw->substr(starts[i], starts[i + 1] - starts[i])));
  }
  return frames;
}

class WalGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/idb_wal_golden_test";
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
    ASSERT_TRUE(CreateDirs(dir_).ok());
  }
  void TearDown() override { RemoveDirRecursive(dir_).ok(); }

  std::string dir_;
};

// A log written by one build must replay under the next, so the encoding of
// every record type the engine writes is pinned byte for byte: the frame
// header (masked CRC32C, body length) and the body.
TEST_F(WalGoldenTest, PlaintextFramesMatchGoldenBytes) {
  KeyManager keys(dir_ + "/keystore");
  ASSERT_TRUE(keys.Open().ok());
  WalOptions options;
  options.privacy_mode = WalPrivacyMode::kPlain;  // retired bytes stay
  WalManager wal(dir_ + "/wal", options, &keys);
  ASSERT_TRUE(wal.Open().ok());

  std::vector<WalRecord> records(3);
  records[0] = MakeInsert(1, 3, 1000, "11 Rue Lepic");
  WalRecord& del = records[1];
  del.type = WalRecordType::kDelete;
  del.txn_id = 9;
  del.table = 3;
  del.row_id = 15;
  WalRecord& commit = records[2];
  commit.type = WalRecordType::kCommit;
  commit.txn_id = 9;

  std::vector<Lsn> starts;
  for (const WalRecord& record : records) {
    auto lsn = wal.AppendBatch({&record}, /*sync=*/false);
    ASSERT_TRUE(lsn.ok());
    starts.push_back(*lsn);
  }
  starts.push_back(wal.next_lsn());
  auto checkpoint = wal.LogCheckpoint(wal.next_lsn());
  ASSERT_TRUE(checkpoint.ok());
  starts.push_back(*checkpoint);  // the record ends its (rotated) segment

  const std::vector<std::string> expected = {
      // kInsert
      "d26643a02300000004070103e8070201030305646f6e6f720002030c31312052"
      "7565204c6570696301d00f",
      // kDelete
      "64e2e965040000000609030f",
      // kCommit
      "532ef4f703000000020900",
      // kCheckpoint, carrying its begin LSN: 66, the bytes above
      "9e27572d0400000008000042",
  };
  EXPECT_EQ(FramesOf(dir_ + "/wal/wal_0000000000000000.log.recycled", starts),
            expected);
}

// Degradation writes no log record and rows are never updated in place: the
// body of a format-1 degrade step (type byte 5) decodes as Corruption, like
// the other unused type bytes, a format-3 stable update's (7) included.
TEST_F(WalGoldenTest, UnusedTypeBytesDecodeAsCorruption) {
  const std::string step =
      Unhex("05080302000111020f640305506172697311780303416978");
  EXPECT_TRUE(DecodeWalRecord(step, nullptr).status().IsCorruption());
  for (const char type : {'\x01', '\x03', '\x05', '\x07', '\x09'}) {
    const std::string body = std::string(1, type) + "\x08\x03";
    EXPECT_TRUE(DecodeWalRecord(body, nullptr).status().IsCorruption())
        << static_cast<int>(type);
  }
}

// kCryptoErase seals an insert's degradable values with the key of the
// segment the frame lands in and the nonce of the record's LSN. Every
// segment gets a fresh random key, so the sealed blob is pinned once opened
// with that key; the rest of the frame is pinned byte for byte.
TEST_F(WalGoldenTest, SealedInsertMatchesGoldenBytes) {
  KeyManager keys(dir_ + "/keystore");
  ASSERT_TRUE(keys.Open().ok());
  WalOptions options;
  options.privacy_mode = WalPrivacyMode::kCryptoErase;
  WalManager wal(dir_ + "/wal", options, &keys);
  ASSERT_TRUE(wal.Open().ok());
  WalRecord commit;
  commit.type = WalRecordType::kCommit;
  commit.txn_id = 6;
  ASSERT_TRUE(wal.AppendBatch({&commit}, /*sync=*/false).ok());
  const WalRecord insert = MakeInsert(1, 3, 1000, "11 Rue Lepic");
  auto lsn = wal.AppendBatch({&insert}, /*sync=*/true);
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 11u);
  const std::vector<std::string> frames = FramesOf(
      dir_ + "/wal/wal_0000000000000000.log", {*lsn, wal.next_lsn()});
  ASSERT_EQ(frames.size(), 1u);
  std::string frame = Unhex(frames[0]);
  ASSERT_EQ(frame.size(), 44u);
  // The CRC covers the sealed body.
  EXPECT_EQ(DecodeFixed32(frame.data()),
            crc32c::Mask(crc32c::Value(frame.data() + 8, frame.size() - 8)));
  auto key = keys.Get(WalSegmentKeyId(0));
  ASSERT_TRUE(key.ok());
  ChaCha20::XorStreamAt(*key, NonceForSequence(*lsn), 0, &frame[26], 18);
  EXPECT_EQ(Hex(frame.substr(4)),
            "2400000004070103e8070201030305646f6e6f720112"
            "02030c313120527565204c6570696301d00f");
  // The sealed payload opens with the same key.
  std::vector<WalRecord> seen;
  ASSERT_TRUE(wal.Replay(*lsn, [&](const WalRecord& record, Lsn) {
                   seen.push_back(record);
                   return Status::OK();
                 }).ok());
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].degradable, insert.degradable);
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
  // Nothing is in flight: the checkpoint covers everything logged so far.
  auto checkpointed = wal->LogCheckpoint(wal->next_lsn());
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

TEST_P(WalTest, DeleteRecordRoundTrips) {
  auto wal = MakeWal();
  ASSERT_TRUE(wal->Open().ok());
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
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].type, WalRecordType::kDelete);
  EXPECT_EQ(seen[0].table, 3u);
  EXPECT_EQ(seen[0].row_id, 15u);
}

TEST_P(WalTest, AccurateResidueMatchesPrivacyMode) {
  const std::string secret = "SECRET-STREET-ADDRESS-1234";
  auto wal = MakeWal();
  ASSERT_TRUE(wal->Open().ok());
  for (RowId r = 1; r <= 40; ++r) {
    ASSERT_TRUE(Append(wal.get(), MakeInsert(1, r, 0, secret), false).ok());
  }
  ASSERT_TRUE(wal->Sync().ok());

  if (GetParam() == WalPrivacyMode::kCryptoErase) {
    // Even before retirement, the accurate value never hits the disk in
    // the clear.
    EXPECT_EQ(WalCopies(secret), 0u);
  } else {
    EXPECT_GT(WalCopies(secret), 0u);
  }

  ASSERT_TRUE(wal->LogCheckpoint(wal->next_lsn()).ok());
  const size_t copies = WalCopies(secret);
  switch (GetParam()) {
    case WalPrivacyMode::kPlain:
      // Recycled segments keep the accurate values around — the unsafe
      // baseline the paper warns about.
      EXPECT_GT(copies, 0u);
      break;
    case WalPrivacyMode::kScrub:
    case WalPrivacyMode::kCryptoErase:
      EXPECT_EQ(copies, 0u);
      break;
  }
}

// kCryptoErase: every segment file has exactly one live key from its
// creation until its retirement destroys the key and unlinks the file.
TEST_P(WalTest, RetirementDestroysTheSegmentKey) {
  if (GetParam() != WalPrivacyMode::kCryptoErase) GTEST_SKIP();
  auto wal = MakeWal();
  ASSERT_TRUE(wal->Open().ok());
  const auto segment_starts = [&] {
    std::vector<Lsn> starts;
    auto names = ListDir(dir_ + "/wal");
    EXPECT_TRUE(names.ok());
    for (const std::string& name : *names) {
      if (EndsWith(name, ".log")) {
        starts.push_back(std::strtoull(name.c_str() + 4, nullptr, 16));
      }
    }
    std::sort(starts.begin(), starts.end());
    return starts;
  };
  for (RowId r = 1; r <= 30; ++r) {
    ASSERT_TRUE(
        Append(wal.get(), MakeInsert(1, r, 0, "payload-payload"), false).ok());
  }
  const std::vector<Lsn> before = segment_starts();
  ASSERT_GT(before.size(), 2u);
  EXPECT_EQ(keys_->live_keys(), before.size());
  for (Lsn start : before) {
    EXPECT_TRUE(keys_->Get(WalSegmentKeyId(start)).ok()) << start;
  }

  ASSERT_TRUE(wal->LogCheckpoint(wal->next_lsn()).ok());
  const std::vector<Lsn> after = segment_starts();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(keys_->live_keys(), 1u);
  EXPECT_TRUE(keys_->Get(WalSegmentKeyId(after[0])).ok());
  for (Lsn start : before) {
    EXPECT_TRUE(keys_->Get(WalSegmentKeyId(start)).status().IsNotFound())
        << start;
  }
  EXPECT_EQ(wal->stats().segments_retired, before.size());
}

// A live segment's key only dies with its retirement: a sealed payload in a
// live segment whose key is gone is Corruption, never a silent gap in redo.
TEST_P(WalTest, SealedPayloadWithoutItsKeyIsCorruption) {
  if (GetParam() != WalPrivacyMode::kCryptoErase) GTEST_SKIP();
  auto wal = MakeWal();
  ASSERT_TRUE(wal->Open().ok());
  ASSERT_TRUE(Append(wal.get(), MakeInsert(1, 1, 0, "addr"), true).ok());
  ASSERT_TRUE(keys_->Destroy(WalSegmentKeyId(0)).ok());
  const Status replayed =
      wal->Replay(0, [](const WalRecord&, Lsn) { return Status::OK(); });
  EXPECT_TRUE(replayed.IsCorruption()) << replayed.ToString();
}

// A crash image that lost a rotation's unsynced records reopens with the
// fresh segment empty at the same start LSN. The segment the reopened log
// opens there gets a new key: the old one sealed the lost records at the
// same LSNs, and the medium may still hold their ciphertext.
TEST_P(WalTest, SegmentRecreatedAtTheSameLsnGetsAFreshKey) {
  if (GetParam() != WalPrivacyMode::kCryptoErase) GTEST_SKIP();
  FaultInjectionEnv fault(Env::Default());
  const std::string live = dir_ + "/live";
  const std::string image = dir_ + "/image";
  Lsn rotated_at = 0;
  ChaCha20::Key lost_key{};
  {
    KeyManager keys(live + "/keystore", &fault);
    ASSERT_TRUE(CreateDirs(live).ok());
    ASSERT_TRUE(keys.Open().ok());
    WalManager wal(live + "/wal", MakeOptions(), &keys, &fault);
    ASSERT_TRUE(wal.Open().ok());
    // Fill the first segment durably; the next append rotates into the
    // second one, and nothing syncs it.
    while (wal.next_lsn() < MakeOptions().segment_bytes) {
      ASSERT_TRUE(Append(&wal, MakeInsert(1, 1, 0, "durable"), true).ok());
    }
    ASSERT_EQ(wal.stats().segments_created, 1u);
    rotated_at = wal.next_lsn();
    ASSERT_TRUE(Append(&wal, MakeInsert(1, 2, 0, "lost"), false).ok());
    ASSERT_TRUE(Append(&wal, MakeInsert(1, 3, 0, "lost"), false).ok());
    ASSERT_EQ(wal.stats().segments_created, 2u);
    auto key = keys.Get(WalSegmentKeyId(rotated_at));
    ASSERT_TRUE(key.ok());
    lost_key = *key;
    ASSERT_TRUE(fault.SimulateCrashTo(live, image).ok());
  }
  KeyManager keys(image + "/keystore");
  ASSERT_TRUE(keys.Open().ok());
  WalManager wal(image + "/wal", MakeOptions(), &keys);
  ASSERT_TRUE(wal.Open().ok());
  ASSERT_EQ(wal.next_lsn(), rotated_at);  // the crash lost the second's records
  ASSERT_TRUE(Append(&wal, MakeInsert(1, 4, 0, "after"), true).ok());
  auto key = keys.Get(WalSegmentKeyId(rotated_at));
  ASSERT_TRUE(key.ok());
  EXPECT_NE(*key, lost_key);
  // The log reads back whole under the new key.
  std::vector<RowId> rows;
  ASSERT_TRUE(wal.Replay(0, [&](const WalRecord& record, Lsn) {
                   rows.push_back(record.row_id);
                   return Status::OK();
                 }).ok());
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows.back(), 4u);
  EXPECT_EQ(std::count(rows.begin(), rows.end(), 2u), 0);
  // The recreated segment replaced the empty one: a checkpoint retires
  // every segment but the fresh one, keys included.
  ASSERT_TRUE(wal.LogCheckpoint(wal.next_lsn()).ok());
  EXPECT_EQ(keys.live_keys(), 1u);
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

// --- group-commit watermark --------------------------------------------------

class GroupCommitWatermarkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/idb_group_commit_test";
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
    ASSERT_TRUE(CreateDirs(dir_).ok());
    keys_ = std::make_unique<KeyManager>(dir_ + "/keystore");
    ASSERT_TRUE(keys_->Open().ok());
  }
  void TearDown() override { RemoveDirRecursive(dir_).ok(); }

  static WalRecord Insert(RowId row) {
    return MakeInsert(1, row, 0, "11 Rue Lepic");
  }

  std::string dir_;
  std::unique_ptr<KeyManager> keys_;
};

TEST_F(GroupCommitWatermarkTest, CoveredRequestIsAbsorbedWithoutASync) {
  WalManager wal(dir_ + "/wal", WalOptions{}, keys_.get());
  ASSERT_TRUE(wal.Open().ok());
  ASSERT_TRUE(Append(&wal, Insert(1), /*sync=*/true).ok());
  WalManager::Stats stats = wal.stats();
  EXPECT_EQ(stats.syncs, 1u);
  EXPECT_EQ(stats.sync_requests, 1u);
  EXPECT_EQ(stats.commits_absorbed, 0u);
  EXPECT_EQ(wal.synced_lsn(), wal.next_lsn());

  // A second durability demand for already-covered bytes is satisfied by
  // the watermark alone: no new fdatasync.
  ASSERT_TRUE(wal.SyncThrough(wal.next_lsn()).ok());
  stats = wal.stats();
  EXPECT_EQ(stats.syncs, 1u);
  EXPECT_EQ(stats.sync_requests, 2u);
  EXPECT_EQ(stats.commits_absorbed, 1u);
}

TEST_F(GroupCommitWatermarkTest, ConcurrentDurableAppendsKeepInvariants) {
  constexpr int kThreads = 8;
  constexpr int kAppendsPerThread = 50;
  WalManager wal(dir_ + "/wal", WalOptions{}, keys_.get());
  ASSERT_TRUE(wal.Open().ok());
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kAppendsPerThread; ++i) {
        const RowId row = static_cast<RowId>(t * kAppendsPerThread + i + 1);
        if (!Append(&wal, Insert(row), /*sync=*/true).ok()) {
          ++errors;
          return;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_EQ(errors.load(), 0);

  const WalManager::Stats stats = wal.stats();
  EXPECT_EQ(stats.records_appended,
            static_cast<uint64_t>(kThreads) * kAppendsPerThread);
  // Every durability demand either led a sync or was absorbed, the synced
  // watermark caught up with the appended one, and nothing was lost.
  EXPECT_EQ(stats.sync_requests, stats.syncs + stats.commits_absorbed);
  EXPECT_EQ(stats.sync_requests,
            static_cast<uint64_t>(kThreads) * kAppendsPerThread);
  EXPECT_EQ(wal.synced_lsn(), wal.next_lsn());
  size_t replayed = 0;
  ASSERT_TRUE(wal
                  .Replay(0,
                          [&](const WalRecord&, Lsn) {
                            ++replayed;
                            return Status::OK();
                          })
                  .ok());
  EXPECT_EQ(replayed, static_cast<size_t>(kThreads) * kAppendsPerThread);
}

// Leadership covers the whole appended tail, whatever the leader's own
// demand: after three unsynced appends, a demand for the FIRST record's end
// leads one fdatasync through the appended end, so later demands for the
// larger LSNs are already below the watermark and absorb without syncing.
// This is why any waiter may lead: whoever finds no sync in flight covers
// every parked demand.
TEST_F(GroupCommitWatermarkTest, OneLeaderCoversEveryLargerDemand) {
  WalManager wal(dir_ + "/wal", WalOptions{}, keys_.get());
  ASSERT_TRUE(wal.Open().ok());
  Lsn end_first = 0;
  const WalRecord first = Insert(1);
  ASSERT_TRUE(wal.AppendBatch({&first}, false, &end_first).ok());
  ASSERT_TRUE(Append(&wal, Insert(2), /*sync=*/false).ok());
  ASSERT_TRUE(Append(&wal, Insert(3), /*sync=*/false).ok());
  const Lsn end_all = wal.next_lsn();
  ASSERT_GT(end_all, end_first);

  ASSERT_TRUE(wal.SyncThrough(end_first).ok());  // leads; covers end_all
  WalManager::Stats stats = wal.stats();
  EXPECT_EQ(stats.syncs, 1u);
  EXPECT_EQ(wal.synced_lsn(), end_all);

  ASSERT_TRUE(wal.SyncThrough(end_all).ok());  // absorbed, no new sync
  stats = wal.stats();
  EXPECT_EQ(stats.syncs, 1u);
  EXPECT_EQ(stats.sync_requests, 2u);
  EXPECT_EQ(stats.commits_absorbed, 1u);
  EXPECT_EQ(stats.sync_requests, stats.syncs + stats.commits_absorbed);
}

// Handoff under contention: threads append WITHOUT sync and then demand
// durability for exactly their own end LSN, so demands of every size race
// through the registration/handoff path (larger arrivals overtaking smaller
// parked ones). The ledger must stay exact — every demand leads or is
// absorbed, sync_requests == syncs + commits_absorbed — and the watermark
// must cover the appended end with nothing lost.
TEST_F(GroupCommitWatermarkTest, StaggeredDemandsKeepTheSyncLedgerExact) {
  constexpr int kThreads = 8;
  constexpr int kAppendsPerThread = 40;
  WalManager wal(dir_ + "/wal", WalOptions{}, keys_.get());
  ASSERT_TRUE(wal.Open().ok());
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kAppendsPerThread; ++i) {
        const RowId row = static_cast<RowId>(t * kAppendsPerThread + i + 1);
        const WalRecord record = Insert(row);
        Lsn end = 0;
        if (!wal.AppendBatch({&record}, /*sync=*/false, &end).ok() ||
            !wal.SyncThrough(end).ok()) {
          ++errors;
          return;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_EQ(errors.load(), 0);

  const WalManager::Stats stats = wal.stats();
  EXPECT_EQ(stats.sync_requests,
            static_cast<uint64_t>(kThreads) * kAppendsPerThread);
  EXPECT_EQ(stats.sync_requests, stats.syncs + stats.commits_absorbed);
  EXPECT_EQ(wal.synced_lsn(), wal.next_lsn());
  size_t replayed = 0;
  ASSERT_TRUE(wal
                  .Replay(0,
                          [&](const WalRecord&, Lsn) {
                            ++replayed;
                            return Status::OK();
                          })
                  .ok());
  EXPECT_EQ(replayed, static_cast<size_t>(kThreads) * kAppendsPerThread);
}

INSTANTIATE_TEST_SUITE_P(AllPrivacyModes, WalTest,
                         ::testing::Values(WalPrivacyMode::kPlain,
                                           WalPrivacyMode::kScrub,
                                           WalPrivacyMode::kCryptoErase),
                         [](const auto& info) {
                           switch (info.param) {
                             case WalPrivacyMode::kPlain:
                               return "Plain";
                             case WalPrivacyMode::kScrub:
                               return "Scrub";
                             case WalPrivacyMode::kCryptoErase:
                               return "CryptoErase";
                           }
                           return "?";
                         });

}  // namespace
}  // namespace instantdb
