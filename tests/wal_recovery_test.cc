// WAL recovery matrix over every privacy mode.
//
// What must hold: crash recovery reconstructs the pre-crash state, a torn
// commit marker voids its transaction while earlier transactions survive,
// checkpoints retire segments per the privacy mode, and under crypto-erase
// retiring a segment destroys its key, reaching every logged copy at once.
//
// Crashes are simulated by syncing the WAL and copying the database
// directory while the source stays open (no checkpoint runs), then
// recovering from the copy — the same technique as a crash image, without
// leaking the live Database.

#include <algorithm>
#include <filesystem>
#include <vector>

#include "catalog/builtin_domains.h"
#include "common/strings.h"
#include "db/database.h"
#include "forensic.h"
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

void CopyTree(const std::string& from, const std::string& to) {
  std::filesystem::remove_all(to);
  std::filesystem::copy(from, to,
                        std::filesystem::copy_options::recursive);
}

/// One row's recovered identity: id, stored location value, location phase.
struct RowState {
  RowId row_id;
  std::string user;
  std::string location;  // "<null>" once removed
  int phase;

  bool operator==(const RowState& other) const {
    return row_id == other.row_id && user == other.user &&
           location == other.location && phase == other.phase;
  }
  bool operator<(const RowState& other) const { return row_id < other.row_id; }
};

std::vector<RowState> DumpTable(Table* table) {
  std::vector<RowState> rows;
  auto stored = oracle::StoredRows(*table);
  EXPECT_TRUE(stored.ok());
  if (!stored.ok()) return rows;
  for (const oracle::Stored& view : *stored) {
    rows.push_back({view.row_id, view.values[0].ToString(),
                    view.values[1].is_null() ? "<null>"
                                             : view.values[1].ToString(),
                    view.phases[0]});
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

class WalRecoveryTest : public ::testing::TestWithParam<WalPrivacyMode> {
 protected:
  WalPrivacyMode mode() const { return GetParam(); }

  void SetUp() override {
    dir_ = ::testing::TempDir() + "/idb_wal_recovery_test";
    clone_ = dir_ + "_clone";
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
    ASSERT_TRUE(RemoveDirRecursive(clone_).ok());
  }
  void TearDown() override {
    RemoveDirRecursive(dir_).ok();
    RemoveDirRecursive(clone_).ok();
  }

  DbOptions Options(const std::string& path, uint32_t partitions,
                    VirtualClock* clock) {
    DbOptions options;
    options.path = path;
    options.clock = clock;
    options.partitions = partitions;
    options.degradation.worker_threads = partitions;
    options.wal.privacy_mode = mode();
    options.wal.segment_bytes = 1024;  // tiny: exercise rollover
    return options;
  }

  std::unique_ptr<Database> MustOpen(const DbOptions& options) {
    auto db = Database::Open(options);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return db.ok() ? std::move(*db) : nullptr;
  }

  /// Runs the standard mixed workload: batched + single inserts, one
  /// degradation wave, deletes, a fuzzy checkpoint mid-way, more inserts
  /// after it. Returns the inserted row ids.
  std::vector<RowId> RunWorkload(Database* db, VirtualClock* clock) {
    std::vector<RowId> rows;
    const char* addresses[] = {"11 Rue Lepic", "3 Av Foch", "4 Rue Breteuil",
                               "12 Rue Royale"};
    for (int b = 0; b < 4; ++b) {
      WriteBatch batch;
      for (int r = 0; r < 10; ++r) {
        batch.Insert("pings", {Value::String(StringPrintf("u%d_%d", b, r)),
                               Value::String(addresses[r % 4])});
      }
      EXPECT_TRUE(db->Write(&batch).ok());
      rows.insert(rows.end(), batch.row_ids().begin(),
                  batch.row_ids().end());
      clock->Advance(kMicrosPerMinute);
    }
    for (int i = 0; i < 8; ++i) {
      auto row = db->Insert(
          "pings", {Value::String(StringPrintf("s%d", i)),
                    Value::String(addresses[i % 4])});
      EXPECT_TRUE(row.ok());
      rows.push_back(*row);
    }
    // Everything crosses address → city.
    clock->Advance(kMicrosPerHour);
    auto moved = db->RunDegradationOnce();
    EXPECT_TRUE(moved.ok()) << moved.status().ToString();
    EXPECT_GT(*moved, 0u);
    // Delete a few rows spread over partitions.
    for (size_t i = 0; i < rows.size(); i += 7) {
      EXPECT_TRUE(db->Delete("pings", rows[i]).ok());
    }
    // Fuzzy checkpoint, then post-checkpoint work that only the WAL holds.
    EXPECT_TRUE(db->Checkpoint().ok());
    for (int i = 0; i < 6; ++i) {
      auto row = db->Insert(
          "pings", {Value::String(StringPrintf("post%d", i)),
                    Value::String(addresses[i % 4])});
      EXPECT_TRUE(row.ok());
      rows.push_back(*row);
    }
    return rows;
  }

  /// Syncs the WAL and snapshots the open database's directory — a crash
  /// image taken after the last commit's ack.
  void CrashClone(Database* db) {
    ASSERT_TRUE(db->wal()->Sync().ok());
    CopyTree(dir_, clone_);
  }

  std::string dir_;
  std::string clone_;
};

TEST_P(WalRecoveryTest, CrashRecoveryReconstructsState) {
  VirtualClock clock(0);
  auto db = MustOpen(Options(dir_, 4, &clock));
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(db->CreateTable("pings", PingSchema()).ok());
  RunWorkload(db.get(), &clock);
  const std::vector<RowState> before = DumpTable(db->GetTable("pings"));
  ASSERT_FALSE(before.empty());
  CrashClone(db.get());

  VirtualClock recovered_clock(clock.NowMicros());
  auto recovered = MustOpen(Options(clone_, 4, &recovered_clock));
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(DumpTable(recovered->GetTable("pings")), before);

  // The per-partition row-id allocators resumed above the recovered id
  // space: new inserts get fresh ids and degradation continues on schedule.
  const uint64_t live = recovered->GetTable("pings")->live_rows();
  auto row = recovered->Insert("pings", {Value::String("after"),
                                         Value::String("11 Rue Lepic")});
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(recovered->GetTable("pings")->live_rows(), live + 1);
  for (const RowState& state : before) {
    EXPECT_NE(state.row_id, *row);
  }
  recovered_clock.Advance(kMicrosPerDay);
  EXPECT_TRUE(recovered->RunDegradationOnce().ok());
}

TEST_P(WalRecoveryTest, CheckpointRetiresSegments) {
  VirtualClock clock(0);
  auto db = MustOpen(Options(dir_, 4, &clock));
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(db->CreateTable("pings", PingSchema()).ok());
  const std::string needle = "11 Rue Lepic";  // a real leaf: must validate
  for (int b = 0; b < 8; ++b) {
    WriteBatch batch;
    for (int r = 0; r < 16; ++r) {
      batch.Insert("pings", {Value::String("u"), Value::String(needle)});
    }
    ASSERT_TRUE(db->Write(&batch).ok());
  }
  // Fuzzy checkpoints retire segments fully below the begin position; the
  // segment holding the checkpoint record itself survives until the next
  // cadence tick — so scrub timeliness needs the second checkpoint, exactly
  // the "forced checkpoint before the earliest phase-0 deadline" cadence of
  // the paper.
  ASSERT_TRUE(db->Checkpoint().ok());
  ASSERT_TRUE(db->Checkpoint().ok());
  EXPECT_GT(db->wal()->stats().segments_retired, 0u);
  const size_t copies = CopiesUnder(dir_ + "/wal", needle);
  switch (mode()) {
    case WalPrivacyMode::kPlain:
      // Recycled segments keep the accurate values — the unsafe baseline.
      EXPECT_GT(copies, 0u);
      break;
    case WalPrivacyMode::kScrub:
    case WalPrivacyMode::kCryptoErase:
      EXPECT_EQ(copies, 0u);
      break;
  }
}

TEST_P(WalRecoveryTest, RetiringASegmentDestroysItsKey) {
  if (mode() != WalPrivacyMode::kCryptoErase) GTEST_SKIP();
  VirtualClock clock(0);
  auto db = MustOpen(Options(dir_, 4, &clock));
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(db->CreateTable("pings", PingSchema()).ok());
  const std::string needle = "11 Rue Lepic";  // a real leaf: must validate
  WriteBatch batch;
  for (int r = 0; r < 32; ++r) {
    batch.Insert("pings", {Value::String("u"), Value::String(needle)});
  }
  ASSERT_TRUE(db->Write(&batch).ok());
  ASSERT_TRUE(db->wal()->Sync().ok());
  // Sealed on arrival: the log never holds the accurate value in clear.
  EXPECT_EQ(CopiesUnder(dir_ + "/wal", needle), 0u);
  ASSERT_TRUE(db->keys()->Get(WalSegmentKeyId(0)).ok());

  // Every tuple leaves phase 0. The segment's key lives until the
  // checkpoint retires the segment: that voids every logged copy of the
  // inserts' payloads at once.
  clock.Advance(kMicrosPerHour + kMicrosPerMinute);
  auto moved = db->RunDegradationOnce();
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(*moved, 32u);
  EXPECT_TRUE(db->keys()->Get(WalSegmentKeyId(0)).ok());
  ASSERT_TRUE(db->Checkpoint().ok());
  EXPECT_TRUE(db->keys()->Get(WalSegmentKeyId(0)).status().IsNotFound());
  EXPECT_FALSE(FileExists(dir_ + "/wal/wal_0000000000000000.log"));

  CrashClone(db.get());
  VirtualClock recovered_clock(clock.NowMicros());
  auto recovered = MustOpen(Options(clone_, 4, &recovered_clock));
  ASSERT_NE(recovered, nullptr);
  // Recovery reads the degraded values the checkpoint made durable; the
  // accurate addresses are unrecoverable by design.
  for (const RowState& state : DumpTable(recovered->GetTable("pings"))) {
    EXPECT_EQ(state.location, "Paris");
    EXPECT_EQ(state.phase, 1);
  }
  EXPECT_EQ(CopiesUnder(clone_ + "/wal", needle), 0u);
  EXPECT_TRUE(recovered->Audit().clean());
}

std::string ModeName(const ::testing::TestParamInfo<WalPrivacyMode>& info) {
  switch (info.param) {
    case WalPrivacyMode::kPlain: return "Plain";
    case WalPrivacyMode::kScrub: return "Scrub";
    case WalPrivacyMode::kCryptoErase: return "CryptoErase";
  }
  return "?";
}

INSTANTIATE_TEST_SUITE_P(AllPrivacyModes, WalRecoveryTest,
                         ::testing::Values(WalPrivacyMode::kPlain,
                                           WalPrivacyMode::kScrub,
                                           WalPrivacyMode::kCryptoErase),
                         ModeName);

// --- torn-tail atomicity, at the WalManager level ---------------------------

class WalTornTailTest : public ::testing::TestWithParam<WalPrivacyMode> {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/idb_wal_torn_test";
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
    ASSERT_TRUE(CreateDirs(dir_).ok());
    keys_ = std::make_unique<KeyManager>(dir_ + "/keystore");
    ASSERT_TRUE(keys_->Open().ok());
  }
  void TearDown() override { RemoveDirRecursive(dir_).ok(); }

  WalOptions MakeOptions() {
    WalOptions options;
    options.privacy_mode = GetParam();
    return options;
  }

  WalRecord MakeInsert(uint64_t txn, RowId row) {
    WalRecord record;
    record.type = WalRecordType::kInsert;
    record.txn_id = txn;
    record.table = 1;
    record.row_id = row;
    record.insert_time = 0;
    record.stable = {Value::String("donor")};
    record.degradable = {Value::String("addr")};
    return record;
  }

  Status Commit(WalManager* wal, uint64_t txn,
                const std::vector<WalRecord>& ops) {
    WalRecord commit;
    commit.type = WalRecordType::kCommit;
    commit.txn_id = txn;
    std::vector<const WalRecord*> records;
    for (const WalRecord& op : ops) records.push_back(&op);
    records.push_back(&commit);
    return wal->AppendBatch(records, /*sync=*/true).status();
  }

  std::string dir_;
  std::unique_ptr<KeyManager> keys_;
};

TEST_P(WalTornTailTest, TornCommitMarkerVoidsItsTransaction) {
  // txn 2 commits first, then txn 9, whose commit marker is the log's
  // final frame. The torn transaction carries the largest id, so the id
  // high-water mark can only cover it by counting a transaction that never
  // committed.
  Lsn end = 0;
  {
    WalManager wal(dir_ + "/wal", MakeOptions(), keys_.get());
    ASSERT_TRUE(wal.Open().ok());
    ASSERT_TRUE(Commit(&wal, 2, {MakeInsert(2, 4)}).ok());
    ASSERT_TRUE(Commit(&wal, 9, {MakeInsert(9, 2), MakeInsert(9, 3)}).ok());
    end = wal.next_lsn();
  }
  // Cut the last bytes of txn 9's commit marker, as after a crash
  // mid-write. (Segments are preallocated, so the cut lands at the logical
  // end, not the zero-padded physical end.)
  {
    auto names = ListDir(dir_ + "/wal");
    ASSERT_TRUE(names.ok());
    std::string segment;
    for (const auto& name : *names) {
      if (EndsWith(name, ".log")) segment = name;
    }
    ASSERT_FALSE(segment.empty());
    ASSERT_GT(end, 4u);
    ASSERT_TRUE(TruncateFile(dir_ + "/wal/" + segment, end - 3).ok());
  }
  WalManager wal(dir_ + "/wal", MakeOptions(), keys_.get());
  ASSERT_TRUE(wal.Open().ok());
  // Both of txn 9's inserts survived the cut, but its marker did not: the
  // transaction is void. txn 2 replays.
  std::vector<RowId> rows;
  uint64_t max_txn = 0;
  ASSERT_TRUE(wal.RecoverCommitted(0,
                                   [&](const WalRecord& record) {
                                     rows.push_back(record.row_id);
                                     return Status::OK();
                                   },
                                   &max_txn)
                  .ok());
  EXPECT_EQ(rows, std::vector<RowId>{4});
  // The torn transaction's id is reported, so a reopened database never
  // reuses it: a new txn 9 marker would otherwise adopt rows 2 and 3.
  EXPECT_EQ(max_txn, 9u);
}

INSTANTIATE_TEST_SUITE_P(AllPrivacyModes, WalTornTailTest,
                         ::testing::Values(WalPrivacyMode::kPlain,
                                           WalPrivacyMode::kScrub,
                                           WalPrivacyMode::kCryptoErase),
                         ModeName);

}  // namespace
}  // namespace instantdb
