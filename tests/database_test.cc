#include <filesystem>
#include <set>
#include <tuple>

#include "catalog/builtin_domains.h"
#include "common/strings.h"
#include "db/database.h"
#include "forensic.h"
#include "gtest/gtest.h"
#include "io/fault_env.h"
#include "scan_oracle.h"
#include "storage/key_manager.h"
#include "util/coding.h"
#include "util/file.h"
#include "wal/wal_manager.h"

namespace instantdb {
namespace {

Schema PingSchema() {
  // The paper's motivating scenario: cell phones report user locations.
  return *Schema::Make(
      {ColumnDef::Stable("user", ValueType::kString),
       ColumnDef::Stable("ping_id", ValueType::kInt64),
       ColumnDef::Degradable("location", LocationDomain(), Fig2LocationLcp())});
}

class DatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/idb_db_test";
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
    clock_ = std::make_unique<VirtualClock>(0);
    ReopenDb();
  }
  void TearDown() override {
    db_.reset();
    RemoveDirRecursive(dir_).ok();
  }

  DbOptions Options() const {
    DbOptions options;
    options.path = dir_;
    options.clock = clock_.get();
    options.storage.segment_bytes = 512;
    options.wal.segment_bytes = 4096;
    return options;
  }

  void ReopenDb() {
    db_.reset();
    auto db = Database::Open(Options());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
  }

  RowId InsertPing(const std::string& user, int64_t ping,
                   const std::string& address) {
    auto row_id = db_->Insert(
        "pings", {Value::String(user), Value::Int64(ping),
                  Value::String(address)});
    EXPECT_TRUE(row_id.ok()) << row_id.status().ToString();
    return row_id.ok() ? *row_id : kInvalidRowId;
  }

  /// location value of one row (NULL when removed / row gone).
  Value LocationOf(RowId row_id) {
    auto row = oracle::StoredRow(*db_->GetTable("pings"), row_id);
    EXPECT_TRUE(row.ok());
    if (!row.ok() || !row->has_value()) return Value::Null();
    const int col = db_->GetTable("pings")->schema().FindColumn("location");
    return (*row)->values[col];
  }

  std::string dir_;
  std::unique_ptr<VirtualClock> clock_;
  std::unique_ptr<Database> db_;
};

TEST_F(DatabaseTest, Fig2LifecycleEndToEnd) {
  ASSERT_TRUE(db_->CreateTable("pings", PingSchema()).ok());
  const RowId row = InsertPing("alice", 1, "11 Rue Lepic");

  // t = 0: accurate address.
  EXPECT_EQ(LocationOf(row), Value::String("11 Rue Lepic"));

  // t = 1h: degraded to city.
  clock_->Advance(kMicrosPerHour);
  ASSERT_TRUE(db_->RunDegradationOnce().ok());
  EXPECT_EQ(LocationOf(row), Value::String("Paris"));

  // t = 1h + 1d: degraded to region.
  clock_->Advance(kMicrosPerDay);
  ASSERT_TRUE(db_->RunDegradationOnce().ok());
  EXPECT_EQ(LocationOf(row), Value::String("Ile-de-France"));

  // t = +1 month: country.
  clock_->Advance(kMicrosPerMonth);
  ASSERT_TRUE(db_->RunDegradationOnce().ok());
  EXPECT_EQ(LocationOf(row), Value::String("France"));

  // t = +1 more month: the tuple disappears entirely.
  clock_->Advance(kMicrosPerMonth);
  ASSERT_TRUE(db_->RunDegradationOnce().ok());
  auto gone = oracle::StoredRow(*db_->GetTable("pings"), row);
  ASSERT_TRUE(gone.ok());
  EXPECT_FALSE(gone->has_value());
  EXPECT_EQ(db_->GetTable("pings")->live_rows(), 0u);
  EXPECT_EQ(db_->GetTable("pings")->stats().tuples_expired, 1u);
}

TEST_F(DatabaseTest, DegradationIsBatchedAcrossManyRows) {
  ASSERT_TRUE(db_->CreateTable("pings", PingSchema()).ok());
  const std::vector<std::string> addresses = {
      "11 Rue Lepic", "3 Av Foch", "12 Rue Royale", "4 Rue Breteuil",
      "8 Cours Mirabeau"};
  std::vector<RowId> rows;
  for (int i = 0; i < 100; ++i) {
    rows.push_back(InsertPing("u" + std::to_string(i), i,
                              addresses[i % addresses.size()]));
    clock_->Advance(kMicrosPerMinute);  // staggered arrivals
  }
  // 2 hours in: rows 0..60 (inserted at minutes 0..60) crossed their
  // 1-hour phase-0 deadline; row 61's deadline is at 2h01 and has not.
  clock_->AdvanceTo(2 * kMicrosPerHour);
  auto moved = db_->RunDegradationOnce();
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(*moved, 61u);
  EXPECT_EQ(LocationOf(rows[0]), Value::String("Paris"));       // 11 Rue Lepic
  EXPECT_EQ(LocationOf(rows[59]), Value::String("Aix"));        // 8 Cours Mirabeau
  EXPECT_EQ(LocationOf(rows[60]), Value::String("Paris"));      // boundary row
  EXPECT_EQ(LocationOf(rows[61]), Value::String("3 Av Foch"));  // still accurate
}

TEST_F(DatabaseTest, UserDeleteRemovesEverythingImmediately) {
  ASSERT_TRUE(db_->CreateTable("pings", PingSchema()).ok());
  const RowId keep = InsertPing("keep", 1, "11 Rue Lepic");
  const RowId gone = InsertPing("gone", 2, "3 Av Foch");
  ASSERT_TRUE(db_->Delete("pings", gone).ok());
  EXPECT_EQ(db_->GetTable("pings")->live_rows(), 1u);
  EXPECT_TRUE(LocationOf(gone).is_null());
  EXPECT_EQ(LocationOf(keep), Value::String("11 Rue Lepic"));
  EXPECT_TRUE(db_->Delete("pings", gone).IsNotFound());
  // Degradation after the delete does not resurrect the row.
  clock_->Advance(kMicrosPerHour);
  ASSERT_TRUE(db_->RunDegradationOnce().ok());
  EXPECT_TRUE(LocationOf(gone).is_null());
}

/// Opens a fresh kEncryptedEpoch database with `epoch`-long epochs (an hour
/// by default) in dir_, on the fixture's clock as it stands.
void OpenEncryptedEpoch(const DbOptions& base, std::unique_ptr<Database>* db,
                        Micros epoch = kMicrosPerHour) {
  db->reset();
  ASSERT_TRUE(RemoveDirRecursive(base.path).ok());
  DbOptions options = base;
  options.wal.privacy_mode = WalPrivacyMode::kEncryptedEpoch;
  options.wal.epoch_micros = epoch;
  auto opened = Database::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  *db = std::move(*opened);
}

/// A system clock counts from 1970, so hour-long epochs number about
/// 490,000 by now. The first key destruction of a process starts at the
/// table's oldest live key: it destroys that key and records no id of the
/// empty epochs before it.
TEST_F(DatabaseTest, FirstEpochKeyDestructionTouchesOnlyLiveKeys) {
  constexpr uint64_t kEpoch = 490000;
  clock_->AdvanceTo(static_cast<Micros>(kEpoch) * kMicrosPerHour +
                    kMicrosPerMinute);
  OpenEncryptedEpoch(Options(), &db_);
  auto def = db_->CreateTable("pings", PingSchema());
  ASSERT_TRUE(def.ok());
  const TableId table = (*def)->id;
  InsertPing("alice", 1, "11 Rue Lepic");

  // Past the phase-0 deadline and the epoch: the step destroys the key.
  clock_->Advance(kMicrosPerHour);
  auto moved = db_->RunDegradationOnce();
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  EXPECT_EQ(*moved, 1u);
  EXPECT_EQ(db_->stats().wal.epoch_keys_destroyed, 1u);
  EXPECT_TRUE(db_->keys()->IsDestroyed(WalEpochKeyId(table, kEpoch)));
  EXPECT_FALSE(db_->keys()->IsDestroyed(WalEpochKeyId(table, 0)));
  EXPECT_FALSE(db_->keys()->IsDestroyed(WalEpochKeyId(table, kEpoch - 1)));
}

/// A user delete that removes an epoch's last phase-0 value leaves its key
/// without a phase-0 step to destroy it. Once the epoch is over, a pass
/// that moves nothing still destroys it.
TEST_F(DatabaseTest, DeletedLastAccurateValueLeavesNoEpochKey) {
  OpenEncryptedEpoch(Options(), &db_);
  ASSERT_TRUE(db_->CreateTable("pings", PingSchema()).ok());
  const RowId gone = InsertPing("gone", 1, "11 Rue Lepic");
  ASSERT_TRUE(db_->Delete("pings", gone).ok());
  // The epoch may still seal inserts: its key lives until the epoch ends.
  EXPECT_EQ(db_->degradation()->NextDeadline(), kMicrosPerHour);

  clock_->Advance(kMicrosPerHour + kMicrosPerMinute);
  auto moved = db_->RunDegradationOnce();
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  EXPECT_EQ(*moved, 0u);
  EXPECT_EQ(db_->Audit().lingering_epoch_keys, 0u);
  EXPECT_EQ(db_->stats().wal.epoch_keys_destroyed, 1u);
  EXPECT_EQ(db_->degradation()->NextDeadline(), kForever);

  // A delete after its value's epoch ended destroys the key at commit.
  const RowId late = InsertPing("late", 2, "3 Av Foch");
  clock_->Advance(kMicrosPerHour);
  ASSERT_TRUE(db_->Delete("pings", late).ok());
  EXPECT_EQ(db_->stats().wal.epoch_keys_destroyed, 2u);
  EXPECT_EQ(db_->Audit().lingering_epoch_keys, 0u);
}

/// A step that takes an epoch's last value out of phase 0 before the epoch
/// ends leaves its key to a deadline at the epoch's end: once that passes,
/// a pass that moves nothing destroys it.
TEST_F(DatabaseTest, SteppedLastAccurateValueLeavesNoEpochKey) {
  OpenEncryptedEpoch(Options(), &db_, 2 * kMicrosPerHour);
  ASSERT_TRUE(db_->CreateTable("pings", PingSchema()).ok());
  InsertPing("alice", 1, "11 Rue Lepic");

  clock_->AdvanceTo(kMicrosPerHour);
  auto moved = db_->RunDegradationOnce();
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  EXPECT_EQ(*moved, 1u);
  // The epoch may still seal inserts: its key lives until the epoch ends.
  EXPECT_EQ(db_->stats().wal.epoch_keys_destroyed, 0u);
  EXPECT_EQ(db_->degradation()->NextDeadline(), 2 * kMicrosPerHour);

  clock_->AdvanceTo(2 * kMicrosPerHour + kMicrosPerMinute);
  moved = db_->RunDegradationOnce();
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  EXPECT_EQ(*moved, 0u);
  EXPECT_EQ(db_->Audit().lingering_epoch_keys, 0u);
  EXPECT_EQ(db_->stats().wal.epoch_keys_destroyed, 1u);
}

TEST_F(DatabaseTest, RecoveryReplaysInsertsAndDegradations) {
  ASSERT_TRUE(db_->CreateTable("pings", PingSchema()).ok());
  const RowId r1 = InsertPing("alice", 1, "11 Rue Lepic");
  const RowId r2 = InsertPing("bob", 2, "4 Rue Breteuil");
  clock_->Advance(kMicrosPerHour);
  ASSERT_TRUE(db_->RunDegradationOnce().ok());
  const RowId r3 = InsertPing("carol", 3, "12 Rue Royale");

  // Crash without checkpoint: drop the Database object the hard way (the
  // destructor checkpoints, so simulate by reopening from a copy...). We
  // instead rely on WAL replay: reopen after a clean-ish close still must
  // produce identical state.
  ReopenDb();
  EXPECT_EQ(LocationOf(r1), Value::String("Paris"));
  EXPECT_EQ(LocationOf(r2), Value::String("Marseille"));
  EXPECT_EQ(LocationOf(r3), Value::String("12 Rue Royale"));
  EXPECT_EQ(db_->GetTable("pings")->live_rows(), 3u);

  // Degradation continues on schedule after recovery: a day later r1 has
  // crossed the city→region boundary and r3 (inserted at 1h, now 1 day old)
  // has crossed its own address→city boundary.
  clock_->Advance(kMicrosPerDay);
  ASSERT_TRUE(db_->RunDegradationOnce().ok());
  EXPECT_EQ(LocationOf(r1), Value::String("Ile-de-France"));
  EXPECT_EQ(LocationOf(r3), Value::String("Versailles"));
}

TEST_F(DatabaseTest, FailedOpenNeverCheckpoints) {
  ASSERT_TRUE(db_->CreateTable("pings", PingSchema()).ok());
  InsertPing("alice", 1, "11 Rue Lepic");
  db_.reset();  // the clean close writes the manifest
  const std::string manifest = dir_ + "/wal/CHECKPOINT";
  auto bytes = ReadFileToString(manifest);
  ASSERT_TRUE(bytes.ok());
  std::string corrupt = *bytes;
  corrupt.back() ^= 0x5A;
  ASSERT_TRUE(WriteStringToFile(manifest, corrupt, true).ok());

  auto db = Database::Open(Options());
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsCorruption()) << db.status().ToString();
  // Recovery never ran, so the half-open database must not checkpoint on
  // its way out: a fresh manifest would skip the redo it never applied.
  auto after = ReadFileToString(manifest);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, corrupt);
}

TEST_F(DatabaseTest, IndexesSurviveRecoveryViaRebuild) {
  ASSERT_TRUE(db_->CreateTable("pings", PingSchema()).ok());
  InsertPing("alice", 1, "11 Rue Lepic");
  InsertPing("bob", 2, "3 Av Foch");
  InsertPing("carol", 3, "4 Rue Breteuil");
  clock_->Advance(kMicrosPerHour);
  ASSERT_TRUE(db_->RunDegradationOnce().ok());
  ReopenDb();

  Table* table = db_->GetTable("pings");
  const int col = table->schema().FindColumn("location");
  auto probe = [&](const char* value, int level) {
    std::vector<std::vector<RowId>> rids;
    EXPECT_TRUE(
        table->IndexLookupEqual(col, Value::String(value), level, &rids).ok());
    size_t total = 0;
    for (const std::vector<RowId>& ids : rids) total += ids.size();
    return total;
  };
  EXPECT_EQ(probe("Paris", 1), 2u);
  EXPECT_EQ(probe("France", 3), 3u);
}

TEST_F(DatabaseTest, RetentionBaselineIsAllOrNothing) {
  // Limited retention = single-phase LCP. The value stays fully accurate
  // until the TTL, then the tuple vanishes — no intermediate states.
  auto schema = *Schema::Make(
      {ColumnDef::Stable("user", ValueType::kString),
       ColumnDef::Degradable("location", LocationDomain(),
                             AttributeLcp::Retention(kMicrosPerDay))});
  ASSERT_TRUE(db_->CreateTable("retained", schema).ok());
  auto row = db_->Insert("retained", {Value::String("alice"),
                                      Value::String("11 Rue Lepic")});
  ASSERT_TRUE(row.ok());
  clock_->Advance(kMicrosPerDay - 1);
  ASSERT_TRUE(db_->RunDegradationOnce().ok());
  auto view = oracle::StoredRow(*db_->GetTable("retained"), *row);
  ASSERT_TRUE(view->has_value());
  EXPECT_EQ((*view)->values[1], Value::String("11 Rue Lepic"));
  clock_->Advance(1);
  ASSERT_TRUE(db_->RunDegradationOnce().ok());
  view = oracle::StoredRow(*db_->GetTable("retained"), *row);
  EXPECT_FALSE(view->has_value());
}

/// Forensic residue of one accurate address once it has degraded to its
/// city and then to its region, per WAL privacy mode, counted in every file
/// and every freed block: after a clean close, and in the crash image taken
/// right after the second degrade + checkpoint, then again once that image
/// has recovered. kScrub and kEncryptedEpoch must leave no copy of the
/// address; kPlain keeps its recycled WAL segments, the forensic threat the
/// paper cites from Stahlberg et al. The intermediate city label is past
/// its own deadline too, and no mode leaves a copy of it: degradation
/// writes no log record, and the drained city store was scrubbed.
class DatabaseForensicTest
    : public DatabaseTest,
      public ::testing::WithParamInterface<std::tuple<WalPrivacyMode, bool>> {
 protected:
  WalPrivacyMode mode() const { return std::get<0>(GetParam()); }
  bool crash() const { return std::get<1>(GetParam()); }

  /// Opens `path` in this test's privacy mode through `env`.
  std::unique_ptr<Database> OpenWith(const std::string& path, Env* env) {
    DbOptions options = Options();
    options.path = path;
    options.env = env;
    options.wal.privacy_mode = mode();
    options.wal.epoch_micros = kMicrosPerHour;
    auto db = Database::Open(options);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return db.ok() ? std::move(*db) : nullptr;
  }

  /// What a residue count must be after the address degraded.
  void ExpectResidue(size_t copies, const char* where) const {
    if (mode() == WalPrivacyMode::kPlain) {
      EXPECT_GT(copies, 0u) << where;
    } else {
      EXPECT_EQ(copies, 0u) << where;
    }
  }
};

TEST_P(DatabaseForensicTest, ForensicScanFindsNoDegradedPlaintext) {
  const std::string secret = "11 Rue Lepic";
  const std::string city = "Paris";
  const std::string image = dir_ + "_crash";
  ASSERT_TRUE(RemoveDirRecursive(image).ok());
  db_.reset();
  ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
  FaultInjectionEnv fault(Env::Default());
  FreedBlocksEnv freed(&fault);
  db_ = OpenWith(dir_, &freed);
  ASSERT_NE(db_, nullptr);
  ASSERT_TRUE(db_->CreateTable("pings", PingSchema()).ok());
  for (int i = 0; i < 20; ++i) InsertPing("alice", i, secret);
  // Address to city, then city to region, each step followed by a
  // checkpoint: flush heap pages and retire WAL segments.
  for (const Micros advance : {kMicrosPerHour, kMicrosPerDay}) {
    clock_->Advance(advance);
    ASSERT_TRUE(db_->RunDegradationOnce().ok());
    ASSERT_TRUE(db_->Checkpoint().ok());
  }

  std::string scanned = dir_;
  if (crash()) {
    ASSERT_TRUE(fault.SimulateCrashTo(dir_, image).ok());
    ExpectResidue(CopiesUnder(image, secret) + freed.Copies(secret),
                  "crash image");
    EXPECT_EQ(CopiesUnder(image, city) + freed.Copies(city), 0u)
        << "crash image";
    scanned = image;
  }
  db_.reset();
  if (!crash()) {
    ExpectResidue(CopiesUnder(dir_, secret) + freed.Copies(secret),
                  "clean close");
    EXPECT_EQ(CopiesUnder(dir_, city) + freed.Copies(city), 0u)
        << "clean close";
  }

  // The database reopens (a crash image recovers) with every row, and
  // recovery brings no accurate copy back.
  FreedBlocksEnv reopen_freed(Env::Default());
  auto reopened = OpenWith(scanned, &reopen_freed);
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->GetTable("pings")->live_rows(), 20u);
  ASSERT_TRUE(reopened->Close().ok());
  reopened.reset();
  ExpectResidue(CopiesUnder(scanned, secret) + reopen_freed.Copies(secret),
                "after reopen");
  RemoveDirRecursive(image).ok();
}

INSTANTIATE_TEST_SUITE_P(
    PrivacyModes, DatabaseForensicTest,
    ::testing::Combine(::testing::Values(WalPrivacyMode::kPlain,
                                         WalPrivacyMode::kScrub,
                                         WalPrivacyMode::kEncryptedEpoch),
                       ::testing::Bool()),
    [](const auto& info) {
      const WalPrivacyMode mode = std::get<0>(info.param);
      return std::string(mode == WalPrivacyMode::kPlain   ? "Plain"
                         : mode == WalPrivacyMode::kScrub ? "Scrub"
                                                          : "EncryptedEpoch") +
             (std::get<1>(info.param) ? "Crash" : "Clean");
    });

/// The heap reuses the space expiry frees, compacting a holed page before
/// it takes a new record there. After one wave of rows expired and a
/// second wave filled their pages, no heap.db holds any expired row's
/// stable bytes: after a clean close, and in the crash image taken after
/// the second wave's checkpoint.
class HeapReuseForensicTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/idb_heap_reuse";
    image_ = dir_ + "_crash";
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
    ASSERT_TRUE(RemoveDirRecursive(image_).ok());
  }
  void TearDown() override {
    RemoveDirRecursive(dir_).ok();
    RemoveDirRecursive(image_).ok();
  }

  /// Every heap.db under `dir`, concatenated.
  static std::string Heaps(const std::string& dir) {
    std::string heaps;
    for (const auto& [path, bytes] : FilesUnder(dir)) {
      if (std::filesystem::path(path).filename() == "heap.db") heaps += bytes;
    }
    return heaps;
  }

  std::string dir_;
  std::string image_;
  VirtualClock clock_{0};
};

TEST_P(HeapReuseForensicTest, ReusedPagesHoldNoExpiredStableBytes) {
  const bool crash = GetParam();
  FaultInjectionEnv fault(Env::Default());
  DbOptions options;
  options.path = dir_;
  options.env = &fault;
  options.clock = &clock_;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto schema = Schema::Make(
      {ColumnDef::Stable("note", ValueType::kString),
       ColumnDef::Degradable(
           "location", LocationDomain(),
           *AttributeLcp::Make({{0, kMicrosPerHour}, {1, kMicrosPerHour}}))});
  ASSERT_TRUE(schema.ok());
  ASSERT_TRUE((*db)->CreateTable("pings", *schema).ok());
  const auto load = [&](const char* format) {
    WriteBatch batch;
    for (int i = 0; i < 3000; ++i) {
      batch.Insert("pings", {Value::String(StringPrintf(format, i)),
                             Value::String("11 Rue Lepic")});
    }
    ASSERT_TRUE((*db)->Write(&batch).ok());
  };
  const auto heap_pages = [&] {
    uint64_t pages = 0;
    const Table* table = (*db)->GetTable("pings");
    for (uint32_t p = 0; p < table->num_partitions(); ++p) {
      pages += table->partition(p)->heap_pool()->disk()->num_pages();
    }
    return pages;
  };

  load("expired-secret-%05d");
  ASSERT_TRUE((*db)->Checkpoint().ok());  // the secrets reach heap.db
  std::set<std::string> secrets;
  for (int i = 0; i < 3000; ++i) {
    secrets.insert(StringPrintf("expired-secret-%05d", i));
  }
  ASSERT_EQ(CountCopies(Heaps(dir_), secrets), 3000u);
  const uint64_t pages = heap_pages();

  clock_.Advance(2 * kMicrosPerHour + 1);
  ASSERT_TRUE((*db)->RunDegradationOnce().ok());
  ASSERT_EQ((*db)->GetTable("pings")->live_rows(), 0u);
  // The same number of slightly shorter rows fills the expired pages; each
  // first insert into a page compacts it.
  load("fresh-note-%05d");
  EXPECT_EQ(heap_pages(), pages) << "the second wave should reuse the heap";
  ASSERT_TRUE((*db)->Checkpoint().ok());

  std::string scanned = dir_;
  if (crash) {
    ASSERT_TRUE(fault.SimulateCrashTo(dir_, image_).ok());
    scanned = image_;
  }
  db->reset();
  EXPECT_EQ(CountCopies(Heaps(scanned), secrets), 0u)
      << (crash ? "crash image" : "clean close");
  EXPECT_EQ(CountCopies(Heaps(scanned), std::string("fresh-note-")), 3000u);
}

INSTANTIATE_TEST_SUITE_P(CloseKinds, HeapReuseForensicTest, ::testing::Bool(),
                         [](const auto& info) {
                           return std::string(info.param ? "Crash" : "Clean");
                         });

TEST_F(DatabaseTest, MultipleDegradableColumnsIndependentTimelines) {
  auto schema = *Schema::Make(
      {ColumnDef::Stable("user", ValueType::kString),
       ColumnDef::Degradable("location", LocationDomain(), Fig2LocationLcp()),
       ColumnDef::Degradable(
           "salary", SalaryDomain(),
           *AttributeLcp::Make({{0, kMicrosPerDay}, {1, kMicrosPerMonth}}))});
  ASSERT_TRUE(db_->CreateTable("person", schema).ok());
  auto row = db_->Insert("person", {Value::String("alice"),
                                    Value::String("11 Rue Lepic"),
                                    Value::Int64(2345)});
  ASSERT_TRUE(row.ok());

  // 1h: location degrades to city; salary still exact.
  clock_->Advance(kMicrosPerHour);
  ASSERT_TRUE(db_->RunDegradationOnce().ok());
  auto view = *oracle::StoredRow(*db_->GetTable("person"), *row);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->values[1], Value::String("Paris"));
  EXPECT_EQ(view->values[2], Value::Int64(2345));

  // 1 day: salary rounds to the paper's RANGE1000 bucket.
  clock_->Advance(kMicrosPerDay);
  ASSERT_TRUE(db_->RunDegradationOnce().ok());
  view = *oracle::StoredRow(*db_->GetTable("person"), *row);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->values[2], Value::Int64(2000));
}

TEST_F(DatabaseTest, DropTableErasesStorage) {
  ASSERT_TRUE(db_->CreateTable("pings", PingSchema()).ok());
  InsertPing("alice", 1, "11 Rue Lepic");
  ASSERT_TRUE(db_->DropTable("pings").ok());
  EXPECT_EQ(db_->GetTable("pings"), nullptr);
  EXPECT_TRUE(db_->DropTable("pings").IsNotFound());
  // Recreating with the same name works and starts empty.
  ASSERT_TRUE(db_->CreateTable("pings", PingSchema()).ok());
  EXPECT_EQ(db_->GetTable("pings")->live_rows(), 0u);
}

TEST_F(DatabaseTest, UpdateStableKeepsDegradationSchedule) {
  ASSERT_TRUE(db_->CreateTable("pings", PingSchema()).ok());
  const RowId row = InsertPing("alice", 1, "11 Rue Lepic");
  auto txn = db_->Begin();
  ASSERT_TRUE(db_->GetTable("pings")
                  ->UpdateStable(txn.get(), row,
                                 {Value::String("alice-renamed"),
                                  Value::Int64(99)})
                  .ok());
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
  auto view = *oracle::StoredRow(*db_->GetTable("pings"), row);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->values[0], Value::String("alice-renamed"));
  EXPECT_EQ(view->values[2], Value::String("11 Rue Lepic"));
  clock_->Advance(kMicrosPerHour);
  ASSERT_TRUE(db_->RunDegradationOnce().ok());
  EXPECT_EQ(LocationOf(row), Value::String("Paris"));
}

TEST_F(DatabaseTest, WritersOfOneRowNeverAbort) {
  // Three open transactions write one row: the oldest updates its stable
  // columns, two younger ones delete it. None waits or aborts; they commit
  // in another order, and the applies after the first delete find the row
  // gone. Redo of a crash image replays them in log order to the same end.
  const std::string image = dir_ + "_crash";
  ASSERT_TRUE(RemoveDirRecursive(image).ok());
  db_.reset();
  ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
  FaultInjectionEnv fault(Env::Default());
  DbOptions options = Options();
  options.env = &fault;
  auto opened = Database::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  db_ = std::move(*opened);
  ASSERT_TRUE(db_->CreateTable("pings", PingSchema()).ok());
  const RowId row = InsertPing("alice", 1, "11 Rue Lepic");
  Table* pings = db_->GetTable("pings");
  auto update = db_->Begin();
  auto first_delete = db_->Begin();
  auto second_delete = db_->Begin();
  ASSERT_TRUE(pings
                  ->UpdateStable(update.get(), row,
                                 {Value::String("bob"), Value::Int64(2)})
                  .ok());
  const Status staged = pings->Delete(first_delete.get(), row);
  ASSERT_TRUE(staged.ok()) << staged.ToString();
  ASSERT_TRUE(pings->Delete(second_delete.get(), row).ok());
  const WriteOptions durable{.sync = true};
  ASSERT_TRUE(db_->Commit(second_delete.get(), durable).ok());
  ASSERT_TRUE(db_->Commit(update.get(), durable).ok());
  ASSERT_TRUE(db_->Commit(first_delete.get(), durable).ok());
  EXPECT_EQ(pings->live_rows(), 0u);
  EXPECT_EQ(pings->stats().applies_without_row, 2u);

  ASSERT_TRUE(fault.SimulateCrashTo(dir_, image).ok());
  db_.reset();
  options = Options();
  options.path = image;
  opened = Database::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  db_ = std::move(*opened);
  EXPECT_EQ(db_->GetTable("pings")->live_rows(), 0u);
  EXPECT_EQ(db_->GetTable("pings")->stats().applies_without_row, 2u);
  db_.reset();
  RemoveDirRecursive(image).ok();
}

TEST_F(DatabaseTest, AbortedTransactionLeavesNoTrace) {
  ASSERT_TRUE(db_->CreateTable("pings", PingSchema()).ok());
  auto txn = db_->Begin();
  auto row = db_->GetTable("pings")->Insert(
      txn.get(),
      {Value::String("ghost"), Value::Int64(1), Value::String("3 Av Foch")});
  ASSERT_TRUE(row.ok());
  db_->Abort(txn.get());
  EXPECT_EQ(db_->GetTable("pings")->live_rows(), 0u);
  auto view = oracle::StoredRow(*db_->GetTable("pings"), *row);
  ASSERT_TRUE(view.ok());
  EXPECT_FALSE(view->has_value());
}

TEST_F(DatabaseTest, StoredRowsSeeConsistentPhases) {
  ASSERT_TRUE(db_->CreateTable("pings", PingSchema()).ok());
  InsertPing("a", 1, "11 Rue Lepic");
  clock_->Advance(kMicrosPerHour);
  ASSERT_TRUE(db_->RunDegradationOnce().ok());
  InsertPing("b", 2, "3 Av Foch");

  std::map<std::string, int> phase_by_user;
  auto rows = oracle::StoredRows(*db_->GetTable("pings"));
  ASSERT_TRUE(rows.ok());
  for (const oracle::Stored& row : *rows) {
    phase_by_user[row.values[0].str()] = row.phases[0];
  }
  EXPECT_EQ(phase_by_user["a"], 1);  // city phase
  EXPECT_EQ(phase_by_user["b"], 0);  // accurate
}

// --- The FORMAT gate ---------------------------------------------------------

/// Layouts older builds left behind, or a newer build's stamp. The gate
/// refuses each one before it creates, renames or writes anything.
enum class OldLayout {
  kNoStamp,             // any directory written before the FORMAT stamp
  kNewerStamp,          // FORMAT holds kFormatVersion + 1
  kFormatOne,           // format 1: degradation steps logged as type 5
  kShardedWal,          // wal/STREAMS and wal/s1/ holding redo
  kPositionalStoreMeta, // a state-store META without its magic
  kUnpartitionedTable,  // heap.db directly under tables/t1
  kLeftoverIndexFile,   // a paged index.db beside the heap
};

/// Every entry under `dir`, recursively: a file maps to its bytes, a
/// directory to "<dir>".
std::map<std::string, std::string> TreeUnder(const std::string& dir) {
  std::map<std::string, std::string> tree = FilesUnder(dir);
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_directory()) {
      tree[entry.path().string().substr(dir.size())] = "<dir>";
    }
  }
  return tree;
}

class FormatGateTest : public ::testing::TestWithParam<OldLayout> {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/idb_format_gate";
    image_ = dir_ + "_crash";
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
    ASSERT_TRUE(RemoveDirRecursive(image_).ok());
  }
  void TearDown() override {
    RemoveDirRecursive(dir_).ok();
    RemoveDirRecursive(image_).ok();
  }

  DbOptions Options(const std::string& path, uint32_t partitions = 1) {
    DbOptions options;
    options.path = path;
    options.clock = &clock_;
    options.partitions = partitions;
    return options;
  }

  /// A database this build wrote and closed: one table, one row.
  void WriteDatabase(uint32_t partitions) {
    auto db = Database::Open(Options(dir_, partitions));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->CreateTable("pings", PingSchema()).ok());
    ASSERT_TRUE((*db)->Insert("pings", {Value::String("alice"),
                                        Value::Int64(1),
                                        Value::String("11 Rue Lepic")})
                    .ok());
  }

  /// Opens, inserts a row and closes `path`, twice; the second open must
  /// see the first's row.
  void ExpectCreatesAndReopens(const std::string& path) {
    for (size_t rows = 1; rows <= 2; ++rows) {
      auto db = Database::Open(Options(path));
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      if (rows == 1) {
        ASSERT_TRUE((*db)->CreateTable("pings", PingSchema()).ok());
      }
      ASSERT_TRUE((*db)->Insert("pings", {Value::String("bob"),
                                          Value::Int64(1),
                                          Value::String("11 Rue Lepic")})
                      .ok());
      EXPECT_EQ((*db)->GetTable("pings")->live_rows(), rows);
    }
    auto stamp = ReadFileToString(path + "/FORMAT");
    ASSERT_TRUE(stamp.ok());
    EXPECT_EQ(*stamp, std::to_string(kFormatVersion));
  }

  std::string dir_;
  std::string image_;
  VirtualClock clock_{0};
};

TEST_P(FormatGateTest, OtherLayoutIsRefusedUntouched) {
  const OldLayout layout = GetParam();
  WriteDatabase(/*partitions=*/1);
  const std::string format = dir_ + "/FORMAT";
  const std::string p0 = dir_ + "/tables/t1/p0";
  if (layout == OldLayout::kNewerStamp) {
    ASSERT_TRUE(WriteStringToFile(format, std::to_string(kFormatVersion + 1),
                                  /*sync=*/true)
                    .ok());
  } else if (layout == OldLayout::kFormatOne) {
    ASSERT_TRUE(WriteStringToFile(format, "1", /*sync=*/true).ok());
  } else {
    ASSERT_TRUE(RemoveFile(format).ok());
  }
  switch (layout) {
    case OldLayout::kNoStamp:
    case OldLayout::kNewerStamp:
    case OldLayout::kFormatOne:
      break;
    case OldLayout::kShardedWal: {
      ASSERT_TRUE(WriteStringToFile(dir_ + "/wal/STREAMS", "2", true).ok());
      KeyManager keys(dir_ + "/KEYSTORE");
      ASSERT_TRUE(keys.Open().ok());
      WalManager wal(dir_ + "/wal/s1", WalOptions{}, &keys);
      ASSERT_TRUE(wal.Open().ok());
      WalRecord insert;
      insert.type = WalRecordType::kInsert;
      insert.txn_id = 1;
      insert.table = 1;
      insert.row_id = 2;
      ASSERT_TRUE(wal.AppendBatch({&insert}, /*sync=*/true).ok());
      break;
    }
    case OldLayout::kPositionalStoreMeta: {
      std::string meta;
      PutVarint64(&meta, 0);  // head seqno
      PutVarint64(&meta, 0);  // head frames popped
      PutVarint64(&meta, 1);  // next seqno
      ASSERT_TRUE(
          WriteStringToFile(p0 + "/stores/c2.p0/META", meta, true).ok());
      break;
    }
    case OldLayout::kUnpartitionedTable:
      ASSERT_TRUE(RemoveFile(dir_ + "/tables/t1/PARTITIONS").ok());
      for (const auto& entry : std::filesystem::directory_iterator(p0)) {
        std::filesystem::rename(entry.path(),
                                std::filesystem::path(dir_ + "/tables/t1") /
                                    entry.path().filename());
      }
      std::filesystem::remove(p0);
      ASSERT_TRUE(FileExists(dir_ + "/tables/t1/heap.db"));
      break;
    case OldLayout::kLeftoverIndexFile:
      ASSERT_TRUE(WriteStringToFile(p0 + "/index.db", std::string(4096, 'k'),
                                    true)
                      .ok());
      break;
  }

  const auto before = TreeUnder(dir_);
  auto db = Database::Open(Options(dir_, /*partitions=*/4));
  ASSERT_FALSE(db.ok());
  const std::string message = db.status().ToString();
  EXPECT_TRUE(db.status().IsNotSupported()) << message;
  EXPECT_NE(message.find(dir_), std::string::npos) << message;
  EXPECT_NE(message.find("format " + std::to_string(kFormatVersion)),
            std::string::npos)
      << message;
  if (layout == OldLayout::kNewerStamp) {
    EXPECT_NE(message.find("format " + std::to_string(kFormatVersion + 1)),
              std::string::npos)
        << message;
  }
  if (layout == OldLayout::kFormatOne) {
    EXPECT_NE(message.find("format 1;"), std::string::npos) << message;
  }
  EXPECT_EQ(TreeUnder(dir_), before);
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, FormatGateTest,
    ::testing::Values(OldLayout::kNoStamp, OldLayout::kNewerStamp,
                      OldLayout::kFormatOne, OldLayout::kShardedWal,
                      OldLayout::kPositionalStoreMeta,
                      OldLayout::kUnpartitionedTable,
                      OldLayout::kLeftoverIndexFile),
    [](const auto& info) {
      switch (info.param) {
        case OldLayout::kNoStamp: return "NoStamp";
        case OldLayout::kNewerStamp: return "NewerStamp";
        case OldLayout::kFormatOne: return "FormatOne";
        case OldLayout::kShardedWal: return "ShardedWal";
        case OldLayout::kPositionalStoreMeta: return "PositionalStoreMeta";
        case OldLayout::kUnpartitionedTable: return "UnpartitionedTable";
        case OldLayout::kLeftoverIndexFile: return "LeftoverIndexFile";
      }
      return "?";
    });

using FormatCreateTest = FormatGateTest;

TEST_F(FormatCreateTest, MissingDirectoryIsCreatedAndReopens) {
  ExpectCreatesAndReopens(dir_);
}

TEST_F(FormatCreateTest, EmptyDirectoryIsCreatedAndReopens) {
  ASSERT_TRUE(CreateDirs(dir_).ok());
  ExpectCreatesAndReopens(dir_);
}

TEST_F(FormatCreateTest, StampTornBeforeItsSyncReopensAsFresh) {
  FaultInjectionEnv fault(Env::Default());
  fault.FailOnce(FaultOp::kSync, 1, Status::IOError("injected"), "FORMAT");
  DbOptions options = Options(dir_);
  options.env = &fault;
  auto db = Database::Open(options);
  ASSERT_FALSE(db.ok());
  // The stamp is the first entry; nothing else was created before its sync.
  auto names = ListDir(dir_);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, std::vector<std::string>{"FORMAT"});

  ASSERT_TRUE(fault.SimulateCrashTo(dir_, image_).ok());
  auto torn = ReadFileToString(image_ + "/FORMAT");
  ASSERT_TRUE(torn.ok());
  EXPECT_EQ(*torn, "");
  ExpectCreatesAndReopens(image_);
}

}  // namespace
}  // namespace instantdb
