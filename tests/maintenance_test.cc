// Checkpoint and audit cadences + verified-deletion audits: the cadence
// checkpoints only when partitions are dirty (or a WAL segment holds an
// overdue payload), WAL segments retire as the clean-through marks
// advance, the deletion-assurance audit catches a planted stale value via
// the degrader's fault-injection hook, shutdown mid-cadence is clean, one
// background thread runs every service, stats() never waits behind a
// cadence checkpoint, and — the acceptance bar — a 100 ms cadence keeps
// every layer (stores, indexes, WAL) audit-clean across every
// phase-0 deadline with no manual Checkpoint() call. Everything runs on a
// VirtualClock; DegradationEngine::RunOnce is the exact body of the
// background loop, so the pumped tests exercise the real scheduler. In
// scripts/verify.sh's TSan list because the enabled-loop tests race the
// background thread against ingest.

#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <future>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "catalog/builtin_domains.h"
#include "common/strings.h"
#include "db/database.h"
#include "gtest/gtest.h"
#include "io/env.h"
#include "util/file.h"

namespace instantdb {
namespace {

/// Forwards every operation to `base`, except that once armed it parks the
/// rename publishing the WAL's CHECKPOINT manifest until Release().
class ParkedManifestEnv final : public Env {
 public:
  /// `base` must outlive this env.
  explicit ParkedManifestEnv(Env* base) : base_(base) {}

  void Arm() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = true;
  }
  void WaitParked() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return parked_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override {
    return base_->NewWritableFile(path, truncate);
  }
  Result<std::unique_ptr<WritableFile>> NewAppendableFile(
      const std::string& path) override {
    return base_->NewAppendableFile(path);
  }
  Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override {
    return base_->NewRandomAccessFile(path);
  }
  Result<std::unique_ptr<RandomRWFile>> NewRandomRWFile(
      const std::string& path) override {
    return base_->NewRandomRWFile(path);
  }
  Status CreateDirIfMissing(const std::string& path) override {
    return base_->CreateDirIfMissing(path);
  }
  Status CreateDirs(const std::string& path) override {
    return base_->CreateDirs(path);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  Result<uint64_t> GetFileSize(const std::string& path) override {
    return base_->GetFileSize(path);
  }
  Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  Status RemoveDirRecursive(const std::string& path) override {
    return base_->RemoveDirRecursive(path);
  }
  Result<std::vector<std::string>> ListDir(const std::string& path) override {
    return base_->ListDir(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    if (to.size() >= 11 && to.compare(to.size() - 11, 11, "/CHECKPOINT") == 0) {
      std::unique_lock<std::mutex> lock(mu_);
      if (armed_) {
        armed_ = false;
        parked_ = true;
        cv_.notify_all();
        cv_.wait(lock, [&] { return released_; });
      }
    }
    return base_->RenameFile(from, to);
  }
  Status TruncateFile(const std::string& path, uint64_t size) override {
    return base_->TruncateFile(path, size);
  }

 private:
  Env* const base_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool armed_ = false;
  bool parked_ = false;
  bool released_ = false;
};

/// Threads of this process (entries of /proc/self/task).
size_t ThreadCount() {
  return static_cast<size_t>(
      std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                    std::filesystem::directory_iterator()));
}

class MaintenanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/idb_maintenance_test";
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
  }
  void TearDown() override { RemoveDirRecursive(dir_).ok(); }

  DbOptions Options(VirtualClock* clock) const {
    DbOptions options;
    options.path = dir_;
    options.clock = clock;
    options.partitions = 4;
    options.degradation.worker_threads = 2;
    options.wal.segment_bytes = 4096;  // frequent rollover + retirement
    return options;
  }

  /// pings(user STABLE, location DEGRADABLE) with one accurate phase of
  /// `phase0` then a generalized phase held forever (no tuple removal, so
  /// row counts stay stable across the clock advances).
  void CreatePings(Database* db, Micros phase0) {
    auto lcp = AttributeLcp::Make({{0, phase0}, {1, kForever}});
    ASSERT_TRUE(lcp.ok());
    auto schema = Schema::Make(
        {ColumnDef::Stable("user", ValueType::kString),
         ColumnDef::Degradable("location", LocationDomain(), *lcp)});
    ASSERT_TRUE(schema.ok());
    ASSERT_TRUE(db->CreateTable("pings", *schema).ok());
  }

  std::vector<RowId> InsertPings(Database* db, int rows) {
    std::vector<RowId> ids;
    for (int i = 0; i < rows; ++i) {
      auto id = db->Insert(
          "pings", {Value::String(StringPrintf("u%d", i)),
                    Value::String("11 Rue Lepic")});
      EXPECT_TRUE(id.ok()) << id.status().ToString();
      if (id.ok()) ids.push_back(*id);
    }
    return ids;
  }

  std::string dir_;
};

// Service 1, the cadence decision: a cadence point checkpoints iff enough
// partitions are dirty; clean points are counted, not paid for.
TEST_F(MaintenanceTest, CadenceSkipsCleanAndFiresWhenDirty) {
  VirtualClock clock(0);
  auto opened = Database::Open(Options(&clock));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> db = std::move(*opened);
  CreatePings(db.get(), kMicrosPerHour);
  DegradationEngine* engine = db->degradation();
    ASSERT_FALSE(engine->running());  // enabled=false: pumped, no thread

  // t=0, nothing dirty: the cadence point records a skip.
  ASSERT_TRUE(engine->RunOnce(clock.NowMicros()).ok());
  EXPECT_EQ(engine->maintenance_stats().checkpoints, 0u);
  EXPECT_EQ(engine->maintenance_stats().checkpoints_skipped_clean, 1u);

  // Between cadence points nothing happens, dirty or not.
  InsertPings(db.get(), 4);
  EXPECT_GE(db->DirtyPartitions(), 1u);
  ASSERT_TRUE(engine->RunOnce(clock.NowMicros()).ok());
  EXPECT_EQ(engine->maintenance_stats().checkpoints, 0u);

  // Next cadence point sees the dirty partitions and checkpoints them.
  clock.Advance(kMicrosPerSecond);
  ASSERT_TRUE(engine->RunOnce(clock.NowMicros()).ok());
  EXPECT_EQ(engine->maintenance_stats().checkpoints, 1u);
  EXPECT_EQ(db->DirtyPartitions(), 0u);

  // And the one after that is clean again.
  clock.Advance(kMicrosPerSecond);
  ASSERT_TRUE(engine->RunOnce(clock.NowMicros()).ok());
  EXPECT_EQ(engine->maintenance_stats().checkpoints, 1u);
  EXPECT_EQ(engine->maintenance_stats().checkpoints_skipped_clean, 2u);
  EXPECT_EQ(engine->maintenance_stats().forced_checkpoints, 0u);
}

// Service 1, the privacy override: when a live WAL segment still holds an
// accurate payload past its phase-0 deadline, the cadence point must
// checkpoint — and thereby retire/scrub the segment — even though the
// dirty threshold says don't.
TEST_F(MaintenanceTest, WalDeadlinePressureForcesRetirement) {
  VirtualClock clock(0);
  DbOptions options = Options(&clock);
  options.maintenance.checkpoint_interval = 100 * kMicrosPerMilli;
  options.maintenance.checkpoint_dirty_threshold = 1000;  // never "dirty"
  auto opened = Database::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> db = std::move(*opened);
  CreatePings(db.get(), kMicrosPerSecond);
  DegradationEngine* engine = db->degradation();

  InsertPings(db.get(), 8);  // payload deadlines all at t=1s

  // Before the deadline the threshold wins: no checkpoint, segments live.
  clock.Advance(100 * kMicrosPerMilli);
  ASSERT_TRUE(engine->RunOnce(clock.NowMicros()).ok());
  EXPECT_EQ(engine->maintenance_stats().checkpoints, 0u);
  EXPECT_GE(engine->maintenance_stats().checkpoints_skipped_clean, 1u);
  EXPECT_EQ(db->stats().wal.segments_retired, 0u);

  // Past the deadline the segment's min payload deadline is overdue …
  clock.Advance(kMicrosPerSecond);
  EXPECT_GT(db->wal()->AuditExposure(clock.NowMicros()).exposed_segments, 0u);

  // … and the next cadence point force-checkpoints to retire it.
  ASSERT_TRUE(engine->RunOnce(clock.NowMicros()).ok());
  EXPECT_EQ(engine->maintenance_stats().checkpoints, 1u);
  EXPECT_EQ(engine->maintenance_stats().forced_checkpoints, 1u);
  EXPECT_GT(db->stats().wal.segments_retired, 0u);
  EXPECT_EQ(db->wal()->AuditExposure(clock.NowMicros()).exposed_segments, 0u);
}

// Service 2: the audit is not a rubber stamp. Plant a stale value by
// telling the degrader to skip one partition; every sweep layer that
// holds the partition's bytes must light up, and healing the fault must
// bring the report back to clean.
TEST_F(MaintenanceTest, AuditCatchesPlantedStaleValue) {
  VirtualClock clock(0);
  auto opened = Database::Open(Options(&clock));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> db = std::move(*opened);
  CreatePings(db.get(), kMicrosPerSecond);
  Table* table = db->GetTable("pings");
  const std::vector<RowId> ids = InsertPings(db.get(), 16);
  ASSERT_EQ(ids.size(), 16u);

  // Fault: the degrader silently "loses" the partition owning row 0.
  const uint32_t victim = table->PartitionOf(ids[0]);
  uint64_t planted = 0;
  for (RowId id : ids) planted += table->PartitionOf(id) == victim ? 1 : 0;
  ASSERT_GT(planted, 0u);
  db->degradation()->TEST_FaultSkipPartition(table->id(), victim, true);

  clock.Advance(3 * kMicrosPerSecond);  // two seconds past the deadline
  ASSERT_TRUE(db->RunDegradationOnce().ok());

  AuditReport report = db->Audit();
  EXPECT_FALSE(report.clean());
  EXPECT_FALSE(report.Verify().ok());
  EXPECT_EQ(report.exposed_values, planted);
  // The worst attack window is exactly how long the fault has held the
  // values past their t=1s deadline.
  EXPECT_EQ(report.max_exposure, 2 * kMicrosPerSecond);
  ASSERT_EQ(report.tables.size(), 1u);
  EXPECT_EQ(report.tables[0].name, "pings");
  EXPECT_EQ(report.tables[0].rows_scanned, 16u);
  EXPECT_EQ(report.tables[0].exposed_values, planted);
  // The WAL still holds the accurate insert payloads too.
  EXPECT_GT(report.exposed_wal_segments, 0u);
  EXPECT_EQ(db->stats().maintenance.audits_failed, 1u);

  // Heal the fault: degrade the victim partition, let the cadence point
  // retire the overdue segments, and the audit comes back clean.
  db->degradation()->TEST_FaultSkipPartition(table->id(), victim, false);
  ASSERT_TRUE(db->RunDegradationOnce().ok());
  ASSERT_TRUE(db->degradation()->RunOnce(clock.NowMicros()).ok());
  report = db->Audit();
  EXPECT_TRUE(report.Verify().ok()) << report.ToString();
  EXPECT_EQ(db->stats().maintenance.max_exposure_seen, 2 * kMicrosPerSecond);
}

// The sweep reads each cell's phase at [row * degradable columns + column]
// of a pushdown batch: with two degradable columns on different schedules
// and several morsels per partition, only the short-lived column's cells of
// the faulted partition may count, each exactly once.
TEST_F(MaintenanceTest, AuditCountsOnlyOverdueCellsAcrossMorsels) {
  VirtualClock clock(0);
  DbOptions options = Options(&clock);
  options.wal.segment_bytes = 1 << 20;
  auto opened = Database::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> db = std::move(*opened);
  auto near = AttributeLcp::Make({{0, kMicrosPerSecond}, {1, kForever}});
  auto far = AttributeLcp::Make({{0, kMicrosPerHour}, {1, kForever}});
  ASSERT_TRUE(near.ok());
  ASSERT_TRUE(far.ok());
  auto schema = Schema::Make(
      {ColumnDef::Stable("user", ValueType::kString),
       ColumnDef::Degradable("home", LocationDomain(), *far),
       ColumnDef::Degradable("ping", LocationDomain(), *near)});
  ASSERT_TRUE(schema.ok());
  ASSERT_TRUE(db->CreateTable("pings", *schema).ok());
  Table* table = db->GetTable("pings");

  // Long stable values fill heap pages quickly, so every partition spans
  // more than one default-sized morsel.
  std::vector<RowId> ids;
  for (int b = 0; b < 32; ++b) {
    WriteBatch batch;
    for (int i = 0; i < 50; ++i) {
      batch.Insert("pings",
                   {Value::String(StringPrintf("u%d-%d-", b, i) +
                                  std::string(400, 'x')),
                    Value::String("11 Rue Lepic"), Value::String("3 Av Foch")});
    }
    ASSERT_TRUE(db->Write(&batch).ok());
    ids.insert(ids.end(), batch.row_ids().begin(), batch.row_ids().end());
  }
  ASSERT_EQ(table->live_rows(), ids.size());
  for (uint32_t p = 0; p < table->num_partitions(); ++p) {
    ASSERT_GT(table->partition(p)->MorselPlan(0).size(), 1u) << p;
  }

  const uint32_t victim = table->PartitionOf(ids[0]);
  uint64_t planted = 0;
  for (RowId id : ids) planted += table->PartitionOf(id) == victim ? 1 : 0;
  ASSERT_GT(planted, 0u);
  ASSERT_LT(planted, ids.size());
  db->degradation()->TEST_FaultSkipPartition(table->id(), victim, true);
  clock.Advance(3 * kMicrosPerSecond);
  ASSERT_TRUE(db->RunDegradationOnce().ok());

  const AuditReport report = db->Audit();
  EXPECT_EQ(report.exposed_values, planted) << report.ToString();
  EXPECT_EQ(report.max_exposure, 2 * kMicrosPerSecond);
  EXPECT_EQ(report.rows_scanned, table->live_rows());
  EXPECT_EQ(report.overdue_tuples, 0u);
  ASSERT_EQ(report.tables.size(), 1u);
  EXPECT_EQ(report.tables[0].exposed_partitions,
            std::vector<uint32_t>{victim});
  db->degradation()->TEST_FaultSkipPartition(table->id(), victim, false);
}

// The paper's unsafe baseline: a kPlain WAL retires segments by rename
// and leaves the bytes on disk. The audit flags that permanently — there
// is no clean report to be had in kPlain once a payload-bearing segment
// retires.
TEST_F(MaintenanceTest, PlainWalModeIsPermanentlyFlagged) {
  VirtualClock clock(0);
  DbOptions options = Options(&clock);
  options.wal.privacy_mode = WalPrivacyMode::kPlain;
  auto opened = Database::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> db = std::move(*opened);
  CreatePings(db.get(), kMicrosPerSecond);
  InsertPings(db.get(), 8);

  clock.Advance(2 * kMicrosPerSecond);
  ASSERT_TRUE(db->RunDegradationOnce().ok());
  ASSERT_TRUE(db->degradation()->RunOnce(clock.NowMicros()).ok());
  ASSERT_GT(db->stats().wal.segments_retired, 0u);

  const AuditReport report = db->Audit();
  EXPECT_GT(report.unscrubbed_recycled_segments, 0u);
  EXPECT_FALSE(report.clean());

  // The recycled segments outlive the process: a reopened database finds
  // them on disk and still flags every one, though it retired none itself.
  ASSERT_TRUE(db->Close().ok());
  db.reset();
  opened = Database::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  db = std::move(*opened);
  EXPECT_EQ(db->stats().wal.segments_retired, 0u);
  const AuditReport reopened = db->Audit();
  EXPECT_GE(reopened.unscrubbed_recycled_segments,
            report.unscrubbed_recycled_segments);
  EXPECT_FALSE(reopened.clean());
}

// Lifecycle: the background loop (real thread) works the cadence on a
// VirtualClock, and Close() stops it cleanly mid-flight before the final
// checkpoint.
TEST_F(MaintenanceTest, EnabledDaemonRunsAndShutsDownCleanly) {
  VirtualClock clock(0);
  DbOptions options = Options(&clock);
  options.maintenance.enabled = true;
  options.maintenance.checkpoint_interval = 100 * kMicrosPerMilli;
  options.maintenance.audit_interval = 100 * kMicrosPerMilli;
  options.degradation.background_thread = true;
  auto opened = Database::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> db = std::move(*opened);
  CreatePings(db.get(), kMicrosPerHour);  // nothing comes due in this test
  ASSERT_TRUE(db->degradation()->running());
  InsertPings(db.get(), 16);

  // Walk virtual time across cadence points until the loop has both
  // checkpointed the dirty partitions and completed an audit of the rows
  // (the audit at open saw no table). The loop is bounded by real time,
  // not virtual time — a hang fails the test.
  for (int i = 0; i < 5000; ++i) {
    const DegradationEngine::MaintenanceStats stats = db->stats().maintenance;
    if (stats.checkpoints >= 1 && stats.audit_rows_scanned > 0) break;
    clock.Advance(100 * kMicrosPerMilli);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const DegradationEngine::MaintenanceStats stats = db->stats().maintenance;
  EXPECT_GE(stats.checkpoints, 1u);
  EXPECT_GE(stats.audits, 1u);
  EXPECT_EQ(stats.audits_failed, 0u);
  EXPECT_GT(stats.audit_rows_scanned, 0u);

  ASSERT_TRUE(db->Close().ok());
  EXPECT_FALSE(db->degradation()->running());
  ASSERT_TRUE(db->Close().ok());  // idempotent
}

// One thread enforces every deadline: opening with both the degradation
// and the maintenance flags on starts exactly one thread more than opening
// with both off. No table exists, so the lazily started worker pool has not
// started either way.
TEST_F(MaintenanceTest, OpeningStartsOneBackgroundThread) {
  VirtualClock clock(0);
  size_t idle = 0;
  {
    auto opened = Database::Open(Options(&clock));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    idle = ThreadCount();
    ASSERT_TRUE((*opened)->Close().ok());
  }
  DbOptions options = Options(&clock);
  options.degradation.background_thread = true;
  options.maintenance.enabled = true;
  auto opened = Database::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(ThreadCount(), idle + 1);
  ASSERT_TRUE((*opened)->Close().ok());
}

// Database::stats() and the service front end's backlog probe never wait
// behind a cadence checkpoint's I/O: with a step parked inside the
// checkpoint's manifest rename, both return at once.
TEST_F(MaintenanceTest, StatsDoNotWaitBehindACadenceCheckpoint) {
  ParkedManifestEnv env(Env::Default());
  VirtualClock clock(0);
  DbOptions options = Options(&clock);
  options.env = &env;
  auto opened = Database::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> db = std::move(*opened);
  CreatePings(db.get(), kMicrosPerHour);
  InsertPings(db.get(), 4);  // dirty partitions: the cadence point flushes
  DegradationEngine* engine = db->degradation();

  env.Arm();
  const Micros now = clock.NowMicros();
  std::thread step([&] { EXPECT_TRUE(engine->RunOnce(now).ok()); });
  env.WaitParked();
  // Each reader runs on its own thread, so one that blocks fails the test
  // instead of hanging it.
  auto checkpoints = std::async(std::launch::async, [&] {
    return db->stats().maintenance.checkpoints;
  });
  auto overdue = std::async(std::launch::async,
                            [&] { return engine->OverdueUnits(now); });
  const bool stats_returned = checkpoints.wait_for(std::chrono::seconds(1)) ==
                              std::future_status::ready;
  const bool overdue_returned = overdue.wait_for(std::chrono::seconds(1)) ==
                                std::future_status::ready;
  env.Release();
  step.join();
  EXPECT_TRUE(stats_returned) << "stats() waited behind the checkpoint";
  EXPECT_TRUE(overdue_returned) << "OverdueUnits waited behind the checkpoint";
  EXPECT_EQ(checkpoints.get(), 0u);  // the parked checkpoint had not finished
  EXPECT_EQ(overdue.get(), 0u);
  EXPECT_EQ(engine->maintenance_stats().checkpoints, 1u);
}

// The acceptance bar: with the cadences at 100 ms, an
// audit taken after EVERY phase-0 deadline reports zero exposed values
// across stores, indexes and WAL segments — with no manual
// Checkpoint() call anywhere. Parameterized over the privacy modes that
// can be clean (kPlain is the unsafe baseline, proven dirty above).
class MaintenanceAcceptanceTest
    : public MaintenanceTest,
      public ::testing::WithParamInterface<WalPrivacyMode> {};

TEST_P(MaintenanceAcceptanceTest, DaemonKeepsEveryLayerCleanAtEveryDeadline) {
  constexpr Micros kStep = 100 * kMicrosPerMilli;
  constexpr Micros kPhase0 = 500 * kMicrosPerMilli;

  VirtualClock clock(0);
  DbOptions options = Options(&clock);
  options.wal.privacy_mode = GetParam();
  options.maintenance.checkpoint_interval = kStep;
  options.maintenance.audit_interval = kStep;
  auto opened = Database::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> db = std::move(*opened);
  CreatePings(db.get(), kPhase0);
  DegradationEngine* engine = db->degradation();

  // Ingest a batch every 300 ms over three virtual seconds; each batch's
  // phase-0 deadline lands exactly on a later cadence point. At every step
  // the degrader runs, then the cadence point, then a full audit
  // that must be clean — including the steps where a deadline just fired.
  int inserted = 0;
  for (int step = 0; step < 30; ++step) {
    if (step % 3 == 0) {
      InsertPings(db.get(), 8);
      inserted += 8;
    }
    clock.Advance(kStep);
    const Micros now = clock.NowMicros();
    ASSERT_TRUE(db->RunDegradationOnce().ok());
    ASSERT_TRUE(engine->RunOnce(now).ok());
    const AuditReport report = db->Audit();
    ASSERT_TRUE(report.Verify().ok())
        << "step " << step << ": " << report.ToString();
    EXPECT_EQ(report.at, now);
  }

  // The cadence did the checkpointing: cadence points fired, several were
  // real checkpoints (every 300 ms batch dirties partitions), and the worst
  // attack window any audit saw across all 30 deadline-crossing steps is
  // exactly zero.
  const DegradationEngine::MaintenanceStats stats = db->stats().maintenance;
  EXPECT_GE(stats.checkpoints, 5u);
  EXPECT_GE(stats.audits, 30u);
  EXPECT_EQ(stats.audits_failed, 0u);
  EXPECT_EQ(stats.max_exposure_seen, 0);
  EXPECT_GE(stats.audit_rows_scanned, static_cast<uint64_t>(inserted));
  if (GetParam() == WalPrivacyMode::kCryptoErase) {
    // Retirement destroyed each retired segment's key: one key per live
    // segment is left.
    const WalManager::Stats wal = db->stats().wal;
    EXPECT_GT(wal.segments_retired, 0u);
    EXPECT_EQ(db->keys()->live_keys(),
              wal.segments_created - wal.segments_retired);
  }
  ASSERT_TRUE(db->Close().ok());
}

INSTANTIATE_TEST_SUITE_P(PrivacyModes, MaintenanceAcceptanceTest,
                         ::testing::Values(WalPrivacyMode::kScrub,
                                           WalPrivacyMode::kCryptoErase),
                         [](const auto& info) {
                           return info.param == WalPrivacyMode::kScrub
                                      ? "Scrub"
                                      : "CryptoErase";
                         });

}  // namespace
}  // namespace instantdb
