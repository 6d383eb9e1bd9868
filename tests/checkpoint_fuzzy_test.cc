// Fuzzy checkpoints under the asynchronous commit pipeline (ISSUE 4):
// incremental per-partition checkpoints run concurrently with multi-
// threaded durable WriteBatch ingest and a background degrader, and a
// crash image taken afterwards must recover to exactly the pre-crash
// state — no lost rows (every acked commit survives) and no resurrected
// ones (no row, value or phase more accurate than the live state). It runs
// in every privacy mode; the test is in
// scripts/verify.sh's TSan list because it drives the group-commit
// watermark, the checkpoint worker pool and the degradation pool against
// each other.

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>
#include <vector>

#include "catalog/builtin_domains.h"
#include "common/strings.h"
#include "db/database.h"
#include "gtest/gtest.h"
#include "scan_oracle.h"
#include "util/file.h"

namespace instantdb {
namespace {

/// One row's recovered identity: id, user, stored location value, phase.
struct RowState {
  RowId row_id;
  std::string user;
  std::string location;
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

void CopyTree(const std::string& from, const std::string& to) {
  std::filesystem::remove_all(to);
  std::filesystem::copy(from, to, std::filesystem::copy_options::recursive);
}

class CheckpointFuzzyTest : public ::testing::TestWithParam<WalPrivacyMode> {
 protected:
  WalPrivacyMode mode() const { return GetParam(); }

  void SetUp() override {
    dir_ = ::testing::TempDir() + "/idb_ckpt_fuzzy_test";
    clone_ = dir_ + "_clone";
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
    ASSERT_TRUE(RemoveDirRecursive(clone_).ok());
  }
  void TearDown() override {
    RemoveDirRecursive(dir_).ok();
    RemoveDirRecursive(clone_).ok();
  }

  DbOptions Options(const std::string& path, VirtualClock* clock) {
    DbOptions options;
    options.path = path;
    options.clock = clock;
    options.partitions = 4;
    options.degradation.worker_threads = 2;
    options.degradation.step_batch_limit = 16;  // many small steps
    options.wal.privacy_mode = mode();
    options.wal.segment_bytes = 4096;  // frequent rollover + retirement
    return options;
  }

  std::string dir_;
  std::string clone_;
};

TEST_P(CheckpointFuzzyTest, ConcurrentCheckpointsLoseAndResurrectNothing) {
  constexpr int kWriters = 4;
  constexpr int kBatchesPerWriter = 8;
  constexpr int kRowsPerBatch = 8;
  constexpr uint64_t kTotalRows =
      uint64_t{kWriters} * kBatchesPerWriter * kRowsPerBatch;

  VirtualClock clock(0);
  DbOptions options = Options(dir_, &clock);
  options.degradation.background_thread = true;
  // Third checkpoint driver: the maintenance daemon's cadence fires on
  // every 10-minute Advance below, so its checkpoints race the manual ones
  // AND the ingest/degrader threads.
  options.maintenance.enabled = true;
  options.maintenance.checkpoint_interval = kMicrosPerMinute;
  auto opened = Database::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> db = std::move(*opened);

  // Two phases (address for an hour, city forever): tuples never expire,
  // so every acked insert must survive recovery with its user intact.
  auto lcp = AttributeLcp::Make({{0, kMicrosPerHour}, {1, kForever}});
  ASSERT_TRUE(lcp.ok());
  auto schema = Schema::Make(
      {ColumnDef::Stable("user", ValueType::kString),
       ColumnDef::Degradable("location", LocationDomain(), *lcp)});
  ASSERT_TRUE(schema.ok());
  ASSERT_TRUE(db->CreateTable("pings", *schema).ok());

  std::atomic<int> errors{0};
  std::mutex error_mu;
  std::string first_error;  // first failing status, for the assert below
  auto record_error = [&](const Status& status, const char* who) {
    ++errors;
    std::lock_guard<std::mutex> lock(error_mu);
    if (first_error.empty()) {
      first_error = std::string(who) + ": " + status.ToString();
    }
  };
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      WriteOptions durable;
      durable.sync = true;  // every commit demands the group-commit watermark
      for (int b = 0; b < kBatchesPerWriter; ++b) {
        WriteBatch batch;
        for (int r = 0; r < kRowsPerBatch; ++r) {
          batch.Insert("pings",
                       {Value::String(StringPrintf("u%d.%d.%d", t, b, r)),
                        Value::String("11 Rue Lepic")});
        }
        // Inserts take no lock, so nothing can abort a pure-insert batch.
        const Status status = db->Write(&batch, durable);
        if (!status.ok()) {
          record_error(status, "writer");
          return;
        }
      }
    });
  }

  // Checkpoint while ingest commits and the degrader steps: fuzzy begin
  // positions + dirty-partition skipping race live appends and applies.
  for (int i = 0; i < 12; ++i) {
    clock.Advance(10 * kMicrosPerMinute);  // spreads phase-0 deadlines out
    Status ckpt = db->Checkpoint();
    if (!ckpt.ok()) record_error(ckpt, "checkpoint");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (std::thread& t : writers) t.join();

  // Let the degrader drain what is due, then quiesce so the live dump is a
  // stable reference state.
  clock.Advance(kMicrosPerHour);
  Table* table = db->GetTable("pings");
  for (int i = 0; i < 5000 && table->NextDeadline() != kForever; ++i) {
    clock.WakeAll();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  db->degradation()->Stop();
  ASSERT_EQ(errors.load(), 0) << first_error;

  const Database::Stats stats = db->stats();
  EXPECT_GE(stats.checkpoints, 12u);
  // Watermark bookkeeping: every durability demand either led a sync or was
  // absorbed by another leader's.
  EXPECT_EQ(stats.wal.sync_requests,
            stats.wal.syncs + stats.wal.commits_absorbed);

  const std::vector<RowState> before = DumpTable(table);
  ASSERT_EQ(before.size(), kTotalRows);

  // Crash image: sync the WAL and snapshot the directory while the source
  // stays open — nothing below relies on a clean shutdown checkpoint. The
  // daemon must stop first (Stop joins, so any in-flight cadence checkpoint
  // drains): a checkpoint scrubbing segments mid-copy would hand CopyTree a
  // vanishing file list.
  db->maintenance()->Stop();
  ASSERT_TRUE(db->wal()->Sync().ok());
  CopyTree(dir_, clone_);

  VirtualClock recovered_clock(clock.NowMicros());
  auto recovered = Database::Open(Options(clone_, &recovered_clock));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  // Exact state equality is simultaneously the no-lost-rows check (every
  // acked row present with its user) and the no-resurrection check (no
  // extra row, no value or phase more accurate than the live state).
  EXPECT_EQ(DumpTable((*recovered)->GetTable("pings")), before);
}

TEST_P(CheckpointFuzzyTest, MostlyCleanDatabaseFlushesOnlyDirtyPartitions) {
  VirtualClock clock(0);
  auto opened = Database::Open(Options(dir_, &clock));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> db = std::move(*opened);
  auto lcp = AttributeLcp::Make({{0, kMicrosPerHour}, {1, kForever}});
  ASSERT_TRUE(lcp.ok());
  auto schema = Schema::Make(
      {ColumnDef::Stable("user", ValueType::kString),
       ColumnDef::Degradable("location", LocationDomain(), *lcp)});
  ASSERT_TRUE(schema.ok());
  ASSERT_TRUE(db->CreateTable("pings", *schema).ok());

  // One WriteBatch is partition-affine: exactly one of the 4 partitions is
  // dirty, the rest must be skipped as clean.
  WriteBatch batch;
  for (int r = 0; r < 8; ++r) {
    batch.Insert("pings", {Value::String(StringPrintf("u%d", r)),
                           Value::String("11 Rue Lepic")});
  }
  ASSERT_TRUE(db->Write(&batch).ok());
  ASSERT_TRUE(db->Checkpoint().ok());
  Database::Stats stats = db->stats();
  EXPECT_EQ(stats.checkpoint_partitions_flushed, 1u);
  EXPECT_EQ(stats.checkpoint_partitions_clean, 3u);

  // Nothing changed since: the second checkpoint flushes nothing at all.
  ASSERT_TRUE(db->Checkpoint().ok());
  stats = db->stats();
  EXPECT_EQ(stats.checkpoint_partitions_flushed, 1u);
  EXPECT_EQ(stats.checkpoint_partitions_clean, 7u);

  // The skipped flushes must not weaken recovery: crash-recover the image
  // and find every row.
  ASSERT_TRUE(db->wal()->Sync().ok());
  CopyTree(dir_, clone_);
  VirtualClock recovered_clock(clock.NowMicros());
  auto recovered = Database::Open(Options(clone_, &recovered_clock));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->GetTable("pings")->live_rows(), 8u);
}

INSTANTIATE_TEST_SUITE_P(AllPrivacyModes, CheckpointFuzzyTest,
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
