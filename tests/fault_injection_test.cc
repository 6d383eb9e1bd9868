// Fault-injection I/O + error-sticky durability (ISSUE 8): every
// durability-bearing component routes its file I/O through the Env seam,
// so these tests substitute a FaultInjectionEnv and prove the privacy
// contract survives a hostile filesystem:
//
//  - a failed WAL fdatasync permanently poisons the stream (fsyncgate:
//    a retry could succeed while covering nothing) and every in-flight
//    group-commit waiter receives the error instead of an ack;
//  - ENOSPC degrades gracefully: writes fail with IOError("no space"),
//    reads keep working, and the error stays sticky on the stream;
//  - the torture harness runs >= 50 seeded randomized fault/crash
//    schedules (durable ingest + degradation + checkpoints under injected
//    faults, then a simulated power cut) and asserts zero durability
//    violations (recovered ⊇ acked, ⊆ attempted) and zero privacy
//    violations (the recovered database audits clean);
//  - torn store/heap writes surface as truncated-at-CRC loads and
//    Corruption reads, never as decoded garbage;
//  - the background loop retries transient checkpoint and degradation
//    failures with one capped backoff, the previous WAL manifest stays
//    authoritative across a failed rename, and Close() surfaces the first
//    sticky background error even after the retry succeeded.
//
// The base seed is fixed (deterministic in CI) and overridable via
// IDB_FAULT_SEED; scripts/verify.sh runs this suite under TSan as well.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "catalog/builtin_domains.h"
#include "common/strings.h"
#include "db/database.h"
#include "extra_leaves.h"
#include "gtest/gtest.h"
#include "io/env.h"
#include "io/fault_env.h"
#include "scan_oracle.h"
#include "storage/disk_manager.h"
#include "storage/key_manager.h"
#include "storage/state_store.h"
#include "util/file.h"

namespace instantdb {
namespace {

uint64_t BaseSeed() {
  const char* seed = std::getenv("IDB_FAULT_SEED");
  if (seed != nullptr && *seed != '\0') {
    return std::strtoull(seed, nullptr, 10);
  }
  return 20260808ull;
}

std::set<std::string> DumpUsers(Table* table) {
  std::set<std::string> users;
  auto stored = oracle::StoredRows(*table);
  EXPECT_TRUE(stored.ok());
  if (!stored.ok()) return users;
  for (const oracle::Stored& view : *stored) {
    users.insert(view.values[0].ToString());
  }
  return users;
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/idb_fault_injection_test";
    clone_ = dir_ + "_clone";
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
    ASSERT_TRUE(RemoveDirRecursive(clone_).ok());
  }
  void TearDown() override {
    RemoveDirRecursive(dir_).ok();
    RemoveDirRecursive(clone_).ok();
  }

  DbOptions Options(const std::string& path, VirtualClock* clock,
                    Env* env) const {
    DbOptions options;
    options.path = path;
    options.clock = clock;
    options.env = env;
    options.partitions = 2;
    options.degradation.worker_threads = 1;
    options.degradation.step_batch_limit = 16;
    // kScrub: retired segments are scrubbed, so a recovered database can
    // audit fully clean (kPlain leaves recycled segments unscrubbed by
    // design and never comes clean).
    options.wal.privacy_mode = WalPrivacyMode::kScrub;
    options.wal.segment_bytes = 4096;  // frequent rollover + retirement
    return options;
  }

  /// pings(user STABLE, location DEGRADABLE): accurate for an hour, then a
  /// generalized phase held forever — tuples never expire, so every acked
  /// insert must survive recovery with its user intact.
  void CreatePings(Database* db) {
    auto lcp = AttributeLcp::Make({{0, kMicrosPerHour}, {1, kForever}});
    ASSERT_TRUE(lcp.ok());
    auto schema = Schema::Make(
        {ColumnDef::Stable("user", ValueType::kString),
         ColumnDef::Degradable("location", LocationDomain(), *lcp)});
    ASSERT_TRUE(schema.ok());
    ASSERT_TRUE(db->CreateTable("pings", *schema).ok());
  }

  /// Opens `options`, creates `pings` with `lcp`, makes 20 synced inserts
  /// at t = 0, checkpoints when asked, runs one degradation pass an hour
  /// later and reopens the crash image taken right after it.
  std::unique_ptr<Database> CrashRightAfterOneStep(DbOptions options,
                                                   const AttributeLcp& lcp,
                                                   bool checkpoint) {
    FaultInjectionEnv fault(Env::Default());
    VirtualClock clock(0);
    options.clock = &clock;
    options.env = &fault;
    auto opened = Database::Open(options);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    if (!opened.ok()) return nullptr;
    std::unique_ptr<Database> db = std::move(*opened);
    auto schema = Schema::Make(
        {ColumnDef::Stable("user", ValueType::kString),
         ColumnDef::Degradable("location", LocationDomain(), lcp)});
    EXPECT_TRUE(schema.ok() && db->CreateTable("pings", *schema).ok());
    WriteOptions durable;
    durable.sync = true;
    for (int i = 0; i < kCrashRows; ++i) {
      EXPECT_TRUE(db->Insert("pings",
                             {Value::String("u" + std::to_string(i)),
                              Value::String("11 Rue Lepic")},
                             durable)
                      .ok());
    }
    if (checkpoint) EXPECT_TRUE(db->Checkpoint().ok());
    clock.Advance(kMicrosPerHour);
    auto moved = db->RunDegradationOnce();
    EXPECT_TRUE(moved.ok()) << moved.status().ToString();
    EXPECT_TRUE(fault.SimulateCrashTo(dir_, clone_).ok());
    db.reset();

    options.path = clone_;
    options.env = nullptr;
    crash_clock_ = std::make_unique<VirtualClock>(clock.NowMicros());
    options.clock = crash_clock_.get();
    auto recovered = Database::Open(options);
    EXPECT_TRUE(recovered.ok()) << recovered.status().ToString();
    return recovered.ok() ? std::move(*recovered) : nullptr;
  }

  /// Values `table` holds in `phase` of its location column.
  static size_t ValuesAt(const Table* table, int phase) {
    size_t values = 0;
    for (uint32_t p = 0; p < table->num_partitions(); ++p) {
      values += table->partition(p)->store(1, phase)->size();
    }
    return values;
  }

  static constexpr int kCrashRows = 20;
  std::string dir_;
  std::string clone_;
  /// The reopened crash image's clock, at the crash instant.
  std::unique_ptr<VirtualClock> crash_clock_;
};

// A full store segment seals with an fsync. A checkpoint syncs only the
// open tail, so a sealed segment it did not sync could hold inserts whose
// WAL records the checkpoint then retires: 200 synced inserts over 512-byte
// segments, one checkpoint, and the crash image must hold all 200 values.
TEST_F(FaultInjectionTest, CheckpointKeepsValuesOfSealedStoreSegments) {
  FaultInjectionEnv fault(Env::Default());
  VirtualClock clock(0);
  DbOptions options = Options(dir_, &clock, &fault);
  options.storage.segment_bytes = 512;
  auto opened = Database::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> db = std::move(*opened);
  CreatePings(db.get());
  WriteOptions durable;
  durable.sync = true;
  constexpr uint64_t kRows = 200;
  for (uint64_t i = 0; i < kRows; ++i) {
    ASSERT_TRUE(db->Insert("pings",
                           {Value::String("u" + std::to_string(i)),
                            Value::String("11 Rue Lepic")},
                           durable)
                    .ok());
  }
  ASSERT_TRUE(db->Checkpoint().ok());
  ASSERT_TRUE(fault.SimulateCrashTo(dir_, clone_).ok());
  db.reset();

  options.path = clone_;
  options.env = nullptr;
  auto recovered = Database::Open(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  Table* table = (*recovered)->GetTable("pings");
  EXPECT_EQ(table->live_rows(), kRows);
  EXPECT_EQ(ValuesAt(table, 0), kRows);
  EXPECT_EQ((*recovered)->stats().stores.entries, kRows);
}

// A degradation step writes no log record, so a crash right after it must
// find each degraded value in the next phase's store. Here the step drains
// the checkpointed phase-0 segment and erases it: the phase-1 store is
// synced first.
TEST_F(FaultInjectionTest, CrashAfterAStepThatErasedPhaseZeroKeepsPhaseOne) {
  std::unique_ptr<Database> db = CrashRightAfterOneStep(
      Options(dir_, nullptr, nullptr),
      *AttributeLcp::Make({{0, kMicrosPerHour}, {1, kForever}}),
      /*checkpoint=*/true);
  ASSERT_NE(db, nullptr);
  Table* table = db->GetTable("pings");
  EXPECT_EQ(table->live_rows(), static_cast<uint64_t>(kCrashRows));
  EXPECT_EQ(ValuesAt(table, 0), 0u);
  EXPECT_EQ(ValuesAt(table, 1), static_cast<size_t>(kCrashRows));
  // A reopened log counts as exposed until a checkpoint retires it.
  ASSERT_TRUE(db->Checkpoint().ok());
  const AuditReport audit = db->Audit();
  EXPECT_TRUE(audit.clean()) << audit.ToString();
}

// The same under kEncryptedEpoch with no checkpoint: the step destroys the
// epoch key of the inserts' log payloads, the only other durable copy of
// the values. The stores are synced before the key goes.
TEST_F(FaultInjectionTest, CrashAfterAStepThatDestroyedTheEpochKeyKeepsValues) {
  DbOptions options = Options(dir_, nullptr, nullptr);
  options.wal.privacy_mode = WalPrivacyMode::kEncryptedEpoch;
  std::unique_ptr<Database> db = CrashRightAfterOneStep(
      options, *AttributeLcp::Make({{0, kMicrosPerHour}, {1, kForever}}),
      /*checkpoint=*/false);
  ASSERT_NE(db, nullptr);
  Table* table = db->GetTable("pings");
  EXPECT_EQ(table->live_rows(), static_cast<uint64_t>(kCrashRows));
  EXPECT_EQ(ValuesAt(table, 0), 0u);
  EXPECT_EQ(ValuesAt(table, 1), static_cast<size_t>(kCrashRows));
  // A reopened log counts as exposed until a checkpoint retires it.
  ASSERT_TRUE(db->Checkpoint().ok());
  const AuditReport audit = db->Audit();
  EXPECT_TRUE(audit.clean()) << audit.ToString();
}

// A removal to ⊥ that expired every tuple, then a crash: the heap rows the
// checkpoint had flushed come back with no store holding any value, and
// recovery expires them (the paper's disappearance rule) instead of
// keeping stable columns nothing will ever remove.
TEST_F(FaultInjectionTest, CrashAfterAnExpiringStepLeavesNoTuple) {
  std::unique_ptr<Database> db = CrashRightAfterOneStep(
      Options(dir_, nullptr, nullptr),
      *AttributeLcp::Make({{0, kMicrosPerHour}}), /*checkpoint=*/true);
  ASSERT_NE(db, nullptr);
  Table* table = db->GetTable("pings");
  EXPECT_EQ(table->live_rows(), 0u);
  EXPECT_EQ(ValuesAt(table, 0), 0u);
  // A reopened log counts as exposed until a checkpoint retires it.
  ASSERT_TRUE(db->Checkpoint().ok());
  const AuditReport audit = db->Audit();
  EXPECT_TRUE(audit.clean()) << audit.ToString();
  for (int pass = 0; pass < 4; ++pass) {
    ASSERT_TRUE(db->RunDegradationOnce().ok());
  }
  EXPECT_EQ(table->live_rows(), 0u);
}

// The deterministic fsyncgate test: one WAL stream, many concurrent durable
// committers, and the very next fdatasync fails with EIO. The failure must
// poison the stream permanently, and EVERY in-flight committer — the sync
// leader and all parked group-commit waiters — must receive the error; none
// may be acked, because none of their bytes are provably on disk.
TEST_F(FaultInjectionTest, FsyncEioPoisonsStreamAndFailsAllWaiters) {
  FaultInjectionEnv fault(Env::Default());
  VirtualClock clock(0);
  auto opened = Database::Open(Options(dir_, &clock, &fault));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> db = std::move(*opened);
  CreatePings(db.get());

  WriteOptions durable;
  durable.sync = true;
  ASSERT_TRUE(
      db->Insert("pings",
                 {Value::String("baseline"), Value::String("11 Rue Lepic")},
                 durable)
          .ok());

  // The next fdatasync anywhere under the WAL directory returns EIO.
  fault.FailOnce(FaultOp::kSync, 1, Status::IOError("injected fsync EIO"),
                 "/wal/");

  // All committers race onto the single stream: one leads the failing sync,
  // the rest are parked on the group-commit watermark or fail fast on the
  // already-poisoned stream. Poisoning wakes the parked waiters with the
  // error, and no later sync can succeed — so no commit can be acked.
  constexpr int kCommitters = 8;
  std::vector<Status> statuses(kCommitters);
  std::vector<std::thread> threads;
  for (int t = 0; t < kCommitters; ++t) {
    threads.emplace_back([&, t] {
      auto id = db->Insert(
          "pings",
          {Value::String(StringPrintf("w%d", t)), Value::String("11 Rue Lepic")},
          durable);
      statuses[t] = id.status();
    });
  }
  for (std::thread& t : threads) t.join();
  // Every exit from the sync wait (failed lead, poisoned while parked)
  // gave back its waiter count: a leak would shed writes forever at the
  // service front end's WAL rung.
  EXPECT_EQ(db->wal()->SyncWaiters(), 0u);
  for (int t = 0; t < kCommitters; ++t) {
    EXPECT_FALSE(statuses[t].ok()) << "committer " << t << " was acked past a "
                                   << "failed fsync";
    EXPECT_TRUE(statuses[t].ToString().find("poisoned") != std::string::npos)
        << statuses[t].ToString();
  }

  // Sticky: the stream stays failed, later commits fail fast.
  Status later =
      db->Insert("pings", {Value::String("late"), Value::String("11 Rue Lepic")}, durable)
          .status();
  EXPECT_FALSE(later.ok());
  EXPECT_TRUE(later.ToString().find("poisoned") != std::string::npos)
      << later.ToString();

  // Reads keep working: only the baseline row is visible.
  EXPECT_EQ(db->GetTable("pings")->live_rows(), 1u);
  EXPECT_EQ(DumpUsers(db->GetTable("pings")),
            std::set<std::string>{"baseline"});

  const Database::Stats stats = db->stats();
  EXPECT_EQ(stats.wal.poisoned, 1u);
  EXPECT_GE(stats.io.sync_failures, 1u);
  EXPECT_GE(stats.io.injected_faults, 1u);
  // The fsyncgate invariant: a failed sync is never silently forgotten.
  EXPECT_TRUE(stats.wal.poisoned > 0 || stats.io.retries > 0);

  // Close cannot pretend the database shut down healthy: the final
  // checkpoint hits the poisoned stream.
  EXPECT_FALSE(db->Close().ok());
}

// ENOSPC graceful degradation: with the "disk" full, writes surface
// IOError("no space") while every read path keeps serving; clearing the
// condition does not un-poison the stream (the refused append already broke
// the LSN/byte correspondence).
TEST_F(FaultInjectionTest, DiskFullFailsWritesKeepsReadsWorking) {
  FaultInjectionEnv fault(Env::Default());
  VirtualClock clock(0);
  auto opened = Database::Open(Options(dir_, &clock, &fault));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> db = std::move(*opened);
  CreatePings(db.get());

  WriteOptions durable;
  durable.sync = true;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(db->Insert("pings",
                           {Value::String(StringPrintf("u%d", i)),
                            Value::String("11 Rue Lepic")},
                           durable)
                    .ok());
  }

  fault.SetDiskFull(dir_);
  Status full =
      db->Insert("pings", {Value::String("u4"), Value::String("11 Rue Lepic")}, durable)
          .status();
  ASSERT_FALSE(full.ok());
  EXPECT_TRUE(full.IsIOError()) << full.ToString();
  EXPECT_TRUE(full.ToString().find("no space") != std::string::npos)
      << full.ToString();

  // The database is still fully readable while the disk is full.
  EXPECT_EQ(db->GetTable("pings")->live_rows(), 4u);
  EXPECT_EQ(DumpUsers(db->GetTable("pings")).size(), 4u);
  EXPECT_GE(db->stats().io.injected_faults, 1u);

  // Space coming back does not resurrect the stream: the failed append
  // already poisoned it (sticky-fail, not transparent retry).
  fault.ClearDiskFull();
  Status later =
      db->Insert("pings", {Value::String("u5"), Value::String("11 Rue Lepic")}, durable)
          .status();
  EXPECT_FALSE(later.ok());
  EXPECT_TRUE(later.ToString().find("poisoned") != std::string::npos)
      << later.ToString();
  EXPECT_EQ(db->stats().wal.poisoned, 1u);
  EXPECT_EQ(db->GetTable("pings")->live_rows(), 4u);

  EXPECT_FALSE(db->Close().ok());
}

// The randomized crash-point torture harness: >= 50 seeded schedules of
// durable ingest + degradation + checkpoints with one-shot faults armed at
// random points, each ending in a simulated power cut. Recovering the crash
// image must violate neither the durability contract (every acked commit
// survives; nothing appears that was never attempted) nor the privacy
// contract (after pumping recovered degradation and one maintenance cadence
// point, the deletion-assurance audit is clean).
TEST_F(FaultInjectionTest, TortureRandomizedFaultCrashSchedules) {
  constexpr int kSchedules = 50;
  constexpr int kRounds = 6;
  constexpr int kRowsPerRound = 4;
  const uint64_t base_seed = BaseSeed();

  const FaultOp kOps[] = {FaultOp::kSync, FaultOp::kAppend, FaultOp::kWrite,
                          FaultOp::kRename, FaultOp::kAllocate};
  const char* kPaths[] = {"", "/wal/", "seg_", "heap"};

  for (int schedule = 0; schedule < kSchedules; ++schedule) {
    const uint64_t seed = base_seed + static_cast<uint64_t>(schedule);
    SCOPED_TRACE("schedule seed " + std::to_string(seed));
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
    ASSERT_TRUE(RemoveDirRecursive(clone_).ok());
    std::mt19937_64 rng(seed);

    FaultInjectionEnv fault(Env::Default());
    VirtualClock clock(0);
    auto opened = Database::Open(Options(dir_, &clock, &fault));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<Database> db = std::move(*opened);
    CreatePings(db.get());

    std::set<std::string> attempted;
    std::set<std::string> acked;
    bool saw_error = false;
    WriteOptions durable;
    durable.sync = true;

    for (int round = 0; round < kRounds; ++round) {
      // Arm a random one-shot fault about half the time. Short writes are
      // deliberately absent here: a half-persisted store frame followed by
      // the flush retry is not a crash-consistent state (the dedicated
      // torn-tail tests cover short writes against a reopen instead).
      if (rng() % 2 == 0) {
        fault.FailOnce(kOps[rng() % std::size(kOps)],
                       /*countdown=*/1 + static_cast<int>(rng() % 6),
                       Status::IOError("injected torture fault"),
                       kPaths[rng() % std::size(kPaths)]);
      }

      WriteBatch batch;
      std::vector<std::string> users;
      for (int r = 0; r < kRowsPerRound; ++r) {
        users.push_back(StringPrintf("s%d.r%d.%d", schedule, round, r));
        batch.Insert("pings", {Value::String(users.back()),
                               Value::String("11 Rue Lepic")});
        attempted.insert(users.back());
      }
      Status wrote = db->Write(&batch, durable);
      if (wrote.ok()) {
        acked.insert(users.begin(), users.end());
      } else {
        saw_error = true;
      }

      clock.Advance((1 + rng() % 30) * kMicrosPerMinute);
      if (!db->RunDegradationOnce().ok()) saw_error = true;
      if (rng() % 2 == 0 && !db->Checkpoint().ok()) saw_error = true;
    }

    // Every injected sync failure must be accounted for: a poisoned stream,
    // a counted background retry, or an error surfaced to this caller —
    // never a silent retry-and-forget.
    const Database::Stats stats = db->stats();
    if (stats.io.sync_failures > 0) {
      EXPECT_TRUE(stats.wal.poisoned > 0 || stats.io.retries > 0 ||
                  saw_error)
          << "a sync failure vanished without a trace";
    }

    // Power cut: clone the tree, destroy everything unsynced in the clone,
    // and recover it with a clean filesystem.
    fault.ClearFaults();
    ASSERT_TRUE(fault.SimulateCrashTo(dir_, clone_).ok());
    db.reset();  // the source's Close may fail (poisoned stream) — ignored

    VirtualClock recovered_clock(clock.NowMicros());
    auto recovered = Database::Open(
        Options(clone_, &recovered_clock, /*env=*/nullptr));
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    std::unique_ptr<Database> rdb = std::move(*recovered);
    Table* table = rdb->GetTable("pings");
    ASSERT_NE(table, nullptr);

    // Durability: no lost acked commit, no resurrected never-attempted row.
    // (An unacked commit may legitimately survive — its bytes can become
    // durable through a later rotation seal even though the committer saw an
    // error — hence superset-of-acked, subset-of-attempted rather than
    // equality.)
    const std::set<std::string> surviving = DumpUsers(table);
    EXPECT_TRUE(std::includes(surviving.begin(), surviving.end(),
                              acked.begin(), acked.end()))
        << "lost acked commit: acked=" << acked.size()
        << " survived=" << surviving.size();
    EXPECT_TRUE(std::includes(attempted.begin(), attempted.end(),
                              surviving.begin(), surviving.end()))
        << "resurrected row that was never attempted";

    // Privacy: drain whatever degradation became due, run one maintenance
    // cadence point (checkpoint + segment retirement), and the audit must
    // prove no value outlived its deadline anywhere — stores, indexes, WAL
    // segments, epoch keys.
    const Micros now = recovered_clock.NowMicros();
    for (int i = 0; i < 200 && table->NextDeadline() <= now; ++i) {
      auto moved = rdb->RunDegradationOnce();
      ASSERT_TRUE(moved.ok()) << moved.status().ToString();
      if (*moved == 0) break;
    }
    ASSERT_TRUE(rdb->degradation()->RunOnce(now).ok());
    const AuditReport report = rdb->Audit();
    EXPECT_TRUE(report.Verify().ok()) << report.ToString();
    EXPECT_TRUE(rdb->Close().ok());
  }
}

// Torn-tail detection in the state store: a short write tears the tail of a
// CRC-framed (v2) segment; reopening must load the durable prefix intact and
// drop the torn frames instead of decoding garbage.
/// The location tree plus the strings the state-store fault tests frame.
std::shared_ptr<const DomainHierarchy> FaultStoreDomain() {
  std::vector<std::string> labels = {"payload"};
  for (int r = 1; r <= 12; ++r) labels.push_back("v" + std::to_string(r));
  return WithExtraLeaves(*LocationDomain(), labels);
}

TEST_F(FaultInjectionTest, StateStoreShortWriteTruncatesAtTornFrame) {
  const auto domain = FaultStoreDomain();
  FaultInjectionEnv fault(Env::Default());
  ASSERT_TRUE(fault.CreateDirs(dir_).ok());
  KeyManager keys(dir_ + "/KEYSTORE", &fault);
  ASSERT_TRUE(keys.Open().ok());

  const std::string store_dir = dir_ + "/store_a";
  {
    StateStore store(store_dir, /*table=*/1, /*column=*/0, /*phase=*/0,
                     domain.get(), /*level=*/0, StorageOptions(), &keys,
                     &fault);
    ASSERT_TRUE(store.Open().ok());
    for (RowId r = 1; r <= 8; ++r) {
      ASSERT_TRUE(store
                      .Append({r, /*insert_time=*/100,
                               Value::String(StringPrintf("v%llu",
                                                          (unsigned long long)r))})
                      .ok());
    }
    ASSERT_TRUE(store.Checkpoint().ok());  // rows 1..8 are durable

    for (RowId r = 9; r <= 12; ++r) {
      ASSERT_TRUE(store
                      .Append({r, 100,
                               Value::String(StringPrintf("v%llu",
                                                          (unsigned long long)r))})
                      .ok());
    }
    // The next segment append persists half its payload, then fails: the
    // checkpoint that tried to flush the tail must report the error.
    fault.ShortWriteOnce(1, "seg_");
    EXPECT_FALSE(store.Checkpoint().ok());
  }

  // Recover with a clean env: the CRC framing cuts the load at the torn
  // frame — the checkpointed prefix is intact, every loaded row carries its
  // exact value, and nothing past the tear survives.
  KeyManager keys2(dir_ + "/KEYSTORE", Env::Default());
  ASSERT_TRUE(keys2.Open().ok());
  StateStore reopened(store_dir, 1, 0, 0, domain.get(), 0, StorageOptions(),
                      &keys2, Env::Default());
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_GE(reopened.size(), 8u);
  EXPECT_LT(reopened.size(), 12u);
  for (RowId r = 1; r <= 8; ++r) {
    const std::optional<StoreEntryView> entry = reopened.Find(r);
    ASSERT_NE(entry, std::nullopt) << "durable row " << r << " lost";
    EXPECT_EQ(domain->AncestorValue(entry->ordinal, 0).ToString(),
              StringPrintf("v%llu", (unsigned long long)r));
  }
  // Prefix property: a loaded post-checkpoint frame implies every earlier
  // one loaded too (frames are cut at the first CRC mismatch, never cherry-
  // picked past it).
  bool missing = false;
  for (RowId r = 9; r <= 12; ++r) {
    if (reopened.Find(r) == std::nullopt) {
      missing = true;
    } else {
      EXPECT_FALSE(missing) << "frame " << r << " loaded past a torn frame";
    }
  }
}

// Bitrot detection: flipping one durable payload byte must invalidate the
// frame's CRC on load — the store drops the frame (and everything after it)
// rather than serving a corrupted value as the row's state.
TEST_F(FaultInjectionTest, StateStoreCrcRejectsCorruptedPayload) {
  const auto domain = FaultStoreDomain();
  Env* env = Env::Default();
  ASSERT_TRUE(env->CreateDirs(dir_).ok());
  KeyManager keys(dir_ + "/KEYSTORE", env);
  ASSERT_TRUE(keys.Open().ok());

  const std::string store_dir = dir_ + "/store_b";
  std::string segment_path;
  {
    StateStore store(store_dir, 1, 0, 0, domain.get(), 0, StorageOptions(),
                     &keys, env);
    ASSERT_TRUE(store.Open().ok());
    for (RowId r = 1; r <= 8; ++r) {
      ASSERT_TRUE(store.Append({r, 100, Value::String("payload")}).ok());
    }
    ASSERT_TRUE(store.Checkpoint().ok());
  }
  auto names = env->ListDir(store_dir);
  ASSERT_TRUE(names.ok());
  for (const std::string& name : *names) {
    if (name.find("seg_") != std::string::npos) {
      segment_path = store_dir + "/" + name;
    }
  }
  ASSERT_FALSE(segment_path.empty());

  // Flip the first payload byte of the first frame: 8-byte magic header,
  // then [len|crc|payload] — the payload starts at offset 16.
  auto file = env->NewRandomRWFile(segment_path);
  ASSERT_TRUE(file.ok());
  std::string scratch;
  Slice byte;
  ASSERT_TRUE((*file)->Read(16, 1, &scratch, &byte).ok());
  const char flipped = static_cast<char>(byte[0] ^ 0xff);
  ASSERT_TRUE((*file)->Write(16, Slice(&flipped, 1)).ok());
  ASSERT_TRUE((*file)->Sync().ok());

  StateStore reopened(store_dir, 1, 0, 0, domain.get(), 0, StorageOptions(),
                      &keys, env);
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_EQ(reopened.size(), 0u);  // the very first frame failed its CRC
  EXPECT_EQ(reopened.Find(1), std::nullopt);
}

// Heap page checksums: a torn (half-persisted) page write, a flipped byte
// and a torn write that left a zero checksum word must all surface as
// Corruption on read, never as a decoded page.
TEST_F(FaultInjectionTest, HeapPageChecksumDetectsTornAndCorruptPages) {
  constexpr size_t kPageSize = 4096;
  FaultInjectionEnv fault(Env::Default());
  ASSERT_TRUE(fault.CreateDirs(dir_).ok());
  const std::string path = dir_ + "/heap.db";

  auto opened = DiskManager::Open(path, kPageSize, &fault);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<DiskManager> heap = std::move(*opened);

  auto p0 = heap->AllocatePage();
  ASSERT_TRUE(p0.ok());
  auto p1 = heap->AllocatePage();
  ASSERT_TRUE(p1.ok());

  std::string page_a(kPageSize, 'a');
  std::string page_b(kPageSize, 'b');
  ASSERT_TRUE(heap->WritePage(*p0, page_a.data()).ok());
  ASSERT_TRUE(heap->WritePage(*p1, page_a.data()).ok());
  std::vector<char> buf(kPageSize);
  ASSERT_TRUE(heap->ReadPage(*p0, buf.data()).ok());
  // Bytes outside the checksum word [4..8) round-trip exactly.
  EXPECT_EQ(std::string(buf.data(), 4), page_a.substr(0, 4));
  EXPECT_EQ(std::string(buf.data() + 8, kPageSize - 8), page_a.substr(8));

  // Torn write: only half of the new page reaches the file, leaving a
  // half-new half-old hybrid whose stored CRC matches neither.
  fault.ShortWriteOnce(1, "heap.db");
  EXPECT_FALSE(heap->WritePage(*p0, page_b.data()).ok());
  Status torn = heap->ReadPage(*p0, buf.data());
  EXPECT_TRUE(torn.IsCorruption()) << torn.ToString();
  EXPECT_TRUE(torn.ToString().find("checksum mismatch") != std::string::npos)
      << torn.ToString();

  // Bitrot on the other page: flip one byte behind the manager's back.
  auto file = Env::Default()->NewRandomRWFile(path);
  ASSERT_TRUE(file.ok());
  const uint64_t offset = static_cast<uint64_t>(*p1) * kPageSize + 100;
  std::string scratch;
  Slice byte;
  ASSERT_TRUE((*file)->Read(offset, 1, &scratch, &byte).ok());
  const char flipped = static_cast<char>(byte[0] ^ 0xff);
  ASSERT_TRUE((*file)->Write(offset, Slice(&flipped, 1)).ok());
  ASSERT_TRUE((*file)->Sync().ok());
  Status rot = heap->ReadPage(*p1, buf.data());
  EXPECT_TRUE(rot.IsCorruption()) << rot.ToString();

  // Torn write over a freshly allocated (all-zero) page: the second half
  // lands, the first half, checksum word included, stays zero. A zero word
  // exempts only an all-zero page, so this one is Corruption too.
  auto p2 = heap->AllocatePage();
  ASSERT_TRUE(p2.ok());
  ASSERT_TRUE(heap->WritePage(*p2, page_a.data()).ok());
  const std::string zero_half(kPageSize / 2, '\0');
  ASSERT_TRUE((*file)
                  ->Write(static_cast<uint64_t>(*p2) * kPageSize, zero_half)
                  .ok());
  ASSERT_TRUE((*file)->Sync().ok());
  Status zeroed = heap->ReadPage(*p2, buf.data());
  EXPECT_TRUE(zeroed.IsCorruption()) << zeroed.ToString();
}

// A transient I/O error in a degrade step's apply, after the step's WAL
// commit, must not stall degradation until a restart. The commit re-runs
// the failed apply once; here the fault outlasts that retry, so the step
// ends (its transaction holds nothing afterwards), and the next pass in the
// same process re-collects the values still in the from-phase store and
// completes the move.
TEST_F(FaultInjectionTest, FailedDegradeApplyCompletesOnNextPass) {
  FaultInjectionEnv fault(Env::Default());
  VirtualClock clock(0);
  DbOptions options;
  options.path = dir_;
  options.clock = &clock;
  options.env = &fault;
  // Epoch-keyed WAL: the pass that drains phase 0 destroys the accurate
  // values' log keys, so the audit needs no checkpoint to come clean.
  options.wal.privacy_mode = WalPrivacyMode::kEncryptedEpoch;
  auto opened = Database::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> db = std::move(*opened);
  auto schema = Schema::Make(
      {ColumnDef::Stable("user", ValueType::kString),
       ColumnDef::Degradable("location", LocationDomain(), Fig2LocationLcp())});
  ASSERT_TRUE(schema.ok());
  ASSERT_TRUE(db->CreateTable("pings", *schema).ok());
  constexpr int kRows = 3000;
  for (int start = 0; start < kRows; start += 100) {
    WriteBatch batch;
    for (int i = start; i < start + 100; ++i) {
      batch.Insert("pings", {Value::String("u" + std::to_string(i)),
                             Value::String("11 Rue Lepic")});
    }
    ASSERT_TRUE(db->Write(&batch).ok());
  }

  // The phase-1 store's buffered flush fails inside the step: the values
  // not yet appended stay in phase 0 for the next pass.
  fault.FailOnce(FaultOp::kAppend, 1, Status::IOError("injected append EIO"),
                 "c1.p1");
  clock.Advance(kMicrosPerHour + kMicrosPerSecond);
  auto failed = db->RunDegradationOnce();
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsIOError()) << failed.status().ToString();

  auto retried = db->RunDegradationOnce();
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_GT(*retried, 0u);
  const AuditReport audit = db->Audit();
  EXPECT_TRUE(audit.clean()) << audit.ToString();
  Table* table = db->GetTable("pings");
  EXPECT_TRUE(table->partition(0)->store(1, 0)->empty());
  EXPECT_EQ(table->partition(0)->store(1, 1)->size(),
            static_cast<size_t>(kRows));
}

// A transient I/O error in a user commit's apply, after its WAL commit,
// converges inside that commit: the failed record and the ones after it are
// applied again (an apply is the idempotent redo), and the insert whose
// store append failed is completed and counted once. No reopen.
TEST_F(FaultInjectionTest, FailedInsertApplyIsRetriedInTheSameCommit) {
  FaultInjectionEnv fault(Env::Default());
  VirtualClock clock(0);
  auto opened = Database::Open(Options(dir_, &clock, &fault));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> db = std::move(*opened);
  ASSERT_NO_FATAL_FAILURE(CreatePings(db.get()));

  // The phase-0 store's buffered flush fails partway through the batch's
  // apply: that row is in the heap, its location is in no store.
  fault.FailOnce(FaultOp::kAppend, 1, Status::IOError("injected append EIO"),
                 "c1.p0");
  constexpr uint64_t kRows = 1000;
  WriteBatch batch;
  for (uint64_t i = 0; i < kRows; ++i) {
    batch.Insert("pings", {Value::String("u" + std::to_string(i)),
                           Value::String("11 Rue Lepic")});
  }
  const Status written = db->Write(&batch);
  ASSERT_TRUE(written.ok()) << written.ToString();
  EXPECT_EQ(fault.io_counters().injected_faults, 1u);

  Table* table = db->GetTable("pings");
  EXPECT_EQ(table->live_rows(), kRows);
  EXPECT_EQ(DumpUsers(table).size(), kRows);
  EXPECT_EQ(table->stats().inserts, kRows);
  size_t stored = 0;
  for (uint32_t p = 0; p < table->num_partitions(); ++p) {
    stored += table->partition(p)->store(1, 0)->size();
    const TablePartition::IndexAuditCounts index =
        table->partition(p)->AuditIndexes();
    EXPECT_EQ(index.stale, 0u);
    EXPECT_EQ(index.missing, 0u);
  }
  EXPECT_EQ(stored, kRows);
  EXPECT_EQ(db->stats().stores.entries, kRows);
  EXPECT_EQ(db->stats().index.entries, kRows);
  const AuditReport audit = db->Audit();
  EXPECT_TRUE(audit.clean()) << audit.ToString();
}

// A user commit whose apply fails and whose retry fails too is durable but
// half applied: one row is in the heap with its location in no store. The
// next checkpoint must finish that commit before its manifest moves past
// the commit's records, because no later redo would replay them.
TEST_F(FaultInjectionTest, CheckpointFinishesACommitWhoseApplyFailedTwice) {
  FaultInjectionEnv fault(Env::Default());
  VirtualClock clock(0);
  auto opened = Database::Open(Options(dir_, &clock, &fault));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> db = std::move(*opened);
  ASSERT_NO_FATAL_FAILURE(CreatePings(db.get()));

  // The phase-0 store's buffered flush fails inside the commit's apply and
  // again inside its retry.
  for (int i = 0; i < 2; ++i) {
    fault.FailOnce(FaultOp::kAppend, 1, Status::IOError("injected append EIO"),
                   "c1.p0");
  }
  constexpr uint64_t kRows = 1000;
  WriteBatch batch;
  std::set<std::string> users;
  for (uint64_t i = 0; i < kRows; ++i) {
    users.insert("u" + std::to_string(i));
    batch.Insert("pings", {Value::String("u" + std::to_string(i)),
                           Value::String("11 Rue Lepic")});
  }
  const Status written = db->Write(&batch);
  ASSERT_TRUE(written.IsIOError()) << written.ToString();
  EXPECT_EQ(fault.io_counters().injected_faults, 2u);
  EXPECT_EQ(db->stats().txn.commits_pending, 1u);

  // The fault is spent: the checkpoint re-applies the commit first.
  ASSERT_TRUE(db->Checkpoint().ok());
  EXPECT_EQ(db->stats().txn.commits_pending, 0u);
  EXPECT_EQ(db->stats().txn.commits_reapplied, 1u);
  Table* table = db->GetTable("pings");
  EXPECT_EQ(table->live_rows(), kRows);
  EXPECT_EQ(DumpUsers(table), users);
  size_t stored = 0;
  for (uint32_t p = 0; p < table->num_partitions(); ++p) {
    stored += table->partition(p)->store(1, 0)->size();
    const TablePartition::IndexAuditCounts index =
        table->partition(p)->AuditIndexes();
    EXPECT_EQ(index.stale, 0u);
    EXPECT_EQ(index.missing, 0u);
  }
  EXPECT_EQ(stored, kRows);
  EXPECT_EQ(db->stats().index.entries, kRows);
  const AuditReport audit = db->Audit();
  EXPECT_TRUE(audit.clean()) << audit.ToString();

  // A crash image taken after that checkpoint reopens to the same rows.
  ASSERT_TRUE(db->wal()->Sync().ok());
  std::filesystem::remove_all(clone_);
  std::filesystem::copy(dir_, clone_,
                        std::filesystem::copy_options::recursive);
  auto recovered = Database::Open(Options(clone_, &clock, nullptr));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  Table* reopened = (*recovered)->GetTable("pings");
  EXPECT_EQ(reopened->live_rows(), kRows);
  EXPECT_EQ(DumpUsers(reopened), users);
  EXPECT_EQ((*recovered)->stats().stores.entries, kRows);
}

// The checkpoint cadence against a transiently broken disk: a failed
// manifest rename leaves the previous CHECKPOINT manifest authoritative,
// schedules a capped-backoff retry that tracks the unmet deadline pressure
// (so the recovered disk immediately drives the overdue checkpoint even
// though the failed attempt flushed every partition clean), and the first
// error stays sticky all the way into stats().io and Close().
TEST_F(FaultInjectionTest, MaintenanceRetriesCheckpointAndKeepsOldManifest) {
  FaultInjectionEnv fault(Env::Default());
  VirtualClock clock(0);
  auto opened = Database::Open(Options(dir_, &clock, &fault));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> db = std::move(*opened);
  CreatePings(db.get());
  DegradationEngine* engine = db->degradation();

  WriteOptions durable;
  durable.sync = true;
  ASSERT_TRUE(
      db->Insert("pings", {Value::String("u0"), Value::String("11 Rue Lepic")}, durable)
          .ok());

  // A healthy cadence point: dirty partitions, checkpoint runs.
  clock.Advance(kMicrosPerSecond);
  Micros now = clock.NowMicros();
  ASSERT_TRUE(engine->RunOnce(now).ok());
  ASSERT_EQ(engine->maintenance_stats().checkpoints, 1u);
  auto before = db->wal()->ReadCheckpointLsn();
  ASSERT_TRUE(before.ok());

  ASSERT_TRUE(
      db->Insert("pings", {Value::String("u1"), Value::String("11 Rue Lepic")}, durable)
          .ok());

  // The next manifest publish fails at the rename. The partitions still
  // flush (that part of the checkpoint succeeded), but the previous
  // manifest must stay authoritative and the cadence must schedule a
  // floor-delay retry.
  fault.FailOnce(FaultOp::kRename, 1, Status::IOError("injected rename EIO"),
                 "CHECKPOINT");
  clock.Advance(2 * kMicrosPerSecond);
  now = clock.NowMicros();
  Status failed = engine->RunOnce(now);
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.IsIOError()) << failed.ToString();
  EXPECT_EQ(engine->next_checkpoint_due(), now + 10'000);  // backoff floor
  EXPECT_EQ(engine->stats().io_retries, 1u);
  auto after_failure = db->wal()->ReadCheckpointLsn();
  ASSERT_TRUE(after_failure.ok());
  EXPECT_EQ(*after_failure, *before) << "a failed rename replaced the "
                                     << "authoritative manifest";

  // Disk recovers: the retry point fires 10 ms later and the pending
  // deadline pressure pushes the checkpoint through even though the failed
  // attempt left every partition clean.
  clock.Advance(10'000);
  now = clock.NowMicros();
  ASSERT_TRUE(engine->RunOnce(now).ok());
  EXPECT_EQ(engine->maintenance_stats().checkpoints, 2u);
  auto after_retry = db->wal()->ReadCheckpointLsn();
  ASSERT_TRUE(after_retry.ok());
  EXPECT_NE(*after_retry, *before) << "the retried checkpoint never "
                                   << "published a new manifest";

  // The transient failure is observable forever: stats().io carries the
  // retry count and first error, and Close refuses to report a healthy
  // shutdown even though the retry succeeded.
  const Database::Stats stats = db->stats();
  EXPECT_GE(stats.io.retries, 1u);
  EXPECT_FALSE(stats.io.first_error.empty());
  EXPECT_TRUE(stats.io.first_error.find("injected rename EIO") !=
              std::string::npos)
      << stats.io.first_error;
  if (stats.io.sync_failures > 0) {
    EXPECT_TRUE(stats.wal.poisoned > 0 || stats.io.retries > 0);
  }
  Status closed = db->Close();
  EXPECT_FALSE(closed.ok());
  EXPECT_TRUE(closed.IsIOError()) << closed.ToString();
}

// The same backoff guards the degradation pass on the background thread.
// The phase-1 store's buffered flush fails in a background step, so the
// pass fails. The loop must
// then wait out the 10 ms floor rather than spin on the still-overdue
// deadline, and once the fault is spent every value reaches its next phase
// in the same process. The failure stays sticky into Close().
TEST_F(FaultInjectionTest, BackgroundLoopBacksOffAfterAFailedPass) {
  FaultInjectionEnv fault(Env::Default());
  VirtualClock clock(0);
  DbOptions options = Options(dir_, &clock, &fault);
  options.degradation.background_thread = true;
  auto opened = Database::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> db = std::move(*opened);
  CreatePings(db.get());
  // Enough rows that a pass fills a phase-1 store's write buffer and
  // flushes it to the file.
  constexpr uint64_t kRows = 1000;
  for (uint64_t start = 0; start < kRows; start += 100) {
    WriteBatch batch;
    for (uint64_t i = start; i < start + 100; ++i) {
      batch.Insert("pings", {Value::String("u" + std::to_string(i)),
                             Value::String("11 Rue Lepic")});
    }
    ASSERT_TRUE(db->Write(&batch).ok());
  }
  Table* table = db->GetTable("pings");

  fault.FailOnce(FaultOp::kAppend, 1, Status::IOError("injected append EIO"),
                 "c1.p1");
  clock.Advance(kMicrosPerHour);  // the phase-0 deadline: the loop wakes
  // Bounded by real time: a loop that never fails fails the test.
  for (int i = 0; i < 5000 && db->stats().io.retries == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(db->stats().io.retries, 1u);
  EXPECT_EQ(fault.io_counters().injected_faults, 1u);
  const uint64_t moved = table->stats().values_degraded;
  EXPECT_LT(moved, kRows);

  // Virtual time short of the floor: the loop stays parked. A loop that
  // spun would have retried on the spent fault and moved the rest.
  clock.Advance(10'000 - 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(db->stats().io.retries, 1u);
  EXPECT_EQ(table->stats().values_degraded, moved);

  // At the floor the retry runs and completes every move.
  clock.Advance(1);
  for (int i = 0; i < 5000 && table->stats().values_degraded < kRows; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(table->stats().values_degraded, kRows);
  EXPECT_EQ(db->degradation()->NextDeadline(), kForever);
  EXPECT_EQ(db->stats().io.retries, 1u);
  EXPECT_TRUE(db->stats().io.first_error.find("injected append EIO") !=
              std::string::npos)
      << db->stats().io.first_error;

  const Status closed = db->Close();
  EXPECT_TRUE(closed.IsIOError()) << closed.ToString();
}

}  // namespace
}  // namespace instantdb
