#include <algorithm>
#include <chrono>
#include <future>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "catalog/builtin_domains.h"
#include "db/database.h"
#include "degradable_mix.h"
#include "gtest/gtest.h"
#include "scan_oracle.h"
#include "util/file.h"

namespace instantdb {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/idb_engine_test";
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
    clock_ = std::make_unique<VirtualClock>(0);
  }
  void TearDown() override {
    db_.reset();
    RemoveDirRecursive(dir_).ok();
  }

  void OpenDb(DegradationOptions degradation = {}, WalOptions wal = {}) {
    DbOptions options;
    options.path = dir_;
    options.clock = clock_.get();
    options.degradation = degradation;
    options.wal = wal;
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
  }

  Schema PingSchema(AttributeLcp lcp) {
    return *Schema::Make(
        {ColumnDef::Stable("user", ValueType::kString),
         ColumnDef::Degradable("location", LocationDomain(), std::move(lcp))});
  }

  std::string dir_;
  std::unique_ptr<VirtualClock> clock_;
  std::unique_ptr<Database> db_;
};

TEST_F(EngineTest, NextDeadlineTracksEarliestStoreHead) {
  OpenDb();
  ASSERT_TRUE(db_->CreateTable("pings", PingSchema(Fig2LocationLcp())).ok());
  EXPECT_EQ(db_->degradation()->NextDeadline(), kForever);
  ASSERT_TRUE(db_->Insert("pings", {Value::String("a"),
                                    Value::String("11 Rue Lepic")}).ok());
  EXPECT_EQ(db_->degradation()->NextDeadline(), kMicrosPerHour);
  clock_->Advance(10 * kMicrosPerMinute);
  ASSERT_TRUE(db_->Insert("pings", {Value::String("b"),
                                    Value::String("3 Av Foch")}).ok());
  // Earliest deadline still belongs to the first tuple.
  EXPECT_EQ(db_->degradation()->NextDeadline(), kMicrosPerHour);
}

TEST_F(EngineTest, StepBatchLimitBoundsOneStep) {
  DegradationOptions degradation;
  degradation.step_batch_limit = 10;
  OpenDb(degradation);
  ASSERT_TRUE(db_->CreateTable("pings", PingSchema(Fig2LocationLcp())).ok());
  for (int i = 0; i < 35; ++i) {
    ASSERT_TRUE(db_->Insert("pings", {Value::String("u"),
                                      Value::String("11 Rue Lepic")}).ok());
  }
  clock_->Advance(kMicrosPerHour);
  // RunDue keeps issuing bounded steps until the backlog drains.
  auto moved = db_->RunDegradationOnce();
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(*moved, 35u);
  const auto stats = db_->degradation()->stats();
  EXPECT_GE(stats.steps, 4u);  // ceil(35 / 10)
  EXPECT_EQ(stats.values_moved, 35u);
}

TEST_F(EngineTest, MultipleTablesScheduledIndependently) {
  OpenDb();
  ASSERT_TRUE(db_->CreateTable("fast", PingSchema(*AttributeLcp::Make(
                                            {{0, kMicrosPerMinute}})))
                  .ok());
  ASSERT_TRUE(db_->CreateTable("slow", PingSchema(Fig2LocationLcp())).ok());
  ASSERT_TRUE(db_->Insert("fast", {Value::String("a"),
                                   Value::String("11 Rue Lepic")}).ok());
  ASSERT_TRUE(db_->Insert("slow", {Value::String("b"),
                                   Value::String("3 Av Foch")}).ok());
  EXPECT_EQ(db_->degradation()->NextDeadline(), kMicrosPerMinute);
  clock_->Advance(kMicrosPerMinute);
  auto moved = db_->RunDegradationOnce();
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(*moved, 1u);  // only the fast table's tuple (removed at 1min)
  EXPECT_EQ(db_->GetTable("fast")->live_rows(), 0u);
  EXPECT_EQ(db_->GetTable("slow")->live_rows(), 1u);
  // Slow table's deadline now governs.
  EXPECT_EQ(db_->degradation()->NextDeadline(), kMicrosPerHour);
}

TEST_F(EngineTest, BackgroundThreadDegradesOnVirtualClock) {
  DegradationOptions degradation;
  degradation.background_thread = true;
  OpenDb(degradation);
  ASSERT_TRUE(db_->CreateTable("pings", PingSchema(Fig2LocationLcp())).ok());
  auto row = db_->Insert("pings", {Value::String("a"),
                                   Value::String("11 Rue Lepic")});
  ASSERT_TRUE(row.ok());
  clock_->Advance(kMicrosPerHour);  // wakes the sleeping degrader
  // Wait (bounded) for the background thread to act.
  for (int i = 0; i < 500; ++i) {
    if (db_->GetTable("pings")->stats().values_degraded > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // The degrader is idle again (its next deadline is a day away), so the
  // table is quiescent for the oracle.
  auto view = oracle::StoredRow(*db_->GetTable("pings"), *row);
  ASSERT_TRUE(view.ok());
  ASSERT_TRUE(view->has_value());
  const int col = db_->GetTable("pings")->schema().FindColumn("location");
  EXPECT_EQ((*view)->values[col], Value::String("Paris"));
}

TEST_F(EngineTest, DroppedTableLeavesScheduler) {
  OpenDb();
  ASSERT_TRUE(db_->CreateTable("pings", PingSchema(Fig2LocationLcp())).ok());
  ASSERT_TRUE(db_->Insert("pings", {Value::String("a"),
                                    Value::String("11 Rue Lepic")}).ok());
  ASSERT_TRUE(db_->DropTable("pings").ok());
  EXPECT_EQ(db_->degradation()->NextDeadline(), kForever);
  clock_->Advance(kMicrosPerMonth);
  auto moved = db_->RunDegradationOnce();
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(*moved, 0u);
}

TEST_F(EngineTest, LatenessReflectsDelayedPumping) {
  OpenDb();
  ASSERT_TRUE(db_->CreateTable("pings", PingSchema(Fig2LocationLcp())).ok());
  ASSERT_TRUE(db_->Insert("pings", {Value::String("a"),
                                    Value::String("11 Rue Lepic")}).ok());
  // Pump 30 minutes late: lateness is recorded per value.
  clock_->Advance(kMicrosPerHour + 30 * kMicrosPerMinute);
  ASSERT_TRUE(db_->RunDegradationOnce().ok());
  const Histogram& lateness = db_->GetTable("pings")->lateness_histogram();
  ASSERT_EQ(lateness.count(), 1u);
  EXPECT_DOUBLE_EQ(lateness.max(),
                   static_cast<double>(30 * kMicrosPerMinute));
}

// Degradation is a system action no user transaction can hold back: an
// open transaction that staged a delete and a stable update neither delays
// the pass nor leaves a value exposed, and its later commit deletes the row
// from every store and index without bringing any value back.
TEST_F(EngineTest, OpenUserTransactionCannotStopDegradation) {
  // Epoch-keyed WAL: the pass that drains phase 0 also destroys the keys of
  // the accurate values' log records, so the audit can come clean without
  // a checkpoint.
  WalOptions wal;
  wal.privacy_mode = WalPrivacyMode::kEncryptedEpoch;
  OpenDb({}, wal);
  ASSERT_TRUE(db_->CreateTable("pings", mix::MixSchema()).ok());
  Table* table = db_->GetTable("pings");
  WriteBatch batch;
  for (int i = 0; i < 101; ++i) {
    batch.Insert("pings", {Value::String("u" + std::to_string(i)),
                           Value::Int64(i), Value::String("11 Rue Lepic"),
                           Value::Int64(i * 100)});
  }
  ASSERT_TRUE(db_->Write(&batch).ok());
  const RowId deleted = batch.row_ids()[7];
  const RowId updated = batch.row_ids()[8];

  auto txn = db_->Begin();
  ASSERT_TRUE(table->Delete(txn.get(), deleted).ok());
  ASSERT_TRUE(table
                  ->UpdateStable(txn.get(), updated,
                                 {Value::String("renamed"), Value::Int64(-1)})
                  .ok());

  clock_->Advance(kMicrosPerHour + kMicrosPerSecond);
  auto moved = db_->RunDegradationOnce();
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  EXPECT_EQ(*moved, 202u);  // both degradable columns of every row
  const AuditReport while_open = db_->Audit();
  EXPECT_TRUE(while_open.clean()) << while_open.ToString();

  ASSERT_TRUE(db_->Commit(txn.get()).ok());
  const Schema& schema = table->schema();
  for (int col : schema.degradable_columns()) {
    for (int phase = 0; phase < schema.column(col).lcp.num_phases();
         ++phase) {
      EXPECT_FALSE(table->partition(0)->store(col, phase)->Find(deleted))
          << "column " << col << " phase " << phase;
    }
  }
  std::vector<std::vector<RowId>> indexed;
  ASSERT_TRUE(table
                  ->IndexLookupEqual(schema.FindColumn("location"),
                                     Value::String("Paris"), 1, &indexed)
                  .ok());
  ASSERT_EQ(indexed.size(), 1u);
  EXPECT_EQ(indexed[0].size(), 100u);
  EXPECT_EQ(std::count(indexed[0].begin(), indexed[0].end(), deleted), 0);

  auto rows = oracle::StoredRows(*table);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 100u);
  for (const oracle::Stored& row : *rows) {
    EXPECT_NE(row.row_id, deleted);
    EXPECT_EQ(row.phases, (std::vector<int>{1, 1})) << row.row_id;
    if (row.row_id == updated) {
      EXPECT_EQ(row.values[0].ToString(), "renamed");
    }
  }
  auto again = db_->RunDegradationOnce();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 0u);
  const AuditReport committed = db_->Audit();
  EXPECT_TRUE(committed.clean()) << committed.ToString();
}

// Steps on one partition run one at a time. While one pass's step is in
// flight, a second pass skips the partition instead of collecting the
// prefix the first is moving: a step collected twice could be logged after
// the other pass had carried its values further, and redo would replay it
// over that move.
TEST_F(EngineTest, SecondPassSkipsAPartitionWhoseStepIsInFlight) {
  OpenDb();
  ASSERT_TRUE(db_->CreateTable("pings", PingSchema(Fig2LocationLcp())).ok());
  Table* table = db_->GetTable("pings");
  std::vector<RowId> rows;
  for (int i = 0; i < 3; ++i) {
    auto row = db_->Insert("pings", {Value::String("u" + std::to_string(i)),
                                     Value::String("11 Rue Lepic")});
    ASSERT_TRUE(row.ok());
    rows.push_back(*row);
  }
  clock_->Advance(kMicrosPerHour);

  // A reader parks inside a batch with the partition latch held shared, so
  // the first pass's step collects, logs, and then waits in its apply.
  class ParkingFilter final : public TupleFilter {
   public:
    ParkingFilter(std::promise<void>* entered, std::shared_future<void> go)
        : entered_(entered), go_(std::move(go)) {}
    bool Matches(const FieldView*) const override {
      entered_->set_value();
      go_.wait();
      return true;
    }

   private:
    std::promise<void>* entered_;
    std::shared_future<void> go_;
  };
  std::promise<void> entered;
  std::promise<void> release;
  ParkingFilter filter(&entered, release.get_future().share());
  std::thread reader([&] {
    ScanSpec spec;
    spec.filter = &filter;
    spec.need_degradable = false;
    spec.filter_columns.assign(1, true);
    spec.output_columns.assign(1, false);
    ScanWorkspace ws;
    ScanDeltas deltas;
    bool done = false;
    PartitionCursor cursor = table->OpenRowIdCursor(0, {rows[0]});
    EXPECT_TRUE(cursor.NextBatch(16, spec, &ws, &done, &deltas).ok());
  });
  entered.get_future().wait();

  // The step begins its transaction after the collect, holding the
  // partition's step from then until its apply returns.
  const uint64_t started = db_->txn_manager()->stats().started;
  auto first = std::async(std::launch::async,
                          [&] { return db_->RunDegradationOnce(); });
  while (db_->txn_manager()->stats().started == started) {
    std::this_thread::yield();
  }
  auto second = std::async(std::launch::async,
                           [&] { return db_->RunDegradationOnce(); });
  EXPECT_EQ(second.wait_for(std::chrono::seconds(10)),
            std::future_status::ready)
      << "the second pass waited for the first's partition";
  release.set_value();
  reader.join();

  auto moved_second = second.get();
  auto moved_first = first.get();
  ASSERT_TRUE(moved_first.ok()) << moved_first.status().ToString();
  ASSERT_TRUE(moved_second.ok()) << moved_second.status().ToString();
  EXPECT_EQ(*moved_first, 3u);
  EXPECT_EQ(*moved_second, 0u);
  EXPECT_EQ(table->stats().degrade_steps, 1u);
  EXPECT_EQ(table->stats().values_degraded, 3u);
  const AuditReport audit = db_->Audit();
  EXPECT_EQ(audit.stale_index_entries, 0u) << audit.ToString();
  EXPECT_EQ(audit.missing_index_entries, 0u) << audit.ToString();
}

// Property sweep: for any LCP phase timing, a tuple pumped exactly at each
// boundary is always in the phase the automaton predicts — storage and
// automaton never disagree.
class LcpConformanceTest
    : public ::testing::TestWithParam<std::vector<LcpPhase>> {};

TEST_P(LcpConformanceTest, StorageMatchesAutomaton) {
  const std::string dir = ::testing::TempDir() + "/idb_conformance";
  ASSERT_TRUE(RemoveDirRecursive(dir).ok());
  VirtualClock clock;
  DbOptions options;
  options.path = dir;
  options.clock = &clock;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());
  auto lcp = AttributeLcp::Make(GetParam());
  ASSERT_TRUE(lcp.ok());
  auto schema = Schema::Make(
      {ColumnDef::Stable("u", ValueType::kString),
       ColumnDef::Degradable("loc", LocationDomain(), *lcp)});
  ASSERT_TRUE(schema.ok());
  ASSERT_TRUE((*db)->CreateTable("t", *schema).ok());
  auto row = (*db)->Insert("t", {Value::String("x"),
                                 Value::String("11 Rue Lepic")});
  ASSERT_TRUE(row.ok());

  for (int p = 0; p < lcp->num_phases(); ++p) {
    const Micros end = lcp->PhaseEndOffset(p);
    if (end == kForever) break;
    // One microsecond before the boundary: still in phase p.
    clock.AdvanceTo(end - 1);
    ASSERT_TRUE((*db)->RunDegradationOnce().ok());
    auto view = *oracle::StoredRow(*(*db)->GetTable("t"), *row);
    ASSERT_TRUE(view.has_value());
    EXPECT_EQ(view->phases[0], p) << "before boundary of phase " << p;
    // At the boundary: moved on (or expired).
    clock.AdvanceTo(end);
    ASSERT_TRUE((*db)->RunDegradationOnce().ok());
    view = *oracle::StoredRow(*(*db)->GetTable("t"), *row);
    if (p + 1 < lcp->num_phases()) {
      ASSERT_TRUE(view.has_value());
      EXPECT_EQ(view->phases[0], p + 1) << "after boundary of phase " << p;
    } else {
      EXPECT_FALSE(view.has_value()) << "tuple should expire after last phase";
    }
  }
  db->reset();
  RemoveDirRecursive(dir).ok();
}

INSTANTIATE_TEST_SUITE_P(
    PolicyShapes, LcpConformanceTest,
    ::testing::Values(
        std::vector<LcpPhase>{{0, kMicrosPerHour}},
        std::vector<LcpPhase>{{0, kMicrosPerMinute}, {1, kMicrosPerMinute}},
        std::vector<LcpPhase>{{0, kMicrosPerHour},
                              {1, kMicrosPerDay},
                              {2, kMicrosPerMonth},
                              {3, kMicrosPerMonth}},
        std::vector<LcpPhase>{{0, 2 * kMicrosPerHour}, {2, kMicrosPerDay}},
        std::vector<LcpPhase>{{1, kMicrosPerHour}, {3, kMicrosPerDay}},
        std::vector<LcpPhase>{{0, kMicrosPerHour}, {3, kForever}}));

/// A degradation step moves each value to the next phase's store, where it
/// must carry the leaf ordinal of its generalized value at that phase's
/// level — in every WAL privacy mode, and again after a reopen.
class DegradeOrdinalTest : public ::testing::TestWithParam<WalPrivacyMode> {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/idb_degrade_ordinal_test";
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
  }
  void TearDown() override {
    db_.reset();
    RemoveDirRecursive(dir_).ok();
  }

  void Open() {
    db_.reset();
    DbOptions options;
    options.path = dir_;
    options.clock = &clock_;
    options.wal.privacy_mode = GetParam();
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
  }

  /// Checks every mirror entry of phase `phase` and returns how many
  /// entries the (column, phase) stores hold, summed over both columns. A
  /// non-empty store must hold exactly the inserted leaves generalized to
  /// its level.
  size_t CheckPhase(int phase) {
    Table* table = db_->GetTable("pings");
    const Schema& schema = table->schema();
    size_t entries = 0;
    for (int col : schema.degradable_columns()) {
      const ColumnDef& column = schema.column(col);
      const int level = column.lcp.phase(phase).level;
      std::multiset<std::string> stored;
      table->partition(0)->store(col, phase)->ForEach(
          [&](const StoreEntryView& entry) {
            const Value value =
                column.hierarchy->AncestorValue(entry.ordinal, level);
            auto range = column.hierarchy->LeafRange(value, level);
            EXPECT_TRUE(range.ok()) << value.ToString();
            if (range.ok()) {
              EXPECT_EQ(entry.ordinal, range->lo)
                  << column.name << " " << value.ToString();
            }
            stored.insert(value.ToString());
            ++entries;
            return true;
          });
      if (stored.empty()) continue;
      std::multiset<std::string> expected;
      for (const Value& leaf : inserted_[col]) {
        expected.insert(
            column.hierarchy->Generalize(leaf, 0, level)->ToString());
      }
      EXPECT_EQ(stored, expected) << column.name << " phase " << phase;
    }
    return entries;
  }

  /// Leaf values inserted per degradable column index.
  std::map<int, std::vector<Value>> inserted_;
  std::string dir_;
  VirtualClock clock_{0};
  std::unique_ptr<Database> db_;
};

TEST_P(DegradeOrdinalTest, DegradeStepResolvesTheNextLevelsOrdinal) {
  Open();
  auto schema = Schema::Make(
      {ColumnDef::Stable("user", ValueType::kString),
       ColumnDef::Degradable("location", LocationDomain(), Fig2LocationLcp()),
       ColumnDef::Degradable("salary", SalaryDomain(),
                             *AttributeLcp::Make({{0, kMicrosPerHour},
                                                  {1, kMicrosPerDay},
                                                  {2, kMicrosPerMonth}}))});
  ASSERT_TRUE(schema.ok());
  ASSERT_TRUE(db_->CreateTable("pings", *schema).ok());
  const char* kAddresses[] = {"11 Rue Lepic", "3 Av Foch", "12 Rue Royale",
                              "4 Rue Breteuil", "8 Cours Mirabeau"};
  WriteBatch batch;
  for (int i = 0; i < 30; ++i) {
    batch.Insert("pings", {Value::String("u" + std::to_string(i)),
                           Value::String(kAddresses[i % 5]),
                           Value::Int64(i * 3331)});
    inserted_[1].push_back(Value::String(kAddresses[i % 5]));
    inserted_[2].push_back(Value::Int64(i * 3331));
  }
  ASSERT_TRUE(db_->Write(&batch).ok());
  EXPECT_EQ(CheckPhase(0), 60u);

  clock_.Advance(kMicrosPerHour + kMicrosPerMinute);
  ASSERT_TRUE(db_->RunDegradationOnce().ok());
  EXPECT_EQ(CheckPhase(0), 0u);
  EXPECT_EQ(CheckPhase(1), 60u);

  clock_.Advance(kMicrosPerDay);
  ASSERT_TRUE(db_->RunDegradationOnce().ok());
  EXPECT_EQ(CheckPhase(1), 0u);
  EXPECT_EQ(CheckPhase(2), 60u);

  Open();
  EXPECT_EQ(CheckPhase(2), 60u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPrivacyModes, DegradeOrdinalTest,
    ::testing::Values(WalPrivacyMode::kPlain, WalPrivacyMode::kScrub,
                      WalPrivacyMode::kEncryptedEpoch),
    [](const auto& info) {
      switch (info.param) {
        case WalPrivacyMode::kPlain:
          return "Plain";
        case WalPrivacyMode::kScrub:
          return "Scrub";
        default:
          return "EncryptedEpoch";
      }
    });

}  // namespace
}  // namespace instantdb
