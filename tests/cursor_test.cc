#include "query/cursor.h"

#include "catalog/builtin_domains.h"
#include "db/database.h"
#include "gtest/gtest.h"
#include "query/session.h"
#include "util/file.h"

namespace instantdb {
namespace {

/// Person table mirroring the paper's §II example, for equivalence checks.
class CursorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/idb_cursor_test";
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
    clock_ = std::make_unique<VirtualClock>(0);
    DbOptions options;
    options.path = dir_;
    options.clock = clock_.get();
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);

    auto schema = Schema::Make(
        {ColumnDef::Stable("name", ValueType::kString),
         ColumnDef::Degradable("location", LocationDomain(), Fig2LocationLcp()),
         ColumnDef::Degradable(
             "salary", SalaryDomain(),
             *AttributeLcp::Make({{0, kMicrosPerDay}, {1, kMicrosPerMonth}}))});
    ASSERT_TRUE(schema.ok());
    ASSERT_TRUE(db_->CreateTable("person", *schema).ok());
    session_ = std::make_unique<Session>(db_.get());
  }
  void TearDown() override {
    session_.reset();
    db_.reset();
    RemoveDirRecursive(dir_).ok();
  }

  void InsertPeople() {
    auto exec = [&](const std::string& sql) {
      auto result = session_->Execute(sql);
      ASSERT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    };
    exec("INSERT INTO person VALUES ('alice', '11 Rue Lepic', 2345)");
    exec("INSERT INTO person VALUES ('bob', '3 Av Foch', 2999)");
    exec("INSERT INTO person VALUES ('carol', '4 Rue Breteuil', 3500)");
    exec("INSERT INTO person VALUES ('dave', '8 Cours Mirabeau', 9000)");
  }

  /// Drains a cursor and checks row-for-row equality with Execute on the
  /// same SQL (values, display strings, column headers).
  void ExpectDrainEquivalent(const std::string& sql) {
    auto materialized = session_->Execute(sql);
    ASSERT_TRUE(materialized.ok()) << sql << " -> "
                                   << materialized.status().ToString();
    auto cursor = session_->ExecuteCursor(sql);
    ASSERT_TRUE(cursor.ok()) << sql << " -> " << cursor.status().ToString();
    EXPECT_EQ((*cursor)->columns(), materialized->columns) << sql;
    CursorRow row;
    size_t i = 0;
    while (true) {
      auto more = (*cursor)->Next(&row);
      ASSERT_TRUE(more.ok()) << sql << " -> " << more.status().ToString();
      if (!*more) break;
      ASSERT_LT(i, materialized->rows.size()) << sql;
      EXPECT_EQ(row.values(), materialized->rows[i]) << sql << " row " << i;
      EXPECT_EQ(row.display(), materialized->display(i))
          << sql << " row " << i;
      ++i;
    }
    EXPECT_EQ(i, materialized->rows.size()) << sql;
    EXPECT_EQ((*cursor)->rows_returned(), materialized->rows.size()) << sql;
  }

  std::string dir_;
  std::unique_ptr<VirtualClock> clock_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<Session> session_;
};

TEST_F(CursorTest, DrainEquivalenceAtFullAccuracy) {
  InsertPeople();
  ExpectDrainEquivalent("SELECT name, location, salary FROM person");
  ExpectDrainEquivalent("SELECT * FROM person");
  ExpectDrainEquivalent("SELECT name FROM person WHERE name = 'alice'");
  ExpectDrainEquivalent("SELECT name FROM person WHERE name LIKE '%o%'");
  ExpectDrainEquivalent("SELECT name FROM person WHERE name = 'nobody'");
}

TEST_F(CursorTest, DrainEquivalenceUnderPurpose) {
  InsertPeople();
  ASSERT_TRUE(session_
                  ->Execute("DECLARE PURPOSE STAT SET ACCURACY LEVEL COUNTRY "
                            "FOR P.LOCATION, RANGE1000 FOR P.SALARY")
                  .ok());
  // Index path (degradable equality + label LIKE) and range path (BETWEEN).
  ExpectDrainEquivalent(
      "SELECT * FROM PERSON WHERE LOCATION LIKE '%FRANCE%' AND "
      "SALARY = '2000-3000'");
  ExpectDrainEquivalent("SELECT name, salary FROM person "
                        "WHERE salary BETWEEN 2000 AND 3999");
  // Forced heap scan: same answer through the scan source.
  session_->set_use_indexes(false);
  ExpectDrainEquivalent(
      "SELECT * FROM PERSON WHERE LOCATION LIKE '%FRANCE%' AND "
      "SALARY = '2000-3000'");
  session_->set_use_indexes(true);
}

TEST_F(CursorTest, DrainEquivalenceOnMixedPhasesAndRelaxedSemantics) {
  InsertPeople();
  clock_->Advance(kMicrosPerHour);  // locations: address -> city
  ASSERT_TRUE(db_->RunDegradationOnce().ok());
  ASSERT_TRUE(session_
                  ->Execute("DECLARE PURPOSE GEO SET ACCURACY LEVEL CITY "
                            "FOR person.location")
                  .ok());
  ExpectDrainEquivalent("SELECT name, location FROM person "
                        "WHERE location = 'Paris'");
  session_->read_options().include_coarser = true;
  ExpectDrainEquivalent("SELECT name, location FROM person");
}

TEST_F(CursorTest, AggregatesStreamFromBufferedResult) {
  InsertPeople();
  ExpectDrainEquivalent(
      "SELECT COUNT(*), MIN(salary), MAX(salary), SUM(salary) FROM person");
  ASSERT_TRUE(session_
                  ->Execute("DECLARE PURPOSE STAT SET ACCURACY LEVEL REGION "
                            "FOR person.location, RANGE1000 FOR person.salary")
                  .ok());
  ExpectDrainEquivalent(
      "SELECT location, COUNT(*), AVG(salary) FROM person GROUP BY location");
}

TEST_F(CursorTest, CloseStopsIteration) {
  InsertPeople();
  auto cursor = session_->ExecuteCursor("SELECT name FROM person");
  ASSERT_TRUE(cursor.ok());
  CursorRow row;
  auto more = (*cursor)->Next(&row);
  ASSERT_TRUE(more.ok());
  EXPECT_TRUE(*more);
  (*cursor)->Close();
  more = (*cursor)->Next(&row);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(*more);
  EXPECT_EQ((*cursor)->rows_returned(), 1u);
}

TEST_F(CursorTest, DmlThroughCursorStreamsSummaryResult) {
  InsertPeople();
  auto cursor = session_->ExecuteCursor("DELETE FROM person WHERE name = 'dave'");
  ASSERT_TRUE(cursor.ok());
  CursorRow row;
  auto more = (*cursor)->Next(&row);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(*more);  // DML produces no rows; effect applied eagerly
  EXPECT_EQ(db_->GetTable("person")->live_rows(), 3u);
}

/// The streaming acceptance test: a 100k-row SELECT must hand rows out
/// incrementally, not materialize the result at Open. Proof: pull a few
/// hundred rows, delete everything, and observe the stream end after at
/// most one more scan batch — a cursor that had materialized 100k rows up
/// front would keep producing them.
TEST(CursorStreamingTest, HundredThousandRowsAreStreamedNotMaterialized) {
  const std::string dir = ::testing::TempDir() + "/idb_cursor_stream";
  ASSERT_TRUE(RemoveDirRecursive(dir).ok());
  VirtualClock clock(0);
  DbOptions options;
  options.path = dir;
  options.clock = &clock;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());

  auto schema = Schema::Make({ColumnDef::Stable("id", ValueType::kInt64),
                              ColumnDef::Stable("payload", ValueType::kString)});
  ASSERT_TRUE(schema.ok());
  ASSERT_TRUE((*db)->CreateTable("events", *schema).ok());

  constexpr int kRows = 100000;
  WriteBatch ingest;
  for (int i = 0; i < kRows; ++i) {
    ingest.Insert("events",
                  {Value::Int64(i), Value::String("payload-" + std::to_string(i))});
  }
  ASSERT_TRUE((*db)->Write(&ingest).ok());
  ASSERT_EQ((*db)->GetTable("events")->live_rows(),
            static_cast<uint64_t>(kRows));

  Session session(db->get());
  auto cursor = session.ExecuteCursor("SELECT id, payload FROM events");
  ASSERT_TRUE(cursor.ok());

  CursorRow row;
  constexpr size_t kPulled = 500;
  for (size_t i = 0; i < kPulled; ++i) {
    auto more = (*cursor)->Next(&row);
    ASSERT_TRUE(more.ok());
    ASSERT_TRUE(*more) << "row " << i;
  }

  // Delete every row while the cursor is open. A streaming cursor sees the
  // deletions on its next batch; a materializing one would not.
  WriteBatch wipe;
  for (RowId row_id : ingest.row_ids()) wipe.Delete("events", row_id);
  ASSERT_TRUE((*db)->Write(&wipe).ok());
  ASSERT_EQ((*db)->GetTable("events")->live_rows(), 0u);

  size_t extra = 0;
  while (true) {
    auto more = (*cursor)->Next(&row);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    ++extra;
  }
  // At most the remainder of the already-pulled scan batch was in memory.
  EXPECT_LT(kPulled + extra, 1000u)
      << "cursor materialized rows ahead of consumption";

  db->reset();
  RemoveDirRecursive(dir).ok();
}

}  // namespace
}  // namespace instantdb
