#include "catalog/builtin_domains.h"
#include "db/database.h"
#include "gtest/gtest.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/session.h"
#include "util/file.h"

namespace instantdb {
namespace {

// --- parser ------------------------------------------------------------------------

TEST(ParserTest, ParsesPaperDeclarePurpose) {
  auto ast = ParseStatement(
      "DECLARE PURPOSE STAT SET ACCURACY LEVEL COUNTRY FOR P.LOCATION, "
      "RANGE1000 FOR P.SALARY");
  ASSERT_TRUE(ast.ok()) << ast.status().ToString();
  const auto& declare = std::get<DeclarePurposeAst>(*ast);
  EXPECT_EQ(declare.name, "STAT");
  ASSERT_EQ(declare.clauses.size(), 2u);
  EXPECT_EQ(declare.clauses[0].spec, "COUNTRY");
  EXPECT_EQ(declare.clauses[0].table, "P");
  EXPECT_EQ(declare.clauses[0].column, "LOCATION");
  EXPECT_EQ(declare.clauses[1].spec, "RANGE1000");
  EXPECT_EQ(declare.clauses[1].column, "SALARY");
}

TEST(ParserTest, ParsesPaperSelect) {
  auto ast = ParseStatement(
      "SELECT * FROM PERSON WHERE LOCATION LIKE '%FRANCE%' AND "
      "SALARY = '2000-3000'");
  ASSERT_TRUE(ast.ok()) << ast.status().ToString();
  const auto& select = std::get<SelectAst>(*ast);
  EXPECT_TRUE(select.star);
  EXPECT_EQ(select.table, "PERSON");
  ASSERT_EQ(select.where.size(), 2u);
  EXPECT_EQ(select.where[0].op, ComparisonOp::kLike);
  EXPECT_EQ(select.where[0].value, Value::String("%FRANCE%"));
  EXPECT_EQ(select.where[1].op, ComparisonOp::kEq);
  EXPECT_EQ(select.where[1].value, Value::String("2000-3000"));
}

TEST(ParserTest, ParsesAggregatesAndGroupBy) {
  auto ast = ParseStatement(
      "SELECT location, COUNT(*), AVG(salary) FROM person "
      "WHERE salary BETWEEN 1000 AND 5000 GROUP BY location");
  ASSERT_TRUE(ast.ok()) << ast.status().ToString();
  const auto& select = std::get<SelectAst>(*ast);
  ASSERT_EQ(select.items.size(), 3u);
  EXPECT_EQ(select.items[0].aggregate, AggregateKind::kNone);
  EXPECT_EQ(select.items[1].aggregate, AggregateKind::kCount);
  EXPECT_TRUE(select.items[1].column.empty());
  EXPECT_EQ(select.items[2].aggregate, AggregateKind::kAvg);
  EXPECT_EQ(select.group_by, "location");
  ASSERT_EQ(select.where.size(), 1u);
  EXPECT_EQ(select.where[0].op, ComparisonOp::kBetween);
  EXPECT_EQ(select.where[0].value2, Value::Int64(5000));
}

TEST(ParserTest, ParsesInsertAndDelete) {
  auto insert = ParseStatement(
      "INSERT INTO person VALUES ('alice', 42, '11 Rue Lepic', 2345)");
  ASSERT_TRUE(insert.ok());
  const auto& ins = std::get<InsertAst>(*insert);
  ASSERT_EQ(ins.values.size(), 4u);
  EXPECT_EQ(ins.values[1], Value::Int64(42));

  auto del = ParseStatement("DELETE FROM person WHERE name = 'alice'");
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(std::get<DeleteAst>(*del).where.size(), 1u);
}

TEST(ParserTest, RejectsGarbage) {
  EXPECT_FALSE(ParseStatement("FROBNICATE THE DATABASE").ok());
  EXPECT_FALSE(ParseStatement("SELECT FROM").ok());
  EXPECT_FALSE(ParseStatement("SELECT * FROM t WHERE x ==== 3").ok());
  EXPECT_FALSE(ParseStatement("INSERT INTO t VALUES (1").ok());
  EXPECT_FALSE(ParseStatement("SELECT * FROM t extra garbage").ok());
  EXPECT_FALSE(ParseStatement("SELECT * FROM t WHERE s = 'unterminated").ok());
}

// --- end-to-end SQL -----------------------------------------------------------------

class SqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/idb_sql_test";
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
    clock_ = std::make_unique<VirtualClock>(0);
    DbOptions options;
    options.path = dir_;
    options.clock = clock_.get();
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok());
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

  QueryResult MustExecute(const std::string& sql) {
    auto result = session_->Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    return result.ok() ? *result : QueryResult{};
  }

  void InsertPeople() {
    MustExecute("INSERT INTO person VALUES ('alice', '11 Rue Lepic', 2345)");
    MustExecute("INSERT INTO person VALUES ('bob', '3 Av Foch', 2999)");
    MustExecute("INSERT INTO person VALUES ('carol', '4 Rue Breteuil', 3500)");
    MustExecute("INSERT INTO person VALUES ('dave', '8 Cours Mirabeau', 9000)");
  }

  std::string dir_;
  std::unique_ptr<VirtualClock> clock_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<Session> session_;
};

TEST_F(SqlTest, InsertAndSelectAtFullAccuracy) {
  InsertPeople();
  auto result = MustExecute("SELECT name, location, salary FROM person");
  ASSERT_EQ(result.rows.size(), 4u);
  EXPECT_EQ(result.columns,
            (std::vector<std::string>{"name", "location", "salary"}));
  EXPECT_EQ(result.rows[0][1], Value::String("11 Rue Lepic"));
  EXPECT_EQ(result.rows[0][2], Value::Int64(2345));
}

TEST_F(SqlTest, PaperQueryVerbatim) {
  InsertPeople();
  // The exact statements from §II of the paper.
  MustExecute(
      "DECLARE PURPOSE STAT SET ACCURACY LEVEL COUNTRY FOR P.LOCATION, "
      "RANGE1000 FOR P.SALARY");
  auto result = MustExecute(
      "SELECT * FROM PERSON WHERE LOCATION LIKE '%FRANCE%' AND "
      "SALARY = '2000-3000'");
  // alice (2345) and bob (2999) fall in the 2000-3000 bucket; all are in
  // France.
  ASSERT_EQ(result.rows.size(), 2u);
  // Projected values are generalized to the declared accuracy (π_{*,k}).
  const int loc = 1, sal = 2;
  for (const auto& row : result.rows) {
    EXPECT_EQ(row[loc], Value::String("France"));
    EXPECT_EQ(row[sal], Value::Int64(2000));
  }
  // Display strings render buckets.
  EXPECT_EQ(result.display(0)[sal], "[2000..2999]");
}

TEST_F(SqlTest, AccuracyLevelsChangeVisibilityAsDataDegrades) {
  InsertPeople();
  clock_->Advance(kMicrosPerHour);  // locations: address -> city
  ASSERT_TRUE(db_->RunDegradationOnce().ok());

  // Full-accuracy session (no purpose): locations are coarser than level 0,
  // so the strict semantics hide every row that references location.
  auto strict = MustExecute("SELECT name, location FROM person");
  EXPECT_EQ(strict.rows.size(), 0u);

  // Columns that are still accurate remain queryable at level 0.
  auto salaries = MustExecute("SELECT name, salary FROM person");
  EXPECT_EQ(salaries.rows.size(), 4u);

  // A CITY-level purpose sees all rows, generalized.
  MustExecute("DECLARE PURPOSE GEO SET ACCURACY LEVEL CITY FOR person.location");
  auto city = MustExecute(
      "SELECT name, location FROM person WHERE location = 'Paris'");
  EXPECT_EQ(city.rows.size(), 2u);  // alice + bob
}

TEST_F(SqlTest, PredicateAtCoarserLevelSelectsSubtree) {
  InsertPeople();
  MustExecute("DECLARE PURPOSE GEO SET ACCURACY LEVEL CITY FOR person.location");
  // Predicate names a REGION node while accuracy is CITY: subtree match.
  auto result = MustExecute(
      "SELECT name, location FROM person WHERE location = 'Provence'");
  ASSERT_EQ(result.rows.size(), 2u);  // carol (Marseille), dave (Aix)
  // Output stays at the demanded CITY level.
  EXPECT_EQ(result.rows[0][1], Value::String("Marseille"));
  EXPECT_EQ(result.rows[1][1], Value::String("Aix"));
}

TEST_F(SqlTest, IncludeCoarserRelaxedSemantics) {
  InsertPeople();
  clock_->Advance(kMicrosPerHour + kMicrosPerDay);  // locations at region
  ASSERT_TRUE(db_->RunDegradationOnce().ok());
  MustExecute("DECLARE PURPOSE GEO SET ACCURACY LEVEL CITY FOR person.location");

  // Strict: region-level values cannot be computed at city accuracy.
  auto strict = MustExecute("SELECT name, location FROM person");
  EXPECT_EQ(strict.rows.size(), 0u);

  // Relaxed (§IV): coarser values are returned at their stored accuracy and
  // predicates are evaluated by containment.
  session_->read_options().include_coarser = true;
  auto relaxed = MustExecute("SELECT name, location FROM person");
  ASSERT_EQ(relaxed.rows.size(), 4u);
  auto france = MustExecute(
      "SELECT name FROM person WHERE location = 'France'");
  EXPECT_EQ(france.rows.size(), 4u);
  // A city-level predicate cannot be satisfied by region-coarse rows.
  auto paris = MustExecute("SELECT name FROM person WHERE location = 'Paris'");
  EXPECT_EQ(paris.rows.size(), 0u);
}

TEST_F(SqlTest, AggregatesAndGroupByAtCoarseLevel) {
  InsertPeople();
  MustExecute(
      "DECLARE PURPOSE STAT SET ACCURACY LEVEL REGION FOR person.location, "
      "RANGE1000 FOR person.salary");
  auto result = MustExecute(
      "SELECT location, COUNT(*), AVG(salary) FROM person GROUP BY location");
  ASSERT_EQ(result.rows.size(), 2u);  // Ile-de-France, Provence
  // Rows come back keyed by display string order.
  EXPECT_EQ(result.columns[1], "COUNT(*)");
  // Each region has 2 people.
  EXPECT_EQ(result.rows[0][1], Value::Int64(2));
  EXPECT_EQ(result.rows[1][1], Value::Int64(2));
  // AVG over bucket lower bounds at RANGE1000.
  // Ile-de-France: alice 2000, bob 2000 -> 2000. Provence: 3000, 9000 -> 6000.
  EXPECT_DOUBLE_EQ(result.rows[0][2].dbl(), 2000);
  EXPECT_DOUBLE_EQ(result.rows[1][2].dbl(), 6000);
}

TEST_F(SqlTest, CountMinMaxSum) {
  InsertPeople();
  auto result = MustExecute(
      "SELECT COUNT(*), MIN(salary), MAX(salary), SUM(salary) FROM person");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0], Value::Int64(4));
  EXPECT_EQ(result.rows[0][1], Value::Int64(2345));
  EXPECT_EQ(result.rows[0][2], Value::Int64(9000));
  EXPECT_DOUBLE_EQ(result.rows[0][3].dbl(), 2345 + 2999 + 3500 + 9000);
}

TEST_F(SqlTest, DeleteWithViewSemantics) {
  InsertPeople();
  MustExecute("DECLARE PURPOSE GEO SET ACCURACY LEVEL CITY FOR person.location");
  auto result = MustExecute("DELETE FROM person WHERE location = 'Paris'");
  EXPECT_EQ(result.affected_rows, 2u);
  session_->ClearPurpose();
  auto remaining = MustExecute("SELECT name FROM person");
  ASSERT_EQ(remaining.rows.size(), 2u);
  // Deleting everything works too.
  auto all = MustExecute("DELETE FROM person");
  EXPECT_EQ(all.affected_rows, 2u);
  EXPECT_EQ(db_->GetTable("person")->live_rows(), 0u);
}

TEST_F(SqlTest, BetweenUsesRangeIndex) {
  InsertPeople();
  MustExecute(
      "DECLARE PURPOSE PAY SET ACCURACY LEVEL RANGE1000 FOR person.salary");
  auto result = MustExecute(
      "SELECT name, salary FROM person WHERE salary BETWEEN 2000 AND 3999");
  // Buckets 2000 and 3000: alice, bob, carol.
  EXPECT_EQ(result.rows.size(), 3u);
  // Force a scan: same answer (index/scan parity).
  session_->set_use_indexes(false);
  auto scanned = MustExecute(
      "SELECT name, salary FROM person WHERE salary BETWEEN 2000 AND 3999");
  EXPECT_EQ(scanned.rows.size(), 3u);
}

TEST_F(SqlTest, StablePredicatesAndLike) {
  InsertPeople();
  auto eq = MustExecute("SELECT name FROM person WHERE name = 'alice'");
  EXPECT_EQ(eq.rows.size(), 1u);
  auto like = MustExecute("SELECT name FROM person WHERE name LIKE 'a%'");
  EXPECT_EQ(like.rows.size(), 1u);
  auto contains = MustExecute("SELECT name FROM person WHERE name LIKE '%o%'");
  EXPECT_EQ(contains.rows.size(), 2u);  // bob, carol
  auto ne = MustExecute("SELECT name FROM person WHERE name <> 'alice'");
  EXPECT_EQ(ne.rows.size(), 3u);
}

TEST_F(SqlTest, UsePurposeSwitchesAndErrors) {
  InsertPeople();
  MustExecute("DECLARE PURPOSE GEO SET ACCURACY LEVEL CITY FOR person.location");
  MustExecute("DECLARE PURPOSE NATL SET ACCURACY LEVEL COUNTRY FOR person.location");
  MustExecute("USE PURPOSE GEO");
  EXPECT_EQ(session_->active_purpose(), "GEO");
  EXPECT_TRUE(session_->Execute("USE PURPOSE NOPE").status().IsNotFound());
  // Declaring on a stable column is rejected.
  EXPECT_FALSE(session_
                   ->Execute("DECLARE PURPOSE BAD SET ACCURACY LEVEL L1 "
                             "FOR person.name")
                   .ok());
  // Unknown level spec rejected.
  EXPECT_FALSE(session_
                   ->Execute("DECLARE PURPOSE BAD2 SET ACCURACY LEVEL GALAXY "
                             "FOR person.location")
                   .ok());
}

TEST_F(SqlTest, InsertRejectsCoarseAndWrongArity) {
  EXPECT_FALSE(
      session_->Execute("INSERT INTO person VALUES ('x', 'Paris', 100)").ok());
  EXPECT_FALSE(session_->Execute("INSERT INTO person VALUES ('x')").ok());
  EXPECT_FALSE(session_
                   ->Execute("INSERT INTO nosuch VALUES ('x', 'y', 1)")
                   .status()
                   .ok());
}

TEST_F(SqlTest, ResultToStringRendersTable) {
  InsertPeople();
  auto result = MustExecute("SELECT name, salary FROM person WHERE name = 'alice'");
  const std::string rendered = result.ToString();
  EXPECT_NE(rendered.find("name"), std::string::npos);
  EXPECT_NE(rendered.find("alice"), std::string::npos);
  EXPECT_NE(rendered.find("2345"), std::string::npos);
  EXPECT_NE(rendered.find("1 row(s)"), std::string::npos);
}

TEST_F(SqlTest, MixedPhaseQueryUnionsStates) {
  // Rows inserted at different times sit in different tuple states ST_j;
  // a coarse query unions every computable state (σ over ∪_{j≤k} ST_j).
  MustExecute("INSERT INTO person VALUES ('early', '11 Rue Lepic', 1000)");
  clock_->Advance(kMicrosPerHour);
  ASSERT_TRUE(db_->RunDegradationOnce().ok());
  MustExecute("INSERT INTO person VALUES ('late', '3 Av Foch', 2000)");

  MustExecute("DECLARE PURPOSE GEO SET ACCURACY LEVEL CITY FOR person.location");
  auto result = MustExecute(
      "SELECT name, location FROM person WHERE location = 'Paris'");
  ASSERT_EQ(result.rows.size(), 2u);  // early (city phase) + late (accurate)
  for (const auto& row : result.rows) {
    EXPECT_EQ(row[1], Value::String("Paris"));
  }
}

// Results keep typed values and render text on demand. The tables below
// pin that rendering byte for byte (tree labels, interval buckets, NULL,
// aggregates over both domains), and a result must still render them after
// the session and the database that produced it are gone.
TEST(LazyDisplayTest, RendersLikeTheEagerExecutorAfterItsDatabaseIsGone) {
  const std::string dir = ::testing::TempDir() + "/idb_lazy_display_test";
  ASSERT_TRUE(RemoveDirRecursive(dir).ok());
  VirtualClock clock(0);
  DbOptions options;
  options.path = dir;
  options.clock = &clock;
  auto opened = Database::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> db = std::move(*opened);
  auto schema = Schema::Make(
      {ColumnDef::Stable("name", ValueType::kString),
       ColumnDef::Stable("memo", ValueType::kString),
       ColumnDef::Degradable("location", LocationDomain(), Fig2LocationLcp()),
       ColumnDef::Degradable(
           "salary", SalaryDomain(),
           *AttributeLcp::Make({{0, kMicrosPerDay}, {1, kMicrosPerMonth}}))});
  ASSERT_TRUE(schema.ok());
  ASSERT_TRUE(db->CreateTable("person", *schema).ok());
  const std::vector<std::vector<Value>> people = {
      {Value::String("alice"), Value::String("first"),
       Value::String("11 Rue Lepic"), Value::Int64(2345)},
      {Value::String("bob"), Value::Null(), Value::String("3 Av Foch"),
       Value::Int64(2999)},
      {Value::String("carol"), Value::String("third"),
       Value::String("4 Rue Breteuil"), Value::Int64(3500)},
      {Value::String("dave"), Value::Null(), Value::String("8 Cours Mirabeau"),
       Value::Int64(9000)},
  };
  for (const auto& row : people) ASSERT_TRUE(db->Insert("person", row).ok());

  auto session = std::make_unique<Session>(db.get());
  ASSERT_TRUE(session
                  ->Execute("DECLARE PURPOSE STAT SET ACCURACY LEVEL REGION "
                            "FOR person.location, RANGE1000 FOR person.salary")
                  .ok());
  auto projection =
      session->Execute("SELECT name, memo, location, salary FROM person");
  auto grouped = session->Execute(
      "SELECT salary, COUNT(memo), MIN(memo), AVG(salary) FROM person "
      "GROUP BY salary");
  auto by_region = session->Execute(
      "SELECT location, COUNT(*), SUM(salary), MAX(salary) FROM person "
      "GROUP BY location");
  ASSERT_TRUE(projection.ok()) << projection.status().ToString();
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  ASSERT_TRUE(by_region.ok()) << by_region.status().ToString();
  session.reset();
  db.reset();
  ASSERT_TRUE(RemoveDirRecursive(dir).ok());

  EXPECT_EQ(projection->ToString(),
            "+-------+-------+---------------+--------------+\n"
            "| name  | memo  | location      | salary       |\n"
            "+-------+-------+---------------+--------------+\n"
            "| alice | first | Ile-de-France | [2000..2999] |\n"
            "| bob   | NULL  | Ile-de-France | [2000..2999] |\n"
            "| carol | third | Provence      | [3000..3999] |\n"
            "| dave  | NULL  | Provence      | [9000..9999] |\n"
            "+-------+-------+---------------+--------------+\n"
            "4 row(s)\n");
  EXPECT_EQ(projection->display(1),
            (std::vector<std::string>{"bob", "NULL", "Ile-de-France",
                                      "[2000..2999]"}));
  EXPECT_EQ(projection->rows[1][3], Value::Int64(2000));
  EXPECT_EQ(grouped->ToString(),
            "+--------------+-------------+-----------+-------------+\n"
            "| salary       | COUNT(memo) | MIN(memo) | AVG(salary) |\n"
            "+--------------+-------------+-----------+-------------+\n"
            "| [2000..2999] | 1           | first     | 2000        |\n"
            "| [3000..3999] | 1           | third     | 3000        |\n"
            "| [9000..9999] | 0           | NULL      | 9000        |\n"
            "+--------------+-------------+-----------+-------------+\n"
            "3 row(s)\n");
  EXPECT_EQ(by_region->ToString(),
            "+---------------+----------+-------------+-------------+\n"
            "| location      | COUNT(*) | SUM(salary) | MAX(salary) |\n"
            "+---------------+----------+-------------+-------------+\n"
            "| Ile-de-France | 2        | 4000        | 2000        |\n"
            "| Provence      | 2        | 12000       | 9000        |\n"
            "+---------------+----------+-------------+-------------+\n"
            "2 row(s)\n");
}

}  // namespace
}  // namespace instantdb
