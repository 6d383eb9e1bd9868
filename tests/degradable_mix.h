// Test-only fixture data for read-path equivalence tests: a table with a
// tree domain (location) and an interval domain (salary), populated in three
// waves so scans see three phases at once, plus a purpose and a statement
// list covering node predicates (Eq/Ne/label LIKE/BETWEEN/bucket literal),
// non-node ones (ordering, substring LIKE), mixed stable + degradable
// conjunctions, projections and grouped aggregates over both domains.

#ifndef INSTANTDB_TESTS_DEGRADABLE_MIX_H_
#define INSTANTDB_TESTS_DEGRADABLE_MIX_H_

#include <algorithm>
#include <string>
#include <vector>

#include "catalog/builtin_domains.h"
#include "db/database.h"
#include "gtest/gtest.h"

namespace instantdb {
namespace mix {

/// pings(user, score, location: Fig. 1 tree, salary: interval domain).
inline Schema MixSchema() {
  return *Schema::Make(
      {ColumnDef::Stable("user", ValueType::kString),
       ColumnDef::Stable("score", ValueType::kInt64),
       ColumnDef::Degradable("location", LocationDomain(), Fig2LocationLcp()),
       ColumnDef::Degradable(
           "salary", SalaryDomain(),
           *AttributeLcp::Make({{0, kMicrosPerHour},
                                {1, kMicrosPerDay},
                                {2, kMicrosPerMonth}}))});
}

/// Creates `pings` and inserts `rows` rows in three waves: the first ends at
/// phase 2 of both columns (region, 10000-wide buckets), the second at
/// phase 1 (city, 1000-wide buckets), the third stays accurate. Scores are
/// the row numbers; users are "u<i>".
inline void Populate(Database* db, VirtualClock* clock, int rows) {
  ASSERT_TRUE(db->CreateTable("pings", MixSchema()).ok());
  const char* kAddresses[] = {"11 Rue Lepic", "3 Av Foch", "12 Rue Royale",
                              "4 Rue Breteuil", "8 Cours Mirabeau"};
  auto insert_range = [&](int from, int to) {
    for (int start = from; start < to; start += 25) {
      WriteBatch batch;
      for (int i = start; i < std::min(start + 25, to); ++i) {
        batch.Insert("pings", {Value::String("u" + std::to_string(i)),
                               Value::Int64(i),
                               Value::String(kAddresses[i % 5]),
                               Value::Int64((i * 137) % 20000)});
      }
      ASSERT_TRUE(db->Write(&batch).ok());
    }
  };
  insert_range(0, rows / 3);
  clock->Advance(kMicrosPerHour + kMicrosPerMinute);
  ASSERT_TRUE(db->RunDegradationOnce().ok());
  insert_range(rows / 3, 2 * rows / 3);
  clock->Advance(kMicrosPerDay);
  ASSERT_TRUE(db->RunDegradationOnce().ok());
  insert_range(2 * rows / 3, rows);
}

/// CITY for the tree, 1000-wide buckets for the interval: the third wave
/// generalizes, the second matches exactly, the first is coarser (visible
/// only under include_coarser).
inline const char* kPurpose =
    "DECLARE PURPOSE MIX SET ACCURACY LEVEL CITY FOR pings.location, "
    "RANGE1000 FOR pings.salary";

/// Statements whose first column is unique per row (or a group key).
inline std::vector<std::string> Statements() {
  return {
      "SELECT user, location, salary FROM pings",
      "SELECT user, location FROM pings WHERE location = 'Paris'",
      "SELECT user, salary FROM pings WHERE location <> 'Paris'",
      "SELECT user, location FROM pings WHERE location LIKE '%provence%'",
      "SELECT user, location FROM pings WHERE location LIKE '%ar%'",
      "SELECT user, salary FROM pings WHERE salary BETWEEN 2000 AND 5999",
      "SELECT user, salary FROM pings WHERE salary = '2000-3000'",
      "SELECT user, salary FROM pings WHERE salary < 4000",
      "SELECT user, salary, location FROM pings WHERE salary >= 3000 AND "
      "score >= 350",
      "SELECT user, user, score FROM pings WHERE score < 40",
      "SELECT location, COUNT(*), SUM(salary) FROM pings GROUP BY location",
      "SELECT salary, COUNT(*), MIN(score) FROM pings GROUP BY salary",
      "SELECT COUNT(*), MIN(salary), MAX(location) FROM pings WHERE "
      "location = 'Paris'",
  };
}

}  // namespace mix
}  // namespace instantdb

#endif  // INSTANTDB_TESTS_DEGRADABLE_MIX_H_
