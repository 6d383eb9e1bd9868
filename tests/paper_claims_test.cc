// The three benefits the paper claims for degradation, as exact counts on a
// VirtualClock, in its location-tracking scenario: pings(user, location)
// with the location degrading over a synthetic address → city → region →
// country tree of fan-out 3 (81 addresses, drawn Zipf 0.8).
//
//  (i)   Disclosure: degradation bounds the accurate tuples exposed at any
//        instant by one first-phase window of arrivals, where retention
//        exposes its whole TTL window.
//  (ii)  Attacks: an attacker who snapshots the database captures an
//        accurate value only if a snapshot falls inside its first phase, so
//        sustained capture needs snapshots more often than the shortest
//        step.
//  (iii) Usability: each purpose is answered from exactly the window its
//        accuracy needs; coarse purposes keep the whole history.

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "catalog/builtin_domains.h"
#include "common/random.h"
#include "common/strings.h"
#include "db/database.h"
#include "gtest/gtest.h"
#include "query/session.h"
#include "scan_oracle.h"
#include "util/file.h"

namespace instantdb {
namespace {

class PaperClaimsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/idb_paper_claims_test";
    domain_ = SyntheticLocationDomain(3, 3, 3, 3);
    addresses_ =
        static_cast<const GeneralizationTree*>(domain_.get())->LabelsAtLevel(0);
  }
  void TearDown() override { RemoveDirRecursive(dir_).ok(); }

  /// A fresh database holding an empty pings table whose location follows
  /// `lcp`.
  std::unique_ptr<Database> OpenPings(VirtualClock* clock,
                                      const AttributeLcp& lcp,
                                      uint32_t partitions = 1) {
    EXPECT_TRUE(RemoveDirRecursive(dir_).ok());
    DbOptions options;
    options.path = dir_;
    options.clock = clock;
    options.partitions = partitions;
    auto db = Database::Open(options);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    if (!db.ok()) return nullptr;
    auto schema = Schema::Make(
        {ColumnDef::Stable("user", ValueType::kString),
         ColumnDef::Degradable("location", domain_, lcp)});
    EXPECT_TRUE(schema.ok());
    EXPECT_TRUE((*db)->CreateTable("pings", *schema).ok());
    return std::move(*db);
  }

  /// Inserts `n` pings at the current time, addresses drawn Zipf(0.8).
  void InsertPings(Database* db, size_t n, uint64_t seed) {
    ZipfGenerator zipf(addresses_.size(), 0.8, seed);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(db->Insert("pings",
                             {Value::String(StringPrintf("user-%zu", i % 16)),
                              Value::String(addresses_[zipf.Next()])})
                      .ok());
    }
  }

  /// Live tuples whose location is still in `phase`.
  static size_t CountInPhase(Database* db, int phase) {
    auto stored = oracle::StoredRows(*db->GetTable("pings"));
    EXPECT_TRUE(stored.ok());
    if (!stored.ok()) return 0;
    return static_cast<size_t>(
        std::count_if(stored->begin(), stored->end(),
                      [&](const oracle::Stored& row) {
                        return row.phases[0] == phase;
                      }));
  }

  std::string dir_;
  std::shared_ptr<const DomainHierarchy> domain_;
  std::vector<std::string> addresses_;
};

/// Benefit (i) over 45 days at 20 inserts an hour, sampled at the end of
/// each day: the accurate tuples at days 1, 7, 30 and 45, the peak over all
/// days, and the tuples still held at a coarser phase on day 45.
TEST_F(PaperClaimsTest, DegradationBoundsAccurateExposure) {
  constexpr int kDays = 45;
  constexpr size_t kPerHour = 20;
  struct Policy {
    const char* name;
    AttributeLcp lcp;
    std::vector<size_t> expected;  // day 1, 7, 30, 45, peak, coarse at 45
  };
  const std::vector<Policy> policies = {
      {"degradation (Fig. 2)", Fig2LocationLcp(),
       {20, 20, 20, 20, 20, 21580}},
      {"retention 1 day", AttributeLcp::Retention(kMicrosPerDay),
       {480, 480, 480, 480, 480, 0}},
      {"retention 1 week", AttributeLcp::Retention(7 * kMicrosPerDay),
       {480, 3360, 3360, 3360, 3360, 0}},
      {"retention 1 month", AttributeLcp::Retention(kMicrosPerMonth),
       {480, 3360, 14400, 14400, 14400, 0}},
      {"keep forever", AttributeLcp::KeepForever(),
       {480, 3360, 14400, 21600, 21600, 0}},
  };
  // Degradation runs again over 4 partitions: the bound must hold in every
  // partition, and partitioning moves no count.
  for (uint32_t partitions : {1u, 4u}) {
    for (const Policy& policy : policies) {
      if (partitions > 1 && policy.lcp.num_phases() == 1) continue;
      VirtualClock clock(0);
      std::unique_ptr<Database> db = OpenPings(&clock, policy.lcp, partitions);
      ASSERT_NE(db, nullptr);
      std::vector<size_t> accurate_at;
      size_t peak = 0, coarse = 0;
      for (int hour = 0; hour < kDays * 24; ++hour) {
        clock.Advance(kMicrosPerHour);
        ASSERT_TRUE(db->RunDegradationOnce().ok());
        // Inserting after the hourly pass leaves the last hour's arrivals
        // accurate when the day is sampled.
        InsertPings(db.get(), kPerHour, hour);
        if ((hour + 1) % 24 != 0) continue;
        const int day = (hour + 1) / 24;
        const size_t accurate = CountInPhase(db.get(), 0);
        peak = std::max(peak, accurate);
        if (day == 1 || day == 7 || day == 30 || day == kDays) {
          accurate_at.push_back(accurate);
        }
        if (day == kDays) {
          coarse = db->GetTable("pings")->live_rows() - accurate;
        }
      }
      accurate_at.push_back(peak);
      accurate_at.push_back(coarse);
      EXPECT_EQ(accurate_at, policy.expected)
          << policy.name << " over " << partitions << " partition(s)";
    }
  }
}

/// The attacker's schedule: a snapshot at the first tick (`tick`), then at
/// every multiple of `period` up to `horizon`. Every period here is a
/// multiple of the tick, so each snapshot lands on a tick.
std::vector<Micros> SnapshotTimes(Micros tick, Micros period, Micros horizon) {
  std::vector<Micros> times = {tick};
  for (Micros at = period; at <= horizon; at += period) times.push_back(at);
  return times;
}

/// The paper's "shortest degradation step": the shortest phase duration.
Micros ShortestStep(const AttributeLcp& lcp) {
  Micros shortest = kForever;
  for (int p = 0; p < lcp.num_phases(); ++p) {
    shortest = std::min(shortest, lcp.phase(p).duration);
  }
  return shortest;
}

TEST_F(PaperClaimsTest, CaptureNeedsSnapshotsWithinTheShortestStep) {
  const AttributeLcp lcp = Fig2LocationLcp();
  const Micros tau0 = ShortestStep(lcp);
  ASSERT_EQ(tau0, kMicrosPerHour);
  constexpr size_t kTuples = 2000;
  constexpr Micros kGap = kMicrosPerMinute;  // one arrival a minute
  const Micros horizon = kTuples * kGap;
  struct Case {
    Micros period;
    size_t expected;  // accurate tuples captured
  };
  const std::vector<Case> cases = {
      {tau0 / 4, 1995}, {tau0 / 2, 1980},  {tau0, 1948},    {2 * tau0, 945},
      {4 * tau0, 473},  {12 * tau0, 119}, {24 * tau0, 60},
  };
  for (const Case& c : cases) {
    const std::vector<Micros> snapshots = SnapshotTimes(kGap, c.period, horizon);
    VirtualClock clock(0);
    std::unique_ptr<Database> db = OpenPings(&clock, lcp);
    ASSERT_NE(db, nullptr);
    // Tuple i arrives at i·kGap; each tick runs the degrader, then the
    // attacker's snapshot if one is due, which reads every accurate value.
    std::set<RowId> captured;
    size_t next = 0;
    for (size_t i = 0; i < kTuples; ++i) {
      InsertPings(db.get(), 1, i);
      clock.Advance(kGap);
      ASSERT_TRUE(db->RunDegradationOnce().ok());
      if (next < snapshots.size() && snapshots[next] == clock.NowMicros()) {
        ++next;
        auto stored = oracle::StoredRows(*db->GetTable("pings"));
        ASSERT_TRUE(stored.ok());
        for (const oracle::Stored& row : *stored) {
          if (row.phases[0] == 0) captured.insert(row.row_id);
        }
      }
    }
    ASSERT_EQ(next, snapshots.size());
    // Oracle: a snapshot at s captures the tuple arriving at t iff it came
    // after the tuple's insert and before its degradation deadline,
    // t < s < t + τ0.
    size_t oracle = 0;
    for (size_t i = 0; i < kTuples; ++i) {
      const Micros arrival = static_cast<Micros>(i) * kGap;
      oracle += std::any_of(snapshots.begin(), snapshots.end(),
                            [&](Micros s) {
                              return arrival < s && s < arrival + tau0;
                            })
                    ? 1
                    : 0;
    }
    const std::string label =
        StringPrintf("period %.2f tau0", static_cast<double>(c.period) /
                                             static_cast<double>(tau0));
    EXPECT_EQ(captured.size(), oracle) << label;
    EXPECT_EQ(oracle, c.expected) << label;
  }
}

TEST_F(PaperClaimsTest, CoarsePurposesKeepTheWholeHistory) {
  constexpr int kDays = 60;
  constexpr size_t kPerDay = 50;
  struct Policy {
    const char* name;
    AttributeLcp lcp;
    std::vector<size_t> expected;  // rows visible at ADDRESS, CITY, REGION
  };
  const std::vector<Policy> policies = {
      {"degradation: address 1d, city 1w, region 90d",
       *AttributeLcp::Make({{0, kMicrosPerDay},
                            {1, 7 * kMicrosPerDay},
                            {2, 90 * kMicrosPerDay}}),
       {50, 400, 3000}},
      {"retention 1 week", AttributeLcp::Retention(7 * kMicrosPerDay),
       {350, 350, 350}},
      {"retention 1 month", AttributeLcp::Retention(kMicrosPerMonth),
       {1500, 1500, 1500}},
  };
  for (const Policy& policy : policies) {
    VirtualClock clock(0);
    std::unique_ptr<Database> db = OpenPings(&clock, policy.lcp);
    ASSERT_NE(db, nullptr);
    for (int day = 0; day < kDays; ++day) {
      clock.Advance(kMicrosPerDay);
      ASSERT_TRUE(db->RunDegradationOnce().ok());
      // Inserting after the daily pass leaves the last day's events
      // accurate at query time.
      InsertPings(db.get(), kPerDay, day);
    }
    // COUNT(location) reads the degradable column, so the strict semantics
    // apply: a row stored coarser than the purpose is invisible.
    Session session(db.get());
    std::vector<size_t> visible;
    const char* kLevels[] = {"ADDRESS", "CITY", "REGION"};
    for (int purpose = 0; purpose < 3; ++purpose) {
      ASSERT_TRUE(session
                      .Execute(StringPrintf("DECLARE PURPOSE P%d SET ACCURACY "
                                            "LEVEL %s FOR pings.location",
                                            purpose, kLevels[purpose]))
                      .ok());
      auto result = session.Execute("SELECT COUNT(location) FROM pings");
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ASSERT_EQ(result->rows.size(), 1u);
      visible.push_back(static_cast<size_t>(result->rows[0][0].int64()));
    }
    EXPECT_EQ(visible, policy.expected) << policy.name;
  }
}

}  // namespace
}  // namespace instantdb
