// Quickstart: the InstantDB lifecycle in one file.
//
// Creates a database whose `location` attribute follows the paper's Fig. 2
// Life Cycle Policy, ingests location pings through the scalable write path
// (WriteBatch group commit + a prepared INSERT), fast-forwards a virtual
// clock through the policy, and queries at different declared purposes —
// both materialized (Session::Execute) and streamed row-at-a-time
// (Session::ExecuteCursor).

#include <cstdio>

#include "common/strings.h"
#include "instantdb/instantdb.h"

using namespace instantdb;  // examples only; library code never does this

int main() {
  // 1. Open a database driven by a virtual clock so we can fast-forward
  //    through hours and months; this example then drives degradation by
  //    hand with RunDegradationOnce. A deployment passes no clock (it gets
  //    wall time) and must also set `degradation.background_thread` and
  //    `maintenance.enabled`, which start the one background loop's
  //    degradation passes and its checkpoint and audit cadences. Both
  //    default to false, and without them no value degrades and no
  //    checkpoint runs unless the caller asks.
  VirtualClock clock;
  DbOptions options;
  options.path = "/tmp/instantdb_quickstart";
  options.clock = &clock;
  RemoveDirRecursive(options.path).ok();
  auto db = Database::Open(options);
  if (!db.ok()) {
    std::fprintf(stderr, "open failed: %s\n", db.status().ToString().c_str());
    return 1;
  }

  // 2. A table with a stable identity column and a degradable location.
  //    The LCP: accurate address for 1 hour -> city for 1 day -> region for
  //    a month -> country for a month -> gone.
  auto schema = Schema::Make(
      {ColumnDef::Stable("user", ValueType::kString),
       ColumnDef::Degradable("location", LocationDomain(), Fig2LocationLcp())});
  (*db)->CreateTable("pings", *schema).status();

  Session session(db->get());

  // Bulk ingest: stage rows in a WriteBatch and commit them atomically
  // through one transaction and one WAL append/sync (group commit).
  WriteBatch batch;
  batch.Insert("pings", {Value::String("alice"), Value::String("11 Rue Lepic")});
  batch.Insert("pings", {Value::String("bob"), Value::String("4 Rue Breteuil")});
  if (Status s = (*db)->Write(&batch); !s.ok()) {
    std::fprintf(stderr, "batch write failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("WriteBatch committed %zu rows (first row id %llu)\n\n",
              batch.size(),
              static_cast<unsigned long long>(batch.row_ids()[0]));

  // Hot-loop ingest: parse the INSERT once, bind `?` parameters per row.
  auto prepared = session.Prepare("INSERT INTO pings VALUES (?, ?)");
  if (prepared.ok()) {
    const std::pair<const char*, const char*> more[] = {
        {"carol", "3 Av Foch"}, {"dave", "8 Cours Mirabeau"}};
    for (const auto& [user, address] : more) {
      (*prepared)->Bind(0, Value::String(user)).ok();
      (*prepared)->Bind(1, Value::String(address)).ok();
      (*prepared)->Execute().status().ok();
    }
  }

  auto show = [&](const char* when, const char* sql) {
    auto result = session.Execute(sql);
    std::printf("-- %s\n   %s\n", when, sql);
    if (result.ok()) {
      std::printf("%s\n", result->ToString().c_str());
    } else {
      std::printf("   error: %s\n\n", result.status().ToString().c_str());
    }
  };

  // 3. Immediately after insertion: full accuracy available. Large results
  //    stream batch-at-a-time through a cursor instead of materializing;
  //    display strings render lazily, only because we print them here.
  {
    auto cursor = session.ExecuteCursor("SELECT user, location FROM pings");
    if (cursor.ok()) {
      std::printf("-- t = 0, streamed through a Cursor\n");
      CursorRow row;
      while (true) {
        auto more = (*cursor)->Next(&row);
        if (!more.ok() || !*more) break;
        std::printf("   %s @ %s\n", row.display()[0].c_str(),
                    row.display()[1].c_str());
      }
      std::printf("   (%llu rows)\n\n",
                  static_cast<unsigned long long>((*cursor)->rows_returned()));
    }
  }
  show("t = 0 (full accuracy)", "SELECT user, location FROM pings");

  // 4. One hour later the degrader rewrites addresses to cities and
  //    physically erases the accurate values (store segments, WAL, index).
  clock.Advance(kMicrosPerHour);
  (*db)->RunDegradationOnce().status().ok();
  show("t = 1h (strict semantics: level-0 queries see nothing)",
       "SELECT user, location FROM pings");

  session.Execute("DECLARE PURPOSE GEO SET ACCURACY LEVEL CITY "
                  "FOR pings.location").status();
  show("t = 1h, purpose GEO (city accuracy)",
       "SELECT user, location FROM pings");

  // 5. A month later only regions/countries remain.
  clock.Advance(kMicrosPerDay + kMicrosPerMonth);
  (*db)->RunDegradationOnce().status().ok();
  session.Execute("DECLARE PURPOSE NATL SET ACCURACY LEVEL COUNTRY "
                  "FOR pings.location").status();
  show("t = 1 month+, purpose NATL (country accuracy)",
       "SELECT user, location FROM pings WHERE location LIKE '%France%'");

  // 6. After the final phase the tuples disappear entirely.
  clock.Advance(2 * kMicrosPerMonth);
  (*db)->RunDegradationOnce().status().ok();
  show("t = 3 months (tuples expired)",
       "SELECT user, location FROM pings");

  const auto stats = (*db)->GetTable("pings")->stats();
  std::printf("degradation steps=%llu, values degraded=%llu, "
              "values removed=%llu, tuples expired=%llu\n",
              static_cast<unsigned long long>(stats.degrade_steps),
              static_cast<unsigned long long>(stats.values_degraded),
              static_cast<unsigned long long>(stats.values_removed),
              static_cast<unsigned long long>(stats.tuples_expired));
  return 0;
}
