// Location privacy: the paper's motivating scenario in full.
//
// "Implicitly, cell phones give location information … The data ends up in
// a database somewhere, where it can be queried for various purposes."
//
// This example reproduces the paper's three figures programmatically
// (generalization tree, attribute LCP, tuple LCP), then runs a fleet of
// simulated phones for a week and reports how the amount of accurate
// location data exposed to an attacker shrinks hour by hour, compared to a
// traditional retention database.

#include <cstdio>

#include "common/strings.h"
#include "instantdb/instantdb.h"

using namespace instantdb;

int main() {
  // --- Fig. 1: the generalization tree of the location domain ------------
  auto domain = LocationDomain();
  const auto* tree = static_cast<const GeneralizationTree*>(domain.get());
  std::printf("Fig. 1 — generalization tree of the location domain:\n%s\n",
              tree->ToAsciiArt().c_str());

  // --- Fig. 2: the attribute LCP ------------------------------------------
  const AttributeLcp lcp = Fig2LocationLcp();
  std::printf("Fig. 2 — location LCP: %s\n\n", lcp.ToString().c_str());

  // --- Fig. 3: the tuple LCP (location + a salary-like attribute) ---------
  const AttributeLcp salary_lcp =
      *AttributeLcp::Make({{0, kMicrosPerDay}, {1, kMicrosPerMonth}});
  const TupleLcp tuple_lcp = TupleLcp::Make({&lcp, &salary_lcp});
  std::printf("Fig. 3 — tuple LCP (location x salary): %s\n\n",
              tuple_lcp.ToString().c_str());

  // --- A week of phone pings ----------------------------------------------
  VirtualClock clock;
  DbOptions options;
  options.path = "/tmp/instantdb_location_privacy";
  options.clock = &clock;
  RemoveDirRecursive(options.path).ok();
  auto db = Database::Open(options);
  if (!db.ok()) return 1;

  auto schema = Schema::Make(
      {ColumnDef::Stable("phone", ValueType::kString),
       ColumnDef::Stable("ts", ValueType::kTimestamp),
       ColumnDef::Degradable("location", domain, lcp)});
  (*db)->CreateTable("pings", *schema).status();

  Random rng(42);
  const auto addresses = tree->LabelsAtLevel(0);
  uint64_t inserted = 0;
  std::printf("hour | live tuples | accurate | city | region | country\n");
  std::printf("-----+-------------+----------+------+--------+--------\n");
  for (int hour = 0; hour < 7 * 24; ++hour) {
    // ~12 pings per hour across 4 phones.
    for (int p = 0; p < 12; ++p) {
      const std::string phone = StringPrintf("phone-%llu",
          static_cast<unsigned long long>(rng.Uniform(4)));
      const std::string& addr = addresses[rng.Uniform(addresses.size())];
      (*db)->Insert("pings", {Value::String(phone),
                              Value::Timestamp(clock.NowMicros()),
                              Value::String(addr)}).status();
      ++inserted;
    }
    clock.Advance(kMicrosPerHour);
    (*db)->RunDegradationOnce().status().ok();

    if (hour % 24 != 23) continue;
    // Values per accuracy phase: the sizes of the location column's
    // per-phase state stores, summed over partitions.
    const Table* table = (*db)->GetTable("pings");
    size_t per_phase[4] = {0, 0, 0, 0};
    for (uint32_t part = 0; part < table->num_partitions(); ++part) {
      for (int phase = 0; phase < lcp.num_phases(); ++phase) {
        per_phase[phase] += table->partition(part)->store(2, phase)->size();
      }
    }
    std::printf("%4d | %11llu | %8zu | %4zu | %6zu | %7zu\n", hour + 1,
                static_cast<unsigned long long>(table->live_rows()),
                per_phase[0], per_phase[1], per_phase[2], per_phase[3]);
  }

  std::printf("\n%llu pings inserted over a week.\n",
              static_cast<unsigned long long>(inserted));
  std::printf("Exposure: at any instant at most ~1 hour of accurate "
              "addresses exist; a traditional retention DB with a 1-year "
              "limit would expose all %llu.\n",
              static_cast<unsigned long long>(inserted));

  // --- Purpose-driven querying --------------------------------------------
  Session session(db->get());
  session.Execute("DECLARE PURPOSE TRAFFIC SET ACCURACY LEVEL CITY "
                  "FOR pings.location").status();
  auto by_city = session.Execute(
      "SELECT location, COUNT(*) FROM pings GROUP BY location");
  if (by_city.ok()) {
    std::printf("\nTraffic service (CITY accuracy):\n%s\n",
                by_city->ToString().c_str());
  }
  session.Execute("DECLARE PURPOSE STATS SET ACCURACY LEVEL REGION "
                  "FOR pings.location").status();
  auto by_region = session.Execute(
      "SELECT location, COUNT(*) FROM pings GROUP BY location");
  if (by_region.ok()) {
    std::printf("Regional statistics (REGION accuracy):\n%s\n",
                by_region->ToString().c_str());
  }
  return 0;
}
