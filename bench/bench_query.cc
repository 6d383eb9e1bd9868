// B6 (paper challenge — "How to speed up queries involving degradable
// attributes?", OLTP side):
// selection latency vs. accuracy level for three access paths: full scan,
// the multi-resolution index, and a naive single B+-tree that only indexes
// accurate (phase-0) values and must fall back to scanning degraded data
// (modeled by disabling index use for the degraded part).
//
// Also shows the paper's observation that OLTP queries become LESS
// selective as attributes degrade: one city-level key covers many rows.
//
// Expected shape: multi-resolution index answers coarse queries in time
// proportional to the result, the scan in time proportional to the table;
// selectivity decays by roughly the domain fan-out per level.
//
// Emits BENCH_query.json via the shared JsonEmitter: the selectivity table,
// per-access-path SELECT latency series (indexed vs full scan per level)
// and the scan-parallelism series over the 4-partition setup table.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "support/bench_util.h"

using namespace instantdb;
using bench::JsonEmitter;
using bench::TablePrinter;

namespace {

constexpr size_t kTuples = 20000;

struct QuerySetup {
  VirtualClock clock;
  bench::TestDb test;
  bench::PingWorkload workload;
  const GeneralizationTree* tree = nullptr;
};

std::unique_ptr<QuerySetup> MakeSetup() {
  auto setup = std::make_unique<QuerySetup>();
  // Partitioned setup so the SQL scan paths exercise the parallel read
  // path's fan-out (ScanOptions::parallelism defaults to the pool size).
  DbOptions options;
  options.partitions = 4;
  options.degradation.worker_threads = 4;
  setup->test = bench::OpenFreshDb("query", &setup->clock, options);
  setup->workload = bench::MakePingWorkload(Fig2LocationLcp(), 4);
  setup->tree =
      static_cast<const GeneralizationTree*>(setup->workload.domain.get());
  setup->test.db->CreateTable("pings", setup->workload.schema).status();
  // Insert over ~2h so the table holds a mix of phase-0 and phase-1 data.
  bench::InsertPings(setup->test.db.get(), &setup->clock, setup->workload,
                     "pings", kTuples, 2 * kMicrosPerHour / kTuples);
  setup->test.db->RunDegradationOnce().status().ok();
  return setup;
}

/// Wall-clock latency series of one SQL statement, executed `iters` times
/// through `session`, recorded into the shared JsonEmitter.
double RecordSqlSeries(Session* session, const std::string& name,
                       const std::string& sql, int iters) {
  SystemClock wall;
  Histogram latency;
  uint64_t rows = 0;
  for (int i = 0; i < iters; ++i) {
    const Micros t0 = wall.NowMicros();
    auto result = session->Execute(sql);
    latency.Add(static_cast<double>(wall.NowMicros() - t0));
    if (result.ok()) rows = result->affected_rows;
  }
  const double mean_us = latency.mean() <= 0 ? 1 : latency.mean();
  const double ops_per_sec = 1e6 / mean_us;
  JsonEmitter::Instance().AddSeries(name, ops_per_sec, latency);
  JsonEmitter::Instance().AddScalar(name + "_rows",
                                    static_cast<double>(rows));
  return mean_us;
}

void RunSelectivity() {
  auto setup = MakeSetup();
  Session session(setup->test.db.get());
  TablePrinter table({"accuracy level", "predicate", "matching rows",
                      "selectivity", "index rows visited", "scan rows visited"});
  const char* kLevels[4] = {"ADDRESS", "CITY", "REGION", "COUNTRY"};
  for (int level = 0; level < 4; ++level) {
    session.Execute(StringPrintf(
        "DECLARE PURPOSE P%d SET ACCURACY LEVEL %s FOR pings.location", level,
        kLevels[level])).status();
    const std::string label = setup->tree->LabelsAtLevel(level).front();
    const std::string sql = StringPrintf(
        "SELECT COUNT(*) FROM pings WHERE location = '%s'", label.c_str());
    session.set_use_indexes(true);
    auto indexed = session.Execute(sql);
    session.set_use_indexes(false);
    auto scanned = session.Execute(sql);
    const int64_t matches =
        indexed.ok() && !indexed->rows.empty() ? indexed->rows[0][0].int64() : -1;
    const int64_t scan_matches =
        scanned.ok() && !scanned->rows.empty() ? scanned->rows[0][0].int64() : -1;
    table.AddRow({kLevels[level], "location = '" + label + "'",
                  std::to_string(matches),
                  StringPrintf("%.2f%%", 100.0 * matches / kTuples),
                  std::to_string(matches),
                  StringPrintf("%zu (all)", kTuples)});
    if (matches != scan_matches) {
      std::printf("!! index/scan mismatch at level %d: %lld vs %lld\n", level,
                  static_cast<long long>(matches),
                  static_cast<long long>(scan_matches));
    }
  }
  table.Print(
      "B6a: selectivity decay as accuracy coarsens (20000 tuples, fanout-4 "
      "tree; equality predicate on one node per level)");
}

/// Per-access-path SELECT latency into the JSON: the multi-resolution index
/// vs the (parallel) full scan at each accuracy level — the machine-
/// readable form of the paper's B6 comparison.
void RunAccessPathSeries() {
  auto setup = MakeSetup();
  Session session(setup->test.db.get());
  TablePrinter table({"accuracy level", "indexed us", "scan us"});
  const char* kLevels[4] = {"ADDRESS", "CITY", "REGION", "COUNTRY"};
  for (int level = 0; level < 4; ++level) {
    session.Execute(StringPrintf(
        "DECLARE PURPOSE S%d SET ACCURACY LEVEL %s FOR pings.location", level,
        kLevels[level])).status();
    const std::string label = setup->tree->LabelsAtLevel(level).front();
    const std::string sql = StringPrintf(
        "SELECT COUNT(*) FROM pings WHERE location = '%s'", label.c_str());
    session.set_use_indexes(true);
    const double indexed = RecordSqlSeries(
        &session, StringPrintf("select_indexed_level%d", level), sql, 20);
    session.set_use_indexes(false);
    const double scanned = RecordSqlSeries(
        &session, StringPrintf("select_scan_level%d", level), sql, 10);
    session.set_use_indexes(true);
    table.AddRow({kLevels[level], StringPrintf("%.0f", indexed),
                  StringPrintf("%.0f", scanned)});
  }
  table.Print("B6b: SELECT latency by access path (mean us per statement)");
}

/// Scan parallelism over the 4-partition setup table: the same full-scan
/// SELECT at ScanOptions::parallelism 1 vs 4, streamed and materialized.
/// On a single core the hot (page-cached) scan shows parity — the cold-scan
/// fan-out win is measured in bench_partition_scaling, where the table
/// out-sizes the caches.
void RunScanParallelism() {
  auto setup = MakeSetup();
  Session session(setup->test.db.get());
  session.set_use_indexes(false);
  TablePrinter table({"parallelism", "count(*) us", "full drain us"});
  for (size_t parallelism : {1u, 4u}) {
    session.scan_options().parallelism = parallelism;
    const double agg = RecordSqlSeries(
        &session, StringPrintf("scan_count_par%zu", parallelism),
        "SELECT COUNT(*) FROM pings", 10);
    const double drain = RecordSqlSeries(
        &session, StringPrintf("scan_drain_par%zu", parallelism),
        "SELECT user, location FROM pings", 10);
    table.AddRow({std::to_string(parallelism), StringPrintf("%.0f", agg),
                  StringPrintf("%.0f", drain)});
  }
  table.Print(
      "scan parallelism (hot, 20000 tuples, 4 partitions): COUNT(*) and "
      "materializing drain at parallelism 1 vs 4");
}

QuerySetup* SharedSetup() {
  static QuerySetup* setup = MakeSetup().release();
  return setup;
}

void BM_QueryIndexed(benchmark::State& state) {
  QuerySetup* setup = SharedSetup();
  const int level = static_cast<int>(state.range(0));
  const std::string label = setup->tree->LabelsAtLevel(level).front();
  Table* table = setup->test.db->GetTable("pings");
  const int col = table->schema().FindColumn("location");
  for (auto _ : state) {
    std::vector<RowId> rids;
    auto status = table->IndexLookupEqual(col, Value::String(label), level, &rids);
    benchmark::DoNotOptimize(rids);
    if (!status.ok()) state.SkipWithError(status.ToString().c_str());
  }
  state.SetLabel(StringPrintf("level=%d multires-index", level));
}
BENCHMARK(BM_QueryIndexed)->DenseRange(0, 3)->Unit(benchmark::kMicrosecond);

void BM_QueryScan(benchmark::State& state) {
  QuerySetup* setup = SharedSetup();
  const int level = static_cast<int>(state.range(0));
  const std::string label = setup->tree->LabelsAtLevel(level).front();
  Session session(setup->test.db.get());
  session.set_use_indexes(false);
  const char* kLevels[4] = {"ADDRESS", "CITY", "REGION", "COUNTRY"};
  session.Execute(StringPrintf(
      "DECLARE PURPOSE B SET ACCURACY LEVEL %s FOR pings.location",
      kLevels[level])).status();
  const std::string sql = StringPrintf(
      "SELECT COUNT(*) FROM pings WHERE location = '%s'", label.c_str());
  for (auto _ : state) {
    auto result = session.Execute(sql);
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel(StringPrintf("level=%d full-scan", level));
}
BENCHMARK(BM_QueryScan)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

void BM_QuerySqlIndexed(benchmark::State& state) {
  QuerySetup* setup = SharedSetup();
  const int level = static_cast<int>(state.range(0));
  const std::string label = setup->tree->LabelsAtLevel(level).front();
  Session session(setup->test.db.get());
  const char* kLevels[4] = {"ADDRESS", "CITY", "REGION", "COUNTRY"};
  session.Execute(StringPrintf(
      "DECLARE PURPOSE C SET ACCURACY LEVEL %s FOR pings.location",
      kLevels[level])).status();
  const std::string sql = StringPrintf(
      "SELECT COUNT(*) FROM pings WHERE location = '%s'", label.c_str());
  for (auto _ : state) {
    auto result = session.Execute(sql);
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel(StringPrintf("level=%d sql+index", level));
}
BENCHMARK(BM_QuerySqlIndexed)->DenseRange(0, 3)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  RunSelectivity();
  RunAccessPathSeries();
  RunScanParallelism();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;  // JsonEmitter flushes BENCH_<program>.json at exit
}
