#ifndef INSTANTDB_BENCH_SUPPORT_BENCH_UTIL_H_
#define INSTANTDB_BENCH_SUPPORT_BENCH_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "common/strings.h"
#include "instantdb/instantdb.h"

namespace instantdb::bench {

/// Fresh scratch database in this process's directory under $TMPDIR
/// (default /tmp), driven by the supplied VirtualClock.
struct TestDb {
  std::string path;
  std::unique_ptr<Database> db;
};

/// Opens a fresh database (removing any previous contents). The process's
/// directory, and every database in it, is removed at exit.
TestDb OpenFreshDb(const std::string& name, VirtualClock* clock,
                   DbOptions base = {});

/// The standard benchmark table: one stable user column plus a degradable
/// location over a synthetic tree (`fanout^4` leaves) with the given LCP.
struct PingWorkload {
  std::shared_ptr<const DomainHierarchy> domain;
  std::vector<std::string> addresses;  // leaf labels, index by ordinal
  Schema schema;
};
PingWorkload MakePingWorkload(const AttributeLcp& lcp, int fanout = 4);

/// Inserts `n` rows with arrivals spaced `inter_arrival` apart; addresses
/// drawn Zipf(theta) over the leaves. Returns the inserted row ids.
std::vector<RowId> InsertPings(Database* db, VirtualClock* clock,
                               const PingWorkload& workload,
                               const std::string& table, size_t n,
                               Micros inter_arrival, double zipf_theta = 0.8,
                               uint64_t seed = 42);

/// Counts occurrences of `needle` in every file under `dir` (recursive),
/// skipping the CATALOG (domain metadata, not tuple data).
size_t ForensicScan(const std::string& dir, const std::string& needle);

/// \brief Process-wide machine-readable benchmark output.
///
/// Every table printed through TablePrinter and every explicitly recorded
/// metric series is collected here and written to `BENCH_<program>.json`
/// (directory overridable with $BENCH_JSON_DIR, default the working
/// directory) at process exit — the perf-trajectory files consumed by
/// tooling alongside the human-readable console output.
class JsonEmitter {
 public:
  static JsonEmitter& Instance();

  void AddTable(const std::string& title,
                const std::vector<std::string>& headers,
                const std::vector<std::vector<std::string>>& rows);

  /// One named series: throughput plus latency percentiles (microseconds)
  /// from a util/histogram of per-op latencies.
  void AddSeries(const std::string& name, double ops_per_sec,
                 const Histogram& latency_micros);

  /// One named scalar (speedups, counts, byte totals, ...).
  void AddScalar(const std::string& name, double value);

  /// Writes BENCH_<program>.json now (also runs automatically at exit).
  void Flush();

 private:
  JsonEmitter() = default;

  std::vector<std::string> tables_;   // pre-rendered JSON objects
  std::vector<std::string> series_;   // pre-rendered JSON objects
  std::vector<std::string> scalars_;  // pre-rendered JSON objects
};

/// Aligned-column table printer for the experiment series the paper-shaped
/// reports are generated from. Tables are echoed into the JsonEmitter so
/// every benchmark emits machine-readable output for free.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);
  void AddRow(std::vector<std::string> cells);
  void Print(const std::string& title) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

std::string FormatDuration(Micros micros);

}  // namespace instantdb::bench

#endif  // INSTANTDB_BENCH_SUPPORT_BENCH_UTIL_H_
