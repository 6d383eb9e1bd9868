#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

/// The four workloads. Each builds its database in a fresh scratch
/// directory under `args.dir`, runs its load for `args.seconds`, checks the
/// engine's answers and fills `report`.
void RunIngest(const Args& args, Report* report);
void RunHotQuery(const Args& args, Report* report);
void RunColdScan(const Args& args, Report* report);
void RunExpiryMix(const Args& args, Report* report);

/// Configuration every workload shares: 8 partitions (so 8 WAL streams) and
/// a 4-thread worker pool; every other option keeps its default, so a change
/// of default shows up in the numbers.
instantdb::DbOptions BaseOptions(const std::string& path);

/// The synthetic location domain (4 countries x 8 regions x 16 cities x 8
/// addresses) with its labels indexed by DFS ordinal.
struct Places {
  static constexpr int kAddressesPerCity = 8;
  std::shared_ptr<const instantdb::DomainHierarchy> domain;
  std::vector<std::string> addresses;  // leaf ordinal -> label
  std::vector<std::string> cities;     // leaf ordinal / 8 -> label
};
const Places& GetPlaces();

/// `pings(user STRING, score INT64, location DEGRADABLE)` under `lcp`.
instantdb::Schema PingSchema(const instantdb::AttributeLcp& lcp);

/// Bytes of user data in one ping row (string lengths plus 8 per integer).
inline uint64_t PingBytes(const std::string& user, const std::string& address) {
  return user.size() + 8 + address.size();
}

/// Set-up's bulk load: `rows` seeded pings (Zipf(0.8) addresses) in unsynced
/// 500-row batches, each in a `db.write` span.
instantdb::Status LoadPings(instantdb::Database* db, size_t rows,
                            uint64_t seed);

/// Opens a database or reports why not. nullptr on failure.
std::unique_ptr<instantdb::Database> OpenOrReport(
    const instantdb::DbOptions& options, Report* report);

/// Streams a SELECT through Session::ExecuteCursor and returns its row
/// count.
instantdb::Result<int64_t> DrainCursor(instantdb::Session* session,
                                       const std::string& sql);

/// The value of a one-row, one-column INT64 result such as a COUNT(*), or
/// -1 when the result has another shape.
int64_t SingleInt(const instantdb::QueryResult& result);

/// Declares and activates purpose `city`: pings.location at CITY accuracy.
instantdb::Status DeclareCityPurpose(instantdb::Session* session);

/// Owns one benchmark database; closing and deleting it on destruction keeps
/// a single database on disk at a time while set-up is repeated.
struct DbFixture {
  std::string path;
  /// The database's clock when it runs on virtual time; null when the
  /// database owns a SystemClock. Declared before `db`, so it outlives it.
  std::unique_ptr<instantdb::VirtualClock> clock;
  std::unique_ptr<instantdb::Database> db;
  ~DbFixture();
};

/// In a traced run, records requests that start in odd 0.4 s blocks of the
/// load and not those in even ones, so one run measures both sides of
/// bench.trace_overhead. `elapsed_nanos` is time since the load started.
void AlternateTraceBlocks(int64_t elapsed_nanos);

/// One closed-loop client: `client(i, stop)` sends requests until `stop`.
using ClientFn = std::function<void(int, const std::atomic<bool>&)>;

/// Closed-loop runner: runs `client(i, stop)` on `clients` threads for
/// `seconds`, or until `done()` turns true, while the calling thread samples
/// `gauges` every 10 ms and alternates trace blocks. Returns the measured
/// window in seconds.
double RunClosedLoop(instantdb::Database* db, int clients, double seconds,
                     Gauges* gauges, const ClientFn& client,
                     const std::function<bool()>& done = nullptr);

/// Latency of requests split by whether the tracer recorded them, for the
/// bench.trace_overhead ratio (mean traced / mean untraced).
struct OverheadSamples {
  Samples traced;
  Samples untraced;
  void Add(bool recorded, double ms) { (recorded ? traced : untraced).Add(ms); }
  void Merge(const OverheadSamples& other) {
    traced.Merge(other.traced);
    untraced.Merge(other.untraced);
  }
};

/// Sets the headline metrics shared by every workload from the headline
/// latency: p50/p90, the supported tail (bench.tail_ms), goodput, and the
/// trace overhead.
void ReportHeadline(const Samples& latency, uint64_t ok, double seconds,
                    const OverheadSamples& overhead, Report* report);

/// What one pass of fixed statements returned.
struct WorkCount {
  int64_t rows_returned = 0;
  uint64_t heap_scans = 0;
};

/// Work counts repeat exactly only for a fixed statement sequence, so the
/// query and morsel counts come from `pass`: each statement kind once, on one
/// client, after the load. `pass` returns false if an answer was wrong.
void ReportWorkCounts(instantdb::Database* db,
                      const std::function<bool(WorkCount*)>& pass,
                      Report* report);

/// Deletion-assurance audits the benchmark runs (Database::Audit), each in a
/// `maintain.audit` span.
struct Audits {
  Samples ms;
  uint64_t runs = 0;
  uint64_t dirty = 0;
  uint64_t exposed_values_max = 0;
  uint64_t exposed_segments_max = 0;
  instantdb::Micros exposure_max = 0;

  instantdb::AuditReport Run(instantdb::Database* db);
  /// Sets maintain.audit_p50_ms, audit_dirty_ratio and the exposure maxima.
  void ReportTo(Report* report) const;
};

/// Audits once after the load, as a check that must come out clean (these
/// workloads leave nothing past its deadline), and reports the audit.
void FinalAudit(instantdb::Database* db, Report* report);

/// The samples of an engine histogram, scaled (the engine's histogram keeps
/// every sample; this reads them back in order through its percentiles).
Samples FromHistogram(const instantdb::Histogram& histogram, double scale);

/// Sets the footprint metrics for a database in `db_dir` holding
/// `live_rows` rows: allocated disk bytes and peak resident memory, each per
/// row, plus the peak itself as a per-layer metric.
void ReportFootprint(const std::string& db_dir, uint64_t live_rows,
                     Report* report);

/// Writes the trace file and self-time table of a traced run and reports
/// the set-up self time and each layer's share of the load's self time.
void FinishTrace(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
