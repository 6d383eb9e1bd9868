#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/strings.h"
#include "instantdb/instantdb.h"
#include "util/file.h"

namespace perfbench {

/// Command line of one benchmark run (see README.md).
struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
  /// Parent of the per-run scratch directory (database files).
  std::string dir = ".bench_build/runs";
  /// Where a traced run writes its Chrome trace and self-time table.
  std::string out = ".bench_build/traces";
};

/// Parses `--name value` and `--name=value`. Returns an error message, or
/// an empty string on success.
std::string ParseArgs(int argc, char** argv, Args* args);

/// Monotonic time in nanoseconds.
inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline double NanosToMs(int64_t nanos) {
  return static_cast<double>(nanos) / 1e6;
}

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

/// Bytes of storage allocated to every file under `dir` (Σ st_blocks × 512),
/// so preallocated but unwritten WAL space counts as the disk sees it.
uint64_t AllocatedBytes(const std::string& dir);

/// A directory private to this run, `<parent>/<name>-<pid>`, created empty
/// and removed with everything in it on destruction. Concurrent runs never
/// share database files.
class ScratchDir {
 public:
  ScratchDir(const std::string& parent, const std::string& name);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }
  bool ok() const { return ok_; }

 private:
  std::string path_;
  bool ok_ = false;
};

/// Latency samples of one request type, in milliseconds.
class Samples {
 public:
  void Add(double ms) {
    values_.push_back(ms);
    sorted_ = false;
  }
  void Merge(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
    sorted_ = false;
  }
  size_t count() const { return values_.size(); }
  double Mean() const;
  /// Nearest-rank percentile, p in (0, 100]. 0 without samples.
  double Percentile(double p) const;
  /// True when at least ten samples lie beyond percentile p; with fewer, the
  /// percentile says little more than the maximum does.
  bool Supports(double p) const {
    return static_cast<double>(values_.size()) * (100.0 - p) / 100.0 >= 10.0;
  }
  /// The highest percentile up to p99 that leaves ten samples beyond it.
  double TailPercentile() const {
    const double n = static_cast<double>(values_.size());
    return n < 20 ? 50 : std::min(99.0, 100.0 * (1.0 - 10.0 / n));
  }
  /// Share of samples strictly above `threshold`.
  double ShareAbove(double threshold) const;

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
};

/// Every metric the benchmark reports, with its unit and whether it is an
/// end-to-end metric (printed by untraced runs) or a per-layer one (printed
/// by traced runs). Mirrors BENCHMARK.json.
struct MetricDef {
  const char* name;
  const char* unit;
  bool end_to_end;
};
const std::vector<MetricDef>& MetricTable();

/// Collects the metrics and correctness checks of one run and prints them:
/// one human-readable line per metric (with its sample count where it is a
/// percentile), then the result object as the last line of stdout.
class Report {
 public:
  /// Sets a metric from the table. `samples` is the count behind a
  /// percentile or mean (0 = not a sampled metric).
  void Set(const std::string& name, double value, size_t samples = 0);
  /// Prints a latency that only some workloads have (so it is not a metric):
  /// its sample count, median, and p90/p99 where they are supported.
  void Detail(const std::string& name, const Samples& samples) const;
  /// Records a correctness check; any failed check makes `correct` false.
  void Check(const std::string& what, bool ok, const std::string& detail = "");
  void AddAttempted(uint64_t n) { attempted_ += n; }
  void AddFailed(uint64_t n) { failed_ += n; }

  /// Prints every metric and the result line. Returns the process exit code:
  /// 0 only when every check passed.
  int Finish(bool trace);

 private:
  struct Entry {
    double value = 0;
    size_t samples = 0;
  };
  std::map<std::string, Entry> values_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// The engine counters the per-layer metrics derive from, read from outside
/// through Database::stats(), the lock manager, every partition's heap
/// buffer pool and the worker pool.
#define PERFBENCH_COUNTERS(X)                                               \
  X(txn_started) X(txn_committed) X(txn_aborted) X(lock_waits)              \
  X(wal_syncs) X(wal_bytes) X(wal_scrub_bytes) X(io_syncs) X(io_writes)     \
  X(scan_rows) X(prefetch_stalls) X(morsels_claimed) X(morsels_stolen)      \
  X(heap_hits) X(heap_misses) X(heap_evictions)                             \
  X(degrade_steps) X(degrade_values) X(degrade_lock_aborts)                 \
  X(checkpoints) X(forced_checkpoints) X(adaptive_pulls) X(reserved_grants)

/// A snapshot of those counters, or the difference of two: differences
/// taken on successive databases add up.
struct Counters {
#define PERFBENCH_FIELD(name) uint64_t name = 0;
  PERFBENCH_COUNTERS(PERFBENCH_FIELD)
#undef PERFBENCH_FIELD

  Counters operator-(const Counters& other) const {
    Counters out;
#define PERFBENCH_SUB(name) out.name = name - other.name;
    PERFBENCH_COUNTERS(PERFBENCH_SUB)
#undef PERFBENCH_SUB
    return out;
  }
  Counters& operator+=(const Counters& other) {
#define PERFBENCH_ADD(name) name += other.name;
    PERFBENCH_COUNTERS(PERFBENCH_ADD)
#undef PERFBENCH_ADD
    return *this;
  }
};
Counters Snapshot(instantdb::Database* db);

/// Gauges the main thread samples every 10 ms while the load runs.
struct Gauges {
  uint64_t samples = 0;
  double sync_waiters_sum = 0;
  double dirty_partitions_sum = 0;
  double pool_busy_sum = 0;
  uint64_t overdue_units_max = 0;
  uint64_t live_segments_max = 0;

  void Sample(instantdb::Database* db);
};

/// What a workload measured, beyond its own metrics, that the shared
/// per-layer derivations need.
struct LayerInputs {
  double seconds = 0;             // measured window
  uint64_t heap_scans = 0;        // statements that scanned a table heap
  uint64_t user_bytes = 0;        // value bytes the load generator wrote
};

/// Derives the counter- and gauge-based per-layer metrics (txn, wal, io,
/// storage, degrade, maintain cadence, util pool) from the counters' change
/// over the measured window.
void ReportLayers(const Counters& delta, const Gauges& gauges,
                  const LayerInputs& in, Report* report);

/// Runs `setup(i)` `times` times and reports the median duration as
/// setup_s. Each fixture is destroyed before the next is built, so only one
/// set-up database exists at a time; the last is returned for measurement
/// (nullptr if a set-up failed).
template <typename Fixture>
std::unique_ptr<Fixture> MedianSetup(
    int times, const std::function<std::unique_ptr<Fixture>(int)>& setup,
    Report* report) {
  Samples seconds;
  std::unique_ptr<Fixture> kept;
  for (int i = 0; i < times; ++i) {
    kept.reset();
    const int64_t start = NowNanos();
    kept = setup(i);
    seconds.Add(static_cast<double>(NowNanos() - start) / 1e9);
    if (kept == nullptr) return nullptr;
  }
  report->Set("setup_s", seconds.Percentile(50), seconds.count());
  return kept;
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
