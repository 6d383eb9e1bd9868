#include "harness.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

namespace perfbench {

using namespace instantdb;

std::string ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return "unexpected argument: " + key;
    key = key.substr(2);
    std::string value;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return "missing value for --" + key;
    }
    char* end = nullptr;
    if (key == "workload") {
      args->workload = value;
    } else if (key == "seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return "bad --seed: " + value;
    } else if (key == "seconds") {
      const long seconds = std::strtol(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || seconds < 1 || seconds > 3600) {
        return "bad --seconds: " + value;
      }
      args->seconds = static_cast<int>(seconds);
    } else if (key == "trace") {
      if (value != "0" && value != "1") return "bad --trace: " + value;
      args->trace = value == "1";
    } else if (key == "dir") {
      args->dir = value;
    } else if (key == "out") {
      args->out = value;
    } else {
      return "unknown option --" + key;
    }
  }
  if (args->workload.empty()) return "--workload is required";
  return "";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

uint64_t AllocatedBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    struct stat st;
    if (lstat(it->path().c_str(), &st) == 0 && S_ISREG(st.st_mode)) {
      total += static_cast<uint64_t>(st.st_blocks) * 512;
    }
  }
  return total;
}

ScratchDir::ScratchDir(const std::string& parent, const std::string& name)
    : path_(parent + "/" + name + "-" + std::to_string(getpid())) {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
  std::filesystem::create_directories(path_, ec);
  ok_ = !ec;
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

double Samples::Mean() const {
  if (values_.empty()) return 0;
  double sum = 0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double n = static_cast<double>(values_.size());
  const double rank = std::ceil(p / 100.0 * n);
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values_[std::min(index, values_.size() - 1)];
}

double Samples::ShareAbove(double threshold) const {
  if (values_.empty()) return 0;
  size_t above = 0;
  for (double v : values_) above += v > threshold ? 1 : 0;
  return static_cast<double>(above) / static_cast<double>(values_.size());
}

const std::vector<MetricDef>& MetricTable() {
  static const std::vector<MetricDef> table = {
      // End to end: what a user of the engine sees on every workload.
      {"setup_s", "s", true},
      {"goodput_per_s", "1/s", true},
      {"p50_ms", "ms", true},
      {"p90_ms", "ms", true},
      {"rss_bytes_per_row", "B/row", true},
      {"space_bytes_per_row", "B/row", true},
      // Per layer. A time-valued metric here is one every workload measures;
      // latencies that exist on one workload only are printed as `detail`
      // lines instead, since every per-layer metric is printed everywhere.
      // Headline tail, memory peak and load-generator validity.
      {"bench.tail_ms", "ms", false},
      {"bench.rss_peak_mb", "MB", false},
      {"bench.error_ratio", "ratio", false},
      {"bench.trace_overhead", "ratio", false},
      {"bench.loadgen_late_share", "ratio", false},
      // service
      {"service.reject_ratio", "ratio", false},
      {"service.retry_ratio", "ratio", false},
      {"service.queued_ratio", "ratio", false},
      // query
      {"query.scan_rows_per_s", "rows/s", false},
      {"query.rows_examined_per_row_returned", "ratio", false},
      {"query.prefilter_ratio", "ratio", false},
      {"query.store_probes_per_row", "ratio", false},
      // util (morsel scheduler and worker pool)
      {"util.morsels_per_scan", "count", false},
      {"util.morsel_steal_ratio", "ratio", false},
      {"util.prefetch_stalls_per_scan", "count", false},
      {"util.pool_busy_fraction", "ratio", false},
      {"util.reserved_grants", "count", false},
      // db
      {"db.ingest_rows_per_s", "rows/s", false},
      {"db.dirty_partitions_mean", "count", false},
      // txn
      {"txn.abort_ratio", "ratio", false},
      {"txn.lock_waits_per_commit", "ratio", false},
      // wal
      {"wal.syncs_per_commit", "ratio", false},
      {"wal.sync_waiters_mean", "count", false},
      {"wal.bytes_per_user_byte", "ratio", false},
      {"wal.live_segments_max", "count", false},
      {"wal.scrub_bytes_per_s", "B/s", false},
      // io
      {"io.syncs_per_commit", "ratio", false},
      {"io.writes_per_commit", "ratio", false},
      // storage
      {"storage.heap_pool_hit_ratio", "ratio", false},
      {"storage.heap_misses_per_scan", "count", false},
      {"storage.evictions_per_scan", "count", false},
      // degrade
      {"degrade.values_per_s", "1/s", false},
      {"degrade.values_per_step", "ratio", false},
      {"degrade.late_share", "ratio", false},
      {"degrade.overdue_units_max", "count", false},
      {"degrade.lock_abort_ratio", "ratio", false},
      // maintain (every workload audits at least once)
      {"maintain.audit_p50_ms", "ms", false},
      {"maintain.audit_dirty_ratio", "ratio", false},
      {"maintain.final_audit_clean", "bool", false},
      {"maintain.checkpoints_per_s", "1/s", false},
      {"maintain.forced_checkpoint_ratio", "ratio", false},
      {"maintain.adaptive_pulls", "count", false},
      {"maintain.exposed_values_max", "count", false},
      {"maintain.exposed_wal_segments_max", "count", false},
      // Traced runs: mean set-up self time, and each layer's share of the
      // self time of the load's spans.
      {"trace.setup_self_ms", "ms", false},
      {"trace.service_self_share", "ratio", false},
      {"trace.query_self_share", "ratio", false},
      {"trace.db.write_self_share", "ratio", false},
      {"trace.maintain.audit_self_share", "ratio", false},
  };
  return table;
}

namespace {

const MetricDef* FindMetric(const std::string& name) {
  for (const MetricDef& def : MetricTable()) {
    if (name == def.name) return &def;
  }
  return nullptr;
}

}  // namespace

void Report::Set(const std::string& name, double value, size_t samples) {
  if (FindMetric(name) == nullptr) {
    std::fprintf(stderr, "internal error: unknown metric %s\n", name.c_str());
    correct_ = false;
    return;
  }
  Entry& entry = values_[name];
  entry.value = std::isfinite(value) ? value : 0;
  entry.samples = samples;
}

void Report::Detail(const std::string& name, const Samples& samples) const {
  std::string line =
      StringPrintf("detail %-32s n=%-7zu p50=%.4f", name.c_str(),
                   samples.count(), samples.Percentile(50));
  for (double p : {90.0, 99.0}) {
    if (!samples.Supports(p)) continue;
    line += StringPrintf(" p%.0f=%.4f", p, samples.Percentile(p));
  }
  std::printf("%s ms\n", line.c_str());
}

void Report::Check(const std::string& what, bool ok,
                   const std::string& detail) {
  std::printf("check %-40s %s%s%s\n", what.c_str(), ok ? "ok" : "FAILED",
              detail.empty() ? "" : "  ", detail.c_str());
  if (!ok) correct_ = false;
}

int Report::Finish(bool trace) {
  const uint64_t attempted = std::max<uint64_t>(attempted_, 1);
  Set("bench.error_ratio",
      static_cast<double>(failed_) / static_cast<double>(attempted));
  std::string metrics;
  for (const MetricDef& def : MetricTable()) {
    const auto found = values_.find(def.name);
    const Entry entry = found == values_.end() ? Entry{} : found->second;
    if (def.end_to_end && !(entry.value > 0)) {
      Check(std::string("end-to-end metric is measured: ") + def.name, false);
    }
    if (entry.samples > 0) {
      std::printf("metric %-40s %14.6g %-7s n=%zu\n", def.name, entry.value,
                  def.unit, entry.samples);
    } else {
      std::printf("metric %-40s %14.6g %s\n", def.name, entry.value, def.unit);
    }
    if (def.end_to_end == trace) continue;
    if (!metrics.empty()) metrics += ", ";
    metrics += StringPrintf("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                            def.name, entry.value, def.unit);
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct_ ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed_), metrics.c_str());
  std::fflush(stdout);
  return correct_ ? 0 : 1;
}

Counters Snapshot(Database* db) {
  const Database::Stats stats = db->stats();
  Counters c;
  c.txn_started = stats.txn.started;
  c.txn_committed = stats.txn.committed;
  c.txn_aborted = stats.txn.aborted;
  c.lock_waits = db->lock_manager()->stats().waits;
  c.wal_syncs = stats.wal.syncs;
  c.wal_bytes = stats.wal.bytes_appended;
  c.wal_scrub_bytes = stats.wal.scrub_bytes;
  c.io_syncs = stats.io.syncs;
  c.io_writes = stats.io.writes;
  c.scan_rows = stats.scan.rows;
  c.prefetch_stalls = stats.scan.prefetch_stalls;
  c.morsels_claimed = stats.scan.morsels_claimed;
  c.morsels_stolen = stats.scan.morsels_stolen;
  for (const TableDef* def : db->catalog().tables()) {
    const Table* table = db->GetTable(def->id);
    if (table == nullptr) continue;
    for (uint32_t i = 0; i < table->num_partitions(); ++i) {
      const BufferPool::Stats s = table->partition(i)->heap_pool()->stats();
      c.heap_hits += s.hits;
      c.heap_misses += s.misses;
      c.heap_evictions += s.evictions;
    }
  }
  c.degrade_steps = stats.degradation.steps;
  c.degrade_values = stats.degradation.values_moved;
  c.degrade_lock_aborts = stats.degradation.lock_aborts;
  c.checkpoints = stats.maintenance.checkpoints;
  c.forced_checkpoints = stats.maintenance.forced_checkpoints;
  c.adaptive_pulls = stats.maintenance.adaptive_checkpoint_pulls;
  c.reserved_grants = db->worker_pool()->reserved_grants();
  return c;
}

void Gauges::Sample(Database* db) {
  ++samples;
  sync_waiters_sum += static_cast<double>(db->wal()->SyncWaiters());
  dirty_partitions_sum += static_cast<double>(db->DirtyPartitions());
  const WorkerPool* pool = db->worker_pool();
  pool_busy_sum += 1.0 - static_cast<double>(pool->free_workers()) /
                             static_cast<double>(pool->size());
  const Micros now = db->clock()->NowMicros();
  overdue_units_max = std::max<uint64_t>(
      overdue_units_max, db->degradation()->OverdueUnits(now));
  const WalManager::Stats wal = db->wal()->stats();
  live_segments_max = std::max<uint64_t>(
      live_segments_max, wal.segments_created - wal.segments_retired);
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void ReportLayers(const Counters& d, const Gauges& gauges,
                  const LayerInputs& in, Report* report) {
  const double commits = static_cast<double>(d.txn_committed);
  const double samples = static_cast<double>(gauges.samples);
  const double scans = static_cast<double>(in.heap_scans);

  report->Set("util.pool_busy_fraction",
              Ratio(gauges.pool_busy_sum, samples));
  report->Set("util.reserved_grants", static_cast<double>(d.reserved_grants));
  report->Set("util.morsel_steal_ratio",
              Ratio(d.morsels_stolen, d.morsels_claimed));
  report->Set("util.prefetch_stalls_per_scan",
              Ratio(d.prefetch_stalls, scans));

  report->Set("db.dirty_partitions_mean",
              Ratio(gauges.dirty_partitions_sum, samples));

  report->Set("txn.abort_ratio", Ratio(d.txn_aborted, d.txn_started));
  report->Set("txn.lock_waits_per_commit", Ratio(d.lock_waits, commits));

  report->Set("wal.syncs_per_commit", Ratio(d.wal_syncs, commits));
  report->Set("wal.sync_waiters_mean",
              Ratio(gauges.sync_waiters_sum, samples));
  report->Set("wal.bytes_per_user_byte",
              Ratio(d.wal_bytes, static_cast<double>(in.user_bytes)));
  report->Set("wal.live_segments_max",
              static_cast<double>(gauges.live_segments_max));
  report->Set("wal.scrub_bytes_per_s", Ratio(d.wal_scrub_bytes, in.seconds));

  report->Set("io.syncs_per_commit", Ratio(d.io_syncs, commits));
  report->Set("io.writes_per_commit", Ratio(d.io_writes, commits));

  report->Set("storage.heap_pool_hit_ratio",
              Ratio(d.heap_hits, d.heap_hits + d.heap_misses));
  report->Set("storage.heap_misses_per_scan", Ratio(d.heap_misses, scans));
  report->Set("storage.evictions_per_scan", Ratio(d.heap_evictions, scans));

  report->Set("degrade.values_per_s", Ratio(d.degrade_values, in.seconds));
  report->Set("degrade.values_per_step",
              Ratio(d.degrade_values, d.degrade_steps));
  report->Set("degrade.overdue_units_max",
              static_cast<double>(gauges.overdue_units_max));
  report->Set("degrade.lock_abort_ratio",
              Ratio(d.degrade_lock_aborts,
                    d.degrade_steps + d.degrade_lock_aborts));

  report->Set("maintain.checkpoints_per_s", Ratio(d.checkpoints, in.seconds));
  report->Set("maintain.forced_checkpoint_ratio",
              Ratio(d.forced_checkpoints, d.checkpoints));
  report->Set("maintain.adaptive_pulls", static_cast<double>(d.adaptive_pulls));
}

}  // namespace perfbench
