#include <filesystem>
#include <thread>

#include "trace.h"
#include "workloads.h"

namespace perfbench {

using namespace instantdb;

DbOptions BaseOptions(const std::string& path) {
  DbOptions options;
  options.path = path;
  options.partitions = 8;
  options.degradation.worker_threads = 4;
  return options;
}

const Places& GetPlaces() {
  static const Places places = [] {
    constexpr int kCountries = 4, kRegions = 8, kCities = 16;
    Places p;
    p.domain = SyntheticLocationDomain(kCountries, kRegions, kCities,
                                       Places::kAddressesPerCity);
    for (int c = 0; c < kCountries; ++c) {
      for (int r = 0; r < kRegions; ++r) {
        for (int ci = 0; ci < kCities; ++ci) {
          p.cities.push_back(StringPrintf("City%d.%d.%d", c, r, ci));
          for (int a = 0; a < Places::kAddressesPerCity; ++a) {
            p.addresses.push_back(
                StringPrintf("Addr%d.%d.%d.%d", c, r, ci, a));
          }
        }
      }
    }
    return p;
  }();
  return places;
}

Schema PingSchema(const AttributeLcp& lcp) {
  return *Schema::Make(
      {ColumnDef::Stable("user", ValueType::kString),
       ColumnDef::Stable("score", ValueType::kInt64),
       ColumnDef::Degradable("location", GetPlaces().domain, lcp)});
}

Status LoadPings(Database* db, size_t rows, uint64_t seed) {
  constexpr size_t kBatch = 500;
  const Places& places = GetPlaces();
  Random rng(seed);
  ZipfGenerator zipf(places.addresses.size(), 0.8, seed);
  for (size_t start = 0; start < rows; start += kBatch) {
    WriteBatch batch;
    for (size_t r = start; r < std::min(start + kBatch, rows); ++r) {
      std::string user = "u" + std::to_string(rng.Uniform(1000000));
      const std::string& address = places.addresses[zipf.Next()];
      const auto score = static_cast<int64_t>(rng.Uniform(2000));
      batch.Insert("pings", {Value::String(std::move(user)),
                             Value::Int64(score), Value::String(address)});
    }
    Span write("db.write");
    IDB_RETURN_IF_ERROR(db->Write(&batch));
  }
  return Status::OK();
}

std::unique_ptr<Database> OpenOrReport(const DbOptions& options,
                                       Report* report) {
  auto db = Database::Open(options);
  if (db.ok()) return std::move(*db);
  report->Check("database opens", false, db.status().ToString());
  return nullptr;
}

Result<int64_t> DrainCursor(Session* session, const std::string& sql) {
  auto cursor = session->ExecuteCursor(sql);
  if (!cursor.ok()) return cursor.status();
  int64_t rows = 0;
  const CursorBatch* batch = nullptr;
  while (true) {
    auto more = (*cursor)->NextBatch(&batch);
    if (!more.ok()) return more.status();
    if (!*more) return rows;
    rows += static_cast<int64_t>(batch->size());
  }
}

int64_t SingleInt(const QueryResult& result) {
  if (result.rows.size() != 1 || result.rows[0].size() != 1) return -1;
  const Value& value = result.rows[0][0];
  return value.type() == ValueType::kInt64 ? value.int64() : -1;
}

Status DeclareCityPurpose(Session* session) {
  return session
      ->Execute(
          "DECLARE PURPOSE city SET ACCURACY LEVEL CITY FOR pings.location")
      .status();
}

void AlternateTraceBlocks(int64_t elapsed_nanos) {
  // 0.4 s blocks: shorter than expiry_mix's one-second ingest waves and out
  // of phase with its one-second audits, so both sides of the overhead ratio
  // see the same mix.
  constexpr int64_t kBlockNanos = 400 * 1000 * 1000;
  Tracer::Get().set_recording((elapsed_nanos / kBlockNanos) % 2 == 1);
}

DbFixture::~DbFixture() {
  if (db != nullptr) db->Close().ok();
  db.reset();
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

double RunClosedLoop(Database* db, int clients, double seconds,
                     Gauges* gauges, const ClientFn& client,
                     const std::function<bool()>& done) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  const int64_t start = NowNanos();
  for (int i = 0; i < clients; ++i) {
    threads.emplace_back([&client, &stop, i] { client(i, stop); });
  }
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  for (int64_t next = start; NowNanos() < end && !(done && done());) {
    if (gauges != nullptr) gauges->Sample(db);
    AlternateTraceBlocks(NowNanos() - start);
    next += 10 * 1000 * 1000;
    const int64_t wait = std::min(next, end) - NowNanos();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
  }
  stop.store(true, std::memory_order_release);
  const double measured = static_cast<double>(NowNanos() - start) / 1e9;
  for (auto& t : threads) t.join();
  Tracer::Get().set_recording(true);
  return measured;
}

void ReportHeadline(const Samples& latency, uint64_t ok, double seconds,
                    const OverheadSamples& overhead, Report* report) {
  const size_t n = latency.count();
  report->Set("p50_ms", latency.Percentile(50), n);
  report->Set("p90_ms", latency.Supports(90) ? latency.Percentile(90) : 0, n);
  report->Set("bench.tail_ms", latency.Percentile(latency.TailPercentile()),
              n);
  report->Set("goodput_per_s",
              seconds > 0 ? static_cast<double>(ok) / seconds : 0, ok);
  if (Tracer::Get().armed() && overhead.untraced.Mean() > 0) {
    report->Set("bench.trace_overhead",
                overhead.traced.Mean() / overhead.untraced.Mean(),
                overhead.traced.count());
  }
}

void ReportWorkCounts(Database* db,
                      const std::function<bool(WorkCount*)>& pass,
                      Report* report) {
  const Database::ScanStats b = db->stats().scan;
  WorkCount count;
  report->Check("work-count pass answers", pass(&count));
  const Database::ScanStats a = db->stats().scan;
  const double examined = static_cast<double>(a.rows - b.rows);
  const double returned =
      static_cast<double>(std::max<int64_t>(count.rows_returned, 1));
  const double scans =
      static_cast<double>(std::max<uint64_t>(count.heap_scans, 1));
  const auto per = [](uint64_t num, double den) {
    return den > 0 ? static_cast<double>(num) / den : 0;
  };
  report->Set("query.rows_examined_per_row_returned", examined / returned);
  report->Set("query.prefilter_ratio",
              per(a.rows_prefiltered - b.rows_prefiltered, examined));
  report->Set("query.store_probes_per_row",
              per(a.store_probes_issued - b.store_probes_issued, examined));
  report->Set("util.morsels_per_scan",
              per(a.morsels_claimed - b.morsels_claimed, scans));
}

AuditReport Audits::Run(Database* db) {
  const int64_t start = NowNanos();
  AuditReport audit;
  {
    Span span("maintain.audit");
    audit = db->Audit();
  }
  ms.Add(NanosToMs(NowNanos() - start));
  ++runs;
  if (!audit.clean()) ++dirty;
  exposure_max = std::max(exposure_max, audit.max_exposure);
  exposed_values_max = std::max(exposed_values_max, audit.exposed_values);
  exposed_segments_max =
      std::max(exposed_segments_max, audit.exposed_wal_segments);
  return audit;
}

void Audits::ReportTo(Report* report) const {
  report->Set("maintain.audit_p50_ms", ms.Percentile(50), ms.count());
  report->Set("maintain.audit_dirty_ratio",
              static_cast<double>(dirty) /
                  static_cast<double>(std::max<uint64_t>(runs, 1)),
              runs);
  report->Set("maintain.exposed_values_max",
              static_cast<double>(exposed_values_max));
  report->Set("maintain.exposed_wal_segments_max",
              static_cast<double>(exposed_segments_max));
  std::printf("detail %-32s %.3f ms over %llu audits\n",
              "maintain.exposure_max",
              static_cast<double>(exposure_max) / 1e3,
              static_cast<unsigned long long>(runs));
}

void FinalAudit(Database* db, Report* report) {
  Audits audits;
  const AuditReport audit = audits.Run(db);
  report->Check("audit after the load is clean", audit.clean(),
                audit.ToString());
  report->Set("maintain.final_audit_clean", audit.clean() ? 1 : 0);
  audits.ReportTo(report);
}

Samples FromHistogram(const Histogram& histogram, double scale) {
  Samples samples;
  const size_t n = histogram.count();
  for (size_t i = 0; i < n; ++i) {
    // Histogram::Percentile(p) reads sorted sample round(p/100 * (n-1)).
    const double p = n > 1 ? 100.0 * static_cast<double>(i) /
                                 static_cast<double>(n - 1)
                           : 50;
    samples.Add(histogram.Percentile(p) * scale);
  }
  return samples;
}

void ReportFootprint(const std::string& db_dir, uint64_t live_rows,
                     Report* report) {
  const double rows = static_cast<double>(std::max<uint64_t>(live_rows, 1));
  const double rss_mb = PeakRssMb();
  report->Set("space_bytes_per_row",
              static_cast<double>(AllocatedBytes(db_dir)) / rows, live_rows);
  report->Set("rss_bytes_per_row", rss_mb * 1024 * 1024 / rows, live_rows);
  report->Set("bench.rss_peak_mb", rss_mb);
}

void FinishTrace(const Args& args, Report* report) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.armed()) return;
  std::error_code ec;
  std::filesystem::create_directories(args.out, ec);
  const std::string base = args.out + "/" + args.workload + "-seed" +
                           std::to_string(args.seed);
  const bool written = tracer.WriteChromeTrace(base + ".trace.json");
  report->Check("trace file written", written, base + ".trace.json");

  // Shares are taken over the load's spans: everything not under `setup`.
  const auto paths = tracer.SelfTimes();
  const auto in_setup = [](const std::string& path) {
    return path.rfind("setup", 0) == 0;
  };
  std::map<std::string, double> load_self;  // by layer (last path element)
  double load_total = 0;
  for (const auto& [path, layer] : paths) {
    if (in_setup(path)) continue;
    load_self[path.substr(path.rfind('/') + 1)] += layer.self_ms;
    load_total += layer.self_ms;
  }
  std::string table =
      StringPrintf("%-24s %10s %12s %12s %12s %8s\n", "span path", "count",
                   "total_ms", "self_ms", "self_mean_ms", "load%");
  for (const auto& [path, layer] : paths) {
    const double share = in_setup(path) || load_total <= 0
                             ? 0
                             : 100.0 * layer.self_ms / load_total;
    table += StringPrintf("%-24s %10llu %12.3f %12.3f %12.4f %7.1f%%\n",
                          path.c_str(),
                          static_cast<unsigned long long>(layer.count),
                          layer.total_ms, layer.self_ms,
                          layer.self_ms / static_cast<double>(layer.count),
                          share);
  }
  if (paths.count("setup")) {
    const Tracer::LayerTime& setup = paths.at("setup");
    report->Set("trace.setup_self_ms",
                setup.self_ms / static_cast<double>(setup.count),
                setup.count);
  }
  for (const auto& [layer, self_ms] : load_self) {
    report->Set("trace." + layer + "_self_share",
                load_total > 0 ? self_ms / load_total : 0);
  }
  table += StringPrintf("dropped spans: %llu\n",
                        static_cast<unsigned long long>(tracer.dropped()));
  std::printf("\nper-layer self time (%s.selftime.txt)\n%s\n", base.c_str(),
              table.c_str());
  FILE* file = std::fopen((base + ".selftime.txt").c_str(), "w");
  bool table_written = file != nullptr && std::fputs(table.c_str(), file) >= 0;
  if (file != nullptr) table_written = std::fclose(file) == 0 && table_written;
  report->Check("self-time table written", table_written);
}

}  // namespace perfbench
