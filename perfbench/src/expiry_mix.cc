// expiry_mix: the paper's workload. Values expire in waves while the engine
// serves reads and writes, and deletion is audited every second. Real time
// (SystemClock), the background degrader and the maintenance daemon with
// default options except audit_grace = 1 s. The LCP is ADDRESS 1 s -> CITY
// 2 s -> REGION 4 s -> removed, so every transition happens many times in a
// run. Set-up bulk-loads kPreloadRows, about the table's steady size; they
// expire during the kWarmupNanos the load runs before measurement starts
// (one LCP lifetime plus margin), by which time the table holds only rows
// the load inserted and has reached its steady size.
//
// Open loop at fixed rates (see OpenLoop for how requests are timed), every
// request submitted through the ServiceFrontEnd (the only workload that does):
//   ingest      16-row durable WriteBatches, kNormal, in waves of 1 s at
//               4,000 rows/s followed by 1 s idle ("Efficient Management of
//               Short-Lived Data": expiry arrives in bursts);
//   reads       100/s, kHigh, CITY purpose, indexed equality on a city;
//   aggregates  5/s, kLow, COUNT(*) with a degradable predicate (full scan).
// The main thread samples gauges every 10 ms and audits every second.

#include <thread>

#include "trace.h"
#include "workloads.h"

namespace perfbench {

using namespace instantdb;

namespace {

constexpr Micros kSecond = kMicrosPerSecond;
constexpr int64_t kNanosPerSecond = 1000000000;
constexpr size_t kBatchRows = 16;
constexpr uint64_t kBatchesPerWave = 4000 / kBatchRows;  // 4,000 rows/s
constexpr int64_t kWaveNanos = kNanosPerSecond;  // on for 1 s, off for 1 s
constexpr int64_t kReadsPerSecond = 100;
constexpr int64_t kAggregatesPerSecond = 5;
constexpr Micros kAuditGrace = kSecond;
constexpr int64_t kWarmupNanos = 10 * kNanosPerSecond;
constexpr size_t kPreloadRows = 16000;
constexpr int kSetups = 3;

/// One open-loop request class and what its measured requests did.
struct Stream {
  Samples latency;     // of successful requests, timed as OpenLoop says
  Samples admit_wait;  // Run() call -> callback start
  Samples late;        // actual send - scheduled send time
  OverheadSamples overhead;
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t rejected = 0;  // Overloaded / Timeout / Shutdown
  uint64_t retries = 0;   // resubmissions after Overloaded
  uint64_t user_bytes = 0;
  std::string first_error;
};

/// Sends request k at due(k) (nanoseconds) until `end`, never waiting for an
/// earlier request's schedule slot. Requests due before `measure_from` are
/// the warm-up: sent and checked for errors, but not measured.
///
/// A request is timed from its scheduled send time when the previous request
/// of its stream was still running then (the engine delayed it), and from
/// its actual send otherwise (any lateness is then the generator's own
/// wake-up, reported in bench.loadgen_late_share, not charged to the
/// engine). `prepare` draws request k's inputs once, so retries do not change
/// the seeded input sequence, and returns its user bytes. A request the
/// service sheds with Overloaded is retried after a doubling backoff, as a
/// client of the service layer is expected to; the wait is part of its
/// latency and only a request still shed after kMaxAttempts counts as
/// rejected.
void OpenLoop(int64_t measure_from, int64_t end,
              const std::function<int64_t(uint64_t)>& due,
              const std::function<uint64_t()>& prepare,
              const std::function<Status(int64_t*)>& send, Stream* out) {
  constexpr int kMaxAttempts = 8;
  constexpr int64_t kFirstBackoffNanos = 5 * 1000 * 1000;
  int64_t previous_done = 0;
  for (uint64_t k = 0;; ++k) {
    const int64_t scheduled = due(k);
    if (scheduled >= end) return;
    const uint64_t bytes = prepare();
    const int64_t wait = scheduled - NowNanos();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
    const bool recorded = Tracer::Get().recording();
    const int64_t sent = NowNanos();
    int64_t admitted = sent;
    Status status = send(&admitted);
    uint64_t retries = 0;
    for (int attempt = 1; status.IsOverloaded() && attempt < kMaxAttempts;
         ++attempt) {
      ++retries;
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(kFirstBackoffNanos << (attempt - 1)));
      status = send(&admitted);
    }
    const int64_t done = NowNanos();
    const int64_t origin = previous_done > scheduled ? scheduled : sent;
    previous_done = done;
    const bool refused =
        status.IsOverloaded() || status.IsTimeout() || status.IsShutdown();
    if (!status.ok() && !refused) {
      ++out->failed;
      if (out->first_error.empty()) out->first_error = status.ToString();
    }
    if (scheduled < measure_from) continue;
    out->late.Add(NanosToMs(sent - scheduled));
    out->admit_wait.Add(NanosToMs(admitted - sent));
    out->retries += retries;
    if (status.ok()) {
      const double ms = NanosToMs(done - origin);
      ++out->ok;
      out->user_bytes += bytes;
      out->latency.Add(ms);
      out->overhead.Add(recorded, ms);
    } else if (refused) {
      ++out->rejected;
    }
  }
}

}  // namespace

void RunExpiryMix(const Args& args, Report* report) {
  ScratchDir scratch(args.dir, "expiry_mix-s" + std::to_string(args.seed));
  report->Check("scratch directory", scratch.ok(), scratch.path());
  if (!scratch.ok()) return;
  const Places& places = GetPlaces();
  const Schema schema = PingSchema(*AttributeLcp::Make(
      {{0, 1 * kSecond}, {1, 2 * kSecond}, {2, 4 * kSecond}}));

  auto fixture = MedianSetup<DbFixture>(
      kSetups,
      [&](int i) -> std::unique_ptr<DbFixture> {
        Span span("setup");
        auto f = std::make_unique<DbFixture>();
        f->path = scratch.path() + "/db" + std::to_string(i);
        DbOptions options = BaseOptions(f->path);
        options.degradation.background_thread = true;
        options.maintenance.enabled = true;
        options.maintenance.audit_grace = kAuditGrace;
        f->db = OpenOrReport(options, report);
        if (f->db == nullptr || !f->db->CreateTable("pings", schema).ok() ||
            !LoadPings(f->db.get(), kPreloadRows, args.seed).ok()) {
          return nullptr;
        }
        return f;
      },
      report);
  report->Check("set up the table", fixture != nullptr);
  if (fixture == nullptr) return;
  Database* db = fixture->db.get();
  ServiceFrontEnd service(db);

  Stream ingest, reads, aggregates;
  const int64_t load_start = NowNanos() + 10 * 1000 * 1000;  // sends in 10 ms
  const int64_t start = load_start + kWarmupNanos;
  const int64_t end = start + args.seconds * kNanosPerSecond;

  std::vector<std::thread> clients;
  clients.emplace_back([&] {
    Session session(db);
    Random rng(args.seed * 31 + 1);
    ZipfGenerator zipf(places.addresses.size(), 0.8, args.seed * 31 + 1);
    const int64_t gap = kWaveNanos / static_cast<int64_t>(kBatchesPerWave);
    WriteBatch batch;
    OpenLoop(
        start, end,
        [&](uint64_t k) {
          const auto wave = static_cast<int64_t>(k / kBatchesPerWave);
          const auto slot = static_cast<int64_t>(k % kBatchesPerWave);
          return load_start + wave * 2 * kWaveNanos + slot * gap;
        },
        [&] {
          batch.Clear();
          uint64_t bytes = 0;
          for (size_t r = 0; r < kBatchRows; ++r) {
            std::string user = "u" + std::to_string(rng.Uniform(1000000));
            const std::string& address = places.addresses[zipf.Next()];
            const auto score = static_cast<int64_t>(rng.Uniform(2000));
            bytes += PingBytes(user, address);
            batch.Insert("pings", {Value::String(std::move(user)),
                                   Value::Int64(score),
                                   Value::String(address)});
          }
          return bytes;
        },
        [&](int64_t* admitted) {
          Span span("service");
          return service.Run(&session, ServiceClass::kNormal,
                             /*is_write=*/true, [&](Session*) {
                               *admitted = NowNanos();
                               Span write("db.write");
                               return db->Write(&batch,
                                                WriteOptions{.sync = true});
                             });
        },
        &ingest);
  });
  auto query_client = [&](int64_t per_second, ServiceClass cls,
                          bool aggregate, uint64_t stream, Stream* out) {
    clients.emplace_back([&, per_second, cls, aggregate, stream, out] {
      Session session(db);
      const Status declared = DeclareCityPurpose(&session);
      session.set_use_indexes(!aggregate);
      ZipfGenerator zipf(places.addresses.size(), 0.8,
                         args.seed * 31 + stream);
      const char* const select =
          aggregate ? "SELECT COUNT(*) FROM pings WHERE location = '"
                    : "SELECT user, location FROM pings WHERE location = '";
      std::string sql;
      OpenLoop(
          start, end,
          [&](uint64_t k) {
            return load_start +
                   static_cast<int64_t>(k) * kNanosPerSecond / per_second;
          },
          [&] {
            const size_t city = zipf.Next() / Places::kAddressesPerCity;
            sql = select + places.cities[city] + "'";
            return uint64_t{0};
          },
          [&](int64_t* admitted) {
            if (!declared.ok()) return declared;
            Span span("service");
            return service.Run(&session, cls, /*is_write=*/false,
                               [&](Session* s) {
                                 *admitted = NowNanos();
                                 Span query("query");
                                 return s->Execute(sql).status();
                               });
          },
          out);
    });
  };
  query_client(kReadsPerSecond, ServiceClass::kHigh, false, 2, &reads);
  query_client(kAggregatesPerSecond, ServiceClass::kLow, true, 3,
               &aggregates);

  // Main thread: an audit every second from the first send (a failed audit's
  // repair request is part of what drives the degrader, so the warm-up
  // audits too), the recorded/unrecorded blocks of a traced run, and once
  // the warm-up is over, gauges every 10 ms. Only measured audits count.
  Gauges gauges;
  Audits audits, warmup_audits;
  Counters before;
  bool measuring = false;
  int64_t next_audit = load_start + kNanosPerSecond;
  for (int64_t next = load_start; NowNanos() < end;) {
    const int64_t now = NowNanos();
    AlternateTraceBlocks(now - load_start);
    if (now >= start) {
      if (!measuring) before = Snapshot(db);
      measuring = true;
      gauges.Sample(db);
    }
    if (now >= next_audit) {
      next_audit += kNanosPerSecond;
      (measuring ? audits : warmup_audits).Run(db);
    }
    next += 10 * 1000 * 1000;
    const int64_t wait = std::min(next, end) - NowNanos();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
  }
  for (auto& t : clients) t.join();
  Tracer::Get().set_recording(true);
  const double seconds = static_cast<double>(NowNanos() - start) / 1e9;
  const Counters work = Snapshot(db) - before;
  const Histogram lag_us = db->GetTable("pings")->lateness_histogram();
  ReportFootprint(fixture->path, db->GetTable("pings")->live_rows(), report);

  const Stream* streams[] = {&ingest, &reads, &aggregates};
  const char* const names[] = {"service.commit", "service.read",
                               "service.scan"};
  uint64_t ok = 0, failed = 0, rejected = 0, retries = 0;
  Samples admit_wait, late;
  OverheadSamples overhead;
  std::string first_error;
  for (int i = 0; i < 3; ++i) {
    const Stream& s = *streams[i];
    report->Detail(names[i], s.latency);
    ok += s.ok;
    failed += s.failed;
    rejected += s.rejected;
    retries += s.retries;
    admit_wait.Merge(s.admit_wait);
    late.Merge(s.late);
    overhead.Merge(s.overhead);
    if (first_error.empty()) first_error = s.first_error;
  }
  report->Detail("service.admit_wait", admit_wait);
  report->Detail("bench.loadgen_late", late);
  const uint64_t attempted = ok + failed + rejected;
  report->AddAttempted(attempted);
  report->AddFailed(failed + rejected);
  report->Check("no request failed", failed == 0, first_error);
  // The service front end was attached just before the load, so its
  // counters cover the whole load, warm-up included.
  const Database::ServiceStats svc = db->stats().service;
  report->Check("admitted + rejected == submitted",
                svc.admitted + svc.rejected_overload + svc.rejected_shutdown +
                        svc.rejected_deadline ==
                    svc.submitted,
                StringPrintf("submitted %llu",
                             static_cast<unsigned long long>(svc.submitted)));
  report->Check("degradation ran", lag_us.count() > 0);

  // The headline latency is that of the kHigh reads, the users of this mix.
  // Degradation lateness (how long past its LCP deadline each value was
  // coarsened or removed, warm-up included) is a detail plus the share of
  // values more than 100 ms late: its median is thread wake-up time and its
  // tail moves by whole passes, too noisy to bound.
  ReportHeadline(reads.latency, ok, seconds, overhead, report);
  const Samples lag_ms = FromHistogram(lag_us, 1e-3);
  report->Detail("degrade.lag", lag_ms);
  report->Set("degrade.late_share", lag_ms.ShareAbove(100), lag_ms.count());
  report->Set("bench.loadgen_late_share", late.ShareAbove(1), late.count());
  report->Set("service.retry_ratio",
              static_cast<double>(retries) /
                  static_cast<double>(std::max<uint64_t>(attempted, 1)));
  const double submitted =
      static_cast<double>(std::max<uint64_t>(svc.submitted, 1));
  report->Set("service.reject_ratio",
              static_cast<double>(svc.rejected_overload +
                                  svc.rejected_deadline +
                                  svc.rejected_shutdown) /
                  submitted);
  report->Set("service.queued_ratio",
              static_cast<double>(svc.queued) / submitted);
  report->Set("db.ingest_rows_per_s",
              static_cast<double>(ingest.ok * kBatchRows) / seconds);
  audits.ReportTo(report);
  ReportLayers(work, gauges,
               LayerInputs{seconds, aggregates.ok + aggregates.failed,
                           ingest.user_bytes},
               report);

  // After the load stops, wait two seconds plus the audit grace and audit
  // once more. Reported, not asserted: with default maintenance options a
  // live WAL segment can still hold an overdue payload.
  std::this_thread::sleep_for(
      std::chrono::microseconds(2 * kSecond + kAuditGrace));
  const AuditReport final_audit = Audits().Run(db);
  std::printf("final audit: %s\n", final_audit.ToString().c_str());
  report->Set("maintain.final_audit_clean", final_audit.clean() ? 1 : 0);
}

}  // namespace perfbench
