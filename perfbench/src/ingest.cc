// ingest: closed-loop durable ingest. Four writer threads each commit
// 16-row WriteBatches with WriteOptions{sync=true} as fast as the engine
// acknowledges them. Phase 0 of the LCP lasts an hour, so nothing degrades:
// the load goes through db, txn, wal, io and index maintenance plus the
// maintenance daemon's checkpoints, and bypasses query, util and degrade.
//
// Set-up opens the database and bulk-loads kPreloadRows, so writes land in
// a table that already holds data. The engine keeps roughly 250 B of memory
// per row, so a run is split into epochs: each ingests kEpochRows into a
// freshly set-up database, and epochs repeat until --seconds of ingest have
// been measured. That bounds memory, and a faster engine grows the same
// table sizes rather than a bigger table. Checking, closing and setting up
// between epochs is not timed.

#include "trace.h"
#include "workloads.h"

namespace perfbench {

using namespace instantdb;

namespace {

constexpr int kWriters = 4;
constexpr size_t kBatchRows = 16;
constexpr uint64_t kEpochRows = 1500000;
constexpr size_t kPreloadRows = 100000;
constexpr double kZipfTheta = 0.8;
constexpr int kSetups = 3;

struct WriterResult {
  Samples commit_ms;
  OverheadSamples overhead;
  uint64_t commits = 0;
  uint64_t failed = 0;
  uint64_t user_bytes = 0;
};

}  // namespace

void RunIngest(const Args& args, Report* report) {
  ScratchDir scratch(args.dir, "ingest-s" + std::to_string(args.seed));
  report->Check("scratch directory", scratch.ok(), scratch.path());
  if (!scratch.ok()) return;
  const Places& places = GetPlaces();
  const Schema schema =
      PingSchema(*AttributeLcp::Make({{0, kMicrosPerHour}, {1, kForever}}));

  auto open = [&](const std::string& name) -> std::unique_ptr<DbFixture> {
    auto f = std::make_unique<DbFixture>();
    f->path = scratch.path() + "/" + name;
    DbOptions options = BaseOptions(f->path);
    options.maintenance.enabled = true;
    f->db = OpenOrReport(options, report);
    if (f->db == nullptr) return nullptr;
    Status status = f->db->CreateTable("pings", schema).status();
    if (status.ok()) status = LoadPings(f->db.get(), kPreloadRows, args.seed);
    if (status.ok()) return f;
    report->Check("set up the table", false, status.ToString());
    return nullptr;
  };
  auto fixture = MedianSetup<DbFixture>(
      kSetups,
      [&](int i) {
        Span span("setup");
        return open("setup" + std::to_string(i));
      },
      report);

  std::vector<WriterResult> results(kWriters);
  Gauges gauges;
  Counters work;
  double seconds = 0;
  for (int epoch = 0; fixture != nullptr; ++epoch) {
    Database* db = fixture->db.get();
    std::atomic<uint64_t> epoch_commits{0};
    const auto writer = [&](int id, const std::atomic<bool>& stop) {
      WriterResult& out = results[id];
      const uint64_t stream =
          args.seed * 1000 + static_cast<uint64_t>(epoch * kWriters + id);
      Random rng(stream);
      ZipfGenerator zipf(places.addresses.size(), kZipfTheta, stream);
      WriteBatch batch;
      while (!stop.load(std::memory_order_acquire)) {
        batch.Clear();
        uint64_t bytes = 0;
        for (size_t r = 0; r < kBatchRows; ++r) {
          std::string user = "u" + std::to_string(rng.Uniform(1000000));
          const std::string& address = places.addresses[zipf.Next()];
          const auto score = static_cast<int64_t>(rng.Uniform(2000));
          bytes += PingBytes(user, address);
          batch.Insert("pings", {Value::String(std::move(user)),
                                 Value::Int64(score), Value::String(address)});
        }
        const bool recorded = Tracer::Get().recording();
        const int64_t start = NowNanos();
        Status status;
        {
          Span span("db.write");
          status = db->Write(&batch, WriteOptions{.sync = true});
        }
        const double ms = NanosToMs(NowNanos() - start);
        if (!status.ok()) {
          ++out.failed;
          continue;
        }
        epoch_commits.fetch_add(1, std::memory_order_relaxed);
        ++out.commits;
        out.user_bytes += bytes;
        out.commit_ms.Add(ms);
        out.overhead.Add(recorded, ms);
      }
    };
    const Counters before = Snapshot(db);
    seconds += RunClosedLoop(db, kWriters, args.seconds - seconds, &gauges,
                             writer, [&] {
                               return epoch_commits.load() * kBatchRows >=
                                      kEpochRows;
                             });
    work += Snapshot(db) - before;

    // Every acknowledged row is visible, and the group-commit ledger balances.
    const auto count = [&] {
      Session session(db);
      Span span("query");
      return session.Execute("SELECT COUNT(*) FROM pings");
    }();
    const int64_t acked =
        static_cast<int64_t>(kPreloadRows + epoch_commits * kBatchRows);
    const int64_t counted = count.ok() ? SingleInt(*count) : -1;
    report->Check(StringPrintf("epoch %d: COUNT(*) = loaded + acknowledged",
                               epoch),
                  counted == acked,
                  StringPrintf("%lld vs %lld", static_cast<long long>(counted),
                               static_cast<long long>(acked)));
    const WalManager::Stats wal = db->stats().wal;
    report->Check(
        StringPrintf("epoch %d: sync_requests = syncs + absorbed", epoch),
        wal.sync_requests == wal.syncs + wal.commits_absorbed,
        StringPrintf("%llu vs %llu + %llu",
                     static_cast<unsigned long long>(wal.sync_requests),
                     static_cast<unsigned long long>(wal.syncs),
                     static_cast<unsigned long long>(wal.commits_absorbed)));
    // The footprint is read when the first database is fullest, after a
    // checkpoint so the log holds only its active segments.
    if (epoch == 0) {
      report->Check("checkpoint", db->Checkpoint().ok());
      ReportFootprint(fixture->path, db->GetTable("pings")->live_rows(),
                      report);
    }
    if (seconds >= args.seconds - 0.01) {
      FinalAudit(db, report);
      break;
    }
    fixture.reset();
    fixture = open("epoch" + std::to_string(epoch + 1));
  }
  if (fixture == nullptr) return;

  WriterResult total;
  for (const WriterResult& r : results) {
    total.commit_ms.Merge(r.commit_ms);
    total.overhead.Merge(r.overhead);
    total.commits += r.commits;
    total.failed += r.failed;
    total.user_bytes += r.user_bytes;
  }
  report->AddAttempted(total.commits + total.failed);
  report->AddFailed(total.failed);
  ReportHeadline(total.commit_ms, total.commits, seconds, total.overhead,
                 report);
  report->Detail("db.commit", total.commit_ms);
  report->Set("db.ingest_rows_per_s",
              static_cast<double>(total.commits * kBatchRows) / seconds);
  ReportLayers(work, gauges, LayerInputs{seconds, 0, total.user_bytes},
               report);
}

}  // namespace perfbench
