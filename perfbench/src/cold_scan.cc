// cold_scan: full-table scans of a table about twelve times the engine's own
// cache. 24k rows of 2 KB (~50 MB) live in 8 partitions whose heap buffer
// pools hold 64 pages each (4 MB in total), and the OS page cache is evicted
// before every statement, so each scan reads the device: storage, io and the
// morsel scheduler's I/O overlap dominate. It runs the same scan paths as
// hot_query under the opposite cache regime. One closed-loop client
// alternates a 1% cursor drain and a COUNT(*) with a stable predicate; the
// eviction is not part of a statement's latency.

#include "trace.h"
#include "workloads.h"

namespace perfbench {

using namespace instantdb;

namespace {

constexpr size_t kRows = 24000;
constexpr size_t kPayloadBytes = 2048;
constexpr size_t kBuckets = 100;  // bucket = X selects 1%
constexpr size_t kBufferPoolPages = 64;
constexpr size_t kLoadBatch = 100;
constexpr int kSetups = 3;

struct Data {
  std::vector<std::string> payloads;  // distinct payloads, reused by row
  std::vector<int64_t> buckets;
  std::vector<uint32_t> leaves;
  std::vector<int64_t> rows_by_bucket;
};

Data Generate(uint64_t seed) {
  Data d;
  Random rng(seed);
  for (int i = 0; i < 64; ++i) {
    std::string payload(kPayloadBytes, 'a');
    for (char& c : payload) c = static_cast<char>('a' + rng.Uniform(26));
    d.payloads.push_back(std::move(payload));
  }
  d.rows_by_bucket.assign(kBuckets, 0);
  const size_t leaves = GetPlaces().addresses.size();
  for (size_t i = 0; i < kRows; ++i) {
    d.buckets.push_back(static_cast<int64_t>(rng.Uniform(kBuckets)));
    d.leaves.push_back(static_cast<uint32_t>(rng.Uniform(leaves)));
    ++d.rows_by_bucket[d.buckets.back()];
  }
  return d;
}

Schema EventSchema() {
  const AttributeLcp lcp =
      *AttributeLcp::Make({{0, kMicrosPerHour}, {1, kForever}});
  return *Schema::Make(
      {ColumnDef::Stable("id", ValueType::kInt64),
       ColumnDef::Stable("bucket", ValueType::kInt64),
       ColumnDef::Stable("payload", ValueType::kString),
       ColumnDef::Degradable("location", GetPlaces().domain, lcp)});
}

struct Statement {
  bool drain = false;
  std::string sql;
  int64_t rows = 0;  // expected rows (drain) or COUNT (count)
};

Statement MakeStatement(bool drain, Random* rng, const Data& data) {
  Statement st;
  st.drain = drain;
  if (drain) {
    const size_t bucket = rng->Uniform(kBuckets);
    st.sql = StringPrintf(
        "SELECT id, location FROM events WHERE bucket = %zu", bucket);
    st.rows = data.rows_by_bucket[bucket];
  } else {
    const size_t below = 1 + rng->Uniform(kBuckets);
    st.sql = StringPrintf(
        "SELECT COUNT(*) FROM events WHERE bucket < %zu", below);
    for (size_t b = 0; b < below; ++b) st.rows += data.rows_by_bucket[b];
  }
  return st;
}

/// Runs one statement; false (with `why`) on an error or a wrong answer.
bool Execute(Session* session, const Statement& st, std::string* why) {
  Span span("query");
  int64_t rows = -1;
  if (st.drain) {
    const auto drained = DrainCursor(session, st.sql);
    if (!drained.ok()) *why = drained.status().ToString();
    if (drained.ok()) rows = *drained;
  } else {
    const auto result = session->Execute(st.sql);
    if (!result.ok()) *why = result.status().ToString();
    if (result.ok()) rows = SingleInt(*result);
  }
  if (why->empty() && rows != st.rows) {
    *why = StringPrintf("answered %lld", static_cast<long long>(rows));
  }
  return rows == st.rows;
}

}  // namespace

void RunColdScan(const Args& args, Report* report) {
  ScratchDir scratch(args.dir, "cold_scan-s" + std::to_string(args.seed));
  report->Check("scratch directory", scratch.ok(), scratch.path());
  if (!scratch.ok()) return;
  const Places& places = GetPlaces();
  const Data data = Generate(args.seed);
  const Schema schema = EventSchema();

  auto fixture = MedianSetup<DbFixture>(
      kSetups,
      [&](int i) -> std::unique_ptr<DbFixture> {
        Span span("setup");
        auto f = std::make_unique<DbFixture>();
        f->clock = std::make_unique<VirtualClock>();
        f->path = scratch.path() + "/db" + std::to_string(i);
        DbOptions options = BaseOptions(f->path);
        options.clock = f->clock.get();
        options.storage.buffer_pool_pages = kBufferPoolPages;
        f->db = OpenOrReport(options, report);
        if (f->db == nullptr || !f->db->CreateTable("events", schema).ok()) {
          return nullptr;
        }
        for (size_t start = 0; start < kRows; start += kLoadBatch) {
          WriteBatch batch;
          for (size_t r = start; r < start + kLoadBatch; ++r) {
            const std::string& payload =
                data.payloads[r % data.payloads.size()];
            batch.Insert("events",
                         {Value::Int64(static_cast<int64_t>(r)),
                          Value::Int64(data.buckets[r]), Value::String(payload),
                          Value::String(places.addresses[data.leaves[r]])});
          }
          Span write("db.write");
          if (!f->db->Write(&batch).ok()) return nullptr;
        }
        if (!f->db->Checkpoint().ok()) return nullptr;
        return f;
      },
      report);
  report->Check("load the table", fixture != nullptr);
  if (fixture == nullptr) return;
  Database* db = fixture->db.get();
  const Table* table = db->GetTable("events");
  size_t plan_size = 0;
  for (const auto& queue : table->MorselPlan(0)) plan_size += queue.size();

  Samples latency;
  OverheadSamples overhead;
  uint64_t ok = 0, failed = 0, morsel_mismatches = 0;
  std::string first_error;
  double busy_seconds = 0;
  Gauges gauges;
  const Counters before = Snapshot(db);
  RunClosedLoop(
      db, 1, args.seconds, &gauges, [&](int, const std::atomic<bool>& stop) {
        Random rng(args.seed * 7919);
        Session session(db);
        for (uint64_t n = 0; !stop.load(std::memory_order_acquire); ++n) {
          const Statement st = MakeStatement(n % 2 == 0, &rng, data);
          EvictDirFromOsCache(fixture->path).ok();
          const uint64_t claimed = db->stats().scan.morsels_claimed;
          const bool recorded = Tracer::Get().recording();
          const int64_t start = NowNanos();
          std::string why;
          const bool answered = Execute(&session, st, &why);
          const double ms = NanosToMs(NowNanos() - start);
          busy_seconds += ms / 1e3;
          if (db->stats().scan.morsels_claimed - claimed != plan_size) {
            ++morsel_mismatches;
          }
          if (!answered) {
            ++failed;
            if (first_error.empty()) first_error = st.sql + ": " + why;
            continue;
          }
          ++ok;
          latency.Add(ms);
          overhead.Add(recorded, ms);
        }
      });
  const Counters work = Snapshot(db) - before;

  report->AddAttempted(ok + failed);
  report->AddFailed(failed);
  report->Check("every answer matches the generated data", failed == 0,
                first_error);
  report->Check(
      "each scan claims its whole morsel plan", morsel_mismatches == 0,
      StringPrintf("plan %zu morsels, %llu scans differed", plan_size,
                   static_cast<unsigned long long>(morsel_mismatches)));

  // Time spent evicting the page cache is not measured: rates are per second
  // of statement execution.
  ReportHeadline(latency, ok, busy_seconds, overhead, report);
  report->Detail("query.scan", latency);
  report->Set("query.scan_rows_per_s",
              static_cast<double>(work.scan_rows) / busy_seconds);
  ReportLayers(work, gauges, LayerInputs{busy_seconds, ok + failed, 0},
               report);
  ReportWorkCounts(
      db,
      [&](WorkCount* count) {
        Session session(db);
        Random rng(args.seed);
        bool answered = true;
        for (bool drain : {true, false}) {
          const Statement st = MakeStatement(drain, &rng, data);
          std::string why;
          answered = Execute(&session, st, &why) && answered;
          count->rows_returned += drain ? st.rows : 1;
          ++count->heap_scans;
        }
        return answered;
      },
      report);
  ReportFootprint(fixture->path, table->live_rows(), report);
  FinalAudit(db, report);
}

}  // namespace perfbench
