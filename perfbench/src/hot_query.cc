// hot_query: read-only statements over a 200k-row table that fits in the
// default buffer pool. The table is loaded on a VirtualClock spread over two
// hours and aged so the older half sits at CITY accuracy, then the clock is
// frozen: nothing degrades and nothing is written while the load runs, so it
// exercises query, index, util (morsels and worker pool) and the state-store
// probes with every page cached, and never touches wal or degrade.
//
// Four closed-loop clients, each with a CITY purpose, run a seeded mix in
// exact proportions:
//   30% selective   SELECT user, location WHERE score = X   (~0.05%, cursor)
//   30% indexed     SELECT user WHERE location = '<city>'    (multires index)
//   13% count       SELECT COUNT(*)
//   13% agg         SELECT COUNT(*), SUM(score) WHERE location = '<city>'
//                   with indexes off (every row probes its location store)
//   14% drain       SELECT user, location WHERE score BETWEEN A AND A+199
//                   (10%, materialized)
// Every answer is compared with the value computed from the generated rows.

#include "trace.h"
#include "workloads.h"

namespace perfbench {

using namespace instantdb;

namespace {

constexpr size_t kRows = 200000;
constexpr size_t kLoadBatch = 500;
constexpr int64_t kScores = 2000;     // score = X selects ~0.05%
constexpr int64_t kDrainWidth = 200;  // score BETWEEN A AND A+199 is 10%
// Batches are inserted kLoadStep apart and the clock stops at kLoadSpan, so
// a phase 0 of half the span plus half a step degrades exactly the older
// half and keeps every deadline off the frozen clock's instant.
constexpr Micros kLoadSpan = 2 * kMicrosPerHour;
constexpr Micros kLoadStep =
    kLoadSpan / static_cast<Micros>(kRows / kLoadBatch);
constexpr Micros kPhase0 = kLoadSpan / 2 + kLoadStep / 2;
constexpr int kClients = 4;
constexpr int kSetups = 3;
constexpr double kWarmupSeconds = 1.0;

enum Kind { kSelective, kIndexed, kCount, kAgg, kDrain, kKinds };
const char* const kKindNames[kKinds] = {"query.selective", "index.lookup",
                                        "query.count", "query.agg_degradable",
                                        "query.drain"};

/// The generated table and every answer the statements can expect.
struct Data {
  std::vector<std::string> users;
  std::vector<int64_t> scores;
  std::vector<uint32_t> leaves;
  std::vector<int64_t> rows_by_score;  // index: score
  std::vector<int64_t> rows_by_city;   // index: city ordinal
  std::vector<int64_t> score_sum_by_city;

  int64_t RowsInScoreRange(int64_t lo, int64_t hi) const {
    int64_t n = 0;
    for (int64_t s = lo; s <= hi; ++s) n += rows_by_score[s];
    return n;
  }
};

Data Generate(uint64_t seed) {
  const Places& places = GetPlaces();
  Data d;
  Random rng(seed);
  ZipfGenerator zipf(places.addresses.size(), 0.8, seed);
  d.rows_by_score.assign(kScores, 0);
  d.rows_by_city.assign(places.cities.size(), 0);
  d.score_sum_by_city.assign(places.cities.size(), 0);
  for (size_t i = 0; i < kRows; ++i) {
    d.users.push_back("u" + std::to_string(rng.Uniform(kRows / 16)));
    d.scores.push_back(static_cast<int64_t>(rng.Uniform(kScores)));
    d.leaves.push_back(static_cast<uint32_t>(zipf.Next()));
    const size_t city = d.leaves.back() / Places::kAddressesPerCity;
    ++d.rows_by_score[d.scores.back()];
    ++d.rows_by_city[city];
    d.score_sum_by_city[city] += d.scores.back();
  }
  return d;
}

/// One statement of the mix, with the answer it must produce.
struct Statement {
  Kind kind;
  std::string sql;
  int64_t rows = 0;       // expected result rows (or COUNT)
  int64_t score_sum = 0;  // expected SUM(score) for kAgg
};

Statement MakeStatement(Kind kind, Random* rng, const Data& data) {
  const Places& places = GetPlaces();
  Statement st{kind, "", 0, 0};
  switch (kind) {
    case kSelective: {
      const int64_t x = static_cast<int64_t>(rng->Uniform(kScores));
      st.sql = StringPrintf(
          "SELECT user, location FROM pings WHERE score = %lld",
          static_cast<long long>(x));
      st.rows = data.rows_by_score[x];
      break;
    }
    case kIndexed:
    case kAgg: {
      const size_t city = rng->Uniform(places.cities.size());
      st.sql = (kind == kIndexed
                    ? "SELECT user FROM pings WHERE location = '"
                    : "SELECT COUNT(*), SUM(score) FROM pings WHERE location "
                      "= '") +
               places.cities[city] + "'";
      st.rows = data.rows_by_city[city];
      st.score_sum = data.score_sum_by_city[city];
      break;
    }
    case kCount:
      st.sql = "SELECT COUNT(*) FROM pings";
      st.rows = static_cast<int64_t>(kRows);
      break;
    case kDrain: {
      const int64_t lo =
          static_cast<int64_t>(rng->Uniform(kScores - kDrainWidth + 1));
      const int64_t hi = lo + kDrainWidth - 1;
      st.sql = StringPrintf(
          "SELECT user, location FROM pings WHERE score BETWEEN %lld AND %lld",
          static_cast<long long>(lo), static_cast<long long>(hi));
      st.rows = data.RowsInScoreRange(lo, hi);
      break;
    }
    default:
      break;
  }
  return st;
}

/// Deals statement kinds in the mix's exact proportions, reshuffled every
/// 100 statements: a run's share of each kind then does not vary with the
/// seed, and neither does its cost.
class Deck {
 public:
  explicit Deck(Random* rng) : rng_(rng) {
    const int shares[kKinds] = {30, 30, 13, 13, 14};
    for (int k = 0; k < kKinds; ++k) {
      cards_.insert(cards_.end(), shares[k], static_cast<Kind>(k));
    }
    next_ = cards_.size();
  }
  Kind Draw() {
    if (next_ == cards_.size()) {
      for (size_t i = cards_.size() - 1; i > 0; --i) {
        std::swap(cards_[i], cards_[rng_->Uniform(i + 1)]);
      }
      next_ = 0;
    }
    return cards_[next_++];
  }

 private:
  Random* rng_;
  std::vector<Kind> cards_;
  size_t next_ = 0;
};

/// Checks an aggregate's (COUNT(*), SUM(score)) row. SUM is a DOUBLE, exact
/// here since the sums stay far below 2^53, and may be NULL over no rows.
bool AggregateMatches(const QueryResult& result, const Statement& st) {
  if (result.rows.size() != 1 || result.rows[0].size() != 2) return false;
  const Value& count = result.rows[0][0];
  const Value& sum = result.rows[0][1];
  if (count.type() != ValueType::kInt64 || count.int64() != st.rows) {
    return false;
  }
  if (sum.is_null()) return st.rows == 0;
  return sum.type() == ValueType::kDouble &&
         sum.dbl() == static_cast<double>(st.score_sum);
}

/// Runs one statement; false (with `why`) on an error or a wrong answer.
bool Execute(Session* session, const Statement& st, std::string* why) {
  Span span("query");
  if (st.kind == kSelective) {
    const auto rows = DrainCursor(session, st.sql);
    if (!rows.ok()) *why = rows.status().ToString();
    return rows.ok() && *rows == st.rows;
  }
  session->set_use_indexes(st.kind != kAgg);
  const auto result = session->Execute(st.sql);
  if (!result.ok()) {
    *why = result.status().ToString();
    return false;
  }
  switch (st.kind) {
    case kCount:
      return SingleInt(*result) == st.rows;
    case kAgg:
      return AggregateMatches(*result, st);
    default:
      return static_cast<int64_t>(result->rows.size()) == st.rows;
  }
}

struct ClientResult {
  Samples by_kind[kKinds];
  OverheadSamples overhead;
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t heap_scans = 0;
  std::string first_error;
};

}  // namespace

void RunHotQuery(const Args& args, Report* report) {
  ScratchDir scratch(args.dir, "hot_query-s" + std::to_string(args.seed));
  report->Check("scratch directory", scratch.ok(), scratch.path());
  if (!scratch.ok()) return;
  const Places& places = GetPlaces();
  const Data data = Generate(args.seed);
  const Schema schema = PingSchema(*AttributeLcp::Make(
      {{0, kPhase0}, {1, kMicrosPerDay}, {2, kForever}}));

  uint64_t degraded = 0;
  auto fixture = MedianSetup<DbFixture>(
      kSetups,
      [&](int i) -> std::unique_ptr<DbFixture> {
        Span span("setup");
        auto f = std::make_unique<DbFixture>();
        f->clock = std::make_unique<VirtualClock>();
        f->path = scratch.path() + "/db" + std::to_string(i);
        DbOptions options = BaseOptions(f->path);
        options.clock = f->clock.get();
        f->db = OpenOrReport(options, report);
        if (f->db == nullptr || !f->db->CreateTable("pings", schema).ok()) {
          return nullptr;
        }
        for (size_t start = 0; start < kRows; start += kLoadBatch) {
          WriteBatch batch;
          for (size_t r = start; r < start + kLoadBatch; ++r) {
            const std::string& address = places.addresses[data.leaves[r]];
            batch.Insert("pings", {Value::String(data.users[r]),
                                   Value::Int64(data.scores[r]),
                                   Value::String(address)});
          }
          Span write("db.write");
          if (!f->db->Write(&batch).ok()) return nullptr;
          f->clock->Advance(kLoadStep);
        }
        const auto moved = f->db->RunDegradationOnce();
        degraded = moved.ok() ? *moved : 0;
        // The load ends durable, and the checkpoint retires the log segments
        // that still held the aged values accurately.
        if (!f->db->Checkpoint().ok()) return nullptr;
        return f;
      },
      report);
  report->Check("load and age the table", fixture != nullptr);
  if (fixture == nullptr) return;
  Database* db = fixture->db.get();
  report->Check("older half degraded to CITY", degraded == kRows / 2,
                std::to_string(degraded) + " values moved");

  std::vector<ClientResult> results(kClients);
  // The warm-up runs the same clients; only answers are checked.
  auto client = [&](bool measured) {
    return [&, measured](int id, const std::atomic<bool>& stop) {
      ClientResult& out = results[id];
      Random rng(args.seed * 7919 + static_cast<uint64_t>(id) +
                 (measured ? 100 : 0));
      Deck deck(&rng);
      Session session(db);
      const Status declared = DeclareCityPurpose(&session);
      while (!stop.load(std::memory_order_acquire)) {
        const Statement st = MakeStatement(deck.Draw(), &rng, data);
        const bool recorded = Tracer::Get().recording();
        const int64_t start = NowNanos();
        std::string why;
        const bool ok = declared.ok() && Execute(&session, st, &why);
        const double ms = NanosToMs(NowNanos() - start);
        if (!ok) {
          if (!declared.ok()) why = declared.ToString();
          ++out.failed;
          if (why.empty()) why = "wrong answer";
          if (out.first_error.empty()) out.first_error = st.sql + ": " + why;
          continue;
        }
        if (!measured) continue;
        ++out.ok;
        if (st.kind != kIndexed) ++out.heap_scans;
        out.by_kind[st.kind].Add(ms);
        out.overhead.Add(recorded, ms);
      }
    };
  };
  RunClosedLoop(db, kClients, kWarmupSeconds, nullptr, client(false));

  Gauges gauges;
  const Counters before = Snapshot(db);
  const double seconds =
      RunClosedLoop(db, kClients, args.seconds, &gauges, client(true));
  const Counters work = Snapshot(db) - before;

  ClientResult total;
  for (const ClientResult& r : results) {
    for (int k = 0; k < kKinds; ++k) total.by_kind[k].Merge(r.by_kind[k]);
    total.overhead.Merge(r.overhead);
    total.ok += r.ok;
    total.failed += r.failed;
    total.heap_scans += r.heap_scans;
    if (total.first_error.empty()) total.first_error = r.first_error;
  }
  report->AddAttempted(total.ok + total.failed);
  report->AddFailed(total.failed);
  report->Check("every answer matches the generated data", total.failed == 0,
                total.first_error);

  Samples all, reads, scans;
  for (int k = 0; k < kKinds; ++k) {
    all.Merge(total.by_kind[k]);
    (k == kSelective || k == kIndexed ? reads : scans).Merge(total.by_kind[k]);
    report->Detail(kKindNames[k], total.by_kind[k]);
  }
  report->Detail("query.read", reads);
  report->Detail("query.scan", scans);
  ReportHeadline(all, total.ok, seconds, total.overhead, report);
  report->Set("query.scan_rows_per_s",
              static_cast<double>(work.scan_rows) / seconds);
  ReportLayers(work, gauges, LayerInputs{seconds, total.heap_scans, 0},
               report);
  ReportWorkCounts(
      db,
      [&](WorkCount* count) {
        Session session(db);
        Random rng(args.seed);
        bool ok = DeclareCityPurpose(&session).ok();
        for (int k = 0; k < kKinds; ++k) {
          const Statement st =
              MakeStatement(static_cast<Kind>(k), &rng, data);
          std::string why;
          ok = Execute(&session, st, &why) && ok;
          count->rows_returned += k == kCount || k == kAgg ? 1 : st.rows;
          if (k != kIndexed) ++count->heap_scans;
        }
        return ok;
      },
      report);
  ReportFootprint(fixture->path, db->GetTable("pings")->live_rows(), report);
  FinalAudit(db, report);
}

}  // namespace perfbench
