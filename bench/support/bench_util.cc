#include "support/bench_util.h"

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "common/random.h"

namespace instantdb::bench {

namespace {

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StringPrintf("\\u%04x", c);
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string JsonStringArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += '"' + JsonEscape(items[i]) + '"';
  }
  out += ']';
  return out;
}

void FlushJsonAtExit() { JsonEmitter::Instance().Flush(); }

}  // namespace

JsonEmitter& JsonEmitter::Instance() {
  static JsonEmitter* emitter = [] {
    auto* e = new JsonEmitter();
    std::atexit(FlushJsonAtExit);
    return e;
  }();
  return *emitter;
}

void JsonEmitter::AddTable(const std::string& title,
                           const std::vector<std::string>& headers,
                           const std::vector<std::vector<std::string>>& rows) {
  std::string json = "{\"title\": \"" + JsonEscape(title) + "\", ";
  json += "\"headers\": " + JsonStringArray(headers) + ", \"rows\": [";
  for (size_t r = 0; r < rows.size(); ++r) {
    if (r > 0) json += ", ";
    json += JsonStringArray(rows[r]);
  }
  json += "]}";
  tables_.push_back(std::move(json));
}

void JsonEmitter::AddSeries(const std::string& name, double ops_per_sec,
                            const Histogram& latency_micros) {
  // A p99 needs at least 10 samples beyond it; over fewer samples it is
  // just the maximum, so it is left out and max_us speaks for the tail.
  constexpr size_t kMinTailSamples = 10;
  const size_t count = latency_micros.count();
  std::string p99;
  if (count / 100 >= kMinTailSamples) {
    p99 = StringPrintf("\"p99_us\": %.6g, ", latency_micros.Percentile(99));
  }
  series_.push_back(StringPrintf(
      "{\"name\": \"%s\", \"ops_per_sec\": %.6g, \"count\": %zu, "
      "\"p50_us\": %.6g, %s\"mean_us\": %.6g, \"max_us\": %.6g}",
      JsonEscape(name).c_str(), ops_per_sec, count,
      latency_micros.Percentile(50), p99.c_str(), latency_micros.mean(),
      latency_micros.max()));
}

void JsonEmitter::AddScalar(const std::string& name, double value) {
  scalars_.push_back(StringPrintf("{\"name\": \"%s\", \"value\": %.6g}",
                                  JsonEscape(name).c_str(), value));
}

void JsonEmitter::Flush() {
  if (tables_.empty() && series_.empty() && scalars_.empty()) return;
  const char* program = program_invocation_short_name;  // GNU
  const char* dir = std::getenv("BENCH_JSON_DIR");
  const std::string path = std::string(dir == nullptr ? "." : dir) + "/BENCH_" +
                           (program == nullptr ? "unknown" : program) + ".json";
  std::string json = "{\n  \"bench\": \"";
  json += JsonEscape(program == nullptr ? "unknown" : program);
  json += "\",\n  \"tables\": [\n    " + Join(tables_, ",\n    ");
  json += "\n  ],\n  \"series\": [\n    " + Join(series_, ",\n    ");
  json += "\n  ],\n  \"scalars\": [\n    " + Join(scalars_, ",\n    ");
  json += "\n  ]\n}\n";
  const Status status = WriteStringToFile(path, json, /*sync=*/false);
  if (!status.ok()) {
    std::fprintf(stderr, "BENCH json write failed: %s\n",
                 status.ToString().c_str());
  } else {
    std::printf("[machine-readable metrics written to %s]\n", path.c_str());
  }
}

TestDb OpenFreshDb(const std::string& name, VirtualClock* clock,
                   DbOptions base) {
  // One directory per process under $TMPDIR, removed at exit, so concurrent
  // runs of one bench never share a database.
  static const std::string* const root = [] {
    const char* tmp = std::getenv("TMPDIR");
    auto* dir = new std::string(
        StringPrintf("%s/instantdb_bench_%ld",
                     tmp != nullptr && *tmp != '\0' ? tmp : "/tmp",
                     static_cast<long>(getpid())));
    RemoveDirRecursive(*dir).ok();
    std::atexit([] { RemoveDirRecursive(*root).ok(); });
    return dir;
  }();
  TestDb out;
  out.path = *root + "/" + name;
  RemoveDirRecursive(out.path).ok();
  base.path = out.path;
  base.clock = clock;
  auto db = Database::Open(base);
  if (!db.ok()) {
    std::fprintf(stderr, "bench db open failed: %s\n",
                 db.status().ToString().c_str());
    std::abort();
  }
  out.db = std::move(*db);
  return out;
}

PingWorkload MakePingWorkload(const AttributeLcp& lcp, int fanout) {
  PingWorkload workload;
  workload.domain =
      SyntheticLocationDomain(fanout, fanout, fanout, fanout);
  const auto* tree =
      static_cast<const GeneralizationTree*>(workload.domain.get());
  workload.addresses = tree->LabelsAtLevel(0);
  auto schema = Schema::Make(
      {ColumnDef::Stable("user", ValueType::kString),
       ColumnDef::Degradable("location", workload.domain, lcp)});
  workload.schema = *schema;
  return workload;
}

std::vector<RowId> InsertPings(Database* db, VirtualClock* clock,
                               const PingWorkload& workload,
                               const std::string& table, size_t n,
                               Micros inter_arrival, double zipf_theta,
                               uint64_t seed) {
  ZipfGenerator zipf(workload.addresses.size(), zipf_theta, seed);
  Random rng(seed);
  std::vector<RowId> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const std::string& addr = workload.addresses[zipf.Next()];
    auto row = db->Insert(
        table, {Value::String(StringPrintf(
                    "user-%llu", static_cast<unsigned long long>(
                                     rng.Uniform(1 + n / 16)))),
                Value::String(addr)});
    if (row.ok()) rows.push_back(*row);
    if (inter_arrival > 0) clock->Advance(inter_arrival);
  }
  return rows;
}

size_t ForensicScan(const std::string& dir, const std::string& needle) {
  size_t hits = 0;
  auto names = ListDir(dir);
  if (!names.ok()) return 0;
  for (const auto& name : *names) {
    if (name == "CATALOG") continue;
    const std::string path = dir + "/" + name;
    auto contents = ReadFileToString(path);
    if (contents.ok()) {
      for (size_t pos = contents->find(needle); pos != std::string::npos;
           pos = contents->find(needle, pos + 1)) {
        ++hits;
      }
    } else {
      hits += ForensicScan(path, needle);
    }
  }
  return hits;
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void TablePrinter::Print(const std::string& title) const {
  JsonEmitter::Instance().AddTable(title, headers_, rows_);
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::printf("\n=== %s ===\n", title.c_str());
  for (size_t c = 0; c < headers_.size(); ++c) {
    std::printf("%-*s%s", static_cast<int>(widths[c]), headers_[c].c_str(),
                c + 1 == headers_.size() ? "\n" : " | ");
  }
  for (size_t c = 0; c < headers_.size(); ++c) {
    std::printf("%s%s", std::string(widths[c], '-').c_str(),
                c + 1 == headers_.size() ? "\n" : "-+-");
  }
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      std::printf("%-*s%s", static_cast<int>(widths[c]), row[c].c_str(),
                  c + 1 == row.size() ? "\n" : " | ");
    }
  }
}

std::string FormatDuration(Micros micros) {
  if (micros == kForever) return "forever";
  if (micros >= kMicrosPerDay) {
    return StringPrintf("%.3gd", static_cast<double>(micros) /
                                     static_cast<double>(kMicrosPerDay));
  }
  if (micros >= kMicrosPerHour) {
    return StringPrintf("%.3gh", static_cast<double>(micros) /
                                     static_cast<double>(kMicrosPerHour));
  }
  if (micros >= kMicrosPerMinute) {
    return StringPrintf("%.3gm", static_cast<double>(micros) /
                                     static_cast<double>(kMicrosPerMinute));
  }
  return StringPrintf("%.3gs", static_cast<double>(micros) /
                                   static_cast<double>(kMicrosPerSecond));
}

}  // namespace instantdb::bench
