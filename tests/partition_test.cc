#include <algorithm>
#include <functional>
#include <map>
#include <set>

#include "catalog/builtin_domains.h"
#include "common/random.h"
#include "common/strings.h"
#include "db/database.h"
#include "db/row_map.h"
#include "degradable_mix.h"
#include "gtest/gtest.h"
#include "scan_oracle.h"
#include "util/file.h"

namespace instantdb {
namespace {

Schema PingSchema() {
  return *Schema::Make(
      {ColumnDef::Stable("user", ValueType::kString),
       ColumnDef::Degradable("location", LocationDomain(), Fig2LocationLcp())});
}

/// Partitioned-table behavior, with the degradation worker
/// pool enabled: routing, scans, recovery and scheduling must be
/// indistinguishable from the single-partition engine (modulo speed).
class PartitionTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kPartitions = 4;

  void SetUp() override {
    dir_ = ::testing::TempDir() + "/idb_partition_test";
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
    clock_ = std::make_unique<VirtualClock>(0);
    ReopenDb(kPartitions);
  }
  void TearDown() override {
    db_.reset();
    RemoveDirRecursive(dir_).ok();
  }

  void ReopenDb(uint32_t partitions) {
    db_.reset();
    DbOptions options;
    options.path = dir_;
    options.clock = clock_.get();
    options.partitions = partitions;
    options.degradation.worker_threads = 4;
    options.storage.segment_bytes = 512;
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
  }

  RowId InsertPing(const std::string& user, const std::string& address) {
    auto row_id =
        db_->Insert("pings", {Value::String(user), Value::String(address)});
    EXPECT_TRUE(row_id.ok()) << row_id.status().ToString();
    return row_id.ok() ? *row_id : kInvalidRowId;
  }

  Value LocationOf(RowId row_id) {
    auto row = oracle::StoredRow(*db_->GetTable("pings"), row_id);
    EXPECT_TRUE(row.ok());
    if (!row.ok() || !row->has_value()) return Value::Null();
    return (*row)->values[1];
  }

  std::string dir_;
  std::unique_ptr<VirtualClock> clock_;
  std::unique_ptr<Database> db_;
};

TEST_F(PartitionTest, RowsRouteDeterministicallyToAllPartitions) {
  ASSERT_TRUE(db_->CreateTable("pings", PingSchema()).ok());
  Table* table = db_->GetTable("pings");
  ASSERT_EQ(table->num_partitions(), kPartitions);

  std::vector<RowId> rows;
  for (int i = 0; i < 40; ++i) {
    rows.push_back(InsertPing("u" + std::to_string(i), "11 Rue Lepic"));
  }
  EXPECT_EQ(table->live_rows(), 40u);
  // Sequential row ids round-robin over partitions, so every partition owns
  // exactly a quarter of the rows.
  for (uint32_t p = 0; p < kPartitions; ++p) {
    EXPECT_EQ(table->partition(p)->live_rows(), 10u) << "partition " << p;
  }
  for (RowId row : rows) {
    EXPECT_EQ(table->PartitionOf(row), row % kPartitions);
    auto view = oracle::StoredRow(*table, row);
    ASSERT_TRUE(view.ok());
    EXPECT_TRUE(view->has_value());
  }
}

TEST_F(PartitionTest, WorkerPoolDegradesEveryPartitionOnSchedule) {
  ASSERT_TRUE(db_->CreateTable("pings", PingSchema()).ok());
  std::vector<RowId> rows;
  for (int i = 0; i < 100; ++i) {
    rows.push_back(InsertPing("u" + std::to_string(i), "11 Rue Lepic"));
  }
  clock_->Advance(kMicrosPerHour);
  auto moved = db_->RunDegradationOnce();
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  EXPECT_EQ(*moved, 100u);
  for (RowId row : rows) {
    EXPECT_EQ(LocationOf(row), Value::String("Paris"));
  }
  // Aggregated table stats reflect every partition's steps.
  const auto stats = db_->GetTable("pings")->stats();
  EXPECT_EQ(stats.values_degraded, 100u);
  EXPECT_GE(stats.degrade_steps, kPartitions);  // at least one per partition
  EXPECT_EQ(db_->GetTable("pings")->lateness_histogram().count(), 100u);
}

TEST_F(PartitionTest, EngineCountsPassesOnlyWhenWorkWasDue) {
  ASSERT_TRUE(db_->CreateTable("pings", PingSchema()).ok());
  ASSERT_TRUE(db_->RunDegradationOnce().ok());  // nothing due: not a pass
  EXPECT_EQ(db_->degradation()->stats().passes, 0u);
  InsertPing("a", "11 Rue Lepic");
  ASSERT_TRUE(db_->RunDegradationOnce().ok());  // still before the deadline
  EXPECT_EQ(db_->degradation()->stats().passes, 0u);
  clock_->Advance(kMicrosPerHour);
  ASSERT_TRUE(db_->RunDegradationOnce().ok());
  const auto stats = db_->degradation()->stats();
  EXPECT_EQ(stats.passes, 1u);
  EXPECT_EQ(stats.values_moved, 1u);
}

TEST_F(PartitionTest, RecoveryRoutesRedoToOwningPartition) {
  ASSERT_TRUE(db_->CreateTable("pings", PingSchema()).ok());
  std::vector<RowId> rows;
  for (int i = 0; i < 20; ++i) {
    rows.push_back(InsertPing("u" + std::to_string(i), "11 Rue Lepic"));
  }
  clock_->Advance(kMicrosPerHour);
  ASSERT_TRUE(db_->RunDegradationOnce().ok());
  // Post-degradation inserts land in the WAL after the degrade steps.
  const RowId fresh = InsertPing("fresh", "4 Rue Breteuil");
  const RowId gone = InsertPing("gone", "3 Av Foch");
  ASSERT_TRUE(db_->Delete("pings", gone).ok());

  ReopenDb(kPartitions);
  Table* table = db_->GetTable("pings");
  ASSERT_EQ(table->num_partitions(), kPartitions);
  EXPECT_EQ(table->live_rows(), 21u);
  for (RowId row : rows) {
    EXPECT_EQ(LocationOf(row), Value::String("Paris"));
  }
  EXPECT_EQ(LocationOf(fresh), Value::String("4 Rue Breteuil"));
  EXPECT_TRUE(LocationOf(gone).is_null());
  // New row ids continue above every live row (ids of rows deleted before
  // the shutdown checkpoint may be reused; they collide with nothing).
  const RowId next = InsertPing("next", "8 Cours Mirabeau");
  EXPECT_GT(next, fresh);
  EXPECT_EQ(LocationOf(next), Value::String("8 Cours Mirabeau"));

  // Degradation continues on schedule after recovery.
  clock_->Advance(kMicrosPerDay);
  ASSERT_TRUE(db_->RunDegradationOnce().ok());
  EXPECT_EQ(LocationOf(rows[0]), Value::String("Ile-de-France"));
  EXPECT_EQ(LocationOf(fresh), Value::String("Marseille"));
}

TEST_F(PartitionTest, IndexLookupsGroupRowIdsByPartition) {
  ASSERT_TRUE(db_->CreateTable("pings", PingSchema()).ok());
  for (int i = 0; i < 12; ++i) {
    InsertPing("p" + std::to_string(i),
               i % 2 == 0 ? "11 Rue Lepic" : "4 Rue Breteuil");
  }
  clock_->Advance(kMicrosPerHour);
  ASSERT_TRUE(db_->RunDegradationOnce().ok());

  Table* table = db_->GetTable("pings");
  const int col = table->schema().FindColumn("location");
  // Every partition's ids come back in its own ascending group.
  auto probe = [&](const char* value, int level) {
    std::vector<std::vector<RowId>> rids;
    EXPECT_TRUE(
        table->IndexLookupEqual(col, Value::String(value), level, &rids).ok());
    EXPECT_EQ(rids.size(), table->num_partitions());
    size_t total = 0;
    for (uint32_t p = 0; p < rids.size(); ++p) {
      EXPECT_TRUE(std::is_sorted(rids[p].begin(), rids[p].end()));
      for (RowId id : rids[p]) EXPECT_EQ(table->PartitionOf(id), p);
      total += rids[p].size();
    }
    return total;
  };
  EXPECT_EQ(probe("Paris", 1), 6u);
  EXPECT_EQ(probe("France", 3), 12u);
}

TEST_F(PartitionTest, PartitionCountPersistsAcrossMismatchedReopen) {
  ASSERT_TRUE(db_->CreateTable("pings", PingSchema()).ok());
  std::vector<RowId> rows;
  for (int i = 0; i < 16; ++i) {
    rows.push_back(InsertPing("u" + std::to_string(i), "12 Rue Royale"));
  }
  // Reopening with a different DbOptions::partitions must not re-route
  // recovered rows: the on-disk count wins.
  ReopenDb(/*partitions=*/2);
  Table* table = db_->GetTable("pings");
  EXPECT_EQ(table->num_partitions(), kPartitions);
  EXPECT_EQ(table->live_rows(), 16u);
  for (RowId row : rows) {
    EXPECT_EQ(LocationOf(row), Value::String("12 Rue Royale"));
  }
}

/// PARTITIONS lost: the count is recovered from contiguous `p<k>`
/// directories, whatever DbOptions::partitions says on the reopen. A single
/// partition lives in `p0` too.
TEST_F(PartitionTest, LostPartitionCountIsRecoveredFromContiguousDirs) {
  for (const uint32_t created : {kPartitions, 1u}) {
    SCOPED_TRACE(created);
    db_.reset();
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
    ReopenDb(created);
    ASSERT_TRUE(db_->CreateTable("pings", PingSchema()).ok());
    std::vector<RowId> rows;
    for (int i = 0; i < 8; ++i) {
      rows.push_back(InsertPing("u" + std::to_string(i), "11 Rue Lepic"));
    }
    db_.reset();  // clean close (checkpoints)
    EXPECT_TRUE(FileExists(dir_ + "/tables/t1/p0/heap.db"));
    EXPECT_FALSE(FileExists(dir_ + "/tables/t1/heap.db"));
    EXPECT_EQ(FileExists(dir_ + "/tables/t1/p1"), created > 1);
    ASSERT_TRUE(RemoveFile(dir_ + "/tables/t1/PARTITIONS").ok());

    ASSERT_NO_FATAL_FAILURE(ReopenDb(created == 1 ? kPartitions : 2));
    Table* table = db_->GetTable("pings");
    EXPECT_EQ(table->num_partitions(), created);
    EXPECT_EQ(table->live_rows(), 8u);
    for (RowId row : rows) {
      EXPECT_EQ(LocationOf(row), Value::String("11 Rue Lepic"));
    }
  }
}

TEST_F(PartitionTest, LostPartitionCountWithAGapIsCorruption) {
  ASSERT_TRUE(db_->CreateTable("pings", PingSchema()).ok());
  for (int i = 0; i < 8; ++i) {
    InsertPing("u" + std::to_string(i), "11 Rue Lepic");
  }
  db_.reset();
  ASSERT_TRUE(RemoveFile(dir_ + "/tables/t1/PARTITIONS").ok());
  ASSERT_TRUE(RemoveDirRecursive(dir_ + "/tables/t1/p1").ok());
  ASSERT_TRUE(RemoveDirRecursive(dir_ + "/tables/t1/p3").ok());

  DbOptions options;
  options.path = dir_;
  options.clock = clock_.get();
  options.partitions = kPartitions;
  auto db = Database::Open(options);
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsCorruption()) << db.status().ToString();
}

TEST_F(PartitionTest, DropTableRemovesEveryPartition) {
  ASSERT_TRUE(db_->CreateTable("pings", PingSchema()).ok());
  InsertPing("a", "11 Rue Lepic");
  ASSERT_TRUE(db_->DropTable("pings").ok());
  EXPECT_EQ(db_->GetTable("pings"), nullptr);
  ASSERT_TRUE(db_->CreateTable("pings", PingSchema()).ok());
  EXPECT_EQ(db_->GetTable("pings")->live_rows(), 0u);
  EXPECT_EQ(db_->GetTable("pings")->num_partitions(), kPartitions);
}

// --- Row map ------------------------------------------------------------------

/// `map` agrees with `oracle` on its size, on Find for every id up to
/// `max_id`, and on Seek over the same ids in ascending order, dense when
/// `stride` is 1 and with gaps otherwise.
void ExpectRowMapMatches(const RowMap& map, const std::map<RowId, Rid>& oracle,
                         RowId max_id, RowId stride) {
  ASSERT_EQ(map.size(), oracle.size());
  EXPECT_GE(map.bytes(), oracle.size() * (sizeof(RowId) + sizeof(Rid)));
  size_t cursor = 0;
  for (RowId id = 0; id <= max_id; id += stride) {
    const auto it = oracle.find(id);
    const Rid* found = map.Find(id);
    const Rid* sought = map.Seek(id, &cursor);
    if (it == oracle.end()) {
      ASSERT_EQ(found, nullptr) << "id " << id;
      ASSERT_EQ(sought, nullptr) << "id " << id;
    } else {
      ASSERT_NE(found, nullptr) << "id " << id;
      ASSERT_EQ(*found, it->second) << "id " << id;
      ASSERT_EQ(sought, found) << "id " << id;
    }
  }
}

// Seeded appends, out-of-order inserts, duplicate inserts, head pops and
// middle erases against a std::map, then a rebuild from shuffled pairs.
TEST(RowMapTest, MatchesAnOrderedMapUnderRandomOperations) {
  Random rng(17);
  RowMap map;
  std::map<RowId, Rid> oracle;
  RowId next = 1;
  const auto rid_of = [](RowId id) {
    return Rid{static_cast<PageId>(id / 7), static_cast<uint16_t>(id % 7)};
  };
  for (int op = 0; op < 30000; ++op) {
    const uint64_t kind = rng.Uniform(10);
    if (kind < 4) {  // append at the tail
      ASSERT_TRUE(map.Insert(next, rid_of(next)));
      oracle[next] = rid_of(next);
      ++next;
    } else if (kind < 6) {  // an out-of-order commit, or a duplicate
      if (next == 1) continue;
      const RowId id = next - 1 - rng.Uniform(std::min<RowId>(next - 1, 40));
      const bool absent = oracle.count(id) == 0;
      ASSERT_EQ(map.Insert(id, rid_of(id)), absent) << "id " << id;
      oracle[id] = rid_of(id);
    } else if (kind < 9) {  // FIFO expiry pops the head
      if (oracle.empty()) continue;
      ASSERT_TRUE(map.Erase(oracle.begin()->first));
      oracle.erase(oracle.begin());
    } else {  // a user delete anywhere
      const RowId id = rng.Uniform(next);
      ASSERT_EQ(map.Erase(id), oracle.erase(id) == 1) << "id " << id;
    }
    if (op % 1000 == 999) {
      ASSERT_NO_FATAL_FAILURE(ExpectRowMapMatches(map, oracle, next, 1));
      ASSERT_NO_FATAL_FAILURE(
          ExpectRowMapMatches(map, oracle, next, 1 + rng.Uniform(50)));
    }
  }
  ASSERT_GT(oracle.size(), 100u);

  // A heap scan hands the pairs over in page order; Assign sorts them, and
  // of two pairs for one id the later wins.
  std::vector<std::pair<RowId, Rid>> pairs(oracle.begin(), oracle.end());
  for (size_t i = pairs.size(); i > 1; --i) {
    std::swap(pairs[i - 1], pairs[rng.Uniform(i)]);
  }
  const RowId dup = pairs.front().first;
  pairs.insert(pairs.begin(), {dup, Rid{999999, 1}});
  map.Assign(pairs);
  ASSERT_NO_FATAL_FAILURE(ExpectRowMapMatches(map, oracle, next, 1));

  // Draining the head gives every byte back.
  while (!oracle.empty()) {
    ASSERT_TRUE(map.Erase(oracle.begin()->first));
    oracle.erase(oracle.begin());
  }
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.bytes(), 0u);
}

// The partition's row map against an ordered-map oracle, through
// Table::Apply: out-of-order applies, a duplicate insert as redo replays
// it, middle deletes, head pops past the compaction point, inserts that
// reuse the freed heap space, and a reopen from that heap, whose page order
// is no longer row-id order.
TEST_F(PartitionTest, RowMapMatchesAnOracleThroughApplyAndReopen) {
  ASSERT_TRUE(db_->CreateTable("pings", PingSchema()).ok());
  std::map<RowId, std::string> oracle;
  // Partition 0 owns the ids that are multiples of kPartitions.
  const auto apply = [&](uint64_t k, const std::string& user) {
    WalRecord record;
    record.type = WalRecordType::kInsert;
    record.table = db_->GetTable("pings")->id();
    record.row_id = k * kPartitions;
    record.insert_time = clock_->NowMicros();
    record.stable = {Value::String(user)};
    record.degradable = {Value::String("11 Rue Lepic")};
    ASSERT_TRUE(db_->GetTable("pings")->Apply(record).ok());
    const RowId id = record.row_id;
    oracle.emplace(id, user);  // a duplicate keeps the first
  };
  const auto user_of = [](uint64_t k) {
    return StringPrintf("user-%06llu-padding-padding",
                        static_cast<unsigned long long>(k));
  };
  const auto remove = [&](uint64_t k) {
    WalRecord record;
    record.type = WalRecordType::kDelete;
    record.table = db_->GetTable("pings")->id();
    record.row_id = k * kPartitions;
    ASSERT_TRUE(db_->GetTable("pings")->Apply(record).ok());
    oracle.erase(k * kPartitions);
  };
  const auto check = [&](const char* where) {
    SCOPED_TRACE(where);
    const Table& table = *db_->GetTable("pings");
    const TablePartition& partition = *table.partition(0);
    EXPECT_EQ(partition.live_rows(), oracle.size());
    EXPECT_EQ(db_->stats().rows.entries, oracle.size());
    const RowId max_id = oracle.empty() ? 0 : oracle.rbegin()->first;
    std::vector<RowId> ids;
    for (RowId id = 0; id <= max_id + kPartitions; id += kPartitions) {
      EXPECT_EQ(partition.Contains(id), oracle.count(id) == 1) << "id " << id;
      ids.push_back(id);
    }
    // A heap scan and an id-list read (absent ids included) both see
    // exactly the oracle's rows.
    auto scanned = oracle::StoredRows(table);
    ASSERT_TRUE(scanned.ok());
    std::map<RowId, std::string> seen;
    for (const oracle::Stored& row : *scanned) {
      seen[row.row_id] = row.values[0].str();
    }
    EXPECT_EQ(seen, oracle);
    seen.clear();
    PartitionCursor read = table.OpenRowIdCursor(0, ids);
    ScanSpec spec;
    spec.need_degradable = false;
    spec.output_columns = {true};
    ScanWorkspace ws;
    ScanDeltas deltas;
    bool done = false;
    while (!done) {
      ASSERT_TRUE(read.NextBatch(1024, spec, &ws, &done, &deltas).ok());
      for (size_t k = 0; k < ws.count; ++k) {
        seen[ws.tuples[k].row_id] = ws.tuples[k].stable[0].str();
      }
    }
    EXPECT_EQ(seen, oracle);
  };

  // Out of order: adjacent pairs swapped, every seventh id held back and
  // applied last, far behind the tail.
  for (uint64_t k = 0; k < 1200; k += 2) {
    for (const uint64_t j : {k + 1, k}) {
      if (j % 7 != 3) apply(j, user_of(j));
    }
  }
  for (uint64_t k = 3; k < 1200; k += 7) apply(k, user_of(k));
  check("out-of-order applies");

  apply(5, "a replayed insert");  // redo of a row the heap holds
  EXPECT_EQ(oracle.at(5 * kPartitions), user_of(5));
  check("duplicate apply");

  for (uint64_t k = 300; k < 600; k += 3) remove(k);
  check("middle deletes");

  for (uint64_t k = 0; k < 900; ++k) {
    if (oracle.count(k * kPartitions) == 1) remove(k);
  }
  check("head pops");

  // New rows fill the space the deletes freed at the front of the heap.
  for (uint64_t k = 1200; k < 1800; ++k) apply(k, user_of(k));
  check("reused space");
  auto scanned = oracle::StoredRows(*db_->GetTable("pings"));
  ASSERT_TRUE(scanned.ok());
  ASSERT_FALSE(std::is_sorted(
      scanned->begin(), scanned->end(),
      [](const auto& a, const auto& b) { return a.row_id < b.row_id; }))
      << "the reused pages should hold newer rows before older ones";

  ReopenDb(kPartitions);
  check("reopen");
}

// Applying a committed record a second time changes nothing, for every
// record type: insert and delete. Each commit's records are
// read back from the log and applied again through Table::Apply on the live
// database, indexes built, so the index hooks are re-applied too (WAL redo
// runs before the indexes exist). This is what makes a commit's retry of a
// failed apply safe. Degradation logs nothing, and redo of the whole log
// after each wave of steps changes nothing either: an insert lands at its
// mandated phase only where no phase holds the row, and not at all once
// every value reached ⊥.
TEST_F(PartitionTest, ApplyingACommittedRecordAgainChangesNothing) {
  ASSERT_TRUE(db_->CreateTable("pings", mix::MixSchema()).ok());
  Table* table = db_->GetTable("pings");
  const Schema& schema = table->schema();

  // Everything an apply can touch: the rows as the scan oracle reads them,
  // every store's entries, the index and store footprints, the index audit.
  const auto snapshot = [&] {
    std::vector<std::string> state;
    auto rows = oracle::StoredRows(*table);
    EXPECT_TRUE(rows.ok());
    if (!rows.ok()) return state;
    std::map<RowId, std::string> by_id;
    for (const oracle::Stored& row : *rows) {
      std::string text = std::to_string(row.insert_time);
      for (const Value& value : row.values) text += "|" + value.ToString();
      for (int phase : row.phases) text += "|p" + std::to_string(phase);
      by_id[row.row_id] = text;
    }
    for (const auto& [id, text] : by_id) {
      state.push_back(std::to_string(id) + ":" + text);
    }
    for (uint32_t p = 0; p < table->num_partitions(); ++p) {
      for (int col : schema.degradable_columns()) {
        for (int phase = 0; phase < schema.column(col).lcp.num_phases();
             ++phase) {
          std::string entries = StringPrintf("p%u.c%d.%d:", p, col, phase);
          table->partition(p)->store(col, phase)->ForEach(
              [&](const StoreEntryView& entry) {
                entries += StringPrintf(
                    " %llu/%lld/%lld",
                    static_cast<unsigned long long>(entry.row_id),
                    static_cast<long long>(entry.insert_time),
                    static_cast<long long>(entry.ordinal));
                return true;
              });
          state.push_back(entries);
        }
      }
      const TablePartition::IndexAuditCounts audit =
          table->partition(p)->AuditIndexes();
      state.push_back(StringPrintf("audit %llu %llu",
                                   static_cast<unsigned long long>(audit.stale),
                                   static_cast<unsigned long long>(
                                       audit.missing)));
    }
    const Database::Stats stats = db_->stats();
    state.push_back(StringPrintf(
        "index %llu %llu stores %llu %llu",
        static_cast<unsigned long long>(stats.index.entries),
        static_cast<unsigned long long>(stats.index.bytes),
        static_cast<unsigned long long>(stats.stores.entries),
        static_cast<unsigned long long>(stats.stores.bytes)));
    return state;
  };

  std::set<std::string> kinds;
  // Runs `op`, then applies every record it committed a second time;
  // returns how many there were.
  const auto twice = [&](const std::function<void()>& op) {
    const Lsn from = db_->wal()->next_lsn();
    op();
    const std::vector<std::string> once = snapshot();
    size_t records = 0;
    const auto apply_again = [&](const WalRecord& record) {
      ++records;
      kinds.insert(std::to_string(static_cast<int>(record.type)));
      return table->Apply(record);
    };
    EXPECT_TRUE(db_->wal()->RecoverCommitted(from, apply_again).ok());
    EXPECT_EQ(snapshot(), once);
    return records;
  };

  // Ten batches spread the rows over every partition (batch-affine ids).
  std::vector<RowId> rows;
  for (int b = 0; b < 10; ++b) {
    const size_t records = twice([&] {
      WriteBatch batch;
      for (int i = 0; i < 8; ++i) {
        const int n = b * 8 + i;
        batch.Insert("pings", {Value::String("u" + std::to_string(n)),
                               Value::Int64(n), Value::String("11 Rue Lepic"),
                               Value::Int64((n * 137) % 20000)});
      }
      ASSERT_TRUE(db_->Write(&batch).ok());
      rows.insert(rows.end(), batch.row_ids().begin(), batch.row_ids().end());
    });
    EXPECT_EQ(records, 8u);
  }
  const auto delete_some = [&] {
    WriteBatch batch;
    for (size_t i = 0; i < rows.size(); i += 9) batch.Delete("pings", rows[i]);
    ASSERT_TRUE(db_->Write(&batch).ok());
  };
  EXPECT_EQ(twice(delete_some), 9u);
  // One transaction deletes rows in several partitions and inserts rows
  // that first fit places in the holes the deletes above freed.
  const auto replace_some = [&] {
    auto txn = db_->Begin();
    for (size_t i = 1; i < rows.size(); i += 5) {
      if (i % 9 == 0) continue;  // deleted above
      ASSERT_TRUE(table->Delete(txn.get(), rows[i]).ok());
    }
    for (int n = 80; n < 85; ++n) {
      ASSERT_TRUE(table
                      ->Insert(txn.get(),
                               {Value::String("u" + std::to_string(n)),
                                Value::Int64(n), Value::String("3 Av Foch"),
                                Value::Int64((n * 137) % 20000)})
                      .ok());
    }
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  };
  EXPECT_EQ(twice(replace_some), 20u);

  EXPECT_EQ(kinds,
            (std::set<std::string>{
                std::to_string(static_cast<int>(WalRecordType::kInsert)),
                std::to_string(static_cast<int>(WalRecordType::kDelete))}));

  // One degrade step at a time. Salary reaches ⊥ a month before location
  // (a removal that keeps the tuple); location's removal expires it. Redo
  // re-inserts each deleted row before its delete removes it again, which
  // may grow the footprints' array capacity: those are left out.
  const Lsn logged = db_->wal()->next_lsn();
  const auto rows_and_stores = [&] {
    std::vector<std::string> state = snapshot();
    state.pop_back();
    return state;
  };
  for (const Micros advance : {kMicrosPerHour, kMicrosPerDay, kMicrosPerMonth,
                               kMicrosPerMonth}) {
    clock_->Advance(advance + kMicrosPerSecond);
    for (uint32_t p = 0; p < table->num_partitions(); ++p) {
      for (;;) {
        auto step = table->RunDegradationStep(clock_->NowMicros(), 16, p);
        ASSERT_TRUE(step.ok()) << step.status().ToString();
        if (*step == 0) break;
      }
    }
    EXPECT_EQ(db_->wal()->next_lsn(), logged);
    const std::vector<std::string> degraded = rows_and_stores();
    EXPECT_TRUE(db_->wal()
                    ->RecoverCommitted(0, [&](const WalRecord& record) {
                      return table->Apply(record);
                    })
                    .ok());
    EXPECT_EQ(rows_and_stores(), degraded);
  }
  EXPECT_GT(table->stats().tuples_expired, 0u);
  EXPECT_EQ(table->live_rows(), 0u);
}

// The row map costs at most 32 bytes per live row, array capacity
// included, against about 46 for a hash-map node.
TEST_F(PartitionTest, RowMapCostsAtMostThirtyTwoBytesPerRow) {
  ASSERT_TRUE(db_->CreateTable("pings", PingSchema()).ok());
  constexpr int kRows = 100000;
  for (int start = 0; start < kRows; start += 1000) {
    WriteBatch batch;
    for (int i = start; i < start + 1000; ++i) {
      batch.Insert("pings", {Value::String("u"), Value::String("11 Rue Lepic")});
    }
    ASSERT_TRUE(db_->Write(&batch).ok());
  }
  const MemoryUsage rows = db_->stats().rows;
  EXPECT_EQ(rows.entries, static_cast<uint64_t>(kRows));
  EXPECT_GE(rows.bytes, rows.entries * (sizeof(RowId) + sizeof(Rid)));
  EXPECT_LE(static_cast<double>(rows.bytes) / static_cast<double>(rows.entries),
            32.0);
}

// Ten expiry waves, each inserting the same rows and letting all of them
// expire: after every wave, every partition's heap is back at its one-wave
// page count, because the heap reuses what expiry freed, and the row maps
// hold no entry and exactly their one-wave bytes. Heap records encode the
// row id and insert time as varints, so the waves keep both within one
// varint length: the clock starts at 2^36 us, and a warm-up wave takes the
// row ids below 128.
TEST_F(PartitionTest, ExpiryWavesKeepHeapAndRowMapsAtTheirOneWaveSize) {
  auto schema = Schema::Make(
      {ColumnDef::Stable("user", ValueType::kString),
       ColumnDef::Degradable(
           "location", LocationDomain(),
           *AttributeLcp::Make({{0, kMicrosPerHour}, {1, kMicrosPerHour}}))});
  ASSERT_TRUE(schema.ok());
  ASSERT_TRUE(db_->CreateTable("waves", *schema).ok());
  const auto heap_pages = [&] {
    std::vector<PageId> pages;
    const Table* table = db_->GetTable("waves");
    for (uint32_t p = 0; p < table->num_partitions(); ++p) {
      pages.push_back(table->partition(p)->heap_pool()->disk()->num_pages());
    }
    return pages;
  };
  // One batch per partition and round (batches rotate over partitions).
  const auto wave = [&](int rows_per_batch) {
    for (uint32_t b = 0; b < 2 * kPartitions; ++b) {
      WriteBatch batch;
      for (int i = 0; i < rows_per_batch; ++i) {
        batch.Insert("waves",
                     {Value::String(StringPrintf("wave-user-%03d", i)),
                      Value::String(i % 2 == 0 ? "11 Rue Lepic"
                                               : "4 Rue Breteuil")});
      }
      ASSERT_TRUE(db_->Write(&batch).ok());
    }
    ASSERT_EQ(db_->GetTable("waves")->live_rows(),
              2u * kPartitions * rows_per_batch);
  };
  const auto expire = [&] {
    clock_->Advance(2 * kMicrosPerHour + 1);
    ASSERT_TRUE(db_->RunDegradationOnce().ok());
    ASSERT_EQ(db_->GetTable("waves")->live_rows(), 0u);
  };
  clock_->Advance(Micros{1} << 36);
  wave(20);
  expire();
  std::vector<PageId> one_wave_pages;
  MemoryUsage one_wave_rows;
  MemoryUsage one_wave_peak;
  for (int w = 0; w < 10; ++w) {
    SCOPED_TRACE(w);
    ASSERT_NO_FATAL_FAILURE(wave(180));  // 14,400 ids in all, below 2^14
    const MemoryUsage peak = db_->stats().rows;
    ASSERT_NO_FATAL_FAILURE(expire());
    const MemoryUsage rows = db_->stats().rows;
    EXPECT_EQ(rows.entries, 0u);
    if (w == 0) {
      one_wave_pages = heap_pages();
      one_wave_rows = rows;
      one_wave_peak = peak;
      continue;
    }
    EXPECT_EQ(heap_pages(), one_wave_pages);
    EXPECT_EQ(rows.bytes, one_wave_rows.bytes);
    EXPECT_EQ(peak.entries, one_wave_peak.entries);
    EXPECT_EQ(peak.bytes, one_wave_peak.bytes);
  }
}

}  // namespace
}  // namespace instantdb
