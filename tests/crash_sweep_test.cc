// Crash-point sweep. Degradation writes no log record, so what keeps every
// level of a value durable is one write order: a value's coarser frame is
// durable before the last durable trace of its finer copy can vanish (a
// store segment erase, a checkpoint META, a WAL segment's retirement). This
// suite checks that order at every crash point of a seeded workload that
// mixes synced and unsynced inserts, deletes, transactions that delete rows
// in both partitions and insert one, degradation passes across every phase
// boundary down to ⊥, and checkpoints:
//
//  - a crash image is taken after every engine call of the workload;
//  - for every k, the workload is replayed with the k-th fsync failing, and
//    a crash image is taken right after the call that hit it.
//
// Each image is reopened at the crash instant and must show:
//  - every write acknowledged durable (a synced commit, a commit that
//    deletes, or any commit before one of those or a checkpoint) survives,
//    and every transaction survives whole or not at all;
//  - no value coarser than its LCP mandates at the crash instant, and every
//    stored value the exact generalization of the inserted one;
//  - no row id in two stores of one column.
// After one degradation pass, no value is finer than mandated and no
// expired tuple is left; after a checkpoint, Audit() is clean.
//
// The base seed is fixed (deterministic in CI) and overridable via
// IDB_FAULT_SEED, as in fault_injection_test.

#include <algorithm>
#include <cstdlib>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "catalog/builtin_domains.h"
#include "common/strings.h"
#include "db/database.h"
#include "gtest/gtest.h"
#include "io/env.h"
#include "io/fault_env.h"
#include "scan_oracle.h"
#include "util/file.h"

namespace instantdb {
namespace {

uint64_t BaseSeed() {
  const char* seed = std::getenv("IDB_FAULT_SEED");
  if (seed != nullptr && *seed != '\0') {
    return std::strtoull(seed, nullptr, 10);
  }
  return 20260808ull;
}

constexpr int kLocation = 1;
constexpr int kSalary = 2;
const char* const kAddresses[] = {"11 Rue Lepic", "3 Av Foch", "12 Rue Royale",
                                  "4 Rue Breteuil", "8 Cours Mirabeau"};

/// user STABLE; location through city and region to ⊥ after three hours;
/// salary through its 1000-wide bucket to ⊥ after ninety minutes, so some
/// tuples lose one value before they expire.
Schema SweepSchema() {
  return *Schema::Make(
      {ColumnDef::Stable("user", ValueType::kString),
       ColumnDef::Degradable("location", LocationDomain(),
                             *AttributeLcp::Make({{0, kMicrosPerHour},
                                                  {1, kMicrosPerHour},
                                                  {2, kMicrosPerHour}})),
       ColumnDef::Degradable("salary", SalaryDomain(),
                             *AttributeLcp::Make({{0, 30 * kMicrosPerMinute},
                                                  {1, kMicrosPerHour}}))});
}

enum class Kind { kInsert, kDelete, kReplace, kAdvance, kPass, kCheckpoint };

struct Op {
  Kind kind = Kind::kPass;
  bool sync = false;
  int rows = 0;
  Micros advance = 0;
  uint64_t pick = 0;
};

std::vector<Op> Workload(uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Op> ops;
  // Prologue: three synced batches half an hour apart (partitions take
  // inserting transactions in turn, so the first and third share one),
  // then a pass at 70 minutes. It moves the first batch out of phase 0,
  // where the third still sits in the same unsynced store tail, while the
  // log copy of the first batch lives until a checkpoint retires it.
  for (int batch = 0; batch < 3; ++batch) {
    Op insert;
    insert.kind = Kind::kInsert;
    insert.rows = 2;
    insert.sync = true;
    insert.pick = rng();
    ops.push_back(insert);
    Op advance;
    advance.kind = Kind::kAdvance;
    advance.advance = (batch < 2 ? 30 : 10) * kMicrosPerMinute;
    ops.push_back(advance);
  }
  ops.push_back(Op{});  // a pass
  for (int i = 0; i < 30; ++i) {
    Op op;
    const uint64_t r = rng() % 20;
    if (r < 5) {
      op.kind = Kind::kInsert;
      op.rows = 1 + static_cast<int>(rng() % 3);
    } else if (r < 7) {
      op.kind = Kind::kDelete;
    } else if (r < 9) {
      op.kind = Kind::kReplace;
    } else if (r < 12) {
      op.kind = Kind::kAdvance;
      op.advance = static_cast<Micros>(10 + rng() % 80) * kMicrosPerMinute;
    } else if (r < 16) {
      op.kind = Kind::kPass;
    } else {
      op.kind = Kind::kCheckpoint;
    }
    op.sync = rng() % 2 == 0;
    op.pick = rng();
    ops.push_back(op);
  }
  // Past every deadline: whatever is left degrades to ⊥ and expires.
  Op advance;
  advance.kind = Kind::kAdvance;
  advance.advance = 4 * kMicrosPerHour;
  ops.push_back(advance);
  ops.push_back(Op{});  // a pass
  return ops;
}

/// What the workload did to one row, and what a crash may do to it.
struct ModelRow {
  Micros insert_time = 0;
  std::string address;
  int64_t salary = 0;
  std::string user;
  bool insert_durable = false;
  bool delete_attempted = false;
  bool delete_durable = false;
};

struct Model {
  std::map<RowId, ModelRow> rows;
  /// Users of inserts whose commit failed (their ids are unknown).
  std::set<std::string> failed_inserts;
  /// Each replace transaction: the rows it deleted and the row it inserted.
  /// A crash keeps all of it or none.
  std::vector<std::pair<std::vector<RowId>, RowId>> replaces;

  /// A synced commit or a checkpoint succeeded: everything logged so far is
  /// durable.
  void Durable() {
    for (auto& [id, row] : rows) {
      row.insert_durable = true;
      row.delete_durable |= row.delete_attempted;
    }
  }
};

class CrashSweepTest : public ::testing::TestWithParam<WalPrivacyMode> {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/idb_crash_sweep_test";
    image_ = dir_ + "_image";
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
    ASSERT_TRUE(RemoveDirRecursive(image_).ok());
  }
  void TearDown() override {
    RemoveDirRecursive(dir_).ok();
    RemoveDirRecursive(image_).ok();
  }

  DbOptions Options(const std::string& path, Clock* clock, Env* env) const {
    DbOptions options;
    options.path = path;
    options.clock = clock;
    options.env = env;
    options.partitions = 2;
    options.degradation.worker_threads = 1;
    options.degradation.step_batch_limit = 4;  // several steps per store
    options.storage.segment_bytes = 256;       // seals and erases often
    options.wal.segment_bytes = 4096;
    options.wal.privacy_mode = GetParam();
    return options;
  }

  /// Runs the workload of `seed` on a fresh database. With `fail_sync` > 0
  /// the fail_sync-th fsync after table creation fails, and the run stops
  /// with a crash image right after the call that hit it; otherwise every
  /// engine call is followed by one. Returns whether the fault fired (a
  /// run that issued fewer fsyncs never reaches it).
  bool Run(uint64_t seed, int fail_sync) {
    EXPECT_TRUE(RemoveDirRecursive(dir_).ok());
    FaultInjectionEnv fault(Env::Default());
    VirtualClock clock(0);
    auto opened = Database::Open(Options(dir_, &clock, &fault));
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    if (!opened.ok()) return false;
    std::unique_ptr<Database> db = std::move(*opened);
    EXPECT_TRUE(db->CreateTable("pings", SweepSchema()).ok());
    Table* table = db->GetTable("pings");
    if (fail_sync > 0) {
      fault.FailOnce(FaultOp::kSync, fail_sync,
                     Status::IOError("injected sweep fault"));
    }

    Model model;
    int users = 0;
    const std::vector<Op> ops = Workload(seed);
    for (size_t i = 0; i < ops.size(); ++i) {
      const Op& op = ops[i];
      WriteOptions write;
      write.sync = op.sync;
      // The r-th row this op inserts.
      const auto make_row = [&](int r) {
        ModelRow row;
        row.insert_time = clock.NowMicros();
        row.address = kAddresses[(op.pick + r) % std::size(kAddresses)];
        row.salary = static_cast<int64_t>((op.pick >> 8) % 100000) + r;
        row.user = "r" + std::to_string(users++);
        return row;
      };
      // The live rows a delete may pick.
      std::vector<RowId> live;
      for (const auto& [id, row] : model.rows) {
        if (!row.delete_attempted &&
            table->partition(table->PartitionOf(id))->Contains(id)) {
          live.push_back(id);
        }
      }
      Status status;
      bool durable_point = false;
      switch (op.kind) {
        case Kind::kInsert: {
          WriteBatch batch;
          std::vector<ModelRow> inserted;
          for (int r = 0; r < op.rows; ++r) {
            const ModelRow row = make_row(r);
            batch.Insert("pings", {Value::String(row.user),
                                   Value::String(row.address),
                                   Value::Int64(row.salary)});
            inserted.push_back(row);
          }
          status = db->Write(&batch, write);
          if (status.ok()) {
            for (size_t r = 0; r < inserted.size(); ++r) {
              model.rows[batch.row_ids()[r]] = inserted[r];
            }
          } else {
            for (const ModelRow& row : inserted) {
              model.failed_inserts.insert(row.user);
            }
          }
          durable_point = op.sync;
          break;
        }
        case Kind::kDelete: {
          if (live.empty()) continue;
          const RowId id = live[op.pick % live.size()];
          model.rows[id].delete_attempted = true;
          status = db->Delete("pings", id, write);
          durable_point = true;  // a commit that deletes is synced
          break;
        }
        case Kind::kReplace: {
          // Deletes one row, and a second one in the other partition when
          // there is one, and inserts a row: the transaction spans both
          // partitions' flushes.
          if (live.empty()) continue;
          std::vector<RowId> ids = {live[op.pick % live.size()]};
          for (size_t k = 1; k < live.size(); ++k) {
            const RowId other = live[(op.pick + k) % live.size()];
            if (table->PartitionOf(other) != table->PartitionOf(ids[0])) {
              ids.push_back(other);
              break;
            }
          }
          auto txn = db->Begin();
          for (const RowId id : ids) {
            if (status.ok()) status = table->Delete(txn.get(), id);
          }
          const ModelRow row = make_row(0);
          RowId inserted = kInvalidRowId;
          if (status.ok()) {
            auto id = table->Insert(txn.get(), {Value::String(row.user),
                                                Value::String(row.address),
                                                Value::Int64(row.salary)});
            status = id.status();
            if (id.ok()) inserted = *id;
          }
          if (!status.ok()) {
            db->Abort(txn.get());
            continue;
          }
          for (const RowId id : ids) model.rows[id].delete_attempted = true;
          model.rows[inserted] = row;
          model.replaces.emplace_back(ids, inserted);
          status = db->Commit(txn.get(), write);
          durable_point = true;  // a commit that deletes is synced
          break;
        }
        case Kind::kAdvance:
          clock.Advance(op.advance);
          continue;  // no I/O: no new crash point
        case Kind::kPass:
          status = db->RunDegradationOnce().status();
          break;
        case Kind::kCheckpoint:
          status = db->Checkpoint();
          durable_point = true;
          break;
      }
      if (status.ok() && durable_point) model.Durable();
      const bool faulted = fault.io_counters().injected_faults > 0;
      if (fail_sync > 0 && !faulted) continue;
      EXPECT_TRUE(faulted || status.ok()) << status.ToString();
      SCOPED_TRACE(StringPrintf("seed %llu, fsync fault %d, crash after call %zu",
                                static_cast<unsigned long long>(seed),
                                fail_sync, i));
      EXPECT_TRUE(fault.SimulateCrashTo(dir_, image_).ok());
      CheckImage(model, clock.NowMicros());
      EXPECT_TRUE(RemoveDirRecursive(image_).ok());
      if (faulted) break;
    }
    const bool faulted = fault.io_counters().injected_faults > 0;
    if (fail_sync == 0) {
      // The workload crossed every boundary: values moved, reached ⊥, and
      // whole tuples expired.
      const Table::Stats stats = table->stats();
      EXPECT_GT(stats.values_degraded, 0u);
      EXPECT_GT(stats.values_removed, 0u);
      EXPECT_GT(stats.tuples_expired, 0u);
    }
    fault.ClearFaults();
    db.reset();  // a poisoned log fails its last checkpoint: ignored
    return faulted;
  }

  /// Reopens the crash image at `now` and checks it against `model`.
  void CheckImage(const Model& model, Micros now) {
    VirtualClock clock(now);
    auto opened = Database::Open(Options(image_, &clock, nullptr));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<Database> db = std::move(*opened);
    Table* table = db->GetTable("pings");
    ASSERT_NE(table, nullptr);
    const Schema& schema = table->schema();

    // The phase each column's LCP mandates for a row at `now`.
    const auto mandated = [&](const ModelRow& row, int column) {
      return schema.column(column).lcp.PhaseAt(now - row.insert_time);
    };
    const auto expired = [&](const ModelRow& row) {
      return mandated(row, kLocation) ==
                 schema.column(kLocation).lcp.num_phases() &&
             mandated(row, kSalary) == schema.column(kSalary).lcp.num_phases();
    };
    const auto expected_value = [&](const ModelRow& row, int column,
                                    int phase) {
      const ColumnDef& col = schema.column(column);
      const Value leaf = column == kLocation ? Value::String(row.address)
                                             : Value::Int64(row.salary);
      return *col.hierarchy->Generalize(leaf, 0, col.lcp.phase(phase).level);
    };

    auto stored = oracle::StoredRows(*table);
    ASSERT_TRUE(stored.ok()) << stored.status().ToString();
    std::map<RowId, oracle::Stored> recovered;
    for (oracle::Stored& row : *stored) recovered[row.row_id] = row;

    for (const auto& [id, row] : model.rows) {
      auto it = recovered.find(id);
      if (it == recovered.end()) {
        EXPECT_FALSE(row.insert_durable && !row.delete_attempted &&
                     !expired(row))
            << "durable row " << id << " lost";
        continue;
      }
      const oracle::Stored& got = it->second;
      EXPECT_FALSE(row.delete_durable) << "durably deleted row " << id;
      EXPECT_EQ(got.values[0].ToString(), row.user) << "row " << id;
      for (int d = 0; d < 2; ++d) {
        const int column = d == 0 ? kLocation : kSalary;
        const int phase = got.phases[d];
        if (row.insert_durable) {
          EXPECT_LE(phase, mandated(row, column))
              << "row " << id << " column " << column
              << " coarser than mandated: lost before its deadline";
        }
        if (phase < schema.column(column).lcp.num_phases()) {
          EXPECT_EQ(got.values[column], expected_value(row, column, phase))
              << "row " << id << " column " << column;
        }
      }
      recovered.erase(it);
    }
    for (const auto& [id, got] : recovered) {
      EXPECT_EQ(model.failed_inserts.count(got.values[0].ToString()), 1u)
          << "row " << id << " was never written";
    }
    // Each replace transaction is kept whole or not at all. Its inserted
    // row shows it when present, and shows it lost when absent, unless a
    // later delete or the LCP may have removed it; a deleted row shows it
    // when absent although durably inserted and not expired.
    const auto present = [&](RowId id) {
      return std::any_of(stored->begin(), stored->end(),
                         [id](const auto& r) { return r.row_id == id; });
    };
    for (const auto& [ids, inserted] : model.replaces) {
      std::set<bool> kept;
      const ModelRow& added = model.rows.at(inserted);
      if (present(inserted)) {
        kept.insert(true);
      } else if (!added.delete_attempted && !expired(added)) {
        kept.insert(false);
      }
      for (const RowId id : ids) {
        const ModelRow& row = model.rows.at(id);
        if (present(id)) {
          kept.insert(false);
        } else if (row.insert_durable && !expired(row)) {
          kept.insert(true);
        }
      }
      EXPECT_LE(kept.size(), 1u) << "replace inserting " << inserted
                                 << " kept in part";
    }

    // No id in two stores of one column.
    for (uint32_t p = 0; p < table->num_partitions(); ++p) {
      for (const int column : {kLocation, kSalary}) {
        std::set<RowId> seen;
        for (int phase = 0; phase < schema.column(column).lcp.num_phases();
             ++phase) {
          table->partition(p)->store(column, phase)->ForEach(
              [&](const StoreEntryView& entry) {
                EXPECT_TRUE(seen.insert(entry.row_id).second)
                    << "row " << entry.row_id << " in two stores of column "
                    << column;
                return true;
              });
        }
      }
    }

    // One pass brings every value to its mandated phase.
    ASSERT_TRUE(db->RunDegradationOnce().ok());
    auto passed = oracle::StoredRows(*table);
    ASSERT_TRUE(passed.ok());
    for (const oracle::Stored& got : *passed) {
      auto it = model.rows.find(got.row_id);
      if (it == model.rows.end()) continue;
      EXPECT_FALSE(expired(it->second)) << "expired row " << got.row_id;
      EXPECT_GE(got.phases[0], mandated(it->second, kLocation))
          << "row " << got.row_id << " location finer than mandated";
      EXPECT_GE(got.phases[1], mandated(it->second, kSalary))
          << "row " << got.row_id << " salary finer than mandated";
    }
    // A reopened log counts as exposed until a checkpoint retires it.
    ASSERT_TRUE(db->Checkpoint().ok());
    const AuditReport audit = db->Audit();
    EXPECT_TRUE(audit.clean()) << audit.ToString();
    EXPECT_TRUE(db->Close().ok());
  }

  std::string dir_;
  std::string image_;
};

TEST_P(CrashSweepTest, EveryEngineCallIsACrashPoint) {
  Run(BaseSeed(), /*fail_sync=*/0);
}

TEST_P(CrashSweepTest, EveryFailedFsyncIsACrashPoint) {
  int k = 1;
  while (Run(BaseSeed(), k) && !HasFailure()) ++k;
  EXPECT_GT(k, 20) << "the workload issued too few fsyncs to sweep";
}

INSTANTIATE_TEST_SUITE_P(
    PrivacyModes, CrashSweepTest,
    ::testing::Values(WalPrivacyMode::kScrub, WalPrivacyMode::kCryptoErase),
    [](const auto& info) {
      return info.param == WalPrivacyMode::kScrub ? "Scrub" : "CryptoErase";
    });

}  // namespace
}  // namespace instantdb
