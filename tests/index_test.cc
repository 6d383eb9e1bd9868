#include <algorithm>
#include <set>
#include <tuple>

#include "catalog/builtin_domains.h"
#include "common/random.h"
#include "db/database.h"
#include "forensic.h"
#include "gtest/gtest.h"
#include "index/multires_index.h"
#include "io/fault_env.h"
#include "scan_oracle.h"
#include "util/file.h"

namespace instantdb {
namespace {

/// Leaf ordinal of `value` at `level` (the key a posting of that node has).
int64_t KeyOf(const ColumnDef& column, const Value& value, int level) {
  auto range = column.hierarchy->LeafRange(value, level);
  EXPECT_TRUE(range.ok()) << value.ToString();
  return range.ok() ? range->lo : -1;
}

// --- MultiResolutionIndex -----------------------------------------------------------

class MultiResIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    column_ = ColumnDef::Degradable("location", LocationDomain(),
                                    Fig2LocationLcp());
    index_ = std::make_unique<MultiResolutionIndex>(column_);
  }

  int64_t Key(const std::string& label, int phase) const {
    return KeyOf(column_, Value::String(label), column_.lcp.phase(phase).level);
  }
  void Insert(RowId row, const std::string& address) {
    index_->OnInsert(row, 0, Key(address, 0));
  }
  /// `to_label` is ignored when `to_phase` is ⊥.
  void Degrade(RowId row, int from_phase, const std::string& from_label,
               int to_phase, const std::string& to_label) {
    index_->OnDegrade(row, from_phase, Key(from_label, from_phase), to_phase,
                      to_phase < index_->num_phases() ? Key(to_label, to_phase)
                                                      : -1);
  }

  std::vector<RowId> Lookup(const std::string& label, int level) {
    std::vector<RowId> rids;
    auto status = index_->LookupEqual(Value::String(label), level,
                                      [&](RowId rid) {
                                        rids.push_back(rid);
                                        return true;
                                      });
    EXPECT_TRUE(status.ok()) << status.ToString();
    std::sort(rids.begin(), rids.end());
    return rids;
  }

  ColumnDef column_;
  std::unique_ptr<MultiResolutionIndex> index_;
};

TEST_F(MultiResIndexTest, AccurateInsertVisibleAtEveryLevel) {
  Insert(1, "11 Rue Lepic");
  Insert(2, "3 Av Foch");
  Insert(3, "4 Rue Breteuil");

  EXPECT_EQ(Lookup("11 Rue Lepic", 0), (std::vector<RowId>{1}));
  EXPECT_EQ(Lookup("Paris", 1), (std::vector<RowId>{1, 2}));
  EXPECT_EQ(Lookup("Ile-de-France", 2), (std::vector<RowId>{1, 2}));
  EXPECT_EQ(Lookup("France", 3), (std::vector<RowId>{1, 2, 3}));
  EXPECT_EQ(Lookup("Marseille", 1), (std::vector<RowId>{3}));
}

TEST_F(MultiResIndexTest, DegradedEntryMovesBetweenPhaseTrees) {
  Insert(1, "11 Rue Lepic");
  EXPECT_EQ(index_->EntriesInPhase(0), 1u);
  // Degrade to phase 1 (city level): stored value becomes "Paris".
  Degrade(1, 0, "11 Rue Lepic", 1, "Paris");
  EXPECT_EQ(index_->EntriesInPhase(0), 0u);
  EXPECT_EQ(index_->EntriesInPhase(1), 1u);
  // Address-level lookup no longer finds it (strict computability):
  EXPECT_TRUE(Lookup("11 Rue Lepic", 0).empty());
  // City-level and coarser lookups still do:
  EXPECT_EQ(Lookup("Paris", 1), (std::vector<RowId>{1}));
  EXPECT_EQ(Lookup("France", 3), (std::vector<RowId>{1}));
}

TEST_F(MultiResIndexTest, RemovalDropsFromAllLevels) {
  Insert(1, "8 Cours Mirabeau");
  Degrade(1, 0, "8 Cours Mirabeau", 1, "Aix");
  // Final transition to ⊥ (to_phase == num_phases).
  Degrade(1, 1, "Aix", column_.lcp.num_phases(), "");
  EXPECT_TRUE(Lookup("France", 3).empty());
  for (int p = 0; p < index_->num_phases(); ++p) {
    EXPECT_EQ(index_->EntriesInPhase(p), 0u);
  }
}

TEST_F(MultiResIndexTest, MixedPhasesUnionAtCoarseLevel) {
  // One row per phase, all under France.
  Insert(1, "11 Rue Lepic");
  Insert(2, "12 Rue Royale");
  Insert(3, "4 Rue Breteuil");
  Degrade(2, 0, "12 Rue Royale", 1, "Versailles");
  Degrade(3, 0, "4 Rue Breteuil", 1, "Marseille");
  Degrade(3, 1, "Marseille", 2, "Provence");
  // Country-level query unions phase 0 (row 1), phase 1 (row 2), phase 2
  // (row 3).
  EXPECT_EQ(Lookup("France", 3), (std::vector<RowId>{1, 2, 3}));
  // Region-level: row 3 is at region level (computable), row 1 generalizes,
  // row 2 (city level 1 <= 2) generalizes too.
  EXPECT_EQ(Lookup("Ile-de-France", 2), (std::vector<RowId>{1, 2}));
  EXPECT_EQ(Lookup("Provence", 2), (std::vector<RowId>{3}));
  // City-level query must NOT see row 3 (already region-coarse).
  EXPECT_EQ(Lookup("Marseille", 1), (std::vector<RowId>{}));
  EXPECT_EQ(Lookup("Versailles", 1), (std::vector<RowId>{2}));
}

TEST_F(MultiResIndexTest, RangeLookupOnIntervalDomain) {
  ColumnDef salary = ColumnDef::Degradable(
      "salary", SalaryDomain(),
      *AttributeLcp::Make({{0, kMicrosPerDay}, {1, kMicrosPerMonth}}));
  MultiResolutionIndex index(salary);
  for (RowId r = 1; r <= 10; ++r) {
    const Value salary_value = Value::Int64(static_cast<int64_t>(r) * 500);
    index.OnInsert(r, 0, KeyOf(salary, salary_value, 0));
  }
  // Range [1000, 3000] at level 0 → rows with salary 1000..3000.
  std::vector<RowId> rids;
  ASSERT_TRUE(index
                  .LookupRange(Value::Int64(1000), Value::Int64(3000), 0,
                               [&](RowId rid) {
                                 rids.push_back(rid);
                                 return true;
                               })
                  .ok());
  std::sort(rids.begin(), rids.end());
  EXPECT_EQ(rids, (std::vector<RowId>{2, 3, 4, 5, 6}));
  // Degrade row 2 to the 1000-bucket level; a bucket query at level 1 finds
  // both accurate and degraded rows.
  index.OnDegrade(2, 0, KeyOf(salary, Value::Int64(1000), 0), 1,
                  KeyOf(salary, Value::Int64(1000), 1));
  rids.clear();
  ASSERT_TRUE(index
                  .LookupEqual(Value::Int64(1000), 1,
                               [&](RowId rid) {
                                 rids.push_back(rid);
                                 return true;
                               })
                  .ok());
  std::sort(rids.begin(), rids.end());
  EXPECT_EQ(rids, (std::vector<RowId>{2, 3}));  // 1000 and 1500
}

// --- Postings against a reference set ---------------------------------------------

/// Every (phase, node key, row) the index holds.
using Reference = std::set<std::tuple<int, int64_t, RowId>>;

/// Drives seeded random inserts (in order, out of order, repeated),
/// degrade steps (retries whose old posting is gone or whose new one
/// exists included) and deletes through an index and a reference set, and
/// after every operation compares EntriesInPhase and the lookups of every
/// node at every level, plus ranges.
void RunDifferential(const ColumnDef& column, uint64_t seed, int ops) {
  const DomainHierarchy& domain = *column.hierarchy;
  const int64_t leaves = *domain.CardinalityAtLevel(0);
  const int phases = column.lcp.num_phases();
  auto level = [&](int phase) { return column.lcp.phase(phase).level; };
  auto key = [&](int64_t leaf, int phase) {
    return domain.AncestorRange(leaf, level(phase)).lo;
  };
  MultiResolutionIndex index(column);
  Reference reference;
  Random rng(seed);
  RowId next_row = 1;

  // One (phase, key, row) the reference holds, picked at random.
  auto pick = [&]() {
    auto it = reference.begin();
    std::advance(it, rng.Uniform(reference.size()));
    return *it;
  };
  // Rows of the reference at `level` or finer whose key lies in `range`.
  auto expected = [&](int max_level, const LeafInterval& range) {
    std::vector<RowId> rows;
    for (const auto& [phase, k, row] : reference) {
      if (level(phase) <= max_level && range.Contains(k)) rows.push_back(row);
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  auto collect = [](std::vector<RowId>* rows) {
    return [rows](RowId row) {
      rows->push_back(row);
      return true;
    };
  };

  for (int op = 0; op < ops; ++op) {
    const uint64_t kind = rng.Uniform(10);
    const int64_t leaf = static_cast<int64_t>(rng.Uniform(leaves));
    if (kind < 4 || reference.empty()) {
      // Insert: mostly in order, sometimes an older id (out of order, or a
      // repeat of a row the index already holds).
      const RowId row = rng.OneIn(4) ? 1 + rng.Uniform(next_row) : next_row++;
      const int phase =
          rng.OneIn(3) ? static_cast<int>(rng.Uniform(phases)) : 0;
      index.OnInsert(row, phase, key(leaf, phase));
      reference.emplace(phase, key(leaf, phase), row);
    } else if (kind < 5) {
      // Exact repeat of a present entry: a no-op.
      const auto [phase, k, row] = pick();
      index.OnInsert(row, phase, k);
    } else if (kind < 8) {
      // Degrade step of a present entry, or a retry: the old posting may
      // already be gone, the new one may already hold the row.
      auto [from, old_key, row] = pick();
      const int to = from + 1;
      // The next phase's key: old_key is a leaf under the row's node.
      const int64_t new_key = to < phases ? key(old_key, to) : -1;
      if (rng.OneIn(4)) {  // a failed attempt already removed the old one
        index.OnDegrade(row, from, old_key, phases, -1);
        reference.erase({from, old_key, row});
      }
      if (to < phases && rng.OneIn(4)) {  // ... or already added the new one
        index.OnInsert(row, to, new_key);
        reference.emplace(to, new_key, row);
      }
      index.OnDegrade(row, from, old_key, to, new_key);
      reference.erase({from, old_key, row});
      if (to < phases) reference.emplace(to, new_key, row);
    } else {
      // User DELETE, sometimes of a row that is not there.
      if (rng.OneIn(5)) {
        const RowId row = next_row + 1000;
        EXPECT_TRUE(index.OnDelete(row, 0, key(leaf, 0)).IsNotFound());
      } else {
        const auto [phase, k, row] = pick();
        EXPECT_TRUE(index.OnDelete(row, phase, k).ok());
        reference.erase({phase, k, row});
      }
    }

    for (int p = 0; p < phases; ++p) {
      const auto in_phase = static_cast<uint64_t>(std::count_if(
          reference.begin(), reference.end(),
          [p](const auto& entry) { return std::get<0>(entry) == p; }));
      ASSERT_EQ(index.EntriesInPhase(p), in_phase) << "op " << op;
    }
    ASSERT_TRUE(index.VacatedSlotsZeroForTesting()) << "op " << op;
    for (int l = 0; l < domain.height(); ++l) {
      for (int64_t o = 0; o < leaves;) {
        const LeafInterval node = domain.AncestorRange(o, l);
        std::vector<RowId> rows;
        ASSERT_TRUE(
            index.LookupEqual(domain.AncestorValue(o, l), l, collect(&rows))
                .ok());
        std::sort(rows.begin(), rows.end());
        ASSERT_EQ(rows, expected(l, node)) << "op " << op << " level " << l;
        o = node.hi + 1;
      }
      const int64_t a = static_cast<int64_t>(rng.Uniform(leaves));
      const int64_t b = static_cast<int64_t>(rng.Uniform(leaves));
      const LeafInterval lo = domain.AncestorRange(std::min(a, b), l);
      const LeafInterval hi = domain.AncestorRange(std::max(a, b), l);
      std::vector<RowId> rows;
      ASSERT_TRUE(index
                      .LookupRange(domain.AncestorValue(lo.lo, l),
                                   domain.AncestorValue(hi.lo, l), l,
                                   collect(&rows))
                      .ok());
      std::sort(rows.begin(), rows.end());
      ASSERT_EQ(rows, expected(l, LeafInterval{lo.lo, hi.hi}))
          << "op " << op << " range at level " << l;
    }
  }
}

TEST(PostingsTest, MatchReferenceOnFig1Tree) {
  const ColumnDef column =
      ColumnDef::Degradable("location", LocationDomain(), Fig2LocationLcp());
  RunDifferential(column, 11, 3000);
}

TEST(PostingsTest, MatchReferenceOnIntervalDomain) {
  // 64 exact values in buckets of 4 and 16; the LCP skips level 1, so a
  // phase's level differs from its index.
  auto domain = IntervalHierarchy::Make("small", 0, 63, {4, 16});
  ASSERT_TRUE(domain.ok());
  const ColumnDef column = ColumnDef::Degradable(
      "v", *domain,
      *AttributeLcp::Make({{0, kMicrosPerHour}, {2, kMicrosPerDay}}));
  RunDifferential(column, 12, 3000);
}

// --- Postings wipe what they drop ----------------------------------------------

size_t released_blocks = 0;
size_t released_nonzero = 0;

void CheckReleasedBlock(const void* region, size_t bytes) {
  ++released_blocks;
  const auto* p = static_cast<const unsigned char*>(region);
  if (std::any_of(p, p + bytes, [](unsigned char c) { return c != 0; })) {
    ++released_nonzero;
  }
}

// FIFO traffic on a few hot nodes grows, compacts, shrinks and frees
// posting arrays and map nodes; every block handed back is zero, and so is
// every consumed-prefix slot of a live posting.
TEST(PostingsTest, WipeEverySlotAndArrayTheyDrop) {
  const ColumnDef column =
      ColumnDef::Degradable("location", LocationDomain(), Fig2LocationLcp());
  const auto& domain = *column.hierarchy;
  released_blocks = released_nonzero = 0;
  MultiResolutionIndex::SetReleaseHookForTesting(&CheckReleasedBlock);
  {
    MultiResolutionIndex index(column);
    Random rng(5);
    std::vector<int64_t> leaf_of(1);  // by row id; row 0 is unused
    std::vector<bool> live(1, false);
    RowId next = 1;
    RowId head = 1;
    for (int round = 0; round < 40; ++round) {
      // A wave of inserts on 3 hot leaves, then a FIFO drain of most of
      // the table through phase 1 to removal, with user deletes ahead of
      // the head.
      const RowId wave_end = next + 200 + rng.Uniform(400);
      for (RowId row = next; row < wave_end; ++row) {
        leaf_of.push_back(static_cast<int64_t>(rng.Uniform(3)));
        live.push_back(true);
      }
      for (RowId row = next; row < wave_end; row += 2) {
        // Pairs commit out of order: row + 1 lands before row.
        if (row + 1 < wave_end) index.OnInsert(row + 1, 0, leaf_of[row + 1]);
        index.OnInsert(row, 0, leaf_of[row]);
      }
      next = wave_end;
      ASSERT_TRUE(index.VacatedSlotsZeroForTesting());
      const RowId drain_to = head + (next - head) * 3 / 4;
      for (; head < drain_to; ++head) {
        const RowId victim = head + rng.Uniform(next - head);
        if (rng.OneIn(7) && live[victim]) {
          EXPECT_TRUE(index.OnDelete(victim, 0, leaf_of[victim]).ok());
          live[victim] = false;
        }
        if (!live[head]) continue;
        const int64_t city = domain.AncestorRange(leaf_of[head], 1).lo;
        index.OnDegrade(head, 0, leaf_of[head], 1, city);
        index.OnDegrade(head, 1, city, column.lcp.num_phases(), -1);
        live[head] = false;
        ASSERT_TRUE(index.VacatedSlotsZeroForTesting());
      }
    }
    EXPECT_GT(index.memory().bytes, 0u);
  }
  MultiResolutionIndex::SetReleaseHookForTesting(nullptr);
  EXPECT_GT(released_blocks, 10u);
  EXPECT_EQ(released_nonzero, 0u);
}

// --- Footprint -----------------------------------------------------------------

class IndexFootprintTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/idb_index_footprint";
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
    clock_ = std::make_unique<VirtualClock>(0);
    DbOptions options;
    options.path = dir_;
    options.clock = clock_.get();
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
  }
  void TearDown() override {
    db_.reset();
    RemoveDirRecursive(dir_).ok();
  }

  /// Inserts `rows` rows whose degradable value `value(i)` gives.
  void Load(int rows, const std::function<Value(int)>& value) {
    for (int start = 0; start < rows; start += 1000) {
      WriteBatch batch;
      for (int i = start; i < std::min(rows, start + 1000); ++i) {
        batch.Insert("t", {Value::Int64(i), value(i)});
      }
      ASSERT_TRUE(db_->Write(&batch).ok());
    }
  }
  double BytesPerEntry() const {
    const MemoryUsage index = db_->stats().index;
    EXPECT_GT(index.entries, 0u);
    return static_cast<double>(index.bytes) /
           static_cast<double>(std::max<uint64_t>(index.entries, 1));
  }

  std::string dir_;
  std::unique_ptr<VirtualClock> clock_;
  std::unique_ptr<Database> db_;
};

// The benchmarks' location domain (4,096 addresses, Zipf-skewed): postings
// cost an array slot per row plus a map node per address in use.
TEST_F(IndexFootprintTest, AtMostSixteenBytesPerEntryOnLocationDomain) {
  auto domain = SyntheticLocationDomain(4, 8, 16, 8);
  auto schema = Schema::Make(
      {ColumnDef::Stable("id", ValueType::kInt64),
       ColumnDef::Degradable(
           "location", domain,
           *AttributeLcp::Make({{0, kMicrosPerHour}, {1, kForever}}))});
  ASSERT_TRUE(schema.ok());
  ASSERT_TRUE(db_->CreateTable("t", *schema).ok());
  constexpr int kRows = 100000;
  const int64_t leaves = *domain->CardinalityAtLevel(0);
  ZipfGenerator zipf(static_cast<uint64_t>(leaves), 0.8, 1);
  Load(kRows, [&](int) {
    return domain->AncestorValue(static_cast<int64_t>(zipf.Next()), 0);
  });
  EXPECT_EQ(db_->stats().index.entries, static_cast<uint64_t>(kRows));
  EXPECT_LE(BytesPerEntry(), 16.0);
}

// FIFO expiry down to zero live rows gives every byte back: twenty
// insert-then-expire waves end no larger than one, at the peak and after
// the drain.
TEST_F(IndexFootprintTest, ExpiryWavesDoNotGrowTheIndex) {
  auto domain = SyntheticLocationDomain(4, 8, 16, 8);
  auto schema = Schema::Make(
      {ColumnDef::Stable("id", ValueType::kInt64),
       ColumnDef::Degradable(
           "location", domain,
           *AttributeLcp::Make({{0, kMicrosPerHour}, {1, kMicrosPerHour}}))});
  ASSERT_TRUE(schema.ok());
  ASSERT_TRUE(db_->CreateTable("t", *schema).ok());
  const int64_t leaves = *domain->CardinalityAtLevel(0);
  uint64_t first_peak = 0;
  uint64_t first_drained = 0;
  for (int wave = 0; wave < 20; ++wave) {
    Random rng(7);  // the same values every wave
    Load(4000, [&](int) {
      return domain->AncestorValue(
          static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(leaves))), 0);
    });
    const uint64_t peak = db_->stats().index.bytes;
    clock_->Advance(2 * kMicrosPerHour + 1);
    ASSERT_TRUE(db_->RunDegradationOnce().ok());
    ASSERT_EQ(db_->GetTable("t")->live_rows(), 0u) << "wave " << wave;
    const MemoryUsage drained = db_->stats().index;
    EXPECT_EQ(drained.entries, 0u);
    if (wave == 0) {
      first_peak = peak;
      first_drained = drained.bytes;
      EXPECT_GT(peak, 0u);
    }
    EXPECT_LE(peak, first_peak) << "wave " << wave;
    EXPECT_LE(drained.bytes, first_drained) << "wave " << wave;
  }
}

// --- Forensic residue of the index -------------------------------------------

/// The key the paged B+-tree of earlier builds stored for a row: the
/// order-preserving encoding of Int64(node ordinal) — a 0x01 non-null tag,
/// then the value with its sign bit flipped, big-endian — followed by the
/// big-endian row id.
std::string TreeKey(int64_t ordinal, RowId row) {
  std::string key(1, '\x01');
  const uint64_t flipped = static_cast<uint64_t>(ordinal) ^ (1ULL << 63);
  for (int i = 7; i >= 0; --i) {
    key.push_back(static_cast<char>(flipped >> (8 * i)));
  }
  for (int i = 7; i >= 0; --i) key.push_back(static_cast<char>(row >> (8 * i)));
  return key;
}

/// After 3,000 addresses degrade to their city, no file and no freed block
/// holds the phase-0 key of any of them — the exact address, joined to its
/// row — in any WAL privacy mode, after a clean close, in the crash image
/// taken after degrade + checkpoint, and once that image recovered.
class IndexResidueTest
    : public ::testing::TestWithParam<std::tuple<WalPrivacyMode, bool>> {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/idb_index_residue";
    image_ = dir_ + "_crash";
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
    ASSERT_TRUE(RemoveDirRecursive(image_).ok());
  }
  void TearDown() override {
    RemoveDirRecursive(dir_).ok();
    RemoveDirRecursive(image_).ok();
  }

  std::unique_ptr<Database> OpenWith(const std::string& path, Env* env) {
    DbOptions options;
    options.path = path;
    options.env = env;
    options.clock = &clock_;
    options.wal.privacy_mode = std::get<0>(GetParam());
    auto db = Database::Open(options);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return db.ok() ? std::move(*db) : nullptr;
  }

  std::string dir_;
  std::string image_;
  VirtualClock clock_{0};
};

TEST_P(IndexResidueTest, NoPhaseZeroKeyOfADegradedRowSurvives) {
  const bool crash = std::get<1>(GetParam());
  auto domain = SyntheticLocationDomain(4, 8, 16, 8);
  auto schema = Schema::Make(
      {ColumnDef::Stable("id", ValueType::kInt64),
       ColumnDef::Degradable(
           "location", domain,
           *AttributeLcp::Make({{0, kMicrosPerHour}, {1, kForever}}))});
  ASSERT_TRUE(schema.ok());
  FaultInjectionEnv fault(Env::Default());
  FreedBlocksEnv freed(&fault);
  auto db = OpenWith(dir_, &freed);
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(db->CreateTable("pings", *schema).ok());

  const int64_t leaves = *domain->CardinalityAtLevel(0);
  Random rng(9);
  std::set<std::string> keys;
  WriteBatch batch;
  std::vector<int64_t> leaf_of;
  for (int i = 0; i < 3000; ++i) {
    leaf_of.push_back(
        static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(leaves))));
    batch.Insert("pings", {Value::Int64(i),
                           domain->AncestorValue(leaf_of.back(), 0)});
  }
  ASSERT_TRUE(db->Write(&batch).ok());
  std::vector<RowId> rows;
  auto stored = oracle::StoredRows(*db->GetTable("pings"));
  ASSERT_TRUE(stored.ok());
  for (const oracle::Stored& row : *stored) {
    rows.push_back(row.row_id);
    const int64_t leaf = leaf_of[static_cast<size_t>(row.values[0].int64())];
    // A row whose address is its city's first leaf has the same key in
    // phase 1, where it legitimately is now: only the others are residue.
    if (domain->AncestorRange(leaf, 1).lo != leaf) {
      keys.insert(TreeKey(leaf, row.row_id));
    }
  }
  ASSERT_EQ(rows.size(), 3000u);
  ASSERT_GT(keys.size(), 2000u);

  clock_.Advance(kMicrosPerHour + kMicrosPerSecond);
  auto degraded = db->RunDegradationOnce();
  ASSERT_TRUE(degraded.ok());
  ASSERT_EQ(*degraded, 3000u);
  ASSERT_TRUE(db->Checkpoint().ok());

  std::string scanned = dir_;
  if (crash) {
    ASSERT_TRUE(fault.SimulateCrashTo(dir_, image_).ok());
    EXPECT_EQ(CopiesUnder(image_, keys) + freed.Copies(keys), 0u)
        << "crash image";
    scanned = image_;
  }
  db.reset();
  if (!crash) {
    EXPECT_EQ(CopiesUnder(dir_, keys) + freed.Copies(keys), 0u)
        << "clean close";
  }

  FreedBlocksEnv reopen_freed(Env::Default());
  auto reopened = OpenWith(scanned, &reopen_freed);
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->GetTable("pings")->live_rows(), 3000u);
  ASSERT_TRUE(reopened->Close().ok());
  reopened.reset();
  EXPECT_EQ(CopiesUnder(scanned, keys) + reopen_freed.Copies(keys), 0u)
      << "after reopen";
}

INSTANTIATE_TEST_SUITE_P(
    PrivacyModes, IndexResidueTest,
    ::testing::Combine(::testing::Values(WalPrivacyMode::kPlain,
                                         WalPrivacyMode::kScrub,
                                         WalPrivacyMode::kCryptoErase),
                       ::testing::Bool()),
    [](const auto& info) {
      const WalPrivacyMode mode = std::get<0>(info.param);
      return std::string(mode == WalPrivacyMode::kPlain   ? "Plain"
                         : mode == WalPrivacyMode::kScrub ? "Scrub"
                                                          : "CryptoErase") +
             (std::get<1>(info.param) ? "Crash" : "Clean");
    });

}  // namespace
}  // namespace instantdb
