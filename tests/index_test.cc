#include <map>
#include <set>

#include "catalog/builtin_domains.h"
#include "common/random.h"
#include "gtest/gtest.h"
#include "index/btree.h"
#include "index/multires_index.h"
#include "util/file.h"

namespace instantdb {
namespace {

class BTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/idb_index_test";
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
    ASSERT_TRUE(CreateDirs(dir_).ok());
    auto dm = DiskManager::Open(dir_ + "/index.db", 4096);
    ASSERT_TRUE(dm.ok());
    disk_ = std::move(*dm);
    pool_ = std::make_unique<BufferPool>(disk_.get(), 256);
  }
  void TearDown() override { RemoveDirRecursive(dir_).ok(); }

  static std::string Key(int64_t v, RowId rid) {
    std::string out;
    BPlusTree::EncodeKey(Value::Int64(v), rid, &out);
    return out;
  }

  std::string dir_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
};

TEST_F(BTreeTest, InsertLookupSmall) {
  auto tree = BPlusTree::Create(pool_.get());
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE((*tree)->Insert(Key(5, 1), 1).ok());
  ASSERT_TRUE((*tree)->Insert(Key(3, 2), 2).ok());
  ASSERT_TRUE((*tree)->Insert(Key(9, 3), 3).ok());
  EXPECT_EQ((*tree)->num_entries(), 3u);
  EXPECT_TRUE(*(*tree)->Contains(Key(5, 1)));
  EXPECT_FALSE(*(*tree)->Contains(Key(5, 2)));
  EXPECT_FALSE(*(*tree)->Contains(Key(4, 1)));
}

TEST_F(BTreeTest, ScanIsOrderedAcrossSplits) {
  auto tree = BPlusTree::Create(pool_.get());
  ASSERT_TRUE(tree.ok());
  // Insert shuffled keys; enough volume to force leaf + internal splits.
  Random rng(42);
  std::vector<int64_t> values;
  for (int64_t i = 0; i < 5000; ++i) values.push_back(i);
  for (size_t i = values.size(); i > 1; --i) {
    std::swap(values[i - 1], values[rng.Uniform(i)]);
  }
  for (int64_t v : values) {
    ASSERT_TRUE((*tree)->Insert(Key(v, static_cast<RowId>(v)), static_cast<RowId>(v)).ok());
  }
  EXPECT_GT((*tree)->height(), 1);

  int64_t expect = 0;
  ASSERT_TRUE((*tree)
                  ->Scan("", "",
                         [&](Slice, RowId rid) {
                           EXPECT_EQ(rid, static_cast<RowId>(expect));
                           ++expect;
                           return true;
                         })
                  .ok());
  EXPECT_EQ(expect, 5000);
}

TEST_F(BTreeTest, RangeScanBounds) {
  auto tree = BPlusTree::Create(pool_.get());
  ASSERT_TRUE(tree.ok());
  for (int64_t v = 0; v < 100; ++v) {
    ASSERT_TRUE((*tree)->Insert(Key(v, static_cast<RowId>(v)), static_cast<RowId>(v)).ok());
  }
  std::string begin, end;
  BPlusTree::EncodeLowerBound(Value::Int64(10), &begin);
  BPlusTree::EncodeUpperBound(Value::Int64(19), &end);
  std::vector<RowId> rids;
  ASSERT_TRUE((*tree)
                  ->Scan(begin, end,
                         [&](Slice, RowId rid) {
                           rids.push_back(rid);
                           return true;
                         })
                  .ok());
  ASSERT_EQ(rids.size(), 10u);
  EXPECT_EQ(rids.front(), 10u);
  EXPECT_EQ(rids.back(), 19u);
}

TEST_F(BTreeTest, DuplicateValuesDistinctRows) {
  auto tree = BPlusTree::Create(pool_.get());
  ASSERT_TRUE(tree.ok());
  for (RowId r = 1; r <= 50; ++r) {
    ASSERT_TRUE((*tree)->Insert(Key(7, r), r).ok());
  }
  std::string begin, end;
  BPlusTree::EncodeLowerBound(Value::Int64(7), &begin);
  BPlusTree::EncodeUpperBound(Value::Int64(7), &end);
  size_t count = 0;
  ASSERT_TRUE((*tree)->Scan(begin, end, [&](Slice, RowId) {
                   ++count;
                   return true;
                 }).ok());
  EXPECT_EQ(count, 50u);
}

TEST_F(BTreeTest, DeleteThenScanSkips) {
  auto tree = BPlusTree::Create(pool_.get());
  ASSERT_TRUE(tree.ok());
  for (int64_t v = 0; v < 200; ++v) {
    ASSERT_TRUE((*tree)->Insert(Key(v, static_cast<RowId>(v)), static_cast<RowId>(v)).ok());
  }
  for (int64_t v = 0; v < 200; v += 2) {
    ASSERT_TRUE((*tree)->Delete(Key(v, static_cast<RowId>(v))).ok());
  }
  EXPECT_TRUE((*tree)->Delete(Key(0, 0)).IsNotFound());
  EXPECT_EQ((*tree)->num_entries(), 100u);
  size_t odd = 0;
  ASSERT_TRUE((*tree)->Scan("", "", [&](Slice, RowId rid) {
                   EXPECT_EQ(rid % 2, 1u);
                   ++odd;
                   return true;
                 }).ok());
  EXPECT_EQ(odd, 100u);
}

TEST_F(BTreeTest, RandomizedAgainstReferenceModel) {
  auto tree = BPlusTree::Create(pool_.get());
  ASSERT_TRUE(tree.ok());
  Random rng(7);
  std::map<std::string, RowId> model;
  for (int op = 0; op < 4000; ++op) {
    const int64_t v = static_cast<int64_t>(rng.Uniform(500));
    const RowId rid = rng.Uniform(50);
    const std::string key = Key(v, rid);
    if (rng.OneIn(3) && !model.empty()) {
      // Delete a random existing key.
      auto it = model.lower_bound(key);
      if (it == model.end()) it = model.begin();
      ASSERT_TRUE((*tree)->Delete(it->first).ok());
      model.erase(it);
    } else if (model.count(key) == 0) {
      ASSERT_TRUE((*tree)->Insert(key, rid).ok());
      model[key] = rid;
    }
  }
  EXPECT_EQ((*tree)->num_entries(), model.size());
  auto it = model.begin();
  ASSERT_TRUE((*tree)->Scan("", "", [&](Slice key, RowId rid) {
                   EXPECT_EQ(std::string(key), it->first);
                   EXPECT_EQ(rid, it->second);
                   ++it;
                   return true;
                 }).ok());
  EXPECT_EQ(it, model.end());
}

TEST_F(BTreeTest, MultipleTreesShareOnePool) {
  auto t1 = BPlusTree::Create(pool_.get());
  auto t2 = BPlusTree::Create(pool_.get());
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  for (int64_t v = 0; v < 100; ++v) {
    ASSERT_TRUE((*t1)->Insert(Key(v, 1), 1).ok());
    ASSERT_TRUE((*t2)->Insert(Key(v * 1000, 2), 2).ok());
  }
  EXPECT_EQ((*t1)->num_entries(), 100u);
  EXPECT_EQ((*t2)->num_entries(), 100u);
  // Re-open t1 by meta page and verify contents survive. Meta is kept in
  // memory on the operation hot path, so reattaching requires a Flush.
  ASSERT_TRUE((*t1)->Flush().ok());
  auto reopened = BPlusTree::Open(pool_.get(), (*t1)->meta_page());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->num_entries(), 100u);
  EXPECT_TRUE(*(*reopened)->Contains(Key(42, 1)));
}

// --- MultiResolutionIndex -----------------------------------------------------------

class MultiResIndexTest : public BTreeTest {
 protected:
  void SetUp() override {
    BTreeTest::SetUp();
    column_ = ColumnDef::Degradable("location", LocationDomain(),
                                    Fig2LocationLcp());
    index_ = std::make_unique<MultiResolutionIndex>(column_, pool_.get());
    ASSERT_TRUE(index_->Init().ok());
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
  ASSERT_TRUE(index_->OnInsert(1, Value::String("11 Rue Lepic")).ok());
  ASSERT_TRUE(index_->OnInsert(2, Value::String("3 Av Foch")).ok());
  ASSERT_TRUE(index_->OnInsert(3, Value::String("4 Rue Breteuil")).ok());

  EXPECT_EQ(Lookup("11 Rue Lepic", 0), (std::vector<RowId>{1}));
  EXPECT_EQ(Lookup("Paris", 1), (std::vector<RowId>{1, 2}));
  EXPECT_EQ(Lookup("Ile-de-France", 2), (std::vector<RowId>{1, 2}));
  EXPECT_EQ(Lookup("France", 3), (std::vector<RowId>{1, 2, 3}));
  EXPECT_EQ(Lookup("Marseille", 1), (std::vector<RowId>{3}));
}

TEST_F(MultiResIndexTest, DegradedEntryMovesBetweenPhaseTrees) {
  ASSERT_TRUE(index_->OnInsert(1, Value::String("11 Rue Lepic")).ok());
  EXPECT_EQ(index_->EntriesInPhase(0), 1u);
  // Degrade to phase 1 (city level): stored value becomes "Paris".
  ASSERT_TRUE(index_
                  ->OnDegrade(1, 0, Value::String("11 Rue Lepic"), 1,
                              Value::String("Paris"))
                  .ok());
  EXPECT_EQ(index_->EntriesInPhase(0), 0u);
  EXPECT_EQ(index_->EntriesInPhase(1), 1u);
  // Address-level lookup no longer finds it (strict computability):
  EXPECT_TRUE(Lookup("11 Rue Lepic", 0).empty());
  // City-level and coarser lookups still do:
  EXPECT_EQ(Lookup("Paris", 1), (std::vector<RowId>{1}));
  EXPECT_EQ(Lookup("France", 3), (std::vector<RowId>{1}));
}

TEST_F(MultiResIndexTest, RemovalDropsFromAllLevels) {
  ASSERT_TRUE(index_->OnInsert(1, Value::String("8 Cours Mirabeau")).ok());
  ASSERT_TRUE(index_
                  ->OnDegrade(1, 0, Value::String("8 Cours Mirabeau"), 1,
                              Value::String("Aix"))
                  .ok());
  // Final transition to ⊥ (to_phase == num_phases).
  ASSERT_TRUE(index_
                  ->OnDegrade(1, 1, Value::String("Aix"),
                              column_.lcp.num_phases(), Value::Null())
                  .ok());
  EXPECT_TRUE(Lookup("France", 3).empty());
  for (int p = 0; p < index_->num_phases(); ++p) {
    EXPECT_EQ(index_->EntriesInPhase(p), 0u);
  }
}

TEST_F(MultiResIndexTest, MixedPhasesUnionAtCoarseLevel) {
  // One row per phase, all under France.
  ASSERT_TRUE(index_->OnInsert(1, Value::String("11 Rue Lepic")).ok());
  ASSERT_TRUE(index_->OnInsert(2, Value::String("12 Rue Royale")).ok());
  ASSERT_TRUE(index_->OnInsert(3, Value::String("4 Rue Breteuil")).ok());
  ASSERT_TRUE(index_
                  ->OnDegrade(2, 0, Value::String("12 Rue Royale"), 1,
                              Value::String("Versailles"))
                  .ok());
  ASSERT_TRUE(index_
                  ->OnDegrade(3, 0, Value::String("4 Rue Breteuil"), 1,
                              Value::String("Marseille"))
                  .ok());
  ASSERT_TRUE(index_
                  ->OnDegrade(3, 1, Value::String("Marseille"), 2,
                              Value::String("Provence"))
                  .ok());
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
  MultiResolutionIndex index(salary, pool_.get());
  ASSERT_TRUE(index.Init().ok());
  for (RowId r = 1; r <= 10; ++r) {
    ASSERT_TRUE(index.OnInsert(r, Value::Int64(static_cast<int64_t>(r) * 500)).ok());
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
  ASSERT_TRUE(index.OnDegrade(2, 0, Value::Int64(1000), 1, Value::Int64(1000)).ok());
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

}  // namespace
}  // namespace instantdb
