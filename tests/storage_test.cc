#include <algorithm>
#include <deque>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "catalog/builtin_domains.h"
#include "common/random.h"
#include "db/database.h"
#include "extra_leaves.h"
#include "gtest/gtest.h"
#include "io/fault_env.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/heap_file.h"
#include "storage/key_manager.h"
#include "storage/record.h"
#include "storage/state_store.h"
#include "common/strings.h"
#include "util/file.h"

namespace instantdb {
namespace {

class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/idb_storage_test";
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
    ASSERT_TRUE(CreateDirs(dir_).ok());
  }
  void TearDown() override { RemoveDirRecursive(dir_).ok(); }

  std::string dir_;
};

// --- DiskManager ---------------------------------------------------------------

TEST_F(StorageTest, DiskManagerAllocateReadWrite) {
  auto dm = DiskManager::Open(dir_ + "/heap.db", 4096);
  ASSERT_TRUE(dm.ok());
  EXPECT_EQ((*dm)->num_pages(), 0u);
  auto p0 = (*dm)->AllocatePage();
  auto p1 = (*dm)->AllocatePage();
  ASSERT_TRUE(p0.ok());
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(*p0, 0u);
  EXPECT_EQ(*p1, 1u);

  std::string page(4096, 'x');
  ASSERT_TRUE((*dm)->WritePage(*p1, page.data()).ok());
  std::string read(4096, 0);
  ASSERT_TRUE((*dm)->ReadPage(*p1, read.data()).ok());
  // Every byte outside the checksum word [4..8) round-trips.
  EXPECT_EQ(read.substr(0, 4), page.substr(0, 4));
  EXPECT_EQ(read.substr(8), page.substr(8));
  // Fresh pages read back zeroed.
  ASSERT_TRUE((*dm)->ReadPage(*p0, read.data()).ok());
  EXPECT_EQ(read, std::string(4096, '\0'));
  EXPECT_FALSE((*dm)->ReadPage(7, read.data()).ok());
  EXPECT_FALSE((*dm)->WritePage(7, page.data()).ok());
}

TEST_F(StorageTest, DiskManagerReopenKeepsPages) {
  const std::string path = dir_ + "/heap.db";
  {
    auto dm = DiskManager::Open(path, 4096);
    ASSERT_TRUE(dm.ok());
    ASSERT_TRUE((*dm)->AllocatePage().ok());
    std::string page(4096, 'z');
    ASSERT_TRUE((*dm)->WritePage(0, page.data()).ok());
    ASSERT_TRUE((*dm)->Sync().ok());
  }
  auto dm = DiskManager::Open(path, 4096);
  ASSERT_TRUE(dm.ok());
  EXPECT_EQ((*dm)->num_pages(), 1u);
  std::string read(4096, 0);
  ASSERT_TRUE((*dm)->ReadPage(0, read.data()).ok());
  // Every byte outside the checksum word [4..8) survives the reopen.
  EXPECT_EQ(read.substr(0, 4), std::string(4, 'z'));
  EXPECT_EQ(read.substr(8), std::string(4096 - 8, 'z'));
}

// --- BufferPool ------------------------------------------------------------------

TEST_F(StorageTest, BufferPoolCachesAndEvicts) {
  auto dm = DiskManager::Open(dir_ + "/heap.db", 4096);
  ASSERT_TRUE(dm.ok());
  BufferPool pool(dm->get(), 2);

  PageId ids[3];
  for (auto& id : ids) {
    auto guard = pool.NewPage();
    ASSERT_TRUE(guard.ok());
    id = guard->id();
    guard->data()[0] = static_cast<char>('a' + id);
    guard->MarkDirty();
  }
  // Pool capacity 2: fetching all three again forces eviction + re-read.
  for (PageId id : ids) {
    auto guard = pool.FetchPage(id);
    ASSERT_TRUE(guard.ok());
    EXPECT_EQ(guard->data()[0], static_cast<char>('a' + id));
  }
  const auto stats = pool.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.dirty_writebacks, 0u);
}

TEST_F(StorageTest, BufferPoolPinPreventsEviction) {
  auto dm = DiskManager::Open(dir_ + "/heap.db", 4096);
  ASSERT_TRUE(dm.ok());
  BufferPool pool(dm->get(), 2);
  auto g0 = pool.NewPage();
  auto g1 = pool.NewPage();
  ASSERT_TRUE(g0.ok());
  ASSERT_TRUE(g1.ok());
  // Both frames pinned: a third page cannot be brought in.
  auto g2 = pool.NewPage();
  EXPECT_TRUE(g2.status().IsBusy());
  g0->Release();
  auto g3 = pool.NewPage();
  EXPECT_TRUE(g3.ok());
}

TEST_F(StorageTest, BufferPoolFlushAllPersists) {
  const std::string path = dir_ + "/heap.db";
  auto dm = DiskManager::Open(path, 4096);
  ASSERT_TRUE(dm.ok());
  {
    BufferPool pool(dm->get(), 4);
    auto guard = pool.NewPage();
    ASSERT_TRUE(guard.ok());
    std::memcpy(guard->data(), "persist-me", 10);
    guard->MarkDirty();
    guard->Release();
    ASSERT_TRUE(pool.FlushAll().ok());
  }
  std::string read(4096, 0);
  ASSERT_TRUE((*dm)->ReadPage(0, read.data()).ok());
  // Bytes outside the checksum word [4..8) are what was written.
  EXPECT_EQ(read.substr(0, 4), "pers");
  EXPECT_EQ(read.substr(8, 2), "me");
}

// --- HeapFile --------------------------------------------------------------------

/// A copy of the record at `rid` (HeapFile::Read lends it in place).
Result<std::string> Get(const HeapFile& heap, Rid rid) {
  std::string record;
  IDB_RETURN_IF_ERROR(
      heap.Read(rid, [&](Slice bytes) { record = std::string(bytes); }));
  return record;
}

class HeapFileTest : public StorageTest {
 protected:
  void SetUp() override {
    StorageTest::SetUp();
    auto dm = DiskManager::Open(dir_ + "/heap.db", 4096);
    ASSERT_TRUE(dm.ok());
    disk_ = std::move(*dm);
    pool_ = std::make_unique<BufferPool>(disk_.get(), 64);
    heap_ = std::make_unique<HeapFile>(pool_.get());
    ASSERT_TRUE(heap_->Open().ok());
  }

  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<HeapFile> heap_;
};

TEST_F(HeapFileTest, InsertGetDelete) {
  auto rid = heap_->Insert("hello record");
  ASSERT_TRUE(rid.ok());
  auto got = Get(*heap_, *rid);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "hello record");
  EXPECT_EQ(heap_->live_records(), 1u);
  ASSERT_TRUE(heap_->Delete(*rid).ok());
  EXPECT_TRUE(Get(*heap_, *rid).status().IsNotFound());
  EXPECT_TRUE(heap_->Delete(*rid).IsNotFound());
  EXPECT_EQ(heap_->live_records(), 0u);
}

TEST_F(HeapFileTest, DeleteScrubsBytes) {
  // The record's bytes must be zeroed in the page image (paper §III:
  // deleted data must be physically cleaned in the data space).
  const std::string payload = "TOP-SECRET-ADDRESS";
  auto rid = heap_->Insert(payload);
  ASSERT_TRUE(rid.ok());
  ASSERT_TRUE(heap_->Delete(*rid).ok());
  ASSERT_TRUE(pool_->FlushAll().ok());
  auto raw = ReadFileToString(dir_ + "/heap.db");
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(raw->find(payload), std::string::npos);
}

TEST_F(HeapFileTest, ManyInsertsSpanPages) {
  std::vector<Rid> rids;
  for (int i = 0; i < 2000; ++i) {
    auto rid = heap_->Insert(StringPrintf("record-%04d-xxxxxxxxxxxxxxxx", i));
    ASSERT_TRUE(rid.ok());
    rids.push_back(*rid);
  }
  EXPECT_GT(disk_->num_pages(), 1u);
  for (int i = 0; i < 2000; ++i) {
    auto got = Get(*heap_, rids[i]);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->substr(0, 11), StringPrintf("record-%04d", i));
  }
  EXPECT_EQ(heap_->live_records(), 2000u);
}

TEST_F(HeapFileTest, SlotReuseAfterDelete) {
  auto r1 = heap_->Insert("aaaa");
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(heap_->Delete(*r1).ok());
  auto r2 = heap_->Insert("bbbb");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->page, r2->page);
  EXPECT_EQ(r1->slot, r2->slot);  // slot recycled
}

TEST_F(HeapFileTest, UpdateInPlaceAndRelocating) {
  auto rid = heap_->Insert("0123456789");
  ASSERT_TRUE(rid.ok());
  Rid out;
  // Shrink stays put and scrubs the tail.
  ASSERT_TRUE(heap_->Update(*rid, "abc", &out).ok());
  EXPECT_EQ(out, *rid);
  EXPECT_EQ(*Get(*heap_, out), "abc");
  // Grow may relocate but keeps the data intact.
  const std::string big(1000, 'G');
  ASSERT_TRUE(heap_->Update(out, big, &out).ok());
  EXPECT_EQ(*Get(*heap_, out), big);
  EXPECT_EQ(heap_->live_records(), 1u);
}

TEST_F(HeapFileTest, ScanVisitsAllLiveRecords) {
  std::set<std::string> expect;
  for (int i = 0; i < 50; ++i) {
    const std::string payload = StringPrintf("row-%02d", i);
    ASSERT_TRUE(heap_->Insert(payload).ok());
    expect.insert(payload);
  }
  std::set<std::string> seen;
  ASSERT_TRUE(heap_->Scan([&](Rid, Slice record) {
                seen.insert(std::string(record));
                return true;
              }).ok());
  EXPECT_EQ(seen, expect);
  // Early stop.
  int count = 0;
  ASSERT_TRUE(heap_->Scan([&](Rid, Slice) { return ++count < 5; }).ok());
  EXPECT_EQ(count, 5);
}

TEST_F(HeapFileTest, OpenRebuildsFreeSpaceMap) {
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(heap_->Insert(StringPrintf("record-%03d-yyyyyyyy", i)).ok());
  }
  ASSERT_TRUE(pool_->FlushAll().ok());
  // Re-open over the same file.
  HeapFile reopened(pool_.get());
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_EQ(reopened.live_records(), 300u);
  auto rid = reopened.Insert("after-reopen");
  ASSERT_TRUE(rid.ok());
  EXPECT_EQ(*Get(reopened, *rid), "after-reopen");
}

TEST_F(HeapFileTest, RejectsOversizedRecord) {
  EXPECT_FALSE(heap_->Insert(std::string(5000, 'x')).ok());
}

// FIFO churn: with 20k records live, 200k inserts in all keep the heap at
// the size 20k records need, because deleted space is reused.
TEST_F(HeapFileTest, FifoChurnReusesDeletedSpace) {
  constexpr int kLive = 20000;
  constexpr int kTotal = 200000;
  std::deque<Rid> live;
  PageId steady_pages = 0;
  for (int i = 0; i < kTotal; ++i) {
    auto rid = heap_->Insert(StringPrintf("fifo-record-%07d-zzzz", i));
    ASSERT_TRUE(rid.ok()) << rid.status().ToString();
    live.push_back(*rid);
    if (i + 1 == kLive) steady_pages = disk_->num_pages();
    if (live.size() > kLive) {
      ASSERT_TRUE(heap_->Delete(live.front()).ok());
      live.pop_front();
    }
  }
  ASSERT_GT(steady_pages, 0u);
  EXPECT_LE(disk_->num_pages(), steady_pages * 11 / 10)
      << "20k live records grew the heap from " << steady_pages << " pages";
  EXPECT_EQ(heap_->live_records(), static_cast<uint64_t>(kLive));
}

/// A model of the heap's page figures, kept by the test from the rids the
/// heap hands out: a page's free figure is the page minus its 8-byte
/// header, 4 bytes per slot ever allocated and the live records' bytes.
struct HeapModel {
  static constexpr size_t kPage = 4096;
  std::vector<size_t> slots;       // per page: highest slot used + 1
  std::vector<size_t> live_bytes;  // per page
  std::map<std::pair<PageId, uint16_t>, std::string> records;

  size_t Free(PageId p) const {
    return kPage - 8 - 4 * slots[p] - live_bytes[p];
  }
  /// Reference first fit: the lowest page with room, else a new page.
  PageId FirstFit(size_t size) const {
    for (PageId p = 0; p < slots.size(); ++p) {
      if (Free(p) >= size + 4) return p;
    }
    return static_cast<PageId>(slots.size());
  }
  void Add(Rid rid, const std::string& record) {
    if (rid.page >= slots.size()) {
      slots.resize(rid.page + 1, 0);
      live_bytes.resize(rid.page + 1, 0);
    }
    slots[rid.page] = std::max<size_t>(slots[rid.page], rid.slot + 1u);
    live_bytes[rid.page] += record.size();
    records[{rid.page, rid.slot}] = record;
  }
  void Remove(Rid rid) {
    live_bytes[rid.page] -= records.at({rid.page, rid.slot}).size();
    records.erase({rid.page, rid.slot});
  }
};

// A seeded trace of inserts, deletes, shrinking and growing updates: every
// insert lands on the page a linear first-fit scan of the model picks, and
// the heap's per-page figures and records match the model throughout.
TEST_F(HeapFileTest, FirstFitMatchesALinearScan) {
  Random rng(31);
  HeapModel model;
  std::vector<Rid> rids;  // live records, in no particular order
  const auto record_of = [&](size_t size) {
    return std::string(size, static_cast<char>('a' + rng.Uniform(26)));
  };
  for (int op = 0; op < 20000; ++op) {
    const uint64_t kind = rids.size() < 50 ? 0 : rng.Uniform(10);
    if (kind < 4) {  // insert
      const std::string record = record_of(8 + rng.Uniform(400));
      const PageId expect = model.FirstFit(record.size());
      auto rid = heap_->Insert(record);
      ASSERT_TRUE(rid.ok()) << rid.status().ToString();
      ASSERT_EQ(rid->page, expect) << "op " << op;
      model.Add(*rid, record);
      rids.push_back(*rid);
    } else {
      const size_t pick = rng.Uniform(rids.size());
      const Rid rid = rids[pick];
      const size_t old_size = model.records.at({rid.page, rid.slot}).size();
      if (kind < 7) {  // delete
        ASSERT_TRUE(heap_->Delete(rid).ok());
        model.Remove(rid);
        rids[pick] = rids.back();
        rids.pop_back();
      } else if (kind < 9 || old_size > 1500) {  // shrink in place
        const std::string record = record_of(1 + rng.Uniform(old_size));
        Rid out;
        ASSERT_TRUE(heap_->Update(rid, record, &out).ok());
        ASSERT_EQ(out, rid);
        model.Remove(rid);
        model.Add(rid, record);
      } else {  // grow: relocates through first fit
        const std::string record = record_of(old_size + 1 + rng.Uniform(400));
        model.Remove(rid);
        const PageId expect = model.FirstFit(record.size());
        Rid out;
        ASSERT_TRUE(heap_->Update(rid, record, &out).ok());
        ASSERT_EQ(out.page, expect) << "op " << op;
        model.Add(out, record);
        rids[pick] = out;
      }
    }
    if (op % 500 == 0 || op == 19999) {
      ASSERT_EQ(disk_->num_pages(), model.slots.size());
      for (PageId p = 0; p < model.slots.size(); ++p) {
        ASSERT_EQ(heap_->page_free(p), model.Free(p)) << "page " << p;
      }
      for (const auto& [at, record] : model.records) {
        ASSERT_EQ(*Get(*heap_, Rid{at.first, at.second}), record);
      }
    }
  }
  EXPECT_EQ(heap_->live_records(), model.records.size());
}

// A reopened heap recomputes the holes from the slot lengths and reuses
// them: the figures survive the reopen, and the next inserts fill the
// holed first page instead of growing the file.
TEST_F(HeapFileTest, ReopenedHeapReusesHoles) {
  std::vector<Rid> rids;
  for (int i = 0; i < 600; ++i) {
    auto rid = heap_->Insert(StringPrintf("holed-record-%04d-wwwwwwwwww", i));
    ASSERT_TRUE(rid.ok());
    rids.push_back(*rid);
  }
  const PageId pages = disk_->num_pages();
  ASSERT_GT(pages, 2u);
  // Empty most of page 0 and shrink some records of page 1.
  std::vector<Rid> freed;
  for (const Rid& rid : rids) {
    if (rid.page == 0 && rid.slot % 5 != 0) {
      ASSERT_TRUE(heap_->Delete(rid).ok());
      freed.push_back(rid);
    } else if (rid.page == 1) {
      Rid out;
      ASSERT_TRUE(heap_->Update(rid, "short", &out).ok());
    }
  }
  std::vector<size_t> figures;
  for (PageId p = 0; p < pages; ++p) figures.push_back(heap_->page_free(p));
  ASSERT_GT(figures[0], 1000u);
  ASSERT_TRUE(pool_->FlushAll().ok());

  HeapFile reopened(pool_.get());
  ASSERT_TRUE(reopened.Open().ok());
  for (PageId p = 0; p < pages; ++p) {
    EXPECT_EQ(reopened.page_free(p), figures[p]) << "page " << p;
  }
  for (size_t i = 0; i < freed.size(); ++i) {
    auto rid = reopened.Insert(StringPrintf("reused-%04zu-vvvvvvvvvvv", i));
    ASSERT_TRUE(rid.ok());
    EXPECT_EQ(rid->page, 0u) << "insert " << i;
  }
  EXPECT_EQ(disk_->num_pages(), pages);
  for (size_t i = 0; i < rids.size(); ++i) {
    if (rids[i].page != 0 || rids[i].slot % 5 != 0) continue;
    EXPECT_EQ(*Get(reopened, rids[i]),
              StringPrintf("holed-record-%04zu-wwwwwwwwww", i));
  }
}

// --- record codec ------------------------------------------------------------------

TEST(RecordCodecTest, RoundTrip) {
  auto schema = *Schema::Make(
      {ColumnDef::Stable("id", ValueType::kInt64),
       ColumnDef::Stable("name", ValueType::kString),
       ColumnDef::Degradable("location", LocationDomain(), Fig2LocationLcp())});
  HeapTuple tuple;
  tuple.row_id = 42;
  tuple.insert_time = kMicrosPerHour;
  tuple.stable = {Value::Int64(7), Value::String("alice")};
  std::string buf;
  EncodeHeapTuple(tuple, &buf);
  HeapTuple out;
  ASSERT_TRUE(DecodeHeapTuple(schema, buf, &out).ok());
  EXPECT_EQ(out.row_id, 42u);
  EXPECT_EQ(out.insert_time, kMicrosPerHour);
  ASSERT_EQ(out.stable.size(), 2u);
  EXPECT_EQ(out.stable[1], Value::String("alice"));
}

TEST(RecordCodecTest, LegacyInlineImagesAreCorruption) {
  // Older builds could keep degradable values inline: after the stable
  // part, one varint phase plus one encoded Value per degradable column.
  // Such a record must be refused, never read with its images ignored.
  auto schema = *Schema::Make(
      {ColumnDef::Stable("id", ValueType::kInt64),
       ColumnDef::Degradable("location", LocationDomain(), Fig2LocationLcp()),
       ColumnDef::Stable("name", ValueType::kString),
       ColumnDef::Degradable("salary", SalaryDomain(),
                             AttributeLcp::Retention(kMicrosPerDay))});
  const size_t stable = schema.stable_columns().size();
  HeapTuple tuple;
  tuple.row_id = 1;
  tuple.insert_time = 5;
  tuple.stable = {Value::Int64(9), Value::String("bob")};
  std::string legacy;
  EncodeHeapTuple(tuple, &legacy);
  PutVarint32(&legacy, 1);
  Value::String("Paris").EncodeTo(&legacy);
  PutVarint32(&legacy, 0);
  Value::Int64(2345).EncodeTo(&legacy);

  HeapTuple out;
  EXPECT_TRUE(DecodeHeapTuple(schema, legacy, &out).IsCorruption());
  // The scan's walk refuses it too, whatever it would keep of the fields.
  RowId row_id;
  Micros insert_time;
  EXPECT_FALSE(WalkHeapRecord(legacy, stable, &row_id, &insert_time,
                              [](size_t, const FieldView&) {}));
}

TEST(RecordCodecTest, WalkViewsEveryStableFieldAndChecksFraming) {
  auto schema = *Schema::Make(
      {ColumnDef::Stable("id", ValueType::kInt64),
       ColumnDef::Stable("name", ValueType::kString),
       ColumnDef::Degradable("location", LocationDomain(), Fig2LocationLcp()),
       ColumnDef::Stable("score", ValueType::kDouble),
       ColumnDef::Stable("flag", ValueType::kBool),
       ColumnDef::Stable("seen", ValueType::kTimestamp),
       ColumnDef::Stable("note", ValueType::kString)});
  const size_t stable = schema.stable_columns().size();
  ASSERT_EQ(stable, 6u);
  HeapTuple tuple;
  tuple.row_id = 300;
  tuple.insert_time = 7 * kMicrosPerHour;
  tuple.stable = {Value::Int64(-12345), Value::String("alice"),
                  Value::Double(2.5),   Value::Bool(true),
                  Value::Timestamp(99), Value::Null()};
  std::string buf;
  EncodeHeapTuple(tuple, &buf);

  // One view per stable field, each the Value it encodes.
  RowId row_id = kInvalidRowId;
  Micros insert_time = 0;
  size_t fields = 0;
  ASSERT_TRUE(WalkHeapRecord(buf, stable, &row_id, &insert_time,
                             [&](size_t i, const FieldView& field) {
                               EXPECT_EQ(i, fields++);
                               EXPECT_EQ(field.ToValue(), tuple.stable[i])
                                   << i;
                             }));
  EXPECT_EQ(fields, stable);
  EXPECT_EQ(row_id, tuple.row_id);
  EXPECT_EQ(insert_time, tuple.insert_time);
  HeapTuple decoded;
  ASSERT_TRUE(DecodeHeapTuple(schema, buf, &decoded).ok());
  EXPECT_EQ(decoded.stable, tuple.stable);

  // Every truncation and any trailing byte is Corruption, for the walk and
  // for the decoder built on it.
  auto walks = [&](Slice input) {
    return WalkHeapRecord(input, stable, &row_id, &insert_time,
                          [](size_t, const FieldView&) {});
  };
  for (size_t len = 0; len < buf.size(); ++len) {
    const Slice cut(buf.data(), len);
    EXPECT_FALSE(walks(cut)) << "len " << len;
    EXPECT_TRUE(DecodeHeapTuple(schema, cut, &decoded).IsCorruption())
        << "len " << len;
  }
  EXPECT_FALSE(walks(buf + "x"));
  EXPECT_TRUE(DecodeHeapTuple(schema, buf + "x", &decoded).IsCorruption());
}

TEST(RecordCodecTest, FieldParseRejectsEveryTruncation) {
  // The scan's field walk borrows string bytes in place, so a length that
  // runs past the record must fail right there, never yield a view beyond
  // the input — whether or not another field follows.
  const std::vector<Value> values = {
      Value::Null(),        Value::Int64(-1),   Value::Int64(300),
      Value::Double(2.5),   Value::Bool(true),  Value::Timestamp(1 << 20),
      Value::String("alice"), Value::String(std::string(200, 'x'))};
  for (const Value& value : values) {
    std::string buf;
    value.EncodeTo(&buf);
    FieldView field;
    EXPECT_EQ(FieldView::Parse(buf.data(), buf.data() + buf.size(), &field),
              buf.data() + buf.size())
        << value.ToString();
    EXPECT_EQ(field.ToValue(), value);
    for (size_t len = 0; len < buf.size(); ++len) {
      EXPECT_EQ(FieldView::Parse(buf.data(), buf.data() + len, &field),
                nullptr)
          << value.ToString() << " len " << len;
    }
  }
  const char unknown_tag[] = {0x7F, 0};
  FieldView field;
  EXPECT_EQ(FieldView::Parse(unknown_tag, unknown_tag + 2, &field), nullptr);
}

// --- KeyManager ------------------------------------------------------------------

TEST_F(StorageTest, KeyManagerMintGetDestroy) {
  KeyManager keys(dir_ + "/keystore");
  ASSERT_TRUE(keys.Open().ok());
  auto k1 = keys.GetOrCreate("t1.c0.p0.s0");
  ASSERT_TRUE(k1.ok());
  auto k1_again = keys.GetOrCreate("t1.c0.p0.s0");
  ASSERT_TRUE(k1_again.ok());
  EXPECT_EQ(*k1, *k1_again);
  auto k2 = keys.GetOrCreate("t1.c0.p0.s1");
  ASSERT_TRUE(k2.ok());
  EXPECT_NE(*k1, *k2);

  ASSERT_TRUE(keys.Destroy("t1.c0.p0.s0").ok());
  EXPECT_TRUE(keys.Get("t1.c0.p0.s0").status().IsNotFound());
  EXPECT_TRUE(keys.IsDestroyed("t1.c0.p0.s0"));
  EXPECT_EQ(keys.live_keys(), 1u);
  EXPECT_EQ(keys.keys_destroyed(), 1u);
}

TEST_F(StorageTest, KeyManagerPersistsAcrossReopen) {
  const std::string path = dir_ + "/keystore";
  ChaCha20::Key original;
  {
    KeyManager keys(path);
    ASSERT_TRUE(keys.Open().ok());
    original = *keys.GetOrCreate("a");
    ASSERT_TRUE(keys.GetOrCreate("b").ok());
    ASSERT_TRUE(keys.Destroy("b").ok());
  }
  KeyManager keys(path);
  ASSERT_TRUE(keys.Open().ok());
  auto a = keys.Get("a");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, original);
  EXPECT_TRUE(keys.Get("b").status().IsNotFound());
  EXPECT_TRUE(keys.IsDestroyed("b"));
}

TEST_F(StorageTest, KeyManagerDestroyRemovesBytesFromDisk) {
  const std::string path = dir_ + "/keystore";
  KeyManager keys(path);
  ASSERT_TRUE(keys.Open().ok());
  auto key = keys.GetOrCreate("victim");
  ASSERT_TRUE(key.ok());
  const std::string key_bytes(reinterpret_cast<const char*>(key->data()),
                              key->size());
  {
    auto contents = ReadFileToString(path);
    ASSERT_TRUE(contents.ok());
    EXPECT_NE(contents->find(key_bytes), std::string::npos);
  }
  ASSERT_TRUE(keys.Destroy("victim").ok());
  auto contents = ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents->find(key_bytes), std::string::npos);
}

// --- StateStore -------------------------------------------------------------------

/// Every string the StateStoreTest cases store as a level-0 value.
std::vector<std::string> StoreTestLabels() {
  std::vector<std::string> labels = {
      "v", "x", "a", "a-again", "late", "redo", "new", "keep", "payload",
      "abcdef", "vvvvvvvvvvvv", "VERY-SENSITIVE-LOCATION",
      "PLAINTEXT-SHOULD-NOT-APPEAR", "DELETED-SECRET-PAYLOAD"};
  for (int i = 1; i <= 100; ++i) labels.push_back("v" + std::to_string(i));
  for (int i = 1; i <= 40; ++i) labels.push_back("value-" + std::to_string(i));
  return labels;
}

class StateStoreTest : public StorageTest,
                       public ::testing::WithParamInterface<EraseMode> {
 protected:
  StorageOptions MakeOptions() {
    StorageOptions options;
    options.segment_bytes = 256;  // tiny segments to exercise rollover
    options.erase_mode = GetParam();
    return options;
  }

  /// A store over the location tree (plus StoreTestLabels() as extra
  /// addresses) at accuracy level `phase` (the Fig. 2 LCP keeps phase p at
  /// level p).
  std::unique_ptr<StateStore> MakeStore(int phase = 0) {
    keys_ = std::make_unique<KeyManager>(dir_ + "/keystore");
    if (!keys_->Open().ok()) return nullptr;
    return std::make_unique<StateStore>(dir_ + "/store", TableId{1}, 0, phase,
                                        domain_.get(), /*level=*/phase,
                                        MakeOptions(), keys_.get());
  }

  StoreEntry Entry(RowId id, const std::string& value) {
    return StoreEntry{id, static_cast<Micros>(id) * kMicrosPerMinute,
                      Value::String(value)};
  }

  /// What a degradation step's redo does: pop each collected id (here, the
  /// FIFO prefix 1..up_to); ids not in the store are no-ops.
  void PopIdsThrough(StateStore* store, RowId up_to) {
    for (RowId id = 1; id <= up_to; ++id) {
      ASSERT_TRUE(store->PopById(id).ok());
    }
  }

  /// Checkpoints a fresh store holding one entry in its one segment, then
  /// replaces that segment's bytes with `bytes`. Returns the segment's path.
  std::string WriteOnlySegment(const std::string& bytes) {
    EXPECT_TRUE(RemoveDirRecursive(dir_ + "/store").ok());
    if (FileExists(dir_ + "/keystore")) {
      EXPECT_TRUE(RemoveFile(dir_ + "/keystore").ok());
    }
    {
      auto store = MakeStore();
      EXPECT_TRUE(store->Open().ok());
      EXPECT_TRUE(store->Append(Entry(1, "abcdef")).ok());
      EXPECT_TRUE(store->Checkpoint().ok());
    }
    const std::string segment = dir_ + "/store/seg_00000000.dat";
    EXPECT_TRUE(FileExists(segment));
    EXPECT_TRUE(WriteStringToFile(segment, bytes, /*sync=*/true).ok());
    return segment;
  }

  /// The stored value of a level-0 entry, rebuilt from its leaf ordinal.
  Value ValueOf(const StoreEntryView& entry) const {
    return domain_->AncestorValue(entry.ordinal, 0);
  }

  std::unique_ptr<KeyManager> keys_;
  const std::shared_ptr<const DomainHierarchy> domain_ =
      WithExtraLeaves(*LocationDomain(), StoreTestLabels());
};

TEST_P(StateStoreTest, AppendPopFifoOrder) {
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  for (RowId id = 1; id <= 100; ++id) {
    ASSERT_TRUE(store->Append(Entry(id, StringPrintf("v%llu",
                                     static_cast<unsigned long long>(id))))
                    .ok());
  }
  EXPECT_EQ(store->size(), 100u);
  for (RowId id = 1; id <= 100; ++id) {
    StoreEntryView out;
    ASSERT_TRUE(store->PopHead(&out).ok());
    EXPECT_EQ(out.row_id, id);
  }
  EXPECT_TRUE(store->empty());
  StoreEntryView out;
  EXPECT_TRUE(store->PopHead(&out).IsNotFound());
  // With 256-byte segments, 100 entries spanned several segments, and all
  // must have been erased.
  EXPECT_GT(store->stats().segments_created, 2u);
  EXPECT_EQ(store->stats().segments_erased, store->stats().segments_created);
}

TEST_P(StateStoreTest, FindAndForEach) {
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  for (RowId id = 10; id <= 100; id += 10) {
    ASSERT_TRUE(store->Append(Entry(id, "x")).ok());
  }
  ASSERT_NE(store->Find(50), std::nullopt);
  EXPECT_EQ(store->Find(50)->row_id, 50u);
  EXPECT_EQ(store->Find(55), std::nullopt);
  EXPECT_EQ(store->Find(5), std::nullopt);
  EXPECT_EQ(store->Find(500), std::nullopt);
  size_t n = 0;
  store->ForEach([&](const StoreEntryView&) { return ++n < 4; });
  EXPECT_EQ(n, 4u);
}

TEST_P(StateStoreTest, FindManyMatchesPerIdFind) {
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  // A dense run, a sparse run, and a tail committed out of row-id order.
  std::vector<RowId> appended;
  for (RowId id = 1; id <= 300; ++id) appended.push_back(id);
  for (RowId id = 1000; id <= 3000; id += 37) appended.push_back(id);
  for (RowId id : {5000u, 4990u, 5003u, 4995u, 5001u}) appended.push_back(id);
  for (RowId id : appended) ASSERT_TRUE(store->Append(Entry(id, "v")).ok());
  ASSERT_EQ(store->size(), appended.size());

  constexpr int64_t kPreset = 1 << 20;  // no leaf of the test domain
  auto check = [&](const std::vector<RowId>& ids, const char* what) {
    // Every third slot arrives already resolved (by an earlier phase's
    // store): FindMany must leave it alone and not count it.
    std::vector<int64_t> out(ids.size(), -1);
    std::vector<int64_t> expected(ids.size(), -1);
    size_t expected_hits = 0;
    for (size_t j = 0; j < ids.size(); ++j) {
      if (j % 3 == 2) {
        out[j] = expected[j] = kPreset;
        continue;
      }
      const std::optional<StoreEntryView> hit = store->Find(ids[j]);
      if (hit) {
        expected[j] = hit->ordinal;
        ++expected_hits;
      }
    }
    EXPECT_EQ(store->FindMany(ids.data(), ids.size(), out.data()),
              expected_hits)
        << what;
    EXPECT_EQ(out, expected) << what;
  };

  std::vector<RowId> dense;
  for (RowId id = 1; id <= 300; ++id) dense.push_back(id);
  check(dense, "dense");
  std::vector<RowId> sparse;
  for (RowId id = 0; id <= 6000; id += 7) sparse.push_back(id);
  check(sparse, "sparse");
  std::vector<RowId> everything = appended;
  for (RowId id = 0; id <= 5100; id += 101) everything.push_back(id);
  std::sort(everything.begin(), everything.end());
  everything.erase(std::unique(everything.begin(), everything.end()),
                   everything.end());
  check(everything, "appended plus misses");
  check({4990, 4995, 5000, 5001, 5003}, "out-of-order tail");
  check({0, 6000}, "all misses");
  check({}, "empty batch");
}

TEST_P(StateStoreTest, AppendIsIdempotentOnRowId) {
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  ASSERT_TRUE(store->Append(Entry(5, "a")).ok());
  ASSERT_TRUE(store->Append(Entry(5, "a-again")).ok());  // duplicate: ignored
  EXPECT_EQ(store->size(), 1u);
  // A transaction committing slightly out of row-id order still lands in
  // its FIFO position (concurrent WriteBatch ingest commits out of order).
  ASSERT_TRUE(store->Append(Entry(3, "late")).ok());
  EXPECT_EQ(store->size(), 2u);
  EXPECT_EQ(ValueOf(store->Head()), Value::String("late"));
  EXPECT_EQ(store->Head().row_id, 3u);
}

TEST_P(StateStoreTest, PopByIdPopsExactlyThatEntry) {
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  for (RowId id : {1u, 2u, 3u}) {
    ASSERT_TRUE(store->Append(Entry(id, "v")).ok());
  }
  ASSERT_TRUE(store->PopById(2).ok());
  EXPECT_EQ(store->size(), 2u);
  EXPECT_EQ(store->Find(2), std::nullopt);
  EXPECT_NE(store->Find(1), std::nullopt);
  EXPECT_NE(store->Find(3), std::nullopt);
  ASSERT_TRUE(store->PopById(2).ok());   // idempotent
  ASSERT_TRUE(store->PopById(99).ok());  // never appended: no-op
  EXPECT_EQ(store->size(), 2u);
}

TEST_P(StateStoreTest, ReplayGuardAndSurvivorsAcrossReopen) {
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  for (RowId id : {4u, 5u, 6u}) {
    ASSERT_TRUE(store->Append(Entry(id, "v" + std::to_string(id))).ok());
  }
  ASSERT_TRUE(store->PopById(4).ok());
  ASSERT_TRUE(store->PopById(5).ok());  // watermark now 5
  // Late out-of-order commit below the live watermark: accepted (it was
  // never popped) — this is a first-time append, not redo.
  ASSERT_TRUE(store->Append(Entry(2, "late")).ok());
  EXPECT_EQ(store->size(), 2u);
  ASSERT_TRUE(store->Checkpoint().ok());

  // Crash + reopen: the survivor (2) below the watermark stays live and
  // the popped ids (4, 5) stay popped.
  store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  EXPECT_EQ(store->size(), 2u);
  ASSERT_NE(store->Find(2), std::nullopt);
  EXPECT_EQ(ValueOf(*store->Find(2)), Value::String("late"));
  EXPECT_NE(store->Find(6), std::nullopt);
  EXPECT_EQ(store->Find(4), std::nullopt);
  // A replayed append of a live id dedupes; a replayed append of an id
  // whose pop is also in the replayable suffix comes back and is re-popped
  // by the degrade record that follows in log order.
  ASSERT_TRUE(store->Append(Entry(2, "redo")).ok());
  EXPECT_EQ(store->size(), 2u);
  ASSERT_TRUE(store->Append(Entry(4, "redo")).ok());
  ASSERT_TRUE(store->PopById(4).ok());
  EXPECT_EQ(store->size(), 2u);
  EXPECT_EQ(store->Find(4), std::nullopt);
  // The popped ids were appended once: id allocation must stay above them.
  EXPECT_GE(store->LastAppendedRowId(), 5u);
}

TEST_P(StateStoreTest, PrefixPopRedoIsIdempotent) {
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  for (RowId id = 1; id <= 10; ++id) {
    ASSERT_TRUE(store->Append(Entry(id, "v")).ok());
  }
  PopIdsThrough(store.get(), 4);
  EXPECT_EQ(store->size(), 6u);
  PopIdsThrough(store.get(), 4);  // redo: all no-ops
  EXPECT_EQ(store->size(), 6u);
  EXPECT_EQ(store->Head().row_id, 5u);
}

TEST_P(StateStoreTest, SegmentHoldingNothingOpensEmptyAndIsErased) {
  // A crash before the first tail flush leaves at most a prefix of the
  // 8-byte magic. EraseSegment zero-overwrites before it unlinks, so a
  // crash in between leaves zeros where the magic was.
  std::vector<std::string> contents;
  for (size_t size = 0; size < 8; ++size) {
    contents.push_back(std::string("IDBSSG2\n").substr(0, size));
  }
  contents.push_back(std::string(64, '\0'));
  for (const std::string& bytes : contents) {
    SCOPED_TRACE(bytes.size());
    const std::string segment = WriteOnlySegment(bytes);
    auto store = MakeStore();
    const Status opened = store->Open();
    ASSERT_TRUE(opened.ok()) << opened.ToString();
    EXPECT_TRUE(store->empty());
    EXPECT_FALSE(FileExists(segment));
  }
}

TEST_P(StateStoreTest, SegmentWithoutTheMagicIsCorruption) {
  // Headerless `[u32 len][payload]` frames are never parsed as entries.
  std::string payload;
  PutVarint64(&payload, 1);
  PutVarint64(&payload, static_cast<uint64_t>(kMicrosPerMinute));
  Value::String("abcdef").EncodeTo(&payload);
  std::string headerless;
  PutFixed32(&headerless, static_cast<uint32_t>(payload.size()));
  headerless += payload;
  for (const std::string& bytes : {headerless, std::string("IDBSSG1\n")}) {
    const std::string segment = WriteOnlySegment(bytes);
    auto store = MakeStore();
    const Status opened = store->Open();
    EXPECT_TRUE(opened.IsCorruption()) << opened.ToString();
    auto kept = ReadFileToString(segment);
    ASSERT_TRUE(kept.ok());
    EXPECT_EQ(*kept, bytes);
  }
}

TEST_P(StateStoreTest, ReopenRecoversLiveEntries) {
  {
    auto store = MakeStore();
    ASSERT_TRUE(store->Open().ok());
    for (RowId id = 1; id <= 40; ++id) {
      ASSERT_TRUE(store->Append(Entry(id, StringPrintf("value-%llu",
                                       static_cast<unsigned long long>(id))))
                      .ok());
    }
    PopIdsThrough(store.get(), 15);
    ASSERT_TRUE(store->Checkpoint().ok());
  }
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  EXPECT_EQ(store->size(), 25u);
  EXPECT_EQ(store->Head().row_id, 16u);
  EXPECT_EQ(store->LastAppendedRowId(), 40u);
  // Appends continue after the recovered tail.
  ASSERT_TRUE(store->Append(Entry(41, "new")).ok());
  EXPECT_EQ(store->size(), 26u);
}

TEST_P(StateStoreTest, ReopenWithoutCheckpointReplaysViaPops) {
  // Without a checkpoint meta, pops since the last checkpoint come back as
  // live entries; the WAL redo (pop by collected id) must drain them again.
  {
    auto store = MakeStore();
    ASSERT_TRUE(store->Open().ok());
    for (RowId id = 1; id <= 20; ++id) {
      ASSERT_TRUE(store->Append(Entry(id, "v")).ok());
    }
    ASSERT_TRUE(store->Checkpoint().ok());
    PopIdsThrough(store.get(), 8);
    // Crash here: no second checkpoint.
  }
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  // Entries in segments that were fully drained+erased stay gone; the
  // partially drained head segment resurfaces its entries.
  ASSERT_FALSE(store->empty());
  PopIdsThrough(store.get(), 8);  // idempotent redo
  EXPECT_EQ(store->Head().row_id, 9u);
  EXPECT_EQ(store->size(), 12u);
}

TEST_P(StateStoreTest, ErasedSegmentsLeaveNoPlaintext) {
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  const std::string secret = "VERY-SENSITIVE-LOCATION";
  for (RowId id = 1; id <= 30; ++id) {
    ASSERT_TRUE(store->Append(Entry(id, secret)).ok());
  }
  ASSERT_TRUE(store->Checkpoint().ok());
  PopIdsThrough(store.get(), 30);
  // Every byte under the store directory must be free of the secret.
  auto names = ListDir(dir_ + "/store");
  ASSERT_TRUE(names.ok());
  for (const std::string& name : *names) {
    auto contents = ReadFileToString(dir_ + "/store/" + name);
    ASSERT_TRUE(contents.ok());
    EXPECT_EQ(contents->find(secret), std::string::npos) << name;
  }
}

TEST_P(StateStoreTest, CiphertextAtRestForCryptoMode) {
  if (GetParam() != EraseMode::kCryptoErase) GTEST_SKIP();
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  const std::string secret = "PLAINTEXT-SHOULD-NOT-APPEAR";
  ASSERT_TRUE(store->Append(Entry(1, secret)).ok());
  ASSERT_TRUE(store->Checkpoint().ok());
  auto names = ListDir(dir_ + "/store");
  ASSERT_TRUE(names.ok());
  for (const std::string& name : *names) {
    if (!StartsWith(name, "seg_")) continue;
    auto contents = ReadFileToString(dir_ + "/store/" + name);
    ASSERT_TRUE(contents.ok());
    EXPECT_EQ(contents->find(secret), std::string::npos) << name;
  }
}

TEST_P(StateStoreTest, TornTailFrameIsDropped) {
  {
    auto store = MakeStore();
    ASSERT_TRUE(store->Open().ok());
    for (RowId id = 1; id <= 3; ++id) {
      ASSERT_TRUE(store->Append(Entry(id, "abcdef")).ok());
    }
    ASSERT_TRUE(store->Checkpoint().ok());
  }
  // Simulate a torn write by chopping bytes off the tail segment.
  auto names = ListDir(dir_ + "/store");
  ASSERT_TRUE(names.ok());
  for (const std::string& name : *names) {
    if (!StartsWith(name, "seg_")) continue;
    const std::string path = dir_ + "/store/" + name;
    auto size = GetFileSize(path);
    ASSERT_TRUE(size.ok());
    if (*size > 3) {
      ASSERT_TRUE(TruncateFile(path, *size - 3).ok());
    }
  }
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  EXPECT_EQ(store->size(), 2u);  // last frame dropped
  // The dropped entry is re-appended by WAL redo.
  ASSERT_TRUE(store->Append(Entry(3, "abcdef")).ok());
  EXPECT_EQ(store->size(), 3u);
}

TEST_P(StateStoreTest, OrdinalResolvedOnAppendReopenAndTornTail) {
  // Level-1 (CITY) values of the location tree, in a phase-1 store. A
  // region is not a city: the store, which keeps only leaf ordinals, must
  // refuse it.
  const std::vector<std::string> kCities = {"Paris", "Versailles", "Marseille",
                                            "Aix", "Paris"};
  auto expected = [&](RowId id) -> int64_t {
    return domain_->LeafRange(Value::String(kCities[id - 1]), 1)->lo;
  };
  auto check = [&](StateStore* store, size_t want) {
    size_t seen = 0;
    store->ForEach([&](const StoreEntryView& entry) {
      EXPECT_EQ(entry.ordinal, expected(entry.row_id)) << entry.row_id;
      EXPECT_EQ(domain_->AncestorValue(entry.ordinal, 1),
                Value::String(kCities[entry.row_id - 1]));
      ++seen;
      return true;
    });
    EXPECT_EQ(seen, want);
  };
  {
    auto store = MakeStore(/*phase=*/1);
    ASSERT_TRUE(store->Open().ok());
    for (RowId id = 1; id <= kCities.size(); ++id) {
      ASSERT_TRUE(store->Append(Entry(id, kCities[id - 1])).ok());
    }
    const uint64_t bytes = store->stats().bytes_appended;
    EXPECT_TRUE(store->Append(Entry(6, "Provence")).IsInvalidArgument());
    EXPECT_EQ(store->Find(6), std::nullopt);
    EXPECT_EQ(store->stats().bytes_appended, bytes);  // no frame written
    EXPECT_EQ(store->LastAppendedRowId(), kCities.size());
    EXPECT_EQ(store->Find(1)->ordinal, 0);  // Paris covers leaves 0..1
    EXPECT_EQ(store->Find(3)->ordinal, 3);  // Marseille: leaf 3
    check(store.get(), kCities.size());
    ASSERT_TRUE(store->Checkpoint().ok());
  }
  {
    auto store = MakeStore(1);
    ASSERT_TRUE(store->Open().ok());
    check(store.get(), kCities.size());
  }
  // Torn tail: the reload drops the last frame and resolves the rest.
  auto names = ListDir(dir_ + "/store");
  ASSERT_TRUE(names.ok());
  std::string tail;
  for (const std::string& name : *names) {
    if (StartsWith(name, "seg_") && name > tail) tail = name;
  }
  ASSERT_FALSE(tail.empty());
  const std::string path = dir_ + "/store/" + tail;
  auto size = GetFileSize(path);
  ASSERT_TRUE(size.ok());
  ASSERT_TRUE(TruncateFile(path, *size - 3).ok());
  auto store = MakeStore(1);
  ASSERT_TRUE(store->Open().ok());
  check(store.get(), kCities.size() - 1);
}

TEST_P(StateStoreTest, LoadingAValueThatIsNotANodeIsCorruption) {
  // Cities framed by a CITY-level store are not addresses: the same
  // segments opened at ADDRESS level have no ordinal to mirror them by.
  {
    auto store = MakeStore(/*phase=*/1);
    ASSERT_TRUE(store->Open().ok());
    ASSERT_TRUE(store->Append(Entry(1, "Paris")).ok());
    ASSERT_TRUE(store->Checkpoint().ok());
  }
  StateStore store(dir_ + "/store", TableId{1}, 0, /*phase=*/1, domain_.get(),
                   /*level=*/0, MakeOptions(), keys_.get());
  EXPECT_TRUE(store.Open().IsCorruption());
}

TEST_P(StateStoreTest, SecureDeleteEntryScrubsAndSkips) {
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  const std::string secret = "DELETED-SECRET-PAYLOAD";
  for (RowId id = 1; id <= 9; ++id) {
    ASSERT_TRUE(store->Append(Entry(id, id == 5 ? secret : "keep")).ok());
  }
  ASSERT_TRUE(store->Checkpoint().ok());
  ASSERT_TRUE(store->SecureDeleteEntry(5).ok());
  EXPECT_TRUE(store->SecureDeleteEntry(5).IsNotFound());
  EXPECT_EQ(store->size(), 8u);
  EXPECT_EQ(store->Find(5), std::nullopt);
  ASSERT_NE(store->Find(6), std::nullopt);
  // The deleted payload is gone from disk immediately.
  auto names = ListDir(dir_ + "/store");
  ASSERT_TRUE(names.ok());
  for (const std::string& name : *names) {
    auto contents = ReadFileToString(dir_ + "/store/" + name);
    ASSERT_TRUE(contents.ok());
    EXPECT_EQ(contents->find(secret), std::string::npos) << name;
  }
  // Tombstones survive reopen.
  auto reopened = MakeStore();
  ASSERT_TRUE(reopened->Open().ok());
  EXPECT_EQ(reopened->size(), 8u);
  EXPECT_EQ(reopened->Find(5), std::nullopt);
  // FIFO popping skips the deleted entry.
  PopIdsThrough(reopened.get(), 6);
  EXPECT_EQ(reopened->Head().row_id, 7u);
}

TEST_P(StateStoreTest, DeletingWholeSegmentErasesIt) {
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  for (RowId id = 1; id <= 60; ++id) {
    ASSERT_TRUE(store->Append(Entry(id, "vvvvvvvvvvvv")).ok());
  }
  const auto created = store->stats().segments_created;
  ASSERT_GT(created, 2u);
  // Delete every row: all segments must end up erased.
  for (RowId id = 1; id <= 60; ++id) {
    ASSERT_TRUE(store->SecureDeleteEntry(id).ok());
  }
  EXPECT_TRUE(store->empty());
  EXPECT_EQ(store->stats().segments_erased, store->stats().segments_created);
}

TEST_P(StateStoreTest, DropErasesEverything) {
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  for (RowId id = 1; id <= 50; ++id) {
    ASSERT_TRUE(store->Append(Entry(id, "payload")).ok());
  }
  ASSERT_TRUE(store->Drop().ok());
  EXPECT_FALSE(FileExists(dir_ + "/store"));
}

// The mirror arrays against a reference model (an ordered map plus a
// multiset of insert times) under seeded random operations: in-order,
// out-of-order and redo appends, head pops, pops and secure deletes by id
// (present and absent). Every observable is compared after every
// operation, and again after each checkpoint + reopen.
TEST_P(StateStoreTest, MirrorMatchesReferenceModelUnderRandomOperations) {
  const auto domain = SyntheticLocationDomain(2, 3, 4, 5);
  const int64_t leaves = *domain->CardinalityAtLevel(0);
  StorageOptions options = MakeOptions();
  options.segment_bytes = 2048;
  keys_ = std::make_unique<KeyManager>(dir_ + "/keystore");
  ASSERT_TRUE(keys_->Open().ok());
  auto open = [&] {
    auto store = std::make_unique<StateStore>(dir_ + "/store", TableId{1}, 0,
                                              0, domain.get(), 0, options,
                                              keys_.get());
    EXPECT_TRUE(store->Open().ok());
    return store;
  };
  auto store = open();

  struct Ref {
    Micros insert_time;
    int64_t ordinal;
  };
  std::map<RowId, Ref> ref;
  std::multiset<Micros> times;
  RowId last_appended = kInvalidRowId;
  RowId max_popped = kInvalidRowId;
  Random rnd(GetParam() == EraseMode::kOverwrite ? 17 : 71);

  auto compare = [&](const std::string& what) {
    SCOPED_TRACE(what);
    ASSERT_EQ(store->size(), ref.size());
    ASSERT_EQ(store->empty(), ref.empty());
    ASSERT_EQ(store->LastAppendedRowId(), last_appended);
    ASSERT_EQ(store->MinInsertTime(),
              times.empty() ? kForever : *times.begin());
    if (!ref.empty()) ASSERT_EQ(store->Head().row_id, ref.begin()->first);
    // ForEach visits exactly the reference, in row-id order.
    auto it = ref.begin();
    bool same = true;
    store->ForEach([&](const StoreEntryView& e) {
      same = same && it != ref.end() && e.row_id == it->first &&
             e.insert_time == it->second.insert_time &&
             e.ordinal == it->second.ordinal;
      if (it != ref.end()) ++it;
      return true;
    });
    ASSERT_TRUE(same && it == ref.end());
    // FindMany over every id (and misses) with the phase-chain rule: a
    // slot an earlier phase already resolved keeps its first hit.
    const RowId top = ref.empty() ? 2 : ref.rbegin()->first + 2;
    std::vector<RowId> ids;
    for (RowId id = 0; id <= top; ++id) ids.push_back(id);
    std::vector<int64_t> ordinals(ids.size(), -1);
    std::vector<int64_t> expected(ids.size(), -1);
    size_t expected_hits = 0;
    for (size_t j = 0; j < ids.size(); ++j) {
      if (rnd.OneIn(5)) {
        ordinals[j] = expected[j] = leaves + 1;  // an earlier phase's hit
        continue;
      }
      auto hit = ref.find(ids[j]);
      if (hit != ref.end()) {
        expected[j] = hit->second.ordinal;
        ++expected_hits;
      }
    }
    ASSERT_EQ(store->FindMany(ids.data(), ids.size(), ordinals.data()),
              expected_hits);
    ASSERT_EQ(ordinals, expected);
    // Find on a few ids.
    for (int k = 0; k < 4; ++k) {
      const RowId id = rnd.Uniform(top + 1);
      auto hit = ref.find(id);
      const std::optional<StoreEntryView> found = store->Find(id);
      ASSERT_EQ(found.has_value(), hit != ref.end()) << id;
      if (found) {
        ASSERT_EQ(found->insert_time, hit->second.insert_time);
        ASSERT_EQ(found->ordinal, hit->second.ordinal);
      }
    }
  };

  auto append = [&](RowId id) {
    const int64_t leaf = static_cast<int64_t>(rnd.Uniform(leaves));
    const Micros t = static_cast<Micros>(rnd.Uniform(1000000));
    ASSERT_TRUE(
        store->Append({id, t, domain->AncestorValue(leaf, 0)}).ok());
    if (ref.count(id) != 0) return;  // redo: ignored
    ref[id] = {t, leaf};
    times.insert(t);
    if (last_appended == kInvalidRowId || id > last_appended) {
      last_appended = id;
    }
  };
  auto remove = [&](RowId id, bool popped) {
    auto it = ref.find(id);
    times.erase(times.find(it->second.insert_time));
    ref.erase(it);
    if (popped && (max_popped == kInvalidRowId || id > max_popped)) {
      max_popped = id;
    }
  };
  auto random_present = [&] {
    auto it = ref.begin();
    std::advance(it, rnd.Uniform(ref.size()));
    return it->first;
  };

  RowId next_id = 1;
  std::set<RowId> used;  // every id ever appended
  constexpr int kOps = 4000;
  for (int op = 0; op < kOps; ++op) {
    // Grow for the first half, then drain: the mirror crosses many
    // insert-time blocks and compacts its consumed prefix several times.
    const bool growing = op < kOps / 2;
    const uint64_t dice = rnd.Uniform(100);
    std::string what;
    if (dice < (growing ? 55u : 20u)) {
      what = "in-order append";
      used.insert(next_id);
      append(next_id);
      next_id += 1 + rnd.Uniform(3);
    } else if (dice < (growing ? 65u : 25u)) {
      // A late commit of a fresh id below the tail (row ids are never
      // reused, so never one that was popped or deleted).
      what = "out-of-order append";
      const RowId id = 1 + rnd.Uniform(next_id - 1);
      if (used.insert(id).second) append(id);
    } else if (dice < (growing ? 70u : 30u) && !ref.empty()) {
      what = "redo append";
      append(random_present());
    } else if (dice < (growing ? 85u : 70u)) {
      what = "pop head";
      StoreEntryView out;
      const Status status = store->PopHead(&out);
      if (ref.empty()) {
        ASSERT_TRUE(status.IsNotFound());
      } else {
        ASSERT_TRUE(status.ok()) << status.ToString();
        ASSERT_EQ(out.row_id, ref.begin()->first);
        ASSERT_EQ(out.insert_time, ref.begin()->second.insert_time);
        ASSERT_EQ(out.ordinal, ref.begin()->second.ordinal);
        remove(out.row_id, /*popped=*/true);
      }
    } else if (dice < 95u) {
      what = "pop by id";
      RowId id = rnd.Uniform(next_id + 1);
      if (!ref.empty() && rnd.OneIn(3)) {
        id = random_present();
      } else if (!ref.empty() && rnd.OneIn(2)) {
        // The entry holding MinInsertTime, usually mid-store: the bound
        // must move to the next-oldest entry.
        id = std::min_element(ref.begin(), ref.end(),
                              [](const auto& a, const auto& b) {
                                return a.second.insert_time <
                                       b.second.insert_time;
                              })
                 ->first;
      }
      ASSERT_TRUE(store->PopById(id).ok());
      if (ref.count(id) != 0) remove(id, /*popped=*/true);
    } else {
      what = "secure delete";
      const RowId id = !ref.empty() && rnd.OneIn(2)
                           ? random_present()
                           : rnd.Uniform(next_id + 1);
      const Status status = store->SecureDeleteEntry(id);
      if (ref.count(id) != 0) {
        ASSERT_TRUE(status.ok()) << status.ToString();
        remove(id, /*popped=*/false);
      } else {
        ASSERT_TRUE(status.IsNotFound());
      }
    }
    compare(what + " #" + std::to_string(op));
    if (HasFatalFailure()) return;
    if (op % 500 == 499) {
      ASSERT_TRUE(store->Checkpoint().ok());
      store = open();
      // Reopen knows the live ids and the pop watermark, not the ids of
      // securely deleted entries.
      last_appended = ref.empty() ? kInvalidRowId : ref.rbegin()->first;
      if (max_popped != kInvalidRowId &&
          (last_appended == kInvalidRowId || max_popped > last_appended)) {
        last_appended = max_popped;
      }
      compare("reopen after #" + std::to_string(op));
      if (HasFatalFailure()) return;
    }
  }
}

// A degrade step's apply retries an Append whose buffered flush failed. The
// failed frame must not stay buffered: written twice, it would shift every
// later frame off its locator, so a secure delete would zero the wrong
// bytes and the deleted entry would come back on reopen.
TEST_P(StateStoreTest, AppendRetriedAfterFailedFlushWritesOneFrame) {
  FaultInjectionEnv fault(Env::Default());
  keys_ = std::make_unique<KeyManager>(dir_ + "/keystore");
  ASSERT_TRUE(keys_->Open().ok());
  StorageOptions options = MakeOptions();
  options.segment_bytes = 1 << 20;  // flushes come from the write buffer
  auto open = [&] {
    auto store = std::make_unique<StateStore>(dir_ + "/store", TableId{1}, 0,
                                              0, domain_.get(), 0, options,
                                              keys_.get(), &fault);
    EXPECT_TRUE(store->Open().ok());
    return store;
  };
  auto value = [](RowId id) { return "v" + std::to_string(id % 100 + 1); };
  auto store = open();
  fault.FailOnce(FaultOp::kAppend, 1, Status::IOError("injected EIO"),
                 "seg_");
  RowId failed = 1;
  for (;; ++failed) {
    ASSERT_LT(failed, 10000u) << "the buffered flush never ran";
    const Status status = store->Append(Entry(failed, value(failed)));
    if (!status.ok()) {
      ASSERT_TRUE(status.IsIOError()) << status.ToString();
      break;
    }
  }
  EXPECT_FALSE(store->Find(failed).has_value());
  const RowId last = failed + 20;
  for (RowId id = failed; id <= last; ++id) {
    ASSERT_TRUE(store->Append(Entry(id, value(id))).ok());
  }
  const RowId deleted = failed + 1;
  ASSERT_TRUE(store->SecureDeleteEntry(deleted).ok());
  ASSERT_TRUE(store->Checkpoint().ok());

  store = open();
  EXPECT_EQ(store->size(), static_cast<size_t>(last - 1));
  EXPECT_FALSE(store->Find(deleted).has_value());
  for (RowId id = 1; id <= last; ++id) {
    if (id == deleted) continue;
    const std::optional<StoreEntryView> entry = store->Find(id);
    ASSERT_TRUE(entry.has_value()) << id;
    EXPECT_EQ(ValueOf(*entry).ToString(), value(id)) << id;
  }
}

INSTANTIATE_TEST_SUITE_P(AllEraseModes, StateStoreTest,
                         ::testing::Values(EraseMode::kOverwrite,
                                           EraseMode::kCryptoErase),
                         [](const auto& info) {
                           return info.param == EraseMode::kOverwrite
                                      ? "Overwrite"
                                      : "CryptoErase";
                         });

// --- Leaf ordinals across a database's lifecycle -------------------------------

/// Every mirror entry of every state store carries the leaf ordinal of a
/// node at its store's level (the lo end of that node's leaf range), and
/// returns how many entries each (degradable column, phase) store holds.
std::map<std::pair<int, int>, size_t> ExpectOrdinalsResolved(Database* db) {
  std::map<std::pair<int, int>, size_t> entries;
  Table* table = db->GetTable("pings");
  EXPECT_NE(table, nullptr);
  if (table == nullptr) return entries;
  const Schema& schema = table->schema();
  for (uint32_t p = 0; p < table->num_partitions(); ++p) {
    for (int col : schema.degradable_columns()) {
      const ColumnDef& column = schema.column(col);
      for (int phase = 0; phase < column.lcp.num_phases(); ++phase) {
        const StateStore* store = table->partition(p)->store(col, phase);
        EXPECT_NE(store, nullptr);
        if (store == nullptr) continue;
        const int level = column.lcp.phase(phase).level;
        store->ForEach([&](const StoreEntryView& entry) {
          const Value value =
              column.hierarchy->AncestorValue(entry.ordinal, level);
          auto range = column.hierarchy->LeafRange(value, level);
          EXPECT_TRUE(range.ok()) << value.ToString();
          if (range.ok()) {
            EXPECT_EQ(entry.ordinal, range->lo)
                << column.name << " phase " << phase << " " << value.ToString();
          }
          ++entries[{col, phase}];
          return true;
        });
      }
    }
  }
  return entries;
}

/// pings(user, location: tree, salary: interval) with one-hour first
/// phases.
Schema OrdinalSchema() {
  return *Schema::Make(
      {ColumnDef::Stable("user", ValueType::kString),
       ColumnDef::Degradable("location", LocationDomain(), Fig2LocationLcp()),
       ColumnDef::Degradable("salary", SalaryDomain(),
                             *AttributeLcp::Make({{0, kMicrosPerHour},
                                                  {1, kMicrosPerDay}}))});
}

class OrdinalLifecycleTest
    : public StorageTest,
      public ::testing::WithParamInterface<WalPrivacyMode> {
 protected:
  DbOptions Options(const std::string& path) {
    DbOptions options;
    options.path = path;
    options.clock = &clock_;
    options.wal.privacy_mode = GetParam();
    return options;
  }

  void InsertRows(Database* db, int from, int to) {
    const char* kAddresses[] = {"11 Rue Lepic", "3 Av Foch", "12 Rue Royale",
                                "4 Rue Breteuil", "8 Cours Mirabeau"};
    for (int start = from; start < to; start += 50) {
      WriteBatch batch;
      for (int i = start; i < std::min(start + 50, to); ++i) {
        batch.Insert("pings", {Value::String("u" + std::to_string(i)),
                               Value::String(kAddresses[i % 5]),
                               Value::Int64((i * 7919) % 100001)});
      }
      ASSERT_TRUE(db->Write(&batch).ok());
    }
  }

  VirtualClock clock_{0};
};

TEST_P(OrdinalLifecycleTest, AppendReopenTornTailAndCrashRedo) {
  const std::string live = dir_ + "/live";
  const std::string crash = dir_ + "/crash";
  auto db = Database::Open(Options(live));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->CreateTable("pings", OrdinalSchema()).ok());

  // After Append (inserts).
  InsertRows(db->get(), 0, 40);
  auto entries = ExpectOrdinalsResolved(db->get());
  EXPECT_EQ((entries[{1, 0}]), 40u);
  EXPECT_EQ((entries[{2, 0}]), 40u);

  // Crash image: checkpoint, then enough post-checkpoint inserts (over the
  // stores' 8 KB write buffer) that every store writes part of them
  // through; tear the tail frame of every store.
  ASSERT_TRUE((*db)->Checkpoint().ok());
  InsertRows(db->get(), 40, 840);
  ASSERT_TRUE((*db)->wal()->Sync().ok());
  std::filesystem::remove_all(crash);
  std::filesystem::copy(live, crash, std::filesystem::copy_options::recursive);
  std::map<std::string, std::string> tails;  // store dir -> last segment
  for (const auto& file :
       std::filesystem::recursive_directory_iterator(crash)) {
    const std::string name = file.path().filename().string();
    if (!StartsWith(name, "seg_") || !EndsWith(name, ".dat") ||
        file.path().string().find("/stores/") == std::string::npos) {
      continue;
    }
    std::string& tail = tails[file.path().parent_path().string()];
    if (file.path().string() > tail) tail = file.path().string();
  }
  ASSERT_EQ(tails.size(), 2u);  // location and salary phase-0 stores
  for (const auto& [store_dir, path] : tails) {
    auto size = GetFileSize(path);
    ASSERT_TRUE(size.ok());
    ASSERT_TRUE(TruncateFile(path, *size - 3).ok()) << path;
  }

  // After crash + WAL redo (the torn frames reload short and redo
  // re-appends every post-checkpoint entry).
  {
    auto recovered = Database::Open(Options(crash));
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    entries = ExpectOrdinalsResolved(recovered->get());
    EXPECT_EQ((entries[{1, 0}]), 840u);
    EXPECT_EQ((entries[{2, 0}]), 840u);
  }

  // After a clean reopen (segments and META reload).
  db->reset();
  auto reopened = Database::Open(Options(live));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  entries = ExpectOrdinalsResolved(reopened->get());
  EXPECT_EQ((entries[{1, 0}]), 840u);
  EXPECT_EQ((entries[{2, 0}]), 840u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPrivacyModes, OrdinalLifecycleTest,
    ::testing::Values(WalPrivacyMode::kPlain, WalPrivacyMode::kScrub,
                      WalPrivacyMode::kEncryptedEpoch),
    [](const auto& info) {
      switch (info.param) {
        case WalPrivacyMode::kPlain:
          return "Plain";
        case WalPrivacyMode::kScrub:
          return "Scrub";
        default:
          return "EncryptedEpoch";
      }
    });

// --- Mirror footprint --------------------------------------------------------

// The state stores keep per live value a row id, an insert time, a leaf
// ordinal and a frame locator, never the Value: 100k appends through the
// table path cost at most 40 mirror bytes each, array capacity included.
TEST_F(StorageTest, StoreMirrorCostsAtMostFortyBytesPerEntry) {
  static_assert(StateStore::kMirrorBytesPerEntry <= 40);
  DbOptions options;
  options.path = dir_ + "/db";
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto schema = Schema::Make(
      {ColumnDef::Stable("user", ValueType::kInt64),
       ColumnDef::Degradable("location", SyntheticLocationDomain(4, 4, 4, 8),
                             Fig2LocationLcp())});
  ASSERT_TRUE(schema.ok());
  ASSERT_TRUE((*db)->CreateTable("pings", *schema).ok());
  constexpr int kRows = 100000;
  for (int start = 0; start < kRows; start += 1000) {
    WriteBatch batch;
    for (int i = start; i < start + 1000; ++i) {
      batch.Insert("pings",
                   {Value::Int64(i), Value::String(StringPrintf(
                                         "Addr%d.%d.%d.%d", i % 4, i / 4 % 4,
                                         i / 16 % 4, i / 64 % 8))});
    }
    ASSERT_TRUE((*db)->Write(&batch).ok());
  }
  const MemoryUsage stores = (*db)->stats().stores;
  EXPECT_EQ(stores.entries, static_cast<uint64_t>(kRows));
  EXPECT_GE(stores.bytes, StateStore::kMirrorBytesPerEntry * kRows);
  EXPECT_LE(static_cast<double>(stores.bytes) /
                static_cast<double>(stores.entries),
            40.0);
}

}  // namespace
}  // namespace instantdb
