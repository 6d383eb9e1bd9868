#include "index/multires_index.h"

#include <string.h>

#include <algorithm>
#include <atomic>

namespace instantdb {

namespace {

std::atomic<MultiResolutionIndex::ReleaseHook> release_hook{nullptr};

}  // namespace

// --- Posting -------------------------------------------------------------------

bool MultiResolutionIndex::Posting::Insert(RowId row) {
  // In-order commits append; an out-of-order one lands near the tail.
  if (size() == 0 || row > ids.back()) {
    ids.push_back(row);
    return true;
  }
  const auto pos = std::lower_bound(ids.begin() + head, ids.end(), row);
  if (*pos == row) return false;
  ids.insert(pos, row);
  return true;
}

bool MultiResolutionIndex::Posting::Erase(RowId row) {
  auto pos = ids.begin() + head;
  if (*pos != row) {  // not a FIFO pop: a user DELETE or a retry
    pos = std::lower_bound(pos, ids.end(), row);
    if (pos == ids.end() || *pos != row) return false;
  }
  if (pos == ids.begin() + head) {
    *pos = 0;
    ++head;
  } else {
    std::move(pos + 1, ids.end(), pos);
    // explicit_bzero, not a store: a store into an element that pop_back
    // then destroys is dead to the compiler.
    explicit_bzero(&ids.back(), sizeof(RowId));
    ids.pop_back();
  }
  if (head * 2 >= ids.size()) {
    // Half the array is consumed prefix: slide the live ids down, zero the
    // slots they leave, and give back capacity the FIFO has drained.
    const size_t live = size();
    std::move(ids.begin() + head, ids.end(), ids.begin());
    explicit_bzero(ids.data() + live, (ids.size() - live) * sizeof(RowId));
    ids.resize(live);
    head = 0;
    if (ids.capacity() > 4 * live) ids.shrink_to_fit();
  }
  return true;
}

// --- MultiResolutionIndex --------------------------------------------------------

MultiResolutionIndex::MultiResolutionIndex(const ColumnDef& column)
    : column_(column),
      entries_(column.lcp.num_phases(), 0) {
  postings_.reserve(entries_.size());
  for (size_t p = 0; p < entries_.size(); ++p) {
    postings_.emplace_back(PhaseMap::allocator_type(&heap_bytes_));
  }
}

void MultiResolutionIndex::Release(void* block, size_t bytes) {
  explicit_bzero(block, bytes);
  if (const auto hook = release_hook.load(std::memory_order_relaxed)) {
    hook(block, bytes);
  }
}

void MultiResolutionIndex::SetReleaseHookForTesting(ReleaseHook hook) {
  release_hook.store(hook, std::memory_order_relaxed);
}

void MultiResolutionIndex::OnInsert(RowId row, int phase, int64_t ordinal) {
  PhaseMap& map = postings_[phase];
  Posting& posting =
      map.try_emplace(ordinal, WipingAllocator<RowId>(&heap_bytes_))
          .first->second;
  if (posting.Insert(row)) ++entries_[phase];
}

bool MultiResolutionIndex::Remove(RowId row, int phase, int64_t ordinal) {
  PhaseMap& map = postings_[phase];
  const auto it = map.find(ordinal);
  if (it == map.end()) return false;
  Posting& posting = it->second;
  if (!posting.Erase(row)) return false;
  --entries_[phase];
  if (posting.size() == 0) map.erase(it);
  return true;
}

void MultiResolutionIndex::OnDegrade(RowId row, int from_phase,
                                     int64_t old_ordinal, int to_phase,
                                     int64_t new_ordinal) {
  Remove(row, from_phase, old_ordinal);
  if (to_phase < num_phases()) OnInsert(row, to_phase, new_ordinal);
}

Status MultiResolutionIndex::OnDelete(RowId row, int phase, int64_t ordinal) {
  if (Remove(row, phase, ordinal)) return Status::OK();
  return Status::NotFound("row is not in its index posting");
}

Status MultiResolutionIndex::ScanInterval(
    int max_level, const LeafInterval& interval,
    const std::function<bool(RowId)>& fn) const {
  for (int p = 0; p < num_phases(); ++p) {
    if (column_.lcp.phase(p).level > max_level) continue;
    const PhaseMap& map = postings_[p];
    for (auto it = map.lower_bound(interval.lo);
         it != map.end() && it->first <= interval.hi; ++it) {
      const Posting& posting = it->second;
      for (auto row = posting.ids.begin() + posting.head;
           row != posting.ids.end(); ++row) {
        if (!fn(*row)) return Status::OK();
      }
    }
  }
  return Status::OK();
}

Status MultiResolutionIndex::LookupEqual(
    const Value& value, int level,
    const std::function<bool(RowId)>& fn) const {
  IDB_ASSIGN_OR_RETURN(LeafInterval interval,
                       column_.hierarchy->LeafRange(value, level));
  return ScanInterval(level, interval, fn);
}

Status MultiResolutionIndex::LookupRange(
    const Value& lo, const Value& hi, int level,
    const std::function<bool(RowId)>& fn) const {
  IDB_ASSIGN_OR_RETURN(LeafInterval lo_interval,
                       column_.hierarchy->LeafRange(lo, level));
  IDB_ASSIGN_OR_RETURN(LeafInterval hi_interval,
                       column_.hierarchy->LeafRange(hi, level));
  if (hi_interval.hi < lo_interval.lo) return Status::OK();
  return ScanInterval(level, LeafInterval{lo_interval.lo, hi_interval.hi}, fn);
}

MemoryUsage MultiResolutionIndex::memory() const {
  MemoryUsage memory;
  memory.bytes = heap_bytes_;
  for (const uint64_t entries : entries_) memory.entries += entries;
  return memory;
}

bool MultiResolutionIndex::VacatedSlotsZeroForTesting() const {
  for (const PhaseMap& map : postings_) {
    for (const auto& [key, posting] : map) {
      // The spare capacity past size() holds no elements, so the array is
      // read as the raw bytes the allocator handed out.
      const auto* bytes =
          reinterpret_cast<const unsigned char*>(posting.ids.data());
      const size_t live_begin = posting.head * sizeof(RowId);
      const size_t live_end = posting.ids.size() * sizeof(RowId);
      for (size_t i = 0; i < posting.ids.capacity() * sizeof(RowId); ++i) {
        if ((i < live_begin || i >= live_end) && bytes[i] != 0) return false;
      }
    }
  }
  return true;
}

}  // namespace instantdb
