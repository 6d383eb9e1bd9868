#include "db/row_map.h"

#include <algorithm>

#include "util/sorted_array.h"

namespace instantdb {

void RowMap::Assign(std::vector<std::pair<RowId, Rid>> rows) {
  std::stable_sort(rows.begin(), rows.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  ids_.clear();
  rids_.clear();
  head_ = 0;
  ids_.reserve(rows.size());
  rids_.reserve(rows.size());
  for (const auto& [id, rid] : rows) {
    if (!ids_.empty() && ids_.back() == id) {
      rids_.back() = rid;
      continue;
    }
    ids_.push_back(id);
    rids_.push_back(rid);
  }
}

size_t RowMap::LowerBound(RowId id) const {
  // The common probe is an append (an id above every other) or a head pop.
  if (ids_.size() == head_ || ids_.back() < id) return ids_.size();
  if (ids_[head_] >= id) return head_;
  return static_cast<size_t>(
      std::lower_bound(ids_.begin() + head_, ids_.end(), id) - ids_.begin());
}

bool RowMap::Insert(RowId id, Rid rid) {
  const size_t pos = LowerBound(id);
  if (pos != ids_.size() && ids_[pos] == id) return false;
  GrowForOneMore(&ids_);
  GrowForOneMore(&rids_);
  ids_.insert(ids_.begin() + pos, id);
  rids_.insert(rids_.begin() + pos, rid);
  return true;
}

bool RowMap::Erase(RowId id) {
  const size_t pos = LowerBound(id);
  if (pos == ids_.size() || ids_[pos] != id) return false;
  if (pos == head_) {
    ++head_;
    if (head_ * 2 > ids_.size()) Compact();
    return true;
  }
  ids_.erase(ids_.begin() + pos);
  rids_.erase(rids_.begin() + pos);
  return true;
}

void RowMap::Compact() {
  ids_.erase(ids_.begin(), ids_.begin() + head_);
  rids_.erase(rids_.begin(), rids_.begin() + head_);
  head_ = 0;
  if (ids_.empty() || ids_.capacity() > 4 * ids_.size() + 64) {
    // Drained, or a large drain: give the capacity back rather than keep
    // the peak.
    ids_.shrink_to_fit();
    rids_.shrink_to_fit();
  }
}

const Rid* RowMap::Find(RowId id) const {
  const size_t pos = LowerBound(id);
  return pos != ids_.size() && ids_[pos] == id ? &rids_[pos] : nullptr;
}

const Rid* RowMap::Seek(RowId id, size_t* cursor) const {
  const RowId* const base = ids_.data();
  const RowId* const end = base + ids_.size();
  const RowId* it = GallopLowerBound(base + std::max(*cursor, head_), end, id);
  *cursor = static_cast<size_t>(it - base);
  return it != end && *it == id ? &rids_[*cursor] : nullptr;
}

}  // namespace instantdb
