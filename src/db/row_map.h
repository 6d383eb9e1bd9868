#ifndef INSTANTDB_DB_ROW_MAP_H_
#define INSTANTDB_DB_ROW_MAP_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "storage/page.h"

namespace instantdb {

/// \brief A partition's row id → heap Rid map: two row-id-sorted arrays with
/// a consumed head, the layout of the state stores' mirror
/// (storage/state_store.h), at 16 bytes per row plus 1/16 growth slack.
///
/// A partition mints ascending ids, so an insert appends at the tail; an
/// out-of-order commit lands a little before it and shifts only the short
/// run behind. FIFO expiry erases at the head, which only advances `head_`:
/// the consumed prefix is dropped once it passes half the arrays, so a head
/// pop is O(1) amortized. Any other erase (a user DELETE) shifts the tail.
class RowMap {
 public:
  /// Replaces the contents with `rows`, in any order, sorted once. Of two
  /// pairs with one id the later one wins.
  void Assign(std::vector<std::pair<RowId, Rid>> rows);
  /// Adds (id, rid); false, with nothing changed, when `id` is present.
  bool Insert(RowId id, Rid rid);
  /// Removes `id`; false when it is absent.
  bool Erase(RowId id);
  /// The Rid of `id`, or nullptr when it is absent.
  const Rid* Find(RowId id) const;
  Rid* Find(RowId id) {
    return const_cast<Rid*>(static_cast<const RowMap*>(this)->Find(id));
  }
  /// Find for ids probed in ascending order: `*cursor` starts at 0 and
  /// carries the search position from one probe to the next, which gallops
  /// forward from it (see GallopLowerBound) instead of searching afresh.
  const Rid* Seek(RowId id, size_t* cursor) const;

  /// Calls `fn(id)` for every live id, ascending.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = head_; i < ids_.size(); ++i) fn(ids_[i]);
  }

  size_t size() const { return ids_.size() - head_; }
  /// Heap bytes of the arrays, capacity and the consumed prefix included.
  size_t bytes() const {
    return ids_.capacity() * sizeof(RowId) + rids_.capacity() * sizeof(Rid);
  }

 private:
  /// Array position of the first live entry whose id is >= `id`.
  size_t LowerBound(RowId id) const;
  /// Drops the consumed prefix [0, head_).
  void Compact();

  /// Entry i, for head_ <= i < ids_.size(), is (ids_[i], rids_[i]), sorted
  /// by id; positions below head_ are the consumed prefix.
  std::vector<RowId> ids_;
  std::vector<Rid> rids_;
  size_t head_ = 0;
};

}  // namespace instantdb

#endif  // INSTANTDB_DB_ROW_MAP_H_
