#ifndef INSTANTDB_INDEX_MULTIRES_INDEX_H_
#define INSTANTDB_INDEX_MULTIRES_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "catalog/schema.h"
#include "storage/page.h"

namespace instantdb {

/// \brief Degradation-aware index for one degradable attribute (paper §III,
/// "indexing techniques supporting efficiently degradation"): per LCP phase,
/// an ordered map from a GT node to the FIFO posting of the rows whose
/// value sits at that node.
///
/// Why this shape works:
///  - Values in phase p sit at one GT level, and GT nodes are DFS-numbered,
///    so a node's key — the lower bound of its leaf interval, which is the
///    ordinal the phase's state store keeps — orders nodes exactly like the
///    tree does. A predicate at any accuracy level k >= level(p) covers a
///    contiguous interval of leaf ordinals, hence a contiguous key range of
///    EVERY phase map with level <= k: a probe at accuracy k walks the keys
///    inside the literal's leaf interval, in every such phase, and unions
///    the postings — the paper's σ_{P,k} over the computable subsets ST_j.
///  - Within a phase, rows arrive and leave in row-id order, the argument
///    StateStore rests on, so each node's posting is itself a FIFO: an
///    insert appends at the tail (an out-of-order commit lands near it), a
///    degrade step pops the head, and only a user DELETE erases in the
///    middle. A posting that empties leaves its map.
///  - The index is derived data, rebuilt from the state stores at every
///    open, and it never touches disk. What it holds tracks the live data:
///    a posting is one contiguous array of row ids with a consumed-prefix
///    head, compacted once half of it is consumed.
///  - A posting binds a row id to a node, which is the degraded datum
///    itself, so it wipes what it drops: a vacated slot is zeroed at once,
///    and every heap block of the index (array or map node) is zeroed with
///    explicit_bzero before it is freed, growth included.
///
/// Hooks take the row's leaf ordinal at the phase's level, the ordinal its
/// state store holds (StoreEntryView::ordinal). Inserts of a present row
/// and removals of an absent one are no-ops, so WAL redo converges. Not
/// thread-safe: the owning partition's latch serializes mutations against
/// probes.
class MultiResolutionIndex {
 public:
  /// `column` must be degradable and outlive the index.
  explicit MultiResolutionIndex(const ColumnDef& column);
  MultiResolutionIndex(const MultiResolutionIndex&) = delete;
  MultiResolutionIndex& operator=(const MultiResolutionIndex&) = delete;

  /// Adds `row` at node `ordinal` of `phase`.
  void OnInsert(RowId row, int phase, int64_t ordinal);

  /// One degradation transition: moves `row` from node `old_ordinal` of
  /// `from_phase` to node `new_ordinal` of `to_phase`. `to_phase ==
  /// lcp.num_phases()` removes the row without reinserting it (⊥).
  void OnDegrade(RowId row, int from_phase, int64_t old_ordinal, int to_phase,
                 int64_t new_ordinal);

  /// Tuple deletion while the value is in `phase`; NotFound when the row is
  /// not at node `ordinal` of `phase`.
  Status OnDelete(RowId row, int phase, int64_t ordinal);

  /// Rows whose stored value generalizes to `value` at accuracy `level`
  /// (equality predicate at level k). Visits phases with level(p) <= level.
  Status LookupEqual(const Value& value, int level,
                     const std::function<bool(RowId)>& fn) const;

  /// Rows whose stored value falls in [lo, hi] at accuracy `level`
  /// (both bounds are level-`level` values).
  Status LookupRange(const Value& lo, const Value& hi, int level,
                     const std::function<bool(RowId)>& fn) const;

  uint64_t EntriesInPhase(int phase) const { return entries_[phase]; }
  int num_phases() const { return static_cast<int>(postings_.size()); }

  /// Entries of every phase, and the heap bytes the index requested: map
  /// nodes and posting arrays, capacity and consumed prefixes included
  /// (malloc's own rounding and chunk headers come on top).
  MemoryUsage memory() const;

  /// Testing: true when every array slot outside a posting's live range
  /// (consumed prefix and spare capacity) is zero.
  bool VacatedSlotsZeroForTesting() const;
  /// Testing: `hook` sees every heap block of an index just before it is
  /// freed (null turns it off).
  using ReleaseHook = void (*)(const void* region, size_t bytes);
  static void SetReleaseHookForTesting(ReleaseHook hook);

 private:
  /// Allocator of the index's map nodes and posting arrays: hands out
  /// zeroed blocks and adds them to the index's byte count, and wipes
  /// (Release) what it takes back.
  template <typename T>
  class WipingAllocator {
   public:
    using value_type = T;
    explicit WipingAllocator(uint64_t* bytes) : bytes_(bytes) {}
    template <typename U>
    WipingAllocator(const WipingAllocator<U>& other) : bytes_(other.bytes_) {}

    T* allocate(size_t n) {
      *bytes_ += n * sizeof(T);
      T* block = std::allocator<T>().allocate(n);
      std::memset(static_cast<void*>(block), 0, n * sizeof(T));
      return block;
    }
    void deallocate(T* block, size_t n) {
      *bytes_ -= n * sizeof(T);
      Release(block, n * sizeof(T));
      std::allocator<T>().deallocate(block, n);
    }
    bool operator==(const WipingAllocator& other) const {
      return bytes_ == other.bytes_;
    }

   private:
    template <typename U>
    friend class WipingAllocator;
    uint64_t* bytes_;
  };

  /// Row ids of one node, ascending, at [head, ids.size()); the consumed
  /// prefix [0, head) and the spare capacity are zero.
  struct Posting {
    explicit Posting(const WipingAllocator<RowId>& allocator)
        : ids(allocator) {}
    size_t size() const { return ids.size() - head; }
    /// Inserts `row` in order; false when it is already present.
    bool Insert(RowId row);
    /// Removes `row`; false when it is absent.
    bool Erase(RowId row);

    std::vector<RowId, WipingAllocator<RowId>> ids;
    size_t head = 0;
  };
  using PhaseMap =
      std::map<int64_t, Posting, std::less<int64_t>,
               WipingAllocator<std::pair<const int64_t, Posting>>>;

  /// Zeroes a heap block the index hands back and shows it to the test
  /// hook.
  static void Release(void* block, size_t bytes);

  Status ScanInterval(int max_level, const LeafInterval& interval,
                      const std::function<bool(RowId)>& fn) const;
  /// Removes `row` from node `ordinal` of `phase`; false when absent.
  bool Remove(RowId row, int phase, int64_t ordinal);

  const ColumnDef& column_;
  /// Heap bytes the maps and postings requested, net of what they freed;
  /// every allocator points here, so the index neither copies nor moves.
  uint64_t heap_bytes_ = 0;
  std::vector<PhaseMap> postings_;  // one per phase
  std::vector<uint64_t> entries_;   // rows per phase
};

}  // namespace instantdb

#endif  // INSTANTDB_INDEX_MULTIRES_INDEX_H_
