#ifndef INSTANTDB_UTIL_MORSEL_H_
#define INSTANTDB_UTIL_MORSEL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "storage/page.h"

namespace instantdb {

/// Heap pages per morsel when ScanOptions::morsel_pages is 0: 16 pages
/// (128 KiB at the default page size) is small enough that a skewed
/// partition splits into many units, large enough that claim overhead
/// stays invisible next to the page reads.
inline constexpr uint32_t kDefaultMorselPages = 16;

/// \brief One unit of scan work: a page range of one partition's heap.
///
/// Every parallel consumer — streaming scan producers, materializing
/// drains, aggregate pushdown, audit sweeps — claims
/// morsels instead of whole partitions, so parallelism is no longer capped
/// by the partition count and a skewed partition is shared by many workers.
struct Morsel {
  /// Partition whose heap the page range belongs to.
  uint32_t partition = 0;
  /// Heap page range [begin_page, end_page). end_page == kInvalidPageId
  /// means "to the end of the heap at scan time" — the last morsel of each
  /// partition is open-ended so rows appended after planning are still
  /// observed, exactly as whole-partition scans observed them.
  PageId begin_page = 0;
  PageId end_page = kInvalidPageId;
  /// Global position in the flattened (partition asc, begin_page asc) plan,
  /// assigned by MorselScheduler. Order-preserving consumers bucket results
  /// by it and concatenate, reproducing the sequential scan's output order.
  size_t ordinal = 0;
};

/// \brief Morsel scheduler: one immutable morsel array and one atomic
/// claim cursor; every reader takes the next unclaimed morsel.
///
/// The array is stored in partition-interleaved claim order — the first
/// morsel of every partition, then the second of every partition, and so
/// on — while each morsel keeps its ordinal in (partition, page) order.
/// The interleave is load-bearing: BufferPool::FetchPage reads a missing
/// page under its partition's pool mutex, so readers that claim
/// consecutive morsels land on different partitions' pools and their disk
/// reads overlap. A partition-major cursor stacks them on one pool, one
/// read at a time; measured on cold_scan it cost 62% of the goodput.
///
/// Thread-safe and lock-free: a claim is one fetch_add. A fully drained
/// scheduler has handed out each morsel exactly once.
class MorselScheduler {
 public:
  /// `plan[p]` is partition p's morsel list in page order (may be empty).
  explicit MorselScheduler(std::vector<std::vector<Morsel>> plan);
  MorselScheduler(const MorselScheduler&) = delete;
  MorselScheduler& operator=(const MorselScheduler&) = delete;

  /// Total morsels (== the number of successful Claims a full drain
  /// performs).
  size_t total() const { return morsels_.size(); }

  /// Claims the next morsel. Returns false once every morsel is claimed.
  bool Claim(Morsel* out) {
    const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= morsels_.size()) return false;
    *out = morsels_[i];
    return true;
  }

 private:
  /// Claim-ordered morsels; next_ is the index of the next unclaimed one
  /// (it overshoots the size once drained — harmless).
  std::vector<Morsel> morsels_;
  std::atomic<size_t> next_{0};
};

}  // namespace instantdb

#endif  // INSTANTDB_UTIL_MORSEL_H_
