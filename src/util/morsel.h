#ifndef INSTANTDB_UTIL_MORSEL_H_
#define INSTANTDB_UTIL_MORSEL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
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
/// drains, aggregate pushdown, degradation rounds, audit sweeps — claims
/// morsels instead of whole partitions, so parallelism is no longer capped
/// by the partition count and a skewed partition is shared by many workers.
struct Morsel {
  /// Owning partition (the per-partition queue this morsel lives in).
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

/// Destinations for the scheduler's claim/steal accounting (the
/// Database::ScanCounters morsel trio). All-null (the default) disables
/// counting — consumers outside the query read path (degradation, audits)
/// claim without touching scan stats.
struct MorselStatsSink {
  std::atomic<uint64_t>* claimed = nullptr;
  std::atomic<uint64_t>* stolen = nullptr;
  std::atomic<uint64_t>* steal_failures = nullptr;
};

/// \brief Work-stealing morsel scheduler: per-partition queues with
/// partition-affinity claims.
///
/// Each worker owns a home queue (`worker % num_queues`) and drains it
/// first — consecutive morsels of one partition keep the partition's pages
/// warm in its buffer pool. When the home queue runs dry the worker steals
/// from the queue with the most remaining morsels (the busiest partition is
/// exactly the one worth sharing). Stealing spreads a cold scan's readers
/// over partitions: BufferPool::FetchPage holds the partition's pool mutex
/// across the disk read, so readers stacked on one partition would miss one
/// page at a time. A steal that loses the race to the last morsel counts a
/// steal failure and re-picks.
///
/// Thread-safe and lock-free: each queue is an immutable morsel array plus
/// an atomic claim cursor. Total claims over a fully-drained scheduler
/// always equal the plan size (each morsel is handed out exactly once).
class MorselScheduler {
 public:
  /// `queues[p]` is partition p's morsel list (may be empty). The sink, if
  /// any, must outlive the scheduler.
  explicit MorselScheduler(std::vector<std::vector<Morsel>> queues,
                           MorselStatsSink sink = {});
  MorselScheduler(const MorselScheduler&) = delete;
  MorselScheduler& operator=(const MorselScheduler&) = delete;

  /// Total morsels across all queues (== the number of successful Claims a
  /// full drain performs).
  size_t total() const { return morsels_.size(); }
  size_t num_queues() const { return ranges_.size(); }

  /// Claims one morsel for `worker` (a stable worker index; affinity maps
  /// it to a home queue). Returns false when every queue is drained.
  /// `*stolen` (optional) reports whether the morsel came from a non-home
  /// queue.
  bool Claim(size_t worker, Morsel* out, bool* stolen = nullptr);

 private:
  bool TryClaim(size_t queue, Morsel* out);
  size_t Remaining(size_t queue) const;

  /// Flattened queue-major morsel array; ranges_[q] = [first, last) into it.
  std::vector<Morsel> morsels_;
  std::vector<std::pair<size_t, size_t>> ranges_;
  /// Per-queue claim cursor (offset of the next unclaimed morsel; may
  /// overshoot the queue size from failed claims — harmless).
  std::vector<std::atomic<size_t>> cursors_;
  MorselStatsSink sink_;
};

}  // namespace instantdb

#endif  // INSTANTDB_UTIL_MORSEL_H_
