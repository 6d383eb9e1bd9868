#ifndef INSTANTDB_QUERY_CURSOR_H_
#define INSTANTDB_QUERY_CURSOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "catalog/value.h"
#include "common/result.h"
#include "query/ast.h"
#include "query/result.h"
#include "storage/page.h"

namespace instantdb {

class Session;

/// \brief One batch of projected output rows, owned by the Cursor and
/// served by `Cursor::NextBatch`. Valid until the next
/// NextBatch/Next/Close call; storage is reused across batches.
///
/// Values are materialized per batch (π runs worker-side, next to the scan
/// → σ that produced the rows); display strings are NOT — `display(i)`
/// renders row i's strings on first access and caches them, so a consumer
/// that only reads `values` never pays for string formatting.
class CursorBatch {
 public:
  size_t size() const { return rows_.size; }
  RowId row_id(size_t i) const { return rows_.row_ids[i]; }
  /// Projected values of row i, in SELECT-item order.
  const std::vector<Value>& values(size_t i) const { return rows_.values[i]; }
  /// Display renderings of row i (bucket values render as "[lo..hi]"),
  /// produced lazily on first access.
  const std::vector<std::string>& display(size_t i) const;

 private:
  friend class Cursor;

  /// Marks every row's display as not yet rendered (after the rows were
  /// refilled).
  void ResetDisplay();

  ProjectedRows rows_;
  /// How rows_ render; owned by the cursor (its plan or buffered result).
  const ResultFormat* format_ = nullptr;
  mutable std::vector<std::vector<std::string>> display_;
  mutable std::vector<uint8_t> display_valid_;
};

/// \brief One streamed output row: a view into the cursor's current batch,
/// filled by `Cursor::Next`. Valid until the next Next/NextBatch/Close call
/// on the cursor; copy out anything that must outlive the pull. Display
/// strings are rendered lazily on first `display()` access.
class CursorRow {
 public:
  RowId row_id() const { return batch_->row_id(index_); }
  /// Projected values in SELECT-item order.
  const std::vector<Value>& values() const { return batch_->values(index_); }
  /// Display renderings (rendered on first access, then cached in the
  /// batch).
  const std::vector<std::string>& display() const {
    return batch_->display(index_);
  }

 private:
  friend class Cursor;
  const CursorBatch* batch_ = nullptr;
  size_t index_ = 0;
};

/// \brief Pull-based result iterator: the scalable read path.
///
/// A cursor executes a SELECT as a batch-at-a-time operator pipeline
/// (scan → σ at the purpose's accuracy level → π), so a SELECT over
/// millions of rows never materializes more than a bounded window of scan
/// batches. Obtained from `Session::ExecuteCursor` or
/// `PreparedStatement::ExecuteCursor`:
///
/// \code
///   auto cursor = session.ExecuteCursor("SELECT user, location FROM pings");
///   CursorRow row;
///   while (true) {
///     auto more = (*cursor)->Next(&row);
///     if (!more.ok() || !*more) break;
///     Consume(row.values());           // row.display() renders on demand
///   }
/// \endcode
///
/// **Parallel fan-out.** The scan side runs at the session's
/// `ScanOptions::parallelism` (0 = match the database's worker pool; tables
/// below plan::kParallelScanMinRows stay at 1). Scans parallelize at morsel
/// (page-range) granularity, so the fan-out is bounded by the morsel plan,
/// not the partition count. At parallelism 1 the consumer's thread walks
/// the morsels in order — rows come out in (partition, heap) order, no
/// extra threads. At parallelism N ≥ 2, up to N − 1 workers lent by the
/// shared pool claim morsels and push projected batches into a bounded
/// queue; the consumer serves queued batches and scans one itself whenever
/// the queue is empty. Scan I/O of one morsel overlaps σ/π of another's
/// batch, and rows interleave across morsels in arrival order (no global
/// order). The cursor holds one of the pool's cores from Open until its
/// stream ends or it closes, and its lent producers give theirs back at
/// morsel boundaries once other statements need them. Either way `Next` is
/// a view into the current batch and `NextBatch` exposes the batches
/// themselves — the bulk API the benches drain.
///
/// Isolation is snapshot-per-batch at every parallelism, for cursors and
/// `Session::Execute` alike: each scan batch is assembled under one
/// partition's shared latch, and rows inserted, deleted or degraded while
/// the statement runs may or may not be observed (never torn). Rows are
/// insert-only and a heap record never moves, so a row is observed at most
/// once.
/// Aggregate/GROUP BY statements are supported but buffer their (small)
/// aggregated result before streaming it.
class Cursor {
 public:
  ~Cursor();
  Cursor(const Cursor&) = delete;
  Cursor& operator=(const Cursor&) = delete;

  /// Output column names, available immediately after open.
  const std::vector<std::string>& columns() const;

  /// Pulls the next row into `*out` as a view into the current batch
  /// (valid until the next Next/NextBatch/Close). Returns true when a row
  /// was produced, false at end of stream. Calling Next after the end (or
  /// after Close) keeps returning false. Do not interleave with NextBatch.
  Result<bool> Next(CursorRow* out);

  /// Advances to the next batch of rows and points `*out` at it (valid
  /// until the next NextBatch/Next/Close). Returns false at end of stream.
  /// Batches are non-empty while the stream lasts.
  Result<bool> NextBatch(const CursorBatch** out);

  /// Releases pipeline resources early (stopping any prefetch workers);
  /// Next/NextBatch return false afterwards. Also run by the destructor.
  void Close();

  /// Rows handed out so far (per row via Next, per batch via NextBatch).
  uint64_t rows_returned() const;

  /// Opens the pipeline for one parsed statement (SELECT streams; other
  /// statements execute eagerly and stream their result rows). Most callers
  /// use `Session::ExecuteCursor(sql)` instead.
  ///
  /// `scan_batch_rows` bounds how many heap tuples one scan batch examines
  /// under a partition's shared latch (0 = plan::kStreamingScanBatchRows,
  /// which keeps memory bounded; SIZE_MAX makes every batch a whole morsel).
  static Result<std::unique_ptr<Cursor>> Open(Session* session,
                                              const StatementAst& statement,
                                              size_t scan_batch_rows = 0);

 private:
  struct Impl;
  explicit Cursor(std::unique_ptr<Impl> impl);

  /// Fetches the next non-empty batch into the impl's CursorBatch without
  /// touching rows_returned. Returns false at end of stream.
  Result<bool> FetchBatch();

  std::unique_ptr<Impl> impl_;
};

}  // namespace instantdb

#endif  // INSTANTDB_QUERY_CURSOR_H_
