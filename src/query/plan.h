#ifndef INSTANTDB_QUERY_PLAN_H_
#define INSTANTDB_QUERY_PLAN_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "db/table.h"
#include "query/ast.h"
#include "query/levels.h"
#include "query/session.h"

/// \file
/// \brief Internal query-plan layer shared by the streaming Cursor and the
/// materializing executor: predicate binding, accuracy resolution, and the
/// batch-at-a-time row source (scan → σ at accuracy level) that both build
/// on — one morsel reader per worker, inline or on the shared worker pool
/// per the session's ScanOptions.
///
/// Nothing here is part of the stable public API; embedders should use
/// `Session` / `Cursor` (query/session.h, query/cursor.h).

namespace instantdb {
namespace plan {

/// A WHERE conjunct after binding: resolved column, effective accuracy
/// level, and (for degradable columns) the literal normalized to a
/// hierarchy node with its leaf interval.
struct BoundPredicate {
  int column = -1;
  bool degradable = false;
  int level = 0;  // accuracy k of this column under the active purpose
  ComparisonOp op = ComparisonOp::kEq;
  Value value;
  Value value2;

  // Degradable Eq/Like-as-label/Between: literal as hierarchy node.
  int literal_level = -1;
  LeafInterval literal_interval;
  LeafInterval literal_interval2;  // BETWEEN upper bound
  bool index_usable = false;

  // Unresolved LIKE: case-insensitive substring match flags.
  std::string like_core;
  bool like_prefix_wildcard = false;  // pattern starts with %
  bool like_suffix_wildcard = false;  // pattern ends with %
};

/// One bound table access: σ conjuncts plus the accuracy demanded of every
/// referenced degradable column.
struct BoundQuery {
  Table* table = nullptr;
  std::vector<BoundPredicate> predicates;
  /// Accuracy per referenced degradable column index (projection +
  /// predicates).
  std::map<int, int> accuracy;
  /// The referenced degradable columns that leave the scan (projection,
  /// aggregate argument, GROUP BY): the only ones EvaluateRow generalizes.
  /// A predicate-only degradable column is tested on hierarchy node ids and
  /// left NULL in the EvaluatedRow, so its stored value is never exposed.
  std::set<int> projected_degradable;
  /// One flag per stable ordinal: read by a predicate or projected. Heap
  /// scans decode only these (ScanSpec::stable_needed).
  std::vector<bool> stable_needed;
};

/// One evaluated row: schema-ordered values at purpose accuracy, plus the
/// effective level of each degradable column (for display rendering).
/// Assignment reuses the vectors' capacity, which is what EvaluatedBatch's
/// slot recycling relies on.
struct EvaluatedRow {
  RowId row_id = kInvalidRowId;
  std::vector<Value> values;
  DegradableLevels degradable_level;  // column -> rendered level
};

/// One batch of qualifying rows, with slot storage reused across batches:
/// Clear() keeps every row's vectors allocated, so a steady-state scan
/// stops allocating after its first few batches (the read path's arena).
struct EvaluatedBatch {
  /// Valid rows are rows[0 .. size); entries beyond hold recycled storage.
  std::vector<EvaluatedRow> rows;
  size_t size = 0;

  void Clear() { size = 0; }
  /// Next writable slot (recycled or grown).
  EvaluatedRow* Add() {
    if (size == rows.size()) rows.emplace_back();
    return &rows[size++];
  }
  /// Drops the most recently added slot (row did not qualify).
  void DropLast() { --size; }
  void Swap(EvaluatedBatch* other) {
    rows.swap(other->rows);
    std::swap(size, other->size);
  }
};

/// Binds table + WHERE conjuncts + projected columns against the catalog and
/// the session's active purpose.
Result<BoundQuery> BindQuery(Session* session, const std::string& table_name,
                             const std::vector<PredicateAst>& where,
                             const std::vector<int>& projected_columns);

/// Applies computability + f_k + σ_P to one stored row. Returns true and
/// fills `out` when the row qualifies under the bound accuracy levels.
/// Degradable predicates are evaluated on the stored value's leaf interval
/// at the demanded level. Only the projected degradable columns of a
/// qualifying row are generalized into `out`; every other degradable column
/// is NULL there.
/// `stable_prefiltered` tells it the scan already evaluated every
/// stable-column conjunct below row assembly (ScanSpec pushdown, as every
/// heap scan does), so only the degradable terms are re-checked here.
bool EvaluateRow(const BoundQuery& query, const ReadOptions& read_options,
                 const RowView& view, EvaluatedRow* out,
                 bool stable_prefiltered = false);

/// Whole-batch σ: evaluates every view, appending the qualifying rows to
/// `out` (recycled slots, see EvaluatedBatch). This is the operators' inner
/// loop — one virtual call per batch instead of per row.
void EvaluateViews(const BoundQuery& query, const ReadOptions& read_options,
                   const std::vector<RowView>& views, EvaluatedBatch* out,
                   bool stable_prefiltered = false);

/// Renders one output value (buckets as "[lo..hi]", levels applied).
std::string RenderValue(const Schema& schema, int col, const Value& value,
                        const DegradableLevels& levels);

/// \brief Pull-based source of qualifying rows: the scan → σ stage of the
/// operator pipeline, pulled a batch at a time. Implementations read the
/// heap through per-worker morsel readers (streamed or materialized) or
/// fetch the rows of a multi-resolution index probe.
class RowSource {
 public:
  virtual ~RowSource() = default;
  /// Pulls the next batch of qualifying rows into `*out` (storage reused or
  /// swapped). Returns false at end of stream. A returned batch may be
  /// empty only at end of stream.
  virtual Result<bool> NextBatch(EvaluatedBatch* out) = 0;
  /// Row-at-a-time adapter over NextBatch for consumers that fold rows into
  /// running state (aggregates, DELETE). Moves each row out of an internal
  /// batch; do not interleave with NextBatch on the same source.
  Result<bool> Next(EvaluatedRow* out);

 private:
  EvaluatedBatch adapter_batch_;
  size_t adapter_next_ = 0;
  bool adapter_done_ = false;
};

/// Default heap-scan batch for streaming cursors: bounds both peak memory
/// and how long one batch holds the table's shared latch.
inline constexpr size_t kStreamingScanBatchRows = 256;

/// Below this many live rows, auto-resolved parallelism (ScanOptions 0)
/// stays at 1: dispatching scan workers costs more than scanning a
/// few-batches table inline.
inline constexpr uint64_t kParallelScanMinRows = 8 * kStreamingScanBatchRows;

/// Resolved scan fan-out: how many workers MakeRowSource would use for
/// `table` under the session's ScanOptions. 0 resolves to
/// DegradationOptions::worker_threads — but stays 1 on tables below
/// kParallelScanMinRows, where worker dispatch would dominate. Explicit
/// values are honored. No partition clamp: scans parallelize at morsel
/// (page-range) granularity, so the fan-out may exceed the partition count;
/// each scan path clamps only to its own morsel-plan size.
size_t ResolveScanParallelism(Session* session, const Table& table);

/// Chooses the access path (index probe when a usable degradable predicate
/// exists and the session allows indexes, heap scan otherwise) and returns
/// the corresponding source. `query` must outlive the source. ReadOptions
/// and ScanOptions are captured from the session at this point.
///
/// Every heap scan is one pipeline: per-worker readers claim page-range
/// morsels from a work-stealing scheduler (util/morsel.h), pull latched
/// batches with the stable predicates pushed below row assembly, and apply
/// the degradable σ and f_k to the survivors. Isolation is
/// snapshot-per-batch at any parallelism (a row relocated by a concurrent
/// update may be missed or observed twice). Only the consumer differs:
///  - `scan_batch_rows` bounded (streaming cursors): with resolved
///    parallelism 1 — or a one-morsel table, or a pool that lends no
///    worker — the consumer's thread pulls one reader inline, in
///    (partition, heap) order; otherwise the producers the shared pool
///    lends feed a bounded batch queue and rows arrive interleaved across
///    morsels. No thread is spawned.
///  - SIZE_MAX (Execute, DELETE, grouped aggregates): readers drain the
///    whole scan on the shared pool into per-morsel buckets served in
///    morsel-ordinal order, so rows come out in sequential-scan order at
///    any parallelism.
Result<std::unique_ptr<RowSource>> MakeRowSource(
    Session* session, const BoundQuery& query,
    size_t scan_batch_rows = kStreamingScanBatchRows);

/// Fully bound SELECT: access path + projection + aggregation shape.
struct SelectPlan {
  const Schema* schema = nullptr;
  std::vector<SelectItem> items;    // star already expanded
  std::vector<int> item_columns;    // per item: schema column (-1 = COUNT(*))
  std::vector<std::string> output_columns;  // rendered header names
  int group_col = -1;               // schema column, -1 = none
  bool has_aggregate = false;
  BoundQuery query;
};

/// Binds a SELECT statement into an executable plan.
Result<SelectPlan> BindSelect(Session* session, const SelectAst& ast);

/// Aggregate state of one group (or one scan worker), indexed like
/// SelectPlan::items. COUNT(*) reads `count`; COUNT(col)/AVG read
/// `non_null`; SUM/AVG read `sums`; MIN/MAX read `mins`/`maxs`.
struct AggregatePartials {
  uint64_t count = 0;
  std::vector<double> sums;
  std::vector<Value> mins;
  std::vector<Value> maxs;
  std::vector<uint64_t> non_null;
};

/// Resets `agg` to the empty state for `items` select items.
void InitPartials(size_t items, AggregatePartials* agg);

/// Folds one qualifying row into `agg`: the one per-item aggregate state
/// transition, shared by the pushed-down partials and the executor's
/// grouped and index-path aggregation.
void FoldAggregateRow(const SelectPlan& select, const EvaluatedRow& row,
                      AggregatePartials* agg);

/// True when `select` can compute below the cursor: ungrouped, every item
/// an aggregate, and no usable index predicate (index probes keep the
/// row-at-a-time path).
bool CanPushAggregate(Session* session, const SelectPlan& select);

/// Aggregate pushdown: computes COUNT/SUM/AVG/MIN/MAX partials inside the
/// scan workers — one partial per WORKER, each running a morsel reader on
/// the shared pool and folding its batches as they leave the scan — then
/// merges the per-worker partials (merge is associative, so the claim order
/// never matters). Aggregate queries stop shipping qualifying rows
/// through a row source entirely; a query referencing no degradable column
/// (COUNT(*) over stable predicates) also skips every state-store probe.
/// Only valid when CanPushAggregate(session, select).
Result<AggregatePartials> ExecuteAggregatePushdown(Session* session,
                                                   const SelectPlan& select);

}  // namespace plan
}  // namespace instantdb

#endif  // INSTANTDB_QUERY_PLAN_H_
