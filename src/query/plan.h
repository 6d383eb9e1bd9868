#ifndef INSTANTDB_QUERY_PLAN_H_
#define INSTANTDB_QUERY_PLAN_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "db/table.h"
#include "query/ast.h"
#include "query/result.h"
#include "query/session.h"

/// \file
/// \brief Internal query-plan layer shared by the streaming Cursor and the
/// materializing executor: predicate binding, accuracy resolution, σ on
/// stored leaf ordinals, and the drains that hand qualifying rows to their
/// consumers worker-side — one morsel reader per worker, inline or on the
/// shared worker pool per the session's ScanOptions.
///
/// Late materialization: a heap scan runs the stable σ on the field views
/// of its one walk over each record and carries per surviving row only the
/// stable Values its consumer reads and, per degradable column, the stored
/// phase and leaf ordinal (db/scan_spec.h). Computability and the
/// degradable σ run on those integers (QualifyDegradable); a degradable
/// Value is built — with f_k, from the ordinal — only for a qualifying cell
/// that leaves the scan.
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
  /// The column's stable ordinal (stable terms) or degradable ordinal
  /// (degradable terms): where a scanned row carries its value.
  int ordinal = -1;
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

/// One degradable column as σ reads it, indexed by degradable ordinal.
struct DegradableColumn {
  const DomainHierarchy* hierarchy = nullptr;
  /// Accuracy level of every LCP phase; a phase >= size() is removed (⊥).
  std::vector<int> phase_levels;
  /// Accuracy k the statement demands; -1 when it does not reference the
  /// column.
  int accuracy = -1;
};

/// One bound table access: σ conjuncts plus the accuracy demanded of every
/// referenced degradable column.
struct BoundQuery {
  Table* table = nullptr;
  std::vector<BoundPredicate> predicates;
  /// Per degradable ordinal: domain, phase levels and demanded accuracy
  /// (projection + predicates).
  std::vector<DegradableColumn> degradable;
  /// True when some degradable column is referenced: heap scans then
  /// resolve every survivor's phases and ordinals.
  bool reads_degradable = false;
  /// One flag per stable ordinal. `filter_stable`: read by a predicate on
  /// every scanned tuple's field views. `output_stable`: projected, so
  /// built as a Value for every survivor.
  std::vector<bool> filter_stable;
  std::vector<bool> output_stable;
};

/// Binds table + WHERE conjuncts + projected columns against the catalog and
/// the session's active purpose.
Result<BoundQuery> BindQuery(Session* session, const std::string& table_name,
                             const std::vector<PredicateAst>& where,
                             const std::vector<int>& projected_columns);

/// Computability + degradable σ of one stored row, read from its stored
/// phases and leaf ordinals (by degradable ordinal). A referenced column
/// that was removed, or is coarser than demanded without include_coarser,
/// fails the row; node predicates (Eq/Ne, label LIKE, BETWEEN) compare the
/// leaf interval of the ordinal's ancestor at the effective level, the rest
/// the ancestor's value. On success `levels[d]` holds the effective level
/// (max(stored, k)) of every referenced column d. Stable terms are not
/// checked here (StablePredicateFilter).
bool QualifyDegradable(const BoundQuery& query, const ReadOptions& read_options,
                       const int* phases, const int64_t* ordinals, int* levels);

/// Where one output cell comes from: a stable value of the scanned tuple
/// (by stable ordinal; moved out on its last use in the row) or a degradable
/// cell built with f_k from its leaf ordinal (by degradable ordinal).
/// Both -1: COUNT(*).
struct CellSource {
  int stable = -1;
  int degradable = -1;
  bool move = false;
};

/// Fully bound SELECT: access path + projection + aggregation shape.
struct SelectPlan {
  const Schema* schema = nullptr;
  std::vector<SelectItem> items;    // star already expanded
  std::vector<int> item_columns;    // per item: schema column (-1 = COUNT(*))
  std::vector<CellSource> sources;  // per item
  std::vector<std::string> output_columns;  // rendered header names
  int group_col = -1;               // schema column, -1 = none
  CellSource group_source;
  bool has_aggregate = false;
  /// How output rows render: degradable plain-column items (projected, or
  /// the GROUP BY column) in their domain at the row's level, everything
  /// else — aggregate values included — plainly.
  ResultFormat format;
  BoundQuery query;
};

/// Binds a SELECT statement into an executable plan.
Result<SelectPlan> BindSelect(Session* session, const SelectAst& ast);

/// \brief Pull-based source of projected rows for streaming cursors: scan →
/// σ → π, pulled a batch at a time, every stage worker-side.
class RowSource {
 public:
  virtual ~RowSource() = default;
  /// Pulls the next batch of projected rows into `*out` (storage reused or
  /// swapped). Returns false at end of stream. A returned batch may be
  /// empty only at end of stream.
  virtual Result<bool> NextBatch(ProjectedRows* out) = 0;
};

/// Default heap-scan batch for streaming cursors: bounds both peak memory
/// and how long one batch holds the table's shared latch.
inline constexpr size_t kStreamingScanBatchRows = 256;

/// Below this many live rows, auto-resolved parallelism (ScanOptions 0)
/// stays at 1: dispatching scan workers costs more than scanning a
/// few-batches table inline.
inline constexpr uint64_t kParallelScanMinRows = 8 * kStreamingScanBatchRows;

/// Resolved scan fan-out: how many workers a heap scan of `table` uses
/// under the session's ScanOptions. 0 resolves to
/// DegradationOptions::worker_threads — but stays 1 on tables below
/// kParallelScanMinRows, where worker dispatch would dominate. Explicit
/// values are honored. No partition clamp: scans parallelize at morsel
/// (page-range) granularity, so the fan-out may exceed the partition count;
/// each scan path clamps only to its own morsel-plan size.
size_t ResolveScanParallelism(Session* session, const Table& table);

/// Streaming source for a non-aggregate SELECT. Chooses the access path
/// (index probe when a usable degradable predicate exists and the session
/// allows indexes, heap scan otherwise). `select` must outlive the source.
/// ReadOptions and ScanOptions are captured from the session at this point.
///
/// Every heap scan is one pipeline: per-worker readers claim page-range
/// morsels from a work-stealing scheduler (util/morsel.h), pull latched
/// batches with the stable predicates evaluated inside the scan, run the
/// degradable σ on the survivors' ordinals and project the qualifying rows.
/// Isolation is snapshot-per-batch at any parallelism, and a row is
/// observed at most once (a heap record never moves). With resolved
/// parallelism 1 — or a one-morsel table, or a pool that lends no worker —
/// the consumer's thread pulls one reader inline, in (partition, heap)
/// order; otherwise the producers the shared pool lends feed a bounded
/// batch queue and rows arrive interleaved across morsels. No thread is
/// spawned. An index probe reads through the same batches, one cursor per
/// partition over that partition's probed ids, with one inline reader, so
/// its rows come out in (partition, row id) order. `scan_batch_rows` bounds
/// the heap tuples (or probed ids) one batch examines (SIZE_MAX: a whole
/// morsel, or a partition's ids, per batch).
Result<std::unique_ptr<RowSource>> MakeRowSource(
    Session* session, const SelectPlan& select,
    size_t scan_batch_rows = kStreamingScanBatchRows);

/// Materialized non-aggregate SELECT (Session::Execute): every qualifying
/// row is projected worker-side straight into its morsel's bucket, and the
/// buckets are concatenated in morsel-ordinal order — (partition,
/// begin_page) ascending — so rows come out in sequential-scan order at any
/// parallelism. Index probes project in (partition, row id) order.
Result<QueryResult> ExecuteProjection(Session* session,
                                      const SelectPlan& select);

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

/// One output group of an aggregate SELECT: the group column's value and
/// effective level (for rendering; unset when ungrouped) and its partials.
struct AggregateGroup {
  Value value;
  int level = 0;
  AggregatePartials partials;
};

/// Aggregate SELECT (optionally grouped by one column), computed
/// worker-side: each scan worker folds its qualifying rows straight from
/// the latched batch into its own partials (or group map) — f_k runs only
/// for aggregated degradable columns — and the per-worker partials merge
/// here (merge is associative, so the claim order never matters). A
/// statement that reads no column at all (COUNT(*) with stable-only or no
/// predicates) folds survivor counts and assembles no row. Index probes
/// fold inline. Groups are keyed by their rendered value ("*" when
/// ungrouped); an ungrouped aggregate over no row yields no group.
Result<std::map<std::string, AggregateGroup>> ExecuteAggregation(
    Session* session, const SelectPlan& select);

/// Row ids of every row `query` qualifies (DELETE), collected worker-side.
Result<std::vector<RowId>> QualifyingRowIds(Session* session,
                                            const BoundQuery& query);

}  // namespace plan
}  // namespace instantdb

#endif  // INSTANTDB_QUERY_PLAN_H_
