#include "query/plan.h"

#include <algorithm>
#include <cctype>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <mutex>

#include "common/cancel.h"
#include "common/strings.h"
#include "query/predicate.h"
#include "util/morsel.h"
#include "util/worker_pool.h"

namespace instantdb {
namespace plan {

namespace {

/// Batch size of the materialized and aggregate morsel drains: large enough
/// that latch reacquisition is noise, small enough that a batch never holds
/// a partition latch for long.
constexpr size_t kMaterializedScanBatchRows = 1024;

/// Statement budget captured when a source opens: every scan path probes
/// the deadline and the CancelToken (ScanOptions) at morsel-claim and batch
/// granularity, so a doomed statement stops within one batch, releases its
/// workers (pool tokens are waited out by the normal error paths), and
/// fails partial-safe with Timeout/Aborted.
struct ScanBudget {
  const Clock* clock = nullptr;
  Micros deadline = 0;
  const CancelToken* cancel = nullptr;

  static ScanBudget Of(Session* session) {
    return ScanBudget{session->db()->clock(),
                      session->scan_options().deadline,
                      session->scan_options().cancel};
  }
  Status Check() const {
    if (deadline == 0 && cancel == nullptr) return Status::OK();
    return CheckStatementBudget(clock, deadline, cancel);
  }
};

/// Folds one scan's ScanDeltas into the database's atomic counters — once
/// per batch, outside any partition latch.
void FoldDeltas(Database::ScanCounters* counters, const ScanDeltas& deltas) {
  counters->rows.fetch_add(deltas.rows_scanned, std::memory_order_relaxed);
  counters->rows_prefiltered.fetch_add(deltas.rows_prefiltered,
                                       std::memory_order_relaxed);
  counters->store_probes_issued.fetch_add(deltas.probes_issued,
                                          std::memory_order_relaxed);
  counters->store_probes_skipped.fetch_add(deltas.probes_skipped,
                                           std::memory_order_relaxed);
  counters->values_decoded.fetch_add(deltas.values_decoded,
                                     std::memory_order_relaxed);
  counters->values_built.fetch_add(deltas.values_built,
                                   std::memory_order_relaxed);
  counters->records_walked.fetch_add(deltas.records_walked,
                                     std::memory_order_relaxed);
  counters->page_images_built.fetch_add(deltas.page_images_built,
                                        std::memory_order_relaxed);
}

/// The pushdown contract of one bound query: its stable terms as the filter,
/// store probes only when a degradable column is referenced (COUNT(*)
/// never probes), and Values only for the stable columns its consumer reads
/// from a survivor (COUNT(*) builds none). `filter` must outlive the spec.
ScanSpec MakeScanSpec(const BoundQuery& query,
                      const StablePredicateFilter& filter, bool count_only) {
  ScanSpec spec;
  spec.filter = filter.empty() ? nullptr : &filter;
  spec.need_degradable = query.reads_degradable;
  spec.count_only = count_only;
  spec.filter_columns = query.filter_stable;
  spec.output_columns = query.output_stable;
  return spec;
}

/// Position of stable column `col` in Schema::stable_columns(), -1 if none.
int StableOrdinal(const Schema& schema, int col) {
  const std::vector<int>& stable = schema.stable_columns();
  const auto it = std::find(stable.begin(), stable.end(), col);
  return it == stable.end() ? -1 : static_cast<int>(it - stable.begin());
}

/// Finds the level of a literal value in a hierarchy (tree labels can sit at
/// any level; interval bucket bounds at several — prefer the leaf).
Result<int> LiteralLevel(const DomainHierarchy& hierarchy, const Value& value) {
  for (int level = 0; level < hierarchy.height(); ++level) {
    if (hierarchy.ValidateAtLevel(value, level).ok()) return level;
  }
  return Status::InvalidArgument("literal '" + value.ToString() +
                                 "' is not a value of domain " +
                                 hierarchy.name());
}

/// Case-insensitive label lookup across all levels of a tree domain (the
/// paper's `LIKE "%FRANCE%"` names the node "France").
Result<std::pair<Value, int>> ResolveLabel(const DomainHierarchy& hierarchy,
                                           const std::string& label) {
  const auto* tree = dynamic_cast<const GeneralizationTree*>(&hierarchy);
  if (tree == nullptr) {
    return Status::NotFound("not a tree domain");
  }
  for (int level = 0; level < tree->height(); ++level) {
    for (const std::string& candidate : tree->LabelsAtLevel(level)) {
      if (EqualsIgnoreCase(candidate, label)) {
        return std::make_pair(Value::String(candidate), level);
      }
    }
  }
  return Status::NotFound("no label '" + label + "' in domain " +
                          hierarchy.name());
}

/// Splits a LIKE pattern into its core and the leading/trailing `%` flags
/// (case-insensitive substring match, see MatchLike).
Status BindLikePattern(const Value& pattern_value, BoundPredicate* out) {
  if (pattern_value.type() != ValueType::kString) {
    return Status::InvalidArgument("LIKE needs a string pattern");
  }
  std::string pattern = pattern_value.str();
  out->like_prefix_wildcard = StartsWith(pattern, "%");
  out->like_suffix_wildcard = EndsWith(pattern, "%") && pattern.size() > 1;
  if (out->like_prefix_wildcard) pattern.erase(0, 1);
  if (out->like_suffix_wildcard && !pattern.empty()) pattern.pop_back();
  out->like_core = std::move(pattern);
  return Status::OK();
}

/// A stable term's literal must have its column's type, so the scan's typed
/// σ never meets two incomparable values: int64 and timestamp are
/// interchangeable, and an integer literal against a DOUBLE column is
/// promoted to a double.
Status CheckStableLiteral(const ColumnDef& column, Value* literal) {
  const ValueType type = literal->type();
  if (type == column.type ||
      (IsIntegerType(type) && IsIntegerType(column.type))) {
    return Status::OK();
  }
  if (column.type == ValueType::kDouble && type == ValueType::kInt64) {
    *literal = Value::Double(static_cast<double>(literal->int64()));
    return Status::OK();
  }
  return Status::InvalidArgument(
      StringPrintf("column '%s' is %s, literal %s is %s", column.name.c_str(),
                   ValueTypeName(column.type), literal->ToString().c_str(),
                   ValueTypeName(type)));
}

/// Parses the paper's bucket literal syntax 'lo-hi' for interval domains.
bool ParseBucketLiteral(const std::string& text, int64_t* lo, int64_t* hi) {
  const size_t dash = text.find('-', 1);
  if (dash == std::string::npos) return false;
  char* end = nullptr;
  *lo = std::strtoll(text.c_str(), &end, 10);
  if (end != text.c_str() + dash) return false;
  *hi = std::strtoll(text.c_str() + dash + 1, &end, 10);
  return *end == '\0';
}

Status BindPredicate(const Schema& schema, Session* session, TableId table_id,
                     const PredicateAst& ast, BoundPredicate* out) {
  out->column = ResolveColumnName(schema, ast.column);
  if (out->column < 0) {
    return Status::InvalidArgument("unknown column: " + ast.column);
  }
  const ColumnDef& column = schema.column(out->column);
  out->degradable = column.kind == ColumnKind::kDegradable;
  out->ordinal = out->degradable ? schema.DegradableOrdinal(out->column)
                                 : StableOrdinal(schema, out->column);
  out->op = ast.op;
  out->value = ast.value;
  out->value2 = ast.value2;
  if (!out->degradable) {
    if (ast.op == ComparisonOp::kLike) {
      if (column.type != ValueType::kString) {
        return Status::InvalidArgument("LIKE on non-string column: " +
                                       column.name);
      }
      return BindLikePattern(ast.value, out);
    }
    IDB_RETURN_IF_ERROR(CheckStableLiteral(column, &out->value));
    return ast.op == ComparisonOp::kBetween
               ? CheckStableLiteral(column, &out->value2)
               : Status::OK();
  }

  const DomainHierarchy& hierarchy = *column.hierarchy;
  out->level = session->AccuracyFor(table_id, out->column);

  switch (ast.op) {
    case ComparisonOp::kEq:
    case ComparisonOp::kNe: {
      Value literal = ast.value;
      if (hierarchy.value_type() == ValueType::kInt64 &&
          literal.type() == ValueType::kString) {
        // '2000-3000' bucket syntax: the width names the level.
        int64_t lo, hi;
        if (!ParseBucketLiteral(literal.str(), &lo, &hi)) {
          return Status::InvalidArgument("bad bucket literal: " +
                                         literal.str());
        }
        const auto* interval =
            static_cast<const IntervalHierarchy*>(&hierarchy);
        IDB_ASSIGN_OR_RETURN(out->literal_level,
                             interval->LevelForWidth(hi - lo));
        literal = Value::Int64(lo);
      } else {
        IDB_ASSIGN_OR_RETURN(out->literal_level,
                             LiteralLevel(hierarchy, literal));
      }
      IDB_ASSIGN_OR_RETURN(out->literal_interval,
                           hierarchy.LeafRange(literal, out->literal_level));
      out->value = literal;
      out->index_usable = ast.op == ComparisonOp::kEq;
      return Status::OK();
    }
    case ComparisonOp::kLike: {
      IDB_RETURN_IF_ERROR(BindLikePattern(ast.value, out));
      // `%France%` resolves to the France node: evaluated (and indexed) as
      // an equality against that node's subtree.
      auto label = ResolveLabel(hierarchy, out->like_core);
      if (label.ok()) {
        out->value = label->first;
        out->literal_level = label->second;
        auto interval = hierarchy.LeafRange(label->first, label->second);
        if (interval.ok()) {
          out->literal_interval = *interval;
          out->index_usable = true;
        }
      }
      return Status::OK();
    }
    case ComparisonOp::kBetween: {
      if (hierarchy.value_type() != ValueType::kInt64) {
        return Status::NotSupported("BETWEEN on categorical domains");
      }
      if (ast.value.type() != ValueType::kInt64 ||
          ast.value2.type() != ValueType::kInt64) {
        return Status::InvalidArgument("BETWEEN bounds must be integers");
      }
      // Bounds generalize to the demanded level's buckets.
      IDB_ASSIGN_OR_RETURN(Value lo,
                           hierarchy.Generalize(ast.value, 0, out->level));
      IDB_ASSIGN_OR_RETURN(Value hi,
                           hierarchy.Generalize(ast.value2, 0, out->level));
      out->value = lo;
      out->value2 = hi;
      out->literal_level = out->level;
      IDB_ASSIGN_OR_RETURN(out->literal_interval,
                           hierarchy.LeafRange(lo, out->level));
      IDB_ASSIGN_OR_RETURN(out->literal_interval2,
                           hierarchy.LeafRange(hi, out->level));
      out->index_usable = true;
      return Status::OK();
    }
    case ComparisonOp::kLt:
    case ComparisonOp::kLe:
    case ComparisonOp::kGt:
    case ComparisonOp::kGe: {
      if (hierarchy.value_type() != ValueType::kInt64) {
        return Status::NotSupported(
            "ordering predicates on categorical domains");
      }
      if (ast.value.type() != ValueType::kInt64) {
        return Status::InvalidArgument("ordering literal must be an integer");
      }
      return Status::OK();
    }
  }
  return Status::OK();
}

/// Evaluates one bound degradable predicate on a stored value's leaf
/// ordinal, read at `level` (the effective level, never finer than the
/// stored one). Node predicates (Eq/Ne, label-LIKE, BETWEEN) compare the
/// leaf interval of the ordinal's level-`level` ancestor; the rest compare
/// that ancestor's value. Neither path hashes or copies the stored Value.
bool EvalDegradablePredicate(const DomainHierarchy& hierarchy,
                             const BoundPredicate& pred, int64_t ordinal,
                             int level) {
  if (ordinal < 0) return false;  // removed
  const bool node_predicate =
      pred.op == ComparisonOp::kEq || pred.op == ComparisonOp::kNe ||
      pred.op == ComparisonOp::kBetween ||
      (pred.op == ComparisonOp::kLike && pred.literal_level >= 0);
  if (node_predicate && level <= pred.literal_level) {
    // Intervals nest: the row's level-`level` node lies inside exactly one
    // node of the literal's (coarser or equal) level, so it is inside the
    // literal's interval iff its leaf ordinal is — no ancestor walk.
    switch (pred.op) {
      case ComparisonOp::kBetween:
        return ordinal >= pred.literal_interval.lo &&
               ordinal <= pred.literal_interval2.hi;
      case ComparisonOp::kNe:
        return !pred.literal_interval.Contains(ordinal);
      default:  // Eq, label LIKE
        return pred.literal_interval.Contains(ordinal);
    }
  }
  if (node_predicate) {
    // A row read coarser than the literal: compare its node's interval.
    const LeafInterval row_interval = hierarchy.AncestorRange(ordinal, level);
    switch (pred.op) {
      case ComparisonOp::kBetween:
        return row_interval.lo >= pred.literal_interval.lo &&
               row_interval.hi <= pred.literal_interval2.hi;
      case ComparisonOp::kNe:
        return !pred.literal_interval.Contains(row_interval);
      default:  // Eq, label LIKE
        return pred.literal_interval.Contains(row_interval);
    }
  }
  const Value value = hierarchy.AncestorValue(ordinal, level);
  switch (pred.op) {
    case ComparisonOp::kLike:
      return MatchLike(hierarchy.DisplayValue(value, level), pred);
    case ComparisonOp::kLt:
      return value.int64() < pred.value.int64();
    case ComparisonOp::kLe:
      return value.int64() <= pred.value.int64();
    case ComparisonOp::kGt:
      // Bucket lower-bound comparison: a bucket qualifies when it lies
      // entirely above the literal is too strict for coarse levels; we
      // compare lower bounds (documented choice).
      return value.int64() > pred.value.int64();
    case ComparisonOp::kGe:
      return value.int64() >= pred.value.int64();
    default:
      return false;
  }
}

/// One row that passed σ, as the worker-side consumers read it: stable
/// values by stable ordinal in `tuple` (only the read ones decoded; a
/// consumer may move them out), and per degradable ordinal the leaf
/// ordinal and effective level that f_k builds an output cell from.
struct QualifiedRow {
  HeapTuple* tuple = nullptr;
  const int64_t* ordinals = nullptr;
  const int* levels = nullptr;
};

/// f_k for one qualifying cell: the stored value's ancestor at the row's
/// effective level, built from its leaf ordinal.
Value DegradableCell(const BoundQuery& query, int d, const QualifiedRow& row) {
  const int64_t ordinal = row.ordinals[d];
  if (ordinal < 0) return Value::Null();
  return query.degradable[d].hierarchy->AncestorValue(ordinal, row.levels[d]);
}

/// π for one qualifying row: appends it to `out`, stable values moved out
/// of the scan slot on their last use, degradable cells built with f_k,
/// plus the row's level block for lazy rendering.
void ProjectRow(const SelectPlan& select, QualifiedRow& row,
                ProjectedRows* out) {
  const size_t per_row = select.format.levels_per_row();
  const size_t i =
      out->Add(row.tuple->row_id, select.sources.size(), per_row);
  std::vector<Value>& values = out->values[i];
  int* levels = out->levels.data() + i * per_row;
  for (size_t k = 0; k < select.sources.size(); ++k) {
    const CellSource& src = select.sources[k];
    if (src.stable >= 0) {
      Value& stored = row.tuple->stable[src.stable];
      values[k] = src.move ? std::move(stored) : stored;
    } else {
      values[k] = DegradableCell(select.query, src.degradable, row);
      *levels++ = row.levels[src.degradable];
    }
  }
}

/// The one per-item aggregate state transition for a non-NULL value.
void FoldValue(size_t item, const Value& v, AggregatePartials* agg) {
  if (v.is_null()) return;
  ++agg->non_null[item];
  if (v.type() == ValueType::kInt64 || v.type() == ValueType::kTimestamp) {
    agg->sums[item] += static_cast<double>(v.int64());
  } else if (v.type() == ValueType::kDouble) {
    agg->sums[item] += v.dbl();
  }
  if (agg->mins[item].is_null() || v.Compare(agg->mins[item]) < 0) {
    agg->mins[item] = v;
  }
  if (agg->maxs[item].is_null() || v.Compare(agg->maxs[item]) > 0) {
    agg->maxs[item] = v;
  }
}

/// Folds one qualifying row into `agg`, reading stable values in place and
/// building degradable cells only for the aggregated columns.
void FoldRow(const SelectPlan& select, const QualifiedRow& row,
             AggregatePartials* agg) {
  ++agg->count;
  for (size_t i = 0; i < select.items.size(); ++i) {
    const CellSource& src = select.sources[i];
    if (select.items[i].aggregate == AggregateKind::kNone) continue;
    if (src.stable >= 0) {
      FoldValue(i, row.tuple->stable[src.stable], agg);
    } else if (src.degradable >= 0) {
      FoldValue(i, DegradableCell(select.query, src.degradable, row), agg);
    }
  }
}

void InitPartials(size_t items, AggregatePartials* agg) {
  agg->count = 0;
  agg->sums.assign(items, 0);
  agg->mins.assign(items, Value::Null());
  agg->maxs.assign(items, Value::Null());
  agg->non_null.assign(items, 0);
}

/// Merge is associative over per-worker partials: counts and sums add,
/// extrema compare — so claim order never matters.
void MergePartials(const AggregatePartials& in, AggregatePartials* out) {
  out->count += in.count;
  for (size_t i = 0; i < in.sums.size(); ++i) {
    out->sums[i] += in.sums[i];
    out->non_null[i] += in.non_null[i];
    if (!in.mins[i].is_null() &&
        (out->mins[i].is_null() || in.mins[i].Compare(out->mins[i]) < 0)) {
      out->mins[i] = in.mins[i];
    }
    if (!in.maxs[i].is_null() &&
        (out->maxs[i].is_null() || in.maxs[i].Compare(out->maxs[i]) > 0)) {
      out->maxs[i] = in.maxs[i];
    }
  }
}

/// What one statement reads: the row ids an index probe returned, grouped
/// by partition (each group ascending), or — with no usable index
/// predicate — the heap's morsel plan.
struct ReadSet {
  bool indexed = false;
  std::vector<std::vector<RowId>> probed;
  std::vector<std::vector<Morsel>> plan;
};

/// Probes the multi-resolution index when the query has a usable degradable
/// predicate (and indexes are on); otherwise plans a heap scan.
Result<ReadSet> PlanRead(Session* session, const BoundQuery& query) {
  ReadSet read;
  const BoundPredicate* index_pred = nullptr;
  if (session->use_indexes() && !session->read_options().include_coarser) {
    for (const BoundPredicate& pred : query.predicates) {
      if (pred.degradable && pred.index_usable) {
        index_pred = &pred;
        break;
      }
    }
  }
  if (index_pred == nullptr) {
    read.plan = query.table->MorselPlan(session->scan_options().morsel_pages);
    return read;
  }
  read.indexed = true;
  if (index_pred->op == ComparisonOp::kBetween) {
    IDB_RETURN_IF_ERROR(query.table->IndexLookupRange(
        index_pred->column, index_pred->value, index_pred->value2,
        index_pred->level, &read.probed));
  } else {
    // Equality / label-LIKE: probe at the literal's own level so every
    // computable phase tree is visited.
    IDB_RETURN_IF_ERROR(query.table->IndexLookupEqual(
        index_pred->column, index_pred->value,
        std::max(index_pred->literal_level, index_pred->level),
        &read.probed));
  }
  return read;
}

/// Per-statement state shared by every reader of one scan: the pushdown
/// spec (stable σ inside the scan, survivors-only store probes and late
/// decode), what to read, the statement budget, the pool its lent readers
/// come from and the counters the readers fold into. A heap scan hands out
/// morsels through the scheduler; an index probe's ids are read partition
/// by partition by ONE reader (Fanout is 1), which claims no morsel.
struct HeapScan {
  HeapScan(Session* session, const BoundQuery& query, size_t batch_rows,
           ReadSet read, bool count_only = false)
      : query(query),
        read_options(session->read_options()),
        counters(session->db()->scan_counters()),
        pool(session->db()->worker_pool()),
        budget(ScanBudget::Of(session)),
        batch_rows(batch_rows),
        filter(query.predicates),
        spec(MakeScanSpec(query, filter, count_only)),
        indexed(read.indexed),
        probed(std::move(read.probed)),
        sched(std::move(read.plan),
              MorselStatsSink{&counters->morsels_claimed,
                              &counters->morsels_stolen,
                              &counters->steal_failures}) {}

  /// Readers worth running for `want` workers: at least one, at most one
  /// per morsel, exactly one for an index probe.
  size_t Fanout(size_t want) const {
    if (indexed) return 1;
    return std::max<size_t>(1, std::min(want, sched.total()));
  }

  /// Opens `worker`'s next cursor: on a heap scan over a morsel it claims
  /// (stored in `*morsel`), on an index probe over the next partition's
  /// probed ids. False once nothing is left.
  bool OpenNext(size_t worker, Morsel* morsel, PartitionCursor* cursor) {
    if (!indexed) {
      if (!sched.Claim(worker, morsel)) return false;
      *cursor = query.table->OpenMorselCursor(*morsel);
      return true;
    }
    for (; next_probe < probed.size(); ++next_probe) {
      if (probed[next_probe].empty()) continue;
      *cursor = query.table->OpenRowIdCursor(
          next_probe, std::move(probed[next_probe]));
      ++next_probe;
      return true;
    }
    return false;
  }

  const BoundQuery& query;
  const ReadOptions read_options;
  Database::ScanCounters* const counters;
  WorkerPool* const pool;
  const ScanBudget budget;
  const size_t batch_rows;
  const StablePredicateFilter filter;
  const ScanSpec spec;
  const bool indexed;
  std::vector<std::vector<RowId>> probed;
  uint32_t next_probe = 0;
  MorselScheduler sched;
};

/// One worker's pass over a HeapScan, and the only scan loop, index probes
/// included: opens a cursor (HeapScan::OpenNext), pulls latched pushdown
/// batches, folds their deltas into the scan counters, runs the degradable
/// σ on the survivors' ordinals and hands each qualifying row to the
/// caller's consumer. The statement budget is checked before every batch
/// (so on every claim too), which stops a doomed statement within one
/// batch. Isolation is snapshot-per-batch: a batch holds its partition's
/// shared latch only while it is assembled, so rows inserted, deleted or
/// degraded between two batches may or may not be observed. One reader per
/// worker.
///
/// A `lent` reader runs on a worker the pool lent the statement; the
/// caller's own reader is never lent, even when the caller itself is a pool
/// worker. A lent reader gives its core back at a morsel boundary: before
/// each claim it asks WorkerPool::ShouldYield and, when the pool is
/// oversubscribed, stops claiming. Every claimed morsel is read to its end
/// by its claimer, and the caller's reader drains whatever is left, so a
/// yield never strands a morsel.
class ScanReader {
 public:
  ScanReader(HeapScan* scan, size_t worker, bool lent)
      : scan_(scan),
        worker_(worker),
        lent_(lent),
        levels_(scan->query.degradable.size()) {}

  /// Pulls ONE latched batch and hands each of its qualifying rows to
  /// `on_row(QualifiedRow&)` — none when σ filtered the whole batch, and
  /// none under a count-only spec (see survivors()). Returns false once
  /// nothing is left to read, or once a lent reader yielded.
  template <typename OnRow>
  Result<bool> Next(OnRow&& on_row) {
    survivors_ = 0;
    if (!cursor_open_) {
      if (lent_ && scan_->pool->ShouldYield()) {
        scan_->counters->readers_yielded.fetch_add(1,
                                                   std::memory_order_relaxed);
        return false;
      }
      if (!scan_->OpenNext(worker_, &morsel_, &cursor_)) return false;
      cursor_open_ = true;
    }
    IDB_RETURN_IF_ERROR(scan_->budget.Check());
    ScanDeltas deltas;
    bool done = false;
    IDB_RETURN_IF_ERROR(cursor_.NextBatch(scan_->batch_rows, scan_->spec,
                                          &ws_, &done, &deltas));
    cursor_open_ = !done;
    survivors_ = deltas.rows_scanned - deltas.rows_prefiltered;
    if (deltas.rows_scanned > 0) {
      scan_->counters->batches.fetch_add(1, std::memory_order_relaxed);
    }
    // A page with no live record can still get an (empty) image.
    if (deltas.rows_scanned > 0 || deltas.page_images_built > 0) {
      FoldDeltas(scan_->counters, deltas);
    }
    const size_t dcols = levels_.size();
    const bool resolved = scan_->spec.need_degradable;
    for (size_t k = 0; k < ws_.count; ++k) {
      const int* phases = resolved ? ws_.phases.data() + k * dcols : nullptr;
      const int64_t* ordinals =
          resolved ? ws_.ordinals.data() + k * dcols : nullptr;
      if (!QualifyDegradable(scan_->query, scan_->read_options, phases,
                             ordinals, levels_.data())) {
        continue;
      }
      QualifiedRow row{&ws_.tuples[k], ordinals, levels_.data()};
      on_row(row);
    }
    return true;
  }

  /// Ordinal of the morsel the last batch came from (0 on an index probe).
  size_t ordinal() const { return morsel_.ordinal; }
  /// Rows of the last batch that passed the stable filter — the only
  /// output of a count-only batch.
  uint64_t survivors() const { return survivors_; }

 private:
  HeapScan* const scan_;
  const size_t worker_;
  const bool lent_;
  Morsel morsel_;
  PartitionCursor cursor_;
  bool cursor_open_ = false;
  ScanWorkspace ws_;
  std::vector<int> levels_;
  uint64_t survivors_ = 0;
};

/// Streaming source (cursors): rows in arrival order. The consumer's thread
/// owns one reader (worker 0) and up to `workers − 1` producers run on
/// workers the shared pool lends — the consumer is one of the `workers`
/// cores, and no thread is ever spawned. Each producer runs a reader,
/// projects its qualifying rows and pushes the batches into a bounded queue.
/// Every pull serves a queued batch when there is one and otherwise scans
/// one batch itself, so with no producer (parallelism 1, an index probe, a
/// pool that lent none, or producers that all yielded) the consumer simply
/// reads the whole scan inline. It waits only when its own reader found the
/// plan empty while producers still hold morsels, and counts a prefetch
/// stall then. Batch storage circulates — drained batches return to a spare
/// pool the producers refill — so a steady-state scan stops allocating. The
/// queue bound backpressures producers when the consumer is slow.
class StreamingScanSource : public RowSource {
 public:
  StreamingScanSource(Session* session, const SelectPlan& select,
                      size_t batch_rows, size_t workers, size_t queue_batches,
                      ReadSet read)
      : select_(select),
        scan_(session, select.query, batch_rows, std::move(read)),
        queue_capacity_(std::max<size_t>(queue_batches, 1)),
        own_reader_(&scan_, 0, /*lent=*/false) {
    if (workers <= 1) return;
    // Counted before dispatch: lent producers may start, and even finish,
    // before TryDispatch returns. The slot is a stable worker id for morsel
    // affinity (home queue slot % partitions).
    producers_live_ = workers - 1;
    const size_t lent = scan_.pool->TryDispatch(
        workers - 1, [this](size_t slot) { ProduceLoop(slot + 1); },
        &ticket_);
    scan_.counters->readers_lent.fetch_add(lent, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    producers_live_ -= workers - 1 - lent;
  }

  ~StreamingScanSource() override {
    {
      // The lock orders the store against a producer's wait predicate so
      // the notify cannot fall between its check and its sleep.
      std::lock_guard<std::mutex> lock(mu_);
      closed_.store(true, std::memory_order_relaxed);
    }
    cv_.notify_all();
    scan_.pool->Wait(&ticket_);
  }

  Result<bool> NextBatch(ProjectedRows* out) override {
    out->Clear();
    std::unique_lock<std::mutex> lock(mu_);
    bool stalled = false;
    while (true) {
      if (!error_.ok()) return error_;
      // Consumer-side budget probe, ahead of the queue: once the deadline
      // passes (or the token trips) the cursor reports it on the very next
      // pull, even when scanned batches are still buffered — a doomed
      // statement must not keep streaming stale work.
      IDB_RETURN_IF_ERROR(scan_.budget.Check());
      if (!queue_.empty()) {
        out->Swap(&queue_.front());
        // The swapped-out storage (the consumer's previous batch) goes back
        // to the spare pool for a producer to refill.
        spares_.push_back(std::move(queue_.front()));
        queue_.pop_front();
        cv_.notify_all();
        return true;
      }
      if (own_reader_live_) {
        // Nothing queued: scan a batch here instead of waiting for one.
        lock.unlock();
        IDB_ASSIGN_OR_RETURN(const bool more,
                             own_reader_.Next([&](QualifiedRow& row) {
                               ProjectRow(select_, row, out);
                             }));
        if (out->size > 0) return true;
        lock.lock();
        own_reader_live_ = more;
        continue;
      }
      // Our reader found the plan empty: only the producers' claimed
      // morsels are left.
      if (producers_live_ == 0) return false;
      // One stall per pull that had to wait — not one per wakeup, or
      // producer-exit notifications would inflate the producer-bound
      // signal the benches read.
      if (!stalled) {
        stalled = true;
        scan_.counters->prefetch_stalls.fetch_add(1,
                                                  std::memory_order_relaxed);
      }
      cv_.wait(lock);
    }
  }

 private:
  void ProduceLoop(size_t worker) {
    ScanReader reader(&scan_, worker, /*lent=*/true);
    ProjectedRows batch;
    Status status;
    // Checked between batches, fully filtered ones included: an early
    // Close (cursor dropped mid-stream) must not keep producers scanning
    // the rest of the table before the destructor's Wait returns.
    while (!closed_.load(std::memory_order_relaxed)) {
      batch.Clear();
      Result<bool> more = reader.Next(
          [&](QualifiedRow& row) { ProjectRow(select_, row, &batch); });
      if (!more.ok()) {
        status = more.status();
        break;
      }
      if (!*more) break;
      if (batch.size == 0) continue;  // no reason to touch the queue lock
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] {
        return queue_.size() < queue_capacity_ ||
               closed_.load(std::memory_order_relaxed);
      });
      if (closed_.load(std::memory_order_relaxed)) break;
      queue_.emplace_back();
      queue_.back().Swap(&batch);
      if (!spares_.empty()) {
        // Refill our working storage from the spare pool so the batch we
        // just published keeps its buffers.
        batch.Swap(&spares_.back());
        spares_.pop_back();
      }
      cv_.notify_all();
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (!status.ok() && error_.ok()) error_ = status;
    --producers_live_;
    cv_.notify_all();
  }

  const SelectPlan& select_;
  HeapScan scan_;
  const size_t queue_capacity_;
  /// The consumer's own reader; used only on the consumer's thread.
  ScanReader own_reader_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<ProjectedRows> queue_;
  std::vector<ProjectedRows> spares_;
  Status error_;
  size_t producers_live_ = 0;
  /// False once the consumer's reader found the morsel plan empty; only
  /// then may `producers_live_ == 0` end the scan.
  bool own_reader_live_ = true;
  /// Atomic so producers can poll it between batches without the mutex.
  std::atomic<bool> closed_{false};
  WorkerPool::Ticket ticket_;
};

/// The materialized drain behind Execute's projection, aggregation and
/// DELETE: hands every qualifying row of `query` to the consumer
/// worker-side. The caller's own reader (worker 0) drains until the morsel
/// plan is empty, helped by up to Fanout − 1 readers the shared pool lends
/// (an index probe's one reader runs inline), then waits for the lent
/// ones, which may yield early. Each row is tagged with its reader's worker
/// slot and its morsel ordinal. The consumer provides Prepare(workers,
/// buckets) — called once, before any row — Row(worker, bucket,
/// QualifiedRow&) and, for count-only scans, Count(worker, survivors).
/// Returns the number of worker slots. The first error any reader meets is
/// returned.
template <typename Consumer>
Result<size_t> DrainQualifying(Session* session, const BoundQuery& query,
                               bool count_only, Consumer* consumer) {
  IDB_ASSIGN_OR_RETURN(ReadSet read, PlanRead(session, query));
  HeapScan scan(session, query, kMaterializedScanBatchRows, std::move(read),
                count_only);
  const size_t workers =
      scan.Fanout(ResolveScanParallelism(session, *query.table));
  consumer->Prepare(workers, std::max<size_t>(scan.sched.total(), 1));
  auto drain = [&](size_t worker, bool lent) -> Status {
    ScanReader reader(&scan, worker, lent);
    for (;;) {
      IDB_ASSIGN_OR_RETURN(const bool more,
                           reader.Next([&](QualifiedRow& row) {
                             consumer->Row(worker, reader.ordinal(), row);
                           }));
      if (!more) return Status::OK();
      if (count_only) consumer->Count(worker, reader.survivors());
    }
  };
  std::mutex error_mu;
  Status error;
  WorkerPool::Ticket ticket;
  const size_t lent = scan.pool->TryDispatch(
      workers - 1,
      [&](size_t slot) {
        const Status status = drain(slot + 1, /*lent=*/true);
        if (status.ok()) return;
        std::lock_guard<std::mutex> lock(error_mu);
        if (error.ok()) error = status;
      },
      &ticket);
  scan.counters->readers_lent.fetch_add(lent, std::memory_order_relaxed);
  const Status own = drain(0, /*lent=*/false);
  scan.pool->Wait(&ticket);
  IDB_RETURN_IF_ERROR(own);
  IDB_RETURN_IF_ERROR(error);
  return workers;
}

}  // namespace

bool QualifyDegradable(const BoundQuery& query, const ReadOptions& read_options,
                       const int* phases, const int64_t* ordinals,
                       int* levels) {
  if (!query.reads_degradable) return true;
  // Computability (σ over ∪_{j≤k} ST_j) and the effective level of every
  // referenced degradable column.
  for (size_t d = 0; d < query.degradable.size(); ++d) {
    const DegradableColumn& column = query.degradable[d];
    if (column.accuracy < 0) continue;  // unreferenced
    const int phase = phases[d];
    if (phase >= static_cast<int>(column.phase_levels.size())) {
      return false;  // value removed (⊥): never computable
    }
    const int stored_level = column.phase_levels[phase];
    if (stored_level > column.accuracy && !read_options.include_coarser) {
      return false;  // coarser than demanded: not in any ST_{j<=k}
    }
    levels[d] = std::max(stored_level, column.accuracy);
  }
  // σ_P over the generalized image, evaluated on hierarchy nodes.
  for (const BoundPredicate& pred : query.predicates) {
    if (!pred.degradable) continue;
    if (!EvalDegradablePredicate(*query.degradable[pred.ordinal].hierarchy,
                                 pred, ordinals[pred.ordinal],
                                 levels[pred.ordinal])) {
      return false;
    }
  }
  return true;
}

size_t ResolveScanParallelism(Session* session, const Table& table) {
  size_t parallelism = session->scan_options().parallelism;
  if (parallelism == 0) {
    // Auto mode stays inline on small tables: worker dispatch costs tens of
    // microseconds, which dwarfs the whole scan of a table a few batches
    // long (point SELECTs, small aggregates, DELETEs). An explicit
    // parallelism setting is always honored. No partition clamp: the unit
    // of parallelism is the morsel, and every scan path clamps to its own
    // morsel-plan size at dispatch time.
    if (table.live_rows() < kParallelScanMinRows) return 1;
    parallelism = std::max<size_t>(
        session->db()->options().degradation.worker_threads, 1);
  }
  return std::max<size_t>(parallelism, 1);
}

Result<BoundQuery> BindQuery(Session* session, const std::string& table_name,
                             const std::vector<PredicateAst>& where,
                             const std::vector<int>& projected_columns) {
  BoundQuery query;
  const TableDef* def = ResolveTableName(session->db()->catalog(), table_name,
                                         /*allow_prefix=*/false);
  if (def == nullptr) {
    return Status::NotFound("no such table: " + table_name);
  }
  query.table = session->db()->GetTable(def->id);
  const Schema& schema = query.table->schema();
  for (int col : schema.degradable_columns()) {
    const ColumnDef& column = schema.column(col);
    DegradableColumn degradable;
    degradable.hierarchy = column.hierarchy.get();
    for (int p = 0; p < column.lcp.num_phases(); ++p) {
      degradable.phase_levels.push_back(column.lcp.phase(p).level);
    }
    query.degradable.push_back(std::move(degradable));
  }
  query.filter_stable.assign(schema.stable_columns().size(), false);
  query.output_stable.assign(schema.stable_columns().size(), false);

  for (const PredicateAst& ast : where) {
    BoundPredicate pred;
    IDB_RETURN_IF_ERROR(BindPredicate(schema, session, def->id, ast, &pred));
    if (pred.degradable) {
      query.degradable[pred.ordinal].accuracy = pred.level;
      query.reads_degradable = true;
    } else {
      query.filter_stable[pred.ordinal] = true;
    }
    query.predicates.push_back(std::move(pred));
  }
  for (int col : projected_columns) {
    if (col < 0) continue;
    if (schema.column(col).kind == ColumnKind::kDegradable) {
      query.degradable[schema.DegradableOrdinal(col)].accuracy =
          session->AccuracyFor(def->id, col);
      query.reads_degradable = true;
    } else {
      query.output_stable[StableOrdinal(schema, col)] = true;
    }
  }
  return query;
}

Result<std::unique_ptr<RowSource>> MakeRowSource(Session* session,
                                                 const SelectPlan& select,
                                                 size_t scan_batch_rows) {
  const BoundQuery& query = select.query;
  IDB_ASSIGN_OR_RETURN(ReadSet read, PlanRead(session, query));
  size_t total = 0;
  for (const auto& queue : read.plan) total += queue.size();
  // A one-morsel table gains nothing from producers or the queue, and an
  // index probe (no morsel) is read by one reader.
  const size_t workers = std::max<size_t>(
      1, std::min(ResolveScanParallelism(session, *query.table), total));
  if (workers <= 1) {
    // One queue over the flattened plan: the inline reader claims morsels
    // in ordinal order, so rows come out in (partition, heap) order.
    std::vector<Morsel> flat;
    flat.reserve(total);
    for (const auto& queue : read.plan) {
      flat.insert(flat.end(), queue.begin(), queue.end());
    }
    read.plan.assign(1, std::move(flat));
  }
  size_t queue_batches = session->scan_options().prefetch_batches;
  if (queue_batches == 0) queue_batches = 2 * workers;
  return std::unique_ptr<RowSource>(
      new StreamingScanSource(session, select, scan_batch_rows, workers,
                              queue_batches, std::move(read)));
}

Result<SelectPlan> BindSelect(Session* session, const SelectAst& ast) {
  SelectPlan select;
  const TableDef* def = ResolveTableName(session->db()->catalog(), ast.table,
                                         /*allow_prefix=*/false);
  if (def == nullptr) return Status::NotFound("no such table: " + ast.table);
  select.schema = &def->schema;
  const Schema& schema = *select.schema;

  select.items = ast.items;
  if (ast.star) {
    for (int i = 0; i < schema.num_columns(); ++i) {
      select.items.push_back(
          SelectItem{AggregateKind::kNone, schema.column(i).name});
    }
  }

  // Where a column's cell comes from; `move` is set below on the last use
  // of each stable value.
  auto source_of = [&](int col) {
    CellSource src;
    if (col < 0) return src;
    if (schema.column(col).kind == ColumnKind::kDegradable) {
      src.degradable = schema.DegradableOrdinal(col);
    } else {
      src.stable = StableOrdinal(schema, col);
    }
    return src;
  };

  std::vector<int> projected;
  for (const SelectItem& item : select.items) {
    if (item.aggregate != AggregateKind::kNone) select.has_aggregate = true;
    int col = -1;
    if (!item.column.empty()) {
      col = ResolveColumnName(schema, item.column);
      if (col < 0) {
        return Status::InvalidArgument("unknown column: " + item.column);
      }
      projected.push_back(col);
    }
    select.item_columns.push_back(col);
    select.sources.push_back(source_of(col));
    // Aggregate values render plainly; a plain column item (a projection,
    // or the GROUP BY column) renders in its domain.
    select.format.AddColumn(item.aggregate == AggregateKind::kNone &&
                                    select.sources.back().degradable >= 0
                                ? schema.column(col).hierarchy
                                : nullptr);
    switch (item.aggregate) {
      case AggregateKind::kNone:
        select.output_columns.push_back(item.column);
        break;
      case AggregateKind::kCount:
        select.output_columns.push_back(
            item.column.empty() ? "COUNT(*)" : "COUNT(" + item.column + ")");
        break;
      case AggregateKind::kSum:
        select.output_columns.push_back("SUM(" + item.column + ")");
        break;
      case AggregateKind::kAvg:
        select.output_columns.push_back("AVG(" + item.column + ")");
        break;
      case AggregateKind::kMin:
        select.output_columns.push_back("MIN(" + item.column + ")");
        break;
      case AggregateKind::kMax:
        select.output_columns.push_back("MAX(" + item.column + ")");
        break;
    }
  }
  for (size_t i = 0; i < select.sources.size(); ++i) {
    CellSource& src = select.sources[i];
    if (src.stable < 0) continue;
    src.move = true;
    for (size_t j = i + 1; j < select.sources.size(); ++j) {
      if (select.sources[j].stable == src.stable) src.move = false;
    }
  }
  if (!ast.group_by.empty()) {
    select.group_col = ResolveColumnName(schema, ast.group_by);
    if (select.group_col < 0) {
      return Status::InvalidArgument("unknown column: " + ast.group_by);
    }
    select.group_source = source_of(select.group_col);
    projected.push_back(select.group_col);
    select.has_aggregate = true;
  }

  IDB_ASSIGN_OR_RETURN(select.query,
                       BindQuery(session, ast.table, ast.where, projected));
  return select;
}

Result<QueryResult> ExecuteProjection(Session* session,
                                      const SelectPlan& select) {
  // One bucket per morsel ordinal, each written only by the worker that
  // claimed the morsel.
  struct Projector {
    const SelectPlan& select;
    std::vector<ProjectedRows> buckets;
    void Prepare(size_t, size_t count) { buckets.resize(count); }
    void Row(size_t, size_t bucket, QualifiedRow& row) {
      ProjectRow(select, row, &buckets[bucket]);
    }
    void Count(size_t, uint64_t) {}
  } projector{select, {}};
  IDB_RETURN_IF_ERROR(
      DrainQualifying(session, select.query, false, &projector).status());

  QueryResult out;
  out.columns = select.output_columns;
  out.format = select.format;
  size_t total = 0;
  for (const ProjectedRows& bucket : projector.buckets) total += bucket.size;
  out.rows.reserve(total);
  out.levels.reserve(total * select.format.levels_per_row());
  for (ProjectedRows& bucket : projector.buckets) {
    for (size_t i = 0; i < bucket.size; ++i) {
      out.rows.push_back(std::move(bucket.values[i]));
    }
    out.levels.insert(out.levels.end(), bucket.levels.begin(),
                      bucket.levels.end());
  }
  out.affected_rows = out.rows.size();
  return out;
}

Result<std::map<std::string, AggregateGroup>> ExecuteAggregation(
    Session* session, const SelectPlan& select) {
  const size_t items = select.items.size();
  // A statement that reads no column folds survivor counts only.
  bool count_only = select.group_col < 0 && !select.query.reads_degradable;
  for (const CellSource& src : select.sources) {
    if (src.stable >= 0 || src.degradable >= 0) count_only = false;
  }
  // One accumulator per WORKER, not per partition or morsel: a worker folds
  // every morsel it claims — home partition or stolen — into its own state.
  struct Folder {
    const SelectPlan& select;
    size_t items;
    std::vector<AggregatePartials> partials;  // ungrouped
    std::vector<std::map<std::string, AggregateGroup>> groups;
    void Prepare(size_t workers, size_t) {
      partials.resize(workers);
      for (AggregatePartials& partial : partials) InitPartials(items, &partial);
      groups.resize(workers);
    }
    void Row(size_t worker, size_t, QualifiedRow& row) {
      if (select.group_col < 0) {
        FoldRow(select, row, &partials[worker]);
        return;
      }
      // Groups are keyed by the rendered value, exactly as displayed.
      const CellSource& src = select.group_source;
      Value value;
      int level = 0;
      std::string key;
      if (src.stable >= 0) {
        value = row.tuple->stable[src.stable];
        key = value.is_null() ? "NULL" : value.ToString();
      } else {
        value = DegradableCell(select.query, src.degradable, row);
        level = row.levels[src.degradable];
        key = value.is_null() ? "NULL"
                              : select.query.degradable[src.degradable]
                                    .hierarchy->DisplayValue(value, level);
      }
      auto [it, inserted] = groups[worker].try_emplace(std::move(key));
      if (inserted) {
        InitPartials(items, &it->second.partials);
        it->second.value = std::move(value);
        it->second.level = level;
      }
      FoldRow(select, row, &it->second.partials);
    }
    void Count(size_t worker, uint64_t survivors) {
      partials[worker].count += survivors;
    }
  } folder{select, items, {}, {}};
  IDB_ASSIGN_OR_RETURN(
      const size_t workers,
      DrainQualifying(session, select.query, count_only, &folder));

  std::map<std::string, AggregateGroup> merged;
  if (select.group_col < 0) {
    AggregateGroup all;
    InitPartials(items, &all.partials);
    for (const AggregatePartials& partial : folder.partials) {
      MergePartials(partial, &all.partials);
    }
    if (all.partials.count > 0) merged["*"] = std::move(all);
  } else {
    for (auto& worker_groups : folder.groups) {
      for (auto& [key, group] : worker_groups) {
        auto [it, inserted] = merged.try_emplace(key);
        if (inserted) {
          it->second = std::move(group);
        } else {
          MergePartials(group.partials, &it->second.partials);
        }
      }
    }
  }
  session->db()->scan_counters()->aggregate_partials_merged.fetch_add(
      workers, std::memory_order_relaxed);
  return merged;
}

Result<std::vector<RowId>> QualifyingRowIds(Session* session,
                                            const BoundQuery& query) {
  struct Collector {
    std::vector<std::vector<RowId>> ids;  // per worker
    void Prepare(size_t workers, size_t) { ids.resize(workers); }
    void Row(size_t worker, size_t, QualifiedRow& row) {
      ids[worker].push_back(row.tuple->row_id);
    }
    void Count(size_t, uint64_t) {}
  } collector;
  IDB_RETURN_IF_ERROR(
      DrainQualifying(session, query, false, &collector).status());
  std::vector<RowId> out;
  for (const std::vector<RowId>& ids : collector.ids) {
    out.insert(out.end(), ids.begin(), ids.end());
  }
  return out;
}

}  // namespace plan
}  // namespace instantdb
