#include "query/plan.h"

#include <algorithm>
#include <cctype>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <functional>
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
}

/// The pushdown contract of one bound query: its stable terms as the filter,
/// store probes only when a degradable column is referenced (COUNT(*)
/// never probes), and decode only the stable columns it reads (COUNT(*)
/// decodes none). `filter` must outlive the spec.
ScanSpec MakeScanSpec(const BoundQuery& query,
                      const StablePredicateFilter& filter) {
  ScanSpec spec;
  spec.filter = filter.empty() ? nullptr : &filter;
  spec.need_degradable = !query.accuracy.empty();
  spec.stable_needed = query.stable_needed;
  return spec;
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
  out->op = ast.op;
  out->value = ast.value;
  out->value2 = ast.value2;
  if (!out->degradable) {
    return ast.op == ComparisonOp::kLike ? BindLikePattern(ast.value, out)
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

/// Evaluates one bound predicate against a value stored at `stored_level`,
/// read at `level` (== max(k, stored level)). Node predicates (Eq/Ne,
/// label-LIKE, BETWEEN) compare the leaf interval of the stored value's
/// level-`level` ancestor and never build the generalized Value; the rest
/// compare the generalized value itself.
bool EvalDegradablePredicate(const DomainHierarchy& hierarchy,
                             const BoundPredicate& pred, const Value& stored,
                             int stored_level, int level) {
  const bool node_predicate =
      pred.op == ComparisonOp::kEq || pred.op == ComparisonOp::kNe ||
      pred.op == ComparisonOp::kBetween ||
      (pred.op == ComparisonOp::kLike && pred.literal_level >= 0);
  if (node_predicate) {
    auto row_interval =
        hierarchy.GeneralizedLeafRange(stored, stored_level, level);
    if (!row_interval.ok()) return false;
    switch (pred.op) {
      case ComparisonOp::kBetween:
        return row_interval->lo >= pred.literal_interval.lo &&
               row_interval->hi <= pred.literal_interval2.hi;
      case ComparisonOp::kNe:
        return !pred.literal_interval.Contains(*row_interval);
      default:  // Eq, label LIKE
        return pred.literal_interval.Contains(*row_interval);
    }
  }
  Value value = stored;
  if (stored_level < level) {
    auto generalized = hierarchy.Generalize(stored, stored_level, level);
    if (!generalized.ok()) return false;
    value = std::move(*generalized);
  }
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

/// Per-statement state shared by every morsel reader of one heap scan: the
/// pushdown spec (stable σ below row assembly, survivors-only store probes,
/// only the read stable columns decoded), the morsel scheduler, the
/// statement budget and the counters the readers fold into.
struct HeapScan {
  HeapScan(Session* session, const BoundQuery& query, size_t batch_rows,
           std::vector<std::vector<Morsel>> plan)
      : query(query),
        read_options(session->read_options()),
        counters(session->db()->scan_counters()),
        budget(ScanBudget::Of(session)),
        batch_rows(batch_rows),
        filter(query.table->schema(), query.predicates),
        spec(MakeScanSpec(query, filter)),
        sched(std::move(plan),
              MorselStatsSink{&counters->morsels_claimed,
                              &counters->morsels_stolen,
                              &counters->steal_failures}) {}

  /// Readers worth running for `want` workers: at least one, at most one
  /// per morsel.
  size_t Fanout(size_t want) const {
    return std::max<size_t>(1, std::min(want, sched.total()));
  }

  const BoundQuery& query;
  const ReadOptions read_options;
  Database::ScanCounters* const counters;
  const ScanBudget budget;
  const size_t batch_rows;
  const StablePredicateFilter filter;
  const ScanSpec spec;
  MorselScheduler sched;
};

/// One worker's pass over a HeapScan, and the only heap-scan loop: claims a
/// morsel, opens its cursor, pulls latched pushdown batches, folds their
/// deltas into the scan counters and applies the degradable σ and f_k to
/// the survivors. The statement budget is checked before every batch (so
/// on every claim too), which stops a doomed statement within one batch.
/// Isolation is snapshot-per-batch: a batch holds its partition's shared
/// latch only while it is assembled, so rows inserted, deleted or degraded
/// between two batches may or may not be observed. One reader per worker.
class MorselReader {
 public:
  MorselReader(HeapScan* scan, size_t worker) : scan_(scan), worker_(worker) {}

  /// Appends the qualifying rows of ONE latched batch to `*out` — none
  /// when σ filtered the whole batch. Returns false once no morsel is left.
  Result<bool> Next(EvaluatedBatch* out) {
    if (!cursor_open_) {
      if (!scan_->sched.Claim(worker_, &morsel_)) return false;
      cursor_ = scan_->query.table->OpenMorselCursor(morsel_);
      cursor_open_ = true;
    }
    IDB_RETURN_IF_ERROR(scan_->budget.Check());
    ScanDeltas deltas;
    bool done = false;
    IDB_RETURN_IF_ERROR(cursor_.NextBatch(scan_->batch_rows, scan_->spec, &ws_,
                                          &views_, &done, &deltas));
    cursor_open_ = !done;
    if (deltas.rows_scanned > 0) {
      scan_->counters->batches.fetch_add(1, std::memory_order_relaxed);
      FoldDeltas(scan_->counters, deltas);
    }
    EvaluateViews(scan_->query, scan_->read_options, views_, out,
                  /*stable_prefiltered=*/true);
    return true;
  }

  /// Ordinal of the morsel the last batch came from.
  size_t ordinal() const { return morsel_.ordinal; }

 private:
  HeapScan* const scan_;
  const size_t worker_;
  Morsel morsel_;
  PartitionCursor cursor_;
  bool cursor_open_ = false;
  ScanWorkspace ws_;
  std::vector<RowView> views_;
};

/// Runs `workers` readers over `scan` on the shared pool (WorkerPool::Run:
/// the caller drains too, so a saturated pool only narrows the scan) and
/// hands every non-empty batch to `consume(worker, morsel ordinal, batch)`.
Status DrainOnPool(
    Session* session, HeapScan* scan, size_t workers,
    const std::function<void(size_t, size_t, EvaluatedBatch*)>& consume) {
  return session->db()->worker_pool()->Run(
      workers, workers, [&](size_t worker) -> Status {
        MorselReader reader(scan, worker);
        EvaluatedBatch batch;
        for (;;) {
          batch.Clear();
          IDB_ASSIGN_OR_RETURN(const bool more, reader.Next(&batch));
          if (!more) return Status::OK();
          if (batch.size > 0) consume(worker, reader.ordinal(), &batch);
        }
      });
}

/// Streaming consumer (cursors): rows in arrival order. With `workers` 1,
/// or when the shared pool lends no worker, the consumer's own thread pulls
/// one reader inline. Otherwise each producer the pool lends runs a reader
/// and pushes its qualifying batches into a bounded queue the consumer
/// drains. No thread is ever spawned: a busy pool makes the scan narrower,
/// never blocked. Batch storage circulates — drained batches return to a
/// spare pool the producers refill — so a steady-state scan stops
/// allocating. The queue bound backpressures producers when the consumer
/// is slow; the consumer counts a prefetch stall each time it finds the
/// queue empty while producers are still running.
class StreamingScanSource : public RowSource {
 public:
  StreamingScanSource(Session* session, const BoundQuery& query,
                      size_t batch_rows, size_t workers, size_t queue_batches,
                      std::vector<std::vector<Morsel>> plan)
      : scan_(session, query, batch_rows, std::move(plan)),
        pool_(session->db()->worker_pool()),
        queue_capacity_(std::max<size_t>(queue_batches, 1)),
        inline_reader_(&scan_, 0) {
    if (workers <= 1) return;
    // Counted before dispatch: lent producers may start, and even finish,
    // before TryDispatch returns. The slot is a stable worker id for morsel
    // affinity (home queue slot % partitions).
    producers_live_ = workers;
    const size_t lent = pool_->TryDispatch(
        workers, [this](size_t slot) { ProduceLoop(slot); }, &ticket_);
    std::lock_guard<std::mutex> lock(mu_);
    producers_live_ -= workers - lent;
    producing_ = lent > 0;
  }

  ~StreamingScanSource() override {
    {
      // The lock orders the store against a producer's wait predicate so
      // the notify cannot fall between its check and its sleep.
      std::lock_guard<std::mutex> lock(mu_);
      closed_.store(true, std::memory_order_relaxed);
    }
    cv_.notify_all();
    pool_->Wait(&ticket_);
  }

  Result<bool> NextBatch(EvaluatedBatch* out) override {
    out->Clear();
    if (!producing_) {
      while (out->size == 0) {
        IDB_ASSIGN_OR_RETURN(const bool more, inline_reader_.Next(out));
        if (!more) return false;
      }
      return true;
    }
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
      if (producers_live_ == 0) return false;
      // One stall per pull that found the queue empty — not one per wakeup,
      // or producer-exit notifications would inflate the producer-bound
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
    MorselReader reader(&scan_, worker);
    EvaluatedBatch batch;
    Status status;
    // Checked between batches, fully filtered ones included: an early
    // Close (cursor dropped mid-stream) must not keep producers scanning
    // the rest of the table before the destructor's Wait returns.
    while (!closed_.load(std::memory_order_relaxed)) {
      batch.Clear();
      Result<bool> more = reader.Next(&batch);
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

  HeapScan scan_;
  WorkerPool* const pool_;
  const size_t queue_capacity_;
  /// The consumer's own reader, used when no producer runs.
  MorselReader inline_reader_;
  /// Set once by the constructor: true when the pool lent producers.
  bool producing_ = false;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<EvaluatedBatch> queue_;
  std::vector<EvaluatedBatch> spares_;
  Status error_;
  size_t producers_live_ = 0;
  /// Atomic so producers can poll it between batches without the mutex.
  std::atomic<bool> closed_{false};
  WorkerPool::Ticket ticket_;
};

/// Materialized consumer (Session::Execute, DELETE, grouped aggregates):
/// `workers` readers drain the whole scan on the shared pool, each batch's
/// rows landing in its morsel's bucket. Buckets are served in morsel-ordinal
/// order — (partition, begin_page) ascending — so rows come out in
/// sequential-scan order at any parallelism and whatever was stolen.
class MaterializedScanSource : public RowSource {
 public:
  MaterializedScanSource(Session* session, const BoundQuery& query,
                         size_t workers)
      : session_(session), query_(query), workers_(workers) {}

  Result<bool> NextBatch(EvaluatedBatch* out) override {
    if (!scanned_) {
      scanned_ = true;
      IDB_RETURN_IF_ERROR(ScanAll());
    }
    while (next_ < buckets_.size()) {
      EvaluatedBatch& bucket = buckets_[next_++];
      if (bucket.size == 0) continue;
      out->Clear();
      out->Swap(&bucket);
      return true;
    }
    return false;
  }

 private:
  Status ScanAll() {
    const uint32_t morsel_pages = session_->scan_options().morsel_pages;
    HeapScan scan(session_, query_, kMaterializedScanBatchRows,
                  query_.table->MorselPlan(morsel_pages));
    buckets_.resize(scan.sched.total());
    return DrainOnPool(session_, &scan, scan.Fanout(workers_),
                       [this](size_t, size_t ordinal, EvaluatedBatch* batch) {
                         EvaluatedBatch& bucket = buckets_[ordinal];
                         for (size_t i = 0; i < batch->size; ++i) {
                           *bucket.Add() = std::move(batch->rows[i]);
                         }
                       });
  }

  Session* const session_;
  const BoundQuery& query_;
  const size_t workers_;
  bool scanned_ = false;
  std::vector<EvaluatedBatch> buckets_;  // one per morsel ordinal
  size_t next_ = 0;
};

/// Probes the multi-resolution index once (row ids only — cheap), then
/// fetches and evaluates rows batch-at-a-time.
class IndexScanSource : public RowSource {
 public:
  IndexScanSource(Session* session, const BoundQuery& query,
                  std::vector<RowId> rids, size_t batch_rows)
      : read_options_(session->read_options()),
        counters_(session->db()->scan_counters()),
        budget_(ScanBudget::Of(session)),
        query_(query),
        rids_(std::move(rids)),
        batch_rows_(std::max<size_t>(batch_rows, 1)) {}

  Result<bool> NextBatch(EvaluatedBatch* out) override {
    out->Clear();
    while (out->size == 0 && next_ < rids_.size()) {
      IDB_RETURN_IF_ERROR(budget_.Check());
      uint64_t fetched = 0;
      while (next_ < rids_.size() && out->size < batch_rows_) {
        IDB_ASSIGN_OR_RETURN(auto view, query_.table->GetRow(rids_[next_++]));
        if (!view.has_value()) continue;
        ++fetched;
        EvaluatedRow* slot = out->Add();
        if (!EvaluateRow(query_, read_options_, *view, slot)) out->DropLast();
      }
      counters_->batches.fetch_add(1, std::memory_order_relaxed);
      counters_->rows.fetch_add(fetched, std::memory_order_relaxed);
    }
    return out->size > 0;
  }

 private:
  const ReadOptions read_options_;
  Database::ScanCounters* const counters_;
  const ScanBudget budget_;
  const BoundQuery& query_;
  std::vector<RowId> rids_;
  const size_t batch_rows_;
  size_t next_ = 0;
};

}  // namespace

Result<bool> RowSource::Next(EvaluatedRow* out) {
  while (adapter_next_ >= adapter_batch_.size) {
    if (adapter_done_) return false;
    adapter_next_ = 0;
    IDB_ASSIGN_OR_RETURN(const bool more, NextBatch(&adapter_batch_));
    if (!more) {
      adapter_done_ = true;
      return false;
    }
  }
  *out = std::move(adapter_batch_.rows[adapter_next_++]);
  return true;
}

void EvaluateViews(const BoundQuery& query, const ReadOptions& read_options,
                   const std::vector<RowView>& views, EvaluatedBatch* out,
                   bool stable_prefiltered) {
  for (const RowView& view : views) {
    EvaluatedRow* slot = out->Add();
    if (!EvaluateRow(query, read_options, view, slot, stable_prefiltered)) {
      out->DropLast();
    }
  }
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
  const std::vector<int>& stable = schema.stable_columns();
  query.stable_needed.assign(stable.size(), false);
  auto mark_stable = [&](int col) {
    const auto it = std::find(stable.begin(), stable.end(), col);
    if (it != stable.end()) query.stable_needed[it - stable.begin()] = true;
  };

  for (const PredicateAst& ast : where) {
    BoundPredicate pred;
    IDB_RETURN_IF_ERROR(BindPredicate(schema, session, def->id, ast, &pred));
    if (pred.degradable) {
      query.accuracy[pred.column] = pred.level;
    } else {
      mark_stable(pred.column);
    }
    query.predicates.push_back(std::move(pred));
  }
  for (int col : projected_columns) {
    if (col < 0) continue;
    if (schema.column(col).kind == ColumnKind::kDegradable) {
      query.projected_degradable.insert(col);
      query.accuracy[col] = session->AccuracyFor(def->id, col);
    } else {
      mark_stable(col);
    }
  }
  return query;
}

bool EvaluateRow(const BoundQuery& query, const ReadOptions& read_options,
                 const RowView& view, EvaluatedRow* out,
                 bool stable_prefiltered) {
  const Schema& schema = query.table->schema();
  out->row_id = view.row_id;
  out->values.resize(view.values.size());
  for (int col : schema.stable_columns()) out->values[col] = view.values[col];
  out->degradable_level.clear();

  // Computability (σ over ∪_{j≤k} ST_j) and the demanded level of every
  // referenced degradable column. Every degradable column starts NULL: σ
  // reads the stored values from the view, and only the projected columns
  // are filled in, at level k, once the row qualifies.
  const std::vector<int>& degradable = schema.degradable_columns();
  for (size_t ordinal = 0; ordinal < degradable.size(); ++ordinal) {
    const int col = degradable[ordinal];
    out->values[col] = Value::Null();
    const auto accuracy = query.accuracy.find(col);
    if (accuracy == query.accuracy.end()) continue;  // unreferenced
    const ColumnDef& column = schema.column(col);
    const int phase = view.phases[ordinal];
    const int k = accuracy->second;
    if (phase >= column.lcp.num_phases()) {
      return false;  // value removed (⊥): never computable
    }
    const int stored_level = column.lcp.phase(phase).level;
    if (stored_level > k && !read_options.include_coarser) {
      return false;  // coarser than demanded: not in any ST_{j<=k}
    }
    out->degradable_level.Set(col, std::max(stored_level, k));
  }

  // σ_P over the generalized image, evaluated on hierarchy nodes.
  for (const BoundPredicate& pred : query.predicates) {
    const ColumnDef& column = schema.column(pred.column);
    if (pred.degradable) {
      const int phase = view.phases[schema.DegradableOrdinal(pred.column)];
      if (!EvalDegradablePredicate(
              *column.hierarchy, pred, view.values[pred.column],
              column.lcp.phase(phase).level,
              out->degradable_level.Get(pred.column))) {
        return false;
      }
    } else {
      // Stable terms already ran below row assembly when the scan pushed
      // them down; only the index path re-checks them here.
      if (stable_prefiltered) continue;
      if (!EvalStablePredicate(pred, out->values[pred.column])) return false;
    }
  }

  // f_k for the columns that leave the scan.
  for (int col : query.projected_degradable) {
    const ColumnDef& column = schema.column(col);
    const int phase = view.phases[schema.DegradableOrdinal(col)];
    const int stored_level = column.lcp.phase(phase).level;
    const int target_level = out->degradable_level.Get(col);
    if (stored_level == target_level) {
      out->values[col] = view.values[col];
      continue;
    }
    auto generalized = column.hierarchy->Generalize(view.values[col],
                                                    stored_level, target_level);
    if (!generalized.ok()) return false;
    out->values[col] = std::move(*generalized);
  }
  return true;
}

std::string RenderValue(const Schema& schema, int col, const Value& value,
                        const DegradableLevels& levels) {
  const ColumnDef& column = schema.column(col);
  if (value.is_null()) return "NULL";
  if (column.kind == ColumnKind::kDegradable) {
    return column.hierarchy->DisplayValue(value, levels.Get(col, 0));
  }
  return value.ToString();
}

namespace {

/// The degradable predicate an index probe would serve, or nullptr when the
/// query takes a heap scan (shared by MakeRowSource and CanPushAggregate so
/// both always agree on the access path).
const BoundPredicate* UsableIndexPredicate(Session* session,
                                           const BoundQuery& query) {
  if (!session->use_indexes() || session->read_options().include_coarser) {
    return nullptr;
  }
  for (const BoundPredicate& pred : query.predicates) {
    if (pred.degradable && pred.index_usable) return &pred;
  }
  return nullptr;
}

}  // namespace

Result<std::unique_ptr<RowSource>> MakeRowSource(Session* session,
                                                 const BoundQuery& query,
                                                 size_t scan_batch_rows) {
  const BoundPredicate* index_pred = UsableIndexPredicate(session, query);
  if (index_pred != nullptr) {
    std::vector<RowId> rids;
    if (index_pred->op == ComparisonOp::kBetween) {
      IDB_RETURN_IF_ERROR(query.table->IndexLookupRange(
          index_pred->column, index_pred->value, index_pred->value2,
          index_pred->level, &rids));
    } else {
      // Equality / label-LIKE: probe at the literal's own level so every
      // computable phase tree is visited.
      IDB_RETURN_IF_ERROR(query.table->IndexLookupEqual(
          index_pred->column, index_pred->value,
          std::max(index_pred->literal_level, index_pred->level), &rids));
    }
    std::sort(rids.begin(), rids.end());
    return std::unique_ptr<RowSource>(new IndexScanSource(
        session, query, std::move(rids),
        scan_batch_rows == SIZE_MAX ? kStreamingScanBatchRows
                                    : scan_batch_rows));
  }
  const size_t parallelism = ResolveScanParallelism(session, *query.table);
  if (scan_batch_rows == SIZE_MAX) {
    return std::unique_ptr<RowSource>(
        new MaterializedScanSource(session, query, parallelism));
  }
  std::vector<std::vector<Morsel>> plan =
      query.table->MorselPlan(session->scan_options().morsel_pages);
  size_t total = 0;
  for (const auto& queue : plan) total += queue.size();
  // A one-morsel table gains nothing from producers or the queue.
  const size_t workers = std::min(parallelism, total);
  if (workers <= 1) {
    // One queue over the flattened plan: the inline reader claims morsels
    // in ordinal order, so rows come out in (partition, heap) order.
    std::vector<Morsel> flat;
    flat.reserve(total);
    for (const auto& queue : plan) {
      flat.insert(flat.end(), queue.begin(), queue.end());
    }
    plan.assign(1, std::move(flat));
  }
  size_t queue_batches = session->scan_options().prefetch_batches;
  if (queue_batches == 0) queue_batches = 2 * workers;
  return std::unique_ptr<RowSource>(
      new StreamingScanSource(session, query, scan_batch_rows, workers,
                              queue_batches, std::move(plan)));
}

Result<SelectPlan> BindSelect(Session* session, const SelectAst& ast) {
  SelectPlan select;
  {
    const TableDef* def = ResolveTableName(session->db()->catalog(), ast.table,
                                           /*allow_prefix=*/false);
    if (def == nullptr) return Status::NotFound("no such table: " + ast.table);
    select.schema = &def->schema;
  }
  const Schema& schema = *select.schema;

  select.items = ast.items;
  if (ast.star) {
    for (int i = 0; i < schema.num_columns(); ++i) {
      select.items.push_back(
          SelectItem{AggregateKind::kNone, schema.column(i).name});
    }
  }

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
  if (!ast.group_by.empty()) {
    select.group_col = ResolveColumnName(schema, ast.group_by);
    if (select.group_col < 0) {
      return Status::InvalidArgument("unknown column: " + ast.group_by);
    }
    projected.push_back(select.group_col);
    select.has_aggregate = true;
  }

  IDB_ASSIGN_OR_RETURN(select.query,
                       BindQuery(session, ast.table, ast.where, projected));
  return select;
}

bool CanPushAggregate(Session* session, const SelectPlan& select) {
  if (!select.has_aggregate || select.group_col >= 0) return false;
  for (const SelectItem& item : select.items) {
    // A non-aggregate item needs per-row output; partials can't carry it.
    if (item.aggregate == AggregateKind::kNone) return false;
  }
  return UsableIndexPredicate(session, select.query) == nullptr;
}

void InitPartials(size_t items, AggregatePartials* agg) {
  agg->count = 0;
  agg->sums.assign(items, 0);
  agg->mins.assign(items, Value::Null());
  agg->maxs.assign(items, Value::Null());
  agg->non_null.assign(items, 0);
}

void FoldAggregateRow(const SelectPlan& select, const EvaluatedRow& row,
                      AggregatePartials* agg) {
  ++agg->count;
  const auto& items = select.items;
  for (size_t i = 0; i < items.size(); ++i) {
    if (items[i].aggregate == AggregateKind::kNone || items[i].column.empty()) {
      continue;
    }
    const Value& v = row.values[select.item_columns[i]];
    if (v.is_null()) continue;
    ++agg->non_null[i];
    if (v.type() == ValueType::kInt64 || v.type() == ValueType::kTimestamp) {
      agg->sums[i] += static_cast<double>(v.int64());
    } else if (v.type() == ValueType::kDouble) {
      agg->sums[i] += v.dbl();
    }
    if (agg->mins[i].is_null() || v.Compare(agg->mins[i]) < 0) {
      agg->mins[i] = v;
    }
    if (agg->maxs[i].is_null() || v.Compare(agg->maxs[i]) > 0) {
      agg->maxs[i] = v;
    }
  }
}

namespace {

/// Merge is associative over per-partition partials: counts and sums add,
/// extrema compare — so partition order never matters.
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

}  // namespace

Result<AggregatePartials> ExecuteAggregatePushdown(Session* session,
                                                   const SelectPlan& select) {
  const BoundQuery& query = select.query;
  HeapScan scan(session, query, kMaterializedScanBatchRows,
                query.table->MorselPlan(session->scan_options().morsel_pages));
  const size_t workers =
      scan.Fanout(ResolveScanParallelism(session, *query.table));
  // One partial per WORKER, not per partition: a worker folds every morsel
  // it claims — home partition or stolen — into its own accumulator, and
  // merge associativity makes the claim order irrelevant.
  std::vector<AggregatePartials> partials(workers);
  for (AggregatePartials& partial : partials) {
    InitPartials(select.items.size(), &partial);
  }
  IDB_RETURN_IF_ERROR(DrainOnPool(
      session, &scan, workers,
      [&](size_t worker, size_t, EvaluatedBatch* batch) {
        for (size_t i = 0; i < batch->size; ++i) {
          FoldAggregateRow(select, batch->rows[i], &partials[worker]);
        }
      }));

  AggregatePartials merged;
  InitPartials(select.items.size(), &merged);
  for (const AggregatePartials& partial : partials) {
    MergePartials(partial, &merged);
  }
  scan.counters->aggregate_partials_merged.fetch_add(
      workers, std::memory_order_relaxed);
  return merged;
}

}  // namespace plan
}  // namespace instantdb
