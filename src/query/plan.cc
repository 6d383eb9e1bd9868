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
#include "util/parallel.h"
#include "util/worker_pool.h"

namespace instantdb {
namespace plan {

namespace {

/// Batch size of the materializing (SnapshotScanSource / aggregate
/// pushdown) morsel drains: large enough that latch reacquisition is noise,
/// small enough that a batch never holds a partition latch for long.
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
    if (ast.op == ComparisonOp::kLike) {
      if (ast.value.type() != ValueType::kString) {
        return Status::InvalidArgument("LIKE needs a string pattern");
      }
      std::string pattern = ast.value.str();
      out->like_prefix_wildcard = StartsWith(pattern, "%");
      out->like_suffix_wildcard = EndsWith(pattern, "%") && pattern.size() > 1;
      if (out->like_prefix_wildcard) pattern.erase(0, 1);
      if (out->like_suffix_wildcard && !pattern.empty()) pattern.pop_back();
      out->like_core = pattern;
    }
    return Status::OK();
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
      if (ast.value.type() != ValueType::kString) {
        return Status::InvalidArgument("LIKE needs a string pattern");
      }
      std::string pattern = ast.value.str();
      out->like_prefix_wildcard = StartsWith(pattern, "%");
      out->like_suffix_wildcard = EndsWith(pattern, "%") && pattern.size() > 1;
      if (out->like_prefix_wildcard) pattern.erase(0, 1);
      if (out->like_suffix_wildcard && !pattern.empty()) pattern.pop_back();
      out->like_core = pattern;
      // `%France%` resolves to the France node: evaluated (and indexed) as
      // an equality against that node's subtree.
      auto label = ResolveLabel(hierarchy, pattern);
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

/// Streams the heap sequentially in batches of `batch_rows` RowViews,
/// walking the table's partitions in order (the resume position carries the
/// current partition plus the heap position inside it) and re-acquiring one
/// partition's shared latch per batch so a slow consumer never blocks
/// writers or the degrader on any partition. Isolation is
/// snapshot-per-batch (standard cursor semantics): rows inserted, deleted
/// or degraded between two pulls may or may not be observed. This is the
/// resolved-parallelism-1 path: no threads, rows in (partition, heap)
/// order.
class HeapScanSource : public RowSource {
 public:
  HeapScanSource(Session* session, const BoundQuery& query, size_t batch_rows)
      : read_options_(session->read_options()),
        counters_(session->db()->scan_counters()),
        budget_(ScanBudget::Of(session)),
        query_(query),
        batch_rows_(batch_rows),
        pushdown_(session->scan_options().pushdown),
        filter_(query.table->schema(), query.predicates),
        spec_(MakeScanSpec(query, filter_)) {}

  Result<bool> NextBatch(EvaluatedBatch* out) override {
    out->Clear();
    // Keep pulling heap batches until one yields a qualifying row (a batch
    // may be fully filtered by σ) or the scan ends.
    while (out->size == 0) {
      if (done_) return false;
      IDB_RETURN_IF_ERROR(budget_.Check());
      if (pushdown_) {
        IDB_RETURN_IF_ERROR(PullPushdownBatch());
      } else {
        views_.clear();
        IDB_RETURN_IF_ERROR(
            query_.table->ScanBatch(&pos_, batch_rows_, &views_, &done_));
        if (!views_.empty()) {
          counters_->batches.fetch_add(1, std::memory_order_relaxed);
          counters_->rows.fetch_add(views_.size(), std::memory_order_relaxed);
        }
      }
      if (views_.empty()) continue;  // exhausted or fully prefiltered
      EvaluateViews(query_, read_options_, views_, out, pushdown_);
    }
    return true;
  }

 private:
  /// One latched chunk from the current partition's pushdown cursor,
  /// advancing to the next partition on exhaustion. Partition order is the
  /// legacy path's (partition, heap) order.
  Status PullPushdownBatch() {
    if (!cursor_open_) {
      if (partition_ >= query_.table->num_partitions()) {
        done_ = true;
        views_.clear();
        return Status::OK();
      }
      cursor_ = query_.table->OpenPartitionCursor(partition_);
      cursor_open_ = true;
    }
    ScanDeltas deltas;
    bool partition_done = false;
    IDB_RETURN_IF_ERROR(cursor_.NextBatch(batch_rows_, spec_, &ws_, &views_,
                                          &partition_done, &deltas));
    if (partition_done) {
      cursor_open_ = false;
      ++partition_;
      if (partition_ >= query_.table->num_partitions()) done_ = true;
    }
    if (deltas.rows_scanned > 0) {
      counters_->batches.fetch_add(1, std::memory_order_relaxed);
      FoldDeltas(counters_, deltas);
    }
    return Status::OK();
  }

  const ReadOptions read_options_;
  Database::ScanCounters* const counters_;
  const ScanBudget budget_;
  const BoundQuery& query_;
  const size_t batch_rows_;
  const bool pushdown_;
  const StablePredicateFilter filter_;
  const ScanSpec spec_;
  ScanWorkspace ws_;
  TableScanPos pos_;
  uint32_t partition_ = 0;
  PartitionCursor cursor_;
  bool cursor_open_ = false;
  bool done_ = false;
  std::vector<RowView> views_;
};

/// Morsel fan-out source: `workers` prefetch threads claim page-range
/// morsels from the shared MorselScheduler (partition-affine home queues,
/// stealing from the busiest partition when their own runs dry — so
/// parallelism is not capped by the partition count and one skewed
/// partition is shared), pull ScanBatch batches under that partition's
/// shared latch, run whole-batch σ, and push the qualifying batches into a
/// bounded queue the consumer drains. Per-batch snapshot semantics are
/// exactly the sequential source's — parallelism changes only which
/// morsels' batches interleave, never what one batch may contain. Producer
/// threads are borrowed from the Database's shared worker pool when it has
/// idle capacity; the shortfall is spawned, because a streaming consumer
/// waits on `producers_live_ > 0` and the producer count must therefore be
/// guaranteed, not best-effort. Batch storage circulates: drained batches
/// return to a spare pool the workers refill, so a steady-state scan stops
/// allocating. The queue bound backpressures workers when the consumer is
/// slow; the consumer counts a prefetch stall each time it finds the queue
/// empty while workers are still producing.
class ParallelScanSource : public RowSource {
 public:
  ParallelScanSource(Session* session, const BoundQuery& query,
                     size_t batch_rows, size_t workers, size_t queue_batches,
                     std::vector<std::vector<Morsel>> plan)
      : read_options_(session->read_options()),
        counters_(session->db()->scan_counters()),
        budget_(ScanBudget::Of(session)),
        pool_(session->db()->worker_pool()),
        query_(query),
        batch_rows_(batch_rows),
        queue_capacity_(std::max<size_t>(queue_batches, 1)),
        pushdown_(session->scan_options().pushdown),
        filter_(query.table->schema(), query.predicates),
        spec_(MakeScanSpec(query, filter_)),
        sched_(std::move(plan),
               MorselStatsSink{&counters_->morsels_claimed,
                               &counters_->morsels_stolen,
                               &counters_->steal_failures}) {
    // The shortfall must be computed from the immutable `want`, never from
    // producers_live_: borrowed pool producers start (and may finish,
    // decrementing producers_live_) while this constructor is still running.
    const size_t want = std::max<size_t>(workers, 1);
    producers_live_ = want;
    const size_t borrowed = pool_->TryDispatch(
        want, [this](size_t) { ProduceLoop(); }, &ticket_);
    if (borrowed < want) {
      runner_.Start(want - borrowed, [this](size_t) { ProduceLoop(); });
    }
  }

  ~ParallelScanSource() override {
    {
      // The lock orders the store against a producer's wait predicate so
      // the notify cannot fall between its check and its sleep.
      std::lock_guard<std::mutex> lock(mu_);
      closed_.store(true, std::memory_order_relaxed);
    }
    cv_.notify_all();
    runner_.Join();
    pool_->Wait(&ticket_);
  }

  Result<bool> NextBatch(EvaluatedBatch* out) override {
    std::unique_lock<std::mutex> lock(mu_);
    bool stalled = false;
    while (true) {
      if (!error_.ok()) return error_;
      // Consumer-side budget probe, ahead of the queue: once the deadline
      // passes (or the token trips) the cursor reports it on the very next
      // pull, even when scanned batches are still buffered — a doomed
      // statement must not keep streaming stale work.
      IDB_RETURN_IF_ERROR(budget_.Check());
      if (!queue_.empty()) {
        out->Clear();
        out->Swap(&queue_.front());
        // The swapped-out storage (the consumer's previous batch) goes back
        // to the spare pool for a worker to refill.
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
        counters_->prefetch_stalls.fetch_add(1, std::memory_order_relaxed);
      }
      cv_.wait(lock);
    }
  }

 private:
  void ProduceLoop() {
    // Stable worker id for morsel affinity: worker w's home queue is
    // partition w % partitions, so distinct producers start on distinct
    // partitions and only meet on one when stealing.
    const size_t worker = worker_ids_.fetch_add(1, std::memory_order_relaxed);
    std::vector<RowView> views;
    EvaluatedBatch batch;
    ScanWorkspace ws;
    Status status;
    Morsel morsel;
    for (;;) {
      // Morsel-claim budget check: a producer whose statement timed out or
      // was cancelled stops claiming; the error wakes the consumer and the
      // destructor's join/Wait releases every borrowed pool token.
      status = budget_.Check();
      if (!status.ok()) break;
      if (!sched_.Claim(worker, &morsel)) break;
      PartitionCursor cursor = query_.table->OpenMorselCursor(morsel);
      bool done = false;
      while (!done) {
        // An early Close (cursor dropped mid-stream) must not keep workers
        // scanning the rest of the table before the destructor can join.
        if (closed_.load(std::memory_order_relaxed)) return;
        status = budget_.Check();
        if (!status.ok()) break;
        if (pushdown_) {
          ScanDeltas deltas;
          status =
              cursor.NextBatch(batch_rows_, spec_, &ws, &views, &done, &deltas);
          if (!status.ok()) break;
          if (deltas.rows_scanned > 0) {
            counters_->batches.fetch_add(1, std::memory_order_relaxed);
            FoldDeltas(counters_, deltas);
          }
        } else {
          views.clear();
          status = cursor.NextBatch(batch_rows_, &views, &done);
          if (!status.ok()) break;
          if (!views.empty()) {
            counters_->batches.fetch_add(1, std::memory_order_relaxed);
            counters_->rows.fetch_add(views.size(), std::memory_order_relaxed);
          }
        }
        if (views.empty()) continue;
        batch.Clear();
        EvaluateViews(query_, read_options_, views, &batch, pushdown_);
        if (batch.size == 0) continue;  // fully filtered: recycle in place,
                                        // no reason to touch the queue lock
        std::unique_lock<std::mutex> lock(mu_);
        while (queue_.size() >= queue_capacity_ &&
               !closed_.load(std::memory_order_relaxed)) {
          cv_.wait(lock);
        }
        if (closed_.load(std::memory_order_relaxed)) return;
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
      if (!status.ok()) break;
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (!status.ok() && error_.ok()) error_ = status;
    --producers_live_;
    cv_.notify_all();
  }

  const ReadOptions read_options_;
  Database::ScanCounters* const counters_;
  const ScanBudget budget_;
  WorkerPool* const pool_;
  const BoundQuery& query_;
  const size_t batch_rows_;
  const size_t queue_capacity_;
  const bool pushdown_;
  const StablePredicateFilter filter_;
  const ScanSpec spec_;
  MorselScheduler sched_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<EvaluatedBatch> queue_;
  std::vector<EvaluatedBatch> spares_;
  Status error_;
  size_t producers_live_ = 0;
  /// Atomic so producers can poll it between batches without the mutex.
  std::atomic<bool> closed_{false};
  std::atomic<size_t> worker_ids_{0};
  WorkerPool::Ticket ticket_;
  ParallelRunner runner_;
};

/// Materializing-path source: workers claim page-range morsels from a
/// shared MorselScheduler and drain each under that partition's shared
/// latch a batch at a time, with σ applied as the batches stream — so only
/// qualifying rows are ever held. Snapshot semantics are per batch (the
/// streaming cursor's), not per partition: a concurrent degrader may land
/// between two batches of one partition, which every caller already had to
/// tolerate across partitions. Workers are borrowed from the Database's
/// shared pool (small tables resolve to 1 and stay inline), and the
/// per-morsel results merge in morsel-ordinal order — (partition,
/// begin_page) ascending — so the output order matches the sequential
/// scan's regardless of parallelism or stealing. Used when the caller asks
/// for an unbounded batch (Session::Execute, DELETE, aggregates).
class SnapshotScanSource : public RowSource {
 public:
  SnapshotScanSource(Session* session, const BoundQuery& query,
                     size_t workers)
      : session_(session),
        query_(query),
        workers_(workers),
        pushdown_(session->scan_options().pushdown),
        filter_(query.table->schema(), query.predicates),
        spec_(MakeScanSpec(query, filter_)) {}

  Result<bool> NextBatch(EvaluatedBatch* out) override {
    if (!scanned_) {
      scanned_ = true;
      IDB_RETURN_IF_ERROR(ScanAll());
    }
    if (served_ || result_.size == 0) return false;
    served_ = true;
    out->Clear();
    out->Swap(&result_);
    return true;
  }

 private:
  Status ScanAll() {
    const Table* table = query_.table;
    const ReadOptions read_options = session_->read_options();
    auto* counters = session_->db()->scan_counters();
    MorselScheduler sched(
        table->MorselPlan(session_->scan_options().morsel_pages),
        MorselStatsSink{&counters->morsels_claimed, &counters->morsels_stolen,
                        &counters->steal_failures});
    const size_t workers =
        std::max<size_t>(1, std::min(workers_, sched.total()));
    // One bucket per morsel, concatenated in ordinal order below: ordinals
    // are assigned in (partition, begin_page) order, so the merged output
    // is the sequential scan's order no matter which worker drained what.
    const ScanBudget budget = ScanBudget::Of(session_);
    std::vector<std::vector<EvaluatedRow>> per_morsel(sched.total());
    auto drain = [&](size_t w) -> Status {
      Morsel morsel;
      ScanWorkspace ws;
      EvaluatedRow row;
      std::vector<RowView> views;
      while (sched.Claim(w, &morsel)) {
        IDB_RETURN_IF_ERROR(budget.Check());
        std::vector<EvaluatedRow>& bucket = per_morsel[morsel.ordinal];
        PartitionCursor cursor = table->OpenMorselCursor(morsel);
        bool done = false;
        while (!done) {
          IDB_RETURN_IF_ERROR(budget.Check());
          if (pushdown_) {
            // Stable predicates run on the decoded tuples and stores are
            // probed only for the survivors, exactly as on the streaming
            // path.
            ScanDeltas deltas;
            IDB_RETURN_IF_ERROR(cursor.NextBatch(kMaterializedScanBatchRows,
                                                 spec_, &ws, &views, &done,
                                                 &deltas));
            if (deltas.rows_scanned > 0) {
              counters->batches.fetch_add(1, std::memory_order_relaxed);
              FoldDeltas(counters, deltas);
            }
            for (const RowView& view : views) {
              if (EvaluateRow(query_, read_options, view, &row,
                              /*stable_prefiltered=*/true)) {
                bucket.push_back(std::move(row));
              }
            }
          } else {
            views.clear();
            IDB_RETURN_IF_ERROR(
                cursor.NextBatch(kMaterializedScanBatchRows, &views, &done));
            if (!views.empty()) {
              counters->batches.fetch_add(1, std::memory_order_relaxed);
              counters->rows.fetch_add(views.size(),
                                       std::memory_order_relaxed);
            }
            for (const RowView& view : views) {
              if (EvaluateRow(query_, read_options, view, &row)) {
                bucket.push_back(std::move(row));
              }
            }
          }
        }
      }
      return Status::OK();
    };
    IDB_RETURN_IF_ERROR(
        session_->db()->worker_pool()->Run(workers, workers, drain));
    for (auto& rows : per_morsel) {
      for (EvaluatedRow& row : rows) *result_.Add() = std::move(row);
    }
    return Status::OK();
  }

  Session* const session_;
  const BoundQuery& query_;
  const size_t workers_;
  const bool pushdown_;
  const StablePredicateFilter filter_;
  const ScanSpec spec_;
  bool scanned_ = false;
  bool served_ = false;
  EvaluatedBatch result_;
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
  size_t parallelism = ResolveScanParallelism(session, *query.table);
  if (scan_batch_rows == SIZE_MAX) {
    return std::unique_ptr<RowSource>(
        new SnapshotScanSource(session, query, parallelism));
  }
  std::vector<std::vector<Morsel>> plan;
  if (parallelism > 1) {
    // Clamp the fan-out to the actual work: a table one morsel long gains
    // nothing from prefetch workers or the bounded-queue machinery, and a
    // two-morsel table needs at most two producers.
    plan = query.table->MorselPlan(session->scan_options().morsel_pages);
    size_t total = 0;
    for (const auto& queue : plan) total += queue.size();
    parallelism = std::min(parallelism, total);
  }
  if (parallelism <= 1) {
    return std::unique_ptr<RowSource>(
        new HeapScanSource(session, query, scan_batch_rows));
  }
  size_t queue_batches = session->scan_options().prefetch_batches;
  if (queue_batches == 0) queue_batches = 2 * parallelism;
  return std::unique_ptr<RowSource>(
      new ParallelScanSource(session, query, scan_batch_rows, parallelism,
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
  if (!session->scan_options().pushdown) return false;
  if (!select.has_aggregate || select.group_col >= 0) return false;
  for (const SelectItem& item : select.items) {
    // A non-aggregate item needs per-row output; partials can't carry it.
    if (item.aggregate == AggregateKind::kNone) return false;
  }
  return UsableIndexPredicate(session, select.query) == nullptr;
}

namespace {

void InitPartials(size_t items, AggregatePartials* agg) {
  agg->count = 0;
  agg->sums.assign(items, 0);
  agg->mins.assign(items, Value::Null());
  agg->maxs.assign(items, Value::Null());
  agg->non_null.assign(items, 0);
}

/// Folds one qualifying row into a worker's partial — the same per-item
/// state transitions as the executor's row-at-a-time AggState fold.
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
  const Table* table = query.table;
  const ReadOptions read_options = session->read_options();
  auto* counters = session->db()->scan_counters();

  const StablePredicateFilter filter(table->schema(), query.predicates);
  const ScanSpec spec = MakeScanSpec(query, filter);

  MorselScheduler sched(
      table->MorselPlan(session->scan_options().morsel_pages),
      MorselStatsSink{&counters->morsels_claimed, &counters->morsels_stolen,
                      &counters->steal_failures});
  const size_t workers =
      std::max<size_t>(1, std::min(ResolveScanParallelism(session, *table),
                                   sched.total()));
  // One partial per WORKER, not per partition: a worker folds every morsel
  // it claims — home partition or stolen — into its own accumulator, and
  // merge associativity makes the claim order irrelevant.
  const ScanBudget budget = ScanBudget::Of(session);
  std::vector<AggregatePartials> partials(workers);
  auto drain = [&](size_t w) -> Status {
    AggregatePartials& agg = partials[w];
    InitPartials(select.items.size(), &agg);
    ScanWorkspace ws;
    EvaluatedRow row;
    std::vector<RowView> views;
    Morsel morsel;
    while (sched.Claim(w, &morsel)) {
      IDB_RETURN_IF_ERROR(budget.Check());
      PartitionCursor cursor = table->OpenMorselCursor(morsel);
      bool done = false;
      while (!done) {
        IDB_RETURN_IF_ERROR(budget.Check());
        ScanDeltas deltas;
        IDB_RETURN_IF_ERROR(cursor.NextBatch(kMaterializedScanBatchRows, spec,
                                             &ws, &views, &done, &deltas));
        if (deltas.rows_scanned > 0) {
          counters->batches.fetch_add(1, std::memory_order_relaxed);
          FoldDeltas(counters, deltas);
        }
        for (const RowView& view : views) {
          if (EvaluateRow(query, read_options, view, &row,
                          /*stable_prefiltered=*/true)) {
            FoldAggregateRow(select, row, &agg);
          }
        }
      }
    }
    return Status::OK();
  };
  IDB_RETURN_IF_ERROR(session->db()->worker_pool()->Run(workers, workers, drain));

  AggregatePartials merged;
  InitPartials(select.items.size(), &merged);
  for (const AggregatePartials& partial : partials) {
    MergePartials(partial, &merged);
  }
  counters->aggregate_partials_merged.fetch_add(workers,
                                                std::memory_order_relaxed);
  return merged;
}

}  // namespace plan
}  // namespace instantdb
