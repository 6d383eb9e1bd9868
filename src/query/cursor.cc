#include "query/cursor.h"

#include "query/executor.h"
#include "query/plan.h"
#include "query/session.h"
#include "util/worker_pool.h"

namespace instantdb {

void CursorBatch::ResetDisplay() {
  display_valid_.assign(rows_.size, 0);
  if (display_.size() < rows_.size) display_.resize(rows_.size);
}

const std::vector<std::string>& CursorBatch::display(size_t i) const {
  if (!display_valid_[i]) {
    // Lazy π rendering: only consumers that actually read display strings
    // pay for hierarchy lookups and formatting.
    const std::vector<Value>& values = rows_.values[i];
    const int* levels =
        rows_.levels.data() + i * format_->levels_per_row();
    std::vector<std::string>& out = display_[i];
    out.clear();
    out.reserve(values.size());
    for (size_t k = 0; k < values.size(); ++k) {
      out.push_back(format_->Render(k, values[k], levels));
    }
    display_valid_[i] = 1;
  }
  return display_[i];
}

/// Pipeline state: either a live streaming pipeline (non-aggregate SELECT)
/// or a buffered result (aggregates, DML, purpose statements) served as one
/// batch.
struct Cursor::Impl {
  // Streaming: plan owns the bound query the source references, so it lives
  // behind a stable pointer and must be destroyed after the source.
  std::unique_ptr<plan::SelectPlan> plan;
  std::unique_ptr<plan::RowSource> source;

  /// Current projected batch (reused storage); what Next/NextBatch expose.
  CursorBatch batch;
  size_t next_row = 0;   // Next()'s position within `batch`
  bool batch_live = false;

  /// Buffered fallback: the whole result is one batch rendered with the
  /// result's own format.
  bool use_buffer = false;
  bool buffer_served = false;
  ResultFormat buffer_format;

  std::vector<std::string> columns;
  uint64_t rows_returned = 0;
  bool closed = false;
  /// A streaming cursor's consumer thread holds a core from Open until the
  /// stream ends or the cursor closes: the scan lends only the pool workers
  /// left beside it.
  WorkerPool::InFlight in_flight;
};

Cursor::Cursor(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}

Cursor::~Cursor() { Close(); }

const std::vector<std::string>& Cursor::columns() const {
  return impl_->columns;
}

uint64_t Cursor::rows_returned() const { return impl_->rows_returned; }

void Cursor::Close() {
  if (impl_ == nullptr || impl_->closed) return;
  impl_->closed = true;
  impl_->source.reset();  // joins any prefetch workers
  impl_->plan.reset();
  impl_->batch = CursorBatch{};
  impl_->batch_live = false;
  impl_->in_flight = {};
}

Result<bool> Cursor::FetchBatch() {
  Impl& impl = *impl_;
  impl.batch_live = false;
  impl.next_row = 0;
  if (impl.closed) return false;

  if (impl.use_buffer) {
    if (impl.buffer_served) return false;
    impl.buffer_served = true;
    if (impl.batch.size() == 0) return false;
    impl.batch_live = true;
    return true;
  }

  IDB_ASSIGN_OR_RETURN(const bool more,
                       impl.source->NextBatch(&impl.batch.rows_));
  if (!more) {
    impl.in_flight = {};
    return false;
  }
  impl.batch.ResetDisplay();
  impl.batch_live = impl.batch.size() > 0;
  return impl.batch_live;
}

Result<bool> Cursor::Next(CursorRow* out) {
  Impl& impl = *impl_;
  while (!impl.batch_live || impl.next_row >= impl.batch.size()) {
    IDB_ASSIGN_OR_RETURN(const bool more, FetchBatch());
    if (!more) return false;
  }
  out->batch_ = &impl.batch;
  out->index_ = impl.next_row++;
  ++impl.rows_returned;
  return true;
}

Result<bool> Cursor::NextBatch(const CursorBatch** out) {
  IDB_ASSIGN_OR_RETURN(const bool more, FetchBatch());
  if (!more) return false;
  impl_->next_row = impl_->batch.size();  // Next() may not re-serve these
  impl_->rows_returned += impl_->batch.size();
  *out = &impl_->batch;
  return true;
}

Result<std::unique_ptr<Cursor>> Cursor::Open(Session* session,
                                             const StatementAst& statement,
                                             size_t scan_batch_rows) {
  if (scan_batch_rows == 0) scan_batch_rows = plan::kStreamingScanBatchRows;
  auto impl = std::make_unique<Impl>();
  const auto* select_ast = std::get_if<SelectAst>(&statement);
  QueryResult buffered;
  if (select_ast != nullptr) {
    // Counted like ExecuteStatement, which runs every other statement.
    WorkerPool::InFlight in_flight(session->db()->worker_pool());
    // Plan exactly once, whichever entry point the statement came through.
    auto plan = std::make_unique<plan::SelectPlan>();
    IDB_ASSIGN_OR_RETURN(*plan, plan::BindSelect(session, *select_ast));
    if (!plan->has_aggregate) {
      impl->columns = plan->output_columns;
      impl->plan = std::move(plan);
      impl->batch.format_ = &impl->plan->format;
      impl->in_flight = std::move(in_flight);
      IDB_ASSIGN_OR_RETURN(
          impl->source,
          plan::MakeRowSource(session, *impl->plan, scan_batch_rows));
      return std::unique_ptr<Cursor>(new Cursor(std::move(impl)));
    }
    // Aggregates execute eagerly over the bound plan; the cursor streams
    // the (small) aggregated result.
    IDB_ASSIGN_OR_RETURN(buffered, ExecuteAggregate(session, *plan));
  } else {
    // Non-SELECT statements execute eagerly; the cursor streams their
    // summary result.
    IDB_ASSIGN_OR_RETURN(buffered, ExecuteStatement(session, statement));
  }
  impl->use_buffer = true;
  impl->columns = std::move(buffered.columns);
  impl->buffer_format = std::move(buffered.format);
  ProjectedRows& rows = impl->batch.rows_;
  rows.size = buffered.rows.size();
  rows.row_ids.assign(rows.size, kInvalidRowId);
  rows.values = std::move(buffered.rows);
  rows.levels = std::move(buffered.levels);
  impl->batch.format_ = &impl->buffer_format;
  impl->batch.ResetDisplay();
  return std::unique_ptr<Cursor>(new Cursor(std::move(impl)));
}

}  // namespace instantdb
