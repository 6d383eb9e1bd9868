#include "query/executor.h"

#include <cstdint>
#include <map>

#include "common/strings.h"
#include "query/cursor.h"
#include "query/plan.h"

namespace instantdb {

namespace {

/// SELECT: open the cursor pipeline (streaming for plain selects, buffered
/// for aggregates — Cursor::Open plans once and dispatches) and drain it.
/// This keeps Execute and ExecuteCursor behaviorally identical — Execute is
/// just "drain into a QueryResult".
Result<QueryResult> DrainSelectCursor(Session* session,
                                      const StatementAst& statement) {
  // SIZE_MAX batch: the scan drains on the worker pool and its rows merge
  // in morsel-ordinal order, i.e. sequential-scan order. Isolation is
  // snapshot-per-batch, as for a streaming cursor.
  IDB_ASSIGN_OR_RETURN(std::unique_ptr<Cursor> cursor,
                       Cursor::Open(session, statement, SIZE_MAX));
  QueryResult result;
  result.columns = cursor->columns();
  CursorBatch* batch = nullptr;
  while (true) {
    IDB_ASSIGN_OR_RETURN(const bool more, cursor->NextBatch(&batch));
    if (!more) break;
    result.rows.reserve(result.rows.size() + batch->size());
    result.display.reserve(result.display.size() + batch->size());
    for (size_t i = 0; i < batch->size(); ++i) {
      // Single-pass drain: move rows out of the batch instead of deep-
      // copying the (possibly whole-table) result a second time. Display
      // first — rendering reads the values the second Take empties.
      result.display.push_back(batch->TakeDisplay(i));
      result.rows.push_back(batch->TakeValues(i));
    }
  }
  result.affected_rows = result.rows.size();
  return result;
}

}  // namespace

/// Aggregation (optionally grouped by one column), pulling evaluated rows
/// straight from the scan → σ source: no intermediate materialization of
/// the qualifying set.
Result<QueryResult> ExecuteAggregate(Session* session,
                                     const plan::SelectPlan& select) {
  const Schema& schema = *select.schema;
  const auto& items = select.items;

  struct AggState {
    Value group_value;
    plan::AggregatePartials partials;
  };
  std::map<std::string, AggState> groups;

  if (plan::CanPushAggregate(session, select)) {
    // Ungrouped all-aggregate query: partials computed inside the scan
    // workers (stable predicates below row assembly, state stores skipped
    // when no degradable column is referenced), merged here. Rendering
    // below is shared with the row-at-a-time path.
    IDB_ASSIGN_OR_RETURN(plan::AggregatePartials partial,
                         plan::ExecuteAggregatePushdown(session, select));
    if (partial.count > 0) groups["*"].partials = std::move(partial);
  } else {
    IDB_ASSIGN_OR_RETURN(std::unique_ptr<plan::RowSource> source,
                         plan::MakeRowSource(session, select.query, SIZE_MAX));
    plan::EvaluatedRow row;
    while (true) {
      IDB_ASSIGN_OR_RETURN(const bool more, source->Next(&row));
      if (!more) break;
      std::string key = "*";
      if (select.group_col >= 0) {
        key = plan::RenderValue(schema, select.group_col,
                                row.values[select.group_col],
                                row.degradable_level);
      }
      AggState& state = groups[key];
      if (state.partials.count == 0) {
        plan::InitPartials(items.size(), &state.partials);
        if (select.group_col >= 0) {
          state.group_value = row.values[select.group_col];
        }
      }
      plan::FoldAggregateRow(select, row, &state.partials);
    }
  }

  QueryResult result;
  result.columns = select.output_columns;
  for (auto& [key, state] : groups) {
    const plan::AggregatePartials& agg = state.partials;
    std::vector<Value> out;
    std::vector<std::string> rendered;
    for (size_t i = 0; i < items.size(); ++i) {
      const SelectItem& item = items[i];
      switch (item.aggregate) {
        case AggregateKind::kNone: {
          if (select.item_columns[i] != select.group_col) {
            return Status::InvalidArgument(
                "non-aggregate column must be the GROUP BY column");
          }
          out.push_back(state.group_value);
          rendered.push_back(key);
          break;
        }
        case AggregateKind::kCount: {
          const uint64_t n =
              item.column.empty() ? agg.count : agg.non_null[i];
          out.push_back(Value::Int64(static_cast<int64_t>(n)));
          rendered.push_back(out.back().ToString());
          break;
        }
        case AggregateKind::kSum:
          out.push_back(Value::Double(agg.sums[i]));
          rendered.push_back(StringPrintf("%.6g", agg.sums[i]));
          break;
        case AggregateKind::kAvg: {
          const double avg =
              agg.non_null[i] == 0
                  ? 0
                  : agg.sums[i] / static_cast<double>(agg.non_null[i]);
          out.push_back(Value::Double(avg));
          rendered.push_back(StringPrintf("%.6g", avg));
          break;
        }
        case AggregateKind::kMin:
          out.push_back(agg.mins[i]);
          rendered.push_back(out.back().ToString());
          break;
        case AggregateKind::kMax:
          out.push_back(agg.maxs[i]);
          rendered.push_back(out.back().ToString());
          break;
      }
    }
    result.rows.push_back(std::move(out));
    result.display.push_back(std::move(rendered));
  }
  result.affected_rows = result.rows.size();
  return result;
}

namespace {

Result<QueryResult> ExecuteInsert(Session* session, const InsertAst& ast) {
  const TableDef* def = ResolveTableName(session->db()->catalog(), ast.table,
                                         /*allow_prefix=*/false);
  if (def == nullptr) return Status::NotFound("no such table: " + ast.table);
  std::vector<Value> row = ast.values;
  // Coerce integer literals into timestamp columns.
  for (size_t i = 0;
       i < row.size() && i < static_cast<size_t>(def->schema.num_columns());
       ++i) {
    if (def->schema.column(static_cast<int>(i)).type == ValueType::kTimestamp &&
        row[i].type() == ValueType::kInt64) {
      row[i] = Value::Timestamp(row[i].int64());
    }
  }
  IDB_ASSIGN_OR_RETURN(RowId row_id, session->db()->Insert(def->name, row));
  QueryResult result;
  result.affected_rows = 1;
  result.last_insert_id = row_id;
  result.statement = StatementKind::kInsert;
  return result;
}

Result<QueryResult> ExecuteDelete(Session* session, const DeleteAst& ast) {
  IDB_ASSIGN_OR_RETURN(plan::BoundQuery query,
                       plan::BindQuery(session, ast.table, ast.where, {}));

  // View-style delete (paper §II): the predicate selects at the session's
  // accuracy; the delete removes both stable and degradable parts.
  IDB_ASSIGN_OR_RETURN(std::unique_ptr<plan::RowSource> source,
                       plan::MakeRowSource(session, query, SIZE_MAX));
  auto txn = session->db()->Begin();
  uint64_t deleted = 0;
  plan::EvaluatedRow row;
  while (true) {
    auto more = source->Next(&row);
    if (!more.ok()) {
      session->db()->Abort(txn.get());
      return more.status();
    }
    if (!*more) break;
    const Status status = query.table->Delete(txn.get(), row.row_id);
    if (status.ok()) {
      ++deleted;
    } else if (!status.IsNotFound()) {
      session->db()->Abort(txn.get());
      return status;
    }
  }
  IDB_RETURN_IF_ERROR(session->db()->Commit(txn.get()));
  QueryResult result;
  result.affected_rows = deleted;
  result.statement = StatementKind::kDelete;
  return result;
}

}  // namespace

Result<QueryResult> ExecuteStatement(Session* session,
                                     const StatementAst& statement) {
  if (std::get_if<SelectAst>(&statement) != nullptr) {
    return DrainSelectCursor(session, statement);
  }
  if (const auto* insert = std::get_if<InsertAst>(&statement)) {
    return ExecuteInsert(session, *insert);
  }
  if (const auto* del = std::get_if<DeleteAst>(&statement)) {
    return ExecuteDelete(session, *del);
  }
  if (const auto* declare = std::get_if<DeclarePurposeAst>(&statement)) {
    IDB_RETURN_IF_ERROR(
        session->DeclarePurpose(declare->name, declare->clauses));
    QueryResult result;
    result.statement = StatementKind::kCommand;
    return result;
  }
  if (const auto* use = std::get_if<UsePurposeAst>(&statement)) {
    IDB_RETURN_IF_ERROR(session->UsePurpose(use->name));
    QueryResult result;
    result.statement = StatementKind::kCommand;
    return result;
  }
  return Status::NotSupported("unhandled statement kind");
}

}  // namespace instantdb
