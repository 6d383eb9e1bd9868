#include "query/executor.h"

#include <cstdint>
#include <vector>

#include "query/plan.h"
#include "util/worker_pool.h"

namespace instantdb {

namespace {

/// SELECT, materialized: aggregates fold worker-side, everything else is
/// projected worker-side into morsel buckets (plan::ExecuteProjection). The
/// result keeps typed values and renders display strings only on demand.
Result<QueryResult> ExecuteSelect(Session* session, const SelectAst& ast) {
  IDB_ASSIGN_OR_RETURN(plan::SelectPlan select, plan::BindSelect(session, ast));
  if (select.has_aggregate) return ExecuteAggregate(session, select);
  return plan::ExecuteProjection(session, select);
}

}  // namespace

/// Aggregation (optionally grouped by one column): the per-group partials
/// come from the worker-side fold (plan::ExecuteAggregation); this renders
/// them into output rows.
Result<QueryResult> ExecuteAggregate(Session* session,
                                     const plan::SelectPlan& select) {
  const auto& items = select.items;
  IDB_ASSIGN_OR_RETURN(auto groups, plan::ExecuteAggregation(session, select));

  QueryResult result;
  result.columns = select.output_columns;
  result.format = select.format;
  for (auto& [key, group] : groups) {
    const plan::AggregatePartials& agg = group.partials;
    std::vector<Value> out;
    for (size_t i = 0; i < items.size(); ++i) {
      const SelectItem& item = items[i];
      switch (item.aggregate) {
        case AggregateKind::kNone: {
          if (select.item_columns[i] != select.group_col) {
            return Status::InvalidArgument(
                "non-aggregate column must be the GROUP BY column");
          }
          out.push_back(group.value);
          if (result.format.level_slot(i) >= 0) {
            result.levels.push_back(group.level);
          }
          break;
        }
        case AggregateKind::kCount: {
          const uint64_t n =
              item.column.empty() ? agg.count : agg.non_null[i];
          out.push_back(Value::Int64(static_cast<int64_t>(n)));
          break;
        }
        case AggregateKind::kSum:
          out.push_back(Value::Double(agg.sums[i]));
          break;
        case AggregateKind::kAvg: {
          const double avg =
              agg.non_null[i] == 0
                  ? 0
                  : agg.sums[i] / static_cast<double>(agg.non_null[i]);
          out.push_back(Value::Double(avg));
          break;
        }
        case AggregateKind::kMin:
          out.push_back(agg.mins[i]);
          break;
        case AggregateKind::kMax:
          out.push_back(agg.maxs[i]);
          break;
      }
    }
    result.rows.push_back(std::move(out));
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
  IDB_ASSIGN_OR_RETURN(std::vector<RowId> rows,
                       plan::QualifyingRowIds(session, query));
  auto txn = session->db()->Begin();
  uint64_t deleted = 0;
  for (const RowId row_id : rows) {
    const Status status = query.table->Delete(txn.get(), row_id);
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
  // The caller's thread holds a core until the statement returns: scans lend
  // only the pool workers left beside it (WorkerPool::InFlight).
  const WorkerPool::InFlight in_flight(session->db()->worker_pool());
  if (const auto* select = std::get_if<SelectAst>(&statement)) {
    return ExecuteSelect(session, *select);
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
