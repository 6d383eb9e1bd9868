// Test-only reference evaluator for SELECT statements: the answer every
// production scan shape (streaming or materialized, any parallelism,
// inline or on the worker pool, index or heap, pushed-down aggregate or
// not) must reproduce. It is built only from the library's simplest read
// path — Table::ScanRows assembles every live row in full (one state-store
// probe per row, partitions in order) and plan::EvaluateRow applies σ and
// f_k above it with no stable prefilter — and it folds aggregates itself,
// so it shares no morsel, pool, pushdown or aggregate code with the paths
// under test.

#ifndef INSTANTDB_TESTS_SCAN_ORACLE_H_
#define INSTANTDB_TESTS_SCAN_ORACLE_H_

#include <map>
#include <string>
#include <variant>
#include <vector>

#include "common/strings.h"
#include "query/parser.h"
#include "query/plan.h"
#include "query/session.h"

namespace instantdb {
namespace oracle {

/// The result Session::Execute must return for the SELECT `sql`: projected
/// rows in (partition, heap) order, or one row per group in ascending
/// rendered-key order (no row for an ungrouped aggregate over nothing).
inline Result<QueryResult> Execute(Session* session, const std::string& sql) {
  IDB_ASSIGN_OR_RETURN(StatementAst statement, ParseStatement(sql));
  const auto* ast = std::get_if<SelectAst>(&statement);
  if (ast == nullptr) return Status::InvalidArgument("oracle: not a SELECT");
  IDB_ASSIGN_OR_RETURN(plan::SelectPlan select,
                       plan::BindSelect(session, *ast));
  const Schema& schema = *select.schema;
  const ReadOptions read_options = session->read_options();

  std::vector<plan::EvaluatedRow> rows;
  plan::EvaluatedRow row;
  IDB_RETURN_IF_ERROR(select.query.table->ScanRows([&](const RowView& view) {
    if (plan::EvaluateRow(select.query, read_options, view, &row,
                          /*stable_prefiltered=*/false)) {
      rows.push_back(row);
    }
    return true;
  }));

  QueryResult result;
  result.columns = select.output_columns;
  if (!select.has_aggregate) {
    for (const plan::EvaluatedRow& r : rows) {
      std::vector<Value> values;
      std::vector<std::string> display;
      for (int col : select.item_columns) {
        values.push_back(r.values[col]);
        display.push_back(
            plan::RenderValue(schema, col, r.values[col], r.degradable_level));
      }
      result.rows.push_back(std::move(values));
      result.display.push_back(std::move(display));
    }
    result.affected_rows = result.rows.size();
    return result;
  }

  std::map<std::string, std::vector<const plan::EvaluatedRow*>> groups;
  for (const plan::EvaluatedRow& r : rows) {
    const std::string key =
        select.group_col < 0
            ? "*"
            : plan::RenderValue(schema, select.group_col,
                                r.values[select.group_col], r.degradable_level);
    groups[key].push_back(&r);
  }
  for (const auto& [key, members] : groups) {
    std::vector<Value> values;
    std::vector<std::string> display;
    for (size_t i = 0; i < select.items.size(); ++i) {
      const SelectItem& item = select.items[i];
      const int col = select.item_columns[i];
      if (item.aggregate == AggregateKind::kNone) {
        values.push_back(members.front()->values[col]);
        display.push_back(key);
        continue;
      }
      uint64_t non_null = 0;
      double sum = 0;
      Value min = Value::Null();
      Value max = Value::Null();
      for (const plan::EvaluatedRow* member : members) {
        if (col < 0) continue;  // COUNT(*)
        const Value& v = member->values[col];
        if (v.is_null()) continue;
        ++non_null;
        if (v.type() == ValueType::kDouble) {
          sum += v.dbl();
        } else if (v.type() == ValueType::kInt64 ||
                   v.type() == ValueType::kTimestamp) {
          sum += static_cast<double>(v.int64());
        }
        if (min.is_null() || v.Compare(min) < 0) min = v;
        if (max.is_null() || v.Compare(max) > 0) max = v;
      }
      switch (item.aggregate) {
        case AggregateKind::kCount:
          values.push_back(Value::Int64(
              static_cast<int64_t>(col < 0 ? members.size() : non_null)));
          display.push_back(values.back().ToString());
          break;
        case AggregateKind::kSum:
          values.push_back(Value::Double(sum));
          display.push_back(StringPrintf("%.6g", sum));
          break;
        case AggregateKind::kAvg: {
          const double avg =
              non_null == 0 ? 0 : sum / static_cast<double>(non_null);
          values.push_back(Value::Double(avg));
          display.push_back(StringPrintf("%.6g", avg));
          break;
        }
        case AggregateKind::kMin:
          values.push_back(min);
          display.push_back(min.ToString());
          break;
        case AggregateKind::kMax:
          values.push_back(max);
          display.push_back(max.ToString());
          break;
        case AggregateKind::kNone:
          break;
      }
    }
    result.rows.push_back(std::move(values));
    result.display.push_back(std::move(display));
  }
  result.affected_rows = result.rows.size();
  return result;
}

/// Oracle rows keyed by their first rendered column, for comparing against
/// streaming drains whose arrival order depends on parallelism.
inline std::map<std::string, std::vector<std::string>> ByFirstColumn(
    const QueryResult& result) {
  std::map<std::string, std::vector<std::string>> rows;
  for (const auto& display : result.display) rows.emplace(display[0], display);
  return rows;
}

}  // namespace oracle
}  // namespace instantdb

#endif  // INSTANTDB_TESTS_SCAN_ORACLE_H_
