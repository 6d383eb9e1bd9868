// Test-only reference evaluator for SELECT statements: the answer every
// production scan shape (streaming or materialized, any parallelism,
// inline or on the worker pool, index or heap, worker-side aggregate or
// not) must reproduce. It reads the table its own simple way — every heap
// record walked in place and decoded with DecodeHeapTuple
// (TablePartition::ForEachRecordForTesting, which never reads a page
// image), then one StateStore::Find per (row, column, phase) store and
// DomainHierarchy::AncestorValue for the stored degradable values
// (StoredRows, StoredRow) — and computes σ, f_k, π, rendering and
// aggregates itself, from those Values with
// DomainHierarchy::Generalize/LeafRange/DisplayValue. It shares no page
// image, FindMany merge, leaf-ordinal σ, morsel, pool, projection or
// aggregate code with the paths under test; only the heap record walk,
// statement binding (plan::BindSelect) and the scalar stable comparators
// are common.
//
// The heap read and the store probes are separate steps, so the oracle
// needs a quiescent table: no write, degrade step or checkpoint may run
// while it reads.

#ifndef INSTANTDB_TESTS_SCAN_ORACLE_H_
#define INSTANTDB_TESTS_SCAN_ORACLE_H_

#include <map>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/strings.h"
#include "db/table.h"
#include "query/parser.h"
#include "query/plan.h"
#include "query/predicate.h"
#include "query/session.h"

namespace instantdb {
namespace oracle {

/// What a SELECT must return: typed rows and their display strings.
struct Answer {
  std::vector<std::vector<Value>> rows;
  std::vector<std::vector<std::string>> display;
};

/// Every row's display strings of an engine result, through its lazy
/// accessor.
inline std::vector<std::vector<std::string>> Display(const QueryResult& r) {
  std::vector<std::vector<std::string>> out;
  for (size_t i = 0; i < r.rows.size(); ++i) out.push_back(r.display(i));
  return out;
}

/// One stored row: values by schema column — a stable column's value, a
/// degradable column's stored value at its phase's level (NULL once
/// removed) — and each degradable column's stored phase
/// (lcp.num_phases() = removed).
struct Stored {
  RowId row_id = kInvalidRowId;
  Micros insert_time = 0;
  std::vector<Value> values;
  std::vector<int> phases;
};

namespace internal {

/// Reads every heap record of `partition` whose row id is `only` (every
/// record when kInvalidRowId), in heap order, and resolves each row's
/// degradable cells with one Find per (column, phase) store until a store
/// holds the row.
inline Status ReadStored(const Table& table, uint32_t partition, RowId only,
                         std::vector<Stored>* out) {
  const Schema& schema = table.schema();
  const TablePartition* part = table.partition(partition);
  std::vector<HeapTuple> tuples;
  Status decoded;
  IDB_RETURN_IF_ERROR(part->ForEachRecordForTesting([&](Rid, Slice record) {
    HeapTuple tuple;
    decoded = DecodeHeapTuple(schema, record, &tuple);
    if (!decoded.ok()) return false;
    if (only == kInvalidRowId || tuple.row_id == only) {
      tuples.push_back(std::move(tuple));
    }
    return true;
  }));
  IDB_RETURN_IF_ERROR(decoded);
  for (HeapTuple& tuple : tuples) {
    Stored row;
    row.row_id = tuple.row_id;
    row.insert_time = tuple.insert_time;
    row.values.assign(schema.num_columns(), Value::Null());
    for (size_t i = 0; i < schema.stable_columns().size(); ++i) {
      row.values[schema.stable_columns()[i]] = std::move(tuple.stable[i]);
    }
    for (int col : schema.degradable_columns()) {
      const ColumnDef& column = schema.column(col);
      int phase = 0;
      for (; phase < column.lcp.num_phases(); ++phase) {
        const auto entry = part->store(col, phase)->Find(row.row_id);
        if (!entry) continue;
        row.values[col] = column.hierarchy->AncestorValue(
            entry->ordinal, column.lcp.phase(phase).level);
        break;
      }
      row.phases.push_back(phase);
    }
    out->push_back(std::move(row));
  }
  return Status::OK();
}

}  // namespace internal

/// Every stored row of `table`, in (partition, heap) order. Needs a
/// quiescent table (see above).
inline Result<std::vector<Stored>> StoredRows(const Table& table) {
  std::vector<Stored> rows;
  for (uint32_t p = 0; p < table.num_partitions(); ++p) {
    IDB_RETURN_IF_ERROR(internal::ReadStored(table, p, kInvalidRowId, &rows));
  }
  return rows;
}

/// Row `row_id` as stored, or nullopt when the table holds no such row.
/// Needs a quiescent table (see above).
inline Result<std::optional<Stored>> StoredRow(const Table& table,
                                               RowId row_id) {
  std::vector<Stored> rows;
  IDB_RETURN_IF_ERROR(internal::ReadStored(table, table.PartitionOf(row_id),
                                           row_id, &rows));
  if (rows.empty()) return std::optional<Stored>();
  return std::optional<Stored>(std::move(rows.front()));
}

namespace internal {

/// One qualifying row: values by schema column at purpose accuracy, and the
/// effective level of each referenced degradable column.
struct Row {
  std::vector<Value> values;
  std::map<int, int> levels;
};

/// σ and f_k over one stored row, from the stored Values. Returns false
/// when the row does not qualify.
inline bool Evaluate(const plan::SelectPlan& select,
                     const ReadOptions& read_options, const Stored& view,
                     Row* out) {
  const Schema& schema = *select.schema;
  const plan::BoundQuery& query = select.query;
  out->values.assign(view.values.size(), Value::Null());
  out->levels.clear();
  for (int col : schema.stable_columns()) out->values[col] = view.values[col];

  // Computability and the effective level of every referenced column.
  const std::vector<int>& degradable = schema.degradable_columns();
  for (size_t d = 0; d < degradable.size(); ++d) {
    const int k = query.degradable[d].accuracy;
    if (k < 0) continue;
    const ColumnDef& column = schema.column(degradable[d]);
    if (view.phases[d] >= column.lcp.num_phases()) return false;
    const int stored_level = column.lcp.phase(view.phases[d]).level;
    if (stored_level > k && !read_options.include_coarser) return false;
    out->levels[degradable[d]] = std::max(stored_level, k);
  }
  // The stored value of a referenced degradable column generalized to its
  // effective level; NULL when it has no generalization.
  auto generalized = [&](int col) {
    const ColumnDef& column = schema.column(col);
    const int stored_level =
        column.lcp.phase(view.phases[schema.DegradableOrdinal(col)]).level;
    auto value = column.hierarchy->Generalize(view.values[col], stored_level,
                                              out->levels.at(col));
    return value.ok() ? *value : Value::Null();
  };

  for (const plan::BoundPredicate& pred : query.predicates) {
    if (!pred.degradable) {
      if (!plan::StableTerm(pred).Matches(
              FieldView::Of(view.values[pred.column]))) {
        return false;
      }
      continue;
    }
    const DomainHierarchy& hierarchy = *schema.column(pred.column).hierarchy;
    const int level = out->levels.at(pred.column);
    const Value value = generalized(pred.column);
    if (value.is_null()) return false;
    const bool node =
        pred.op == ComparisonOp::kEq || pred.op == ComparisonOp::kNe ||
        pred.op == ComparisonOp::kBetween ||
        (pred.op == ComparisonOp::kLike && pred.literal_level >= 0);
    if (node) {
      auto range = hierarchy.LeafRange(value, level);
      if (!range.ok()) return false;
      bool match = false;
      if (pred.op == ComparisonOp::kBetween) {
        match = range->lo >= pred.literal_interval.lo &&
                range->hi <= pred.literal_interval2.hi;
      } else if (pred.op == ComparisonOp::kNe) {
        match = !pred.literal_interval.Contains(*range);
      } else {
        match = pred.literal_interval.Contains(*range);
      }
      if (!match) return false;
      continue;
    }
    bool match = false;
    switch (pred.op) {
      case ComparisonOp::kLike:
        match = plan::MatchLike(hierarchy.DisplayValue(value, level), pred);
        break;
      case ComparisonOp::kLt:
        match = value.int64() < pred.value.int64();
        break;
      case ComparisonOp::kLe:
        match = value.int64() <= pred.value.int64();
        break;
      case ComparisonOp::kGt:
        match = value.int64() > pred.value.int64();
        break;
      case ComparisonOp::kGe:
        match = value.int64() >= pred.value.int64();
        break;
      default:
        break;
    }
    if (!match) return false;
  }

  // f_k for the degradable columns that leave the scan.
  for (const auto& [col, level] : out->levels) {
    out->values[col] = generalized(col);
  }
  return true;
}

/// Display string of one cell.
inline std::string Render(const Schema& schema, int col, const Value& value,
                          const std::map<int, int>& levels) {
  if (value.is_null()) return "NULL";
  const ColumnDef& column = schema.column(col);
  if (column.kind != ColumnKind::kDegradable) return value.ToString();
  return column.hierarchy->DisplayValue(value, levels.at(col));
}

}  // namespace internal

/// The result Session::Execute must return for the SELECT `sql`: projected
/// rows in (partition, heap) order, or one row per group in ascending
/// rendered-key order (no row for an ungrouped aggregate over nothing).
inline Result<Answer> Execute(Session* session, const std::string& sql) {
  IDB_ASSIGN_OR_RETURN(StatementAst statement, ParseStatement(sql));
  const auto* ast = std::get_if<SelectAst>(&statement);
  if (ast == nullptr) return Status::InvalidArgument("oracle: not a SELECT");
  IDB_ASSIGN_OR_RETURN(plan::SelectPlan select,
                       plan::BindSelect(session, *ast));
  const Schema& schema = *select.schema;
  const ReadOptions read_options = session->read_options();

  IDB_ASSIGN_OR_RETURN(const std::vector<Stored> stored,
                       StoredRows(*select.query.table));
  std::vector<internal::Row> rows;
  internal::Row row;
  for (const Stored& view : stored) {
    if (internal::Evaluate(select, read_options, view, &row)) {
      rows.push_back(row);
    }
  }

  Answer answer;
  if (!select.has_aggregate) {
    for (const internal::Row& r : rows) {
      std::vector<Value> values;
      std::vector<std::string> display;
      for (int col : select.item_columns) {
        values.push_back(r.values[col]);
        display.push_back(
            internal::Render(schema, col, r.values[col], r.levels));
      }
      answer.rows.push_back(std::move(values));
      answer.display.push_back(std::move(display));
    }
    return answer;
  }

  std::map<std::string, std::vector<const internal::Row*>> groups;
  for (const internal::Row& r : rows) {
    const std::string key =
        select.group_col < 0
            ? "*"
            : internal::Render(schema, select.group_col,
                               r.values[select.group_col], r.levels);
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
      for (const internal::Row* member : members) {
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
    answer.rows.push_back(std::move(values));
    answer.display.push_back(std::move(display));
  }
  return answer;
}

/// Rows keyed by their first rendered column, for comparing against
/// streaming drains whose arrival order depends on parallelism.
inline std::map<std::string, std::vector<std::string>> ByFirstColumn(
    const std::vector<std::vector<std::string>>& display) {
  std::map<std::string, std::vector<std::string>> rows;
  for (const auto& row : display) rows.emplace(row[0], row);
  return rows;
}
inline std::map<std::string, std::vector<std::string>> ByFirstColumn(
    const Answer& answer) {
  return ByFirstColumn(answer.display);
}
inline std::map<std::string, std::vector<std::string>> ByFirstColumn(
    const QueryResult& result) {
  return ByFirstColumn(Display(result));
}

}  // namespace oracle
}  // namespace instantdb

#endif  // INSTANTDB_TESTS_SCAN_ORACLE_H_
