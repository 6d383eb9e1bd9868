#include "query/session.h"

#include <algorithm>

#include "common/strings.h"
#include "query/cursor.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/prepared_statement.h"

namespace instantdb {

const TableDef* ResolveTableName(const Catalog& catalog,
                                 const std::string& name, bool allow_prefix) {
  const TableDef* prefix_match = nullptr;
  for (const TableDef* def : catalog.tables()) {
    if (EqualsIgnoreCase(def->name, name)) return def;
    if (allow_prefix && def->name.size() > name.size() &&
        EqualsIgnoreCase(def->name.substr(0, name.size()), name)) {
      prefix_match = def;
    }
  }
  return prefix_match;
}

int ResolveColumnName(const Schema& schema, const std::string& name) {
  const int exact = schema.FindColumn(name);
  if (exact >= 0) return exact;
  for (int i = 0; i < schema.num_columns(); ++i) {
    if (EqualsIgnoreCase(schema.column(i).name, name)) return i;
  }
  return -1;
}

std::vector<std::string> QueryResult::display(size_t row) const {
  const std::vector<Value>& values = rows[row];
  const int* row_levels = levels.data() + row * format.levels_per_row();
  std::vector<std::string> out;
  out.reserve(values.size());
  for (size_t c = 0; c < values.size(); ++c) {
    out.push_back(format.Render(c, values[c], row_levels));
  }
  return out;
}

std::string QueryResult::ToString() const {
  if (statement != StatementKind::kSelect) {
    if (statement == StatementKind::kCommand) return "OK\n";
    std::string out =
        StringPrintf("%llu row(s) affected",
                     static_cast<unsigned long long>(affected_rows));
    if (last_insert_id != kInvalidRowId) {
      out += StringPrintf(", last insert id %llu",
                          static_cast<unsigned long long>(last_insert_id));
    }
    out += '\n';
    return out;
  }
  std::vector<std::vector<std::string>> rendered;
  rendered.reserve(rows.size());
  for (size_t r = 0; r < rows.size(); ++r) rendered.push_back(display(r));
  std::vector<size_t> widths(columns.size());
  for (size_t c = 0; c < columns.size(); ++c) widths[c] = columns[c].size();
  for (const auto& row : rendered) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto line = [&](char fill, char sep) {
    std::string out;
    out.push_back(sep);
    for (size_t w : widths) {
      out.append(w + 2, fill);
      out.push_back(sep);
    }
    out.push_back('\n');
    return out;
  };
  std::string out = line('-', '+');
  out.push_back('|');
  for (size_t c = 0; c < columns.size(); ++c) {
    out += ' ' + columns[c] + std::string(widths[c] - columns[c].size(), ' ') + " |";
  }
  out.push_back('\n');
  out += line('-', '+');
  for (const auto& row : rendered) {
    out.push_back('|');
    for (size_t c = 0; c < row.size(); ++c) {
      out += ' ' + row[c] + std::string(widths[c] - row[c].size(), ' ') + " |";
    }
    out.push_back('\n');
  }
  out += line('-', '+');
  out += StringPrintf("%zu row(s)\n", rendered.size());
  return out;
}

namespace {

/// `?` markers only make sense through Session::Prepare; executing them
/// directly would silently run with NULL placeholders.
Status RejectParameterMarkers(const StatementAst& statement) {
  if (CountParameters(statement) > 0) {
    return Status::InvalidArgument(
        "statement has ? parameter markers; use Session::Prepare");
  }
  return Status::OK();
}

}  // namespace

Result<QueryResult> Session::Execute(const std::string& sql) {
  IDB_ASSIGN_OR_RETURN(StatementAst statement, ParseStatement(sql));
  IDB_RETURN_IF_ERROR(RejectParameterMarkers(statement));
  return ExecuteStatement(this, statement);
}

Result<std::unique_ptr<Cursor>> Session::ExecuteCursor(const std::string& sql) {
  IDB_ASSIGN_OR_RETURN(StatementAst statement, ParseStatement(sql));
  IDB_RETURN_IF_ERROR(RejectParameterMarkers(statement));
  return Cursor::Open(this, statement);
}

Result<std::unique_ptr<PreparedStatement>> Session::Prepare(
    const std::string& sql) {
  IDB_ASSIGN_OR_RETURN(StatementAst statement, ParseStatement(sql));
  return std::unique_ptr<PreparedStatement>(
      new PreparedStatement(this, std::move(statement)));
}

Status Session::DeclarePurpose(
    const std::string& name,
    const std::vector<DeclarePurposeAst::Clause>& clauses) {
  std::map<std::pair<TableId, int>, int> levels;
  for (const DeclarePurposeAst::Clause& clause : clauses) {
    std::vector<const TableDef*> candidates;
    if (!clause.table.empty()) {
      const TableDef* def = ResolveTableName(db_->catalog(), clause.table,
                                             /*allow_prefix=*/true);
      if (def == nullptr) {
        return Status::NotFound("unknown table in purpose: " + clause.table);
      }
      candidates.push_back(def);
    } else {
      for (const TableDef* def : db_->catalog().tables()) {
        candidates.push_back(def);
      }
    }
    bool bound = false;
    for (const TableDef* def : candidates) {
      const int col = ResolveColumnName(def->schema, clause.column);
      if (col < 0) continue;
      const ColumnDef& column = def->schema.column(col);
      if (column.kind != ColumnKind::kDegradable) {
        return Status::InvalidArgument("accuracy level declared on stable column " +
                                       clause.column);
      }
      IDB_ASSIGN_OR_RETURN(int level,
                           column.hierarchy->LevelForSpec(clause.spec));
      levels[{def->id, col}] = level;
      bound = true;
    }
    if (!bound) {
      return Status::NotFound("unknown column in purpose: " + clause.column);
    }
  }
  purposes_[name] = std::move(levels);
  active_ = name;
  return Status::OK();
}

Status Session::UsePurpose(const std::string& name) {
  if (purposes_.count(name) == 0) {
    return Status::NotFound("undeclared purpose: " + name);
  }
  active_ = name;
  return Status::OK();
}

int Session::AccuracyFor(TableId table, int column) const {
  if (active_.empty()) return 0;
  auto purpose = purposes_.find(active_);
  if (purpose == purposes_.end()) return 0;
  auto it = purpose->second.find({table, column});
  return it == purpose->second.end() ? 0 : it->second;
}

}  // namespace instantdb
