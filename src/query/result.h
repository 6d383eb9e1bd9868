#ifndef INSTANTDB_QUERY_RESULT_H_
#define INSTANTDB_QUERY_RESULT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "catalog/generalization.h"
#include "catalog/value.h"
#include "storage/page.h"

namespace instantdb {

/// \brief How a result's cells render as text. An output column either
/// renders with Value::ToString, or is a degradable projection rendered in
/// its domain at a per-row level (interval buckets as "[lo..hi]"). The
/// domains are held by shared_ptr, so a result renders after the session
/// and database that produced it are gone.
class ResultFormat {
 public:
  /// Appends one output column; a null `domain` renders plainly.
  void AddColumn(std::shared_ptr<const DomainHierarchy> domain) {
    slots_.push_back(domain == nullptr ? -1
                                       : static_cast<int>(levels_per_row_++));
    domains_.push_back(std::move(domain));
  }
  /// Levels a row carries: one per column that has a domain.
  size_t levels_per_row() const { return levels_per_row_; }
  /// Position of column `c` in a row's level block; -1 for plain columns
  /// (and for columns past the format, so an unformatted result renders
  /// plainly).
  int level_slot(size_t c) const { return c < slots_.size() ? slots_[c] : -1; }

  /// Display string of `value` in column `c` of a row whose level block
  /// starts at `levels`.
  std::string Render(size_t c, const Value& value, const int* levels) const {
    if (value.is_null()) return "NULL";
    const int slot = level_slot(c);
    if (slot < 0) return value.ToString();
    return domains_[c]->DisplayValue(value, levels[slot]);
  }

 private:
  std::vector<std::shared_ptr<const DomainHierarchy>> domains_;
  std::vector<int> slots_;
  size_t levels_per_row_ = 0;
};

/// \brief Projected output rows, the unit scan workers fill and cursors
/// serve: values in SELECT-item order, plus each row's level block
/// (ResultFormat::levels_per_row() levels, row-major) for lazy rendering.
/// Rows [0, size) are valid; slots past `size` keep their storage, so a
/// batch refilled in a loop stops allocating.
struct ProjectedRows {
  std::vector<RowId> row_ids;
  std::vector<std::vector<Value>> values;
  std::vector<int> levels;
  size_t size = 0;

  void Clear() { size = 0; }
  /// Appends a row slot of `items` values (recycled storage) and returns
  /// its index; the row's level block is levels[i * levels_per_row, ...).
  size_t Add(RowId row_id, size_t items, size_t levels_per_row) {
    const size_t i = size++;
    if (i == values.size()) {
      row_ids.emplace_back();
      values.emplace_back();
    }
    row_ids[i] = row_id;
    values[i].resize(items);
    levels.resize(size * levels_per_row);
    return i;
  }
  void Swap(ProjectedRows* other) {
    row_ids.swap(other->row_ids);
    values.swap(other->values);
    levels.swap(other->levels);
    std::swap(size, other->size);
  }
};

/// What kind of statement produced a QueryResult (drives ToString: tabular
/// rendering for SELECT, a summary line for DML and commands).
enum class StatementKind : uint8_t { kSelect, kInsert, kDelete, kCommand };

/// Tabular result of one SQL statement: typed values, rendered as text
/// only on demand.
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<std::vector<Value>> rows;
  /// How `rows` render, and every row's level block (format.levels_per_row()
  /// levels per row, row-major). A result built without a format renders
  /// every value plainly.
  ResultFormat format;
  std::vector<int> levels;
  /// SELECT: number of result rows. INSERT/DELETE: rows written/removed.
  uint64_t affected_rows = 0;
  /// Row id assigned by the most recent INSERT (kInvalidRowId otherwise).
  RowId last_insert_id = kInvalidRowId;
  StatementKind statement = StatementKind::kSelect;

  /// Display strings of row `row` ("NULL", "Paris", bucket values as
  /// "[lo..hi]"), rendered on each call.
  std::vector<std::string> display(size_t row) const;

  /// ASCII table rendering for SELECT results; a one-line summary
  /// ("2 row(s) affected, last insert id 7") for DML and commands.
  std::string ToString() const;
};

}  // namespace instantdb

#endif  // INSTANTDB_QUERY_RESULT_H_
