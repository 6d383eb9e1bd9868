#include "catalog/schema.h"

#include "common/strings.h"

namespace instantdb {

Result<Schema> Schema::Make(std::vector<ColumnDef> columns) {
  if (columns.empty()) {
    return Status::InvalidArgument("schema needs at least one column");
  }
  Schema schema;
  schema.columns_ = std::move(columns);
  for (int i = 0; i < schema.num_columns(); ++i) {
    const ColumnDef& col = schema.columns_[i];
    if (col.name.empty()) {
      return Status::InvalidArgument("column names must be non-empty");
    }
    if (!schema.by_name_.emplace(col.name, i).second) {
      return Status::InvalidArgument("duplicate column name: " + col.name);
    }
    if (col.kind == ColumnKind::kDegradable) {
      if (col.hierarchy == nullptr) {
        return Status::InvalidArgument("degradable column '" + col.name +
                                       "' needs a domain hierarchy");
      }
      if (col.lcp.num_phases() == 0) {
        return Status::InvalidArgument("degradable column '" + col.name +
                                       "' needs an LCP");
      }
      if (col.type != col.hierarchy->value_type()) {
        return Status::InvalidArgument("column '" + col.name +
                                       "' type mismatches its hierarchy");
      }
      for (const LcpPhase& phase : col.lcp.phases()) {
        if (phase.level >= col.hierarchy->height()) {
          return Status::InvalidArgument(StringPrintf(
              "column '%s': LCP level %d exceeds hierarchy height %d",
              col.name.c_str(), phase.level, col.hierarchy->height()));
        }
      }
      schema.degradable_.push_back(i);
    } else {
      if (col.type == ValueType::kNull) {
        return Status::InvalidArgument("column '" + col.name +
                                       "' needs a concrete type");
      }
      schema.stable_.push_back(i);
    }
  }
  std::vector<const AttributeLcp*> lcps;
  for (int idx : schema.degradable_) {
    lcps.push_back(&schema.columns_[idx].lcp);
  }
  schema.tuple_lcp_ = TupleLcp::Make(lcps);
  return schema;
}

int Schema::FindColumn(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? -1 : it->second;
}

int Schema::DegradableOrdinal(int col_idx) const {
  for (size_t i = 0; i < degradable_.size(); ++i) {
    if (degradable_[i] == col_idx) return static_cast<int>(i);
  }
  return -1;
}

Status Schema::ValidateInsertRow(const std::vector<Value>& row,
                                 std::vector<int64_t>* leaf_ordinals) const {
  if (leaf_ordinals != nullptr) leaf_ordinals->clear();
  if (static_cast<int>(row.size()) != num_columns()) {
    return Status::InvalidArgument(
        StringPrintf("row has %zu values, schema has %d columns", row.size(),
                     num_columns()));
  }
  for (int i = 0; i < num_columns(); ++i) {
    const ColumnDef& col = columns_[i];
    const Value& v = row[i];
    if (v.is_null()) {
      if (col.kind == ColumnKind::kDegradable) {
        return Status::InvalidArgument(
            "degradable column '" + col.name +
            "' must be inserted at full accuracy, not NULL");
      }
      continue;
    }
    const bool numeric_ok =
        (col.type == ValueType::kTimestamp && v.type() == ValueType::kInt64) ||
        (col.type == ValueType::kInt64 && v.type() == ValueType::kTimestamp);
    if (v.type() != col.type && !numeric_ok) {
      return Status::InvalidArgument(StringPrintf(
          "column '%s' expects %s, got %s", col.name.c_str(),
          ValueTypeName(col.type), ValueTypeName(v.type())));
    }
    if (col.kind == ColumnKind::kDegradable) {
      // Paper §II: insertions of new elements are granted only in the most
      // accurate state, i.e. values must be valid GT leaves.
      IDB_ASSIGN_OR_RETURN(const LeafInterval leaf,
                           col.hierarchy->LeafRange(v, 0));
      if (leaf_ordinals != nullptr) leaf_ordinals->push_back(leaf.lo);
    }
  }
  return Status::OK();
}

void Schema::EncodeTo(std::string* dst) const {
  PutVarint32(dst, static_cast<uint32_t>(columns_.size()));
  for (const ColumnDef& col : columns_) {
    PutLengthPrefixed(dst, col.name);
    dst->push_back(static_cast<char>(col.type));
    dst->push_back(static_cast<char>(col.kind));
    if (col.kind == ColumnKind::kDegradable) {
      col.hierarchy->EncodeTo(dst);
      col.lcp.EncodeTo(dst);
    }
  }
}

Result<Schema> Schema::DecodeFrom(Slice* input) {
  uint32_t n;
  if (!GetVarint32(input, &n)) return Status::Corruption("bad column count");
  std::vector<ColumnDef> columns;
  columns.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Slice name;
    if (!GetLengthPrefixed(input, &name) || input->size() < 2) {
      return Status::Corruption("bad column header");
    }
    const auto type = static_cast<ValueType>((*input)[0]);
    const auto kind = static_cast<ColumnKind>((*input)[1]);
    input->remove_prefix(2);
    if (kind == ColumnKind::kDegradable) {
      IDB_ASSIGN_OR_RETURN(auto hierarchy, DomainHierarchy::DecodeFrom(input));
      IDB_ASSIGN_OR_RETURN(auto lcp, AttributeLcp::DecodeFrom(input));
      columns.push_back(ColumnDef::Degradable(
          std::string(name), std::move(hierarchy), std::move(lcp)));
    } else {
      columns.push_back(ColumnDef::Stable(std::string(name), type));
    }
  }
  return Make(std::move(columns));
}

}  // namespace instantdb
