#ifndef INSTANTDB_CATALOG_SCHEMA_H_
#define INSTANTDB_CATALOG_SCHEMA_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/generalization.h"
#include "catalog/lcp.h"
#include "catalog/value.h"
#include "common/result.h"

namespace instantdb {

/// Stable attributes never degrade; degradable attributes traverse their
/// LCP (paper §II: "A tuple is a composition of stable attributes … and
/// degradable attributes").
enum class ColumnKind : uint8_t { kStable = 0, kDegradable = 1 };

/// One column definition. Degradable columns carry the domain hierarchy and
/// the LCP; stable columns carry neither.
struct ColumnDef {
  std::string name;
  ValueType type = ValueType::kNull;
  ColumnKind kind = ColumnKind::kStable;
  std::shared_ptr<const DomainHierarchy> hierarchy;  // degradable only
  AttributeLcp lcp;                                  // degradable only

  static ColumnDef Stable(std::string name, ValueType type) {
    ColumnDef def;
    def.name = std::move(name);
    def.type = type;
    return def;
  }
  static ColumnDef Degradable(std::string name,
                              std::shared_ptr<const DomainHierarchy> hierarchy,
                              AttributeLcp lcp) {
    ColumnDef def;
    def.name = std::move(name);
    def.kind = ColumnKind::kDegradable;
    def.type = hierarchy->value_type();
    def.hierarchy = std::move(hierarchy);
    def.lcp = std::move(lcp);
    return def;
  }
};

/// \brief Validated table schema: column definitions, the derived tuple LCP,
/// and name lookup. Rows are addressed by an engine-assigned 64-bit row id
/// (the donor identity the paper keeps intact lives in stable columns).
class Schema {
 public:
  Schema() = default;

  static Result<Schema> Make(std::vector<ColumnDef> columns);

  int num_columns() const { return static_cast<int>(columns_.size()); }
  const ColumnDef& column(int i) const { return columns_[i]; }
  const std::vector<ColumnDef>& columns() const { return columns_; }

  /// Index of `name`, or -1.
  int FindColumn(const std::string& name) const;

  /// Indices of degradable / stable columns, in schema order.
  const std::vector<int>& degradable_columns() const { return degradable_; }
  const std::vector<int>& stable_columns() const { return stable_; }

  /// Position of column `col_idx` within degradable_columns(), or -1.
  int DegradableOrdinal(int col_idx) const;

  /// The product automaton over all degradable columns (Fig. 3).
  const TupleLcp& tuple_lcp() const { return tuple_lcp_; }

  /// Type- and domain-checks a full row at insertion accuracy (level 0).
  /// Inserts are granted only in the most accurate state (paper §II). When
  /// `leaf_ordinals` is set, it receives the leaf ordinal of each degradable
  /// value, in degradable_columns() order, from the same label lookup.
  Status ValidateInsertRow(const std::vector<Value>& row,
                           std::vector<int64_t>* leaf_ordinals = nullptr) const;

  void EncodeTo(std::string* dst) const;
  static Result<Schema> DecodeFrom(Slice* input);

 private:
  std::vector<ColumnDef> columns_;
  std::map<std::string, int> by_name_;
  std::vector<int> degradable_;
  std::vector<int> stable_;
  TupleLcp tuple_lcp_;
};

}  // namespace instantdb

#endif  // INSTANTDB_CATALOG_SCHEMA_H_
