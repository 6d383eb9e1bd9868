#ifndef INSTANTDB_CATALOG_GENERALIZATION_H_
#define INSTANTDB_CATALOG_GENERALIZATION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "catalog/value.h"
#include "common/result.h"
#include "common/status.h"

namespace instantdb {

/// Contiguous range of leaf ordinals [lo, hi] covered by a generalized
/// value. GT nodes are DFS-numbered so every node owns such a range; this is
/// what turns coarse-level predicates into index range scans (README "What a
/// multi-resolution index keeps in memory").
struct LeafInterval {
  int64_t lo = 0;
  int64_t hi = -1;  // empty by default

  bool Contains(int64_t ordinal) const { return ordinal >= lo && ordinal <= hi; }
  bool Contains(const LeafInterval& other) const {
    return lo <= other.lo && other.hi <= hi;
  }
  bool operator==(const LeafInterval& other) const {
    return lo == other.lo && hi == other.hi;
  }
};

/// \brief Domain generalization hierarchy (paper §II, Fig. 1).
///
/// Gives, at accuracy levels 0 (leaf, most accurate) through `height()-1`
/// (root, coarsest), the values an attribute can take during its lifetime.
/// The paper assumes exactly one hierarchy per domain; a hierarchy is shared
/// by every column over that domain.
class DomainHierarchy {
 public:
  virtual ~DomainHierarchy() = default;

  virtual const std::string& name() const = 0;
  /// Number of accuracy levels (leaf level 0 .. root level height-1).
  virtual int height() const = 0;
  /// ValueType of values at every level of this domain.
  virtual ValueType value_type() const = 0;

  /// The degradation function f_k restricted to one value: maps a value at
  /// level `from` to its unique ancestor at level `to` (`to >= from`).
  virtual Result<Value> Generalize(const Value& value, int from,
                                   int to) const = 0;

  /// Ordinal of a leaf (level-0) value in DFS order.
  virtual Result<int64_t> LeafOrdinal(const Value& leaf) const = 0;

  /// Inverse of LeafOrdinal: the leaf value with the given DFS ordinal.
  virtual Result<Value> LeafFromOrdinal(int64_t ordinal) const = 0;

  /// Leaf interval covered by `value` at `level`.
  virtual Result<LeafInterval> LeafRange(const Value& value,
                                         int level) const = 0;

  /// Integer-only ancestor queries: the leaf interval and the value of the
  /// level-`to` ancestor of the leaf with ordinal `ordinal`. They let σ and
  /// f_k run on a stored value's leaf ordinal (`LeafRange(value, level).lo`,
  /// resolved once when the value enters a state store) instead of on the
  /// Value: a tree answers with a parent walk from `leaves_[ordinal]`, an
  /// interval hierarchy with arithmetic. No lookup, no failure — the caller
  /// guarantees `0 <= ordinal < leaf count` and `0 <= to < height()`.
  /// `AncestorValue(LeafRange(v, l).lo, t) == Generalize(v, l, t)` for
  /// every level-l value v and t >= l.
  virtual LeafInterval AncestorRange(int64_t ordinal, int to) const = 0;
  virtual Value AncestorValue(int64_t ordinal, int to) const = 0;

  /// Validates that `value` is a well-formed level-`level` value.
  virtual Status ValidateAtLevel(const Value& value, int level) const = 0;

  /// Number of distinct values at `level`.
  virtual Result<int64_t> CardinalityAtLevel(int level) const = 0;

  /// Human-readable rendering of a level-`level` value (interval domains
  /// render buckets as "[lo..hi]").
  virtual std::string DisplayValue(const Value& value, int level) const;

  /// Optional human-readable level names ("ADDRESS", "CITY", …) used by the
  /// SQL `SET ACCURACY LEVEL <name>` syntax. Defaults to "L0", "L1", ….
  void SetLevelNames(std::vector<std::string> names) {
    level_names_ = std::move(names);
  }
  const std::vector<std::string>& level_names() const { return level_names_; }

  /// Resolves an accuracy-level spec: a level name (case-insensitive), a
  /// decimal level index, or `RANGE<width>` for interval hierarchies.
  Result<int> LevelForSpec(const std::string& spec) const;

  /// Serialization for catalog persistence.
  virtual void EncodeTo(std::string* dst) const = 0;
  static Result<std::shared_ptr<DomainHierarchy>> DecodeFrom(Slice* input);

 protected:
  void EncodeLevelNames(std::string* dst) const;
  static bool DecodeLevelNames(Slice* input, std::vector<std::string>* out);

  std::vector<std::string> level_names_;
};

/// \brief Explicit generalization tree for categorical domains — the
/// location tree of the paper's Fig. 1 is the canonical instance.
///
/// Node labels must be globally unique within the tree. All leaves must sit
/// at the same depth so each value has exactly one form per level.
class GeneralizationTree final : public DomainHierarchy {
 public:
  /// Incremental builder: add the root first, then children breadth-first or
  /// depth-first (parents before children), then Build().
  class Builder {
   public:
    explicit Builder(std::string name) : name_(std::move(name)) {}

    Builder& AddRoot(const std::string& label);
    Builder& AddChild(const std::string& parent, const std::string& label);
    /// Convenience: a full root-to-leaf path "a/b/c" adds missing nodes.
    Builder& AddPath(const std::string& slash_path);

    Result<std::shared_ptr<GeneralizationTree>> Build();

   private:
    std::string name_;
    std::vector<std::string> labels_;
    std::vector<int> parents_;  // -1 for root
    std::unordered_map<std::string, int> by_label_;
    Status deferred_error_;
  };

  const std::string& name() const override { return name_; }
  int height() const override { return height_; }
  ValueType value_type() const override { return ValueType::kString; }

  Result<Value> Generalize(const Value& value, int from, int to) const override;
  Result<int64_t> LeafOrdinal(const Value& leaf) const override;
  Result<Value> LeafFromOrdinal(int64_t ordinal) const override;
  Result<LeafInterval> LeafRange(const Value& value, int level) const override;
  LeafInterval AncestorRange(int64_t ordinal, int to) const override;
  Value AncestorValue(int64_t ordinal, int to) const override;
  Status ValidateAtLevel(const Value& value, int level) const override;
  Result<int64_t> CardinalityAtLevel(int level) const override;
  void EncodeTo(std::string* dst) const override;

  /// Number of leaves in the tree.
  int64_t leaf_count() const { return static_cast<int64_t>(leaves_.size()); }
  /// Label of the leaf with DFS ordinal `ordinal`.
  Result<std::string> LeafLabel(int64_t ordinal) const;
  /// All labels at a given level (testing, workload generation, examples).
  std::vector<std::string> LabelsAtLevel(int level) const;

  /// Multi-line ASCII rendering (the location_privacy example prints the
  /// paper's Fig. 1 with it).
  std::string ToAsciiArt() const;

 private:
  friend class Builder;

  struct Node {
    std::string label;
    int parent = -1;
    int depth = 0;           // root = 0
    int level = 0;           // leaf = 0 .. root = height-1
    LeafInterval leaves;     // DFS leaf interval
    std::vector<int> children;
  };

  GeneralizationTree() = default;

  Result<int> FindNode(const Value& value, int level) const;
  /// Node id of the level-`to` ancestor of leaf `ordinal` (unchecked).
  int LeafAncestor(int64_t ordinal, int to) const {
    int id = leaves_[ordinal];
    while (nodes_[id].level < to) id = nodes_[id].parent;
    return id;
  }

  std::string name_;
  int height_ = 0;
  std::vector<Node> nodes_;          // nodes_[0] is the root
  std::unordered_map<std::string, int> by_label_;
  std::vector<int> leaves_;          // node ids in DFS (ordinal) order
};

/// \brief Implicit hierarchy for numeric domains: level 0 is the exact
/// value; level k >= 1 groups values into buckets of `widths[k-1]`, aligned
/// to the domain minimum. Widths must be strictly increasing and each must
/// divide the next so buckets nest (a value's forms along the levels are a
/// root-to-leaf path, exactly as in an explicit tree).
///
/// The paper's salary example (`SET ACCURACY LEVEL RANGE1000 FOR P.SALARY`,
/// predicate `SALARY = '2000-3000'`) is an IntervalHierarchy with a
/// 1000-wide level. Generalized values are represented as the bucket's
/// lower bound (Value::Int64).
class IntervalHierarchy final : public DomainHierarchy {
 public:
  static Result<std::shared_ptr<IntervalHierarchy>> Make(
      std::string name, int64_t min, int64_t max, std::vector<int64_t> widths);

  const std::string& name() const override { return name_; }
  int height() const override { return static_cast<int>(widths_.size()) + 1; }
  ValueType value_type() const override { return ValueType::kInt64; }

  Result<Value> Generalize(const Value& value, int from, int to) const override;
  Result<int64_t> LeafOrdinal(const Value& leaf) const override;
  Result<Value> LeafFromOrdinal(int64_t ordinal) const override;
  Result<LeafInterval> LeafRange(const Value& value, int level) const override;
  LeafInterval AncestorRange(int64_t ordinal, int to) const override;
  Value AncestorValue(int64_t ordinal, int to) const override;
  Status ValidateAtLevel(const Value& value, int level) const override;
  Result<int64_t> CardinalityAtLevel(int level) const override;
  std::string DisplayValue(const Value& value, int level) const override;
  void EncodeTo(std::string* dst) const override;

  int64_t min() const { return min_; }
  int64_t max() const { return max_; }
  /// Bucket width at `level` (1 for level 0).
  int64_t WidthAt(int level) const;
  /// The level whose bucket width is `width`, or error — resolves the
  /// paper's `RANGE1000` accuracy-level syntax.
  Result<int> LevelForWidth(int64_t width) const;

 private:
  IntervalHierarchy(std::string name, int64_t min, int64_t max,
                    std::vector<int64_t> widths)
      : name_(std::move(name)), min_(min), max_(max), widths_(std::move(widths)) {}

  std::string name_;
  int64_t min_;
  int64_t max_;
  std::vector<int64_t> widths_;  // widths_[k-1] = bucket width at level k
};

}  // namespace instantdb

#endif  // INSTANTDB_CATALOG_GENERALIZATION_H_
