#include "catalog/generalization.h"

#include <algorithm>
#include <functional>

#include "common/strings.h"

namespace instantdb {

// ---------------------------------------------------------------------------
// DomainHierarchy
// ---------------------------------------------------------------------------

std::string DomainHierarchy::DisplayValue(const Value& value,
                                          int /*level*/) const {
  return value.ToString();
}

Result<int> DomainHierarchy::LevelForSpec(const std::string& spec) const {
  for (size_t i = 0; i < level_names_.size(); ++i) {
    if (EqualsIgnoreCase(level_names_[i], spec)) return static_cast<int>(i);
  }
  // "L<k>" default names and bare decimal indexes.
  std::string digits = spec;
  if ((spec.size() >= 2) && (spec[0] == 'L' || spec[0] == 'l')) {
    digits = spec.substr(1);
  }
  if (!digits.empty() &&
      digits.find_first_not_of("0123456789") == std::string::npos) {
    const int level = std::atoi(digits.c_str());
    if (level >= 0 && level < height()) return level;
  }
  // RANGE<width> resolves against interval hierarchies.
  if (spec.size() > 5 && EqualsIgnoreCase(spec.substr(0, 5), "RANGE")) {
    const auto* interval = dynamic_cast<const IntervalHierarchy*>(this);
    if (interval != nullptr) {
      return interval->LevelForWidth(std::atoll(spec.c_str() + 5));
    }
  }
  return Status::NotFound("unknown accuracy level '" + spec + "' for domain " +
                          name());
}

void DomainHierarchy::EncodeLevelNames(std::string* dst) const {
  PutVarint32(dst, static_cast<uint32_t>(level_names_.size()));
  for (const std::string& name : level_names_) PutLengthPrefixed(dst, name);
}

bool DomainHierarchy::DecodeLevelNames(Slice* input,
                                       std::vector<std::string>* out) {
  uint32_t n;
  if (!GetVarint32(input, &n)) return false;
  out->resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    Slice name;
    if (!GetLengthPrefixed(input, &name)) return false;
    (*out)[i] = std::string(name);
  }
  return true;
}

// ---------------------------------------------------------------------------
// GeneralizationTree::Builder
// ---------------------------------------------------------------------------

GeneralizationTree::Builder& GeneralizationTree::Builder::AddRoot(
    const std::string& label) {
  if (!labels_.empty()) {
    if (deferred_error_.ok()) {
      deferred_error_ = Status::InvalidArgument("root must be added first");
    }
    return *this;
  }
  labels_.push_back(label);
  parents_.push_back(-1);
  by_label_[label] = 0;
  return *this;
}

GeneralizationTree::Builder& GeneralizationTree::Builder::AddChild(
    const std::string& parent, const std::string& label) {
  if (!deferred_error_.ok()) return *this;
  auto it = by_label_.find(parent);
  if (it == by_label_.end()) {
    deferred_error_ = Status::InvalidArgument("unknown parent: " + parent);
    return *this;
  }
  if (by_label_.count(label) != 0) {
    deferred_error_ = Status::InvalidArgument("duplicate label: " + label);
    return *this;
  }
  by_label_[label] = static_cast<int>(labels_.size());
  labels_.push_back(label);
  parents_.push_back(it->second);
  return *this;
}

GeneralizationTree::Builder& GeneralizationTree::Builder::AddPath(
    const std::string& slash_path) {
  if (!deferred_error_.ok()) return *this;
  const auto parts = Split(slash_path, '/');
  if (parts.empty()) return *this;
  if (labels_.empty()) {
    AddRoot(parts[0]);
  } else if (labels_[0] != parts[0]) {
    deferred_error_ =
        Status::InvalidArgument("path root mismatch: " + parts[0]);
    return *this;
  }
  for (size_t i = 1; i < parts.size(); ++i) {
    if (by_label_.count(parts[i]) == 0) {
      AddChild(parts[i - 1], parts[i]);
    }
  }
  return *this;
}

Result<std::shared_ptr<GeneralizationTree>>
GeneralizationTree::Builder::Build() {
  if (!deferred_error_.ok()) return deferred_error_;
  if (labels_.empty()) return Status::InvalidArgument("empty tree");

  auto tree = std::shared_ptr<GeneralizationTree>(new GeneralizationTree());
  tree->name_ = name_;
  tree->by_label_ = by_label_;
  tree->nodes_.resize(labels_.size());
  for (size_t i = 0; i < labels_.size(); ++i) {
    tree->nodes_[i].label = labels_[i];
    tree->nodes_[i].parent = parents_[i];
    if (parents_[i] >= 0) {
      tree->nodes_[parents_[i]].children.push_back(static_cast<int>(i));
      tree->nodes_[i].depth = tree->nodes_[parents_[i]].depth + 1;
    }
  }

  // All leaves must share one depth so each value has one form per level.
  int leaf_depth = -1;
  for (const auto& node : tree->nodes_) {
    if (!node.children.empty()) continue;
    if (leaf_depth < 0) leaf_depth = node.depth;
    if (node.depth != leaf_depth) {
      return Status::InvalidArgument(
          "unbalanced generalization tree: leaf '" + node.label +
          "' at depth " + std::to_string(node.depth) + ", expected " +
          std::to_string(leaf_depth));
    }
  }
  tree->height_ = leaf_depth + 1;
  for (auto& node : tree->nodes_) node.level = leaf_depth - node.depth;

  // DFS assigns leaf ordinals; every node owns the contiguous interval of
  // the leaves beneath it.
  std::function<void(int)> dfs = [&](int id) {
    Node& node = tree->nodes_[id];
    if (node.children.empty()) {
      const int64_t ordinal = static_cast<int64_t>(tree->leaves_.size());
      node.leaves = {ordinal, ordinal};
      tree->leaves_.push_back(id);
      return;
    }
    node.leaves.lo = static_cast<int64_t>(tree->leaves_.size());
    for (int child : node.children) dfs(child);
    node.leaves.hi = static_cast<int64_t>(tree->leaves_.size()) - 1;
  };
  dfs(0);
  return tree;
}

// ---------------------------------------------------------------------------
// GeneralizationTree
// ---------------------------------------------------------------------------

Result<int> GeneralizationTree::FindNode(const Value& value, int level) const {
  if (value.type() != ValueType::kString) {
    return Status::InvalidArgument("tree domain values are strings");
  }
  auto it = by_label_.find(value.str());
  if (it == by_label_.end()) {
    return Status::NotFound("unknown label '" + value.str() + "' in domain " +
                            name_);
  }
  if (nodes_[it->second].level != level) {
    return Status::InvalidArgument(StringPrintf(
        "label '%s' is a level-%d value of %s, not level %d",
        value.str().c_str(), nodes_[it->second].level, name_.c_str(), level));
  }
  return it->second;
}

Result<Value> GeneralizationTree::Generalize(const Value& value, int from,
                                             int to) const {
  if (to < from || to >= height_) {
    return Status::InvalidArgument(
        StringPrintf("bad generalization %d -> %d (height %d)", from, to,
                     height_));
  }
  IDB_ASSIGN_OR_RETURN(int id, FindNode(value, from));
  while (nodes_[id].level < to) id = nodes_[id].parent;
  return Value::String(nodes_[id].label);
}

LeafInterval GeneralizationTree::AncestorRange(int64_t ordinal, int to) const {
  return nodes_[LeafAncestor(ordinal, to)].leaves;
}

Value GeneralizationTree::AncestorValue(int64_t ordinal, int to) const {
  return Value::String(nodes_[LeafAncestor(ordinal, to)].label);
}

Result<int64_t> GeneralizationTree::LeafOrdinal(const Value& leaf) const {
  IDB_ASSIGN_OR_RETURN(int id, FindNode(leaf, 0));
  return nodes_[id].leaves.lo;
}

Result<Value> GeneralizationTree::LeafFromOrdinal(int64_t ordinal) const {
  IDB_ASSIGN_OR_RETURN(std::string label, LeafLabel(ordinal));
  return Value::String(std::move(label));
}

Result<LeafInterval> GeneralizationTree::LeafRange(const Value& value,
                                                   int level) const {
  IDB_ASSIGN_OR_RETURN(int id, FindNode(value, level));
  return nodes_[id].leaves;
}

Status GeneralizationTree::ValidateAtLevel(const Value& value,
                                           int level) const {
  return FindNode(value, level).status();
}

Result<int64_t> GeneralizationTree::CardinalityAtLevel(int level) const {
  if (level < 0 || level >= height_) {
    return Status::InvalidArgument("level out of range");
  }
  int64_t n = 0;
  for (const auto& node : nodes_) {
    if (node.level == level) ++n;
  }
  return n;
}

Result<std::string> GeneralizationTree::LeafLabel(int64_t ordinal) const {
  if (ordinal < 0 || ordinal >= leaf_count()) {
    return Status::InvalidArgument("leaf ordinal out of range");
  }
  return nodes_[leaves_[ordinal]].label;
}

std::vector<std::string> GeneralizationTree::LabelsAtLevel(int level) const {
  std::vector<std::string> out;
  for (const auto& node : nodes_) {
    if (node.level == level) out.push_back(node.label);
  }
  return out;
}

std::string GeneralizationTree::ToAsciiArt() const {
  std::string out;
  std::function<void(int, const std::string&, bool)> rec =
      [&](int id, const std::string& prefix, bool last) {
        const Node& node = nodes_[id];
        if (node.parent < 0) {
          out += node.label + "\n";
        } else {
          out += prefix + (last ? "└─ " : "├─ ") + node.label + "\n";
        }
        const std::string child_prefix =
            node.parent < 0 ? "" : prefix + (last ? "   " : "│  ");
        for (size_t i = 0; i < node.children.size(); ++i) {
          rec(node.children[i], child_prefix, i + 1 == node.children.size());
        }
      };
  rec(0, "", true);
  return out;
}

void GeneralizationTree::EncodeTo(std::string* dst) const {
  dst->push_back(0);  // kind tag: explicit tree
  PutLengthPrefixed(dst, name_);
  PutVarint32(dst, static_cast<uint32_t>(nodes_.size()));
  for (const auto& node : nodes_) {
    PutLengthPrefixed(dst, node.label);
    PutVarint32(dst, static_cast<uint32_t>(node.parent + 1));  // -1 -> 0
  }
  EncodeLevelNames(dst);
}

// ---------------------------------------------------------------------------
// IntervalHierarchy
// ---------------------------------------------------------------------------

Result<std::shared_ptr<IntervalHierarchy>> IntervalHierarchy::Make(
    std::string name, int64_t min, int64_t max, std::vector<int64_t> widths) {
  if (min > max) return Status::InvalidArgument("min > max");
  if (widths.empty()) {
    return Status::InvalidArgument("interval hierarchy needs >= 1 width");
  }
  int64_t prev = 1;
  for (int64_t w : widths) {
    if (w <= prev) {
      return Status::InvalidArgument("widths must be strictly increasing");
    }
    if (w % prev != 0) {
      return Status::InvalidArgument(
          "each width must be a multiple of the previous so buckets nest");
    }
    prev = w;
  }
  return std::shared_ptr<IntervalHierarchy>(
      new IntervalHierarchy(std::move(name), min, max, std::move(widths)));
}

int64_t IntervalHierarchy::WidthAt(int level) const {
  return level == 0 ? 1 : widths_[level - 1];
}

Result<int> IntervalHierarchy::LevelForWidth(int64_t width) const {
  if (width == 1) return 0;
  for (size_t i = 0; i < widths_.size(); ++i) {
    if (widths_[i] == width) return static_cast<int>(i) + 1;
  }
  return Status::NotFound(StringPrintf("no level with bucket width %lld in %s",
                                       static_cast<long long>(width),
                                       name_.c_str()));
}

Result<Value> IntervalHierarchy::Generalize(const Value& value, int from,
                                            int to) const {
  if (to < from || to >= height()) {
    return Status::InvalidArgument("bad generalization levels");
  }
  IDB_RETURN_IF_ERROR(ValidateAtLevel(value, from));
  const int64_t w = WidthAt(to);
  // Buckets align to the domain minimum; widths nest, so a lower-level
  // bucket's lower bound generalizes exactly like a raw value.
  const int64_t offset = value.int64() - min_;
  return Value::Int64(min_ + (offset / w) * w);
}

Result<int64_t> IntervalHierarchy::LeafOrdinal(const Value& leaf) const {
  IDB_RETURN_IF_ERROR(ValidateAtLevel(leaf, 0));
  return leaf.int64() - min_;
}

Result<Value> IntervalHierarchy::LeafFromOrdinal(int64_t ordinal) const {
  if (ordinal < 0 || ordinal > max_ - min_) {
    return Status::InvalidArgument("leaf ordinal out of range");
  }
  return Value::Int64(min_ + ordinal);
}

Result<LeafInterval> IntervalHierarchy::LeafRange(const Value& value,
                                                  int level) const {
  IDB_RETURN_IF_ERROR(ValidateAtLevel(value, level));
  const int64_t lo = value.int64() - min_;
  const int64_t w = WidthAt(level);
  const int64_t hi = std::min(lo + w - 1, max_ - min_);
  return LeafInterval{lo, hi};
}

LeafInterval IntervalHierarchy::AncestorRange(int64_t ordinal, int to) const {
  const int64_t w = WidthAt(to);
  const int64_t lo = (ordinal / w) * w;
  return LeafInterval{lo, std::min(lo + w - 1, max_ - min_)};
}

Value IntervalHierarchy::AncestorValue(int64_t ordinal, int to) const {
  const int64_t w = WidthAt(to);
  return Value::Int64(min_ + (ordinal / w) * w);
}

Status IntervalHierarchy::ValidateAtLevel(const Value& value,
                                          int level) const {
  if (level < 0 || level >= height()) {
    return Status::InvalidArgument("level out of range");
  }
  if (value.type() != ValueType::kInt64) {
    return Status::InvalidArgument("interval domain values are int64");
  }
  const int64_t v = value.int64();
  if (v < min_ || v > max_) {
    return Status::InvalidArgument(
        StringPrintf("value %lld outside domain [%lld, %lld]",
                     static_cast<long long>(v), static_cast<long long>(min_),
                     static_cast<long long>(max_)));
  }
  if ((v - min_) % WidthAt(level) != 0) {
    return Status::InvalidArgument(
        StringPrintf("value %lld is not a level-%d bucket bound",
                     static_cast<long long>(v), level));
  }
  return Status::OK();
}

Result<int64_t> IntervalHierarchy::CardinalityAtLevel(int level) const {
  if (level < 0 || level >= height()) {
    return Status::InvalidArgument("level out of range");
  }
  const int64_t w = WidthAt(level);
  return (max_ - min_) / w + 1;
}

std::string IntervalHierarchy::DisplayValue(const Value& value,
                                            int level) const {
  if (level == 0 || value.type() != ValueType::kInt64) return value.ToString();
  const int64_t lo = value.int64();
  const int64_t hi = std::min(lo + WidthAt(level) - 1, max_);
  return StringPrintf("[%lld..%lld]", static_cast<long long>(lo),
                      static_cast<long long>(hi));
}

void IntervalHierarchy::EncodeTo(std::string* dst) const {
  dst->push_back(1);  // kind tag: interval hierarchy
  PutLengthPrefixed(dst, name_);
  PutVarint64(dst, static_cast<uint64_t>(min_));
  PutVarint64(dst, static_cast<uint64_t>(max_));
  PutVarint32(dst, static_cast<uint32_t>(widths_.size()));
  for (int64_t w : widths_) PutVarint64(dst, static_cast<uint64_t>(w));
  EncodeLevelNames(dst);
}

// ---------------------------------------------------------------------------
// Deserialization
// ---------------------------------------------------------------------------

Result<std::shared_ptr<DomainHierarchy>> DomainHierarchy::DecodeFrom(
    Slice* input) {
  if (input->empty()) return Status::Corruption("empty hierarchy encoding");
  const char kind = input->front();
  input->remove_prefix(1);
  Slice name;
  if (!GetLengthPrefixed(input, &name)) {
    return Status::Corruption("bad hierarchy name");
  }
  if (kind == 0) {
    uint32_t n;
    if (!GetVarint32(input, &n)) return Status::Corruption("bad node count");
    GeneralizationTree::Builder builder{std::string(name)};
    std::vector<std::string> labels(n);
    for (uint32_t i = 0; i < n; ++i) {
      Slice label;
      uint32_t parent_plus1;
      if (!GetLengthPrefixed(input, &label) ||
          !GetVarint32(input, &parent_plus1)) {
        return Status::Corruption("bad tree node");
      }
      labels[i] = std::string(label);
      if (parent_plus1 == 0) {
        builder.AddRoot(labels[i]);
      } else {
        builder.AddChild(labels[parent_plus1 - 1], labels[i]);
      }
    }
    IDB_ASSIGN_OR_RETURN(auto tree, builder.Build());
    std::vector<std::string> names;
    if (!DecodeLevelNames(input, &names)) {
      return Status::Corruption("bad level names");
    }
    tree->SetLevelNames(std::move(names));
    return std::shared_ptr<DomainHierarchy>(std::move(tree));
  }
  if (kind == 1) {
    uint64_t umin, umax;
    uint32_t n;
    if (!GetVarint64(input, &umin) || !GetVarint64(input, &umax) ||
        !GetVarint32(input, &n)) {
      return Status::Corruption("bad interval hierarchy header");
    }
    std::vector<int64_t> widths(n);
    for (uint32_t i = 0; i < n; ++i) {
      uint64_t w;
      if (!GetVarint64(input, &w)) return Status::Corruption("bad width");
      widths[i] = static_cast<int64_t>(w);
    }
    IDB_ASSIGN_OR_RETURN(
        auto hierarchy,
        IntervalHierarchy::Make(std::string(name), static_cast<int64_t>(umin),
                                static_cast<int64_t>(umax), std::move(widths)));
    std::vector<std::string> names;
    if (!DecodeLevelNames(input, &names)) {
      return Status::Corruption("bad level names");
    }
    hierarchy->SetLevelNames(std::move(names));
    return std::shared_ptr<DomainHierarchy>(std::move(hierarchy));
  }
  return Status::Corruption("unknown hierarchy kind");
}

}  // namespace instantdb
