// Test-only domain helper. A state store keeps a value only as its leaf
// ordinal, so it refuses a value that is not a node of its domain; tests
// that store arbitrary strings ("late", "redo", secrets to grep for) add
// them to a tree as extra leaves first.

#ifndef INSTANTDB_TESTS_EXTRA_LEAVES_H_
#define INSTANTDB_TESTS_EXTRA_LEAVES_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/generalization.h"

namespace instantdb {

/// The tree `base` under a new root "All", next to one more branch whose
/// leaves are `labels` (which must not clash with base's labels). The
/// base's nodes keep their levels and leaf ordinals; each label becomes a
/// level-0 node.
inline std::shared_ptr<const DomainHierarchy> WithExtraLeaves(
    const DomainHierarchy& base, const std::vector<std::string>& labels) {
  const int height = base.height();
  GeneralizationTree::Builder builder(base.name());
  builder.AddRoot("All");
  const int64_t leaves = *base.CardinalityAtLevel(0);
  for (int64_t leaf = 0; leaf < leaves; ++leaf) {
    std::string path = "All";
    for (int level = height - 1; level >= 0; --level) {
      path += "/" + base.AncestorValue(leaf, level).str();
    }
    builder.AddPath(path);
  }
  std::string branch = "All";
  for (int level = height - 1; level >= 1; --level) {
    branch += "/extra-L" + std::to_string(level);
  }
  for (const std::string& label : labels) builder.AddPath(branch + "/" + label);
  return *builder.Build();
}

}  // namespace instantdb

#endif  // INSTANTDB_TESTS_EXTRA_LEAVES_H_
