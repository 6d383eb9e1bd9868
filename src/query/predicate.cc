#include "query/predicate.h"

#include <algorithm>
#include <cctype>

#include "common/strings.h"

namespace instantdb {
namespace plan {

namespace {

bool ContainsIgnoreCase(const std::string& haystack,
                        const std::string& needle) {
  if (needle.empty()) return true;
  auto it = std::search(haystack.begin(), haystack.end(), needle.begin(),
                        needle.end(), [](char a, char b) {
                          return std::toupper(static_cast<unsigned char>(a)) ==
                                 std::toupper(static_cast<unsigned char>(b));
                        });
  return it != haystack.end();
}

}  // namespace

bool MatchLike(const std::string& text, const BoundPredicate& pred) {
  const std::string& core = pred.like_core;
  if (pred.like_prefix_wildcard && pred.like_suffix_wildcard) {
    return ContainsIgnoreCase(text, core);
  }
  if (pred.like_prefix_wildcard) {  // %core — suffix match
    return text.size() >= core.size() &&
           EqualsIgnoreCase(text.substr(text.size() - core.size()), core);
  }
  if (pred.like_suffix_wildcard) {  // core% — prefix match
    return text.size() >= core.size() &&
           EqualsIgnoreCase(text.substr(0, core.size()), core);
  }
  return EqualsIgnoreCase(text, core);
}

bool EvalStablePredicate(const BoundPredicate& pred, const Value& value) {
  if (value.is_null()) return false;
  switch (pred.op) {
    case ComparisonOp::kEq:
      return value == pred.value;
    case ComparisonOp::kNe:
      return !(value == pred.value);
    case ComparisonOp::kLt:
      return value.Compare(pred.value) < 0;
    case ComparisonOp::kLe:
      return value.Compare(pred.value) <= 0;
    case ComparisonOp::kGt:
      return value.Compare(pred.value) > 0;
    case ComparisonOp::kGe:
      return value.Compare(pred.value) >= 0;
    case ComparisonOp::kBetween:
      return value.Compare(pred.value) >= 0 && value.Compare(pred.value2) <= 0;
    case ComparisonOp::kLike:
      return value.type() == ValueType::kString && MatchLike(value.str(), pred);
  }
  return false;
}

StablePredicateFilter::StablePredicateFilter(
    const std::vector<BoundPredicate>& predicates) {
  for (const BoundPredicate& pred : predicates) {
    if (!pred.degradable) terms_.push_back(&pred);
  }
}

}  // namespace plan
}  // namespace instantdb
