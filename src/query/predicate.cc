#include "query/predicate.h"

#include <algorithm>
#include <cctype>

#include "common/strings.h"

namespace instantdb {
namespace plan {

namespace {

bool ContainsIgnoreCase(std::string_view haystack, std::string_view needle) {
  if (needle.empty()) return true;
  auto it = std::search(haystack.begin(), haystack.end(), needle.begin(),
                        needle.end(), [](char a, char b) {
                          return std::toupper(static_cast<unsigned char>(a)) ==
                                 std::toupper(static_cast<unsigned char>(b));
                        });
  return it != haystack.end();
}

/// Value::Compare on views: -1, 0 or 1, or 2 when the two non-null values
/// have incomparable types. A NULL literal sorts below every value.
int CompareFields(const FieldView& a, const FieldView& b) {
  if (b.is_null()) return 1;
  if (a.type != b.type && !(IsIntegerType(a.type) && IsIntegerType(b.type))) {
    return 2;
  }
  switch (a.type) {
    case ValueType::kInt64:
    case ValueType::kTimestamp:
    case ValueType::kBool:
      return a.i < b.i ? -1 : (a.i > b.i ? 1 : 0);
    case ValueType::kDouble:
      return a.d < b.d ? -1 : (a.d > b.d ? 1 : 0);
    case ValueType::kString: {
      const int c = a.s.compare(b.s);
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case ValueType::kNull:
      break;
  }
  return 0;
}

}  // namespace

bool MatchLike(std::string_view text, const BoundPredicate& pred) {
  const std::string_view core = pred.like_core;
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

bool StableTerm::Matches(const FieldView& field) const {
  if (field.is_null()) return false;
  if (pred_->op == ComparisonOp::kLike) {
    return field.type == ValueType::kString && MatchLike(field.s, *pred_);
  }
  const int c = CompareFields(field, lo_);
  switch (pred_->op) {
    case ComparisonOp::kEq:
      return c == 0;
    case ComparisonOp::kNe:
      return c != 0;
    case ComparisonOp::kLt:
      return c == -1;
    case ComparisonOp::kLe:
      return c == -1 || c == 0;
    case ComparisonOp::kGt:
      return c == 1;
    case ComparisonOp::kGe:
      return c == 1 || c == 0;
    case ComparisonOp::kBetween: {
      if (c != 1 && c != 0) return false;
      const int c2 = CompareFields(field, hi_);
      return c2 == -1 || c2 == 0;
    }
    case ComparisonOp::kLike:
      break;
  }
  return false;
}

StablePredicateFilter::StablePredicateFilter(
    const std::vector<BoundPredicate>& predicates) {
  for (const BoundPredicate& pred : predicates) {
    if (!pred.degradable) terms_.emplace_back(pred);
  }
}

}  // namespace plan
}  // namespace instantdb
