#ifndef INSTANTDB_QUERY_PREDICATE_H_
#define INSTANTDB_QUERY_PREDICATE_H_

#include <string>
#include <vector>

#include "db/scan_spec.h"
#include "query/plan.h"

/// \file
/// \brief Stable-column predicate evaluation: the query layer's
/// implementation of the db layer's TupleFilter pushdown hook.
///
/// A WHERE conjunction splits into stable-column terms and degradable-column
/// terms. The stable terms run inside the heap scan, on each tuple right
/// after its filter columns are decoded and BEFORE any state-store probe or
/// further decode. Degradable terms run above, on the survivors' stored
/// phases and leaf ordinals (plan::QualifyDegradable).

namespace instantdb {
namespace plan {

/// Scalar predicate evaluators.
bool MatchLike(const std::string& text, const BoundPredicate& pred);
bool EvalStablePredicate(const BoundPredicate& pred, const Value& value);

/// The conjunction of every stable-column term of a bound WHERE clause,
/// evaluated on a tuple's stable values by stable ordinal
/// (BoundPredicate::ordinal). Degradable terms are ignored here. The
/// predicates must outlive the filter (they live in the BoundQuery the scan
/// already borrows).
class StablePredicateFilter : public TupleFilter {
 public:
  StablePredicateFilter() = default;
  explicit StablePredicateFilter(const std::vector<BoundPredicate>& predicates);

  bool empty() const { return terms_.empty(); }

  bool Matches(const HeapTuple& tuple) const override {
    for (const BoundPredicate* term : terms_) {
      if (!EvalStablePredicate(*term, tuple.stable[term->ordinal])) {
        return false;
      }
    }
    return true;
  }

 private:
  std::vector<const BoundPredicate*> terms_;
};

}  // namespace plan
}  // namespace instantdb

#endif  // INSTANTDB_QUERY_PREDICATE_H_
