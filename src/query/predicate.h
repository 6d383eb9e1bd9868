#ifndef INSTANTDB_QUERY_PREDICATE_H_
#define INSTANTDB_QUERY_PREDICATE_H_

#include <string>
#include <string_view>
#include <vector>

#include "db/scan_spec.h"
#include "query/plan.h"

/// \file
/// \brief Stable-column predicate evaluation: the query layer's
/// implementation of the db layer's TupleFilter pushdown hook.
///
/// A WHERE conjunction splits into stable-column terms and degradable-column
/// terms. The stable terms run inside the heap scan, on the FieldViews of
/// the one walk over each record (db/scan_spec.h) — raw integers, doubles
/// and string views, before any Value is built, store probed or row
/// assembled. Index probes and the test oracle run the same evaluator on
/// FieldView::Of their built Values. Degradable terms run above, on the
/// survivors' stored phases and leaf ordinals (plan::QualifyDegradable).

namespace instantdb {
namespace plan {

/// Case-insensitive LIKE of `text` against the bound pattern's core and
/// `%` flags.
bool MatchLike(std::string_view text, const BoundPredicate& pred);

/// One stable term with its literals as field views: the one stable σ
/// evaluator, with Value::Compare's order and Value::operator=='s
/// equality. A NULL value never matches; int64 and timestamp compare by
/// value. A literal BindQuery refuses still evaluates without fault: a
/// NULL one sorts below every value, one of another type matches only Ne.
/// The predicate must outlive the term.
class StableTerm {
 public:
  explicit StableTerm(const BoundPredicate& pred)
      : pred_(&pred),
        lo_(FieldView::Of(pred.value)),
        hi_(FieldView::Of(pred.value2)) {}

  int ordinal() const { return pred_->ordinal; }
  bool Matches(const FieldView& field) const;

 private:
  const BoundPredicate* pred_;
  FieldView lo_;
  FieldView hi_;
};

/// The conjunction of every stable-column term of a bound WHERE clause,
/// evaluated on a record's stable fields by stable ordinal
/// (BoundPredicate::ordinal). Degradable terms are ignored here. The
/// predicates must outlive the filter (they live in the BoundQuery the scan
/// already borrows).
class StablePredicateFilter : public TupleFilter {
 public:
  StablePredicateFilter() = default;
  explicit StablePredicateFilter(const std::vector<BoundPredicate>& predicates);

  bool empty() const { return terms_.empty(); }

  bool Matches(const FieldView* fields) const override {
    for (const StableTerm& term : terms_) {
      if (!term.Matches(fields[term.ordinal()])) return false;
    }
    return true;
  }

 private:
  std::vector<StableTerm> terms_;
};

}  // namespace plan
}  // namespace instantdb

#endif  // INSTANTDB_QUERY_PREDICATE_H_
