// Stable σ: the one typed evaluator (plan::StableTerm) that heap scans run
// on FieldViews of the encoded record, and index probes and the test
// oracle run on FieldView::Of their Values. Checked three ways: an explicit
// truth table (types × operators × NULL × the int64 extremes × prefix,
// suffix and infix LIKE); a differential against the Value-based evaluator
// it replaced (ReferenceEval below) on every type-compatible pair, through
// both FieldView::Of and the encoded bytes; and SQL over column type ×
// literal type × operator, where every statement either answers like the
// oracle or fails InvalidArgument at bind on every statement path —
// Execute, ExecuteCursor, DELETE and PreparedStatement bindings — and none
// aborts.

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/strings.h"
#include "db/database.h"
#include "db/write_batch.h"
#include "gtest/gtest.h"
#include "query/cursor.h"
#include "query/predicate.h"
#include "query/prepared_statement.h"
#include "query/session.h"
#include "scan_oracle.h"
#include "util/file.h"

namespace instantdb {
namespace {

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

plan::BoundPredicate Term(ComparisonOp op, Value lo,
                          Value hi = Value::Null()) {
  plan::BoundPredicate pred;
  pred.ordinal = 0;
  pred.op = op;
  pred.value = std::move(lo);
  pred.value2 = std::move(hi);
  return pred;
}

/// A bound LIKE, split the way the binder splits the pattern.
plan::BoundPredicate Like(std::string pattern) {
  plan::BoundPredicate pred = Term(ComparisonOp::kLike, Value::String(pattern));
  pred.like_prefix_wildcard = StartsWith(pattern, "%");
  pred.like_suffix_wildcard = EndsWith(pattern, "%") && pattern.size() > 1;
  if (pred.like_prefix_wildcard) pattern.erase(0, 1);
  if (pred.like_suffix_wildcard && !pattern.empty()) pattern.pop_back();
  pred.like_core = pattern;
  return pred;
}

/// The Value-based stable evaluator the typed one replaced, kept here as
/// the reference: Value::operator== and Value::Compare semantics. Only
/// defined on type-compatible pairs (Value::Compare asserts otherwise).
bool ReferenceEval(const plan::BoundPredicate& pred, const Value& value) {
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
      return value.type() == ValueType::kString &&
             plan::MatchLike(value.str(), pred);
  }
  return false;
}

bool IsInteger(ValueType t) {
  return t == ValueType::kInt64 || t == ValueType::kTimestamp;
}

/// Pairs Value::Compare accepts: NULL on either side, the same type, or
/// int64 and timestamp.
bool Compatible(const Value& a, const Value& b) {
  return a.is_null() || b.is_null() || a.type() == b.type() ||
         (IsInteger(a.type()) && IsInteger(b.type()));
}

/// The view a heap scan sees: `value` encoded, then parsed back.
FieldView Parsed(const Value& value, std::string* buffer) {
  buffer->clear();
  value.EncodeTo(buffer);
  FieldView field;
  const char* end =
      FieldView::Parse(buffer->data(), buffer->data() + buffer->size(), &field);
  EXPECT_EQ(end, buffer->data() + buffer->size()) << value.ToString();
  return field;
}

std::vector<Value> Universe() {
  const double inf = std::numeric_limits<double>::infinity();
  return {Value::Null(),
          Value::Int64(kMin),
          Value::Int64(-1),
          Value::Int64(0),
          Value::Int64(1),
          Value::Int64(42),
          Value::Int64(kMax),
          Value::Timestamp(kMin),
          Value::Timestamp(0),
          Value::Timestamp(42),
          Value::Timestamp(kMax),
          Value::Double(-inf),
          Value::Double(-1.5),
          Value::Double(0.0),
          Value::Double(2.5),
          Value::Double(inf),
          Value::Double(std::nan("")),
          Value::String(""),
          Value::String("a"),
          Value::String("abc"),
          Value::String("ABC"),
          Value::String("abd"),
          Value::String("xabcx"),
          Value::String(std::string("a\0b", 3)),
          Value::Bool(false),
          Value::Bool(true)};
}

const ComparisonOp kComparisons[] = {ComparisonOp::kEq, ComparisonOp::kNe,
                                     ComparisonOp::kLt, ComparisonOp::kLe,
                                     ComparisonOp::kGt, ComparisonOp::kGe};

TEST(StableTermTest, TruthTable) {
  const struct {
    Value field;
    plan::BoundPredicate pred;
    bool match;
  } kRows[] = {
      // NULL never matches, whatever the operator.
      {Value::Null(), Term(ComparisonOp::kEq, Value::Int64(1)), false},
      {Value::Null(), Term(ComparisonOp::kNe, Value::Int64(1)), false},
      {Value::Null(), Term(ComparisonOp::kLt, Value::Int64(kMax)), false},
      {Value::Null(), Like("%"), false},
      // The int64 extremes order and compare exactly.
      {Value::Int64(kMin), Term(ComparisonOp::kLt, Value::Int64(kMax)), true},
      {Value::Int64(kMin), Term(ComparisonOp::kLe, Value::Int64(kMin)), true},
      {Value::Int64(kMin), Term(ComparisonOp::kGt, Value::Int64(kMin)), false},
      {Value::Int64(kMax), Term(ComparisonOp::kGt, Value::Int64(kMin)), true},
      {Value::Int64(kMax), Term(ComparisonOp::kGe, Value::Int64(kMax)), true},
      {Value::Int64(kMax), Term(ComparisonOp::kNe, Value::Int64(kMax)), false},
      {Value::Int64(0),
       Term(ComparisonOp::kBetween, Value::Int64(kMin), Value::Int64(kMax)),
       true},
      {Value::Int64(kMin),
       Term(ComparisonOp::kBetween, Value::Int64(kMin + 1), Value::Int64(kMax)),
       false},
      // int64 and timestamp compare by value.
      {Value::Timestamp(5), Term(ComparisonOp::kEq, Value::Int64(5)), true},
      {Value::Int64(5), Term(ComparisonOp::kLe, Value::Timestamp(4)), false},
      {Value::Timestamp(kMax), Term(ComparisonOp::kGt, Value::Int64(kMin)),
       true},
      // Doubles, strings and bools by Value::Compare's order.
      {Value::Double(2.5),
       Term(ComparisonOp::kBetween, Value::Double(2.5), Value::Double(3)),
       true},
      {Value::Double(-0.5), Term(ComparisonOp::kGe, Value::Double(0)), false},
      {Value::String("abc"), Term(ComparisonOp::kLt, Value::String("abd")),
       true},
      {Value::String("ab"), Term(ComparisonOp::kLt, Value::String("abc")),
       true},
      {Value::String("ABC"), Term(ComparisonOp::kEq, Value::String("abc")),
       false},
      {Value::Bool(true), Term(ComparisonOp::kGt, Value::Bool(false)), true},
      {Value::Bool(false), Term(ComparisonOp::kEq, Value::Bool(false)), true},
      // LIKE: case-insensitive exact, prefix, suffix and infix; never on a
      // non-string value.
      {Value::String("ABC"), Like("abc"), true},
      {Value::String("abcd"), Like("abc"), false},
      {Value::String("abc"), Like("AB%"), true},
      {Value::String("xab"), Like("ab%"), false},
      {Value::String("abc"), Like("%BC"), true},
      {Value::String("bca"), Like("%bc"), false},
      {Value::String("xAbCx"), Like("%b%"), true},
      {Value::String("xyz"), Like("%b%"), false},
      {Value::String(""), Like("%"), true},
      {Value::Int64(1), Like("%1%"), false},
  };
  std::string buffer;
  for (const auto& row : kRows) {
    const std::string where = row.field.ToString() + " op " +
                              std::to_string(static_cast<int>(row.pred.op)) +
                              " " + row.pred.value.ToString();
    EXPECT_EQ(plan::StableTerm(row.pred).Matches(FieldView::Of(row.field)),
              row.match)
        << where;
    EXPECT_EQ(plan::StableTerm(row.pred).Matches(Parsed(row.field, &buffer)),
              row.match)
        << where;
    EXPECT_EQ(ReferenceEval(row.pred, row.field), row.match) << where;
  }
}

TEST(StableTermTest, AgreesWithValueSemanticsOnEveryCompatiblePair) {
  const std::vector<Value> universe = Universe();
  std::string buffer;
  size_t checked = 0;
  auto check = [&](const plan::BoundPredicate& pred, const Value& field) {
    const bool want = ReferenceEval(pred, field);
    const plan::StableTerm term(pred);
    ASSERT_EQ(term.Matches(FieldView::Of(field)), want)
        << field.ToString() << " op " << static_cast<int>(pred.op) << " "
        << pred.value.ToString() << " " << pred.value2.ToString();
    ASSERT_EQ(term.Matches(Parsed(field, &buffer)), want)
        << field.ToString() << " parsed";
    ++checked;
  };
  for (const Value& field : universe) {
    // The encoded view round-trips to the same Value.
    EXPECT_TRUE(Parsed(field, &buffer).ToValue() == field ||
                (field.type() == ValueType::kDouble && std::isnan(field.dbl())))
        << field.ToString();
    for (const Value& lo : universe) {
      if (!Compatible(field, lo)) continue;
      for (ComparisonOp op : kComparisons) check(Term(op, lo), field);
      for (const Value& hi : universe) {
        if (!Compatible(field, hi)) continue;
        check(Term(ComparisonOp::kBetween, lo, hi), field);
      }
    }
    for (const char* pattern :
         {"abc", "ABC%", "%bc", "%B%", "%", "", "a%", "%x", "%\x00%"}) {
      check(Like(pattern), field);
    }
  }
  EXPECT_GT(checked, 4000u);
}

// --- SQL: column type × literal type × operator ------------------------------

class StablePredicateSqlTest : public ::testing::Test {
 protected:
  static constexpr int kRows = 24;

  void SetUp() override {
    dir_ = ::testing::TempDir() + "/idb_stable_predicate_test";
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
    clock_ = std::make_unique<VirtualClock>(0);
    DbOptions options;
    options.path = dir_;
    options.clock = clock_.get();
    options.partitions = 2;
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    auto schema = Schema::Make({ColumnDef::Stable("i", ValueType::kInt64),
                                ColumnDef::Stable("d", ValueType::kDouble),
                                ColumnDef::Stable("s", ValueType::kString),
                                ColumnDef::Stable("b", ValueType::kBool),
                                ColumnDef::Stable("t", ValueType::kTimestamp)});
    ASSERT_TRUE(schema.ok());
    ASSERT_TRUE(db_->CreateTable("typed", *schema).ok());
    // Values around the literals below, the int64 extremes, and a row of
    // NULLs every fifth row.
    WriteBatch batch;
    for (int r = 0; r < kRows; ++r) {
      std::vector<Value> row;
      if (r % 5 == 4) {
        row.assign(5, Value::Null());
      } else {
        const int64_t v = r == 0 ? kMin : r == 1 ? kMax : r - 12;
        row = {Value::Int64(v), Value::Double(static_cast<double>(r - 12) / 2),
               Value::String((r % 3 == 0 ? "R" : "r") + std::to_string(r)),
               Value::Bool(r % 2 == 0), Value::Timestamp(v)};
      }
      rows_.push_back(row);
      batch.Insert("typed", row);
    }
    ASSERT_TRUE(db_->Write(&batch).ok());
    session_ = std::make_unique<Session>(db_.get());
  }
  void TearDown() override {
    session_.reset();
    db_.reset();
    RemoveDirRecursive(dir_).ok();
  }

  std::string dir_;
  std::unique_ptr<VirtualClock> clock_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<Session> session_;
  std::vector<std::vector<Value>> rows_;
};

/// A literal of one type: its bound value(s) and its SQL text ("" when SQL
/// has no literal of that type).
struct Literal {
  Value lo, hi;
  std::string lo_text, hi_text;
};

TEST_F(StablePredicateSqlTest, EveryTypePairAnswersOrIsRefused) {
  const char* const kColumns[] = {"i", "d", "s", "b", "t"};
  const ValueType kColumnTypes[] = {ValueType::kInt64, ValueType::kDouble,
                                    ValueType::kString, ValueType::kBool,
                                    ValueType::kTimestamp};
  const std::vector<Literal> kLiterals = {
      {Value::Int64(-3), Value::Int64(3), "-3", "3"},
      {Value::Double(-1.5), Value::Double(2.5), "-1.5", "2.5"},
      {Value::String("r1"), Value::String("r5"), "'r1'", "'r5'"},
      {Value::Bool(false), Value::Bool(true), "FALSE", "TRUE"},
      {Value::Timestamp(-3), Value::Timestamp(3), "", ""},
      {Value::Null(), Value::Null(), "NULL", "NULL"},
  };
  const struct {
    ComparisonOp op;
    const char* text;
  } kOps[] = {{ComparisonOp::kEq, "="},  {ComparisonOp::kNe, "<>"},
              {ComparisonOp::kLt, "<"},  {ComparisonOp::kLe, "<="},
              {ComparisonOp::kGt, ">"},  {ComparisonOp::kGe, ">="},
              {ComparisonOp::kBetween, "BETWEEN"},
              {ComparisonOp::kLike, "LIKE"}};
  size_t answered = 0;
  size_t refused = 0;
  for (int c = 0; c < 5; ++c) {
    const ValueType column = kColumnTypes[c];
    for (const Literal& literal : kLiterals) {
      const ValueType type = literal.lo.type();
      for (const auto& op : kOps) {
        const bool like = op.op == ComparisonOp::kLike;
        // The binder's rule: the column's own type, int64 for timestamp
        // and back, an integer promoted for a DOUBLE column; LIKE only
        // with a string pattern on a STRING column.
        const bool accepted =
            like ? column == ValueType::kString && type == ValueType::kString
                 : type == column || (IsInteger(type) && IsInteger(column)) ||
                       (column == ValueType::kDouble &&
                        type == ValueType::kInt64);
        const std::string head = std::string("SELECT i, d, s, b, t FROM typed "
                                             "WHERE ") +
                                 kColumns[c] + " " + op.text + " ";
        const std::string prepared_sql =
            head + (op.op == ComparisonOp::kBetween ? "? AND ?" : "?");
        const std::string where = prepared_sql + " with " +
                                  literal.lo.ToString() + ", " +
                                  literal.hi.ToString();

        // The answer the statement must give, from the reference
        // evaluator over the inserted rows (integer literals promoted for
        // DOUBLE, as bound).
        plan::BoundPredicate pred =
            like ? Like("%1%") : Term(op.op, literal.lo, literal.hi);
        if (!like && column == ValueType::kDouble &&
            type == ValueType::kInt64) {
          pred.value = Value::Double(static_cast<double>(pred.value.int64()));
          pred.value2 =
              Value::Double(static_cast<double>(pred.value2.int64()));
        }
        size_t expected = 0;
        if (accepted) {
          for (const auto& row : rows_) {
            expected += ReferenceEval(pred, row[c]) ? 1 : 0;
          }
        }

        // PreparedStatement: every literal type, timestamps included. A
        // string literal of LIKE is the pattern '%1%'.
        const bool pattern = like && type == ValueType::kString;
        auto prepared = session_->Prepare(prepared_sql);
        ASSERT_TRUE(prepared.ok()) << where;
        ASSERT_TRUE(
            (*prepared)
                ->Bind(0, pattern ? Value::String("%1%") : literal.lo)
                .ok());
        if (op.op == ComparisonOp::kBetween) {
          ASSERT_TRUE((*prepared)->Bind(1, literal.hi).ok());
        }
        auto bound = (*prepared)->Execute();
        if (accepted) {
          ASSERT_TRUE(bound.ok()) << where << " " << bound.status().ToString();
          EXPECT_EQ(bound->rows.size(), expected) << where;
          ++answered;
        } else {
          EXPECT_TRUE(bound.status().IsInvalidArgument())
              << where << " " << bound.status().ToString();
          ++refused;
        }

        // SQL text through Execute, ExecuteCursor, the oracle and DELETE.
        if (literal.lo_text.empty()) continue;
        const std::string sql =
            head + (pattern ? std::string("'%1%'") : literal.lo_text) +
            (op.op == ComparisonOp::kBetween ? " AND " + literal.hi_text : "");
        auto executed = session_->Execute(sql);
        auto cursor = session_->ExecuteCursor(sql);
        auto reference = oracle::Execute(session_.get(), sql);
        if (accepted) {
          ASSERT_TRUE(executed.ok()) << sql;
          ASSERT_TRUE(reference.ok()) << sql;
          EXPECT_EQ(executed->rows, reference->rows) << sql;
          EXPECT_EQ(executed->rows.size(), expected) << sql;
          ASSERT_TRUE(cursor.ok()) << sql;
          size_t streamed = 0;
          CursorRow row;
          for (;;) {
            auto more = (*cursor)->Next(&row);
            ASSERT_TRUE(more.ok()) << sql;
            if (!*more) break;
            ++streamed;
          }
          EXPECT_EQ(streamed, expected) << sql;
        } else {
          EXPECT_TRUE(executed.status().IsInvalidArgument()) << sql;
          EXPECT_TRUE(cursor.status().IsInvalidArgument()) << sql;
          EXPECT_TRUE(reference.status().IsInvalidArgument()) << sql;
          const std::string del = "DELETE FROM typed WHERE " + sql.substr(
                                      sql.find("WHERE ") + 6);
          EXPECT_TRUE(session_->Execute(del).status().IsInvalidArgument())
              << del;
        }
      }
    }
  }
  EXPECT_GT(answered, 0u);
  EXPECT_GT(refused, 0u);

  // Refused DELETEs deleted nothing; an accepted one deletes exactly what
  // the same predicate selects.
  auto all = session_->Execute("SELECT COUNT(*) FROM typed");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->rows[0][0], Value::Int64(kRows));
  auto selected = session_->Execute("SELECT i FROM typed WHERE d >= 1");
  ASSERT_TRUE(selected.ok());
  auto deleted = session_->Execute("DELETE FROM typed WHERE d >= 1");
  ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
  EXPECT_EQ(deleted->affected_rows, selected->rows.size());
  EXPECT_GT(deleted->affected_rows, 0u);
}

}  // namespace
}  // namespace instantdb
