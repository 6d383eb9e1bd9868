#ifndef INSTANTDB_CATALOG_VALUE_H_
#define INSTANTDB_CATALOG_VALUE_H_

#include <cassert>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <variant>

#include "common/clock.h"
#include "util/coding.h"

namespace instantdb {

/// Column/value type tags. Timestamps are microseconds (`Micros`) with a
/// distinct tag so schemas can document intent.
enum class ValueType : uint8_t {
  kNull = 0,
  kInt64 = 1,
  kDouble = 2,
  kString = 3,
  kBool = 4,
  kTimestamp = 5,
};

const char* ValueTypeName(ValueType t);

/// INT64 and TIMESTAMP: the two types that compare with each other by value.
inline bool IsIntegerType(ValueType t) {
  return t == ValueType::kInt64 || t == ValueType::kTimestamp;
}

/// \brief Runtime value: the unit the degradation functions f_k operate on.
///
/// Values are immutable once constructed. Degradable attributes keep the
/// same ValueType across all accuracy levels (tree domains are strings at
/// every level; interval domains are int64 bucket lower bounds), so a
/// column's type never changes as it degrades.
class Value {
 public:
  /// NULL value (used for removed/unknown degradable attributes).
  Value() = default;

  static Value Null() { return Value(); }
  static Value Int64(int64_t v) { return Value(ValueType::kInt64, v); }
  static Value Double(double v) { return Value(v); }
  static Value String(std::string v) { return Value(std::move(v)); }
  static Value Bool(bool v) { return Value(v); }
  static Value Timestamp(Micros v) { return Value(ValueType::kTimestamp, v); }

  ValueType type() const { return type_; }
  bool is_null() const { return type_ == ValueType::kNull; }

  int64_t int64() const {
    assert(type_ == ValueType::kInt64 || type_ == ValueType::kTimestamp);
    return std::get<int64_t>(data_);
  }
  double dbl() const {
    assert(type_ == ValueType::kDouble);
    return std::get<double>(data_);
  }
  const std::string& str() const {
    assert(type_ == ValueType::kString);
    return std::get<std::string>(data_);
  }
  bool boolean() const {
    assert(type_ == ValueType::kBool);
    return std::get<bool>(data_);
  }
  Micros timestamp() const {
    assert(type_ == ValueType::kTimestamp);
    return std::get<int64_t>(data_);
  }

  /// Three-way comparison. NULL sorts before everything; comparing values
  /// of different non-null types is a programming error (asserts).
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Display rendering ("NULL", "42", "Paris", "true", ...).
  std::string ToString() const;

  /// Type-tagged record encoding (storage, WAL).
  void EncodeTo(std::string* dst) const;
  /// With `out == nullptr` the value is only skipped: `input` advances and
  /// the framing is checked, but no Value is built. Parses with
  /// FieldView::Parse, so every reader checks the same framing.
  static bool DecodeFrom(Slice* input, Value* out);

 private:
  Value(ValueType t, int64_t v) : type_(t), data_(v) {}
  explicit Value(double v) : type_(ValueType::kDouble), data_(v) {}
  explicit Value(std::string v) : type_(ValueType::kString), data_(std::move(v)) {}
  explicit Value(bool v) : type_(ValueType::kBool), data_(v) {}

  ValueType type_ = ValueType::kNull;
  std::variant<std::monostate, int64_t, double, std::string, bool> data_;
};

/// \brief Borrowed, typed view of one encoded value: what σ reads off a
/// heap record without building a Value. A string view points into the
/// bytes it was parsed from (or into the Value it was made from) and is
/// valid only as long as they are.
struct FieldView {
  ValueType type = ValueType::kNull;
  int64_t i = 0;        ///< kInt64 and kTimestamp; kBool as 0 or 1
  double d = 0;         ///< kDouble
  std::string_view s;   ///< kString

  bool is_null() const { return type == ValueType::kNull; }

  /// The view of a built Value (index probes, the test oracle): the same
  /// σ then runs on both.
  static FieldView Of(const Value& v) {
    FieldView f;
    f.type = v.type();
    switch (f.type) {
      case ValueType::kInt64:
      case ValueType::kTimestamp:
        f.i = v.int64();
        break;
      case ValueType::kDouble:
        f.d = v.dbl();
        break;
      case ValueType::kString:
        f.s = v.str();
        break;
      case ValueType::kBool:
        f.i = v.boolean() ? 1 : 0;
        break;
      case ValueType::kNull:
        break;
    }
    return f;
  }

  /// Builds the Value this view shows (a string is copied).
  Value ToValue() const {
    switch (type) {
      case ValueType::kInt64:
        return Value::Int64(i);
      case ValueType::kTimestamp:
        return Value::Timestamp(i);
      case ValueType::kDouble:
        return Value::Double(d);
      case ValueType::kString:
        return Value::String(std::string(s));
      case ValueType::kBool:
        return Value::Bool(i != 0);
      case ValueType::kNull:
        break;
    }
    return Value::Null();
  }

  /// Parses the type-tagged value Value::EncodeTo wrote at `p` (bytes
  /// before `limit`) into `*out`, borrowing string bytes, and returns the
  /// byte after it — or nullptr when the input is truncated or the tag is
  /// unknown. Inline and allocation-free: heap scans call it once per
  /// field of every record they examine.
  static const char* Parse(const char* p, const char* limit, FieldView* out) {
    if (p >= limit) return nullptr;
    out->type = static_cast<ValueType>(*p++);
    switch (out->type) {
      case ValueType::kNull:
        return p;
      case ValueType::kInt64:
      case ValueType::kTimestamp: {
        uint64_t raw = 0;
        p = GetVarint64Ptr(p, limit, &raw);
        out->i = static_cast<int64_t>(raw);
        return p;
      }
      case ValueType::kDouble: {
        if (limit - p < 8) return nullptr;
        const uint64_t bits = DecodeFixed64(p);
        static_assert(sizeof(double) == 8);
        std::memcpy(&out->d, &bits, 8);
        return p + 8;
      }
      case ValueType::kString: {
        uint32_t len = 0;
        p = GetVarint32Ptr(p, limit, &len);
        if (p == nullptr || static_cast<size_t>(limit - p) < len) {
          return nullptr;
        }
        out->s = std::string_view(p, len);
        return p + len;
      }
      case ValueType::kBool:
        if (p >= limit) return nullptr;
        out->i = *p != 0 ? 1 : 0;
        return p + 1;
    }
    return nullptr;
  }
};

}  // namespace instantdb

#endif  // INSTANTDB_CATALOG_VALUE_H_
