#ifndef INSTANTDB_CATALOG_VALUE_H_
#define INSTANTDB_CATALOG_VALUE_H_

#include <cassert>
#include <cstdint>
#include <string>
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
  /// the framing is checked, but no Value is built.
  static bool DecodeFrom(Slice* input, Value* out);

  /// Order-preserving index-key encoding. No type tag: all keys of one
  /// index share a type. NULL encodes as a 0x00 prefix byte sorting first;
  /// non-null values get a 0x01 prefix.
  void EncodeOrdered(std::string* dst) const;

 private:
  Value(ValueType t, int64_t v) : type_(t), data_(v) {}
  explicit Value(double v) : type_(ValueType::kDouble), data_(v) {}
  explicit Value(std::string v) : type_(ValueType::kString), data_(std::move(v)) {}
  explicit Value(bool v) : type_(ValueType::kBool), data_(v) {}

  ValueType type_ = ValueType::kNull;
  std::variant<std::monostate, int64_t, double, std::string, bool> data_;
};

}  // namespace instantdb

#endif  // INSTANTDB_CATALOG_VALUE_H_
