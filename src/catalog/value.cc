#include "catalog/value.h"

#include "common/strings.h"

namespace instantdb {

const char* ValueTypeName(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt64:
      return "INT64";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kString:
      return "STRING";
    case ValueType::kBool:
      return "BOOL";
    case ValueType::kTimestamp:
      return "TIMESTAMP";
  }
  return "?";
}

int Value::Compare(const Value& other) const {
  if (is_null() || other.is_null()) {
    if (is_null() && other.is_null()) return 0;
    return is_null() ? -1 : 1;
  }
  assert(type_ == other.type_ ||
         (type_ == ValueType::kTimestamp && other.type_ == ValueType::kInt64) ||
         (type_ == ValueType::kInt64 && other.type_ == ValueType::kTimestamp));
  switch (type_) {
    case ValueType::kInt64:
    case ValueType::kTimestamp: {
      const int64_t a = std::get<int64_t>(data_);
      const int64_t b = std::get<int64_t>(other.data_);
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    case ValueType::kDouble: {
      const double a = dbl(), b = other.dbl();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    case ValueType::kString:
      return str().compare(other.str());
    case ValueType::kBool:
      return static_cast<int>(boolean()) - static_cast<int>(other.boolean());
    case ValueType::kNull:
      return 0;
  }
  return 0;
}

bool Value::operator==(const Value& other) const {
  if (type_ != other.type_) {
    // int64/timestamp compare by value.
    const bool numeric_pair =
        (type_ == ValueType::kTimestamp && other.type_ == ValueType::kInt64) ||
        (type_ == ValueType::kInt64 && other.type_ == ValueType::kTimestamp);
    if (!numeric_pair) return false;
  }
  if (is_null()) return other.is_null();
  return Compare(other) == 0;
}

std::string Value::ToString() const {
  switch (type_) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt64:
      return StringPrintf("%lld", static_cast<long long>(int64()));
    case ValueType::kDouble:
      return StringPrintf("%g", dbl());
    case ValueType::kString:
      return str();
    case ValueType::kBool:
      return boolean() ? "true" : "false";
    case ValueType::kTimestamp:
      return StringPrintf("@%lld", static_cast<long long>(timestamp()));
  }
  return "?";
}

void Value::EncodeTo(std::string* dst) const {
  dst->push_back(static_cast<char>(type_));
  switch (type_) {
    case ValueType::kNull:
      break;
    case ValueType::kInt64:
    case ValueType::kTimestamp:
      PutVarint64(dst, static_cast<uint64_t>(std::get<int64_t>(data_)));
      break;
    case ValueType::kDouble: {
      uint64_t bits;
      static_assert(sizeof(double) == 8);
      std::memcpy(&bits, &std::get<double>(data_), 8);
      PutFixed64(dst, bits);
      break;
    }
    case ValueType::kString:
      PutLengthPrefixed(dst, str());
      break;
    case ValueType::kBool:
      dst->push_back(boolean() ? 1 : 0);
      break;
  }
}

bool Value::DecodeFrom(Slice* input, Value* out) {
  FieldView field;
  const char* const end = FieldView::Parse(
      input->data(), input->data() + input->size(), &field);
  if (end == nullptr) return false;
  input->remove_prefix(static_cast<size_t>(end - input->data()));
  if (out != nullptr) *out = field.ToValue();
  return true;
}

}  // namespace instantdb
