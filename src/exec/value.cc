#include "exec/value.h"

#include "common/string_util.h"
#include "exec/expr_eval.h"

namespace swift {

std::string_view DataTypeToString(DataType t) {
  switch (t) {
    case DataType::kNull:
      return "null";
    case DataType::kInt64:
      return "int64";
    case DataType::kFloat64:
      return "float64";
    case DataType::kString:
      return "string";
  }
  return "?";
}

DataType Value::type() const {
  if (is_null()) return DataType::kNull;
  if (is_int64()) return DataType::kInt64;
  if (is_float64()) return DataType::kFloat64;
  return DataType::kString;
}

double Value::AsDouble() const {
  return is_int64() ? static_cast<double>(int64()) : float64();
}

int Value::Compare(const Value& other) const {
  const bool ln = is_null();
  const bool rn = other.is_null();
  if (ln || rn) return ln == rn ? 0 : (ln ? -1 : 1);
  if (is_numeric() && other.is_numeric()) {
    if (is_int64() && other.is_int64()) {
      const int64_t a = int64();
      const int64_t b = other.int64();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    return expr_eval::CompareFloat64(AsDouble(), other.AsDouble());
  }
  if (is_string() && other.is_string()) {
    const int c = str().compare(other.str());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  // Incomparable types: numbers sort before strings (type-tag order).
  const int a = is_string() ? 1 : 0;
  const int b = other.is_string() ? 1 : 0;
  return a < b ? -1 : 1;
}

std::string Value::ToString() const {
  if (is_null()) return "NULL";
  if (is_int64()) return std::to_string(int64());
  if (is_float64()) return StrFormat("%g", float64());
  return str();
}

}  // namespace swift
