#ifndef SWIFT_EXEC_VALUE_H_
#define SWIFT_EXEC_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/result.h"

namespace swift {

/// \brief Column data types supported by the local runtime.
enum class DataType : int { kNull = 0, kInt64 = 1, kFloat64 = 2, kString = 3 };

std::string_view DataTypeToString(DataType t);

/// \brief A dynamically-typed SQL value. NULL is std::monostate.
///
/// Comparison places NULL before every non-null value and orders mixed
/// numeric types by numeric value under the float64 order
/// (expr_eval::CompareFloat64: -0.0 equals 0.0, every NaN is one value
/// above +inf), so it is a strict weak order. Comparing a number with a
/// string is a type error Bind rejects (exec/bound_expr.h), but Compare()
/// falls back to type-tag order so sorting heterogeneous data is total.
class Value {
 public:
  Value() : v_(std::monostate{}) {}
  Value(int64_t i) : v_(i) {}              // NOLINT
  Value(double d) : v_(d) {}               // NOLINT
  Value(std::string s) : v_(std::move(s)) {}  // NOLINT
  Value(const char* s) : v_(std::string(s)) {}  // NOLINT
  static Value Null() { return Value(); }

  bool is_null() const { return std::holds_alternative<std::monostate>(v_); }
  bool is_int64() const { return std::holds_alternative<int64_t>(v_); }
  bool is_float64() const { return std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_numeric() const { return is_int64() || is_float64(); }

  DataType type() const;

  int64_t int64() const { return std::get<int64_t>(v_); }
  double float64() const { return std::get<double>(v_); }
  const std::string& str() const { return std::get<std::string>(v_); }

  /// \brief Unchecked accessors for hot loops that have already
  /// dispatched on the discriminant (serde, partitioning). Undefined
  /// behaviour if the held alternative differs — callers must test
  /// is_int64()/is_float64()/is_string() first.
  int64_t int64_unchecked() const noexcept {
    return *std::get_if<int64_t>(&v_);
  }
  double float64_unchecked() const noexcept {
    return *std::get_if<double>(&v_);
  }
  const std::string& str_unchecked() const noexcept {
    return *std::get_if<std::string>(&v_);
  }

  /// \brief Numeric view: int64 widened to double; requires is_numeric().
  double AsDouble() const;

  /// \brief Total order: NULL < numbers (by value, NaN last) < strings;
  /// falls back to type-tag order across incomparable types. Returns
  /// -1/0/1.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  std::string ToString() const;

 private:
  std::variant<std::monostate, int64_t, double, std::string> v_;
};

/// \brief One tuple.
using Row = std::vector<Value>;

}  // namespace swift

#endif  // SWIFT_EXEC_VALUE_H_
