#include "exec/expr_eval.h"

#include <cstdint>

namespace swift {
namespace expr_eval {

int Truth(const Value& v) {
  if (v.is_null()) return -1;
  if (v.is_int64()) return v.int64() != 0 ? 1 : 0;
  if (v.is_float64()) return v.float64() != 0.0 ? 1 : 0;
  return v.str().empty() ? 0 : 1;
}

FuncId ResolveFunction(const std::string& lower_name) {
  if (lower_name == "is_null") return FuncId::kIsNull;
  if (lower_name == "coalesce") return FuncId::kCoalesce;
  if (lower_name == "substr" || lower_name == "substring") {
    return FuncId::kSubstr;
  }
  if (lower_name == "lower") return FuncId::kLower;
  if (lower_name == "upper") return FuncId::kUpper;
  if (lower_name == "abs") return FuncId::kAbs;
  return FuncId::kUnknown;
}

int64_t TruncToInt64(double d) {
  if (!(d == d)) return 0;
  if (d >= 9223372036854775807.0) return INT64_MAX;
  if (d <= -9223372036854775808.0) return INT64_MIN;
  return static_cast<int64_t>(d);
}

}  // namespace expr_eval
}  // namespace swift
