#include "exec/expr_eval.h"

#include <cctype>
#include <cmath>
#include <cstdint>

#include "common/string_util.h"
#include "exec/expression.h"

namespace swift {
namespace expr_eval {

Result<Value> Arith(BinaryOp op, const Value& l, const Value& r) {
  if (!l.is_numeric() || !r.is_numeric()) {
    return Status::Application(StrFormat(
        "arithmetic '%s' on non-numeric operands (%s, %s)",
        std::string(BinaryOpToString(op)).c_str(), l.ToString().c_str(),
        r.ToString().c_str()));
  }
  if (l.is_int64() && r.is_int64() && op != BinaryOp::kDiv) {
    const int64_t a = l.int64();
    const int64_t b = r.int64();
    switch (op) {
      case BinaryOp::kAdd:
        return Value(a + b);
      case BinaryOp::kSub:
        return Value(a - b);
      case BinaryOp::kMul:
        return Value(a * b);
      default:
        break;
    }
  }
  const double a = l.AsDouble();
  const double b = r.AsDouble();
  switch (op) {
    case BinaryOp::kAdd:
      return Value(a + b);
    case BinaryOp::kSub:
      return Value(a - b);
    case BinaryOp::kMul:
      return Value(a * b);
    case BinaryOp::kDiv:
      if (b == 0.0) {
        return Status::Application("division by zero");
      }
      return Value(a / b);
    default:
      return Status::Internal("non-arithmetic op in Arith");
  }
}

Result<Value> Compare(BinaryOp op, const Value& l, const Value& r) {
  if ((l.is_numeric() && r.is_string()) || (l.is_string() && r.is_numeric())) {
    return Status::Application(StrFormat(
        "cannot compare %s with %s",
        std::string(DataTypeToString(l.type())).c_str(),
        std::string(DataTypeToString(r.type())).c_str()));
  }
  const int c = l.Compare(r);
  bool out = false;
  switch (op) {
    case BinaryOp::kEq:
      out = c == 0;
      break;
    case BinaryOp::kNe:
      out = c != 0;
      break;
    case BinaryOp::kLt:
      out = c < 0;
      break;
    case BinaryOp::kLe:
      out = c <= 0;
      break;
    case BinaryOp::kGt:
      out = c > 0;
      break;
    case BinaryOp::kGe:
      out = c >= 0;
      break;
    default:
      return Status::Internal("non-comparison op in Compare");
  }
  return Value(static_cast<int64_t>(out ? 1 : 0));
}

int Truth(const Value& v) {
  if (v.is_null()) return -1;
  if (v.is_int64()) return v.int64() != 0 ? 1 : 0;
  if (v.is_float64()) return v.float64() != 0.0 ? 1 : 0;
  return v.str().empty() ? 0 : 1;
}

Value FromTruth(int t) {
  if (t < 0) return Value::Null();
  return Value(static_cast<int64_t>(t));
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

int64_t NegateWrapping(int64_t v) {
  return static_cast<int64_t>(0 - static_cast<uint64_t>(v));
}

int64_t TruncToInt64(double d) {
  if (!(d == d)) return 0;
  if (d >= 9223372036854775807.0) return INT64_MAX;
  if (d <= -9223372036854775808.0) return INT64_MIN;
  return static_cast<int64_t>(d);
}

Result<Value> ApplyFunction(FuncId id, const std::string& name,
                            const std::vector<Value>& vals) {
  // NULL-aware functions evaluate before NULL propagation.
  if (id == FuncId::kIsNull) {
    if (vals.size() != 1) {
      return Status::Application("is_null(x) expected");
    }
    return Value(static_cast<int64_t>(vals[0].is_null() ? 1 : 0));
  }
  if (id == FuncId::kCoalesce) {
    for (const Value& v : vals) {
      if (!v.is_null()) return v;
    }
    return Value::Null();
  }
  for (const Value& v : vals) {
    if (v.is_null()) return Value::Null();
  }
  switch (id) {
    case FuncId::kSubstr: {
      if (vals.size() != 3 || !vals[0].is_string() || !vals[1].is_numeric() ||
          !vals[2].is_numeric()) {
        return Status::Application("substr(str, start, len) expected");
      }
      const std::string& s = vals[0].str();
      int64_t start = TruncToInt64(vals[1].AsDouble());
      int64_t len = TruncToInt64(vals[2].AsDouble());
      if (start < 1) start = 1;
      if (len < 0) len = 0;
      if (static_cast<std::size_t>(start - 1) >= s.size()) {
        return Value(std::string());
      }
      return Value(s.substr(static_cast<std::size_t>(start - 1),
                            static_cast<std::size_t>(len)));
    }
    case FuncId::kLower:
    case FuncId::kUpper: {
      if (vals.size() != 1 || !vals[0].is_string()) {
        return Status::Application(name + "(str) expected");
      }
      std::string s = vals[0].str();
      for (char& c : s) {
        c = id == FuncId::kLower
                ? static_cast<char>(std::tolower(static_cast<unsigned char>(c)))
                : static_cast<char>(
                      std::toupper(static_cast<unsigned char>(c)));
      }
      return Value(std::move(s));
    }
    case FuncId::kAbs: {
      if (vals.size() != 1 || !vals[0].is_numeric()) {
        return Status::Application("abs(x) expected");
      }
      if (vals[0].is_int64()) {
        const int64_t v = vals[0].int64();
        return Value(v < 0 ? NegateWrapping(v) : v);
      }
      return Value(std::fabs(vals[0].float64()));
    }
    default:
      return Status::Application(
          StrFormat("unknown function '%s'", name.c_str()));
  }
}

}  // namespace expr_eval
}  // namespace swift
