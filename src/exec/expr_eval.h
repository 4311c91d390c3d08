#ifndef SWIFT_EXEC_EXPR_EVAL_H_
#define SWIFT_EXEC_EXPR_EVAL_H_

#include <bit>
#include <cstdint>
#include <string>

#include "exec/value.h"

namespace swift {

/// Scalar rules that BoundExpr's column kernels (exec/bound_expr.h)
/// apply per cell, and Bind once per tree: truthiness, the float64 order,
/// wrapping int64 arithmetic, substr's argument truncation and function
/// name resolution.
/// The row-at-a-time reference interpreter the tests check BoundExpr
/// against (tests/reference_ops.h) calls them too, so each rule has one
/// definition; its boxed arithmetic, comparison and function kernels are
/// its own.
namespace expr_eval {

/// \brief int64 arithmetic wraps modulo 2^64 (two's complement) instead
/// of overflowing: -INT64_MIN is INT64_MIN, INT64_MAX + 1 is INT64_MIN.
/// Negation and abs, `+ - *` and an int64 SUM share the rule.
inline int64_t NegateWrapping(int64_t v) {
  return static_cast<int64_t>(0 - static_cast<uint64_t>(v));
}
inline int64_t AddWrapping(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}
inline int64_t SubWrapping(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) -
                              static_cast<uint64_t>(b));
}
inline int64_t MulWrapping(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) *
                              static_cast<uint64_t>(b));
}

/// \brief The one order of float64 values (PostgreSQL's float8 rule):
/// -0.0 equals 0.0, and every NaN is one value, equal to itself and
/// greater than every other number, +inf included. Returns -1/0/1.
/// Value::Compare, the comparison kernels, the key comparators and
/// MIN/MAX order doubles through it; KeyEncoder's equal bytes and
/// SortPermutation's encoded keys reproduce it.
inline int CompareFloat64(double x, double y) {
  // (x > y) - (x < y) is 0 when either side is NaN; the NaN terms then
  // decide, and cancel when both sides are NaN.
  return (x > y) - (x < y) + (x != x) - (y != y);
}

/// \brief Bits of the quiet NaN that stands for every NaN.
inline constexpr uint64_t kCanonicalNaNBits = 0x7ff8000000000000ULL;

/// \brief The member a class of equal values under CompareFloat64
/// reports: +0.0 for either zero, the quiet NaN kCanonicalNaNBits for
/// any NaN, `x` itself otherwise. A group key and a MIN/MAX report it,
/// so which row of the class came first does not show in the answer.
inline double CanonicalFloat64(double x) {
  if (x == 0.0) return 0.0;
  if (x != x) return std::bit_cast<double>(kCanonicalNaNBits);
  return x;
}

/// \brief substr's start/length argument: `d` truncated toward zero,
/// saturating where the int64 range ends (NaN reads as 0).
int64_t TruncToInt64(double d);

/// \brief Kleene truth value: 0 false, 1 true, -1 unknown (NULL).
int Truth(const Value& v);

/// \brief Scalar functions resolvable at bind time (name -> id once,
/// instead of per-row string comparisons).
enum class FuncId : int {
  kIsNull,
  kCoalesce,
  kSubstr,
  kLower,
  kUpper,
  kAbs,
  kUnknown,
};

/// \brief Maps an already-lowercased function name to its id.
FuncId ResolveFunction(const std::string& lower_name);

}  // namespace expr_eval
}  // namespace swift

#endif  // SWIFT_EXEC_EXPR_EVAL_H_
