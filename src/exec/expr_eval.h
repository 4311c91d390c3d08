#ifndef SWIFT_EXEC_EXPR_EVAL_H_
#define SWIFT_EXEC_EXPR_EVAL_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "exec/value.h"

namespace swift {

enum class BinaryOp : int;

/// Scalar evaluation kernels shared by BoundExpr's generic (cell-by-cell)
/// tails and the row-at-a-time reference interpreter the tests check it
/// against (tests/reference_ops.h). Keeping both on one set of kernels
/// guarantees they cannot diverge on error text, NULL handling, or
/// numeric promotion. Their type errors (Status::Application) only the
/// interpreter meets: Bind rejects an ill-typed tree before it runs.
namespace expr_eval {

/// \brief +,-,*,/ over non-null operands. Non-numeric operands and
/// division by zero are Status::Application.
Result<Value> Arith(BinaryOp op, const Value& l, const Value& r);

/// \brief =,<>,<,<=,>,>= over non-null operands; boolean-as-int64 result.
/// Mixed number/string comparison is Status::Application.
Result<Value> Compare(BinaryOp op, const Value& l, const Value& r);

/// \brief -v in two's complement: -INT64_MIN wraps to INT64_MIN instead
/// of overflowing (negation and abs share the rule).
int64_t NegateWrapping(int64_t v);

/// \brief substr's start/length argument: `d` truncated toward zero,
/// saturating where the int64 range ends (NaN reads as 0).
int64_t TruncToInt64(double d);

/// \brief Kleene truth value: 0 false, 1 true, -1 unknown (NULL).
int Truth(const Value& v);

/// \brief Inverse of Truth: -1 -> NULL, else int64 0/1.
Value FromTruth(int t);

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

/// \brief Applies `id` to one row's fully evaluated arguments, in this
/// order: NULL-aware functions (is_null, coalesce) first, then NULL
/// propagation, then the remaining functions; kUnknown errors after NULL
/// propagation. `name` is only used for error text.
Result<Value> ApplyFunction(FuncId id, const std::string& name,
                            const std::vector<Value>& vals);

}  // namespace expr_eval
}  // namespace swift

#endif  // SWIFT_EXEC_EXPR_EVAL_H_
