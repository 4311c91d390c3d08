#ifndef SWIFT_EXEC_BOUND_EXPR_H_
#define SWIFT_EXEC_BOUND_EXPR_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "exec/expression.h"
#include "exec/schema.h"
#include "exec/value.h"

namespace swift {

class ColumnVector;
struct ColumnBatch;

/// \brief A compiled (bound) expression: the compile-once-execute-many
/// form of Expr, and the only way an expression is evaluated.
///
/// Bind() resolves each column reference to a column ordinal exactly
/// once, constant-folds literal subtrees, and specializes typed kernels
/// for int64/float64 arithmetic and comparisons and for string
/// comparison and LIKE, so EvaluateVector() is column access plus kernel
/// dispatch: no name lookups, no lowercasing, no hash probes per row.
///
/// Errors split by when they are detectable:
///  - bind time: unresolvable / ambiguous column references (NotFound /
///    InvalidArgument from Schema::IndexOf), surfaced from Bind() so
///    operators fail at Open();
///  - eval time: data-dependent type errors (Status::Application),
///    including errors inside constant subtrees (a folded `1/0` still
///    errors at evaluation, not at Bind()).
/// Scalar semantics (NULL propagation, numeric promotion, error text)
/// live in exec/expr_eval.h; the parity property test in
/// tests/bound_expr_test.cc checks every node against the row-at-a-time
/// reference interpreter in tests/reference_ops.h.
class BoundExpr {
 public:
  virtual ~BoundExpr() = default;

  /// \brief Resets `*out` and fills it with one value per LOGICAL row of
  /// `in` (gathering through the selection vector, so the output column
  /// is always dense).
  ///
  /// Errors: a batch errors exactly when evaluating some row on its own
  /// would. AND/OR keep per-row short-circuiting: when the rhs fails,
  /// it is re-evaluated over only the rows the lhs left undecided.
  /// Operands evaluate whole-column before combination, so the reported
  /// Status is that of the first failing subtree, which may name a later
  /// row's error than a row-by-row walk would.
  virtual Status EvaluateVector(const ColumnBatch& in,
                                ColumnVector* out) const = 0;

  /// \brief Best-effort static result type (kNull when data dependent).
  DataType static_type() const { return static_type_; }

  /// \brief The folded constant value, or nullptr for non-constant
  /// nodes (introspection for tests and the planner).
  virtual const Value* literal() const { return nullptr; }

 protected:
  explicit BoundExpr(DataType t) : static_type_(t) {}

  DataType static_type_;
};

using BoundExprPtr = std::shared_ptr<const BoundExpr>;

/// \brief Compiles `expr` against `schema`. Column resolution errors
/// (NotFound, ambiguous InvalidArgument) surface here instead of per row.
Result<BoundExprPtr> Bind(const ExprPtr& expr, const Schema& schema);

/// \brief Binds a vector of expressions (join keys, group keys, ...).
Result<std::vector<BoundExprPtr>> BindAll(const std::vector<ExprPtr>& exprs,
                                          const Schema& schema);

}  // namespace swift

#endif  // SWIFT_EXEC_BOUND_EXPR_H_
