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
/// form of Expr used by every per-row loop in the executor.
///
/// Bind() resolves each column reference to a row ordinal exactly once,
/// constant-folds literal subtrees, and specializes typed fast paths for
/// int64/float64 arithmetic and comparisons, so Evaluate() is index
/// access plus kernel dispatch — no name lookups, no lowercasing, no
/// hash probes per row.
///
/// Error semantics match the interpreted tree, split by when they are
/// detectable:
///  - bind time: unresolvable / ambiguous column references (the same
///    NotFound / InvalidArgument statuses the interpreter raised per
///    row), surfaced from Bind() so operators fail at Open();
///  - eval time: data-dependent type errors (Status::Application),
///    including errors inside constant subtrees (a folded `1/0` still
///    errors at Evaluate(), not at Bind()).
/// NULL propagation and Kleene AND/OR are byte-identical to Expr — both
/// evaluators share the kernels in exec/expr_eval.h, and the parity
/// property test in tests/bound_expr_test.cc enforces it.
class BoundExpr {
 public:
  virtual ~BoundExpr() = default;

  /// \brief Evaluates against one row of the schema this was bound to.
  virtual Result<Value> Evaluate(const Row& row) const = 0;

  /// \brief Columnar evaluation: resets `*out` and fills it with one
  /// value per LOGICAL row of `in` (gathering through the selection
  /// vector, so the output column is always dense). The base
  /// implementation materializes each row and calls Evaluate() —
  /// identical semantics for every node; column references, literals,
  /// numeric arithmetic/comparisons, NOT and AND/OR override it with
  /// typed column-at-a-time kernels that skip per-row boxing entirely.
  ///
  /// Errors: a batch errors exactly when some row's Evaluate() would;
  /// AND/OR re-run the batch row-at-a-time when an operand column fails,
  /// so short-circuit error suppression is preserved. Operands evaluate
  /// whole-column before combination, so the reported Status is that of
  /// the first failing subtree, which may name a later row's error than
  /// a row-by-row walk would.
  virtual Status EvaluateVector(const ColumnBatch& in,
                                ColumnVector* out) const;

  /// \brief Best-effort static result type (kNull when data dependent).
  DataType static_type() const { return static_type_; }

  /// \brief The folded constant value, or nullptr for non-constant
  /// nodes (introspection for tests and the planner).
  virtual const Value* literal() const { return nullptr; }

  /// \brief Row ordinal when this node is a plain column reference, -1
  /// otherwise. Key-hashing loops use this to read `row[ordinal]`
  /// directly instead of boxing a Value through Evaluate() per row.
  virtual int64_t column_ordinal() const { return -1; }

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

/// \brief Predicate semantics identical to EvaluatePredicate: NULL and
/// non-true results are false; numeric nonzero / non-empty string true.
Result<bool> EvaluateBoundPredicate(const BoundExpr& expr, const Row& row);

/// \brief Evaluates bound key expressions into `*key`, reusing its
/// storage (clear + refill) so tight loops do not reallocate.
Status EvalBoundKeys(const std::vector<BoundExprPtr>& keys, const Row& row,
                     Row* key);

}  // namespace swift

#endif  // SWIFT_EXEC_BOUND_EXPR_H_
