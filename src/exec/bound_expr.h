#ifndef SWIFT_EXEC_BOUND_EXPR_H_
#define SWIFT_EXEC_BOUND_EXPR_H_

#include <memory>
#include <optional>
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
/// once, type-checks every node, constant-folds literal subtrees, and
/// specializes typed kernels for int64/float64 arithmetic and
/// comparisons and for string comparison and LIKE, so EvaluateVector()
/// is column access plus kernel dispatch: no name lookups, no
/// lowercasing, no hash probes per row.
///
/// The type rules ("numeric" is int64 or float64; an all-NULL kNull
/// operand fits wherever a typed one does):
///  - a column has its field's type; a literal its value's (NULL: kNull);
///  - `+ - *` take numbers and give float64 if either side is float64,
///    else int64; `/` gives float64; unary `-` and abs() keep the type;
///  - `= <> < <= > >=` compare numbers with numbers or strings with
///    strings, LIKE takes strings; AND/OR/NOT take anything (truthiness);
///    all give int64;
///  - coalesce() takes all-numeric arguments (float64 if any is, else
///    int64) or all-string ones; is_null() gives int64; substr(string,
///    number, number), lower() and upper() give string.
/// Where an int64 operand meets a float64 one (arithmetic, comparison,
/// coalesce arguments) and under `/`, Bind wraps each int64 side in a
/// float64 promotion node (a constant one folds to a float64 literal),
/// so every kernel reads operands of one rep and every node's column has
/// its static type: reps are decided here, never per batch.
/// An unknown function, a wrong arity or any other operand type is
/// InvalidArgument naming the offending expression. The one exception
/// is the dead rhs of a constant-dominated AND/OR (`0 AND x`), which row
/// semantics never evaluate, so it is not bound at all.
///
/// Errors split by when they are detectable:
///  - bind time: unresolvable / ambiguous column references (NotFound /
///    InvalidArgument from Schema::IndexOf) and type errors
///    (InvalidArgument), surfaced from Bind() so the planner rejects the
///    query and operators fail at Open();
///  - eval time: division by zero (Status::Application), including inside
///    constant subtrees (a folded `1/0` still errors at evaluation, not
///    at Bind()).
/// The parity property test in tests/bound_expr_test.cc checks every
/// node against the row-at-a-time reference interpreter in
/// tests/reference_ops.h: values, NULL propagation and error text.
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

  /// \brief The checked result type. EvaluateVector's column always has
  /// this rep (a NULL cell is a NULL slot of it); kNull here means the
  /// expression is always NULL.
  DataType static_type() const { return static_type_; }

  /// \brief The folded constant value, or nullptr for non-constant
  /// nodes (introspection for tests and the planner).
  virtual const Value* literal() const { return nullptr; }

  /// \brief The input column ordinal of a plain column reference, or
  /// nullopt for every other node: key consumers read such a column in
  /// place instead of evaluating it.
  virtual std::optional<std::size_t> column_ordinal() const {
    return std::nullopt;
  }

  /// \brief The column of `in` a plain column reference reads, or
  /// nullptr for every other node (and for an ordinal `in` lacks, which
  /// EvaluateVector reports): kernel operands and key columns borrow it
  /// in place instead of evaluating it.
  const ColumnVector* InputColumn(const ColumnBatch& in) const;

  /// \brief A literal's value as a one-cell column of its static type,
  /// or nullptr for every other node: kernels read it as a scalar
  /// instead of broadcasting it over the batch.
  virtual const ColumnVector* scalar_cell() const { return nullptr; }

 protected:
  explicit BoundExpr(DataType t) : static_type_(t) {}

  DataType static_type_;
};

using BoundExprPtr = std::shared_ptr<const BoundExpr>;

/// \brief Compiles `expr` against `schema`. Column resolution errors
/// (NotFound, ambiguous InvalidArgument) and type errors
/// (InvalidArgument) surface here instead of per row.
Result<BoundExprPtr> Bind(const ExprPtr& expr, const Schema& schema);

/// \brief The type Bind gives the binary node `expr` (any op but AND/OR)
/// over operands of types `l` and `r`, or its InvalidArgument naming
/// `expr`. The planner checks equi-join key pairs, which bind against
/// different inputs, with it.
Result<DataType> BinaryResultType(const ExprPtr& expr, BinaryOp op,
                                  DataType l, DataType r);

/// \brief Binds a vector of expressions (join keys, group keys, ...).
Result<std::vector<BoundExprPtr>> BindAll(const std::vector<ExprPtr>& exprs,
                                          const Schema& schema);

}  // namespace swift

#endif  // SWIFT_EXEC_BOUND_EXPR_H_
