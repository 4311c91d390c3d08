#ifndef SWIFT_EXEC_EXPRESSION_H_
#define SWIFT_EXEC_EXPRESSION_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "exec/schema.h"
#include "exec/value.h"

namespace swift {

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

enum class ExprKind : int { kColumn, kLiteral, kBinary, kUnary, kFunction };

enum class BinaryOp : int {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
  kLike,
};

enum class UnaryOp : int { kNot, kNeg };

std::string_view BinaryOpToString(BinaryOp op);

/// \brief Immutable scalar expression tree, as parsed and planned.
///
/// Expr is neither typed nor evaluated itself: Bind() (exec/bound_expr.h)
/// type-checks and compiles it against a schema, so a type error is
/// InvalidArgument at plan time. SQL three-valued logic: any NULL operand
/// of an arithmetic/comparison/LIKE node yields NULL; AND/OR use Kleene
/// semantics; predicates treat a NULL result as false.
class Expr {
 public:
  virtual ~Expr() = default;
  virtual ExprKind kind() const = 0;

  virtual std::string ToString() const = 0;

  /// \brief Appends the names of all referenced columns.
  virtual void CollectColumns(std::vector<std::string>* out) const = 0;

  // -- Factories ------------------------------------------------------
  static ExprPtr Column(std::string name);
  static ExprPtr Literal(Value v);
  static ExprPtr Binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Unary(UnaryOp op, ExprPtr operand);
  /// Supported: substr(s, start_1based, len), lower(s), upper(s),
  /// abs(x), is_null(x), coalesce(x, ...). All except is_null/coalesce
  /// propagate NULL arguments.
  static ExprPtr Function(std::string name, std::vector<ExprPtr> args);
};

/// \brief Column reference accessor (for planner introspection).
const std::string* AsColumnName(const Expr& expr);

/// \brief Binary-node introspection for the planner.
struct BinaryParts {
  BinaryOp op;
  ExprPtr lhs;
  ExprPtr rhs;
};

/// \brief Returns the parts of a binary node, or nullopt.
std::optional<BinaryParts> AsBinary(const ExprPtr& expr);

/// \brief Literal introspection: the value, or nullptr.
const Value* AsLiteralValue(const Expr& expr);

/// \brief Unary-node introspection (for the expression binder).
struct UnaryParts {
  UnaryOp op;
  ExprPtr operand;
};

/// \brief Returns the parts of a unary node, or nullopt.
std::optional<UnaryParts> AsUnary(const ExprPtr& expr);

/// \brief Function-node introspection. `name` is already lowercased.
struct FunctionParts {
  std::string name;
  std::vector<ExprPtr> args;
};

/// \brief Returns the parts of a function node, or nullopt.
std::optional<FunctionParts> AsFunction(const ExprPtr& expr);

/// \brief Splits `expr` into its top-level AND conjuncts (a single
/// non-AND expression yields one conjunct; null yields none).
std::vector<ExprPtr> SplitConjuncts(const ExprPtr& expr);

}  // namespace swift

#endif  // SWIFT_EXEC_EXPRESSION_H_
