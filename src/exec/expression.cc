#include "exec/expression.h"

#include "common/macros.h"
#include "common/string_util.h"

namespace swift {

std::string_view BinaryOpToString(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "<>";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAnd:
      return "and";
    case BinaryOp::kOr:
      return "or";
    case BinaryOp::kLike:
      return "like";
  }
  return "?";
}

namespace {

class ColumnExpr final : public Expr {
 public:
  explicit ColumnExpr(std::string name) : name_(std::move(name)) {}
  ExprKind kind() const override { return ExprKind::kColumn; }

  std::string ToString() const override { return name_; }
  void CollectColumns(std::vector<std::string>* out) const override {
    out->push_back(name_);
  }

  const std::string& name() const { return name_; }

 private:
  std::string name_;
};

class LiteralExpr final : public Expr {
 public:
  explicit LiteralExpr(Value v) : v_(std::move(v)) {}
  ExprKind kind() const override { return ExprKind::kLiteral; }

  std::string ToString() const override {
    return v_.is_string() ? "'" + v_.str() + "'" : v_.ToString();
  }
  void CollectColumns(std::vector<std::string>*) const override {}

  const Value& value() const { return v_; }

 private:
  Value v_;
};

class BinaryExpr final : public Expr {
 public:
  BinaryExpr(BinaryOp op, ExprPtr lhs, ExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}
  ExprKind kind() const override { return ExprKind::kBinary; }

  BinaryOp op() const { return op_; }
  const ExprPtr& lhs() const { return lhs_; }
  const ExprPtr& rhs() const { return rhs_; }

  std::string ToString() const override {
    return "(" + lhs_->ToString() + " " +
           std::string(BinaryOpToString(op_)) + " " + rhs_->ToString() + ")";
  }
  void CollectColumns(std::vector<std::string>* out) const override {
    lhs_->CollectColumns(out);
    rhs_->CollectColumns(out);
  }

 private:
  BinaryOp op_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

class UnaryExpr final : public Expr {
 public:
  UnaryExpr(UnaryOp op, ExprPtr operand)
      : op_(op), operand_(std::move(operand)) {}
  ExprKind kind() const override { return ExprKind::kUnary; }

  std::string ToString() const override {
    return std::string(op_ == UnaryOp::kNot ? "not " : "-") +
           operand_->ToString();
  }
  void CollectColumns(std::vector<std::string>* out) const override {
    operand_->CollectColumns(out);
  }

  UnaryOp op() const { return op_; }
  const ExprPtr& operand() const { return operand_; }

 private:
  UnaryOp op_;
  ExprPtr operand_;
};

class FunctionExpr final : public Expr {
 public:
  FunctionExpr(std::string name, std::vector<ExprPtr> args)
      : name_(ToLower(name)), args_(std::move(args)) {}
  ExprKind kind() const override { return ExprKind::kFunction; }

  std::string ToString() const override {
    std::string s = name_ + "(";
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (i > 0) s += ", ";
      s += args_[i]->ToString();
    }
    return s + ")";
  }
  void CollectColumns(std::vector<std::string>* out) const override {
    for (const ExprPtr& a : args_) a->CollectColumns(out);
  }

  const std::string& name() const { return name_; }
  const std::vector<ExprPtr>& args() const { return args_; }

 private:
  std::string name_;
  std::vector<ExprPtr> args_;
};

}  // namespace

ExprPtr Expr::Column(std::string name) {
  return std::make_shared<ColumnExpr>(std::move(name));
}
ExprPtr Expr::Literal(Value v) {
  return std::make_shared<LiteralExpr>(std::move(v));
}
ExprPtr Expr::Binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<BinaryExpr>(op, std::move(lhs), std::move(rhs));
}
ExprPtr Expr::Unary(UnaryOp op, ExprPtr operand) {
  return std::make_shared<UnaryExpr>(op, std::move(operand));
}
ExprPtr Expr::Function(std::string name, std::vector<ExprPtr> args) {
  return std::make_shared<FunctionExpr>(std::move(name), std::move(args));
}

const std::string* AsColumnName(const Expr& expr) {
  if (expr.kind() != ExprKind::kColumn) return nullptr;
  return &static_cast<const ColumnExpr&>(expr).name();
}

std::optional<BinaryParts> AsBinary(const ExprPtr& expr) {
  if (expr == nullptr || expr->kind() != ExprKind::kBinary) {
    return std::nullopt;
  }
  const auto& b = static_cast<const BinaryExpr&>(*expr);
  return BinaryParts{b.op(), b.lhs(), b.rhs()};
}

const Value* AsLiteralValue(const Expr& expr) {
  if (expr.kind() != ExprKind::kLiteral) return nullptr;
  return &static_cast<const LiteralExpr&>(expr).value();
}

std::optional<UnaryParts> AsUnary(const ExprPtr& expr) {
  if (expr == nullptr || expr->kind() != ExprKind::kUnary) {
    return std::nullopt;
  }
  const auto& u = static_cast<const UnaryExpr&>(*expr);
  return UnaryParts{u.op(), u.operand()};
}

std::optional<FunctionParts> AsFunction(const ExprPtr& expr) {
  if (expr == nullptr || expr->kind() != ExprKind::kFunction) {
    return std::nullopt;
  }
  const auto& f = static_cast<const FunctionExpr&>(*expr);
  return FunctionParts{f.name(), f.args()};
}

std::vector<ExprPtr> SplitConjuncts(const ExprPtr& expr) {
  std::vector<ExprPtr> out;
  if (expr == nullptr) return out;
  std::vector<ExprPtr> work = {expr};
  while (!work.empty()) {
    ExprPtr e = work.back();
    work.pop_back();
    auto parts = AsBinary(e);
    if (parts.has_value() && parts->op == BinaryOp::kAnd) {
      work.push_back(parts->rhs);
      work.push_back(parts->lhs);
    } else {
      out.push_back(std::move(e));
    }
  }
  // Restore left-to-right order (the worklist emits lhs-first already
  // because lhs is pushed last).
  return out;
}

}  // namespace swift
