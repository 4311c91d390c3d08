#include "sql/parser.h"

#include <cstdlib>

#include "common/macros.h"
#include "common/string_util.h"
#include "sql/lexer.h"

namespace swift {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<std::shared_ptr<SelectStmt>> ParseStatement() {
    SWIFT_ASSIGN_OR_RETURN(auto stmt, ParseSelectStmt());
    if (!Peek().Is(TokenKind::kEnd, "")) {
      return Err("trailing input after statement");
    }
    return stmt;
  }

 private:
  const Token& Peek(std::size_t ahead = 0) const {
    const std::size_t i = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[i];
  }
  const Token& Advance() { return tokens_[std::min(pos_++, tokens_.size() - 1)]; }
  bool Accept(TokenKind k, std::string_view t) {
    if (Peek().Is(k, t)) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool AcceptKeyword(std::string_view t) { return Accept(TokenKind::kKeyword, t); }
  bool AcceptSymbol(std::string_view t) { return Accept(TokenKind::kSymbol, t); }

  Status Expect(TokenKind k, std::string_view t) {
    if (!Accept(k, t)) {
      return Status::ParseError(StrFormat(
          "expected '%s' at offset %zu but found '%s'",
          std::string(t).c_str(), Peek().offset, Peek().text.c_str()));
    }
    return Status::OK();
  }

  Status Err(const std::string& what) const {
    return Status::ParseError(StrFormat("%s at offset %zu (near '%s')",
                                        what.c_str(), Peek().offset,
                                        Peek().text.c_str()));
  }

  static bool IsAggName(const std::string& w, AggKind* kind) {
    if (w == "sum") *kind = AggKind::kSum;
    else if (w == "count") *kind = AggKind::kCount;
    else if (w == "min") *kind = AggKind::kMin;
    else if (w == "max") *kind = AggKind::kMax;
    else if (w == "avg") *kind = AggKind::kAvg;
    else return false;
    return true;
  }

  Result<std::shared_ptr<SelectStmt>> ParseSelectStmt() {
    SWIFT_RETURN_NOT_OK(Expect(TokenKind::kKeyword, "select"));
    auto stmt = std::make_shared<SelectStmt>();
    (void)AcceptKeyword("distinct");  // accepted, treated as plain select
    do {
      SWIFT_ASSIGN_OR_RETURN(SelectItem item, ParseSelectItem());
      stmt->items.push_back(std::move(item));
    } while (AcceptSymbol(","));

    SWIFT_RETURN_NOT_OK(Expect(TokenKind::kKeyword, "from"));
    SWIFT_ASSIGN_OR_RETURN(stmt->from, ParseTableRef());
    for (;;) {
      JoinClause jc;
      if (AcceptKeyword("join")) {
        // plain inner join
      } else if (Peek().IsKeyword("inner") && Peek(1).IsKeyword("join")) {
        Advance();
        Advance();
      } else if (AcceptKeyword("left")) {
        (void)AcceptKeyword("outer");
        SWIFT_RETURN_NOT_OK(Expect(TokenKind::kKeyword, "join"));
        jc.left_outer = true;
      } else {
        break;
      }
      SWIFT_ASSIGN_OR_RETURN(jc.table, ParseTableRef());
      SWIFT_RETURN_NOT_OK(Expect(TokenKind::kKeyword, "on"));
      SWIFT_ASSIGN_OR_RETURN(jc.on, ParseExpr());
      stmt->joins.push_back(std::move(jc));
    }

    if (AcceptKeyword("where")) {
      SWIFT_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    if (AcceptKeyword("group")) {
      SWIFT_RETURN_NOT_OK(Expect(TokenKind::kKeyword, "by"));
      do {
        SWIFT_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        stmt->group_by.push_back(std::move(e));
      } while (AcceptSymbol(","));
    }
    if (AcceptKeyword("having")) {
      SWIFT_ASSIGN_OR_RETURN(stmt->having, ParseExpr());
    }
    if (AcceptKeyword("order")) {
      SWIFT_RETURN_NOT_OK(Expect(TokenKind::kKeyword, "by"));
      do {
        OrderItem item;
        SWIFT_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (AcceptKeyword("desc")) {
          item.ascending = false;
        } else {
          (void)AcceptKeyword("asc");
        }
        stmt->order_by.push_back(std::move(item));
      } while (AcceptSymbol(","));
    }
    if (AcceptKeyword("limit")) {
      if (Peek().kind != TokenKind::kNumber ||
          Peek().text.find_first_not_of("0123456789") != std::string::npos) {
        return Err("expected LIMIT count");
      }
      stmt->limit = std::strtoll(Advance().text.c_str(), nullptr, 10);
    }
    return stmt;
  }

  // OVER '(' [PARTITION BY exprs] [ORDER BY items] ')'
  Result<WindowSpec> ParseWindowClause(WindowFunc func, ExprPtr arg) {
    WindowSpec spec;
    spec.func = func;
    spec.arg = std::move(arg);
    SWIFT_RETURN_NOT_OK(Expect(TokenKind::kSymbol, "("));
    if (AcceptKeyword("partition")) {
      SWIFT_RETURN_NOT_OK(Expect(TokenKind::kKeyword, "by"));
      do {
        SWIFT_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        spec.partition_by.push_back(std::move(e));
      } while (AcceptSymbol(","));
    }
    if (AcceptKeyword("order")) {
      SWIFT_RETURN_NOT_OK(Expect(TokenKind::kKeyword, "by"));
      do {
        auto oi = std::make_shared<OrderItem>();
        SWIFT_ASSIGN_OR_RETURN(oi->expr, ParseExpr());
        if (AcceptKeyword("desc")) {
          oi->ascending = false;
        } else {
          (void)AcceptKeyword("asc");
        }
        spec.order_by.push_back(std::move(oi));
      } while (AcceptSymbol(","));
    }
    SWIFT_RETURN_NOT_OK(Expect(TokenKind::kSymbol, ")"));
    return spec;
  }

  Result<SelectItem> ParseSelectItem() {
    SelectItem item;
    if (Peek().IsSymbol("*")) {
      Advance();
      item.star = true;
      return item;
    }
    // row_number() / rank() window functions.
    if (Peek().kind == TokenKind::kIdentifier &&
        (Peek().text == "row_number" || Peek().text == "rank") &&
        Peek(1).IsSymbol("(")) {
      const WindowFunc func = Peek().text == "row_number"
                                  ? WindowFunc::kRowNumber
                                  : WindowFunc::kRank;
      Advance();
      Advance();
      SWIFT_RETURN_NOT_OK(Expect(TokenKind::kSymbol, ")"));
      SWIFT_RETURN_NOT_OK(Expect(TokenKind::kKeyword, "over"));
      SWIFT_ASSIGN_OR_RETURN(WindowSpec spec,
                             ParseWindowClause(func, nullptr));
      item.window = std::move(spec);
    } else {
      AggKind agg;
      if (Peek().kind == TokenKind::kKeyword && IsAggName(Peek().text, &agg) &&
          Peek(1).IsSymbol("(")) {
        Advance();
        Advance();
        item.agg = agg;
        if (Peek().IsSymbol("*")) {
          Advance();
          if (agg != AggKind::kCount) {
            return Status::ParseError("'*' argument only valid in count(*)");
          }
        } else {
          SWIFT_ASSIGN_OR_RETURN(item.agg_arg, ParseExpr());
        }
        SWIFT_RETURN_NOT_OK(Expect(TokenKind::kSymbol, ")"));
        if (AcceptKeyword("over")) {
          // sum(x) OVER (...): a running-sum window, not an aggregate.
          if (agg != AggKind::kSum) {
            return Status::ParseError(
                "only sum(), row_number() and rank() support OVER");
          }
          SWIFT_ASSIGN_OR_RETURN(
              WindowSpec spec,
              ParseWindowClause(WindowFunc::kSum, item.agg_arg));
          item.agg.reset();
          item.agg_arg = nullptr;
          item.window = std::move(spec);
        }
      } else {
        SWIFT_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      }
    }
    if (AcceptKeyword("as")) {
      if (Peek().kind != TokenKind::kIdentifier) return Err("expected alias");
      item.alias = Advance().text;
    } else if (Peek().kind == TokenKind::kIdentifier) {
      item.alias = Advance().text;  // implicit alias
    }
    return item;
  }

  Result<TableRef> ParseTableRef() {
    TableRef ref;
    if (AcceptSymbol("(")) {
      SWIFT_ASSIGN_OR_RETURN(ref.subquery, ParseSelectStmt());
      SWIFT_RETURN_NOT_OK(Expect(TokenKind::kSymbol, ")"));
    } else {
      if (Peek().kind != TokenKind::kIdentifier) return Err("expected table name");
      ref.table_name = Advance().text;
    }
    if (AcceptKeyword("as")) {
      if (Peek().kind != TokenKind::kIdentifier) return Err("expected alias");
      ref.alias = Advance().text;
    } else if (Peek().kind == TokenKind::kIdentifier) {
      ref.alias = Advance().text;
    }
    return ref;
  }

  // ---- expression grammar, lowest to highest precedence --------------
  Result<ExprPtr> ParseExpr() { return ParseOr(); }

  Result<ExprPtr> ParseOr() {
    SWIFT_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    while (AcceptKeyword("or")) {
      SWIFT_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      lhs = Expr::Binary(BinaryOp::kOr, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseAnd() {
    SWIFT_ASSIGN_OR_RETURN(ExprPtr lhs, ParseNot());
    while (AcceptKeyword("and")) {
      SWIFT_ASSIGN_OR_RETURN(ExprPtr rhs, ParseNot());
      lhs = Expr::Binary(BinaryOp::kAnd, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseNot() {
    if (AcceptKeyword("not")) {
      SWIFT_ASSIGN_OR_RETURN(ExprPtr e, ParseNot());
      return Expr::Unary(UnaryOp::kNot, std::move(e));
    }
    return ParseComparison();
  }

  // lhs BETWEEN a AND b  ->  (lhs >= a) AND (lhs <= b)
  Result<ExprPtr> ParseBetweenTail(ExprPtr lhs) {
    SWIFT_ASSIGN_OR_RETURN(ExprPtr lo, ParseAdditive());
    SWIFT_RETURN_NOT_OK(Expect(TokenKind::kKeyword, "and"));
    SWIFT_ASSIGN_OR_RETURN(ExprPtr hi, ParseAdditive());
    ExprPtr ge = Expr::Binary(BinaryOp::kGe, lhs, std::move(lo));
    ExprPtr le = Expr::Binary(BinaryOp::kLe, std::move(lhs), std::move(hi));
    return Expr::Binary(BinaryOp::kAnd, std::move(ge), std::move(le));
  }

  // lhs IN (e1, e2, ...)  ->  lhs = e1 OR lhs = e2 OR ...
  Result<ExprPtr> ParseInTail(ExprPtr lhs) {
    SWIFT_RETURN_NOT_OK(Expect(TokenKind::kSymbol, "("));
    ExprPtr out;
    do {
      SWIFT_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      ExprPtr eq = Expr::Binary(BinaryOp::kEq, lhs, std::move(e));
      out = out == nullptr
                ? std::move(eq)
                : Expr::Binary(BinaryOp::kOr, std::move(out), std::move(eq));
    } while (AcceptSymbol(","));
    SWIFT_RETURN_NOT_OK(Expect(TokenKind::kSymbol, ")"));
    return out;
  }

  Result<ExprPtr> ParseComparison() {
    SWIFT_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());
    for (;;) {
      if (AcceptKeyword("between")) {
        SWIFT_ASSIGN_OR_RETURN(lhs, ParseBetweenTail(std::move(lhs)));
        continue;
      }
      if (Peek().IsKeyword("not") && Peek(1).IsKeyword("between")) {
        Advance();
        Advance();
        SWIFT_ASSIGN_OR_RETURN(ExprPtr b, ParseBetweenTail(lhs));
        lhs = Expr::Unary(UnaryOp::kNot, std::move(b));
        continue;
      }
      if (AcceptKeyword("in")) {
        SWIFT_ASSIGN_OR_RETURN(lhs, ParseInTail(std::move(lhs)));
        continue;
      }
      if (Peek().IsKeyword("not") && Peek(1).IsKeyword("in")) {
        Advance();
        Advance();
        SWIFT_ASSIGN_OR_RETURN(ExprPtr in, ParseInTail(lhs));
        lhs = Expr::Unary(UnaryOp::kNot, std::move(in));
        continue;
      }
      if (AcceptKeyword("is")) {
        const bool negated = AcceptKeyword("not");
        SWIFT_RETURN_NOT_OK(Expect(TokenKind::kKeyword, "null"));
        lhs = Expr::Function("is_null", {std::move(lhs)});
        if (negated) lhs = Expr::Unary(UnaryOp::kNot, std::move(lhs));
        continue;
      }
      BinaryOp op;
      if (AcceptSymbol("=")) {
        op = BinaryOp::kEq;
      } else if (AcceptSymbol("<>")) {
        op = BinaryOp::kNe;
      } else if (AcceptSymbol("<=")) {
        op = BinaryOp::kLe;
      } else if (AcceptSymbol(">=")) {
        op = BinaryOp::kGe;
      } else if (AcceptSymbol("<")) {
        op = BinaryOp::kLt;
      } else if (AcceptSymbol(">")) {
        op = BinaryOp::kGt;
      } else if (AcceptKeyword("like")) {
        op = BinaryOp::kLike;
      } else if (Peek().IsKeyword("not") && Peek(1).IsKeyword("like")) {
        Advance();
        Advance();
        SWIFT_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
        return Expr::Unary(UnaryOp::kNot,
                           Expr::Binary(BinaryOp::kLike, std::move(lhs),
                                        std::move(rhs)));
      } else {
        return lhs;
      }
      SWIFT_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
      lhs = Expr::Binary(op, std::move(lhs), std::move(rhs));
    }
  }

  Result<ExprPtr> ParseAdditive() {
    SWIFT_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
    for (;;) {
      if (AcceptSymbol("+")) {
        SWIFT_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
        lhs = Expr::Binary(BinaryOp::kAdd, std::move(lhs), std::move(rhs));
      } else if (AcceptSymbol("-")) {
        SWIFT_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
        lhs = Expr::Binary(BinaryOp::kSub, std::move(lhs), std::move(rhs));
      } else {
        return lhs;
      }
    }
  }

  Result<ExprPtr> ParseMultiplicative() {
    SWIFT_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
    for (;;) {
      if (AcceptSymbol("*")) {
        SWIFT_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
        lhs = Expr::Binary(BinaryOp::kMul, std::move(lhs), std::move(rhs));
      } else if (AcceptSymbol("/")) {
        SWIFT_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
        lhs = Expr::Binary(BinaryOp::kDiv, std::move(lhs), std::move(rhs));
      } else {
        return lhs;
      }
    }
  }

  Result<ExprPtr> ParseUnary() {
    if (AcceptSymbol("-")) {
      SWIFT_ASSIGN_OR_RETURN(ExprPtr e, ParseUnary());
      return Expr::Unary(UnaryOp::kNeg, std::move(e));
    }
    return ParsePrimary();
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& t = Peek();
    if (t.kind == TokenKind::kNumber) {
      Advance();
      if (t.text.find_first_of(".eE") != std::string::npos) {
        return Expr::Literal(Value(std::strtod(t.text.c_str(), nullptr)));
      }
      return Expr::Literal(
          Value(static_cast<int64_t>(std::strtoll(t.text.c_str(), nullptr, 10))));
    }
    if (t.kind == TokenKind::kString) {
      Advance();
      return Expr::Literal(Value(t.text));
    }
    if (t.IsKeyword("null")) {
      Advance();
      return Expr::Literal(Value::Null());
    }
    if (AcceptSymbol("(")) {
      SWIFT_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      SWIFT_RETURN_NOT_OK(Expect(TokenKind::kSymbol, ")"));
      return e;
    }
    if (t.kind == TokenKind::kIdentifier) {
      Advance();
      // Function call?
      if (Peek().IsSymbol("(")) {
        Advance();
        std::vector<ExprPtr> args;
        if (!Peek().IsSymbol(")")) {
          do {
            SWIFT_ASSIGN_OR_RETURN(ExprPtr a, ParseExpr());
            args.push_back(std::move(a));
          } while (AcceptSymbol(","));
        }
        SWIFT_RETURN_NOT_OK(Expect(TokenKind::kSymbol, ")"));
        return Expr::Function(t.text, std::move(args));
      }
      // Qualified name: a.b
      if (Peek().IsSymbol(".") && Peek(1).kind == TokenKind::kIdentifier) {
        Advance();
        const Token& col = Advance();
        return Expr::Column(t.text + "." + col.text);
      }
      return Expr::Column(t.text);
    }
    return Err("expected expression");
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<std::shared_ptr<SelectStmt>> ParseSelect(const std::string& sql) {
  SWIFT_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

}  // namespace swift
