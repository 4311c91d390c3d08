// Expression semantics, checked through the only evaluator: each case
// binds the tree (exec/bound_expr.h) and evaluates it on a one-row
// ColumnBatch. Ill-typed trees never evaluate: Bind rejects them.

#include "exec/expression.h"

#include <gtest/gtest.h>

#include "common/macros.h"
#include "exec/bound_expr.h"
#include "exec/column_batch.h"
#include "exec/operators.h"

namespace swift {
namespace {

const Schema& TestSchema() {
  static const Schema s({{"i", DataType::kInt64},
                         {"f", DataType::kFloat64},
                         {"s", DataType::kString},
                         {"n", DataType::kNull}});
  return s;
}

Row TestRow() {
  return {Value(int64_t{6}), Value(2.5), Value("forest green"), Value::Null()};
}

Batch TestBatch() {
  Batch b;
  b.schema = TestSchema();
  b.rows = {TestRow()};
  return b;
}

// Binds `e` to TestSchema() and evaluates it on TestRow().
Result<Value> Evaluate(const ExprPtr& e) {
  SWIFT_ASSIGN_OR_RETURN(BoundExprPtr bound, Bind(e, TestSchema()));
  SWIFT_ASSIGN_OR_RETURN(ColumnBatch in, ToColumnBatch(TestBatch()));
  ColumnVector out;
  SWIFT_RETURN_NOT_OK(bound->EvaluateVector(in, &out));
  return out.GetValue(0);
}

Value Eval(const ExprPtr& e) {
  auto r = Evaluate(e);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? *r : Value::Null();
}

// Expects Bind to reject `e` as ill-typed, naming the expression.
void ExpectRejectedAtBind(const ExprPtr& e) {
  auto bound = Bind(e, TestSchema());
  ASSERT_FALSE(bound.ok()) << e->ToString();
  EXPECT_EQ(bound.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bound.status().message().find(e->ToString()), std::string::npos)
      << bound.status().ToString();
}

TEST(ExpressionTest, ColumnAndLiteral) {
  EXPECT_EQ(Eval(Expr::Column("i")).int64(), 6);
  EXPECT_DOUBLE_EQ(Eval(Expr::Column("f")).float64(), 2.5);
  EXPECT_EQ(Eval(Expr::Literal(Value("x"))).str(), "x");
}

TEST(ExpressionTest, UnknownColumnErrors) {
  auto r = Evaluate(Expr::Column("nope"));
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ExpressionTest, IntegerArithmeticStaysInt) {
  auto e = Expr::Binary(BinaryOp::kMul, Expr::Column("i"),
                        Expr::Literal(Value(int64_t{7})));
  Value v = Eval(e);
  ASSERT_TRUE(v.is_int64());
  EXPECT_EQ(v.int64(), 42);
}

TEST(ExpressionTest, MixedArithmeticPromotesToDouble) {
  auto e = Expr::Binary(BinaryOp::kAdd, Expr::Column("i"), Expr::Column("f"));
  Value v = Eval(e);
  ASSERT_TRUE(v.is_float64());
  EXPECT_DOUBLE_EQ(v.float64(), 8.5);
}

TEST(ExpressionTest, DivisionAlwaysDouble) {
  auto e = Expr::Binary(BinaryOp::kDiv, Expr::Literal(Value(int64_t{7})),
                        Expr::Literal(Value(int64_t{2})));
  EXPECT_DOUBLE_EQ(Eval(e).float64(), 3.5);
}

TEST(ExpressionTest, DivisionByZeroIsApplicationError) {
  auto e = Expr::Binary(BinaryOp::kDiv, Expr::Column("i"),
                        Expr::Literal(Value(int64_t{0})));
  auto r = Evaluate(e);
  EXPECT_EQ(r.status().code(), StatusCode::kApplication);
}

TEST(ExpressionTest, ArithmeticOnStringFailsAtBind) {
  ExpectRejectedAtBind(
      Expr::Binary(BinaryOp::kAdd, Expr::Column("s"), Expr::Column("i")));
}

TEST(ExpressionTest, NullPropagatesThroughArithmetic) {
  auto e = Expr::Binary(BinaryOp::kAdd, Expr::Column("n"), Expr::Column("i"));
  EXPECT_TRUE(Eval(e).is_null());
}

TEST(ExpressionTest, Comparisons) {
  auto lt = Expr::Binary(BinaryOp::kLt, Expr::Column("i"),
                         Expr::Literal(Value(int64_t{10})));
  EXPECT_EQ(Eval(lt).int64(), 1);
  auto ge = Expr::Binary(BinaryOp::kGe, Expr::Column("f"),
                         Expr::Literal(Value(99.0)));
  EXPECT_EQ(Eval(ge).int64(), 0);
  auto eq = Expr::Binary(BinaryOp::kEq, Expr::Column("i"),
                         Expr::Literal(Value(6.0)));
  EXPECT_EQ(Eval(eq).int64(), 1);  // cross-type numeric equality
}

TEST(ExpressionTest, NullComparisonIsNull) {
  auto e = Expr::Binary(BinaryOp::kEq, Expr::Column("n"),
                        Expr::Literal(Value(int64_t{1})));
  EXPECT_TRUE(Eval(e).is_null());
}

TEST(ExpressionTest, KleeneAndOr) {
  auto t = Expr::Literal(Value(int64_t{1}));
  auto f = Expr::Literal(Value(int64_t{0}));
  auto n = Expr::Literal(Value::Null());
  // false AND NULL = false (short circuit); true OR NULL = true.
  EXPECT_EQ(Eval(Expr::Binary(BinaryOp::kAnd, f, n)).int64(), 0);
  EXPECT_EQ(Eval(Expr::Binary(BinaryOp::kOr, t, n)).int64(), 1);
  // NULL AND true = NULL; NULL OR false = NULL.
  EXPECT_TRUE(Eval(Expr::Binary(BinaryOp::kAnd, n, t)).is_null());
  EXPECT_TRUE(Eval(Expr::Binary(BinaryOp::kOr, n, f)).is_null());
  // NULL AND false = false even with NULL first.
  EXPECT_EQ(Eval(Expr::Binary(BinaryOp::kAnd, n, f)).int64(), 0);
}

TEST(ExpressionTest, LikeOperator) {
  auto e = Expr::Binary(BinaryOp::kLike, Expr::Column("s"),
                        Expr::Literal(Value("%green%")));
  EXPECT_EQ(Eval(e).int64(), 1);
  auto miss = Expr::Binary(BinaryOp::kLike, Expr::Column("s"),
                           Expr::Literal(Value("%blue%")));
  EXPECT_EQ(Eval(miss).int64(), 0);
}

TEST(ExpressionTest, LikeOnNumberFailsAtBind) {
  ExpectRejectedAtBind(Expr::Binary(BinaryOp::kLike, Expr::Column("i"),
                                    Expr::Literal(Value("%1%"))));
}

TEST(ExpressionTest, NotAndNegate) {
  EXPECT_EQ(Eval(Expr::Unary(UnaryOp::kNot, Expr::Literal(Value(int64_t{0}))))
                .int64(),
            1);
  EXPECT_EQ(Eval(Expr::Unary(UnaryOp::kNeg, Expr::Column("i"))).int64(), -6);
  EXPECT_DOUBLE_EQ(
      Eval(Expr::Unary(UnaryOp::kNeg, Expr::Column("f"))).float64(), -2.5);
}

TEST(ExpressionTest, SubstrFunction) {
  // substr('forest green', 8, 5) -> 'green'; 1-based like the paper's Q9.
  auto e = Expr::Function(
      "substr", {Expr::Column("s"), Expr::Literal(Value(int64_t{8})),
                 Expr::Literal(Value(int64_t{5}))});
  EXPECT_EQ(Eval(e).str(), "green");
}

TEST(ExpressionTest, SubstrOutOfRangeIsEmpty) {
  auto e = Expr::Function(
      "substr", {Expr::Column("s"), Expr::Literal(Value(int64_t{100})),
                 Expr::Literal(Value(int64_t{4}))});
  EXPECT_EQ(Eval(e).str(), "");
}

TEST(ExpressionTest, LowerUpperAbs) {
  EXPECT_EQ(Eval(Expr::Function("upper", {Expr::Literal(Value("ab"))})).str(),
            "AB");
  EXPECT_EQ(Eval(Expr::Function("lower", {Expr::Literal(Value("AB"))})).str(),
            "ab");
  EXPECT_EQ(
      Eval(Expr::Function("abs", {Expr::Literal(Value(int64_t{-4}))})).int64(),
      4);
}

TEST(ExpressionTest, UnknownFunctionFailsAtBind) {
  ExpectRejectedAtBind(Expr::Function("frobnicate", {}));
}

TEST(ExpressionTest, EvaluatePredicateTreatsNullAsFalse) {
  auto kept = [](const ExprPtr& pred) -> std::size_t {
    OperatorPtr filter =
        MakeFilter(MakeBatchSource(TestSchema(), {TestBatch()}), pred);
    auto out = CollectAll(filter.get());
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return out.ok() ? out->rows.size() : 0;
  };
  EXPECT_EQ(kept(Expr::Column("n")), 0u);
  EXPECT_EQ(kept(Expr::Column("i")), 1u);
}

TEST(ExpressionTest, CollectColumns) {
  auto e = Expr::Binary(
      BinaryOp::kAdd, Expr::Column("a"),
      Expr::Function("abs", {Expr::Binary(BinaryOp::kMul, Expr::Column("b"),
                                          Expr::Literal(Value(2.0)))}));
  std::vector<std::string> cols;
  e->CollectColumns(&cols);
  EXPECT_EQ(cols, (std::vector<std::string>{"a", "b"}));
}

TEST(ExpressionTest, ToStringRendersTree) {
  auto e = Expr::Binary(BinaryOp::kGe, Expr::Column("x"),
                        Expr::Literal(Value(int64_t{3})));
  EXPECT_EQ(e->ToString(), "(x >= 3)");
  auto f = Expr::Function("substr", {Expr::Column("s"),
                                     Expr::Literal(Value(int64_t{1})),
                                     Expr::Literal(Value(int64_t{4}))});
  EXPECT_EQ(f->ToString(), "substr(s, 1, 4)");
}

TEST(ExpressionTest, AsColumnName) {
  auto c = Expr::Column("q");
  auto l = Expr::Literal(Value(int64_t{1}));
  ASSERT_NE(AsColumnName(*c), nullptr);
  EXPECT_EQ(*AsColumnName(*c), "q");
  EXPECT_EQ(AsColumnName(*l), nullptr);
}

TEST(ExpressionTest, OutputTypes) {
  // The one type of an expression is its bound static type.
  const auto type_of = [](const ExprPtr& e) {
    auto b = Bind(e, TestSchema());
    EXPECT_TRUE(b.ok()) << b.status().ToString();
    return b.ok() ? (*b)->static_type() : DataType::kNull;
  };
  EXPECT_EQ(type_of(Expr::Column("i")), DataType::kInt64);
  EXPECT_EQ(type_of(Expr::Binary(BinaryOp::kDiv, Expr::Column("i"),
                                 Expr::Column("i"))),
            DataType::kFloat64);
  EXPECT_EQ(type_of(Expr::Binary(BinaryOp::kAdd, Expr::Column("i"),
                                 Expr::Column("f"))),
            DataType::kFloat64);
  EXPECT_EQ(type_of(Expr::Function(
                "substr", {Expr::Column("s"), Expr::Literal(Value(int64_t{1})),
                           Expr::Column("f")})),
            DataType::kString);
  EXPECT_EQ(type_of(Expr::Function("coalesce",
                                   {Expr::Column("n"), Expr::Column("i"),
                                    Expr::Column("f")})),
            DataType::kFloat64);
  EXPECT_EQ(type_of(Expr::Literal(Value::Null())), DataType::kNull);
  // A folded NULL keeps its subtree's type.
  EXPECT_EQ(type_of(Expr::Binary(BinaryOp::kAdd, Expr::Literal(Value::Null()),
                                 Expr::Literal(Value(2.0)))),
            DataType::kFloat64);
}

TEST(ExpressionTest, CoalescePromotesIntToFloat) {
  // The int64 argument wins but lands in the float64 result column.
  Value v = Eval(Expr::Function("coalesce", {Expr::Column("n"),
                                             Expr::Column("i"),
                                             Expr::Column("f")}));
  ASSERT_TRUE(v.is_float64());
  EXPECT_DOUBLE_EQ(v.float64(), 6.0);
}

}  // namespace
}  // namespace swift
