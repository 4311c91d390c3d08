// Bound-expression compilation tests: ordinal binding, constant folding,
// and a parity property test pitting BoundExpr::Evaluate against the
// interpreted Expr::Evaluate on random expression trees and random rows —
// results, NULL propagation, Kleene AND/OR, and error statuses must be
// identical.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "exec/bound_expr.h"
#include "exec/column_batch.h"
#include "exec/expression.h"

namespace swift {
namespace {

Schema TestSchema() {
  return Schema({{"a", DataType::kInt64},
                 {"b", DataType::kFloat64},
                 {"s", DataType::kString}});
}

// ---------------------------------------------------------------------
// Ordinal binding
// ---------------------------------------------------------------------

TEST(BoundExprTest, ColumnBindsToOrdinal) {
  Schema schema = TestSchema();
  auto bound = Bind(Expr::Column("b"), schema);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  Row row = {Value(int64_t{7}), Value(2.5), Value("x")};
  auto v = (*bound)->Evaluate(row);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->float64(), 2.5);
  EXPECT_EQ((*bound)->static_type(), DataType::kFloat64);
}

TEST(BoundExprTest, CaseInsensitiveAndQualifiedResolution) {
  Schema schema({{"l.l_suppkey", DataType::kInt64},
                 {"l.l_qty", DataType::kFloat64}});
  Row row = {Value(int64_t{42}), Value(3.0)};
  for (const char* name :
       {"l_suppkey", "L_SUPPKEY", "l.l_suppkey", "L.L_SUPPKEY"}) {
    auto bound = Bind(Expr::Column(name), schema);
    ASSERT_TRUE(bound.ok()) << name << ": " << bound.status().ToString();
    auto v = (*bound)->Evaluate(row);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v->int64(), 42) << name;
  }
}

TEST(BoundExprTest, UnknownColumnFailsAtBind) {
  auto bound = Bind(Expr::Column("nope"), TestSchema());
  ASSERT_FALSE(bound.ok());
  EXPECT_TRUE(bound.status().IsNotFound()) << bound.status().ToString();
  // Same status the interpreter raises per row.
  Row row = {Value(int64_t{1}), Value(2.0), Value("x")};
  auto interp = Expr::Column("nope")->Evaluate(TestSchema(), row);
  EXPECT_EQ(bound.status(), interp.status());
}

TEST(BoundExprTest, AmbiguousColumnFailsAtBind) {
  Schema schema({{"t.x", DataType::kInt64}, {"u.x", DataType::kInt64}});
  auto bound = Bind(Expr::Column("x"), schema);
  ASSERT_FALSE(bound.ok());
  EXPECT_TRUE(bound.status().IsInvalidArgument()) << bound.status().ToString();
  Row row = {Value(int64_t{1}), Value(int64_t{2})};
  auto interp = Expr::Column("x")->Evaluate(schema, row);
  EXPECT_EQ(bound.status(), interp.status());
  // A qualified reference disambiguates.
  EXPECT_TRUE(Bind(Expr::Column("u.x"), schema).ok());
}

TEST(BoundExprTest, NullExprRejected) {
  EXPECT_FALSE(Bind(nullptr, TestSchema()).ok());
}

// ---------------------------------------------------------------------
// Constant folding
// ---------------------------------------------------------------------

TEST(BoundExprTest, LiteralArithmeticFolds) {
  auto bound = Bind(Expr::Binary(BinaryOp::kAdd, Expr::Literal(Value(int64_t{1})),
                                 Expr::Literal(Value(int64_t{2}))),
                    TestSchema());
  ASSERT_TRUE(bound.ok());
  const Value* lit = (*bound)->literal();
  ASSERT_NE(lit, nullptr) << "1 + 2 should fold to a literal";
  EXPECT_EQ(lit->int64(), 3);
  // Folded nodes evaluate without touching the row.
  auto v = (*bound)->Evaluate(Row{});
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->int64(), 3);
}

TEST(BoundExprTest, ConstantFunctionFolds) {
  auto bound = Bind(Expr::Function("upper", {Expr::Literal(Value("abc"))}),
                    TestSchema());
  ASSERT_TRUE(bound.ok());
  const Value* lit = (*bound)->literal();
  ASSERT_NE(lit, nullptr);
  EXPECT_EQ(lit->str(), "ABC");
}

TEST(BoundExprTest, ConstantErrorPreservedUntilEval) {
  // 1/0 must bind (zero-row inputs never evaluate it) but must raise the
  // interpreter's exact division error when evaluated.
  auto bound = Bind(Expr::Binary(BinaryOp::kDiv, Expr::Literal(Value(int64_t{1})),
                                 Expr::Literal(Value(int64_t{0}))),
                    TestSchema());
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  EXPECT_EQ((*bound)->literal(), nullptr);
  auto v = (*bound)->Evaluate(Row{});
  ASSERT_FALSE(v.ok());
  auto interp = Expr::Binary(BinaryOp::kDiv, Expr::Literal(Value(int64_t{1})),
                             Expr::Literal(Value(int64_t{0})))
                    ->Evaluate(TestSchema(), Row{});
  EXPECT_EQ(v.status(), interp.status());
}

TEST(BoundExprTest, ShortCircuitFoldSkipsDeadBranch) {
  // The interpreter never evaluates the rhs of `false AND x`, so binding
  // must not fail on it either — even when x is an unknown column or a
  // constant error.
  auto dead_col = Expr::Binary(BinaryOp::kAnd, Expr::Literal(Value(int64_t{0})),
                               Expr::Column("no_such_column"));
  auto bound = Bind(dead_col, TestSchema());
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  const Value* lit = (*bound)->literal();
  ASSERT_NE(lit, nullptr);
  EXPECT_EQ(lit->int64(), 0);

  auto dead_err = Expr::Binary(
      BinaryOp::kOr, Expr::Literal(Value(int64_t{1})),
      Expr::Binary(BinaryOp::kDiv, Expr::Literal(Value(int64_t{1})),
                   Expr::Literal(Value(int64_t{0}))));
  auto bound_or = Bind(dead_err, TestSchema());
  ASSERT_TRUE(bound_or.ok()) << bound_or.status().ToString();
  ASSERT_NE((*bound_or)->literal(), nullptr);
  EXPECT_EQ((*bound_or)->literal()->int64(), 1);
}

// ---------------------------------------------------------------------
// Kleene logic and NULL propagation (explicit truth tables)
// ---------------------------------------------------------------------

Value Tri(int t) {
  if (t < 0) return Value::Null();
  return Value(static_cast<int64_t>(t));
}

TEST(BoundExprTest, KleeneAndOrTruthTable) {
  Schema schema = TestSchema();
  Row row = {Value(int64_t{0}), Value(0.0), Value("")};
  for (int l = -1; l <= 1; ++l) {
    for (int r = -1; r <= 1; ++r) {
      for (BinaryOp op : {BinaryOp::kAnd, BinaryOp::kOr}) {
        auto e = Expr::Binary(op, Expr::Literal(Tri(l)), Expr::Literal(Tri(r)));
        auto interp = e->Evaluate(schema, row);
        auto bound = Bind(e, schema);
        ASSERT_TRUE(bound.ok());
        auto v = (*bound)->Evaluate(row);
        ASSERT_TRUE(interp.ok());
        ASSERT_TRUE(v.ok());
        EXPECT_EQ(v->type(), interp->type()) << "l=" << l << " r=" << r;
        EXPECT_EQ(v->Compare(*interp), 0) << "l=" << l << " r=" << r;
      }
    }
  }
}

TEST(BoundExprTest, NullPropagatesThroughArithmeticAndComparison) {
  Schema schema = TestSchema();
  Row row = {Value::Null(), Value(1.5), Value("x")};
  for (BinaryOp op : {BinaryOp::kAdd, BinaryOp::kMul, BinaryOp::kLt,
                      BinaryOp::kEq, BinaryOp::kLike}) {
    auto e = Expr::Binary(op, Expr::Column("a"), Expr::Column("s"));
    auto bound = Bind(e, schema);
    ASSERT_TRUE(bound.ok());
    auto v = (*bound)->Evaluate(row);
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    EXPECT_TRUE(v->is_null());
  }
}

TEST(BoundExprTest, TypeErrorsMatchInterpreter) {
  Schema schema = TestSchema();
  Row row = {Value(int64_t{1}), Value(2.0), Value("abc")};
  // string + int, string < int after promotion failure, LIKE on numbers.
  std::vector<ExprPtr> bad = {
      Expr::Binary(BinaryOp::kAdd, Expr::Column("s"), Expr::Column("a")),
      Expr::Binary(BinaryOp::kLike, Expr::Column("a"), Expr::Column("b")),
      Expr::Function("abs", {Expr::Column("s")}),
      Expr::Function("substr", {Expr::Column("s"), Expr::Column("s"),
                                Expr::Column("s")}),
  };
  for (const auto& e : bad) {
    auto interp = e->Evaluate(schema, row);
    ASSERT_FALSE(interp.ok()) << e->ToString();
    EXPECT_TRUE(interp.status().IsApplication()) << interp.status().ToString();
    auto bound = Bind(e, schema);
    ASSERT_TRUE(bound.ok()) << e->ToString();
    auto v = (*bound)->Evaluate(row);
    ASSERT_FALSE(v.ok()) << e->ToString();
    EXPECT_EQ(v.status(), interp.status()) << e->ToString();
  }
}

// ---------------------------------------------------------------------
// Batch evaluation and predicate semantics
// ---------------------------------------------------------------------

TEST(BoundExprTest, EvaluateColumnMatchesPerRow) {
  Schema schema = TestSchema();
  std::vector<Row> rows;
  for (int i = 0; i < 10; ++i) {
    rows.push_back({Value(static_cast<int64_t>(i)), Value(i * 0.5),
                    Value(std::string(1, static_cast<char>('a' + i)))});
  }
  auto e = Expr::Binary(BinaryOp::kMul, Expr::Column("b"),
                        Expr::Literal(Value(2.0)));
  auto bound = Bind(e, schema);
  ASSERT_TRUE(bound.ok());
  Batch batch;
  batch.schema = schema;
  batch.rows = rows;
  Result<ColumnBatch> cb = ToColumnBatch(batch);
  ASSERT_TRUE(cb.ok()) << cb.status().ToString();
  ColumnVector out;
  ASSERT_TRUE((*bound)->EvaluateVector(*cb, &out).ok());
  ASSERT_EQ(out.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    auto v = (*bound)->Evaluate(rows[i]);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(out.GetValue(i).Compare(*v), 0);
  }
  // Reuse resets the output column instead of appending to it.
  ASSERT_TRUE((*bound)->EvaluateVector(*cb, &out).ok());
  EXPECT_EQ(out.size(), rows.size());
}

TEST(BoundExprTest, BoundPredicateMatchesInterpretedPredicate) {
  Schema schema = TestSchema();
  std::vector<Value> cases = {Value::Null(),  Value(int64_t{0}),
                              Value(int64_t{5}), Value(0.0), Value(2.5),
                              Value(""),      Value("yes")};
  for (const Value& v : cases) {
    auto e = Expr::Literal(v);
    auto bound = Bind(e, schema);
    ASSERT_TRUE(bound.ok());
    auto want = EvaluatePredicate(*e, schema, Row{});
    auto got = EvaluateBoundPredicate(**bound, Row{});
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, *want) << v.ToString();
  }
}

TEST(BoundExprTest, EvalBoundKeysReusesStorage) {
  Schema schema = TestSchema();
  auto keys = BindAll({Expr::Column("a"), Expr::Column("s")}, schema);
  ASSERT_TRUE(keys.ok());
  Row key;
  Row row1 = {Value(int64_t{1}), Value(0.5), Value("p")};
  Row row2 = {Value(int64_t{2}), Value(1.5), Value("q")};
  ASSERT_TRUE(EvalBoundKeys(*keys, row1, &key).ok());
  ASSERT_EQ(key.size(), 2u);
  EXPECT_EQ(key[0].int64(), 1);
  EXPECT_EQ(key[1].str(), "p");
  ASSERT_TRUE(EvalBoundKeys(*keys, row2, &key).ok());
  ASSERT_EQ(key.size(), 2u);
  EXPECT_EQ(key[0].int64(), 2);
  EXPECT_EQ(key[1].str(), "q");
}

// ---------------------------------------------------------------------
// Parity property test: random trees x random rows
// ---------------------------------------------------------------------

ExprPtr RandomLeaf(Rng* rng) {
  switch (rng->UniformInt(0, 6)) {
    case 0:
      return Expr::Column("a");
    case 1:
      return Expr::Column("b");
    case 2:
      return Expr::Column("s");
    case 3:
      return Expr::Literal(Value::Null());
    case 4:
      return Expr::Literal(Value(rng->UniformInt(-3, 3)));
    case 5:
      return Expr::Literal(Value(rng->Uniform(-4.0, 4.0)));
    default: {
      static const char* kStrings[] = {"", "a", "ab", "%a%", "a_"};
      return Expr::Literal(Value(kStrings[rng->UniformInt(0, 4)]));
    }
  }
}

ExprPtr RandomExpr(Rng* rng, int depth) {
  if (depth <= 0 || rng->Bernoulli(0.25)) return RandomLeaf(rng);
  switch (rng->UniformInt(0, 3)) {
    case 0: {  // binary: every op including AND/OR/LIKE
      auto op = static_cast<BinaryOp>(rng->UniformInt(
          static_cast<int64_t>(BinaryOp::kAdd),
          static_cast<int64_t>(BinaryOp::kLike)));
      return Expr::Binary(op, RandomExpr(rng, depth - 1),
                          RandomExpr(rng, depth - 1));
    }
    case 1: {  // unary
      auto op = rng->Bernoulli(0.5) ? UnaryOp::kNot : UnaryOp::kNeg;
      return Expr::Unary(op, RandomExpr(rng, depth - 1));
    }
    default: {  // function
      switch (rng->UniformInt(0, 5)) {
        case 0:
          return Expr::Function("is_null", {RandomExpr(rng, depth - 1)});
        case 1: {
          std::vector<ExprPtr> args;
          const int n = static_cast<int>(rng->UniformInt(1, 3));
          for (int i = 0; i < n; ++i) args.push_back(RandomExpr(rng, depth - 1));
          return Expr::Function("coalesce", std::move(args));
        }
        case 2:
          return Expr::Function("substr",
                                {RandomExpr(rng, depth - 1),
                                 Expr::Literal(Value(rng->UniformInt(-1, 3))),
                                 Expr::Literal(Value(rng->UniformInt(0, 4)))});
        case 3:
          return Expr::Function("lower", {RandomExpr(rng, depth - 1)});
        case 4:
          return Expr::Function("upper", {RandomExpr(rng, depth - 1)});
        default:
          return Expr::Function("abs", {RandomExpr(rng, depth - 1)});
      }
    }
  }
}

// Rows deliberately ignore the declared column types: the interpreter is
// dynamically typed, and mismatched runtime values force the bound
// evaluator's typed fast paths through their generic fallbacks.
Value RandomValue(Rng* rng) {
  switch (rng->UniformInt(0, 3)) {
    case 0:
      return Value::Null();
    case 1:
      return Value(rng->UniformInt(-3, 3));
    case 2:
      return Value(rng->Uniform(-4.0, 4.0));
    default: {
      static const char* kStrings[] = {"", "a", "ab", "ABC", "%a%"};
      return Value(kStrings[rng->UniformInt(0, 4)]);
    }
  }
}

Row RandomRow(Rng* rng) {
  Row row;
  for (int c = 0; c < 3; ++c) row.push_back(RandomValue(rng));
  return row;
}

class BoundExprParityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BoundExprParityTest, BoundMatchesInterpreted) {
  Rng rng(GetParam());
  Schema schema = TestSchema();
  for (int tree = 0; tree < 40; ++tree) {
    ExprPtr e = RandomExpr(&rng, 4);
    auto bound = Bind(e, schema);
    // The generator only references existing columns, so binding cannot
    // fail on resolution; any other bind error would be a parity bug.
    ASSERT_TRUE(bound.ok()) << e->ToString() << "\n"
                            << bound.status().ToString();
    std::vector<Row> rows;
    for (int r = 0; r < 25; ++r) rows.push_back(RandomRow(&rng));
    Status first_error = Status::OK();
    for (const Row& row : rows) {
      auto interp = e->Evaluate(schema, row);
      auto v = (*bound)->Evaluate(row);
      ASSERT_EQ(v.ok(), interp.ok())
          << e->ToString() << "\ninterp: " << interp.status().ToString()
          << "\nbound:  " << v.status().ToString();
      if (!interp.ok()) {
        EXPECT_EQ(v.status(), interp.status()) << e->ToString();
        if (first_error.ok()) first_error = interp.status();
        continue;
      }
      EXPECT_EQ(v->type(), interp->type()) << e->ToString();
      EXPECT_EQ(v->Compare(*interp), 0)
          << e->ToString() << "\ninterp: " << interp->ToString()
          << "\nbound:  " << v->ToString();

      // Predicate wrappers agree as well.
      auto pi = EvaluatePredicate(*e, schema, row);
      auto pb = EvaluateBoundPredicate(**bound, row);
      ASSERT_EQ(pb.ok(), pi.ok()) << e->ToString();
      if (pi.ok()) {
        EXPECT_EQ(*pb, *pi) << e->ToString();
      }
    }
    // Columnar evaluation: succeeds iff every row succeeded.
    Batch batch;
    batch.schema = schema;
    batch.rows = rows;
    Result<ColumnBatch> cb = ToColumnBatch(batch);
    ASSERT_TRUE(cb.ok()) << cb.status().ToString();
    ColumnVector col;
    Status st = (*bound)->EvaluateVector(*cb, &col);
    ASSERT_EQ(st.ok(), first_error.ok())
        << e->ToString() << "\n" << st.ToString();
    if (st.ok()) {
      ASSERT_EQ(col.size(), rows.size());
      for (std::size_t i = 0; i < rows.size(); ++i) {
        auto interp = e->Evaluate(schema, rows[i]);
        EXPECT_EQ(col.GetValue(i).Compare(*interp), 0) << e->ToString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundExprParityTest,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace swift
