// Bound-expression compilation tests: ordinal binding, type checking,
// constant folding, and a parity property test pitting
// BoundExpr::EvaluateVector against the row-at-a-time reference
// interpreter (ref::Evaluate in reference_ops.h) on random well-typed
// expression trees and random well-typed rows, as a dense batch, under a
// selection vector, and one row at a time: results (float64 ones bit
// for bit), NULL propagation, Kleene AND/OR, and error statuses must be
// identical, and every result column must have its node's static type
// as its rep. The same generator draws ill-typed trees, which Bind must
// reject.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/rng.h"
#include "exec/bound_expr.h"
#include "exec/column_batch.h"
#include "exec/expression.h"
#include "exec/operators.h"
#include "reference_ops.h"

namespace swift {
namespace {

Schema TestSchema() {
  return Schema({{"a", DataType::kInt64},
                 {"b", DataType::kFloat64},
                 {"s", DataType::kString}});
}

ColumnBatch ToColumns(const Schema& schema, std::vector<Row> rows) {
  Batch b;
  b.schema = schema;
  b.rows = std::move(rows);
  Result<ColumnBatch> cb = ToColumnBatch(b);
  EXPECT_TRUE(cb.ok()) << cb.status().ToString();
  return cb.ok() ? *std::move(cb) : ColumnBatch();
}

// Evaluates `bound` on `row` alone, as a one-row batch whose column
// must have the static type as its rep.
Result<Value> EvalRow(const BoundExpr& bound, const Schema& schema,
                      const Row& row) {
  ColumnVector out;
  SWIFT_RETURN_NOT_OK(bound.EvaluateVector(ToColumns(schema, {row}), &out));
  if (out.size() != 1) return Status::Internal("expected one output row");
  if (out.rep() != static_cast<ColumnRep>(bound.static_type())) {
    return Status::Internal("column rep differs from the static type");
  }
  return out.GetValue(0);
}

// ---------------------------------------------------------------------
// Ordinal binding
// ---------------------------------------------------------------------

TEST(BoundExprTest, ColumnBindsToOrdinal) {
  Schema schema = TestSchema();
  auto bound = Bind(Expr::Column("b"), schema);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  Row row = {Value(int64_t{7}), Value(2.5), Value("x")};
  auto v = EvalRow(**bound, schema, row);
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
    auto v = EvalRow(**bound, schema, row);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v->int64(), 42) << name;
  }
}

TEST(BoundExprTest, UnknownColumnFailsAtBind) {
  auto bound = Bind(Expr::Column("nope"), TestSchema());
  ASSERT_FALSE(bound.ok());
  EXPECT_TRUE(bound.status().IsNotFound()) << bound.status().ToString();
  // Same status a per-row name lookup raises.
  Row row = {Value(int64_t{1}), Value(2.0), Value("x")};
  auto interp = ref::Evaluate(Expr::Column("nope"), TestSchema(), row);
  EXPECT_EQ(bound.status(), interp.status());
}

TEST(BoundExprTest, AmbiguousColumnFailsAtBind) {
  Schema schema({{"t.x", DataType::kInt64}, {"u.x", DataType::kInt64}});
  auto bound = Bind(Expr::Column("x"), schema);
  ASSERT_FALSE(bound.ok());
  EXPECT_TRUE(bound.status().IsInvalidArgument()) << bound.status().ToString();
  Row row = {Value(int64_t{1}), Value(int64_t{2})};
  auto interp = ref::Evaluate(Expr::Column("x"), schema, row);
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
  // Folded nodes evaluate without touching the columns.
  ColumnBatch no_columns;
  no_columns.physical_rows = 1;
  ColumnVector out;
  ASSERT_TRUE((*bound)->EvaluateVector(no_columns, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.GetValue(0).int64(), 3);
}

// int64 + - * wrap modulo 2^64, column and folded literal alike, and the
// row oracle agrees; neither overflows (the UBSan build aborts if so).
TEST(BoundExprTest, Int64ArithmeticWrapsAtTheLimits) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  const Schema schema = TestSchema();
  const auto col = Expr::Column("a");
  const auto lit = [](int64_t v) { return Expr::Literal(Value(v)); };
  const auto bin = [](BinaryOp op, ExprPtr l, ExprPtr r) {
    return Expr::Binary(op, std::move(l), std::move(r));
  };
  struct Case {
    ExprPtr e;
    int64_t a;
    int64_t want;
  };
  const std::vector<Case> cases = {
      {bin(BinaryOp::kAdd, col, lit(1)), kMax, kMin},
      {bin(BinaryOp::kAdd, col, col), kMin, 0},
      {bin(BinaryOp::kSub, col, lit(1)), kMin, kMax},
      {bin(BinaryOp::kSub, lit(0), col), kMin, kMin},
      {bin(BinaryOp::kMul, col, lit(2)), kMax, -2},
      {bin(BinaryOp::kMul, col, lit(-1)), kMin, kMin},
      {bin(BinaryOp::kMul, col, col), kMin, 0},
      {bin(BinaryOp::kAdd, lit(kMax), lit(kMax)), 0, -2},
      {bin(BinaryOp::kSub, lit(kMin), lit(kMax)), 0, 1},
  };
  for (const Case& c : cases) {
    const Row row = {Value(c.a), Value(0.0), Value("x")};
    auto bound = Bind(c.e, schema);
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    auto got = EvalRow(**bound, schema, row);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->int64(), c.want) << c.e->ToString() << " at a=" << c.a;
    auto want = ref::Evaluate(c.e, schema, row);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_EQ(want->int64(), c.want) << c.e->ToString() << " at a=" << c.a;
  }
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
  // exact per-row division error on any non-empty batch.
  auto e = Expr::Binary(BinaryOp::kDiv, Expr::Literal(Value(int64_t{1})),
                        Expr::Literal(Value(int64_t{0})));
  auto bound = Bind(e, TestSchema());
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  EXPECT_EQ((*bound)->literal(), nullptr);
  const Row row = {Value(int64_t{1}), Value(2.0), Value("x")};
  auto v = EvalRow(**bound, TestSchema(), row);
  ASSERT_FALSE(v.ok());
  auto interp = ref::Evaluate(e, TestSchema(), row);
  EXPECT_EQ(v.status(), interp.status());
  ColumnVector out;
  EXPECT_TRUE(
      (*bound)->EvaluateVector(ToColumns(TestSchema(), {}), &out).ok());
}

TEST(BoundExprTest, ShortCircuitFoldSkipsDeadBranch) {
  // Row semantics never evaluate the rhs of `false AND x`, so binding
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
        auto interp = ref::Evaluate(e, schema, row);
        auto bound = Bind(e, schema);
        ASSERT_TRUE(bound.ok());
        auto v = EvalRow(**bound, schema, row);
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
    // A NULL int64 cell against a float64 one, or (LIKE) a NULL literal
    // against a string.
    auto e = op == BinaryOp::kLike
                 ? Expr::Binary(op, Expr::Literal(Value::Null()),
                                Expr::Column("s"))
                 : Expr::Binary(op, Expr::Column("a"), Expr::Column("b"));
    auto bound = Bind(e, schema);
    ASSERT_TRUE(bound.ok());
    auto v = EvalRow(**bound, schema, row);
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    EXPECT_TRUE(v->is_null());
  }
}

TEST(BoundExprTest, TypeErrorsMatchInterpreter) {
  // Each tree the row interpreter fails on every row with a type error
  // (Status::Application) is ill-typed, and Bind rejects it first, as
  // InvalidArgument naming the expression.
  Schema schema = TestSchema();
  Row row = {Value(int64_t{1}), Value(2.0), Value("abc")};
  // string + int, LIKE on numbers, abs of a string, substr of strings.
  std::vector<ExprPtr> bad = {
      Expr::Binary(BinaryOp::kAdd, Expr::Column("s"), Expr::Column("a")),
      Expr::Binary(BinaryOp::kLike, Expr::Column("a"), Expr::Column("b")),
      Expr::Function("abs", {Expr::Column("s")}),
      Expr::Function("substr", {Expr::Column("s"), Expr::Column("s"),
                                Expr::Column("s")}),
  };
  for (const auto& e : bad) {
    auto interp = ref::Evaluate(e, schema, row);
    ASSERT_FALSE(interp.ok()) << e->ToString();
    EXPECT_TRUE(interp.status().IsApplication()) << interp.status().ToString();
    auto bound = Bind(e, schema);
    ASSERT_FALSE(bound.ok()) << e->ToString();
    EXPECT_TRUE(bound.status().IsInvalidArgument())
        << bound.status().ToString();
    EXPECT_NE(bound.status().message().find(e->ToString()), std::string::npos)
        << bound.status().ToString();
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
    auto v = ref::Evaluate(e, schema, rows[i]);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(out.GetValue(i).Compare(*v), 0);
  }
  // Reuse resets the output column instead of appending to it.
  ASSERT_TRUE((*bound)->EvaluateVector(*cb, &out).ok());
  EXPECT_EQ(out.size(), rows.size());
}

TEST(BoundExprTest, BoundPredicateMatchesInterpretedPredicate) {
  // The filter operator keeps a row exactly when the reference predicate
  // holds: NULL and zero/empty are false.
  Schema schema = TestSchema();
  const Row row = {Value(int64_t{1}), Value(0.5), Value("p")};
  std::vector<Value> cases = {Value::Null(),  Value(int64_t{0}),
                              Value(int64_t{5}), Value(0.0), Value(2.5),
                              Value(""),      Value("yes")};
  for (const Value& v : cases) {
    auto e = Expr::Literal(v);
    auto want = ref::Predicate(e, schema, row);
    ASSERT_TRUE(want.ok());
    Batch in;
    in.schema = schema;
    in.rows = {row};
    OperatorPtr filter = MakeFilter(MakeBatchSource(schema, {in}), e);
    auto got = CollectAll(filter.get());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->rows.size(), *want ? 1u : 0u) << v.ToString();
  }
}

// ---------------------------------------------------------------------
// Parity property test: random trees x random rows
// ---------------------------------------------------------------------

// The parity schema adds an all-NULL column `n` of type kNull.
Schema ParitySchema() {
  return Schema({{"a", DataType::kInt64},
                 {"b", DataType::kFloat64},
                 {"s", DataType::kString},
                 {"n", DataType::kNull}});
}

// Strings for literals and cells. "ABC" vs "ab" orders differently by
// bytes than by length, and the two-byte "\xc3\xa9" sorts above every
// ASCII string only under an unsigned byte order.
const char* const kStringPool[] = {"",   "a",  "ab",       "ABC",
                                   "%a%", "a_", "\xc3\xa9"};
constexpr int64_t kStringPoolSize = 7;

Value RandomString(Rng* rng) {
  return Value(kStringPool[rng->UniformInt(0, kStringPoolSize - 1)]);
}

// A float64 for literals and cells: -0.0 and NaN among small values.
Value RandomDouble(Rng* rng) {
  switch (rng->UniformInt(0, 7)) {
    case 0:
      return Value(-0.0);
    case 1:
      return Value(std::numeric_limits<double>::quiet_NaN());
    default:
      return Value(rng->Uniform(-4.0, 4.0));
  }
}

// The operand class a generated tree must fit: a number, a string, or
// anything. An all-NULL (kNull) tree fits every class, as in Bind.
enum class Want { kNumber, kString, kAny };

Want RandomClass(Rng* rng) {
  return rng->Bernoulli(0.5) ? Want::kNumber : Want::kString;
}

ExprPtr RandomLeaf(Rng* rng, Want want) {
  if (want == Want::kAny) want = RandomClass(rng);
  switch (rng->UniformInt(0, 3)) {
    case 0:
      return Expr::Literal(Value::Null());
    case 1:
      return Expr::Column("n");
    default:
      break;
  }
  if (want == Want::kString) {
    return rng->Bernoulli(0.5) ? Expr::Column("s")
                               : Expr::Literal(RandomString(rng));
  }
  switch (rng->UniformInt(0, 3)) {
    case 0:
      return Expr::Column("a");
    case 1:
      return Expr::Column("b");
    case 2:
      return Expr::Literal(Value(rng->UniformInt(-3, 3)));
    default:
      return Expr::Literal(RandomDouble(rng));
  }
}

// A start/length argument of substr: small ints (or NULL) only, so the
// reference's double -> int64 cast stays defined.
ExprPtr RandomSubstrArg(Rng* rng) {
  switch (rng->UniformInt(0, 3)) {
    case 0:
      return Expr::Column("a");
    case 1:
      return Expr::Literal(Value::Null());
    default:
      return Expr::Literal(Value(rng->UniformInt(-1, 4)));
  }
}

// A random well-typed tree of class `want`, covering every node kind.
ExprPtr RandomExpr(Rng* rng, int depth, Want want) {
  if (depth <= 0 || rng->Bernoulli(0.25)) return RandomLeaf(rng, want);
  if (want == Want::kAny) want = RandomClass(rng);
  const auto sub = [&](Want w) { return RandomExpr(rng, depth - 1, w); };
  if (want == Want::kString) {
    switch (rng->UniformInt(0, 3)) {
      case 0:
        return Expr::Function(
            "substr", {sub(Want::kString), RandomSubstrArg(rng),
                       RandomSubstrArg(rng)});
      case 1:
        return Expr::Function(rng->Bernoulli(0.5) ? "lower" : "upper",
                              {sub(Want::kString)});
      default: {
        std::vector<ExprPtr> args;
        const int n = static_cast<int>(rng->UniformInt(1, 3));
        for (int i = 0; i < n; ++i) args.push_back(sub(Want::kString));
        return Expr::Function("coalesce", std::move(args));
      }
    }
  }
  switch (rng->UniformInt(0, 8)) {
    case 0:
    case 1: {  // arithmetic
      const auto op = static_cast<BinaryOp>(
          rng->UniformInt(static_cast<int64_t>(BinaryOp::kAdd),
                          static_cast<int64_t>(BinaryOp::kDiv)));
      return Expr::Binary(op, sub(Want::kNumber), sub(Want::kNumber));
    }
    case 2: {  // comparison, of numbers or of strings
      const auto op = static_cast<BinaryOp>(
          rng->UniformInt(static_cast<int64_t>(BinaryOp::kEq),
                          static_cast<int64_t>(BinaryOp::kGe)));
      const Want side = RandomClass(rng);
      return Expr::Binary(op, sub(side), sub(side));
    }
    case 3:
      return Expr::Binary(BinaryOp::kLike, sub(Want::kString),
                          sub(Want::kString));
    case 4:
      return Expr::Binary(rng->Bernoulli(0.5) ? BinaryOp::kAnd : BinaryOp::kOr,
                          sub(Want::kAny), sub(Want::kAny));
    case 5:
      return rng->Bernoulli(0.5) ? Expr::Unary(UnaryOp::kNot, sub(Want::kAny))
                                 : Expr::Unary(UnaryOp::kNeg,
                                               sub(Want::kNumber));
    case 6:
      return rng->Bernoulli(0.5)
                 ? Expr::Function("is_null", {sub(Want::kAny)})
                 : Expr::Function("abs", {sub(Want::kNumber)});
    default: {
      std::vector<ExprPtr> args;
      const int n = static_cast<int>(rng->UniformInt(1, 3));
      for (int i = 0; i < n; ++i) args.push_back(sub(Want::kNumber));
      return Expr::Function("coalesce", std::move(args));
    }
  }
}

// A tree that is never all-NULL: a number (kString false) or a string.
ExprPtr RandomTyped(Rng* rng, int depth, bool string) {
  if (string) {
    if (depth > 0 && rng->Bernoulli(0.4)) {
      return Expr::Function(rng->Bernoulli(0.5) ? "lower" : "upper",
                            {RandomTyped(rng, depth - 1, true)});
    }
    return rng->Bernoulli(0.5) ? Expr::Column("s")
                               : Expr::Literal(RandomString(rng));
  }
  if (depth > 0 && rng->Bernoulli(0.4)) {
    return Expr::Binary(BinaryOp::kMul, RandomTyped(rng, depth - 1, false),
                        RandomExpr(rng, depth - 1, Want::kNumber));
  }
  switch (rng->UniformInt(0, 2)) {
    case 0:
      return Expr::Column("a");
    case 1:
      return Expr::Column("b");
    default:
      return Expr::Literal(Value(rng->UniformInt(-3, 3)));
  }
}

// One ill-typed node over well-typed operands, covering every rule Bind
// enforces: a string in arithmetic or under `-`/abs, a string compared
// with a number, LIKE on a number, coalesce mixing numbers and strings,
// a wrong argument type or count, and an unknown function.
ExprPtr RandomIllTyped(Rng* rng, int depth) {
  const auto str = [&] { return RandomTyped(rng, depth, true); };
  const auto num = [&] { return RandomTyped(rng, depth, false); };
  const auto any = [&] { return RandomExpr(rng, depth, Want::kAny); };
  const bool flip = rng->Bernoulli(0.5);
  switch (rng->UniformInt(0, 8)) {
    case 0: {
      const auto op = static_cast<BinaryOp>(
          rng->UniformInt(static_cast<int64_t>(BinaryOp::kAdd),
                          static_cast<int64_t>(BinaryOp::kDiv)));
      return flip ? Expr::Binary(op, str(), RandomExpr(rng, depth,
                                                       Want::kNumber))
                  : Expr::Binary(op, RandomExpr(rng, depth, Want::kNumber),
                                 str());
    }
    case 1: {
      const auto op = static_cast<BinaryOp>(
          rng->UniformInt(static_cast<int64_t>(BinaryOp::kEq),
                          static_cast<int64_t>(BinaryOp::kGe)));
      return flip ? Expr::Binary(op, str(), num())
                  : Expr::Binary(op, num(), str());
    }
    case 2:
      return flip ? Expr::Binary(BinaryOp::kLike, num(), any())
                  : Expr::Binary(BinaryOp::kLike,
                                 RandomExpr(rng, depth, Want::kString), num());
    case 3:
      return flip ? Expr::Unary(UnaryOp::kNeg, str())
                  : Expr::Function("abs", {str()});
    case 4: {
      std::vector<ExprPtr> args = {any(), str(), num()};
      if (flip) std::swap(args[1], args[2]);
      return Expr::Function("coalesce", std::move(args));
    }
    case 5:
      return flip ? Expr::Function(rng->Bernoulli(0.5) ? "lower" : "upper",
                                   {num()})
                  : Expr::Function("substr", {num(), RandomSubstrArg(rng),
                                              RandomSubstrArg(rng)});
    case 6:
      return Expr::Function("substr",
                            {RandomExpr(rng, depth, Want::kString), str(),
                             RandomSubstrArg(rng)});
    case 7:
      return flip ? Expr::Function("substr", {str(), RandomSubstrArg(rng)})
                  : Expr::Function("is_null", {any(), any()});
    default:
      return Expr::Function("frobnicate", {any()});
  }
}

// Rows hold NULLs and values of each column's declared type. The int64
// cells stay small, so int64 + - * (whose overflow is undefined) cannot
// overflow in a random tree; PromotionMatchesInterpreted covers int64
// cells beyond 2^53.
Row RandomRow(Rng* rng) {
  const auto null = [&] { return rng->Bernoulli(0.25); };
  return {null() ? Value::Null() : Value(rng->UniformInt(-3, 3)),
          null() ? Value::Null() : RandomDouble(rng),
          null() ? Value::Null() : RandomString(rng), Value::Null()};
}

uint64_t Bits(double d) {
  uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

// Whether `got`, from a column of type `type`, is the reference's
// `want`: equal types and values, a float64 bit for bit (-0.0 and NaN
// included). The reference's coalesce returns its first non-NULL
// argument as it is, so an int64 of a float64 coalesce is compared as
// that int64 in double.
void ExpectSameValue(const Value& got, const Value& want, DataType type,
                     const ExprPtr& e) {
  const Value w = want.is_int64() && type == DataType::kFloat64
                      ? Value(static_cast<double>(want.int64()))
                      : want;
  EXPECT_EQ(got.type(), w.type()) << e->ToString();
  const bool same = got.is_float64() && w.is_float64()
                        ? Bits(got.float64()) == Bits(w.float64())
                        : got.Compare(w) == 0;
  EXPECT_TRUE(same) << e->ToString() << "\nref:   " << w.ToString()
                    << "\nbound: " << got.ToString();
}

class BoundExprParityTest : public ::testing::TestWithParam<uint64_t> {};

// Checks EvaluateVector over `batch` against ref::Evaluate of each of
// its logical rows (`rows[i]` is logical row i): the batch errors iff
// some row errors, and otherwise every value and type matches.
void ExpectBatchMatchesRows(const ExprPtr& e, const BoundExpr& bound,
                            const ColumnBatch& batch,
                            const std::vector<Row>& rows) {
  const Schema schema = ParitySchema();
  bool any_error = false;
  std::vector<Value> want;
  for (const Row& row : rows) {
    auto interp = ref::Evaluate(e, schema, row);
    any_error = any_error || !interp.ok();
    want.push_back(interp.ok() ? *interp : Value::Null());
  }
  ColumnVector col;
  Status st = bound.EvaluateVector(batch, &col);
  ASSERT_EQ(st.ok(), !any_error) << e->ToString() << "\n" << st.ToString();
  if (!st.ok()) return;
  ASSERT_EQ(col.size(), rows.size());
  // The rep is the static type even when every cell is NULL.
  ASSERT_EQ(col.rep(), static_cast<ColumnRep>(bound.static_type()))
      << e->ToString();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    ExpectSameValue(col.GetValue(i), want[i], bound.static_type(), e);
  }
}

// Binds `e` and checks it on `rows` one row at a time, as a dense batch,
// and as a random subset under a selection vector.
void ExpectAllFormsMatch(const ExprPtr& e, const std::vector<Row>& rows,
                         Rng* rng) {
  const Schema schema = ParitySchema();
  auto bound = Bind(e, schema);
  // The tree is well-typed and only references existing columns, so
  // any bind error would be a checker bug.
  ASSERT_TRUE(bound.ok()) << e->ToString() << "\n"
                          << bound.status().ToString();
  // Every value the column holds has the static type (or is NULL).
  const DataType type = (*bound)->static_type();

  // Each row alone: value, type, status and message all match.
  for (const Row& row : rows) {
    auto interp = ref::Evaluate(e, schema, row);
    auto v = EvalRow(**bound, schema, row);
    ASSERT_EQ(v.ok(), interp.ok())
        << e->ToString() << "\nref:   " << interp.status().ToString()
        << "\nbound: " << v.status().ToString();
    if (!interp.ok()) {
      EXPECT_EQ(v.status(), interp.status()) << e->ToString();
      continue;
    }
    EXPECT_TRUE(v->is_null() || v->type() == type) << e->ToString();
    ExpectSameValue(*v, *interp, type, e);
  }

  // The dense batch.
  ExpectBatchMatchesRows(e, **bound, ToColumns(schema, rows), rows);

  // A random subset of the rows, in random order, under a selection
  // vector over storage that also holds unselected decoy rows (whose
  // errors must not count).
  std::vector<Row> physical = rows;
  for (int d = 0; d < 10; ++d) physical.push_back(RandomRow(rng));
  std::vector<uint32_t> sel;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rng->Bernoulli(0.6)) sel.push_back(static_cast<uint32_t>(i));
  }
  for (std::size_t i = sel.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng->UniformInt(0, static_cast<int64_t>(i) - 1));
    std::swap(sel[i - 1], sel[j]);
  }
  std::vector<Row> selected;
  for (const uint32_t i : sel) selected.push_back(rows[i]);
  ColumnBatch under_selection = ToColumns(schema, physical);
  under_selection.selection = std::move(sel);
  ExpectBatchMatchesRows(e, **bound, under_selection, selected);
}

TEST_P(BoundExprParityTest, BoundMatchesInterpreted) {
  Rng rng(GetParam());
  // Every fourth tree is ill-typed: Bind rejects it, naming the node.
  int well_typed = 0;
  int ill_typed = 0;
  for (int tree = 0; tree < 40; ++tree) {
    if (tree % 4 == 3) {
      ExprPtr bad = RandomIllTyped(&rng, 2);
      ExprPtr e = bad;
      if (rng.Bernoulli(0.5)) {  // inside operators that take anything
        e = rng.Bernoulli(0.5) ? Expr::Unary(UnaryOp::kNot, e)
                               : Expr::Function("is_null", {e});
      }
      auto bound = Bind(e, ParitySchema());
      ASSERT_FALSE(bound.ok()) << e->ToString();
      EXPECT_TRUE(bound.status().IsInvalidArgument())
          << bound.status().ToString();
      EXPECT_NE(bound.status().message().find(bad->ToString()),
                std::string::npos)
          << bound.status().ToString();
      ++ill_typed;
      continue;
    }
    ExprPtr e = RandomExpr(&rng, 4, Want::kAny);
    std::vector<Row> rows;
    for (int r = 0; r < 25; ++r) rows.push_back(RandomRow(&rng));
    ExpectAllFormsMatch(e, rows, &rng);
    ++well_typed;
  }
  EXPECT_GT(well_typed, 0);
  EXPECT_GT(ill_typed, 0);
  // Every string comparison and LIKE against every pooled string, so
  // the dense batch runs the kString kernel on every pair.
  std::vector<Row> rows;
  for (int r = 0; r < 25; ++r) rows.push_back(RandomRow(&rng));
  for (const BinaryOp op : {BinaryOp::kEq, BinaryOp::kNe, BinaryOp::kLt,
                            BinaryOp::kLe, BinaryOp::kGt, BinaryOp::kGe,
                            BinaryOp::kLike}) {
    for (const char* lit : kStringPool) {
      ExpectAllFormsMatch(
          Expr::Binary(op, Expr::Column("s"), Expr::Literal(Value(lit))),
          rows, &rng);
    }
  }
}

// The function kernels on their edges, every argument combination of
// the cells below: NULLs (and the kNull column), substr starts below 1
// and past the end, negative and fractional starts and lengths, starts
// and lengths beyond the int64 range or NaN (they saturate), INT64_MIN
// under negation and abs (both wrap), and strings with NUL bytes and
// bytes >= 0x80 (which lower/upper keep).
TEST_P(BoundExprParityTest, FunctionKernelsMatchInterpreted) {
  Rng rng(GetParam());
  const std::vector<Value> ints = {
      Value::Null(),     Value(int64_t{-2}),  Value(int64_t{0}),
      Value(int64_t{1}), Value(int64_t{3}),   Value(int64_t{100}),
      Value(std::numeric_limits<int64_t>::min()),
      Value(std::numeric_limits<int64_t>::max())};
  const std::vector<Value> doubles = {
      Value::Null(), Value(-1.5),  Value(-0.0),   Value(0.5),
      Value(1.7),    Value(2.9),   Value(250.0),  Value(std::nan("")),
      Value(1e300),  Value(-1e300)};
  const std::vector<Value> strings = {
      Value::Null(),       Value(""),
      Value("abc"),        Value("h\xc3\xa9LLo"),
      Value("\xff\xfe" "AbC"), Value(std::string("a\0B", 3)),
      Value("MiXeD cAsE")};
  std::vector<Row> rows;
  for (const Value& a : ints) {
    for (const Value& b : doubles) {
      for (const Value& str : strings) rows.push_back({a, b, str, Value::Null()});
    }
  }
  const auto col = [](const char* name) { return Expr::Column(name); };
  const auto lit = [](Value v) { return Expr::Literal(std::move(v)); };
  const auto fn = [](const char* name, std::vector<ExprPtr> args) {
    return Expr::Function(name, std::move(args));
  };
  const std::vector<ExprPtr> exprs = {
      fn("substr", {col("s"), col("a"), col("a")}),
      fn("substr", {col("s"), col("b"), col("b")}),
      fn("substr", {col("s"), col("a"), col("b")}),
      fn("substr", {col("s"), col("b"), col("a")}),
      fn("substr", {col("s"), lit(Value(1.7)), lit(Value(2.5))}),
      fn("substr", {col("s"), lit(Value(-0.5)), lit(Value(-0.5))}),
      fn("substr", {col("s"), lit(Value(int64_t{0})), lit(Value(int64_t{2}))}),
      fn("substr", {col("s"), lit(Value(int64_t{100})), lit(Value(int64_t{1}))}),
      fn("substr", {col("s"), lit(Value(int64_t{2})), lit(Value(int64_t{-3}))}),
      fn("substr", {col("s"), lit(Value::Null()), lit(Value(int64_t{1}))}),
      fn("substr", {col("s"), col("n"), lit(Value(int64_t{1}))}),
      fn("substr", {col("n"), lit(Value(int64_t{1})), lit(Value(int64_t{1}))}),
      fn("lower", {col("s")}),
      fn("upper", {col("s")}),
      fn("lower", {col("n")}),
      fn("upper", {fn("substr", {col("s"), lit(Value(int64_t{2})),
                                 lit(Value(int64_t{3}))})}),
      fn("abs", {col("a")}),
      fn("abs", {col("b")}),
      fn("abs", {col("n")}),
      fn("abs", {Expr::Unary(UnaryOp::kNeg, col("a"))}),
      fn("is_null", {col("a")}),
      fn("is_null", {col("b")}),
      fn("is_null", {col("s")}),
      fn("is_null", {col("n")}),
      fn("coalesce", {col("a"), col("b")}),
      fn("coalesce", {col("b"), col("a")}),
      fn("coalesce", {col("n"), col("a")}),
      fn("coalesce", {col("a"), lit(Value(int64_t{7}))}),
      fn("coalesce", {col("n"), col("n"), col("b")}),
      fn("coalesce", {col("s"), lit(Value("x"))}),
      fn("coalesce", {col("n"), col("s")}),
      fn("coalesce", {col("n")}),
  };
  for (const ExprPtr& e : exprs) ExpectAllFormsMatch(e, rows, &rng);
}

// Every node where int64 meets float64 (arithmetic both ways round,
// int64 / int64 with zero divisors, comparisons, coalesce, and constant
// int64 sides that fold to float64 literals) over int64 cells beyond
// 2^53 and at the int64 limits against -0.0, NaN, infinities and
// doubles near 2^53; int64 + - * of the same cells wrap on both sides.
TEST_P(BoundExprParityTest, PromotionMatchesInterpreted) {
  Rng rng(GetParam());
  constexpr int64_t kBig = (int64_t{1} << 53) + 1;  // not a double
  const std::vector<Value> ints = {
      Value::Null(),
      Value(int64_t{0}),
      Value(int64_t{1}),
      Value(int64_t{-3}),
      Value(kBig),
      Value(-kBig),
      Value((int64_t{1} << 62) + 1),
      Value(std::numeric_limits<int64_t>::min()),
      Value(std::numeric_limits<int64_t>::max())};
  const std::vector<Value> doubles = {
      Value::Null(),
      Value(-0.0),
      Value(0.0),
      Value(0.5),
      Value(-2.5),
      Value(std::numeric_limits<double>::quiet_NaN()),
      Value(std::numeric_limits<double>::infinity()),
      Value(9007199254740992.0),  // 2^53
      Value(9007199254740994.0),
      Value(1e300)};
  std::vector<Row> rows;
  for (const Value& a : ints) {
    for (const Value& b : doubles) {
      rows.push_back({a, b, Value("x"), Value::Null()});
    }
  }
  const auto col = [](const char* name) { return Expr::Column(name); };
  const auto lit = [](Value v) { return Expr::Literal(std::move(v)); };
  const auto bin = [](BinaryOp op, ExprPtr l, ExprPtr r) {
    return Expr::Binary(op, std::move(l), std::move(r));
  };
  std::vector<ExprPtr> exprs;
  for (const BinaryOp op : {BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul,
                            BinaryOp::kDiv, BinaryOp::kEq, BinaryOp::kNe,
                            BinaryOp::kLt, BinaryOp::kLe, BinaryOp::kGt,
                            BinaryOp::kGe}) {
    exprs.push_back(bin(op, col("a"), col("b")));
    exprs.push_back(bin(op, col("b"), col("a")));
    exprs.push_back(bin(op, lit(Value(kBig)), col("b")));
    exprs.push_back(bin(op, col("a"), lit(Value(9007199254740992.0))));
  }
  for (const BinaryOp op : {BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul}) {
    exprs.push_back(bin(op, col("a"), col("a")));
    exprs.push_back(bin(op, col("a"), lit(Value(kBig))));
  }
  for (const ExprPtr& e :
       {bin(BinaryOp::kDiv, col("a"), col("a")),
        bin(BinaryOp::kDiv, col("a"), lit(Value(int64_t{3}))),
        bin(BinaryOp::kDiv, lit(Value(int64_t{1})), col("a")),
        bin(BinaryOp::kDiv, col("a"), lit(Value(int64_t{0}))),
        bin(BinaryOp::kDiv, lit(Value(kBig)), lit(Value(int64_t{3}))),
        bin(BinaryOp::kSub, lit(Value(int64_t{1})), col("b")),
        bin(BinaryOp::kMul,
            bin(BinaryOp::kDiv, col("a"), lit(Value(int64_t{2}))), col("b")),
        Expr::Function("coalesce", {col("a"), col("b")}),
        Expr::Function("coalesce", {col("b"), col("a")}),
        Expr::Function("coalesce", {col("n"), col("a"), col("b")}),
        Expr::Function("coalesce", {col("a"), lit(Value(1.5))}),
        Expr::Function("coalesce", {lit(Value::Null()), lit(Value(kBig)),
                                    col("b")})}) {
    exprs.push_back(e);
  }
  for (const ExprPtr& e : exprs) ExpectAllFormsMatch(e, rows, &rng);
}

// Where each operand of a kernel sits: literals on either side (read as
// scalars), two columns under one selection (both read in place through
// it), LIKE against a literal pattern and a column pattern, typed NULL
// literals (folded constants with a type), and column arithmetic under
// a selection, each on one-row, dense and selected batches.
TEST_P(BoundExprParityTest, OperandPlacementMatchesInterpreted) {
  Rng rng(GetParam());
  std::vector<Row> rows;
  for (int r = 0; r < 40; ++r) rows.push_back(RandomRow(&rng));
  const auto col = [](const char* name) { return Expr::Column(name); };
  const auto lit = [](Value v) { return Expr::Literal(std::move(v)); };
  const auto bin = [](BinaryOp op, ExprPtr l, ExprPtr r) {
    return Expr::Binary(op, std::move(l), std::move(r));
  };
  const ExprPtr null_int = bin(BinaryOp::kAdd, lit(Value::Null()),
                               lit(Value(int64_t{1})));
  const ExprPtr null_double =
      bin(BinaryOp::kSub, lit(Value::Null()), lit(Value(1.5)));
  const ExprPtr null_string = Expr::Function("lower", {lit(Value::Null())});
  std::vector<ExprPtr> exprs;
  for (const BinaryOp op : {BinaryOp::kEq, BinaryOp::kNe, BinaryOp::kLt,
                            BinaryOp::kLe, BinaryOp::kGt, BinaryOp::kGe}) {
    exprs.push_back(bin(op, lit(Value(int64_t{1})), col("a")));
    exprs.push_back(bin(op, lit(Value(0.5)), col("b")));
    exprs.push_back(bin(op, lit(Value("ab")), col("s")));
    exprs.push_back(bin(op, col("a"), col("a")));
    exprs.push_back(bin(op, col("b"), col("b")));
    exprs.push_back(bin(op, col("s"), col("s")));
    exprs.push_back(bin(op, col("a"), col("b")));
    exprs.push_back(bin(op, col("a"), null_int));
    exprs.push_back(bin(op, null_double, col("b")));
    exprs.push_back(bin(op, col("s"), null_string));
  }
  for (const char* pattern : {"%a%", "a_", "", "\xc3%"}) {
    exprs.push_back(bin(BinaryOp::kLike, col("s"), lit(Value(pattern))));
  }
  exprs.push_back(bin(BinaryOp::kLike, lit(Value("ab")), col("s")));
  exprs.push_back(bin(BinaryOp::kLike, col("s"), col("s")));
  exprs.push_back(bin(BinaryOp::kLike, col("s"), null_string));
  for (const BinaryOp op : {BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul,
                            BinaryOp::kDiv}) {
    exprs.push_back(bin(op, col("a"), lit(Value(int64_t{2}))));
    exprs.push_back(bin(op, lit(Value(int64_t{2})), col("a")));
    exprs.push_back(bin(op, col("b"), col("b")));
    exprs.push_back(bin(op, col("a"), col("b")));
    exprs.push_back(bin(op, lit(Value(-2.5)), col("b")));
    exprs.push_back(bin(op, col("a"), null_int));
    exprs.push_back(bin(op, null_double, col("b")));
  }
  exprs.push_back(Expr::Unary(UnaryOp::kNeg, col("a")));
  exprs.push_back(Expr::Unary(UnaryOp::kNeg, col("b")));
  exprs.push_back(Expr::Unary(UnaryOp::kNot, col("s")));
  exprs.push_back(bin(BinaryOp::kAnd, col("a"), col("s")));
  exprs.push_back(bin(BinaryOp::kOr, col("b"), null_int));
  exprs.push_back(bin(BinaryOp::kAnd,
                      bin(BinaryOp::kLt, lit(Value(int64_t{0})), col("a")),
                      bin(BinaryOp::kEq, lit(Value("a")), col("s"))));
  for (const ExprPtr& e : exprs) ExpectAllFormsMatch(e, rows, &rng);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundExprParityTest,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace swift
