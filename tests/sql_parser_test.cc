#include "sql/parser.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "sql/lexer.h"

namespace swift {
namespace {

// The paper's Fig. 1: TPC-H Q9 in the Swift language.
constexpr const char* kQ9 = R"(
select nation, o_year, sum(amount) as sum_profit
from (
  select n_name as nation, substr(o_orderdate, 1, 4) as o_year,
    l_extendedprice * (1 - l_discount) - ps_supplycost * l_quantity as amount
  from tpch_supplier s
  join tpch_lineitem l on s.s_suppkey = l.l_suppkey
  join tpch_partsupp ps on ps.ps_suppkey = l.l_suppkey and ps.ps_partkey = l.l_partkey
  join tpch_part p on p.p_partkey = l.l_partkey
  join tpch_orders o on o.o_orderkey = l.l_orderkey
  join tpch_nation n on s.s_nationkey = n.n_nationkey
  where p_name like '%green%'
)
group by nation, o_year
order by nation, o_year desc
limit 999999;
)";

TEST(LexerTest, TokenKinds) {
  auto tokens = Tokenize("select x, 42, 3.5, 'str''s' from t -- comment\n;");
  ASSERT_TRUE(tokens.ok()) << tokens.status().ToString();
  ASSERT_GE(tokens->size(), 8u);
  EXPECT_TRUE((*tokens)[0].IsKeyword("select"));
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kIdentifier);
  EXPECT_EQ((*tokens)[3].text, "42");
  EXPECT_EQ((*tokens)[5].text, "3.5");
  EXPECT_EQ((*tokens)[7].kind, TokenKind::kString);
  EXPECT_EQ((*tokens)[7].text, "str's");
  EXPECT_EQ(tokens->back().kind, TokenKind::kEnd);
}

TEST(LexerTest, TwoCharOperators) {
  auto tokens = Tokenize("a <> b <= c >= d != e");
  ASSERT_TRUE(tokens.ok());
  EXPECT_TRUE((*tokens)[1].IsSymbol("<>"));
  EXPECT_TRUE((*tokens)[3].IsSymbol("<="));
  EXPECT_TRUE((*tokens)[5].IsSymbol(">="));
  EXPECT_TRUE((*tokens)[7].IsSymbol("<>"));  // != normalizes
}

TEST(LexerTest, UnterminatedStringRejected) {
  EXPECT_EQ(Tokenize("select 'oops").status().code(),
            StatusCode::kParseError);
}

TEST(LexerTest, ExponentLiterals) {
  for (const char* lit : {"1.5e3", "2E-3", "1e+5"}) {
    auto tokens = Tokenize(std::string("select ") + lit + " from t");
    ASSERT_TRUE(tokens.ok()) << lit << ": " << tokens.status().ToString();
    EXPECT_EQ((*tokens)[1].kind, TokenKind::kNumber) << lit;
    EXPECT_EQ((*tokens)[1].text, lit);
    EXPECT_TRUE((*tokens)[2].IsKeyword("from")) << lit;
  }
}

TEST(LexerTest, LetterAfterNumberRejected) {
  // Once an alias in disguise: `1.5x` read as 1.5 named x, `1e` as 1
  // named e.
  for (const auto& [sql, offset] :
       {std::pair<std::string, int>{"select 1e from t", 8},
        std::pair<std::string, int>{"select 1.5x from t", 10},
        std::pair<std::string, int>{"select 1e+ from t", 8}}) {
    auto tokens = Tokenize(sql);
    ASSERT_FALSE(tokens.ok()) << sql;
    EXPECT_EQ(tokens.status().code(), StatusCode::kParseError);
    EXPECT_NE(tokens.status().ToString().find(
                  "offset " + std::to_string(offset)),
              std::string::npos)
        << tokens.status().ToString();
  }
}

TEST(LexerTest, UnknownCharacterRejected) {
  EXPECT_EQ(Tokenize("select #").status().code(), StatusCode::kParseError);
}

TEST(ParserTest, MinimalSelect) {
  auto stmt = ParseSelect("select * from t");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_TRUE((*stmt)->items[0].star);
  EXPECT_EQ((*stmt)->from.table_name, "t");
  EXPECT_EQ((*stmt)->joins.size(), 0u);
  EXPECT_EQ((*stmt)->where, nullptr);
}

TEST(ParserTest, SelectListAliases) {
  auto stmt = ParseSelect("select a as x, b + 1 y, c from t");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ((*stmt)->items.size(), 3u);
  EXPECT_EQ((*stmt)->items[0].alias, "x");
  EXPECT_EQ((*stmt)->items[1].alias, "y");
  EXPECT_EQ((*stmt)->items[2].alias, "");
}

TEST(ParserTest, Aggregates) {
  auto stmt = ParseSelect(
      "select count(*), sum(a) as s, min(b), max(b), avg(c) from t");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ((*stmt)->items.size(), 5u);
  EXPECT_EQ((*stmt)->items[0].agg, AggKind::kCount);
  EXPECT_EQ((*stmt)->items[0].agg_arg, nullptr);
  EXPECT_EQ((*stmt)->items[1].agg, AggKind::kSum);
  EXPECT_EQ((*stmt)->items[1].alias, "s");
  EXPECT_TRUE((*stmt)->HasAggregates());
}

TEST(ParserTest, StarOnlyValidInCount) {
  EXPECT_FALSE(ParseSelect("select sum(*) from t").ok());
}

TEST(ParserTest, WhereGroupOrderLimit) {
  auto stmt = ParseSelect(
      "select a, count(*) from t where a > 3 and b like 'x%' "
      "group by a order by a desc limit 10");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_NE((*stmt)->where, nullptr);
  ASSERT_EQ((*stmt)->group_by.size(), 1u);
  ASSERT_EQ((*stmt)->order_by.size(), 1u);
  EXPECT_FALSE((*stmt)->order_by[0].ascending);
  EXPECT_EQ((*stmt)->limit, 10);
}

TEST(ParserTest, JoinChainWithOn) {
  auto stmt = ParseSelect(
      "select * from a join b on a.k = b.k join c on b.j = c.j and c.x > 1");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ((*stmt)->joins.size(), 2u);
  EXPECT_EQ((*stmt)->joins[0].table.table_name, "b");
  EXPECT_NE((*stmt)->joins[1].on, nullptr);
}

TEST(ParserTest, TableAliases) {
  auto stmt = ParseSelect("select s.x from tbl as s join u v on s.x = v.y");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ((*stmt)->from.alias, "s");
  EXPECT_EQ((*stmt)->joins[0].table.alias, "v");
}

TEST(ParserTest, SubqueryInFrom) {
  auto stmt = ParseSelect("select * from (select a from t) sub");
  ASSERT_TRUE(stmt.ok());
  ASSERT_NE((*stmt)->from.subquery, nullptr);
  EXPECT_EQ((*stmt)->from.alias, "sub");
  EXPECT_EQ((*stmt)->from.subquery->from.table_name, "t");
}

TEST(ParserTest, OperatorPrecedence) {
  auto stmt = ParseSelect("select * from t where a + b * 2 > 4 or not c = 1");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ((*stmt)->where->ToString(),
            "(((a + (b * 2)) > 4) or not (c = 1))");
}

TEST(ParserTest, NotLike) {
  auto stmt = ParseSelect("select * from t where a not like '%x%'");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ((*stmt)->where->ToString(), "not (a like '%x%')");
}

TEST(ParserTest, QualifiedColumnsAndFunctions) {
  auto stmt = ParseSelect("select substr(t.name, 1, 4) from t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ((*stmt)->items[0].expr->ToString(), "substr(t.name, 1, 4)");
}

TEST(ParserTest, NegativeNumbersAndNull) {
  auto stmt = ParseSelect("select -a, null from t where b <> -1.5");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ((*stmt)->items[0].expr->ToString(), "-a");
  EXPECT_EQ((*stmt)->items[1].expr->ToString(), "NULL");
}

TEST(ParserTest, TrailingInputRejected) {
  EXPECT_FALSE(ParseSelect("select * from t garbage garbage").ok());
}

TEST(ParserTest, MissingFromRejected) {
  EXPECT_EQ(ParseSelect("select 1").status().code(), StatusCode::kParseError);
}

TEST(ParserTest, MissingOnRejected) {
  EXPECT_FALSE(ParseSelect("select * from a join b").ok());
}

TEST(ParserTest, PaperQ9Parses) {
  auto stmt = ParseSelect(kQ9);
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const SelectStmt& q9 = **stmt;
  ASSERT_EQ(q9.items.size(), 3u);
  EXPECT_EQ(q9.items[2].alias, "sum_profit");
  EXPECT_EQ(q9.items[2].agg, AggKind::kSum);
  ASSERT_NE(q9.from.subquery, nullptr);
  const SelectStmt& inner = *q9.from.subquery;
  EXPECT_EQ(inner.joins.size(), 5u);
  EXPECT_EQ(inner.from.table_name, "tpch_supplier");
  EXPECT_EQ(inner.from.alias, "s");
  ASSERT_NE(inner.where, nullptr);
  EXPECT_EQ(inner.where->ToString(), "(p_name like '%green%')");
  EXPECT_EQ(q9.group_by.size(), 2u);
  EXPECT_EQ(q9.order_by.size(), 2u);
  EXPECT_TRUE(q9.order_by[0].ascending);
  EXPECT_FALSE(q9.order_by[1].ascending);
  EXPECT_EQ(q9.limit, 999999);
}

}  // namespace
}  // namespace swift
