#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "engine/database.h"
#include "parser/parser.h"

namespace elephant {
namespace {

TEST(LexerSmokeTest, ViaParser) {
  auto r = ParseSelect("SELECT a FROM t WHERE a >= 10 -- comment\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
}

TEST(ParserTest, SimpleSelect) {
  auto r = ParseSelect("SELECT a, b FROM t");
  ASSERT_TRUE(r.ok());
  const SelectStmt& s = *r.value();
  ASSERT_EQ(s.items.size(), 2u);
  EXPECT_EQ(s.items[0].expr->name, "A");
  ASSERT_EQ(s.from.size(), 1u);
  EXPECT_EQ(s.from[0].table_name, "T");
}

TEST(ParserTest, SelectStar) {
  auto r = ParseSelect("SELECT * FROM t");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value()->items[0].star);
}

TEST(ParserTest, QualifiedColumnsAndAliases) {
  auto r = ParseSelect("SELECT t1.v AS x, t2.f y FROM d1 t1, d2 AS t2");
  ASSERT_TRUE(r.ok());
  const SelectStmt& s = *r.value();
  EXPECT_EQ(s.items[0].expr->qualifier, "T1");
  EXPECT_EQ(s.items[0].alias, "X");
  EXPECT_EQ(s.items[1].alias, "Y");
  EXPECT_EQ(s.from[0].alias, "T1");
  EXPECT_EQ(s.from[1].alias, "T2");
}

TEST(ParserTest, WhereWithBetweenAndPrecedence) {
  auto r = ParseSelect(
      "SELECT a FROM t WHERE a BETWEEN 1 AND 2 + 3 AND b = 'x' OR c > 0");
  ASSERT_TRUE(r.ok());
  // Top node must be OR (AND binds tighter).
  EXPECT_EQ(r.value()->where->op, "OR");
}

TEST(ParserTest, ArithmeticPrecedence) {
  auto r = ParseSelect("SELECT a + b * c FROM t");
  ASSERT_TRUE(r.ok());
  const SqlExpr& e = *r.value()->items[0].expr;
  EXPECT_EQ(e.op, "+");
  EXPECT_EQ(e.rhs->op, "*");
}

TEST(ParserTest, AggregatesAndGroupBy) {
  auto r = ParseSelect(
      "SELECT l_suppkey, COUNT(*), MAX(l_shipdate) FROM lineitem "
      "GROUP BY l_suppkey ORDER BY 2 DESC LIMIT 5");
  ASSERT_TRUE(r.ok());
  const SelectStmt& s = *r.value();
  EXPECT_EQ(s.items[1].expr->kind, SqlExprKind::kFuncCall);
  EXPECT_TRUE(s.items[1].expr->star_arg);
  EXPECT_EQ(s.items[2].expr->func, "MAX");
  ASSERT_EQ(s.group_by.size(), 1u);
  ASSERT_EQ(s.order_by.size(), 1u);
  EXPECT_FALSE(s.order_by[0].ascending);
  EXPECT_EQ(s.limit.value(), 5u);
}

TEST(ParserTest, DerivedTable) {
  auto r = ParseSelect(
      "SELECT t1.v FROM (SELECT MIN(f) AS xmin FROM d1) t0agg, d1 t1 "
      "WHERE t1.f >= t0agg.xmin");
  ASSERT_TRUE(r.ok());
  const SelectStmt& s = *r.value();
  ASSERT_EQ(s.from.size(), 2u);
  ASSERT_NE(s.from[0].derived, nullptr);
  EXPECT_EQ(s.from[0].alias, "T0AGG");
}

TEST(ParserTest, DateLiteral) {
  auto r = ParseSelect("SELECT a FROM t WHERE d > DATE '1995-03-15'");
  ASSERT_TRUE(r.ok());
  const SqlExpr& w = *r.value()->where;
  EXPECT_EQ(w.rhs->literal.type(), TypeId::kDate);
  EXPECT_EQ(w.rhs->literal.ToString(), "1995-03-15");
}

TEST(ParserTest, HintBlock) {
  auto r = ParseSelect("/*+ FORCE_ORDER LOOP_JOIN */ SELECT a FROM t");
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r.value()->hint_text.find("FORCE_ORDER"), std::string::npos);
}

TEST(ParserTest, InnerJoinSugar) {
  auto r = ParseSelect(
      "SELECT a FROM t1 INNER JOIN t2 ON t1.k = t2.k WHERE t1.x > 0");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value()->from.size(), 2u);
  // ON predicate is folded into WHERE along with the explicit filter.
  EXPECT_EQ(r.value()->where->op, "AND");
}

TEST(ParserTest, StringEscapes) {
  auto r = ParseSelect("SELECT a FROM t WHERE s = 'it''s'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()->where->rhs->literal.AsString(), "it's");
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseSelect("SELECT FROM t").ok());
  EXPECT_FALSE(ParseSelect("SELECT a").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t WHERE").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t LIMIT x").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t trailing junk ,").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t WHERE s = 'unterminated").ok());
}

TEST(ParserTest, UnaryMinusFoldsNumericLiterals) {
  auto r = ParseSelect("SELECT -5, -2147483648, -2147483649, -1.25, -a FROM t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& items = r.value()->items;
  ASSERT_EQ(items[0].expr->kind, SqlExprKind::kLiteral);
  EXPECT_EQ(items[0].expr->literal.type(), TypeId::kInt32);
  EXPECT_EQ(items[0].expr->literal.AsInt64(), -5);
  EXPECT_EQ(items[1].expr->literal.type(), TypeId::kInt32);
  EXPECT_EQ(items[1].expr->literal.AsInt64(), -2147483648LL);
  EXPECT_EQ(items[2].expr->literal.type(), TypeId::kInt64);
  EXPECT_EQ(items[2].expr->literal.AsInt64(), -2147483649LL);
  EXPECT_EQ(items[3].expr->literal.type(), TypeId::kDecimal);
  EXPECT_EQ(items[3].expr->literal.AsInt64(), -125);
  // Over anything but a numeric literal, unary minus is still 0 - operand.
  EXPECT_EQ(items[4].expr->kind, SqlExprKind::kBinary);
}

/// Hostile nesting ends in a ParseError Status, never a stack overflow, on
/// every path a statement takes (Database::Execute parses, binds, plans and
/// runs it); 1,000 terms of every shape still run.
TEST(ParserTest, ExpressionDepthLimit) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT) CLUSTER BY (a)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1), (2)").ok());
  auto repeat = [](const std::string& s, int n) {
    std::string out;
    for (int i = 0; i < n; i++) out += s;
    return out;
  };
  auto nested_parens = [&](int n) {
    return "SELECT a FROM t WHERE " + repeat("(", n) + "a = 1" + repeat(")", n);
  };
  auto and_chain = [&](int n) {
    return "SELECT a FROM t WHERE a = 1" + repeat(" AND a = 1", n - 1);
  };
  auto plus_chain = [&](int n) {
    return "SELECT a" + repeat(" + a", n - 1) + " FROM t";
  };
  auto not_chain = [&](int n) {
    return "SELECT a FROM t WHERE " + repeat("NOT ", n) + "a = 1";
  };
  auto minus_chain = [&](int n) {
    return "SELECT " + repeat("- ", n) + "1 FROM t";
  };
  auto derived = [&](int n) {
    return repeat("SELECT * FROM (", n) + "SELECT a FROM t" +
           repeat(") AS d", n);
  };
  // Every shape also runs just under the limit, where the deepest stacks
  // are. A derived table counts as several levels, so 100 is near its limit.
  const int near_limit = static_cast<int>(kMaxExprDepth) - 10;
  struct Shape {
    const char* name;
    std::function<std::string(int)> make;
    int hostile;
    std::vector<int> accepted;
  };
  const Shape shapes[] = {
      {"nested parentheses", nested_parens, 5000, {1000, near_limit}},
      {"AND chain", and_chain, 20000, {1000, near_limit}},
      {"+ chain", plus_chain, 20000, {1000, near_limit}},
      {"NOT chain", not_chain, 20000, {1000, near_limit}},
      {"unary minus chain", minus_chain, 20000, {1000, near_limit}},
      {"nested derived tables", derived, 5000, {100}},
  };
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.name);
    auto bad = db.Execute(shape.make(shape.hostile));
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::kParseError)
        << bad.status().ToString();
    for (int n : shape.accepted) {
      auto ok = db.Execute(shape.make(n));
      EXPECT_TRUE(ok.ok()) << n << " terms: " << ok.status().ToString();
    }
  }
}

TEST(ParserTest, CreateTable) {
  auto r = ParseStatement(
      "CREATE TABLE foo (a INT, b BIGINT, c DATE, d DECIMAL(12,2), e CHAR(3), "
      "f VARCHAR(40)) CLUSTER BY (a, c)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().kind, StatementKind::kCreateTable);
  const CreateTableStmt& ct = *r.value().create_table;
  EXPECT_EQ(ct.name, "FOO");
  ASSERT_EQ(ct.columns.size(), 6u);
  EXPECT_EQ(ct.columns[0].type, TypeId::kInt32);
  EXPECT_EQ(ct.columns[3].type, TypeId::kDecimal);
  EXPECT_EQ(ct.columns[4].type, TypeId::kChar);
  EXPECT_EQ(ct.columns[4].length, 3u);
  EXPECT_EQ(ct.cluster_by, (std::vector<std::string>{"A", "C"}));
}

TEST(ParserTest, CreateIndex) {
  auto r = ParseStatement("CREATE INDEX ix ON t (v) INCLUDE (f, c)");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().kind, StatementKind::kCreateIndex);
  const CreateIndexStmt& ci = *r.value().create_index;
  EXPECT_EQ(ci.key_columns, (std::vector<std::string>{"V"}));
  EXPECT_EQ(ci.include_columns, (std::vector<std::string>{"F", "C"}));
}

TEST(ParserTest, InsertValues) {
  auto r = ParseStatement(
      "INSERT INTO t VALUES (1, 'a', DATE '1994-01-01'), (2, 'b', NULL)");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().kind, StatementKind::kInsert);
  EXPECT_EQ(r.value().insert->rows.size(), 2u);
}

TEST(ParserTest, PaperQ3RewriteParses) {
  // The optimized Q3 rewrite from the paper (§2.2.3, Figure 4(b)).
  auto r = ParseSelect(
      "SELECT T1.v, SUM(T1.c) "
      "FROM (SELECT MIN(T0.f) AS xMIN, MAX(T0.f + T0.c - 1) AS xMAX "
      "      FROM d1_l_shipdate T0 WHERE T0.v > DATE '1995-01-01') T0Agg, "
      "     d1_l_suppkey T1 "
      "WHERE T1.f BETWEEN T0Agg.xMin AND T0Agg.xMax "
      "GROUP BY T1.v");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value()->from.size(), 2u);
}

}  // namespace
}  // namespace elephant
