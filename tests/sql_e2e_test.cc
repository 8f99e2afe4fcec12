#include <gtest/gtest.h>

#include "engine/database.h"

namespace elephant {
namespace {

/// End-to-end SQL tests over a small hand-built dataset where every result
/// is computable by hand.
class SqlE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Single-stream suite: verify the query-end pin invariant after every
    // statement, both through the Status path (check_pin_invariants) and
    // the aborting assert in Exec().
    DatabaseOptions options;
    options.check_pin_invariants = true;
    db_ = std::make_unique<Database>(options);
    Exec("CREATE TABLE emp (id INT, dept INT, salary DECIMAL, name VARCHAR, "
         "hired DATE) CLUSTER BY (id)");
    Exec("CREATE TABLE dept (id INT, dname VARCHAR, budget DECIMAL) "
         "CLUSTER BY (id)");
    // 12 employees over 3 departments.
    for (int i = 1; i <= 12; i++) {
      const int dept = (i - 1) % 3 + 1;
      Exec("INSERT INTO emp VALUES (" + std::to_string(i) + ", " +
           std::to_string(dept) + ", " + std::to_string(1000 * i) + ".50, 'emp" +
           std::to_string(i) + "', DATE '199" + std::to_string(i % 9) +
           "-01-15')");
    }
    Exec("INSERT INTO dept VALUES (1, 'eng', 100.00), (2, 'sales', 50.00), "
         "(3, 'hr', 25.00)");
  }

  QueryResult Exec(const std::string& sql) {
    auto r = db_->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << "\n" << r.status().ToString();
    db_->pool().AssertNoPinsHeld();  // query-end pin invariant, every stmt
    return r.ok() ? std::move(r).value() : QueryResult{};
  }

  std::unique_ptr<Database> db_;
};

TEST_F(SqlE2eTest, SelectStar) {
  QueryResult r = Exec("SELECT * FROM emp");
  EXPECT_EQ(r.rows.size(), 12u);
  EXPECT_EQ(r.schema.NumColumns(), 5u);
}

TEST_F(SqlE2eTest, FilterEquality) {
  QueryResult r = Exec("SELECT name FROM emp WHERE id = 7");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString(), "emp7");
}

TEST_F(SqlE2eTest, FilterRangeOnClusterKeyUsesSeek) {
  auto plan = db_->Explain("SELECT id FROM emp WHERE id > 9");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan.value().find("range on 1 key col(s)"), std::string::npos)
      << plan.value();
  QueryResult r = Exec("SELECT id FROM emp WHERE id > 9");
  EXPECT_EQ(r.rows.size(), 3u);
}

TEST_F(SqlE2eTest, FilterOnNonKeyColumnIsFullScan) {
  auto plan = db_->Explain("SELECT id FROM emp WHERE dept = 2");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan.value().find("full scan"), std::string::npos);
  QueryResult r = Exec("SELECT id FROM emp WHERE dept = 2");
  EXPECT_EQ(r.rows.size(), 4u);
}

TEST_F(SqlE2eTest, SecondaryCoveringIndexIsChosen) {
  Exec("CREATE INDEX ix_dept ON emp (dept) INCLUDE (salary)");
  auto plan = db_->Explain("SELECT SUM(salary) FROM emp WHERE dept = 2");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan.value().find("CoveringIndexSeek IX_DEPT"), std::string::npos)
      << plan.value();
  QueryResult r = Exec("SELECT SUM(salary) FROM emp WHERE dept = 2");
  ASSERT_EQ(r.rows.size(), 1u);
  // dept 2: employees 2, 5, 8, 11 -> (2+5+8+11)*1000 + 4*0.50 = 26002.00
  EXPECT_EQ(r.rows[0][0].ToString(), "26002.00");
}

TEST_F(SqlE2eTest, NonCoveringIndexNotChosen) {
  Exec("CREATE INDEX ix_dept2 ON emp (dept)");
  auto plan = db_->Explain("SELECT name FROM emp WHERE dept = 2");
  ASSERT_TRUE(plan.ok());
  // name is not covered: must fall back to a table scan.
  EXPECT_EQ(plan.value().find("CoveringIndexSeek"), std::string::npos);
}

TEST_F(SqlE2eTest, GroupByWithAggregates) {
  QueryResult r = Exec(
      "SELECT dept, COUNT(*), SUM(salary), MIN(id), MAX(id) FROM emp "
      "GROUP BY dept ORDER BY dept");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0].AsInt32(), 1);
  EXPECT_EQ(r.rows[0][1].AsInt64(), 4);      // ids 1,4,7,10
  EXPECT_EQ(r.rows[0][3].AsInt32(), 1);
  EXPECT_EQ(r.rows[0][4].AsInt32(), 10);
}

TEST_F(SqlE2eTest, ScalarAggregate) {
  QueryResult r = Exec("SELECT COUNT(*), AVG(salary) FROM emp");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt64(), 12);
  EXPECT_NEAR(r.rows[0][1].AsDouble(), 6500.50, 0.01);
}

TEST_F(SqlE2eTest, JoinHash) {
  QueryResult r = Exec(
      "SELECT dname, COUNT(*) FROM emp, dept WHERE emp.dept = dept.id "
      "GROUP BY dname ORDER BY dname");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0].AsString(), "eng");
  EXPECT_EQ(r.rows[0][1].AsInt64(), 4);
}

TEST_F(SqlE2eTest, JoinUsesIndexNestedLoopOnClusteredKey) {
  // dept.id is the cluster key of dept: the join should seek it per emp row.
  auto plan = db_->Explain(
      "SELECT dname FROM emp, dept WHERE emp.dept = dept.id AND emp.id = 3");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan.value().find("IndexNestedLoopJoin"), std::string::npos)
      << plan.value();
  QueryResult r = Exec(
      "SELECT dname FROM emp, dept WHERE emp.dept = dept.id AND emp.id = 3");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString(), "hr");
}

TEST_F(SqlE2eTest, ThreeWayJoin) {
  Exec("CREATE TABLE loc (dept_id INT, city VARCHAR) CLUSTER BY (dept_id)");
  Exec("INSERT INTO loc VALUES (1, 'sea'), (2, 'nyc'), (3, 'sfo')");
  QueryResult r = Exec(
      "SELECT city, COUNT(*) FROM emp, dept, loc "
      "WHERE emp.dept = dept.id AND dept.id = loc.dept_id "
      "GROUP BY city ORDER BY city");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0].AsString(), "nyc");
  EXPECT_EQ(r.rows[0][1].AsInt64(), 4);
}

TEST_F(SqlE2eTest, BetweenOnDates) {
  QueryResult r = Exec(
      "SELECT COUNT(*) FROM emp WHERE hired BETWEEN DATE '1992-01-01' AND "
      "DATE '1994-12-31'");
  ASSERT_EQ(r.rows.size(), 1u);
  // hired year is 199(i%9): i=2,11 -> 1992; 3,12 -> 1993; 4 -> 1994.
  EXPECT_EQ(r.rows[0][0].AsInt64(), 5);
}

TEST_F(SqlE2eTest, DerivedTable) {
  QueryResult r = Exec(
      "SELECT e.name FROM (SELECT MAX(salary) AS msal FROM emp) m, emp e "
      "WHERE e.salary = m.msal");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString(), "emp12");
}

TEST_F(SqlE2eTest, OrderByDescAndLimit) {
  QueryResult r = Exec("SELECT id FROM emp ORDER BY id DESC LIMIT 3");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0].AsInt32(), 12);
  EXPECT_EQ(r.rows[2][0].AsInt32(), 10);
}

TEST_F(SqlE2eTest, ProjectionArithmetic) {
  QueryResult r = Exec("SELECT id * 2 + 1 AS x FROM emp WHERE id = 5");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt32(), 11);
  EXPECT_EQ(r.schema.ColumnAt(0).name, "X");
}

TEST_F(SqlE2eTest, PostAggregateArithmetic) {
  QueryResult r =
      Exec("SELECT dept, MAX(id) - MIN(id) FROM emp GROUP BY dept ORDER BY dept");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][1].AsInt32(), 9);
}

TEST_F(SqlE2eTest, GroupByExprInSelect) {
  QueryResult r = Exec(
      "SELECT dept + 100, COUNT(*) FROM emp GROUP BY dept + 100 ORDER BY 1");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0].AsInt32(), 101);
}

TEST_F(SqlE2eTest, StreamAggHintMatchesHashAgg) {
  QueryResult hash = Exec("SELECT dept, COUNT(*) FROM emp GROUP BY dept ORDER BY dept");
  QueryResult stream = Exec(
      "/*+ STREAM_AGG */ SELECT dept, COUNT(*) FROM emp GROUP BY dept ORDER BY dept");
  ASSERT_EQ(hash.rows.size(), stream.rows.size());
  for (size_t i = 0; i < hash.rows.size(); i++) {
    EXPECT_EQ(hash.rows[i][0].Compare(stream.rows[i][0]), 0);
    EXPECT_EQ(hash.rows[i][1].Compare(stream.rows[i][1]), 0);
  }
}

TEST_F(SqlE2eTest, ForceOrderHint) {
  auto p1 = db_->Explain(
      "/*+ FORCE_ORDER */ SELECT dname FROM emp, dept WHERE emp.dept = dept.id");
  ASSERT_TRUE(p1.ok());
  // With FORCE_ORDER, emp (FROM-first) is the outer side, so the join's
  // inner/build side must be dept.
  const bool dept_is_inner =
      p1.value().find("inner=DEPT") != std::string::npos ||
      p1.value().find("build=DEPT") != std::string::npos;
  EXPECT_TRUE(dept_is_inner) << p1.value();
}

TEST_F(SqlE2eTest, NonEquiJoinFallsBackToProduct) {
  QueryResult r = Exec(
      "SELECT COUNT(*) FROM emp e1, emp e2 WHERE e1.salary < e2.salary");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt64(), 66);  // 12*11/2 distinct ordered pairs
}

TEST_F(SqlE2eTest, JoinsIntAgainstBigintKeys) {
  // Equal keys of different integer widths must join, as Value::Compare
  // says they are equal: through the hash join and through the index
  // nested-loop join's clustered seek, with either width on the inner side.
  // A BIGINT outside INT's range equals no INT key, and NULLs join nothing.
  Exec("CREATE TABLE ia (x INT, y INT) CLUSTER BY (x)");
  Exec("CREATE TABLE ib (x BIGINT, z INT) CLUSTER BY (x)");
  Exec("INSERT INTO ia VALUES (1, 10), (2, 20), (2, 21), (3, 30), (NULL, 99)");
  Exec("INSERT INTO ib VALUES (2, 200), (3, 300), (4, 400), (NULL, 999), "
       "(4294967298, 5)");
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"/*+ HASH_JOIN */", ""},
      {"/*+ FORCE_ORDER LOOP_JOIN */", ""},
      {"/*+ FORCE_ORDER LOOP_JOIN */", " AND ia.x = 2"},
  };
  for (const auto& [hint, extra] : cases) {
    for (const char* from : {"ia, ib", "ib, ia"}) {
      const std::string sql = hint + " SELECT ia.y, ib.z FROM " + from +
                              " WHERE ia.x = ib.x" + extra +
                              " ORDER BY ia.y";
      QueryResult r = Exec(sql);
      std::vector<std::pair<int64_t, int64_t>> got;
      for (const Row& row : r.rows) {
        got.emplace_back(row[0].AsInt64(), row[1].AsInt64());
      }
      std::vector<std::pair<int64_t, int64_t>> want = {{20, 200}, {21, 200}};
      if (extra.empty()) want.emplace_back(30, 300);
      EXPECT_EQ(got, want) << sql;
    }
  }
  // A join range bound must share the inner key's encoding, so an INT bound
  // on the BIGINT cluster key stays a residual: 4 + 2 * 3 + 2 pairs.
  QueryResult range = Exec(
      "/*+ FORCE_ORDER LOOP_JOIN */ SELECT COUNT(*) FROM ia, ib "
      "WHERE ib.x > ia.x");
  ASSERT_EQ(range.rows.size(), 1u);
  EXPECT_EQ(range.rows[0][0].AsInt64(), 12);
  auto loop = db_->Explain(
      "/*+ FORCE_ORDER LOOP_JOIN */ SELECT ia.y FROM ia, ib WHERE ia.x = ib.x");
  ASSERT_TRUE(loop.ok());
  EXPECT_NE(loop.value().find("IndexNestedLoopJoin inner=IB"),
            std::string::npos)
      << loop.value();
  // DECIMAL against INT has no exact common key: the pair stays a residual
  // predicate over a product instead of a hash key.
  Exec("CREATE TABLE ic (x DECIMAL)");
  Exec("INSERT INTO ic VALUES (2.00), (2.50)");
  QueryResult dec = Exec("SELECT ia.y FROM ia, ic WHERE ia.x = ic.x");
  ASSERT_EQ(dec.rows.size(), 2u);
  auto dec_plan =
      db_->Explain("SELECT ia.y FROM ia, ic WHERE ia.x = ic.x");
  ASSERT_TRUE(dec_plan.ok());
  EXPECT_NE(dec_plan.value().find("NestedProduct"), std::string::npos)
      << dec_plan.value();
}

TEST_F(SqlE2eTest, BindErrors) {
  EXPECT_FALSE(db_->Execute("SELECT nosuch FROM emp").ok());
  EXPECT_FALSE(db_->Execute("SELECT id FROM nosuch").ok());
  EXPECT_FALSE(db_->Execute("SELECT name FROM emp GROUP BY dept").ok());
  EXPECT_FALSE(db_->Execute("SELECT id FROM emp e1, emp e1").ok());
  EXPECT_FALSE(db_->Execute("SELECT salary FROM emp, dept WHERE id = 1").ok());
}

TEST_F(SqlE2eTest, TypeErrorsAreBindErrorsBeforeAnyPageIsRead) {
  // A string against a number, and SUM/AVG over a type that cannot be
  // added: every row would fail, so binding fails and nothing is read.
  ASSERT_TRUE(db_->EvictCaches().ok());
  const uint64_t reads = db_->disk().stats().TotalReads();
  for (const char* sql :
       {"SELECT id FROM emp WHERE name = 5",
        "SELECT id FROM emp WHERE 5 < name",
        "SELECT id FROM emp WHERE name BETWEEN 1 AND 2",
        "SELECT dept FROM emp GROUP BY dept HAVING MIN(name) > 3",
        "SELECT SUM(hired) FROM emp", "SELECT AVG(name) FROM emp",
        "SELECT dept, SUM(hired) FROM emp GROUP BY dept",
        // Arithmetic that no operands of these types admit.
        "SELECT name + 1 FROM emp", "SELECT hired * 2 FROM emp",
        "SELECT id / name FROM emp", "SELECT hired / 2 FROM emp",
        "SELECT 5 - hired FROM emp", "SELECT id FROM emp WHERE name * 2 > 1",
        "SELECT dept FROM emp GROUP BY dept HAVING MIN(hired) + 1.5 > 3",
        "SELECT dept, SUM(salary) * name FROM emp GROUP BY dept"}) {
    auto r = db_->Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), StatusCode::kBindError)
        << sql << ": " << r.status().ToString();
  }
  EXPECT_EQ(db_->disk().stats().TotalReads(), reads);
  // Comparable and summable pairs still bind.
  EXPECT_TRUE(db_->Execute("SELECT id FROM emp WHERE salary > 5").ok());
  EXPECT_TRUE(db_->Execute("SELECT MIN(hired), MAX(name) FROM emp").ok());
  EXPECT_TRUE(db_->Execute("SELECT SUM(salary), AVG(id) FROM emp").ok());
  EXPECT_TRUE(db_->Execute("SELECT hired + 1, hired - hired FROM emp").ok());
  // Arithmetic with an untyped NULL binds, and is NULL.
  for (const char* sql :
       {"SELECT id + NULL FROM emp", "SELECT NULL * salary FROM emp",
        "SELECT id / NULL FROM emp", "SELECT hired - NULL FROM emp",
        "SELECT dept, SUM(id) - NULL FROM emp GROUP BY dept"}) {
    QueryResult r = Exec(sql);
    ASSERT_FALSE(r.rows.empty()) << sql;
    for (const Row& row : r.rows) EXPECT_TRUE(row.back().is_null()) << sql;
  }
  EXPECT_TRUE(Exec("SELECT id FROM emp WHERE id + NULL > 1").rows.empty());
}

TEST_F(SqlE2eTest, DmlWhereMatchesSelectWhere) {
  // DELETE and UPDATE find their rows with the batch filter a SELECT's
  // WHERE runs: each touches exactly the rows SELECT COUNT(*) counts under
  // the same WHERE, over NULL-bearing string, DATE and DECIMAL columns.
  DatabaseOptions options;
  options.wal_enabled = true;
  Database db(options);
  auto run = [&db](const std::string& sql) {
    auto r = db.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << "\n" << r.status().ToString();
    return r.ok() ? std::move(r).value() : QueryResult{};
  };
  auto count = [&run](const std::string& where) {
    QueryResult r = run("SELECT COUNT(*) FROM t WHERE " + where);
    return r.rows.empty() ? uint64_t{0} : static_cast<uint64_t>(r.rows[0][0].AsInt64());
  };
  run("CREATE TABLE t (k INT, name VARCHAR, d DATE, amount DECIMAL, "
      "note VARCHAR) CLUSTER BY (k)");
  std::string values;
  for (int k = 0; k < 1500; k++) {  // more rows than one batch
    const std::string name =
        k % 7 == 0 ? "NULL" : "'n" + std::to_string(k % 10) + "'";
    const std::string d = k % 5 == 0 ? "NULL"
                                     : "DATE '199" + std::to_string(k % 9) +
                                           "-0" + std::to_string(k % 9 + 1) +
                                           "-15'";
    const std::string amount =
        k % 11 == 0 ? "NULL" : std::to_string(k % 97) + "." + std::to_string(k % 10) + "5";
    values += (values.empty() ? "" : ", ") + std::string("(") +
              std::to_string(k) + ", " + name + ", " + d + ", " + amount +
              ", 'x')";
  }
  run("INSERT INTO t VALUES " + values);
  for (const char* where :
       {"k BETWEEN 100 AND 1200", "name IS NULL", "name IS NOT NULL",
        "NOT (k < 700)", "NOT (amount > 50.00)", "name = 'n3'", "name > 'n5'",
        "d >= DATE '1995-01-01'", "d BETWEEN DATE '1992-01-01' AND DATE '1994-12-31'",
        "amount BETWEEN 10.50 AND 40.25", "amount = 12.25",
        "name IS NULL OR amount < 5.00", "NOT (d IS NULL) AND name <> 'n1'",
        "k > 5000"}) {
    const uint64_t want = count(where);
    run("BEGIN");
    QueryResult upd = run(std::string("UPDATE t SET note = 'hit' WHERE ") + where);
    EXPECT_EQ(upd.counters.rows_output, want) << where;
    EXPECT_EQ(count("note = 'hit'"), want) << where;
    EXPECT_EQ(count(std::string("note = 'hit' AND (") + where + ")"), want) << where;
    run("ROLLBACK");
    run("BEGIN");
    QueryResult del = run(std::string("DELETE FROM t WHERE ") + where);
    EXPECT_EQ(del.counters.rows_output, want) << where;
    EXPECT_EQ(count(where), 0u) << where;
    EXPECT_EQ(count("k >= 0"), 1500u - want) << where;
    run("ROLLBACK");
    EXPECT_EQ(count("k >= 0"), 1500u) << where;
  }
}

TEST_F(SqlE2eTest, ExecuteIntoReturnsTypedColumnsWithoutValues) {
  const std::string sql =
      "SELECT id, name, salary FROM emp WHERE dept = 1 ORDER BY id";
  Batch rows;
  auto into = db_->ExecuteInto(sql, &rows);
  ASSERT_TRUE(into.ok()) << into.status().ToString();
  QueryResult want = Exec(sql);
  EXPECT_TRUE(into.value().rows.empty());
  EXPECT_EQ(into.value().counters.values_materialized, 0u);
  EXPECT_EQ(into.value().counters.rows_output, want.rows.size());
  ASSERT_EQ(rows.num_rows(), want.rows.size());
  ASSERT_EQ(rows.num_cols(), 3u);
  for (uint32_t r = 0; r < rows.num_rows(); r++) {
    EXPECT_EQ(rows.col(0).Int(r), want.rows[r][0].AsInt64());
    EXPECT_EQ(rows.col(1).String(r), want.rows[r][1].AsString());
    EXPECT_EQ(rows.col(2).Int(r), want.rows[r][2].AsInt64());
  }
  // Only a SELECT hands out typed columns; nothing else runs.
  EXPECT_FALSE(db_->ExecuteInto("INSERT INTO emp VALUES (99, 1, 1.00, 'x', "
                                "DATE '2000-01-01')",
                                &rows)
                   .ok());
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM emp WHERE id = 99").rows[0][0].AsInt64(),
            0);
}

TEST_F(SqlE2eTest, InsertThenQueryConsistent) {
  Exec("INSERT INTO emp VALUES (13, 1, 500.00, 'emp13', DATE '2000-02-02')");
  QueryResult r = Exec("SELECT COUNT(*) FROM emp WHERE dept = 1");
  EXPECT_EQ(r.rows[0][0].AsInt64(), 5);
}

TEST_F(SqlE2eTest, ExplainShowsPlanShape) {
  auto plan = db_->Explain(
      "SELECT dept, COUNT(*) FROM emp WHERE id > 3 GROUP BY dept");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan.value().find("HashAggregate"), std::string::npos);
  EXPECT_NE(plan.value().find("Project"), std::string::npos);
  EXPECT_NE(plan.value().find("ClusteredIndexScan"), std::string::npos);
}

TEST_F(SqlE2eTest, ColdCacheOptionCausesIo) {
  db_->options().cold_cache = true;
  QueryResult r = Exec("SELECT COUNT(*) FROM emp");
  EXPECT_GT(r.io.TotalReads(), 0u);
  EXPECT_GT(r.io_seconds, 0.0);
  db_->options().cold_cache = false;
  QueryResult r2 = Exec("SELECT COUNT(*) FROM emp");
  EXPECT_EQ(r2.io.TotalReads(), 0u);  // warm: everything buffered
}

}  // namespace
}  // namespace elephant

namespace elephant {
namespace {

/// HAVING / DISTINCT coverage (added with the SQL-surface extension).
class SqlExtensionsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.check_pin_invariants = true;
    db_ = std::make_unique<Database>(options);
    Exec("CREATE TABLE s (g INT, v INT) CLUSTER BY (g)");
    for (int i = 0; i < 30; i++) {
      Exec("INSERT INTO s VALUES (" + std::to_string(i % 5) + ", " +
           std::to_string(i) + ")");
    }
  }
  QueryResult Exec(const std::string& sql) {
    auto r = db_->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << "\n" << r.status().ToString();
    db_->pool().AssertNoPinsHeld();  // query-end pin invariant, every stmt
    return r.ok() ? std::move(r).value() : QueryResult{};
  }
  std::unique_ptr<Database> db_;
};

TEST_F(SqlExtensionsTest, HavingFiltersGroups) {
  QueryResult r = Exec(
      "SELECT g, SUM(v) FROM s GROUP BY g HAVING SUM(v) > 85 ORDER BY g");
  // sums: g=0:60, 1:66, 2:72, 3:78, 4:84... wait v=i, groups of 6 values.
  // g=0 -> 0+5+10+15+20+25 = 75; g=1 -> 81; g=2 -> 87; g=3 -> 93; g=4 -> 99.
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0].AsInt32(), 2);
}

TEST_F(SqlExtensionsTest, HavingOnCountWithWhere) {
  QueryResult r = Exec(
      "SELECT g, COUNT(*) FROM s WHERE v < 17 GROUP BY g HAVING COUNT(*) >= 4");
  // v in 0..16: g=0 gets v 0,5,10,15 (4); g=1 gets 1,6,11,16 (4); others 3.
  ASSERT_EQ(r.rows.size(), 2u);
}

TEST_F(SqlExtensionsTest, HavingWithoutGroupingRejected) {
  EXPECT_FALSE(db_->Execute("SELECT v FROM s HAVING v > 3").ok());
}

TEST_F(SqlExtensionsTest, DistinctDeduplicates) {
  QueryResult r = Exec("SELECT DISTINCT g FROM s ORDER BY g");
  ASSERT_EQ(r.rows.size(), 5u);
  EXPECT_EQ(r.rows[0][0].AsInt32(), 0);
  EXPECT_EQ(r.rows[4][0].AsInt32(), 4);
}

TEST_F(SqlExtensionsTest, DistinctOnExpression) {
  QueryResult r = Exec("SELECT DISTINCT g / 2 FROM s");
  // g in 0..4 -> g/2 (exact double division) in {0, 0.5, 1, 1.5, 2}.
  EXPECT_EQ(r.rows.size(), 5u);
}

TEST_F(SqlExtensionsTest, DistinctPlanShowsOperator) {
  auto plan = db_->Explain("SELECT DISTINCT g FROM s");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan.value().find("Distinct"), std::string::npos);
}

TEST_F(SqlExtensionsTest, DateArithmeticInSql) {
  QueryResult r = Exec(
      "SELECT COUNT(*) FROM s WHERE DATE '1995-01-10' - 5 = DATE '1995-01-05' "
      "AND g = 0");
  EXPECT_EQ(r.rows[0][0].AsInt64(), 6);
}

/// Negative literals load through INSERT ... VALUES on both write paths:
/// unary minus folds into the literal, and a value outside its column's
/// range is an InvalidArgument rather than a wrapped store.
TEST(SqlNegativeLiteralTest, InsertNegativeValues) {
  for (bool wal : {false, true}) {
    SCOPED_TRACE(wal ? "WAL write path" : "unlogged write path");
    DatabaseOptions options;
    options.wal_enabled = wal;
    Database db(options);
    ASSERT_TRUE(db.Execute("CREATE TABLE n (k INT, v BIGINT, d DECIMAL) "
                           "CLUSTER BY (k)")
                    .ok());
    auto ins = db.Execute(
        "INSERT INTO n VALUES (-5, -9000000000, -12.34), "
        "(-2147483648, -1, -0.5), (7, 9000000000, 3)");
    ASSERT_TRUE(ins.ok()) << ins.status().ToString();
    auto r = db.Execute("SELECT k, v, d FROM n ORDER BY k");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r.value().rows.size(), 3u);
    EXPECT_EQ(r.value().rows[0][0].AsInt64(), -2147483648LL);
    EXPECT_EQ(r.value().rows[0][1].AsInt64(), -1);
    EXPECT_EQ(r.value().rows[0][2].ToString(), "-0.50");
    EXPECT_EQ(r.value().rows[1][0].AsInt64(), -5);
    EXPECT_EQ(r.value().rows[1][1].AsInt64(), -9000000000LL);
    EXPECT_EQ(r.value().rows[1][2].ToString(), "-12.34");
    // A negative literal is sargable like any other.
    auto eq = db.Execute("SELECT v FROM n WHERE k = -5");
    ASSERT_TRUE(eq.ok());
    ASSERT_EQ(eq.value().rows.size(), 1u);
    EXPECT_EQ(eq.value().rows[0][0].AsInt64(), -9000000000LL);

    for (const char* out_of_range :
         {"(-2147483649, 0, 0)", "(1, 0, -99999999999999999)"}) {
      auto over = db.Execute(std::string("INSERT INTO n VALUES ") + out_of_range);
      ASSERT_FALSE(over.ok()) << out_of_range;
      EXPECT_EQ(over.status().code(), StatusCode::kInvalidArgument)
          << over.status().ToString();
    }
    auto count = db.Execute("SELECT COUNT(*) FROM n");
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(count.value().rows[0][0].AsInt64(), 3);
  }
}

}  // namespace
}  // namespace elephant
