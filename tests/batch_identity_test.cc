#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "engine/database.h"
#include "sqlite_oracle.h"

namespace elephant {
namespace {

/// Differential harness for the execution engine, with SQLite as the
/// reference (sqlite_oracle.h lists the comparison rules and the deliberate
/// divergences it normalizes). Every query runs serial and PARALLEL 4; both
/// results must agree with the oracle, with each other as multisets, and
/// with their own rows_output counter. A randomized single-table generator
/// sweeps scans, filters, projections, both aggregate kinds, DISTINCT,
/// ORDER BY and LIMIT; a randomized comma-join generator sweeps the index
/// nested loop, hash and band-merge joins, and the Filter/Project/
/// HashAggregate/StreamAggregate over them. Fixed shapes pin regressions and
/// structurally interesting cases (batch-boundary groups, LIMIT over Gather,
/// scalar aggregates over empty inputs, guarded and unguarded errors).
class BatchIdentityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatabaseOptions opts;
    opts.cold_cache = false;
    opts.worker_threads = 4;
    db_ = new Database(opts);
    ASSERT_TRUE(
        db_->Execute("CREATE TABLE t (k INT, grp INT, a INT, b BIGINT, "
                     "amount DECIMAL) CLUSTER BY (k)")
            .ok());
    // 3000 rows so serial batch plans cross the 1024-row batch boundary
    // twice. NULLs are sprinkled into a and amount (every 7th / 11th row)
    // so NULL comparison, SUM-skips-NULL, and COUNT(col) semantics are all
    // exercised; a, b and amount take negative values too. Values are kept
    // small enough that no generated arithmetic can overflow (overflow
    // parity has its own tests in common_test).
    Rng rng(0xe1e9);
    std::string multi;
    for (int i = 0; i < 3000; i++) {
      const std::string a =
          i % 7 == 0 ? "NULL" : std::to_string(rng.Uniform(0, 200) - 100);
      const std::string amount =
          i % 11 == 0 ? "NULL"
                      : std::to_string(rng.Uniform(0, 19998) - 9999) + "." +
                            std::to_string(rng.Uniform(10, 99));
      multi += (i == 0 ? "(" : ", (") + std::to_string(i) + ", " +
               std::to_string(i % 13) + ", " + a + ", " +
               std::to_string(rng.Uniform(0, 4000000) - 2000000) + ", " +
               amount + ")";
    }
    ASSERT_TRUE(db_->Execute("INSERT INTO t VALUES " + multi).ok());
    ASSERT_TRUE(db_->Execute("CREATE INDEX t_grp ON t (grp) INCLUDE (a)").ok());

    // Second clustered table, keyed on negative and positive k, for joins:
    // u.tk references t.k (covering index u_tk), u.k meets t.a, u.c meets
    // t.a through a hash join.
    ASSERT_TRUE(db_->Execute("CREATE TABLE u (k INT, tk INT, c INT, "
                             "price DECIMAL) CLUSTER BY (k)")
                    .ok());
    multi.clear();
    for (int i = 0; i < 500; i++) {
      const std::string c =
          i % 9 == 0 ? "NULL" : std::to_string(rng.Uniform(0, 100) - 50);
      multi += (i == 0 ? "(" : ", (") + std::to_string(i - 250) + ", " +
               std::to_string(rng.Uniform(0, 2999)) + ", " + c + ", " +
               std::to_string(rng.Uniform(0, 999) - 500) + "." +
               std::to_string(rng.Uniform(10, 99)) + ")";
    }
    ASSERT_TRUE(db_->Execute("INSERT INTO u VALUES " + multi).ok());
    ASSERT_TRUE(db_->Execute("CREATE INDEX u_tk ON u (tk) INCLUDE (c)").ok());

    // Third clustered table for three-way joins: w.uk references u.k, and
    // w.note is a VARCHAR, so narrowed scans skip or decode a string column.
    // w.ub is a BIGINT copy of w.uk, so INT = BIGINT join keys meet both
    // join kinds (covering index w_ub); every 23rd row moves it 2^32 up,
    // out of INT's range, where it must match no u.k.
    ASSERT_TRUE(db_->Execute("CREATE TABLE w (k INT, uk INT, tag INT, "
                             "note VARCHAR, ub BIGINT) CLUSTER BY (k)")
                    .ok());
    multi.clear();
    for (int i = 0; i < 300; i++) {
      const int64_t uk = rng.Uniform(0, 499) - 250;
      const int64_t ub = i % 23 == 0 ? uk + (int64_t{1} << 32) : uk;
      multi += (i == 0 ? "(" : ", (") + std::to_string(i) + ", " +
               std::to_string(uk) + ", " + std::to_string(i % 17) + ", 'n" +
               std::to_string(i % 40) + "', " + std::to_string(ub) + ")";
    }
    ASSERT_TRUE(db_->Execute("INSERT INTO w VALUES " + multi).ok());
    ASSERT_TRUE(
        db_->Execute("CREATE INDEX w_ub ON w (ub) INCLUDE (note)").ok());

    auto oracle = SqliteOracle::Open();
    if (!oracle.ok()) {
      oracle_status_ = new Status(oracle.status());
      return;
    }
    oracle_ = std::move(oracle).value().release();
    for (const char* table : {"t", "u", "w"}) {
      Status s = oracle_->CopyTable(db_, table);
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
  }
  static void TearDownTestSuite() {
    delete oracle_;
    oracle_ = nullptr;
    delete oracle_status_;
    oracle_status_ = nullptr;
    delete db_;
    db_ = nullptr;
  }

  void SetUp() override {
    if (oracle_ == nullptr) {
      GTEST_SKIP() << "*** SQLite ORACLE UNAVAILABLE: differential checks NOT "
                      "RUN *** ("
                   << (oracle_status_ != nullptr ? oracle_status_->ToString()
                                                 : std::string("unknown"))
                   << ")";
    }
  }

  static PlanHints Parallel() {
    PlanHints h;
    h.parallel_workers = 4;
    return h;
  }

  /// Runs `sql` serial and PARALLEL 4 and asserts:
  ///  - both succeed and agree with the SQLite oracle;
  ///  - serial vs parallel: identical as multisets (a parallel plan may
  ///    legitimately pick a different access path, e.g. clustered morsels
  ///    where serial uses a covering index, changing unordered row order);
  ///  - rows_output is "rows the root emitted" at both degrees of
  ///    parallelism, including LIMIT-atop-Gather shapes.
  static void ExpectAgrees(const std::string& sql) {
    auto serial = db_->Execute(sql);
    ASSERT_TRUE(serial.ok()) << sql << "\n" << serial.status().ToString();
    auto par = db_->Execute(sql, Parallel());
    ASSERT_TRUE(par.ok()) << sql << " [parallel]\n" << par.status().ToString();
    Status s = oracle_->Check(sql, serial.value());
    EXPECT_TRUE(s.ok()) << s.ToString();
    s = oracle_->Check(sql, par.value());
    EXPECT_TRUE(s.ok()) << "[parallel] " << s.ToString();
    ExpectSameMultiset(serial.value(), par.value(),
                       sql + " [serial vs parallel]");
    EXPECT_EQ(serial.value().counters.rows_output, serial.value().rows.size())
        << sql;
    EXPECT_EQ(par.value().counters.rows_output, par.value().rows.size())
        << sql;
  }

  /// Statements the engine must reject: serial and PARALLEL 4 fail with the
  /// same code (the oracle cannot judge these; SQLite yields NULL instead).
  static void ExpectSameError(const std::string& sql) {
    auto serial = db_->Execute(sql);
    auto par = db_->Execute(sql, Parallel());
    ASSERT_FALSE(serial.ok()) << sql;
    ASSERT_FALSE(par.ok()) << sql << " [parallel]";
    EXPECT_EQ(serial.status().code(), StatusCode::kInvalidArgument) << sql;
    EXPECT_EQ(serial.status().code(), par.status().code()) << sql;
  }

  /// Whether an EXPLAIN text has a node whose label contains `op`.
  static bool HasOperator(const std::string& plan, const std::string& op) {
    return plan.find(op) != std::string::npos;
  }

  static void ExpectSameMultiset(const QueryResult& want,
                                 const QueryResult& got,
                                 const std::string& what) {
    auto render = [](const QueryResult& r) {
      std::vector<std::string> out;
      out.reserve(r.rows.size());
      for (const Row& row : r.rows) {
        std::string s;
        for (const Value& v : row) s += v.ToString() + "|";
        out.push_back(std::move(s));
      }
      std::sort(out.begin(), out.end());
      return out;
    };
    EXPECT_EQ(render(want), render(got)) << what;
  }

  static Database* db_;
  static SqliteOracle* oracle_;
  static Status* oracle_status_;
};

// There is no row-at-a-time operator left to reach: a plan is a tree of
// batch operators from its root down.
static_assert(
    std::is_same_v<decltype(PlannedQuery::executor), BatchExecutorPtr>,
    "plans must be batch operator trees");

Database* BatchIdentityTest::db_ = nullptr;
SqliteOracle* BatchIdentityTest::oracle_ = nullptr;
Status* BatchIdentityTest::oracle_status_ = nullptr;

// ---------- fixed regression shapes ----------

TEST_F(BatchIdentityTest, ScanProjectFilter) {
  ExpectAgrees("SELECT k, a, amount FROM t WHERE k >= 100 AND k < 2200");
  ExpectAgrees("SELECT k + 1, amount FROM t WHERE grp = 5 AND a > 10");
  ExpectAgrees("SELECT k FROM t WHERE a IS NULL");
  ExpectAgrees("SELECT k FROM t WHERE 1 = 0");
  ExpectAgrees("SELECT k, a / 4, amount / 3 FROM t WHERE a < -90");
  ExpectAgrees("SELECT k, b FROM t WHERE b < -1999000 OR amount > 9990");
}

TEST_F(BatchIdentityTest, CoveringIndexScan) {
  ExpectAgrees("SELECT grp, a FROM t WHERE grp = 7");
  ExpectAgrees("SELECT grp, a FROM t WHERE grp >= 10");
}

TEST_F(BatchIdentityTest, Aggregates) {
  ExpectAgrees("SELECT COUNT(*), SUM(a), MIN(b), MAX(b), AVG(amount) FROM t");
  ExpectAgrees("SELECT grp, COUNT(*), SUM(b), AVG(a) FROM t GROUP BY grp");
  ExpectAgrees(
      "SELECT grp, COUNT(a) FROM t GROUP BY grp HAVING COUNT(a) > 100");
  ExpectAgrees("SELECT a, COUNT(*), SUM(amount) FROM t GROUP BY a");
  ExpectAgrees("SELECT grp, SUM(a) / COUNT(a) FROM t GROUP BY grp");
  // Scalar aggregate over an empty input: exactly one row either way.
  ExpectAgrees("SELECT COUNT(*), SUM(a) FROM t WHERE k < 0");
  ExpectAgrees("SELECT grp, SUM(a) FROM t WHERE k < 0 GROUP BY grp");
}

TEST_F(BatchIdentityTest, StreamAggregateBatchBoundaryGroups) {
  // STREAM_AGG sorts then aggregates; grouping by grp makes each group's
  // rows span many 1024-row batches after the sort.
  ExpectAgrees(
      "/*+ STREAM_AGG */ SELECT grp, COUNT(*), SUM(b) FROM t GROUP BY grp");
}

TEST_F(BatchIdentityTest, DistinctOrderByLimit) {
  ExpectAgrees("SELECT DISTINCT grp FROM t ORDER BY grp");
  ExpectAgrees("SELECT k, a FROM t ORDER BY k DESC LIMIT 17");
  ExpectAgrees("SELECT DISTINCT grp FROM t ORDER BY grp LIMIT 4");
  // NULL ordering: NULLs first ascending, last descending.
  ExpectAgrees("SELECT a, k FROM t ORDER BY 1, 2 LIMIT 30");
  ExpectAgrees("SELECT a, k FROM t ORDER BY 1 DESC, 2 LIMIT 30");
  // LIMIT smaller than one batch: the batch scan may overscan, but the
  // emitted rows must match exactly.
  ExpectAgrees("SELECT k FROM t LIMIT 3");
}

TEST_F(BatchIdentityTest, LimitAtopGather) {
  // Regression shape for the rows_output audit: LIMIT above the parallel
  // Gather exchange discards most of what the workers produced.
  auto r = db_->Execute("SELECT k FROM t LIMIT 5", Parallel());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().rows.size(), 5u);
  EXPECT_EQ(r.value().counters.rows_output, 5u);
  ExpectAgrees("SELECT k, b FROM t ORDER BY k LIMIT 5");
}

TEST_F(BatchIdentityTest, ErrorParity) {
  // Division by zero fails serial and parallel with the same code (the
  // batch engine must not mask it, or hit it in a different order after a
  // filter).
  ExpectSameError("SELECT k / 0 FROM t");
  ExpectSameError("SELECT 10 / a FROM t WHERE a = 0");
  // Short-circuit protection: the division is guarded by the conjunct
  // before it, so it is never evaluated at a = 0, and the statement
  // succeeds with SQLite's rows.
  ExpectAgrees("SELECT k FROM t WHERE a <> 0 AND 100 / a > 1");
}

TEST_F(BatchIdentityTest, JoinShapes) {
  // Each shape names the join operator it is meant to reach.
  struct Shape {
    const char* sql;
    const char* op;
  };
  const Shape shapes[] = {
      {"/*+ LOOP_JOIN */ SELECT t.k, u.k, u.price FROM t, u "
       "WHERE u.k = t.a AND t.grp = 3",
       "IndexNestedLoopJoin inner=U as U (clustered seek"},
      {"/*+ LOOP_JOIN */ SELECT u.tk, u.c, t.b FROM u, t WHERE t.k = u.tk",
       "IndexNestedLoopJoin"},
      {"/*+ FORCE_ORDER LOOP_JOIN */ SELECT t.k, u.c FROM t, u "
       "WHERE u.tk = t.k AND t.k < 400",
       "IndexNestedLoopJoin inner=U as U (covering seek U_TK)"},
      {"/*+ HASH_JOIN */ SELECT t.k, u.k FROM t, u WHERE t.a = u.c",
       "HashJoin"},
      // Overlapping bands (t.a repeats), inclusive and strict.
      {"/*+ MERGE_JOIN */ SELECT t.k, u.k FROM t, u "
       "WHERE u.k >= t.a AND u.k <= t.a + 3 AND t.grp = 1",
       "BandMergeJoin"},
      {"/*+ MERGE_JOIN */ SELECT t.k, u.k, u.c FROM t, u "
       "WHERE u.k > t.a AND u.k < t.a + 3 AND t.grp = 2",
       "BandMergeJoin"},
      {"SELECT t.k, u.k FROM t, u WHERE t.a < u.c AND t.k < 20 AND u.k < -240",
       "NestedProduct"},
      {"SELECT t.grp, COUNT(*), SUM(u.price), AVG(t.a) FROM t INNER JOIN u "
       "ON u.k = t.a GROUP BY t.grp HAVING COUNT(*) > 5",
       "HashAggregate"},
      {"/*+ STREAM_AGG */ SELECT u.c, MIN(t.b), MAX(t.amount) FROM t, u "
       "WHERE t.a = u.c GROUP BY u.c",
       "StreamAggregate"},
      {"SELECT DISTINCT t.grp, u.c FROM t, u WHERE u.k = t.a ORDER BY 1, 2",
       "Distinct"},
      {"SELECT x.g, x.n, u.price FROM (SELECT grp AS g, COUNT(*) AS n FROM t "
       "GROUP BY grp) AS x, u WHERE u.k = x.g",
       "DerivedTable"},
  };
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.sql);
    auto plan = db_->Explain(shape.sql);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_TRUE(HasOperator(plan.value(), shape.op)) << plan.value();
    ExpectAgrees(shape.sql);
  }
}

// ---------- randomized differential sweeps ----------

TEST_F(BatchIdentityTest, RandomizedDifferentialSweep) {
  Rng rng(20260807);
  const char* scalar_cols[] = {"k", "grp", "a", "b", "amount"};
  const char* int_cols[] = {"k", "grp", "a"};
  const char* cmps[] = {"=", "<>", "<", "<=", ">", ">="};
  auto col = [&] { return scalar_cols[rng.Uniform(0, 4)]; };
  auto icol = [&] { return int_cols[rng.Uniform(0, 2)]; };
  auto cmp = [&] { return cmps[rng.Uniform(0, 5)]; };
  // Division only by non-zero literals: the engines may evaluate different
  // row sets past LIMIT/filter boundaries, so a data-dependent error could
  // legitimately fire in one plan and not the other. Overflow-prone
  // arithmetic is excluded the same way (parity for guarded/unguarded
  // errors is pinned by the fixed shapes above).
  // A term is a comparison, a BETWEEN, or IS [NOT] NULL over a NULL-bearing
  // column (a, amount). NOT is left out: the engine's NULL comparison is
  // FALSE, which differs from SQL's UNKNOWN only under NOT.
  const char* null_cols[] = {"a", "amount"};
  auto term = [&]() -> std::string {
    const int kind = static_cast<int>(rng.Uniform(0, 5));
    if (kind == 0) {
      const int64_t lo = rng.Uniform(-140, 2500);
      return std::string(col()) + " BETWEEN " + std::to_string(lo) + " AND " +
             std::to_string(lo + rng.Uniform(-10, 400));
    }
    if (kind == 1) {
      return std::string(null_cols[rng.Uniform(0, 1)]) +
             (rng.Uniform(0, 1) == 0 ? " IS NULL" : " IS NOT NULL");
    }
    return std::string(col()) + " " + cmp() + " " +
           std::to_string(rng.Uniform(-140, 2500));
  };
  auto predicate = [&]() -> std::string {
    std::string p = term();
    if (rng.Uniform(0, 2) == 0) {
      p += (rng.Uniform(0, 1) == 0 ? " AND " : " OR ") + term();
    }
    return p;
  };
  int checked = 0;
  for (int q = 0; q < 60; q++) {
    std::string sql;
    const int shape = static_cast<int>(rng.Uniform(0, 3));
    if (shape == 0) {
      sql = "SELECT " + std::string(col()) + ", " + std::string(icol()) +
            " + " + std::to_string(rng.Uniform(0, 100)) + ", " + col() +
            " / " + std::to_string(rng.Uniform(1, 9)) + " FROM t WHERE " +
            predicate();
    } else if (shape == 1) {
      sql = "SELECT grp, COUNT(*), SUM(" + std::string(icol()) + "), AVG(" +
            std::string(icol()) + ") FROM t WHERE " + predicate() +
            " GROUP BY grp";
      if (rng.Uniform(0, 1) == 0) sql += " HAVING COUNT(*) > 10";
    } else {
      sql = "SELECT MIN(" + std::string(col()) + "), MAX(" +
            std::string(col()) + "), COUNT(" + std::string(col()) +
            ") FROM t WHERE " + predicate();
    }
    if (rng.Uniform(0, 2) == 0) sql += " ORDER BY 1";
    if (rng.Uniform(0, 2) == 0) {
      sql += " LIMIT " + std::to_string(rng.Uniform(0, 40));
    }
    SCOPED_TRACE(sql);
    ExpectAgrees(sql);
    checked++;
  }
  EXPECT_EQ(checked, 60);
}

TEST_F(BatchIdentityTest, RandomizedJoinSweep) {
  Rng rng(20261017);
  // Join predicates, each with the hints that may steer it: equality on u's
  // clustered key (INLJ or hash), on u's covering index, on t's clustered
  // key, on two unindexed columns (hash), and inclusive and strict bands on
  // u.k (band merge or INLJ range; FORCE_ORDER keeps u inner, since the
  // other order is a 1.5M-pair product).
  struct JoinKind {
    const char* pred;
    std::vector<const char*> hints;
  };
  const JoinKind joins[] = {
      {"u.k = t.a", {"", "LOOP_JOIN", "HASH_JOIN"}},
      {"u.tk = t.k", {"", "LOOP_JOIN", "HASH_JOIN", "FORCE_ORDER"}},
      {"t.k = u.tk", {"", "LOOP_JOIN", "FORCE_ORDER LOOP_JOIN"}},
      {"t.a = u.c", {"", "HASH_JOIN"}},
      {"u.k >= t.a AND u.k <= t.a + 2",
       {"FORCE_ORDER MERGE_JOIN", "FORCE_ORDER LOOP_JOIN", "FORCE_ORDER"}},
      {"u.k > t.a - 2 AND u.k < t.a + 2",
       {"FORCE_ORDER MERGE_JOIN", "FORCE_ORDER"}},
  };
  const char* t_cols[] = {"t.k", "t.grp", "t.a", "t.b", "t.amount"};
  const char* u_cols[] = {"u.k", "u.tk", "u.c", "u.price"};
  const char* cmps[] = {"=", "<>", "<", "<=", ">", ">="};
  auto any_col = [&]() -> std::string {
    return rng.Uniform(0, 1) == 0 ? t_cols[rng.Uniform(0, 4)]
                                  : u_cols[rng.Uniform(0, 3)];
  };
  // Single-table filters push down to the scans; a filter over both tables
  // stays above the join as a Filter (or a join residual).
  auto filter = [&]() -> std::string {
    if (rng.Uniform(0, 3) == 0) {
      return std::string("t.a + u.k ") + cmps[rng.Uniform(0, 5)] + " " +
             std::to_string(rng.Uniform(-100, 100));
    }
    return any_col() + " " + cmps[rng.Uniform(0, 5)] + " " +
           std::to_string(rng.Uniform(-120, 1500));
  };
  std::map<std::string, int> ops_seen;
  const char* ops[] = {"IndexNestedLoopJoin", "HashJoin",        "BandMergeJoin",
                       "Filter",              "Project",         "HashAggregate",
                       "StreamAggregate",     "Distinct"};
  int checked = 0;
  for (int q = 0; q < 36; q++) {
    const JoinKind& join = joins[rng.Uniform(0, 5)];
    const std::string hint = join.hints[rng.Uniform(0, join.hints.size() - 1)];
    const int shape = static_cast<int>(rng.Uniform(0, 2));
    const bool stream = shape == 1 && rng.Uniform(0, 1) == 0;
    std::string hints = hint;
    if (stream) hints += hints.empty() ? "STREAM_AGG" : " STREAM_AGG";
    std::string sql = hints.empty() ? "SELECT " : "/*+ " + hints + " */ SELECT ";
    int width;
    std::string group;
    if (shape == 0) {
      // Projection, with arithmetic over both sides.
      sql += any_col() + ", " + any_col() + ", t.k + u.k, u.price / 4";
      width = 4;
    } else if (shape == 1) {
      group = rng.Uniform(0, 1) == 0 ? "t.grp" : "u.c";
      sql += group + ", COUNT(*), SUM(" + any_col() + "), MIN(" + any_col() +
             "), AVG(t.a)";
      width = 5;
    } else {
      sql += "DISTINCT " + any_col() + ", " + any_col();
      width = 2;
    }
    sql += " FROM t, u WHERE " + std::string(join.pred);
    const int nfilters = static_cast<int>(rng.Uniform(0, 2));
    for (int f = 0; f < nfilters; f++) sql += " AND " + filter();
    if (!group.empty()) {
      sql += " GROUP BY " + group;
      if (rng.Uniform(0, 1) == 0) sql += " HAVING COUNT(*) > 2";
    }
    if (rng.Uniform(0, 1) == 0) {
      sql += " ORDER BY " + std::to_string(rng.Uniform(1, width));
      if (rng.Uniform(0, 1) == 0) sql += " DESC";
    }
    if (rng.Uniform(0, 2) == 0) {
      sql += " LIMIT " + std::to_string(rng.Uniform(0, 50));
    }
    SCOPED_TRACE(sql);
    auto plan = db_->Explain(sql);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    for (const char* op : ops) {
      if (HasOperator(plan.value(), op)) ops_seen[op]++;
    }
    ExpectAgrees(sql);
    checked++;
  }
  EXPECT_GE(checked, 30);
  // The sweep must reach every operator it exists to check.
  for (const char* op : ops) EXPECT_GT(ops_seen[op], 0) << op;
}

TEST_F(BatchIdentityTest, RandomizedMultiJoinProjectionSweep) {
  Rng rng(20261019);
  // Two- and three-table equi-joins, some on INT = BIGINT keys, each
  // projecting a random subset of its tables' columns: the scans decode only
  // what the statement references, and the planner's (or FORCE_ORDER's)
  // join order decides which narrowed input each join builds on, so
  // narrowed rows meet every join and every column position.
  struct JoinSet {
    const char* from;
    const char* where;
    std::vector<const char*> cols;
    std::vector<const char*> int_cols;
  };
  const JoinSet sets[] = {
      {"t, u", "u.k = t.a",
       {"t.k", "t.grp", "t.a", "t.b", "t.amount", "u.k", "u.tk", "u.c",
        "u.price"},
       {"t.grp", "t.a", "u.c"}},
      {"u, t", "t.k = u.tk",
       {"u.k", "u.tk", "u.c", "u.price", "t.k", "t.grp", "t.b"},
       {"u.c", "t.grp", "t.k"}},
      {"t, u, w", "u.k = t.a AND w.uk = u.k",
       {"t.k", "t.grp", "t.amount", "u.k", "u.c", "u.price", "w.k", "w.tag",
        "w.note"},
       {"t.grp", "u.c", "w.tag"}},
      {"w, u, t", "w.uk = u.k AND t.k = u.tk",
       {"w.k", "w.uk", "w.note", "u.tk", "u.price", "t.grp", "t.a", "t.b"},
       {"w.tag", "u.c", "t.grp"}},
      // INT = BIGINT keys, either side outer or inner.
      {"w, u", "w.ub = u.k",
       {"w.k", "w.ub", "w.note", "u.k", "u.c", "u.price"},
       {"w.tag", "u.c", "w.k"}},
      {"u, w, t", "u.k = w.ub AND t.k = u.tk",
       {"u.k", "u.c", "w.ub", "w.note", "t.k", "t.grp", "t.b"},
       {"u.c", "w.tag", "t.grp"}},
  };
  const char* hints[] = {"", "HASH_JOIN", "LOOP_JOIN", "FORCE_ORDER",
                         "FORCE_ORDER HASH_JOIN"};
  const char* cmps[] = {"=", "<>", "<", "<=", ">", ">="};
  std::map<std::string, int> ops_seen;
  const char* ops[] = {"HashJoin", "IndexNestedLoopJoin"};
  for (int q = 0; q < 40; q++) {
    const JoinSet& set = sets[rng.Uniform(0, 5)];
    const std::string hint = hints[rng.Uniform(0, 4)];
    // A random subset of 1-4 distinct columns, in random order.
    std::vector<const char*> cols = set.cols;
    for (size_t i = cols.size() - 1; i > 0; i--) {
      std::swap(cols[i], cols[rng.Uniform(0, i)]);
    }
    cols.resize(rng.Uniform(1, 4));
    std::string sql = hint.empty() ? "SELECT " : "/*+ " + hint + " */ SELECT ";
    if (rng.Uniform(0, 3) == 0) sql += "DISTINCT ";
    for (size_t i = 0; i < cols.size(); i++) {
      sql += (i == 0 ? "" : ", ") + std::string(cols[i]);
    }
    sql += " FROM " + std::string(set.from) + " WHERE " + set.where;
    if (rng.Uniform(0, 1) == 0) {
      sql += " AND " + std::string(set.int_cols[rng.Uniform(0, 2)]) + " " +
             cmps[rng.Uniform(0, 5)] + " " + std::to_string(rng.Uniform(-20, 20));
    }
    if (rng.Uniform(0, 1) == 0) {
      sql += " ORDER BY " + std::to_string(rng.Uniform(1, cols.size()));
    }
    SCOPED_TRACE(sql);
    auto plan = db_->Explain(sql);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    for (const char* op : ops) {
      if (HasOperator(plan.value(), op)) ops_seen[op]++;
    }
    ExpectAgrees(sql);
  }
  for (const char* op : ops) EXPECT_GT(ops_seen[op], 0) << op;
}

}  // namespace
}  // namespace elephant
