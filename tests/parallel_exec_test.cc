#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "benchlib/harness.h"
#include "engine/database.h"
#include "engine/session.h"
#include "obs/plan_stats.h"
#include "tpch/tpch.h"

namespace elephant {
namespace {

/// End-to-end coverage of the parallel execution path: PARALLEL plans must
/// return byte-identical results to the serial plans they replace, per-query
/// I/O attribution must stay exact with workers running, and concurrent
/// sessions must each see the same answers they would get alone.
class ParallelExecTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatabaseOptions opts;
    opts.cold_cache = false;  // sessions run concurrently in some tests
    opts.worker_threads = 4;
    db_ = new Database(opts);
    TpchConfig config;
    config.scale_factor = 0.005;
    TpchGenerator gen(config);
    ASSERT_TRUE(gen.LoadInto(db_).ok());
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  static Result<QueryResult> Run(const std::string& sql) {
    return db_->Execute(sql);
  }

  /// Asserts the two results are byte-identical: same schema, same row
  /// count, same values in the same order (Value::operator== is exact,
  /// including DOUBLE bits — the morsel-order merge makes float aggregation
  /// deterministic).
  static void ExpectIdentical(const QueryResult& serial,
                              const QueryResult& parallel,
                              const std::string& what) {
    ASSERT_EQ(serial.schema.NumColumns(), parallel.schema.NumColumns()) << what;
    ASSERT_EQ(serial.rows.size(), parallel.rows.size()) << what;
    for (size_t i = 0; i < serial.rows.size(); i++) {
      ASSERT_EQ(serial.rows[i].size(), parallel.rows[i].size()) << what;
      for (size_t j = 0; j < serial.rows[i].size(); j++) {
        EXPECT_TRUE(serial.rows[i][j] == parallel.rows[i][j])
            << what << " row " << i << " col " << j << ": "
            << serial.rows[i][j].ToString() << " vs "
            << parallel.rows[i][j].ToString();
      }
    }
    EXPECT_EQ(paper::ResultChecksum(serial), paper::ResultChecksum(parallel))
        << what;
  }

  /// Runs `sql` serially and with `/*+ PARALLEL 4 */`, asserting identity.
  void CheckParallelMatchesSerial(const std::string& sql) {
    auto serial = Run(sql);
    ASSERT_TRUE(serial.ok()) << sql << "\n" << serial.status().ToString();
    auto parallel = Run("/*+ PARALLEL 4 */ " + sql);
    ASSERT_TRUE(parallel.ok()) << sql << "\n" << parallel.status().ToString();
    ExpectIdentical(serial.value(), parallel.value(), sql);
  }

  static Database* db_;
};

Database* ParallelExecTest::db_ = nullptr;

TEST_F(ParallelExecTest, RangeScanMatchesSerial) {
  CheckParallelMatchesSerial(
      "SELECT l_orderkey, l_linenumber, l_quantity, l_extendedprice "
      "FROM lineitem WHERE l_orderkey < 3000");
}

TEST_F(ParallelExecTest, FullScanWithResidualFilterMatchesSerial) {
  CheckParallelMatchesSerial(
      "SELECT l_orderkey, l_shipdate, l_discount FROM lineitem "
      "WHERE l_discount > 0.04");
}

TEST_F(ParallelExecTest, ScalarAggregateMatchesSerial) {
  CheckParallelMatchesSerial(
      "SELECT COUNT(*), SUM(l_quantity), AVG(l_extendedprice), "
      "MIN(l_shipdate), MAX(l_shipdate) FROM lineitem");
}

TEST_F(ParallelExecTest, ScalarAggregateOnEmptyRangeMatchesSerial) {
  CheckParallelMatchesSerial(
      "SELECT COUNT(*), SUM(l_quantity) FROM lineitem WHERE l_orderkey < 0");
}

TEST_F(ParallelExecTest, GroupByAggregateMatchesSerial) {
  // The paper's Q1 shape: wide aggregate grouped on two low-cardinality
  // columns — every aggregate function crosses the partial/final merge.
  CheckParallelMatchesSerial(
      "SELECT l_returnflag, l_linestatus, COUNT(*), SUM(l_quantity), "
      "SUM(l_extendedprice), AVG(l_extendedprice), AVG(l_discount), "
      "MIN(l_shipdate), MAX(l_shipdate) "
      "FROM lineitem GROUP BY l_returnflag, l_linestatus "
      "ORDER BY l_returnflag, l_linestatus");
}

TEST_F(ParallelExecTest, GroupByWithHavingMatchesSerial) {
  CheckParallelMatchesSerial(
      "SELECT l_suppkey, COUNT(*), SUM(l_quantity) FROM lineitem "
      "GROUP BY l_suppkey HAVING COUNT(*) > 200 ORDER BY l_suppkey");
}

TEST_F(ParallelExecTest, GroupByWithOrderByLimitMatchesSerial) {
  CheckParallelMatchesSerial(
      "SELECT l_shipdate, SUM(l_quantity) FROM lineitem "
      "GROUP BY l_shipdate ORDER BY l_shipdate LIMIT 25");
}

TEST_F(ParallelExecTest, RangePredicateWithAggregateMatchesSerial) {
  CheckParallelMatchesSerial(
      "SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem "
      "WHERE l_orderkey >= 1000 AND l_orderkey < 6000 AND l_discount > 0.02");
}

TEST_F(ParallelExecTest, ExplainShowsGatherAndMorselScan) {
  auto parallel = db_->Explain(
      "/*+ PARALLEL 4 */ SELECT COUNT(*) FROM lineitem");
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_NE(parallel.value().find("Gather"), std::string::npos)
      << parallel.value();
  EXPECT_NE(parallel.value().find("ParallelMorselScan"), std::string::npos)
      << parallel.value();
  EXPECT_NE(parallel.value().find("FinalAggregate"), std::string::npos)
      << parallel.value();

  auto serial = db_->Explain("SELECT COUNT(*) FROM lineitem");
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(serial.value().find("Gather"), std::string::npos)
      << serial.value();
}

TEST_F(ParallelExecTest, MultiTableQueryFallsBackToSerial) {
  const std::string sql =
      "SELECT COUNT(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey";
  auto plan = db_->Explain("/*+ PARALLEL 4 */ " + sql);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan.value().find("Gather"), std::string::npos) << plan.value();
  // And it still executes correctly with the hint present.
  CheckParallelMatchesSerial(sql);
}

TEST_F(ParallelExecTest, ParallelOneStaysSerial) {
  auto plan = db_->Explain("/*+ PARALLEL 1 */ SELECT COUNT(*) FROM lineitem");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().find("Gather"), std::string::npos) << plan.value();
}

/// Per-operator I/O carries every IoStats field, read-ahead included: the
/// root operator's inclusive traffic is the statement's, and the operators'
/// modeled I/O seconds (the stat-statements residuals) add up to the
/// statement's io_seconds. Serial and PARALLEL 4, cold.
TEST_F(ParallelExecTest, OperatorIoCarriesReadahead) {
  // Summed modeled seconds over every registry entry: the operators' and
  // the statements'.
  auto registry = [] {
    std::pair<double, double> sums{0, 0};
    for (const obs::StatementStats& e : db_->stat_statements().Snapshot()) {
      for (const auto& [cls, stats] : e.operator_classes) {
        sums.first += stats.modeled_io_seconds;
      }
      sums.second += e.total_io_seconds;
    }
    return sums;
  };
  const std::string sql =
      "SELECT l_linestatus, COUNT(*), SUM(l_quantity) FROM lineitem "
      "GROUP BY l_linestatus";
  for (const int workers : {1, 4}) {
    PlanHints hints;
    hints.parallel_workers = workers;
    const std::pair<double, double> before = registry();
    db_->options().cold_cache = true;  // single stream here: valid
    auto r = db_->ExplainAnalyze(sql, hints);
    db_->options().cold_cache = false;
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const QueryResult& qr = r.value().result;
    EXPECT_EQ(r.value().text.find("Gather") != std::string::npos, workers > 1)
        << r.value().text;
    ASSERT_GT(qr.io.readahead.prefetch_hits, 0u) << r.value().text;

    const IoStats& root = qr.plan->stats->io;
    EXPECT_EQ(root.sequential_reads, qr.io.sequential_reads);
    EXPECT_EQ(root.random_reads, qr.io.random_reads);
    EXPECT_EQ(root.page_writes, qr.io.page_writes);
    EXPECT_EQ(root.fsyncs, qr.io.fsyncs);
    EXPECT_EQ(root.readahead.windows_issued, qr.io.readahead.windows_issued);
    EXPECT_EQ(root.readahead.pages_prefetched,
              qr.io.readahead.pages_prefetched);
    EXPECT_EQ(root.readahead.prefetch_hits, qr.io.readahead.prefetch_hits);
    EXPECT_EQ(root.readahead.prefetch_wasted, qr.io.readahead.prefetch_wasted);

    const std::pair<double, double> after = registry();
    const double operators = after.first - before.first;
    const double statement = after.second - before.second;
    EXPECT_NEAR(statement, qr.io_seconds, 1e-9 * qr.io_seconds);
    EXPECT_NEAR(operators, statement, 1e-9 * statement)
        << "workers=" << workers << "\n" << r.value().text;
  }
}

/// The observability invariant from explain_analyze_test, now under a
/// parallel plan: worker-thread page reads, folded through per-worker
/// IoSinks, must sum exactly to the query-level IoStats.
TEST_F(ParallelExecTest, ParallelOperatorIoSumsToQueryIo) {
  const std::string queries[] = {
      "SELECT l_orderkey, l_quantity FROM lineitem WHERE l_orderkey < 4000",
      "SELECT l_returnflag, COUNT(*), SUM(l_quantity) FROM lineitem "
      "GROUP BY l_returnflag",
  };
  for (const std::string& sql : queries) {
    db_->options().cold_cache = true;  // single stream here: valid
    auto r = db_->ExplainAnalyze("/*+ PARALLEL 4 */ " + sql);
    db_->options().cold_cache = false;
    ASSERT_TRUE(r.ok()) << sql << "\n" << r.status().ToString();
    const QueryResult& qr = r.value().result;
    ASSERT_NE(qr.plan, nullptr);
    uint64_t seq = 0, rand = 0, misses = 0;
    for (const obs::OperatorBreakdown& op : obs::FlattenPlan(*qr.plan)) {
      seq += op.io.sequential_reads;
      rand += op.io.random_reads;
      misses += op.pool_misses;
    }
    EXPECT_EQ(seq, qr.io.sequential_reads) << sql << "\n" << r.value().text;
    EXPECT_EQ(rand, qr.io.random_reads) << sql << "\n" << r.value().text;
    EXPECT_EQ(misses, qr.io.TotalReads()) << sql << "\n" << r.value().text;
    EXPECT_GT(qr.io.TotalReads(), 0u) << sql;
    EXPECT_NE(r.value().text.find("Gather"), std::string::npos)
        << r.value().text;
  }
}

TEST_F(ParallelExecTest, SessionsAreIsolated) {
  SessionManager mgr(db_, 2);
  Session* a = mgr.OpenSession();
  Session* b = mgr.OpenSession();
  EXPECT_NE(a->id(), b->id());
  ASSERT_TRUE(a->Execute("SELECT COUNT(*) FROM nation").ok());
  EXPECT_EQ(a->statements_executed(), 1u);
  EXPECT_EQ(b->statements_executed(), 0u);
  // Per-session default hints apply only to that session.
  a->default_hints().parallel_workers = 4;
  auto r = a->Execute("SELECT COUNT(*) FROM lineitem");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(mgr.num_sessions(), 2u);
  // A failed statement records the error on the session.
  ASSERT_FALSE(b->Execute("SELECT nope FROM lineitem").ok());
  EXPECT_FALSE(b->last_error().empty());
}

TEST_F(ParallelExecTest, ConcurrentSessionsMatchSerialResults) {
  const std::vector<std::string> sqls = {
      "SELECT COUNT(*), SUM(l_quantity) FROM lineitem",
      "SELECT l_returnflag, COUNT(*) FROM lineitem GROUP BY l_returnflag "
      "ORDER BY l_returnflag",
      "SELECT COUNT(*) FROM orders WHERE o_orderkey < 5000",
      "SELECT MIN(l_shipdate), MAX(l_shipdate) FROM lineitem",
      "SELECT COUNT(*), SUM(l_quantity) FROM lineitem",  // repeated on purpose
      "SELECT o_orderpriority, COUNT(*) FROM orders GROUP BY o_orderpriority "
      "ORDER BY o_orderpriority",
  };
  // Serial reference, one statement at a time.
  std::vector<QueryResult> reference;
  for (const std::string& sql : sqls) {
    auto r = Run(sql);
    ASSERT_TRUE(r.ok()) << sql << "\n" << r.status().ToString();
    reference.push_back(std::move(r.value()));
  }

  SessionManager mgr(db_, sqls.size());
  auto concurrent = mgr.ExecuteConcurrently(sqls);
  ASSERT_TRUE(concurrent.ok()) << concurrent.status().ToString();
  ASSERT_EQ(concurrent.value().size(), sqls.size());
  for (size_t i = 0; i < sqls.size(); i++) {
    ExpectIdentical(reference[i], concurrent.value()[i], sqls[i]);
  }
  EXPECT_EQ(mgr.num_sessions(), sqls.size());
}

TEST_F(ParallelExecTest, ConcurrentParallelQueriesDoNotDeadlock) {
  // Every session runs a PARALLEL plan at once: session threads all wait on
  // the shared intra-query worker pool while contributing inline shares.
  const std::string sql =
      "/*+ PARALLEL 4 */ SELECT l_returnflag, COUNT(*), SUM(l_quantity) "
      "FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag";
  auto serial = Run(
      "SELECT l_returnflag, COUNT(*), SUM(l_quantity) "
      "FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag");
  ASSERT_TRUE(serial.ok());

  const std::vector<std::string> sqls(6, sql);
  SessionManager mgr(db_, sqls.size());
  auto results = mgr.ExecuteConcurrently(sqls);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  for (size_t i = 0; i < results.value().size(); i++) {
    ExpectIdentical(serial.value(), results.value()[i], "concurrent parallel");
  }
}

TEST_F(ParallelExecTest, ConcurrentErrorDoesNotPoisonOtherSessions) {
  const std::vector<std::string> sqls = {
      "SELECT COUNT(*) FROM lineitem",
      "SELECT bogus_column FROM lineitem",  // binds -> error
      "SELECT COUNT(*) FROM orders",
  };
  SessionManager mgr(db_, 3);
  auto r = mgr.ExecuteConcurrently(sqls);
  EXPECT_FALSE(r.ok());
  // The database is still healthy afterwards.
  auto after = Run("SELECT COUNT(*) FROM lineitem");
  ASSERT_TRUE(after.ok());
}

}  // namespace
}  // namespace elephant
