#include <gtest/gtest.h>

#include "engine/database.h"
#include "obs/plan_stats.h"

namespace elephant {
namespace {

/// EXPLAIN ANALYZE end-to-end: the SQL surface, the annotated tree, and the
/// central accounting invariant — per-operator self-attributed page reads sum
/// exactly to the query-level IoStats.
class ExplainAnalyzeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    Exec("CREATE TABLE big (k INT, fk INT, payload VARCHAR) CLUSTER BY (k)");
    Exec("CREATE TABLE small (id INT, label VARCHAR) CLUSTER BY (id)");
    Exec("CREATE TABLE ranges (lo INT, hi INT) CLUSTER BY (lo)");
    for (int i = 0; i < 400; i++) {
      Exec("INSERT INTO big VALUES (" + std::to_string(i) + ", " +
           std::to_string(i % 20) + ", 'p" + std::to_string(i) + "')");
    }
    for (int i = 0; i < 20; i++) {
      Exec("INSERT INTO small VALUES (" + std::to_string(i) + ", 's" +
           std::to_string(i) + "')");
    }
    for (int i = 0; i < 50; i++) {
      Exec("INSERT INTO ranges VALUES (" + std::to_string(i * 8) + ", " +
           std::to_string(i * 8 + 7) + ")");
    }
    ASSERT_TRUE(db_->Analyze("big").ok());
    ASSERT_TRUE(db_->Analyze("small").ok());
    ASSERT_TRUE(db_->Analyze("ranges").ok());
  }

  void Exec(const std::string& sql) {
    auto r = db_->Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << "\n" << r.status().ToString();
  }

  /// Joins EXPLAIN [ANALYZE] result rows (one line per QUERY PLAN row).
  static std::string PlanText(const QueryResult& r) {
    std::string out;
    for (const Row& row : r.rows) {
      out += row[0].AsString();
      out += '\n';
    }
    return out;
  }

  /// Operator labels in pre-order, stripped of annotations: the tree shape.
  static std::vector<std::string> TreeShape(const std::string& plan) {
    std::vector<std::string> shape;
    size_t start = 0;
    while (start < plan.size()) {
      size_t end = plan.find('\n', start);
      if (end == std::string::npos) end = plan.size();
      std::string line = plan.substr(start, end - start);
      start = end + 1;
      const size_t arrow = line.find("-> ");
      if (arrow == std::string::npos) continue;  // continuation/footer line
      size_t cut = line.find("  [", arrow);
      if (cut == std::string::npos) cut = line.find("  (", arrow);
      if (cut != std::string::npos) line = line.substr(0, cut);
      shape.push_back(line);
    }
    return shape;
  }

  std::unique_ptr<Database> db_;
};

TEST_F(ExplainAnalyzeTest, ExplainStatementReturnsPlanRows) {
  auto r = db_->Execute("EXPLAIN SELECT payload FROM big WHERE k = 7");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().schema.NumColumns(), 1u);
  EXPECT_EQ(r.value().schema.ColumnAt(0).name, "QUERY PLAN");
  const std::string plan = PlanText(r.value());
  EXPECT_NE(plan.find("-> "), std::string::npos) << plan;
  EXPECT_NE(plan.find("est_rows="), std::string::npos) << plan;
  // Plain EXPLAIN must not run the query: no actuals, no pages read.
  EXPECT_EQ(plan.find("actual"), std::string::npos) << plan;
  EXPECT_EQ(r.value().io.TotalReads(), 0u);
}

TEST_F(ExplainAnalyzeTest, ExplainAnalyzeStatementShowsActualsAndPhases) {
  auto r = db_->Execute(
      "EXPLAIN ANALYZE SELECT label, COUNT(*) FROM big, small "
      "WHERE fk = small.id GROUP BY label");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const std::string plan = PlanText(r.value());
  EXPECT_NE(plan.find("actual rows="), std::string::npos) << plan;
  EXPECT_NE(plan.find("io_seq="), std::string::npos) << plan;
  EXPECT_NE(plan.find("io_rand="), std::string::npos) << plan;
  EXPECT_NE(plan.find("Execution: rows=20"), std::string::npos) << plan;
  EXPECT_NE(plan.find("prefetch_hits="), std::string::npos) << plan;
  EXPECT_NE(plan.find("Phases:"), std::string::npos) << plan;
  EXPECT_NE(plan.find("HashJoin"), std::string::npos) << plan;
}

TEST_F(ExplainAnalyzeTest, ExplainAnalyzeRejectsNonSelect) {
  auto r = db_->ExplainAnalyze("INSERT INTO small VALUES (99, 'x')");
  EXPECT_FALSE(r.ok());
  auto e = db_->Execute("EXPLAIN ANALYZE INSERT INTO small VALUES (99, 'x')");
  EXPECT_FALSE(e.ok());
}

TEST_F(ExplainAnalyzeTest, ApiReturnsRowsAndAnnotatedTree) {
  auto r = db_->ExplainAnalyze("SELECT payload FROM big WHERE k < 10");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().result.rows.size(), 10u);
  ASSERT_NE(r.value().result.plan, nullptr);
  EXPECT_NE(r.value().text.find("actual rows="), std::string::npos)
      << r.value().text;
  // JSON carries the same tree plus query-level totals.
  EXPECT_NE(r.value().json.find("\"plan\":"), std::string::npos);
  EXPECT_NE(r.value().json.find("\"actual\":"), std::string::npos);
  EXPECT_NE(r.value().json.find("\"phases\":"), std::string::npos);
  EXPECT_NE(r.value().json.find("\"io\":"), std::string::npos);
  // The io block nests the disk read-ahead counters.
  EXPECT_NE(r.value().json.find("\"readahead\":"), std::string::npos);
  EXPECT_NE(r.value().json.find("\"prefetch_hits\":"), std::string::npos);
}

/// The golden invariant: with a cold cache, the per-operator self-attributed
/// sequential/random page reads sum EXACTLY to the query-level IoStats.
TEST_F(ExplainAnalyzeTest, OperatorIoSumsToQueryIo) {
  const std::string queries[] = {
      "SELECT payload FROM big WHERE fk = 3",
      "SELECT label, COUNT(*) FROM big, small WHERE fk = small.id "
      "GROUP BY label",
      // The paper's Q3-style band join (rewrite output shape): range
      // predicates joining on position bands, grouped aggregate on top.
      "SELECT COUNT(*) FROM ranges, big WHERE big.k BETWEEN ranges.lo AND "
      "ranges.hi",
  };
  for (const std::string& sql : queries) {
    db_->options().cold_cache = true;
    auto r = db_->ExplainAnalyze(sql);
    db_->options().cold_cache = false;
    ASSERT_TRUE(r.ok()) << sql << "\n" << r.status().ToString();
    const QueryResult& qr = r.value().result;
    ASSERT_NE(qr.plan, nullptr);
    uint64_t seq = 0, rand = 0, misses = 0;
    for (const obs::OperatorBreakdown& op : obs::FlattenPlan(*qr.plan)) {
      seq += op.seq_reads;
      rand += op.rand_reads;
      misses += op.pool_misses;
    }
    EXPECT_EQ(seq, qr.io.sequential_reads) << sql << "\n" << r.value().text;
    EXPECT_EQ(rand, qr.io.random_reads) << sql << "\n" << r.value().text;
    // Cold cache: every page read is a buffer-pool miss.
    EXPECT_EQ(misses, qr.io.TotalReads()) << sql << "\n" << r.value().text;
    EXPECT_GT(qr.io.TotalReads(), 0u) << sql;
  }
}

TEST_F(ExplainAnalyzeTest, BandJoinPlanIsAnnotated) {
  auto r = db_->ExplainAnalyze(
      "SELECT COUNT(*) FROM ranges, big WHERE big.k BETWEEN ranges.lo AND "
      "ranges.hi");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r.value().text.find("BandMergeJoin"), std::string::npos)
      << r.value().text;
  // 50 ranges x 8 covered keys each = 400 joined rows into the aggregate.
  ASSERT_EQ(r.value().result.rows.size(), 1u);
  EXPECT_EQ(r.value().result.rows[0][0].AsInt64(), 400);
}

TEST_F(ExplainAnalyzeTest, ExplainAndAnalyzeShareTreeShape) {
  const std::string sql =
      "SELECT label, COUNT(*) FROM big, small WHERE fk = small.id "
      "GROUP BY label";
  auto plain = db_->Explain(sql);
  ASSERT_TRUE(plain.ok());
  auto analyzed = db_->ExplainAnalyze(sql);
  ASSERT_TRUE(analyzed.ok());
  EXPECT_EQ(TreeShape(plain.value()), TreeShape(analyzed.value().text));
}

TEST_F(ExplainAnalyzeTest, EstimatesAppearInBothExplainForms) {
  auto plain = db_->Explain("SELECT payload FROM big WHERE k = 7");
  ASSERT_TRUE(plain.ok());
  EXPECT_NE(plain.value().find("est_rows="), std::string::npos) << plain.value();
  EXPECT_NE(plain.value().find("cost="), std::string::npos) << plain.value();
  auto analyzed = db_->ExplainAnalyze("SELECT payload FROM big WHERE k = 7");
  ASSERT_TRUE(analyzed.ok());
  EXPECT_NE(analyzed.value().text.find("est_rows="), std::string::npos);
}

TEST_F(ExplainAnalyzeTest, QueryTraceRecordsAllPhases) {
  auto r = db_->Execute("SELECT COUNT(*) FROM big");
  ASSERT_TRUE(r.ok());
  ASSERT_NE(r.value().trace, nullptr);
  for (const char* phase : {"parse", "bind", "plan", "execute"}) {
    bool found = false;
    for (const obs::SpanRecord& s : r.value().trace->spans) {
      if (s.name == phase) found = true;
    }
    EXPECT_TRUE(found) << "missing span: " << phase;
  }
  EXPECT_GE(r.value().trace->SecondsFor("execute"), 0.0);
}

TEST_F(ExplainAnalyzeTest, DatabaseMetricsCountStatements) {
  const uint64_t before =
      db_->metrics().GetCounter("db.statements.select")->value();
  ASSERT_TRUE(db_->Execute("SELECT COUNT(*) FROM small").ok());
  ASSERT_TRUE(db_->Execute("SELECT COUNT(*) FROM small").ok());
  EXPECT_EQ(db_->metrics().GetCounter("db.statements.select")->value(),
            before + 2);
  ASSERT_TRUE(db_->Execute("EXPLAIN SELECT id FROM small").ok());
  EXPECT_GE(db_->metrics().GetCounter("db.statements.explain")->value(), 1u);
  const obs::Histogram* lat = db_->metrics().FindHistogram("db.query_seconds");
  ASSERT_NE(lat, nullptr);
  EXPECT_GE(lat->Snapshot().count, 2u);
}

TEST_F(ExplainAnalyzeTest, ToStringReportsModeledVsMeasured) {
  auto r = db_->Execute("SELECT id FROM small WHERE id < 3");
  ASSERT_TRUE(r.ok());
  const std::string text = r.value().ToString();
  EXPECT_NE(text.find("measured cpu="), std::string::npos) << text;
  EXPECT_NE(text.find("modeled io="), std::string::npos) << text;
  EXPECT_NE(text.find("modeled total="), std::string::npos) << text;
}

}  // namespace
}  // namespace elephant
