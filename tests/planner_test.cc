#include <gtest/gtest.h>

#include "engine/database.h"
#include "tpch/tpch.h"

namespace elephant {
namespace {

/// Planner behaviour tests: access-path selection, join ordering, algorithm
/// choice, hints, and interesting-order tracking — checked through EXPLAIN
/// output and result correctness.
class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    Exec("CREATE TABLE big (k INT, fk INT, payload VARCHAR) CLUSTER BY (k)");
    Exec("CREATE TABLE small (id INT, label VARCHAR) CLUSTER BY (id)");
    for (int i = 0; i < 400; i++) {
      Exec("INSERT INTO big VALUES (" + std::to_string(i) + ", " +
           std::to_string(i % 20) + ", 'p" + std::to_string(i) + "')");
    }
    for (int i = 0; i < 20; i++) {
      Exec("INSERT INTO small VALUES (" + std::to_string(i) + ", 's" +
           std::to_string(i) + "')");
    }
    ASSERT_TRUE(db_->Analyze("big").ok());
    ASSERT_TRUE(db_->Analyze("small").ok());
  }

  void Exec(const std::string& sql) {
    auto r = db_->Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << "\n" << r.status().ToString();
  }

  std::string Plan(const std::string& sql) {
    auto p = db_->Explain(sql);
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    return p.ok() ? p.value() : "";
  }

  /// The rows of `sql`, rendered in result order.
  std::vector<std::string> Rows(const std::string& sql) {
    auto r = db_->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << "\n" << r.status().ToString();
    std::vector<std::string> out;
    if (!r.ok()) return out;
    for (const Row& row : r.value().rows) {
      std::string line;
      for (const Value& v : row) line += v.ToString() + "|";
      out.push_back(std::move(line));
    }
    return out;
  }

  /// Loads `n` rows (i, f(i)) into a two-column table and analyzes it.
  template <typename F>
  void Fill(const std::string& table, int n, F f) {
    std::string values;
    for (int i = 0; i < n; i++) {
      values += (i == 0 ? "(" : ", (") + std::to_string(i) + ", " + f(i) + ")";
    }
    Exec("INSERT INTO " + table + " VALUES " + values);
    ASSERT_TRUE(db_->Analyze(table).ok());
  }

  std::unique_ptr<Database> db_;
};

TEST_F(PlannerTest, PointPredicateUsesClusteredSeek) {
  const std::string plan = Plan("SELECT payload FROM big WHERE k = 7");
  EXPECT_NE(plan.find("range on 1 key col(s)"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("Filter"), std::string::npos) << plan;  // fully consumed
}

TEST_F(PlannerTest, RangePlusResidualKeepsFilter) {
  const std::string plan =
      Plan("SELECT payload FROM big WHERE k > 100 AND fk = 3");
  EXPECT_NE(plan.find("range on 1 key col(s)"), std::string::npos) << plan;
  EXPECT_NE(plan.find("Filter"), std::string::npos) << plan;
}

TEST_F(PlannerTest, SmallOuterJoinsViaInlj) {
  // A single-row outer should probe the inner's clustered index.
  const std::string plan = Plan(
      "SELECT label FROM big, small WHERE fk = small.id AND k = 5");
  EXPECT_NE(plan.find("IndexNestedLoopJoin"), std::string::npos) << plan;
}

TEST_F(PlannerTest, LargeOuterSwitchesToHashJoin) {
  // All 400 big rows probe 20 small rows: the pessimistic cost model must
  // prefer building a hash table over 400 random seeks.
  const std::string plan =
      Plan("SELECT label, COUNT(*) FROM big, small WHERE fk = small.id "
           "GROUP BY label");
  EXPECT_NE(plan.find("HashJoin"), std::string::npos) << plan;
}

TEST_F(PlannerTest, LoopJoinHintForcesInlj) {
  // With big as outer (FORCE_ORDER), small's clustered key matches the join
  // column, and LOOP_JOIN overrides the pessimistic seek costing.
  const std::string plan = Plan(
      "/*+ FORCE_ORDER LOOP_JOIN */ SELECT label, COUNT(*) FROM big, small "
      "WHERE fk = small.id GROUP BY label");
  EXPECT_NE(plan.find("IndexNestedLoopJoin"), std::string::npos) << plan;
}

TEST_F(PlannerTest, SmallestFilteredRelationGoesFirst) {
  // small (20 rows) starts the join unless FORCE_ORDER overrides.
  const std::string plan =
      Plan("SELECT COUNT(*) FROM big, small WHERE fk = small.id");
  // The leaf at the deepest indentation is the first relation scanned.
  const size_t small_pos = plan.find("SMALL as SMALL");
  ASSERT_NE(small_pos, std::string::npos) << plan;
  // With small as outer, big is the join's inner/build side.
  const bool big_inner = plan.find("inner=BIG") != std::string::npos ||
                         plan.find("build=BIG") != std::string::npos;
  EXPECT_TRUE(big_inner) << plan;
}

TEST_F(PlannerTest, BandPredicateWithoutHintsUsesMergeNotProduct) {
  // Band join with no equality keys: the pessimistic optimizer must choose
  // a band merge join, never a cross product.
  Exec("CREATE TABLE ranges (lo INT, hi INT) CLUSTER BY (lo)");
  for (int i = 0; i < 50; i++) {
    Exec("INSERT INTO ranges VALUES (" + std::to_string(i * 8) + ", " +
         std::to_string(i * 8 + 7) + ")");
  }
  ASSERT_TRUE(db_->Analyze("ranges").ok());
  const std::string plan = Plan(
      "SELECT COUNT(*) FROM ranges, big WHERE big.k BETWEEN ranges.lo AND "
      "ranges.hi");
  EXPECT_NE(plan.find("BandMergeJoin"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("NestedProduct"), std::string::npos) << plan;
  // And it computes the right answer: every k in 0..399 falls in one range.
  auto r = db_->Execute(
      "SELECT COUNT(*) FROM ranges, big WHERE big.k BETWEEN ranges.lo AND "
      "ranges.hi");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().rows[0][0].AsInt64(), 400);
}

TEST_F(PlannerTest, MergeJoinSkipsSortWhenOuterOrdered) {
  Exec("CREATE TABLE ranges2 (lo INT, hi INT) CLUSTER BY (lo)");
  for (int i = 0; i < 10; i++) {
    Exec("INSERT INTO ranges2 VALUES (" + std::to_string(i * 40) + ", " +
         std::to_string(i * 40 + 39) + ")");
  }
  const std::string plan = Plan(
      "/*+ FORCE_ORDER MERGE_JOIN */ SELECT COUNT(*) FROM ranges2, big "
      "WHERE big.k BETWEEN ranges2.lo AND ranges2.hi");
  // ranges2 scans in lo order (cluster key): no sort operator needed.
  EXPECT_NE(plan.find("outer pre-sorted"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("Sort (merge-join order"), std::string::npos) << plan;
}

TEST_F(PlannerTest, MergeJoinSortsWhenOuterUnordered) {
  Exec("CREATE TABLE uranges (tag INT, lo INT, hi INT) CLUSTER BY (tag)");
  for (int i = 0; i < 10; i++) {
    Exec("INSERT INTO uranges VALUES (" + std::to_string(9 - i) + ", " +
         std::to_string(i * 40) + ", " + std::to_string(i * 40 + 39) + ")");
  }
  const std::string plan = Plan(
      "/*+ FORCE_ORDER MERGE_JOIN */ SELECT COUNT(*) FROM uranges, big "
      "WHERE big.k BETWEEN uranges.lo AND uranges.hi");
  // uranges is clustered on tag, not lo: a sort must be inserted.
  EXPECT_NE(plan.find("Sort (merge-join order"), std::string::npos) << plan;
  auto r = db_->Execute(
      "/*+ FORCE_ORDER MERGE_JOIN */ SELECT COUNT(*) FROM uranges, big "
      "WHERE big.k BETWEEN uranges.lo AND uranges.hi");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().rows[0][0].AsInt64(), 400);
}

TEST_F(PlannerTest, CoveringIndexBeatsClusteredWhenMoreSelectivePath) {
  Exec("CREATE INDEX ix_fk ON big (fk) INCLUDE (payload)");
  const std::string plan = Plan("SELECT payload FROM big WHERE fk = 3");
  EXPECT_NE(plan.find("CoveringIndexSeek IX_FK"), std::string::npos) << plan;
}

TEST_F(PlannerTest, HashJoinHintOverridesInlj) {
  const std::string plan = Plan(
      "/*+ HASH_JOIN */ SELECT label FROM big, small WHERE fk = small.id "
      "AND k = 5");
  EXPECT_NE(plan.find("HashJoin"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("IndexNestedLoopJoin"), std::string::npos) << plan;
}

TEST_F(PlannerTest, ThreeWayJoinPlansAndAgreesWithHashOnly) {
  Exec("CREATE TABLE mid (m INT, sid INT) CLUSTER BY (m)");
  for (int i = 0; i < 100; i++) {
    Exec("INSERT INTO mid VALUES (" + std::to_string(i) + ", " +
         std::to_string(i % 20) + ")");
  }
  ASSERT_TRUE(db_->Analyze("mid").ok());
  const std::string q =
      "SELECT COUNT(*) FROM big, mid, small "
      "WHERE big.fk = mid.m AND mid.sid = small.id";
  auto a = db_->Execute(q);
  auto b = db_->Execute("/*+ HASH_JOIN */ " + q);
  auto c = db_->Execute("/*+ FORCE_ORDER LOOP_JOIN */ " + q);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_EQ(a.value().rows[0][0].AsInt64(), b.value().rows[0][0].AsInt64());
  EXPECT_EQ(a.value().rows[0][0].AsInt64(), c.value().rows[0][0].AsInt64());
  // mid.m is unique, so each big row matches exactly one mid row, which
  // matches exactly one small row.
  EXPECT_EQ(a.value().rows[0][0].AsInt64(), 400);
}

TEST_F(PlannerTest, PrunedJoinPlansMatchWrittenOrder) {
  // Each query's scans decode only the columns it references, so every join
  // maps pruned positions. The planner's join order and the FORCE_ORDER
  // twin's written order differ; both must return the same rows in the same
  // ORDER BY order, whatever consumes the hash join's output.
  Exec("CREATE TABLE mid (m INT, sid INT) CLUSTER BY (m)");
  Fill("mid", 100, [](int i) { return std::to_string(i % 20); });
  Exec("CREATE TABLE pts (p INT, v INT) CLUSTER BY (p)");
  Fill("pts", 400, [](int i) { return std::to_string(i * 3); });
  Exec("CREATE TABLE tags (id INT, name VARCHAR) CLUSTER BY (id)");
  Fill("tags", 20, [](int i) { return "'t" + std::to_string(i) + "'"; });
  struct Case {
    std::string planned, forced;
    std::vector<std::string> planned_ops, forced_ops;
  };
  const std::vector<Case> cases = {
      // Two-way, then ORDER BY.
      {"SELECT big.k, small.label, big.payload FROM big, small "
       "WHERE fk = small.id ORDER BY big.k",
       "/*+ FORCE_ORDER */ SELECT big.k, small.label, big.payload "
       "FROM big, small WHERE fk = small.id ORDER BY big.k",
       {"HashJoin build=BIG"},
       {"HashJoin build=SMALL"}},
      // Three-way.
      {"SELECT big.k, mid.m, small.label FROM big, mid, small "
       "WHERE big.fk = mid.m AND mid.sid = small.id ORDER BY big.k",
       "/*+ FORCE_ORDER */ SELECT big.k, mid.m, small.label "
       "FROM big, mid, small WHERE big.fk = mid.m AND mid.sid = small.id "
       "ORDER BY big.k",
       {"HashJoin build=MID", "HashJoin build=BIG"},
       {"HashJoin build=MID", "HashJoin build=SMALL"}},
      // A band merge join over a hash join: probing with big keeps its
      // clustered k order through the pruned columns, so the merge needs no
      // sort; probing with small does not, and the merge sorts.
      {"/*+ MERGE_JOIN */ SELECT big.k, small.label, pts.v FROM big, small, "
       "pts WHERE big.fk = small.id AND pts.p >= big.k AND pts.p <= big.k + 1 "
       "ORDER BY big.k, pts.v",
       "/*+ FORCE_ORDER MERGE_JOIN */ SELECT big.k, small.label, pts.v "
       "FROM big, small, pts WHERE big.fk = small.id AND pts.p >= big.k "
       "AND pts.p <= big.k + 1 ORDER BY big.k, pts.v",
       {"HashJoin build=BIG", "Sort (merge-join order"},
       {"HashJoin build=SMALL", "outer pre-sorted"}},
      // Index nested-loop joins with pruned inner rows, probing from a hash
      // join and from another index nested-loop join.
      {"/*+ LOOP_JOIN */ SELECT big.k, small.label, tags.name "
       "FROM big, small, tags WHERE big.fk = small.id AND tags.id = big.fk "
       "ORDER BY big.k",
       "/*+ FORCE_ORDER LOOP_JOIN */ SELECT big.k, small.label, tags.name "
       "FROM big, small, tags WHERE big.fk = small.id AND tags.id = big.fk "
       "ORDER BY big.k",
       {"HashJoin build=BIG", "IndexNestedLoopJoin inner=TAGS"},
       {"IndexNestedLoopJoin inner=SMALL", "IndexNestedLoopJoin inner=TAGS"}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.planned);
    const std::string planned_plan = Plan(c.planned);
    for (const std::string& op : c.planned_ops) {
      EXPECT_NE(planned_plan.find(op), std::string::npos) << planned_plan;
    }
    const std::string forced_plan = Plan(c.forced);
    for (const std::string& op : c.forced_ops) {
      EXPECT_NE(forced_plan.find(op), std::string::npos) << forced_plan;
    }
    const std::vector<std::string> want = Rows(c.forced);
    EXPECT_FALSE(want.empty());
    EXPECT_EQ(Rows(c.planned), want);
  }
}

TEST_F(PlannerTest, StreamAggHintProducesSortPlusStreamAggregate) {
  const std::string plan = Plan(
      "/*+ STREAM_AGG */ SELECT fk, COUNT(*) FROM big GROUP BY fk");
  EXPECT_NE(plan.find("StreamAggregate"), std::string::npos) << plan;
  EXPECT_NE(plan.find("Sort (group order)"), std::string::npos) << plan;
}

/// Column pruning over TPC-H lineitem: every base-table scan decodes just
/// the columns its query references, counted in
/// ExecCounters::columns_decoded.
class ColumnPruningTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    TpchConfig config;
    config.scale_factor = 0.002;
    TpchGenerator gen(config);
    ASSERT_TRUE(gen.LoadInto(db_).ok());
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  static ExecCounters Counters(const std::string& sql) {
    auto r = db_->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << "\n" << r.status().ToString();
    return r.ok() ? r.value().counters : ExecCounters{};
  }

  static Database* db_;
};

Database* ColumnPruningTest::db_ = nullptr;

TEST_F(ColumnPruningTest, ScansDecodeOnlyReferencedColumns) {
  auto lineitem = db_->catalog().GetTable("lineitem");
  ASSERT_TRUE(lineitem.ok());
  const uint64_t width = lineitem.value()->schema().NumColumns();
  ASSERT_GT(width, 2u);
  for (const std::string hint : {"", "/*+ PARALLEL 4 */ "}) {
    SCOPED_TRACE(hint);
    const ExecCounters narrow = Counters(
        hint +
        "SELECT l_shipdate, COUNT(*) FROM lineitem "
        "WHERE l_shipdate > DATE '1995-01-01' GROUP BY l_shipdate");
    EXPECT_GT(narrow.rows_scanned, 0u);
    EXPECT_EQ(narrow.columns_decoded, narrow.rows_scanned * 1);
    const ExecCounters all = Counters(hint + "SELECT * FROM lineitem");
    EXPECT_GT(all.rows_scanned, 0u);
    EXPECT_EQ(all.columns_decoded, all.rows_scanned * width);
    // COUNT(*) references no column at all.
    const ExecCounters none = Counters(hint + "SELECT COUNT(*) FROM lineitem");
    EXPECT_EQ(none.rows_scanned, all.rows_scanned);
    EXPECT_EQ(none.columns_decoded, 0u);
  }
  // A hash join scans both tables once, two referenced columns each.
  const ExecCounters join = Counters(
      "SELECT o_orderdate, MAX(l_shipdate) FROM lineitem, orders "
      "WHERE l_orderkey = o_orderkey GROUP BY o_orderdate");
  EXPECT_EQ(join.columns_decoded, join.rows_scanned * 2);
}

TEST_F(ColumnPruningTest, ExplainAnalyzeReportsColumnsDecoded) {
  auto r = db_->Execute(
      "EXPLAIN ANALYZE SELECT l_returnflag, SUM(l_quantity) FROM lineitem "
      "GROUP BY l_returnflag");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const uint64_t want = r.value().counters.rows_scanned * 2;
  ASSERT_GT(want, 0u);
  std::string text;
  for (const Row& row : r.value().rows) text += row[0].AsString() + "\n";
  EXPECT_NE(text.find("cols_decoded=" + std::to_string(want) + " "),
            std::string::npos)
      << text;
}

}  // namespace
}  // namespace elephant
