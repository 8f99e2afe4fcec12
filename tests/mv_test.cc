#include <gtest/gtest.h>

#include "engine/database.h"
#include "mv/view.h"

namespace elephant {
namespace {

using mv::ViewDef;
using mv::ViewManager;

class MvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    mgr_ = std::make_unique<ViewManager>(db_.get());
    ASSERT_TRUE(db_->Execute("CREATE TABLE sales (day DATE, store INT, item INT, "
                             "amount DECIMAL) CLUSTER BY (day, store)")
                    .ok());
    for (int i = 0; i < 60; i++) {
      const int day = i % 5;               // 5 days
      const int store = i % 3 + 1;         // 3 stores
      ASSERT_TRUE(db_->Execute("INSERT INTO sales VALUES (DATE '2008-01-0" +
                               std::to_string(day + 1) + "', " +
                               std::to_string(store) + ", " + std::to_string(i) +
                               ", " + std::to_string(i) + ".00)")
                      .ok());
    }
  }

  AnalyticQuery Query(const std::string& filter_day) {
    AnalyticQuery q;
    q.name = "test";
    q.tables = {"sales"};
    if (!filter_day.empty()) {
      q.filters = {{"day", CompareOp::kEq,
                    Value::Date(date::Parse(filter_day).value())}};
    }
    q.group_cols = {"store"};
    q.aggs = {{AggFunc::kCountStar, "", "cnt"},
              {AggFunc::kSum, "amount", "total"}};
    return q;
  }

  static void ExpectSameRows(const QueryResult& got, const QueryResult& want) {
    ASSERT_EQ(got.rows.size(), want.rows.size());
    for (size_t i = 0; i < want.rows.size(); i++) {
      ASSERT_EQ(got.rows[i].size(), want.rows[i].size());
      for (size_t c = 0; c < want.rows[i].size(); c++) {
        EXPECT_EQ(got.rows[i][c].Compare(want.rows[i][c]), 0)
            << "row " << i << " col " << c;
      }
    }
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<ViewManager> mgr_;
};

ViewDef DayStoreView() {
  ViewDef v;
  v.name = "mv_day_store";
  v.tables = {"sales"};
  v.group_cols = {"day", "store"};
  v.aggs = {{AggFunc::kCountStar, "", "cnt"},
            {AggFunc::kSum, "amount", "sum_amount"},
            {AggFunc::kMax, "amount", "max_amount"}};
  return v;
}

TEST_F(MvTest, CreateMaterializesGroups) {
  ASSERT_TRUE(mgr_->CreateView(DayStoreView()).ok());
  auto r = db_->Execute("SELECT COUNT(*) FROM mv_day_store");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().rows[0][0].AsInt64(), 15);  // 5 days x 3 stores
}

TEST_F(MvTest, RejectsAvgViews) {
  ViewDef v = DayStoreView();
  v.name = "bad";
  v.aggs = {{AggFunc::kAvg, "amount", "a"}};
  EXPECT_FALSE(mgr_->CreateView(v).ok());
}

TEST_F(MvTest, MatchedQueryAgreesWithBaseQuery) {
  ASSERT_TRUE(mgr_->CreateView(DayStoreView()).ok());
  AnalyticQuery q = Query("2008-01-03");
  auto mv_sql = mgr_->TryRewrite(q);
  ASSERT_TRUE(mv_sql.ok()) << mv_sql.status().ToString();
  EXPECT_NE(mv_sql.value().find("mv_day_store"), std::string::npos);
  auto via_mv = db_->Execute(mv_sql.value());
  auto direct = db_->Execute(q.ToRowSql());
  ASSERT_TRUE(via_mv.ok());
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(via_mv.value().rows.size(), direct.value().rows.size());
  for (size_t i = 0; i < direct.value().rows.size(); i++) {
    for (size_t c = 0; c < 3; c++) {
      EXPECT_EQ(via_mv.value().rows[i][c].Compare(direct.value().rows[i][c]), 0);
    }
  }
}

TEST_F(MvTest, ParameterChangeStillMatches) {
  // The whole point of generalizing the views (§2.1): any parameter value of
  // the query family matches the same view.
  ASSERT_TRUE(mgr_->CreateView(DayStoreView()).ok());
  for (const char* day : {"2008-01-01", "2008-01-02", "2008-01-05"}) {
    auto sql = mgr_->TryRewrite(Query(day));
    EXPECT_TRUE(sql.ok()) << day;
  }
}

TEST_F(MvTest, NonMatchingQueryIsNotFound) {
  ASSERT_TRUE(mgr_->CreateView(DayStoreView()).ok());
  // Filter on `item`, which is not a view group column.
  AnalyticQuery q;
  q.tables = {"sales"};
  q.filters = {{"item", CompareOp::kEq, Value::Int32(3)}};
  q.group_cols = {"store"};
  q.aggs = {{AggFunc::kCountStar, "", "cnt"}};
  auto sql = mgr_->TryRewrite(q);
  EXPECT_FALSE(sql.ok());
  EXPECT_TRUE(sql.status().IsNotFound());
}

TEST_F(MvTest, AggregateNotInViewIsNotFound) {
  ASSERT_TRUE(mgr_->CreateView(DayStoreView()).ok());
  AnalyticQuery q = Query("");
  q.aggs = {{AggFunc::kMin, "amount", "m"}};  // view has MAX, not MIN
  EXPECT_FALSE(mgr_->TryRewrite(q).ok());
}

TEST_F(MvTest, AvgDerivedFromSumAndCount) {
  ASSERT_TRUE(mgr_->CreateView(DayStoreView()).ok());
  AnalyticQuery q = Query("");
  q.aggs = {{AggFunc::kAvg, "amount", "avg_amount"}};
  auto sql = mgr_->TryRewrite(q);
  ASSERT_TRUE(sql.ok());
  auto via_mv = db_->Execute(sql.value());
  auto direct = db_->Execute("SELECT store, AVG(amount) FROM sales GROUP BY store");
  ASSERT_TRUE(via_mv.ok());
  ASSERT_TRUE(direct.ok());
  for (size_t i = 0; i < direct.value().rows.size(); i++) {
    EXPECT_NEAR(via_mv.value().rows[i][1].AsDouble(),
                direct.value().rows[i][1].AsDouble(), 1e-6);
  }
}

TEST_F(MvTest, SmallestMatchingViewWins) {
  ASSERT_TRUE(mgr_->CreateView(DayStoreView()).ok());
  ViewDef store_only;
  store_only.name = "mv_store";
  store_only.tables = {"sales"};
  store_only.group_cols = {"store"};
  store_only.aggs = {{AggFunc::kCountStar, "", "cnt"},
                     {AggFunc::kSum, "amount", "sum_amount"}};
  ASSERT_TRUE(mgr_->CreateView(store_only).ok());
  // Unfiltered per-store query: the 3-row view beats the 15-row view.
  auto sql = mgr_->TryRewrite(Query(""));
  ASSERT_TRUE(sql.ok());
  EXPECT_NE(sql.value().find("mv_store"), std::string::npos);
}

TEST_F(MvTest, IncrementalMaintenanceMatchesRecompute) {
  ASSERT_TRUE(mgr_->CreateView(DayStoreView()).ok());
  // Appends into existing groups, plus a new group (a new day).
  for (int i = 100; i < 105; i++) {
    ASSERT_TRUE(db_->Execute("INSERT INTO sales VALUES (DATE '2008-01-02', 1, " +
                             std::to_string(i) + ", 500.00)")
                    .ok());
  }
  ASSERT_TRUE(
      db_->Execute("INSERT INTO sales VALUES (DATE '2008-01-09', 2, 105, 7.00)")
          .ok());
  ASSERT_TRUE(db_->catalog().IsStale("mv_day_store"));
  // The read merges the six inserted rows as a delta; the maintained view
  // must equal a from-scratch recompute.
  auto maintained = db_->Execute(
      "SELECT day, store, cnt, sum_amount, max_amount FROM mv_day_store "
      "ORDER BY day, store");
  ASSERT_FALSE(db_->catalog().IsStale("mv_day_store"));
  EXPECT_EQ(db_->stats().view_delta_refreshes.load(), 1u);
  EXPECT_EQ(db_->stats().view_delta_rows.load(), 6u);
  EXPECT_EQ(db_->stats().view_full_refreshes.load(), 0u);
  auto recomputed = db_->Execute(
      "SELECT day, store, COUNT(*), SUM(amount), MAX(amount) FROM sales "
      "GROUP BY day, store ORDER BY day, store");
  ASSERT_TRUE(maintained.ok());
  ASSERT_TRUE(recomputed.ok());
  ExpectSameRows(maintained.value(), recomputed.value());
}

TEST_F(MvTest, DeltaMergeTreatsNullAsNoValue) {
  ASSERT_TRUE(db_->Execute("CREATE TABLE n (g INT, v INT) CLUSTER BY (g)").ok());
  ASSERT_TRUE(
      db_->Execute("INSERT INTO n VALUES (1, 5), (1, 3), (2, NULL)").ok());
  ViewDef v;
  v.name = "mv_n";
  v.tables = {"n"};
  v.group_cols = {"g"};
  v.aggs = {{AggFunc::kMin, "v", "min_v"}, {AggFunc::kSum, "v", "sum_v"}};
  ASSERT_TRUE(mgr_->CreateView(v).ok());
  // A NULL into a group with values must not erase its MIN or SUM; a value
  // into the all-NULL group must replace its NULLs; a NULL-only new group
  // stays NULL.
  ASSERT_TRUE(
      db_->Execute("INSERT INTO n VALUES (1, NULL), (2, 7), (3, NULL)").ok());
  auto maintained =
      db_->Execute("SELECT g, min_v, sum_v, cnt_star FROM mv_n ORDER BY g");
  EXPECT_EQ(db_->stats().view_delta_refreshes.load(), 1u);
  auto recomputed = db_->Execute(
      "SELECT g, MIN(v), SUM(v), COUNT(*) FROM n GROUP BY g ORDER BY g");
  ASSERT_TRUE(maintained.ok()) << maintained.status().ToString();
  ASSERT_TRUE(recomputed.ok());
  ExpectSameRows(maintained.value(), recomputed.value());
  EXPECT_EQ(maintained.value().rows[0][1].AsInt64(), 3);
  EXPECT_EQ(maintained.value().rows[1][1].AsInt64(), 7);
  EXPECT_TRUE(maintained.value().rows[2][1].is_null());
}

TEST_F(MvTest, DeltaFoldMatchesGroupByOnEveryLane) {
  // A view over a double, a CHAR, a VARCHAR and a DECIMAL column, refreshed
  // by delta twice: each time every column must equal the GROUP BY it
  // materializes. The doubles are binary fractions, so their sums are exact
  // in any order; NULLs enter both stored groups and new ones.
  ASSERT_TRUE(db_->Execute("CREATE TABLE m (g INT, k INT, d DOUBLE, c CHAR(6), "
                           "s VARCHAR(8), x DECIMAL) CLUSTER BY (g, k)")
                  .ok());
  ASSERT_TRUE(db_->Execute("INSERT INTO m VALUES (1, 1, 0.5, 'bb', 'kiwi', "
                           "1.25), (1, 2, NULL, NULL, NULL, NULL), (2, 1, "
                           "NULL, NULL, NULL, NULL)")
                  .ok());
  ViewDef v;
  v.name = "mv_m";
  v.tables = {"m"};
  v.group_cols = {"g"};
  v.aggs = {{AggFunc::kSum, "d", "sum_d"},   {AggFunc::kMax, "d", "max_d"},
            {AggFunc::kCount, "d", "cnt_d"}, {AggFunc::kMin, "c", "min_c"},
            {AggFunc::kMax, "s", "max_s"},   {AggFunc::kSum, "x", "sum_x"},
            {AggFunc::kMin, "x", "min_x"}};
  ASSERT_TRUE(mgr_->CreateView(v).ok());
  const char* inserts[] = {
      "INSERT INTO m VALUES (1, 3, 2.25, 'aa', 'pear', -3.50), "
      "(2, 2, -0.75, 'zz', 'fig', 10.01), (3, 1, NULL, NULL, NULL, NULL)",
      "INSERT INTO m VALUES (1, 4, 1.5, 'aa', 'apple', 0.01), "
      "(3, 2, 4.0, 'cc', 'plum', -0.02), (4, 1, 0.125, NULL, 'lime', NULL)"};
  for (size_t round = 0; round < 2; round++) {
    ASSERT_TRUE(db_->Execute(inserts[round]).ok());
    auto maintained = db_->Execute(
        "SELECT g, sum_d, max_d, cnt_d, min_c, max_s, sum_x, min_x, cnt_star "
        "FROM mv_m ORDER BY g");
    EXPECT_EQ(db_->stats().view_delta_refreshes.load(), round + 1);
    auto recomputed = db_->Execute(
        "SELECT g, SUM(d), MAX(d), COUNT(d), MIN(c), MAX(s), SUM(x), MIN(x), "
        "COUNT(*) FROM m GROUP BY g ORDER BY g");
    ASSERT_TRUE(maintained.ok()) << maintained.status().ToString();
    ASSERT_TRUE(recomputed.ok()) << recomputed.status().ToString();
    const auto& got = maintained.value().rows;
    const auto& want = recomputed.value().rows;
    ASSERT_EQ(got.size(), want.size()) << "round " << round;
    for (size_t r = 0; r < want.size(); r++) {
      for (size_t col = 0; col < want[r].size(); col++) {
        EXPECT_EQ(got[r][col].is_null(), want[r][col].is_null())
            << "round " << round << " row " << r << " col " << col;
        EXPECT_EQ(got[r][col].ToString(), want[r][col].ToString())
            << "round " << round << " row " << r << " col " << col;
      }
    }
  }
  EXPECT_EQ(db_->stats().view_full_refreshes.load(), 0u);
}

TEST_F(MvTest, SqlInsertRefreshesViewOnNextRead) {
  // Without the WAL, a SQL INSERT marks the view stale; the next SELECT
  // must rebuild it before reading, not serve the old groups for good.
  ASSERT_TRUE(mgr_->CreateView(DayStoreView()).ok());
  ASSERT_TRUE(
      db_->Execute("INSERT INTO sales VALUES (DATE '2008-01-09', 2, 105, 7.00)")
          .ok());
  ASSERT_TRUE(db_->catalog().IsStale("mv_day_store"));
  auto r = db_->Execute("SELECT COUNT(*) FROM mv_day_store");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().rows[0][0].AsInt64(), 16);  // 15 groups + the new day
  EXPECT_FALSE(db_->catalog().IsStale("mv_day_store"));
}

TEST_F(MvTest, WriteIntoViewTableRejectedWithoutLog) {
  // The fixture's engine has no log, yet a view's table is still derived:
  // only its bases may be written. A row stored into it directly would be
  // merged with the next delta as if it were a group of the view.
  ViewDef v;
  v.name = "mv_store";
  v.tables = {"sales"};
  v.group_cols = {"store"};
  v.aggs = {{AggFunc::kSum, "amount", "total"},
            {AggFunc::kCountStar, "", "cnt"}};
  ASSERT_TRUE(mgr_->CreateView(v).ok());
  auto write = db_->Execute("INSERT INTO mv_store VALUES (1, 999, 5)");
  ASSERT_FALSE(write.ok());
  EXPECT_EQ(write.status().code(), StatusCode::kBindError)
      << write.status().ToString();

  ASSERT_TRUE(
      db_->Execute("INSERT INTO sales VALUES (DATE '2008-01-09', 1, 200, 7.00)")
          .ok());
  auto maintained =
      db_->Execute("SELECT store, total, cnt FROM mv_store ORDER BY store");
  auto recomputed = db_->Execute(
      "SELECT store, SUM(amount), COUNT(*) FROM sales GROUP BY store "
      "ORDER BY store");
  ASSERT_TRUE(maintained.ok()) << maintained.status().ToString();
  ASSERT_TRUE(recomputed.ok());
  ExpectSameRows(maintained.value(), recomputed.value());
}

TEST_F(MvTest, MaintenanceOnUnrelatedTableIsNoop) {
  ASSERT_TRUE(mgr_->CreateView(DayStoreView()).ok());
  ASSERT_TRUE(db_->Execute("CREATE TABLE other (k INT)").ok());
  ASSERT_TRUE(db_->Execute("INSERT INTO other VALUES (1)").ok());
  EXPECT_FALSE(db_->catalog().IsStale("mv_day_store"));
  ASSERT_TRUE(db_->Execute("SELECT * FROM mv_day_store").ok());
  EXPECT_EQ(db_->stats().view_delta_refreshes.load(), 0u);
  EXPECT_EQ(db_->stats().view_full_refreshes.load(), 0u);
}

}  // namespace
}  // namespace elephant
