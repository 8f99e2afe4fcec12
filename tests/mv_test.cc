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
  // Append new facts with item keys 100..104 straight into the table, as a
  // bulk appender does: a SQL INSERT would mark the view stale, and the read
  // below would then rebuild it instead of testing NotifyAppend's merge.
  auto table = db_->catalog().GetTable("sales");
  ASSERT_TRUE(table.ok());
  Table* sales = table.value();
  const int32_t day2 = date::Parse("2008-01-02").value();
  for (int i = 100; i < 105; i++) {
    ASSERT_TRUE(sales->Insert({Value::Date(day2), Value::Int32(1),
                               Value::Int32(i), Value::Decimal(50000)})
                    .ok());
  }
  // New group too (new day).
  ASSERT_TRUE(sales->Insert({Value::Date(date::Parse("2008-01-09").value()),
                             Value::Int32(2), Value::Int32(105),
                             Value::Decimal(700)})
                  .ok());
  ASSERT_TRUE(mgr_->NotifyAppend("sales", "item", Value::Int32(100),
                                 Value::Int32(105))
                  .ok());
  ASSERT_FALSE(db_->catalog().IsStale("mv_day_store"));
  // The maintained view must equal a from-scratch recompute.
  auto maintained = db_->Execute(
      "SELECT day, store, cnt, sum_amount, max_amount FROM mv_day_store "
      "ORDER BY day, store");
  auto recomputed = db_->Execute(
      "SELECT day, store, COUNT(*), SUM(amount), MAX(amount) FROM sales "
      "GROUP BY day, store ORDER BY day, store");
  ASSERT_TRUE(maintained.ok());
  ASSERT_TRUE(recomputed.ok());
  ASSERT_EQ(maintained.value().rows.size(), recomputed.value().rows.size());
  for (size_t i = 0; i < recomputed.value().rows.size(); i++) {
    for (size_t c = 0; c < 5; c++) {
      EXPECT_EQ(
          maintained.value().rows[i][c].Compare(recomputed.value().rows[i][c]), 0)
          << "row " << i << " col " << c;
    }
  }
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

TEST_F(MvTest, MaintenanceOnUnrelatedTableIsNoop) {
  ASSERT_TRUE(mgr_->CreateView(DayStoreView()).ok());
  ASSERT_TRUE(db_->Execute("CREATE TABLE other (k INT)").ok());
  ASSERT_TRUE(db_->Execute("INSERT INTO other VALUES (1)").ok());
  EXPECT_TRUE(
      mgr_->NotifyAppend("other", "k", Value::Int32(1), Value::Int32(1)).ok());
}

}  // namespace
}  // namespace elephant
