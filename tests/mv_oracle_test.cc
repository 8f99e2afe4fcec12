#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/database.h"
#include "mv/view.h"
#include "sqlite_oracle.h"

namespace elephant {
namespace {

/// Materialized-view maintenance against SQLite. Three WAL-logged bases
/// (fact ⋈ dim ⋈ tier, clustered so that inserts into fact and dim reach the
/// other bases by clustered-key seeks and inserts into tier cannot) carry
/// four views: single-table, two-way and three-way joins with COUNT(*), SUM,
/// MIN and MAX over nullable columns and NULL group keys. Each round runs a
/// few autocommit statements, then an explicit transaction that mixes
/// INSERT (into existing and new groups, on both sides of each join), DELETE,
/// UPDATE, failing statements and view reads, and ends in COMMIT or
/// ROLLBACK. After every round each view must equal its defining GROUP BY as
/// SQLite computes it over the bases.
class MvOracleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.wal_enabled = true;
    db_ = std::make_unique<Database>(options);
    views_ = std::make_unique<mv::ViewManager>(db_.get());
    Exec("CREATE TABLE fact (f_id INT, f_line INT, f_grp INT, f_val INT) "
         "CLUSTER BY (f_id, f_line)");
    Exec("CREATE TABLE dim (d_id INT, d_grp INT, d_val INT) CLUSTER BY (d_id)");
    Exec("CREATE TABLE tier (t_id INT, t_grp INT) CLUSTER BY (t_id)");
    for (int i = 0; i < 40; i++) Exec(InsertDim());
    for (int i = 0; i < 80; i++) Exec(InsertFact());
    for (int i = 0; i < 10; i++) Exec(InsertTier());
  }

  void Exec(const std::string& sql) {
    auto r = db_->Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << "\n" << r.status().ToString();
  }

  std::string Nullable(int64_t lo, int64_t hi) {
    return rng_.Uniform(0, 5) == 0 ? "NULL" : std::to_string(rng_.Uniform(lo, hi));
  }

  std::string InsertFact() {
    std::string sql = "INSERT INTO fact VALUES ";
    const int64_t rows = rng_.Uniform(1, 3);
    for (int64_t r = 0; r < rows; r++) {
      // f_id hits existing dim rows, dim rows yet to come, or NULL.
      sql += (r == 0 ? "(" : ", (") + Nullable(0, 60) + ", " +
             std::to_string(rng_.Uniform(1, 4)) + ", " + Nullable(0, 4) +
             ", " + Nullable(-50, 50) + ")";
    }
    return sql;
  }

  std::string InsertDim() {
    // Ids repeat (the clustering is not unique), so a fact row can join
    // several dim rows.
    return "INSERT INTO dim VALUES (" + std::to_string(rng_.Uniform(0, 60)) +
           ", " + Nullable(0, 3) + ", " + Nullable(0, 12) + ")";
  }

  std::string InsertTier() {
    return "INSERT INTO tier VALUES (" + std::to_string(rng_.Uniform(0, 12)) +
           ", " + Nullable(0, 2) + ")";
  }

  std::vector<std::string> RandomStatements() {
    switch (rng_.Uniform(0, 12)) {
      case 0:
      case 1:
        return {InsertFact()};
      case 2:
      case 3:
        return {InsertDim()};
      case 4: {
        // A new dim row and the fact rows that join it, as an order and its
        // lineitems arrive together: both sides of the join are pending.
        const std::string id = std::to_string(next_id_++);
        return {"INSERT INTO dim VALUES (" + id + ", " + Nullable(0, 3) + ", " +
                    Nullable(0, 12) + ")",
                "INSERT INTO fact VALUES (" + id + ", 1, " + Nullable(0, 4) +
                    ", " + Nullable(-50, 50) + "), (" + id + ", 2, " +
                    Nullable(0, 4) + ", " + Nullable(-50, 50) + ")"};
      }
      case 5:
        return {InsertTier()};
      case 6:
        return {"DELETE FROM fact WHERE f_id = " + std::to_string(rng_.Uniform(0, 60))};
      case 7:
        return {"DELETE FROM dim WHERE d_id = " + std::to_string(rng_.Uniform(0, 60))};
      case 8:
        return {"UPDATE fact SET f_val = " + std::to_string(rng_.Uniform(-50, 50)) +
                " WHERE f_id = " + std::to_string(rng_.Uniform(0, 60))};
      case 9:
        return {"INSERT INTO fact VALUES (1, 2)"};  // fails: arity
      default:
        return {"SELECT * FROM " +
                views_->views()[static_cast<size_t>(rng_.Uniform(0, 3))].table_name};
    }
  }

  /// Every view against its GROUP BY, computed by SQLite over copies of the
  /// bases.
  void CheckViews(int round) {
    auto oracle = SqliteOracle::Open();
    ASSERT_TRUE(oracle.ok());
    for (const char* table : {"fact", "dim", "tier"}) {
      Status s = oracle.value()->CopyTable(db_.get(), table);
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
    for (const mv::ViewInfo& info : views_->views()) {
      std::string stored;
      for (const std::string& g : info.def.group_cols) stored += g + ", ";
      for (const mv::ViewInfo::AggColumn& c : info.agg_cols) stored += c.mv_col + ", ";
      stored = "SELECT " + stored.substr(0, stored.size() - 2) + " FROM " +
               info.table_name;
      auto engine = db_->Execute(stored);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      Status s = oracle.value()->Check(
          mv::ViewManager::MaterializationSql(info), engine.value());
      ASSERT_TRUE(s.ok()) << "round " << round << ", view " << info.def.name
                          << ": " << s.ToString();
    }
  }

  uint64_t Counter(const std::string& name) {
    return db_->metrics().GetCounter(name)->value();
  }

  Rng rng_{0x5eed0f};
  int next_id_ = 1000;  ///< ids of paired dim/fact inserts
  std::unique_ptr<Database> db_;
  std::unique_ptr<mv::ViewManager> views_;
};

TEST_F(MvOracleTest, RandomWritesKeepEveryViewEqualToItsGroupBy) {
  if (!SqliteOracle::Open().ok()) {
    GTEST_SKIP() << "*** SQLite ORACLE UNAVAILABLE: oracle test NOT RUN ***";
  }
  std::vector<mv::ViewDef> defs(4);
  defs[0].name = "v_fact";
  defs[0].tables = {"fact"};
  defs[0].group_cols = {"f_grp"};
  defs[0].aggs = {{AggFunc::kSum, "f_val", "s"},
                  {AggFunc::kMin, "f_val", "lo"},
                  {AggFunc::kMax, "f_val", "hi"}};
  defs[1].name = "v_dim";
  defs[1].tables = {"dim"};
  defs[1].group_cols = {"d_grp"};
  defs[1].aggs = {{AggFunc::kCountStar, "", "n"}, {AggFunc::kSum, "d_val", "s"}};
  defs[2].name = "v_join";
  defs[2].tables = {"fact", "dim"};
  defs[2].join_conds = {{"f_id", "d_id"}};
  defs[2].group_cols = {"d_grp", "f_grp"};
  defs[2].aggs = {{AggFunc::kSum, "f_val", "s"},
                  {AggFunc::kMin, "d_val", "lo"},
                  {AggFunc::kMax, "f_val", "hi"}};
  defs[3].name = "v_three";
  defs[3].tables = {"fact", "dim", "tier"};
  defs[3].join_conds = {{"f_id", "d_id"}, {"d_val", "t_id"}};
  defs[3].group_cols = {"t_grp"};
  defs[3].aggs = {{AggFunc::kSum, "f_val", "s"}, {AggFunc::kMax, "d_grp", "hi"}};
  for (const mv::ViewDef& def : defs) {
    Status s = views_->CreateView(def);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  CheckViews(-1);

  for (int round = 0; round < 150; round++) {
    for (int64_t n = rng_.Uniform(0, 2); n > 0; n--) {
      for (const std::string& sql : RandomStatements()) {
        (void)db_->Execute(sql);  // lint:allow(discarded-status): failures are part of the mix
      }
    }
    Exec("BEGIN");
    for (int64_t n = rng_.Uniform(1, 4); n > 0; n--) {
      for (const std::string& sql : RandomStatements()) {
        (void)db_->Execute(sql);  // lint:allow(discarded-status): failures are part of the mix
      }
    }
    Exec(rng_.Uniform(0, 4) == 0 ? "ROLLBACK" : "COMMIT");
    CheckViews(round);
    if (HasFatalFailure()) return;
  }
  // Both refresh paths ran: deltas for inserts, full rebuilds for the rest.
  EXPECT_GT(Counter("mv.refresh.delta_total"), 100u);
  EXPECT_GT(Counter("mv.refresh.full_total"), 100u);
}

}  // namespace
}  // namespace elephant
