#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/database.h"
#include "exec/batch_executors.h"
#include "exec/join_executor.h"
#include "exec/key_table.h"
#include "exec/scan_executor.h"

namespace elephant {
namespace {

// ---- KeyTable ----

TEST(KeyTableTest, DuplicateKeysComeOutNewestFirst) {
  KeyTable table;
  EXPECT_EQ(table.Find("a"), KeyTable::kNone);  // empty table
  for (const char* k : {"a", "b", "a", "", "a"}) table.Insert(k);
  ASSERT_EQ(table.size(), 5u);
  std::vector<uint32_t> a;
  for (uint32_t id = table.Find("a"); id != KeyTable::kNone;
       id = table.NextMatch(id)) {
    a.push_back(id);
  }
  EXPECT_EQ(a, (std::vector<uint32_t>{4, 2, 0}));
  EXPECT_EQ(table.Find("b"), 1u);
  EXPECT_EQ(table.NextMatch(1), KeyTable::kNone);
  EXPECT_EQ(table.Find(""), 3u);
  EXPECT_EQ(table.Find("c"), KeyTable::kNone);
  EXPECT_EQ(table.key(2), "a");
}

TEST(KeyTableTest, GrowsAndSortsDistinctKeys) {
  // 5,000 distinct keys, well past the initial bucket array, inserted in a
  // scrambled order: ids stay dense in insertion order through every growth,
  // and SortedIds is the memcmp order of the keys.
  KeyTable table;
  std::vector<std::string> keys;
  for (int i = 0; i < 5000; i++) {
    std::string key;
    keycodec::Encode(Value::Int32((i * 7919) % 5000 - 2500), &key);
    bool inserted = false;
    EXPECT_EQ(table.FindOrInsert(key, &inserted), static_cast<uint32_t>(i));
    EXPECT_TRUE(inserted);
    keys.push_back(key);
  }
  for (int i = 0; i < 5000; i++) {
    bool inserted = true;
    EXPECT_EQ(table.FindOrInsert(keys[i], &inserted),
              static_cast<uint32_t>(i));
    EXPECT_FALSE(inserted);
  }
  const std::vector<uint32_t> sorted = table.SortedIds();
  ASSERT_EQ(sorted.size(), 5000u);
  // Key -2500 + j sorts j-th; it was inserted at the i with
  // (i * 7919) % 5000 == j.
  for (int j = 0; j < 5000; j++) {
    EXPECT_EQ((sorted[j] * 7919) % 5000, static_cast<uint32_t>(j));
  }
  table.Clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.Find(keys[0]), KeyTable::kNone);
}

TEST(KeyTableTest, IntegerKeysMeetAtOneWidth) {
  EXPECT_TRUE(KeyComparable(TypeId::kInt32, TypeId::kInt64));
  EXPECT_TRUE(KeyComparable(TypeId::kDate, TypeId::kInt64));
  EXPECT_TRUE(KeyComparable(TypeId::kChar, TypeId::kVarchar));
  EXPECT_FALSE(KeyComparable(TypeId::kDecimal, TypeId::kInt32));
  EXPECT_FALSE(KeyComparable(TypeId::kDouble, TypeId::kInt64));
  EXPECT_EQ(CommonKeyType(TypeId::kInt32, TypeId::kInt64), TypeId::kInt64);
  EXPECT_EQ(CommonKeyType(TypeId::kInt32, TypeId::kDate), TypeId::kInt32);

  auto encode = [](const Value& v, TypeId type) {
    Value scratch;
    const Value* k = CastKey(v, type, &scratch);
    std::string out;
    if (k != nullptr) keycodec::Encode(*k, &out);
    return k == nullptr ? std::string("none") : out;
  };
  EXPECT_EQ(encode(Value::Int32(7), TypeId::kInt64),
            encode(Value::Int64(7), TypeId::kInt64));
  EXPECT_EQ(encode(Value::Int64(7), TypeId::kInt32),
            encode(Value::Int32(7), TypeId::kInt32));
  EXPECT_EQ(encode(Value::Int64(int64_t{1} << 32), TypeId::kInt32), "none");
  EXPECT_EQ(encode(Value::Null(TypeId::kInt32), TypeId::kInt32), "none");
  EXPECT_EQ(encode(Value::Char("ab  "), TypeId::kVarchar),
            encode(Value::Varchar("ab"), TypeId::kVarchar));
}

// ---- Hash join and grouped aggregation over the table ----

class KeyTableOperatorTest : public ::testing::Test {
 protected:
  static BatchExecutorPtr Values(std::vector<Column> cols,
                                 std::vector<Row> rows) {
    return std::make_unique<ValuesExecutor>(Schema(std::move(cols)),
                                            std::move(rows));
  }

  /// Runs `exec` and renders each output row as "v1|v2|...".
  static std::vector<std::string> Render(BatchExecutor* exec) {
    auto rows = DrainBatches(exec);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    std::vector<std::string> out;
    if (!rows.ok()) return out;
    for (const Row& row : rows.value()) {
      std::string line;
      for (size_t c = 0; c < row.size(); c++) {
        line += (c == 0 ? "" : "|") + row[c].ToString();
      }
      out.push_back(std::move(line));
    }
    return out;
  }

  /// An equi-join of `left` and `right` on their column 0.
  HashJoinExecutor Join(BatchExecutorPtr left, BatchExecutorPtr right) {
    std::vector<ExprPtr> lk, rk;
    lk.push_back(Col(0, left->OutputSchema().ColumnAt(0).type));
    rk.push_back(Col(0, right->OutputSchema().ColumnAt(0).type));
    return HashJoinExecutor(&ctx_, std::move(left), std::move(right),
                            std::move(lk), std::move(rk), nullptr);
  }

  DiskManager disk_;
  BufferPool pool_{&disk_, 64};
  ExecContext ctx_{&pool_};
};

TEST_F(KeyTableOperatorTest, DuplicateBuildKeysMatchNewestFirst) {
  HashJoinExecutor join = Join(
      Values({Column("k", TypeId::kInt32)},
             {{Value::Int32(1)}, {Value::Int32(2)}, {Value::Int32(3)}}),
      Values({Column("k", TypeId::kInt32), Column("tag", TypeId::kVarchar)},
             {{Value::Int32(1), Value::Varchar("a")},
              {Value::Int32(2), Value::Varchar("b")},
              {Value::Int32(1), Value::Varchar("c")},
              {Value::Int32(1), Value::Varchar("d")}}));
  EXPECT_EQ(Render(&join), (std::vector<std::string>{
                               "1|1|d", "1|1|c", "1|1|a", "2|2|b"}));
  EXPECT_EQ(ctx_.counters().hash_inserts, 4u);
  EXPECT_EQ(ctx_.counters().hash_probes, 3u);
}

TEST_F(KeyTableOperatorTest, NullKeysNeverJoin) {
  const Value null = Value::Null(TypeId::kInt32);
  HashJoinExecutor join = Join(
      Values({Column("k", TypeId::kInt32)},
             {{null}, {Value::Int32(5)}, {null}}),
      Values({Column("k", TypeId::kInt32), Column("v", TypeId::kInt32)},
             {{null, Value::Int32(1)}, {Value::Int32(5), Value::Int32(2)}}));
  EXPECT_EQ(Render(&join), (std::vector<std::string>{"5|5|2"}));
  // NULL keys are neither stored nor looked up.
  EXPECT_EQ(ctx_.counters().hash_inserts, 1u);
  EXPECT_EQ(ctx_.counters().hash_probes, 1u);
}

TEST_F(KeyTableOperatorTest, MultiColumnVarcharAndMixedWidthKeys) {
  // Keys (INT, VARCHAR) against (BIGINT, CHAR): both columns must match,
  // the integer pair meets as BIGINT and CHAR padding does not count.
  auto left = Values(
      {Column("id", TypeId::kInt32), Column("s", TypeId::kVarchar)},
      {{Value::Int32(1), Value::Varchar("x")},
       {Value::Int32(1), Value::Varchar("y")},
       {Value::Int32(2), Value::Varchar("x")},
       {Value::Int32(2), Value::Varchar("")}});
  auto right = Values(
      {Column("id", TypeId::kInt64), Column("s", TypeId::kChar, 3),
       Column("n", TypeId::kInt32)},
      {{Value::Int64(1), Value::Char("x  "), Value::Int32(10)},
       {Value::Int64(2), Value::Char("   "), Value::Int32(20)},
       {Value::Int64(2), Value::Char("y  "), Value::Int32(30)},
       {Value::Int64(int64_t{1} << 32 | 1), Value::Char("x  "),
        Value::Int32(40)}});
  std::vector<ExprPtr> lk, rk;
  lk.push_back(Col(0, TypeId::kInt32));
  lk.push_back(Col(1, TypeId::kVarchar));
  rk.push_back(Col(0, TypeId::kInt64));
  rk.push_back(Col(1, TypeId::kChar));
  HashJoinExecutor join(&ctx_, std::move(left), std::move(right),
                        std::move(lk), std::move(rk), nullptr);
  EXPECT_EQ(Render(&join),
            (std::vector<std::string>{"1|x|1|x  |10", "2||2|   |20"}));
}

TEST_F(KeyTableOperatorTest, BuildSidePastOneBatchKeepsOrder) {
  // 3,000 build rows over 1,500 keys (two each, ids k and k + 1,500) fill
  // three row batches and grow the table several times; every probe still
  // meets its newer build row first.
  std::vector<Row> build, probe;
  for (int i = 0; i < 3000; i++) {
    build.push_back({Value::Int32(i % 1500), Value::Int32(i)});
  }
  for (int k = 1499; k >= 0; k--) probe.push_back({Value::Int32(k)});
  HashJoinExecutor join =
      Join(Values({Column("k", TypeId::kInt32)}, std::move(probe)),
           Values({Column("k", TypeId::kInt32), Column("i", TypeId::kInt32)},
                  std::move(build)));
  const std::vector<std::string> rows = Render(&join);
  ASSERT_EQ(rows.size(), 3000u);
  for (int n = 0; n < 1500; n++) {
    const int k = 1499 - n;
    const std::string kk = std::to_string(k) + "|" + std::to_string(k) + "|";
    EXPECT_EQ(rows[2 * n], kk + std::to_string(k + 1500));
    EXPECT_EQ(rows[2 * n + 1], kk + std::to_string(k));
  }
  EXPECT_EQ(ctx_.counters().hash_inserts, 3000u);
  EXPECT_EQ(ctx_.counters().hash_probes, 1500u);
}

TEST_F(KeyTableOperatorTest, EmptyBuildSideJoinsNothing) {
  HashJoinExecutor join =
      Join(Values({Column("k", TypeId::kInt32)},
                  {{Value::Int32(1)}, {Value::Int32(2)}}),
           Values({Column("k", TypeId::kInt32)}, {}));
  EXPECT_TRUE(Render(&join).empty());
  EXPECT_EQ(ctx_.counters().hash_inserts, 0u);
  EXPECT_EQ(ctx_.counters().hash_probes, 2u);
}

TEST_F(KeyTableOperatorTest, NestedProductPairsNewestBuildRowFirst) {
  HashJoinExecutor join(
      &ctx_,
      Values({Column("a", TypeId::kInt32)},
             {{Value::Int32(1)}, {Value::Int32(2)}}),
      Values({Column("b", TypeId::kVarchar)},
             {{Value::Varchar("p")}, {Value::Varchar("q")}}),
      {}, {}, nullptr);
  EXPECT_EQ(Render(&join),
            (std::vector<std::string>{"1|q", "1|p", "2|q", "2|p"}));
}

TEST_F(KeyTableOperatorTest, GroupsPastOneBatchEmitInKeyOrder) {
  // 4,000 rows over 2,000 groups, first met in a scrambled order: output is
  // in encoded-key order (NULL first), each group counted twice.
  std::vector<Row> rows;
  for (int i = 0; i < 4000; i++) {
    const int g = (i * 7919) % 2000;
    rows.push_back({g == 0 ? Value::Null(TypeId::kInt32) : Value::Int32(g),
                    Value::Int32(i)});
  }
  std::vector<ExprPtr> groups;
  groups.push_back(Col(0, TypeId::kInt32));
  std::vector<AggSpec> aggs;
  aggs.emplace_back(AggFunc::kCountStar, nullptr, "n");
  aggs.emplace_back(AggFunc::kMin, Col(1, TypeId::kInt32), "first");
  BatchHashAggregateExecutor agg(
      &ctx_,
      Values({Column("g", TypeId::kInt32), Column("i", TypeId::kInt32)},
             std::move(rows)),
      std::move(groups), std::move(aggs));
  const std::vector<std::string> out = Render(&agg);
  ASSERT_EQ(out.size(), 2000u);
  EXPECT_EQ(out[0], "NULL|2|0");
  for (int g = 1; g < 2000; g++) {
    // (i * 7919) % 2000 == g first at i = g * 1679 % 2000 (1679 is the
    // inverse of 7919 mod 2000).
    EXPECT_EQ(out[g], std::to_string(g) + "|2|" +
                          std::to_string(g * 1679 % 2000));
  }
  EXPECT_EQ(ctx_.counters().hash_inserts, 2000u);
  EXPECT_EQ(ctx_.counters().hash_probes, 4000u);
}

TEST_F(KeyTableOperatorTest, MultiColumnVarcharGroups) {
  std::vector<Row> rows = {
      {Value::Varchar("b"), Value::Int32(1)},
      {Value::Varchar("a"), Value::Int32(2)},
      {Value::Null(TypeId::kVarchar), Value::Int32(1)},
      {Value::Varchar("a"), Value::Int32(1)},
      {Value::Varchar("b"), Value::Int32(1)},
      {Value::Varchar("ab"), Value::Int32(1)},
  };
  std::vector<ExprPtr> groups;
  groups.push_back(Col(0, TypeId::kVarchar));
  groups.push_back(Col(1, TypeId::kInt32));
  std::vector<AggSpec> aggs;
  aggs.emplace_back(AggFunc::kCountStar, nullptr, "n");
  BatchHashAggregateExecutor agg(
      &ctx_,
      Values({Column("s", TypeId::kVarchar), Column("v", TypeId::kInt32)},
             std::move(rows)),
      std::move(groups), std::move(aggs));
  EXPECT_EQ(Render(&agg),
            (std::vector<std::string>{"NULL|1|1", "a|1|1", "a|2|1", "ab|1|1",
                                      "b|1|2"}));
}

// ---- Counters and the parallel final aggregate, end to end ----

class KeyTableSqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions opts;
    opts.cold_cache = false;
    opts.worker_threads = 4;
    db_ = std::make_unique<Database>(opts);
    ASSERT_TRUE(
        db_->Execute("CREATE TABLE a (k INT, g INT) CLUSTER BY (k)").ok());
    ASSERT_TRUE(
        db_->Execute("CREATE TABLE b (k BIGINT, v INT) CLUSTER BY (k)").ok());
    std::string rows;
    for (int i = 0; i < 100; i++) {
      rows += (i == 0 ? "(" : ", (") + std::to_string(i) + ", " +
              std::to_string(i % 3) + ")";
    }
    ASSERT_TRUE(db_->Execute("INSERT INTO a VALUES " + rows).ok());
    rows.clear();
    for (int i = 0; i < 10; i++) {
      rows += (i == 0 ? "(" : ", (") + std::to_string(i * 2) + ", " +
              std::to_string(i) + ")";
    }
    ASSERT_TRUE(db_->Execute("INSERT INTO b VALUES " + rows).ok());
  }

  QueryResult Run(const std::string& sql, int workers) {
    PlanHints hints;
    hints.parallel_workers = workers;
    auto r = db_->Execute(sql, hints);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    return r.ok() ? std::move(r).value() : QueryResult{};
  }

  std::unique_ptr<Database> db_;
};

TEST_F(KeyTableSqlTest, JoinAndGroupByCountInsertsAndProbes) {
  // The hash join builds on b's 10 rows and probes with a's 100; its 10
  // matches (a.k = 0, 2, ..., 18) fold into 3 groups. PARALLEL needs a
  // single relation, so the join runs serially either way.
  const std::string sql =
      "/*+ FORCE_ORDER HASH_JOIN */ SELECT a.g, COUNT(*), SUM(b.v) "
      "FROM a, b WHERE a.k = b.k GROUP BY a.g";
  for (int workers : {0, 4}) {
    QueryResult r = Run(sql, workers);
    ASSERT_EQ(r.rows.size(), 3u);
    EXPECT_EQ(r.rows[0][1].AsInt64(), 4);  // a.k = 0, 6, 12, 18
    EXPECT_EQ(r.rows[0][2].AsInt64(), 0 + 3 + 6 + 9);
    EXPECT_EQ(r.counters.hash_inserts, 10u + 3u) << workers;
    EXPECT_EQ(r.counters.hash_probes, 100u + 10u) << workers;
  }
  QueryResult explain = Run("EXPLAIN ANALYZE " + sql, 0);
  std::string text;
  for (const Row& row : explain.rows) text += row[0].AsString() + "\n";
  EXPECT_NE(text.find("hash_ins=13 hash_probes=110 "), std::string::npos)
      << text;
}

TEST_F(KeyTableSqlTest, ParallelFinalAggregateEqualsSerial) {
  // Under PARALLEL 4 every morsel folds its rows into its own table (one
  // probe per row, one insert per group it meets), and the final aggregate
  // folds one partial row per morsel group.
  const std::string sql =
      "SELECT g, COUNT(*), SUM(k), MIN(k) FROM a GROUP BY g";
  QueryResult serial = Run(sql, 0);
  QueryResult parallel = Run(sql, 4);
  auto plan = db_->Explain(sql, [] {
    PlanHints h;
    h.parallel_workers = 4;
    return h;
  }());
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan.value().find("FinalAggregate"), std::string::npos)
      << plan.value();
  ASSERT_EQ(serial.rows.size(), 3u);
  ASSERT_EQ(parallel.rows.size(), serial.rows.size());
  for (size_t i = 0; i < serial.rows.size(); i++) {
    ASSERT_EQ(parallel.rows[i].size(), serial.rows[i].size());
    for (size_t c = 0; c < serial.rows[i].size(); c++) {
      EXPECT_EQ(parallel.rows[i][c].ToString(), serial.rows[i][c].ToString());
    }
  }
  EXPECT_EQ(serial.rows[1][0].AsInt64(), 1);
  EXPECT_EQ(serial.rows[1][1].AsInt64(), 33);
  EXPECT_EQ(serial.counters.hash_inserts, 3u);
  EXPECT_EQ(serial.counters.hash_probes, 100u);
  // Every morsel is a range of consecutive k (100 rows fill one leaf, so
  // one morsel here) and meets all three groups.
  const size_t at = plan.value().find("morsels=");
  ASSERT_NE(at, std::string::npos) << plan.value();
  const uint64_t morsels = std::stoull(plan.value().substr(at + 8));
  EXPECT_EQ(morsels, 1u);
  EXPECT_EQ(parallel.counters.hash_inserts, 3 * morsels + 3);
  EXPECT_EQ(parallel.counters.hash_probes, 100 + 3 * morsels);
}

}  // namespace
}  // namespace elephant
