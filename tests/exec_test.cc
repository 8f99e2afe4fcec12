#include <gtest/gtest.h>

#include <functional>

#include "catalog/catalog.h"
#include "exec/batch_executors.h"
#include "exec/join_executor.h"
#include "exec/scan_executor.h"
#include "exec/simple_executors.h"

namespace elephant {
namespace {

struct ExecFixture : public ::testing::Test {
  DiskManager disk;
  BufferPool pool{&disk, 4096};
  Catalog catalog{&pool};
  ExecContext ctx{&pool};

  /// Creates t(k INT32 cluster, grp INT32, amount DECIMAL) with n rows:
  /// k = i, grp = i % groups, amount = i cents.
  Table* MakeTable(const std::string& name, int n, int groups) {
    Schema s({Column("k", TypeId::kInt32), Column("grp", TypeId::kInt32),
              Column("amount", TypeId::kDecimal)});
    auto t = catalog.CreateTable(name, s, {0});
    EXPECT_TRUE(t.ok());
    std::vector<Row> rows;
    for (int i = 0; i < n; i++) {
      rows.push_back(
          {Value::Int32(i), Value::Int32(i % groups), Value::Decimal(i)});
    }
    EXPECT_TRUE(t.value()->BulkLoadRows(std::move(rows)).ok());
    return t.value();
  }
};

TEST_F(ExecFixture, ClusteredScanFull) {
  Table* t = MakeTable("t", 100, 5);
  IndexScanExecutor scan(&ctx, t);
  auto rows = DrainBatches(&scan);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 100u);
  EXPECT_EQ(rows.value()[42][0].AsInt32(), 42);
}

TEST_F(ExecFixture, ClusteredScanRange) {
  Table* t = MakeTable("t", 100, 5);
  KeyRange range = MakeKeyRange({}, Value::Int32(10), true, Value::Int32(19), true);
  IndexScanExecutor scan(&ctx, t, nullptr, range);
  auto rows = DrainBatches(&scan);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 10u);
  EXPECT_EQ(rows.value().front()[0].AsInt32(), 10);
  EXPECT_EQ(rows.value().back()[0].AsInt32(), 19);
}

TEST_F(ExecFixture, ClusteredScanExclusiveBounds) {
  Table* t = MakeTable("t", 100, 5);
  KeyRange range = MakeKeyRange({}, Value::Int32(10), false, Value::Int32(19), false);
  IndexScanExecutor scan(&ctx, t, nullptr, range);
  auto rows = DrainBatches(&scan);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 8u);
  EXPECT_EQ(rows.value().front()[0].AsInt32(), 11);
  EXPECT_EQ(rows.value().back()[0].AsInt32(), 18);
}

TEST_F(ExecFixture, SecondaryIndexScanDecodesKeyAndIncludes) {
  Table* t = MakeTable("t", 100, 5);
  ASSERT_TRUE(t->CreateSecondaryIndex("idx", {1}, {2}).ok());
  SecondaryIndex* idx = t->FindIndex("idx");
  KeyRange range = MakeKeyRange({Value::Int32(3)}, std::nullopt, true, std::nullopt, true);
  IndexScanExecutor scan(&ctx, t, idx, range);
  auto rows = DrainBatches(&scan);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 20u);  // 100 rows, 5 groups
  for (const Row& r : rows.value()) {
    EXPECT_EQ(r[0].AsInt32(), 3);                 // key col grp
    EXPECT_EQ(r[1].AsInt64() % 5, 3);             // amount = k cents, k%5==3
  }
}

TEST_F(ExecFixture, FilterAndProject) {
  Table* t = MakeTable("t", 50, 5);
  auto scan = std::make_unique<IndexScanExecutor>(&ctx, t);
  auto filter = std::make_unique<BatchFilterExecutor>(
      std::move(scan),
      Cmp(CompareOp::kGe, Col(0, TypeId::kInt32), Lit(Value::Int32(45))));
  std::vector<ExprPtr> projs;
  projs.push_back(Arith(ArithOp::kMul, Col(0, TypeId::kInt32), Lit(Value::Int32(2))));
  BatchProjectExecutor proj(std::move(filter), std::move(projs), {"double_k"});
  auto rows = DrainBatches(&proj);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 5u);
  EXPECT_EQ(rows.value()[0][0].AsInt32(), 90);
  EXPECT_EQ(proj.OutputSchema().ColumnAt(0).name, "double_k");
}

TEST_F(ExecFixture, SortAscendingAndDescending) {
  Schema s({Column("x", TypeId::kInt32)});
  std::vector<Row> input{{Value::Int32(3)}, {Value::Int32(1)}, {Value::Int32(2)}};
  {
    std::vector<SortKey> keys;
    keys.push_back({Col(0, TypeId::kInt32), true});
    SortExecutor sort(&ctx, std::make_unique<ValuesExecutor>(s, input),
                      std::move(keys));
    auto rows = DrainBatches(&sort);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows.value()[0][0].AsInt32(), 1);
    EXPECT_EQ(rows.value()[2][0].AsInt32(), 3);
  }
  {
    std::vector<SortKey> keys;
    keys.push_back({Col(0, TypeId::kInt32), false});
    SortExecutor sort(&ctx, std::make_unique<ValuesExecutor>(s, input),
                      std::move(keys));
    auto rows = DrainBatches(&sort);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows.value()[0][0].AsInt32(), 3);
    EXPECT_EQ(rows.value()[2][0].AsInt32(), 1);
  }
}

TEST_F(ExecFixture, Limit) {
  Table* t = MakeTable("t", 100, 5);
  auto scan = std::make_unique<IndexScanExecutor>(&ctx, t);
  LimitExecutor limit(std::move(scan), 7);
  auto rows = DrainBatches(&limit);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 7u);
}

TEST_F(ExecFixture, HashAggregateGroupsAndAggregates) {
  Table* t = MakeTable("t", 100, 4);
  auto scan = std::make_unique<IndexScanExecutor>(&ctx, t);
  std::vector<ExprPtr> groups;
  groups.push_back(Col(1, TypeId::kInt32, "grp"));
  std::vector<AggSpec> aggs;
  aggs.emplace_back(AggFunc::kCountStar, nullptr, "cnt");
  aggs.emplace_back(AggFunc::kSum, Col(2, TypeId::kDecimal), "total");
  aggs.emplace_back(AggFunc::kMin, Col(0, TypeId::kInt32), "min_k");
  aggs.emplace_back(AggFunc::kMax, Col(0, TypeId::kInt32), "max_k");
  aggs.emplace_back(AggFunc::kAvg, Col(0, TypeId::kInt32), "avg_k");
  BatchHashAggregateExecutor agg(&ctx, std::move(scan), std::move(groups),
                                 std::move(aggs));
  auto rows = DrainBatches(&agg);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 4u);
  // Groups emitted in key order: grp 0..3. grp 0: k = 0,4,...,96 (25 rows).
  const Row& g0 = rows.value()[0];
  EXPECT_EQ(g0[0].AsInt32(), 0);
  EXPECT_EQ(g0[1].AsInt64(), 25);
  EXPECT_EQ(g0[2].AsInt64(), (0 + 96) * 25 / 2);  // sum of cents
  EXPECT_EQ(g0[3].AsInt32(), 0);
  EXPECT_EQ(g0[4].AsInt32(), 96);
  EXPECT_DOUBLE_EQ(g0[5].AsDouble(), 48.0);
}

TEST_F(ExecFixture, ScalarAggregateOverEmptyInput) {
  Schema s({Column("x", TypeId::kInt32)});
  auto values = std::make_unique<ValuesExecutor>(s, std::vector<Row>{});
  std::vector<AggSpec> aggs;
  aggs.emplace_back(AggFunc::kCountStar, nullptr, "cnt");
  aggs.emplace_back(AggFunc::kSum, Col(0, TypeId::kInt32), "s");
  BatchHashAggregateExecutor agg(&ctx, std::move(values), {}, std::move(aggs));
  auto rows = DrainBatches(&agg);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 1u);
  EXPECT_EQ(rows.value()[0][0].AsInt64(), 0);
  EXPECT_TRUE(rows.value()[0][1].is_null());
  // The one empty group is still a key-table entry.
  EXPECT_EQ(ctx.counters().hash_inserts, 1u);
}

TEST_F(ExecFixture, StreamAggregateMatchesHashAggregate) {
  Table* t = MakeTable("t", 120, 6);
  // Input sorted by grp via SortExecutor, then stream-aggregate.
  auto scan = std::make_unique<IndexScanExecutor>(&ctx, t);
  std::vector<SortKey> keys;
  keys.push_back({Col(1, TypeId::kInt32), true});
  auto sort = std::make_unique<SortExecutor>(&ctx, std::move(scan), std::move(keys));
  std::vector<ExprPtr> groups;
  groups.push_back(Col(1, TypeId::kInt32));
  std::vector<AggSpec> aggs;
  aggs.emplace_back(AggFunc::kCountStar, nullptr, "cnt");
  aggs.emplace_back(AggFunc::kSum, Col(2, TypeId::kDecimal), "total");
  BatchStreamAggregateExecutor stream(std::move(sort), std::move(groups),
                                      std::move(aggs));
  auto srows = DrainBatches(&stream);
  ASSERT_TRUE(srows.ok());

  auto scan2 = std::make_unique<IndexScanExecutor>(&ctx, t);
  std::vector<ExprPtr> groups2;
  groups2.push_back(Col(1, TypeId::kInt32));
  std::vector<AggSpec> aggs2;
  aggs2.emplace_back(AggFunc::kCountStar, nullptr, "cnt");
  aggs2.emplace_back(AggFunc::kSum, Col(2, TypeId::kDecimal), "total");
  BatchHashAggregateExecutor hash(&ctx, std::move(scan2), std::move(groups2),
                                  std::move(aggs2));
  auto hrows = DrainBatches(&hash);
  ASSERT_TRUE(hrows.ok());
  ASSERT_EQ(srows.value().size(), hrows.value().size());
  for (size_t i = 0; i < srows.value().size(); i++) {
    for (size_t c = 0; c < 3; c++) {
      EXPECT_EQ(srows.value()[i][c].Compare(hrows.value()[i][c]), 0);
    }
  }
}

TEST_F(ExecFixture, HashJoinMatchesExpectedPairs) {
  Table* a = MakeTable("a", 20, 4);
  Table* b = MakeTable("b", 8, 4);
  auto sa = std::make_unique<IndexScanExecutor>(&ctx, a);
  auto sb = std::make_unique<IndexScanExecutor>(&ctx, b);
  std::vector<ExprPtr> lk, rk;
  lk.push_back(Col(1, TypeId::kInt32));  // a.grp
  rk.push_back(Col(1, TypeId::kInt32));  // b.grp
  HashJoinExecutor join(&ctx, std::move(sa), std::move(sb), std::move(lk),
                        std::move(rk), nullptr);
  auto rows = DrainBatches(&join);
  ASSERT_TRUE(rows.ok());
  // Each a row matches b rows with same grp: b has 8 rows over 4 groups = 2 each.
  EXPECT_EQ(rows.value().size(), 20u * 2);
  for (const Row& r : rows.value()) {
    EXPECT_EQ(r[1].AsInt32(), r[4].AsInt32());  // grp == grp
  }
}

TEST_F(ExecFixture, IndexNestedLoopJoinWithEqualityBounds) {
  Table* outer = MakeTable("outer", 10, 10);
  Table* inner = MakeTable("inner", 100, 100);  // k unique 0..99, clustered on k
  auto so = std::make_unique<IndexScanExecutor>(&ctx, outer);
  InljBounds bounds;
  // inner.k == outer.k * 3
  bounds.eq_exprs.push_back(
      Arith(ArithOp::kMul, Col(0, TypeId::kInt32), Lit(Value::Int32(3))));
  IndexNestedLoopJoinExecutor join(&ctx, std::move(so), inner, nullptr,
                                   std::move(bounds), nullptr);
  auto rows = DrainBatches(&join);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 10u);
  for (const Row& r : rows.value()) {
    EXPECT_EQ(r[3].AsInt32(), r[0].AsInt32() * 3);
  }
  EXPECT_EQ(ctx.counters().index_seeks, 10u);
}

TEST_F(ExecFixture, IndexNestedLoopJoinWithBandBounds) {
  Table* ranges = MakeTable("ranges", 5, 5);   // k = 0..4
  Table* points = MakeTable("points", 50, 5);  // k = 0..49, clustered on k
  auto so = std::make_unique<IndexScanExecutor>(&ctx, ranges);
  InljBounds bounds;
  // points.k BETWEEN ranges.k*10 AND ranges.k*10+9
  bounds.lo = Arith(ArithOp::kMul, Col(0, TypeId::kInt32), Lit(Value::Int32(10)));
  bounds.hi = Arith(ArithOp::kAdd,
                    Arith(ArithOp::kMul, Col(0, TypeId::kInt32), Lit(Value::Int32(10))),
                    Lit(Value::Int32(9)));
  IndexNestedLoopJoinExecutor join(&ctx, std::move(so), points, nullptr,
                                   std::move(bounds), nullptr);
  auto rows = DrainBatches(&join);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 50u);  // every point falls in exactly one band
  for (const Row& r : rows.value()) {
    int band = r[0].AsInt32();
    int point = r[3].AsInt32();
    EXPECT_GE(point, band * 10);
    EXPECT_LE(point, band * 10 + 9);
  }
}

TEST_F(ExecFixture, BandMergeJoinEqualsInljResult) {
  Table* ranges = MakeTable("ranges", 5, 5);
  Table* points = MakeTable("points", 50, 5);
  auto run_band_merge = [&]() {
    auto so = std::make_unique<IndexScanExecutor>(&ctx, ranges);
    auto si = std::make_unique<IndexScanExecutor>(&ctx, points);
    BandMergeJoinExecutor join(
        &ctx, std::move(so), std::move(si),
        Arith(ArithOp::kMul, Col(0, TypeId::kInt32), Lit(Value::Int32(10))),
        Arith(ArithOp::kAdd,
              Arith(ArithOp::kMul, Col(0, TypeId::kInt32), Lit(Value::Int32(10))),
              Lit(Value::Int32(9))),
        Col(0, TypeId::kInt32), nullptr);
    return DrainBatches(&join);
  };
  auto rows = run_band_merge();
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 50u);
  for (const Row& r : rows.value()) {
    int band = r[0].AsInt32();
    int point = r[3].AsInt32();
    EXPECT_GE(point, band * 10);
    EXPECT_LE(point, band * 10 + 9);
  }
}

/// Runs inner.k BETWEEN lo(outer) AND hi(outer) through both
/// BandMergeJoinExecutor and IndexNestedLoopJoinExecutor and expects the
/// outputs to be byte-identical, row for row.
void ExpectBandMergeMatchesInlj(ExecContext* ctx, Table* ranges, Table* points,
                                const std::function<ExprPtr()>& lo,
                                const std::function<ExprPtr()>& hi) {
  auto so_merge = std::make_unique<IndexScanExecutor>(ctx, ranges);
  auto si_merge = std::make_unique<IndexScanExecutor>(ctx, points);
  BandMergeJoinExecutor merge(ctx, std::move(so_merge), std::move(si_merge),
                              lo(), hi(), Col(0, TypeId::kInt32), nullptr);
  auto merge_rows = DrainBatches(&merge);
  ASSERT_TRUE(merge_rows.ok()) << merge_rows.status().ToString();

  auto so_inlj = std::make_unique<IndexScanExecutor>(ctx, ranges);
  InljBounds bounds;
  bounds.lo = lo();
  bounds.hi = hi();
  IndexNestedLoopJoinExecutor inlj(ctx, std::move(so_inlj), points, nullptr,
                                   std::move(bounds), nullptr);
  auto inlj_rows = DrainBatches(&inlj);
  ASSERT_TRUE(inlj_rows.ok()) << inlj_rows.status().ToString();

  ASSERT_EQ(merge_rows.value().size(), inlj_rows.value().size());
  for (size_t i = 0; i < merge_rows.value().size(); i++) {
    const Row& m = merge_rows.value()[i];
    const Row& n = inlj_rows.value()[i];
    ASSERT_EQ(m.size(), n.size());
    for (size_t c = 0; c < m.size(); c++) {
      EXPECT_EQ(m[c].ToString(), n[c].ToString())
          << "row " << i << " col " << c;
    }
  }
}

TEST_F(ExecFixture, BandMergeJoinEmptyInnerMatchesInlj) {
  Table* ranges = MakeTable("ranges", 5, 5);
  Table* points = MakeTable("points", 0, 1);  // empty inner input
  ExpectBandMergeMatchesInlj(
      &ctx, ranges, points,
      [] { return Arith(ArithOp::kMul, Col(0, TypeId::kInt32), Lit(Value::Int32(10))); },
      [] {
        return Arith(ArithOp::kAdd,
                     Arith(ArithOp::kMul, Col(0, TypeId::kInt32), Lit(Value::Int32(10))),
                     Lit(Value::Int32(9)));
      });
}

TEST_F(ExecFixture, BandMergeJoinDegenerateBandsMatchInlj) {
  // Bands of width 1 (f == f + c - 1, a run of length one): lo(outer) ==
  // hi(outer) == outer.k * 3, so each band covers exactly one inner key and
  // consecutive bands leave gaps the merge must skip over.
  Table* ranges = MakeTable("ranges", 10, 10);
  Table* points = MakeTable("points", 30, 30);
  ExpectBandMergeMatchesInlj(
      &ctx, ranges, points,
      [] { return Arith(ArithOp::kMul, Col(0, TypeId::kInt32), Lit(Value::Int32(3))); },
      [] { return Arith(ArithOp::kMul, Col(0, TypeId::kInt32), Lit(Value::Int32(3))); });
}

TEST_F(ExecFixture, BandMergeJoinSingleRowRunsMatchInlj) {
  // One inner row per band (single-row RLE runs): bands [10i, 10i+9] each
  // contain exactly the point k = 10i + 5.
  Table* ranges = MakeTable("ranges", 10, 10);
  Schema s({Column("k", TypeId::kInt32), Column("grp", TypeId::kInt32),
            Column("amount", TypeId::kDecimal)});
  auto t = catalog.CreateTable("points", s, {0});
  ASSERT_TRUE(t.ok());
  std::vector<Row> rows;
  for (int i = 0; i < 10; i++) {
    rows.push_back({Value::Int32(i * 10 + 5), Value::Int32(i), Value::Decimal(i)});
  }
  ASSERT_TRUE(t.value()->BulkLoadRows(std::move(rows)).ok());
  ExpectBandMergeMatchesInlj(
      &ctx, ranges, t.value(),
      [] { return Arith(ArithOp::kMul, Col(0, TypeId::kInt32), Lit(Value::Int32(10))); },
      [] {
        return Arith(ArithOp::kAdd,
                     Arith(ArithOp::kMul, Col(0, TypeId::kInt32), Lit(Value::Int32(10))),
                     Lit(Value::Int32(9)));
      });
}

TEST_F(ExecFixture, JoinOutputSpanningBatchesMatchesAcrossJoins) {
  // Three bands of 1,000 points each: 3,000 output rows, so every join must
  // resume mid-inner-run across output batches. INLJ and band merge must
  // agree row for row; the hash join on grp pairs the same rows.
  Table* ranges = MakeTable("ranges", 3, 3);
  Table* points = MakeTable("points", 3000, 3);
  auto lo = [] {
    return Arith(ArithOp::kMul, Col(0, TypeId::kInt32), Lit(Value::Int32(1000)));
  };
  auto hi = [] {
    return Arith(ArithOp::kAdd,
                 Arith(ArithOp::kMul, Col(0, TypeId::kInt32),
                       Lit(Value::Int32(1000))),
                 Lit(Value::Int32(999)));
  };
  ExpectBandMergeMatchesInlj(&ctx, ranges, points, lo, hi);

  InljBounds bounds;
  bounds.lo = lo();
  bounds.hi = hi();
  IndexNestedLoopJoinExecutor inlj(
      &ctx, std::make_unique<IndexScanExecutor>(&ctx, ranges), points, nullptr,
      std::move(bounds), nullptr);
  auto rows = DrainBatches(&inlj);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 3000u);
  for (size_t i = 0; i < rows.value().size(); i++) {
    EXPECT_EQ(rows.value()[i][3].AsInt32(), static_cast<int32_t>(i));
    EXPECT_EQ(rows.value()[i][0].AsInt32(), static_cast<int32_t>(i / 1000));
  }

  std::vector<ExprPtr> lk, rk;
  lk.push_back(Col(1, TypeId::kInt32));
  rk.push_back(Col(1, TypeId::kInt32));
  HashJoinExecutor hash(&ctx, std::make_unique<IndexScanExecutor>(&ctx, ranges),
                        std::make_unique<IndexScanExecutor>(&ctx, points),
                        std::move(lk), std::move(rk), nullptr);
  auto hrows = DrainBatches(&hash);
  ASSERT_TRUE(hrows.ok());
  ASSERT_EQ(hrows.value().size(), 3000u);
  for (const Row& r : hrows.value()) EXPECT_EQ(r[1].AsInt32(), r[4].AsInt32());
}

TEST_F(ExecFixture, JoinResidualPredicateApplies) {
  Table* a = MakeTable("a", 10, 2);
  Table* b = MakeTable("b", 10, 2);
  auto sa = std::make_unique<IndexScanExecutor>(&ctx, a);
  auto sb = std::make_unique<IndexScanExecutor>(&ctx, b);
  std::vector<ExprPtr> lk, rk;
  lk.push_back(Col(1, TypeId::kInt32));
  rk.push_back(Col(1, TypeId::kInt32));
  // Residual: a.k < b.k (columns 0 and 3 of the joined row).
  HashJoinExecutor join(&ctx, std::move(sa), std::move(sb), std::move(lk),
                        std::move(rk),
                        Cmp(CompareOp::kLt, Col(0, TypeId::kInt32),
                            Col(3, TypeId::kInt32)));
  auto rows = DrainBatches(&join);
  ASSERT_TRUE(rows.ok());
  for (const Row& r : rows.value()) {
    EXPECT_LT(r[0].AsInt32(), r[3].AsInt32());
  }
  // 5 per group; pairs with a.k < b.k within a group: 5*4/2 = 10 per group.
  EXPECT_EQ(rows.value().size(), 20u);
}

}  // namespace
}  // namespace elephant
