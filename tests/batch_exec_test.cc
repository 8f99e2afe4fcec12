#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "exec/agg_executor.h"
#include "exec/batch.h"
#include "exec/batch_executors.h"
#include "exec/scan_executor.h"
#include "exec/simple_executors.h"

namespace elephant {
namespace {

/// Unit coverage of the vectorized batch engine: container semantics, each
/// batch operator against its row-engine twin, and the two adapters. Every
/// identity test runs the same input through both engines and compares the
/// materialized rows exactly.
struct BatchExecFixture : public ::testing::Test {
  DiskManager disk;
  BufferPool pool{&disk, 4096};
  Catalog catalog{&pool};
  ExecContext ctx{&pool};

  /// t(k INT32 cluster, grp INT32, amount DECIMAL): k = i, grp = i % groups,
  /// amount = i cents.
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

  /// Drains a batch executor through a RowFromBatchAdapter.
  Result<std::vector<Row>> DrainBatch(BatchExecutorPtr bexec) {
    RowFromBatchAdapter adapter(std::move(bexec));
    return ExecuteToVector(&adapter);
  }

  static void ExpectRowsEqual(const std::vector<Row>& a,
                              const std::vector<Row>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); i++) {
      ASSERT_EQ(a[i].size(), b[i].size()) << "row " << i;
      for (size_t j = 0; j < a[i].size(); j++) {
        EXPECT_TRUE(a[i][j] == b[i][j])
            << "row " << i << " col " << j << ": " << a[i][j].ToString()
            << " vs " << b[i][j].ToString();
      }
    }
  }
};

// ---------- Batch container ----------

TEST_F(BatchExecFixture, BatchAppendSelectGather) {
  Batch b;
  b.Reset(2);
  EXPECT_EQ(b.num_cols(), 2u);
  EXPECT_EQ(b.num_rows(), 0u);
  EXPECT_TRUE(b.empty());
  for (int i = 0; i < 5; i++) {
    b.AppendRow({Value::Int32(i), Value::Int32(i * 10)});
  }
  EXPECT_EQ(b.num_rows(), 5u);
  EXPECT_EQ(b.ActiveCount(), 5u);
  EXPECT_FALSE(b.selection_active());
  EXPECT_EQ(b.ActiveIndices().size(), 5u);
  EXPECT_EQ(b.ActiveIndex(3), 3u);

  b.SetSelection({1, 4});
  EXPECT_TRUE(b.selection_active());
  EXPECT_EQ(b.ActiveCount(), 2u);
  EXPECT_EQ(b.num_rows(), 5u);  // physical rows unchanged
  EXPECT_EQ(b.ActiveIndex(0), 1u);
  EXPECT_EQ(b.ActiveIndex(1), 4u);
  Row r;
  b.GatherRow(b.ActiveIndex(1), &r);
  EXPECT_EQ(r[0].AsInt32(), 4);
  EXPECT_EQ(r[1].AsInt32(), 40);

  b.SetSelection({});
  EXPECT_TRUE(b.empty());  // all rows deselected
  b.Reset(2);
  EXPECT_FALSE(b.selection_active());  // Reset clears the selection
}

TEST_F(BatchExecFixture, BatchFullAtCapacity) {
  Batch b;
  b.Reset(1);
  for (uint32_t i = 0; i < kBatchCapacity; i++) {
    EXPECT_FALSE(b.full());
    b.AppendRow({Value::Int32(static_cast<int32_t>(i))});
  }
  EXPECT_TRUE(b.full());
  EXPECT_EQ(b.num_rows(), kBatchCapacity);
}

// ---------- Scans ----------

TEST_F(BatchExecFixture, BatchScanMatchesRowScanAcrossBatchBoundary) {
  // 2500 rows -> batches of 1024, 1024, 452.
  Table* t = MakeTable("t", 2500, 7);
  ClusteredScanExecutor row_scan(&ctx, t);
  auto rows = ExecuteToVector(&row_scan);
  ASSERT_TRUE(rows.ok());
  auto batch_rows =
      DrainBatch(std::make_unique<BatchClusteredScanExecutor>(&ctx, t));
  ASSERT_TRUE(batch_rows.ok());
  ExpectRowsEqual(rows.value(), batch_rows.value());
  ASSERT_EQ(batch_rows.value().size(), 2500u);
}

TEST_F(BatchExecFixture, BatchScanEmitsFullBatches) {
  Table* t = MakeTable("t", 2500, 7);
  BatchClusteredScanExecutor scan(&ctx, t);
  ASSERT_TRUE(scan.Init().ok());
  Batch b;
  std::vector<uint32_t> sizes;
  while (true) {
    auto has = scan.NextBatch(&b);
    ASSERT_TRUE(has.ok());
    if (!has.value()) break;
    sizes.push_back(b.num_rows());
  }
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[0], kBatchCapacity);
  EXPECT_EQ(sizes[1], kBatchCapacity);
  EXPECT_EQ(sizes[2], 2500u - 2 * kBatchCapacity);
}

TEST_F(BatchExecFixture, BatchScanRangeMatchesRowScan) {
  Table* t = MakeTable("t", 300, 5);
  KeyRange range =
      MakeKeyRange({}, Value::Int32(10), true, Value::Int32(19), true);
  ClusteredScanExecutor row_scan(&ctx, t, range);
  auto rows = ExecuteToVector(&row_scan);
  ASSERT_TRUE(rows.ok());
  auto batch_rows =
      DrainBatch(std::make_unique<BatchClusteredScanExecutor>(&ctx, t, range));
  ASSERT_TRUE(batch_rows.ok());
  ExpectRowsEqual(rows.value(), batch_rows.value());
  ASSERT_EQ(batch_rows.value().size(), 10u);
}

TEST_F(BatchExecFixture, BatchScanEmptyTable) {
  Table* t = MakeTable("t", 0, 1);
  auto batch_rows =
      DrainBatch(std::make_unique<BatchClusteredScanExecutor>(&ctx, t));
  ASSERT_TRUE(batch_rows.ok());
  EXPECT_TRUE(batch_rows.value().empty());
}

TEST_F(BatchExecFixture, BatchSecondaryIndexScanMatchesRowScan) {
  Table* t = MakeTable("t", 2500, 5);
  ASSERT_TRUE(t->CreateSecondaryIndex("idx", {1}, {2}).ok());
  SecondaryIndex* idx = t->FindIndex("idx");
  KeyRange range =
      MakeKeyRange({Value::Int32(3)}, std::nullopt, true, std::nullopt, true);
  SecondaryIndexScanExecutor row_scan(&ctx, t, idx, range);
  auto rows = ExecuteToVector(&row_scan);
  ASSERT_TRUE(rows.ok());
  auto batch_rows = DrainBatch(
      std::make_unique<BatchSecondaryIndexScanExecutor>(&ctx, t, idx, range));
  ASSERT_TRUE(batch_rows.ok());
  ExpectRowsEqual(rows.value(), batch_rows.value());
  ASSERT_EQ(batch_rows.value().size(), 500u);
}

TEST_F(BatchExecFixture, RowsScannedMatchesRowEngine) {
  Table* t = MakeTable("t", 2500, 7);
  ExecContext row_ctx{&pool};
  ClusteredScanExecutor row_scan(&row_ctx, t);
  ASSERT_TRUE(ExecuteToVector(&row_scan).ok());
  ExecContext batch_ctx{&pool};
  RowFromBatchAdapter adapter(
      std::make_unique<BatchClusteredScanExecutor>(&batch_ctx, t));
  ASSERT_TRUE(ExecuteToVector(&adapter).ok());
  EXPECT_EQ(row_ctx.counters().rows_scanned, 2500u);
  EXPECT_EQ(batch_ctx.counters().rows_scanned, 2500u);
}

// ---------- Filter ----------

TEST_F(BatchExecFixture, BatchFilterMatchesRowFilter) {
  Table* t = MakeTable("t", 2500, 7);
  auto pred = [] {
    return And(
        Cmp(CompareOp::kGe, Col(1, TypeId::kInt32), Lit(Value::Int32(3))),
        Cmp(CompareOp::kLt, Col(0, TypeId::kInt32), Lit(Value::Int32(2000))));
  };
  FilterExecutor row_filter(
      std::make_unique<ClusteredScanExecutor>(&ctx, t), pred());
  auto rows = ExecuteToVector(&row_filter);
  ASSERT_TRUE(rows.ok());
  auto batch_rows = DrainBatch(std::make_unique<BatchFilterExecutor>(
      std::make_unique<BatchClusteredScanExecutor>(&ctx, t), pred()));
  ASSERT_TRUE(batch_rows.ok());
  ExpectRowsEqual(rows.value(), batch_rows.value());
}

TEST_F(BatchExecFixture, BatchFilterSkipsFullyFilteredBatches) {
  // Predicate selects only k = 2400: the first two 1024-row batches filter
  // to zero live rows and must be skipped, not surfaced as empty output.
  Table* t = MakeTable("t", 2500, 7);
  BatchFilterExecutor filter(
      std::make_unique<BatchClusteredScanExecutor>(&ctx, t),
      Cmp(CompareOp::kEq, Col(0, TypeId::kInt32), Lit(Value::Int32(2400))));
  ASSERT_TRUE(filter.Init().ok());
  Batch b;
  auto has = filter.NextBatch(&b);
  ASSERT_TRUE(has.ok());
  ASSERT_TRUE(has.value());
  ASSERT_EQ(b.ActiveCount(), 1u);
  Row r;
  b.GatherRow(b.ActiveIndex(0), &r);
  EXPECT_EQ(r[0].AsInt32(), 2400);
  has = filter.NextBatch(&b);
  ASSERT_TRUE(has.ok());
  EXPECT_FALSE(has.value());
}

TEST_F(BatchExecFixture, BatchFilterAllRowsFilteredOut) {
  Table* t = MakeTable("t", 2500, 7);
  auto batch_rows = DrainBatch(std::make_unique<BatchFilterExecutor>(
      std::make_unique<BatchClusteredScanExecutor>(&ctx, t),
      Cmp(CompareOp::kLt, Col(0, TypeId::kInt32), Lit(Value::Int32(0)))));
  ASSERT_TRUE(batch_rows.ok());
  EXPECT_TRUE(batch_rows.value().empty());
}

TEST_F(BatchExecFixture, BatchFilterShortCircuitSkipsErrorPositions) {
  // grp <> 0 AND 10 / grp > 1: the row engine short-circuits the division
  // at grp = 0; the vectorized evaluator must do the same positionally
  // instead of dividing the whole vector. 100 rows, groups of 7 -> rows
  // with grp = 0 exist.
  Table* t = MakeTable("t", 100, 7);
  auto pred = [] {
    return And(Cmp(CompareOp::kNe, Col(1, TypeId::kInt32), Lit(Value::Int32(0))),
               Cmp(CompareOp::kGt,
                   Arith(ArithOp::kDiv, Lit(Value::Int32(10)),
                         Col(1, TypeId::kInt32)),
                   Lit(Value::Double(1.0))));
  };
  FilterExecutor row_filter(
      std::make_unique<ClusteredScanExecutor>(&ctx, t), pred());
  auto rows = ExecuteToVector(&row_filter);
  ASSERT_TRUE(rows.ok());
  ASSERT_FALSE(rows.value().empty());
  auto batch_rows = DrainBatch(std::make_unique<BatchFilterExecutor>(
      std::make_unique<BatchClusteredScanExecutor>(&ctx, t), pred()));
  ASSERT_TRUE(batch_rows.ok()) << batch_rows.status().ToString();
  ExpectRowsEqual(rows.value(), batch_rows.value());
}

// ---------- Project ----------

TEST_F(BatchExecFixture, BatchProjectCompactsSelection) {
  Table* t = MakeTable("t", 2500, 7);
  auto make_exprs = [] {
    std::vector<ExprPtr> exprs;
    exprs.push_back(Arith(ArithOp::kAdd, Col(0, TypeId::kInt32),
                          Lit(Value::Int32(1000))));
    exprs.push_back(Col(2, TypeId::kDecimal));
    return exprs;
  };
  auto make_pred = [] {
    return Cmp(CompareOp::kGe, Col(0, TypeId::kInt32), Lit(Value::Int32(2490)));
  };
  ProjectExecutor row_proj(
      std::make_unique<FilterExecutor>(
          std::make_unique<ClusteredScanExecutor>(&ctx, t), make_pred()),
      make_exprs(), {"kk", "amount"});
  auto rows = ExecuteToVector(&row_proj);
  ASSERT_TRUE(rows.ok());
  auto batch_rows = DrainBatch(std::make_unique<BatchProjectExecutor>(
      std::make_unique<BatchFilterExecutor>(
          std::make_unique<BatchClusteredScanExecutor>(&ctx, t), make_pred()),
      make_exprs(), std::vector<std::string>{"kk", "amount"}));
  ASSERT_TRUE(batch_rows.ok());
  ExpectRowsEqual(rows.value(), batch_rows.value());
  ASSERT_EQ(batch_rows.value().size(), 10u);
  EXPECT_EQ(batch_rows.value().front()[0].AsInt32(), 3490);
}

// ---------- Aggregation ----------

TEST_F(BatchExecFixture, BatchHashAggregateMatchesRowTwin) {
  Table* t = MakeTable("t", 2500, 7);
  auto groups = [] {
    std::vector<ExprPtr> g;
    g.push_back(Col(1, TypeId::kInt32, "grp"));
    return g;
  };
  auto aggs = [] {
    std::vector<AggSpec> a;
    a.emplace_back(AggFunc::kCountStar, nullptr, "n");
    a.emplace_back(AggFunc::kSum, Col(2, TypeId::kDecimal), "total");
    a.emplace_back(AggFunc::kAvg, Col(0, TypeId::kInt32), "avg_k");
    a.emplace_back(AggFunc::kMin, Col(0, TypeId::kInt32), "min_k");
    a.emplace_back(AggFunc::kMax, Col(0, TypeId::kInt32), "max_k");
    return a;
  };
  HashAggregateExecutor row_agg(&ctx,
                                std::make_unique<ClusteredScanExecutor>(&ctx, t),
                                groups(), aggs());
  auto rows = ExecuteToVector(&row_agg);
  ASSERT_TRUE(rows.ok());
  auto batch_rows = DrainBatch(std::make_unique<BatchHashAggregateExecutor>(
      &ctx, std::make_unique<BatchClusteredScanExecutor>(&ctx, t), groups(),
      aggs()));
  ASSERT_TRUE(batch_rows.ok());
  ExpectRowsEqual(rows.value(), batch_rows.value());
  ASSERT_EQ(batch_rows.value().size(), 7u);
}

TEST_F(BatchExecFixture, BatchScalarAggregateOverEmptyInputEmitsOneRow) {
  Table* t = MakeTable("t", 0, 1);
  std::vector<AggSpec> aggs;
  aggs.emplace_back(AggFunc::kCountStar, nullptr, "n");
  aggs.emplace_back(AggFunc::kSum, Col(0, TypeId::kInt32), "s");
  auto batch_rows = DrainBatch(std::make_unique<BatchHashAggregateExecutor>(
      &ctx, std::make_unique<BatchClusteredScanExecutor>(&ctx, t),
      std::vector<ExprPtr>{}, std::move(aggs)));
  ASSERT_TRUE(batch_rows.ok());
  ASSERT_EQ(batch_rows.value().size(), 1u);
  EXPECT_EQ(batch_rows.value()[0][0].AsInt64(), 0);
  EXPECT_TRUE(batch_rows.value()[0][1].is_null());
}

TEST_F(BatchExecFixture, BatchStreamAggregateGroupSplitAcrossBatchBoundary) {
  // Clustered on k with bucket = k / 500 precomputed: each group spans 500
  // consecutive rows, so the group holding k = 1024 straddles the 1024-row
  // batch boundary and its state must carry across NextBatch calls.
  Schema s({Column("k", TypeId::kInt32), Column("bucket", TypeId::kInt32),
            Column("amount", TypeId::kDecimal)});
  auto ct = catalog.CreateTable("buckets", s, {0});
  ASSERT_TRUE(ct.ok());
  std::vector<Row> load;
  for (int i = 0; i < 2500; i++) {
    load.push_back(
        {Value::Int32(i), Value::Int32(i / 500), Value::Decimal(i)});
  }
  ASSERT_TRUE(ct.value()->BulkLoadRows(std::move(load)).ok());
  Table* t = ct.value();
  auto groups = [] {
    std::vector<ExprPtr> g;
    g.push_back(Col(1, TypeId::kInt32, "bucket"));
    return g;
  };
  auto aggs = [] {
    std::vector<AggSpec> a;
    a.emplace_back(AggFunc::kCountStar, nullptr, "n");
    a.emplace_back(AggFunc::kSum, Col(0, TypeId::kInt32), "s");
    return a;
  };
  StreamAggregateExecutor row_agg(
      &ctx, std::make_unique<ClusteredScanExecutor>(&ctx, t), groups(), aggs());
  auto rows = ExecuteToVector(&row_agg);
  ASSERT_TRUE(rows.ok());
  auto batch_rows = DrainBatch(std::make_unique<BatchStreamAggregateExecutor>(
      &ctx, std::make_unique<BatchClusteredScanExecutor>(&ctx, t), groups(),
      aggs()));
  ASSERT_TRUE(batch_rows.ok());
  ExpectRowsEqual(rows.value(), batch_rows.value());
  ASSERT_EQ(batch_rows.value().size(), 5u);
  for (const Row& r : batch_rows.value()) {
    EXPECT_EQ(r[1].AsInt64(), 500);  // every group has exactly 500 rows
  }
}

TEST_F(BatchExecFixture, BatchPartialFinalAggregateMatchesRowPipeline) {
  Table* t = MakeTable("t", 2500, 7);
  auto groups = [] {
    std::vector<ExprPtr> g;
    g.push_back(Col(1, TypeId::kInt32, "grp"));
    return g;
  };
  auto aggs = [] {
    std::vector<AggSpec> a;
    a.emplace_back(AggFunc::kAvg, Col(2, TypeId::kDecimal), "avg_amount");
    a.emplace_back(AggFunc::kCount, Col(0, TypeId::kInt32), "n");
    return a;
  };
  Schema out_schema = MakeAggOutputSchema(t->schema(), groups(), aggs());

  // The row pipeline is the serial plan the parallel split must reproduce:
  // one HashAggregate over the whole scan.
  HashAggregateExecutor row_agg(
      &ctx, std::make_unique<ClusteredScanExecutor>(&ctx, t), groups(), aggs());
  auto rows = ExecuteToVector(&row_agg);
  ASSERT_TRUE(rows.ok());

  auto batch_rows = DrainBatch(std::make_unique<BatchFinalAggregateExecutor>(
      &ctx,
      std::make_unique<BatchPartialAggregateExecutor>(
          &ctx, std::make_unique<BatchClusteredScanExecutor>(&ctx, t), groups(),
          aggs()),
      1, aggs(), out_schema));
  ASSERT_TRUE(batch_rows.ok());
  ExpectRowsEqual(rows.value(), batch_rows.value());
  ASSERT_EQ(batch_rows.value().size(), 7u);
}

TEST_F(BatchExecFixture, AggregateSumOverflowSurfacesAsError) {
  // SUM's accumulator arithmetic goes through the shared range-checked
  // Value helpers, so an overflowing sum is an InvalidArgument in BOTH
  // engines — never a silently wrapped (identical-but-wrong) answer.
  const int64_t kBig = std::numeric_limits<int64_t>::max() - 10;
  AggState sum(AggFunc::kSum);
  ASSERT_TRUE(sum.Accumulate(Value::Int64(kBig)).ok());
  Status overflowed = sum.Accumulate(Value::Int64(100));
  ASSERT_FALSE(overflowed.ok());
  EXPECT_EQ(overflowed.code(), StatusCode::kInvalidArgument);

  // INT32 inputs widen into the INT64 domain first, so a sum of many
  // INT32_MAX values is fine.
  AggState widened(AggFunc::kAvg);
  for (int i = 0; i < 1000; i++) {
    ASSERT_TRUE(
        widened
            .Accumulate(Value::Int32(std::numeric_limits<int32_t>::max()))
            .ok());
  }
  EXPECT_DOUBLE_EQ(
      widened.Finalize().AsDouble(),
      static_cast<double>(std::numeric_limits<int32_t>::max()));

  // MergePartial (the parallel final-aggregate path) is checked the same way.
  AggState partial_a(AggFunc::kSum), partial_b(AggFunc::kSum);
  ASSERT_TRUE(partial_a.Accumulate(Value::Int64(kBig)).ok());
  ASSERT_TRUE(partial_b.Accumulate(Value::Int64(kBig)).ok());
  Row transfer;
  partial_b.AppendPartial(&transfer);
  Status merged = partial_a.MergePartial(transfer, 0);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.code(), StatusCode::kInvalidArgument);
}

// ---------- Adapters ----------

TEST_F(BatchExecFixture, AdapterRoundTripPreservesRows) {
  // row scan -> BatchFromRowAdapter -> RowFromBatchAdapter == row scan.
  Table* t = MakeTable("t", 2500, 7);
  ClusteredScanExecutor row_scan(&ctx, t);
  auto rows = ExecuteToVector(&row_scan);
  ASSERT_TRUE(rows.ok());
  auto round_trip = DrainBatch(std::make_unique<BatchFromRowAdapter>(
      std::make_unique<ClusteredScanExecutor>(&ctx, t)));
  ASSERT_TRUE(round_trip.ok());
  ExpectRowsEqual(rows.value(), round_trip.value());
}

TEST_F(BatchExecFixture, AdapterOverEmptyInput) {
  Table* t = MakeTable("t", 0, 1);
  auto round_trip = DrainBatch(std::make_unique<BatchFromRowAdapter>(
      std::make_unique<ClusteredScanExecutor>(&ctx, t)));
  ASSERT_TRUE(round_trip.ok());
  EXPECT_TRUE(round_trip.value().empty());
}

}  // namespace
}  // namespace elephant
