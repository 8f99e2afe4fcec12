#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/batch.h"
#include "exec/batch_executors.h"
#include "exec/scan_executor.h"

namespace elephant {
namespace {

/// Unit coverage of the batch operators: container semantics, and each
/// operator against a row-at-a-time reference computed in the test itself
/// (the rows the test loaded, Expr::Eval, and a Value fold of the
/// aggregates written here), compared exactly row for row.
struct BatchExecFixture : public ::testing::Test {
  DiskManager disk;
  BufferPool pool{&disk, 4096};
  Catalog catalog{&pool};
  ExecContext ctx{&pool};
  std::map<const Table*, std::vector<Row>> loaded_;

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
    Load(t.value(), std::move(rows));
    return t.value();
  }

  Result<std::vector<Row>> DrainBatch(BatchExecutorPtr bexec) {
    return DrainBatches(bexec.get());
  }

  /// Loads `rows` into `t`, a table clustered on its column 0, and keeps
  /// them, sorted on that column here (ties in load order), as RowScan's
  /// reference.
  void Load(Table* t, std::vector<Row> rows) {
    std::vector<Row> sorted = rows;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const Row& a, const Row& b) { return a[0] < b[0]; });
    loaded_[t] = std::move(sorted);
    EXPECT_TRUE(t->BulkLoadRows(std::move(rows)).ok());
  }

  /// Row reference for a clustered scan: the rows the test loaded into `t`,
  /// in clustering-key order.
  std::vector<Row> RowScan(const Table* t) const { return loaded_.at(t); }

  /// Row reference for a filter: Expr::Eval, one row at a time, keeping
  /// the rows where the predicate is non-NULL true.
  static std::vector<Row> RowFilter(std::vector<Row> rows, const Expr& pred) {
    std::vector<Row> out;
    for (Row& row : rows) {
      auto pass = pred.Eval(row);
      EXPECT_TRUE(pass.ok()) << pass.status().ToString();
      if (pass.ok() && !pass.value().is_null() && pass.value().AsBool()) {
        out.push_back(std::move(row));
      }
    }
    return out;
  }

  /// Row reference for one aggregate: a fold over Values, written here
  /// from the SQL rules rather than taken from the engine.
  struct RefAgg {
    AggFunc fn;
    int64_t count = 0;
    Value acc;
    bool has = false;

    void Accumulate(const Value& v) {
      if (fn == AggFunc::kCountStar) {
        count++;
        return;
      }
      if (v.is_null()) return;
      count++;
      if (fn == AggFunc::kCount) return;
      if (fn == AggFunc::kSum || fn == AggFunc::kAvg) {
        const Value w = v.type() == TypeId::kInt32 ? Value::Int64(v.AsInt64()) : v;
        acc = has ? acc.Add(w).value() : w;
      } else if (!has || v.Compare(acc) == (fn == AggFunc::kMin ? -1 : 1)) {
        acc = v;
      }
      has = true;
    }
    Value Finalize() const {
      switch (fn) {
        case AggFunc::kCountStar:
        case AggFunc::kCount:
          return Value::Int64(count);
        case AggFunc::kAvg:
          if (count == 0) return Value::Null(TypeId::kDouble);
          return Value::Double(acc.AsDouble() / static_cast<double>(count));
        default:
          return has ? acc : Value();
      }
    }
  };

  /// Row reference for a hash aggregate: Expr::Eval per row, groups in
  /// encoded-key order, folded through RefAgg.
  static std::vector<Row> RowAggregate(const std::vector<Row>& rows,
                                       const std::vector<ExprPtr>& groups,
                                       const std::vector<AggSpec>& aggs) {
    std::map<std::string, std::pair<Row, std::vector<RefAgg>>> table;
    for (const Row& row : rows) {
      std::string key;
      Row values;
      for (const ExprPtr& g : groups) {
        Value v = g->Eval(row).value();
        keycodec::Encode(v, &key);
        values.push_back(std::move(v));
      }
      auto it = table.find(key);
      if (it == table.end()) {
        std::vector<RefAgg> states;
        for (const AggSpec& a : aggs) states.push_back(RefAgg{a.fn, 0, Value(), false});
        it = table.emplace(key, std::make_pair(values, states)).first;
      }
      for (size_t i = 0; i < aggs.size(); i++) {
        const Value v = aggs[i].fn == AggFunc::kCountStar
                            ? Value()
                            : aggs[i].arg->Eval(row).value();
        it->second.second[i].Accumulate(v);
      }
    }
    std::vector<Row> out;
    for (const auto& [key, group] : table) {
      Row row = group.first;
      for (const RefAgg& s : group.second) row.push_back(s.Finalize());
      out.push_back(std::move(row));
    }
    return out;
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
  const Schema two({Column("a", TypeId::kInt32), Column("b", TypeId::kInt32)});
  Batch b;
  b.Reset(two);
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
  EXPECT_EQ(b.col(0).Int(b.ActiveIndex(1)), 4);
  EXPECT_EQ(b.col(1).Int(b.ActiveIndex(1)), 40);
  std::vector<Row> live;
  EXPECT_EQ(b.AppendActiveRowsTo(&live), 4u);  // 2 live rows x 2 columns
  ASSERT_EQ(live.size(), 2u);
  EXPECT_EQ(live[1][0].type(), TypeId::kInt32);
  EXPECT_EQ(live[1][1].AsInt32(), 40);

  b.SetSelection({});
  EXPECT_TRUE(b.empty());  // all rows deselected
  b.Reset(two);
  EXPECT_FALSE(b.selection_active());  // Reset clears the selection
}

TEST_F(BatchExecFixture, BatchFullAtCapacity) {
  Batch b;
  b.Reset(Schema({Column("a", TypeId::kInt32)}));
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
  auto batch_rows = DrainBatch(std::make_unique<IndexScanExecutor>(&ctx, t));
  ASSERT_TRUE(batch_rows.ok());
  ExpectRowsEqual(RowScan(t), batch_rows.value());
  ASSERT_EQ(batch_rows.value().size(), 2500u);
}

TEST_F(BatchExecFixture, BatchScanEmitsFullBatches) {
  Table* t = MakeTable("t", 2500, 7);
  IndexScanExecutor scan(&ctx, t);
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
  auto batch_rows = DrainBatch(
      std::make_unique<IndexScanExecutor>(&ctx, t, nullptr, range));
  ASSERT_TRUE(batch_rows.ok());
  std::vector<Row> want;
  for (const Row& r : RowScan(t)) {
    if (r[0].AsInt32() >= 10 && r[0].AsInt32() <= 19) want.push_back(r);
  }
  ExpectRowsEqual(want, batch_rows.value());
  ASSERT_EQ(batch_rows.value().size(), 10u);
}

TEST_F(BatchExecFixture, BatchScanEmptyTable) {
  Table* t = MakeTable("t", 0, 1);
  auto batch_rows = DrainBatch(std::make_unique<IndexScanExecutor>(&ctx, t));
  ASSERT_TRUE(batch_rows.ok());
  EXPECT_TRUE(batch_rows.value().empty());
}

TEST_F(BatchExecFixture, BatchSecondaryIndexScanMatchesRowScan) {
  Table* t = MakeTable("t", 2500, 5);
  ASSERT_TRUE(t->CreateSecondaryIndex("idx", {1}, {2}).ok());
  SecondaryIndex* idx = t->FindIndex("idx");
  KeyRange range =
      MakeKeyRange({Value::Int32(3)}, std::nullopt, true, std::nullopt, true);
  // Index order is (grp, clustering key): grp = 3 rows in k order, as
  // (grp, amount).
  std::vector<Row> want;
  for (const Row& r : RowScan(t)) {
    if (r[1].AsInt32() == 3) want.push_back({r[1], r[2]});
  }
  auto batch_rows =
      DrainBatch(std::make_unique<IndexScanExecutor>(&ctx, t, idx, range));
  ASSERT_TRUE(batch_rows.ok());
  ExpectRowsEqual(want, batch_rows.value());
  ASSERT_EQ(batch_rows.value().size(), 500u);
}

TEST_F(BatchExecFixture, RowsScannedMatchesRowEngine) {
  // One rows_scanned tick per row pulled from storage, as a row-at-a-time
  // scan would count, regardless of how rows are batched.
  Table* t = MakeTable("t", 2500, 7);
  IndexScanExecutor scan(&ctx, t);
  ASSERT_TRUE(DrainBatches(&scan).ok());
  EXPECT_EQ(ctx.counters().rows_scanned, 2500u);
}

// ---------- Filter ----------

TEST_F(BatchExecFixture, BatchFilterMatchesRowFilter) {
  Table* t = MakeTable("t", 2500, 7);
  auto pred = [] {
    return And(
        Cmp(CompareOp::kGe, Col(1, TypeId::kInt32), Lit(Value::Int32(3))),
        Cmp(CompareOp::kLt, Col(0, TypeId::kInt32), Lit(Value::Int32(2000))));
  };
  auto batch_rows = DrainBatch(std::make_unique<BatchFilterExecutor>(
      std::make_unique<IndexScanExecutor>(&ctx, t), pred()));
  ASSERT_TRUE(batch_rows.ok());
  ExpectRowsEqual(RowFilter(RowScan(t), *pred()), batch_rows.value());
}

TEST_F(BatchExecFixture, BatchFilterSkipsFullyFilteredBatches) {
  // Predicate selects only k = 2400: the first two 1024-row batches filter
  // to zero live rows and must be skipped, not surfaced as empty output.
  Table* t = MakeTable("t", 2500, 7);
  BatchFilterExecutor filter(
      std::make_unique<IndexScanExecutor>(&ctx, t),
      Cmp(CompareOp::kEq, Col(0, TypeId::kInt32), Lit(Value::Int32(2400))));
  ASSERT_TRUE(filter.Init().ok());
  Batch b;
  auto has = filter.NextBatch(&b);
  ASSERT_TRUE(has.ok());
  ASSERT_TRUE(has.value());
  ASSERT_EQ(b.ActiveCount(), 1u);
  EXPECT_EQ(b.col(0).Int(b.ActiveIndex(0)), 2400);
  has = filter.NextBatch(&b);
  ASSERT_TRUE(has.ok());
  EXPECT_FALSE(has.value());
}

TEST_F(BatchExecFixture, BatchFilterAllRowsFilteredOut) {
  Table* t = MakeTable("t", 2500, 7);
  auto batch_rows = DrainBatch(std::make_unique<BatchFilterExecutor>(
      std::make_unique<IndexScanExecutor>(&ctx, t),
      Cmp(CompareOp::kLt, Col(0, TypeId::kInt32), Lit(Value::Int32(0)))));
  ASSERT_TRUE(batch_rows.ok());
  EXPECT_TRUE(batch_rows.value().empty());
}

TEST_F(BatchExecFixture, BatchFilterShortCircuitSkipsErrorPositions) {
  // grp <> 0 AND 10 / grp > 1: per-row evaluation short-circuits the division
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
  const std::vector<Row> rows = RowFilter(RowScan(t), *pred());
  ASSERT_FALSE(rows.empty());
  auto batch_rows = DrainBatch(std::make_unique<BatchFilterExecutor>(
      std::make_unique<IndexScanExecutor>(&ctx, t), pred()));
  ASSERT_TRUE(batch_rows.ok()) << batch_rows.status().ToString();
  ExpectRowsEqual(rows, batch_rows.value());
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
  std::vector<Row> rows;
  for (const Row& r : RowFilter(RowScan(t), *make_pred())) {
    Row out;
    for (const ExprPtr& e : make_exprs()) out.push_back(e->Eval(r).value());
    rows.push_back(std::move(out));
  }
  auto batch_rows = DrainBatch(std::make_unique<BatchProjectExecutor>(
      std::make_unique<BatchFilterExecutor>(
          std::make_unique<IndexScanExecutor>(&ctx, t), make_pred()),
      make_exprs(), std::vector<std::string>{"kk", "amount"}));
  ASSERT_TRUE(batch_rows.ok());
  ExpectRowsEqual(rows, batch_rows.value());
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
  auto batch_rows = DrainBatch(std::make_unique<BatchHashAggregateExecutor>(
      &ctx, std::make_unique<IndexScanExecutor>(&ctx, t), groups(), aggs()));
  ASSERT_TRUE(batch_rows.ok());
  ExpectRowsEqual(RowAggregate(RowScan(t), groups(), aggs()),
                  batch_rows.value());
  ASSERT_EQ(batch_rows.value().size(), 7u);
}

TEST_F(BatchExecFixture, BatchScalarAggregateOverEmptyInputEmitsOneRow) {
  Table* t = MakeTable("t", 0, 1);
  std::vector<AggSpec> aggs;
  aggs.emplace_back(AggFunc::kCountStar, nullptr, "n");
  aggs.emplace_back(AggFunc::kSum, Col(0, TypeId::kInt32), "s");
  auto batch_rows = DrainBatch(std::make_unique<BatchHashAggregateExecutor>(
      &ctx, std::make_unique<IndexScanExecutor>(&ctx, t),
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
  Table* t = ct.value();
  Load(t, std::move(load));
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
  auto batch_rows = DrainBatch(std::make_unique<BatchStreamAggregateExecutor>(
      std::make_unique<IndexScanExecutor>(&ctx, t), groups(), aggs()));
  ASSERT_TRUE(batch_rows.ok());
  ExpectRowsEqual(RowAggregate(RowScan(t), groups(), aggs()),
                  batch_rows.value());
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
  Schema out_schema = MakeAggOutputSchema(groups(), aggs());

  // The serial plan the parallel split must reproduce: one hash aggregate
  // over the whole scan.
  auto rows = DrainBatch(std::make_unique<BatchHashAggregateExecutor>(
      &ctx, std::make_unique<IndexScanExecutor>(&ctx, t), groups(), aggs()));
  ASSERT_TRUE(rows.ok());
  ExpectRowsEqual(RowAggregate(RowScan(t), groups(), aggs()), rows.value());

  auto batch_rows = DrainBatch(std::make_unique<BatchFinalAggregateExecutor>(
      &ctx,
      std::make_unique<BatchHashAggregateExecutor>(
          &ctx, std::make_unique<IndexScanExecutor>(&ctx, t), groups(), aggs(),
          /*partial=*/true),
      1, aggs(), out_schema));
  ASSERT_TRUE(batch_rows.ok());
  ExpectRowsEqual(rows.value(), batch_rows.value());
  ASSERT_EQ(batch_rows.value().size(), 7u);
}

TEST_F(BatchExecFixture, AggregateSumOverflowSurfacesAsError) {
  // SUM's accumulator arithmetic is range-checked like Value::Add, so an
  // overflowing sum is an InvalidArgument — never a silently wrapped answer.
  const int64_t kBig = std::numeric_limits<int64_t>::max() - 10;
  ColumnVector big(TypeId::kInt64);
  big.AppendInt(kBig);
  big.AppendInt(100);
  AggStates sum(AggSpec(AggFunc::kSum, Col(0, TypeId::kInt64)));
  sum.AddGroup();
  Status overflowed = sum.Fold(&big, {0, 1}, {0, 0});
  ASSERT_FALSE(overflowed.ok());
  EXPECT_EQ(overflowed.code(), StatusCode::kInvalidArgument);

  // INT32 inputs widen into the INT64 domain first, so a sum of many
  // INT32_MAX values is fine.
  ColumnVector maxes(TypeId::kInt32);
  std::vector<uint32_t> rows, zeros(1000, 0);
  for (uint32_t i = 0; i < 1000; i++) {
    maxes.AppendInt(std::numeric_limits<int32_t>::max());
    rows.push_back(i);
  }
  AggStates widened(AggSpec(AggFunc::kAvg, Col(0, TypeId::kInt32)));
  widened.AddGroup();
  ASSERT_TRUE(widened.Fold(&maxes, rows, zeros).ok());
  ColumnVector avg(TypeId::kDouble);
  widened.AppendFinal(0, &avg);
  EXPECT_DOUBLE_EQ(avg.Double(0),
                   static_cast<double>(std::numeric_limits<int32_t>::max()));

  // Merge (the parallel final-aggregate path) is checked the same way.
  const AggSpec spec(AggFunc::kSum, Col(0, TypeId::kInt64));
  AggStates partial_a(spec), partial_b(spec);
  partial_a.AddGroup();
  partial_b.AddGroup();
  ASSERT_TRUE(partial_a.Fold(&big, {0}, {0}).ok());
  ASSERT_TRUE(partial_b.Fold(&big, {0}, {0}).ok());
  Batch transfer;
  transfer.Reset(Schema({Column("s", TypeId::kInt64)}));
  partial_b.AppendPartial(0, &transfer, 0);
  Status merged =
      partial_a.Merge(transfer.col(0), transfer.col(0), {0}, {0});
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace elephant
