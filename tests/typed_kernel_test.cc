#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "engine/database.h"
#include "exec/batch_executors.h"
#include "exec/scan_executor.h"

namespace elephant {
namespace {

/// The typed batch kernels against scalar Expr::Eval, the Value semantics
/// they must reproduce bit for bit: every expression node over NULL-bearing
/// lanes of each type, DECIMAL against integer and DOUBLE literals, CHAR
/// padding, and the errors (overflow, division by zero) a row raises.

/// t(i INT32, l INT64, d DECIMAL, f DOUBLE, day DATE, c CHAR(4), s VARCHAR)
Schema AllTypes() {
  return Schema({Column("i", TypeId::kInt32), Column("l", TypeId::kInt64),
                 Column("d", TypeId::kDecimal), Column("f", TypeId::kDouble),
                 Column("day", TypeId::kDate), Column("c", TypeId::kChar, 4),
                 Column("s", TypeId::kVarchar)});
}

/// Rows with a NULL in every column now and then, duplicates, negatives
/// and CHAR padding; with `edges`, also values near the INT32/INT64 edges
/// and zeros, so arithmetic overflows and divides by zero.
std::vector<Row> AllTypeRows(int n, bool edges = true) {
  std::vector<Row> rows;
  for (int r = 0; r < n; r++) {
    auto maybe_null = [&](int col, Value v) {
      return (r + col) % 7 == 0 ? Value::Null(v.type()) : v;
    };
    const int32_t i = (edges && r % 3 == 0)
                          ? std::numeric_limits<int32_t>::max() - r
                          : (r % 11 - 5) | (edges ? 0 : 1);
    const int64_t l = (edges && r % 5 == 0)
                          ? std::numeric_limits<int64_t>::max() - r
                          : int64_t{r} * 1000 - 7001;
    rows.push_back({maybe_null(0, Value::Int32(i)),
                    maybe_null(1, Value::Int64(l)),
                    maybe_null(2, Value::Decimal(r % 9 * 50 - (edges ? 200 : 199))),
                    maybe_null(3, Value::Double(r % 13 * 0.25 - 1.0)),
                    maybe_null(4, Value::Date(19000 + r % 17)),
                    maybe_null(5, Value::Char(r % 2 ? "ab  " : "ab c")),
                    maybe_null(6, Value::Varchar(r % 3 ? "ab" : "abd"))});
  }
  return rows;
}

Batch MakeBatch(const Schema& schema, const std::vector<Row>& rows) {
  Batch b;
  b.Reset(schema);
  for (const Row& r : rows) b.AppendRow(r);
  return b;
}

/// Evaluates `e` through EvalBatch at every other row of `rows` and checks
/// each evaluated cell (or the error) against Eval on that row.
void ExpectKernelMatchesEval(const Expr& e, const std::vector<Row>& rows) {
  const Batch b = MakeBatch(AllTypes(), rows);
  std::vector<uint32_t> positions;
  for (uint32_t p = 0; p < rows.size(); p += 2) positions.push_back(p);
  ColumnVector scratch;
  Result<const ColumnVector*> got = e.EvalBatch(b, positions, &scratch);
  std::vector<Value> want;
  for (uint32_t p : positions) {
    Result<Value> v = e.Eval(rows[p]);
    if (!v.ok()) {
      // The first row that fails fails the batch, with the same error.
      ASSERT_FALSE(got.ok()) << e.ToString() << " fails at row " << p;
      EXPECT_EQ(got.status().ToString(), v.status().ToString()) << e.ToString();
      return;
    }
    want.push_back(std::move(v).value());
  }
  ASSERT_TRUE(got.ok()) << e.ToString() << ": " << got.status().ToString();
  for (size_t i = 0; i < positions.size(); i++) {
    const Value cell = (*got)->GetValue(positions[i]);
    ASSERT_EQ(cell.is_null(), want[i].is_null()) << e.ToString() << " #" << i;
    if (want[i].is_null()) continue;
    EXPECT_EQ(cell.type(), want[i].type()) << e.ToString();
    EXPECT_EQ(cell.Compare(want[i]), 0)
        << e.ToString() << " #" << i << ": " << cell.ToString() << " vs "
        << want[i].ToString();
    EXPECT_EQ(cell.ToString(), want[i].ToString()) << e.ToString();
  }
}

ExprPtr C(size_t i) {
  const Column c = AllTypes().ColumnAt(i);
  return Col(i, c.type, c.name, c.length);
}

TEST(TypedKernelTest, CompareKernelsMatchValueCompareOverNullLanes) {
  const std::vector<Row> rows = AllTypeRows(300);
  const CompareOp ops[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                           CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};
  // Column pairs of one domain, and every column against a literal.
  const std::vector<std::pair<size_t, size_t>> pairs = {
      {0, 1}, {0, 4}, {1, 1}, {2, 2}, {3, 3}, {5, 6}, {6, 5}};
  for (CompareOp op : ops) {
    for (const auto& [a, b] : pairs) {
      ExpectKernelMatchesEval(*Cmp(op, C(a), C(b)), rows);
    }
    ExpectKernelMatchesEval(*Cmp(op, C(0), Lit(Value::Int32(0))), rows);
    ExpectKernelMatchesEval(*Cmp(op, Lit(Value::Int64(3)), C(1)), rows);
    ExpectKernelMatchesEval(*Cmp(op, C(4), Lit(Value::Date(19008))), rows);
    ExpectKernelMatchesEval(*Cmp(op, C(6), Lit(Value::Char("ab   "))), rows);
    ExpectKernelMatchesEval(*Cmp(op, C(0), Lit(Value::Null(TypeId::kInt32))),
                            rows);
  }
}

TEST(TypedKernelTest, DecimalAgainstIntegerAndDoubleLiterals) {
  // Value::Compare takes DECIMAL against a non-DECIMAL number into the
  // double domain (1.50 vs 2 is 1.5 < 2.0), never the scaled payload.
  const std::vector<Row> rows = AllTypeRows(200);
  for (CompareOp op : {CompareOp::kEq, CompareOp::kLt, CompareOp::kGe}) {
    ExpectKernelMatchesEval(*Cmp(op, C(2), Lit(Value::Int32(-1))), rows);
    ExpectKernelMatchesEval(*Cmp(op, C(2), Lit(Value::Int64(1))), rows);
    ExpectKernelMatchesEval(*Cmp(op, Lit(Value::Int32(0)), C(2)), rows);
    ExpectKernelMatchesEval(*Cmp(op, C(2), Lit(Value::Double(0.5))), rows);
    ExpectKernelMatchesEval(*Cmp(op, C(2), Lit(Value::Decimal(150))), rows);
    ExpectKernelMatchesEval(*Cmp(op, C(2), C(0)), rows);
    ExpectKernelMatchesEval(*Cmp(op, C(3), C(2)), rows);
  }
  // The selection rule itself: 1.50 < 2 but 150 > 2.
  Batch b = MakeBatch(Schema({Column("d", TypeId::kDecimal)}),
                      {{Value::Decimal(150)}, {Value::Decimal(250)}});
  ASSERT_TRUE(ApplyFilterToBatch(
                  *Cmp(CompareOp::kLt, Col(0, TypeId::kDecimal),
                       Lit(Value::Int32(2))),
                  &b)
                  .ok());
  EXPECT_EQ(b.selection(), (std::vector<uint32_t>{0}));
}

TEST(TypedKernelTest, ArithmeticKernelsMatchValueArithmetic) {
  // Every expression twice: over rows where it yields values (compared
  // cell by cell) and over rows where some row overflows or divides by zero
  // (the batch fails with that row's error).
  for (const std::vector<Row>& rows : {AllTypeRows(300, false), AllTypeRows(300)}) {
  for (ArithOp op : {ArithOp::kAdd, ArithOp::kSub, ArithOp::kMul, ArithOp::kDiv}) {
    // INT32 + INT32 overflows at INT32_MAX rows; INT64 * INT64 overflows.
    ExpectKernelMatchesEval(*Arith(op, C(0), C(0)), rows);
    ExpectKernelMatchesEval(*Arith(op, C(0), Lit(Value::Int32(2))), rows);
    ExpectKernelMatchesEval(*Arith(op, C(1), C(0)), rows);
    ExpectKernelMatchesEval(*Arith(op, C(2), Lit(Value::Int32(3))), rows);
    ExpectKernelMatchesEval(*Arith(op, Lit(Value::Int32(1)), C(2)), rows);
    ExpectKernelMatchesEval(*Arith(op, C(2), C(2)), rows);
    ExpectKernelMatchesEval(*Arith(op, C(3), C(2)), rows);
    ExpectKernelMatchesEval(*Arith(op, C(3), Lit(Value::Int64(4))), rows);
    ExpectKernelMatchesEval(*Arith(op, C(1), Lit(Value::Null(TypeId::kInt64))),
                            rows);
  }
  // Dates: DATE +/- integer is a DATE, DATE - DATE a day count, anything
  // else an error raised exactly as Value raises it.
  ExpectKernelMatchesEval(*Arith(ArithOp::kAdd, C(4), Lit(Value::Int32(30))), rows);
  ExpectKernelMatchesEval(*Arith(ArithOp::kAdd, Lit(Value::Int64(1)), C(4)), rows);
  ExpectKernelMatchesEval(*Arith(ArithOp::kSub, C(4), C(4)), rows);
  ExpectKernelMatchesEval(*Arith(ArithOp::kSub, C(4), Lit(Value::Int32(7))), rows);
  ExpectKernelMatchesEval(*Arith(ArithOp::kSub, C(0), C(4)), rows);
  ExpectKernelMatchesEval(*Arith(ArithOp::kMul, C(4), C(0)), rows);
  ExpectKernelMatchesEval(*Arith(ArithOp::kAdd, C(5), C(0)), rows);
  ExpectKernelMatchesEval(*Arith(ArithOp::kDiv, C(0), Lit(Value::Int32(0))), rows);
  }
  // The static type says what the kernel's lane holds.
  EXPECT_EQ(Arith(ArithOp::kSub, C(4), C(4))->output_type(), TypeId::kInt32);
  EXPECT_EQ(Arith(ArithOp::kAdd, C(1), C(4))->output_type(), TypeId::kDate);
}

TEST(TypedKernelTest, LogicalAndNotKernelsMatchEval) {
  const std::vector<Row> rows = AllTypeRows(300);
  auto lt = [] { return Cmp(CompareOp::kLt, C(0), Lit(Value::Int32(0))); };
  auto eq = [] { return Cmp(CompareOp::kEq, C(5), C(6)); };
  ExpectKernelMatchesEval(*And(lt(), eq()), rows);
  ExpectKernelMatchesEval(*Or(lt(), eq()), rows);
  ExpectKernelMatchesEval(*std::make_unique<NotExpr>(lt()), rows);
  ExpectKernelMatchesEval(*std::make_unique<NotExpr>(C(0)), rows);
  ExpectKernelMatchesEval(*Or(std::make_unique<NotExpr>(eq()), And(lt(), lt())),
                          rows);
  // The right side runs only where the left leaves the answer open: the
  // division by zero below is never reached.
  ExpectKernelMatchesEval(
      *And(Cmp(CompareOp::kNe, C(0), C(0)),
           Cmp(CompareOp::kGt,
               Arith(ArithOp::kDiv, C(0), Lit(Value::Int32(0))),
               Lit(Value::Int32(1)))),
      rows);
}

TEST(TypedKernelTest, CharPaddingComparesAndKeysLikeComparePadded) {
  // CHAR cells keep their padding in the lane (and in the output), but
  // compare, group and join as ComparePadded does: "ab  " = "ab".
  const Schema schema({Column("c", TypeId::kChar, 4), Column("s", TypeId::kVarchar)});
  Batch b = MakeBatch(schema, {{Value::Char("ab  "), Value::Varchar("ab")},
                               {Value::Char("ab c"), Value::Varchar("ab")}});
  EXPECT_EQ(b.col(0).String(0), "ab  ");
  ASSERT_TRUE(ApplyFilterToBatch(*Cmp(CompareOp::kEq, Col(0, TypeId::kChar),
                                      Col(1, TypeId::kVarchar)),
                                 &b)
                  .ok());
  EXPECT_EQ(b.selection(), (std::vector<uint32_t>{0}));
  std::string k0, k1;
  EncodeCell(b.col(0), 0, &k0);
  EncodeCell(b.col(1), 0, &k1);
  EXPECT_EQ(k0, k1);
  std::vector<Row> out;
  b.AppendActiveRowsTo(&out);
  EXPECT_EQ(out[0][0].AsString(), "ab  ");
}

TEST(TypedKernelTest, SelectionFlowsThroughFilterProjectAggregate) {
  // 3,000 rows (three batches) through Filter -> Project -> HashAggregate:
  // the filter's selection vector feeds the projection's positions, and the
  // aggregate folds only projected rows; checked against a fold over Eval.
  const std::vector<Row> rows = AllTypeRows(3000);
  auto pred = [] {
    return Or(Cmp(CompareOp::kGe, C(2), Lit(Value::Int32(1))),
              Cmp(CompareOp::kEq, C(5), Lit(Value::Varchar("ab"))));
  };
  auto exprs = [] {
    std::vector<ExprPtr> e;
    e.push_back(C(5));
    e.push_back(Arith(ArithOp::kMul, C(2), Lit(Value::Int32(3))));
    e.push_back(C(3));
    return e;
  };
  std::vector<ExprPtr> groups;
  groups.push_back(Col(0, TypeId::kChar, "c", 4));
  std::vector<AggSpec> aggs;
  aggs.emplace_back(AggFunc::kCountStar, nullptr, "n");
  aggs.emplace_back(AggFunc::kSum, Col(1, TypeId::kDecimal), "sum_d");
  aggs.emplace_back(AggFunc::kAvg, Col(2, TypeId::kDouble), "avg_f");
  aggs.emplace_back(AggFunc::kMin, Col(1, TypeId::kDecimal), "min_d");
  aggs.emplace_back(AggFunc::kMax, Col(0, TypeId::kChar, "c", 4), "max_c");
  aggs.emplace_back(AggFunc::kCount, Col(2, TypeId::kDouble), "n_f");
  DiskManager disk;
  BufferPool pool(&disk, 64);
  ExecContext ctx(&pool);
  BatchHashAggregateExecutor agg(
      &ctx,
      std::make_unique<BatchProjectExecutor>(
          std::make_unique<BatchFilterExecutor>(
              std::make_unique<ValuesExecutor>(AllTypes(), rows), pred()),
          exprs(), std::vector<std::string>{"c", "d3", "f"}),
      std::move(groups), std::move(aggs));
  auto got = DrainBatches(&agg);
  ASSERT_TRUE(got.ok()) << got.status().ToString();

  // Reference: per row Eval, groups keyed by the padded-insensitive CHAR.
  std::map<std::string, std::vector<Row>> by_group;
  for (const Row& r : rows) {
    if (!EvalPredicate(*pred(), r).value()) continue;
    Row projected;
    for (const ExprPtr& e : exprs()) projected.push_back(e->Eval(r).value());
    std::string key;
    keycodec::Encode(projected[0], &key);
    by_group[key].push_back(std::move(projected));
  }
  ASSERT_EQ(got->size(), by_group.size());
  size_t g = 0;
  for (const auto& [key, members] : by_group) {
    const Row& out = (*got)[g++];
    EXPECT_EQ(out[0].ToString(), members[0][0].ToString());
    int64_t n_f = 0, sum = 0;
    double fsum = 0;
    Value min, max;
    for (const Row& m : members) {
      if (!m[1].is_null()) {
        sum += m[1].AsInt64();
        if (min.is_null() || m[1].Compare(min) < 0) min = m[1];
      }
      if (!m[2].is_null()) {
        n_f++;
        fsum += m[2].AsDouble();
      }
      if (!m[0].is_null() && (max.is_null() || m[0].Compare(max) > 0)) max = m[0];
    }
    EXPECT_EQ(out[1].AsInt64(), static_cast<int64_t>(members.size()));
    EXPECT_EQ(out[2].AsInt64(), sum);
    EXPECT_EQ(out[2].type(), TypeId::kDecimal);
    ASSERT_EQ(out[3].is_null(), n_f == 0);
    if (n_f > 0) {
      EXPECT_EQ(out[3].AsDouble(), fsum / static_cast<double>(n_f));
    }
    EXPECT_EQ(out[4].ToString(), min.ToString());
    EXPECT_EQ(out[5].ToString(), max.ToString());
    EXPECT_EQ(out[6].AsInt64(), n_f);
  }
}

// ---- Index cursor: sorted probes re-seek inside the pinned leaf ----

class CursorReseekTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema s({Column("k", TypeId::kInt32), Column("v", TypeId::kInt64)});
    auto t = catalog_.CreateTable("t", s, {0});
    ASSERT_TRUE(t.ok());
    std::vector<Row> rows;
    for (int i = 0; i < 6000; i++) {  // dozens of leaves; even keys only
      rows.push_back({Value::Int32(2 * i), Value::Int64(i)});
    }
    ASSERT_TRUE(t.value()->BulkLoadRows(std::move(rows)).ok());
    table_ = t.value();
  }

  /// Reads the rows of [lo, hi] through `cursor` (re-seeked) and through a
  /// fresh cursor; both must agree.
  void ExpectSameRows(IndexCursor* cursor, int lo, int hi) {
    const KeyRange range =
        MakeKeyRange({}, Value::Int32(lo), true, Value::Int32(hi), true);
    auto read = [&](IndexCursor* c) {
      EXPECT_TRUE(c->Seek(range).ok());
      Batch b;
      b.Reset(c->schema());
      uint32_t n = 0;
      while (c->Valid()) {
        EXPECT_TRUE(c->ReadInto(&b, 0).ok());
        n++;
      }
      b.SetRowCount(n);
      std::vector<Row> rows;
      b.AppendActiveRowsTo(&rows);
      return rows;
    };
    IndexCursor fresh(&ctx_, table_, nullptr, AccessIntent::kPointLookup);
    const std::vector<Row> want = read(&fresh);
    const std::vector<Row> got = read(cursor);
    ASSERT_EQ(got.size(), want.size()) << "[" << lo << ", " << hi << "]";
    for (size_t i = 0; i < got.size(); i++) {
      EXPECT_EQ(got[i][0].AsInt32(), want[i][0].AsInt32());
      EXPECT_EQ(got[i][1].AsInt64(), want[i][1].AsInt64());
    }
  }

  uint64_t Fetches() const { return pool_.stats().hits + pool_.stats().misses; }

  DiskManager disk_;
  BufferPool pool_{&disk_, 4096};
  Catalog catalog_{&pool_};
  ExecContext ctx_{&pool_};
  Table* table_ = nullptr;
};

TEST_F(CursorReseekTest, ProbeSequencesMatchPlainSeeks) {
  IndexCursor cursor(&ctx_, table_, nullptr, AccessIntent::kPointLookup);
  // Ascending single-key probes (a key and a gap between keys), a repeated
  // probe, descending probes, and ranges that cross into the next leaves.
  for (int k = 0; k < 600; k += 3) ExpectSameRows(&cursor, k, k);
  for (int r = 0; r < 3; r++) ExpectSameRows(&cursor, 500, 520);
  for (int k = 1000; k > 0; k -= 37) ExpectSameRows(&cursor, k, k + 1);
  for (int k = 0; k < 12000; k += 997) ExpectSameRows(&cursor, k, k + 1500);
  ExpectSameRows(&cursor, 11990, 20000);  // the last leaf, then past the end
  ExpectSameRows(&cursor, -5, 3);         // before the first key
  ExpectSameRows(&cursor, 40, 40);
}

TEST_F(CursorReseekTest, AscendingProbesStayInTheLeaf) {
  // 300 ascending probes over the first leaves: a plain seek descends the
  // whole tree each time; the cursor reuses its pinned leaf and descends
  // only when a probe leaves it, so it fetches far fewer pages.
  IndexCursor reused(&ctx_, table_, nullptr, AccessIntent::kPointLookup);
  const uint64_t before = Fetches();
  for (int k = 0; k < 600; k += 2) {
    ASSERT_TRUE(reused
                    .Seek(MakeKeyRange({}, Value::Int32(k), true,
                                       Value::Int32(k), true))
                    .ok());
    ASSERT_TRUE(reused.Valid());
  }
  const uint64_t reused_fetches = Fetches() - before;
  uint64_t plain_fetches = 0;
  for (int k = 0; k < 600; k += 2) {
    IndexCursor fresh(&ctx_, table_, nullptr, AccessIntent::kPointLookup);
    const uint64_t start = Fetches();
    ASSERT_TRUE(fresh
                    .Seek(MakeKeyRange({}, Value::Int32(k), true,
                                       Value::Int32(k), true))
                    .ok());
    plain_fetches += Fetches() - start;
  }
  EXPECT_GE(plain_fetches, 300u * 2);  // at least root and leaf per probe
  EXPECT_LT(reused_fetches * 10, plain_fetches);
}

// ---- values_materialized and the parallel final aggregate, end to end ----

class TypedKernelSqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions opts;
    opts.cold_cache = false;
    opts.worker_threads = 4;
    db_ = std::make_unique<Database>(opts);
    ASSERT_TRUE(db_->Execute("CREATE TABLE o (k INT, cust INT, price DECIMAL) "
                             "CLUSTER BY (k)")
                    .ok());
    ASSERT_TRUE(
        db_->Execute("CREATE TABLE c (cust INT, name CHAR(6)) CLUSTER BY (cust)")
            .ok());
    std::string rows;
    for (int i = 0; i < 3000; i++) {
      rows += (i == 0 ? "(" : ", (") + std::to_string(i) + ", " +
              std::to_string(i % 7) + ", " +
              (i % 11 == 0 ? std::string("NULL") : std::to_string(i % 50) + ".25") +
              ")";
    }
    ASSERT_TRUE(db_->Execute("INSERT INTO o VALUES " + rows).ok());
    rows.clear();
    for (int i = 0; i < 7; i++) {
      rows += (i == 0 ? "(" : ", (") + std::to_string(i) + ", 'n" +
              std::to_string(i % 3) + "')";
    }
    ASSERT_TRUE(db_->Execute("INSERT INTO c VALUES " + rows).ok());
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

TEST_F(TypedKernelSqlTest, ValuesMaterializedOnlyAtTheRoot) {
  // Filter + join + GROUP BY: scans, the filter, the hash join and the
  // aggregate run on lanes; the only Values built are the 3 result rows x
  // 4 columns. PARALLEL needs a single relation, so the join runs serially
  // under the hint too.
  const std::string sql =
      "SELECT c.name, COUNT(*), SUM(o.price), MAX(o.k) FROM o, c "
      "WHERE o.cust = c.cust AND o.price >= 10 AND o.k < 2500 "
      "GROUP BY c.name";
  for (int workers : {0, 4}) {
    QueryResult r = Run(sql, workers);
    ASSERT_EQ(r.rows.size(), 3u) << workers;
    EXPECT_EQ(r.counters.values_materialized, 12u) << workers;
    EXPECT_GT(r.counters.columns_decoded, 3000u) << workers;
  }
  QueryResult explain = Run("EXPLAIN ANALYZE " + sql, 0);
  std::string text;
  for (const Row& row : explain.rows) text += row[0].AsString() + "\n";
  EXPECT_NE(text.find(" values=12 "), std::string::npos) << text;
}

TEST_F(TypedKernelSqlTest, ParallelFinalAggregateEqualsSerial) {
  // A single-table aggregate over 3,000 rows: under PARALLEL 4 the morsel
  // partials (COUNT, SUM, AVG's (sum, count), MIN, MAX) merge into exactly
  // the serial result, and only the result rows become Values.
  const std::string sql =
      "SELECT cust, COUNT(*), COUNT(price), SUM(price), AVG(price), "
      "MIN(price), MAX(k) FROM o WHERE k >= 100 GROUP BY cust";
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
  ASSERT_EQ(serial.rows.size(), 7u);
  ASSERT_EQ(parallel.rows.size(), serial.rows.size());
  for (size_t i = 0; i < serial.rows.size(); i++) {
    ASSERT_EQ(parallel.rows[i].size(), serial.rows[i].size());
    for (size_t c = 0; c < serial.rows[i].size(); c++) {
      EXPECT_EQ(parallel.rows[i][c].type(), serial.rows[i][c].type());
      EXPECT_EQ(parallel.rows[i][c].ToString(), serial.rows[i][c].ToString());
    }
  }
  EXPECT_EQ(serial.counters.values_materialized, 7u * 7u);
  EXPECT_EQ(parallel.counters.values_materialized, 7u * 7u);
}

}  // namespace
}  // namespace elephant
