#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "cstore/colopt.h"
#include "cstore/compression.h"
#include "cstore/concat.h"
#include "cstore/ctable_builder.h"
#include "cstore/rewriter.h"
#include "engine/database.h"

namespace elephant {
namespace {

using cstore::CTableBuilder;
using cstore::Rewriter;
using cstore::RewriteOptions;

/// Builds the exact 12-row table of the paper's Figure 3:
///   a = 1x5, 2x7;  b = 1,1,2,2,2 | 1,1,3,3,3,3,3;  c as in the figure.
class Figure3Test : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    ASSERT_TRUE(db_->Execute("CREATE TABLE t (a INT, b INT, c INT)").ok());
    const int a[12] = {1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2};
    const int b[12] = {1, 1, 2, 2, 2, 1, 1, 3, 3, 3, 3, 3};
    const int c[12] = {1, 4, 4, 5, 5, 1, 1, 1, 2, 2, 3, 4};
    for (int i = 0; i < 12; i++) {
      ASSERT_TRUE(db_->Execute("INSERT INTO t VALUES (" + std::to_string(a[i]) +
                               ", " + std::to_string(b[i]) + ", " +
                               std::to_string(c[i]) + ")")
                      .ok());
    }
    CTableBuilder builder(db_.get());
    auto meta = builder.Build(ProjectionDef{"p", "SELECT a, b, c FROM t",
                                            {"a", "b", "c"}});
    ASSERT_TRUE(meta.ok()) << meta.status().ToString();
    meta_ = std::make_unique<ProjectionMeta>(std::move(meta).value());
  }

  std::vector<Row> Rows(const std::string& sql) {
    auto r = db_->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << "\n" << r.status().ToString();
    return r.ok() ? std::move(r.value().rows) : std::vector<Row>{};
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<ProjectionMeta> meta_;
};

TEST_F(Figure3Test, TaMatchesFigure) {
  // Figure 3: Ta = { (1,1,5), (6,2,7) } (the paper's f is 1-based; ours is
  // 0-based, so f = {0, 5}).
  std::vector<Row> rows = Rows("SELECT f, v, c FROM p_a ORDER BY f");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].AsInt64(), 0);
  EXPECT_EQ(rows[0][1].AsInt32(), 1);
  EXPECT_EQ(rows[0][2].AsInt64(), 5);
  EXPECT_EQ(rows[1][0].AsInt64(), 5);
  EXPECT_EQ(rows[1][1].AsInt32(), 2);
  EXPECT_EQ(rows[1][2].AsInt64(), 7);
}

TEST_F(Figure3Test, TbMatchesFigure) {
  // Figure 3: Tb = { (1,1,2), (3,2,3), (6,1,2), (8,3,5) } (1-based f).
  std::vector<Row> rows = Rows("SELECT f, v, c FROM p_b ORDER BY f");
  ASSERT_EQ(rows.size(), 4u);
  const int64_t f[4] = {0, 2, 5, 7};
  const int32_t v[4] = {1, 2, 1, 3};
  const int64_t c[4] = {2, 3, 2, 5};
  for (int i = 0; i < 4; i++) {
    EXPECT_EQ(rows[i][0].AsInt64(), f[i]) << i;
    EXPECT_EQ(rows[i][1].AsInt32(), v[i]) << i;
    EXPECT_EQ(rows[i][2].AsInt64(), c[i]) << i;
  }
}

TEST_F(Figure3Test, TcUsesPlainRepresentation) {
  // Figure 3: Tc mostly has c = 1, so the (id, v) form is chosen instead.
  const CTableMeta* tc = meta_->Find("C");
  ASSERT_NE(tc, nullptr);
  EXPECT_FALSE(tc->has_count);
  std::vector<Row> rows = Rows("SELECT f, v FROM p_c ORDER BY f");
  ASSERT_EQ(rows.size(), 12u);
  // First few values per the figure: 1, 4, 4, 5, ...
  EXPECT_EQ(rows[0][1].AsInt32(), 1);
  EXPECT_EQ(rows[1][1].AsInt32(), 4);
  EXPECT_EQ(rows[2][1].AsInt32(), 4);
  EXPECT_EQ(rows[3][1].AsInt32(), 5);
}

TEST_F(Figure3Test, PrefixAgreementSplitsRuns) {
  // b has value 1 at positions 0-1 and again at 5-6; the runs must NOT merge
  // across the a boundary (prefix-agreement rule).
  std::vector<Row> rows = Rows("SELECT COUNT(*) FROM p_b WHERE v = 1");
  EXPECT_EQ(rows[0][0].AsInt64(), 2);
}

TEST_F(Figure3Test, RangesNeverPartiallyOverlap) {
  // The §2.2.1 invariant: for tuples of any two c-tables, ranges are either
  // disjoint or nested. Check Tb runs nest inside Ta runs.
  std::vector<Row> a = Rows("SELECT f, c FROM p_a ORDER BY f");
  std::vector<Row> b = Rows("SELECT f, c FROM p_b ORDER BY f");
  for (const Row& rb : b) {
    const int64_t bf = rb[0].AsInt64(), be = bf + rb[1].AsInt64() - 1;
    bool nested = false;
    for (const Row& ra : a) {
      const int64_t af = ra[0].AsInt64(), ae = af + ra[1].AsInt64() - 1;
      if (bf >= af && be <= ae) nested = true;
      // No partial overlap.
      const bool disjoint = be < af || bf > ae;
      const bool contained = bf >= af && be <= ae;
      EXPECT_TRUE(disjoint || contained);
    }
    EXPECT_TRUE(nested);
  }
}

TEST_F(Figure3Test, CTablesHaveClusteredFAndSecondaryV) {
  auto table = db_->catalog().GetTable("p_b");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table.value()->cluster_cols(), (std::vector<size_t>{0}));
  ASSERT_EQ(table.value()->secondary_indexes().size(), 1u);
  EXPECT_EQ(table.value()->secondary_indexes()[0]->key_cols,
            (std::vector<size_t>{1}));
}

TEST_F(Figure3Test, RewriteCountGroupByB) {
  // SELECT b, COUNT(*) FROM t GROUP BY b — via c-tables.
  AnalyticQuery q;
  q.name = "test";
  q.tables = {"t"};
  q.group_cols = {"B"};
  q.aggs = {{AggFunc::kCountStar, "", "cnt"}};
  Rewriter rewriter(*meta_);
  auto sql = rewriter.Rewrite(q);
  ASSERT_TRUE(sql.ok()) << sql.status().ToString();
  std::vector<Row> got = Rows(sql.value());
  std::vector<Row> want = Rows("SELECT b, COUNT(*) FROM t GROUP BY b");
  ASSERT_EQ(got.size(), want.size());
  // Both ordered by group key (hash agg emits in key order).
  for (size_t i = 0; i < got.size(); i++) {
    EXPECT_EQ(got[i][0].Compare(want[i][0]), 0);
    EXPECT_EQ(got[i][1].AsInt64(), want[i][1].AsInt64());
  }
}

TEST_F(Figure3Test, RewriteFilteredSumAcrossColumns) {
  // SELECT b, SUM(c) FROM t WHERE a = 2 GROUP BY b.
  AnalyticQuery q;
  q.name = "test";
  q.tables = {"t"};
  q.filters = {{"A", CompareOp::kEq, Value::Int32(2)}};
  q.group_cols = {"B"};
  q.aggs = {{AggFunc::kSum, "C", "s"}};
  Rewriter rewriter(*meta_);
  for (bool collapse : {false, true}) {
    RewriteOptions opts;
    opts.range_collapse = collapse;
    auto sql = rewriter.Rewrite(q, opts);
    ASSERT_TRUE(sql.ok());
    std::vector<Row> got = Rows(sql.value());
    std::vector<Row> want = Rows("SELECT b, SUM(c) FROM t WHERE a = 2 GROUP BY b");
    ASSERT_EQ(got.size(), want.size()) << "collapse=" << collapse;
    for (size_t i = 0; i < got.size(); i++) {
      EXPECT_EQ(got[i][0].Compare(want[i][0]), 0);
      EXPECT_EQ(got[i][1].AsInt64(), want[i][1].AsInt64()) << "collapse=" << collapse;
    }
  }
}

TEST_F(Figure3Test, RangeCollapseApplicability) {
  Rewriter rewriter(*meta_);
  AnalyticQuery q;
  q.tables = {"t"};
  q.filters = {{"A", CompareOp::kGt, Value::Int32(1)}};
  q.group_cols = {"B"};
  q.aggs = {{AggFunc::kCountStar, "", ""}};
  EXPECT_TRUE(rewriter.RangeCollapseApplies(q));
  // Filter on a non-leading column: not applicable.
  q.filters = {{"B", CompareOp::kGt, Value::Int32(1)}};
  EXPECT_FALSE(rewriter.RangeCollapseApplies(q));
  // Leading column also grouped: not applicable.
  q.filters = {{"A", CompareOp::kGt, Value::Int32(1)}};
  q.group_cols = {"A"};
  EXPECT_FALSE(rewriter.RangeCollapseApplies(q));
}

TEST_F(Figure3Test, RewriteMinMax) {
  AnalyticQuery q;
  q.tables = {"t"};
  q.group_cols = {"A"};
  q.aggs = {{AggFunc::kMax, "C", "mx"}, {AggFunc::kMin, "B", "mn"}};
  Rewriter rewriter(*meta_);
  auto sql = rewriter.Rewrite(q);
  ASSERT_TRUE(sql.ok());
  std::vector<Row> got = Rows(sql.value());
  std::vector<Row> want = Rows("SELECT a, MAX(c), MIN(b) FROM t GROUP BY a");
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); i++) {
    for (size_t c = 0; c < 3; c++) {
      EXPECT_EQ(got[i][c].Compare(want[i][c]), 0) << i << "," << c;
    }
  }
}

TEST_F(Figure3Test, RewriteErrorsOnUnknownColumn) {
  AnalyticQuery q;
  q.tables = {"t"};
  q.group_cols = {"NOPE"};
  q.aggs = {{AggFunc::kCountStar, "", ""}};
  Rewriter rewriter(*meta_);
  EXPECT_FALSE(rewriter.Rewrite(q).ok());
}

TEST(CTableBuilderTest, RejectsPartialSortOrder) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT, b INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1, 2)").ok());
  CTableBuilder builder(&db);
  auto meta = builder.Build(ProjectionDef{"p", "SELECT a, b FROM t", {"a"}});
  EXPECT_FALSE(meta.ok());  // footnote-4 assumption enforced
}

TEST(CompressionTest, RleRunsRespectPrefix) {
  // (p, v) rows sorted by p then v: v is 9, 9, 9, 7 and p changes at row 2.
  Batch rows;
  rows.Reset(Schema({Column("p", TypeId::kInt32), Column("v", TypeId::kInt32)}));
  const int p[4] = {1, 1, 2, 2}, v[4] = {9, 9, 9, 7};
  for (int i = 0; i < 4; i++) {
    rows.col(0).AppendInt(p[i]);
    rows.col(1).AppendInt(v[i]);
  }
  rows.SetRowCount(4);
  // v on its own: 9x3, 7x1.
  EXPECT_EQ(compression::RunCounts(compression::FirstDifferences(rows, {1}), 1),
            std::vector<uint64_t>{2});
  // v under the prefix p: 9x2 | 9x1, 7x1 (same v, new prefix -> new run).
  const std::vector<uint32_t> first = compression::FirstDifferences(rows, {0, 1});
  EXPECT_EQ(first, (std::vector<uint32_t>{0, 2, 0, 1}));
  EXPECT_EQ(compression::RunCounts(first, 2), (std::vector<uint64_t>{2, 3}));
}

TEST(CompressionTest, SizeEstimators) {
  // RLE beats plain when runs << rows.
  EXPECT_LT(compression::NativeRleBytes(10, 4), compression::NativePlainBytes(1000, 4));
  // Dictionary: 16 distinct values of 8 bytes, 1000 rows -> 1 code byte each.
  EXPECT_EQ(compression::DictionaryBytes(1000, 16, 8), 16u * 8 + 1000u);
  // The row-store c-table carries per-tuple overhead the native format lacks.
  EXPECT_GT(compression::CTableRowStoreBytes(100, 4, true),
            compression::NativeRleBytes(100, 4));
}

TEST(AnalyticQueryTest, ToRowSql) {
  AnalyticQuery q;
  q.tables = {"lineitem", "orders"};
  q.join_conds = {{"l_orderkey", "o_orderkey"}};
  q.filters = {{"o_orderdate", CompareOp::kGt,
                Value::Date(date::FromYMD(1995, 1, 1))}};
  q.group_cols = {"o_orderdate"};
  q.aggs = {{AggFunc::kMax, "l_shipdate", "latest"}};
  EXPECT_EQ(q.ToRowSql(),
            "SELECT o_orderdate, MAX(l_shipdate) AS latest FROM lineitem, orders "
            "WHERE l_orderkey = o_orderkey AND o_orderdate > DATE '1995-01-01' "
            "GROUP BY o_orderdate");
}

TEST(AnalyticQueryTest, SqlLiteralEscaping) {
  EXPECT_EQ(SqlLiteral(Value::Varchar("it's")), "'it''s'");
  EXPECT_EQ(SqlLiteral(Value::Date(date::FromYMD(1994, 2, 3))), "DATE '1994-02-03'");
  EXPECT_EQ(SqlLiteral(Value::Decimal(150)), "1.50");
}

}  // namespace
}  // namespace elephant

namespace elephant {
namespace {

/// Column concatenation (§3): reconstructed rows must equal the sorted
/// projection, in both native and TVF-marshalling modes.
class ConcatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    ASSERT_TRUE(db_->Execute("CREATE TABLE t (a INT, b DATE, c DECIMAL)").ok());
    for (int i = 0; i < 50; i++) {
      ASSERT_TRUE(db_->Execute("INSERT INTO t VALUES (" +
                               std::to_string(i % 7) + ", DATE '1994-0" +
                               std::to_string(i % 9 + 1) + "-15', " +
                               std::to_string(i) + ".25)")
                      .ok());
    }
    CTableBuilder builder(db_.get());
    auto meta = builder.Build(
        ProjectionDef{"pc", "SELECT a, b, c FROM t", {"a", "b", "c"}});
    ASSERT_TRUE(meta.ok()) << meta.status().ToString();
    meta_ = std::make_unique<ProjectionMeta>(std::move(meta).value());
  }
  std::unique_ptr<Database> db_;
  std::unique_ptr<ProjectionMeta> meta_;
};

TEST_F(ConcatTest, NativeReconstructionMatchesSortedProjection) {
  cstore::ColumnConcatenator concat(db_.get(), *meta_, {"A", "B", "C"},
                                    cstore::ConcatMode::kNative);
  ASSERT_TRUE(concat.Open(0, 49).ok());
  auto want = db_->Execute("SELECT a, b, c FROM t ORDER BY a, b, c");
  ASSERT_TRUE(want.ok());
  Row row;
  size_t i = 0;
  while (true) {
    auto has = concat.Next(&row);
    ASSERT_TRUE(has.ok()) << has.status().ToString();
    if (!has.value()) break;
    ASSERT_LT(i, want.value().rows.size());
    for (size_t c = 0; c < 3; c++) {
      EXPECT_EQ(row[c].Compare(want.value().rows[i][c]), 0)
          << "row " << i << " col " << c;
    }
    i++;
  }
  EXPECT_EQ(i, 50u);
  EXPECT_EQ(concat.rows_produced(), 50u);
}

TEST_F(ConcatTest, ExternalModeAgreesWithNative) {
  cstore::ColumnConcatenator native(db_.get(), *meta_, {"B", "C"},
                                    cstore::ConcatMode::kNative);
  cstore::ColumnConcatenator external(db_.get(), *meta_, {"B", "C"},
                                      cstore::ConcatMode::kExternal);
  ASSERT_TRUE(native.Open(0, 49).ok());
  ASSERT_TRUE(external.Open(0, 49).ok());
  Row a, b;
  while (true) {
    auto ha = native.Next(&a);
    auto hb = external.Next(&b);
    ASSERT_TRUE(ha.ok());
    ASSERT_TRUE(hb.ok());
    ASSERT_EQ(ha.value(), hb.value());
    if (!ha.value()) break;
    for (size_t c = 0; c < 2; c++) EXPECT_EQ(a[c].Compare(b[c]), 0);
  }
}

TEST_F(ConcatTest, PartialRangeFromZero) {
  cstore::ColumnConcatenator concat(db_.get(), *meta_, {"A"},
                                    cstore::ConcatMode::kNative);
  ASSERT_TRUE(concat.Open(0, 9).ok());
  Row row;
  int n = 0;
  while (true) {
    auto has = concat.Next(&row);
    ASSERT_TRUE(has.ok());
    if (!has.value()) break;
    n++;
  }
  EXPECT_EQ(n, 10);
}

TEST_F(ConcatTest, UnknownColumnRejected) {
  cstore::ColumnConcatenator concat(db_.get(), *meta_, {"NOPE"},
                                    cstore::ConcatMode::kNative);
  EXPECT_FALSE(concat.Open(0, 9).ok());
}

}  // namespace
}  // namespace elephant

namespace elephant {
namespace {

/// The c-table at sort position `pos` of a projection, computed from its
/// rows with Values alone, independently of the typed build: a stable sort
/// by Value::Compare over the sort columns (the rows' columns, in sort
/// order), then one (f, v, c) per run, a run ending where the column or any
/// shallower one changes, or one (f, v) per row.
std::vector<Row> RefCTable(std::vector<Row> rows, size_t pos, bool has_count) {
  std::stable_sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    for (size_t c = 0; c < a.size(); c++) {
      const int cmp = a[c].Compare(b[c]);
      if (cmp != 0) return cmp < 0;
    }
    return false;
  });
  std::vector<Row> out;
  for (size_t r = 0; r < rows.size(); r++) {
    bool starts = r == 0 || !has_count;
    for (size_t p = 0; p <= pos && !starts; p++) {
      starts = rows[r][p].Compare(rows[r - 1][p]) != 0;
    }
    if (!starts) {
      out.back()[2] = Value::Int32(out.back()[2].AsInt32() + 1);
      continue;
    }
    Row row{Value::Int32(static_cast<int32_t>(r)), rows[r][pos]};
    if (has_count) row.push_back(Value::Int32(1));
    out.push_back(std::move(row));
  }
  return out;
}

/// Every c-table of `meta` equals its reference over `base` under Value
/// equality (NULL only equals NULL); the first read after a base write runs
/// the rebuild hook.
void ExpectCTablesMatch(Database* db, const ProjectionMeta& meta,
                        const std::vector<Row>& base) {
  for (const CTableMeta& ct : meta.ctables) {
    const std::vector<Row> want = RefCTable(base, ct.sort_position, ct.has_count);
    auto got = db->Execute("SELECT * FROM " + ct.table_name + " ORDER BY f");
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    const std::vector<Row>& rows = got.value().rows;
    ASSERT_EQ(rows.size(), want.size()) << ct.table_name;
    for (size_t r = 0; r < want.size(); r++) {
      ASSERT_EQ(rows[r].size(), want[r].size()) << ct.table_name;
      for (size_t c = 0; c < want[r].size(); c++) {
        EXPECT_EQ(rows[r][c].is_null(), want[r][c].is_null())
            << ct.table_name << " row " << r << " col " << c;
        EXPECT_EQ(rows[r][c].Compare(want[r][c]), 0)
            << ct.table_name << " row " << r << " col " << c << ": "
            << rows[r][c].ToString() << " vs " << want[r][c].ToString();
      }
    }
  }
}

constexpr const char* kTypedTable =
    "CREATE TABLE t (k INT, s VARCHAR(12), c CHAR(4), a INT, b BIGINT, "
    "d DECIMAL, x DOUBLE)";
const ProjectionDef kTypedProjection{
    "p", "SELECT k, s, c, a, b, d, x FROM t",
    {"k", "s", "c", "a", "b", "d", "x"}};

TEST(CTableBuildTest, TypedBuildMatchesValueReferenceOnEveryLane) {
  // k is one run over every row; s and c carry trailing spaces and padding
  // (equal under Value::Compare); a, b and d hold negatives and NULLs; x,
  // last so its -0.0 and 0.0 (equal Values, distinct key encodings) never
  // order a deeper column, mixes both zeros. Small domains give runs of
  // every length, single rows included.
  Database db;
  ASSERT_TRUE(db.Execute(kTypedTable).ok());
  const char* strs[] = {"ab", "ab  ", "b", "", "zz z"};
  const char* chars[] = {"x", "x  ", "xy", "wxyz"};
  const double doubles[] = {-0.0, 0.0, 1.5, -2.25};
  Rng rng(11);
  std::vector<Row> base;
  for (int i = 0; i < 300; i++) {
    auto pick = [&rng](int n) { return static_cast<int>(rng.Uniform(0, n - 1)); };
    Row row{Value::Int32(7),
            pick(6) == 0 ? Value::Null(TypeId::kVarchar) : Value::Varchar(strs[pick(5)]),
            pick(6) == 0 ? Value::Null(TypeId::kChar) : Value::Char(chars[pick(4)]),
            pick(5) == 0 ? Value::Null(TypeId::kInt32) : Value::Int32(pick(5) - 3),
            pick(5) == 0 ? Value::Null(TypeId::kInt64)
                         : Value::Int64((pick(3) - 1) * 5'000'000'000LL),
            pick(5) == 0 ? Value::Null(TypeId::kDecimal) : Value::Decimal(pick(7) * 125 - 400),
            pick(5) == 0 ? Value::Null(TypeId::kDouble) : Value::Double(doubles[pick(4)])};
    base.push_back(std::move(row));
  }
  {
    auto t = db.catalog().GetTable("t");
    ASSERT_TRUE(t.ok());
    std::vector<Row> load = base;
    ASSERT_TRUE(t.value()->BulkLoadRows(std::move(load)).ok());
  }
  CTableBuilder builder(&db);
  auto meta = builder.Build(kTypedProjection);
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  ASSERT_EQ(meta.value().ctables.size(), 7u);
  EXPECT_EQ(meta.value().rows, 300u);
  EXPECT_EQ(meta.value().ctables[0].rle_runs, 1u);
  bool plain = false, counted = false;
  for (const CTableMeta& ct : meta.value().ctables) {
    EXPECT_EQ(ct.rle_runs, RefCTable(base, ct.sort_position, true).size())
        << ct.table_name;
    (ct.has_count ? counted : plain) = true;
  }
  EXPECT_TRUE(plain && counted);  // both representations are checked
  ExpectCTablesMatch(&db, meta.value(), base);

  // An INSERT makes every c-table stale; the next read rebuilds it.
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (7, 'ab ', 'xy', -3, NULL, "
                         "-2.75, 1.5), (7, NULL, NULL, NULL, 5000000000, "
                         "NULL, NULL)")
                  .ok());
  base.push_back({Value::Int32(7), Value::Varchar("ab "), Value::Char("xy"),
                  Value::Int32(-3), Value::Null(TypeId::kInt64),
                  Value::Decimal(-275), Value::Double(1.5)});
  base.push_back({Value::Int32(7), Value::Null(TypeId::kVarchar),
                  Value::Null(TypeId::kChar), Value::Null(TypeId::kInt32),
                  Value::Int64(5'000'000'000LL), Value::Null(TypeId::kDecimal),
                  Value::Null(TypeId::kDouble)});
  ExpectCTablesMatch(&db, meta.value(), base);
}

TEST(CTableBuildTest, EmptyBaseTableBuildsEmptyCTablesThatRebuild) {
  Database db;
  ASSERT_TRUE(db.Execute(kTypedTable).ok());
  CTableBuilder builder(&db);
  auto meta = builder.Build(kTypedProjection);
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  EXPECT_EQ(meta.value().rows, 0u);
  for (const CTableMeta& ct : meta.value().ctables) {
    EXPECT_EQ(ct.rle_runs, 0u) << ct.table_name;
  }
  ExpectCTablesMatch(&db, meta.value(), {});
  ASSERT_TRUE(
      db.Execute("INSERT INTO t VALUES (1, 'a', 'b', -1, -2, 0.50, -0.5)").ok());
  ExpectCTablesMatch(&db, meta.value(),
                     {{Value::Int32(1), Value::Varchar("a"), Value::Char("b"),
                       Value::Int32(-1), Value::Int64(-2), Value::Decimal(50),
                       Value::Double(-0.5)}});
}

}  // namespace
}  // namespace elephant
