#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "catalog/catalog.h"
#include "common/rng.h"
#include "wal/log_manager.h"

namespace elephant {
namespace {

Schema PointSchema() {
  return Schema({
      Column("k", TypeId::kInt32),
      Column("grp", TypeId::kInt32),
      Column("label", TypeId::kVarchar),
  });
}

/// A row of `t` as IndexCursor reads it, with its clustering key.
struct StoredRow {
  std::string key;
  Row row;
};

/// The rows of `t`'s clustered tree in `range` (every row by default), in
/// key order, read through an IndexCursor.
std::vector<StoredRow> ReadRows(const Table& t, const KeyRange& range = {}) {
  IndexCursor cursor(&t, nullptr, AccessIntent::kPointLookup);
  EXPECT_TRUE(cursor.Seek(range).ok());
  Batch batch;
  batch.Reset(t.schema());
  std::vector<std::string> keys;
  while (cursor.Valid()) {
    keys.emplace_back(cursor.key());
    EXPECT_TRUE(cursor.ReadInto(&batch, 0).ok());
  }
  batch.SetRowCount(static_cast<uint32_t>(keys.size()));
  std::vector<Row> rows;
  batch.AppendActiveRowsTo(&rows);
  std::vector<StoredRow> out;
  for (size_t i = 0; i < rows.size(); i++) {
    out.push_back(StoredRow{std::move(keys[i]), std::move(rows[i])});
  }
  return out;
}

struct CatalogFixture : public ::testing::Test {
  DiskManager disk;
  BufferPool pool{&disk, 4096};
  Catalog catalog{&pool};
};

TEST_F(CatalogFixture, CreateGetDrop) {
  ASSERT_TRUE(catalog.CreateTable("t1", PointSchema(), {0}).ok());
  EXPECT_TRUE(catalog.HasTable("T1"));  // case-insensitive
  ASSERT_TRUE(catalog.GetTable("t1").ok());
  EXPECT_FALSE(catalog.CreateTable("T1", PointSchema(), {0}).ok());
  ASSERT_TRUE(catalog.DropTable("t1").ok());
  EXPECT_FALSE(catalog.HasTable("t1"));
  EXPECT_FALSE(catalog.DropTable("t1").ok());
}

TEST_F(CatalogFixture, RejectsBadClusterColumn) {
  EXPECT_FALSE(catalog.CreateTable("bad", PointSchema(), {9}).ok());
}

TEST_F(CatalogFixture, InsertAndScanSortedByClusterKey) {
  auto t = catalog.CreateTable("t", PointSchema(), {0});
  ASSERT_TRUE(t.ok());
  // Insert out of order; scan must come back sorted by k.
  for (int k : {5, 1, 9, 3, 7}) {
    ASSERT_TRUE(
        t.value()
            ->Insert({Value::Int32(k), Value::Int32(k % 2), Value::Varchar("r")},
                     TxnWriteContext{})
            .ok());
  }
  std::vector<int> seen;
  for (const StoredRow& r : ReadRows(*t.value())) seen.push_back(r.row[0].AsInt32());
  EXPECT_EQ(seen, (std::vector<int>{1, 3, 5, 7, 9}));
  EXPECT_EQ(t.value()->row_count(), 5u);
}

TEST_F(CatalogFixture, DuplicateClusterKeysAllowedViaUniquifier) {
  auto t = catalog.CreateTable("t", PointSchema(), {0});
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(
        t.value()
            ->Insert({Value::Int32(7), Value::Int32(i), Value::Varchar("dup")},
                     TxnWriteContext{})
            .ok());
  }
  EXPECT_EQ(t.value()->row_count(), 10u);
  const std::vector<StoredRow> rows = ReadRows(*t.value());
  ASSERT_EQ(rows.size(), 10u);
  std::set<std::string> keys;
  for (int i = 0; i < 10; i++) {
    EXPECT_EQ(rows[i].row[1].AsInt32(), i);  // ties keep insertion order
    keys.insert(rows[i].key);
  }
  EXPECT_EQ(keys.size(), 10u);
}

TEST_F(CatalogFixture, RangeScanByClusterPrefix) {
  auto t = catalog.CreateTable("t", PointSchema(), {0});
  ASSERT_TRUE(t.ok());
  std::vector<Row> rows;
  for (int k = 0; k < 100; k++) {
    rows.push_back({Value::Int32(k), Value::Int32(k / 10), Value::Varchar("x")});
  }
  ASSERT_TRUE(t.value()->BulkLoadRows(std::move(rows)).ok());
  std::string lo = t.value()->EncodeClusterPrefix({Value::Int32(20)});
  std::string hi = t.value()->EncodeClusterPrefix({Value::Int32(30)});
  const std::vector<StoredRow> stored = ReadRows(*t.value(), KeyRange{lo, hi});
  ASSERT_EQ(stored.size(), 10u);
  EXPECT_EQ(stored.front().row[0].AsInt32(), 20);
  EXPECT_EQ(stored.back().row[0].AsInt32(), 29);
}

TEST_F(CatalogFixture, BulkLoadSortsUnsortedInput) {
  auto t = catalog.CreateTable("t", PointSchema(), {0});
  ASSERT_TRUE(t.ok());
  Rng rng(99);
  std::vector<Row> rows;
  for (int i = 0; i < 5000; i++) {
    rows.push_back({Value::Int32(static_cast<int32_t>(rng.Uniform(0, 100000))),
                    Value::Int32(i), Value::Varchar("bulk")});
  }
  ASSERT_TRUE(t.value()->BulkLoadRows(std::move(rows)).ok());
  EXPECT_EQ(t.value()->row_count(), 5000u);
  const std::vector<StoredRow> stored = ReadRows(*t.value());
  ASSERT_EQ(stored.size(), 5000u);
  int prev = -1;
  for (const StoredRow& r : stored) {
    const int v = r.row[0].AsInt32();
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST_F(CatalogFixture, BulkLoadIntoNonEmptyTableRejected) {
  auto t = catalog.CreateTable("t", PointSchema(), {0});
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(
      t.value()
          ->Insert({Value::Int32(1), Value::Int32(1), Value::Varchar("a")},
                   TxnWriteContext{})
          .ok());
  std::vector<Row> rows{{Value::Int32(2), Value::Int32(2), Value::Varchar("b")}};
  EXPECT_FALSE(t.value()->BulkLoadRows(std::move(rows)).ok());
}

TEST_F(CatalogFixture, TypedBulkLoadTakesRowsInKeyOrder) {
  auto t = catalog.CreateTable("t", PointSchema(), {1});
  ASSERT_TRUE(t.ok());
  Batch rows;
  rows.Reset(PointSchema());
  // Cluster column grp ascends, with ties (the uniquifier keeps them apart)
  // and a NULL first.
  const int grp[5] = {-1, 2, 2, 2, 9};
  for (int i = 0; i < 5; i++) {
    rows.col(0).AppendInt(i);
    if (i == 0) {
      rows.col(1).AppendNull();
    } else {
      rows.col(1).AppendInt(grp[i]);
    }
    rows.col(2).AppendString("row" + std::to_string(i));
  }
  rows.SetRowCount(5);
  ASSERT_TRUE(t.value()->BulkLoad(rows).ok());
  EXPECT_EQ(t.value()->row_count(), 5u);
  const std::vector<StoredRow> stored = ReadRows(*t.value());
  ASSERT_EQ(stored.size(), 5u);
  for (int i = 0; i < 5; i++) {
    const Row& row = stored[i].row;
    EXPECT_EQ(row[0].AsInt32(), i);
    EXPECT_EQ(row[1].is_null(), i == 0);
    EXPECT_EQ(row[2].AsString(), "row" + std::to_string(i));
  }
}

TEST_F(CatalogFixture, TypedBulkLoadRejectsOutOfOrderKeys) {
  auto t = catalog.CreateTable("t", PointSchema(), {0}, /*unique_cluster=*/true);
  ASSERT_TRUE(t.ok());
  Batch rows;
  rows.Reset(PointSchema());
  for (int k : {1, 3, 2}) {
    rows.col(0).AppendInt(k);
    rows.col(1).AppendInt(0);
    rows.col(2).AppendString("x");
  }
  rows.SetRowCount(3);
  EXPECT_TRUE(t.value()->BulkLoad(rows).IsInvalidArgument());
  // The table is left empty and can still be loaded.
  EXPECT_EQ(t.value()->row_count(), 0u);
  EXPECT_TRUE(ReadRows(*t.value()).empty());
  Batch wrong_type;
  wrong_type.Reset(Schema({Column("k", TypeId::kInt64), Column("grp", TypeId::kInt32),
                           Column("label", TypeId::kVarchar)}));
  EXPECT_TRUE(t.value()->BulkLoad(wrong_type).IsInvalidArgument());
  rows.SetSelection({0, 2});  // keys 1, 2
  ASSERT_TRUE(t.value()->BulkLoad(rows).ok());
  EXPECT_EQ(t.value()->row_count(), 2u);
}

TEST_F(CatalogFixture, SecondaryIndexCoversAndFinds) {
  auto t = catalog.CreateTable("t", PointSchema(), {0});
  ASSERT_TRUE(t.ok());
  std::vector<Row> rows;
  for (int k = 0; k < 1000; k++) {
    rows.push_back({Value::Int32(k), Value::Int32(k % 7),
                    Value::Varchar("v" + std::to_string(k))});
  }
  ASSERT_TRUE(t.value()->BulkLoadRows(std::move(rows)).ok());
  ASSERT_TRUE(t.value()->CreateSecondaryIndex("idx_grp", {1}, {0}).ok());
  SecondaryIndex* idx = t.value()->FindIndex("idx_grp");
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->tree->CountEntries().value(), 1000u);
  // Covering check.
  EXPECT_NE(t.value()->FindCoveringIndex(1, {0, 1}), nullptr);
  EXPECT_EQ(t.value()->FindCoveringIndex(1, {0, 1, 2}), nullptr);  // label missing
  EXPECT_EQ(t.value()->FindCoveringIndex(0, {0}), nullptr);        // wrong leading col
}

TEST_F(CatalogFixture, SecondaryIndexMaintainedOnInsert) {
  auto t = catalog.CreateTable("t", PointSchema(), {0});
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(t.value()->CreateSecondaryIndex("idx_grp", {1}, {0}).ok());
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(t.value()
                    ->Insert({Value::Int32(i), Value::Int32(i % 5),
                              Value::Varchar("m")},
                             TxnWriteContext{})
                    .ok());
  }
  SecondaryIndex* idx = t.value()->FindIndex("idx_grp");
  EXPECT_EQ(idx->tree->CountEntries().value(), 50u);
}

TEST_F(CatalogFixture, DeleteMaintainsIndexes) {
  auto t = catalog.CreateTable("t", PointSchema(), {0});
  ASSERT_TRUE(t.ok());
  ASSERT_FALSE(t.value()->logged());
  ASSERT_TRUE(t.value()->CreateSecondaryIndex("idx_grp", {1}, {0}).ok());
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(t.value()
                    ->Insert({Value::Int32(i % 4), Value::Int32(i), Value::Varchar("d")},
                             TxnWriteContext{})
                    .ok());
  }
  // Delete every row whose cluster column is 2, addressed by the clustering
  // key the scan yields.
  const std::string lo = t.value()->EncodeClusterPrefix({Value::Int32(2)});
  const KeyRange range{lo, keycodec::PrefixUpperBound(lo)};
  const std::vector<StoredRow> victims = ReadRows(*t.value(), range);
  ASSERT_EQ(victims.size(), 5u);
  for (const StoredRow& v : victims) {
    ASSERT_TRUE(t.value()->Delete(v.key, v.row, TxnWriteContext{}).ok());
  }
  EXPECT_EQ(t.value()->row_count(), 15u);
  SecondaryIndex* idx = t.value()->FindIndex("idx_grp");
  EXPECT_EQ(idx->tree->CountEntries().value(), 15u);
  EXPECT_TRUE(ReadRows(*t.value(), range).empty());
  // The index no longer holds an entry for any deleted row.
  auto entries = idx->tree->SeekToFirst();
  ASSERT_TRUE(entries.ok());
  while (entries.value().Valid()) {
    const SecondaryEntry e = DecodeSecondaryValue(entries.value().value());
    EXPECT_NE(e.clustered_key.compare(0, lo.size(), lo), 0);
    ASSERT_TRUE(entries.value().Next().ok());
  }
}

TEST_F(CatalogFixture, WriteWhoseLogDisagreesWithTableRejected) {
  auto plain = catalog.CreateTable("plain", PointSchema(), {0});
  ASSERT_TRUE(plain.ok());
  catalog.EnableWalStorage();
  auto logged = catalog.CreateTable("logged", PointSchema(), {0});
  ASSERT_TRUE(logged.ok());
  ASSERT_TRUE(logged.value()->logged());
  const Row row{Value::Int32(1), Value::Int32(1), Value::Varchar("a")};

  // A logged table written without a log.
  Status s = logged.value()->Insert(row, TxnWriteContext{});
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();
  EXPECT_EQ(logged.value()->row_count(), 0u);

  // An unlogged table written with one.
  wal::LogManager log(&disk);
  lsn_t last_lsn = kInvalidLsn;
  const TxnWriteContext ctx{&log, 1, &last_lsn};
  s = plain.value()->Insert(row, ctx);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();
  EXPECT_EQ(plain.value()->row_count(), 0u);
  EXPECT_EQ(log.stats().records_appended, 0u);

  // The check guards Delete and Update too, before any tree is touched.
  std::string ckey;
  ASSERT_TRUE(plain.value()->Insert(row, TxnWriteContext{}, &ckey).ok());
  EXPECT_EQ(plain.value()->Delete(ckey, row, ctx).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(plain.value()->Update(ckey, row, row, ctx).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(plain.value()->row_count(), 1u);
  EXPECT_EQ(log.stats().records_appended, 0u);
}

TEST_F(CatalogFixture, AnalyzeComputesStats) {
  auto t = catalog.CreateTable("t", PointSchema(), {0});
  ASSERT_TRUE(t.ok());
  std::vector<Row> rows;
  for (int k = 0; k < 100; k++) {
    rows.push_back({Value::Int32(k), Value::Int32(k % 10), Value::Varchar("s")});
  }
  rows.push_back({Value::Int32(200), Value::Null(TypeId::kInt32), Value::Varchar("s")});
  ASSERT_TRUE(t.value()->BulkLoadRows(std::move(rows)).ok());
  ASSERT_TRUE(t.value()->Analyze().ok());
  const auto& stats = t.value()->stats();
  EXPECT_EQ(stats[0].distinct, 101u);
  EXPECT_EQ(stats[0].min.AsInt32(), 0);
  EXPECT_EQ(stats[0].max.AsInt32(), 200);
  EXPECT_EQ(stats[1].distinct, 10u);
  EXPECT_EQ(stats[1].null_count, 1u);
  EXPECT_EQ(stats[2].distinct, 1u);
}

TEST_F(CatalogFixture, AnalyzeStatsMatchAPerValueSetOverNullsAndDuplicates) {
  // Every column's stats against a reference that inserts each non-NULL
  // value's hash into a set and tracks min/max by Value::Compare: the
  // definition of the distinct count Analyze computes with a sort instead,
  // over 10,000 rows and more than 4,096 distinct keys.
  auto t = catalog.CreateTable("t", PointSchema(), {0});
  ASSERT_TRUE(t.ok());
  std::vector<Row> rows;
  Rng rng(11);
  for (int i = 0; i < 10000; i++) {
    const int32_t k = static_cast<int32_t>(rng.Uniform(0, 9000));
    Value grp = rng.Uniform(0, 9) == 0
                    ? Value::Null(TypeId::kInt32)
                    : Value::Int32(static_cast<int32_t>(rng.Uniform(-40, 40)));
    Value label = rng.Uniform(0, 4) == 0
                      ? Value::Null(TypeId::kVarchar)
                      : Value::Varchar("v" + std::to_string(rng.Uniform(0, 60)));
    rows.push_back({Value::Int32(k), std::move(grp), std::move(label)});
  }
  const std::vector<Row> copy = rows;
  ASSERT_TRUE(t.value()->BulkLoadRows(std::move(rows)).ok());
  ASSERT_TRUE(t.value()->Analyze().ok());
  const auto& stats = t.value()->stats();
  ASSERT_EQ(stats.size(), 3u);
  for (size_t c = 0; c < 3; c++) {
    std::set<uint64_t> hashes;
    uint64_t nulls = 0;
    Value min, max;
    for (const Row& r : copy) {
      if (r[c].is_null()) {
        nulls++;
        continue;
      }
      if (hashes.empty() || r[c].Compare(min) < 0) min = r[c];
      if (hashes.empty() || r[c].Compare(max) > 0) max = r[c];
      hashes.insert(r[c].Hash());
    }
    EXPECT_EQ(stats[c].distinct, hashes.size()) << "column " << c;
    EXPECT_EQ(stats[c].null_count, nulls) << "column " << c;
    EXPECT_EQ(stats[c].min.Compare(min), 0) << "column " << c;
    EXPECT_EQ(stats[c].max.Compare(max), 0) << "column " << c;
  }
  EXPECT_GT(stats[1].null_count, 0u);
  EXPECT_GT(stats[0].distinct, 4096u);
  EXPECT_LT(stats[2].distinct, 62u);  // duplicates collapse
}

/// Expects two statistics Values to be the same Value: NULL together, of
/// one type, and (when not NULL) with the same payload: a DOUBLE bit for
/// bit, a string byte for byte (CHAR padding included).
void ExpectSameValue(const Value& a, const Value& b, const std::string& what) {
  ASSERT_EQ(a.is_null(), b.is_null()) << what;
  if (a.is_null()) return;
  ASSERT_EQ(a.type(), b.type()) << what;
  switch (LaneOf(a.type())) {
    case Lane::kInt: EXPECT_EQ(a.AsInt64(), b.AsInt64()) << what; break;
    case Lane::kDouble:
      EXPECT_EQ(a.AsDouble(), b.AsDouble()) << what;
      EXPECT_EQ(std::signbit(a.AsDouble()), std::signbit(b.AsDouble())) << what;
      break;
    case Lane::kString: EXPECT_EQ(a.AsString(), b.AsString()) << what; break;
  }
}

void ExpectSameStats(const std::vector<ColumnStats>& a,
                     const std::vector<ColumnStats>& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t c = 0; c < a.size(); c++) {
    const std::string col = what + ", column " + std::to_string(c);
    EXPECT_EQ(a[c].distinct, b[c].distinct) << col;
    EXPECT_EQ(a[c].null_count, b[c].null_count) << col;
    ExpectSameValue(a[c].min, b[c].min, col + " min");
    ExpectSameValue(a[c].max, b[c].max, col + " max");
  }
}

TEST_F(CatalogFixture, LoadBuildsIndexesAndStatsAsCreateIndexAndAnalyzeDo) {
  // Every lane type, NULLs in every column but the key, -0.0 beside 0.0,
  // CHAR shorter than its width and VARCHAR with trailing spaces; 10,000
  // rows, more than 4,096 distinct BIGINT values among them, and every
  // index spread over many leaves.
  const Schema schema({Column("k", TypeId::kInt32), Column("b", TypeId::kInt64),
                       Column("m", TypeId::kDecimal), Column("x", TypeId::kDouble),
                       Column("c", TypeId::kChar, 6), Column("v", TypeId::kVarchar)});
  Rng rng(27);
  std::vector<Row> rows;
  for (int i = 0; i < 10000; i++) {
    auto maybe_null = [&rng](int one_in, TypeId t, Value v) {
      return rng.Uniform(0, one_in - 1) == 0 ? Value::Null(t) : std::move(v);
    };
    const double zero = rng.Uniform(0, 1) == 0 ? 0.0 : -0.0;
    const double x = rng.Uniform(0, 9) == 0
                         ? zero
                         : static_cast<double>(rng.Uniform(-1000000, 1000000)) / 8;
    const std::string pad(static_cast<size_t>(rng.Uniform(0, 2)), ' ');
    rows.push_back(
        {Value::Int32(i / 2),  // ties: the uniquifier keeps them apart
         maybe_null(10, TypeId::kInt64,
                    Value::Int64(rng.Uniform(-1000000000000, 1000000000000))),
         maybe_null(8, TypeId::kDecimal, Value::Decimal(rng.Uniform(-99999, 99999))),
         maybe_null(9, TypeId::kDouble, Value::Double(x)),
         maybe_null(7, TypeId::kChar,
                    Value::Char("c" + std::to_string(rng.Uniform(0, 99)) + pad)),
         maybe_null(6, TypeId::kVarchar,
                    Value::Varchar("v" + std::to_string(rng.Uniform(0, 500)) + pad))});
  }
  Batch batch;
  batch.Reset(schema);
  for (const Row& row : rows) batch.AppendRow(row);
  // Two covering indexes between them key and include every type.
  auto declare = [](Table* t) {
    ASSERT_TRUE(t->CreateSecondaryIndex("by_bxc", {1, 3, 4}, {2, 5}).ok());
    ASSERT_TRUE(t->CreateSecondaryIndex("by_vm", {5, 2}, {0, 1, 3, 4}).ok());
  };
  auto loaded = catalog.CreateTable("loaded", schema, {0});
  ASSERT_TRUE(loaded.ok());
  const uint32_t before_declare = disk.NumPages();
  declare(loaded.value());  // built by the load, from its lanes
  ASSERT_TRUE(loaded.value()->BulkLoad(batch).ok());
  const uint32_t load_pages = disk.NumPages() - before_declare;
  auto indexed = catalog.CreateTable("indexed", schema, {0});
  ASSERT_TRUE(indexed.ok());
  const uint32_t before_load = disk.NumPages();
  ASSERT_TRUE(indexed.value()->BulkLoad(batch).ok());
  declare(indexed.value());  // built by CREATE INDEX, read back from the tree
  // Declaring the indexes on the empty table took no page: both orders
  // allocate the same pages, the clustered tree's before the indexes'.
  EXPECT_EQ(load_pages, disk.NumPages() - before_load);
  EXPECT_LT(loaded.value()->clustered().root(),
            loaded.value()->FindIndex("by_bxc")->tree->root());

  for (const char* name : {"by_bxc", "by_vm"}) {
    auto a = loaded.value()->FindIndex(name)->tree->SeekToFirst();
    auto b = indexed.value()->FindIndex(name)->tree->SeekToFirst();
    ASSERT_TRUE(a.ok() && b.ok());
    size_t n = 0;
    for (; a.value().Valid() && b.value().Valid(); n++) {
      ASSERT_EQ(a.value().key(), b.value().key()) << name << " entry " << n;
      ASSERT_EQ(a.value().value(), b.value().value()) << name << " entry " << n;
      ASSERT_TRUE(a.value().Next().ok());
      ASSERT_TRUE(b.value().Next().ok());
    }
    EXPECT_FALSE(a.value().Valid()) << name;
    EXPECT_FALSE(b.value().Valid()) << name;
    EXPECT_EQ(n, rows.size()) << name;
  }

  // The Value reference: a set of each column's non-NULL hashes, and its
  // min and max by Value::Compare, the first of equals kept.
  std::vector<ColumnStats> want(schema.NumColumns());
  for (size_t c = 0; c < schema.NumColumns(); c++) {
    std::set<uint64_t> hashes;
    for (const Row& r : rows) {
      if (r[c].is_null()) {
        want[c].null_count++;
        continue;
      }
      if (hashes.empty() || r[c].Compare(want[c].min) < 0) want[c].min = r[c];
      if (hashes.empty() || r[c].Compare(want[c].max) > 0) want[c].max = r[c];
      hashes.insert(r[c].Hash());
    }
    want[c].distinct = hashes.size();
  }
  const std::vector<ColumnStats> from_load = loaded.value()->stats();
  ExpectSameStats(from_load, indexed.value()->stats(), "two loads");
  ASSERT_TRUE(loaded.value()->Analyze().ok());
  ExpectSameStats(from_load, loaded.value()->stats(), "load vs Analyze");
  for (size_t c = 0; c < schema.NumColumns(); c++) {
    const std::string col = "column " + std::to_string(c);
    EXPECT_EQ(from_load[c].distinct, want[c].distinct) << col;
    EXPECT_EQ(from_load[c].null_count, want[c].null_count) << col;
    EXPECT_EQ(from_load[c].min.Compare(want[c].min), 0) << col;
    EXPECT_EQ(from_load[c].max.Compare(want[c].max), 0) << col;
    EXPECT_EQ(from_load[c].min.type(), schema.ColumnAt(c).type) << col;
  }
  EXPECT_GT(from_load[1].distinct, 4096u);
  EXPECT_GT(from_load[3].null_count, 0u);
  // CHAR statistics are the stored, padded values.
  EXPECT_EQ(from_load[4].min.AsString().size(), 6u);
}

}  // namespace
}  // namespace elephant
