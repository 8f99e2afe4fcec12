#include <gtest/gtest.h>

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
  auto it = t.value()->ScanAll();
  ASSERT_TRUE(it.ok());
  std::vector<int> seen;
  while (it.value().Valid()) {
    Row row;
    ASSERT_TRUE(it.value().Current(&row).ok());
    seen.push_back(row[0].AsInt32());
    ASSERT_TRUE(it.value().Next().ok());
  }
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
  auto it = t.value()->ScanAll();
  ASSERT_TRUE(it.ok());
  int n = 0;
  while (it.value().Valid()) {
    n++;
    ASSERT_TRUE(it.value().Next().ok());
  }
  EXPECT_EQ(n, 10);
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
  auto it = t.value()->ScanRange(lo, hi);
  ASSERT_TRUE(it.ok());
  int n = 0, first = -1, last = -1;
  while (it.value().Valid()) {
    Row row;
    ASSERT_TRUE(it.value().Current(&row).ok());
    if (first < 0) first = row[0].AsInt32();
    last = row[0].AsInt32();
    n++;
    ASSERT_TRUE(it.value().Next().ok());
  }
  EXPECT_EQ(n, 10);
  EXPECT_EQ(first, 20);
  EXPECT_EQ(last, 29);
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
  auto it = t.value()->ScanAll();
  ASSERT_TRUE(it.ok());
  int prev = -1;
  while (it.value().Valid()) {
    int v = it.value().CurrentColumn(0).AsInt32();
    EXPECT_GE(v, prev);
    prev = v;
    ASSERT_TRUE(it.value().Next().ok());
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
  std::vector<std::pair<std::string, Row>> victims;
  {
    auto it = t.value()->ScanRange(lo, keycodec::PrefixUpperBound(lo));
    ASSERT_TRUE(it.ok());
    while (it.value().Valid()) {
      Row row;
      ASSERT_TRUE(it.value().Current(&row).ok());
      victims.emplace_back(std::string(it.value().EncodedKey()), std::move(row));
      ASSERT_TRUE(it.value().Next().ok());
    }
  }
  ASSERT_EQ(victims.size(), 5u);
  for (const auto& [ckey, row] : victims) {
    ASSERT_TRUE(t.value()->Delete(ckey, row, TxnWriteContext{}).ok());
  }
  EXPECT_EQ(t.value()->row_count(), 15u);
  SecondaryIndex* idx = t.value()->FindIndex("idx_grp");
  EXPECT_EQ(idx->tree->CountEntries().value(), 15u);
  auto left = t.value()->ScanRange(lo, keycodec::PrefixUpperBound(lo));
  ASSERT_TRUE(left.ok());
  EXPECT_FALSE(left.value().Valid());
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
  // definition of the distinct count Analyze computes with a sort instead.
  // 10,000 rows compact the hash vectors mid-scan several times, and the
  // key column's distinct count outgrows the first compaction threshold.
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

}  // namespace
}  // namespace elephant
