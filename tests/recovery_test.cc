#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "engine/database.h"
#include "mv/view.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/fault_injection.h"
#include "wal/log_manager.h"

namespace elephant {
namespace {

/// Crash recovery through the simulated-reboot cycle: run a workload, clone
/// the durable image (optionally mid-crash via fault injection), Reopen,
/// and check that exactly the committed work survived.
class RecoveryTest : public ::testing::Test {
 protected:
  static DatabaseOptions WalOptions() {
    DatabaseOptions options;
    options.wal_enabled = true;
    return options;
  }

  static std::unique_ptr<Database> FreshDb() {
    auto db = std::make_unique<Database>(WalOptions());
    Run(*db, "CREATE TABLE t (id INT, v VARCHAR) CLUSTER BY (id)");
    return db;
  }

  static QueryResult Run(Database& db, const std::string& sql) {
    auto r = db.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << "\n" << r.status().ToString();
    return r.ok() ? std::move(r).value() : QueryResult{};
  }

  static std::unique_ptr<Database> Reboot(const Database& db) {
    auto reopened = Database::Reopen(WalOptions(), db.CloneDurableImage());
    EXPECT_TRUE(reopened.ok()) << reopened.status().ToString();
    return reopened.ok() ? std::move(reopened).value() : nullptr;
  }

  static size_t Count(Database& db, const std::string& table) {
    return Run(db, "SELECT * FROM " + table).rows.size();
  }
};

TEST_F(RecoveryTest, CommittedAutocommitWritesSurvive) {
  auto db = FreshDb();
  Run(*db, "INSERT INTO t VALUES (1, 'a'), (2, 'b')");
  Run(*db, "UPDATE t SET v = 'bee' WHERE id = 2");
  Run(*db, "DELETE FROM t WHERE id = 1");
  // No checkpoint after the writes: everything data-page-side may still be
  // only in the buffer pool; the WAL alone must carry it across the reboot.
  auto recovered = Reboot(*db);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(Count(*recovered, "t"), 1u);
  QueryResult r = Run(*recovered, "SELECT v FROM t WHERE id = 2");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString(), "bee");
  EXPECT_GE(recovered->recovery_stats().committed_txns, 3u);
}

TEST_F(RecoveryTest, UncommittedTransactionVanishes) {
  auto db = FreshDb();
  Run(*db, "INSERT INTO t VALUES (1, 'committed')");
  Run(*db, "BEGIN");
  Run(*db, "INSERT INTO t VALUES (2, 'in-flight')");
  // Force the in-flight insert's log and pages toward disk so recovery has
  // something to undo (not just nothing to redo).
  ASSERT_TRUE(db->wal()->Flush().ok());
  ASSERT_TRUE(db->pool().FlushAll().ok());
  auto recovered = Reboot(*db);  // crash with the transaction open
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(Count(*recovered, "t"), 1u);
  QueryResult r = Run(*recovered, "SELECT v FROM t");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString(), "committed");
  EXPECT_EQ(recovered->recovery_stats().loser_txns, 1u);
  EXPECT_GE(recovered->recovery_stats().clrs_written, 1u);
}

TEST_F(RecoveryTest, RecoveryIsIdempotent) {
  auto db = FreshDb();
  Run(*db, "INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')");
  auto once = Reboot(*db);
  ASSERT_NE(once, nullptr);
  auto twice = Reboot(*once);  // recover the recovered image again
  ASSERT_NE(twice, nullptr);
  EXPECT_EQ(Count(*twice, "t"), 3u);
  // The second recovery starts from the first one's closing checkpoint, so
  // nothing needs redoing.
  EXPECT_EQ(twice->recovery_stats().redo_applied, 0u);
}

TEST_F(RecoveryTest, CheckpointBoundsRedo) {
  auto db = FreshDb();
  Run(*db, "INSERT INTO t VALUES (1, 'a')");
  Run(*db, "CHECKPOINT");
  Run(*db, "INSERT INTO t VALUES (2, 'b')");
  auto recovered = Reboot(*db);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(Count(*recovered, "t"), 2u);
  // Only the post-checkpoint insert needed replaying.
  EXPECT_GE(recovered->recovery_stats().redo_applied, 1u);
  EXPECT_LE(recovered->recovery_stats().redo_applied, 4u);
}

TEST_F(RecoveryTest, SecondaryIndexRebuiltFromHeap) {
  auto db = FreshDb();
  Run(*db, "CREATE INDEX t_v ON t (v)");
  Run(*db, "INSERT INTO t VALUES (1, 'x'), (2, 'y')");
  auto recovered = Reboot(*db);
  ASSERT_NE(recovered, nullptr);
  QueryResult r = Run(*recovered, "SELECT v FROM t WHERE v = 'y'");
  ASSERT_EQ(r.rows.size(), 1u);
}

TEST_F(RecoveryTest, CrashAtEveryEarlyWriteRecoversConsistently) {
  // Narrow in-test sweep (the full matrix lives in tools/crash_matrix):
  // crash at each of the first durable ops of a known workload and verify
  // the recovered table is exactly the committed prefix.
  for (uint64_t crash_at = 1; crash_at <= 8; crash_at++) {
    auto db = FreshDb();
    FaultInjector injector(
        FaultPlan{FaultPlan::Mode::kCrashAtWrite, crash_at, 0, 0});
    db->SetFaultInjector(&injector);
    size_t committed = 0;
    for (int i = 1; i <= 6; i++) {
      auto r = db->Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                           ", 'v" + std::to_string(i) + "')");
      if (!r.ok()) break;  // the simulated machine died mid-statement
      committed++;
    }
    db->SetFaultInjector(nullptr);
    DurableImage image = db->CloneDurableImage();
    db.reset();
    auto recovered = Database::Reopen(WalOptions(), std::move(image));
    ASSERT_TRUE(recovered.ok())
        << "crash_at=" << crash_at << ": " << recovered.status().ToString();
    // Every acknowledged commit must be present; a statement that died
    // mid-commit may or may not have reached the log, but the table must
    // never hold more than was attempted nor fewer than acknowledged.
    const size_t rows = Count(*recovered.value(), "t");
    EXPECT_GE(rows, committed) << "crash_at=" << crash_at;
    EXPECT_LE(rows, committed + 1) << "crash_at=" << crash_at;
  }
}

TEST_F(RecoveryTest, TornFinalLogFlushTruncatedAtBadRecord) {
  auto db = FreshDb();
  Run(*db, "INSERT INTO t VALUES (1, 'a')");
  // The next flush persists only 3 bytes of whatever it writes: a torn
  // final record recovery must detect (bad CRC) and truncate.
  FaultInjector injector(
      FaultPlan{FaultPlan::Mode::kTornLogFlush, 1, 3, 0});
  db->SetFaultInjector(&injector);
  auto r = db->Execute("INSERT INTO t VALUES (2, 'b')");
  EXPECT_FALSE(r.ok());  // its commit flush tore -> not committed
  db->SetFaultInjector(nullptr);
  DurableImage image = db->CloneDurableImage();
  db.reset();
  auto recovered = Database::Reopen(WalOptions(), std::move(image));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(Count(*recovered.value(), "t"), 1u);
}

TEST_F(RecoveryTest, DroppedFsyncsNeverInventCommits) {
  auto db = FreshDb();
  Run(*db, "INSERT INTO t VALUES (1, 'a')");
  // After the first post-setup fsync the drive starts lying: syncs return
  // as if they happened but persist nothing new.
  FaultInjector injector(FaultPlan{FaultPlan::Mode::kDropFsync, 0, 0, 1});
  db->SetFaultInjector(&injector);
  size_t acknowledged = 1;
  for (int i = 2; i <= 4; i++) {
    auto r = db->Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                         ", 'v')");
    if (r.ok()) acknowledged++;
  }
  db->SetFaultInjector(nullptr);
  DurableImage image = db->CloneDurableImage();
  db.reset();
  auto recovered = Database::Reopen(WalOptions(), std::move(image));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  // With dropped fsyncs the durable prefix may lag the acknowledged state,
  // but recovery must still produce a consistent table — whole rows from a
  // prefix of the insert sequence, never a torn or phantom row.
  QueryResult r = Run(*recovered.value(), "SELECT id FROM t");
  EXPECT_LE(r.rows.size(), acknowledged);
  for (size_t i = 0; i < r.rows.size(); i++) {
    EXPECT_EQ(r.rows[i][0].AsInt32(), static_cast<int32_t>(i + 1));
  }
}

TEST_F(RecoveryTest, DerivedTablesMarkedStaleAfterRecovery) {
  auto db = FreshDb();
  Run(*db, "INSERT INTO t VALUES (1, 'a')");
  // Catalog-level check: derived registration is itself serialized in the
  // catalog blob, and Reopen marks every derived table stale.
  auto recovered = Reboot(*db);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(Count(*recovered, "t"), 1u);
}

TEST_F(RecoveryTest, UnreadInsertsRebuildTheViewAfterReopen) {
  auto db = FreshDb();
  Run(*db, "INSERT INTO t VALUES (1, 'a'), (2, 'b')");
  mv::ViewDef def;
  def.name = "t_by_v";
  def.tables = {"t"};
  def.group_cols = {"v"};
  def.aggs = {{AggFunc::kCountStar, "", "n"}, {AggFunc::kMax, "id", "top"}};
  {
    mv::ViewManager views(db.get());
    ASSERT_TRUE(views.CreateView(def).ok());
  }
  Run(*db, "CHECKPOINT");
  // Committed inserts the view never read: pending rows are volatile, so
  // the reopened engine must rebuild rather than trust the stale contents.
  Run(*db, "INSERT INTO t VALUES (3, 'a'), (4, 'c')");
  auto recovered = Reboot(*db);
  ASSERT_NE(recovered, nullptr);
  mv::ViewManager views(recovered.get());
  ASSERT_TRUE(views.AttachView(def).ok());
  ASSERT_TRUE(recovered->catalog().IsStale("t_by_v"));
  QueryResult stored = Run(*recovered, "SELECT v, n, top FROM t_by_v ORDER BY v");
  QueryResult expected = Run(
      *recovered, "SELECT v, COUNT(*), MAX(id) FROM t GROUP BY v ORDER BY v");
  ASSERT_EQ(stored.rows.size(), 3u);
  ASSERT_EQ(stored.rows.size(), expected.rows.size());
  for (size_t r = 0; r < expected.rows.size(); r++) {
    for (size_t c = 0; c < 3; c++) {
      EXPECT_EQ(stored.rows[r][c].Compare(expected.rows[r][c]), 0);
    }
  }
  EXPECT_EQ(recovered->metrics().GetCounter("mv.refresh.full_total")->value(), 1u);
  EXPECT_EQ(recovered->metrics().GetCounter("mv.refresh.delta_total")->value(), 0u);
}

// WAL order at the pool/log boundary: write-back makes the log durable past
// a dirty page's LSN first, and a page stamped with an LSN past the end of
// the log fails with Internal instead of reaching disk.
TEST(WalOrderTest, PageLsnPastTheLogFailsFlushAll) {
  DiskManager disk;
  BufferPool pool(&disk, 4);
  wal::LogManager log(&disk);
  pool.SetWalFlushCallback([&log](lsn_t lsn) { return log.FlushUntil(lsn); });
  auto stamp = [&](page_id_t pid, lsn_t lsn) {
    auto guard = pool.FetchPageGuarded(pid);
    ASSERT_TRUE(guard.ok());
    pool.RecordPageLsn(pid, lsn);
    guard.value().MarkDirty();
  };
  page_id_t pid;
  ASSERT_TRUE(pool.NewPageGuarded(&pid).ok());

  const lsn_t appended = log.AppendCheckpoint();
  stamp(pid, appended);
  EXPECT_FALSE(log.IsDurable(appended));
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_TRUE(log.IsDurable(appended));

  const uint64_t writes = disk.stats().page_writes;
  stamp(pid, log.stats().current_lsn + 100);
  Status s = pool.FlushAll();
  EXPECT_EQ(s.code(), StatusCode::kInternal) << s.ToString();
  EXPECT_EQ(disk.stats().page_writes, writes);
}

}  // namespace
}  // namespace elephant
