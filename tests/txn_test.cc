#include <gtest/gtest.h>

#include "engine/database.h"
#include "engine/session.h"
#include "mv/view.h"
#include "storage/fault_injection.h"
#include "txn/lock_manager.h"

namespace elephant {
namespace {

/// Transaction semantics through SQL: BEGIN/COMMIT/ROLLBACK, autocommit,
/// aborted-transaction limbo, table locks, and derived-table staleness.
class TxnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.wal_enabled = true;
    options.lock_timeout_seconds = 0.05;  // fail fast in contention tests
    db_ = std::make_unique<Database>(options);
    Exec("CREATE TABLE t (id INT, v VARCHAR) CLUSTER BY (id)");
  }

  QueryResult Exec(const std::string& sql, SessionTxnState* s = nullptr) {
    auto r = db_->Execute(sql, {}, s);
    EXPECT_TRUE(r.ok()) << sql << "\n" << r.status().ToString();
    return r.ok() ? std::move(r).value() : QueryResult{};
  }

  size_t Count(const std::string& table) {
    QueryResult r = Exec("SELECT * FROM " + table);
    return r.rows.size();
  }

  std::unique_ptr<Database> db_;
};

TEST_F(TxnTest, AutocommitInsertUpdateDelete) {
  Exec("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')");
  EXPECT_EQ(Count("t"), 3u);

  QueryResult upd = Exec("UPDATE t SET v = 'bee' WHERE id = 2");
  EXPECT_EQ(upd.counters.rows_output, 1u);
  QueryResult r = Exec("SELECT v FROM t WHERE id = 2");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString(), "bee");

  QueryResult del = Exec("DELETE FROM t WHERE id = 1");
  EXPECT_EQ(del.counters.rows_output, 1u);
  EXPECT_EQ(Count("t"), 2u);
}

TEST_F(TxnTest, DeleteWithoutWhereEmptiesTable) {
  Exec("INSERT INTO t VALUES (1, 'a'), (2, 'b')");
  QueryResult del = Exec("DELETE FROM t");
  EXPECT_EQ(del.counters.rows_output, 2u);
  EXPECT_EQ(Count("t"), 0u);
}

TEST_F(TxnTest, ExplicitCommitMakesWritesVisible) {
  Exec("BEGIN");
  Exec("INSERT INTO t VALUES (1, 'a')");
  Exec("INSERT INTO t VALUES (2, 'b')");
  EXPECT_EQ(Count("t"), 2u);  // visible to the owning session mid-txn
  Exec("COMMIT");
  EXPECT_EQ(Count("t"), 2u);
  const txn::TxnStats stats = db_->txn_manager()->stats();
  EXPECT_EQ(stats.committed, 1u);
  EXPECT_EQ(stats.active, 0u);
}

TEST_F(TxnTest, RollbackUndoesEverything) {
  Exec("INSERT INTO t VALUES (1, 'keep')");
  Exec("BEGIN");
  Exec("INSERT INTO t VALUES (2, 'drop')");
  Exec("UPDATE t SET v = 'mutated' WHERE id = 1");
  Exec("DELETE FROM t WHERE id = 1");
  Exec("ROLLBACK");
  QueryResult r = Exec("SELECT v FROM t WHERE id = 1");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString(), "keep");
  EXPECT_EQ(Count("t"), 1u);
}

TEST_F(TxnTest, RollbackRestoresClusterKeyMove) {
  Exec("INSERT INTO t VALUES (1, 'a')");
  Exec("BEGIN");
  // Updating the clustering key logs as delete+insert; rollback must undo
  // both halves and leave the original row addressable at its old key.
  Exec("UPDATE t SET id = 9 WHERE id = 1");
  QueryResult moved = Exec("SELECT id FROM t WHERE id = 9");
  EXPECT_EQ(moved.rows.size(), 1u);
  Exec("ROLLBACK");
  QueryResult r = Exec("SELECT id FROM t WHERE id = 1");
  EXPECT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(Count("t"), 1u);
}

TEST_F(TxnTest, FailedStatementAbortsTransaction) {
  Exec("BEGIN");
  Exec("INSERT INTO t VALUES (1, 'a')");
  auto bad = db_->Execute("INSERT INTO t VALUES (2)");  // arity mismatch
  ASSERT_FALSE(bad.ok());

  // The transaction is now in limbo: further statements are rejected with
  // the failed statement quoted back.
  auto rejected = db_->Execute("SELECT * FROM t");
  ASSERT_FALSE(rejected.ok());
  const std::string msg = rejected.status().ToString();
  EXPECT_NE(msg.find("current transaction is aborted"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("SELECT * FROM t"), std::string::npos) << msg;
  EXPECT_NE(msg.find("INSERT INTO t VALUES (2)"), std::string::npos) << msg;

  Exec("ROLLBACK");
  EXPECT_EQ(Count("t"), 0u);  // the pre-failure insert rolled back too
}

TEST_F(TxnTest, RollbackFailureSurfacedNotSwallowed) {
  Exec("INSERT INTO t VALUES (1, 'a'), (2, 'b')");
  Exec("BEGIN");
  Exec("UPDATE t SET v = 'x' WHERE id = 1");
  // Push the dirtied heap page out of the pool so rollback's heap undo must
  // re-read it from disk.
  ASSERT_TRUE(db_->EvictCaches().ok());
  FaultInjector injector{FaultPlan{}};
  db_->SetFaultInjector(&injector);
  injector.FailReads(true);
  // The next statement dies on the injected read fault, aborting the
  // transaction — and rollback's heap undo then hits the same fault, so the
  // rollback itself is incomplete. Before the [[nodiscard]] sweep that
  // second failure was discarded with (void): the client saw only the
  // statement error while uncommitted changes silently stayed in the heap.
  auto r = db_->Execute("UPDATE t SET v = 'y' WHERE id = 2");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("rollback also failed"),
            std::string::npos)
      << r.status().ToString();
  EXPECT_EQ(db_->metrics().GetCounter("txn.rollback_failures_total")->value(),
            1u);
  injector.FailReads(false);
  db_->SetFaultInjector(nullptr);
  Exec("ROLLBACK");  // closes the limbo transaction
}

TEST_F(TxnTest, CommitOfAbortedTransactionJustClosesIt) {
  Exec("BEGIN");
  Exec("INSERT INTO t VALUES (1, 'a')");
  ASSERT_FALSE(db_->Execute("INSERT INTO t VALUES (2)").ok());
  Exec("COMMIT");  // acknowledged like ROLLBACK, no error
  EXPECT_EQ(Count("t"), 0u);
}

TEST_F(TxnTest, NestedBeginRejected) {
  Exec("BEGIN");
  auto r = db_->Execute("BEGIN");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("already in progress"),
            std::string::npos);
  Exec("ROLLBACK");
}

TEST_F(TxnTest, CommitWithoutTransactionRejected) {
  EXPECT_FALSE(db_->Execute("COMMIT").ok());
  EXPECT_FALSE(db_->Execute("ROLLBACK").ok());
}

TEST_F(TxnTest, DmlAgainstVirtualTableRejectedWithContext) {
  for (const char* sql :
       {"INSERT INTO elephant_stat_wal VALUES (1)",
        "DELETE FROM elephant_stat_transactions",
        "UPDATE elephant_stat_io SET page_writes = 0"}) {
    auto r = db_->Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    const std::string msg = r.status().ToString();
    EXPECT_NE(msg.find("virtual system table"), std::string::npos) << msg;
    EXPECT_NE(msg.find(sql), std::string::npos) << msg;  // statement quoted
    EXPECT_NE(msg.find("autocommit"), std::string::npos) << msg;
  }
  // Inside a transaction the message reports the transaction state instead.
  Exec("BEGIN");
  auto r = db_->Execute("DELETE FROM elephant_stat_wal");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("transaction state: active"),
            std::string::npos)
      << r.status().ToString();
  Exec("ROLLBACK");
}

TEST_F(TxnTest, DdlInsideTransactionRejected) {
  Exec("BEGIN");
  auto ct = db_->Execute("CREATE TABLE u (id INT) CLUSTER BY (id)");
  ASSERT_FALSE(ct.ok());
  EXPECT_NE(ct.status().ToString().find("DDL is not transactional"),
            std::string::npos);
  auto ci = db_->Execute("CREATE INDEX t_v ON t (v)");
  EXPECT_FALSE(ci.ok());
  Exec("ROLLBACK");
  Exec("CREATE TABLE u (id INT) CLUSTER BY (id)");  // fine outside
}

TEST_F(TxnTest, SessionsTransactIndependently) {
  Session a(db_.get(), 1), b(db_.get(), 2);
  ASSERT_TRUE(a.Execute("BEGIN").ok());
  ASSERT_TRUE(a.Execute("INSERT INTO t VALUES (1, 'a')").ok());
  EXPECT_TRUE(a.in_transaction());
  EXPECT_FALSE(b.in_transaction());
  // b's write waits on a's exclusive lock and times out -> aborted.
  auto blocked = b.Execute("INSERT INTO t VALUES (2, 'b')");
  ASSERT_FALSE(blocked.ok());
  EXPECT_TRUE(blocked.status().IsAborted()) << blocked.status().ToString();
  ASSERT_TRUE(a.Execute("COMMIT").ok());
  // With the lock released, b succeeds.
  ASSERT_TRUE(b.Execute("INSERT INTO t VALUES (2, 'b')").ok());
  EXPECT_EQ(Count("t"), 2u);
  EXPECT_GE(db_->lock_manager()->timeouts(), 1u);
}

TEST_F(TxnTest, ReadersBlockWriterUntilStatementEnd) {
  Exec("INSERT INTO t VALUES (1, 'a')");
  // A plain SELECT's shared locks are statement-scoped: they are gone by the
  // time the next statement runs, so a writer right after is not blocked.
  Exec("SELECT * FROM t");
  Exec("INSERT INTO t VALUES (2, 'b')");
  EXPECT_EQ(Count("t"), 2u);
}

TEST_F(TxnTest, StatTransactionsTableCounts) {
  Exec("BEGIN");
  Exec("INSERT INTO t VALUES (1, 'a')");
  Exec("COMMIT");
  Exec("BEGIN");
  Exec("INSERT INTO t VALUES (2, 'b')");
  Exec("ROLLBACK");
  QueryResult r = Exec("SELECT begun, committed, aborted, active FROM "
                       "elephant_stat_transactions");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_GE(r.rows[0][0].AsInt64(), 2);
  EXPECT_GE(r.rows[0][1].AsInt64(), 1);
  EXPECT_GE(r.rows[0][2].AsInt64(), 1);
  EXPECT_EQ(r.rows[0][3].AsInt64(), 0);
}

TEST_F(TxnTest, StatWalTableTracksFlushes) {
  QueryResult before = Exec("SELECT flushes, durable_lsn FROM elephant_stat_wal");
  Exec("INSERT INTO t VALUES (1, 'a')");  // autocommit -> group flush
  QueryResult after = Exec("SELECT flushes, durable_lsn FROM elephant_stat_wal");
  EXPECT_GT(after.rows[0][0].AsInt64(), before.rows[0][0].AsInt64());
  EXPECT_GT(after.rows[0][1].AsInt64(), before.rows[0][1].AsInt64());
}

TEST_F(TxnTest, WalMetricsExported) {
  Exec("INSERT INTO t VALUES (1, 'a')");
  const std::string prom = db_->ExportMetrics();
  EXPECT_NE(prom.find("elephant_wal_flushes_total"), std::string::npos);
  EXPECT_NE(prom.find("elephant_wal_bytes_total"), std::string::npos);
  EXPECT_NE(prom.find("elephant_txn_commits_total"), std::string::npos);
  EXPECT_NE(prom.find("elephant_txn_aborts_total"), std::string::npos);
}

TEST_F(TxnTest, CheckpointStatement) {
  Exec("INSERT INTO t VALUES (1, 'a')");
  Exec("CHECKPOINT");
  QueryResult r = Exec("SELECT checkpoint_lsn FROM elephant_stat_wal");
  EXPECT_GT(r.rows[0][0].AsInt64(), 0);
}

TEST_F(TxnTest, MaterializedViewStaleAfterBaseWriteRebuiltOnRead) {
  Exec("INSERT INTO t VALUES (1, 'a'), (2, 'a'), (3, 'b')");
  mv::ViewManager views(db_.get());
  mv::ViewDef def;
  def.name = "t_by_v";
  def.tables = {"t"};
  def.group_cols = {"v"};
  def.aggs = {{AggFunc::kCountStar, "", "n"}};
  ASSERT_TRUE(views.CreateView(def).ok());
  QueryResult r1 = Exec("SELECT * FROM t_by_v");
  EXPECT_EQ(r1.rows.size(), 2u);  // groups: a, b

  Exec("INSERT INTO t VALUES (4, 'c')");
  EXPECT_TRUE(db_->catalog().IsStale("t_by_v"));
  QueryResult r2 = Exec("SELECT * FROM t_by_v");  // read triggers rebuild
  EXPECT_EQ(r2.rows.size(), 3u);
  EXPECT_FALSE(db_->catalog().IsStale("t_by_v"));
}

TEST_F(TxnTest, RollbackAfterRefreshInsideTransactionRestalesView) {
  Exec("INSERT INTO t VALUES (1, 'a'), (2, 'a'), (3, 'b')");
  mv::ViewManager views(db_.get());
  mv::ViewDef def;
  def.name = "t_by_v";
  def.tables = {"t"};
  def.group_cols = {"v"};
  def.aggs = {{AggFunc::kCountStar, "", "n"}};
  ASSERT_TRUE(views.CreateView(def).ok());

  // Explicit ROLLBACK: the read inside the transaction refreshed the view
  // with the new group; the rollback must leave it stale, not stale-free.
  Exec("BEGIN");
  Exec("INSERT INTO t VALUES (4, 'c')");
  EXPECT_EQ(Exec("SELECT * FROM t_by_v").rows.size(), 3u);
  Exec("ROLLBACK");
  EXPECT_TRUE(db_->catalog().IsStale("t_by_v"));
  EXPECT_EQ(Exec("SELECT * FROM t_by_v").rows.size(), 2u);

  // A failed statement's abort rolls back the same way.
  Exec("BEGIN");
  Exec("INSERT INTO t VALUES (5, 'd')");
  EXPECT_EQ(Exec("SELECT * FROM t_by_v").rows.size(), 3u);
  ASSERT_FALSE(db_->Execute("INSERT INTO t VALUES (6)").ok());
  EXPECT_TRUE(db_->catalog().IsStale("t_by_v"));
  Exec("ROLLBACK");
  EXPECT_EQ(Exec("SELECT * FROM t_by_v").rows.size(), 2u);

  // So does a failed autocommit statement that wrote rows before failing.
  ASSERT_FALSE(db_->Execute("INSERT INTO t VALUES (7, 'e'), (8)").ok());
  EXPECT_EQ(Count("t"), 3u);
  EXPECT_EQ(Exec("SELECT * FROM t_by_v").rows.size(), 2u);
}

TEST_F(TxnTest, RefreshPathIsObservable) {
  Exec("INSERT INTO t VALUES (1, 'a'), (2, 'a'), (3, 'b')");
  mv::ViewManager views(db_.get());
  mv::ViewDef def;
  def.name = "t_by_v";
  def.tables = {"t"};
  def.group_cols = {"v"};
  def.aggs = {{AggFunc::kCountStar, "", "n"}};
  ASSERT_TRUE(views.CreateView(def).ok());
  auto counter = [this](const char* name) {
    return db_->metrics().GetCounter(name)->value();
  };

  // A committed INSERT is merged as a delta by the next read.
  Exec("INSERT INTO t VALUES (4, 'c'), (5, 'a')");
  EXPECT_EQ(Exec("SELECT * FROM t_by_v").rows.size(), 3u);
  EXPECT_EQ(counter("mv.refresh.delta_total"), 1u);
  EXPECT_EQ(counter("mv.refresh.delta_rows_total"), 2u);
  EXPECT_EQ(counter("mv.refresh.full_total"), 0u);

  // A DELETE (and likewise an UPDATE) is an unknown change: full rebuild.
  Exec("DELETE FROM t WHERE id = 4");
  EXPECT_EQ(Exec("SELECT * FROM t_by_v").rows.size(), 2u);
  Exec("UPDATE t SET v = 'b' WHERE id = 1");
  EXPECT_EQ(Exec("SELECT v, n FROM t_by_v WHERE v = 'b'").rows[0][1].AsInt64(), 2);
  EXPECT_EQ(counter("mv.refresh.delta_total"), 1u);
  EXPECT_EQ(counter("mv.refresh.full_total"), 2u);
  EXPECT_NE(db_->ExportMetrics().find("mv_refresh_delta_total"), std::string::npos);

  // A backlog over half the base (5 rows into a base that then has 9) is
  // not kept in the insert log: the next read rebuilds in full.
  Exec("INSERT INTO t VALUES (6, 'a'), (7, 'a'), (8, 'b'), (9, 'd'), (10, 'd')");
  QueryResult r = Exec("SELECT v, n FROM t_by_v ORDER BY v");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][1].AsInt64(), 4);  // a
  EXPECT_EQ(r.rows[1][1].AsInt64(), 3);  // b
  EXPECT_EQ(r.rows[2][1].AsInt64(), 2);  // d
  EXPECT_EQ(counter("mv.refresh.delta_total"), 1u);
  EXPECT_EQ(counter("mv.refresh.full_total"), 3u);
}

TEST_F(TxnTest, ReadNeverMergesAnotherTransactionsUncommittedInserts) {
  Exec("INSERT INTO t VALUES (1, 'a'), (2, 'b')");
  mv::ViewManager views(db_.get());
  mv::ViewDef def;
  def.name = "t_by_v";
  def.tables = {"t"};
  def.group_cols = {"v"};
  def.aggs = {{AggFunc::kCountStar, "", "n"}};
  ASSERT_TRUE(views.CreateView(def).ok());
  Session writer(db_.get(), 1), reader(db_.get(), 2);

  // The reader's refresh needs a shared lock on t, which the writer's
  // uncommitted insert holds exclusively: the read times out, as a full
  // rebuild's SQL would, and merges nothing.
  ASSERT_TRUE(writer.Execute("BEGIN").ok());
  ASSERT_TRUE(writer.Execute("INSERT INTO t VALUES (3, 'c')").ok());
  auto blocked = reader.Execute("SELECT * FROM t_by_v");
  ASSERT_FALSE(blocked.ok());
  EXPECT_TRUE(blocked.status().IsAborted()) << blocked.status().ToString();
  EXPECT_EQ(db_->metrics().GetCounter("mv.refresh.delta_total")->value(), 0u);
  ASSERT_TRUE(writer.Execute("ROLLBACK").ok());
  // The rolled-back row left the insert log: nothing is pending.
  EXPECT_FALSE(db_->catalog().IsStale("t_by_v"));
  EXPECT_EQ(reader.Execute("SELECT * FROM t_by_v").value().rows.size(), 2u);

  ASSERT_TRUE(writer.Execute("BEGIN").ok());
  ASSERT_TRUE(writer.Execute("INSERT INTO t VALUES (4, 'd')").ok());
  EXPECT_FALSE(reader.Execute("SELECT * FROM t_by_v").ok());
  ASSERT_TRUE(writer.Execute("COMMIT").ok());
  EXPECT_EQ(reader.Execute("SELECT * FROM t_by_v").value().rows.size(), 3u);
  EXPECT_EQ(db_->metrics().GetCounter("mv.refresh.delta_total")->value(), 1u);
}

TEST_F(TxnTest, WritingDerivedTableRejected) {
  Exec("INSERT INTO t VALUES (1, 'a')");
  mv::ViewManager views(db_.get());
  mv::ViewDef def;
  def.name = "t_by_v";
  def.tables = {"t"};
  def.group_cols = {"v"};
  def.aggs = {{AggFunc::kCountStar, "", "n"}};
  ASSERT_TRUE(views.CreateView(def).ok());
  auto r = db_->Execute("INSERT INTO t_by_v VALUES ('x', 1)");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("derived"), std::string::npos)
      << r.status().ToString();
}

/// The WAL steal path: an open transaction dirties more pages than a tiny
/// pool holds, so eviction writes back pages whose log records are not yet
/// durable. The pool flushes the log first with its latch released (an
/// fsync under the latch aborts), and recovery matches the committed state
/// whether the transaction commits or rolls back.
void StealThenRecover(bool commit) {
  DatabaseOptions options;
  options.wal_enabled = true;
  options.buffer_pool_pages = 16;
  Database db(options);
  auto exec = [](Database& d, const std::string& sql) {
    auto r = d.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << "\n" << r.status().ToString();
    return r.ok() ? std::move(r).value() : QueryResult{};
  };
  exec(db, "CREATE TABLE t (id INT, v VARCHAR) CLUSTER BY (id)");
  exec(db, "INSERT INTO t VALUES (0, 'committed')");
  exec(db, "BEGIN");
  const uint64_t flushes = db.wal()->stats().flushes;
  const uint64_t evictions = db.pool().stats().evictions;
  const std::string pad(200, 'x');
  for (int batch = 0; batch < 20; batch++) {
    std::string sql = "INSERT INTO t VALUES ";
    for (int i = 1; i <= 50; i++) {
      if (i > 1) sql += ", ";
      sql += "(" + std::to_string(batch * 50 + i) + ", '" + pad + "')";
    }
    exec(db, sql);
  }
  // No commit has asked for a flush yet: these are steals.
  EXPECT_GT(db.pool().stats().evictions, evictions);
  EXPECT_GT(db.wal()->stats().flushes, flushes);
  exec(db, commit ? "COMMIT" : "ROLLBACK");

  const size_t expected = commit ? 1001 : 1;
  EXPECT_EQ(exec(db, "SELECT * FROM t").rows.size(), expected);
  auto reopened = Database::Reopen(options, db.CloneDurableImage());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(exec(*reopened.value(), "SELECT * FROM t").rows.size(), expected);
  QueryResult base = exec(*reopened.value(), "SELECT v FROM t WHERE id = 0");
  ASSERT_EQ(base.rows.size(), 1u);
  EXPECT_EQ(base.rows[0][0].AsString(), "committed");
}

TEST(TxnStealTest, CommitAfterStealRecovers) { StealThenRecover(true); }

TEST(TxnStealTest, RollbackAfterStealRecovers) { StealThenRecover(false); }

/// DML and transaction control on a non-WAL engine fail loudly instead of
/// silently running without durability.
TEST(TxnWithoutWalTest, RequiresWalEngine) {
  Database db;  // wal_enabled = false
  ASSERT_TRUE(
      db.Execute("CREATE TABLE t (id INT) CLUSTER BY (id)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1)").ok());  // bulk-load path
  auto del = db.Execute("DELETE FROM t");
  ASSERT_FALSE(del.ok());
  EXPECT_NE(del.status().ToString().find("wal_enabled"), std::string::npos);
  EXPECT_FALSE(db.Execute("UPDATE t SET id = 2").ok());
  EXPECT_FALSE(db.Execute("BEGIN").ok());
  EXPECT_FALSE(db.Execute("CHECKPOINT").ok());
}

}  // namespace
}  // namespace elephant
