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

/// Every (key, value) entry of a tree, in key order.
std::vector<std::pair<std::string, std::string>> Entries(const BPlusTree& tree) {
  std::vector<std::pair<std::string, std::string>> out;
  auto it = tree.SeekToFirst();
  EXPECT_TRUE(it.ok());
  while (it.ok() && it.value().Valid()) {
    out.emplace_back(std::string(it.value().key()), std::string(it.value().value()));
    EXPECT_TRUE(it.value().Next().ok());
  }
  return out;
}

TEST_F(TxnTest, RollbackOfSplittingInsertsRestoresEveryTree) {
  Exec("CREATE INDEX t_v ON t (v)");
  const std::string pad(200, 'p');
  Exec("INSERT INTO t VALUES (0, 'zero" + pad + "'), (1000, 'last" + pad + "')");
  auto found = db_->catalog().GetTable("t");
  ASSERT_TRUE(found.ok());
  Table* table = found.value();
  const BPlusTree& clustered = table->clustered();
  const BPlusTree& secondary = *table->secondary_indexes()[0]->tree;
  const auto clustered_before = Entries(clustered);
  const auto secondary_before = Entries(secondary);
  const page_id_t root = clustered.root();
  const uint32_t height_before = clustered.Height().value();

  Exec("BEGIN");
  for (int batch = 0; batch < 10; batch++) {
    std::string sql = "INSERT INTO t VALUES ";
    for (int i = 1; i <= 30; i++) {
      const int id = batch * 30 + i;
      sql += (i > 1 ? ", (" : "(") + std::to_string(id) + ", '" +
             std::to_string(id % 7) + pad + std::to_string(id) + "')";
    }
    Exec(sql);
  }
  ASSERT_GT(clustered.Height().value(), height_before);  // the root split
  ASSERT_GT(Entries(secondary).size(), 300u);
  Exec("ROLLBACK");

  // The splits stay (they are redo-only), but every entry they carried is
  // gone again, and the root page never moved.
  EXPECT_EQ(clustered.root(), root);
  EXPECT_EQ(Entries(clustered), clustered_before);
  EXPECT_EQ(Entries(secondary), secondary_before);
  EXPECT_EQ(table->row_count(), 2u);
  EXPECT_EQ(Count("t"), 2u);
}

TEST_F(TxnTest, UpdateRejectsValuesItsColumnCannotHold) {
  Exec("CREATE TABLE n (id INT64, v INT32, s VARCHAR(8))");
  Exec("INSERT INTO n VALUES (1, 5, 'ab')");
  auto expect_unchanged = [&](const std::string& context) {
    QueryResult r = Exec("SELECT v, s FROM n");
    ASSERT_EQ(r.rows.size(), 1u) << context;
    EXPECT_EQ(r.rows[0][0].AsInt32(), 5) << context;
    EXPECT_EQ(r.rows[0][1].AsString(), "ab") << context;
  };
  for (const std::string sql :
       {"UPDATE n SET v = 99999999999", "UPDATE n SET v = 'abc'",
        "UPDATE n SET s = 12345678901"}) {
    auto r = db_->Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << sql << ": " << r.status().ToString();
    expect_unchanged(sql);
  }
  // Inside an explicit transaction the failed cast parks it in aborted
  // limbo, and the rollback takes the earlier statement with it.
  Exec("BEGIN");
  Exec("UPDATE n SET s = 'cd'");
  auto r = db_->Execute("UPDATE n SET v = 'abc'");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  auto next = db_->Execute("SELECT * FROM n");
  ASSERT_FALSE(next.ok());
  EXPECT_NE(next.status().message().find("current transaction is aborted"),
            std::string::npos)
      << next.status().ToString();
  Exec("ROLLBACK");
  expect_unchanged("after ROLLBACK");
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
  // Push the dirtied leaf out of the pool so rollback's undo must re-read
  // it from disk.
  ASSERT_TRUE(db_->EvictCaches().ok());
  FaultInjector injector{FaultPlan{}};
  db_->SetFaultInjector(&injector);
  injector.FailReads(true);
  // The next statement dies on the injected read fault, aborting the
  // transaction — and rollback's undo then hits the same fault, so the
  // rollback itself is incomplete. Before the [[nodiscard]] sweep that
  // second failure was discarded with (void): the client saw only the
  // statement error while uncommitted changes silently stayed behind.
  auto r = db_->Execute("UPDATE t SET v = 'y' WHERE id = 2");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("rollback also failed"),
            std::string::npos)
      << r.status().ToString();
  EXPECT_EQ(db_->stats().rollback_failures.load(),
            1u);
  injector.FailReads(false);
  db_->SetFaultInjector(nullptr);
  Exec("ROLLBACK");  // closes the limbo transaction

  // The change the failed undo left behind stays locked until a restart:
  // no other session may read it or build a committed change on it.
  SessionTxnState other;
  EXPECT_FALSE(db_->Execute("DELETE FROM t WHERE id = 1", {}, &other).ok());
  EXPECT_FALSE(db_->Execute("SELECT v FROM t", {}, &other).ok());
  DatabaseOptions options;
  options.wal_enabled = true;
  auto reopened = Database::Reopen(options, db_->CloneDurableImage());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto rows = reopened.value()->Execute("SELECT id, v FROM t");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows.value().rows.size(), 2u);
  EXPECT_EQ(rows.value().rows[0][1].AsString(), "a");
  EXPECT_EQ(rows.value().rows[1][1].AsString(), "b");
}

TEST_F(TxnTest, FailedCommitKeepsLocksUntilRestart) {
  Exec("INSERT INTO t VALUES (1, 'a')");
  Exec("BEGIN");
  Exec("INSERT INTO t VALUES (2, 'b')");
  // The machine dies at the COMMIT's log flush, its first durable op.
  FaultPlan plan;
  plan.mode = FaultPlan::Mode::kCrashAtWrite;
  plan.crash_after_ops = 1;
  FaultInjector injector(plan);
  db_->SetFaultInjector(&injector);
  auto commit = db_->Execute("COMMIT");
  ASSERT_FALSE(commit.ok());
  ASSERT_TRUE(injector.crashed());

  // The transaction did not commit, and recovery undoes its row at the
  // restart; until then another session may not read it.
  SessionTxnState other;
  auto read = db_->Execute("SELECT COUNT(*) FROM t", {}, &other);
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.status().message().find("lock wait timeout"),
            std::string::npos)
      << read.status().ToString();
  db_->SetFaultInjector(nullptr);
  DatabaseOptions options;
  options.wal_enabled = true;
  auto reopened = Database::Reopen(options, db_->CloneDurableImage());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto rows = reopened.value()->Execute("SELECT id FROM t");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows.value().rows.size(), 1u);
  EXPECT_EQ(rows.value().rows[0][0].AsInt32(), 1);
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
  EXPECT_NE(prom.find("elephant_stat_wal_flushes "), std::string::npos);
  EXPECT_NE(prom.find("elephant_stat_wal_bytes_flushed "), std::string::npos);
  EXPECT_NE(prom.find("elephant_stat_transactions_committed "),
            std::string::npos);
  EXPECT_NE(prom.find("elephant_stat_transactions_aborted "),
            std::string::npos);
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
  const DatabaseStats& stats = db_->stats();

  // A committed INSERT is merged as a delta by the next read.
  Exec("INSERT INTO t VALUES (4, 'c'), (5, 'a')");
  EXPECT_EQ(Exec("SELECT * FROM t_by_v").rows.size(), 3u);
  EXPECT_EQ(stats.view_delta_refreshes.load(), 1u);
  EXPECT_EQ(stats.view_delta_rows.load(), 2u);
  EXPECT_EQ(stats.view_full_refreshes.load(), 0u);

  // A DELETE (and likewise an UPDATE) is an unknown change: full rebuild.
  Exec("DELETE FROM t WHERE id = 4");
  EXPECT_EQ(Exec("SELECT * FROM t_by_v").rows.size(), 2u);
  Exec("UPDATE t SET v = 'b' WHERE id = 1");
  EXPECT_EQ(Exec("SELECT v, n FROM t_by_v WHERE v = 'b'").rows[0][1].AsInt64(), 2);
  EXPECT_EQ(stats.view_delta_refreshes.load(), 1u);
  EXPECT_EQ(stats.view_full_refreshes.load(), 2u);
  EXPECT_NE(db_->ExportMetrics().find(
                "\nelephant_stat_database_view_delta_refreshes 1\n"),
            std::string::npos);

  // A backlog over half the base (5 rows into a base that then has 9) is
  // not kept in the insert log: the next read rebuilds in full.
  Exec("INSERT INTO t VALUES (6, 'a'), (7, 'a'), (8, 'b'), (9, 'd'), (10, 'd')");
  QueryResult r = Exec("SELECT v, n FROM t_by_v ORDER BY v");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][1].AsInt64(), 4);  // a
  EXPECT_EQ(r.rows[1][1].AsInt64(), 3);  // b
  EXPECT_EQ(r.rows[2][1].AsInt64(), 2);  // d
  EXPECT_EQ(stats.view_delta_refreshes.load(), 1u);
  EXPECT_EQ(stats.view_full_refreshes.load(), 3u);
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
  EXPECT_EQ(db_->stats().view_delta_refreshes.load(), 0u);
  ASSERT_TRUE(writer.Execute("ROLLBACK").ok());
  // The rolled-back row left the insert log: nothing is pending.
  EXPECT_FALSE(db_->catalog().IsStale("t_by_v"));
  EXPECT_EQ(reader.Execute("SELECT * FROM t_by_v").value().rows.size(), 2u);

  ASSERT_TRUE(writer.Execute("BEGIN").ok());
  ASSERT_TRUE(writer.Execute("INSERT INTO t VALUES (4, 'd')").ok());
  EXPECT_FALSE(reader.Execute("SELECT * FROM t_by_v").ok());
  ASSERT_TRUE(writer.Execute("COMMIT").ok());
  EXPECT_EQ(reader.Execute("SELECT * FROM t_by_v").value().rows.size(), 3u);
  EXPECT_EQ(db_->stats().view_delta_refreshes.load(), 1u);
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

/// Without a log the engine takes the same table locks: a SELECT waits for
/// a table's exclusive holder, an INSERT for its readers.
TEST(TxnWithoutWalTest, ReadsAndInsertsTakeTableLocks) {
  DatabaseOptions options;
  options.lock_timeout_seconds = 0.05;
  Database db(options);
  ASSERT_TRUE(db.Execute("CREATE TABLE t (id INT) CLUSTER BY (id)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1)").ok());
  txn::LockManager* locks = db.lock_manager();
  const std::string name = db.catalog().GetTable("t").value()->name();
  const txn_id_t holder = 7;
  ASSERT_TRUE(locks
                  ->Acquire(holder, name, txn::LockManager::Mode::kExclusive,
                            options.lock_timeout_seconds)
                  .ok());
  auto read = db.Execute("SELECT COUNT(*) FROM t");
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsAborted()) << read.status().ToString();
  locks->ReleaseAll(holder);

  ASSERT_TRUE(locks
                  ->Acquire(holder, name, txn::LockManager::Mode::kShared,
                            options.lock_timeout_seconds)
                  .ok());
  auto write = db.Execute("INSERT INTO t VALUES (2)");
  ASSERT_FALSE(write.ok());
  EXPECT_TRUE(write.status().IsAborted()) << write.status().ToString();
  locks->ReleaseAll(holder);

  auto count = db.Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count.value().rows[0][0].AsInt64(), 1);
  auto timeouts = db.Execute("SELECT lock_timeouts FROM elephant_stat_transactions");
  ASSERT_TRUE(timeouts.ok()) << timeouts.status().ToString();
  EXPECT_EQ(timeouts.value().rows[0][0].AsInt64(), 2);
}

}  // namespace
}  // namespace elephant
