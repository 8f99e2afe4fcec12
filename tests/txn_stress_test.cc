#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "engine/session.h"
#include "mv/view.h"

namespace elephant {
namespace {

/// Concurrent-transaction stress, meant for the TSan preset: several
/// sessions transact at once against private and shared tables, with lock
/// timeouts resolved by retry. Checks both the data (every committed
/// transaction's rows present, every rolled-back one's absent) and, under
/// TSan, the absence of data races in the WAL/lock/txn machinery.
TEST(TxnStressTest, ConcurrentSessionsCommitAndRollback) {
  constexpr int kThreads = 4;
  constexpr int kTxnsPerThread = 12;
  DatabaseOptions options;
  options.wal_enabled = true;
  options.lock_timeout_seconds = 2.0;
  Database db(options);
  for (int s = 0; s < kThreads; s++) {
    ASSERT_TRUE(db.Execute("CREATE TABLE own" + std::to_string(s) +
                           " (id INT, v VARCHAR) CLUSTER BY (id)")
                    .ok());
  }
  ASSERT_TRUE(
      db.Execute("CREATE TABLE shared (id INT, v VARCHAR) CLUSTER BY (id)")
          .ok());

  std::atomic<uint64_t> shared_committed{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int s = 0; s < kThreads; s++) {
    threads.emplace_back([&db, &shared_committed, &failed, s]() {
      Session session(&db, s);
      const std::string own = "own" + std::to_string(s);
      for (int i = 0; i < kTxnsPerThread && !failed.load(); i++) {
        // Every transaction writes the private table; every third also
        // contends on the shared table; every fourth rolls back.
        const bool touch_shared = i % 3 == 0;
        const bool rollback = i % 4 == 3;
        const int id = s * 1000 + i;
        bool done = false;
        while (!done && !failed.load()) {
          auto begin = session.Execute("BEGIN");
          if (!begin.ok()) { failed = true; break; }
          auto ins = session.Execute("INSERT INTO " + own + " VALUES (" +
                                     std::to_string(id) + ", 'x')");
          if (ins.ok() && touch_shared) {
            ins = session.Execute("INSERT INTO shared VALUES (" +
                                  std::to_string(id) + ", 'x')");
          }
          if (!ins.ok()) {
            // Lock timeout (or any failure) aborted the transaction; the
            // session must acknowledge before retrying the whole txn.
            if (!session.Execute("ROLLBACK").ok()) failed = true;
            if (!ins.status().IsAborted()) failed = true;
            continue;
          }
          auto end = session.Execute(rollback ? "ROLLBACK" : "COMMIT");
          if (!end.ok()) { failed = true; break; }
          if (!rollback && touch_shared) shared_committed.fetch_add(1);
          done = true;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_FALSE(failed.load());

  // Per-thread tables hold exactly the committed (non-rollback) txns.
  const int committed_per_thread =
      kTxnsPerThread - kTxnsPerThread / 4;  // i % 4 == 3 rolled back
  for (int s = 0; s < kThreads; s++) {
    auto r = db.Execute("SELECT * FROM own" + std::to_string(s));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().rows.size(),
              static_cast<size_t>(committed_per_thread));
  }
  auto shared = db.Execute("SELECT * FROM shared");
  ASSERT_TRUE(shared.ok()) << shared.status().ToString();
  EXPECT_EQ(shared.value().rows.size(), shared_committed.load());
  // Nothing left open or locked.
  EXPECT_EQ(db.txn_manager()->stats().active, 0u);
  ASSERT_TRUE(db.Execute("INSERT INTO shared VALUES (999999, 'end')").ok());
}

/// Readers racing a writer: plain SELECT sessions take statement-scoped
/// shared locks while one session commits inserts. Every read must see a
/// consistent count (never a torn in-between state of a single statement).
TEST(TxnStressTest, ReadersRaceWriter) {
  DatabaseOptions options;
  options.wal_enabled = true;
  options.lock_timeout_seconds = 2.0;
  Database db(options);
  ASSERT_TRUE(
      db.Execute("CREATE TABLE t (id INT, v VARCHAR) CLUSTER BY (id)").ok());

  constexpr int kWrites = 30;
  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};
  std::thread writer([&db, &done, &failed]() {
    Session session(&db, 100);
    for (int i = 0; i < kWrites; i++) {
      // Each statement inserts two rows atomically.
      auto r = session.Execute("INSERT INTO t VALUES (" + std::to_string(2 * i) +
                               ", 'a'), (" + std::to_string(2 * i + 1) +
                               ", 'b')");
      if (!r.ok()) { failed = true; break; }
    }
    done = true;
  });
  std::vector<std::thread> readers;
  for (int s = 0; s < 3; s++) {
    readers.emplace_back([&db, &done, &failed, s]() {
      Session session(&db, s);
      while (!done.load() && !failed.load()) {
        auto r = session.Execute("SELECT * FROM t");
        if (!r.ok()) {
          // A lock-wait timeout under heavy contention is benign; anything
          // else is a real failure.
          if (!r.status().IsAborted()) failed = true;
          continue;
        }
        // Statement-level atomicity: counts are always even.
        if (r.value().rows.size() % 2 != 0) failed = true;
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  ASSERT_FALSE(failed.load());
  auto r = db.Execute("SELECT * FROM t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().rows.size(), static_cast<size_t>(2 * kWrites));
}

/// Group g = 9 of the view below only ever receives rows that are rolled
/// back, so no read may see it; every other row goes to group id % 5.
constexpr int kRolledBackGroup = 9;

std::string InsertSql(int id, int g) {
  return "INSERT INTO t VALUES (" + std::to_string(id) + ", " +
         std::to_string(g) + ")";
}

/// A WAL database with table t(id, g) and the view t_by_g (COUNT(*) and
/// SUM(id) per g), for the view-refresh stress tests below. t starts with
/// ids 1..kBaseRows, enough that the tests' inserts stay far below the
/// insert log's cap (half the base) and are merged as deltas.
constexpr int kBaseRows = 400;
std::unique_ptr<Database> OpenViewDb(std::unique_ptr<mv::ViewManager>* views) {
  DatabaseOptions options;
  options.wal_enabled = true;
  options.lock_timeout_seconds = 5.0;
  auto db = std::make_unique<Database>(options);
  EXPECT_TRUE(db->Execute("CREATE TABLE t (id INT, g INT) CLUSTER BY (id)").ok());
  std::string rows;
  for (int id = 1; id <= kBaseRows; id++) {
    rows += (rows.empty() ? "(" : ", (") + std::to_string(id) + ", " +
            std::to_string(id % 5) + ")";
  }
  EXPECT_TRUE(db->Execute("INSERT INTO t VALUES " + rows).ok());
  *views = std::make_unique<mv::ViewManager>(db.get());
  mv::ViewDef def;
  def.name = "t_by_g";
  def.tables = {"t"};
  def.group_cols = {"g"};
  def.aggs = {{AggFunc::kCountStar, "", "n"}, {AggFunc::kSum, "id", "s"}};
  EXPECT_TRUE((*views)->CreateView(def).ok());
  return db;
}

/// Reads t_by_g (refreshing it) and compares it with its GROUP BY over t.
void ExpectViewMatchesGroupBy(Database* db) {
  auto stored = db->Execute("SELECT g, n, s FROM t_by_g ORDER BY g");
  auto expected =
      db->Execute("SELECT g, COUNT(*), SUM(id) FROM t GROUP BY g ORDER BY g");
  ASSERT_TRUE(stored.ok());
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(stored.value().rows.size(), expected.value().rows.size());
  for (size_t i = 0; i < expected.value().rows.size(); i++) {
    for (size_t c = 0; c < 3; c++) {
      EXPECT_EQ(stored.value().rows[i][c].Compare(expected.value().rows[i][c]), 0)
          << "row " << i << " col " << c;
    }
  }
}

/// Runs `writer` on session 0 while sessions 1..3 keep reading t_by_g, so
/// every read refreshes the view if inserts are pending. Returns false when
/// any statement failed or a read saw the rolled-back group.
bool WriteWhileReading(Database* db,
                       const std::function<bool(Session*)>& writer) {
  constexpr int kReaders = 3;
  std::atomic<bool> writing{true};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  threads.emplace_back([db, &writer, &writing, &failed]() {
    Session session(db, 0);
    if (!writer(&session)) failed = true;
    writing = false;
  });
  for (int r = 1; r <= kReaders; r++) {
    threads.emplace_back([db, &writing, &failed, r]() {
      Session session(db, r);
      while (writing.load() && !failed.load()) {
        auto r = session.Execute("SELECT g, n FROM t_by_g");
        if (!r.ok()) failed = true;
        for (const Row& row : r.ok() ? r.value().rows : std::vector<Row>{}) {
          if (row[0].AsInt64() == kRolledBackGroup) failed = true;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return !failed.load();
}

/// One writer appends while readers refresh the view. Refreshes of one
/// view take turns under its exclusive lock, so no insert is merged twice.
TEST(TxnStressTest, ConcurrentReadersMergeEachInsertOnce) {
  std::unique_ptr<mv::ViewManager> views;
  std::unique_ptr<Database> db = OpenViewDb(&views);
  ASSERT_TRUE(WriteWhileReading(db.get(), [](Session* s) {
    for (int i = 0; i < 40; i++) {
      const int id = kBaseRows + 1 + i;
      if (!s->Execute(InsertSql(id, id % 5)).ok()) return false;
    }
    return true;
  }));
  ExpectViewMatchesGroupBy(db.get());
}

/// One session keeps inserting and rolling back while another commits
/// inserts into the same base and readers refresh the view. A rollback
/// drops its rows from the base's insert log before it releases its base
/// lock, so no other writer appends behind them and no refresh merges them:
/// no read ever sees a rolled-back row in the view.
TEST(TxnStressTest, RollbacksRaceInsertsAndViewReads) {
  std::unique_ptr<mv::ViewManager> views;
  std::unique_ptr<Database> db = OpenViewDb(&views);
  std::atomic<bool> failed{false};
  std::thread committer([&db, &failed]() {
    Session session(db.get(), 4);
    for (int i = 0; i < 40 && !failed.load(); i++) {
      if (!session.Execute(InsertSql(2000 + i, i % 5)).ok()) failed = true;
    }
  });
  const bool ok = WriteWhileReading(db.get(), [](Session* s) {
    for (int i = 0; i < 40; i++) {
      if (!s->Execute("BEGIN").ok() || !s->Execute(InsertSql(kBaseRows + 1 + i, kRolledBackGroup)).ok() ||
          !s->Execute("ROLLBACK").ok()) {
        return false;
      }
    }
    return true;
  });
  committer.join();
  ASSERT_TRUE(ok);
  ASSERT_FALSE(failed.load());
  ExpectViewMatchesGroupBy(db.get());
  EXPECT_GT(db->stats().view_delta_refreshes.load(), 0u);
  auto n = db->Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value().rows[0][0].Compare(Value::Int64(kBaseRows + 40)), 0);
}

}  // namespace
}  // namespace elephant
