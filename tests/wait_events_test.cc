#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "engine/session.h"
#include "obs/ash.h"
#include "obs/wait_events.h"
#include "sched/task_group.h"
#include "sched/thread_pool.h"
#include "storage/disk_manager.h"
#include "tpch/tpch.h"
#include "txn/lock_manager.h"
#include "wal/log_manager.h"

namespace elephant {
namespace {

using obs::WaitClass;
using obs::WaitEventId;

// ---------------------------------------------------------------------------
// Taxonomy + registry unit coverage (no engine involved).
// ---------------------------------------------------------------------------

TEST(WaitTaxonomy, TableIsDenseAndInternallyConsistent) {
  // Class names in the table must be the canonical WaitClassName rendering,
  // and WaitEventName must compose "Class:Event" for every dense index.
  for (int i = 0; i < obs::kNumWaitEvents; i++) {
    const obs::WaitEventInfo& info = obs::kWaitEventInfos[i];
    EXPECT_STREQ(info.class_name, obs::WaitClassName(info.wait_class)) << i;
    EXPECT_EQ(obs::WaitEventName(i),
              std::string(info.class_name) + ":" + info.event_name);
  }
  EXPECT_EQ(obs::WaitEventName(-1), "");
  EXPECT_EQ(obs::WaitEventName(obs::kNumWaitEvents), "");

  // The class partition the stat table and Prometheus export rely on.
  std::map<WaitClass, int> per_class;
  for (const obs::WaitEventInfo& info : obs::kWaitEventInfos) {
    per_class[info.wait_class]++;
  }
  EXPECT_EQ(per_class.size(), static_cast<size_t>(obs::kNumWaitClasses));
  EXPECT_EQ(per_class[WaitClass::kLWLock], 8);
  EXPECT_EQ(per_class[WaitClass::kLock], 2);
  EXPECT_EQ(per_class[WaitClass::kIO], 3);
  EXPECT_EQ(per_class[WaitClass::kWAL], 1);
  EXPECT_EQ(per_class[WaitClass::kCondVar], 2);
  EXPECT_EQ(per_class[WaitClass::kScheduler], 3);
}

TEST(WaitTaxonomy, RankMappingClassifiesMutexFamilies) {
  EXPECT_EQ(obs::WaitEventForRank(LockRank::kBufferPool),
            WaitEventId::kLWLockBufferPool);
  EXPECT_EQ(obs::WaitEventForRank(LockRank::kLogManager),
            WaitEventId::kLWLockLogManager);
  EXPECT_EQ(obs::WaitEventForRank(LockRank::kDiskManager),
            WaitEventId::kLWLockDiskManager);
  EXPECT_EQ(obs::WaitEventForRank(LockRank::kTxnLockManager),
            WaitEventId::kLWLockLockManager);
  // Scheduler-family mutexes are scheduling overhead, not lock discipline.
  EXPECT_EQ(obs::WaitEventForRank(LockRank::kScheduler),
            WaitEventId::kSchedulerMutex);
  EXPECT_EQ(obs::WaitEventForRank(LockRank::kTaskGroup),
            WaitEventId::kSchedulerMutex);
  // Observability leaves (rank 700+) fold into one event; the rest is Other.
  EXPECT_EQ(obs::WaitEventForRank(LockRank::kQueryLog),
            WaitEventId::kLWLockObservability);
  EXPECT_EQ(obs::WaitEventForRank(LockRank::kAshRing),
            WaitEventId::kLWLockObservability);
  EXPECT_EQ(obs::WaitEventForRank(LockRank::kUnranked),
            WaitEventId::kLWLockOther);
}

TEST(WaitProfile, ClassMathAndTopEvent) {
  obs::WaitProfile p;
  EXPECT_EQ(p.TopEvent(), -1);
  EXPECT_EQ(p.TopEventName(), "");
  EXPECT_EQ(p.TotalNanos(), 0u);

  p.Add(WaitEventId::kLockTableExclusive, 3000000);
  p.Add(WaitEventId::kIoDataFileRead, 1000000);
  p.Add(WaitEventId::kIoDataFileRead, 500000);
  EXPECT_EQ(p.ClassNanos(WaitClass::kLock), 3000000u);
  EXPECT_EQ(p.ClassCount(WaitClass::kLock), 1u);
  EXPECT_EQ(p.ClassNanos(WaitClass::kIO), 1500000u);
  EXPECT_EQ(p.ClassCount(WaitClass::kIO), 2u);
  EXPECT_EQ(p.TotalNanos(), 4500000u);
  EXPECT_EQ(p.TotalCount(), 3u);
  EXPECT_EQ(p.TopEventName(), "Lock:TableExclusive");
  const std::string line = p.ToString();
  EXPECT_NE(line.find("total="), std::string::npos) << line;
  EXPECT_NE(line.find("top=Lock:TableExclusive"), std::string::npos) << line;
}

TEST(WaitScope, OutermostWinsNestedScopesAreInert) {
  obs::WaitEventRegistry& reg = obs::WaitEventRegistry::Global();
  reg.Reset();
  obs::WaitSink sink;
  obs::WaitSinkScope attach(&sink);
  {
    obs::WaitScope outer(WaitEventId::kWalFlush);
    {
      obs::WaitScope inner(WaitEventId::kIoDataFileSync);
      EXPECT_EQ(inner.Finish(), 0u);  // inert: an outer scope is active
    }
    const uint64_t first = outer.Finish();
    EXPECT_EQ(outer.Finish(), first);  // idempotent
  }
  EXPECT_EQ(reg.Count(WaitEventId::kWalFlush), 1u);
  EXPECT_EQ(reg.Count(WaitEventId::kIoDataFileSync), 0u);
  const obs::WaitProfile p = sink.ToProfile();
  EXPECT_EQ(p.counts[static_cast<int>(WaitEventId::kWalFlush)], 1u);
  EXPECT_EQ(p.counts[static_cast<int>(WaitEventId::kIoDataFileSync)], 0u);
  reg.Reset();
}

TEST(WaitRegistry, HistogramBucketsAndQuantiles) {
  // Bucket bounds: 1µs * 4^i, monotone; the histogram adds the overflow.
  const std::vector<double>& bounds = obs::WaitEventRegistry::BucketBounds();
  ASSERT_EQ(bounds.size(), 15u);
  for (size_t i = 1; i < bounds.size(); i++) {
    EXPECT_GT(bounds[i], bounds[i - 1]);
  }
  EXPECT_DOUBLE_EQ(bounds[0], 1e-6);

  obs::WaitEventRegistry reg;
  EXPECT_EQ(reg.Snapshot(WaitEventId::kLockTableShared).latency.Quantile(0.5),
            0.0);
  reg.Record(WaitEventId::kLockTableShared, 500);      // 0.5µs -> bucket 0
  reg.Record(WaitEventId::kLockTableShared, 100000);   // 100µs -> bound 256µs
  reg.Record(WaitEventId::kLockTableShared, 100000);
  EXPECT_EQ(reg.Count(WaitEventId::kLockTableShared), 3u);
  EXPECT_EQ(reg.Nanos(WaitEventId::kLockTableShared), 200500u);
  EXPECT_EQ(reg.ClassCount(WaitClass::kLock), 3u);

  const obs::WaitEventRegistry::EventSnapshot snap =
      reg.Snapshot(WaitEventId::kLockTableShared);
  // Interpolated within the bucket: q=0 sits at bucket 0's lower edge, q=1
  // at the upper edge of the last occupied bucket.
  EXPECT_DOUBLE_EQ(snap.latency.Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(snap.latency.Quantile(1.0), 256e-6);
  EXPECT_EQ(snap.latency.buckets[0], 1u);
  EXPECT_EQ(snap.latency.buckets[4], 2u);
  uint64_t bucketed = 0;
  for (uint64_t b : snap.latency.buckets) bucketed += b;
  EXPECT_EQ(bucketed, snap.count);
  EXPECT_EQ(snap.latency.count, snap.count);

  // Bucket edges are inclusive, in nanos as in seconds.
  reg.Record(WaitEventId::kWalFlush, 1000);   // exactly 1µs -> bucket 0
  reg.Record(WaitEventId::kWalFlush, 4001);   // just past 4µs -> bucket 2
  const obs::HistogramSnapshot wal =
      reg.Snapshot(WaitEventId::kWalFlush).latency;
  EXPECT_EQ(wal.buckets[0], 1u);
  EXPECT_EQ(wal.buckets[2], 1u);

  // A wait past the last bound lands in the overflow bucket, whose quantile
  // reports the last finite bound.
  reg.Record(WaitEventId::kIoDataFileSync, 1000ull * 1000 * 1000 * 1000);
  const obs::HistogramSnapshot sync =
      reg.Snapshot(WaitEventId::kIoDataFileSync).latency;
  EXPECT_EQ(sync.buckets.back(), 1u);
  EXPECT_DOUBLE_EQ(sync.Quantile(0.95), bounds.back());

  reg.Reset();
  EXPECT_EQ(reg.Count(WaitEventId::kLockTableShared), 0u);
  EXPECT_EQ(reg.Snapshot(WaitEventId::kLockTableShared).latency.count, 0u);
}

TEST(WaitRegistry, ConcurrentHistogramObserversLoseNoCounts) {
  obs::Histogram h(obs::WaitEventRegistry::BucketBounds());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; i++) {
        h.Observe(1e-6 * static_cast<double>((t * kPerThread + i) % 5000));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const obs::HistogramSnapshot snap = h.Snapshot();
  uint64_t bucketed = 0;
  for (uint64_t b : snap.buckets) bucketed += b;
  EXPECT_EQ(snap.count, bucketed);
  EXPECT_EQ(snap.count, uint64_t{kThreads} * kPerThread);
}

TEST(WaitRegistry, PrometheusEmitsFullTaxonomyWithZeros) {
  obs::WaitEventRegistry reg;
  reg.Record(WaitEventId::kWalFlush, 2000000);
  const std::string text = reg.ToPrometheus();
  EXPECT_NE(text.find("# TYPE elephant_wait_events_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE elephant_wait_seconds_total counter"),
            std::string::npos);
  // Every taxonomy entry appears in both families, zeros included.
  for (const obs::WaitEventInfo& info : obs::kWaitEventInfos) {
    const std::string labels = std::string("{class=\"") + info.class_name +
                               "\",event=\"" + info.event_name + "\"}";
    EXPECT_NE(text.find("elephant_wait_events_total" + labels),
              std::string::npos)
        << labels;
    EXPECT_NE(text.find("elephant_wait_seconds_total" + labels),
              std::string::npos)
        << labels;
  }
  EXPECT_NE(
      text.find("elephant_wait_events_total{class=\"WAL\",event=\"Flush\"} 1"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("elephant_wait_seconds_total{class=\"WAL\","
                      "event=\"Flush\"} 0.002000000"),
            std::string::npos)
      << text;
}

// ---------------------------------------------------------------------------
// Read-only engine coverage: the zero-LWLock guarantee and the stat table,
// with the ASH sampler running the whole time (it must stay silent: its
// mutexes are observability leaves and its sleep is CondVar, not LWLock).
// ---------------------------------------------------------------------------

class WaitEventsEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatabaseOptions opts;
    opts.cold_cache = false;
    opts.worker_threads = 4;
    opts.ash_sampler_enabled = true;
    opts.ash_interval_seconds = 0.002;
    db_ = new Database(opts);
    TpchConfig config;
    config.scale_factor = 0.005;
    TpchGenerator gen(config);
    ASSERT_TRUE(gen.LoadInto(db_).ok());
    // Warm the pool so the measured runs don't depend on load-order I/O.
    ASSERT_TRUE(db_->Execute("SELECT COUNT(*) FROM lineitem").ok());
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
    obs::WaitEventRegistry::Global().Reset();
  }

  QueryResult Exec(const std::string& sql) {
    auto r = db_->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << "\n" << r.status().ToString();
    return r.ok() ? std::move(r).value() : QueryResult{};
  }

  static Database* db_;
};

Database* WaitEventsEngineTest::db_ = nullptr;

TEST_F(WaitEventsEngineTest, UncontendedSerialRunRecordsZeroLWLockWaits) {
  obs::WaitEventRegistry& reg = obs::WaitEventRegistry::Global();
  reg.Reset();
  const std::vector<std::string> sqls = {
      "SELECT COUNT(*), SUM(l_quantity) FROM lineitem",
      "SELECT l_orderkey, l_extendedprice FROM lineitem WHERE l_orderkey < 500",
      "SELECT o_orderpriority, COUNT(*) FROM orders GROUP BY o_orderpriority "
      "ORDER BY o_orderpriority",
  };
  for (const std::string& sql : sqls) {
    const QueryResult qr = Exec(sql);
    EXPECT_EQ(qr.wait_profile.ClassCount(WaitClass::kLWLock), 0u) << sql;
    EXPECT_GE(qr.wall_seconds, 0.0);
  }
  // A single statement stream never sleeps on an engine mutex: the ISSUE's
  // headline invariant, enforced here rather than eyeballed.
  EXPECT_EQ(reg.ClassCount(WaitClass::kLWLock), 0u);
  EXPECT_EQ(reg.ClassNanos(WaitClass::kLWLock), 0u);
}

TEST_F(WaitEventsEngineTest, UncontendedParallel4RunRecordsZeroLWLockWaits) {
  obs::WaitEventRegistry& reg = obs::WaitEventRegistry::Global();
  reg.Reset();
  uint64_t gather_count = 0;
  for (int rep = 0; rep < 5; rep++) {
    const QueryResult qr = Exec(
        "/*+ PARALLEL 4 */ SELECT l_returnflag, COUNT(*), SUM(l_quantity) "
        "FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag");
    // Workers brushing past each other on the buffer-pool latch must be
    // absorbed by the Mutex spin path — only true sleeps count as LWLock.
    EXPECT_EQ(qr.wait_profile.ClassCount(WaitClass::kLWLock), 0u);
    gather_count +=
        qr.wait_profile.counts[static_cast<int>(WaitEventId::kSchedulerGather)];
  }
  EXPECT_EQ(reg.ClassCount(WaitClass::kLWLock), 0u);
  // The session thread parks at the exchange gather point every PARALLEL
  // run; that time is Scheduler class, never LWLock.
  EXPECT_GT(gather_count, 0u);
  EXPECT_GT(reg.ClassCount(WaitClass::kScheduler), 0u);
}

TEST_F(WaitEventsEngineTest, StatWaitEventsServesFullTaxonomy) {
  // One PARALLEL statement so at least the Scheduler rows are hot.
  Exec("/*+ PARALLEL 4 */ SELECT COUNT(*) FROM lineitem");
  const QueryResult r = Exec(
      "SELECT wait_class, wait_event, count, wait_seconds, p50_seconds, "
      "p95_seconds FROM elephant_stat_wait_events");
  ASSERT_EQ(r.rows.size(), static_cast<size_t>(obs::kNumWaitEvents));
  std::set<std::string> classes;
  bool gather_hot = false;
  for (const Row& row : r.rows) {
    classes.insert(row[0].AsString());
    const int64_t count = row[2].AsInt64();
    const double seconds = row[3].AsDouble();
    const double p50 = row[4].AsDouble();
    const double p95 = row[5].AsDouble();
    EXPECT_GE(count, 0);
    EXPECT_GE(seconds, 0.0);
    EXPECT_LE(p50, p95);  // bucket upper bounds are monotone in q
    if (count == 0) {
      EXPECT_EQ(seconds, 0.0);
      EXPECT_EQ(p50, 0.0);
    }
    if (row[0].AsString() == "Scheduler" && row[1].AsString() == "Gather" &&
        count > 0) {
      gather_hot = true;
    }
  }
  EXPECT_EQ(classes, (std::set<std::string>{"LWLock", "Lock", "IO", "WAL",
                                            "CondVar", "Scheduler"}));
  EXPECT_TRUE(gather_hot);

  // The EXPERIMENTS.md step-1 triage query: per-class rollup, one row per
  // class even when the class never waited.
  const QueryResult by_class = Exec(
      "SELECT wait_class, SUM(count), SUM(wait_seconds) "
      "FROM elephant_stat_wait_events "
      "GROUP BY wait_class ORDER BY SUM(wait_seconds) DESC");
  EXPECT_EQ(by_class.rows.size(), 6u);
  for (size_t i = 1; i < by_class.rows.size(); i++) {
    EXPECT_GE(by_class.rows[i - 1][2].AsDouble(),
              by_class.rows[i][2].AsDouble());
  }
}

TEST_F(WaitEventsEngineTest, ExplainAnalyzeCarriesWaitFooterAndJson) {
  // The SQL statement form renders a "Waits:" footer line.
  const QueryResult text =
      Exec("EXPLAIN ANALYZE SELECT COUNT(*) FROM lineitem");
  bool found = false;
  for (const Row& row : text.rows) {
    if (row[0].AsString().find("Waits: total=") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);

  // The API form carries the profile in the result and the JSON totals.
  auto r = db_->ExplainAnalyze("SELECT COUNT(*) FROM lineitem", {});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r.value().result.wall_seconds, 0.0);
  EXPECT_NE(r.value().json.find("\"waits\""), std::string::npos);
  EXPECT_NE(r.value().json.find("\"lock_seconds\""), std::string::npos);
  EXPECT_NE(r.value().json.find("\"top_event\""), std::string::npos);
}

TEST_F(WaitEventsEngineTest, PrometheusExportIncludesWaitFamilies) {
  const std::string text = db_->ExportMetrics();
  EXPECT_NE(text.find("# TYPE elephant_wait_events_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("elephant_wait_seconds_total{class=\"Scheduler\","
                      "event=\"Gather\"}"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Transactional contention: Lock-class reconciliation and attribution.
// ---------------------------------------------------------------------------

TEST(WaitEventsContention, LockWaitsReconcileAcrossRegistryManagerAndSql) {
  DatabaseOptions opts;
  opts.wal_enabled = true;
  opts.lock_timeout_seconds = 10.0;  // never time out under TSan load
  Database db(opts);
  ASSERT_TRUE(db.Execute("CREATE TABLE t (id INT, v VARCHAR) CLUSTER BY (id)")
                  .ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')").ok());
  obs::WaitEventRegistry& reg = obs::WaitEventRegistry::Global();
  reg.Reset();

  SessionManager mgr(&db, 2);
  Session* writer = mgr.OpenSession();
  Session* reader = mgr.OpenSession();
  ASSERT_TRUE(mgr.Submit(writer, "BEGIN").get().ok());
  ASSERT_TRUE(
      mgr.Submit(writer, "UPDATE t SET v = 'held' WHERE id = 1").get().ok());

  // The reader blocks on the table's exclusive holder until COMMIT.
  auto blocked = mgr.Submit(reader, "SELECT v FROM t");
  while (db.lock_manager()->SnapshotWaiters().empty()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(mgr.Submit(writer, "COMMIT").get().ok());
  ASSERT_TRUE(blocked.get().ok());

  // Every park the lock manager counted is exactly one Lock-class event in
  // the registry, nano for nano (Finish() feeds both sides).
  const txn::LockManager::LockWaitStats stats = db.lock_manager()->wait_stats();
  EXPECT_GE(stats.waits, 1u);
  EXPECT_GT(stats.wait_nanos, 0u);
  EXPECT_EQ(reg.ClassCount(WaitClass::kLock), stats.waits);
  EXPECT_EQ(reg.ClassNanos(WaitClass::kLock), stats.wait_nanos);

  // And the SQL surface agrees with the C++ counters.
  auto sums = db.Execute(
      "SELECT SUM(count), SUM(wait_seconds) FROM elephant_stat_wait_events "
      "WHERE wait_class = 'Lock'");
  ASSERT_TRUE(sums.ok()) << sums.status().ToString();
  ASSERT_EQ(sums.value().rows.size(), 1u);
  EXPECT_EQ(sums.value().rows[0][0].AsInt64(),
            static_cast<int64_t>(stats.waits));
  EXPECT_NEAR(sums.value().rows[0][1].AsDouble(),
              static_cast<double>(stats.wait_nanos) / 1e9, 1e-9);
  reg.Reset();
}

TEST(WaitEventsContention, BlockedStatementIsDominatedByLockClass) {
  DatabaseOptions opts;
  opts.wal_enabled = true;
  opts.lock_timeout_seconds = 10.0;
  opts.ash_sampler_enabled = true;
  opts.ash_interval_seconds = 0.001;
  Database db(opts);
  ASSERT_TRUE(db.Execute("CREATE TABLE t (id INT, v VARCHAR) CLUSTER BY (id)")
                  .ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')").ok());
  obs::WaitEventRegistry& reg = obs::WaitEventRegistry::Global();
  reg.Reset();

  SessionManager mgr(&db, 2);
  Session* writer = mgr.OpenSession();
  Session* reader = mgr.OpenSession();
  ASSERT_TRUE(mgr.Submit(writer, "BEGIN").get().ok());
  ASSERT_TRUE(
      mgr.Submit(writer, "UPDATE t SET v = 'held' WHERE id = 1").get().ok());

  // EXPLAIN ANALYZE goes through the same shared-lock protocol as the
  // SELECT it instruments, so it parks behind the writer like any reader.
  auto blocked = mgr.Submit(reader, "EXPLAIN ANALYZE SELECT v FROM t");

  // While the reader is parked, the wait-for edge must name the holder...
  QueryResult edge;
  for (int i = 0; i < 5000 && edge.rows.empty(); i++) {
    auto r = db.Execute(
        "SELECT waiter_txn, table_name, requested_mode, holder_txn, held_mode "
        "FROM elephant_stat_lock_waits");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    edge = std::move(r).value();
    if (edge.rows.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_EQ(edge.rows.size(), 1u) << "reader never showed up as a waiter";
  EXPECT_EQ(edge.rows[0][1].AsString(), "T");  // catalog-cased table name
  EXPECT_EQ(edge.rows[0][2].AsString(), "Shared");
  EXPECT_EQ(edge.rows[0][4].AsString(), "Exclusive");
  EXPECT_GT(edge.rows[0][3].AsInt64(), 0);
  EXPECT_NE(edge.rows[0][0].AsInt64(), edge.rows[0][3].AsInt64());

  // ...and elephant_stat_activity reports the session waiting on that event.
  auto act = db.Execute(
      "SELECT session_id, state, wait_event FROM elephant_stat_activity");
  ASSERT_TRUE(act.ok()) << act.status().ToString();
  bool saw_waiting = false;
  for (const Row& row : act.value().rows) {
    if (row[1].AsString() == "waiting" &&
        row[2].AsString() == "Lock:TableShared") {
      saw_waiting = true;
    }
  }
  EXPECT_TRUE(saw_waiting);

  // Hold long enough that the blocked statement's wall time is wait time.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ASSERT_TRUE(mgr.Submit(writer, "COMMIT").get().ok());
  auto r2 = blocked.get();
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();

  const QueryResult& qr = r2.value();
  const double lock_seconds = qr.wait_profile.ClassSeconds(WaitClass::kLock);
  EXPECT_GT(lock_seconds, 0.0);
  EXPECT_GT(qr.wall_seconds, 0.0);
  // The acceptance bar: the blocked EXPLAIN ANALYZE's life is dominated by
  // the Lock class, and its own footer says so.
  EXPECT_GT(lock_seconds, 0.5 * qr.wall_seconds)
      << "lock=" << lock_seconds << "s wall=" << qr.wall_seconds << "s";
  bool footer = false;
  for (const Row& row : qr.rows) {
    if (row[0].AsString().find("top=Lock:TableShared") != std::string::npos) {
      footer = true;
    }
  }
  EXPECT_TRUE(footer);

  // Commits group-flushed the WAL: nonzero WAL-class waits alongside Lock.
  EXPECT_GT(reg.ClassCount(WaitClass::kLock), 0u);
  EXPECT_GT(reg.ClassCount(WaitClass::kWAL), 0u);
  EXPECT_GT(reg.ClassNanos(WaitClass::kLock), 0u);

  // The ASH ring replays the incident: the reader sampled waiting on the
  // shared table lock, joinable in SQL.
  ASSERT_NE(db.ash_sampler(), nullptr);
  EXPECT_GT(db.ash_sampler()->ticks(), 0u);
  auto ash = db.Execute(
      "SELECT COUNT(*) FROM elephant_stat_ash "
      "WHERE state = 'waiting' AND wait_event = 'Lock:TableShared'");
  ASSERT_TRUE(ash.ok()) << ash.status().ToString();
  ASSERT_EQ(ash.value().rows.size(), 1u);
  EXPECT_GT(ash.value().rows[0][0].AsInt64(), 0);

  // The EXPERIMENTS.md diagnosis recipe end-to-end: join the ASH ring
  // against the statement registry by fingerprint to name the statement
  // that was sampled waiting. The blocked EXPLAIN ANALYZE must surface.
  auto culprit = db.Execute(
      "SELECT s.query, COUNT(*) AS samples "
      "FROM elephant_stat_ash a "
      "INNER JOIN elephant_stat_statements s "
      "ON a.query_fingerprint = s.fingerprint "
      "WHERE a.state = 'waiting' "
      "GROUP BY s.query "
      "ORDER BY COUNT(*) DESC");
  ASSERT_TRUE(culprit.ok()) << culprit.status().ToString();
  ASSERT_FALSE(culprit.value().rows.empty());
  bool named = false;
  for (const Row& row : culprit.value().rows) {
    // The registry stores NormalizeSql()-folded text (lowercased).
    if (row[0].AsString().find("explain analyze select v from t") !=
        std::string::npos) {
      named = true;
      EXPECT_GT(row[1].AsInt64(), 0);
    }
  }
  EXPECT_TRUE(named) << "waiting ASH samples did not join back to the "
                        "blocked statement's registry entry";
  reg.Reset();
}

// ---------------------------------------------------------------------------
// Wait scope: every wrapper that can park a thread classifies the park with
// an obs::WaitScope, so no sleep escapes wait-event accounting. One case per
// blocking wrapper: make it park, then look for the event it must record.
// ---------------------------------------------------------------------------

uint64_t Recorded(WaitEventId event) {
  return obs::WaitEventRegistry::Global().Count(event);
}

TEST(WaitScopeCoverage, MutexRecordsContendedAcquire) {
  Mutex mu(LockRank::kLogManager, "test::contended");
  std::atomic<bool> held{false};
  const uint64_t before = Recorded(WaitEventId::kLWLockLogManager);
  std::thread holder([&] {
    MutexLock lock(mu);
    held = true;
    // Long enough to outlast the spin budget, so the waiter sleeps.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  });
  while (!held) std::this_thread::yield();
  { MutexLock lock(mu); }
  holder.join();
  EXPECT_GE(Recorded(WaitEventId::kLWLockLogManager), before + 1);
}

TEST(WaitScopeCoverage, CondVarRecordsWaitAndWaitFor) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  const uint64_t before = Recorded(WaitEventId::kCondVarWait);
  std::thread waker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    MutexLock lock(mu);
    ready = true;
    cv.NotifyOne();
  });
  {
    MutexLock lock(mu);
    while (!ready) cv.Wait(mu);
    EXPECT_FALSE(cv.WaitFor(mu, 0.001));  // nobody notifies: times out
  }
  waker.join();
  EXPECT_GE(Recorded(WaitEventId::kCondVarWait), before + 2);
}

TEST(WaitScopeCoverage, LockManagerRecordsLockClassWait) {
  txn::LockManager locks;
  ASSERT_TRUE(locks.Acquire(1, "t", txn::LockManager::Mode::kExclusive, 1.0)
                  .ok());
  const uint64_t before = Recorded(WaitEventId::kLockTableShared);
  std::thread reader([&] {
    EXPECT_TRUE(
        locks.Acquire(2, "t", txn::LockManager::Mode::kShared, 10.0).ok());
    locks.ReleaseAll(2);
  });
  while (locks.SnapshotWaiters().empty()) std::this_thread::yield();
  locks.ReleaseAll(1);
  reader.join();
  EXPECT_EQ(Recorded(WaitEventId::kLockTableShared), before + 1);
}

TEST(WaitScopeCoverage, LogManagerAndDiskManagerRecordFlushAndSync) {
  DiskManager disk;
  wal::LogManager log(&disk);
  const uint64_t flushes = Recorded(WaitEventId::kWalFlush);
  const uint64_t syncs = Recorded(WaitEventId::kIoDataFileSync);
  ASSERT_TRUE(log.FlushUntil(log.AppendCheckpoint()).ok());
  ASSERT_TRUE(log.Flush().ok());
  // The fsync inside a WAL flush is part of the WAL:Flush wait (inert).
  EXPECT_EQ(Recorded(WaitEventId::kWalFlush), flushes + 2);
  EXPECT_EQ(Recorded(WaitEventId::kIoDataFileSync), syncs);
  ASSERT_TRUE(disk.Sync().ok());  // a standalone fsync is IO
  EXPECT_EQ(Recorded(WaitEventId::kIoDataFileSync), syncs + 1);
}

TEST(WaitScopeCoverage, ThreadPoolRecordsWorkerIdle) {
  const uint64_t before = Recorded(WaitEventId::kSchedulerWorkerIdle);
  {
    sched::ThreadPool pool(1);
    // Let the worker park on the empty queue, then wake it with a task.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    pool.Async([] {}).get();
  }
  EXPECT_GE(Recorded(WaitEventId::kSchedulerWorkerIdle), before + 1);
}

TEST(WaitScopeCoverage, TaskGroupRecordsGather) {
  sched::ThreadPool pool(1);
  const uint64_t before = Recorded(WaitEventId::kSchedulerGather);
  sched::TaskGroup group(&pool);
  group.Submit([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    return Status::OK();
  });
  ASSERT_TRUE(group.Wait().ok());
  EXPECT_EQ(Recorded(WaitEventId::kSchedulerGather), before + 1);
}

TEST(WaitScopeCoverage, AshSamplerRecordsSamplerSleep) {
  obs::SessionStateRegistry sessions;
  const uint64_t before = Recorded(WaitEventId::kCondVarSamplerSleep);
  obs::AshSampler sampler(&sessions, {.interval_seconds = 0.001});
  sampler.Start();
  while (sampler.ticks() < 2) std::this_thread::yield();
  sampler.Stop();
  EXPECT_GE(Recorded(WaitEventId::kCondVarSamplerSleep), before + 1);
}

// ---------------------------------------------------------------------------
// ASH sampler mechanics: bounded ring, monotone sequence, activity states.
// ---------------------------------------------------------------------------

TEST(AshSampler, RingIsBoundedAndSequenceMonotone) {
  DatabaseOptions opts;
  opts.wal_enabled = true;
  opts.ash_sampler_enabled = true;
  opts.ash_interval_seconds = 0.0005;
  opts.ash_ring_capacity = 32;
  Database db(opts);
  ASSERT_TRUE(db.Execute("CREATE TABLE t (id INT, v VARCHAR) CLUSTER BY (id)")
                  .ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1, 'a')").ok());

  SessionManager mgr(&db, 1);
  Session* s = mgr.OpenSession();
  // An open transaction keeps the session non-idle (idle-in-txn), so every
  // sampler tick appends a sample and the ring must start dropping.
  ASSERT_TRUE(mgr.Submit(s, "BEGIN").get().ok());
  obs::AshSampler* sampler = db.ash_sampler();
  ASSERT_NE(sampler, nullptr);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (sampler->Snapshot().size() < 32 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const std::vector<obs::AshSample> samples = sampler->Snapshot();
  ASSERT_EQ(samples.size(), 32u) << "ring never filled";
  for (size_t i = 1; i < samples.size(); i++) {
    EXPECT_LT(samples[i - 1].seq, samples[i].seq);
    EXPECT_LE(samples[i - 1].steady_nanos, samples[i].steady_nanos);
  }
  // Wait for at least one post-fill tick: the ring stays bounded.
  const uint64_t ticks_before = sampler->ticks();
  while (sampler->ticks() == ticks_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(sampler->Snapshot().size(), 32u);

  // The live view agrees: one registered session, idle in transaction.
  auto act = db.Execute(
      "SELECT session_id, state, txn_id FROM elephant_stat_activity");
  ASSERT_TRUE(act.ok()) << act.status().ToString();
  ASSERT_EQ(act.value().rows.size(), 1u);
  EXPECT_EQ(act.value().rows[0][0].AsInt64(), 0);
  EXPECT_EQ(act.value().rows[0][1].AsString(), "idle in transaction");
  EXPECT_GT(act.value().rows[0][2].AsInt64(), 0);

  // And the SQL surface of the ring is live and bounded too.
  auto count = db.Execute("SELECT COUNT(*) FROM elephant_stat_ash");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count.value().rows[0][0].AsInt64(), 32);

  ASSERT_TRUE(mgr.Submit(s, "ROLLBACK").get().ok());
}

TEST(AshSampler, DisabledByDefaultAndStatAshEmpty) {
  Database db;
  EXPECT_EQ(db.ash_sampler(), nullptr);
  auto r = db.Execute("SELECT COUNT(*) FROM elephant_stat_ash");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().rows[0][0].AsInt64(), 0);
}

// ---------------------------------------------------------------------------
// The slow-query log carries the wait profile.
// ---------------------------------------------------------------------------

TEST(QueryLogWaits, EntriesCarryWaitProfileObject) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (id INT, v VARCHAR) CLUSTER BY (id)")
                  .ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1, 'a')").ok());
  const std::string path =
      ::testing::TempDir() + "/wait_events_query_log.jsonl";
  ASSERT_TRUE(db.query_log().Open(path, /*threshold_seconds=*/0));
  ASSERT_TRUE(db.Execute("SELECT v FROM t").ok());
  db.query_log().Close();

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) contents.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());

  EXPECT_NE(contents.find("\"wait_profile\""), std::string::npos) << contents;
  EXPECT_NE(contents.find("\"lock_seconds\""), std::string::npos);
  EXPECT_NE(contents.find("\"wal_seconds\""), std::string::npos);
  EXPECT_NE(contents.find("\"top_event\""), std::string::npos);
}

}  // namespace
}  // namespace elephant
