#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sys/syscall.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "engine/session.h"
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
  EXPECT_EQ(per_class[WaitClass::kCondVar], 1);
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
  EXPECT_EQ(obs::WaitEventForRank(LockRank::kStatStatements),
            WaitEventId::kLWLockObservability);
  EXPECT_EQ(obs::WaitEventForRank(LockRank::kHeatmap),
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
  Database db;
  obs::WaitEventRegistry& reg = obs::WaitEventRegistry::Global();
  reg.Reset();
  reg.Record(WaitEventId::kWalFlush, 2000000);
  const std::string text = db.ExportMetrics();
  EXPECT_NE(text.find("# TYPE elephant_stat_wait_events_count gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE elephant_stat_wait_events_wait_seconds gauge"),
            std::string::npos);
  // Every taxonomy entry appears in both families, zeros included.
  for (const obs::WaitEventInfo& info : obs::kWaitEventInfos) {
    const std::string labels = std::string("{wait_class=\"") +
                               info.class_name + "\",wait_event=\"" +
                               info.event_name + "\"}";
    EXPECT_NE(text.find("elephant_stat_wait_events_count" + labels),
              std::string::npos)
        << labels;
    EXPECT_NE(text.find("elephant_stat_wait_events_wait_seconds" + labels),
              std::string::npos)
        << labels;
  }
  EXPECT_NE(text.find("elephant_stat_wait_events_count{wait_class=\"WAL\","
                      "wait_event=\"Flush\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("elephant_stat_wait_events_wait_seconds{wait_class="
                      "\"WAL\",wait_event=\"Flush\"} 0.002\n"),
            std::string::npos)
      << text;
  reg.Reset();
}

// ---------------------------------------------------------------------------
// Read-only engine coverage: the zero-LWLock guarantee and the stat table.
// ---------------------------------------------------------------------------

class WaitEventsEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatabaseOptions opts;
    opts.cold_cache = false;
    opts.worker_threads = 4;
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
  EXPECT_NE(text.find("# TYPE elephant_stat_wait_events_count gauge"),
            std::string::npos);
  EXPECT_NE(text.find("elephant_stat_wait_events_wait_seconds{wait_class="
                      "\"Scheduler\",wait_event=\"Gather\"}"),
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

  // The EXPERIMENTS.md diagnosis recipe: the statement registry ranks the
  // blocked statement's family first by summed wait time, and that time is
  // most of the statement's life.
  auto ranked = db.Execute(
      "SELECT query, wait_seconds FROM elephant_stat_statements "
      "ORDER BY wait_seconds DESC");
  ASSERT_TRUE(ranked.ok()) << ranked.status().ToString();
  ASSERT_FALSE(ranked.value().rows.empty());
  const Row& top = ranked.value().rows[0];
  // The registry stores NormalizeSql()-folded text (lowercased).
  EXPECT_NE(top[0].AsString().find("explain analyze select v from t"),
            std::string::npos)
      << top[0].AsString();
  EXPECT_GT(top[1].AsDouble(), 0.5 * qr.wall_seconds)
      << "wait=" << top[1].AsDouble() << "s wall=" << qr.wall_seconds << "s";
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

/// The scheduler state letter of one of this process's threads ('R'
/// running, 'S' sleeping, ...) from /proc/self/task/<tid>/stat, or '?' when
/// it cannot be read.
char ThreadState(pid_t tid) {
  const std::string path =
      "/proc/self/task/" + std::to_string(tid) + "/stat";
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return '?';
  char buf[512];
  const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  // "tid (comm) S ...": the state follows the last ')' (comm may hold one).
  const char* close = std::strrchr(buf, ')');
  return close != nullptr && close[1] == ' ' ? close[2] : '?';
}

TEST(WaitScopeCoverage, MutexRecordsContendedAcquire) {
  // The handshake below reads thread states from /proc.
  ASSERT_EQ(ThreadState(static_cast<pid_t>(syscall(SYS_gettid))), 'R');
  Mutex mu(LockRank::kLogManager, "test::contended");
  std::atomic<pid_t> contender_tid{0};
  const uint64_t before = Recorded(WaitEventId::kLWLockLogManager);
  std::thread contender;
  {
    MutexLock lock(mu);
    contender = std::thread([&] {
      contender_tid = static_cast<pid_t>(syscall(SYS_gettid));
      MutexLock inner(mu);
    });
    while (contender_tid == 0) std::this_thread::yield();
    // Release only once the contender sleeps in the kernel: its spin budget
    // only yields, so a sleeping contender is parked on the futex and its
    // acquire is a true (recorded) wait, however loaded the host is.
    while (ThreadState(contender_tid) != 'S') {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  contender.join();
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

}  // namespace
}  // namespace elephant
