#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "engine/session.h"
#include "obs/json.h"
#include "obs/prometheus.h"
#include "obs/trace_log.h"
#include "tpch/tpch.h"

namespace elephant {
namespace {

/// End-to-end coverage of the engine-lifetime telemetry subsystem: the
/// Chrome-trace export must be valid JSON with balanced spans across worker
/// threads, the Prometheus export must conform to the text exposition
/// format, and the per-object heatmap must sum exactly to the global
/// disk/pool counters — serial and under PARALLEL 4.
class TelemetryTest : public ::testing::Test {
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
  }
  static void TearDownTestSuite() {
    obs::TraceLog::Global().Disable();
    delete db_;
    db_ = nullptr;
  }

  void RunMixedWorkload(const std::string& hint) {
    const std::vector<std::string> sqls = {
        "SELECT COUNT(*), SUM(l_quantity) FROM lineitem",
        "SELECT l_orderkey, l_extendedprice FROM lineitem "
        "WHERE l_orderkey < 500",
        "SELECT o_orderpriority, COUNT(*) FROM orders "
        "GROUP BY o_orderpriority ORDER BY o_orderpriority",
        "SELECT l_returnflag, l_linestatus, SUM(l_quantity) FROM lineitem "
        "GROUP BY l_returnflag, l_linestatus",
    };
    for (const std::string& sql : sqls) {
      auto r = db_->Execute(hint + sql);
      ASSERT_TRUE(r.ok()) << sql << "\n" << r.status().ToString();
    }
  }

  /// Asserts the per-object heatmap totals equal the engine-global counters
  /// exactly (the subsystem's core accounting invariant).
  void ExpectHeatmapMatchesGlobals() {
    const obs::ObjectIoStats total = db_->heatmap().Total();
    const IoStats disk = db_->disk().stats();
    const BufferPoolStats pool = db_->pool().stats();
    EXPECT_EQ(total.sequential_reads, disk.sequential_reads);
    EXPECT_EQ(total.random_reads, disk.random_reads);
    EXPECT_EQ(total.page_writes, disk.page_writes);
    EXPECT_EQ(total.pool_hits, pool.hits);
    EXPECT_EQ(total.pool_faults, pool.misses);
  }

  void ResetAllCounters() {
    db_->heatmap().Reset();
    db_->disk().ResetStats();
    db_->pool().ResetStats();
  }

  static Database* db_;
};

Database* TelemetryTest::db_ = nullptr;

TEST_F(TelemetryTest, HeatmapSumsToGlobalIoStatsSerial) {
  ResetAllCounters();
  RunMixedWorkload("");
  ExpectHeatmapMatchesGlobals();
  // The workload touches both base tables; each must appear by name.
  const auto objects = db_->heatmap().Snapshot();
  EXPECT_TRUE(objects.count("table:lineitem") != 0);
  EXPECT_TRUE(objects.count("table:orders") != 0);
}

TEST_F(TelemetryTest, HeatmapSumsToGlobalIoStatsParallel) {
  ResetAllCounters();
  RunMixedWorkload("/*+ PARALLEL 4 */ ");
  ExpectHeatmapMatchesGlobals();
}

TEST_F(TelemetryTest, HeatmapTextAndJsonRender) {
  ResetAllCounters();
  RunMixedWorkload("");
  const std::string json = db_->ExportHeatmapJson();
  std::string error;
  EXPECT_TRUE(obs::ValidateJson(json, &error)) << error << "\n" << json;
  const std::string text = db_->ExportHeatmapText();
  EXPECT_NE(text.find("table:lineitem"), std::string::npos) << text;
  EXPECT_NE(text.find("TOTAL"), std::string::npos) << text;
}

TEST_F(TelemetryTest, TraceIsValidJsonWithBalancedSpans) {
  obs::TraceLog& log = obs::TraceLog::Global();
  log.Clear();
  log.Enable();
  // Multi-session PARALLEL workload: two sessions submit concurrently
  // through the scheduler so statements, worker tasks, morsels, faults and
  // seeks all land on the trace from different threads.
  {
    SessionManager sessions(db_, /*session_threads=*/2);
    Session* s1 = sessions.OpenSession();
    Session* s2 = sessions.OpenSession();
    auto f1 = sessions.Submit(
        s1, "/*+ PARALLEL 4 */ SELECT COUNT(*), SUM(l_quantity) FROM lineitem");
    auto f2 = sessions.Submit(
        s2,
        "/*+ PARALLEL 4 */ SELECT l_returnflag, COUNT(*) FROM lineitem "
        "GROUP BY l_returnflag");
    ASSERT_TRUE(f1.get().ok());
    ASSERT_TRUE(f2.get().ok());
  }
  log.Disable();

  ASSERT_GT(log.EventCount(), 0u);
  EXPECT_EQ(log.DroppedCount(), 0u);

  std::string error;
  const std::string json = log.ToJson();
  EXPECT_TRUE(obs::ValidateJson(json, &error)) << error;

  // Every span id must begin exactly once and end exactly once, on the same
  // thread track (TraceSpan is thread-local RAII).
  const std::vector<obs::TraceEvent> events = log.Snapshot();
  std::map<uint64_t, int> begins;
  std::map<uint64_t, int> ends;
  std::map<uint64_t, uint32_t> begin_tid;
  for (const obs::TraceEvent& ev : events) {
    if (ev.ph == 'B') {
      begins[ev.span_id]++;
      begin_tid[ev.span_id] = ev.tid;
    } else if (ev.ph == 'E') {
      ends[ev.span_id]++;
      EXPECT_EQ(begin_tid.count(ev.span_id), 1u);
      EXPECT_EQ(begin_tid[ev.span_id], ev.tid);
    }
  }
  EXPECT_EQ(begins.size(), ends.size());
  for (const auto& [id, n] : begins) {
    EXPECT_EQ(n, 1) << "span " << id;
    EXPECT_EQ(ends[id], 1) << "span " << id;
  }

  // Spans must cover at least two distinct worker threads (the acceptance
  // bar for a PARALLEL 4 multi-session trace), and worker-side spans must
  // link back to an owning span (the cross-thread parent attribution).
  std::set<uint32_t> worker_tids;
  std::set<uint64_t> all_span_ids;
  for (const obs::TraceEvent& ev : events) {
    if (ev.ph == 'B') all_span_ids.insert(ev.span_id);
  }
  bool saw_task = false;
  for (const obs::TraceEvent& ev : events) {
    if (ev.ph != 'B') continue;
    const std::string name = ev.name;
    if (name == "task" || name == "morsel") worker_tids.insert(ev.tid);
    if (name == "task") {
      saw_task = true;
      EXPECT_NE(ev.parent_id, 0u) << "task span floats parentless";
      EXPECT_EQ(all_span_ids.count(ev.parent_id), 1u)
          << "task parent " << ev.parent_id << " is not a recorded span";
    }
  }
  EXPECT_TRUE(saw_task);
  EXPECT_GE(worker_tids.size(), 2u);

  // Session attribution: statement work must land on session process tracks
  // (pid = session id + 1), not all on the engine track.
  std::set<int32_t> pids;
  for (const obs::TraceEvent& ev : events) pids.insert(ev.pid);
  EXPECT_GE(pids.size(), 2u);
}

/// A statement's QueryTrace as (name, depth) pairs in start order.
std::vector<std::pair<std::string, int>> PhaseShape(
    const std::shared_ptr<const obs::QueryTrace>& trace) {
  std::vector<std::pair<std::string, int>> shape;
  if (trace == nullptr) return shape;
  for (const obs::SpanRecord& s : trace->spans) {
    shape.emplace_back(s.name, s.depth);
  }
  return shape;
}

const std::vector<std::pair<std::string, int>> kSelectPhases = {
    {"parse", 0}, {"bind", 0}, {"plan", 0}, {"execute", 0}};

TEST_F(TelemetryTest, QueryTraceIsIdenticalWithTraceLogOnAndOff) {
  obs::TraceLog& log = obs::TraceLog::Global();
  const std::string select =
      "SELECT o_orderpriority, COUNT(*) FROM orders GROUP BY o_orderpriority";
  const std::vector<std::pair<std::string,
                              std::vector<std::pair<std::string, int>>>>
      cases = {
          {select, kSelectPhases},
          {"EXPLAIN " + select, {{"parse", 0}}},
          {"EXPLAIN ANALYZE " + select, kSelectPhases},
      };
  for (const auto& [sql, expected] : cases) {
    log.Disable();
    auto off = db_->Execute(sql);
    log.Clear();
    log.Enable();
    auto on = db_->Execute(sql);
    log.Disable();
    ASSERT_TRUE(off.ok()) << sql << "\n" << off.status().ToString();
    ASSERT_TRUE(on.ok()) << sql << "\n" << on.status().ToString();
    EXPECT_EQ(PhaseShape(off.value().trace), expected) << sql;
    EXPECT_EQ(PhaseShape(on.value().trace), expected) << sql;
    EXPECT_GT(log.EventCount(), 0u) << sql;
  }

  auto off = db_->ExplainAnalyze(select);
  log.Enable();
  auto on = db_->ExplainAnalyze(select);
  log.Disable();
  ASSERT_TRUE(off.ok()) << off.status().ToString();
  ASSERT_TRUE(on.ok()) << on.status().ToString();
  EXPECT_EQ(PhaseShape(off.value().result.trace), kSelectPhases);
  EXPECT_EQ(PhaseShape(on.value().result.trace), kSelectPhases);
  log.Clear();
}

TEST_F(TelemetryTest, ParallelQueryTraceHoldsOnlyStatementPhases) {
  obs::TraceLog& log = obs::TraceLog::Global();
  ASSERT_TRUE(db_->pool().EvictAll().ok());  // so the scan faults pages in
  log.Clear();
  log.Enable();
  auto r = db_->Execute(
      "/*+ PARALLEL 4 */ SELECT COUNT(*), SUM(l_quantity) FROM lineitem");
  log.Disable();
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  // The Chrome trace saw the worker, morsel and fault spans...
  std::set<std::string> traced;
  for (const obs::TraceEvent& ev : log.Snapshot()) {
    if (ev.ph == 'B') traced.insert(ev.name);
  }
  EXPECT_EQ(traced.count("task"), 1u);
  EXPECT_EQ(traced.count("morsel"), 1u);
  EXPECT_EQ(traced.count("page_fault"), 1u);
  // ...but none of them entered the statement's QueryTrace.
  EXPECT_EQ(PhaseShape(r.value().trace), kSelectPhases);
  log.Clear();
}

TEST_F(TelemetryTest, PrometheusExportConforms) {
  // A PARALLEL statement first, so the lazily-created worker pool exists and
  // its gauges are exported.
  RunMixedWorkload("/*+ PARALLEL 4 */ ");
  const std::string text = db_->ExportMetrics();
  ASSERT_FALSE(text.empty());
  ASSERT_EQ(text.back(), '\n');

  std::set<std::string> typed;      // families with a # TYPE line
  std::set<std::string> histogram;  // families typed histogram
  std::set<std::string> series;     // full series ids (name + labels)
  size_t samples = 0;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    if (line[0] == '#') {
      // Only "# TYPE <name> <type>" and "# HELP ..." comments are emitted.
      if (line.rfind("# TYPE ", 0) == 0) {
        const size_t name_end = line.find(' ', 7);
        ASSERT_NE(name_end, std::string::npos) << line;
        const std::string fam = line.substr(7, name_end - 7);
        EXPECT_EQ(typed.count(fam), 0u) << "duplicate TYPE line: " << fam;
        typed.insert(fam);
        if (line.substr(name_end + 1) == "histogram") histogram.insert(fam);
      } else {
        EXPECT_EQ(line.rfind("# HELP ", 0), 0u) << line;
      }
      continue;
    }
    // Sample line: <name>[{labels}] <value>
    samples++;
    // Label values may hold spaces; the value is after the last one.
    const size_t brace = line.find('{');
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const size_t name_end = brace == std::string::npos
                                ? space
                                : std::min(brace, space);
    const std::string name = line.substr(0, name_end);
    // Metric names must match the Prometheus charset.
    for (char c : name) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == ':';
      EXPECT_TRUE(ok) << "bad char '" << c << "' in " << name;
    }
    EXPECT_EQ(name.rfind("elephant_", 0), 0u) << name;
    // Every sample belongs to a typed family: its own name, or its
    // histogram base name for _bucket/_sum/_count series.
    std::string fam = name;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::string s = suffix;
      if (typed.count(fam) == 0 && fam.size() > s.size() &&
          fam.compare(fam.size() - s.size(), s.size(), s) == 0 &&
          histogram.count(fam.substr(0, fam.size() - s.size())) != 0) {
        fam = fam.substr(0, fam.size() - s.size());
      }
    }
    EXPECT_EQ(typed.count(fam), 1u) << "sample without TYPE line: " << name;
    // No duplicate series (same name + same label set).
    const std::string id = line.substr(0, space);
    EXPECT_EQ(series.count(id), 0u) << "duplicate series: " << id;
    series.insert(id);
  }
  EXPECT_GT(samples, 0u);
  // The point-in-time gauges must be present.
  for (const char* gauge : {"elephant_stat_buffer_pool_resident_pages",
                            "elephant_stat_buffer_pool_pinned_frames",
                            "elephant_stat_scheduler_queue_depth",
                            "elephant_stat_scheduler_utilization"}) {
    EXPECT_NE(text.find(gauge), std::string::npos) << gauge;
  }
}

}  // namespace
}  // namespace elephant
