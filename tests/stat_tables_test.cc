#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "engine/session.h"
#include "obs/json.h"
#include "obs/stat_statements.h"
#include "obs/trace_log.h"
#include "tpch/tpch.h"

namespace elephant {
namespace {

// ---------------------------------------------------------------------------
// Unit coverage of the registry itself (no engine involved).
// ---------------------------------------------------------------------------

TEST(NormalizeSql, StripsLiteralsCaseAndWhitespace) {
  EXPECT_EQ(obs::NormalizeSql(
                "SELECT  a,\n b FROM T WHERE a = 10 AND b = 'x  9 y'"),
            "select a, b from t where a = ? and b = ?");
  // Digits inside identifiers are part of the name, not a literal.
  EXPECT_EQ(obs::NormalizeSql("SELECT col2 FROM t2 WHERE col2 < 2.5"),
            "select col2 from t2 where col2 < ?");
  // Escaped quote inside a string literal.
  EXPECT_EQ(obs::NormalizeSql("SELECT * FROM t WHERE s = 'it''s'"),
            "select * from t where s = ?");
}

TEST(NormalizeSql, FingerprintGroupsShapes) {
  const uint64_t a =
      obs::FingerprintSql("SELECT x FROM t WHERE k < 100 AND s = 'abc'");
  const uint64_t b =
      obs::FingerprintSql("select X  from T where K < 999 and S = 'zzz'");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, obs::FingerprintSql("SELECT x FROM t WHERE k > 100"));
}

TEST(StatStatements, AccumulatesAndGroupsByFingerprintAndPlan) {
  obs::StatStatements reg(8);
  obs::StatementRecord s;
  s.SetSql("SELECT a FROM t WHERE k < 10");
  s.plan_hash = 42;
  s.rows = 3;
  s.latency_seconds = 0.5;
  s.io_seconds = 0.25;
  s.io.sequential_reads = 7;
  s.wait_profile.Add(obs::WaitEventId::kLockTableShared, 200000000);
  s.wait_profile.Add(obs::WaitEventId::kIoDataFileRead, 50000000);
  reg.Record(s);
  s.SetSql("SELECT a FROM t WHERE k < 99");  // same shape
  s.rows = 5;
  reg.Record(s);

  ASSERT_EQ(reg.size(), 1u);
  const obs::StatementStats e = reg.Snapshot()[0];
  EXPECT_EQ(e.calls, 2u);
  EXPECT_EQ(e.rows, 8u);
  EXPECT_EQ(e.io.sequential_reads, 14u);
  EXPECT_DOUBLE_EQ(e.total_seconds, 1.0);
  EXPECT_DOUBLE_EQ(e.total_io_seconds, 0.5);
  EXPECT_DOUBLE_EQ(e.total_wait_seconds, 0.5);  // 2 calls x 250ms
  EXPECT_EQ(e.query, "select a from t where k < ?");
  EXPECT_EQ(e.min_seconds, 0.5);
  EXPECT_EQ(e.max_seconds, 0.5);

  // Same shape, different plan hash -> distinct entry.
  s.plan_hash = 43;
  reg.Record(s);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(StatStatements, LruEvictionIsBoundedAndCounted) {
  obs::StatStatements reg(2);
  obs::StatementRecord s;
  s.latency_seconds = 0.001;
  s.SetSql("SELECT 1 FROM a");
  reg.Record(s);
  s.SetSql("SELECT 1 FROM b");
  reg.Record(s);
  EXPECT_EQ(reg.evicted_entries(), 0u);

  // Touch `a` so `b` becomes the LRU victim.
  s.SetSql("SELECT 1 FROM a");
  reg.Record(s);
  s.SetSql("SELECT 1 FROM c");
  reg.Record(s);

  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.evicted_entries(), 1u);
  std::set<std::string> queries;
  for (const obs::StatementStats& e : reg.Snapshot()) queries.insert(e.query);
  EXPECT_TRUE(queries.count("select 1 from a") != 0);
  EXPECT_TRUE(queries.count("select 1 from c") != 0);
  EXPECT_TRUE(queries.count("select 1 from b") == 0);
}

TEST(StatStatements, ResidualsAccumulatePerOperatorClass) {
  obs::StatStatements reg;
  obs::StatementRecord s;
  s.SetSql("SELECT 1 FROM t");
  s.latency_seconds = 0.1;
  s.residuals.push_back({"ClusteredIndexScan", 0.02, 0.05});
  s.residuals.push_back({"HashJoin", 0.0, 0.01});
  s.residuals.push_back({"ClusteredIndexScan", 0.01, 0.01});
  reg.Record(s);
  s.residuals.clear();
  reg.Record(s);  // uninstrumented

  const obs::StatementStats e = reg.Snapshot()[0];
  EXPECT_EQ(e.calls, 2u);
  EXPECT_EQ(e.instrumented_calls, 1u);
  ASSERT_EQ(e.operator_classes.size(), 2u);
  const obs::OperatorClassStats& scan = e.operator_classes.at("ClusteredIndexScan");
  EXPECT_EQ(scan.operators, 2u);
  EXPECT_DOUBLE_EQ(scan.modeled_io_seconds, 0.03);
  EXPECT_DOUBLE_EQ(scan.measured_seconds, 0.06);
  EXPECT_NEAR(scan.ResidualSeconds(), 0.03, 1e-12);
  EXPECT_DOUBLE_EQ(e.operator_classes.at("HashJoin").ResidualSeconds(), 0.01);
}

TEST(StatStatements, ToJsonIsValidAndCarriesTotals) {
  obs::StatStatements reg;
  obs::StatementRecord s;
  s.SetSql("SELECT a FROM t WHERE k = 7");
  s.latency_seconds = 0.01;
  s.io.random_reads = 3;
  s.residuals.push_back({"Filter", 0.001, 0.002});
  reg.Record(s);

  const std::string json = reg.ToJson();
  std::string error;
  EXPECT_TRUE(obs::ValidateJson(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"evicted_entries\""), std::string::npos);
  EXPECT_NE(json.find("\"totals\""), std::string::npos);
  EXPECT_NE(json.find("\"operator_classes\""), std::string::npos);
  EXPECT_NE(json.find("\"total_wait_seconds\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end coverage through SQL: the elephant_stat_* virtual tables.
// ---------------------------------------------------------------------------

class StatTablesTest : public ::testing::Test {
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
    };
    for (const std::string& sql : sqls) {
      auto r = db_->Execute(hint + sql);
      ASSERT_TRUE(r.ok()) << sql << "\n" << r.status().ToString();
    }
  }

  void ResetAllCounters() {
    db_->heatmap().Reset();
    db_->disk().ResetStats();
    db_->pool().ResetStats();
    db_->stat_statements().Reset();
  }

  /// SUM(io_*) over elephant_stat_statements must equal the global disk
  /// counters exactly (same discipline as the PR 4 heatmap reconciliation;
  /// valid because ResetAllCounters() zeroed both sides together and
  /// elephant_stat_* queries neither touch pages nor enter the registry).
  void ExpectRegistryMatchesGlobalIo() {
    auto r = db_->Execute(
        "SELECT SUM(io_sequential_reads), SUM(io_random_reads), "
        "SUM(io_page_writes), SUM(io_prefetch_hits) "
        "FROM elephant_stat_statements");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r.value().rows.size(), 1u);
    const Row& row = r.value().rows[0];
    const IoStats disk = db_->disk().stats();
    EXPECT_EQ(row[0].AsInt64(),
              static_cast<int64_t>(disk.sequential_reads));
    EXPECT_EQ(row[1].AsInt64(), static_cast<int64_t>(disk.random_reads));
    EXPECT_EQ(row[2].AsInt64(), static_cast<int64_t>(disk.page_writes));
    EXPECT_EQ(row[3].AsInt64(),
              static_cast<int64_t>(disk.readahead.prefetch_hits));
  }

  static Database* db_;
};

Database* StatTablesTest::db_ = nullptr;

TEST_F(StatTablesTest, AcceptanceQueryEndToEnd) {
  ResetAllCounters();
  RunMixedWorkload("");
  auto r = db_->Execute(
      "SELECT * FROM elephant_stat_statements "
      "ORDER BY total_io_seconds DESC LIMIT 5");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const QueryResult& qr = r.value();
  EXPECT_EQ(qr.schema.NumColumns(), 21u);
  EXPECT_GE(qr.schema.FindColumn("total_io_seconds"), 0);
  EXPECT_GE(qr.schema.FindColumn("wait_seconds"), 0);
  ASSERT_GE(qr.rows.size(), 3u);
  ASSERT_LE(qr.rows.size(), 5u);
  const int io_col = qr.schema.FindColumn("total_io_seconds");
  const int calls_col = qr.schema.FindColumn("calls");
  double prev = qr.rows[0][io_col].AsDouble();
  for (const Row& row : qr.rows) {
    EXPECT_LE(row[io_col].AsDouble(), prev);  // ORDER BY ... DESC held
    prev = row[io_col].AsDouble();
    EXPECT_GE(row[calls_col].AsInt64(), 1);
  }
}

TEST_F(StatTablesTest, LiteralsGroupIntoOneFamily) {
  ResetAllCounters();
  ASSERT_TRUE(db_->Execute(
                     "SELECT l_orderkey FROM lineitem WHERE l_orderkey < 100")
                  .ok());
  ASSERT_TRUE(db_->Execute(
                     "SELECT l_orderkey FROM lineitem WHERE l_orderkey < 200")
                  .ok());
  const auto entries = db_->stat_statements().Snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].calls, 2u);
  EXPECT_NE(entries[0].query.find("l_orderkey < ?"), std::string::npos)
      << entries[0].query;
}

TEST_F(StatTablesTest, StatQueriesAreNotSelfInstrumented) {
  ResetAllCounters();
  ASSERT_TRUE(db_->Execute("SELECT * FROM elephant_stat_statements").ok());
  ASSERT_TRUE(db_->Execute("SELECT * FROM elephant_stat_io").ok());
  // Also when buried inside a derived table.
  ASSERT_TRUE(
      db_->Execute("SELECT COUNT(*) FROM "
                   "(SELECT calls FROM elephant_stat_statements) s")
          .ok());
  EXPECT_EQ(db_->stat_statements().size(), 0u);

  // A normal statement still lands.
  ASSERT_TRUE(db_->Execute("SELECT COUNT(*) FROM orders").ok());
  EXPECT_EQ(db_->stat_statements().size(), 1u);
}

TEST_F(StatTablesTest, RegistryReconcilesWithGlobalIoSerial) {
  ResetAllCounters();
  RunMixedWorkload("");
  ExpectRegistryMatchesGlobalIo();
}

TEST_F(StatTablesTest, RegistryReconcilesWithGlobalIoParallel) {
  ResetAllCounters();
  RunMixedWorkload("/*+ PARALLEL 4 */ ");
  ExpectRegistryMatchesGlobalIo();
}

TEST_F(StatTablesTest, RegistryReconcilesWithGlobalIoMultiSession) {
  ResetAllCounters();
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
  ExpectRegistryMatchesGlobalIo();
}

TEST_F(StatTablesTest, OtherStatTablesServeLiveState) {
  ResetAllCounters();
  RunMixedWorkload("");

  auto pool = db_->Execute("SELECT capacity_pages, hits, misses "
                           "FROM elephant_stat_buffer_pool");
  ASSERT_TRUE(pool.ok()) << pool.status().ToString();
  ASSERT_EQ(pool.value().rows.size(), 1u);
  EXPECT_EQ(pool.value().rows[0][0].AsInt64(),
            static_cast<int64_t>(db_->pool().capacity()));
  EXPECT_GT(pool.value().rows[0][1].AsInt64(), 0);

  auto io = db_->Execute(
      "SELECT sequential_reads, random_reads FROM elephant_stat_io");
  ASSERT_TRUE(io.ok()) << io.status().ToString();
  const IoStats disk = db_->disk().stats();
  EXPECT_EQ(io.value().rows[0][0].AsInt64(),
            static_cast<int64_t>(disk.sequential_reads));

  // Heatmap rows are filterable/orderable like any relation.
  auto hm = db_->Execute(
      "SELECT object, pool_hits FROM elephant_stat_heatmap "
      "WHERE pool_hits > 0 ORDER BY pool_hits DESC");
  ASSERT_TRUE(hm.ok()) << hm.status().ToString();
  EXPECT_GE(hm.value().rows.size(), 1u);

  auto sched = db_->Execute(
      "SELECT worker_threads, busy_seconds FROM elephant_stat_scheduler");
  ASSERT_TRUE(sched.ok()) << sched.status().ToString();
  ASSERT_EQ(sched.value().rows.size(), 1u);
}

TEST_F(StatTablesTest, VirtualTablesRejectInsertAndCreate) {
  auto ins = db_->Execute(
      "INSERT INTO elephant_stat_statements VALUES (1, 2, 3)");
  ASSERT_FALSE(ins.ok());
  EXPECT_NE(ins.status().ToString().find("virtual"), std::string::npos)
      << ins.status().ToString();
  // The reserved prefix is closed even for names nothing is registered under.
  auto ins2 = db_->Execute("INSERT INTO elephant_stat_bogus VALUES (1)");
  ASSERT_FALSE(ins2.ok());
  auto ct = db_->Execute("CREATE TABLE elephant_stat_mine (a INT)");
  ASSERT_FALSE(ct.ok());
  EXPECT_NE(ct.status().ToString().find("reserved"), std::string::npos)
      << ct.status().ToString();
}

TEST_F(StatTablesTest, UnknownStatTableBindsErrorWithQuotedName) {
  auto r = db_->Execute("SELECT * FROM elephant_stat_nonexistent");
  ASSERT_FALSE(r.ok());
  // The parser upper-cases unquoted identifiers; the binder quotes the name
  // it saw so the error pinpoints which elephant_stat_ table was misspelled.
  EXPECT_NE(r.status().ToString().find("\"ELEPHANT_STAT_NONEXISTENT\""),
            std::string::npos)
      << r.status().ToString();
}

TEST_F(StatTablesTest, InstrumentedRunsRecordResiduals) {
  ResetAllCounters();
  auto r = db_->ExplainAnalyze("SELECT COUNT(*) FROM lineitem");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto entries = db_->stat_statements().Snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].instrumented_calls, 1u);
  ASSERT_FALSE(entries[0].operator_classes.empty());
  uint64_t operators = 0;
  double measured = 0;
  for (const auto& [cls, stats] : entries[0].operator_classes) {
    operators += stats.operators;
    measured += stats.measured_seconds;
  }
  EXPECT_GE(operators, 2u);  // at least scan + aggregate
  EXPECT_GE(measured, 0.0);

  // The EXPLAIN ANALYZE JSON header carries the join keys.
  std::string error;
  EXPECT_TRUE(obs::ValidateJson(r.value().json, &error)) << error;
  EXPECT_NE(r.value().json.find("\"sql_fingerprint\""), std::string::npos);
  EXPECT_NE(r.value().json.find("\"plan_hash\""), std::string::npos);
}

TEST_F(StatTablesTest, ExportsValidateAndSurfaceRegistryFamilies) {
  ResetAllCounters();
  RunMixedWorkload("");
  std::string error;
  const std::string json = db_->ExportStatStatements();
  EXPECT_TRUE(obs::ValidateJson(json, &error)) << error;
  EXPECT_NE(json.find("\"statements\""), std::string::npos);

  const std::string prom = db_->ExportMetrics();
  // One calls sample per registry entry, labeled by its statement shape.
  size_t calls_samples = 0;
  for (size_t pos = prom.find("\nelephant_stat_statements_calls{query=\"");
       pos != std::string::npos;
       pos = prom.find("\nelephant_stat_statements_calls{query=\"", pos + 1)) {
    calls_samples++;
    EXPECT_LT(prom.find(",fingerprint=\"", pos), prom.find('\n', pos + 1));
  }
  EXPECT_EQ(calls_samples, db_->stat_statements().size());
  EXPECT_NE(prom.find("elephant_stat_database_stat_statements_evictions "),
            std::string::npos);
  EXPECT_NE(prom.find("elephant_stat_database_trace_dropped_spans "),
            std::string::npos);
}

TEST_F(StatTablesTest, RegistryFingerprintJoinsExplainAnalyzeJson) {
  ResetAllCounters();
  const std::string sql =
      "SELECT l_orderkey FROM lineitem WHERE l_orderkey < 100";
  ASSERT_TRUE(db_->Execute(sql).ok());
  ASSERT_TRUE(db_->Execute(
                     "SELECT l_orderkey FROM lineitem WHERE l_orderkey < 250")
                  .ok());

  // Both literals fold into one registry entry keyed by the shape's
  // fingerprint, rendered as a HexHash string like every other export.
  auto stat = db_->Execute(
      "SELECT fingerprint, plan_hash, calls FROM elephant_stat_statements "
      "WHERE query = '" + obs::NormalizeSql(sql) + "'");
  ASSERT_TRUE(stat.ok()) << stat.status().ToString();
  ASSERT_EQ(stat.value().rows.size(), 1u);
  const std::string fingerprint = stat.value().rows[0][0].AsString();
  const std::string plan_hash = stat.value().rows[0][1].AsString();
  EXPECT_EQ(fingerprint, obs::HexHash(obs::FingerprintSql(sql)));
  EXPECT_EQ(plan_hash.size(), 16u);
  EXPECT_EQ(stat.value().rows[0][2].AsInt64(), 2);

  // The string value of the first `key` in `doc`.
  auto string_at = [](const std::string& doc, const std::string& key) {
    const std::string needle = "\"" + key + "\":\"";
    const size_t pos = doc.find(needle);
    if (pos == std::string::npos) return std::string();
    const size_t start = pos + needle.size();
    return doc.substr(start, doc.find('"', start) - start);
  };
  // EXPLAIN ANALYZE JSON of the same statement joins against the registry
  // without conversion.
  auto analyzed = db_->ExplainAnalyze(sql);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_EQ(string_at(analyzed.value().json, "sql_fingerprint"), fingerprint);
  EXPECT_EQ(string_at(analyzed.value().json, "plan_hash"), plan_hash);
}

TEST_F(StatTablesTest, TraceDropCounterObservableAfterOverflow) {
  obs::TraceLog& log = obs::TraceLog::Global();
  log.Clear();
  log.SetCapacity(4);  // force the balanced-drop path cheaply
  log.Enable();
  ASSERT_TRUE(db_->Execute("SELECT COUNT(*) FROM orders").ok());
  log.Disable();
  EXPECT_GT(log.DroppedCount(), 0u);

  const std::string prom = db_->ExportMetrics();
  const std::string name = "elephant_stat_database_trace_dropped_spans ";
  const size_t pos = prom.find(name);
  ASSERT_NE(pos, std::string::npos) << prom;
  EXPECT_NE(prom[pos + name.size()], '0');

  // Dropped spans must not unbalance the capture: every recorded 'B' still
  // has its 'E' admitted past the cap.
  size_t begins = 0, ends = 0;
  for (const obs::TraceEvent& ev : log.Snapshot()) {
    if (ev.ph == 'B') begins++;
    if (ev.ph == 'E') ends++;
  }
  EXPECT_EQ(begins, log.Snapshot().size() - ends);
  log.SetCapacity(obs::TraceLog::kMaxEvents);
  log.Clear();
}

// Every numeric cell of every exported table is one sample of
// `<table>_<column>`, labeled by its row's VARCHAR cells, with the cell's
// value. The tables are read through their providers (as the export reads
// them) just before and just after the export, and each exported value must
// lie between the two readings: cells that cannot move without a statement
// must match exactly, and time-derived ones (scheduler utilization) may only
// drift the way the tables themselves drift.
TEST_F(StatTablesTest, PrometheusExportMatchesStatTables) {
  RunMixedWorkload("");
  RunMixedWorkload("/*+ PARALLEL 4 */ ");
  ASSERT_TRUE(db_->ExplainAnalyze("SELECT COUNT(*) FROM orders").ok());
  ASSERT_TRUE(db_->Execute("EXPLAIN SELECT COUNT(*) FROM orders").ok());
  ASSERT_TRUE(db_->Execute("SELECT * FROM elephant_stat_io").ok());

  // Sample id: family name plus its label set, labels sorted by name.
  using Samples = std::map<std::string, double>;
  const auto sample_id = [](const std::string& family,
                            const std::map<std::string, std::string>& labels) {
    std::string id = family;
    for (const auto& [name, value] : labels) id += "|" + name + "=" + value;
    return id;
  };
  const std::vector<std::string> exported = {
      "elephant_stat_database",   "elephant_stat_statements",
      "elephant_stat_buffer_pool", "elephant_stat_io",
      "elephant_stat_heatmap",    "elephant_stat_scheduler",
      "elephant_stat_wal",        "elephant_stat_transactions",
      "elephant_stat_wait_events",
  };
  const auto read_tables = [&]() {
    Samples out;
    for (const std::string& name : exported) {
      const VirtualTable* table = db_->catalog().GetVirtualTable(name);
      EXPECT_NE(table, nullptr) << name;
      if (table == nullptr) continue;
      Result<std::vector<Row>> rows = table->provider();
      EXPECT_TRUE(rows.ok()) << name;
      if (!rows.ok()) continue;
      const Schema& schema = table->schema;
      for (const Row& row : rows.value()) {
        std::map<std::string, std::string> labels;
        for (size_t c = 0; c < schema.NumColumns(); c++) {
          if (schema.ColumnAt(c).type == TypeId::kVarchar) {
            labels[schema.ColumnAt(c).name] = row[c].AsString();
          }
        }
        for (size_t c = 0; c < schema.NumColumns(); c++) {
          if (!IsNumeric(schema.ColumnAt(c).type)) continue;
          const std::string id =
              sample_id(name + "_" + schema.ColumnAt(c).name, labels);
          EXPECT_EQ(out.count(id), 0u) << "two cells share sample " << id;
          out[id] = row[c].AsDouble();
        }
      }
    }
    return out;
  };

  const Samples before = read_tables();
  const std::string text = db_->ExportMetrics();
  const Samples after = read_tables();

  // Parse the exposition: `name{label="value",...} number`, with label
  // values unescaped (\\, \" and \n).
  Samples got;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    size_t i = line.find_first_of("{ ");
    ASSERT_NE(i, std::string::npos) << line;
    const std::string family = line.substr(0, i);
    std::map<std::string, std::string> labels;
    if (line[i] == '{') {
      i++;
      while (line[i] != '}') {
        const size_t eq = line.find("=\"", i);
        ASSERT_NE(eq, std::string::npos) << line;
        const std::string label = line.substr(i, eq - i);
        std::string value;
        for (i = eq + 2; line[i] != '"'; i++) {
          ASSERT_LT(i + 1, line.size()) << line;
          if (line[i] == '\\') {
            i++;
            value += line[i] == 'n' ? '\n' : line[i];
          } else {
            value += line[i];
          }
        }
        labels[label] = value;
        i++;  // closing quote
        if (line[i] == ',') i++;
      }
      i++;  // closing brace
    }
    ASSERT_EQ(line[i], ' ') << line;
    const std::string id = sample_id(family, labels);
    EXPECT_EQ(got.count(id), 0u) << "duplicate series " << id;
    got[id] = std::stod(line.substr(i + 1));
  }

  ASSERT_EQ(before.size(), after.size());
  EXPECT_EQ(got.size(), before.size());
  for (const auto& [id, value] : before) {
    const auto it = got.find(id);
    if (it == got.end()) {
      ADD_FAILURE() << "not exported: " << id;
      continue;
    }
    ASSERT_EQ(after.count(id), 1u) << id;
    EXPECT_GE(it->second, std::min(value, after.at(id))) << id;
    EXPECT_LE(it->second, std::max(value, after.at(id))) << id;
  }
  // The workload reached the new families, not just their zeros.
  EXPECT_GT(got.at("elephant_stat_database_statements_select"), 0);
  EXPECT_GT(got.at("elephant_stat_database_select_count"), 0);
  EXPECT_GT(got.at("elephant_stat_scheduler_worker_threads"), 0);
}

}  // namespace
}  // namespace elephant
