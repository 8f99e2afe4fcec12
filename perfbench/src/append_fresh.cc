// append_fresh: WAL-logged appends beside materialized-view reads. Base
// tables plus the five views, no c-tables. Each transaction inserts 10
// orders with 1-7 lineitems each (two multi-row INSERTs) and commits with
// one group flush; one MV-answered Figure-2 query follows each commit,
// rotating Q1..Q7, and re-materializes the view the commit made stale. The
// transaction count is a function of --seconds only, because read cost
// grows with the tables: a time-bounded loop would make the work depend on
// host speed.

#include <cctype>
#include <cmath>

#include "bench.h"
#include "benchlib/harness.h"
#include "benchlib/workload.h"
#include "common/rng.h"
#include "cstore/analytic_query.h"
#include "passes.h"
#include "tpch/tpch.h"

namespace perfbench {

namespace {

using elephant::Value;

constexpr int kSetups = 3;
constexpr int kOrdersPerTxn = 10;
// One Q1..Q7 rotation of transactions per this many requested seconds
// (a rotation takes about 2.4 s on a 2.1 GHz Xeon core at SF 0.01).
constexpr double kSecondsPerRotation = 2.5;
constexpr int kHostSamplesPerTxn = 5;  // ~1 ms each against a ~0.35 s cycle
constexpr const char* kQueries[] = {"Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7"};

std::string AggSql(elephant::AggFunc fn, const std::string& column) {
  switch (fn) {
    case elephant::AggFunc::kCountStar:
      return "COUNT(*)";
    case elephant::AggFunc::kCount:
      return "COUNT(" + column + ")";
    case elephant::AggFunc::kSum:
      return "SUM(" + column + ")";
    case elephant::AggFunc::kMin:
      return "MIN(" + column + ")";
    case elephant::AggFunc::kMax:
      return "MAX(" + column + ")";
    case elephant::AggFunc::kAvg:
      return "AVG(" + column + ")";
  }
  return "";
}

/// True when `sql` names `table` as a whole word.
bool ReadsTable(const std::string& sql, const std::string& table) {
  auto word = [](char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; };
  for (size_t at = sql.find(table); at != std::string::npos;
       at = sql.find(table, at + 1)) {
    const size_t end = at + table.size();
    if ((at == 0 || !word(sql[at - 1])) && (end == sql.size() || !word(sql[end]))) {
      return true;
    }
  }
  return false;
}

/// Every view must equal its defining GROUP BY over the base tables.
void CheckViews(Database* db, const elephant::mv::ViewManager& views,
                Outcome* out) {
  for (const elephant::mv::ViewInfo& info : views.views()) {
    const elephant::mv::ViewDef& def = info.def;
    std::string cols, groups, aggs, from, where;
    for (const std::string& g : def.group_cols) {
      groups += (groups.empty() ? "" : ", ") + g;
    }
    cols = groups;
    aggs = groups;
    for (const elephant::mv::ViewInfo::AggColumn& a : info.agg_cols) {
      cols += ", " + a.mv_col;
      aggs += ", " + AggSql(a.fn, a.column);
    }
    for (const std::string& t : def.tables) {
      from += (from.empty() ? "" : ", ") + t;
    }
    for (const auto& [l, r] : def.join_conds) {
      where += (where.empty() ? " WHERE " : " AND ") + l + " = " + r;
    }
    out->attempted++;
    auto stored = db->Execute("SELECT " + cols + " FROM " + info.table_name);
    auto expected = db->Execute("SELECT " + aggs + " FROM " + from + where +
                                " GROUP BY " + groups);
    if (!stored.ok() || !expected.ok()) {
      out->Fail("view check " + def.name + ": " +
                (stored.ok() ? expected.status() : stored.status()).ToString());
    } else if (elephant::paper::ResultChecksum(stored.value()) !=
               elephant::paper::ResultChecksum(expected.value())) {
      out->Fail("view " + def.name + " differs from its GROUP BY");
    }
  }
}

/// A CloneDurableImage -> Reopen round trip must return every acknowledged
/// row.
void CheckDurability(Database* db, int64_t base_key, uint64_t orders,
                     uint64_t lines, Outcome* out) {
  const std::string new_orders =
      "SELECT * FROM orders WHERE o_orderkey > " + std::to_string(base_key);
  const std::string new_lines =
      "SELECT * FROM lineitem WHERE l_orderkey > " + std::to_string(base_key);
  out->attempted++;
  auto live_orders = db->Execute(new_orders);
  auto live_lines = db->Execute(new_lines);
  if (!live_orders.ok() || !live_lines.ok()) {
    out->Fail("durability check: live read failed");
    return;
  }
  if (live_orders.value().rows.size() != orders ||
      live_lines.value().rows.size() != lines) {
    out->Fail("durability check: live tables miss acknowledged rows");
    return;
  }
  auto reopened =
      Database::Reopen(PinnedOptions(/*wal_enabled=*/true),
                       db->CloneDurableImage());
  if (!reopened.ok()) {
    out->Fail("durability check: Reopen failed: " +
              reopened.status().ToString());
    return;
  }
  auto back_orders = reopened.value()->Execute(new_orders);
  auto back_lines = reopened.value()->Execute(new_lines);
  if (!back_orders.ok() || !back_lines.ok() ||
      elephant::paper::ResultChecksum(back_orders.value()) !=
          elephant::paper::ResultChecksum(live_orders.value()) ||
      elephant::paper::ResultChecksum(back_lines.value()) !=
          elephant::paper::ResultChecksum(live_lines.value())) {
    out->Fail("durability check: reopened image lost acknowledged rows");
  }
}

}  // namespace

Status RunAppendFresh(const RunConfig& config, SpanRecorder* spans,
                      Outcome* out) {
  ELE_ASSIGN_OR_RETURN(std::unique_ptr<Rig> rig,
                       SetupRepeated(config, /*with_ctables=*/false,
                                     /*wal_enabled=*/true, kSetups, spans,
                                     out));
  Database* db = rig->db.get();

  ELE_ASSIGN_OR_RETURN(QueryResult max_key,
                       db->Execute("SELECT MAX(o_orderkey) FROM orders"));
  const int64_t base_key = max_key.rows.at(0).at(0).AsInt64();
  ELE_ASSIGN_OR_RETURN(QueryResult supp,
                       db->Execute("SELECT COUNT(*) FROM supplier"));
  const int64_t suppliers = supp.rows.at(0).at(0).AsInt64();
  ELE_ASSIGN_OR_RETURN(QueryResult cust,
                       db->Execute("SELECT COUNT(*) FROM customer"));
  const int64_t customers = cust.rows.at(0).at(0).AsInt64();
  ELE_ASSIGN_OR_RETURN(std::vector<Value> shipdates,
                       DistinctDates(db, "lineitem", "l_shipdate"));
  ELE_ASSIGN_OR_RETURN(std::vector<Value> orderdates,
                       DistinctDates(db, "orders", "o_orderdate"));

  const int txns =
      7 * std::max(1, static_cast<int>(
                          std::lround(config.seconds / kSecondsPerRotation)));
  elephant::Rng rng(config.seed ^ 0xa99e4dull);
  const int32_t min_date = elephant::TpchGenerator::MinOrderDate();
  const int32_t max_date = elephant::TpchGenerator::MaxOrderDate();

  const elephant::wal::WalStats wal_before = db->wal()->stats();
  const elephant::txn::TxnStats txn_before = db->txn_manager()->stats();
  const uint64_t writes_before = db->disk().stats().page_writes;

  // Raw wall seconds; scaled to the reference host speed when reported.
  std::vector<double> stmt_wall, stmt_io, commit_s, read_s, rebuild_s_all;
  std::vector<double> parse, bind, plan, execute, other;
  uint64_t orders_inserted = 0, lines_inserted = 0, rebuilds = 0;
  int64_t next_key = base_key;

  auto run = [&](const std::string& sql, const std::string& name,
                 uint64_t parent, uint64_t trace_id) -> Result<QueryResult> {
    out->attempted++;
    const double span_start = spans->Now();
    const double t0 = NowSeconds();
    Result<QueryResult> r = db->Execute(sql);
    const double wall = NowSeconds() - t0;
    const uint64_t id =
        spans->Add(name, parent, trace_id, span_start, span_start + wall);
    if (!r.ok()) {
      out->Fail(name + ": " + r.status().ToString());
      return r;
    }
    RecordStatementChildren(spans, id, trace_id, span_start, r.value(), false);
    stmt_wall.push_back(wall);
    stmt_io.push_back(r.value().io_seconds);
    if (const elephant::obs::QueryTrace* t = r.value().trace.get()) {
      const double p = t->SecondsFor("parse"), b = t->SecondsFor("bind");
      const double pl = t->SecondsFor("plan"), e = t->SecondsFor("execute");
      parse.push_back(p);
      bind.push_back(b);
      plan.push_back(pl);
      execute.push_back(e);
      other.push_back(wall - p - b - pl - e);
    }
    return r;
  };

  for (int i = 0; i < txns; i++) {
    std::string orders_sql = "INSERT INTO orders VALUES ";
    std::string lines_sql = "INSERT INTO lineitem VALUES ";
    bool first_line = true;
    for (int o = 0; o < kOrdersPerTxn; o++) {
      const int64_t key = ++next_key;
      const int32_t orderdate =
          static_cast<int32_t>(rng.Uniform(min_date, max_date));
      const int lines = static_cast<int>(rng.Uniform(1, 7));
      int64_t total = 0;
      for (int ln = 1; ln <= lines; ln++) {
        const int32_t shipdate =
            orderdate + static_cast<int32_t>(rng.Uniform(1, 121));
        const int32_t qty = static_cast<int32_t>(rng.Uniform(1, 50));
        const int64_t price = rng.Uniform(90000, 10500000) / 100 * qty;
        total += price;
        const std::string flag =
            shipdate < elephant::date::FromYMD(1995, 6, 17)
                ? (rng.Uniform(0, 1) == 0 ? "R" : "A")
                : "N";
        lines_sql += first_line ? "(" : ", (";
        first_line = false;
        lines_sql +=
            std::to_string(key) + ", " + std::to_string(ln) + ", " +
            std::to_string(rng.Uniform(1, suppliers)) + ", " +
            std::to_string(qty) + ", " +
            elephant::SqlLiteral(Value::Decimal(price)) + ", " +
            elephant::SqlLiteral(Value::Decimal(rng.Uniform(0, 10))) + ", " +
            elephant::SqlLiteral(Value::Decimal(rng.Uniform(0, 8))) + ", '" +
            flag + "', '" + (flag == "N" ? "O" : "F") + "', " +
            elephant::SqlLiteral(Value::Date(shipdate)) + ", " +
            elephant::SqlLiteral(Value::Date(
                orderdate + static_cast<int32_t>(rng.Uniform(30, 90)))) +
            ", " +
            elephant::SqlLiteral(Value::Date(
                shipdate + static_cast<int32_t>(rng.Uniform(1, 30)))) +
            ", 'DELIVER IN PERSON', 'TRUCK')";
        lines_inserted++;
      }
      orders_sql += std::string(o > 0 ? ", " : "") + "(" +
                    std::to_string(key) + ", " +
                    std::to_string(rng.Uniform(1, customers)) + ", 'O', " +
                    elephant::SqlLiteral(Value::Decimal(total)) + ", " +
                    elephant::SqlLiteral(Value::Date(orderdate)) +
                    ", '1-URGENT', 0)";
      orders_inserted++;
    }

    const uint64_t trace_id = spans->NewTrace();
    const uint64_t txn = spans->Begin("txn", 0, trace_id);
    const double t0 = NowSeconds();
    bool ok = run("BEGIN", "stmt:BEGIN", txn, trace_id).ok() &&
              run(orders_sql, "stmt:INSERT orders", txn, trace_id).ok() &&
              run(lines_sql, "stmt:INSERT lineitem", txn, trace_id).ok() &&
              run("COMMIT", "stmt:COMMIT", txn, trace_id).ok();
    const double txn_s = NowSeconds() - t0;
    spans->End(txn);
    if (!ok) {
      (void)db->Execute("ROLLBACK");  // lint:allow(discarded-status): the failure is already counted
      continue;
    }
    commit_s.push_back(txn_s);

    const char* qname = kQueries[i % 7];
    const std::string q = qname;
    Value d = Value::Char("R");
    if (q != "Q7") {
      const bool ship = q == "Q1" || q == "Q2" || q == "Q3";
      const std::vector<Value>& dates = ship ? shipdates : orderdates;
      d = dates[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(dates.size()) - 1))];
    }
    ELE_ASSIGN_OR_RETURN(
        std::string sql,
        rig->views->TryRewrite(elephant::paper::QueryByName(qname, d)));
    const uint64_t read_trace = spans->NewTrace();
    const uint64_t fresh = spans->Begin(std::string("fresh_read:") + qname, 0,
                                        read_trace);
    double rebuild_s = 0;
    for (const elephant::mv::ViewInfo& v : rig->views->views()) {
      if (!ReadsTable(sql, v.table_name) ||
          !db->catalog().IsStale(v.table_name)) {
        continue;
      }
      rebuilds++;
      if (config.trace) {
        // The traced run splits the re-materialization out of the read.
        const uint64_t span = spans->Begin(
            "mv.RebuildIfStale:" + v.def.name, fresh, read_trace);
        const double r0 = NowSeconds();
        Status s = db->catalog().RebuildIfStale(v.table_name);
        rebuild_s += NowSeconds() - r0;
        rebuild_s_all.push_back(NowSeconds() - r0);
        spans->End(span);
        if (!s.ok()) out->Fail("rebuild " + v.def.name + ": " + s.ToString());
      }
    }
    const double r0 = NowSeconds();
    if (run(sql, std::string("stmt:fresh ") + qname, fresh, read_trace).ok()) {
      read_s.push_back(rebuild_s + NowSeconds() - r0);
    }
    spans->End(fresh);
    for (int k = 0; k < kHostSamplesPerTxn; k++) out->host.Sample();
  }

  const elephant::wal::WalStats wal_after = db->wal()->stats();
  const elephant::txn::TxnStats txn_after = db->txn_manager()->stats();
  const uint64_t page_writes = db->disk().stats().page_writes - writes_before;
  const uint64_t committed = txn_after.committed - txn_before.committed;
  const uint64_t aborted = txn_after.aborted - txn_before.aborted;
  if (committed != static_cast<uint64_t>(txns) || aborted != 0) {
    out->Fail("expected " + std::to_string(txns) + " commits, saw " +
              std::to_string(committed) + " commits and " +
              std::to_string(aborted) + " aborts");
  }

  CheckViews(db, *rig->views, out);
  CheckDurability(db, base_key, orders_inserted, lines_inserted, out);

  const double t = static_cast<double>(txns);
  const uint64_t records = wal_after.records_appended - wal_before.records_appended;
  const uint64_t bytes = wal_after.bytes_appended - wal_before.bytes_appended;
  const uint64_t flushes = wal_after.flushes - wal_before.flushes;
  out->deterministic["wal.records"] = records;
  out->deterministic["wal.bytes"] = bytes;
  out->deterministic["wal.flushes"] = flushes;
  out->deterministic["storage.page_writes"] = page_writes;
  out->deterministic["rows_inserted"] = orders_inserted + lines_inserted;
  out->deterministic["mv.rebuilds"] = rebuilds;

  const double scale = out->host.Scale();
  std::vector<double> latency;
  double total = 0;
  for (size_t i = 0; i < stmt_wall.size(); i++) {
    latency.push_back(stmt_io[i] + stmt_wall[i] * scale);
    total += latency.back();
  }
  out->Set("stmt_p50_ms", Quantile(latency, 0.5) * 1e3, "ms");
  out->Set("stmt_p90_ms", Quantile(latency, 0.9) * 1e3, "ms");
  out->Set("stmt_qps", total > 0 ? latency.size() / total : 0, "1/s");
  out->Set("pass_s", total, "s");
  out->samples["stmt_p50_ms"] = latency.size();
  out->samples["stmt_p90_ms"] = latency.size();
  SetPhaseMetrics(parse, bind, plan, execute, other, out);

  const double ms = 1e3 * scale;
  out->Set("commit_p50_ms", Quantile(commit_s, 0.5) * ms, "ms");
  out->Set("commit_p90_ms", Quantile(commit_s, 0.9) * ms, "ms");
  out->Set("fresh_read_p50_ms", Quantile(read_s, 0.5) * ms, "ms");
  out->Set("mv.rebuild_ms", Quantile(rebuild_s_all, 0.5) * ms, "ms");
  out->samples["commit_p50_ms"] = commit_s.size();
  out->samples["fresh_read_p50_ms"] = read_s.size();
  out->Set("wal.records_per_txn", records / t, "count");
  out->Set("wal.bytes_per_row",
           static_cast<double>(bytes) /
               static_cast<double>(orders_inserted + lines_inserted),
           "B");
  out->Set("wal.flushes_per_txn", flushes / t, "count");
  out->Set("storage.page_writes_per_txn", page_writes / t, "count");
  out->Set("txn.committed", static_cast<double>(committed), "count");
  out->Set("txn.aborted", static_cast<double>(aborted), "count");
  out->Set("mv.rebuilds", static_cast<double>(rebuilds), "count");
  return Status::OK();
}

}  // namespace perfbench
