// adhoc_warm: a seeded stream of short statements on a warm buffer pool.
// Four families in equal shares: orders point lookups, per-order lineitem
// aggregates over the clustered-key prefix, and Q2/Q5 instances answered
// through the materialized views and through the c-tables. The working set
// fits the pool, so parse/bind/plan and per-statement bookkeeping are a
// large share of each statement, and many statements share a fingerprint.

#include <algorithm>

#include "bench.h"
#include "benchlib/workload.h"
#include "common/rng.h"
#include "passes.h"

namespace perfbench {

namespace {

constexpr int kSetups = 2;  // each setup builds the c-tables (~10 s)
constexpr int kPerFamily = 250;  // statements of each family in the stream
constexpr int kMinPasses = 3;
constexpr const char* kFamilies[] = {"point", "prefix_agg", "mv", "col"};

}  // namespace

Status RunAdhocWarm(const RunConfig& config, SpanRecorder* spans,
                    Outcome* out) {
  ELE_ASSIGN_OR_RETURN(std::unique_ptr<Rig> rig,
                       SetupRepeated(config, /*with_ctables=*/true,
                                     /*wal_enabled=*/false, kSetups, spans,
                                     out));
  Database* db = rig->db.get();

  ELE_ASSIGN_OR_RETURN(QueryResult max_key,
                       db->Execute("SELECT MAX(o_orderkey) FROM orders"));
  const int64_t orders = max_key.rows.at(0).at(0).AsInt64();
  ELE_ASSIGN_OR_RETURN(std::vector<elephant::Value> shipdates,
                       DistinctDates(db, "lineitem", "l_shipdate"));
  ELE_ASSIGN_OR_RETURN(std::vector<elephant::Value> orderdates,
                       DistinctDates(db, "orders", "o_orderdate"));

  elephant::Rng rng(config.seed ^ 0xad0c5eedull);
  std::vector<std::string> order;
  for (const char* f : kFamilies) {
    for (int i = 0; i < kPerFamily; i++) order.push_back(f);
  }
  for (size_t i = order.size(); i > 1; i--) {
    std::swap(order[i - 1], order[static_cast<size_t>(rng.Uniform(
                                0, static_cast<int64_t>(i) - 1))]);
  }

  std::vector<Statement> stmts;
  for (size_t i = 0; i < order.size(); i++) {
    const std::string& family = order[i];
    std::string sql;
    if (family == "point" || family == "prefix_agg") {
      const std::string key = std::to_string(rng.Uniform(1, orders));
      sql = family == "point"
                ? "SELECT o_orderkey, o_custkey, o_orderstatus, o_totalprice, "
                  "o_orderdate FROM orders WHERE o_orderkey = " + key
                : "SELECT COUNT(*), SUM(l_quantity), MAX(l_shipdate) FROM "
                  "lineitem WHERE l_orderkey = " + key;
    } else {
      const bool q2 = rng.Uniform(0, 1) == 0;
      const std::vector<elephant::Value>& dates = q2 ? shipdates : orderdates;
      const elephant::Value& d = dates[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(dates.size()) - 1))];
      const elephant::AnalyticQuery query =
          elephant::paper::QueryByName(q2 ? "Q2" : "Q5", d);
      if (family == "mv") {
        ELE_ASSIGN_OR_RETURN(sql, rig->views->TryRewrite(query));
      } else {
        ELE_ASSIGN_OR_RETURN(sql, ColSql(db, *rig, query));
      }
    }
    stmts.push_back({family + "#" + std::to_string(i), family, sql});
  }

  // The first pass warms the pool and fixes each statement's checksum.
  RunPass(db, &stmts, PassKind::kWarmup, /*cold=*/false, spans, out);
  const elephant::BufferPoolStats pool_before = db->pool().stats();
  const double budget = config.trace ? config.seconds / 2 : config.seconds;
  const double start = NowSeconds();
  RunMeasuredPasses(db, &stmts, /*cold=*/false, budget, kMinPasses,
                    /*samples_per_pass=*/1, spans, out);
  const elephant::BufferPoolStats pool_after = db->pool().stats();
  if (config.trace) {
    int traced = 0;
    while (traced < 1 || NowSeconds() - start < config.seconds) {
      RunPass(db, &stmts, PassKind::kTraced, /*cold=*/false, spans, out);
      traced++;
    }
  }

  SetStatementMetrics(stmts, out);
  RecordDeterministic(stmts, out);
  out->Set("storage.pool_hits",
           static_cast<double>(pool_after.hits - pool_before.hits), "count");
  out->Set("storage.pool_misses",
           static_cast<double>(pool_after.misses - pool_before.misses),
           "count");
  for (const char* f : kFamilies) {
    std::vector<double> latency;
    for (const Statement& st : stmts) {
      if (st.family == f) {
        const std::vector<double> lat = st.Latencies(out->host.Scale());
        latency.insert(latency.end(), lat.begin(), lat.end());
      }
    }
    out->Set(std::string("stmt.") + f + ".p50_ms", Quantile(latency, 0.5) * 1e3,
             "ms");
  }
  return Status::OK();
}

}  // namespace perfbench
