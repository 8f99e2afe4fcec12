// fig2_cold: the paper's Figure-2 protocol. The 19 sweep points, each run
// as Row, Row(MV) and Row(Col) in that order (the paper harness's per-point
// interleave), with the buffer pool dropped before every statement. The
// modeled I/O depends on statement order (disk head and read-ahead state
// survive a pool drop), so the order is fixed, the disk is parked at each
// pass start and a warm-up pass is discarded; every page count then repeats
// exactly from pass to pass.

#include <cstdio>

#include "bench.h"
#include "benchlib/workload.h"
#include "cstore/colopt.h"
#include "passes.h"

namespace perfbench {

namespace {

struct Point {
  const char* query;
  double selectivity;  ///< < 0: equality predicate (Q2, Q5) or none (Q7)
};

constexpr Point kPoints[] = {
    {"Q1", 0.01}, {"Q1", 0.1}, {"Q1", 0.5}, {"Q1", 1.0}, {"Q2", -1},
    {"Q3", 0.01}, {"Q3", 0.1}, {"Q3", 0.5}, {"Q3", 1.0}, {"Q4", 0.01},
    {"Q4", 0.1},  {"Q4", 0.5}, {"Q4", 1.0}, {"Q5", -1},  {"Q6", 0.01},
    {"Q6", 0.1},  {"Q6", 0.5}, {"Q6", 1.0}, {"Q7", -1},
};
constexpr const char* kStrategies[] = {"row", "mv", "col"};
constexpr int kSetups = 2;  // each setup builds the c-tables (~10 s)
constexpr int kMinPasses = 3;
constexpr int kHostSamplesPerPass = 30;  // ~1 ms each against a ~2.7 s pass

Result<elephant::Value> PointDate(Database* db, const Point& p) {
  const std::string q = p.query;
  if (q == "Q7") return elephant::Value::Char("R");
  const bool on_shipdate = q == "Q1" || q == "Q2" || q == "Q3";
  const double fraction = p.selectivity < 0 ? 0.5 : p.selectivity;
  return on_shipdate
             ? DateForSelectivity(db, "lineitem", "l_shipdate", fraction)
             : DateForSelectivity(db, "orders", "o_orderdate", fraction);
}

std::string PointLabel(const Point& p) {
  if (p.selectivity < 0) return std::string(p.query) + "@eq";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s@%.0f%%", p.query, p.selectivity * 100);
  return buf;
}

}  // namespace

Status RunFig2Cold(const RunConfig& config, SpanRecorder* spans,
                   Outcome* out) {
  ELE_ASSIGN_OR_RETURN(std::unique_ptr<Rig> rig,
                       SetupRepeated(config, /*with_ctables=*/true,
                                     /*wal_enabled=*/false, kSetups, spans,
                                     out));
  Database* db = rig->db.get();

  constexpr size_t kNumPoints = sizeof(kPoints) / sizeof(kPoints[0]);
  std::vector<Statement> stmts;
  std::vector<double> colopt_s;
  for (const Point& p : kPoints) {
    ELE_ASSIGN_OR_RETURN(elephant::Value d, PointDate(db, p));
    const elephant::AnalyticQuery query = elephant::paper::QueryByName(p.query, d);
    ELE_ASSIGN_OR_RETURN(std::string mv_sql, rig->views->TryRewrite(query));
    ELE_ASSIGN_OR_RETURN(std::string col_sql, ColSql(db, *rig, query));
    const std::string label = PointLabel(p);
    stmts.push_back({label + "/row", "row", query.ToRowSql()});
    stmts.push_back({label + "/mv", "mv", mv_sql});
    stmts.push_back({label + "/col", "col", col_sql});
    elephant::cstore::ColOptModel model(
        db, rig->projections.at(elephant::paper::ProjectionFor(p.query)));
    ELE_ASSIGN_OR_RETURN(elephant::cstore::ColOptEstimate est,
                         model.Estimate(query));
    colopt_s.push_back(est.seconds);
  }

  RunPass(db, &stmts, PassKind::kWarmup, /*cold=*/true, spans, out);
  for (size_t i = 0; i < kNumPoints; i++) {
    const Statement& row = stmts[3 * i];
    for (size_t k = 1; k < 3; k++) {
      const Statement& other = stmts[3 * i + k];
      if (row.have_checksum && other.have_checksum &&
          row.checksum != other.checksum) {
        out->Fail(other.label + ": result differs from " + row.label);
      }
    }
  }

  const elephant::BufferPoolStats pool_before = db->pool().stats();
  const double budget = config.trace ? config.seconds / 2 : config.seconds;
  const double start = NowSeconds();
  RunMeasuredPasses(db, &stmts, /*cold=*/true, budget, kMinPasses,
                    kHostSamplesPerPass, spans, out);
  const elephant::BufferPoolStats pool_after = db->pool().stats();
  int traced_passes = 0;
  if (config.trace) {
    while (traced_passes < 1 || NowSeconds() - start < config.seconds) {
      RunPass(db, &stmts, PassKind::kTraced, /*cold=*/true, spans, out);
      traced_passes++;
    }
  }

  SetStatementMetrics(stmts, out);
  RecordDeterministic(stmts, out);
  out->Set("storage.pool_hits",
           static_cast<double>(pool_after.hits - pool_before.hits), "count");
  out->Set("storage.pool_misses",
           static_cast<double>(pool_after.misses - pool_before.misses),
           "count");

  // Per strategy: the Figure-2 time of one sweep (modeled disk + measured
  // Execute wall, per-statement median over passes) and its layers.
  const double scale = out->host.Scale();
  for (const char* s : kStrategies) {
    double total = 0, cpu = 0, io = 0, traced_wall = 0, untraced_wall = 0;
    double unattributed = 0;
    uint64_t seq = 0, rnd = 0, ra_hits = 0, ra_wasted = 0, seeks = 0;
    uint64_t scanned = 0;
    std::map<std::string, double> ops;
    for (const Statement& st : stmts) {
      if (st.family != s) continue;
      total += Median(st.Latencies(scale));
      cpu += Median(st.wall_s) * scale;
      io += st.io_seconds;
      seq += st.io.sequential_reads;
      rnd += st.io.random_reads;
      ra_hits += st.io.readahead.prefetch_hits;
      ra_wasted += st.io.readahead.prefetch_wasted;
      seeks += st.exec.index_seeks;
      scanned += st.exec.rows_scanned;
      if (traced_passes > 0) {
        untraced_wall += Median(st.wall_s);
        traced_wall += Median(st.traced_wall_s);
        double self = 0;
        for (const auto& [op, secs] : st.op_self_s) {
          ops[op] += secs * scale / traced_passes;
          self += secs;
        }
        unattributed += (st.traced_execute_s - self) * scale / traced_passes;
      }
    }
    const std::string p = std::string(".") + s + ".";
    out->Set(std::string(s) + "_s", total, "s");
    out->Set("exec" + p + "cpu_s", cpu, "s");
    out->Set("storage" + p + "io_model_s", io, "s");
    out->Set("storage" + p + "seq_reads", static_cast<double>(seq), "count");
    out->Set("storage" + p + "rand_reads", static_cast<double>(rnd), "count");
    out->Set("storage" + p + "readahead_hits", static_cast<double>(ra_hits),
             "count");
    out->Set("storage" + p + "readahead_wasted",
             static_cast<double>(ra_wasted), "count");
    out->Set("index" + p + "seeks", static_cast<double>(seeks), "count");
    out->Set("exec" + p + "rows_scanned", static_cast<double>(scanned),
             "count");
    if (traced_passes > 0) {
      for (const auto& [op, secs] : ops) {
        out->Set("exec" + p + "op." + op + ".self_s", secs, "s");
      }
      out->Set("obs" + p + "unattributed_s", unattributed, "s");
      out->Set("obs" + p + "trace_overhead",
               untraced_wall > 0 ? traced_wall / untraced_wall : 0, "ratio");
    }
  }

  // §2.2.4: per query, the average over its sweep points of
  // Row(Col)/ColOpt; then the average over the seven queries.
  std::map<std::string, std::pair<double, int>> per_query;
  double colopt_total = 0;
  for (size_t i = 0; i < kNumPoints; i++) {
    colopt_total += colopt_s[i];
    if (colopt_s[i] <= 0) continue;
    auto& acc = per_query[kPoints[i].query];
    acc.first += Median(stmts[3 * i + 2].Latencies(scale)) / colopt_s[i];
    acc.second++;
  }
  double ratio_sum = 0;
  for (const auto& [q, acc] : per_query) ratio_sum += acc.first / acc.second;
  out->Set("col_vs_colopt",
           per_query.empty() ? 0 : ratio_sum / per_query.size(), "ratio");
  out->Set("cstore.colopt_s", colopt_total, "s");
  return Status::OK();
}

}  // namespace perfbench
