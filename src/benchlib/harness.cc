#include "benchlib/harness.h"

#include <algorithm>

#include "benchlib/telemetry.h"

namespace elephant {
namespace paper {

uint64_t ResultChecksum(const QueryResult& result) {
  std::vector<std::string> lines;
  lines.reserve(result.rows.size());
  for (const Row& row : result.rows) {
    std::string line;
    for (const Value& v : row) {
      // Normalize numeric renderings across types (int32 vs int64 etc.).
      if (v.is_null()) {
        line += "<null>|";
      } else if (IsNumeric(v.type()) && v.type() != TypeId::kDouble &&
                 v.type() != TypeId::kDecimal) {
        line += std::to_string(v.AsInt64()) + "|";
      } else {
        line += v.ToString() + "|";
      }
    }
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  uint64_t h = 1469598103934665603ull;
  for (const std::string& line : lines) {
    for (char c : line) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    h ^= '\n';
    h *= 1099511628211ull;
  }
  return h;
}

PaperBench::PaperBench(Options options) : options_(options) {
  DatabaseOptions db_options;
  db_options.buffer_pool_pages = options_.buffer_pool_pages;
  db_ = std::make_unique<Database>(db_options);
  views_ = std::make_unique<mv::ViewManager>(db_.get());
}

PaperBench::~PaperBench() {
  // The harness outlives main()'s Flush() call in no bench, so the metrics
  // scrape has to happen here, while the Database is still alive.
  if (db_ != nullptr) {
    BenchTelemetry::Instance().WriteMetricsText(db_->ExportMetrics());
    BenchTelemetry::Instance().WriteStatStatementsJson(
        db_->ExportStatStatements());
  }
}

Status PaperBench::Setup() {
  TpchConfig config;
  config.scale_factor = options_.scale_factor;
  TpchGenerator gen(config);
  ELE_RETURN_NOT_OK(gen.LoadInto(db_.get()));

  if (options_.build_ctables) {
    cstore::CTableBuilder builder(db_.get());
    for (const ProjectionDef& def : Projections()) {
      ELE_ASSIGN_OR_RETURN(ProjectionMeta meta, builder.Build(def));
      projections_.emplace(def.name, std::move(meta));
    }
  }
  if (options_.build_views) {
    for (const mv::ViewDef& def : Views()) {
      ELE_RETURN_NOT_OK(views_->CreateView(def));
    }
  }
  return Status::OK();
}

Result<Value> PaperBench::DateQuantile(const std::string& table,
                                       const std::string& column,
                                       double fraction) {
  ELE_ASSIGN_OR_RETURN(
      QueryResult r,
      db_->Execute("SELECT " + column + ", COUNT(*) FROM " + table +
                   " GROUP BY " + column + " ORDER BY " + column));
  uint64_t total = 0;
  for (const Row& row : r.rows) total += static_cast<uint64_t>(row[1].AsInt64());
  // Find D such that rows with column > D are ~fraction of the total.
  const uint64_t want_above = static_cast<uint64_t>(fraction * static_cast<double>(total));
  uint64_t above = 0;
  for (size_t i = r.rows.size(); i > 0; i--) {
    above += static_cast<uint64_t>(r.rows[i - 1][1].AsInt64());
    if (above >= want_above) return r.rows[i - 1][0];
  }
  if (r.rows.empty()) return Status::NotFound("empty table");
  return r.rows[0][0];
}

Result<Value> PaperBench::ShipdateForSelectivity(double fraction) {
  return DateQuantile("lineitem", "l_shipdate", fraction);
}

Result<Value> PaperBench::OrderdateForSelectivity(double fraction) {
  return DateQuantile("orders", "o_orderdate", fraction);
}

Result<StrategyResult> PaperBench::RunSql(const std::string& strategy,
                                          const std::string& sql) {
  // Run instrumented so the per-operator breakdown comes along with every
  // result. The wrappers add a little measured CPU per Next() call; the
  // paper's metric is modeled disk time, which is unaffected.
  db_->options().cold_cache = true;
  const auto heat_before = db_->heatmap().Snapshot();
  auto qr = db_->ExplainAnalyze(sql);
  db_->options().cold_cache = false;
  if (!qr.ok()) return qr.status();
  const QueryResult& result = qr.value().result;
  StrategyResult out;
  out.strategy = strategy;
  out.sql = sql;
  out.cpu_seconds = result.cpu_seconds;
  out.io_seconds = result.io_seconds;
  out.seconds = result.TotalSeconds();
  out.pages_sequential = result.io.sequential_reads;
  out.pages_random = result.io.random_reads;
  out.index_seeks = result.counters.index_seeks;
  out.rows = result.rows.size();
  out.checksum = ResultChecksum(result);
  if (result.plan != nullptr) out.operators = obs::FlattenPlan(*result.plan);
  out.heatmap = obs::HeatmapDelta(heat_before, db_->heatmap().Snapshot());
  out.disk_model = db_->disk_model();
  return out;
}

Result<StrategyResult> PaperBench::RunRow(const AnalyticQuery& query) {
  return RunSql("Row", query.ToRowSql());
}

Result<StrategyResult> PaperBench::RunMv(const AnalyticQuery& query) {
  ELE_ASSIGN_OR_RETURN(std::string sql, views_->TryRewrite(query));
  return RunSql("Row(MV)", sql);
}

Result<StrategyResult> PaperBench::RunCol(const AnalyticQuery& query,
                                          const cstore::RewriteOptions& options) {
  const char* proj_name = ProjectionFor(query.name);
  auto it = projections_.find(proj_name);
  if (it == projections_.end()) {
    return Status::NotFound(std::string("projection ") + proj_name +
                            " not built");
  }
  cstore::Rewriter rewriter(it->second);
  cstore::RewriteOptions effective = options;
  // The paper tuned hints per query (§3 "Query hints"). We automate the same
  // choice: for unselective predicates over long c-table chains, per-run
  // index probes lose to f-ordered merge scans, so hint MERGE_JOIN there;
  // everywhere else LOOP_JOIN keeps the seeks cheap and minimal.
  const bool caller_defaults = options.range_collapse && options.use_hints &&
                               !options.force_merge_join;
  if (caller_defaults && !query.filters.empty()) {
    cstore::ColOptModel model(db_.get(), it->second);
    auto est = model.Estimate(query);
    if (est.ok()) {
      const size_t chain = query.ReferencedColumns().size();
      const bool collapse = rewriter.RangeCollapseApplies(query);
      // When the Figure 4(b) collapse applies, the whole chain degenerates
      // to range scans plus f-ordered probes, which beat full-scan merges at
      // every selectivity; only uncollapsible chains flip to MERGE when the
      // predicate is unselective.
      if (est.value().selectivity >= 0.4 && chain >= 2 && !collapse) {
        effective.force_merge_join = true;
      }
    }
  }
  ELE_ASSIGN_OR_RETURN(std::string sql, rewriter.Rewrite(query, effective));
  return RunSql("Row(Col)", sql);
}

Result<StrategyResult> PaperBench::RunColExact(
    const AnalyticQuery& query, const cstore::RewriteOptions& options) {
  const char* proj_name = ProjectionFor(query.name);
  auto it = projections_.find(proj_name);
  if (it == projections_.end()) {
    return Status::NotFound(std::string("projection ") + proj_name +
                            " not built");
  }
  cstore::Rewriter rewriter(it->second);
  ELE_ASSIGN_OR_RETURN(std::string sql, rewriter.Rewrite(query, options));
  return RunSql("Row(Col)", sql);
}

Result<StrategyResult> PaperBench::RunColOpt(const AnalyticQuery& query) {
  const char* proj_name = ProjectionFor(query.name);
  auto it = projections_.find(proj_name);
  if (it == projections_.end()) {
    return Status::NotFound(std::string("projection ") + proj_name +
                            " not built");
  }
  cstore::ColOptModel model(db_.get(), it->second);
  ELE_ASSIGN_OR_RETURN(cstore::ColOptEstimate est, model.Estimate(query));
  StrategyResult out;
  out.strategy = "ColOpt";
  out.seconds = est.seconds;
  out.io_seconds = est.seconds;
  out.pages_sequential = est.pages;
  return out;
}

}  // namespace paper
}  // namespace elephant
